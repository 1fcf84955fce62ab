//! The `openarc` command-line driver: run, verify, and optimize OpenACC
//! MiniC programs from files.
//!
//! ```text
//! openarc run <file.c>                 translate + execute, print outputs
//! openarc cpu <file.c>                 sequential reference execution
//! openarc verify <file.c> [spec]      §III-A kernel verification
//!                                      (spec: the paper's
//!                                      verificationOptions syntax)
//! openarc check <file.c>               §III-B memory-transfer verification
//! openarc demote <file.c> <kernel#>    print the Listing-2 demotion
//! openarc profile <file.c> [flags]     event-journal profiling: Chrome
//!                                      trace export + per-kernel summary
//! openarc bench [flags]                batch mode: run the 12-benchmark ×
//!                                      3-variant matrix through one
//!                                      pipeline session
//! openarc fuzz [--seed N] [flags]      coverage-guided differential fuzzing
//!                                      of the whole pipeline; writes
//!                                      BENCH_fuzz.json and minimized repros
//! openarc cache <stats|gc|clear>     inspect or prune the persistent
//!                                      artifact store
//! ```
//!
//! Every pipeline command accepts `--cache-dir DIR` (use the persistent
//! artifact store at DIR) and `--no-cache`; `bench` defaults the store
//! **on** at `target/openarc-cache`, the single-program commands default
//! it off. Exit codes: `0` ok, `1` verification/check findings, `2` bad
//! input or usage, `3` execution failure.

use openarc::bench::args::BenchArgs;
use openarc::core::api::{self, Action, ApiError, Request};
use openarc::core::cache::{DiskCache, DEFAULT_DIR};
use openarc::core::pipeline::{PipelineError, Session};
use openarc::prelude::*;
use openarc::trace::json::Json;
use openarc::trace::{chrome_trace, explain_var, summarize};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("openarc: {}", e.msg);
            std::process::exit(e.code);
        }
    }
}

/// A CLI failure: the message for stderr plus the process exit code.
/// Usage/input-file problems exit `2`; pipeline errors carry their own
/// mapping ([`PipelineError::exit_code`]: bad program `2`, failed run `3`).
struct CliError {
    msg: String,
    code: i32,
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError { msg, code: 2 }
    }
}

impl From<PipelineError> for CliError {
    fn from(e: PipelineError) -> CliError {
        CliError {
            msg: e.to_string(),
            code: e.exit_code(),
        }
    }
}

impl From<ApiError> for CliError {
    fn from(e: ApiError) -> CliError {
        CliError {
            code: e.exit_code(),
            msg: e.message,
        }
    }
}

fn usage() -> String {
    "usage: openarc <run|cpu|verify|check|demote|profile|serve|bench|fuzz|cache> [args]\n\
     \n\
     run    <file.c>            translate and execute on the simulated device\n\
     cpu    <file.c>            execute the sequential reference\n\
     verify <file.c> [options]  kernel verification; options use the paper's\n\
                                syntax, e.g. complement=0,kernels=main_kernel0;\n\
                                devices=<N> spreads independent launches\n\
                                round-robin over N simulated devices\n\
     check  <file.c>            memory-transfer verification report\n\
     demote <file.c> <kernel#>  print the memory-transfer-demoted program\n\
     profile <file.c> [flags]   run with the event journal enabled\n\
       --trace-out <path>       write a Chrome trace_event JSON file\n\
       --summary                print per-category and per-kernel totals\n\
       --filter-kernel <name>   restrict the trace/kernel table to one kernel\n\
       --explain <var>          print the event timeline for one variable\n\
       --verify                 profile a kernel-verification run instead\n\
       --verify-opts <spec>     like --verify with verificationOptions, e.g.\n\
                                devices=2\n\
     serve [flags]              start the compile-and-verify daemon; clients\n\
                                send newline-framed JSON requests (see the\n\
                                README's wire-protocol table)\n\
       --tcp <ADDR>             listen address (default 127.0.0.1:0; the\n\
                                chosen port is printed as `listening on ...`)\n\
       --jobs <N|auto>          requests run at once (default 2)\n\
       --queue <N>              admission queue bound (default 64); beyond\n\
                                it requests are refused with retry_after_ms\n\
       --stats-interval-ms <N>  heartbeat period for serve gauge events\n\
                                (default 1000, 0 disables)\n\
       --journal-out <path>     write the heartbeat journal as a Chrome\n\
                                trace on shutdown\n\
     bench [flags]              run the benchmark suite's 12×3 matrix\n\
       --scale <small|bench>    problem scale (default: bench)\n\
       --n <SIZE> --iters <N>   override the scale's size/iterations\n\
     fuzz [flags]               coverage-guided differential fuzzing: generated\n\
                                and mutated programs run through the CPU-vs-GPU,\n\
                                coherence-model, and cross-config oracles; the\n\
                                campaign is bit-reproducible from --seed\n\
       --seed <N>               campaign seed (default 1)\n\
       --programs <N>           generated/mutated programs (default 200)\n\
       --jobs <N|auto>          executor worker threads (never affects results)\n\
       --time-budget-s <S>      stop after S wall-clock seconds (marks the\n\
                                report truncated)\n\
       --corpus <DIR>           seed the campaign with every *.c in DIR\n\
       --replay                 only replay the corpus + baseline (no generation)\n\
       --out <DIR>              write minimized finding-NNN.c repros to DIR\n\
       --report <PATH>          BENCH_fuzz.json path (default BENCH_fuzz.json)\n\
     cache stats [--json]       per-stage entry counts and bytes\n\
     cache gc --max-bytes <N>   evict least-recently-used entries to <= N bytes\n\
     cache clear                delete every cached artifact\n\
     \n\
     run/cpu/check/profile take --cache-dir <DIR> to persist pipeline\n\
     artifacts across processes; bench caches at target/openarc-cache by\n\
     default (--no-cache disables, --cache-dir relocates); cache takes\n\
     --cache-dir to point at a non-default store"
        .to_string()
}

/// Split `--cache-dir DIR` / `--no-cache` out of `rest`, returning the
/// remaining arguments plus the resolved cache root (`default` when
/// neither flag appears; `--no-cache` wins over both).
fn cache_flags(
    rest: &[String],
    default: Option<&str>,
) -> Result<(Vec<String>, Option<PathBuf>), String> {
    let mut out = Vec::with_capacity(rest.len());
    let mut dir: Option<PathBuf> = None;
    let mut no_cache = false;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cache-dir" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("--cache-dir needs a value\n{}", usage()))?;
                dir = Some(PathBuf::from(v));
            }
            "--no-cache" => no_cache = true,
            _ => out.push(a.clone()),
        }
    }
    let dir = if no_cache {
        None
    } else {
        dir.or_else(|| default.map(PathBuf::from))
    };
    Ok((out, dir))
}

/// Fresh pipeline session honouring a resolved `--cache-dir`.
fn session_with(cache: Option<&PathBuf>) -> Session {
    match cache {
        Some(dir) => Session::builder().disk_cache(dir).build(),
        None => Session::builder().build(),
    }
}

fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn load(path: &str) -> Result<(openarc::minic::Program, openarc::minic::Sema), String> {
    let src = read_source(path)?;
    frontend(&src).map_err(|ds| {
        ds.iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    })
}

/// Route a one-shot pipeline command through [`api::handle`] — the same
/// entry point the `serve` daemon uses — and print the rendered report
/// verbatim, so one-shot and served output are byte-identical by
/// construction.
fn one_shot(action: Action, rest: &[String]) -> Result<i32, CliError> {
    let (rest, cache) = cache_flags(rest, None)?;
    let path = rest.first().ok_or_else(usage)?;
    let mut req = Request::new(action, read_source(path)?);
    if action == Action::Verify {
        req.options = rest.get(1).cloned();
    } else if rest.len() > 1 {
        return Err(format!("unexpected argument `{}`\n{}", rest[1], usage()).into());
    }
    let session = session_with(cache.as_ref());
    let resp = api::handle(&session, &req)?;
    print!("{}", resp.report);
    Ok(resp.exit_code)
}

fn run(args: &[String]) -> Result<i32, CliError> {
    let (cmd, rest) = args.split_first().ok_or_else(usage)?;
    // Every action but `profile` is a one-shot command of the same name.
    if let Some(action) = Action::from_wire(cmd).filter(|a| *a != Action::Profile) {
        return one_shot(action, rest);
    }
    match cmd.as_str() {
        "demote" => {
            let path = rest.first().ok_or_else(usage)?;
            let idx: usize = rest
                .get(1)
                .ok_or_else(usage)?
                .parse()
                .map_err(|_| "kernel index must be an integer".to_string())?;
            let (p, s) = load(path)?;
            let tr = translate(&p, &s, &TranslateOptions::default())
                .map_err(PipelineError::Translate)?;
            if idx >= tr.kernels.len() {
                return Err(format!(
                    "kernel index {idx} out of range: the program has {} kernel(s)",
                    tr.kernels.len()
                )
                .into());
            }
            let demoted =
                demote_source(&p, &std::iter::once(idx).collect(), 1).map_err(|e| e.to_string())?;
            print!("{}", openarc::minic::print_program(&demoted));
            Ok(0)
        }
        "profile" => profile(rest),
        "serve" => serve(rest),
        "bench" => bench(rest),
        "fuzz" => fuzz_cmd(rest),
        "cache" => cache_cmd(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(0)
        }
        other => Err(format!("unknown command `{other}`\n{}", usage()).into()),
    }
}

/// `openarc serve`: start the multi-tenant compile-and-verify daemon.
/// Requests route through the same `core::api` entry point as the
/// one-shot commands, so served reports are byte-identical to the CLI;
/// tenant ids map to namespaced sessions over one shared disk store
/// (default `target/openarc-cache`, `--no-cache` for memory-only).
fn serve(rest: &[String]) -> Result<i32, CliError> {
    use openarc::core::serve::{Server, ServerConfig};

    let (rest, cache) = cache_flags(rest, Some(DEFAULT_DIR))?;
    let mut cfg = ServerConfig {
        cache_dir: cache,
        ..ServerConfig::default()
    };
    let mut addr = "127.0.0.1:0".to_string();
    let mut journal_out: Option<&str> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(|s| s.as_str())
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--tcp" => addr = value("--tcp")?.to_string(),
            "--jobs" => cfg.workers = openarc::core::sched::parse_jobs(value("--jobs")?)?,
            "--queue" => {
                cfg.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|_| "--queue expects a positive integer".to_string())?;
            }
            "--stats-interval-ms" => {
                let ms: u64 = value("--stats-interval-ms")?
                    .parse()
                    .map_err(|_| "--stats-interval-ms expects an integer".to_string())?;
                cfg.stats_interval = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--journal-out" => journal_out = Some(value("--journal-out")?),
            flag => return Err(format!("unknown serve flag `{flag}`\n{}", usage()).into()),
        }
    }
    let server =
        Server::bind_tcp(cfg, &addr).map_err(|e| format!("serve: cannot bind {addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| format!("serve: {e}"))?;
    // The discovery line clients (and CI) parse to find the port.
    println!("listening on {local}");
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    server.run().map_err(|e| format!("serve: {e}"))?;
    let stats = server.stats_json();
    if let Some(out) = journal_out {
        let events = server.journal().drain();
        std::fs::write(out, chrome_trace(&events)).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {} heartbeat events to {out}", events.len());
    }
    println!("serve: shut down\n{}", stats.pretty());
    Ok(0)
}

/// `openarc bench`: batch mode. Runs the full 12-benchmark × 3-variant
/// matrix in order through one pipeline session. The persistent
/// artifact store defaults **on** at `target/openarc-cache`, so a second
/// `openarc bench` invocation reloads every compiled stage from disk.
fn bench(rest: &[String]) -> Result<i32, CliError> {
    let args =
        BenchArgs::parse(rest, Some(DEFAULT_DIR)).map_err(|e| format!("{e}\n{}", usage()))?;
    let sw = args.sweep();
    let (rows, events) = sw.matrix()?;
    println!(
        "{:<10} {:<12} {:>14} {:>12} {:>9} {:>8}",
        "benchmark", "variant", "sim_time_us", "bytes", "launches", "events"
    );
    for r in &rows {
        println!(
            "{:<10} {:<12} {:>14.1} {:>12} {:>9} {:>8}",
            r.bench, r.variant, r.sim_us, r.transferred_bytes, r.kernel_launches, r.events
        );
    }
    println!("--");
    println!(
        "{} cells (n={}, iters={}), {} journal events",
        rows.len(),
        sw.scale.n,
        sw.scale.iters,
        events.len()
    );
    println!("pipeline cache:\n{}", sw.session.stats());
    Ok(0)
}

/// `openarc fuzz`: run a coverage-guided differential fuzzing campaign.
/// The baseline coverage set is always the 12 reduced benchmarks
/// ([`openarc::suite::reduced_corpus`]); `--corpus DIR` additionally seeds
/// the mutation corpus with the committed regression repros. Everything
/// the campaign reports is a pure function of `--seed` (and `--programs`);
/// `--jobs` only changes wall-clock time. Exits `1` when the oracle found
/// divergences, `0` on a clean campaign.
fn fuzz_cmd(rest: &[String]) -> Result<i32, CliError> {
    use openarc::core::fuzz::{run_campaign, CampaignConfig};

    let mut cfg = CampaignConfig::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut report_path = "BENCH_fuzz.json".to_string();
    let mut corpus_dir: Option<PathBuf> = None;
    let mut replay = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(|s| s.as_str())
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?;
            }
            "--programs" => {
                cfg.max_programs = value("--programs")?
                    .parse()
                    .map_err(|_| "--programs expects an integer".to_string())?;
            }
            "--jobs" => cfg.jobs = openarc::core::sched::parse_jobs(value("--jobs")?)?,
            "--time-budget-s" => {
                cfg.time_budget_s = Some(
                    value("--time-budget-s")?
                        .parse()
                        .map_err(|_| "--time-budget-s expects seconds".to_string())?,
                );
            }
            "--corpus" => corpus_dir = Some(PathBuf::from(value("--corpus")?)),
            "--replay" => replay = true,
            "--out" => out_dir = Some(PathBuf::from(value("--out")?)),
            "--report" => report_path = value("--report")?.to_string(),
            flag => return Err(format!("unknown fuzz flag `{flag}`\n{}", usage()).into()),
        }
    }
    if replay {
        cfg.max_programs = 0;
    }
    cfg.baseline = openarc::suite::reduced_corpus(openarc::suite::Scale { n: 8, iters: 2 })
        .into_iter()
        .map(|(_, src)| src)
        .collect();
    if let Some(dir) = &corpus_dir {
        // Sorted path order keeps the corpus contribution deterministic.
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "c"))
            .collect();
        paths.sort();
        for p in &paths {
            cfg.seeds
                .push(std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?);
        }
        println!(
            "corpus: {} seed program(s) from {}",
            paths.len(),
            dir.display()
        );
    }

    let r = run_campaign(&cfg);

    println!(
        "fuzz: seed {} · {} program(s) executed ({} rejected, {} racy){}",
        r.seed,
        r.programs,
        r.rejected,
        r.racy,
        if r.truncated {
            " · TRUNCATED by time budget"
        } else {
            ""
        }
    );
    println!(
        "coverage: {} atoms total, {} baseline, {} new · corpus {} · fingerprint {:016x}",
        r.coverage.len(),
        r.baseline_coverage.len(),
        r.new_atoms().len(),
        r.corpus,
        r.fingerprint
    );
    for (i, f) in r.findings.iter().enumerate() {
        println!(
            "finding {i}: {} on {} (x{}, minimized {}) — {}",
            f.kind.name(),
            f.config,
            f.occurrences,
            if f.minimized_ok {
                "ok"
            } else {
                "BUDGET EXPIRED"
            },
            f.detail
        );
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for (i, f) in r.findings.iter().enumerate() {
            // Self-contained repro: the header comment carries everything
            // needed to replay the finding by hand.
            let repro = format!(
                "// openarc fuzz finding {i}: {kind} on config `{config}`\n\
                 // detail: {detail}\n\
                 // verificationOptions: {options}\n\
                 // replay: openarc verify <this file> {options}\n\
                 //         openarc check <this file>\n\
                 {src}",
                kind = f.kind.name(),
                config = f.config,
                detail = f.detail,
                options = f.options,
                src = f.minimized
            );
            let path = dir.join(format!("finding-{i:03}.c"));
            std::fs::write(&path, repro).map_err(|e| format!("{}: {e}", path.display()))?;
            let orig = dir.join(format!("finding-{i:03}.orig.c"));
            std::fs::write(&orig, &f.source).map_err(|e| format!("{}: {e}", orig.display()))?;
            println!("wrote {}", path.display());
        }
    }

    let json = openarc::bench::fuzzstats::campaign_json(&r);
    if let Some(parent) = std::path::Path::new(&report_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
    }
    std::fs::write(&report_path, json.pretty()).map_err(|e| format!("{report_path}: {e}"))?;
    println!("wrote {report_path}");
    Ok(if r.findings.is_empty() { 0 } else { 1 })
}

/// `openarc cache`: inspect or prune the persistent artifact store without
/// running anything. Operates on `target/openarc-cache` unless
/// `--cache-dir` points elsewhere.
fn cache_cmd(rest: &[String]) -> Result<i32, CliError> {
    let (rest, dir) = cache_flags(rest, Some(DEFAULT_DIR))?;
    let dir = dir.ok_or_else(|| format!("cache: --no-cache makes no sense here\n{}", usage()))?;
    let cache = DiskCache::new(&dir);
    let (sub, rest) = rest
        .split_first()
        .ok_or_else(|| format!("cache: expected stats, gc, or clear\n{}", usage()))?;
    match sub.as_str() {
        "stats" => {
            let json = match rest {
                [] => false,
                [flag] if flag == "--json" => true,
                _ => return Err(format!("cache stats: unexpected arguments\n{}", usage()).into()),
            };
            let rows = cache.usage();
            if json {
                let out = Json::obj(vec![
                    ("dir", Json::from(dir.to_string_lossy().as_ref())),
                    (
                        "stages",
                        Json::Arr(
                            rows.iter()
                                .map(|r| {
                                    Json::obj(vec![
                                        ("stage", Json::from(r.stage)),
                                        ("entries", Json::from(r.entries)),
                                        ("bytes", Json::from(r.bytes)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]);
                println!("{}", out.pretty());
            } else {
                println!("cache dir: {}", dir.display());
                println!("{:<12} {:>8} {:>12}", "stage", "entries", "bytes");
                for r in &rows {
                    println!("{:<12} {:>8} {:>12}", r.stage, r.entries, r.bytes);
                }
                println!(
                    "{:<12} {:>8} {:>12}",
                    "total",
                    rows.iter().map(|r| r.entries).sum::<u64>(),
                    rows.iter().map(|r| r.bytes).sum::<u64>()
                );
            }
            Ok(0)
        }
        "gc" => {
            let max_bytes: u64 = match rest {
                [flag, v] if flag == "--max-bytes" => v
                    .parse()
                    .map_err(|_| "cache gc: --max-bytes expects a byte count".to_string())?,
                _ => return Err(format!("cache gc: expected --max-bytes <N>\n{}", usage()).into()),
            };
            let r = cache.gc(max_bytes);
            println!(
                "examined {} entries, evicted {}, {} -> {} bytes",
                r.examined, r.evicted, r.bytes_before, r.bytes_after
            );
            Ok(0)
        }
        "clear" => {
            if !rest.is_empty() {
                return Err(format!("cache clear: unexpected arguments\n{}", usage()).into());
            }
            let removed = cache.clear();
            println!("removed {removed} entries from {}", dir.display());
            Ok(0)
        }
        other => Err(format!("cache: unknown subcommand `{other}`\n{}", usage()).into()),
    }
}

/// `openarc profile`: run the program with the event journal enabled, then
/// render the journal as a Chrome trace, a per-kernel summary, and/or a
/// per-variable timeline. With `--cache-dir` the run goes through the
/// persistent store; disk hits/misses appear as `cache` rows in the
/// summary's stage table.
fn profile(rest: &[String]) -> Result<i32, CliError> {
    let (rest, cache) = cache_flags(rest, None)?;
    let mut path: Option<&str> = None;
    let mut trace_out: Option<&str> = None;
    let mut summary = false;
    let mut filter_kernel: Option<&str> = None;
    let mut explain: Vec<&str> = Vec::new();
    let mut verify = false;
    let mut verify_opts: Option<&str> = None;

    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(|s| s.as_str())
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--summary" => summary = true,
            "--filter-kernel" => filter_kernel = Some(value("--filter-kernel")?),
            "--explain" => explain.push(value("--explain")?),
            "--verify" => verify = true,
            "--verify-opts" => verify_opts = Some(value("--verify-opts")?),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown profile flag `{flag}`\n{}", usage()).into());
            }
            p if path.is_none() => path = Some(p),
            p => return Err(format!("unexpected argument `{p}`\n{}", usage()).into()),
        }
    }
    let path = path.ok_or_else(usage)?;
    // With no output selected, the summary is the default deliverable.
    if trace_out.is_none() && explain.is_empty() {
        summary = true;
    }

    // Route the run through a pipeline session with a stage journal so the
    // summary can show where wall-clock time went per pipeline stage
    // (frontend/translate/execute), alongside the simulated-time tables.
    // The execution itself goes through `api::handle`, the same entry point
    // behind the one-shot commands and the serve daemon.
    let stage_journal = Journal::enabled();
    let session = match &cache {
        Some(dir) => Session::builder()
            .journal(stage_journal.clone())
            .disk_cache(dir)
            .build(),
        None => Session::builder().journal(stage_journal.clone()).build(),
    };
    let mut req = Request::new(Action::Profile, read_source(path)?);
    req.options = if let Some(spec) = verify_opts {
        Some(spec.to_string())
    } else if verify {
        // The empty spec parses to `VerifyOptions::default()`.
        Some(String::new())
    } else {
        None
    };
    let resp = api::handle(&session, &req)?;
    let events = resp.events;

    if let Some(out) = trace_out {
        let filtered: Vec<openarc::trace::TraceEvent> = match filter_kernel {
            Some(k) => events
                .iter()
                .filter(|e| e.matches_kernel(k))
                .cloned()
                .collect(),
            None => events.clone(),
        };
        std::fs::write(out, chrome_trace(&filtered)).map_err(|e| format!("{out}: {e}"))?;
        println!(
            "wrote {} events to {out} (chrome://tracing / Perfetto)",
            filtered.len()
        );
    }

    for var in &explain {
        match explain_var(&events, var) {
            Some(text) => println!("{text}"),
            None => println!("no journal events mention `{var}`"),
        }
    }

    if summary {
        // Stage events are wall-clock and live in the session-level
        // journal, never in the deterministic run journal; merge them in
        // only for the summary's stage table.
        let with_stages: Vec<openarc::trace::TraceEvent> = events
            .iter()
            .cloned()
            .chain(stage_journal.drain())
            .collect();
        let mut sum = summarize(&with_stages);
        if let Some(k) = filter_kernel {
            sum.kernels.retain(|row| row.name == k);
        }
        print!("{sum}");
        println!("--");
        println!("journal events    : {}", events.len());
        println!("kernel launches   : {}", resp.kernel_launches);
        println!("simulated time    : {:.1} µs", resp.sim_time_us);
    }

    Ok(resp.exit_code)
}
