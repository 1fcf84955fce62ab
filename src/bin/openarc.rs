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
//! Every command reads its arguments through [`Args`], so an unknown
//! flag, a flag without its value or an extra argument is the same usage
//! error everywhere. `run`, `cpu`, `check`, `verify` and `profile` accept
//! `--cache-dir DIR` (use the persistent artifact store at DIR) and
//! `--no-cache` and default the store off; `bench`, `serve` and `cache`
//! default it **on** at `target/openarc-cache`. Exit codes: `0` ok, `1`
//! verification/check findings, `2` bad input or usage, `3` execution
//! failure. Every command returns its stdout text, and
//! [`args::main`] writes it, so a closed pipe only cuts the output short.

use openarc::bench::args::{self, emit, session, Args, BenchArgs, Outcome};
use openarc::core::api::{self, Action, ApiError, Request};
use openarc::core::cache::{DiskCache, UsageRow, DEFAULT_DIR};
use openarc::prelude::*;
use openarc::trace::json::Json;
use openarc::trace::{chrome_trace, explain_var, summarize};
use std::path::PathBuf;

fn main() {
    args::main("openarc", |argv| {
        run(argv).map_err(|e| (e.exit_code(), e.message))
    })
}

const USAGE: &str = "\
usage: openarc <run|cpu|verify|check|demote|profile|serve|bench|fuzz|cache> [args]

run    <file.c>            translate and execute on the simulated device
cpu    <file.c>            execute the sequential reference
verify <file.c> [options]  kernel verification; options use the paper's
                           syntax, e.g. complement=0,kernels=main_kernel0;
                           devices=<N> spreads independent launches
                           round-robin over N simulated devices
check  <file.c>            memory-transfer verification report
demote <file.c> <kernel#>  print the memory-transfer-demoted program
profile <file.c> [flags]   run with the event journal enabled
  --trace-out <path>       write a Chrome trace_event JSON file
  --summary                print per-category and per-kernel totals
  --filter-kernel <name>   restrict the trace/kernel table to one kernel
  --explain <var>          print the event timeline for one variable
  --verify                 profile a kernel-verification run instead
  --verify-opts <spec>     like --verify with verificationOptions, e.g.
                           devices=2
serve [flags]              start the compile-and-verify daemon; clients
                           send newline-framed JSON requests (see the
                           README's wire-protocol table)
  --tcp <ADDR>             listen address (default 127.0.0.1:0; the
                           chosen port is printed as `listening on ...`)
  --jobs <N|auto>          requests run at once (default 2)
  --queue <N>              admission queue bound (default 64); beyond
                           it requests are refused with retry_after_ms
  --stats-interval-ms <N>  heartbeat period for serve gauge events
                           (default 1000, 0 disables)
  --journal-out <path>     write the heartbeat journal as a Chrome
                           trace on shutdown
bench [flags]              run the benchmark suite's 12×3 matrix
  --scale <small|bench>    problem scale (default: bench)
  --n <SIZE> --iters <N>   override the scale's size/iterations
fuzz [flags]               coverage-guided differential fuzzing: generated
                           and mutated programs run through the CPU-vs-GPU,
                           coherence-model, and cross-config oracles; the
                           campaign is bit-reproducible from --seed
  --seed <N>               campaign seed (default 1)
  --programs <N>           generated/mutated programs (default 200)
  --jobs <N|auto>          executor worker threads (never affects results)
  --time-budget-s <S>      stop after S wall-clock seconds (marks the
                           report truncated)
  --corpus <DIR>           seed the campaign with every *.c in DIR
  --replay                 only replay the corpus + baseline (no generation)
  --out <DIR>              write minimized finding-NNN.c repros to DIR
  --report <PATH>          BENCH_fuzz.json path (default BENCH_fuzz.json)
cache stats [--json]       per-stage entry counts and bytes
cache gc --max-bytes <N>   evict least-recently-used entries to <= N bytes
cache clear                delete every cached artifact

run/cpu/check/verify/profile take --cache-dir <DIR> to persist pipeline
artifacts across processes; bench and serve cache at target/openarc-cache
by default (--no-cache disables, --cache-dir relocates); cache takes
--cache-dir to point at a non-default store";

fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Route a one-shot pipeline command through [`api::handle`] — the same
/// entry point the `serve` daemon uses — and print the rendered report
/// verbatim, so one-shot and served output are byte-identical by
/// construction.
fn one_shot(cmd: &str, action: Action, rest: &[String]) -> Outcome<ApiError> {
    let mut args = Args::new(cmd, rest, USAGE).with_cache(None);
    // `verify` takes the verificationOptions spec after the file.
    let mut pos = [None, None];
    let slots = if action == Action::Verify { 2 } else { 1 };
    while let Some(a) = args.next_arg()? {
        args.positional(a, &mut pos[..slots])?;
    }
    let [Some(path), spec] = pos else {
        return Err(args.error(format!("{cmd}: expected <file.c>")).into());
    };
    let mut req = Request::new(action, read_source(path)?);
    req.options = spec.map(str::to_string);
    let session = session(args.cache_dir().as_deref(), Journal::disabled());
    let resp = api::handle(&session, &req)?;
    Ok((resp.exit_code, resp.report))
}

/// `openarc demote`: print the Listing-2 demotion of one kernel.
fn demote(rest: &[String]) -> Outcome<ApiError> {
    let mut args = Args::new("demote", rest, USAGE);
    let mut pos = [None, None];
    while let Some(a) = args.next_arg()? {
        args.positional(a, &mut pos)?;
    }
    let [Some(path), Some(idx)] = pos else {
        return Err(args.error("demote: expected <file.c> <kernel#>").into());
    };
    let idx: usize = idx
        .parse()
        .map_err(|_| "kernel index must be an integer".to_string())?;
    let session = session(None, Journal::disabled());
    let fe = session.frontend(&read_source(path)?)?;
    let tr = session.translate(&fe, &TranslateOptions::default())?;
    let kernels = &tr.tr.kernels;
    let Some(kernel) = kernels.get(idx) else {
        let n = kernels.len();
        let msg = format!("kernel index {idx} out of range: the program has {n} kernel(s)");
        return Err(msg.into());
    };
    let demoted = demote_source(&fe.program, kernel, 1).map_err(|e| e.to_string())?;
    Ok((0, openarc::minic::print_program(&demoted)))
}

fn run(args: &[String]) -> Outcome<ApiError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| ApiError::bad_request(USAGE))?;
    // Every action but `profile` is a one-shot command of the same name.
    if let Some(action) = Action::from_wire(cmd).filter(|a| *a != Action::Profile) {
        return one_shot(cmd, action, rest);
    }
    match cmd.as_str() {
        "demote" => demote(rest),
        "profile" => profile(rest),
        "serve" => serve(rest),
        "bench" => bench(rest),
        "fuzz" => fuzz_cmd(rest),
        "cache" => cache_cmd(rest),
        "help" | "--help" | "-h" => Ok((0, format!("{USAGE}\n"))),
        other => Err(ApiError::bad_request(format!(
            "unknown command `{other}`\n{USAGE}"
        ))),
    }
}

/// `openarc serve`: start the multi-tenant compile-and-verify daemon.
/// Requests route through the same `core::api` entry point as the
/// one-shot commands, so served reports are byte-identical to the CLI;
/// tenant ids map to namespaced sessions over one shared disk store
/// (default `target/openarc-cache`, `--no-cache` for memory-only).
fn serve(rest: &[String]) -> Outcome<ApiError> {
    use openarc::core::serve::{Server, ServerConfig};

    let mut args = Args::new("serve", rest, USAGE).with_cache(Some(DEFAULT_DIR));
    let mut cfg = ServerConfig::default();
    let mut addr = "127.0.0.1:0";
    let mut journal_out: Option<&str> = None;
    while let Some(a) = args.next_arg()? {
        match a {
            "--tcp" => addr = args.value(a)?,
            "--jobs" => cfg.workers = openarc::core::sched::parse_jobs(args.value(a)?)?,
            "--queue" => cfg.queue_capacity = args.parse(a, "a positive integer")?,
            "--stats-interval-ms" => {
                let ms: u64 = args.parse(a, "an integer")?;
                cfg.stats_interval = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--journal-out" => journal_out = Some(args.value(a)?),
            other => args.positional(other, &mut [])?,
        }
    }
    cfg.cache_dir = args.cache_dir();
    let server =
        Server::bind_tcp(cfg, addr).map_err(|e| format!("serve: cannot bind {addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| format!("serve: {e}"))?;
    // The discovery line clients (and CI) parse to find the port, written
    // before the daemon starts answering.
    emit(&format!("listening on {local}\n"));
    server.run().map_err(|e| format!("serve: {e}"))?;
    let stats = server.stats_json();
    let mut text = String::new();
    if let Some(out) = journal_out {
        let events = server.journal().drain();
        std::fs::write(out, chrome_trace(&events)).map_err(|e| format!("{out}: {e}"))?;
        text = format!("wrote {} heartbeat events to {out}\n", events.len());
    }
    text.push_str(&format!("serve: shut down\n{}\n", stats.pretty()));
    Ok((0, text))
}

/// `openarc bench`: batch mode. Runs the full 12-benchmark × 3-variant
/// matrix in order through one pipeline session. The persistent
/// artifact store defaults **on** at `target/openarc-cache`, so a second
/// `openarc bench` invocation reloads every compiled stage from disk.
fn bench(rest: &[String]) -> Outcome<ApiError> {
    let args = BenchArgs::parse(Args::new("bench", rest, USAGE).with_cache(Some(DEFAULT_DIR)))?;
    let sw = args.sweep();
    let (rows, events) = sw.matrix()?;
    let mut text = format!(
        "{:<10} {:<12} {:>14} {:>12} {:>9} {:>8}\n",
        "benchmark", "variant", "sim_time_us", "bytes", "launches", "events"
    );
    for r in &rows {
        text.push_str(&format!(
            "{:<10} {:<12} {:>14.1} {:>12} {:>9} {:>8}\n",
            r.bench, r.variant, r.sim_us, r.transferred_bytes, r.kernel_launches, r.events
        ));
    }
    text.push_str(&format!(
        "--\n{} cells (n={}, iters={}), {} journal events\npipeline cache:\n{}\n",
        rows.len(),
        sw.scale.n,
        sw.scale.iters,
        events.len(),
        sw.session.stats()
    ));
    Ok((0, text))
}

/// `openarc fuzz`: run a coverage-guided differential fuzzing campaign.
/// The baseline coverage set is always the 12 reduced benchmarks
/// ([`openarc::suite::reduced_corpus`]); `--corpus DIR` additionally seeds
/// the mutation corpus with the committed regression repros. Everything
/// the campaign reports is a pure function of `--seed` (and `--programs`);
/// `--jobs` only changes wall-clock time. Exits `1` when the oracle found
/// divergences, `0` on a clean campaign. The report and the repros are
/// written before any text is.
fn fuzz_cmd(rest: &[String]) -> Outcome<ApiError> {
    use openarc::core::fuzz::{run_campaign, CampaignConfig};

    let mut cfg = CampaignConfig::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut report_path = "BENCH_fuzz.json";
    let mut corpus_dir: Option<PathBuf> = None;
    let mut replay = false;
    let mut text = String::new();
    let mut args = Args::new("fuzz", rest, USAGE);
    while let Some(a) = args.next_arg()? {
        match a {
            "--seed" => cfg.seed = args.parse(a, "an integer")?,
            "--programs" => cfg.max_programs = args.parse(a, "an integer")?,
            "--jobs" => cfg.jobs = openarc::core::sched::parse_jobs(args.value(a)?)?,
            "--time-budget-s" => cfg.time_budget_s = Some(args.parse(a, "seconds")?),
            "--corpus" => corpus_dir = Some(PathBuf::from(args.value(a)?)),
            "--replay" => replay = true,
            "--out" => out_dir = Some(PathBuf::from(args.value(a)?)),
            "--report" => report_path = args.value(a)?,
            other => args.positional(other, &mut [])?,
        }
    }
    if replay {
        cfg.max_programs = 0;
    }
    // An unwritable --out or --report fails before the campaign runs.
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    if let Some(parent) = std::path::Path::new(report_path).parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
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
        text = format!(
            "corpus: {} seed program(s) from {}\n",
            paths.len(),
            dir.display()
        );
    }

    let r = run_campaign(&cfg);

    text.push_str(&format!(
        "fuzz: seed {} · {} program(s) executed ({} rejected, {} racy){}\n",
        r.seed,
        r.programs,
        r.rejected,
        r.racy,
        if r.truncated {
            " · TRUNCATED by time budget"
        } else {
            ""
        }
    ));
    text.push_str(&format!(
        "coverage: {} atoms total, {} baseline, {} new · corpus {} · fingerprint {:016x}\n",
        r.coverage.len(),
        r.baseline_coverage.len(),
        r.new_atoms().len(),
        r.corpus,
        r.fingerprint
    ));
    for (i, f) in r.findings.iter().enumerate() {
        text.push_str(&format!(
            "finding {i}: {} on {} (x{}, minimized {}) — {}\n",
            f.kind.name(),
            f.config,
            f.occurrences,
            if f.minimized_ok {
                "ok"
            } else {
                "BUDGET EXPIRED"
            },
            f.detail
        ));
    }

    if let Some(dir) = &out_dir {
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
            text.push_str(&format!("wrote {}\n", path.display()));
        }
    }

    let json = openarc::bench::fuzzstats::campaign_json(&r);
    std::fs::write(report_path, json.pretty()).map_err(|e| format!("{report_path}: {e}"))?;
    text.push_str(&format!("wrote {report_path}\n"));
    Ok((i32::from(!r.findings.is_empty()), text))
}

/// `openarc cache`: inspect or prune the persistent artifact store without
/// running anything. Operates on `target/openarc-cache` unless
/// `--cache-dir` points elsewhere.
fn cache_cmd(rest: &[String]) -> Outcome<ApiError> {
    let mut args = Args::new("cache", rest, USAGE).with_cache(Some(DEFAULT_DIR));
    let sub = args
        .next_arg()?
        .ok_or_else(|| args.error("cache: expected stats, gc, or clear"))?;
    if !matches!(sub, "stats" | "gc" | "clear") {
        return Err(args
            .error(format!("cache: unknown subcommand `{sub}`"))
            .into());
    }
    let mut json = false;
    let mut max_bytes: Option<u64> = None;
    while let Some(a) = args.next_arg()? {
        match a {
            "--json" if sub == "stats" => json = true,
            "--max-bytes" if sub == "gc" => max_bytes = Some(args.parse(a, "a byte count")?),
            other => args.positional(other, &mut [])?,
        }
    }
    let dir = args
        .cache_dir()
        .ok_or_else(|| args.error("cache: --no-cache makes no sense here"))?;
    let cache = DiskCache::new(&dir);
    let text = match (sub, max_bytes) {
        ("stats", _) => {
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
                format!("{}\n", out.pretty())
            } else {
                let total = UsageRow {
                    stage: "total",
                    entries: rows.iter().map(|r| r.entries).sum(),
                    bytes: rows.iter().map(|r| r.bytes).sum(),
                };
                let mut text = format!("cache dir: {}\n", dir.display());
                text.push_str(&format!(
                    "{:<12} {:>8} {:>12}\n",
                    "stage", "entries", "bytes"
                ));
                for r in rows.iter().chain([&total]) {
                    text.push_str(&format!(
                        "{:<12} {:>8} {:>12}\n",
                        r.stage, r.entries, r.bytes
                    ));
                }
                text
            }
        }
        ("gc", Some(max_bytes)) => {
            let r = cache.gc(max_bytes);
            format!(
                "examined {} entries, evicted {}, {} -> {} bytes\n",
                r.examined, r.evicted, r.bytes_before, r.bytes_after
            )
        }
        ("clear", _) => format!("removed {} entries from {}\n", cache.clear(), dir.display()),
        _ => return Err(args.error("cache gc: expected --max-bytes <N>").into()),
    };
    Ok((0, text))
}

/// `openarc profile`: run the program with the event journal enabled, then
/// render the journal as a Chrome trace, a per-kernel summary, and/or a
/// per-variable timeline. With `--cache-dir` the run goes through the
/// persistent store; disk hits/misses appear as `cache` rows in the
/// summary's stage table. The trace file is written before any text.
fn profile(rest: &[String]) -> Outcome<ApiError> {
    let mut args = Args::new("profile", rest, USAGE).with_cache(None);
    let mut path = [None];
    let mut trace_out: Option<&str> = None;
    let mut summary = false;
    let mut filter_kernel: Option<&str> = None;
    let mut explain: Vec<&str> = Vec::new();
    let mut verify = false;
    let mut verify_opts: Option<&str> = None;
    while let Some(a) = args.next_arg()? {
        match a {
            "--trace-out" => trace_out = Some(args.value(a)?),
            "--summary" => summary = true,
            "--filter-kernel" => filter_kernel = Some(args.value(a)?),
            "--explain" => explain.push(args.value(a)?),
            "--verify" => verify = true,
            "--verify-opts" => verify_opts = Some(args.value(a)?),
            other => args.positional(other, &mut path)?,
        }
    }
    let [Some(path)] = path else {
        return Err(args.error("profile: expected <file.c>").into());
    };
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
    let session = session(args.cache_dir().as_deref(), stage_journal.clone());
    let mut req = Request::new(Action::Profile, read_source(path)?);
    // `--verify` alone is the empty spec, `VerifyOptions::default()`.
    req.options = verify_opts.or(verify.then_some("")).map(str::to_string);
    let resp = api::handle(&session, &req)?;
    let events = resp.events;

    let mut text = String::new();
    if let Some(out) = trace_out {
        let filtered: Vec<_> = events
            .iter()
            .filter(|e| filter_kernel.is_none_or(|k| e.matches_kernel(k)))
            .cloned()
            .collect();
        std::fs::write(out, chrome_trace(&filtered)).map_err(|e| format!("{out}: {e}"))?;
        text = format!(
            "wrote {} events to {out} (chrome://tracing / Perfetto)\n",
            filtered.len()
        );
    }

    for var in &explain {
        let timeline = explain_var(&events, var)
            .unwrap_or_else(|| format!("no journal events mention `{var}`"));
        text.push_str(&format!("{timeline}\n"));
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
        text.push_str(&format!(
            "{sum}--\njournal events    : {}\nkernel launches   : {}\nsimulated time    : {:.1} µs\n",
            events.len(),
            resp.kernel_launches,
            resp.sim_time_us
        ));
    }

    Ok((resp.exit_code, text))
}
