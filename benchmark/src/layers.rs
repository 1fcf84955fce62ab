//! Per-layer probes: every box between source text and report timed
//! alone, from outside, through the layer's public functions, on inputs
//! drawn from the real twelve-benchmark corpus at fixed scales.
//!
//! The probes do not depend on the workload or the seed of the run that
//! carries them, so every traced run reports the same table and two runs
//! of one commit can be compared row by row. *Counts* (unit `count`) must
//! repeat exactly; times are subject to the sandbox's noise.

use crate::fuzz::FuzzSeeded;
use crate::serve::{ServeClosed, CLIENTS};
use crate::span::Tracer;
use crate::stats;
use crate::workload::{Metric, Workload};
use openarc_core::api::{self, Action, Request, Response};
use openarc_core::cache::{DiskCache, Lookup};
use openarc_core::exec::{execute, ExecMode, ExecOptions, RunResult, VerifyOptions};
use openarc_core::ir::KernelParam;
use openarc_core::pipeline::{Session, Stage};
use openarc_core::translate::{translate, TranslateOptions, Translated};
use openarc_dataflow::{alias_analyze, dead_live, last_write, Cfg, Side};
use openarc_gpusim::{launch, Device, LaunchConfig};
use openarc_minic::ast::{walk_stmts, Func, Item, StmtKind};
use openarc_minic::sema::FuncInfo;
use openarc_minic::{Program, Sema};
use openarc_openacc::{directives_of, validate_directive};
use openarc_runtime::{Coherence, Loc};
use openarc_suite::{all, Benchmark, Scale, Variant};
use openarc_trace::bin::{read_events, write_events, Reader, Writer};
use openarc_trace::json::Json;
use openarc_trace::{chrome_trace, Journal};
use openarc_vm::{Handle, Value};
use std::hint::black_box;
use std::time::Instant;

/// Scale of the compile-side probes (36 sources).
const COMPILE_SCALE: Scale = Scale { n: 16, iters: 2 };
/// Scale of the execution-side probes (12 optimized variants).
const EXEC_SCALE: Scale = Scale { n: 32, iters: 2 };
/// Repeats of each compile-side probe sweep (they take microseconds).
const REPEATS: usize = 5;
/// Runs per execution-side figure; the fastest counts.
const EXEC_REPEATS: usize = 3;
/// Distinct requests per client in the serve probe.
const SERVE_PROBE_FIRST_TOUCHES: usize = 72;
/// Seed of the serve probe's streams.
const SERVE_PROBE_SEED: u64 = 1;
/// Fuzz probe campaign: seed and generated programs.
const FUZZ_PROBE: (u64, usize) = (7, 100);
/// Benchmarks whose kernels the direct-launch probe runs.
const LAUNCH_PROBE: [&str; 3] = ["JACOBI", "SPMUL", "SRAD"];

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

fn us(name: &str, value: f64) -> Metric {
    Metric::new(name, value, "us")
}

fn count(name: &str, value: u64) -> Metric {
    Metric::new(name, value as f64, "count")
}

fn ratio(name: &str, value: f64) -> Metric {
    Metric::new(name, value, "ratio")
}

/// The functions of a program.
pub fn funcs(p: &Program) -> impl Iterator<Item = &Func> {
    p.items.iter().filter_map(|it| match it {
        Item::Func(f) => Some(f),
        Item::Global(_) => None,
    })
}

/// Default translation options with §III-B instrumentation on.
pub fn instrumented() -> TranslateOptions {
    TranslateOptions {
        instrument: true,
        ..Default::default()
    }
}

/// `minic`, `openacc`, `dataflow`, `translate`/`instrument`, `vm::compile`:
/// one sweep over the 36 sources per repeat, figures per source.
fn compile_side(out: &mut Vec<Metric>) -> Result<(), String> {
    let sources: Vec<String> = all(COMPILE_SCALE)
        .iter()
        .flat_map(|b| Variant::ALL.map(|v| b.source(v).to_string()))
        .collect();
    let per_source = (sources.len() * REPEATS) as f64;
    let bytes: usize = sources.iter().map(String::len).sum();
    let mut t = [0.0f64; 11];
    let [parse, sema, directives, cfg, alias, deadlive, lastwrite, plain, instr, plan, compile] =
        &mut t;
    let (mut n_directives, mut cfg_nodes, mut instr_ops, mut emitted) = (0, 0, 0, 0);
    for rep in 0..REPEATS {
        for src in &sources {
            let (program, dt) = timed(|| openarc_minic::parse(src));
            *parse += dt;
            let program = program.map_err(|e| e.to_string())?;
            let (checked, dt) = timed(|| openarc_minic::check(&program));
            *sema += dt;
            let checked: Sema = checked.map_err(|e| format!("{e:?}"))?;
            let ((), dt) = timed(|| {
                for f in funcs(&program) {
                    walk_stmts(&f.body, &mut |s| {
                        for (d, pr) in directives_of(s).unwrap_or_default() {
                            black_box(validate_directive(&d, &checked, &f.name, pr.span));
                            n_directives += u64::from(rep == 0);
                        }
                    });
                }
            });
            *directives += dt;
            *alias += timed(|| black_box(alias_analyze(&program, &checked))).1;
            for f in funcs(&program) {
                let (g, dt) = timed(|| Cfg::build_typed(f, &checked));
                *cfg += dt;
                let g = g.map_err(|e| e.to_string())?;
                cfg_nodes += if rep == 0 { g.len() as u64 } else { 0 };
                *deadlive += timed(|| {
                    black_box(dead_live(&g, Side::Host));
                    black_box(dead_live(&g, Side::Gpu));
                })
                .1;
                *lastwrite += timed(|| {
                    black_box(last_write(&g, Side::Host, false));
                    black_box(last_write(&g, Side::Gpu, false));
                })
                .1;
                let o = instrumented();
                let (ins, dt) = timed(|| {
                    openarc_core::instrument::plan(
                        f,
                        &checked,
                        o.optimize_checks,
                        o.hoist_gpu_checks,
                        &o.ignored_update_stmts,
                    )
                });
                *plan += dt;
                let ins = ins.map_err(|e| e.to_string())?;
                instr_ops += if rep == 0 { ins.op_count() as u64 } else { 0 };
            }
            let (tr, dt) = timed(|| translate(&program, &checked, &TranslateOptions::default()));
            *plain += dt;
            let tr = tr.map_err(|e| format!("{e:?}"))?;
            let (tri, dt) = timed(|| translate(&program, &checked, &instrumented()));
            *instr += dt;
            tri.map_err(|e| format!("{e:?}"))?;
            let (modules, dt) = timed(|| {
                (
                    openarc_vm::compile(&tr.host_program, &tr.host_sema),
                    openarc_vm::compile(&tr.kernel_program, &kernel_sema(&tr)),
                )
            });
            *compile += dt;
            if rep == 0 {
                for m in [modules.0, modules.1] {
                    let m = m.map_err(|e| e.to_string())?;
                    emitted += m.chunks.iter().map(|c| c.code.len() as u64).sum::<u64>();
                }
            }
        }
    }
    let [parse, sema, directives, cfg, alias, deadlive, lastwrite, plain, instr, plan, compile] =
        t.map(|total| total / per_source);
    out.extend([
        us("minic.parse_us", parse),
        us("minic.sema_us", sema),
        Metric::new(
            "minic.parse_mb_per_s",
            bytes as f64 / sources.len() as f64 / parse,
            "MB/s",
        ),
        count("minic.src_bytes", bytes as u64),
        us("openacc.directives_us", directives),
        count("openacc.directives", n_directives),
        us("dataflow.cfg_us", cfg),
        us("dataflow.alias_us", alias),
        us("dataflow.deadlive_us", deadlive),
        us("dataflow.lastwrite_us", lastwrite),
        count("dataflow.cfg_nodes", cfg_nodes),
        us("translate.plain_us", plain),
        us("translate.instrumented_us", instr),
        us("instrument.plan_us", plan),
        count("instrument.ops", instr_ops),
        ratio("instrument.share", (instr - plain) / instr),
        us("vm.compile_us", compile),
        count("vm.instrs_emitted", emitted),
    ]);
    Ok(())
}

/// Semantic tables for a kernel program, as `core::translate` builds them
/// before compiling it: kernels are free functions over their parameters
/// and declared locals, with no globals.
pub fn kernel_sema(tr: &Translated) -> Sema {
    let mut sema = Sema::default();
    for f in funcs(&tr.kernel_program) {
        let mut locals: std::collections::HashMap<_, _> = f
            .params
            .iter()
            .map(|p| (p.name.clone(), p.ty.clone()))
            .collect();
        walk_stmts(&f.body, &mut |s| {
            if let StmtKind::Decl(d) = &s.kind {
                locals.insert(d.name.clone(), d.ty.clone());
            }
        });
        sema.funcs.insert(
            f.name.clone(),
            FuncInfo {
                ret: f.ret.clone(),
                params: f.params.clone(),
                locals,
            },
        );
    }
    sema
}

struct ExecProgram {
    name: &'static str,
    source: String,
    plain: Translated,
    instrumented: Translated,
}

fn exec_programs() -> Result<Vec<ExecProgram>, String> {
    all(EXEC_SCALE)
        .into_iter()
        .map(|b: Benchmark| {
            let (p, s) =
                openarc_minic::frontend(&b.optimized).map_err(|e| format!("{}: {e:?}", b.name))?;
            let tr = |o: &TranslateOptions| {
                translate(&p, &s, o).map_err(|e| format!("{}: {e:?}", b.name))
            };
            Ok(ExecProgram {
                name: b.name,
                plain: tr(&TranslateOptions::default())?,
                instrumented: tr(&instrumented())?,
                source: b.optimized,
            })
        })
        .collect()
}

/// One run and its wall, µs.
fn run(tr: &Translated, eopts: &ExecOptions) -> Result<(RunResult, f64), String> {
    let (r, dt) = timed(|| execute(tr, eopts));
    Ok((r.map_err(|e| e.to_string())?, dt))
}

/// The fastest of [`EXEC_REPEATS`] runs: the on/off ratios below divide
/// two walls of a few milliseconds each, and one stall would decide them.
fn best(tr: &Translated, eopts: &ExecOptions) -> Result<(RunResult, f64), String> {
    let mut out = run(tr, eopts)?;
    for _ in 1..EXEC_REPEATS {
        let again = run(tr, eopts)?;
        if again.1 < out.1 {
            out = again;
        }
    }
    Ok(out)
}

fn cpu_only() -> ExecOptions {
    ExecOptions {
        mode: ExecMode::CpuOnly,
        race_detect: false,
        ..Default::default()
    }
}

/// `vm::interp` as the sequential reference, `gpusim` lockstep and race
/// detector, `runtime` coherence, the journal and its codecs.
fn exec_side(progs: &[ExecProgram], out: &mut Vec<Metric>) -> Result<(), String> {
    // vm::interp: straight-line host loop.
    let (mut host_us, mut host_instrs) = (0.0, 0);
    for p in progs {
        let (r, dt) = best(&p.plain, &cpu_only())?;
        host_us += dt;
        host_instrs += r.host_instrs;
    }
    out.push(Metric::new(
        "vm.interp_ns_per_instr",
        host_us * 1e3 / host_instrs as f64,
        "ns",
    ));
    out.push(count("vm.host_instrs", host_instrs));

    // gpusim: direct launches, then the race detector's cost.
    let (mut steps, mut launch_us) = (0, 0.0);
    let (mut race_on, mut race_off, mut sim_time) = (0.0, 0.0, 0.0);
    let no_races = ExecOptions {
        race_detect: false,
        ..Default::default()
    };
    for p in progs.iter().filter(|p| LAUNCH_PROBE.contains(&p.name)) {
        let (s, dt) = launch_kernels(&p.plain)?;
        steps += s;
        launch_us += dt;
        let (r, dt) = best(&p.plain, &ExecOptions::default())?;
        race_on += dt;
        sim_time += r.sim_time_us();
        race_off += best(&p.plain, &no_races)?.1;
    }
    if steps == 0 {
        return Err("direct-launch probe found no launchable kernel".to_string());
    }
    out.push(Metric::new(
        "gpusim.ns_per_thread_step",
        launch_us * 1e3 / steps as f64,
        "ns",
    ));
    out.push(count("gpusim.thread_steps", steps));
    out.push(ratio("gpusim.race_overhead_ratio", race_on / race_off));
    out.push(Metric::new("gpusim.sim_time_us", sim_time, "us"));

    // runtime: the state machine alone, then its cost in a run (Fig. 4).
    let mut coherence = Coherence::new(true);
    let handles: Vec<Handle> = (1..=64).map(Handle).collect();
    for h in &handles {
        coherence.track(*h, "probe");
    }
    const CHECKS: usize = 200_000;
    let ((), dt) = timed(|| {
        for i in 0..CHECKS / 2 {
            let h = handles[i % handles.len()];
            let loc = if i % 3 == 0 {
                Loc::Cpu
            } else {
                Loc::Dev(openarc_gpusim::DeviceId::PRIMARY)
            };
            black_box(coherence.check_read_at(h, loc));
            black_box(coherence.on_write_at(h, loc, i % 5 == 0));
        }
    });
    out.push(Metric::new(
        "runtime.coherence_ns_per_check",
        dt * 1e3 / CHECKS as f64,
        "ns",
    ));
    let (mut plain_us, mut checked_us, mut journaled_us) = (0.0, 0.0, 0.0);
    let (mut transfers, mut transfer_bytes) = (0, 0);
    let mut events = Vec::new();
    let check = ExecOptions {
        check_transfers: true,
        ..Default::default()
    };
    for p in progs {
        let (r, dt) = best(&p.plain, &ExecOptions::default())?;
        plain_us += dt;
        transfers += r.machine.stats.total_count();
        transfer_bytes += r.machine.stats.total_bytes();
        checked_us += best(&p.instrumented, &check)?.1;
        // A fresh journal per run, so that every repeat pays for the same
        // events; the last run's are kept for the codec probes.
        let mut fastest = f64::INFINITY;
        let mut last = Vec::new();
        for _ in 0..EXEC_REPEATS {
            let journal = Journal::enabled();
            let on = ExecOptions {
                journal: journal.clone(),
                ..check.clone()
            };
            fastest = fastest.min(run(&p.instrumented, &on)?.1);
            last = journal.drain();
        }
        journaled_us += fastest;
        events.extend(last);
    }
    out.push(ratio("runtime.check_overhead_ratio", checked_us / plain_us));
    out.push(count("runtime.transfers", transfers));
    out.push(count("runtime.transfer_bytes", transfer_bytes));

    // trace: journal on/off, then the codecs on those events.
    out.push(ratio(
        "trace.journal_overhead_ratio",
        journaled_us / checked_us,
    ));
    out.push(Metric::new(
        "trace.journal_ns_per_event",
        (journaled_us - checked_us).max(0.0) * 1e3 / events.len() as f64,
        "ns",
    ));
    out.push(count("trace.events", events.len() as u64));
    let (bytes, enc_us) = timed(|| {
        let mut w = Writer::new();
        write_events(&mut w, &events);
        w.into_bytes()
    });
    let (decoded, dec_us) = timed(|| read_events(&mut Reader::new(&bytes)));
    if decoded.map_err(|e| format!("trace::bin decode: {e}"))? != events {
        return Err("trace::bin round trip changed the events".to_string());
    }
    out.push(Metric::new(
        "trace.bin_encode_mb_per_s",
        bytes.len() as f64 / enc_us,
        "MB/s",
    ));
    out.push(Metric::new(
        "trace.bin_decode_mb_per_s",
        bytes.len() as f64 / dec_us,
        "MB/s",
    ));
    out.push(us(
        "trace.chrome_us",
        timed(|| black_box(chrome_trace(&events))).1,
    ));
    Ok(())
}

/// Launch every kernel of `tr` whose arguments are plain aggregates and
/// scalars directly through `gpusim::launch`, on device buffers copied
/// from the host state a sequential run leaves behind. Returns
/// (thread-steps, µs).
fn launch_kernels(tr: &Translated) -> Result<(u64, f64), String> {
    let host = run(tr, &cpu_only())?.0.machine.host;
    let global = |name: &str| {
        tr.host_module
            .global_index
            .get(name)
            .map(|slot| host.globals[*slot as usize])
            .ok_or_else(|| format!("host global `{name}` missing"))
    };
    let (mut steps, mut total_us) = (0, 0.0);
    for k in &tr.kernels {
        let mut device = Device::new();
        device.race_detect = false;
        let mut args = Vec::with_capacity(k.params.len());
        for p in &k.params {
            match p {
                KernelParam::Aggregate { var } => match global(var)? {
                    Value::Ptr(h) => {
                        let buf = host.mem.get(h).map_err(|e| e.to_string())?.clone();
                        args.push(Value::Ptr(device.mem.insert(buf)));
                    }
                    other => return Err(format!("`{var}` holds {other}, not a buffer")),
                },
                KernelParam::Scalar { var } => args.push(global(var)?),
                KernelParam::SharedCell { .. } | KernelParam::ReductionSlot { .. } => break,
            }
        }
        if args.len() != k.params.len() {
            continue;
        }
        let n_threads = global(&k.n_threads_global)?.as_i64().max(0) as u64;
        let (outcome, dt) = timed(|| {
            launch(
                &mut device,
                &tr.kernel_module,
                &k.name,
                &args,
                n_threads,
                &LaunchConfig::default(),
            )
        });
        steps += outcome
            .map_err(|e| format!("{}: {e}", k.name))?
            .total_instrs;
        total_us += dt;
    }
    Ok((steps, total_us))
}

fn handle_us(session: &Session, req: &Request) -> Result<(Response, f64), String> {
    let (r, dt) = timed(|| api::handle(session, req));
    Ok((r.map_err(|e| e.to_string())?, dt))
}

/// Stages `api::handle` enters (it never runs the directive census).
const STAGES: [Stage; 6] = [
    Stage::Frontend,
    Stage::Analysis,
    Stage::Instrument,
    Stage::Plan,
    Stage::Execute,
    Stage::Verify,
];

fn stage_total_us(session: &Session) -> f64 {
    // `verify` wraps two execute legs the execute stage already counts.
    session
        .stage_times()
        .iter()
        .filter(|(s, _)| *s != Stage::Verify)
        .map(|(_, us)| us)
        .sum()
}

/// `core::pipeline` memo, `api` rendering and the §III-A verify stage, all
/// through `api::handle` on sessions the probe owns.
fn pipeline_side(progs: &[ExecProgram], out: &mut Vec<Metric>) -> Result<(), String> {
    let actions = [Action::Run, Action::Check, Action::Verify];
    let session = Session::builder().build();
    for p in progs {
        for a in actions {
            handle_us(&session, &Request::new(a, p.source.as_str()))?;
        }
    }
    let cold = session.stage_times();
    // Second identical sweep: every stage is a memo hit.
    let (mut hit_us, mut hit_stage_us) = (0.0, 0.0);
    for p in progs {
        for a in actions {
            let before = stage_total_us(&session);
            hit_us += handle_us(&session, &Request::new(a, p.source.as_str()))?.1;
            hit_stage_us += stage_total_us(&session) - before;
        }
    }
    let requests = (progs.len() * actions.len()) as f64;
    out.push(us("pipeline.memo_hit_us", hit_stage_us / requests));
    let stats = session.stats();
    for stage in STAGES {
        let total = cold.iter().find(|(s, _)| *s == stage).map_or(0.0, |x| x.1);
        out.push(us(&format!("pipeline.stage_us.{}", stage.label()), total));
    }
    for stage in STAGES {
        let c = stats.get(stage);
        out.push(ratio(
            &format!("pipeline.hit_ratio.{}", stage.label()),
            c.hits as f64 / (c.hits + c.misses).max(1) as f64,
        ));
    }
    out.push(us("api.render_us", (hit_us - hit_stage_us) / requests));
    // `verify` row − `run` row of the same program, both cold.
    let (mut extra_ms, mut compared) = (0.0, 0);
    for p in progs {
        let cold_run = handle_us(
            &Session::builder().build(),
            &Request::new(Action::Run, p.source.as_str()),
        )?
        .1;
        let s = Session::builder().build();
        let cold_verify = handle_us(&s, &Request::new(Action::Verify, p.source.as_str()))?.1;
        extra_ms += (cold_verify - cold_run) / 1e3;
        let fe = s.frontend(&p.source).map_err(|e| e.to_string())?;
        let (_, rep) = s
            .verify(&fe, &TranslateOptions::default(), VerifyOptions::default())
            .map_err(|e| e.to_string())?;
        compared += rep.kernels.iter().map(|k| k.compared_elems).sum::<u64>();
    }
    out.push(Metric::new("verify.extra_ms", extra_ms, "ms"));
    out.push(count("verify.compared_elems", compared));
    Ok(())
}

/// `core::cache`: typed stores and loads called directly, per stage.
fn cache_side(progs: &[ExecProgram], out: &mut Vec<Metric>) -> Result<(), String> {
    let scratch = crate::batch::ScratchDir::new("cache-probe")?;
    let dir = scratch.path();
    // Artifacts from a memory-only session; the store sees only typed
    // store/load calls.
    let session = Session::builder().build();
    let disk = DiskCache::new(dir);
    let (mut store_us, mut load_us, mut entries) = (0.0, 0.0, 0u64);
    let mut stored = |ok: bool, dt: f64| {
        store_us += dt;
        entries += 1;
        if ok {
            Ok(())
        } else {
            Err("DiskCache refused a store".to_string())
        }
    };
    let mut keys = Vec::new();
    for p in progs {
        let fe = session.frontend(&p.source).map_err(|e| e.to_string())?;
        let tra = session
            .translate(&fe, &instrumented())
            .map_err(|e| e.to_string())?;
        let journal = Journal::enabled();
        let eopts = ExecOptions {
            check_transfers: true,
            journal: journal.clone(),
            ..Default::default()
        };
        let plan = session.plan(&tra, &eopts);
        let r = session.execute(&tra, &eopts).map_err(|e| e.to_string())?;
        let events = journal.drain();
        let (ok, dt) = timed(|| disk.store_frontend(&fe));
        stored(ok, dt)?;
        let (ok, dt) = timed(|| disk.store_translated(Stage::Instrument, &tra));
        stored(ok, dt)?;
        let (ok, dt) = timed(|| disk.store_run(plan.id, &r, &events));
        stored(ok, dt)?;
        keys.push((fe.id, tra.id, plan.id));
    }
    let fresh = DiskCache::new(dir);
    let mut hit = |found: bool, dt: f64| {
        load_us += dt;
        if found {
            Ok(())
        } else {
            Err("stored entry did not load".to_string())
        }
    };
    for (fe, tra, plan) in keys {
        let (l, dt) = timed(|| fresh.load_frontend(fe));
        hit(matches!(l, Lookup::Hit(_)), dt)?;
        let (l, dt) = timed(|| fresh.load_translated(Stage::Instrument, tra));
        hit(matches!(l, Lookup::Hit(_)), dt)?;
        let (l, dt) = timed(|| fresh.load_run(plan));
        hit(matches!(l, Lookup::Hit(_)), dt)?;
    }
    let bytes: u64 = fresh.usage().iter().map(|row| row.bytes).sum();
    let stats = fresh.stats();
    out.extend([
        us("cache.load_us_per_entry", load_us / entries as f64),
        us("cache.store_us_per_entry", store_us / entries as f64),
        Metric::new("cache.bytes_per_entry", bytes as f64 / entries as f64, "B"),
        count("cache.store_bytes", bytes),
        ratio(
            "cache.hit_ratio",
            stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        ),
        count("cache.corrupt", stats.corrupt),
    ]);
    Ok(())
}

/// `core::serve`: a short closed-loop run of the serve workload's own
/// generator, then the identical streams against bare `api::handle`.
fn serve_side(out: &mut Vec<Metric>) -> Result<(), String> {
    let expected = crate::expected::Expected::load(ServeClosed::NAME)?;
    let w = ServeClosed::new(SERVE_PROBE_SEED, SERVE_PROBE_FIRST_TOUCHES, &expected);
    let served = w.serve(usize::MAX, Instant::now())?;
    let mut scratch = Tracer::new(Instant::now(), 0);
    let (mut overhead, mut latency) = (Vec::new(), Vec::new());
    let (mut bytes_in, mut bytes_out, mut retries) = (0, 0, 0);
    for c in 0..CLIENTS {
        let bare = w.replay_bare(c, usize::MAX, &mut scratch);
        for (reply, (bare_ns, _)) in served.replies[c].iter().zip(bare) {
            overhead.push(reply.latency_ns.saturating_sub(bare_ns) as f64 / 1e3);
            latency.push(reply.latency_ns as f64 / 1e3);
            bytes_in += reply.bytes_out;
            bytes_out += reply.bytes_in;
            retries += u64::from(reply.retries);
        }
    }
    let need = |v: Option<f64>| v.ok_or("serve probe: too few samples");
    let service_p50 = served
        .stats
        .get("p50_us")
        .and_then(Json::as_f64)
        .ok_or("serve stats without p50_us")?;
    // The JSON codec alone, on one journal-free reply per action.
    let session = Session::builder().build();
    let (mut codec_us, mut codec_n) = (0.0, 0);
    for req in w.first_touches(0).take(60) {
        let resp = api::handle(&session, req).map_err(|e| e.to_string())?;
        let ((), dt) = timed(|| {
            let line = req.to_json().to_string();
            black_box(
                Json::parse(&line)
                    .map(|v| Request::from_json(&v).is_ok())
                    .ok(),
            );
            let line = resp.to_json().to_string();
            black_box(
                Json::parse(&line)
                    .map(|v| Response::from_json(&v).is_ok())
                    .ok(),
            );
        });
        codec_us += dt;
        codec_n += 1;
    }
    out.extend([
        us("serve.overhead_us_p50", need(stats::median(&overhead))?),
        us(
            "serve.overhead_us_p95",
            need(stats::percentile(&overhead, 0.95))?,
        ),
        us("serve.service_us_p50", service_p50),
        us(
            "serve.queue_us_p50",
            (need(stats::median(&latency))? - service_p50).max(0.0),
        ),
        count("serve.wire_bytes_in", bytes_in),
        count("serve.wire_bytes_out", bytes_out),
        us("serve.json_codec_us", codec_us / codec_n as f64),
        count(
            "serve.rejected",
            served
                .stats
                .get("rejected")
                .and_then(Json::as_u64)
                .unwrap_or(0),
        ),
        count("serve.retries", retries),
    ]);
    Ok(())
}

/// `core::fuzz` and `core::interactive`: what their reports expose.
fn campaign_side(out: &mut Vec<Metric>) -> Result<(), String> {
    let fuzz = FuzzSeeded::new(0, &crate::expected::Expected::default())?;
    let r = fuzz.campaign(FUZZ_PROBE.0, FUZZ_PROBE.1)?;
    let programs = r.programs.max(1) as f64;
    out.extend([
        us(
            "fuzz.exec_us_p50",
            stats::median(&r.exec_us).ok_or("fuzz probe executed nothing")?,
        ),
        ratio("fuzz.rejected_share", r.rejected as f64 / programs),
        ratio("fuzz.racy_share", r.racy as f64 / programs),
        count("fuzz.coverage_atoms", r.coverage.len() as u64),
        // Low 32 bits: a JSON number holds them exactly.
        count("fuzz.fingerprint", r.fingerprint & 0xffff_ffff),
    ]);
    let (iterations, translate_calls) = crate::interactive::probe()?;
    out.push(count("interactive.iterations", iterations));
    out.push(count("interactive.translate_calls", translate_calls));
    Ok(())
}

/// Every per-layer probe, in `BENCHMARK.json` order.
pub fn probe_all() -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    compile_side(&mut out)?;
    let progs = exec_programs()?;
    exec_side(&progs, &mut out)?;
    pipeline_side(&progs, &mut out)?;
    cache_side(&progs, &mut out)?;
    serve_side(&mut out)?;
    campaign_side(&mut out)?;
    Ok(out)
}

/// Names of the probes whose unit is `count` and must repeat exactly.
#[cfg(test)]
pub fn count_names(metrics: &[Metric]) -> Vec<&str> {
    metrics
        .iter()
        .filter(|m| m.unit == "count")
        .map(|m| m.name.as_str())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_launch_reaches_real_kernels() {
        let progs = exec_programs().unwrap();
        for name in LAUNCH_PROBE {
            let p = progs.iter().find(|p| p.name == name).unwrap();
            let (steps, _) = launch_kernels(&p.plain).unwrap();
            assert!(steps > 0, "{name}: no kernel launched directly");
        }
    }

    #[test]
    fn compile_side_counts_repeat_exactly() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        compile_side(&mut a).unwrap();
        compile_side(&mut b).unwrap();
        let counts = |m: &[Metric]| -> Vec<(String, f64)> {
            m.iter()
                .filter(|x| x.unit == "count")
                .map(|x| (x.name.clone(), x.value))
                .collect()
        };
        assert_eq!(counts(&a), counts(&b));
        assert_eq!(count_names(&a).len(), 5);
        assert!(
            a.iter().all(|m| m.value.is_finite() && m.value > 0.0),
            "{a:?}"
        );
    }
}
