//! The four request-list workloads: `compile_cold`, `exec_host`,
//! `exec_verify` and `disk_warm`. Each op is one request answered by a
//! fresh [`Session`] — the one-shot CLI path — and a pass is one sweep
//! over the list in the seeded order.

use crate::digest::Fnv;
use crate::expected::{bench_dir, Answer, Expected};
use crate::layers::{funcs, instrumented, kernel_sema};
use crate::rng::Rng;
use crate::span::Tracer;
use crate::workload::{is_known, Checks, OpSample, PassSample, TracedPass, Workload};
use openarc_core::api::{self, Action, Request, Response};
use openarc_core::exec::{execute, ExecMode, ExecOptions, VerifyOptions};
use openarc_core::faults::strip_privatization;
use openarc_core::pipeline::{Session, Stage};
use openarc_core::translate::{translate, TranslateOptions, Translated};
use openarc_core::verify::VerificationReport;
use openarc_dataflow::{alias_analyze, dead_live, last_write, Cfg, Side};
use openarc_minic::ast::walk_stmts;
use openarc_minic::{Program, Sema};
use openarc_openacc::{directives_of, validate_directive};
use openarc_suite::{all, check_variant, Scale, Variant};
use openarc_trace::Journal;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Which request list.
pub trait Kind {
    /// Workload name.
    const NAME: &'static str;
    /// Problem scale of every program in the list.
    const SCALE: Scale;
    /// The same, for the result file.
    const SCALE_NOTE: &'static str;
    /// Variants swept.
    const VARIANTS: &'static [Variant];
    /// Actions swept per variant.
    const ACTIONS: &'static [Action];
    /// Add the twelve fault-injected (`strip_privatization`) programs
    /// under `verify`, whose known answer is "flagged".
    const STRIPPED: bool = false;
    /// Answer from a populated disk store instead of computing.
    const DISK: bool = false;
}

/// Compile-side layers dominate: tiny problem, every variant and action.
pub struct CompileCold;
impl Kind for CompileCold {
    const NAME: &'static str = "compile_cold";
    const SCALE_NOTE: &'static str = "n=8 iters=1";
    const SCALE: Scale = Scale { n: 8, iters: 1 };
    const VARIANTS: &'static [Variant] = &Variant::ALL;
    const ACTIONS: &'static [Action] = &[Action::Run, Action::Check, Action::Verify];
}

/// The sequential reference interpreter does nearly all the work.
pub struct ExecHost;
impl Kind for ExecHost {
    const NAME: &'static str = "exec_host";
    const SCALE_NOTE: &'static str = "n=64 iters=4";
    const SCALE: Scale = Scale { n: 64, iters: 4 };
    const VARIANTS: &'static [Variant] = &[Variant::Optimized];
    const ACTIONS: &'static [Action] = &[Action::Cpu];
}

/// The same interpreter stepped in lockstep by the simulator, with race
/// detection, coherence checks and the verified-launch pipeline on top.
pub struct ExecVerify;
impl Kind for ExecVerify {
    const NAME: &'static str = "exec_verify";
    const SCALE_NOTE: &'static str = "n=64 iters=4";
    const SCALE: Scale = Scale { n: 64, iters: 4 };
    const VARIANTS: &'static [Variant] = &[Variant::Optimized];
    const ACTIONS: &'static [Action] = &[Action::Run, Action::Check, Action::Verify];
    const STRIPPED: bool = true;
}

/// Reads of the persistent cache layer: every request is answered from a
/// store that set-up populated.
pub struct DiskWarm;
impl Kind for DiskWarm {
    const NAME: &'static str = "disk_warm";
    const SCALE_NOTE: &'static str = "n=16 iters=2";
    const SCALE: Scale = Scale { n: 16, iters: 2 };
    const VARIANTS: &'static [Variant] = &Variant::ALL;
    const ACTIONS: &'static [Action] =
        &[Action::Run, Action::Check, Action::Verify, Action::Profile];
    const DISK: bool = true;
}

/// Translation options of the fault-injected rows (Table II protocol).
fn stripped_topts() -> TranslateOptions {
    TranslateOptions {
        auto_privatize: false,
        auto_reduction: false,
        ..Default::default()
    }
}

enum Work {
    /// One `api::handle` request.
    Api(Request),
    /// §IV-B fault injection: privatization stripped, recognition off,
    /// kernel verification must flag the result.
    StrippedVerify { program: Program, sema: Sema },
}

/// The answer an `api::handle` reply amounts to. Simulated time enters at
/// nanosecond resolution, not bit for bit: a verify reply's
/// `TimeBreakdown::total()` sums its categories in `HashMap` order, so its
/// last bit differs between runs of one build.
pub fn answer_of_response(r: &Response) -> Answer {
    Answer {
        code: r.exit_code.into(),
        digest: Fnv::new()
            .str(&r.report)
            .u64((r.sim_time_us * 1e3).round() as u64)
            .u64(r.kernel_launches)
            .u64(r.events.len() as u64)
            .finish(),
    }
}

fn answer_of_verification(rep: &VerificationReport) -> Answer {
    let mut text = String::new();
    for k in &rep.kernels {
        let _ = writeln!(
            text,
            "{} launches={} mismatched={} flagged={}",
            k.kernel,
            k.launches,
            k.mismatched_elems,
            k.flagged()
        );
    }
    let raced: BTreeSet<&str> = rep.races.iter().map(|(k, _)| k.as_str()).collect();
    let _ = writeln!(text, "raced={raced:?}");
    Answer {
        code: i64::from(!rep.flagged().is_empty()),
        digest: Fnv::new().str(&text).finish(),
    }
}

/// A scratch directory under `benchmark/results/tmp/`, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh, empty directory unique to this process and call.
    pub fn new(label: &str) -> Result<ScratchDir, String> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = bench_dir()
            .join("results")
            .join("tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    /// Where it is.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One request-list workload.
pub struct Batch<K: Kind> {
    ops: Vec<Work>,
    /// Row id per op (canonical order).
    rows: Vec<String>,
    /// Known answer per op (canonical order).
    known: Vec<Option<Answer>>,
    /// Seeded sweep order (indices into `ops`).
    order: Vec<usize>,
    store: Option<ScratchDir>,
    _kind: std::marker::PhantomData<K>,
}

/// `(row id, work)` per op, in canonical order.
fn build_ops<K: Kind>() -> Result<Vec<(String, Work)>, String> {
    let mut ops = Vec::new();
    for b in all(K::SCALE) {
        for v in K::VARIANTS {
            for a in K::ACTIONS {
                ops.push((
                    format!("{}/{}/{}", b.name, v.name(), a.as_str()),
                    Work::Api(Request::new(*a, b.source(*v))),
                ));
            }
        }
        if K::STRIPPED {
            let (program, sema) = openarc_minic::frontend(b.source(Variant::Optimized))
                .map_err(|e| format!("{}: {e:?}", b.name))?;
            let (program, _) =
                strip_privatization(&program).map_err(|e| format!("{}: {e}", b.name))?;
            ops.push((
                format!("{}/stripped/verify", b.name),
                Work::StrippedVerify { program, sema },
            ));
        }
    }
    Ok(ops)
}

/// Stages a disk-backed session persists; a warm op misses none of them.
const PERSISTED: [Stage; 4] = [
    Stage::Frontend,
    Stage::Analysis,
    Stage::Instrument,
    Stage::Execute,
];

impl<K: Kind> Batch<K> {
    /// Generate the request list and its seeded order; checks nothing.
    fn new(seed: u64, expected: &Expected) -> Result<Self, String> {
        let (rows, ops): (Vec<String>, Vec<Work>) = build_ops::<K>()?.into_iter().unzip();
        let known = rows.iter().map(|r| expected.get(r)).collect();
        let mut order: Vec<usize> = (0..ops.len()).collect();
        Rng::new(seed, K::NAME).shuffle(&mut order);
        Ok(Batch {
            ops,
            rows,
            known,
            order,
            store: K::DISK.then(|| ScratchDir::new(K::NAME)).transpose()?,
            _kind: std::marker::PhantomData,
        })
    }

    fn session(&self) -> Session {
        match &self.store {
            Some(dir) => Session::builder().disk_cache(dir.path()).build(),
            None => Session::builder().build(),
        }
    }

    /// Answer one op with a fresh session, as the one-shot CLI would.
    /// With `warm`, an op that had to recompute a persisted stage is an
    /// error: it did not measure the path the workload exists for.
    fn run_op(&self, op: &Work, warm: bool) -> Result<Answer, String> {
        catch_unwind(AssertUnwindSafe(|| {
            let session = self.session();
            let answer = match op {
                Work::Api(req) => api::handle(&session, req)
                    .map(|r| answer_of_response(&r))
                    .map_err(|e| e.to_string())?,
                Work::StrippedVerify { program, sema } => {
                    let fe = session.frontend_program(program.clone(), sema.clone());
                    let (_, rep) = session
                        .verify(&fe, &stripped_topts(), VerifyOptions::default())
                        .map_err(|e| e.to_string())?;
                    answer_of_verification(&rep)
                }
            };
            if warm {
                let stats = session.stats();
                if let Some(s) = PERSISTED.iter().find(|s| stats.get(**s).misses > 0) {
                    return Err(format!("stage {} recomputed on a warm store", s.label()));
                }
            }
            Ok(answer)
        }))
        .unwrap_or_else(|_| Err("panicked".to_string()))
    }

    fn sweep(&self, warm: bool) -> PassSample {
        let t = Instant::now();
        let ops = self
            .order
            .iter()
            .map(|&i| {
                let t = Instant::now();
                let got = self.run_op(&self.ops[i], warm);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                OpSample {
                    row: i,
                    ms,
                    ok: is_known(&got, self.known[i]),
                }
            })
            .collect();
        PassSample {
            wall_ms: t.elapsed().as_secs_f64() * 1e3,
            ops,
            missing: 0,
        }
    }
}

impl<K: Kind> Workload for Batch<K> {
    const NAME: &'static str = K::NAME;
    const SCALE: &'static str = K::SCALE_NOTE;

    fn set_up(seed: u64, expected: &Expected) -> Result<(Self, Checks), String> {
        let w = Self::new(seed, expected)?;
        let mut checks = Checks::default();
        // Known-answer pass. For the disk workload this is the pass that
        // computes, encodes and publishes every artifact.
        for &i in &w.order {
            let got = w.run_op(&w.ops[i], false);
            checks.answer(expected, &w.rows[i], &got);
            // Independent of the goldens: unmodified variants verify clean.
            if let (Work::Api(req), Ok(a)) = (&w.ops[i], &got) {
                if req.action == Action::Verify {
                    checks.note(a.code == 0, || {
                        format!(
                            "{}: unmodified variant flagged by kernel verification",
                            w.rows[i]
                        )
                    });
                }
            }
        }
        if K::DISK {
            // The warm path must give the same answers from disk alone.
            for &i in &w.order {
                let got = w.run_op(&w.ops[i], true);
                checks.answer(expected, &w.rows[i], &got);
            }
        }
        // Independent of the goldens: simulated-device outputs match the
        // sequential reference within the benchmark's tolerance.
        if K::ACTIONS.contains(&Action::Run) {
            for b in all(K::SCALE) {
                for v in K::VARIANTS {
                    let r = check_variant(&b, *v);
                    checks.note(r.is_ok(), || r.unwrap_err());
                }
            }
        }
        if K::STRIPPED {
            let flagged = w
                .rows
                .iter()
                .zip(&w.known)
                .filter(|(r, a)| r.ends_with("/stripped/verify") && a.is_some_and(|a| a.code == 1))
                .count();
            checks.note(flagged > 0, || {
                "no fault-injected program has the known answer `flagged`".to_string()
            });
        }
        Ok((w, checks))
    }

    fn rows(&self) -> &[String] {
        &self.rows
    }

    fn pass(&mut self) -> Result<PassSample, String> {
        Ok(self.sweep(K::DISK))
    }

    fn traced_pass(&mut self, tracer: &mut Tracer) -> Result<TracedPass, String> {
        let mut out = TracedPass {
            layers: LAYERS,
            ..Default::default()
        };
        for &i in &self.order {
            let op = &self.ops[i];
            tracer.scope("op", i, |t| {
                let t0 = Instant::now();
                let got = t.scope("api.handle", i, |_| self.run_op(op, K::DISK));
                out.opaque_ms += t0.elapsed().as_secs_f64() * 1e3;
                out.attempted += 1;
                out.failed += u64::from(!is_known(&got, self.known[i]));
                t.scope("walk", i, |t| match (op, &self.store) {
                    (Work::Api(req), Some(dir)) => walk_disk(t, i, req, dir.path()),
                    (Work::Api(req), None) => walk_api(t, i, req),
                    (Work::StrippedVerify { program, sema }, _) => {
                        walk_stripped(t, i, program, sema)
                    }
                })
                .map_err(|e| format!("{}: {e}", self.rows[i]))
            })?;
        }
        out.wall_ms = out.opaque_ms;
        Ok(out)
    }

    fn known_answers() -> Result<BTreeMap<String, Answer>, String> {
        let w = Self::new(0, &Expected::default())?;
        w.rows
            .iter()
            .zip(&w.ops)
            .map(|(row, op)| match w.run_op(op, false) {
                Ok(a) => Ok((row.clone(), a)),
                Err(e) => Err(format!("{row}: {e}")),
            })
            .collect()
    }
}

/// Counted layer spans of the walks below and the `share.*` bucket of
/// each. `detail.*` spans re-measure work `core.translate` already
/// contains and are deliberately absent.
const LAYERS: &[(&str, &str)] = &[
    ("minic.parse", "minic"),
    ("minic.sema", "minic"),
    ("core.translate", "translate"),
    ("exec.cpu", "execute"),
    ("exec.run", "execute"),
    ("exec.check", "execute"),
    ("exec.verify", "execute"),
    ("exec.profile", "execute"),
    ("cache.load_frontend", "cache"),
    ("cache.load_translated", "cache"),
    ("cache.load_run", "cache"),
];

/// Translate and execution options `api::handle` uses for `action`
/// (`verify` first runs the sequential baseline, then the verified run).
fn legs_of(action: Action) -> (TranslateOptions, Vec<(&'static str, ExecOptions)>) {
    let plain = TranslateOptions::default();
    let instrumented = instrumented();
    let cpu = ExecOptions {
        mode: ExecMode::CpuOnly,
        ..Default::default()
    };
    match action {
        Action::Run => (plain, vec![("exec.run", ExecOptions::default())]),
        Action::Cpu => (plain, vec![("exec.cpu", cpu)]),
        Action::Check => (
            instrumented,
            vec![(
                "exec.check",
                ExecOptions {
                    check_transfers: true,
                    ..Default::default()
                },
            )],
        ),
        Action::Verify => (plain, verify_legs()),
        Action::Profile => (
            instrumented,
            vec![(
                "exec.profile",
                ExecOptions {
                    check_transfers: true,
                    journal: Journal::enabled(),
                    ..Default::default()
                },
            )],
        ),
    }
}

fn verify_legs() -> Vec<(&'static str, ExecOptions)> {
    vec![
        (
            "exec.cpu",
            ExecOptions {
                mode: ExecMode::CpuOnly,
                race_detect: false,
                ..Default::default()
            },
        ),
        (
            "exec.verify",
            ExecOptions {
                mode: ExecMode::Verify(VerifyOptions::default()),
                ..Default::default()
            },
        ),
    ]
}

fn run_legs(
    t: &mut Tracer,
    op: usize,
    tr: &Translated,
    legs: Vec<(&'static str, ExecOptions)>,
) -> Result<(), String> {
    for (name, eopts) in legs {
        t.scope(name, op, |_| execute(tr, &eopts).map(drop))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Walk one `api::handle` request layer by layer from outside:
/// `minic::parse` → `minic::check` → `core::translate` → `exec::execute`.
fn walk_api(t: &mut Tracer, op: usize, req: &Request) -> Result<(), String> {
    let program = t
        .scope("minic.parse", op, |_| openarc_minic::parse(&req.source))
        .map_err(|e| e.to_string())?;
    let sema = t
        .scope("minic.sema", op, |_| openarc_minic::check(&program))
        .map_err(|e| format!("{e:?}"))?;
    let (topts, legs) = legs_of(req.action);
    let tr = t
        .scope("core.translate", op, |_| translate(&program, &sema, &topts))
        .map_err(|e| format!("{e:?}"))?;
    run_legs(t, op, &tr, legs)?;
    t.scope("detail", op, |t| {
        detail(t, op, &program, &sema, &topts, &tr)
    })
}

fn walk_stripped(t: &mut Tracer, op: usize, program: &Program, sema: &Sema) -> Result<(), String> {
    let topts = stripped_topts();
    let tr = t
        .scope("core.translate", op, |_| translate(program, sema, &topts))
        .map_err(|e| format!("{e:?}"))?;
    run_legs(t, op, &tr, verify_legs())
}

/// Re-measure, as standalone calls, the sub-layers `core::translate` runs
/// internally. These spans sit under `detail`, outside the counted walk.
fn detail(
    t: &mut Tracer,
    op: usize,
    program: &Program,
    sema: &Sema,
    topts: &TranslateOptions,
    tr: &Translated,
) -> Result<(), String> {
    let funcs: Vec<_> = funcs(program).collect();
    t.scope("detail.openacc.directives", op, |_| {
        for f in &funcs {
            let mut err = None;
            walk_stmts(&f.body, &mut |s| match directives_of(s) {
                Ok(ds) => {
                    for (d, pr) in ds {
                        std::hint::black_box(validate_directive(&d, sema, &f.name, pr.span));
                    }
                }
                Err(e) => err = Some(e.to_string()),
            });
            if let Some(e) = err {
                return Err(e);
            }
        }
        Ok(())
    })?;
    t.scope("detail.dataflow.alias", op, |_| {
        std::hint::black_box(alias_analyze(program, sema));
    });
    for f in &funcs {
        let cfg = t
            .scope("detail.dataflow.cfg", op, |_| Cfg::build_typed(f, sema))
            .map_err(|e| e.to_string())?;
        t.scope("detail.dataflow.deadlive", op, |_| {
            std::hint::black_box(dead_live(&cfg, Side::Host));
            std::hint::black_box(dead_live(&cfg, Side::Gpu));
        });
        t.scope("detail.dataflow.lastwrite", op, |_| {
            std::hint::black_box(last_write(&cfg, Side::Host, false));
            std::hint::black_box(last_write(&cfg, Side::Gpu, false));
        });
        if topts.instrument {
            t.scope("detail.instrument.plan", op, |_| {
                openarc_core::instrument::plan(
                    f,
                    sema,
                    topts.optimize_checks,
                    topts.hoist_gpu_checks,
                    &topts.ignored_update_stmts,
                )
                .map(drop)
            })
            .map_err(|e| e.to_string())?;
        }
    }
    t.scope("detail.vm.compile", op, |_| {
        openarc_vm::compile(&tr.host_program, &tr.host_sema)?;
        openarc_vm::compile(&tr.kernel_program, &kernel_sema(tr)).map(drop)
    })
    .map_err(|e| e.to_string())
}

/// Walk one warm request from outside: the three typed `DiskCache` loads
/// the session performs, keyed by ids a memory-only session computes.
fn walk_disk(t: &mut Tracer, op: usize, req: &Request, dir: &Path) -> Result<(), String> {
    use openarc_core::cache::{DiskCache, Lookup};
    // Untimed: artifact ids (content hashes) from a throw-away session.
    let ids = Session::builder().build();
    let fe = ids.frontend(&req.source).map_err(|e| e.to_string())?;
    let (topts, legs) = legs_of(req.action);
    let tra = ids.translate(&fe, &topts).map_err(|e| e.to_string())?;
    let stage = if topts.instrument {
        Stage::Instrument
    } else {
        Stage::Analysis
    };
    let disk = DiskCache::new(dir);
    let hit = |what: &str, found: bool| {
        if found {
            Ok(())
        } else {
            Err(format!("{what} not in the populated store"))
        }
    };
    let found = t.scope("cache.load_frontend", op, |_| {
        matches!(disk.load_frontend(fe.id), Lookup::Hit(_))
    });
    hit("frontend artifact", found)?;
    let found = t.scope("cache.load_translated", op, |_| {
        matches!(disk.load_translated(stage, tra.id), Lookup::Hit(_))
    });
    hit("translated artifact", found)?;
    for (_, eopts) in legs {
        let plan = ids.plan(&tra, &eopts);
        let found = t.scope("cache.load_run", op, |_| {
            matches!(disk.load_run(plan.id), Lookup::Hit(_))
        });
        hit("run artifact", found)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::measure;

    #[test]
    fn rows_do_not_depend_on_the_seed_but_the_order_does() {
        let e = Expected::load(CompileCold::NAME).unwrap();
        let (a, ca) = Batch::<CompileCold>::set_up(1, &e).unwrap();
        let (b, _) = Batch::<CompileCold>::set_up(2, &e).unwrap();
        let (a2, _) = Batch::<CompileCold>::set_up(1, &e).unwrap();
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.rows().len(), 108);
        assert_eq!(a.order, a2.order);
        assert_ne!(a.order, b.order);
        assert_eq!(ca.failed, 0, "{:?}", ca.notes);
    }

    #[test]
    fn regenerating_at_this_commit_is_a_no_op() {
        for (name, fresh) in [
            (CompileCold::NAME, Batch::<CompileCold>::known_answers()),
            (ExecHost::NAME, Batch::<ExecHost>::known_answers()),
            (ExecVerify::NAME, Batch::<ExecVerify>::known_answers()),
            (DiskWarm::NAME, Batch::<DiskWarm>::known_answers()),
        ] {
            let fresh = Expected::from_rows(fresh.unwrap());
            assert_eq!(fresh, Expected::load(name).unwrap(), "{name}");
        }
    }

    #[test]
    fn a_flipped_digest_is_a_failed_op_not_an_abort() {
        let mut e = Expected::load(ExecHost::NAME).unwrap();
        let row = e.corrupt_first();
        let m = measure::<Batch<ExecHost>>(1, 0.0, &e).unwrap();
        let (attempted, failed) = crate::workload::attempted_failed(&m);
        assert!(failed > 0 && failed < attempted);
        assert!(m.checks.notes.iter().any(|n| n.starts_with(&row)));
        // Every pass ran to the end and reports the bad row as not ok.
        let bad = m.rows.iter().position(|r| *r == row).unwrap();
        for p in &m.passes {
            assert_eq!(p.ops.len(), m.rows.len());
            assert!(p.ops.iter().all(|op| op.ok == (op.row != bad)));
        }
    }

    #[test]
    fn warm_store_answers_every_request_without_recomputing() {
        let e = Expected::load(DiskWarm::NAME).unwrap();
        let (mut w, checks) = Batch::<DiskWarm>::set_up(3, &e).unwrap();
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        let dir = w.store.as_ref().unwrap().path().to_path_buf();
        let p = w.pass().unwrap();
        assert!(p.ops.iter().all(|op| op.ok));
        drop(w);
        assert!(!dir.exists(), "scratch store removed on drop");
    }
}
