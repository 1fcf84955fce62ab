use super::*;
use crate::exec::TransferOverlay;

const SRC: &str = "double q[32];\ndouble w[32];\nvoid main() {\n int j;\n for (j = 0; j < 32; j++) { w[j] = (double) j; }\n #pragma acc data copyin(w) copyout(q)\n {\n  #pragma acc kernels loop gang\n  for (j = 0; j < 32; j++) { q[j] = w[j] * 3.0; }\n }\n}";

/// Stage labels name the disk store's directories and the benchmark's
/// per-stage metrics; each stage is also its own index into the
/// per-stage arrays.
#[test]
fn stage_labels_and_indices_are_unchanged() {
    let labels = Stage::ALL.map(Stage::label);
    assert_eq!(
        labels,
        [
            "frontend",
            "directives",
            "analysis",
            "instrument",
            "plan",
            "execute",
            "verify"
        ]
    );
    for (i, s) in Stage::ALL.into_iter().enumerate() {
        assert_eq!(s as usize, i, "{s:?}");
    }
}

#[test]
fn same_source_different_options_reuses_translation() {
    let s = Session::builder().build();
    let topts = TranslateOptions::default();
    s.run_source(SRC, &topts, &ExecOptions::default()).unwrap();
    let cpu = ExecOptions {
        mode: ExecMode::CpuOnly,
        ..Default::default()
    };
    s.run_source(SRC, &topts, &cpu).unwrap();
    let st = s.stats();
    assert_eq!(st.get(Stage::Frontend), StageCounts { hits: 1, misses: 1 });
    assert_eq!(st.get(Stage::Analysis), StageCounts { hits: 1, misses: 1 });
    // Different exec fingerprints: two plans, two real runs.
    assert_eq!(st.get(Stage::Plan).misses, 2);
    assert_eq!(st.get(Stage::Execute), StageCounts { hits: 0, misses: 2 });
}

#[test]
fn journaled_runs_cache_and_replay_events() {
    let s = Session::builder().build();
    let topts = TranslateOptions::default();
    let first = openarc_trace::Journal::enabled();
    let a = s
        .run_source(
            SRC,
            &topts,
            &ExecOptions {
                journal: first.clone(),
                ..Default::default()
            },
        )
        .unwrap();
    assert!(a.plan.journaled);
    let recorded = first.snapshot();
    assert!(!recorded.is_empty(), "miss journaled real events");
    // Identical request with a fresh journal: served from cache, with
    // the recorded event stream replayed byte-for-byte.
    let second = openarc_trace::Journal::enabled();
    let b = s
        .run_source(
            SRC,
            &topts,
            &ExecOptions {
                journal: second.clone(),
                ..Default::default()
            },
        )
        .unwrap();
    assert!(Arc::ptr_eq(&a.result, &b.result), "hit reuses the run");
    assert_eq!(s.stats().get(Stage::Execute).hits, 1);
    assert_eq!(second.snapshot(), recorded, "replay is byte-identical");
    // Journaled and unjournaled requests stay separate plans.
    let c = s.run_source(SRC, &topts, &ExecOptions::default()).unwrap();
    assert!(!c.plan.journaled);
    assert!(!Arc::ptr_eq(&a.result, &c.result));
}

#[test]
fn instrumented_translation_meters_separately() {
    let s = Session::builder().build();
    let fe = s.frontend(SRC).unwrap();
    let plain = TranslateOptions::default();
    let inst = TranslateOptions {
        instrument: true,
        ..Default::default()
    };
    let a = s.translate(&fe, &plain).unwrap();
    let b = s.translate(&fe, &inst).unwrap();
    let c = s.translate(&fe, &inst).unwrap();
    assert_ne!(a.id, b.id);
    assert!(Arc::ptr_eq(&b, &c));
    let st = s.stats();
    assert_eq!(st.get(Stage::Analysis), StageCounts { hits: 0, misses: 1 });
    assert_eq!(
        st.get(Stage::Instrument),
        StageCounts { hits: 1, misses: 1 }
    );
}

#[test]
fn overlay_edits_change_the_plan_fingerprint() {
    let s = Session::builder().build();
    let fe = s.frontend(SRC).unwrap();
    let tr = s.translate(&fe, &TranslateOptions::default()).unwrap();
    let base = s.plan(&tr, &ExecOptions::default());
    let mut overlay = TransferOverlay::default();
    overlay.disable.insert(crate::exec::TransferKey {
        site: "data_enter0".into(),
        var: "w".into(),
        to_device: true,
    });
    let edited = s.plan(
        &tr,
        &ExecOptions {
            overlay,
            ..Default::default()
        },
    );
    assert_ne!(base.id, edited.id);
    assert_eq!(base.translated, edited.translated);
}

#[test]
fn sessions_are_shareable_across_scheduler_workers() {
    let s = Session::builder().build();
    let topts = TranslateOptions::default();
    let tasks: Vec<_> = (0..8)
        .map(|_| {
            let s = &s;
            let topts = topts.clone();
            move || {
                s.run_source(SRC, &topts, &ExecOptions::default())
                    .unwrap()
                    .result
                    .sim_time_us()
            }
        })
        .collect();
    let times = crate::sched::run_tasks(4, tasks);
    assert!(times.windows(2).all(|w| w[0] == w[1]));
    let st = s.stats();
    assert_eq!(
        st.get(Stage::Frontend).hits + st.get(Stage::Frontend).misses,
        8
    );
    // At least one of the eight requests computed each stage; the rest
    // hit (or raced the first miss, which is also a miss).
    assert!(st.get(Stage::Execute).hits >= 1);
}

fn disk_scratch(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::AtomicU32;
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "openarc-pipe-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The six stage entry points (`translate` twice: it meters plain
/// and instrumented translations as different stages).
#[derive(Debug, Clone, Copy)]
enum Entry {
    Frontend,
    FrontendProgram,
    TranslatePlain,
    TranslateInstrumented,
    Plan,
    Execute,
    Verify,
}

impl Entry {
    const ALL: [Entry; 7] = [
        Entry::Frontend,
        Entry::FrontendProgram,
        Entry::TranslatePlain,
        Entry::TranslateInstrumented,
        Entry::Plan,
        Entry::Execute,
        Entry::Verify,
    ];

    /// The stage the entry point meters, and whether its artifact
    /// kind is persisted to the disk layer.
    fn stage(self) -> (Stage, bool) {
        match self {
            Entry::Frontend => (Stage::Frontend, true),
            Entry::FrontendProgram => (Stage::Frontend, false),
            Entry::TranslatePlain => (Stage::Analysis, true),
            Entry::TranslateInstrumented => (Stage::Instrument, true),
            Entry::Plan => (Stage::Plan, false),
            Entry::Execute => (Stage::Execute, true),
            Entry::Verify => (Stage::Verify, false),
        }
    }
}

/// What one entry-point call did to its own stage: the `(hits,
/// misses)` delta and the stage's journal events in emission order
/// (`cache:<op>` / `stage:<cached>`).
#[derive(Debug, PartialEq)]
struct Observed {
    counts: (u64, u64),
    events: Vec<String>,
}

/// Run `entry`'s prerequisite stages on `s`, then the entry point
/// itself, observing only the latter.
fn observe(s: &Session, entry: Entry) -> Observed {
    let (stage, _) = entry.stage();
    let plain = TranslateOptions::default();
    let inst = TranslateOptions {
        instrument: true,
        ..Default::default()
    };
    let eopts = ExecOptions::default();
    let call: Box<dyn FnOnce() + '_> = match entry {
        Entry::Frontend => Box::new(|| drop(s.frontend(SRC).unwrap())),
        Entry::FrontendProgram => {
            let (program, sema) = frontend(SRC).unwrap();
            Box::new(move || drop(s.frontend_program(program, sema)))
        }
        Entry::TranslatePlain | Entry::TranslateInstrumented => {
            let fe = s.frontend(SRC).unwrap();
            let topts = if matches!(entry, Entry::TranslatePlain) {
                plain
            } else {
                inst
            };
            Box::new(move || drop(s.translate(&fe, &topts).unwrap()))
        }
        Entry::Plan | Entry::Execute => {
            let fe = s.frontend(SRC).unwrap();
            let tr = s.translate(&fe, &plain).unwrap();
            if matches!(entry, Entry::Plan) {
                Box::new(move || {
                    s.plan(&tr, &eopts);
                })
            } else {
                Box::new(move || drop(s.execute(&tr, &eopts).unwrap()))
            }
        }
        Entry::Verify => {
            let fe = s.frontend(SRC).unwrap();
            Box::new(move || drop(s.verify(&fe, &plain, VerifyOptions::default()).unwrap()))
        }
    };
    let before = s.stats();
    s.stage_journal().drain();
    call();
    let after = s.stats();
    let events = s
        .stage_journal()
        .drain()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::Stage { stage: p, cached } if p == stage.phase() => {
                Some(format!("stage:{cached}"))
            }
            EventKind::Cache { stage: p, op } if p == stage.phase() => {
                Some(format!("cache:{}", op.label()))
            }
            _ => None,
        })
        .collect();
    let (b, a) = (before.get(stage), after.get(stage));
    Observed {
        counts: (a.hits - b.hits, a.misses - b.misses),
        events,
    }
}

#[test]
fn every_stage_entry_point_follows_the_one_memo_protocol() {
    let observed = |counts, events: &[&str]| Observed {
        counts,
        events: events.iter().map(|e| e.to_string()).collect(),
    };
    let disk_session = |dir: &std::path::Path| {
        Session::builder()
            .journal(Journal::enabled())
            .disk_cache(dir)
            .build()
    };
    for entry in Entry::ALL {
        let (stage, persisted) = entry.stage();
        let dir = disk_scratch("protocol");
        let s = disk_session(&dir);
        // Cold: one stage miss; a persisted kind probes the disk once
        // and publishes what it computed.
        let cold = if persisted {
            observed((0, 1), &["cache:miss", "cache:store", "stage:false"])
        } else {
            observed((0, 1), &["stage:false"])
        };
        assert_eq!(observe(&s, entry), cold, "{entry:?} cold");
        let times = s.stage_times();
        let wall = times.iter().find(|(x, _)| *x == stage).unwrap().1;
        assert!(wall > 0.0, "{entry:?} accumulated no wall-clock time");
        // Memory hit: no disk traffic at all.
        let hit = observed((1, 0), &["stage:true"]);
        assert_eq!(observe(&s, entry), hit, "{entry:?} memory hit");
        // A fresh session over the same store: persisted kinds load
        // through from disk (a stage hit); the rest recompute.
        let fresh = if persisted {
            observed((1, 0), &["cache:hit", "stage:true"])
        } else {
            cold
        };
        let s = disk_session(&dir);
        assert_eq!(observe(&s, entry), fresh, "{entry:?} fresh session");
        // ... after which the loaded artifact sits in memory.
        assert_eq!(observe(&s, entry), hit, "{entry:?} hit after load");
        let _ = std::fs::remove_dir_all(&dir);
    }
    // A failed compute counts a miss and emits no Stage span; nothing
    // is published.
    let dir = disk_scratch("protocol-err");
    let s = disk_session(&dir);
    assert!(s.frontend("void main() { x = 1; }").is_err());
    assert_eq!(s.stats().get(Stage::Frontend).misses, 1);
    assert_eq!(s.stats().disk.stores, 0);
    let kinds: Vec<_> = s
        .stage_journal()
        .drain()
        .into_iter()
        .map(|e| e.kind)
        .collect();
    assert_eq!(
        kinds,
        [EventKind::Cache {
            stage: Phase::Frontend,
            op: CacheOp::Miss
        }]
    );
    assert!(!dir.exists(), "nothing was stored");
}

#[test]
fn an_absent_key_is_exactly_one_disk_miss_per_persisted_stage() {
    let dir = disk_scratch("exact-miss");
    let s = Session::builder()
        .journal(Journal::enabled())
        .disk_cache(&dir)
        .build();
    let inst = TranslateOptions {
        instrument: true,
        ..Default::default()
    };
    let fe = s.frontend(SRC).unwrap();
    assert_eq!(s.stats().disk.misses, 1);
    let tr = s.translate(&fe, &TranslateOptions::default()).unwrap();
    assert_eq!(s.stats().disk.misses, 2);
    s.translate(&fe, &inst).unwrap();
    assert_eq!(s.stats().disk.misses, 3);
    s.execute(&tr, &ExecOptions::default()).unwrap();
    assert_eq!(s.stats().disk.misses, 4);
    let events = s.stage_journal().drain();
    for stage in crate::cache::DISK_STAGES {
        let miss = EventKind::Cache {
            stage: stage.phase(),
            op: CacheOp::Miss,
        };
        let n = events.iter().filter(|e| e.kind == miss).count();
        assert_eq!(n, 1, "{} miss events", stage.label());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_cache_survives_into_a_new_session() {
    let dir = disk_scratch("warm");
    let topts = TranslateOptions::default();
    let journal = openarc_trace::Journal::enabled();
    let eopts = ExecOptions {
        journal: journal.clone(),
        ..Default::default()
    };
    let cold = Session::builder().disk_cache(&dir).build();
    let a = cold.run_source(SRC, &topts, &eopts).unwrap();
    let recorded = journal.drain();
    let st = cold.stats();
    assert_eq!(st.disk.hits, 0);
    assert!(st.disk.stores >= 3, "frontend + analysis + run persisted");

    // A brand-new session over the same directory models a second
    // process: every persisted stage loads from disk — zero misses.
    let replay = openarc_trace::Journal::enabled();
    let warm = Session::builder().disk_cache(&dir).build();
    let b = warm
        .run_source(
            SRC,
            &topts,
            &ExecOptions {
                journal: replay.clone(),
                ..Default::default()
            },
        )
        .unwrap();
    let st = warm.stats();
    assert_eq!(st.get(Stage::Frontend), StageCounts { hits: 1, misses: 0 });
    assert_eq!(st.get(Stage::Analysis), StageCounts { hits: 1, misses: 0 });
    assert_eq!(st.get(Stage::Execute), StageCounts { hits: 1, misses: 0 });
    assert_eq!(st.disk.misses, 0);
    assert!(st.disk.hits >= 3);
    assert_eq!(a.result.sim_time_us(), b.result.sim_time_us());
    assert_eq!(a.result.kernel_launches, b.result.kernel_launches);
    assert_eq!(replay.drain(), recorded, "disk replay is byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_disk_entries_recompute_cleanly() {
    let dir = disk_scratch("corrupt");
    let topts = TranslateOptions::default();
    let cold = Session::builder().disk_cache(&dir).build();
    let a = cold
        .run_source(SRC, &topts, &ExecOptions::default())
        .unwrap();
    // Trash every persisted entry: an empty file and two shapes of
    // garbage.
    let mut i = 0;
    for stage in crate::cache::DISK_STAGES {
        let Ok(rd) = std::fs::read_dir(dir.join(stage.label())) else {
            continue;
        };
        for entry in rd.flatten() {
            let junk = ["", "{not json", "{\"schema\": 999}"][i % 3];
            std::fs::write(entry.path(), junk).unwrap();
            i += 1;
        }
    }
    assert!(i >= 3, "expected persisted entries to corrupt");
    let warm = Session::builder().disk_cache(&dir).build();
    let b = warm
        .run_source(SRC, &topts, &ExecOptions::default())
        .unwrap();
    assert_eq!(a.result.sim_time_us(), b.result.sim_time_us());
    let st = warm.stats();
    assert_eq!(st.disk.hits, 0);
    assert!(
        st.disk.corrupt + st.disk.misses >= 3,
        "every load either missed or detected corruption: {:?}",
        st.disk
    );
    assert!(st.disk.corrupt >= 1, "at least one corruption detected");
    // The recompute re-published fresh entries over the carnage.
    assert!(st.disk.stores >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_interactive_loop_replays_launches_and_counts_their_steps() {
    use crate::interactive::{optimize_transfers_in_session, OutputSpec};
    use crate::ir::KernelParam;
    use openarc_gpusim::{launch, Device, LaunchConfig};
    // Every round re-runs one kernel over the same 16 threads on device
    // data no transfer edit can change, and the kernel's instruction
    // count does not depend on that data.
    let src = "double a[16];\ndouble b[16];\ndouble out;\nvoid main() {\n int k; int j;\n for (j = 0; j < 16; j++) { a[j] = 1.0 + (double) j; }\n #pragma acc data copyin(a) create(b)\n {\n  for (k = 0; k < 3; k++) {\n   #pragma acc kernels loop gang\n   for (j = 0; j < 16; j++) { b[j] = a[j] + 1.0; }\n   #pragma acc update host(b)\n  }\n }\n out = b[0];\n}";
    let s = Session::builder().build();
    let fe = s.frontend(src).unwrap();
    let topts = TranslateOptions {
        instrument: true,
        ..Default::default()
    };
    let out = optimize_transfers_in_session(
        &s,
        &fe.program,
        &fe.sema,
        &topts,
        &OutputSpec::arrays(&["b"]).with_scalars(&["out"]),
        &ExecOptions::default(),
        10,
    )
    .unwrap();
    assert!(out.converged && out.iterations > 1, "{out:?}");
    let st = s.stats().launches;
    assert!(st.hits > 0, "{st:?}");

    // The steps of one launch, simulated on its own.
    let tr = s.translate(&fe, &topts).unwrap();
    let k = &tr.tr.kernels[0];
    let host = crate::exec::execute(&tr.tr, &ExecOptions::default()).unwrap();
    let mut dev = Device::new();
    let args: Vec<openarc_vm::Value> = k
        .params
        .iter()
        .map(|p| match p {
            KernelParam::Aggregate { var } => {
                openarc_vm::Value::Ptr(dev.mem.alloc(openarc_minic::ScalarTy::Double, 16, var))
            }
            KernelParam::Scalar { var } => host.global_scalar(&tr.tr, var).unwrap(),
            other => panic!("unexpected kernel parameter {other:?}"),
        })
        .collect();
    let one = launch(
        &mut dev,
        &tr.tr.kernel_module,
        &k.name,
        &args,
        16,
        &LaunchConfig::default(),
    )
    .unwrap();
    assert!(one.total_instrs > 0);
    assert_eq!(st.replayed_thread_steps, st.hits * one.total_instrs);
    assert_eq!(st.evictions, 0);
}
