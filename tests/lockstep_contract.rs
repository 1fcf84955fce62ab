//! The lockstep contract of `gpusim::launch` (DESIGN.md, "The interpreter
//! loop and the lockstep contract"): whatever one thread of a wave can
//! observe of another happens in the order of one-instruction round-robin.
//!
//! `reference_launch` below *is* one-instruction round-robin, written from
//! `ThreadState::run(.., fuel = 1, ..)`. Every kernel this file can get its
//! hands on — the 36 suite variants, the 12 privatization-stripped
//! programs, `tests/corpus`, generated programs, and a few hand-written
//! adversaries — runs under both at wave widths 1, 7 and 256, and must
//! leave the same device memory bytes, the same `KernelOutcome` and race
//! reports, or the same first error.

use openarc::core::exec::{execute, ExecMode, ExecOptions};
use openarc::core::faults::strip_privatization;
use openarc::core::fuzz::{gen, FuzzRng};
use openarc::core::ir::KernelParam;
use openarc::core::translate::{translate, TranslateOptions, Translated};
use openarc::gpusim::{
    launch, Device, DeviceEnv, KernelOutcome, LaunchConfig, RaceDetector, RaceReport,
};
use openarc::minic::{frontend, ScalarTy};
use openarc::suite::{all, Scale, Variant};
use openarc::vm::interp::BasicEnv;
use openarc::vm::{compile, BufData, MemSpace, Module, Stop, ThreadState, Value, VmError};
use std::path::PathBuf;

const WAVES: [u32; 3] = [1, 7, 256];

/// One-instruction round-robin over waves of `cfg.wave` threads: the
/// schedule `launch` must be indistinguishable from.
fn reference_launch(
    device: &mut Device,
    module: &Module,
    kernel: &str,
    base_args: &[Value],
    n_threads: u64,
    cfg: &LaunchConfig,
) -> Result<KernelOutcome, VmError> {
    let mut outcome = KernelOutcome {
        n_threads,
        ..Default::default()
    };
    let mut detector = device.race_detect.then(RaceDetector::new);
    let wave = cfg.wave.max(1) as u64;
    let mut spent = 0u64;
    let mut start = 0u64;
    while start < n_threads {
        let end = (start + wave).min(n_threads);
        let mut threads = Vec::new();
        for tid in start..end {
            let mut args = vec![Value::Int(tid as i64)];
            args.extend_from_slice(base_args);
            threads.push(ThreadState::new(module, kernel, &args)?);
        }
        let mut env = DeviceEnv::new(&mut device.mem, detector.as_mut());
        let mut live = threads.len();
        while live > 0 {
            for (i, t) in threads.iter_mut().enumerate() {
                if t.is_done() {
                    continue;
                }
                env.current_tid = start + i as u64;
                t.run(module, &mut env, 1, Stop::Never)?;
                spent += 1;
                if spent > cfg.step_budget {
                    return Err(VmError::StepLimit(cfg.step_budget));
                }
                if t.is_done() {
                    live -= 1;
                }
            }
        }
        for t in &threads {
            outcome.total_instrs += t.steps;
            outcome.max_thread_instrs = outcome.max_thread_instrs.max(t.steps);
        }
        start = end;
    }
    if let Some(d) = detector {
        outcome.races = d.reports();
    }
    Ok(outcome)
}

/// Everything a launch leaves behind, comparable bit for bit (floats as
/// their bit patterns, so NaNs compare).
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<(u64, u64, u64, Vec<RaceReport>), VmError>,
    memory: Vec<Option<(String, Vec<u64>)>>,
}

fn memory_bits(mem: &MemSpace) -> Vec<Option<(String, Vec<u64>)>> {
    mem.slots()
        .iter()
        .map(|slot| {
            slot.as_ref().map(|b| {
                let bits = match &b.data {
                    BufData::I64(v) => v.iter().map(|x| *x as u64).collect(),
                    BufData::F32(v) => v.iter().map(|x| x.to_bits() as u64).collect(),
                    BufData::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
                };
                (b.label.clone(), bits)
            })
        })
        .collect()
}

type Launcher =
    fn(&mut Device, &Module, &str, &[Value], u64, &LaunchConfig) -> Result<KernelOutcome, VmError>;

fn observe(
    launcher: Launcher,
    mut device: Device,
    module: &Module,
    kernel: &str,
    args: &[Value],
    n_threads: u64,
    cfg: &LaunchConfig,
) -> Observed {
    let result = launcher(&mut device, module, kernel, args, n_threads, cfg)
        .map(|o| (o.total_instrs, o.max_thread_instrs, o.n_threads, o.races));
    Observed {
        result,
        memory: memory_bits(&device.mem),
    }
}

/// `launch` against the reference, from two identical devices.
fn assert_same(
    what: &str,
    stage: &dyn Fn() -> (Device, Vec<Value>),
    module: &Module,
    kernel: &str,
    n_threads: u64,
    cfg: &LaunchConfig,
) -> Observed {
    let (dev, args) = stage();
    let want = observe(reference_launch, dev, module, kernel, &args, n_threads, cfg);
    let (dev, args) = stage();
    let got = observe(launch, dev, module, kernel, &args, n_threads, cfg);
    assert!(
        got == want,
        "{what} `{kernel}` wave={} budget={}: launch left\n{got:?}\nround-robin left\n{want:?}",
        cfg.wave,
        cfg.step_budget
    );
    got
}

/// A device holding kernel `k`'s arguments, built from the host state a
/// sequential run of the program leaves behind.
fn stage_kernel(tr: &Translated, host: &BasicEnv, k: usize) -> Option<(Device, Vec<Value>, u64)> {
    let global = |name: &str| {
        let slot = tr.host_module.global_slot(name)?;
        host.globals.get(slot as usize).copied()
    };
    let elem_of = |name: &str| {
        let slot = tr.host_module.global_slot(name)?;
        tr.host_module.globals[slot as usize].ty.elem()
    };
    let n = global(&tr.kernels[k].n_threads_global)?.as_i64().max(0) as usize;
    let mut device = Device::new();
    let mut args = Vec::new();
    for p in &tr.kernels[k].params {
        args.push(match p {
            KernelParam::Aggregate { var } => match global(var)? {
                Value::Ptr(h) => Value::Ptr(device.mem.insert(host.mem.get(h).ok()?.clone())),
                _ => return None,
            },
            KernelParam::Scalar { var } => global(var)?,
            KernelParam::SharedCell { var, init_global } => {
                let elem = init_global
                    .as_deref()
                    .and_then(elem_of)
                    .unwrap_or(ScalarTy::Double);
                let h = device.mem.alloc(elem, 1, format!("__cell_{var}"));
                if let Some(init) = init_global.as_deref().and_then(global) {
                    device.mem.store(h, 0, init).ok()?;
                }
                Value::Ptr(h)
            }
            KernelParam::ReductionSlot { var, .. } => {
                let elem = elem_of(var).unwrap_or(ScalarTy::Double);
                Value::Ptr(device.mem.alloc(elem, n.max(1), format!("__red_{var}")))
            }
        });
    }
    Some((device, args, n as u64))
}

/// Every kernel of `tr` under both schedulers at every wave width.
/// Returns the number of kernels compared.
fn check_program(what: &str, tr: &Translated) -> usize {
    let cpu = ExecOptions {
        mode: ExecMode::CpuOnly,
        race_detect: false,
        ..Default::default()
    };
    let Ok(run) = execute(tr, &cpu) else {
        return 0;
    };
    let host = &run.machine.host;
    let mut compared = 0;
    for (k, info) in tr.kernels.iter().enumerate() {
        let Some((_, _, n)) = stage_kernel(tr, host, k) else {
            continue;
        };
        for wave in WAVES {
            let cfg = LaunchConfig {
                wave,
                ..Default::default()
            };
            assert_same(
                what,
                &|| {
                    let (device, args, _) = stage_kernel(tr, host, k).expect("staged once already");
                    (device, args)
                },
                &tr.kernel_module,
                &info.name,
                n,
                &cfg,
            );
        }
        compared += 1;
    }
    compared
}

fn translated(src: &str, topts: &TranslateOptions) -> Option<Translated> {
    let (p, s) = frontend(src).ok()?;
    translate(&p, &s, topts).ok()
}

const SMALL: Scale = Scale { n: 8, iters: 1 };

#[test]
fn suite_variants_match_round_robin() {
    let mut compared = 0;
    for b in all(SMALL) {
        for v in Variant::ALL {
            let tr = translated(b.source(v), &TranslateOptions::default())
                .unwrap_or_else(|| panic!("{} [{}] translates", b.name, v.name()));
            compared += check_program(&format!("{} [{}]", b.name, v.name()), &tr);
        }
    }
    assert!(compared >= 36, "only {compared} kernels compared");
}

#[test]
fn stripped_programs_race_identically() {
    let stripped = TranslateOptions {
        auto_privatize: false,
        auto_reduction: false,
        ..Default::default()
    };
    let mut compared = 0;
    for b in all(SMALL) {
        let (p, s) = frontend(b.source(Variant::Optimized)).expect("frontend");
        let (p, _) = strip_privatization(&p).expect("strip");
        let tr = translate(&p, &s, &stripped).expect("translate");
        compared += check_program(&format!("{} [stripped]", b.name), &tr);
    }
    assert!(compared >= 12, "only {compared} kernels compared");
}

#[test]
fn corpus_programs_match_round_robin() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    let mut compared = 0;
    for f in files {
        let src = std::fs::read_to_string(&f).expect("readable corpus file");
        if let Some(tr) = translated(&src, &TranslateOptions::default()) {
            compared += check_program(&f.display().to_string(), &tr);
        }
    }
    assert!(compared >= 6, "only {compared} corpus kernels compared");
}

fn generated_programs(seed: u64, programs: usize) {
    let mut rng = FuzzRng::new(seed);
    let mut compared = 0;
    for i in 0..programs {
        let src = gen::generate(&mut rng.fork());
        if let Some(tr) = translated(&src, &TranslateOptions::default()) {
            compared += check_program(&format!("generated #{i} (seed {seed})"), &tr);
        }
    }
    assert!(
        compared >= programs,
        "only {compared} kernels from {programs} programs"
    );
}

#[test]
fn generated_programs_match_round_robin() {
    generated_programs(21, 300);
}

/// The CI-sized variant (`cargo test --release -- --ignored`).
#[test]
#[ignore = "large: run in release"]
fn generated_programs_match_round_robin_large() {
    generated_programs(2014, 2000);
}

/// A standalone kernel module (kernels take the thread id first).
fn kernel_module(src: &str) -> Module {
    let (p, s) = frontend(src).expect("frontend");
    compile(&p, &s).expect("compile")
}

/// The 1-based index of the instruction at which thread `tid` of `k`
/// fails when it runs alone.
fn trap_step(m: &Module, tid: i64, buf_len: usize) -> (u64, VmError) {
    let mut mem = MemSpace::new();
    let a = mem.alloc(ScalarTy::Int, buf_len, "a");
    let mut env = DeviceEnv::new(&mut mem, None);
    let mut t = ThreadState::new(m, "k", &[Value::Int(tid), Value::Ptr(a)]).unwrap();
    let e = t
        .run(m, &mut env, u64::MAX, Stop::Never)
        .expect_err("thread traps");
    (t.steps, e)
}

fn int_buffer(len: usize) -> impl Fn() -> (Device, Vec<Value>) {
    move || {
        let mut device = Device::new();
        let a = device.mem.alloc(ScalarTy::Int, len, "a");
        (device, vec![Value::Ptr(a)])
    }
}

#[test]
fn the_first_error_is_the_one_at_the_least_step_then_tid() {
    // Thread 0 divides by zero on its own, late; thread 3 stores out of
    // bounds early. Running ahead meets the division first.
    let m = kernel_module(
        "void k(int gid, int *a) {
            int z; int x;
            z = 0; x = 1;
            if (gid == 3) { a[100] = 1; }
            if (gid == 0) { x = x + 1; x = x + 1; x = 7 / z; }
            a[gid] = x;
        }",
    );
    let (late, div) = trap_step(&m, 0, 8);
    let (early, oob) = trap_step(&m, 3, 8);
    assert_eq!(div, VmError::DivByZero);
    assert!(matches!(oob, VmError::OutOfBounds { .. }));
    assert!(early < late, "out of bounds at {early}, division at {late}");
    for wave in WAVES {
        let cfg = LaunchConfig {
            wave,
            ..Default::default()
        };
        let got = assert_same("first error", &int_buffer(8), &m, "k", 8, &cfg);
        // One thread per wave: thread 0 runs alone, first.
        let want = if wave == 1 { &div } else { &oob };
        assert_eq!(got.result.as_ref().unwrap_err(), want, "wave {wave}");
    }

    // The other way round: the private trap comes first and must win, and
    // thread 3's store must not have happened.
    let m = kernel_module(
        "void k(int gid, int *a) {
            int z; int x;
            z = 0; x = 1;
            if (gid == 0) { x = 7 / z; }
            if (gid == 3) { x = x + 1; x = x + 1; a[100] = 1; }
            a[gid] = x;
        }",
    );
    assert!(trap_step(&m, 0, 8).0 < trap_step(&m, 3, 8).0);
    let got = assert_same(
        "first error",
        &int_buffer(8),
        &m,
        "k",
        8,
        &LaunchConfig::default(),
    );
    assert_eq!(got.result, Err(VmError::DivByZero));

    // Same step: the lower thread id wins. Pad the two branches until the
    // division and the store are the same instruction index.
    let tied = (0..6)
        .flat_map(|i| (0..6).map(move |j| (i, j)))
        .map(|(pad_div, pad_store)| {
            kernel_module(&format!(
                "void k(int gid, int *a) {{
                    int z;
                    z = 0;
                    if (gid == 2) {{ {} z = 7 / z; }} else {{ {} a[100 + gid] = 1; }}
                }}",
                "z = 0; ".repeat(pad_div),
                "z = -z; ".repeat(pad_store),
            ))
        })
        .find(|m| trap_step(m, 2, 8).0 == trap_step(m, 1, 8).0)
        .expect("some padding lines the two traps up");
    let got = assert_same(
        "first error",
        &int_buffer(8),
        &tied,
        "k",
        8,
        &LaunchConfig::default(),
    );
    assert!(
        matches!(got.result, Err(VmError::OutOfBounds { idx: 100, .. })),
        "{:?}",
        got.result
    );
}

#[test]
fn step_limit_fires_at_the_same_instruction_for_every_budget() {
    // Divergent trip counts around one racy cell: where the budget runs
    // out decides which stores have landed.
    let m = kernel_module(
        "void k(int gid, int *a) {
            int i;
            for (i = 0; i < gid % 3 + 1; i++) { a[0] = a[0] + gid; }
            a[gid + 1] = a[0];
        }",
    );
    let stage = int_buffer(16);
    for wave in [1, 3, 7, 256] {
        let unlimited = LaunchConfig {
            wave,
            ..Default::default()
        };
        let total = assert_same("budget", &stage, &m, "k", 10, &unlimited)
            .result
            .expect("kernel finishes")
            .0;
        for step_budget in (0..=total + 1).chain([u64::MAX]) {
            let cfg = LaunchConfig { wave, step_budget };
            let got = assert_same("budget", &stage, &m, "k", 10, &cfg);
            // Exactly `budget` instructions are allowed, not one more.
            if step_budget >= total {
                assert!(got.result.is_ok(), "wave {wave} budget {step_budget}");
            } else {
                assert_eq!(got.result, Err(VmError::StepLimit(step_budget)));
            }
        }
    }
}

#[test]
fn a_spinning_kernel_with_no_shared_access_still_hits_the_budget() {
    let m = kernel_module("void k(int gid, int *a) { while (1) { } }");
    for wave in WAVES {
        let cfg = LaunchConfig {
            wave,
            step_budget: 10_000,
        };
        let got = assert_same("spin", &int_buffer(1), &m, "k", 8, &cfg);
        assert_eq!(got.result, Err(VmError::StepLimit(10_000)));
    }
    // A budget far beyond what a test could execute thread by thread:
    // every thread of the wave gets its share of it, not all of it.
    let mut device = Device::new();
    let cfg = LaunchConfig {
        wave: 256,
        step_budget: 3_000_000,
    };
    let t = std::time::Instant::now();
    let r = launch(
        &mut device,
        &m,
        "k",
        &[Value::Ptr(openarc::vm::Handle(1))],
        256,
        &cfg,
    );
    assert_eq!(r.unwrap_err(), VmError::StepLimit(3_000_000));
    assert!(t.elapsed().as_secs() < 60);
}

#[test]
fn host_step_limit_fires_one_past_the_budget() {
    let src = "double a[8];\nvoid main() {\n int j;\n for (j = 0; j < 8; j++) { a[j] = 1.0; }\n #pragma acc kernels loop gang\n for (j = 0; j < 8; j++) { a[j] = a[j] + 1.0; }\n}";
    let tr = translated(src, &TranslateOptions::default()).expect("translates");
    let need = execute(&tr, &ExecOptions::default())
        .expect("runs")
        .host_instrs;
    let with_budget = |step_budget| ExecOptions {
        step_budget,
        ..Default::default()
    };
    let exact = execute(&tr, &with_budget(need)).expect("the budget itself is enough");
    assert_eq!(exact.host_instrs, need);
    assert_eq!(
        execute(&tr, &with_budget(need - 1)).map(|r| r.host_instrs),
        Err(VmError::StepLimit(need - 1))
    );
}
