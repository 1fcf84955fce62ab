//! Lockstep kernel executor.
//!
//! Kernels are MiniC functions compiled to bytecode whose first parameter
//! is the global thread id. The executor runs one resumable
//! [`ThreadState`] per thread, in waves of bounded width (like resident
//! thread blocks), and orders everything one thread can observe of another
//! as **round-robin, one instruction at a time** would: an access to device
//! memory or a trap by thread `tid` at its `s`-th instruction happens at
//! position `(s, tid)`, and positions are served in increasing order.
//!
//! Between two such positions a thread touches only its own stack and
//! locals, so it runs that stretch in one slice ("runs ahead") and parks
//! at its next position; nobody can tell the difference from stepping it
//! one instruction per round. DESIGN.md, "The interpreter loop and the
//! lockstep contract", has the argument in full.
//!
//! Lockstep interleaving is what makes the paper's target bugs observable:
//! when a privatization is missed and a scalar temporary is shared, every
//! thread's write lands before any thread's read, so the race corrupts the
//! result deterministically — exactly the "active error" class of Table 2.

use crate::device::{Device, DeviceEnv};
use crate::race::{RaceDetector, RaceReport};
use openarc_vm::{Module, Stop, ThreadState, Value, VmError, Yield};

/// Execution knobs for one launch.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Number of threads resident (stepped in lockstep) at once.
    pub wave: u32,
    /// Total instruction budget across all threads (runaway guard).
    pub step_budget: u64,
}

impl Default for LaunchConfig {
    fn default() -> Self {
        LaunchConfig {
            wave: 256,
            step_budget: 2_000_000_000,
        }
    }
}

/// Instruction counts and race reports from one kernel launch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelOutcome {
    /// Instructions executed over all threads.
    pub total_instrs: u64,
    /// Longest single-thread instruction count.
    pub max_thread_instrs: u64,
    /// Races observed (empty when detection is off).
    pub races: Vec<RaceReport>,
    /// Number of threads launched.
    pub n_threads: u64,
}

/// Longest stretch a thread runs ahead before it parks anyway. A kernel
/// that spins without touching memory then overshoots the step budget by
/// at most a wave of these instead of by the whole budget per thread.
const RUN_AHEAD: u64 = 1 << 12;

/// What a parked thread does when the schedule reaches its position.
#[derive(Debug)]
enum Parked {
    /// Runs its next slice: the `Env` access it stopped in front of, if
    /// any, then privately up to the access after it.
    Resume,
    /// Reports the trap it ran into on its own.
    Trap(VmError),
    /// Has returned; its position is one past its last instruction.
    Done,
}

/// One resident thread of the current wave.
#[derive(Debug)]
struct Lane {
    thread: ThreadState,
    /// 1-based index of the instruction this lane is parked at;
    /// `RETIRED` once it has been accounted for.
    at: u64,
    parked: Parked,
}

const RETIRED: u64 = u64::MAX;

impl Lane {
    /// Execute the instruction this lane is parked at, run privately up to
    /// the next `Env` access and park there. A slice never hands back its
    /// first instruction, so a lane parked in front of an access performs
    /// it here.
    fn run_ahead(&mut self, module: &Module, env: &mut DeviceEnv<'_>, budget: u64) {
        // No thread executes more than `budget + 1` instructions before
        // the launch is over one way or another.
        let fuel = RUN_AHEAD.min(budget.saturating_sub(self.thread.steps).saturating_add(1));
        let slice = self.thread.run(module, env, fuel, Stop::EnvAccess);
        (self.parked, self.at) = match slice {
            Ok(Yield::Stopped | Yield::Fuel) => (Parked::Resume, self.thread.steps + 1),
            Ok(Yield::Done) => (Parked::Done, self.thread.steps + 1),
            // `steps` counts the trapping instruction.
            Err(e) => (Parked::Trap(e), self.thread.steps),
        };
    }
}

/// Launch `kernel` over `n_threads` threads. Thread `i` receives arguments
/// `[Int(i), base_args...]`.
///
/// `Err` is the first error of one-instruction round-robin: the trap or
/// failed access at the least position `(s, tid)`, or `StepLimit` if the
/// launch's `step_budget + 1`-th instruction comes before it.
pub fn launch(
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
    if n_threads == 0 {
        return Ok(outcome);
    }
    let func = *module
        .func_index
        .get(kernel)
        .ok_or_else(|| VmError::UnknownFunction(kernel.to_string()))?;
    let mut detector = device.race_detect.then(RaceDetector::new);
    let mut env = DeviceEnv::new(&mut device.mem, detector.as_mut());
    let wave = cfg.wave.max(1) as u64;
    let over_budget = || VmError::StepLimit(cfg.step_budget);
    // Instructions the rest of the launch may still execute.
    let mut budget = cfg.step_budget;
    // One wave of threads, re-entered for every wave of the launch.
    let mut lanes: Vec<Lane> = Vec::new();
    let mut args: Vec<Value> = Vec::with_capacity(base_args.len() + 1);
    args.push(Value::Int(0));
    args.extend_from_slice(base_args);

    let mut start = 0u64;
    while start < n_threads {
        let width = (n_threads - start).min(wave) as usize;
        lanes.resize_with(width, || Lane {
            thread: ThreadState::default(),
            at: RETIRED,
            parked: Parked::Done,
        });
        for (i, lane) in lanes.iter_mut().enumerate() {
            args[0] = Value::Int((start + i as u64) as i64);
            lane.thread.reset(module, func, &args)?;
            (lane.parked, lane.at) = (Parked::Resume, 1);
        }

        // Round-robin executes, before round `s`, every instruction of the
        // retired lanes plus `s - 1` of each live one; within round `s`,
        // one more for each live lane of lower tid that has an `s`-th
        // instruction (`rank`). A lane is never parked behind the round
        // being served, so both are known without running anything.
        let (mut retired_instrs, mut live) = (0u64, width as u64);
        let mut s = 1;
        while live > 0 {
            let before_round = retired_instrs.saturating_add(live.saturating_mul(s - 1));
            if before_round > budget {
                return Err(over_budget());
            }
            let mut rank = 0;
            let mut next_round = RETIRED;
            for (i, lane) in lanes.iter_mut().enumerate() {
                while lane.at == s {
                    match std::mem::replace(&mut lane.parked, Parked::Resume) {
                        // Its last instruction was `s - 1`: nothing to do in
                        // this round or any later one.
                        Parked::Done => {
                            let steps = lane.thread.steps;
                            outcome.total_instrs += steps;
                            outcome.max_thread_instrs = outcome.max_thread_instrs.max(steps);
                            retired_instrs += steps;
                            live -= 1;
                            lane.at = RETIRED;
                            break;
                        }
                        // Round-robin reaches `(s, tid)` only while within
                        // budget, and checks again right after it.
                        _ if before_round.saturating_add(rank) > budget => {
                            return Err(over_budget())
                        }
                        Parked::Trap(e) => return Err(e),
                        Parked::Resume => {}
                    }
                    env.current_tid = start + i as u64;
                    lane.run_ahead(module, &mut env, budget);
                }
                if lane.at != RETIRED {
                    rank += 1;
                    next_round = next_round.min(lane.at);
                }
            }
            s = next_round;
        }
        if retired_instrs > budget {
            return Err(over_budget());
        }
        budget -= retired_instrs;
        start += width as u64;
    }
    if let Some(d) = detector {
        outcome.races = d.reports();
    }
    Ok(outcome)
}

/// Combine per-thread partial values pairwise (tournament tree), the way a
/// GPU reduction combines partials. For floating point this produces
/// different rounding than the host's left-to-right loop — the precision
/// mismatch the paper's configurable error margin exists to absorb.
pub fn tree_combine(
    vals: &[Value],
    f: &dyn Fn(Value, Value) -> Result<Value, VmError>,
) -> Result<Option<Value>, VmError> {
    if vals.is_empty() {
        return Ok(None);
    }
    let mut level: Vec<Value> = vals.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(f(pair[0], pair[1])?);
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    Ok(Some(level[0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use openarc_minic::ast::BinOp;
    use openarc_minic::frontend;
    use openarc_minic::ScalarTy;
    use openarc_vm::{compile, interp::eval_bin};

    /// Compile a standalone kernel program (kernels take `__gid` first).
    fn kernel_module(src: &str) -> Module {
        let (p, s) = frontend(src).expect("frontend");
        compile(&p, &s).expect("compile")
    }

    #[test]
    fn parallel_elementwise_copy() {
        let m = kernel_module("void k(int gid, double *q, double *w) { q[gid] = w[gid]; }");
        let mut dev = Device::new();
        let q = dev.mem.alloc(ScalarTy::Double, 100, "q");
        let w = dev.mem.alloc(ScalarTy::Double, 100, "w");
        for i in 0..100 {
            dev.mem.store(w, i, Value::F64(i as f64)).unwrap();
        }
        let out = launch(
            &mut dev,
            &m,
            "k",
            &[Value::Ptr(q), Value::Ptr(w)],
            100,
            &LaunchConfig::default(),
        )
        .unwrap();
        assert_eq!(out.n_threads, 100);
        assert!(out.races.is_empty(), "{:?}", out.races);
        for i in 0..100 {
            assert_eq!(dev.mem.load(q, i).unwrap(), Value::F64(i as f64));
        }
        assert!(out.total_instrs > 0);
        assert!(out.max_thread_instrs <= out.total_instrs);
    }

    #[test]
    fn missed_privatization_races_and_corrupts() {
        // `tmp` is a shared one-element buffer instead of a private local:
        // lockstep guarantees every thread's write lands before the reads.
        let m = kernel_module(
            "void k(int gid, double *a, double *tmp) { tmp[0] = (double) gid; a[gid] = tmp[0] * 2.0; }",
        );
        let mut dev = Device::new();
        let a = dev.mem.alloc(ScalarTy::Double, 64, "a");
        let tmp = dev.mem.alloc(ScalarTy::Double, 1, "tmp");
        let out = launch(
            &mut dev,
            &m,
            "k",
            &[Value::Ptr(a), Value::Ptr(tmp)],
            64,
            &LaunchConfig::default(),
        )
        .unwrap();
        assert!(!out.races.is_empty(), "expected a race on tmp");
        assert_eq!(out.races[0].label, "tmp");
        // Lockstep: every thread read the LAST writer's value (63).
        let mut wrong = 0;
        for i in 0..64 {
            if dev.mem.load(a, i).unwrap() != Value::F64(i as f64 * 2.0) {
                wrong += 1;
            }
        }
        assert!(
            wrong >= 63,
            "lockstep should corrupt nearly all lanes, got {wrong}"
        );
    }

    #[test]
    fn private_local_does_not_race() {
        let m = kernel_module(
            "void k(int gid, double *a) { double tmp; tmp = (double) gid; a[gid] = tmp * 2.0; }",
        );
        let mut dev = Device::new();
        let a = dev.mem.alloc(ScalarTy::Double, 64, "a");
        let out = launch(
            &mut dev,
            &m,
            "k",
            &[Value::Ptr(a)],
            64,
            &LaunchConfig::default(),
        )
        .unwrap();
        assert!(out.races.is_empty());
        for i in 0..64 {
            assert_eq!(dev.mem.load(a, i).unwrap(), Value::F64(i as f64 * 2.0));
        }
    }

    #[test]
    fn waves_partition_large_launches() {
        let m = kernel_module("void k(int gid, int *a) { a[gid] = gid + 1; }");
        let mut dev = Device::new();
        let a = dev.mem.alloc(ScalarTy::Int, 1000, "a");
        let cfg = LaunchConfig {
            wave: 64,
            ..Default::default()
        };
        launch(&mut dev, &m, "k", &[Value::Ptr(a)], 1000, &cfg).unwrap();
        for i in 0..1000 {
            assert_eq!(dev.mem.load(a, i).unwrap(), Value::Int(i as i64 + 1));
        }
    }

    #[test]
    fn step_budget_enforced() {
        let m = kernel_module("void k(int gid, int *a) { while (1) { a[0] = gid; } }");
        let mut dev = Device::new();
        let a = dev.mem.alloc(ScalarTy::Int, 1, "a");
        let cfg = LaunchConfig {
            wave: 8,
            step_budget: 10_000,
        };
        let r = launch(&mut dev, &m, "k", &[Value::Ptr(a)], 8, &cfg);
        assert!(matches!(r, Err(VmError::StepLimit(_))));
    }

    #[test]
    fn zero_threads_is_a_noop() {
        let m = kernel_module("void k(int gid) { }");
        let mut dev = Device::new();
        let out = launch(&mut dev, &m, "k", &[], 0, &LaunchConfig::default()).unwrap();
        assert_eq!(out.total_instrs, 0);
        assert_eq!(out.n_threads, 0);
    }

    #[test]
    fn tree_combine_matches_sum_for_ints() {
        let vals: Vec<Value> = (1..=10).map(Value::Int).collect();
        let f = |a: Value, b: Value| eval_bin(BinOp::Add, a, b);
        let r = tree_combine(&vals, &f).unwrap().unwrap();
        assert_eq!(r, Value::Int(55));
    }

    #[test]
    fn tree_combine_float_order_differs_from_sequential() {
        // A big head value swallows the 1.0s one-by-one sequentially (f32
        // eps at 1e8 is 8.0), while the tree first builds them into one
        // large partial that survives the final add.
        let mut vals = vec![Value::F32(1e8)];
        vals.extend(std::iter::repeat_n(Value::F32(1.0), 1000));
        let mut seq = 0.0f32;
        for v in &vals {
            if let Value::F32(x) = v {
                seq += x;
            }
        }
        let f = |a: Value, b: Value| eval_bin(BinOp::Add, a, b);
        let tree = match tree_combine(&vals, &f).unwrap().unwrap() {
            Value::F32(x) => x,
            other => panic!("{other:?}"),
        };
        assert_ne!(seq, tree, "tree and sequential rounding should differ");
        assert!((seq - tree).abs() / seq.abs() < 1e-4, "but only slightly");
    }

    #[test]
    fn tree_combine_empty_is_none() {
        let f = |a: Value, b: Value| eval_bin(BinOp::Add, a, b);
        assert_eq!(tree_combine(&[], &f).unwrap(), None);
    }

    #[test]
    fn race_detection_can_be_disabled() {
        let m = kernel_module("void k(int gid, int *x) { x[0] = gid; }");
        let mut dev = Device::new();
        dev.race_detect = false;
        let x = dev.mem.alloc(ScalarTy::Int, 1, "x");
        let out = launch(
            &mut dev,
            &m,
            "k",
            &[Value::Ptr(x)],
            32,
            &LaunchConfig::default(),
        )
        .unwrap();
        assert!(out.races.is_empty());
    }
}
