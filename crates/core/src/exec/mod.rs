//! Executor: runs a [`Translated`] program on the simulated machine.
//!
//! Three modes:
//!
//! * **Normal** — the production run: data regions, transfers, device
//!   kernels, coherence checks (when instrumented).
//! * **CpuOnly** — the reference run: every compute region executes its
//!   sequential fallback on the host; no device traffic (the normalization
//!   baseline of Figures 1 and 3). A Verify run's host executes exactly
//!   these instructions, so `Session::verify` reads its baseline off the
//!   verified run ([`RunResult::host_projection`]) instead of running the
//!   program twice.
//! * **Verify** — the paper's §III-A kernel verification: target kernels
//!   run on the device *and* sequentially on the host (asynchronously
//!   overlapped on the simulated timeline, post-demotion semantics),
//!   outputs are compared with a configurable error margin, and the host's
//!   sequential results remain canonical so errors never propagate.
//!
//! The module is split by concern:
//!
//! * [`mod@self`] — configuration types, the [`execute`] entry point, and
//!   the [`RunResult`].
//! * `env` — the `Env`-implementing execution environment that
//!   dispatches lowered runtime ops (data regions, updates, checks).
//! * `launch` — argument marshalling, the Normal and CpuOnly kernel
//!   launch paths, and `launch_kernel`, through which every device launch
//!   of both modes goes to the launch memo.
//! * `verified` — the §III-A verified launch: staging, device run, CPU
//!   reference, comparison and completion, in that order on the calling
//!   thread.
//! * `dag` — launch dependency levels, which place verified launches on
//!   devices round-robin when a run has more than one.
//! * `reduce` — reduction operator evaluation and partial-buffer folds.

mod dag;
mod env;
mod launch;
mod reduce;
#[cfg(test)]
mod tests;
mod verified;

use crate::translate::Translated;
use env::ExecEnv;
pub use reduce::red_eval;

use openarc_gpusim::{DeviceId, LaunchConfig, LaunchMemo, RaceReport, SimClock, TimeBreakdown};
use openarc_runtime::Machine;
use openarc_trace::{Category, Journal};
use openarc_vm::interp::BasicEnv;
use openarc_vm::{Stop, ThreadState, Value, VmError, Yield, GLOBALS_INIT};
use std::collections::{BTreeSet, HashMap};

/// Kernel-verification configuration (§III-A).
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Kernels to verify (names). `None` = all.
    pub targets: Option<BTreeSet<String>>,
    /// Invert the target set (the paper's `complement=1`).
    pub complement: bool,
    /// Relative error tolerance.
    pub rel_tol: f64,
    /// Absolute error tolerance.
    pub abs_tol: f64,
    /// `minValueToCheck`: compare only when `|cpu| >=` this threshold.
    pub min_value_to_check: f64,
    /// Async queue used for the demoted transfers/kernels.
    pub queue: i64,
    /// Simulated devices the verified launches run on (clamped to
    /// `1..=`[`openarc_runtime::MAX_DEVICES`]). Launch sites that share a
    /// level of the launch dependency DAG are spread round-robin over the
    /// devices. Each launch retires before the next one issues, so
    /// the device count moves where work lands, never what verification
    /// observes. `1` (the default) keeps everything on the primary device.
    pub devices: usize,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            targets: None,
            complement: false,
            rel_tol: 1e-6,
            abs_tol: 1e-9,
            min_value_to_check: 0.0,
            queue: 1,
            devices: 1,
        }
    }
}

/// Identity of one transfer site for interactive edits: the report site
/// label, the variable, and the direction.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TransferKey {
    /// Report site label (e.g. `update0`, `data_enter0`, `main_kernel2`).
    pub site: String,
    /// Variable name.
    pub var: String,
    /// True for host→device.
    pub to_device: bool,
}

/// Programmer edits applied on top of the translated transfer plan — the
/// concrete form of "modify data clauses in the input program according to
/// the suggestions" (§IV-C).
#[derive(Debug, Clone, Default)]
pub struct TransferOverlay {
    /// Transfers removed entirely (e.g. `copy` → `create`).
    pub disable: std::collections::BTreeSet<TransferKey>,
    /// Transfers moved after their enclosing loop (the Listing 4 deferral:
    /// "the memory transfer can be deferred until the k-loop finishes").
    pub defer: std::collections::BTreeSet<TransferKey>,
}

impl TransferOverlay {
    /// Number of edits applied.
    pub fn len(&self) -> usize {
        self.disable.len() + self.defer.len()
    }

    /// True when no edits are applied.
    pub fn is_empty(&self) -> bool {
        self.disable.is_empty() && self.defer.is_empty()
    }
}

/// Execution mode.
///
/// `Verify` carries the full option block inline: one `ExecMode` exists
/// per pipeline run, so the size skew between variants never multiplies.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Default)]
pub enum ExecMode {
    /// Production run.
    #[default]
    Normal,
    /// Sequential reference run.
    CpuOnly,
    /// Kernel verification run.
    Verify(VerifyOptions),
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Mode.
    pub mode: ExecMode,
    /// Enable the coherence tracker (memory-transfer verification).
    pub check_transfers: bool,
    /// Device race oracle on/off.
    pub race_detect: bool,
    /// Device launch knobs.
    pub launch: LaunchConfig,
    /// Host instruction budget.
    pub step_budget: u64,
    /// Interactive transfer edits.
    pub overlay: TransferOverlay,
    /// Event journal threaded through the machine; disabled by default.
    pub journal: Journal,
    /// Wall-clock stage-span journal for the verified-launch pipeline
    /// phases (`verify:staging` / `verify:overlap` / `verify:compare`,
    /// emitted as [`openarc_trace::EventKind::Stage`]). Like the
    /// `Session` stage stream it measures *real* elapsed time, so it is
    /// kept out of the deterministic run journal above and out of the
    /// plan fingerprint; disabled by default.
    pub stage_journal: Journal,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            mode: ExecMode::Normal,
            check_transfers: false,
            race_detect: true,
            launch: LaunchConfig::default(),
            step_budget: 5_000_000_000,
            overlay: TransferOverlay::default(),
            journal: Journal::disabled(),
            stage_journal: Journal::disabled(),
        }
    }
}

impl ExecOptions {
    /// These options with every field the mode never reads set to one
    /// canonical value (its default; `race_detect` off). A plan key
    /// hashes the view, so two option sets one run cannot tell apart
    /// share a cache entry; the executor itself reads the raw options.
    ///
    /// * `CpuOnly` launches nothing on a device and moves no data: it
    ///   reads neither `check_transfers`, `race_detect`, `launch` nor the
    ///   overlay.
    /// * `Verify` moves data only through its own staging, never through
    ///   a transfer site: it reads no overlay.
    /// * `Normal` reads every field.
    ///
    /// `tests/plan_keys.rs` checks both directions: a cleared field never
    /// changes a run, and every kept one changes some run.
    pub fn key_view(&self) -> ExecOptions {
        let mut view = self.clone();
        match self.mode {
            ExecMode::CpuOnly => {
                view.check_transfers = false;
                view.race_detect = false;
                view.launch = LaunchConfig::default();
                view.overlay = TransferOverlay::default();
            }
            ExecMode::Verify(_) => view.overlay = TransferOverlay::default(),
            ExecMode::Normal => {}
        }
        view
    }
}

/// Verification verdict for one kernel.
#[derive(Debug, Clone, Default)]
pub struct KernelVerification {
    /// Kernel name.
    pub kernel: String,
    /// Times the kernel was verified.
    pub launches: u64,
    /// Launches whose outputs diverged beyond the margin.
    pub failed_launches: u64,
    /// Elements compared in total.
    pub compared_elems: u64,
    /// Elements that diverged.
    pub mismatched_elems: u64,
    /// Largest absolute divergence seen.
    pub max_abs_err: f64,
    /// Assertion failures (§III-C).
    pub assertion_failures: u64,
}

impl KernelVerification {
    /// Did verification flag this kernel?
    pub fn flagged(&self) -> bool {
        self.failed_launches > 0 || self.assertion_failures > 0
    }
}

/// Result of one execution.
#[derive(Debug)]
pub struct RunResult {
    /// The machine after the run (clock, stats, coherence report, memory).
    pub machine: Machine,
    /// Per-kernel verification outcomes (verify mode).
    pub verify: Vec<KernelVerification>,
    /// Races observed by the device oracle, per kernel name.
    pub races: Vec<(String, RaceReport)>,
    /// Total kernel launches.
    pub kernel_launches: u64,
    /// Instructions `main`'s thread executed. The `__seq_*` runs (a kernel
    /// that falls back to the host, a verified launch's reference) are not
    /// counted here, though the clock charges them to `CpuTime` like
    /// `main`'s; nor is `__globals_init`, which the clock does not charge.
    /// In a `CpuOnly` run, the `CpuTime` charge times `cpu_instr_per_us`
    /// counts every interpreted host instruction but `__globals_init`'s;
    /// this is `main`'s share of it.
    pub host_instrs: u64,
}

impl RunResult {
    /// Simulated wall-clock time, µs.
    pub fn sim_time_us(&self) -> f64 {
        self.machine.clock.now()
    }

    /// Read a named global scalar from the final host state.
    pub fn global_scalar(&self, tr: &Translated, name: &str) -> Option<Value> {
        let slot = tr.host_module.global_slot(name)?;
        self.machine.host.globals.get(slot as usize).copied()
    }

    /// Snapshot a named global aggregate as f64s from the final host state.
    pub fn global_array(&self, tr: &Translated, name: &str) -> Option<Vec<f64>> {
        let slot = tr.host_module.global_slot(name)?;
        match self.machine.host.globals.get(slot as usize)? {
            Value::Ptr(h) if !h.is_null() => {
                let buf = self.machine.host.mem.get(*h).ok()?;
                Some(
                    (0..buf.len())
                        .map(|i| buf.get(i as u64).unwrap().as_f64())
                        .collect(),
                )
            }
            _ => None,
        }
    }

    /// The `CpuOnly` run of the same translation, read off this Verify
    /// run, built the way `cache::bin::decode_run` builds a loaded run.
    ///
    /// In Verify mode the host executes the instructions of `CpuOnly`
    /// mode: data, update, wait and check ops are no-ops in both; every
    /// verified launch runs the same `__seq_*` call on the same arguments
    /// and keeps its results, and every other launch runs the sequential
    /// fallback. The only `CpuTime` charges are those instruction charges,
    /// in the same order, so this run's `CpuTime` total is the `CpuOnly`
    /// clock to the bit. The projection keeps the host state, the final
    /// loop context and both counts; it has no device work, no verdicts
    /// (one default record per kernel), no races and no events.
    pub fn host_projection(&self) -> RunResult {
        let cpu = self.machine.clock.breakdown.get(Category::CpuTime);
        let mut breakdown = TimeBreakdown::default();
        breakdown.add(Category::CpuTime, cpu);
        let mut machine = Machine::new(self.machine.host.clone(), false);
        machine.clock = SimClock::restore(cpu, breakdown, Vec::new());
        machine.loop_context = self.machine.loop_context.clone();
        RunResult {
            machine,
            verify: self
                .verify
                .iter()
                .map(|k| KernelVerification {
                    kernel: k.kernel.clone(),
                    ..Default::default()
                })
                .collect(),
            races: Vec::new(),
            kernel_launches: self.kernel_launches,
            host_instrs: self.host_instrs,
        }
    }
}

/// Execute a translated program. Device launches repeated within the run
/// are served from a launch memo local to it.
pub fn execute(tr: &Translated, opts: &ExecOptions) -> Result<RunResult, VmError> {
    execute_in(tr, opts, &LaunchMemo::default())
}

/// [`execute`] with every device launch going through `memo`, which may
/// hold launches of earlier runs.
pub(crate) fn execute_in(
    tr: &Translated,
    opts: &ExecOptions,
    memo: &LaunchMemo,
) -> Result<RunResult, VmError> {
    let host = BasicEnv::for_module(&tr.host_module);
    // The device dimension exists only in verify mode — the sequential
    // and Normal paths always simulate exactly one device.
    let n_devices = match &opts.mode {
        ExecMode::Verify(v) => v.devices.clamp(1, openarc_runtime::MAX_DEVICES),
        _ => 1,
    };
    let device_plan = if n_devices > 1 {
        dag::DepDag::build(&tr.kernels).device_plan(n_devices)
    } else {
        vec![DeviceId::PRIMARY; tr.kernels.len()]
    };
    let mut machine = Machine::with_devices(host, opts.check_transfers, n_devices);
    machine.devices.set_race_detect(opts.race_detect);
    machine.set_journal(opts.journal.clone());
    let mut env = ExecEnv {
        tr,
        opts,
        machine,
        verify: tr
            .kernels
            .iter()
            .map(|k| KernelVerification {
                kernel: k.name.clone(),
                ..Default::default()
            })
            .collect(),
        races: Vec::new(),
        pending_cpu: 0,
        device_cells: HashMap::new(),
        host_cells: HashMap::new(),
        kernel_launches: 0,
        deferred: Vec::new(),
        region_active: HashMap::new(),
        device_plan,
        t0: std::time::Instant::now(),
        memo,
        module_fp: None,
    };

    ThreadState::new(&tr.host_module, GLOBALS_INIT, &[])?.run_to_end(
        &tr.host_module,
        &mut env,
        u64::MAX,
    )?;
    // `declare` clauses: program-lifetime device residency.
    if !matches!(opts.mode, ExecMode::CpuOnly | ExecMode::Verify(_)) {
        for a in &tr.declares {
            if a.map {
                let h = env.resolve(&a.var)?;
                env.machine
                    .map_to_device_on_queue(DeviceId::PRIMARY, h, None)?;
                if a.copyin {
                    env.do_copy(&a.var, "declare", true, None)?;
                }
            }
        }
    }
    // Run `main` from one runtime op to the next: each slice executes the
    // op the last one stopped in front of, then runs up to the next. The
    // op flushes what the clock is owed (`pending_cpu`) before it runs, so
    // its own instruction is owed with the rest of its slice.
    let mut t = ThreadState::new(&tr.host_module, "main", &[])?;
    let slice = |t: &mut ThreadState, env: &mut ExecEnv, stop: Stop| {
        let before = t.steps;
        // One instruction past the budget is the error: never run further.
        let fuel = opts.step_budget.saturating_add(1) - before;
        let why = t.run(&tr.host_module, env, fuel, stop)?;
        env.pending_cpu += t.steps - before;
        if t.steps > opts.step_budget {
            return Err(VmError::StepLimit(opts.step_budget));
        }
        Ok(why)
    };
    while slice(&mut t, &mut env, Stop::HostOp)? == Yield::Stopped {}
    let steps = t.steps;
    env.flush_cpu();
    if !matches!(opts.mode, ExecMode::CpuOnly | ExecMode::Verify(_)) {
        for a in &tr.declares {
            if a.map {
                if a.copyout {
                    env.do_copy(&a.var, "declare", false, None)?;
                }
                let h = env.resolve(&a.var)?;
                env.machine.unmap_from_device_on(DeviceId::PRIMARY, h)?;
            }
        }
    }
    env.machine.clock.wait_all();
    // Publish the run's buffered events in one batch — the only journal
    // lock acquisition of the whole run.
    env.machine.flush_journal();
    Ok(RunResult {
        machine: env.machine,
        verify: env.verify,
        races: env.races,
        kernel_launches: env.kernel_launches,
        host_instrs: steps,
    })
}
