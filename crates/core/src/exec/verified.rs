//! Verified launch (§III-A): demoted transfers, device run, sequential CPU
//! reference, comparison, CPU results canonical.
//!
//! One straight-line path on the calling thread, in four phases:
//!
//! 1. **Staging** — every aggregate the kernel touches is mapped, then
//!    copied to the device on the verification async queue, and both
//!    sides' arguments are marshalled.
//! 2. **Overlap** — the simulated device launch, then the `__seq_*` CPU
//!    reference. The paper's asynchronous overlap of the two lives on the
//!    *simulated* clock: the kernel is charged to the queue at issue and
//!    the host waits on it when the launch completes (Fig. 3's Async-Wait).
//! 3. **Comparison** — the written aggregates element by element, then
//!    reductions, falsely-shared cells and §III-C assertions.
//! 4. **Completion** — the reference CPU charge, the queue wait, the
//!    comparison charge, the `Verification` event and the staging
//!    unmaps, before the host runs on.
//!
//! Real elapsed time per phase is journaled as wall-clock
//! [`EventKind::Stage`] spans into
//! [`ExecOptions::stage_journal`](super::ExecOptions::stage_journal) when
//! enabled — a separate stream that never enters the deterministic run
//! journal.
//!
//! [`EventKind::Stage`]: openarc_trace::EventKind::Stage

use super::env::ExecEnv;
use super::reduce::red_finish;
use super::VerifyOptions;
use crate::compare;
use crate::knowledge::KernelAssert;
use openarc_trace::{Category, Phase};
use openarc_vm::{Handle, Value, VmError};
use std::time::Instant;

/// Running totals of one verified launch's output comparison. Counts sum
/// and the maximum only moves on strict increase, so the order values are
/// compared in cannot show in the result.
#[derive(Debug, Default)]
struct Comparison {
    /// Values compared.
    compared: u64,
    /// Values that diverged beyond the margin.
    mismatches: u64,
    /// Largest absolute divergence of a mismatch.
    max_err: f64,
}

impl Comparison {
    /// Compare the CPU value `c` with the device value `g` under the one
    /// §III-A tolerance rule, [`compare::within`]: skip a finite `c` below
    /// `min_value_to_check`, and count a mismatch unless `g` is within
    /// `abs_tol + rel_tol·|c|` of it or both values lie inside the
    /// kernel's `bounds` knowledge `(lo, hi)`. A mismatch involving NaN or
    /// infinity counts as an infinite error.
    fn add(&mut self, v: &VerifyOptions, bound: Option<(f64, f64)>, c: f64, g: f64) {
        if c.is_finite() && c.abs() < v.min_value_to_check {
            return;
        }
        self.compared += 1;
        let in_bounds = |(lo, hi): (f64, f64)| (lo..=hi).contains(&c) && (lo..=hi).contains(&g);
        if !compare::within(c, g, v.abs_tol, v.rel_tol) && !bound.is_some_and(in_bounds) {
            self.mismatches += 1;
            let err = if c.is_finite() && g.is_finite() {
                (c - g).abs()
            } else {
                f64::INFINITY
            };
            if err > self.max_err {
                self.max_err = err;
            }
        }
    }
}

impl ExecEnv<'_> {
    /// Emit one wall-clock pipeline-phase span into the stage journal
    /// (no-op when disabled; `started` is `None` exactly then).
    fn note_stage(&self, phase: Phase, started: Option<Instant>) {
        let Some(started) = started else { return };
        self.opts.stage_journal.emit(openarc_trace::TraceEvent {
            ts_us: started.duration_since(self.t0).as_secs_f64() * 1e6,
            dur_us: started.elapsed().as_secs_f64() * 1e6,
            track: openarc_trace::Track::Host,
            kind: openarc_trace::EventKind::Stage {
                stage: phase,
                cached: false,
            },
        });
    }

    /// Verified launch (§III-A): demoted transfers, async GPU + sequential
    /// CPU reference, comparison, CPU results stay canonical.
    pub(super) fn launch_verified(&mut self, k: usize, v: &VerifyOptions) -> Result<(), VmError> {
        let dev = self.device_plan[k];
        // `self.tr` outlives `self`: borrow the kernel record (and its
        // variable names) for the whole launch instead of deep-cloning it.
        let tr = self.tr;
        let info = &tr.kernels[k];
        let n = self.n_threads(k)?;
        let q = v.queue;
        let timed = self.opts.stage_journal.is_enabled();
        let t_staging = timed.then(Instant::now);

        // ---------------------------------------------- stage 1: staging
        // Demotion: copy in *everything* the kernel touches.
        let mut touched: Vec<&str> = info.gpu_reads.iter().map(String::as_str).collect();
        for w in &info.gpu_writes {
            if !touched.contains(&w.as_str()) {
                touched.push(w);
            }
        }
        // One site string for every staging transfer of this launch.
        let verify_site = format!("{}_verify", info.name);
        // Map every touched aggregate first (allocation charges land here,
        // in variable order). Allocations are stream-ordered on the
        // launch's queue, like the staging transfers and the kernel itself.
        let mut staged: Vec<(&str, Handle, Handle)> = Vec::with_capacity(touched.len());
        for var in touched {
            let h = self.resolve(var)?;
            let (dev_h, _) = self.machine.map_to_device_on_queue(dev, h, Some(q))?;
            staged.push((var, h, dev_h));
        }
        // The copies are charged on the verification async queue: they
        // serialize with the kernel on queue `q` and overlap the host
        // reference, so their cost folds into Async-Wait (like the kernel
        // itself) instead of blocking host time as Mem Transfer.
        for &(_, host_h, _) in &staged {
            self.machine
                .copy_named_on(dev, host_h, true, &verify_site, Some(q), None)?;
        }
        let (args, dreds, dtemps, dcells) = self.build_args(k, n, true, dev)?;
        let (mut hargs, hreds, htemps, hcells) = self.build_args(k, n, false, dev)?;
        hargs.insert(0, Value::Int(n as i64));
        self.note_stage(Phase::VerifyStaging, t_staging);

        // ---------------------------------------------- stage 2: overlap
        let t_overlap = timed.then(Instant::now);
        let outcome = self.launch_kernel(k, dev, &args, n)?;
        let steps = self.run_host_fn(&info.seq_name, &hargs)?;
        for r in &outcome.races {
            self.races.push((info.name.clone(), r.clone()));
        }
        self.machine
            .charge_kernel_named_on(&info.name, &outcome, dev, Some(q));
        self.note_stage(Phase::VerifyOverlap, t_overlap);

        // ------------------------------------------- stage 3: comparison
        let t_compare = timed.then(Instant::now);
        // Compare written aggregates element-wise, through the handle
        // pairs staging collected (every written aggregate was staged).
        let mut cmp = Comparison::default();
        let written = |name: &str| info.gpu_writes.iter().any(|w| w == name);
        for &(var, host_h, dev_h) in staged.iter().filter(|(name, ..)| written(name)) {
            let hbuf = self.machine.host.mem.get(host_h)?;
            let dbuf = self.machine.devices.get(dev).mem.get(dev_h)?;
            let bound = info
                .knowledge
                .bounds
                .iter()
                .find(|b| b.var == var)
                .map(|b| (b.lo, b.hi));
            for i in 0..hbuf.len() as u64 {
                cmp.add(v, bound, hbuf.get(i)?.as_f64(), dbuf.get(i)?.as_f64());
            }
        }
        // Reductions: compare scalar results; CPU value stays canonical.
        for ((var, op, dbuf), (_, _, hbuf)) in dreds.iter().zip(&hreds) {
            let gpu_val = self.fold_device_on(*dbuf, *op, n, dev)?;
            let cpu_val = self.fold_host(*hbuf, *op, n)?;
            let init = self.scalar_value(var)?;
            let cpu_final = red_finish(*op, init, cpu_val)?;
            let gpu_final = red_finish(*op, init, gpu_val)?;
            cmp.add(v, None, cpu_final.as_f64(), gpu_final.as_f64());
            let elem = self.scalar_elem_of(var);
            self.store_scalar(var, cpu_final.cast(elem))?;
        }
        // Falsely-shared global scalars: compare the device cell against
        // the sequential cell; the CPU value stays canonical, written back
        // as the sequential fallback writes it, so an integer keeps every bit.
        for ((_, dh), (_, hh)) in dcells.iter().zip(&hcells) {
            let g = self.machine.devices.get(dev).mem.load(*dh, 0)?.as_f64();
            let c = self.machine.host.mem.load(*hh, 0)?.as_f64();
            cmp.add(v, None, c, g);
        }
        self.writeback_cells(&hcells, false, dev)?;
        // §III-C assertions on the device results: the `openarc verify
        // assert_*` pragmas attached to the kernel.
        let mut assertion_failures = 0u64;
        for ka in &info.knowledge.asserts {
            if let Ok(host_h) = self.resolve(ka.var()) {
                if let Ok(dev_h) = self.machine.device_of_on(dev, host_h) {
                    let dbuf = self.machine.devices.get(dev).mem.get(dev_h)?;
                    let ok = match ka {
                        KernelAssert::ChecksumWithin { expected, tol, .. } => {
                            let sum: f64 = (0..dbuf.len() as u64)
                                .map(|i| dbuf.get(i).unwrap().as_f64())
                                .sum();
                            (sum - expected).abs() <= *tol
                        }
                        KernelAssert::AllFinite { .. } => (0..dbuf.len() as u64)
                            .all(|i| dbuf.get(i).unwrap().as_f64().is_finite()),
                        KernelAssert::NonNegative { .. } => {
                            (0..dbuf.len() as u64).all(|i| dbuf.get(i).unwrap().as_f64() >= 0.0)
                        }
                    };
                    if !ok {
                        assertion_failures += 1;
                    }
                }
            }
        }
        self.note_stage(Phase::VerifyCompare, t_compare);

        for t in dtemps {
            self.machine.devices.get_mut(dev).mem.free(t)?;
        }
        for t in htemps {
            self.machine.host.mem.free(t)?;
        }

        // --------------------------------------------------- completion
        // The reference CPU charge, then the host waits on the kernel's
        // queue (Fig. 3's Async-Wait), then the comparison charge (~2
        // interpreted instrs per element), the verdict and the unmaps.
        self.machine.charge_cpu(steps);
        self.machine.clock.wait_on(dev, q);
        let dt = self.machine.cost.cpu_time(cmp.compared * 2);
        self.machine.clock.advance(Category::ResultComp, dt);
        let rec = &mut self.verify[k];
        rec.launches += 1;
        rec.compared_elems += cmp.compared;
        rec.mismatched_elems += cmp.mismatches;
        rec.max_abs_err = rec.max_abs_err.max(cmp.max_err);
        rec.assertion_failures += assertion_failures;
        if cmp.mismatches > 0 {
            rec.failed_launches += 1;
        }
        if self.machine.journal().is_enabled() {
            self.machine.clock.journal.emit(openarc_trace::TraceEvent {
                ts_us: self.machine.clock.now(),
                dur_us: 0.0,
                track: openarc_trace::Track::Host,
                kind: openarc_trace::EventKind::Verification {
                    kernel: info.name.clone(),
                    passed: cmp.mismatches == 0 && assertion_failures == 0,
                    compared_elems: cmp.compared,
                    mismatched_elems: cmp.mismatches,
                    max_abs_err: cmp.max_err,
                },
            });
        }
        for &(_, host_h, _) in &staged {
            self.machine.unmap_from_device_on(dev, host_h)?;
        }
        Ok(())
    }
}
