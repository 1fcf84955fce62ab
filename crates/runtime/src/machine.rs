//! The composed simulated machine: host memory + devices + clock + present
//! tables + coherence tracker + report engine.
//!
//! `openarc-core`'s executor drives a [`Machine`] while running translated
//! host bytecode; every directive-lowered runtime operation lands here.
//! The machine simulates `N ≥ 1` devices: each device has its own memory
//! space, race detector and present table. Every runtime operation has one
//! form, which names its target explicitly: a [`DeviceId`] for mappings,
//! transfers and kernel charges, a [`Loc`] for coherence checks. Callers
//! that only ever use one device pass [`DeviceId::PRIMARY`].

use crate::coherence::{Coherence, Loc, ReadDiag};
use crate::present::PresentTable;
use crate::report::{Direction, Issue, IssueKind, Report};
use openarc_gpusim::{CostModel, DeviceId, DeviceSet, KernelOutcome, SimClock};
use openarc_trace::{
    Category, Cause, EventKind, Journal, JournalPart, Side, St, TraceEvent, Track,
};
use openarc_vm::interp::BasicEnv;
use openarc_vm::{Handle, VmError};

/// Largest simulated device count: one per device side of the journal's
/// closed [`Side`] table.
pub const MAX_DEVICES: usize = Side::ALL.len() - 1;

/// Transfer and allocation statistics (Figure 1's "total transferred data
/// size" series).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransferStats {
    /// Bytes moved host→device.
    pub h2d_bytes: u64,
    /// Bytes moved device→host.
    pub d2h_bytes: u64,
    /// Number of host→device transfers.
    pub h2d_count: u64,
    /// Number of device→host transfers.
    pub d2h_count: u64,
    /// Device allocations.
    pub dev_allocs: u64,
    /// Device frees.
    pub dev_frees: u64,
}

impl TransferStats {
    /// Total bytes moved in any direction.
    pub fn total_bytes(&self) -> u64 {
        self.h2d_bytes + self.d2h_bytes
    }

    /// Total number of transfers.
    pub fn total_count(&self) -> u64 {
        self.h2d_count + self.d2h_count
    }
}

openarc_trace::wire_record!(TransferStats {
    h2d_bytes,
    d2h_bytes,
    h2d_count,
    d2h_count,
    dev_allocs,
    dev_frees,
});

/// The whole simulated platform.
#[derive(Debug)]
pub struct Machine {
    /// Host memory and global slots.
    pub host: BasicEnv,
    /// The simulated GPUs.
    pub devices: DeviceSet,
    /// Simulated time.
    pub clock: SimClock,
    /// Machine cost parameters.
    pub cost: CostModel,
    /// Host↔device mapping tables, one per device, indexed by
    /// [`DeviceId`].
    pub presents: Vec<PresentTable>,
    /// Coherence tracker (§III-B).
    pub coherence: Coherence,
    /// Findings of the current profiling run.
    pub report: Report,
    /// Transfer statistics.
    pub stats: TransferStats,
    /// Enclosing-loop context maintained by the executor
    /// (`(label, current index)`, outermost first).
    pub loop_context: Vec<(String, i64)>,
}

impl Default for Machine {
    fn default() -> Machine {
        Machine::new(BasicEnv::default(), false)
    }
}

impl Machine {
    /// Build a single-device machine around a prepared host environment.
    pub fn new(host: BasicEnv, check_transfers: bool) -> Machine {
        Machine::with_devices(host, check_transfers, 1)
    }

    /// Build a machine simulating `n_devices` GPUs (clamped to
    /// `1..=`[`MAX_DEVICES`]).
    pub fn with_devices(host: BasicEnv, check_transfers: bool, n_devices: usize) -> Machine {
        let n = n_devices.clamp(1, MAX_DEVICES);
        Machine {
            host,
            devices: DeviceSet::new(n),
            clock: SimClock::new(),
            cost: CostModel::default(),
            presents: vec![PresentTable::new(); n],
            coherence: Coherence::with_devices(check_transfers, n),
            report: Report::default(),
            stats: TransferStats::default(),
            loop_context: Vec::new(),
        }
    }

    /// Device `d`'s present table.
    pub fn present_on(&self, d: DeviceId) -> &PresentTable {
        &self.presents[d.0 as usize]
    }

    /// The first device `h` is still mapped on, if any (scan in id order).
    pub fn present_anywhere(&self, h: Handle) -> Option<DeviceId> {
        (0..self.presents.len())
            .map(|i| DeviceId(i as u32))
            .find(|d| self.presents[d.0 as usize].contains(h))
    }

    /// Attach an event journal. The machine writes through a buffered
    /// [`JournalPart`] living on the clock, so clock slices and the
    /// machine's semantic events interleave on one timeline without taking
    /// the shared journal's lock per event. Call
    /// [`Machine::flush_journal`] (or drop the machine) to publish.
    pub fn set_journal(&mut self, journal: Journal) {
        self.clock.journal = JournalPart::new(journal);
    }

    /// The shared journal behind the machine's buffered writer (disabled
    /// by default). Flush first if buffered events must be visible.
    pub fn journal(&self) -> &Journal {
        self.clock.journal.shared()
    }

    /// Publish buffered events into the shared journal (one lock
    /// acquisition for the whole batch).
    pub fn flush_journal(&mut self) {
        self.clock.journal.flush();
    }

    /// Emit an instant event at the current host time.
    fn emit(&mut self, kind: EventKind) {
        self.clock.journal.emit(TraceEvent {
            ts_us: self.clock.now(),
            dur_us: 0.0,
            track: Track::Host,
            kind,
        });
    }

    fn var_label(&self, h: Handle) -> String {
        self.host
            .mem
            .get(h)
            .map(|b| b.label.clone())
            .unwrap_or_else(|_| format!("{h}"))
    }

    /// The states of `h`'s copies, host first, then device 0, 1, …: the
    /// order of [`Side::ALL`].
    fn coh_snapshot(&self, h: Handle) -> Option<Vec<St>> {
        self.coherence.state(h).map(|v| {
            std::iter::once(v.cpu)
                .chain(v.gpus().iter().copied())
                .collect()
        })
    }

    /// Journal the coherence transitions between `before` (a
    /// [`Machine::coh_snapshot`] taken before the state change) and now.
    fn emit_coherence_diff(&mut self, h: Handle, before: Option<Vec<St>>, cause: Cause) {
        if !self.clock.journal.is_enabled() {
            return;
        }
        let (Some(before), Some(after)) = (before, self.coh_snapshot(h)) else {
            return;
        };
        let var = self.var_label(h);
        for ((from, to), side) in before.into_iter().zip(after).zip(Side::ALL) {
            if from != to {
                self.emit(EventKind::Coherence {
                    var: var.clone(),
                    side,
                    from,
                    to,
                    cause,
                });
            }
        }
    }

    /// Record a finding in the report and, when tracing, in the journal.
    fn push_issue(&mut self, issue: Issue) {
        if self.clock.journal.is_enabled() {
            self.emit(EventKind::Finding {
                severity: issue.kind.severity(),
                kind: format!("{:?}", issue.kind),
                var: issue.var.clone(),
                site: issue.site.clone(),
                message: issue.to_string(),
            });
        }
        self.report.push(issue);
    }

    /// Ensure `h` is tracked by the coherence machinery (variables of
    /// interest are tracked from their first observed access, so host
    /// initialization writes before the first mapping are not lost).
    fn track_handle(&mut self, h: Handle) {
        if let Ok(b) = self.host.mem.get(h) {
            let label = b.label.clone();
            self.coherence.track(h, label);
        }
    }

    fn issue(&mut self, kind: IssueKind, h: Handle, site: &str, dir: Option<Direction>) {
        let var = self
            .host
            .mem
            .get(h)
            .map(|b| b.label.clone())
            .unwrap_or_else(|_| format!("{h}"));
        self.push_issue(Issue {
            kind,
            var,
            site: site.to_string(),
            direction: dir,
            loop_context: self.loop_context.clone(),
        });
    }

    /// Ensure `host_h` is mapped on device `dev`; allocates when absent.
    /// Returns (device handle, newly_mapped). With `queue`, the allocation
    /// is charged as stream-ordered work on that queue (the
    /// `cudaMallocAsync` model: the device runtime services the
    /// allocation on the stream, the host does not block); `None` charges
    /// it to the host synchronously.
    pub fn map_to_device_on_queue(
        &mut self,
        dev: DeviceId,
        host_h: Handle,
        queue: Option<i64>,
    ) -> Result<(Handle, bool), VmError> {
        let di = dev.0 as usize;
        if let Some(dev_h) = self.presents[di].device_of(host_h) {
            self.presents[di].retain(host_h)?;
            if self.clock.journal.is_enabled() {
                self.emit(EventKind::PresentHit {
                    var: self.var_label(host_h),
                });
            }
            return Ok((dev_h, false));
        }
        let (elem, len, label, bytes) = {
            let b = self.host.mem.get(host_h)?;
            (b.elem, b.len(), b.label.clone(), b.size_bytes())
        };
        if self.clock.journal.is_enabled() {
            self.emit(EventKind::PresentMiss { var: label.clone() });
        }
        let dev_h = self
            .devices
            .get_mut(dev)
            .mem
            .alloc(elem, len, label.clone());
        self.presents[di].insert(host_h, dev_h, label.clone())?;
        self.coherence.track(host_h, label.clone());
        self.stats.dev_allocs += 1;
        match queue {
            Some(q) => {
                let ts = self.clock.enqueue_async_on(dev, q, self.cost.alloc_us);
                if self.clock.journal.is_enabled() {
                    self.clock.journal.emit(TraceEvent {
                        ts_us: ts,
                        dur_us: self.cost.alloc_us,
                        track: Track::Queue { dev: dev.0, id: q },
                        kind: EventKind::DevAlloc { var: label, bytes },
                    });
                }
            }
            None => {
                self.clock
                    .advance(Category::GpuMemAlloc, self.cost.alloc_us);
                if self.clock.journal.is_enabled() {
                    self.emit(EventKind::DevAlloc { var: label, bytes });
                }
            }
        }
        Ok((dev_h, true))
    }

    /// Release one region reference; frees device `dev`'s mirror at zero.
    pub fn unmap_from_device_on(&mut self, dev: DeviceId, host_h: Handle) -> Result<(), VmError> {
        if let Some(dev_h) = self.presents[dev.0 as usize].release(host_h)? {
            self.devices.get_mut(dev).mem.free(dev_h)?;
            self.clock.advance(Category::GpuMemFree, self.cost.free_us);
            self.stats.dev_frees += 1;
            if self.clock.journal.is_enabled() {
                self.emit(EventKind::DevFree {
                    var: self.var_label(host_h),
                });
            }
            // Deallocation makes the device copy stale (paper §III-B).
            let before = self.coh_snapshot(host_h);
            self.coherence
                .reset_status_at(host_h, Loc::Dev(dev), St::Stale);
            self.emit_coherence_diff(host_h, before, Cause::Dealloc);
        }
        Ok(())
    }

    /// Copy host → device `dev` (`to_device`) or device `dev` → host.
    /// `site` names the transfer for reports; `queue` makes it
    /// asynchronous; `name`, when given, is the variable reports use
    /// (aliased pointers share one buffer label; suggestions must name the
    /// variable the directive used).
    pub fn copy_named_on(
        &mut self,
        dev: DeviceId,
        host_h: Handle,
        to_device: bool,
        site: &str,
        queue: Option<i64>,
        name: Option<&str>,
    ) -> Result<(), VmError> {
        let (from, to, dir) = self.copy_untracked(dev, host_h, to_device, site, queue, name)?;
        let before = self.coh_snapshot(host_h);
        let diag = self.coherence.on_transfer_between(host_h, from, to);
        self.emit_coherence_diff(host_h, before, Cause::Transfer);
        self.transfer_issues(diag, host_h, site, dir, name);
        Ok(())
    }

    /// Copy host → device `dev` for the verifier's own staging: copied,
    /// charged and journaled like [`Machine::copy_named_on`], but the
    /// §III-B tracker never sees it. The program made no transfer here, so
    /// there is nothing to report as redundant or incorrect.
    pub fn stage_on(
        &mut self,
        dev: DeviceId,
        host_h: Handle,
        site: &str,
        queue: Option<i64>,
    ) -> Result<(), VmError> {
        self.copy_untracked(dev, host_h, true, site, queue, None)
            .map(|_| ())
    }

    /// The copy, its charge and its journal event; returns where the data
    /// went from and to.
    fn copy_untracked(
        &mut self,
        dev: DeviceId,
        host_h: Handle,
        to_device: bool,
        site: &str,
        queue: Option<i64>,
        name: Option<&str>,
    ) -> Result<(Loc, Loc, Direction), VmError> {
        self.track_handle(host_h);
        let dev_h = self.presents[dev.0 as usize]
            .device_of(host_h)
            .ok_or_else(|| {
                let op = if to_device { "copyin" } else { "copyout" };
                VmError::Internal(format!("{host_h} not present for {op}"))
            })?;
        let (host, device) = (&mut self.host.mem, &mut self.devices.get_mut(dev).mem);
        let (src, dst) = if to_device {
            (host.get(host_h)?, device.get_mut(dev_h)?)
        } else {
            (device.get(dev_h)?, host.get_mut(host_h)?)
        };
        dst.copy_from(src)?;
        let bytes = src.size_bytes();
        let (ts, dt, track) = self.charge_transfer(bytes, dev, queue);
        let (from, to, dir) = if to_device {
            self.stats.h2d_bytes += bytes;
            self.stats.h2d_count += 1;
            (Loc::Cpu, Loc::Dev(dev), Direction::ToDevice)
        } else {
            self.stats.d2h_bytes += bytes;
            self.stats.d2h_count += 1;
            (Loc::Dev(dev), Loc::Cpu, Direction::ToHost)
        };
        self.emit_transfer(host_h, name, site, ts, dt, track, bytes, to_device);
        Ok((from, to, dir))
    }

    /// Charge a transfer to the clock. Returns the span's simulated start
    /// time, duration and track for journaling.
    fn charge_transfer(
        &mut self,
        bytes: u64,
        dev: DeviceId,
        queue: Option<i64>,
    ) -> (f64, f64, Track) {
        let dt = self.cost.transfer_time(bytes);
        match queue {
            Some(q) => (
                self.clock.enqueue_async_on(dev, q, dt),
                dt,
                Track::Queue { dev: dev.0, id: q },
            ),
            None => {
                let ts = self.clock.now();
                self.clock.advance(Category::MemTransfer, dt);
                (ts, dt, Track::Host)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_transfer(
        &mut self,
        host_h: Handle,
        name: Option<&str>,
        site: &str,
        ts: f64,
        dt: f64,
        track: Track,
        bytes: u64,
        to_device: bool,
    ) {
        if !self.clock.journal.is_enabled() {
            return;
        }
        let var = name
            .map(str::to_string)
            .unwrap_or_else(|| self.var_label(host_h));
        self.clock.journal.emit(TraceEvent {
            ts_us: ts,
            dur_us: dt,
            track,
            kind: EventKind::Transfer {
                var,
                site: site.to_string(),
                bytes,
                to_device,
            },
        });
    }

    fn transfer_issues(
        &mut self,
        diag: crate::coherence::XferDiag,
        h: Handle,
        site: &str,
        dir: Direction,
        name: Option<&str>,
    ) {
        let push = |m: &mut Machine, kind: IssueKind| match name {
            Some(n) => {
                let issue = Issue {
                    kind,
                    var: n.to_string(),
                    site: site.to_string(),
                    direction: Some(dir),
                    loop_context: m.loop_context.clone(),
                };
                m.push_issue(issue);
            }
            None => m.issue(kind, h, site, Some(dir)),
        };
        match diag.incorrect {
            Some(true) => push(self, IssueKind::Incorrect),
            Some(false) => push(self, IssueKind::MayIncorrect),
            None => {}
        }
        match diag.redundant {
            Some(true) => push(self, IssueKind::Redundant),
            Some(false) => push(self, IssueKind::MayRedundant),
            None => {}
        }
    }

    /// `check_read` runtime call for the copy at `loc`.
    pub fn check_read_at(&mut self, h: Handle, loc: Loc, site: &str) {
        self.track_handle(h);
        match self.coherence.check_read_at(h, loc) {
            ReadDiag::Ok => {}
            ReadDiag::Missing => self.issue(IssueKind::Missing, h, site, None),
            ReadDiag::MayMissing => self.issue(IssueKind::MayMissing, h, site, None),
        }
    }

    /// Compiler-directed coherence override (`resetstatus` runtime call),
    /// journaled as a [`Cause::Reset`] transition like every other state change —
    /// a silent override would break the journal's per-(var, side)
    /// transition chain, which the fuzzer's reference-model replay checks.
    pub fn reset_status_at(&mut self, h: Handle, loc: Loc, st: St) {
        self.track_handle(h);
        let before = self.coh_snapshot(h);
        self.coherence.reset_status_at(h, loc, st);
        self.emit_coherence_diff(h, before, Cause::Reset);
    }

    /// `check_write` runtime call for the copy at `loc` (also applies the
    /// write's state change).
    pub fn check_write_at(&mut self, h: Handle, loc: Loc, total: bool, site: &str) {
        self.track_handle(h);
        let before = self.coh_snapshot(h);
        let diag = self.coherence.on_write_at(h, loc, total);
        self.emit_coherence_diff(h, before, Cause::Write);
        match diag {
            ReadDiag::Ok => {}
            ReadDiag::Missing => self.issue(IssueKind::Missing, h, site, None),
            ReadDiag::MayMissing => self.issue(IssueKind::MayMissing, h, site, None),
        }
    }

    /// Charge a kernel execution on device `dev` to the clock (to its
    /// `queue` when given), journaling the launch and execution span under
    /// the kernel's name.
    pub fn charge_kernel_named_on(
        &mut self,
        name: &str,
        outcome: &KernelOutcome,
        dev: DeviceId,
        queue: Option<i64>,
    ) {
        let dt = self
            .cost
            .kernel_time(outcome.total_instrs, outcome.max_thread_instrs);
        if self.clock.journal.is_enabled() {
            self.emit(EventKind::KernelLaunch {
                kernel: name.to_string(),
                n_threads: outcome.n_threads,
                queue,
                dev: dev.0,
            });
        }
        let (ts, track) = match queue {
            Some(q) => (
                self.clock.enqueue_async_on(dev, q, dt),
                Track::Queue { dev: dev.0, id: q },
            ),
            None => {
                let ts = self.clock.now();
                self.clock.advance(Category::KernelExec, dt);
                (ts, Track::Host)
            }
        };
        if self.clock.journal.is_enabled() {
            self.clock.journal.emit(TraceEvent {
                ts_us: ts,
                dur_us: dt,
                track,
                kind: EventKind::KernelComplete {
                    kernel: name.to_string(),
                },
            });
        }
    }

    /// Charge host CPU work (interpreted instructions).
    pub fn charge_cpu(&mut self, instrs: u64) {
        let dt = self.cost.cpu_time(instrs);
        self.clock.advance(Category::CpuTime, dt);
    }

    /// Resolve the device handle for a host buffer mapped on `dev`.
    pub fn device_of_on(&self, dev: DeviceId, host_h: Handle) -> Result<Handle, VmError> {
        self.presents[dev.0 as usize]
            .device_of(host_h)
            .ok_or_else(|| VmError::Internal(format!("{host_h} is not present on {dev}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openarc_minic::ScalarTy;
    use openarc_vm::Value;

    const P: DeviceId = DeviceId::PRIMARY;
    const GPU: Loc = Loc::Dev(DeviceId::PRIMARY);

    fn machine_with_buffer(len: usize) -> (Machine, Handle) {
        let mut host = BasicEnv {
            mem: openarc_vm::MemSpace::new(),
            ..Default::default()
        };
        let h = host.mem.alloc(ScalarTy::Double, len, "a");
        (Machine::new(host, true), h)
    }

    fn machine_with_buffer_on(len: usize, n_devices: usize) -> (Machine, Handle) {
        let mut host = BasicEnv {
            mem: openarc_vm::MemSpace::new(),
            ..Default::default()
        };
        let h = host.mem.alloc(ScalarTy::Double, len, "a");
        (Machine::with_devices(host, true, n_devices), h)
    }

    #[test]
    fn map_copy_roundtrip() {
        let (mut m, h) = machine_with_buffer(8);
        for i in 0..8 {
            m.host.mem.store(h, i, Value::F64(i as f64)).unwrap();
        }
        let (dev, new) = m.map_to_device_on_queue(P, h, None).unwrap();
        assert!(new);
        m.copy_named_on(P, h, true, "enter", None, None).unwrap();
        assert_eq!(m.devices.get(P).mem.load(dev, 3).unwrap(), Value::F64(3.0));
        // Mutate on device, copy back.
        m.devices
            .get_mut(P)
            .mem
            .store(dev, 3, Value::F64(99.0))
            .unwrap();
        m.coherence.on_write_at(h, GPU, false);
        m.copy_named_on(P, h, false, "exit", None, None).unwrap();
        assert_eq!(m.host.mem.load(h, 3).unwrap(), Value::F64(99.0));
        assert_eq!(m.stats.h2d_count, 1);
        assert_eq!(m.stats.d2h_count, 1);
        assert_eq!(m.stats.total_bytes(), 2 * 64);
    }

    #[test]
    fn clock_charged_for_alloc_and_transfer() {
        let (mut m, h) = machine_with_buffer(1024);
        m.map_to_device_on_queue(P, h, None).unwrap();
        m.copy_named_on(P, h, true, "enter", None, None).unwrap();
        assert!(m.clock.breakdown.get(Category::GpuMemAlloc) > 0.0);
        assert!(m.clock.breakdown.get(Category::MemTransfer) > 0.0);
    }

    #[test]
    fn nested_mapping_refcounts() {
        let (mut m, h) = machine_with_buffer(4);
        let (_, new1) = m.map_to_device_on_queue(P, h, None).unwrap();
        let (_, new2) = m.map_to_device_on_queue(P, h, None).unwrap();
        assert!(new1);
        assert!(!new2);
        m.unmap_from_device_on(P, h).unwrap();
        assert!(m.present_on(P).contains(h));
        m.unmap_from_device_on(P, h).unwrap();
        assert!(!m.present_on(P).contains(h));
        assert_eq!(m.stats.dev_allocs, 1);
        assert_eq!(m.stats.dev_frees, 1);
    }

    #[test]
    fn redundant_transfer_reported_with_context() {
        let (mut m, h) = machine_with_buffer(4);
        m.map_to_device_on_queue(P, h, None).unwrap();
        m.loop_context.push(("k-loop".into(), 2));
        // Fresh on both sides → the second copyin is redundant.
        m.copy_named_on(P, h, true, "enter0", None, None).unwrap();
        m.copy_named_on(P, h, true, "enter0", None, None).unwrap();
        let msgs: Vec<String> = m.report.issues.iter().map(|i| i.to_string()).collect();
        assert!(
            msgs.iter()
                .any(|s| s.contains("redundant") && s.contains("k-loop index = 2")),
            "{msgs:?}"
        );
    }

    #[test]
    fn missing_transfer_reported_on_stale_read() {
        let (mut m, h) = machine_with_buffer(4);
        m.map_to_device_on_queue(P, h, None).unwrap();
        m.check_write_at(h, GPU, false, "kernel0"); // host goes stale
        m.check_read_at(h, Loc::Cpu, "host_read0");
        assert_eq!(m.report.count(IssueKind::Missing), 1);
    }

    #[test]
    fn async_transfer_charges_queue_not_host() {
        let (mut m, h) = machine_with_buffer(1 << 20);
        m.map_to_device_on_queue(P, h, None).unwrap();
        let before = m.clock.breakdown.get(Category::MemTransfer);
        m.copy_named_on(P, h, true, "enter", Some(1), None).unwrap();
        assert_eq!(m.clock.breakdown.get(Category::MemTransfer), before);
        m.clock.wait_on(P, 1);
        assert!(m.clock.breakdown.get(Category::AsyncWait) > 0.0);
    }

    #[test]
    fn unmap_stales_device_copy() {
        let (mut m, h) = machine_with_buffer(4);
        m.map_to_device_on_queue(P, h, None).unwrap();
        m.unmap_from_device_on(P, h).unwrap();
        // Re-map: coherence remembers the device copy is stale.
        m.map_to_device_on_queue(P, h, None).unwrap();
        assert_eq!(m.coherence.state(h).unwrap().gpu_on(P), St::Stale);
    }

    #[test]
    fn per_device_mappings_are_independent() {
        let d1 = DeviceId(1);
        let (mut m, h) = machine_with_buffer_on(8, 2);
        let (_, new0) = m.map_to_device_on_queue(P, h, None).unwrap();
        let (_, new1) = m.map_to_device_on_queue(d1, h, None).unwrap();
        assert!(new0 && new1, "each device allocates its own mirror");
        assert_eq!(m.stats.dev_allocs, 2);
        assert!(m.present_on(DeviceId::PRIMARY).contains(h));
        assert!(m.present_on(d1).contains(h));
        m.unmap_from_device_on(d1, h).unwrap();
        assert!(m.present_on(DeviceId::PRIMARY).contains(h));
        assert!(!m.present_on(d1).contains(h));
        assert_eq!(m.present_anywhere(h), Some(DeviceId::PRIMARY));
    }

    #[test]
    fn write_on_one_device_stales_all_other_locations() {
        let d1 = DeviceId(1);
        let (mut m, h) = machine_with_buffer_on(4, 2);
        m.map_to_device_on_queue(P, h, None).unwrap();
        m.map_to_device_on_queue(d1, h, None).unwrap();
        m.check_write_at(h, Loc::Dev(d1), false, "k0");
        let v = m.coherence.state(h).unwrap();
        assert_eq!(v.cpu, St::Stale);
        assert_eq!(v.gpu_on(DeviceId::PRIMARY), St::Stale);
        assert_eq!(v.gpu_on(d1), St::NotStale);
        // A read on the primary device now reports a missing transfer.
        m.check_read_at(h, Loc::Dev(DeviceId::PRIMARY), "k1");
        assert_eq!(m.report.count(IssueKind::Missing), 1);
    }

    #[test]
    fn journal_captures_semantic_events() {
        use openarc_trace::EventKind as Ev;
        let (mut m, h) = machine_with_buffer(8);
        m.set_journal(Journal::enabled());
        m.map_to_device_on_queue(P, h, None).unwrap(); // miss + alloc
        m.map_to_device_on_queue(P, h, None).unwrap(); // hit
        m.copy_named_on(P, h, true, "enter0", None, None).unwrap(); // redundant → finding
        m.check_write_at(h, GPU, false, "k0"); // cpu → stale
        m.copy_named_on(P, h, false, "exit0", None, None).unwrap();
        m.unmap_from_device_on(P, h).unwrap();
        m.unmap_from_device_on(P, h).unwrap(); // refcount 0 → free
        m.flush_journal();
        let events = m.journal().snapshot();
        let has = |pred: &dyn Fn(&Ev) -> bool| events.iter().any(|e| pred(&e.kind));
        assert!(has(&|k| matches!(k, Ev::PresentMiss { var } if var == "a")));
        assert!(has(&|k| matches!(k, Ev::PresentHit { var } if var == "a")));
        assert!(has(
            &|k| matches!(k, Ev::DevAlloc { var, bytes } if var == "a" && *bytes == 64)
        ));
        assert!(has(&|k| matches!(k, Ev::DevFree { .. })));
        assert!(has(&|k| matches!(
            k,
            Ev::Transfer {
                to_device: true,
                ..
            }
        )));
        assert!(has(&|k| matches!(
            k,
            Ev::Transfer {
                to_device: false,
                ..
            }
        )));
        assert!(has(&|k| matches!(
            k,
            Ev::Coherence {
                side: Side::Cpu,
                to: St::Stale,
                cause: Cause::Write,
                ..
            }
        )));
        assert!(has(
            &|k| matches!(k, Ev::Finding { kind, .. } if kind == "Redundant")
        ));
        // Slices reconcile with the clock breakdown.
        for (cat, total) in openarc_trace::category_totals(&events) {
            assert_eq!(total, m.clock.breakdown.get(cat), "{cat}");
        }
    }

    #[test]
    fn secondary_device_coherence_events_use_gpu_n_sides() {
        use openarc_trace::EventKind as Ev;
        let d1 = DeviceId(1);
        let (mut m, h) = machine_with_buffer_on(4, 2);
        m.set_journal(Journal::enabled());
        m.map_to_device_on_queue(P, h, None).unwrap();
        m.map_to_device_on_queue(d1, h, None).unwrap();
        m.check_write_at(h, Loc::Dev(DeviceId::PRIMARY), false, "k0");
        m.flush_journal();
        let events = m.journal().snapshot();
        let sides: Vec<Side> = events
            .iter()
            .filter_map(|e| match &e.kind {
                Ev::Coherence {
                    side,
                    to: St::Stale,
                    ..
                } => Some(*side),
                _ => None,
            })
            .collect();
        assert_eq!(sides, vec![Side::Cpu, Side::Gpu1], "{events:?}");
    }

    #[test]
    fn disabled_journal_changes_nothing() {
        let (mut m, h) = machine_with_buffer(8);
        m.map_to_device_on_queue(P, h, None).unwrap();
        m.copy_named_on(P, h, true, "enter0", None, None).unwrap();
        assert!(!m.journal().is_enabled());
        assert!(m.journal().snapshot().is_empty());
        assert_eq!(m.report.issues.len(), 1, "report still works untraced");
    }

    #[test]
    fn kernel_charge_sync_vs_async() {
        let (mut m, _) = machine_with_buffer(1);
        let out = KernelOutcome {
            total_instrs: 1_000_000,
            max_thread_instrs: 1000,
            races: vec![],
            n_threads: 1000,
        };
        m.charge_kernel_named_on("kernel", &out, P, None);
        assert!(m.clock.breakdown.get(Category::KernelExec) > 0.0);
        let before = m.clock.now();
        m.charge_kernel_named_on("kernel", &out, P, Some(2));
        assert_eq!(m.clock.now(), before, "async kernel does not advance host");
    }

    #[test]
    fn async_kernels_on_distinct_devices_overlap() {
        let (mut m, _) = machine_with_buffer_on(1, 2);
        m.set_journal(Journal::enabled());
        let out = KernelOutcome {
            total_instrs: 1_000_000,
            max_thread_instrs: 1000,
            races: vec![],
            n_threads: 1000,
        };
        m.charge_kernel_named_on("ka", &out, DeviceId::PRIMARY, Some(1));
        m.charge_kernel_named_on("kb", &out, DeviceId(1), Some(1));
        m.flush_journal();
        let spans: Vec<(f64, f64, Track)> = m
            .journal()
            .snapshot()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::KernelComplete { .. }))
            .map(|e| (e.ts_us, e.dur_us, e.track))
            .collect();
        assert_eq!(spans.len(), 2);
        // Same start time on independent device queues → overlapping spans.
        assert_eq!(spans[0].0, spans[1].0);
        assert_ne!(spans[0].2, spans[1].2);
    }
}
