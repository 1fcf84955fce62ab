//! The execution environment: host bytecode runs against this, and every
//! lowered runtime op ([`RtOp`]) dispatches here.

use super::{ExecMode, ExecOptions, KernelVerification, TransferKey};
use crate::ir::RtOp;
use crate::translate::Translated;
use openarc_gpusim::{DeviceId, LaunchMemo, ModuleFp, RaceReport};
use openarc_minic::ScalarTy;
use openarc_runtime::Machine;
use openarc_trace::Category;
use openarc_vm::{Env, Handle, ThreadState, Value, VmError};
use std::collections::HashMap;

/// A deferred transfer: (var, site, to_device, async queue).
pub(super) type DeferredCopy = (String, String, bool, Option<i64>);

pub(super) struct ExecEnv<'a> {
    pub(super) tr: &'a Translated,
    pub(super) opts: &'a ExecOptions,
    pub(super) machine: Machine,
    pub(super) verify: Vec<KernelVerification>,
    pub(super) races: Vec<(String, RaceReport)>,
    pub(super) pending_cpu: u64,
    /// Persistent device cells for falsely-shared scalars (like CUDA
    /// `__device__` temporaries).
    pub(super) device_cells: HashMap<String, Handle>,
    /// Host-side cells for sequential fallbacks.
    pub(super) host_cells: HashMap<String, Handle>,
    pub(super) kernel_launches: u64,
    /// Pending deferred transfers per active loop (innermost last).
    pub(super) deferred: Vec<Vec<DeferredCopy>>,
    /// Data regions currently active (if-clause decisions at enter time).
    pub(super) region_active: HashMap<usize, bool>,
    /// Device of each launch site (verify mode with more than one device:
    /// [`super::dag::DepDag::device_plan`]; all-primary otherwise).
    pub(super) device_plan: Vec<DeviceId>,
    /// Wall-clock origin of the run; verified-launch stage spans are
    /// journaled relative to this instant.
    pub(super) t0: std::time::Instant,
    /// Every device launch of the run goes through this memo.
    pub(super) memo: &'a LaunchMemo,
    /// Fingerprint of `tr.kernel_module`, taken at the run's first device
    /// launch.
    pub(super) module_fp: Option<ModuleFp>,
}

impl ExecEnv<'_> {
    pub(super) fn flush_cpu(&mut self) {
        if self.pending_cpu > 0 {
            self.machine.charge_cpu(self.pending_cpu);
            self.pending_cpu = 0;
        }
    }

    /// Host buffer handle of a global aggregate.
    pub(super) fn resolve(&mut self, var: &str) -> Result<Handle, VmError> {
        let slot = self
            .tr
            .host_module
            .global_slot(var)
            .ok_or_else(|| VmError::Internal(format!("unknown global `{var}`")))?;
        match self.machine.host.globals[slot as usize] {
            Value::Ptr(h) if !h.is_null() => Ok(h),
            Value::Ptr(h) => Err(VmError::BadHandle(h)),
            other => Err(VmError::TypeError(format!(
                "`{var}` is not a buffer: {other}"
            ))),
        }
    }

    pub(super) fn scalar_value(&self, var: &str) -> Result<Value, VmError> {
        let slot = self
            .tr
            .host_module
            .global_slot(var)
            .ok_or_else(|| VmError::Internal(format!("unknown global `{var}`")))?;
        Ok(self.machine.host.globals[slot as usize])
    }

    pub(super) fn store_scalar(&mut self, var: &str, v: Value) -> Result<(), VmError> {
        let slot = self
            .tr
            .host_module
            .global_slot(var)
            .ok_or_else(|| VmError::Internal(format!("unknown global `{var}`")))?;
        self.machine.host.globals[slot as usize] = v;
        Ok(())
    }

    pub(super) fn scalar_elem_of(&self, var: &str) -> ScalarTy {
        self.tr
            .host_module
            .global_slot(var)
            .and_then(|s| self.tr.host_module.globals.get(s as usize))
            .and_then(|g| g.ty.elem())
            .unwrap_or(ScalarTy::Double)
    }

    /// Perform (or skip/defer, per the interactive overlay) one transfer.
    pub(super) fn do_copy(
        &mut self,
        var: &str,
        site: &str,
        to_device: bool,
        queue: Option<i64>,
    ) -> Result<(), VmError> {
        // The overlay lookup needs an owned key; skip building it on the
        // (overwhelmingly common) runs with no interactive edits.
        if !self.opts.overlay.is_empty() {
            let key = TransferKey {
                site: site.to_string(),
                var: var.to_string(),
                to_device,
            };
            if self.opts.overlay.disable.contains(&key) {
                return Ok(());
            }
            if self.opts.overlay.defer.contains(&key) {
                if let Some(frame) = self.deferred.last_mut() {
                    // Replace any earlier pending copy of the same
                    // var/direction (only the final value matters).
                    frame.retain(|(v, _, d, _)| !(v == var && *d == to_device));
                    frame.push((
                        var.to_string(),
                        format!("{site}_deferred"),
                        to_device,
                        queue,
                    ));
                    return Ok(());
                }
                // No enclosing loop: execute in place.
            }
        }
        let h = self.resolve(var)?;
        let dev = DeviceId::PRIMARY;
        // An `update` of data with no live mapping is a *user* error per
        // OpenACC, not a runtime invariant break — the region paths
        // (`data_enter`/`data_exit` sites) keep the internal-error
        // classification because their entry action always maps first.
        if site.starts_with("update") && !self.machine.present_on(dev).contains(h) {
            return Err(VmError::NotPresent {
                var: var.to_string(),
                to_device,
            });
        }
        self.machine
            .copy_named_on(dev, h, to_device, site, queue, Some(var))
    }

    pub(super) fn flush_deferred(&mut self) -> Result<(), VmError> {
        if let Some(frame) = self.deferred.pop() {
            for (var, site, to_device, queue) in frame {
                let h = self.resolve(&var)?;
                let dev = DeviceId::PRIMARY;
                self.machine
                    .copy_named_on(dev, h, to_device, &site, queue, Some(&var))?;
            }
        }
        Ok(())
    }

    fn dispatch(&mut self, id: u16) -> Result<(), VmError> {
        self.flush_cpu();
        // `tr` and `opts` are shared references that outlive `self`, so
        // copying them out lets the op (and the verify config below) be
        // borrowed for the whole dispatch with `self` still mutable — no
        // per-op `RtOp` clone on the interpreter hot path.
        let tr = self.tr;
        let opts = self.opts;
        let op = tr
            .ops
            .get(id as usize)
            .ok_or_else(|| VmError::Internal(format!("bad host op id {id}")))?;
        let verify_mode = matches!(opts.mode, ExecMode::Verify(_));
        let cpu_only = matches!(opts.mode, ExecMode::CpuOnly);
        match op {
            RtOp::LoopEnter { label } => {
                self.machine.loop_context.push((label.clone(), 0));
                self.deferred.push(Vec::new());
            }
            RtOp::LoopTick => {
                if let Some(last) = self.machine.loop_context.last_mut() {
                    last.1 += 1;
                }
            }
            RtOp::LoopExit => {
                self.machine.loop_context.pop();
                if !verify_mode && !cpu_only {
                    self.flush_deferred()?;
                } else {
                    self.deferred.pop();
                }
            }
            RtOp::Wait(q) => {
                if !verify_mode && !cpu_only {
                    match q {
                        Some(q) => self.machine.clock.wait_on(DeviceId::PRIMARY, *q),
                        None => self.machine.clock.wait_all(),
                    }
                }
            }
            RtOp::DataEnter(r) => {
                let r = *r;
                if verify_mode || cpu_only {
                    return Ok(());
                }
                let active = self.region_condition(r)?;
                self.region_active.insert(r, active);
                if !active {
                    return Ok(());
                }
                // One site string per region event, shared by every action.
                let site = format!("data_enter{r}");
                for a in &tr.data_regions[r].actions {
                    if a.map {
                        let h = self.resolve(&a.var)?;
                        self.machine
                            .map_to_device_on_queue(DeviceId::PRIMARY, h, None)?;
                        if a.copyin {
                            self.do_copy(&a.var, &site, true, None)?;
                        }
                    }
                }
            }
            RtOp::DataExit(r) => {
                let r = *r;
                if verify_mode || cpu_only {
                    return Ok(());
                }
                // An exit mirrors its matching enter's decision, even if
                // the condition's inputs changed in between.
                if !self.region_active.remove(&r).unwrap_or(true) {
                    return Ok(());
                }
                let site = format!("data_exit{r}");
                for a in &tr.data_regions[r].actions {
                    if a.map {
                        if a.copyout {
                            self.do_copy(&a.var, &site, false, None)?;
                        }
                        let h = self.resolve(&a.var)?;
                        self.machine.unmap_from_device_on(DeviceId::PRIMARY, h)?;
                    }
                }
            }
            RtOp::Update {
                to_host,
                to_device,
                queue,
                site,
                if_global,
            } => {
                if verify_mode || cpu_only {
                    return Ok(());
                }
                if let Some(g) = if_global {
                    if !self.scalar_value(g)?.truthy() {
                        return Ok(());
                    }
                }
                for v in to_host {
                    self.do_copy(v, site, false, *queue)?;
                }
                for v in to_device {
                    self.do_copy(v, site, true, *queue)?;
                }
            }
            RtOp::CheckRead { var, side, site } => {
                if verify_mode || cpu_only {
                    return Ok(());
                }
                let dt = self.machine.cost.check_us;
                self.machine.clock.advance(Category::CpuTime, dt);
                if let Ok(h) = self.resolve(var) {
                    self.machine.check_read_at(h, side.loc(), site);
                }
            }
            RtOp::CheckWrite {
                var,
                side,
                total,
                site,
            } => {
                if verify_mode || cpu_only {
                    return Ok(());
                }
                let dt = self.machine.cost.check_us;
                self.machine.clock.advance(Category::CpuTime, dt);
                if let Ok(h) = self.resolve(var) {
                    self.machine.check_write_at(h, side.loc(), *total, site);
                }
            }
            RtOp::ResetStatus { var, side, st } => {
                if verify_mode || cpu_only {
                    return Ok(());
                }
                let dt = self.machine.cost.check_us;
                self.machine.clock.advance(Category::CpuTime, dt);
                if let Ok(h) = self.resolve(var) {
                    self.machine.reset_status_at(h, side.loc(), *st);
                }
            }
            RtOp::Launch(k) => {
                let k = *k;
                self.kernel_launches += 1;
                // `if(cond)` false → host execution (OpenACC semantics).
                let offload = match &tr.kernels[k].if_global {
                    Some(g) => self.scalar_value(g)?.truthy(),
                    None => true,
                };
                match &opts.mode {
                    ExecMode::Normal if !offload => self.launch_seq(k)?,
                    ExecMode::Normal => self.launch_normal(k)?,
                    ExecMode::CpuOnly => self.launch_seq(k)?,
                    ExecMode::Verify(v) => {
                        let name = &tr.kernels[k].name;
                        let in_set = v.targets.as_ref().map(|t| t.contains(name)).unwrap_or(true);
                        let selected = in_set != v.complement;
                        if selected {
                            self.launch_verified(k, v)?;
                        } else {
                            self.launch_seq(k)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Evaluate a data region's `if(...)` value (true when absent).
    fn region_condition(&self, r: usize) -> Result<bool, VmError> {
        match &self.tr.data_regions[r].if_global {
            Some(g) => Ok(self.scalar_value(g)?.truthy()),
            None => Ok(true),
        }
    }

    /// Launch configuration for kernel `k`: `num_workers`/`vector_length`
    /// clauses override the default lockstep wave width.
    pub(super) fn launch_cfg(&self, k: usize) -> openarc_gpusim::LaunchConfig {
        let mut cfg = self.opts.launch.clone();
        if let Some(w) = self.tr.kernels[k].wave_override {
            cfg.wave = w;
        }
        cfg
    }

    pub(super) fn n_threads(&self, k: usize) -> Result<u64, VmError> {
        let v = self.scalar_value(&self.tr.kernels[k].n_threads_global)?;
        Ok(v.as_i64().max(0) as u64)
    }

    /// Run a host-module function to completion, with `self` as its
    /// environment (the `__seq_*` fallbacks touch only parameters and
    /// globals); returns the number of instructions it executed.
    pub(super) fn run_host_fn(&mut self, name: &str, args: &[Value]) -> Result<u64, VmError> {
        let module = &self.tr.host_module;
        let mut t = ThreadState::new(module, name, args)?;
        t.run_to_end(module, self, u64::MAX)?;
        Ok(t.steps)
    }
}

impl Env for ExecEnv<'_> {
    fn load_global(&mut self, slot: u16) -> Result<Value, VmError> {
        self.machine.host.load_global(slot)
    }

    fn store_global(&mut self, slot: u16, v: Value) -> Result<(), VmError> {
        self.machine.host.store_global(slot, v)
    }

    fn load_elem(&mut self, h: Handle, idx: u64) -> Result<Value, VmError> {
        self.machine.host.load_elem(h, idx)
    }

    fn store_elem(&mut self, h: Handle, idx: u64, v: Value) -> Result<(), VmError> {
        self.machine.host.store_elem(h, idx, v)
    }

    fn malloc(&mut self, elem: ScalarTy, len: u64, label: &str) -> Result<Handle, VmError> {
        self.machine.host.malloc(elem, len, label)
    }

    fn free(&mut self, h: Handle) -> Result<(), VmError> {
        // Freeing a host allocation invalidates any device mapping and its
        // coherence record.
        while let Some(d) = self.machine.present_anywhere(h) {
            self.machine.unmap_from_device_on(d, h)?;
        }
        self.machine.coherence.untrack(h);
        self.machine.host.free(h)
    }

    fn host_op(&mut self, id: u16) -> Result<(), VmError> {
        self.dispatch(id)
    }
}
