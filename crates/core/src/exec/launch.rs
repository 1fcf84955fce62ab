//! Argument marshalling plus the Normal-mode and sequential-fallback
//! kernel launch paths.

use super::env::ExecEnv;
use super::reduce::red_finish;
use crate::ir::KernelParam;
use openarc_gpusim::{DeviceId, KernelOutcome, ModuleFp};
use openarc_minic::ScalarTy;
use openarc_openacc::ReductionOp;
use openarc_runtime::Loc;
use openarc_trace::Category;
use openarc_vm::{Handle, Value, VmError};
use std::collections::HashMap;

impl ExecEnv<'_> {
    /// Run kernel `k` on device `dev` through the launch memo: the one
    /// device-launch path of both launch sites.
    pub(super) fn launch_kernel(
        &mut self,
        k: usize,
        dev: DeviceId,
        args: &[Value],
        n: u64,
    ) -> Result<KernelOutcome, VmError> {
        let tr = self.tr;
        let fp = *self
            .module_fp
            .get_or_insert_with(|| ModuleFp::of(&tr.kernel_module));
        let cfg = self.launch_cfg(k);
        self.memo.launch(
            self.machine.devices.get_mut(dev),
            &tr.kernel_module,
            fp,
            &tr.kernels[k].name,
            args,
            n,
            &cfg,
        )
    }

    /// Build kernel args. `on_device` selects the buffers of device `dev`
    /// or host buffers; the returned vec lists `(reduction var, op, partial
    /// buffer)` to finalize and the set of handles to free afterwards
    /// (reduction buffers).
    #[allow(clippy::type_complexity)]
    pub(super) fn build_args(
        &mut self,
        k: usize,
        n: u64,
        on_device: bool,
        dev: DeviceId,
    ) -> Result<
        (
            Vec<Value>,
            Vec<(String, ReductionOp, Handle)>,
            Vec<Handle>,
            Vec<(String, Handle)>,
        ),
        VmError,
    > {
        let tr = self.tr;
        let params = &tr.kernels[k].params;
        let mut args = Vec::with_capacity(params.len());
        let mut reds = Vec::new();
        let mut temps = Vec::new();
        let mut cell_writebacks = Vec::new();
        for p in params {
            match p {
                KernelParam::Aggregate { var } => {
                    let host_h = self.resolve(var)?;
                    let h = if on_device {
                        self.machine.device_of_on(dev, host_h)?
                    } else {
                        host_h
                    };
                    args.push(Value::Ptr(h));
                }
                KernelParam::Scalar { var } => args.push(self.scalar_value(var)?),
                KernelParam::SharedCell { var, init_global } => {
                    let elem = init_global
                        .as_deref()
                        .map(|g| self.scalar_elem_of(g))
                        .unwrap_or(ScalarTy::Double);
                    // Cells are per-memory-space: one per device plus the
                    // host side.
                    let key = if on_device {
                        format!("{}::dev{}", var, dev.0)
                    } else {
                        format!("{var}::host")
                    };
                    let cells: &mut HashMap<String, Handle> = if on_device {
                        &mut self.device_cells
                    } else {
                        &mut self.host_cells
                    };
                    let h = match cells.get(&key) {
                        Some(h) => *h,
                        None => {
                            let mem = if on_device {
                                &mut self.machine.devices.get_mut(dev).mem
                            } else {
                                &mut self.machine.host.mem
                            };
                            let h = mem.alloc(elem, 1, format!("__cell_{var}"));
                            if on_device {
                                self.device_cells.insert(key, h);
                            } else {
                                self.host_cells.insert(key, h);
                            }
                            if let Some(g) = init_global {
                                let init = self.scalar_value(g)?;
                                let mem = if on_device {
                                    &mut self.machine.devices.get_mut(dev).mem
                                } else {
                                    &mut self.machine.host.mem
                                };
                                mem.store(h, 0, init)?;
                            }
                            h
                        }
                    };
                    args.push(Value::Ptr(h));
                    // A falsely-shared GLOBAL scalar behaves like a CUDA
                    // __device__ global: its final value flows back to the
                    // host variable after the kernel.
                    if init_global.as_deref() == Some(var.as_str()) {
                        cell_writebacks.push((var.clone(), h));
                    }
                }
                KernelParam::ReductionSlot { var, op } => {
                    let elem = self.scalar_elem_of(var);
                    let mem = if on_device {
                        &mut self.machine.devices.get_mut(dev).mem
                    } else {
                        &mut self.machine.host.mem
                    };
                    let h = mem.alloc(elem, n.max(1) as usize, format!("__red_{var}"));
                    args.push(Value::Ptr(h));
                    reds.push((var.clone(), *op, h));
                    temps.push(h);
                }
            }
        }
        Ok((args, reds, temps, cell_writebacks))
    }

    /// Copy falsely-shared global scalars back to their host variables.
    pub(super) fn writeback_cells(
        &mut self,
        cells: &[(String, Handle)],
        on_device: bool,
        dev: DeviceId,
    ) -> Result<(), VmError> {
        for (var, h) in cells {
            let v = if on_device {
                self.machine.devices.get(dev).mem.load(*h, 0)?
            } else {
                self.machine.host.mem.load(*h, 0)?
            };
            let elem = self.scalar_elem_of(var);
            self.store_scalar(var, v.cast(elem))?;
        }
        Ok(())
    }

    /// Production launch (Normal mode).
    pub(super) fn launch_normal(&mut self, k: usize) -> Result<(), VmError> {
        // `self.tr` outlives `self`, so the kernel record is borrowed for
        // the whole launch instead of deep-cloned per launch.
        let tr = self.tr;
        let info = &tr.kernels[k];
        let n = self.n_threads(k)?;
        let queue = info.queue;
        let dev = DeviceId::PRIMARY;
        // Data-region-at-kernel semantics: map + copyin. OpenACC `copy`
        // semantics are present_or_copy: data already mapped by an
        // enclosing region (possibly under an aliasing name) moves nothing.
        let mut fresh: std::collections::BTreeSet<String> = Default::default();
        // A region-managed variable whose region's if(...) evaluated false
        // falls back to the default per-kernel copy policy.
        let effective = |env: &Self, a: &crate::ir::DataAction| -> (bool, bool) {
            match a.covering_region {
                Some(r) if !env.region_active.get(&r).copied().unwrap_or(false) => {
                    (true, a.written)
                }
                _ => (a.copyin, a.copyout),
            }
        };
        let mut plans: Vec<(&crate::ir::DataAction, bool, bool)> =
            Vec::with_capacity(info.actions.len());
        for a in &info.actions {
            let (ci, co) = effective(self, a);
            plans.push((a, ci, co));
        }
        for (a, copyin, _) in &plans {
            if a.map {
                let h = self.resolve(&a.var)?;
                let (_, newly) = self.machine.map_to_device_on_queue(dev, h, None)?;
                if newly {
                    fresh.insert(a.var.clone());
                }
                if *copyin && newly {
                    self.do_copy(&a.var, &info.name, true, queue)?;
                }
            }
        }
        // GPU-side coherence checks at the kernel boundary.
        for v in &info.gpu_reads {
            if let Ok(h) = self.resolve(v) {
                self.machine.check_read_at(h, Loc::Dev(dev), &info.name);
            }
        }
        for v in &info.gpu_writes {
            if info.hoisted_writes.contains(v) {
                continue;
            }
            if let Ok(h) = self.resolve(v) {
                self.machine
                    .check_write_at(h, Loc::Dev(dev), false, &info.name);
            }
        }
        let (args, reds, temps, cells) = self.build_args(k, n, true, dev)?;
        let outcome = self.launch_kernel(k, dev, &args, n)?;
        for r in &outcome.races {
            self.races.push((info.name.clone(), r.clone()));
        }
        self.machine
            .charge_kernel_named_on(&info.name, &outcome, dev, queue);
        self.writeback_cells(&cells, true, dev)?;
        // Reductions finalize on the CPU (device partials → host scalar).
        for (var, op, buf) in &reds {
            if let Some(q) = queue {
                self.machine.clock.wait_on(dev, q);
            }
            let gpu_val = self.fold_device_on(*buf, *op, n, dev)?;
            let init = self.scalar_value(var)?;
            let final_v = red_finish(*op, init, gpu_val)?;
            let elem = self.scalar_elem_of(var);
            self.store_scalar(var, final_v.cast(elem))?;
            // One scalar-sized transfer for the result.
            let dt = self.machine.cost.transfer_time(elem.size_bytes());
            self.machine.clock.advance(Category::MemTransfer, dt);
        }
        for t in temps {
            self.machine.devices.get_mut(dev).mem.free(t)?;
        }
        // Copyout + unmap (copyout only for mappings this launch created —
        // region-managed data stays resident).
        for (a, _, copyout) in &plans {
            if *copyout && fresh.contains(&a.var) {
                self.do_copy(&a.var, &info.name, false, queue)?;
            }
        }
        for a in &info.actions {
            if a.map {
                let h = self.resolve(&a.var)?;
                if let Some(q) = queue {
                    // Don't free under in-flight async work.
                    self.machine.clock.wait_on(dev, q);
                }
                self.machine.unmap_from_device_on(dev, h)?;
            }
        }
        Ok(())
    }

    /// Sequential fallback execution (CpuOnly mode / unselected kernels in
    /// Verify mode).
    pub(super) fn launch_seq(&mut self, k: usize) -> Result<(), VmError> {
        let info = &self.tr.kernels[k];
        let n = self.n_threads(k)?;
        let (mut args, reds, temps, cells) = self.build_args(k, n, false, DeviceId::PRIMARY)?;
        args.insert(0, Value::Int(n as i64));
        let steps = self.run_host_fn(&info.seq_name, &args)?;
        self.machine.charge_cpu(steps);
        self.writeback_cells(&cells, false, DeviceId::PRIMARY)?;
        for (var, op, buf) in &reds {
            let cpu_val = self.fold_host(*buf, *op, n)?;
            let init = self.scalar_value(var)?;
            let final_v = red_finish(*op, init, cpu_val)?;
            let elem = self.scalar_elem_of(var);
            self.store_scalar(var, final_v.cast(elem))?;
        }
        for t in temps {
            self.machine.host.mem.free(t)?;
        }
        Ok(())
    }
}
