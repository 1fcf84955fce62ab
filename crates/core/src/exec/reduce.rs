//! Reduction operator evaluation and partial-buffer folds.

use super::env::ExecEnv;
use openarc_gpusim::{tree_combine, DeviceId};
use openarc_minic::ast::BinOp;
use openarc_openacc::ReductionOp;
use openarc_vm::interp::eval_bin;
use openarc_vm::{Handle, Value, VmError};
use std::cmp::Ordering;

impl ExecEnv<'_> {
    /// Fold the partial buffer on device `dev` the way a GPU reduction
    /// would (tournament tree — different rounding than the host loop);
    /// `None` when there are no partials.
    pub(super) fn fold_device_on(
        &mut self,
        buf: Handle,
        op: ReductionOp,
        n: u64,
        dev: DeviceId,
    ) -> Result<Option<Value>, VmError> {
        let b = self.machine.devices.get(dev).mem.get(buf)?;
        let vals: Vec<Value> = (0..n).map(|i| b.get(i)).collect::<Result<_, _>>()?;
        let f = move |a: Value, b: Value| red_eval(op, a, b);
        tree_combine(&vals, &f)
    }

    /// Fold a host partial buffer left-to-right (the sequential rounding);
    /// `None` when there are no partials.
    pub(super) fn fold_host(
        &mut self,
        buf: Handle,
        op: ReductionOp,
        n: u64,
    ) -> Result<Option<Value>, VmError> {
        let b = self.machine.host.mem.get(buf)?;
        let mut acc: Option<Value> = None;
        for i in 0..n {
            let v = b.get(i)?;
            acc = Some(match acc {
                None => v,
                Some(a) => red_eval(op, a, v)?,
            });
        }
        Ok(acc)
    }
}

/// The reduction variable's value after the region: its value before
/// (`init`) combined with the folded partials, if there were any.
pub(super) fn red_finish(
    op: ReductionOp,
    init: Value,
    folded: Option<Value>,
) -> Result<Value, VmError> {
    folded.map_or(Ok(init), |v| red_eval(op, init, v))
}

/// Apply a reduction operator to two values.
pub fn red_eval(op: ReductionOp, a: Value, b: Value) -> Result<Value, VmError> {
    match op {
        ReductionOp::Add => eval_bin(BinOp::Add, a, b),
        ReductionOp::Mul => eval_bin(BinOp::Mul, a, b),
        ReductionOp::Max | ReductionOp::Min => {
            // Two integers compare exactly; through `f64` they would tie
            // past 2^53.
            let order = match (a, b) {
                (Value::Int(x), Value::Int(y)) => Some(x.cmp(&y)),
                _ => a.as_f64().partial_cmp(&b.as_f64()),
            };
            let keep_a = match op {
                ReductionOp::Max => matches!(order, Some(Ordering::Greater | Ordering::Equal)),
                _ => matches!(order, Some(Ordering::Less | Ordering::Equal)),
            };
            Ok(if keep_a { a } else { b })
        }
        ReductionOp::BitAnd => eval_bin(BinOp::BitAnd, a, b),
        ReductionOp::BitOr => eval_bin(BinOp::BitOr, a, b),
        ReductionOp::BitXor => eval_bin(BinOp::BitXor, a, b),
        ReductionOp::LogAnd => Ok(Value::Int((a.truthy() && b.truthy()) as i64)),
        ReductionOp::LogOr => Ok(Value::Int((a.truthy() || b.truthy()) as i64)),
    }
}
