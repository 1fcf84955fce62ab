//! Reduction operator evaluation and partial-buffer folds.

use super::env::ExecEnv;
use openarc_gpusim::{tree_combine, DeviceId};
use openarc_minic::ast::BinOp;
use openarc_openacc::ReductionOp;
use openarc_vm::interp::eval_bin;
use openarc_vm::{Handle, Value, VmError};

impl ExecEnv<'_> {
    /// Fold the partial buffer on device `dev` the way a GPU reduction
    /// would (tournament tree — different rounding than the host loop).
    pub(super) fn fold_device_on(
        &mut self,
        buf: Handle,
        op: ReductionOp,
        n: u64,
        dev: DeviceId,
    ) -> Result<Value, VmError> {
        let b = self.machine.devices.get(dev).mem.get(buf)?;
        let vals: Vec<Value> = (0..n).map(|i| b.get(i)).collect::<Result<_, _>>()?;
        let f = move |a: Value, b: Value| red_eval(op, a, b);
        match tree_combine(&vals, &f)? {
            Some(v) => Ok(v),
            None => Ok(identity_value(op)),
        }
    }

    /// Fold a host partial buffer left-to-right (the sequential rounding).
    pub(super) fn fold_host(
        &mut self,
        buf: Handle,
        op: ReductionOp,
        n: u64,
    ) -> Result<Value, VmError> {
        let b = self.machine.host.mem.get(buf)?;
        let mut acc: Option<Value> = None;
        for i in 0..n {
            let v = b.get(i)?;
            acc = Some(match acc {
                None => v,
                Some(a) => red_eval(op, a, v)?,
            });
        }
        Ok(acc.unwrap_or_else(|| identity_value(op)))
    }
}

/// Identity element as a [`Value`].
pub(super) fn identity_value(op: ReductionOp) -> Value {
    Value::F64(op.identity())
}

/// Apply a reduction operator to two values.
pub fn red_eval(op: ReductionOp, a: Value, b: Value) -> Result<Value, VmError> {
    match op {
        ReductionOp::Add => eval_bin(BinOp::Add, a, b),
        ReductionOp::Mul => eval_bin(BinOp::Mul, a, b),
        ReductionOp::Max => {
            if a.as_f64() >= b.as_f64() {
                Ok(a)
            } else {
                Ok(b)
            }
        }
        ReductionOp::Min => {
            if a.as_f64() <= b.as_f64() {
                Ok(a)
            } else {
                Ok(b)
            }
        }
        ReductionOp::BitAnd => eval_bin(BinOp::BitAnd, a, b),
        ReductionOp::BitOr => eval_bin(BinOp::BitOr, a, b),
        ReductionOp::BitXor => eval_bin(BinOp::BitXor, a, b),
        ReductionOp::LogAnd => Ok(Value::Int((a.truthy() && b.truthy()) as i64)),
        ReductionOp::LogOr => Ok(Value::Int((a.truthy() || b.truthy()) as i64)),
    }
}
