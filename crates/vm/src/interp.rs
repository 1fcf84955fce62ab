//! Resumable bytecode interpreter.
//!
//! Execution state lives in a [`ThreadState`] that advances in *slices*:
//! [`ThreadState::run`] executes instructions until the entry function
//! returns, the slice's fuel runs out, or the next instruction is one the
//! caller asked to be handed ([`Stop`]) — and it yields *before* that
//! instruction. A slice never hands back its first instruction, so the
//! caller's next slice performs the handed-back instruction and runs on to
//! the one after it. This resumability is what lets the GPU simulator order
//! every shared access of a wave exactly as one-instruction round-robin
//! would (lockstep), which in turn makes data races from missed
//! privatization manifest deterministically — the behaviour the paper's
//! kernel verification has to detect. See DESIGN.md, "The interpreter
//! loop and the lockstep contract".
//!
//! Memory and globals are accessed through the [`Env`] trait, so the same
//! bytecode runs against host memory, instrumented host memory, or
//! simulated device memory. `run` is generic over the environment: each
//! gets its own monomorphised copy of the one dispatch loop.

use crate::bytecode::{Instr, Module};
use crate::error::VmError;
use crate::fuse::{self, Op};
use crate::mem::MemSpace;
use crate::value::{Handle, Value};
use openarc_minic::ast::{BinOp, UnOp};
use openarc_minic::{Intrinsic, ScalarTy, Ty};

/// Environment a thread executes against: global slots + buffer memory.
pub trait Env {
    /// Read global slot `slot`.
    fn load_global(&mut self, slot: u16) -> Result<Value, VmError>;
    /// Write global slot `slot`.
    fn store_global(&mut self, slot: u16, v: Value) -> Result<(), VmError>;
    /// Read one buffer element.
    fn load_elem(&mut self, h: Handle, idx: u64) -> Result<Value, VmError>;
    /// Write one buffer element.
    fn store_elem(&mut self, h: Handle, idx: u64, v: Value) -> Result<(), VmError>;
    /// Allocate a buffer of `len` elements, labelled `label` for reports.
    fn malloc(&mut self, elem: ScalarTy, len: u64, label: &str) -> Result<Handle, VmError>;
    /// Free a buffer.
    fn free(&mut self, h: Handle) -> Result<(), VmError>;

    /// Execute an opaque runtime operation (directive lowering). The
    /// default environment has no runtime attached.
    fn host_op(&mut self, id: u16) -> Result<(), VmError> {
        Err(VmError::Internal(format!(
            "host op {id} with no runtime attached"
        )))
    }
}

/// Which instructions a slice hands back to its caller instead of
/// executing them. The first instruction of a slice is never handed back:
/// the slice that follows a [`Yield::Stopped`] executes the instruction it
/// stopped in front of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// None: run until done or out of fuel.
    Never,
    /// `HostOp`: the host executor charges the instructions since the last
    /// runtime op to the clock before the next one runs.
    HostOp,
    /// Every instruction that calls into the [`Env`] (element and global
    /// loads/stores, `Malloc`, `Free`, `HostOp`): all a GPU thread can do
    /// that another thread of its wave could observe.
    EnvAccess,
}

/// Why a slice returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Yield {
    /// The entry function returned; see [`ThreadState::result`].
    Done,
    /// The slice's fuel is spent.
    Fuel,
    /// The next instruction matches the slice's [`Stop`] and is not the
    /// slice's first; it has not been executed or counted.
    Stopped,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub(crate) chunk: u16,
    pub(crate) pc: usize,
    pub(crate) base: usize,
}

/// One executing activation of a function (a host thread or one simulated
/// GPU thread).
#[derive(Debug, Clone, Default)]
pub struct ThreadState {
    stack: Vec<Value>,
    locals: Vec<Value>,
    frames: Vec<Frame>,
    /// Executed instruction count (feeds the cost model). An instruction
    /// that traps is counted.
    pub steps: u64,
    done: Option<Option<Value>>,
}

#[cold]
pub(crate) fn underflow() -> VmError {
    VmError::Internal("stack underflow".into())
}

impl ThreadState {
    /// Create a thread entering `func` with `args`.
    pub fn new(module: &Module, func: &str, args: &[Value]) -> Result<ThreadState, VmError> {
        let idx = *module
            .func_index
            .get(func)
            .ok_or_else(|| VmError::UnknownFunction(func.to_string()))?;
        let mut t = ThreadState::default();
        t.reset(module, idx, args)?;
        Ok(t)
    }

    /// Re-enter chunk `func` with `args`, keeping this thread's
    /// allocations: the GPU simulator reuses one pool of threads for every
    /// wave of a launch.
    pub fn reset(&mut self, module: &Module, func: u16, args: &[Value]) -> Result<(), VmError> {
        let chunk = module
            .chunks
            .get(func as usize)
            .ok_or_else(|| VmError::Internal(format!("no chunk {func}")))?;
        if args.len() != chunk.n_params as usize {
            return Err(VmError::Internal(format!(
                "function `{}` expects {} args, got {}",
                chunk.name,
                chunk.n_params,
                args.len()
            )));
        }
        self.stack.clear();
        self.locals.clear();
        self.locals.extend(
            args.iter()
                .zip(&chunk.local_tys)
                .map(|(a, ty)| coerce_local(*a, ty)),
        );
        self.locals.resize(chunk.n_locals as usize, Value::Int(0));
        self.frames.clear();
        self.frames.push(Frame {
            chunk: func,
            pc: 0,
            base: 0,
        });
        self.steps = 0;
        self.done = None;
        Ok(())
    }

    /// True once the entry function has returned.
    pub fn is_done(&self) -> bool {
        self.done.is_some()
    }

    /// The return value, if finished.
    pub fn result(&self) -> Option<Option<Value>> {
        self.done
    }

    /// Execute one slice: at most `fuel` instructions, yielding early when
    /// the entry function returns or *before* an instruction selected by
    /// `stop` other than the slice's first. `steps` grows by the number of
    /// instructions executed; on `Err` that includes the trapping
    /// instruction, and the thread must not be resumed.
    ///
    /// This is the interpreter's only dispatch loop. The frame cursor lives
    /// in locals for the duration of the slice and is written back once.
    /// It dispatches on the module's fused execution form (`fuse.rs`),
    /// whose entries keep every count canonical; a slice of fuel 1 runs
    /// the canonical instruction stream one instruction at a time.
    pub fn run<E: Env>(
        &mut self,
        module: &Module,
        env: &mut E,
        fuel: u64,
        stop: Stop,
    ) -> Result<Yield, VmError> {
        if self.done.is_some() {
            return Ok(Yield::Done);
        }
        let ThreadState {
            stack,
            locals,
            frames,
            steps,
            done,
        } = self;
        let Frame {
            chunk: top,
            mut pc,
            mut base,
        } = *frames.last().expect("active frame");
        let fused = module.fused();
        let mut chunk = &module.chunks[top as usize];
        let mut ops = fused.chunk(top);
        let mut left = fuel;
        let mut next;

        // `?` would skip the write-back below; every fallible operation in
        // the loop goes through these instead.
        macro_rules! tri {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => break Err(e),
                }
            };
        }
        macro_rules! pop {
            () => {
                match stack.pop() {
                    Some(v) => v,
                    None => break Err(underflow()),
                }
            };
        }
        macro_rules! top {
            () => {
                match stack.last_mut() {
                    Some(v) => v,
                    None => break Err(underflow()),
                }
            };
        }
        // Nothing has run yet exactly while `left == fuel`.
        macro_rules! hand_back {
            ($kind:pat) => {
                if matches!(stop, $kind) && left != fuel {
                    break Ok(Yield::Stopped);
                }
            };
        }
        macro_rules! bin {
            ($op:expr) => {{
                let b = pop!();
                let a = top!();
                *a = match bin_in_registers($op, *a, b) {
                    Some(v) => v,
                    None => tri!(eval_bin($op, *a, b)),
                };
            }};
        }
        macro_rules! cast {
            ($ty:expr) => {{
                let a = top!();
                if let Some(v) = cast_in_registers(*a, $ty) {
                    *a = v;
                }
            }};
        }
        // A fused entry of width `$w` runs its stretch only with `$w` units
        // of fuel left and a value the register path accepts ...
        macro_rules! fits {
            ($w:expr, $v:expr) => {
                (left >= $w).then(|| $v).flatten()
            };
        }
        // ... and then accounts for the `$w - 1` instructions after its
        // first.
        macro_rules! ran {
            ($w:expr) => {{
                next = pc + $w;
                left -= $w - 1;
            }};
        }
        macro_rules! local {
            ($s:expr) => {
                locals[base + $s as usize]
            };
        }
        // A stretch that ends in a push: `$v`, or else its first push.
        macro_rules! push_or {
            ($first:expr, $w:expr, $v:expr) => {
                match fits!($w, $v) {
                    Some(v) => {
                        stack.push(v);
                        ran!($w);
                    }
                    None => stack.push($first),
                }
            };
        }
        // A stretch that pushes `b` and applies `Bin(op)`: the top
        // becomes `$then(top op b)`, or else `b` is pushed.
        macro_rules! onto_top {
            ($w:expr, $op:expr, $b:expr, $then:expr) => {{
                let b = $b;
                match stack.last_mut() {
                    Some(a) if left >= $w => match bin_in_registers($op, *a, b) {
                        Some(v) => {
                            *a = $then(v);
                            ran!($w);
                        }
                        None => stack.push(b),
                    },
                    _ => stack.push(b),
                }
            }};
        }

        let outcome = loop {
            if left == 0 {
                break Ok(Yield::Fuel);
            }
            let Some(&op) = ops.get(pc) else {
                break Err(VmError::Internal(format!(
                    "pc {pc} out of range in `{}`",
                    chunk.name
                )));
            };
            next = pc + 1;
            match op {
                Op::One(Instr::Const(i)) => stack.push(chunk.consts[i as usize]),
                Op::One(Instr::LoadLocal(s)) => stack.push(local!(s)),
                Op::One(Instr::StoreLocal(s)) => local!(s) = pop!(),
                Op::One(Instr::LoadGlobal(s)) => {
                    hand_back!(Stop::EnvAccess);
                    stack.push(tri!(env.load_global(s)));
                }
                Op::One(Instr::StoreGlobal(s)) => {
                    hand_back!(Stop::EnvAccess);
                    let v = pop!();
                    tri!(env.store_global(s, v));
                }
                Op::One(Instr::LoadElem) => {
                    hand_back!(Stop::EnvAccess);
                    let idx = pop!();
                    let h = tri!(as_handle(pop!()));
                    stack.push(tri!(env.load_elem(h, tri!(index_of(idx)))));
                }
                Op::One(Instr::StoreElem) => {
                    hand_back!(Stop::EnvAccess);
                    let v = pop!();
                    let idx = pop!();
                    let h = tri!(as_handle(pop!()));
                    tri!(env.store_elem(h, tri!(index_of(idx)), v));
                }
                Op::One(Instr::Bin(op)) => bin!(op),
                Op::One(Instr::Un(op)) => {
                    let a = pop!();
                    stack.push(tri!(eval_un(op, a)));
                }
                Op::One(Instr::Cast(ty)) => cast!(ty),
                Op::One(Instr::Jump(t)) => next = t as usize,
                Op::One(Instr::JumpIfFalse(t)) => {
                    if !pop!().truthy() {
                        next = t as usize;
                    }
                }
                Op::One(Instr::JumpIfTrue(t)) => {
                    if pop!().truthy() {
                        next = t as usize;
                    }
                }
                Op::One(Instr::Call(fidx)) => {
                    let callee = &module.chunks[fidx as usize];
                    let n = callee.n_params as usize;
                    let Some(args_at) = stack.len().checked_sub(n) else {
                        break Err(VmError::Internal("stack underflow in call".into()));
                    };
                    let new_base = locals.len();
                    locals.extend(
                        stack
                            .drain(args_at..)
                            .zip(&callee.local_tys)
                            .map(|(v, ty)| coerce_local(v, ty)),
                    );
                    locals.resize(new_base + callee.n_locals as usize, Value::Int(0));
                    frames.last_mut().expect("active frame").pc = next;
                    frames.push(Frame {
                        chunk: fidx,
                        pc: 0,
                        base: new_base,
                    });
                    (chunk, ops, base, next) = (callee, fused.chunk(fidx), new_base, 0);
                }
                Op::One(Instr::CallIntrinsic(intr)) => {
                    let v = if intr.arity() == 2 {
                        let b = pop!();
                        let a = pop!();
                        tri!(eval_intrinsic2(intr, a, b))
                    } else {
                        let a = pop!();
                        tri!(eval_intrinsic1(intr, a))
                    };
                    stack.push(v);
                }
                Op::One(Instr::Malloc(elem, label)) => {
                    hand_back!(Stop::EnvAccess);
                    let len = pop!().as_i64();
                    if len <= 0 {
                        break Err(VmError::BadAlloc(len));
                    }
                    // Size arrives in *bytes* (C idiom `n * sizeof(double)`).
                    let elems = (len as u64).div_ceil(elem.size_bytes());
                    let name = chunk.labels.get(label as usize).map_or("malloc", |s| s);
                    stack.push(Value::Ptr(tri!(env.malloc(elem, elems, name))));
                }
                Op::One(Instr::Free) => {
                    hand_back!(Stop::EnvAccess);
                    let h = tri!(as_handle(pop!()));
                    tri!(env.free(h));
                }
                Op::One(instr @ (Instr::Return | Instr::ReturnVoid)) => {
                    let v = if instr == Instr::Return {
                        Some(pop!())
                    } else {
                        None
                    };
                    locals.truncate(base);
                    frames.pop();
                    let Some(caller) = frames.last() else {
                        *done = Some(v);
                        left -= 1;
                        break Ok(Yield::Done);
                    };
                    stack.extend(v);
                    (chunk, ops, base, next) = (
                        &module.chunks[caller.chunk as usize],
                        fused.chunk(caller.chunk),
                        caller.base,
                        caller.pc,
                    );
                }
                Op::One(Instr::HostOp(id)) => {
                    hand_back!(Stop::HostOp | Stop::EnvAccess);
                    tri!(env.host_op(id));
                }
                Op::One(Instr::Pop) => {
                    pop!();
                }
                Op::One(Instr::Dup) => {
                    let Some(&v) = stack.last() else {
                        break Err(underflow());
                    };
                    stack.push(v);
                }
                // Fused entries (`fuse.rs`): the stretch when it fits, else
                // its first instruction as above.
                Op::LocalLocalBin(x, y, op) => {
                    let a = local!(x);
                    push_or!(a, 3, bin_in_registers(op, a, local!(y)));
                }
                Op::LocalConstBin(x, k, op) => {
                    let a = local!(x);
                    push_or!(a, 3, bin_in_registers(op, a, chunk.consts[k as usize]));
                }
                Op::LocalLocalConstBin(x, y, k, op) => {
                    stack.push(local!(x));
                    let b = chunk.consts[k as usize];
                    if let Some(v) = fits!(4, bin_in_registers(op, local!(y), b)) {
                        stack.push(v);
                        ran!(4);
                    }
                }
                Op::LocalConstBinJumpIfFalse(x, k, op) => {
                    let a = local!(x);
                    match fits!(4, bin_in_registers(op, a, chunk.consts[k as usize])) {
                        Some(v) => {
                            ran!(4);
                            if !v.truthy() {
                                next = fuse::jump_target(chunk.code[pc + 3]);
                            }
                        }
                        None => stack.push(a),
                    }
                }
                Op::LocalCast(x, ty) => {
                    let a = local!(x);
                    push_or!(a, 2, cast_in_registers(a, ty));
                }
                Op::LocalBin(y, op) => onto_top!(2, op, local!(y), |v| v),
                Op::ConstBin(k, op) => onto_top!(2, op, chunk.consts[k as usize], |v| v),
                Op::LocalBinCast(y, op, ty) => onto_top!(3, op, local!(y), |v: Value| v.cast(ty)),
                Op::BinCastStore(op, ty, s) => match fits!(3, fuse::bin_on_top(op, stack)) {
                    Some(v) => {
                        stack.truncate(stack.len() - 2);
                        local!(s) = v.cast(ty);
                        ran!(3);
                    }
                    None => bin!(op),
                },
                Op::BinCast(op, ty) => match fits!(2, fuse::bin_on_top(op, stack)) {
                    Some(v) => {
                        stack.pop();
                        *top!() = v.cast(ty);
                        ran!(2);
                    }
                    None => bin!(op),
                },
                Op::CastStore(ty, s) => {
                    match fits!(2, stack.last().and_then(|&a| cast_in_registers(a, ty))) {
                        Some(v) => {
                            stack.pop();
                            local!(s) = v;
                            ran!(2);
                        }
                        None => cast!(ty),
                    }
                }
            }
            pc = next;
            left -= 1;
        };
        *steps += fuel - left + u64::from(outcome.is_err());
        if let Some(f) = frames.last_mut() {
            f.pc = pc;
        }
        outcome
    }

    /// Run to completion; `StepLimit` if that takes more than `budget`
    /// instructions in total.
    pub fn run_to_end<E: Env>(
        &mut self,
        module: &Module,
        env: &mut E,
        budget: u64,
    ) -> Result<Option<Value>, VmError> {
        match self.run(module, env, budget.saturating_sub(self.steps), Stop::Never)? {
            Yield::Done => Ok(self.done.expect("done thread has a result")),
            _ => Err(VmError::StepLimit(budget)),
        }
    }
}

#[inline]
pub(crate) fn as_handle(v: Value) -> Result<Handle, VmError> {
    match v {
        Value::Ptr(h) if !h.is_null() => Ok(h),
        Value::Ptr(h) => Err(VmError::BadHandle(h)),
        other => Err(VmError::TypeError(format!(
            "expected pointer, found {other}"
        ))),
    }
}

#[inline]
pub(crate) fn index_of(v: Value) -> Result<u64, VmError> {
    let i = v.as_i64();
    if i < 0 {
        Err(VmError::TypeError(format!("negative index {i}")))
    } else {
        Ok(i as u64)
    }
}

#[inline]
pub(crate) fn coerce_local(v: Value, ty: &Ty) -> Value {
    match ty {
        Ty::Scalar(s) => match v {
            Value::Ptr(_) => v,
            other => other.cast(*s),
        },
        _ => v,
    }
}

/// Evaluate a binary operator with C-style promotion. `float ⊕ float` stays
/// in `f32` — the single-precision rounding divergence between CPU and GPU
/// paths that motivates the paper's configurable comparison margins.
///
/// This is the one definition of the operators. The interpreter loop first
/// tries `bin_in_registers`, which shares its bodies, and calls this for
/// every shape that one declines.
#[inline(never)]
pub fn eval_bin(op: BinOp, a: Value, b: Value) -> Result<Value, VmError> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => {
            int_bin(op, x, y).map(Value::Int).ok_or(VmError::DivByZero)
        }
        (Value::F64(x), Value::F64(y)) => f64_bin(op, x, y).ok_or_else(|| integers_only(op)),
        _ => mixed_bin(op, a, b),
    }
}

/// `int ⊕ int` and `double ⊕ double`, the shapes loops are made of, with
/// the result in registers; `None` for every other shape and for each
/// operator that fails on its operands (integer `/` or `%` by zero, an
/// integer-only operator on doubles). Those go to [`eval_bin`].
#[inline(always)]
pub(crate) fn bin_in_registers(op: BinOp, a: Value, b: Value) -> Option<Value> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => int_bin(op, x, y).map(Value::Int),
        (Value::F64(x), Value::F64(y)) => f64_bin(op, x, y),
        _ => None,
    }
}

/// The cast fast path: every value but a pointer, which `Cast` leaves as
/// it is.
#[inline(always)]
pub(crate) fn cast_in_registers(v: Value, ty: ScalarTy) -> Option<Value> {
    (!matches!(v, Value::Ptr(_))).then(|| v.cast(ty))
}

/// `None` only for `/` and `%` by zero.
#[inline(always)]
fn int_bin(op: BinOp, x: i64, y: i64) -> Option<i64> {
    use BinOp::*;
    Some(match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        Div | Rem if y == 0 => return None,
        Div => x.wrapping_div(y),
        Rem => x.wrapping_rem(y),
        Lt => (x < y) as i64,
        Gt => (x > y) as i64,
        Le => (x <= y) as i64,
        Ge => (x >= y) as i64,
        Eq => (x == y) as i64,
        Ne => (x != y) as i64,
        BitAnd => x & y,
        BitOr => x | y,
        BitXor => x ^ y,
        Shl => x.wrapping_shl(y as u32),
        Shr => x.wrapping_shr(y as u32),
        And => ((x != 0) && (y != 0)) as i64,
        Or => ((x != 0) || (y != 0)) as i64,
    })
}

/// `None` for the integer-only operators.
#[inline(always)]
fn f64_bin(op: BinOp, x: f64, y: f64) -> Option<Value> {
    use BinOp::*;
    Some(match op {
        Add => Value::F64(x + y),
        Sub => Value::F64(x - y),
        Mul => Value::F64(x * y),
        Div => Value::F64(x / y),
        _ => Value::Int(float_flag(op, x, y)? as i64),
    })
}

#[cold]
fn integers_only(op: BinOp) -> VmError {
    VmError::TypeError(format!("operator `{op}` requires integers"))
}

/// Comparisons and logical connectives on floats (an `f32` widens exactly,
/// so one `f64` body serves both precisions); `None` for the integer-only
/// operators.
#[inline(always)]
fn float_flag(op: BinOp, x: f64, y: f64) -> Option<bool> {
    use BinOp::*;
    Some(match op {
        Lt => x < y,
        Gt => x > y,
        Le => x <= y,
        Ge => x >= y,
        Eq => x == y,
        Ne => x != y,
        And => (x != 0.0) && (y != 0.0),
        Or => (x != 0.0) || (y != 0.0),
        _ => return None,
    })
}

/// Pointers, `float`, and mixed-type operands.
fn mixed_bin(op: BinOp, a: Value, b: Value) -> Result<Value, VmError> {
    use BinOp::*;
    match (a, b) {
        (Value::Ptr(x), Value::Ptr(y)) => match op {
            Eq => Ok(Value::Int((x == y) as i64)),
            Ne => Ok(Value::Int((x != y) as i64)),
            _ => Err(VmError::TypeError(format!("operator `{op}` on pointers"))),
        },
        (Value::Ptr(_), _) | (_, Value::Ptr(_)) => Err(VmError::TypeError(format!(
            "operator `{op}` mixes pointer and number"
        ))),
        (Value::F64(_), _) | (_, Value::F64(_)) => {
            f64_bin(op, a.as_f64(), b.as_f64()).ok_or_else(|| integers_only(op))
        }
        // Single precision when no f64 operand is involved.
        _ => {
            let (x, y) = (a.as_f64() as f32, b.as_f64() as f32);
            Ok(match op {
                Add => Value::F32(x + y),
                Sub => Value::F32(x - y),
                Mul => Value::F32(x * y),
                Div => Value::F32(x / y),
                _ => {
                    let flag = float_flag(op, x as f64, y as f64);
                    Value::Int(flag.ok_or_else(|| integers_only(op))? as i64)
                }
            })
        }
    }
}

/// Evaluate a unary operator.
#[inline]
pub fn eval_un(op: UnOp, a: Value) -> Result<Value, VmError> {
    match (op, a) {
        (UnOp::Neg, Value::Int(v)) => Ok(Value::Int(v.wrapping_neg())),
        (UnOp::Neg, Value::F32(v)) => Ok(Value::F32(-v)),
        (UnOp::Neg, Value::F64(v)) => Ok(Value::F64(-v)),
        (UnOp::Not, v) => Ok(Value::Int(!v.truthy() as i64)),
        (UnOp::BitNot, Value::Int(v)) => Ok(Value::Int(!v)),
        (op, v) => Err(VmError::TypeError(format!("unary `{op}` on {v}"))),
    }
}

pub(crate) fn eval_intrinsic1(intr: Intrinsic, a: Value) -> Result<Value, VmError> {
    if matches!(a, Value::Ptr(_)) {
        return Err(VmError::TypeError("intrinsic on pointer".into()));
    }
    let x = a.as_f64();
    Ok(match intr {
        Intrinsic::Sqrt => Value::F64(x.sqrt()),
        Intrinsic::Fabs => Value::F64(x.abs()),
        Intrinsic::Exp => Value::F64(x.exp()),
        Intrinsic::Log => Value::F64(x.ln()),
        Intrinsic::Sin => Value::F64(x.sin()),
        Intrinsic::Cos => Value::F64(x.cos()),
        Intrinsic::Floor => Value::F64(x.floor()),
        Intrinsic::Ceil => Value::F64(x.ceil()),
        Intrinsic::Abs => Value::Int(a.as_i64().wrapping_abs()),
        Intrinsic::SqrtF => Value::F32((x as f32).sqrt()),
        Intrinsic::ExpF => Value::F32((x as f32).exp()),
        Intrinsic::FabsF => Value::F32((x as f32).abs()),
        Intrinsic::LogF => Value::F32((x as f32).ln()),
        other => return Err(VmError::Internal(format!("{other:?} is not unary"))),
    })
}

pub(crate) fn eval_intrinsic2(intr: Intrinsic, a: Value, b: Value) -> Result<Value, VmError> {
    if matches!(a, Value::Ptr(_)) || matches!(b, Value::Ptr(_)) {
        return Err(VmError::TypeError("intrinsic on pointer".into()));
    }
    let (x, y) = (a.as_f64(), b.as_f64());
    Ok(match intr {
        Intrinsic::Pow => Value::F64(x.powf(y)),
        Intrinsic::PowF => Value::F32((x as f32).powf(y as f32)),
        Intrinsic::Fmin => Value::F64(x.min(y)),
        Intrinsic::Fmax => Value::F64(x.max(y)),
        Intrinsic::Min | Intrinsic::Max => {
            let int_mode = matches!(a, Value::Int(_)) && matches!(b, Value::Int(_));
            let take_min = intr == Intrinsic::Min;
            if int_mode {
                let (ai, bi) = (a.as_i64(), b.as_i64());
                Value::Int(if take_min { ai.min(bi) } else { ai.max(bi) })
            } else {
                Value::F64(if take_min { x.min(y) } else { x.max(y) })
            }
        }
        other => return Err(VmError::Internal(format!("{other:?} is not binary"))),
    })
}

/// A plain environment over a single [`MemSpace`] — used for host execution
/// in tests and by the runtime crate as the host half of the machine.
#[derive(Debug, Clone, Default)]
pub struct BasicEnv {
    /// Global slot values.
    pub globals: Vec<Value>,
    /// Backing memory.
    pub mem: MemSpace,
}

impl BasicEnv {
    /// Prepare globals for `module`: arrays are allocated, scalars zeroed.
    pub fn for_module(module: &Module) -> BasicEnv {
        let mut mem = MemSpace::new();
        let mut globals = Vec::with_capacity(module.globals.len());
        for g in &module.globals {
            let v = match &g.ty {
                Ty::Array(s, dims) => {
                    let len: u64 = dims.iter().product();
                    Value::Ptr(mem.alloc(*s, len as usize, g.name.clone()))
                }
                Ty::Ptr(_) => Value::Ptr(Handle::NULL),
                Ty::Scalar(s) => Value::zero(*s),
                Ty::Void => Value::Int(0),
            };
            globals.push(v);
        }
        BasicEnv { globals, mem }
    }
}

impl Env for BasicEnv {
    #[inline]
    fn load_global(&mut self, slot: u16) -> Result<Value, VmError> {
        self.globals
            .get(slot as usize)
            .copied()
            .ok_or_else(|| VmError::Internal(format!("global slot {slot} out of range")))
    }

    #[inline]
    fn store_global(&mut self, slot: u16, v: Value) -> Result<(), VmError> {
        let g = self
            .globals
            .get_mut(slot as usize)
            .ok_or_else(|| VmError::Internal(format!("global slot {slot} out of range")))?;
        *g = v;
        Ok(())
    }

    #[inline]
    fn load_elem(&mut self, h: Handle, idx: u64) -> Result<Value, VmError> {
        self.mem.load(h, idx)
    }

    #[inline]
    fn store_elem(&mut self, h: Handle, idx: u64, v: Value) -> Result<(), VmError> {
        self.mem.store(h, idx, v)
    }

    fn malloc(&mut self, elem: ScalarTy, len: u64, label: &str) -> Result<Handle, VmError> {
        Ok(self.mem.alloc(elem, len as usize, label))
    }

    fn free(&mut self, h: Handle) -> Result<(), VmError> {
        self.mem.free(h)
    }
}

/// Compile-free helper: run `func` of `module` in `env` to completion.
pub fn call_function<E: Env>(
    module: &Module,
    env: &mut E,
    func: &str,
    args: &[Value],
    budget: u64,
) -> Result<Option<Value>, VmError> {
    ThreadState::new(module, func, args)?.run_to_end(module, env, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Chunk;
    use crate::compile::{compile, GLOBALS_INIT};
    use openarc_minic::frontend;

    const BUDGET: u64 = 10_000_000;

    fn run_main(src: &str) -> (Module, BasicEnv) {
        let (p, s) = frontend(src).expect("frontend");
        let m = compile(&p, &s).expect("compile");
        let mut env = BasicEnv::for_module(&m);
        call_function(&m, &mut env, GLOBALS_INIT, &[], BUDGET).unwrap();
        call_function(&m, &mut env, "main", &[], BUDGET).unwrap();
        (m, env)
    }

    fn global_val(m: &Module, env: &BasicEnv, name: &str) -> Value {
        env.globals[m.global_slot(name).unwrap() as usize]
    }

    #[test]
    fn arithmetic_and_assignment() {
        let (m, env) = run_main("int n;\ndouble d;\nvoid main() { n = 2 + 3 * 4; d = 1.5 * 2.0; }");
        assert_eq!(global_val(&m, &env, "n"), Value::Int(14));
        assert_eq!(global_val(&m, &env, "d"), Value::F64(3.0));
    }

    #[test]
    fn loops_and_array_sum() {
        let (m, env) = run_main(
            "double a[10];\ndouble s;\nvoid main() { int i; for (i = 0; i < 10; i++) { a[i] = (double) i; } s = 0.0; for (i = 0; i < 10; i++) { s += a[i]; } }",
        );
        assert_eq!(global_val(&m, &env, "s"), Value::F64(45.0));
    }

    #[test]
    fn two_dimensional_arrays() {
        let (m, env) = run_main(
            "double g[3][4];\ndouble s;\nvoid main() { int i; int j; for (i=0;i<3;i++) for (j=0;j<4;j++) g[i][j] = (double)(i*10+j); s = g[2][3]; }",
        );
        assert_eq!(global_val(&m, &env, "s"), Value::F64(23.0));
    }

    #[test]
    fn user_function_calls() {
        let (m, env) = run_main(
            "double sq(double x) { return x * x; }\nint fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\ndouble d;\nint k;\nvoid main() { d = sq(3.0); k = fib(10); }",
        );
        assert_eq!(global_val(&m, &env, "d"), Value::F64(9.0));
        assert_eq!(global_val(&m, &env, "k"), Value::Int(55));
    }

    #[test]
    fn malloc_free_and_pointer_indexing() {
        let (m, env) = run_main(
            "double *p;\ndouble s;\nvoid main() { int i; p = (double *) malloc(8 * sizeof(double)); for (i=0;i<8;i++) p[i] = 2.0; s = p[7]; }",
        );
        assert_eq!(global_val(&m, &env, "s"), Value::F64(2.0));
        // p still allocated
        assert_eq!(env.mem.live_buffers(), 1);
    }

    #[test]
    fn pointer_swap() {
        let (m, env) = run_main(
            "double *p;\ndouble *q;\ndouble *t;\ndouble s;\nvoid main() { p = (double *) malloc(sizeof(double)); q = (double *) malloc(sizeof(double)); p[0] = 1.0; q[0] = 2.0; t = p; p = q; q = t; s = p[0]; }",
        );
        assert_eq!(global_val(&m, &env, "s"), Value::F64(2.0));
    }

    #[test]
    fn float_single_precision_rounding() {
        // 0.1f + 0.2f in f32 differs from the f64 sum.
        let (m, env) =
            run_main("float f;\ndouble d;\nvoid main() { f = 0.1f + 0.2f; d = 0.1 + 0.2; }");
        let f = match global_val(&m, &env, "f") {
            Value::F32(v) => v,
            other => panic!("{other:?}"),
        };
        let d = match global_val(&m, &env, "d") {
            Value::F64(v) => v,
            other => panic!("{other:?}"),
        };
        assert_ne!(f as f64, d);
        assert!((f as f64 - d).abs() < 1e-7);
    }

    #[test]
    fn short_circuit_evaluation() {
        // Division by zero on the RHS must not run when LHS decides.
        let (m, env) = run_main(
            "int n;\nint ok;\nvoid main() { n = 0; if (n != 0 && 10 / n > 1) { ok = 1; } else { ok = 2; } }",
        );
        assert_eq!(global_val(&m, &env, "ok"), Value::Int(2));
    }

    #[test]
    fn ternary_and_intrinsics() {
        let (m, env) = run_main(
            "double d;\nint k;\nvoid main() { d = sqrt(16.0) + fabs(-2.0) + pow(2.0, 3.0); k = max(3, 9) + min(2, 5) + abs(-4); d = d + (k > 10 ? 0.5 : 0.25); }",
        );
        assert_eq!(global_val(&m, &env, "k"), Value::Int(15));
        assert_eq!(global_val(&m, &env, "d"), Value::F64(14.5));
    }

    #[test]
    fn break_and_continue() {
        let (m, env) = run_main(
            "int s;\nvoid main() { int i; s = 0; for (i = 0; i < 100; i++) { if (i % 2 == 0) continue; if (i > 8) break; s += i; } }",
        );
        // 1 + 3 + 5 + 7 = 16
        assert_eq!(global_val(&m, &env, "s"), Value::Int(16));
    }

    #[test]
    fn while_loop() {
        let (m, env) = run_main("int n;\nvoid main() { n = 1; while (n < 100) { n = n * 2; } }");
        assert_eq!(global_val(&m, &env, "n"), Value::Int(128));
    }

    #[test]
    fn global_initializers_applied() {
        let (m, env) =
            run_main("int n = 5;\ndouble e = 2.5;\nint m2;\nvoid main() { m2 = n * 2; }");
        assert_eq!(global_val(&m, &env, "m2"), Value::Int(10));
        assert_eq!(global_val(&m, &env, "e"), Value::F64(2.5));
    }

    #[test]
    fn div_by_zero_reported() {
        let (p, s) = frontend("int n;\nvoid main() { n = 1 / 0; }").unwrap();
        let m = compile(&p, &s).unwrap();
        let mut env = BasicEnv::for_module(&m);
        let r = call_function(&m, &mut env, "main", &[], BUDGET);
        assert_eq!(r, Err(VmError::DivByZero));
    }

    #[test]
    fn out_of_bounds_reported() {
        let (p, s) = frontend("double a[4];\nvoid main() { a[9] = 1.0; }").unwrap();
        let m = compile(&p, &s).unwrap();
        let mut env = BasicEnv::for_module(&m);
        let r = call_function(&m, &mut env, "main", &[], BUDGET);
        assert!(matches!(r, Err(VmError::OutOfBounds { .. })));
    }

    #[test]
    fn step_limit_guards_infinite_loops() {
        let (p, s) = frontend("void main() { while (1) { } }").unwrap();
        let m = compile(&p, &s).unwrap();
        let mut env = BasicEnv::for_module(&m);
        let r = call_function(&m, &mut env, "main", &[], 1000);
        assert!(matches!(r, Err(VmError::StepLimit(_))));
    }

    #[test]
    fn null_pointer_use_reported() {
        let (p, s) = frontend("double *p;\nvoid main() { p[0] = 1.0; }").unwrap();
        let m = compile(&p, &s).unwrap();
        let mut env = BasicEnv::for_module(&m);
        let r = call_function(&m, &mut env, "main", &[], BUDGET);
        assert!(matches!(r, Err(VmError::BadHandle(_))));
    }

    #[test]
    fn function_args_coerced_to_param_types() {
        let (m, env) = run_main(
            "double half(double x) { return x / 2.0; }\ndouble d;\nvoid main() { d = half(5); }",
        );
        assert_eq!(global_val(&m, &env, "d"), Value::F64(2.5));
    }

    /// One instruction: what `step` used to be.
    fn step(t: &mut ThreadState, m: &Module, env: &mut BasicEnv) -> Result<Yield, VmError> {
        t.run(m, env, 1, Stop::Never)
    }

    #[test]
    fn thread_state_resumable_stepping() {
        let (p, s) = frontend("int n;\nvoid main() { n = 1; n = n + 1; n = n + 1; }").unwrap();
        let m = compile(&p, &s).unwrap();
        let mut env = BasicEnv::for_module(&m);
        let mut t = ThreadState::new(&m, "main", &[]).unwrap();
        let mut steps = 0;
        while !t.is_done() {
            step(&mut t, &m, &mut env).unwrap();
            steps += 1;
            assert!(steps < 100);
        }
        assert_eq!(env.globals[0], Value::Int(3));
        assert_eq!(t.steps, steps);
        assert_eq!(step(&mut t, &m, &mut env), Ok(Yield::Done));
        assert_eq!(t.steps, steps, "a finished thread executes nothing");
    }

    #[test]
    fn slices_of_any_length_reach_the_same_state() {
        let src = "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\n\
                   double a[8];\nint k;\n\
                   void main() { int i; k = fib(9); for (i = 0; i < 8; i++) a[i] = sqrt((double) (i * k)); }";
        let (p, s) = frontend(src).unwrap();
        let m = compile(&p, &s).unwrap();
        let mut whole_env = BasicEnv::for_module(&m);
        let mut whole = ThreadState::new(&m, "main", &[]).unwrap();
        assert_eq!(
            whole.run(&m, &mut whole_env, u64::MAX, Stop::Never),
            Ok(Yield::Done)
        );
        for fuel in [1, 2, 3, 7, 64] {
            let mut env = BasicEnv::for_module(&m);
            let mut t = ThreadState::new(&m, "main", &[]).unwrap();
            while t.run(&m, &mut env, fuel, Stop::Never).unwrap() != Yield::Done {}
            assert_eq!(t.steps, whole.steps, "fuel {fuel}");
            assert_eq!(env.globals, whole_env.globals, "fuel {fuel}");
            assert_eq!(env.mem.slots(), whole_env.mem.slots(), "fuel {fuel}");
        }
    }

    /// `main`'s code and, 1-based, the instructions that call into the Env.
    fn env_accesses(m: &Module) -> (usize, Vec<u64>) {
        let code = &m.chunk("main").unwrap().code;
        let at = (1..=code.len() as u64).filter(|&k| {
            matches!(
                code[k as usize - 1],
                Instr::LoadGlobal(_)
                    | Instr::StoreGlobal(_)
                    | Instr::LoadElem
                    | Instr::StoreElem
                    | Instr::Malloc(..)
                    | Instr::Free
                    | Instr::HostOp(_)
            )
        });
        (code.len(), at.collect())
    }

    #[test]
    fn stop_yields_before_the_instruction_without_counting_it() {
        // Straight-line code: the k-th instruction executed is `code[k - 1]`.
        let (p, s) =
            frontend("double a[4];\nvoid main() { int i; i = 1 + 2; a[i] = 1.0; }").unwrap();
        let m = compile(&p, &s).unwrap();
        let (len, accesses) = env_accesses(&m);
        // `a` is a global array: one LoadGlobal for the handle, one StoreElem.
        assert_eq!(accesses.len(), 2, "{accesses:?}");
        let mut env = BasicEnv::for_module(&m);
        let mut t = ThreadState::new(&m, "main", &[]).unwrap();
        for &access in &accesses {
            // Each slice but the first starts on the access the last one
            // handed back, executes it, and stops in front of the next one
            // without executing it.
            assert_eq!(
                t.run(&m, &mut env, u64::MAX, Stop::EnvAccess),
                Ok(Yield::Stopped)
            );
            assert_eq!(t.steps, access - 1);
            assert_eq!(env.mem.load(Handle(1), 3).unwrap(), Value::F64(0.0));
        }
        assert_eq!(
            t.run(&m, &mut env, u64::MAX, Stop::EnvAccess),
            Ok(Yield::Done)
        );
        // Every instruction, the handed-back ones included, counted once.
        assert_eq!(t.steps, len as u64);
        assert_eq!(env.mem.load(Handle(1), 3).unwrap(), Value::F64(1.0));
    }

    #[test]
    fn one_unit_of_fuel_on_a_handed_back_access_executes_it() {
        let (p, s) = frontend("double a[4];\nvoid main() { a[2] = 1.0; a[3] = 2.0; }").unwrap();
        let m = compile(&p, &s).unwrap();
        let (_, accesses) = env_accesses(&m);
        let mut env = BasicEnv::for_module(&m);
        let mut t = ThreadState::new(&m, "main", &[]).unwrap();
        let mut stored = 0;
        while t.run(&m, &mut env, u64::MAX, Stop::EnvAccess) == Ok(Yield::Stopped) {
            let before = t.steps;
            assert!(accesses.contains(&(before + 1)), "{before} {accesses:?}");
            assert_eq!(t.run(&m, &mut env, 1, Stop::EnvAccess), Ok(Yield::Fuel));
            assert_eq!(t.steps, before + 1);
            stored = (2..4)
                .filter(|&i| env.mem.load(Handle(1), i).unwrap() != Value::F64(0.0))
                .count();
        }
        assert!(t.is_done());
        // The last handed-back access was the second StoreElem, and the
        // one unit of fuel performed it.
        assert_eq!(stored, 2);
    }

    /// Bits of a value, so that NaNs and signed zeros compare exactly.
    fn bits(v: Value) -> (u8, u64) {
        match v {
            Value::Int(x) => (0, x as u64),
            Value::F32(x) => (1, x.to_bits() as u64),
            Value::F64(x) => (2, x.to_bits()),
            Value::Ptr(h) => (3, h.0 as u64),
        }
    }

    #[test]
    fn the_loop_decides_every_operator_as_eval_bin_does() {
        use Value::{Int, Ptr, F32, F64};
        let ints = [0, 1, -1, 2, -7, 3, 63, 64, i64::MIN, i64::MAX];
        let doubles = [
            0.0,
            -0.0,
            1.0,
            -2.5,
            0.1,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let floats = [0.0f32, -0.0, 1.5, f32::NAN, f32::INFINITY, -3.0];
        let mut pairs = Vec::new();
        for &x in &ints {
            pairs.extend(ints.iter().map(|&y| (Int(x), Int(y))));
            pairs.extend(doubles.iter().map(|&y| (Int(x), F64(y))));
            pairs.extend(floats.iter().map(|&y| (F32(y), Int(x))));
            pairs.push((Ptr(Handle(1)), Int(x)));
        }
        for &x in &doubles {
            pairs.extend(doubles.iter().map(|&y| (F64(x), F64(y))));
            pairs.extend(floats.iter().map(|&y| (F32(y), F64(x))));
        }
        for &x in &floats {
            pairs.extend(floats.iter().map(|&y| (F32(x), F32(y))));
        }
        for (x, y) in [(1, 1), (1, 2), (0, 1)] {
            pairs.push((Ptr(Handle(x)), Ptr(Handle(y))));
        }
        pairs.push((F64(1.0), Ptr(Handle(2))));
        let mut checked = 0;
        for op in BinOp::ALL {
            for &(a, b) in &pairs {
                let chunk = Chunk {
                    name: "f".into(),
                    code: vec![
                        Instr::Const(0),
                        Instr::Const(1),
                        Instr::Bin(op),
                        Instr::Return,
                    ],
                    consts: vec![a, b],
                    ..Chunk::default()
                };
                let m = Module {
                    chunks: vec![chunk],
                    func_index: [("f".to_string(), 0)].into(),
                    ..Module::default()
                };
                let mut env = BasicEnv::default();
                let got = call_function(&m, &mut env, "f", &[], 10).map(|v| bits(v.unwrap()));
                let want = eval_bin(op, a, b).map(bits);
                assert_eq!(got, want, "{a:?} {op} {b:?}");
                checked += 1;
            }
        }
        assert_eq!(checked, BinOp::ALL.len() * pairs.len());
    }

    #[test]
    fn a_trapping_instruction_is_counted() {
        let (p, s) = frontend("int n;\nvoid main() { n = 5; n = n / 0; }").unwrap();
        let m = compile(&p, &s).unwrap();
        let mut env = BasicEnv::for_module(&m);
        // Step while each slice spends its fuel, at most once per
        // instruction of the straight-line program: a finished thread
        // keeps answering `Done`, so a missing trap must end the loop too.
        let bound: usize = m.chunks.iter().map(|c| c.code.len()).sum();
        let mut by_one = ThreadState::new(&m, "main", &[]).unwrap();
        let mut last = Ok(Yield::Fuel);
        for _ in 0..=bound {
            if last != Ok(Yield::Fuel) {
                break;
            }
            last = step(&mut by_one, &m, &mut env);
        }
        assert_eq!(last, Err(VmError::DivByZero));
        let mut env = BasicEnv::for_module(&m);
        let mut whole = ThreadState::new(&m, "main", &[]).unwrap();
        assert_eq!(
            whole.run(&m, &mut env, u64::MAX, Stop::Never),
            Err(VmError::DivByZero)
        );
        assert_eq!(whole.steps, by_one.steps);
    }

    #[test]
    fn step_limit_fires_one_past_the_budget() {
        let (p, s) = frontend("int n;\nvoid main() { n = 1; n = n + 1; }").unwrap();
        let m = compile(&p, &s).unwrap();
        let mut env = BasicEnv::for_module(&m);
        let mut t = ThreadState::new(&m, "main", &[]).unwrap();
        t.run(&m, &mut env, u64::MAX, Stop::Never).unwrap();
        let need = t.steps;
        let mut env = BasicEnv::for_module(&m);
        assert_eq!(call_function(&m, &mut env, "main", &[], need), Ok(None));
        assert_eq!(
            call_function(&m, &mut env, "main", &[], need - 1),
            Err(VmError::StepLimit(need - 1))
        );
    }

    #[test]
    fn eval_bin_promotes_like_c_and_names_the_misuse() {
        use BinOp::*;
        use Value::{Int, Ptr, F32, F64};
        let type_error = |m: &str| Err(VmError::TypeError(m.to_string()));
        assert_eq!(eval_bin(Add, Int(1), F32(0.5)), Ok(F32(1.5)));
        assert_eq!(eval_bin(Add, F32(0.5), F64(0.25)), Ok(F64(0.75)));
        assert_eq!(eval_bin(Mul, Int(3), F64(0.5)), Ok(F64(1.5)));
        assert_eq!(eval_bin(Lt, F32(0.5), Int(1)), Ok(Int(1)));
        assert_eq!(eval_bin(And, F64(0.5), F64(0.0)), Ok(Int(0)));
        assert_eq!(eval_bin(Div, Int(i64::MIN), Int(-1)), Ok(Int(i64::MIN)));
        assert_eq!(eval_bin(Rem, Int(1), Int(0)), Err(VmError::DivByZero));
        for (a, b) in [
            (F64(1.0), F64(2.0)),
            (Int(1), F32(2.0)),
            (F32(1.0), F64(2.0)),
        ] {
            assert_eq!(
                eval_bin(Rem, a, b),
                type_error("operator `%` requires integers")
            );
        }
        let h = Ptr(Handle(3));
        assert_eq!(eval_bin(Eq, h, h), Ok(Int(1)));
        assert_eq!(eval_bin(Ne, h, Ptr(Handle::NULL)), Ok(Int(1)));
        assert_eq!(eval_bin(Add, h, h), type_error("operator `+` on pointers"));
        // The pointer complaint comes before the integer-only one.
        assert_eq!(
            eval_bin(Rem, h, Int(1)),
            type_error("operator `%` mixes pointer and number")
        );
        assert_eq!(
            eval_bin(Add, F64(1.0), h),
            type_error("operator `+` mixes pointer and number")
        );
    }

    #[test]
    fn compound_elementwise_assign() {
        let (m, env) = run_main(
            "double a[4];\ndouble s;\nvoid main() { int i; for (i=0;i<4;i++) a[i] = 1.0; for (i=0;i<4;i++) a[i] += 0.5; s = a[0] + a[3]; }",
        );
        assert_eq!(global_val(&m, &env, "s"), Value::F64(3.0));
    }

    #[test]
    fn modulo_and_bitops() {
        let (m, env) = run_main("int a;\nint b;\nvoid main() { a = 17 % 5; b = (3 << 2) | 1; }");
        assert_eq!(global_val(&m, &env, "a"), Value::Int(2));
        assert_eq!(global_val(&m, &env, "b"), Value::Int(13));
    }

    /// A module of one function `f(x, y)` over `code`, with a third local
    /// for stores and `consts` as its pool.
    fn module_of(code: Vec<Instr>, consts: Vec<Value>) -> Module {
        let chunk = Chunk {
            name: "f".into(),
            code,
            consts,
            n_params: 2,
            n_locals: 3,
            local_tys: vec![Ty::Void; 3],
            ..Chunk::default()
        };
        Module {
            chunks: vec![chunk],
            func_index: [("f".to_string(), 0)].into(),
            ..Module::default()
        }
    }

    type End = (u64, Result<Option<(u8, u64)>, VmError>);

    /// `f(x, y)` in slices of `fuel`, to its end or its trap.
    fn sliced(m: &Module, args: [Value; 2], fuel: u64) -> End {
        let mut t = ThreadState::new(m, "f", &args).unwrap();
        let mut env = BasicEnv::default();
        let end = loop {
            match t.run(m, &mut env, fuel, Stop::EnvAccess) {
                Ok(Yield::Done) => break Ok(t.result().unwrap().map(bits)),
                Ok(_) => assert!(t.steps < 10_000, "runs away"),
                Err(e) => break Err(e),
            }
        };
        (t.steps, end)
    }

    /// Every slicing ends where fuel-1 slices, the canonical interpreter,
    /// end: same steps, same result bits or error.
    fn assert_canonical(what: &str, m: &Module, args: [Value; 2]) -> End {
        let canonical = sliced(m, args, 1);
        for fuel in (2..=9).chain([u64::MAX]) {
            assert_eq!(
                sliced(m, args, fuel),
                canonical,
                "{what} {args:?} fuel {fuel}"
            );
        }
        canonical
    }

    /// One program per fused pattern: (code, pc of the pattern, its entry).
    fn pattern_programs() -> Vec<(Vec<Instr>, usize, Op)> {
        use BinOp::*;
        use Instr::*;
        use ScalarTy::{Double, Int};
        vec![
            (
                vec![LoadLocal(0), LoadLocal(1), Bin(Add), Return],
                0,
                Op::LocalLocalBin(0, 1, Add),
            ),
            (
                vec![LoadLocal(0), Const(0), Bin(Div), Return],
                0,
                Op::LocalConstBin(0, 0, Div),
            ),
            (
                vec![
                    LoadLocal(0),
                    LoadLocal(1),
                    Const(0),
                    Bin(Rem),
                    Bin(Add),
                    Return,
                ],
                0,
                Op::LocalLocalConstBin(0, 1, 0, Rem),
            ),
            (
                vec![
                    LoadLocal(0),
                    Const(0),
                    Bin(Lt),
                    JumpIfFalse(6),
                    LoadLocal(0),
                    Return,
                    LoadLocal(1),
                    Return,
                ],
                0,
                Op::LocalConstBinJumpIfFalse(0, 0, Lt),
            ),
            (
                vec![LoadLocal(0), Cast(Double), Return],
                0,
                Op::LocalCast(0, Double),
            ),
            (
                vec![Const(0), LoadLocal(1), Bin(Div), Return],
                1,
                Op::LocalBin(1, Div),
            ),
            (
                vec![LoadLocal(0), Dup, Const(0), Bin(Sub), Bin(Add), Return],
                2,
                Op::ConstBin(0, Sub),
            ),
            (
                vec![Const(0), LoadLocal(1), Bin(Mul), Cast(Int), Return],
                1,
                Op::LocalBinCast(1, Mul, Int),
            ),
            (
                vec![
                    LoadLocal(0),
                    LoadLocal(1),
                    Dup,
                    Bin(Div),
                    Cast(Int),
                    StoreLocal(2),
                    LoadLocal(2),
                    Bin(Add),
                    Return,
                ],
                3,
                Op::BinCastStore(Div, Int, 2),
            ),
            (
                vec![LoadLocal(0), Dup, Bin(Mul), Cast(Double), Return],
                2,
                Op::BinCast(Mul, Double),
            ),
            (
                vec![
                    LoadLocal(0),
                    Dup,
                    Cast(Int),
                    StoreLocal(2),
                    Pop,
                    LoadLocal(2),
                    Return,
                ],
                2,
                Op::CastStore(Int, 2),
            ),
        ]
    }

    #[test]
    fn a_fused_entry_short_of_fuel_runs_its_first_instruction_only() {
        use Value::{Int, F64};
        for (code, at, want) in pattern_programs() {
            let m = module_of(code, vec![Int(5)]);
            assert_eq!(m.fused().chunk(0)[at], want);
            let w = want.width();
            let args = [Int(7), Int(3)];
            let end = assert_canonical(&format!("{want:?}"), &m, args);
            // Run up to the pattern, then give it one unit of fuel too few.
            let mut t = ThreadState::new(&m, "f", &args).unwrap();
            let mut env = BasicEnv::default();
            if at > 0 {
                assert_eq!(t.run(&m, &mut env, at as u64, Stop::Never), Ok(Yield::Fuel));
            }
            assert_eq!(
                t.run(&m, &mut env, w - 1, Stop::Never),
                Ok(Yield::Fuel),
                "{want:?}"
            );
            assert_eq!(t.steps, at as u64 + w - 1, "{want:?}");
            assert_eq!(t.run(&m, &mut env, u64::MAX, Stop::Never), Ok(Yield::Done));
            assert_eq!(
                (t.steps, Ok(t.result().unwrap().map(bits))),
                end,
                "{want:?}"
            );
            // Doubles take the register path too (`%` on them traps).
            let _ = assert_canonical(
                &format!("{want:?}"),
                &module_of(m.chunks[0].code.clone(), vec![F64(0.5)]),
                [F64(7.5), F64(-2.0)],
            );
        }
    }

    #[test]
    fn declined_shapes_and_traps_take_the_canonical_path() {
        use Value::{Int, Ptr, F32, F64};
        let shapes = [
            // `float` and mixed operands: the register path declines.
            (vec![F32(0.25)], [F32(1.5), F32(3.0)]),
            (vec![Int(5)], [Int(7), F64(0.5)]),
            (vec![F64(2.0)], [Int(7), Int(2)]),
            // A pointer: `Cast` leaves it as it is, `Bin` traps.
            (vec![Int(1)], [Ptr(Handle(1)), Int(3)]),
            (vec![Int(1)], [Int(3), Ptr(Handle(2))]),
            // Integer `/` and `%` by zero trap at their canonical step.
            (vec![Int(0)], [Int(7), Int(0)]),
            (vec![Int(0)], [Int(0), Int(0)]),
        ];
        let mut traps = 0;
        for (code, _, want) in pattern_programs() {
            for (consts, args) in &shapes {
                let m = module_of(code.clone(), consts.clone());
                let end = assert_canonical(&format!("{want:?}"), &m, *args);
                if end.1 == Err(VmError::DivByZero) {
                    // The code is straight up to the trap, which is the
                    // first `/` or `%`, and it is counted.
                    let bin = code
                        .iter()
                        .position(|i| matches!(i, Instr::Bin(BinOp::Div | BinOp::Rem)));
                    assert_eq!(Some(end.0), bin.map(|i| i as u64 + 1), "{want:?}");
                    traps += 1;
                }
            }
        }
        assert!(traps >= 5, "{traps} division traps");
    }

    #[test]
    fn a_jump_into_a_fused_stretch_runs_the_entry_at_its_target() {
        use BinOp::*;
        use Instr::*;
        // while (x < 5) x = x + 1; the back edge lands on the `Const` in
        // the middle of the loop test's four-instruction stretch.
        let code = vec![
            LoadLocal(0),
            Const(0),
            Bin(Lt),
            JumpIfFalse(10),
            LoadLocal(0),
            Const(1),
            Bin(Add),
            Dup,
            StoreLocal(0),
            Jump(1),
            LoadLocal(0),
            Return,
        ];
        let m = module_of(code, vec![Value::Int(5), Value::Int(1)]);
        let table = m.fused().chunk(0);
        assert_eq!(table[0], Op::LocalConstBinJumpIfFalse(0, 0, Lt));
        assert_eq!(table[1], Op::ConstBin(0, Lt));
        let (steps, end) = assert_canonical("loop", &m, [Value::Int(0), Value::Int(0)]);
        // The test at entry, five rounds of body and test, the exit.
        assert_eq!(steps, 4 + 5 * (6 + 3) + 2);
        assert_eq!(end, Ok(Some(bits(Value::Int(5)))));
    }
}
