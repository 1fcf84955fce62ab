//! Lane groups: one instruction stream per convergent group of a wave.
//!
//! A [`Wave`] holds the registers of every lane of one GPU wave
//! *lane-major*: stack slot `r` and local slot `r` are each a row of
//! `width` values, one column per lane. A [`Group`] is a set of lanes that
//! have executed the identical instruction sequence, so they share frames,
//! `pc`, stack depth and step count. A group runs each instruction once
//! for all its lanes: one decode, then a tight loop over the lanes' columns
//! with the same operator bodies as [`ThreadState::run`]
//! (`bin_in_registers`/`eval_bin`, the cast fast path, `eval_un`, the
//! intrinsics), on the same fused execution form.
//!
//! A group only ever runs *privately*: it parks as a whole in front of its
//! next [`Env`] access, when its fuel runs out, or when it returns. It
//! splits where its lanes disagree at a `JumpIfFalse`/`JumpIfTrue` and
//! sheds a lane that traps; the shed lane parks at its own position with
//! its error. Groups never merge. The scheduler (`gpusim::launch`) serves
//! each parked lane's access from the group's registers ([`Wave::serve`]),
//! one lane at a time in its own order, and then lets the group run ahead
//! ([`Wave::run_ahead`]). A group of one lane is the per-lane path.
//! DESIGN.md §18, "Device: what lockstep has to mean", has the argument.
//!
//! [`ThreadState::run`]: crate::interp::ThreadState::run

use crate::bytecode::{Instr, Module};
use crate::error::VmError;
use crate::fuse::{self, Op};
use crate::interp::{
    as_handle, bin_in_registers, cast_in_registers, coerce_local, eval_bin, eval_intrinsic1,
    eval_intrinsic2, eval_un, index_of, underflow, Env, Frame,
};
use crate::value::Value;
use openarc_minic::ast::BinOp;
use std::ops::Range;

/// `$body` once per operator, with `$op` bound to that operator: each copy
/// is a lane loop in which the operator's `match` of `bin_in_registers`
/// has folded away.
macro_rules! per_op {
    ($op:ident => $body:expr) => {{
        use BinOp::*;
        match $op {
            Add => {
                let $op = Add;
                $body
            }
            Sub => {
                let $op = Sub;
                $body
            }
            Mul => {
                let $op = Mul;
                $body
            }
            Div => {
                let $op = Div;
                $body
            }
            Rem => {
                let $op = Rem;
                $body
            }
            Lt => {
                let $op = Lt;
                $body
            }
            Gt => {
                let $op = Gt;
                $body
            }
            Le => {
                let $op = Le;
                $body
            }
            Ge => {
                let $op = Ge;
                $body
            }
            Eq => {
                let $op = Eq;
                $body
            }
            Ne => {
                let $op = Ne;
                $body
            }
            And => {
                let $op = And;
                $body
            }
            Or => {
                let $op = Or;
                $body
            }
            BitAnd => {
                let $op = BitAnd;
                $body
            }
            BitOr => {
                let $op = BitOr;
                $body
            }
            BitXor => {
                let $op = BitXor;
                $body
            }
            Shl => {
                let $op = Shl;
                $body
            }
            Shr => {
                let $op = Shr;
                $body
            }
        }
    }};
}

/// Where a group stands between two slices.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Park {
    /// In front of its next instruction, which has not run: an [`Env`]
    /// access (see [`Wave::serve`]) or, when the fuel ran out, anything.
    #[default]
    Resume,
    /// The entry function has returned.
    Done,
    /// One shed lane, stopped by the error of the instruction at its
    /// position; [`Group::steps`] counts that instruction.
    Trap(VmError),
}

/// Lanes of a wave that have executed the identical instruction sequence.
#[derive(Debug, Default)]
pub struct Group {
    /// Lane indices within the wave, ascending.
    lanes: Vec<u32>,
    frames: Vec<Frame>,
    /// Stack rows in use.
    sp: usize,
    /// Local rows in use.
    lp: usize,
    steps: u64,
    park: Park,
}

impl Group {
    /// The group's lanes, ascending; empty once every lane has been shed.
    pub fn lanes(&self) -> &[u32] {
        &self.lanes
    }

    /// Instructions each lane has executed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Why the group stopped.
    pub fn park(&self) -> &Park {
        &self.park
    }

    /// The 1-based index of the instruction the group is parked at: the
    /// next one, or the trapping one; one past the last once done.
    pub fn at(&self) -> u64 {
        match self.park {
            Park::Trap(_) => self.steps,
            Park::Resume | Park::Done => self.steps + 1,
        }
    }
}

/// The registers and lane groups of one wave.
#[derive(Debug, Default)]
pub struct Wave {
    width: usize,
    /// Stack rows, `width` values each.
    stack: Vec<Value>,
    /// Local rows, `width` values each.
    locals: Vec<Value>,
    /// Every group of the wave, in creation order; an index names one
    /// group for the whole wave.
    groups: Vec<Group>,
    /// Lane → index of the group it belongs to.
    group_of: Vec<u32>,
    /// Lanes that trapped in the current instruction, in lane order.
    traps: Vec<(u32, VmError)>,
    /// Groups still to run in the current `run_ahead`, with their fuel.
    work: Vec<(usize, u64)>,
}

/// Why a slice of one group ended.
enum End {
    /// Parked in front of an access, or out of fuel.
    Resume,
    /// The entry function returned.
    Done,
    /// The lanes disagree at a conditional jump: those whose condition,
    /// left in stack row `row`, is `when` go to `target`.
    Split {
        row: usize,
        target: usize,
        when: bool,
    },
    /// Some lanes trapped in the last instruction (`Wave::traps`); the
    /// others executed it.
    Shed,
}

/// The lanes a slice runs: a list, or one lane with no loop around it.
trait Lanes: Copy {
    fn len(self) -> usize;
    fn each(self, f: impl FnMut(usize));
}

impl Lanes for &[u32] {
    #[inline(always)]
    fn len(self) -> usize {
        <[u32]>::len(self)
    }

    #[inline(always)]
    fn each(self, mut f: impl FnMut(usize)) {
        for &l in self {
            f(l as usize);
        }
    }
}

#[derive(Clone, Copy)]
struct One(usize);

impl Lanes for One {
    #[inline(always)]
    fn len(self) -> usize {
        1
    }

    #[inline(always)]
    fn each(self, mut f: impl FnMut(usize)) {
        f(self.0);
    }
}

/// True for the instructions that call into the [`Env`]: all a lane can
/// do that another lane of its wave could observe.
fn is_access(i: Instr) -> bool {
    matches!(
        i,
        Instr::LoadGlobal(_)
            | Instr::StoreGlobal(_)
            | Instr::LoadElem
            | Instr::StoreElem
            | Instr::Malloc(..)
            | Instr::Free
            | Instr::HostOp(_)
    )
}

/// Make room for `rows` rows of `w` values.
#[inline(always)]
fn grow(v: &mut Vec<Value>, w: usize, rows: usize) {
    if v.len() < rows * w {
        v.resize(rows * w, Value::Int(0));
    }
}

impl Wave {
    /// Start a wave of one lane per id in `tids`: lane `i` enters chunk
    /// `func` with arguments `[Int(tids.start + i), args...]`, and all
    /// lanes form one group.
    pub fn reset(
        &mut self,
        module: &Module,
        func: u16,
        tids: Range<u64>,
        args: &[Value],
    ) -> Result<(), VmError> {
        let chunk = module
            .chunks
            .get(func as usize)
            .ok_or_else(|| VmError::Internal(format!("no chunk {func}")))?;
        if args.len() + 1 != chunk.n_params as usize {
            return Err(VmError::Internal(format!(
                "function `{}` expects {} args, got {}",
                chunk.name,
                chunk.n_params,
                args.len() + 1
            )));
        }
        let w = (tids.end - tids.start) as usize;
        let n = chunk.n_locals as usize;
        self.width = w;
        self.locals.clear();
        self.locals.resize(n * w, Value::Int(0));
        // As `ThreadState::reset`: a parameter without a declared type
        // stays zero.
        if let Some(ty) = chunk.local_tys.first() {
            for (lane, tid) in tids.enumerate() {
                self.locals[lane] = coerce_local(Value::Int(tid as i64), ty);
            }
        }
        for ((j, a), ty) in args.iter().enumerate().zip(chunk.local_tys.iter().skip(1)) {
            self.locals[(j + 1) * w..(j + 2) * w].fill(coerce_local(*a, ty));
        }
        self.groups.clear();
        self.groups.push(Group {
            lanes: (0..w as u32).collect(),
            frames: vec![Frame {
                chunk: func,
                pc: 0,
                base: 0,
            }],
            sp: 0,
            lp: n,
            steps: 0,
            park: Park::Resume,
        });
        self.group_of.clear();
        self.group_of.resize(w, 0);
        Ok(())
    }

    /// Every group of the wave, done and emptied ones included; an index
    /// names one group for the whole wave.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// The index of the group lane `lane` belongs to.
    pub fn group_of(&self, lane: usize) -> usize {
        self.group_of[lane] as usize
    }

    /// Perform the [`Env`] access group `g` is parked in front of for the
    /// lanes `group.lanes()[run]`, one after the other, each reading its
    /// operands from its own registers and leaving its result there;
    /// `enter(env, lane)` comes before each lane's access. Nothing when the
    /// next instruction is not an access. The first failure ends the run.
    /// The group moves past the access only in [`Wave::run_ahead`], once
    /// every lane has been served.
    pub fn serve<E: Env>(
        &mut self,
        module: &Module,
        g: usize,
        run: Range<usize>,
        env: &mut E,
        mut enter: impl FnMut(&mut E, usize),
    ) -> Result<(), VmError> {
        let Wave {
            width: w,
            stack,
            groups,
            ..
        } = self;
        let (w, grp) = (*w, &groups[g]);
        let Some(&Frame { chunk, pc, .. }) = grp.frames.last() else {
            return Ok(());
        };
        let chunk = &module.chunks[chunk as usize];
        let Some(&instr) = chunk.code.get(pc) else {
            return Ok(());
        };
        let sp = grp.sp;
        let lanes = &grp.lanes[run];
        // The first slot of the row `d` below the top of the stack.
        let row = |d: usize| sp.checked_sub(d).map(|r| r * w).ok_or_else(underflow);
        // The access, decoded once, for each lane in turn.
        macro_rules! each {
            (|$l:ident| $body:expr) => {
                for &l in lanes {
                    let $l = l as usize;
                    enter(env, $l);
                    $body;
                }
            };
        }
        match instr {
            Instr::LoadGlobal(s) => {
                grow(stack, w, sp + 1);
                let top = sp * w;
                each!(|l| stack[top + l] = env.load_global(s)?);
            }
            Instr::StoreGlobal(s) => {
                let v = row(1)?;
                each!(|l| env.store_global(s, stack[v + l])?);
            }
            Instr::LoadElem => {
                let (i, h) = (row(1)?, row(2)?);
                each!(|l| {
                    let h_val = as_handle(stack[h + l])?;
                    stack[h + l] = env.load_elem(h_val, index_of(stack[i + l])?)?;
                });
            }
            Instr::StoreElem => {
                let (v, i, h) = (row(1)?, row(2)?, row(3)?);
                each!(|l| {
                    let h_val = as_handle(stack[h + l])?;
                    env.store_elem(h_val, index_of(stack[i + l])?, stack[v + l])?;
                });
            }
            Instr::Malloc(elem, label) => {
                let top = row(1)?;
                let name = chunk.labels.get(label as usize).map_or("malloc", |s| s);
                each!(|l| {
                    let len = stack[top + l].as_i64();
                    if len <= 0 {
                        return Err(VmError::BadAlloc(len));
                    }
                    // Size arrives in *bytes* (C idiom `n * sizeof(double)`).
                    let elems = (len as u64).div_ceil(elem.size_bytes());
                    stack[top + l] = Value::Ptr(env.malloc(elem, elems, name)?);
                });
            }
            Instr::Free => {
                let top = row(1)?;
                each!(|l| env.free(as_handle(stack[top + l])?)?);
            }
            Instr::HostOp(id) => each!(|_l| env.host_op(id)?),
            _ => {}
        }
        Ok(())
    }

    /// Run group `g` privately for at most `fuel` instructions per lane
    /// (at least one): first the access it is parked in front of, if any
    /// (every lane must have been served), then on up to its next access, splitting and
    /// shedding on the way, until it and every group split off it park.
    /// New groups are appended to [`Wave::groups`].
    pub fn run_ahead(&mut self, module: &Module, g: usize, mut fuel: u64) {
        let grp = &mut self.groups[g];
        if let Some(f) = grp.frames.last_mut() {
            if let Some(&i) = module.chunks[f.chunk as usize].code.get(f.pc) {
                if is_access(i) {
                    // Every lane has been served, so the operands are there.
                    grp.sp = match i {
                        Instr::LoadGlobal(_) => grp.sp + 1,
                        Instr::LoadElem | Instr::StoreGlobal(_) | Instr::Free => grp.sp - 1,
                        Instr::StoreElem => grp.sp - 3,
                        _ => grp.sp,
                    };
                    f.pc += 1;
                    grp.steps += 1;
                    fuel = fuel.saturating_sub(1);
                }
            }
        }
        self.work.push((g, fuel));
        while let Some((g, fuel)) = self.work.pop() {
            self.run_group(module, g, fuel);
        }
    }

    /// One slice of group `g`, then the split or shed it ended in.
    fn run_group(&mut self, module: &Module, g: usize, fuel: u64) {
        let mut grp = std::mem::take(&mut self.groups[g]);
        let lanes = std::mem::take(&mut grp.lanes);
        let (end, left) = match *lanes {
            [l] => self.slice(module, &mut grp, One(l as usize), fuel),
            _ => self.slice(module, &mut grp, &lanes[..], fuel),
        };
        grp.lanes = lanes;
        match end {
            End::Resume => grp.park = Park::Resume,
            End::Done => grp.park = Park::Done,
            End::Split { row, target, when } => {
                let w = self.width;
                let row = &self.stack[row * w..row * w + w];
                let (moved, kept) = grp
                    .lanes
                    .iter()
                    .partition(|&&l| row[l as usize].truthy() == when);
                grp.lanes = kept;
                let mut frames = grp.frames.clone();
                frames.last_mut().expect("a split group is running").pc = target;
                let other = Group {
                    lanes: moved,
                    frames,
                    sp: grp.sp,
                    lp: grp.lp,
                    steps: grp.steps,
                    park: Park::Resume,
                };
                let new = self.adopt(other);
                self.work.push((g, left));
                self.work.push((new, left));
            }
            End::Shed => {
                let mut traps = std::mem::take(&mut self.traps);
                let mut shed = traps.iter().map(|t| t.0).peekable();
                grp.lanes.retain(|&l| shed.next_if_eq(&l).is_none());
                for (lane, e) in traps.drain(..) {
                    self.adopt(Group {
                        lanes: vec![lane],
                        steps: grp.steps,
                        park: Park::Trap(e),
                        ..Group::default()
                    });
                }
                self.traps = traps;
                if !grp.lanes.is_empty() {
                    self.work.push((g, left));
                }
            }
        }
        self.groups[g] = grp;
    }

    /// Append `group`, pointing its lanes at it; returns its index.
    fn adopt(&mut self, group: Group) -> usize {
        let i = self.groups.len();
        for &l in &group.lanes {
            self.group_of[l as usize] = i as u32;
        }
        self.groups.push(group);
        i
    }

    /// Run the lanes `lanes` of `grp` instruction-major until the group
    /// parks, splits or sheds; returns why, and the fuel left. Like
    /// `ThreadState::run`, the frame cursor lives in locals for the slice
    /// and is written back once.
    fn slice<L: Lanes>(
        &mut self,
        module: &Module,
        grp: &mut Group,
        lanes: L,
        fuel: u64,
    ) -> (End, u64) {
        let w = self.width;
        let Wave {
            stack,
            locals,
            traps,
            ..
        } = self;
        let Frame {
            chunk: top,
            mut pc,
            mut base,
        } = *grp.frames.last().expect("a running group has a frame");
        let (mut sp, mut lp) = (grp.sp, grp.lp);
        let fused = module.fused();
        let mut chunk = &module.chunks[top as usize];
        let mut ops = fused.chunk(top);
        let mut left = fuel;
        let mut next;

        macro_rules! row {
            ($v:expr, $r:expr) => {{
                let r = $r;
                &$v[r * w..r * w + w]
            }};
        }
        macro_rules! row_mut {
            ($v:expr, $r:expr) => {{
                let r = $r;
                &mut $v[r * w..r * w + w]
            }};
        }
        // Rows `$r` and `$r + 1` of the stack, both writable.
        macro_rules! two_rows {
            ($r:expr) => {{
                let r = $r;
                stack[r * w..r * w + 2 * w].split_at_mut(w)
            }};
        }
        // Every lane fails with `$e` at this instruction.
        macro_rules! trap_all {
            ($e:expr) => {{
                let e = $e;
                lanes.each(|l| traps.push((l as u32, e.clone())));
                pc = next;
                left -= 1;
                break End::Shed;
            }};
        }
        macro_rules! need {
            ($n:expr) => {
                if sp < $n {
                    trap_all!(underflow());
                }
            };
        }
        // An instruction some lanes of which trapped ends the slice once
        // the others have executed it.
        macro_rules! shed_if_trapped {
            () => {
                if !traps.is_empty() {
                    pc = next;
                    left -= 1;
                    break End::Shed;
                }
            };
        }
        macro_rules! local {
            ($s:expr) => {
                row!(locals, base + $s as usize)
            };
        }
        // `dst[l] = f(l)` for every lane.
        macro_rules! fill {
            ($dst:expr, |$l:ident| $v:expr) => {{
                let dst = $dst;
                lanes.each(|$l| dst[$l] = $v);
            }};
        }
        // `Bin(op)` on the two top rows, `eval_bin` for what the register
        // path declines.
        macro_rules! bin {
            ($op:expr) => {{
                need!(2);
                let op = $op;
                let (a, b) = two_rows!(sp - 2);
                lanes.each(|l| match bin_in_registers(op, a[l], b[l]) {
                    Some(v) => a[l] = v,
                    None => match eval_bin(op, a[l], b[l]) {
                        Ok(v) => a[l] = v,
                        Err(e) => traps.push((l as u32, e)),
                    },
                });
                sp -= 1;
                shed_if_trapped!();
            }};
        }
        macro_rules! cast {
            ($ty:expr) => {{
                need!(1);
                let ty = $ty;
                let a = row_mut!(stack, sp - 1);
                lanes.each(|l| {
                    if let Some(v) = cast_in_registers(a[l], ty) {
                        a[l] = v;
                    }
                });
            }};
        }
        // A fused entry of width `$w` runs its stretch only with `$w` units
        // of fuel left and, for every lane, operands the register path
        // accepts (computed into `$dst`); otherwise the group runs its
        // first instruction exactly as the canonical loop would.
        macro_rules! fits {
            ($w:expr, $dst:expr, |$l:ident| $v:expr) => {
                left >= $w && {
                    let dst = $dst;
                    let mut ok = true;
                    lanes.each(|$l| match $v {
                        Some(v) => dst[$l] = v,
                        None => ok = false,
                    });
                    ok
                }
            };
        }
        macro_rules! ran {
            ($w:expr) => {{
                next = pc + $w;
                left -= $w - 1;
            }};
        }
        // A stretch that pushes `b` and applies `Bin(op)`: the top becomes
        // `$then(top op b)` through the scratch row above it, or else `b`
        // is pushed.
        macro_rules! onto_top {
            ($w:expr, $op:expr, |$l:ident| $b:expr, $then:expr) => {{
                let op = $op;
                if sp >= 1 && left >= $w {
                    let (a, scratch) = two_rows!(sp - 1);
                    if fits!($w, &mut *scratch, |$l| bin_in_registers(op, a[$l], $b)) {
                        fill!(a, |l| $then(scratch[l]));
                        ran!($w);
                    } else {
                        fill!(scratch, |$l| $b);
                        sp += 1;
                    }
                } else {
                    fill!(row_mut!(stack, sp), |$l| $b);
                    sp += 1;
                }
            }};
        }

        let end = loop {
            if left == 0 {
                break End::Resume;
            }
            next = pc + 1;
            let Some(&op) = ops.get(pc) else {
                trap_all!(VmError::Internal(format!(
                    "pc {pc} out of range in `{}`",
                    chunk.name
                )));
            };
            // Rows up to `sp + 1` exist: a push and a scratch row.
            grow(stack, w, sp + 2);
            match op {
                Op::One(Instr::Const(i)) => {
                    let v = chunk.consts[i as usize];
                    fill!(row_mut!(stack, sp), |_l| v);
                    sp += 1;
                }
                Op::One(Instr::LoadLocal(s)) => {
                    let src = local!(s);
                    fill!(row_mut!(stack, sp), |l| src[l]);
                    sp += 1;
                }
                Op::One(Instr::StoreLocal(s)) => {
                    need!(1);
                    sp -= 1;
                    let src = row!(stack, sp);
                    fill!(row_mut!(locals, base + s as usize), |l| src[l]);
                }
                Op::One(
                    Instr::LoadGlobal(_)
                    | Instr::StoreGlobal(_)
                    | Instr::LoadElem
                    | Instr::StoreElem
                    | Instr::Malloc(..)
                    | Instr::Free
                    | Instr::HostOp(_),
                ) => break End::Resume,
                Op::One(Instr::Bin(op)) => bin!(op),
                Op::One(Instr::Un(op)) => {
                    need!(1);
                    let a = row_mut!(stack, sp - 1);
                    lanes.each(|l| match eval_un(op, a[l]) {
                        Ok(v) => a[l] = v,
                        Err(e) => traps.push((l as u32, e)),
                    });
                    shed_if_trapped!();
                }
                Op::One(Instr::Cast(ty)) => cast!(ty),
                Op::One(Instr::Jump(t)) => next = t as usize,
                Op::One(Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t)) => {
                    need!(1);
                    sp -= 1;
                    let when = matches!(op, Op::One(Instr::JumpIfTrue(_)));
                    let c = row!(stack, sp);
                    let mut jump = 0;
                    lanes.each(|l| jump += usize::from(c[l].truthy() == when));
                    if jump == lanes.len() {
                        next = t as usize;
                    } else if jump > 0 {
                        pc = next;
                        left -= 1;
                        break End::Split {
                            row: sp,
                            target: t as usize,
                            when,
                        };
                    }
                }
                Op::One(Instr::Call(fidx)) => {
                    let callee = &module.chunks[fidx as usize];
                    let n = callee.n_params as usize;
                    if sp < n {
                        trap_all!(VmError::Internal("stack underflow in call".into()));
                    }
                    let new_base = lp;
                    lp += callee.n_locals as usize;
                    grow(locals, w, lp);
                    for j in 0..callee.n_locals as usize {
                        let dst = row_mut!(locals, new_base + j);
                        match callee.local_tys.get(j).filter(|_| j < n) {
                            Some(ty) => {
                                let src = row!(stack, sp - n + j);
                                fill!(dst, |l| coerce_local(src[l], ty));
                            }
                            None => fill!(dst, |_l| Value::Int(0)),
                        }
                    }
                    sp -= n;
                    grp.frames.last_mut().expect("active frame").pc = next;
                    grp.frames.push(Frame {
                        chunk: fidx,
                        pc: 0,
                        base: new_base,
                    });
                    (chunk, ops, base, next) = (callee, fused.chunk(fidx), new_base, 0);
                }
                Op::One(Instr::CallIntrinsic(intr)) => {
                    if intr.arity() == 2 {
                        need!(2);
                        let (a, b) = two_rows!(sp - 2);
                        lanes.each(|l| match eval_intrinsic2(intr, a[l], b[l]) {
                            Ok(v) => a[l] = v,
                            Err(e) => traps.push((l as u32, e)),
                        });
                        sp -= 1;
                    } else {
                        need!(1);
                        let a = row_mut!(stack, sp - 1);
                        lanes.each(|l| match eval_intrinsic1(intr, a[l]) {
                            Ok(v) => a[l] = v,
                            Err(e) => traps.push((l as u32, e)),
                        });
                    }
                    shed_if_trapped!();
                }
                // The value returned stays where it is: on top of the
                // caller's stack.
                Op::One(instr @ (Instr::Return | Instr::ReturnVoid)) => {
                    if instr == Instr::Return {
                        need!(1);
                    }
                    lp = base;
                    grp.frames.pop();
                    let Some(caller) = grp.frames.last() else {
                        left -= 1;
                        break End::Done;
                    };
                    (chunk, ops, base, next) = (
                        &module.chunks[caller.chunk as usize],
                        fused.chunk(caller.chunk),
                        caller.base,
                        caller.pc,
                    );
                }
                Op::One(Instr::Pop) => {
                    need!(1);
                    sp -= 1;
                }
                Op::One(Instr::Dup) => {
                    need!(1);
                    let (a, b) = two_rows!(sp - 1);
                    fill!(b, |l| a[l]);
                    sp += 1;
                }
                // Fused entries (`fuse.rs`): the stretch when it fits every
                // lane, else its first instruction as above.
                Op::LocalLocalBin(x, y, op) => per_op!(op => {
                    let (a, b) = (local!(x), local!(y));
                    let dst = row_mut!(stack, sp);
                    if fits!(3, &mut *dst, |l| bin_in_registers(op, a[l], b[l])) {
                        ran!(3);
                    } else {
                        fill!(dst, |l| a[l]);
                    }
                    sp += 1;
                }),
                Op::LocalConstBin(x, k, op) => per_op!(op => {
                    let (a, b) = (local!(x), chunk.consts[k as usize]);
                    let dst = row_mut!(stack, sp);
                    if fits!(3, &mut *dst, |l| bin_in_registers(op, a[l], b)) {
                        ran!(3);
                    } else {
                        fill!(dst, |l| a[l]);
                    }
                    sp += 1;
                }),
                Op::LocalLocalConstBin(x, y, k, op) => per_op!(op => {
                    let (a, b) = (local!(x), local!(y));
                    let c = chunk.consts[k as usize];
                    let (first, second) = two_rows!(sp);
                    fill!(first, |l| a[l]);
                    sp += 1;
                    if fits!(4, second, |l| bin_in_registers(op, b[l], c)) {
                        sp += 1;
                        ran!(4);
                    }
                }),
                Op::LocalConstBinJumpIfFalse(x, k, op) => per_op!(op => {
                    let (a, b) = (local!(x), chunk.consts[k as usize]);
                    let dst = row_mut!(stack, sp);
                    if fits!(4, &mut *dst, |l| bin_in_registers(op, a[l], b)) {
                        ran!(4);
                        let mut jump = 0;
                        lanes.each(|l| jump += usize::from(!dst[l].truthy()));
                        if jump == lanes.len() {
                            next = fuse::jump_target(chunk.code[pc + 3]);
                        } else if jump > 0 {
                            let target = fuse::jump_target(chunk.code[pc + 3]);
                            pc = next;
                            left -= 1;
                            break End::Split {
                                row: sp,
                                target,
                                when: false,
                            };
                        }
                    } else {
                        fill!(dst, |l| a[l]);
                        sp += 1;
                    }
                }),
                Op::LocalCast(x, ty) => {
                    let a = local!(x);
                    let dst = row_mut!(stack, sp);
                    if fits!(2, &mut *dst, |l| cast_in_registers(a[l], ty)) {
                        ran!(2);
                    } else {
                        fill!(dst, |l| a[l]);
                    }
                    sp += 1;
                }
                Op::LocalBin(y, op) => per_op!(op => {
                    let b = local!(y);
                    onto_top!(2, op, |l| b[l], |v| v);
                }),
                Op::ConstBin(k, op) => per_op!(op => {
                    let b = chunk.consts[k as usize];
                    onto_top!(2, op, |_l| b, |v| v);
                }),
                Op::LocalBinCast(y, op, ty) => per_op!(op => {
                    let b = local!(y);
                    onto_top!(3, op, |l| b[l], |v: Value| v.cast(ty));
                }),
                Op::BinCastStore(op, ty, s) => per_op!(op => {
                    let (below, from_top) = stack.split_at_mut(sp * w);
                    let scratch = &mut from_top[..w];
                    if sp >= 2 && {
                        let (a, b) = (row!(below, sp - 2), row!(below, sp - 1));
                        fits!(3, &mut *scratch, |l| bin_in_registers(op, a[l], b[l]))
                    } {
                        fill!(row_mut!(locals, base + s as usize), |l| scratch[l].cast(ty));
                        sp -= 2;
                        ran!(3);
                    } else {
                        bin!(op);
                    }
                }),
                Op::BinCast(op, ty) => per_op!(op => {
                    let (below, from_top) = stack.split_at_mut(sp * w);
                    let scratch = &mut from_top[..w];
                    if sp >= 2 && {
                        let (a, b) = (row!(below, sp - 2), row!(below, sp - 1));
                        fits!(2, &mut *scratch, |l| bin_in_registers(op, a[l], b[l]))
                    } {
                        fill!(row_mut!(below, sp - 2), |l| scratch[l].cast(ty));
                        sp -= 1;
                        ran!(2);
                    } else {
                        bin!(op);
                    }
                }),
                Op::CastStore(ty, s) => {
                    let mut pointer = false;
                    if sp >= 1 {
                        let a = row!(stack, sp - 1);
                        lanes.each(|l| pointer |= matches!(a[l], Value::Ptr(_)));
                    }
                    if sp >= 1 && left >= 2 && !pointer {
                        let a = row!(stack, sp - 1);
                        fill!(row_mut!(locals, base + s as usize), |l| a[l].cast(ty));
                        sp -= 1;
                        ran!(2);
                    } else {
                        cast!(ty);
                    }
                }
            }
            pc = next;
            left -= 1;
        };
        grp.steps += fuel - left;
        grp.sp = sp;
        grp.lp = lp;
        if let Some(f) = grp.frames.last_mut() {
            f.pc = pc;
        }
        (end, left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openarc_minic::frontend;

    fn wave_of(src: &str, lanes: u64) -> (Module, Wave) {
        let (p, s) = frontend(src).expect("frontend");
        let m = crate::compile(&p, &s).expect("compile");
        let mut w = Wave::default();
        w.reset(&m, m.func_index["k"], 0..lanes, &[])
            .expect("reset");
        (m, w)
    }

    /// The groups that still hold lanes: (lanes, steps, park).
    fn live(w: &Wave) -> Vec<(Vec<u32>, u64, Park)> {
        let mut out: Vec<_> = w
            .groups()
            .iter()
            .filter(|g| !g.lanes().is_empty())
            .map(|g| (g.lanes().to_vec(), g.steps(), g.park().clone()))
            .collect();
        out.sort_by_key(|g| g.0[0]);
        out
    }

    #[test]
    fn a_group_splits_where_its_lanes_disagree_and_never_merges() {
        let (m, mut w) = wave_of(
            "int k(int gid) { int x; x = 1;
                if (gid % 2 == 0) { x = 2; } else { x = 3; x = x + 1; }
                return x; }",
            6,
        );
        w.run_ahead(&m, 0, 1_000);
        let got = live(&w);
        assert_eq!(got.len(), 2, "{got:?}");
        let (even, odd) = (&got[0], &got[1]);
        assert_eq!(even.0, [0, 2, 4]);
        assert_eq!(odd.0, [1, 3, 5]);
        assert!(even.2 == Park::Done && odd.2 == Park::Done);
        assert!(odd.1 > even.1, "the longer arm runs more steps");
        for (lanes, ..) in &got {
            let g = w.group_of(lanes[0] as usize);
            assert!(lanes.iter().all(|&l| w.group_of(l as usize) == g));
        }
    }

    #[test]
    fn a_trapping_lane_is_shed_at_its_own_position() {
        let (m, mut w) = wave_of(
            "int k(int gid) { int x; x = 6 / (gid - 2); x = x + 1; return x; }",
            4,
        );
        w.run_ahead(&m, 0, 1_000);
        let got = live(&w);
        assert_eq!(got.len(), 2, "{got:?}");
        let (rest, shed) = if got[0].0 == [2] {
            (&got[1], &got[0])
        } else {
            (&got[0], &got[1])
        };
        assert_eq!(shed.0, [2]);
        assert_eq!(shed.2, Park::Trap(VmError::DivByZero));
        assert_eq!(rest.0, [0, 1, 3]);
        assert_eq!(rest.2, Park::Done);
        assert!(shed.1 < rest.1, "the trap counts its own instruction only");
        let g = w.group_of(2);
        assert_eq!(w.groups()[g].at(), shed.1, "parked at the division");
    }

    #[test]
    fn fuel_parks_the_group_and_its_split_offs_at_the_same_step() {
        let (m, mut w) = wave_of(
            "int k(int gid) { int i; int x; x = 0;
                for (i = 0; i < 3 + gid; i++) { x = x + i; }
                return x; }",
            4,
        );
        w.run_ahead(&m, 0, 20);
        for (lanes, steps, park) in live(&w) {
            assert_eq!((steps, park.clone()), (20, Park::Resume), "lanes {lanes:?}");
        }
    }
}
