//! The fused execution form: a table, derived from each chunk's code, that
//! [`ThreadState::run`](crate::interp::ThreadState::run) dispatches on.
//!
//! At every `pc` the table holds either the canonical `code[pc]` or a
//! *fused entry* that stands for the `w` canonical instructions starting
//! there (superinstructions, Ertl & Gregg 2003). A fused entry runs its
//! stretch in one dispatch when the slice has `w` units of fuel left and
//! its operands have a shape the loop decides in registers; otherwise it
//! runs its first instruction exactly as the canonical loop would, and the
//! entry at `pc + 1` carries on. No stretch holds an `Env` access, a call,
//! a return or a jump other than its last instruction, and no fused entry
//! can trap, so step counts, access positions, fuel yields and trap
//! positions are the canonical ones; fuel 1 *is* the canonical interpreter.
//! See DESIGN.md §18, "Fused execution form".
//!
//! The table is built once per [`Module`], on its first run, and is never
//! encoded, hashed or compared: [`Chunk::code`] stays the one instruction
//! stream.

use crate::bytecode::{Chunk, Instr, Module};
use crate::interp::bin_in_registers;
use crate::value::Value;
use openarc_minic::ast::BinOp;
use openarc_minic::ScalarTy;
use std::fmt;
use std::sync::OnceLock;

/// One entry of a chunk's execution table. The names spell the stretch:
/// `Local` is `LoadLocal`, `Store` is `StoreLocal`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    /// The canonical instruction.
    One(Instr),
    /// `LoadLocal(a) LoadLocal(b) Bin(op)`
    LocalLocalBin(u16, u16, BinOp),
    /// `LoadLocal(a) Const(k) Bin(op)`
    LocalConstBin(u16, u16, BinOp),
    /// `LoadLocal(a) LoadLocal(b) Const(k) Bin(op)`, for `k` below 256:
    /// every entry fits in the bytes of an instruction.
    LocalLocalConstBin(u16, u16, u8, BinOp),
    /// `LoadLocal(a) Const(k) Bin(op) JumpIfFalse(_)`; the target is read
    /// from the code when the jump is taken.
    LocalConstBinJumpIfFalse(u16, u16, BinOp),
    /// `LoadLocal(a) Bin(op)`
    LocalBin(u16, BinOp),
    /// `LoadLocal(a) Bin(op) Cast(ty)`
    LocalBinCast(u16, BinOp, ScalarTy),
    /// `LoadLocal(a) Cast(ty)`
    LocalCast(u16, ScalarTy),
    /// `Const(k) Bin(op)`
    ConstBin(u16, BinOp),
    /// `Bin(op) Cast(ty) StoreLocal(s)`
    BinCastStore(BinOp, ScalarTy, u16),
    /// `Bin(op) Cast(ty)`
    BinCast(BinOp, ScalarTy),
    /// `Cast(ty) StoreLocal(s)`
    CastStore(ScalarTy, u16),
}

impl Op {
    /// The entry for the stretch that starts at `code[0]`: the longest
    /// pattern that matches, else the instruction itself.
    fn at(code: &[Instr]) -> Op {
        use Instr::*;
        match *code {
            [LoadLocal(a), LoadLocal(b), Const(k), Bin(op), ..] if k < 256 => {
                Op::LocalLocalConstBin(a, b, k as u8, op)
            }
            [LoadLocal(a), Const(k), Bin(op), JumpIfFalse(_), ..] => {
                Op::LocalConstBinJumpIfFalse(a, k, op)
            }
            [LoadLocal(a), LoadLocal(b), Bin(op), ..] => Op::LocalLocalBin(a, b, op),
            [LoadLocal(a), Const(k), Bin(op), ..] => Op::LocalConstBin(a, k, op),
            [LoadLocal(a), Bin(op), Cast(ty), ..] => Op::LocalBinCast(a, op, ty),
            [LoadLocal(a), Bin(op), ..] => Op::LocalBin(a, op),
            [LoadLocal(a), Cast(ty), ..] => Op::LocalCast(a, ty),
            [Const(k), Bin(op), ..] => Op::ConstBin(k, op),
            [Bin(op), Cast(ty), StoreLocal(s), ..] => Op::BinCastStore(op, ty, s),
            [Bin(op), Cast(ty), ..] => Op::BinCast(op, ty),
            [Cast(ty), StoreLocal(s), ..] => Op::CastStore(ty, s),
            [i, ..] => Op::One(i),
            [] => unreachable!("an entry starts at an instruction"),
        }
    }

    /// How many canonical instructions the entry stands for.
    #[cfg(test)]
    pub(crate) fn width(self) -> u64 {
        match self {
            Op::One(_) => 1,
            Op::LocalBin(..)
            | Op::LocalCast(..)
            | Op::ConstBin(..)
            | Op::BinCast(..)
            | Op::CastStore(..) => 2,
            Op::LocalLocalBin(..)
            | Op::LocalConstBin(..)
            | Op::LocalBinCast(..)
            | Op::BinCastStore(..) => 3,
            Op::LocalLocalConstBin(..) | Op::LocalConstBinJumpIfFalse(..) => 4,
        }
    }
}

/// [`bin_in_registers`] over the two values on top of the stack, left
/// operand below; `None` as well when there are fewer than two.
#[inline(always)]
pub(crate) fn bin_on_top(op: BinOp, stack: &[Value]) -> Option<Value> {
    match *stack {
        [.., a, b] => bin_in_registers(op, a, b),
        _ => None,
    }
}

/// The target of the `JumpIfFalse` that ends a fused stretch.
#[inline]
pub(crate) fn jump_target(i: Instr) -> usize {
    match i {
        Instr::JumpIfFalse(t) => t as usize,
        other => unreachable!("a fused stretch ends in {other:?}, not a JumpIfFalse"),
    }
}

/// The execution tables of a module's chunks, in chunk order.
pub(crate) struct FusedTable {
    chunks: Vec<Box<[Op]>>,
}

impl FusedTable {
    fn build(chunks: &[Chunk]) -> FusedTable {
        let table = |code: &[Instr]| (0..code.len()).map(|pc| Op::at(&code[pc..])).collect();
        FusedTable {
            chunks: chunks.iter().map(|c| table(&c.code)).collect(),
        }
    }

    /// The table of chunk `i`, one entry per instruction of its code.
    #[inline]
    pub(crate) fn chunk(&self, i: u16) -> &[Op] {
        &self.chunks[i as usize]
    }
}

/// The slot in [`Module`] that holds its table once a run has built it. A
/// clone starts empty and a module prints the same before and after its
/// first run: the table is a cache of `chunks`, not part of the module.
#[derive(Default)]
pub(crate) struct LazyFused(OnceLock<FusedTable>);

impl Clone for LazyFused {
    fn clone(&self) -> LazyFused {
        LazyFused::default()
    }
}

impl fmt::Debug for LazyFused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("..")
    }
}

impl Module {
    /// The execution tables, built from `chunks` on first use. A module's
    /// chunks must not change once it has run.
    #[inline]
    pub(crate) fn fused(&self) -> &FusedTable {
        self.fused.0.get_or_init(|| FusedTable::build(&self.chunks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_pc_gets_the_longest_stretch_starting_there() {
        use Instr::*;
        let code = [
            LoadLocal(0),
            LoadLocal(1),
            Bin(BinOp::Add),
            Cast(ScalarTy::Int),
            StoreLocal(2),
            LoadGlobal(0),
        ];
        let want = [
            Op::LocalLocalBin(0, 1, BinOp::Add),
            Op::LocalBinCast(1, BinOp::Add, ScalarTy::Int),
            Op::BinCastStore(BinOp::Add, ScalarTy::Int, 2),
            Op::CastStore(ScalarTy::Int, 2),
            Op::One(StoreLocal(2)),
            Op::One(LoadGlobal(0)),
        ];
        let got: Vec<Op> = (0..code.len()).map(|pc| Op::at(&code[pc..])).collect();
        assert_eq!(got, want);
        assert_eq!(got.iter().map(|o| o.width()).sum::<u64>(), 13);
    }

    #[test]
    fn no_stretch_holds_an_env_access_call_return_or_inner_jump() {
        // Every fused entry's instructions, re-spelled canonically: only
        // its last may be a jump, and none may leave the thread.
        fn spelled(op: Op) -> Vec<Instr> {
            use Instr::*;
            match op {
                Op::One(i) => vec![i],
                Op::LocalLocalBin(a, b, op) => vec![LoadLocal(a), LoadLocal(b), Bin(op)],
                Op::LocalConstBin(a, k, op) => vec![LoadLocal(a), Const(k), Bin(op)],
                Op::LocalLocalConstBin(a, b, k, op) => {
                    vec![LoadLocal(a), LoadLocal(b), Const(k.into()), Bin(op)]
                }
                Op::LocalConstBinJumpIfFalse(a, k, op) => {
                    vec![LoadLocal(a), Const(k), Bin(op), JumpIfFalse(7)]
                }
                Op::LocalBin(a, op) => vec![LoadLocal(a), Bin(op)],
                Op::LocalBinCast(a, op, ty) => vec![LoadLocal(a), Bin(op), Cast(ty)],
                Op::LocalCast(a, ty) => vec![LoadLocal(a), Cast(ty)],
                Op::ConstBin(k, op) => vec![Const(k), Bin(op)],
                Op::BinCastStore(op, ty, s) => vec![Bin(op), Cast(ty), StoreLocal(s)],
                Op::BinCast(op, ty) => vec![Bin(op), Cast(ty)],
                Op::CastStore(ty, s) => vec![Cast(ty), StoreLocal(s)],
            }
        }
        use Instr::*;
        let alphabet = [
            Const(0),
            LoadLocal(1),
            StoreLocal(2),
            LoadGlobal(3),
            LoadElem,
            Bin(BinOp::Mul),
            Cast(ScalarTy::Double),
            JumpIfFalse(7),
            Jump(0),
            Call(0),
            Return,
            HostOp(0),
        ];
        let mut fused = 0;
        for &a in &alphabet {
            for &b in &alphabet {
                for &c in &alphabet {
                    let code = [a, b, c];
                    let op = Op::at(&code);
                    let run = spelled(op);
                    assert_eq!(run.len() as u64, op.width());
                    assert_eq!(run[..], code[..run.len()], "{op:?}");
                    if run.len() == 1 {
                        continue;
                    }
                    fused += 1;
                    for (k, i) in run.iter().enumerate() {
                        let jump = matches!(i, Jump(_) | JumpIfFalse(_) | JumpIfTrue(_));
                        assert!(!jump || k + 1 == run.len(), "{op:?}");
                        assert!(
                            matches!(
                                i,
                                Const(_) | LoadLocal(_) | StoreLocal(_) | Bin(_) | Cast(_)
                            ) || jump,
                            "{op:?}"
                        );
                    }
                }
            }
        }
        assert!(fused > 0);
    }

    #[test]
    fn a_table_entry_is_no_larger_than_an_instruction() {
        assert_eq!(std::mem::size_of::<Op>(), std::mem::size_of::<Instr>());
    }
}
