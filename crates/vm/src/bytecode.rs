//! Bytecode definitions: instructions, chunks, modules.

use crate::value::Value;
use openarc_minic::ast::{BinOp, UnOp};
use openarc_minic::{ScalarTy, Ty};
use std::collections::HashMap;

/// Math intrinsics executable without the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Intrinsic {
    Sqrt,
    Fabs,
    Exp,
    Log,
    Pow,
    Sin,
    Cos,
    Floor,
    Ceil,
    Fmin,
    Fmax,
    Abs,
    Min,
    Max,
    SqrtF,
    ExpF,
    FabsF,
    LogF,
    PowF,
}

impl Intrinsic {
    /// All intrinsics, in code order.
    pub const ALL: [Intrinsic; 19] = [
        Intrinsic::Sqrt,
        Intrinsic::Fabs,
        Intrinsic::Exp,
        Intrinsic::Log,
        Intrinsic::Pow,
        Intrinsic::Sin,
        Intrinsic::Cos,
        Intrinsic::Floor,
        Intrinsic::Ceil,
        Intrinsic::Fmin,
        Intrinsic::Fmax,
        Intrinsic::Abs,
        Intrinsic::Min,
        Intrinsic::Max,
        Intrinsic::SqrtF,
        Intrinsic::ExpF,
        Intrinsic::FabsF,
        Intrinsic::LogF,
        Intrinsic::PowF,
    ];

    /// Map a source-level intrinsic name (excluding malloc/free, which have
    /// dedicated instructions).
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "sqrt" => Intrinsic::Sqrt,
            "fabs" => Intrinsic::Fabs,
            "exp" => Intrinsic::Exp,
            "log" => Intrinsic::Log,
            "pow" => Intrinsic::Pow,
            "sin" => Intrinsic::Sin,
            "cos" => Intrinsic::Cos,
            "floor" => Intrinsic::Floor,
            "ceil" => Intrinsic::Ceil,
            "fmin" => Intrinsic::Fmin,
            "fmax" => Intrinsic::Fmax,
            "abs" => Intrinsic::Abs,
            "min" => Intrinsic::Min,
            "max" => Intrinsic::Max,
            "sqrtf" => Intrinsic::SqrtF,
            "expf" => Intrinsic::ExpF,
            "fabsf" => Intrinsic::FabsF,
            "logf" => Intrinsic::LogF,
            "powf" => Intrinsic::PowF,
            _ => return None,
        })
    }

    /// Number of arguments.
    #[inline]
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Pow
            | Intrinsic::Fmin
            | Intrinsic::Fmax
            | Intrinsic::Min
            | Intrinsic::Max
            | Intrinsic::PowF => 2,
            _ => 1,
        }
    }
}

/// One bytecode instruction of the stack machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Push constant `consts[i]`.
    Const(u16),
    /// Push local slot.
    LoadLocal(u16),
    /// Pop into local slot.
    StoreLocal(u16),
    /// Push global slot (via the environment).
    LoadGlobal(u16),
    /// Pop into global slot (via the environment).
    StoreGlobal(u16),
    /// `[.., handle, idx] → [.., value]`
    LoadElem,
    /// `[.., handle, idx, value] → [..]`
    StoreElem,
    /// Binary arithmetic/comparison (logical ops compile to jumps).
    Bin(BinOp),
    /// Unary op.
    Un(UnOp),
    /// Numeric conversion.
    Cast(ScalarTy),
    /// Unconditional jump to instruction index.
    Jump(u32),
    /// Pop; jump when false (zero).
    JumpIfFalse(u32),
    /// Pop; jump when true (non-zero).
    JumpIfTrue(u32),
    /// Call module function by index; arguments are on the stack.
    Call(u16),
    /// Call a math intrinsic.
    CallIntrinsic(Intrinsic),
    /// `[.., len] → [.., handle]` — allocate via the environment. The u16
    /// indexes [`Chunk::labels`] (the destination variable name, used to
    /// label the allocation in reports).
    Malloc(ScalarTy, u16),
    /// `[.., handle] → [..]` — free via the environment.
    Free,
    /// Return the top of stack.
    Return,
    /// Return no value.
    ReturnVoid,
    /// Opaque runtime operation dispatched to the environment (directive
    /// lowering: data-region entry/exit, updates, kernel launches,
    /// coherence checks). The id indexes the host-side op table.
    HostOp(u16),
    /// Discard the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,
}

/// Compiled body of one function.
#[derive(Debug, Clone, Default)]
pub struct Chunk {
    /// Function name.
    pub name: String,
    /// Instructions.
    pub code: Vec<Instr>,
    /// Constant pool.
    pub consts: Vec<Value>,
    /// Number of parameters (the first locals).
    pub n_params: u16,
    /// Total local slots (including parameters).
    pub n_locals: u16,
    /// Slot → variable name (debugging, race reports).
    pub local_names: Vec<String>,
    /// Slot → declared type.
    pub local_tys: Vec<Ty>,
    /// String table for allocation labels.
    pub labels: Vec<String>,
}

impl Chunk {
    /// Intern a label string.
    pub fn add_label(&mut self, s: &str) -> u16 {
        if let Some(i) = self.labels.iter().position(|l| l == s) {
            return i as u16;
        }
        self.labels.push(s.to_string());
        (self.labels.len() - 1) as u16
    }

    /// Add a constant, deduplicating bit-identical values.
    pub fn add_const(&mut self, v: Value) -> u16 {
        if let Some(i) = self.consts.iter().position(|c| c == &v) {
            return i as u16;
        }
        let i = self.consts.len() as u16;
        self.consts.push(v);
        i
    }
}

/// Metadata of one global variable slot.
#[derive(Debug, Clone)]
pub struct GlobalInfo {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: Ty,
}

/// A compiled program: all function chunks plus the global slot layout.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Compiled functions.
    pub chunks: Vec<Chunk>,
    /// Function name → chunk index.
    pub func_index: HashMap<String, u16>,
    /// Global slots, in declaration order.
    pub globals: Vec<GlobalInfo>,
    /// Global name → slot.
    pub global_index: HashMap<String, u16>,
}

impl Module {
    /// Look up a function chunk by name.
    pub fn chunk(&self, name: &str) -> Option<&Chunk> {
        self.func_index.get(name).map(|i| &self.chunks[*i as usize])
    }

    /// Global slot of a variable name.
    pub fn global_slot(&self, name: &str) -> Option<u16> {
        self.global_index.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ALL` is the intrinsic's code table: the match is exhaustive, so a
    /// new intrinsic does not compile here until it is given a code.
    #[test]
    fn intrinsic_all_is_its_code_table() {
        let code = |i| match i {
            Intrinsic::Sqrt => 0,
            Intrinsic::Fabs => 1,
            Intrinsic::Exp => 2,
            Intrinsic::Log => 3,
            Intrinsic::Pow => 4,
            Intrinsic::Sin => 5,
            Intrinsic::Cos => 6,
            Intrinsic::Floor => 7,
            Intrinsic::Ceil => 8,
            Intrinsic::Fmin => 9,
            Intrinsic::Fmax => 10,
            Intrinsic::Abs => 11,
            Intrinsic::Min => 12,
            Intrinsic::Max => 13,
            Intrinsic::SqrtF => 14,
            Intrinsic::ExpF => 15,
            Intrinsic::FabsF => 16,
            Intrinsic::LogF => 17,
            Intrinsic::PowF => 18,
        };
        for (i, k) in Intrinsic::ALL.into_iter().enumerate() {
            assert_eq!(code(k), i, "{k:?}");
        }
    }

    #[test]
    fn intrinsic_names_round_trip() {
        assert_eq!(Intrinsic::from_name("sqrt"), Some(Intrinsic::Sqrt));
        assert_eq!(Intrinsic::from_name("powf"), Some(Intrinsic::PowF));
        assert_eq!(Intrinsic::from_name("malloc"), None);
        assert_eq!(Intrinsic::Pow.arity(), 2);
        assert_eq!(Intrinsic::Sin.arity(), 1);
    }

    #[test]
    fn const_dedup() {
        let mut c = Chunk::default();
        let a = c.add_const(Value::Int(7));
        let b = c.add_const(Value::Int(7));
        let d = c.add_const(Value::Int(8));
        assert_eq!(a, b);
        assert_ne!(a, d);
        assert_eq!(c.consts.len(), 2);
    }
}
