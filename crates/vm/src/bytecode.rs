//! Bytecode definitions: instructions, chunks, modules.

use crate::fuse::LazyFused;
use crate::value::Value;
use openarc_minic::ast::{BinOp, UnOp};
use openarc_minic::{Intrinsic, ScalarTy, Ty};
use std::collections::HashMap;

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
    /// The fused execution form of `chunks`, built by the first run.
    pub(crate) fused: LazyFused,
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
