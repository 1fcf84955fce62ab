//! Wire declarations for compiled [`Module`]s, runtime [`Value`]s and
//! [`MemSpace`] snapshots — the bytecode half of the cache's binary
//! artifact format (`docs/FORMAT.md` §Module/§MemSpace).
//!
//! Floats (constants, buffer contents) are stored as IEEE-754 bit
//! patterns so `NaN`, infinities and `-0.0` survive exactly, and buffer
//! slot indices are preserved so outstanding [`Handle`]s in restored
//! globals stay valid; the encoding is fixed-width little-endian
//! primitives with one-byte opcodes for instructions and value tags, and
//! one-byte codes (positions in each enum's `ALL`) for intrinsics, scalar
//! types and operators. Each shape is declared once below and
//! `openarc_trace::bin::Wire` generates both directions. Decoding never
//! panics; malformed bytes come back as `Err(String)`.

use crate::bytecode::{Chunk, GlobalInfo, Instr, Module};
use crate::mem::{BufData, Buffer, MemSpace};
use crate::value::{Handle, Value};
use openarc_trace::bin::{Wire, Writer};
use openarc_trace::{wire_enum, wire_record};

wire_record!(Handle(slot));

wire_enum!(Value {
    0 => Int(x),
    1 => F32(x),
    2 => F64(x),
    3 => Ptr(h),
});

wire_enum!(BufData {
    0 => I64(v),
    1 => F32(v),
    2 => F64(v),
});

wire_record!(Buffer { elem, label, data });

// Freed slots travel as absent `Option`s, so slot numbering survives.
wire_record!(MemSpace { peak_bytes, bufs } => MemSpace::restore(bufs, peak_bytes));

wire_enum!(Instr {
    0 => Const(x),
    1 => LoadLocal(x),
    2 => StoreLocal(x),
    3 => LoadGlobal(x),
    4 => StoreGlobal(x),
    5 => LoadElem,
    6 => StoreElem,
    7 => Bin(op),
    8 => Un(op),
    9 => Cast(s),
    10 => Jump(x),
    11 => JumpIfFalse(x),
    12 => JumpIfTrue(x),
    13 => Call(x),
    14 => CallIntrinsic(i),
    15 => Malloc(s, label),
    16 => Free,
    17 => Return,
    18 => ReturnVoid,
    19 => HostOp(x),
    20 => Pop,
    21 => Dup,
});

wire_record!(Chunk {
    name,
    code,
    consts,
    n_params,
    n_locals,
    local_names,
    local_tys,
    labels
});

wire_record!(GlobalInfo { name, ty });

// The name→index maps are rebuilt from the chunk and global order, so
// they are not stored.
wire_record!(Module { chunks, globals } => indexed(chunks, globals)?);

/// A module over `chunks` and `globals`, with both name→index maps built
/// from their order.
fn indexed(chunks: Vec<Chunk>, globals: Vec<GlobalInfo>) -> Result<Module, String> {
    let mut func_index = std::collections::HashMap::new();
    for (i, c) in chunks.iter().enumerate() {
        func_index.insert(
            c.name.clone(),
            u16::try_from(i).map_err(|_| "too many chunks".to_string())?,
        );
    }
    let mut global_index = std::collections::HashMap::new();
    for (i, g) in globals.iter().enumerate() {
        global_index.insert(
            g.name.clone(),
            u16::try_from(i).map_err(|_| "too many globals".to_string())?,
        );
    }
    Ok(Module {
        chunks,
        func_index,
        globals,
        global_index,
        ..Module::default()
    })
}

/// Encode a compiled module: the bytes the launch memo fingerprints and
/// the translated artifact's module sections hold.
pub fn write_module(w: &mut Writer, m: &Module) {
    m.put(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use openarc_minic::ast::{BinOp, UnOp};
    use openarc_minic::{Intrinsic, ScalarTy, Ty};
    use openarc_trace::bin::Reader;

    fn sample_module() -> Module {
        let mut c = Chunk {
            name: "main".into(),
            code: vec![
                Instr::Const(0),
                Instr::StoreLocal(0),
                Instr::LoadLocal(0),
                Instr::LoadGlobal(1),
                Instr::StoreGlobal(1),
                Instr::Bin(BinOp::Shl),
                Instr::Un(UnOp::BitNot),
                Instr::Cast(ScalarTy::Float),
                Instr::JumpIfFalse(9),
                Instr::Jump(10),
                Instr::CallIntrinsic(Intrinsic::PowF),
                Instr::Malloc(ScalarTy::Double, 0),
                Instr::Free,
                Instr::HostOp(3),
                Instr::LoadElem,
                Instr::StoreElem,
                Instr::Dup,
                Instr::Pop,
                Instr::Call(0),
                Instr::JumpIfTrue(2),
                Instr::ReturnVoid,
                Instr::Return,
            ],
            consts: vec![],
            n_params: 1,
            n_locals: 3,
            local_names: vec!["a".into(), "b".into(), "c".into()],
            local_tys: vec![
                Ty::Scalar(ScalarTy::Int),
                Ty::Ptr(ScalarTy::Double),
                Ty::Array(ScalarTy::Float, vec![2, 3]),
            ],
            labels: vec!["p".into()],
        };
        c.add_const(Value::Int(-7));
        c.add_const(Value::F64(f64::NAN));
        c.add_const(Value::F32(-0.0f32));
        c.add_const(Value::Ptr(Handle(4)));
        let mut m = Module {
            chunks: vec![c],
            func_index: Default::default(),
            globals: vec![
                GlobalInfo {
                    name: "g".into(),
                    ty: Ty::Array(ScalarTy::Double, vec![8]),
                },
                GlobalInfo {
                    name: "n".into(),
                    ty: Ty::Scalar(ScalarTy::Int),
                },
            ],
            global_index: Default::default(),
            ..Module::default()
        };
        m.func_index.insert("main".into(), 0);
        m.global_index.insert("g".into(), 0);
        m.global_index.insert("n".into(), 1);
        m
    }

    fn encode_module(m: &Module) -> Vec<u8> {
        let mut w = Writer::new();
        write_module(&mut w, m);
        w.into_bytes()
    }

    #[test]
    fn module_round_trips_bit_identically() {
        let m = sample_module();
        let bytes = encode_module(&m);
        let mut r = Reader::new(&bytes);
        let back = Module::get(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.chunks.len(), m.chunks.len());
        let (a, b) = (&back.chunks[0], &m.chunks[0]);
        assert_eq!(a.name, b.name);
        assert_eq!(a.code, b.code);
        assert_eq!(a.local_names, b.local_names);
        assert_eq!(a.local_tys, b.local_tys);
        assert_eq!(a.labels, b.labels);
        for (x, y) in a.consts.iter().zip(&b.consts) {
            match (x, y) {
                (Value::F64(x), Value::F64(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                (Value::F32(x), Value::F32(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                (x, y) => assert_eq!(x, y),
            }
        }
        assert_eq!(back.func_index, m.func_index);
        assert_eq!(back.global_index, m.global_index);
        // Deterministic: re-encoding is byte-identical.
        assert_eq!(encode_module(&back), bytes);
    }

    #[test]
    fn memspace_round_trip_preserves_slots_and_bits() {
        let mut m = MemSpace::new();
        let h1 = m.alloc(ScalarTy::Double, 3, "a");
        let h2 = m.alloc(ScalarTy::Float, 2, "b");
        let h3 = m.alloc(ScalarTy::Int, 2, "c");
        m.store(h1, 0, Value::F64(-0.0)).unwrap();
        m.store(h1, 1, Value::F64(f64::INFINITY)).unwrap();
        m.get_mut(h1).unwrap().set(2, Value::F64(f64::NAN)).unwrap();
        m.store(h2, 1, Value::F32(1.25)).unwrap();
        m.store(h3, 0, Value::Int(-9)).unwrap();
        m.free(h2).unwrap(); // leave a hole so slot numbering matters
        let mut w = Writer::new();
        m.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = <MemSpace as Wire>::get(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.allocated_bytes(), m.allocated_bytes());
        assert_eq!(back.peak_bytes(), m.peak_bytes());
        assert_eq!(back.live_buffers(), m.live_buffers());
        assert_eq!(
            back.load(h1, 0).unwrap().as_f64().to_bits(),
            (-0.0f64).to_bits()
        );
        assert!(back.load(h1, 2).unwrap().as_f64().is_nan());
        assert!(back.load(h2, 0).is_err()); // freed slot stays freed
        assert_eq!(back.load(h3, 0).unwrap(), Value::Int(-9));
        assert_eq!(back.get(h1).unwrap().label, "a");
        // Deterministic re-encode.
        let mut w2 = Writer::new();
        back.put(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn truncation_and_bad_opcodes_never_panic() {
        let bytes = encode_module(&sample_module());
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let res = Module::get(&mut r).and_then(|m| r.expect_end().map(|()| m));
            assert!(res.is_err(), "truncation at {cut} did not error");
        }
        let mut w = Writer::new();
        w.put_u32(1); // one chunk
        w.put_str("f");
        w.put_u32(1); // one instr
        w.put_u8(99); // unknown opcode
        let bytes = w.into_bytes();
        assert!(Module::get(&mut Reader::new(&bytes)).is_err());
        assert!(Value::get(&mut Reader::new(&[9])).is_err());
    }
}
