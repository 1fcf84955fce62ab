//! Binary codec for compiled [`Module`]s, runtime [`Value`]s and
//! [`MemSpace`] snapshots — the bytecode half of the cache's binary
//! artifact format (`docs/FORMAT.md` §Module/§MemSpace).
//!
//! Floats (constants, buffer contents) are stored as IEEE-754 bit
//! patterns so `NaN`, infinities and `-0.0` survive exactly, and buffer
//! slot indices are preserved so outstanding [`Handle`]s in restored
//! globals stay valid; the encoding is fixed-width little-endian
//! primitives with one-byte opcodes for instructions and value tags, and
//! one-byte codes (positions in each enum's `ALL`) for intrinsics, scalar
//! types and operators. Decoding never panics; malformed bytes come back as
//! `Err(String)`.

use crate::bytecode::{Chunk, GlobalInfo, Instr, Module};
use crate::mem::{BufData, Buffer, MemSpace};
use crate::value::{Handle, Value};
use openarc_minic::ast::{BinOp, UnOp};
use openarc_minic::binio::{read_ty, write_ty};
use openarc_minic::{Intrinsic, ScalarTy};
use openarc_trace::bin::{Reader, Writer};

type R<T> = Result<T, String>;

// ---------------------------------------------------------------------------
// Values

/// Encode a runtime value: a one-byte tag (`Int`=0, `F32`=1, `F64`=2,
/// `Ptr`=3) followed by the payload; floats as bit patterns.
pub fn write_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Int(x) => {
            w.put_u8(0);
            w.put_i64(*x);
        }
        Value::F32(x) => {
            w.put_u8(1);
            w.put_f32(*x);
        }
        Value::F64(x) => {
            w.put_u8(2);
            w.put_f64(*x);
        }
        Value::Ptr(h) => {
            w.put_u8(3);
            w.put_u32(h.0);
        }
    }
}

/// Decode a value written by [`write_value`].
pub fn read_value(r: &mut Reader<'_>) -> R<Value> {
    match r.u8()? {
        0 => Ok(Value::Int(r.i64()?)),
        1 => Ok(Value::F32(r.f32()?)),
        2 => Ok(Value::F64(r.f64()?)),
        3 => Ok(Value::Ptr(Handle(r.u32()?))),
        c => Err(r.err(&format!("unknown value tag {c}"))),
    }
}

// ---------------------------------------------------------------------------
// Memory

fn write_buffer(w: &mut Writer, b: &Buffer) {
    w.put_code(&ScalarTy::ALL, b.elem);
    w.put_str(&b.label);
    match &b.data {
        BufData::I64(v) => {
            w.put_u8(0);
            w.put_seq_len(v.len());
            for x in v {
                w.put_i64(*x);
            }
        }
        BufData::F32(v) => {
            w.put_u8(1);
            w.put_seq_len(v.len());
            for x in v {
                w.put_f32(*x);
            }
        }
        BufData::F64(v) => {
            w.put_u8(2);
            w.put_seq_len(v.len());
            for x in v {
                w.put_f64(*x);
            }
        }
    }
}

fn read_buffer(r: &mut Reader<'_>) -> R<Buffer> {
    let elem = r.code(&ScalarTy::ALL, "scalar type")?;
    let label = r.string()?;
    let data = match r.u8()? {
        0 => {
            let n = r.seq_len()?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.i64()?);
            }
            BufData::I64(v)
        }
        1 => {
            let n = r.seq_len()?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.f32()?);
            }
            BufData::F32(v)
        }
        2 => {
            let n = r.seq_len()?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.f64()?);
            }
            BufData::F64(v)
        }
        c => return Err(r.err(&format!("unknown buffer data tag {c}"))),
    };
    Ok(Buffer { elem, data, label })
}

/// Encode a memory-space snapshot, preserving slot numbering (freed
/// slots serialize as an absent `Option`).
pub fn write_memspace(w: &mut Writer, m: &MemSpace) {
    w.put_u64(m.peak_bytes());
    w.put_seq_len(m.slots().len());
    for s in m.slots() {
        match s {
            None => w.put_u8(0),
            Some(b) => {
                w.put_u8(1);
                write_buffer(w, b);
            }
        }
    }
}

/// Decode a memory space written by [`write_memspace`].
pub fn read_memspace(r: &mut Reader<'_>) -> R<MemSpace> {
    let peak = r.u64()?;
    let n = r.seq_len()?;
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        slots.push(match r.u8()? {
            0 => None,
            1 => Some(read_buffer(r)?),
            c => return Err(r.err(&format!("invalid Option tag {c:#04x}"))),
        });
    }
    Ok(MemSpace::restore(slots, peak))
}

// ---------------------------------------------------------------------------
// Bytecode

fn write_instr(w: &mut Writer, i: &Instr) {
    match i {
        Instr::Const(x) => {
            w.put_u8(0);
            w.put_u16(*x);
        }
        Instr::LoadLocal(x) => {
            w.put_u8(1);
            w.put_u16(*x);
        }
        Instr::StoreLocal(x) => {
            w.put_u8(2);
            w.put_u16(*x);
        }
        Instr::LoadGlobal(x) => {
            w.put_u8(3);
            w.put_u16(*x);
        }
        Instr::StoreGlobal(x) => {
            w.put_u8(4);
            w.put_u16(*x);
        }
        Instr::LoadElem => w.put_u8(5),
        Instr::StoreElem => w.put_u8(6),
        Instr::Bin(op) => {
            w.put_u8(7);
            w.put_code(&BinOp::ALL, *op);
        }
        Instr::Un(op) => {
            w.put_u8(8);
            w.put_code(&UnOp::ALL, *op);
        }
        Instr::Cast(s) => {
            w.put_u8(9);
            w.put_code(&ScalarTy::ALL, *s);
        }
        Instr::Jump(x) => {
            w.put_u8(10);
            w.put_u32(*x);
        }
        Instr::JumpIfFalse(x) => {
            w.put_u8(11);
            w.put_u32(*x);
        }
        Instr::JumpIfTrue(x) => {
            w.put_u8(12);
            w.put_u32(*x);
        }
        Instr::Call(x) => {
            w.put_u8(13);
            w.put_u16(*x);
        }
        Instr::CallIntrinsic(i) => {
            w.put_u8(14);
            w.put_code(&Intrinsic::ALL, *i);
        }
        Instr::Malloc(s, l) => {
            w.put_u8(15);
            w.put_code(&ScalarTy::ALL, *s);
            w.put_u16(*l);
        }
        Instr::Free => w.put_u8(16),
        Instr::Return => w.put_u8(17),
        Instr::ReturnVoid => w.put_u8(18),
        Instr::HostOp(x) => {
            w.put_u8(19);
            w.put_u16(*x);
        }
        Instr::Pop => w.put_u8(20),
        Instr::Dup => w.put_u8(21),
    }
}

fn read_instr(r: &mut Reader<'_>) -> R<Instr> {
    Ok(match r.u8()? {
        0 => Instr::Const(r.u16()?),
        1 => Instr::LoadLocal(r.u16()?),
        2 => Instr::StoreLocal(r.u16()?),
        3 => Instr::LoadGlobal(r.u16()?),
        4 => Instr::StoreGlobal(r.u16()?),
        5 => Instr::LoadElem,
        6 => Instr::StoreElem,
        7 => Instr::Bin(r.code(&BinOp::ALL, "binary op")?),
        8 => Instr::Un(r.code(&UnOp::ALL, "unary op")?),
        9 => Instr::Cast(r.code(&ScalarTy::ALL, "scalar type")?),
        10 => Instr::Jump(r.u32()?),
        11 => Instr::JumpIfFalse(r.u32()?),
        12 => Instr::JumpIfTrue(r.u32()?),
        13 => Instr::Call(r.u16()?),
        14 => Instr::CallIntrinsic(r.code(&Intrinsic::ALL, "intrinsic")?),
        15 => Instr::Malloc(r.code(&ScalarTy::ALL, "scalar type")?, r.u16()?),
        16 => Instr::Free,
        17 => Instr::Return,
        18 => Instr::ReturnVoid,
        19 => Instr::HostOp(r.u16()?),
        20 => Instr::Pop,
        21 => Instr::Dup,
        c => return Err(r.err(&format!("unknown instr opcode {c}"))),
    })
}

fn write_chunk(w: &mut Writer, c: &Chunk) {
    w.put_str(&c.name);
    w.put_seq_len(c.code.len());
    for i in &c.code {
        write_instr(w, i);
    }
    w.put_seq_len(c.consts.len());
    for v in &c.consts {
        write_value(w, v);
    }
    w.put_u16(c.n_params);
    w.put_u16(c.n_locals);
    w.put_seq_len(c.local_names.len());
    for s in &c.local_names {
        w.put_str(s);
    }
    w.put_seq_len(c.local_tys.len());
    for ty in &c.local_tys {
        write_ty(w, ty);
    }
    w.put_seq_len(c.labels.len());
    for s in &c.labels {
        w.put_str(s);
    }
}

fn read_chunk(r: &mut Reader<'_>) -> R<Chunk> {
    let name = r.string()?;
    let n = r.seq_len()?;
    let mut code = Vec::with_capacity(n);
    for _ in 0..n {
        code.push(read_instr(r)?);
    }
    let n = r.seq_len()?;
    let mut consts = Vec::with_capacity(n);
    for _ in 0..n {
        consts.push(read_value(r)?);
    }
    let n_params = r.u16()?;
    let n_locals = r.u16()?;
    let n = r.seq_len()?;
    let mut local_names = Vec::with_capacity(n);
    for _ in 0..n {
        local_names.push(r.string()?);
    }
    let n = r.seq_len()?;
    let mut local_tys = Vec::with_capacity(n);
    for _ in 0..n {
        local_tys.push(read_ty(r)?);
    }
    let n = r.seq_len()?;
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        labels.push(r.string()?);
    }
    Ok(Chunk {
        name,
        code,
        consts,
        n_params,
        n_locals,
        local_names,
        local_tys,
        labels,
    })
}

/// Encode a compiled module. The name→index maps are rebuilt on decode
/// from the chunk/global declaration order, so they are not stored.
pub fn write_module(w: &mut Writer, m: &Module) {
    w.put_seq_len(m.chunks.len());
    for c in &m.chunks {
        write_chunk(w, c);
    }
    w.put_seq_len(m.globals.len());
    for g in &m.globals {
        w.put_str(&g.name);
        write_ty(w, &g.ty);
    }
}

/// Decode a module written by [`write_module`].
pub fn read_module(r: &mut Reader<'_>) -> R<Module> {
    let n = r.seq_len()?;
    let mut chunks = Vec::with_capacity(n);
    for _ in 0..n {
        chunks.push(read_chunk(r)?);
    }
    let n = r.seq_len()?;
    let mut globals = Vec::with_capacity(n);
    for _ in 0..n {
        globals.push(GlobalInfo {
            name: r.string()?,
            ty: read_ty(r)?,
        });
    }
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use openarc_minic::ast::{BinOp, UnOp};
    use openarc_minic::{ScalarTy, Ty};

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
        let back = read_module(&mut r).unwrap();
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
        write_memspace(&mut w, &m);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = read_memspace(&mut r).unwrap();
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
        write_memspace(&mut w2, &back);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn truncation_and_bad_opcodes_never_panic() {
        let bytes = encode_module(&sample_module());
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let res = read_module(&mut r).and_then(|m| r.expect_end().map(|()| m));
            assert!(res.is_err(), "truncation at {cut} did not error");
        }
        let mut w = Writer::new();
        w.put_u32(1); // one chunk
        w.put_str("f");
        w.put_u32(1); // one instr
        w.put_u8(99); // unknown opcode
        let bytes = w.into_bytes();
        assert!(read_module(&mut Reader::new(&bytes)).is_err());
        assert!(read_value(&mut Reader::new(&[9])).is_err());
    }
}
