//! Binary codec for [`Program`] and [`Sema`] — the frontend half of the
//! cache's binary artifact format (`docs/FORMAT.md` §Program/§Sema).
//!
//! Every [`NodeId`], span and pragma survives bit-for-bit and float
//! literals are stored as IEEE-754 bit patterns; the encoding is
//! fixed-width little-endian primitives, one-byte codes for the closed
//! enum sets (scalar types and operators: positions in each enum's `ALL`,
//! through `Writer::put_code`/`Reader::code`) and one-byte tags for the
//! type, expression and statement shapes.
//! Map-shaped tables ([`Sema`]) are emitted in sorted order so
//! identical tables serialize to identical bytes; re-encoding a decoded
//! artifact is byte-identical, which is what the cache's round-trip
//! gate checks.
//!
//! Decoding never panics — any malformed byte sequence is an
//! `Err(String)`, which the cache layer treats as a corrupt entry and
//! recomputes.

use crate::ast::*;
use crate::sema::{FuncInfo, Sema};
use crate::span::Span;
use openarc_trace::bin::{Reader, Writer};

type R<T> = Result<T, String>;

// ---------------------------------------------------------------------------
// Types

/// Encode a MiniC type: a one-byte tag (`void`=0, `scalar`=1, `ptr`=2,
/// `array`=3) followed by the scalar code and, for arrays, a dimension
/// sequence (`u32` count + `u64` extents).
pub fn write_ty(w: &mut Writer, ty: &Ty) {
    match ty {
        Ty::Void => w.put_u8(0),
        Ty::Scalar(s) => {
            w.put_u8(1);
            w.put_code(&ScalarTy::ALL, *s);
        }
        Ty::Ptr(s) => {
            w.put_u8(2);
            w.put_code(&ScalarTy::ALL, *s);
        }
        Ty::Array(s, dims) => {
            w.put_u8(3);
            w.put_code(&ScalarTy::ALL, *s);
            w.put_seq_len(dims.len());
            for d in dims {
                w.put_u64(*d);
            }
        }
    }
}

/// Decode a type written by [`write_ty`].
pub fn read_ty(r: &mut Reader<'_>) -> R<Ty> {
    match r.u8()? {
        0 => Ok(Ty::Void),
        1 => Ok(Ty::Scalar(r.code(&ScalarTy::ALL, "scalar type")?)),
        2 => Ok(Ty::Ptr(r.code(&ScalarTy::ALL, "scalar type")?)),
        3 => {
            let s = r.code(&ScalarTy::ALL, "scalar type")?;
            let n = r.seq_len()?;
            let mut dims = Vec::with_capacity(n);
            for _ in 0..n {
                dims.push(r.u64()?);
            }
            Ok(Ty::Array(s, dims))
        }
        c => Err(r.err(&format!("unknown type tag {c}"))),
    }
}

// ---------------------------------------------------------------------------
// AST nodes

fn write_span(w: &mut Writer, sp: &Span) {
    w.put_u32(sp.start);
    w.put_u32(sp.end);
    w.put_u32(sp.line);
}

fn read_span(r: &mut Reader<'_>) -> R<Span> {
    Ok(Span {
        start: r.u32()?,
        end: r.u32()?,
        line: r.u32()?,
    })
}

fn write_exprs(w: &mut Writer, exprs: &[Expr]) {
    w.put_seq_len(exprs.len());
    for e in exprs {
        write_expr(w, e);
    }
}

fn read_exprs(r: &mut Reader<'_>) -> R<Vec<Expr>> {
    let n = r.seq_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_expr(r)?);
    }
    Ok(out)
}

fn write_expr(w: &mut Writer, e: &Expr) {
    w.put_u32(e.id);
    write_span(w, &e.span);
    match &e.kind {
        ExprKind::IntLit(v) => {
            w.put_u8(0);
            w.put_i64(*v);
        }
        ExprKind::FloatLit(v, f_suffix) => {
            w.put_u8(1);
            w.put_f64(*v);
            w.put_bool(*f_suffix);
        }
        ExprKind::Var(n) => {
            w.put_u8(2);
            w.put_str(n);
        }
        ExprKind::Index { base, indices } => {
            w.put_u8(3);
            w.put_str(base);
            write_exprs(w, indices);
        }
        ExprKind::Unary { op, expr } => {
            w.put_u8(4);
            w.put_code(&UnOp::ALL, *op);
            write_expr(w, expr);
        }
        ExprKind::Binary { op, lhs, rhs } => {
            w.put_u8(5);
            w.put_code(&BinOp::ALL, *op);
            write_expr(w, lhs);
            write_expr(w, rhs);
        }
        ExprKind::Ternary {
            cond,
            then_e,
            else_e,
        } => {
            w.put_u8(6);
            write_expr(w, cond);
            write_expr(w, then_e);
            write_expr(w, else_e);
        }
        ExprKind::Call { name, args } => {
            w.put_u8(7);
            w.put_str(name);
            write_exprs(w, args);
        }
        ExprKind::Cast { ty, expr } => {
            w.put_u8(8);
            write_ty(w, ty);
            write_expr(w, expr);
        }
        ExprKind::SizeOf(s) => {
            w.put_u8(9);
            w.put_code(&ScalarTy::ALL, *s);
        }
    }
}

fn read_expr(r: &mut Reader<'_>) -> R<Expr> {
    let id = r.u32()?;
    let span = read_span(r)?;
    let kind = match r.u8()? {
        0 => ExprKind::IntLit(r.i64()?),
        1 => ExprKind::FloatLit(r.f64()?, r.bool()?),
        2 => ExprKind::Var(r.string()?),
        3 => ExprKind::Index {
            base: r.string()?,
            indices: read_exprs(r)?,
        },
        4 => ExprKind::Unary {
            op: r.code(&UnOp::ALL, "unary op")?,
            expr: Box::new(read_expr(r)?),
        },
        5 => ExprKind::Binary {
            op: r.code(&BinOp::ALL, "binary op")?,
            lhs: Box::new(read_expr(r)?),
            rhs: Box::new(read_expr(r)?),
        },
        6 => ExprKind::Ternary {
            cond: Box::new(read_expr(r)?),
            then_e: Box::new(read_expr(r)?),
            else_e: Box::new(read_expr(r)?),
        },
        7 => ExprKind::Call {
            name: r.string()?,
            args: read_exprs(r)?,
        },
        8 => ExprKind::Cast {
            ty: read_ty(r)?,
            expr: Box::new(read_expr(r)?),
        },
        9 => ExprKind::SizeOf(r.code(&ScalarTy::ALL, "scalar type")?),
        c => return Err(r.err(&format!("unknown expr tag {c}"))),
    };
    Ok(Expr { id, span, kind })
}

fn write_opt_expr(w: &mut Writer, e: &Option<Expr>) {
    match e {
        None => w.put_u8(0),
        Some(e) => {
            w.put_u8(1);
            write_expr(w, e);
        }
    }
}

fn read_opt_expr(r: &mut Reader<'_>) -> R<Option<Expr>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(read_expr(r)?)),
        c => Err(r.err(&format!("invalid Option tag {c:#04x}"))),
    }
}

fn write_lvalue(w: &mut Writer, lv: &LValue) {
    match lv {
        LValue::Var(n) => {
            w.put_u8(0);
            w.put_str(n);
        }
        LValue::Index { base, indices } => {
            w.put_u8(1);
            w.put_str(base);
            write_exprs(w, indices);
        }
    }
}

fn read_lvalue(r: &mut Reader<'_>) -> R<LValue> {
    match r.u8()? {
        0 => Ok(LValue::Var(r.string()?)),
        1 => Ok(LValue::Index {
            base: r.string()?,
            indices: read_exprs(r)?,
        }),
        c => Err(r.err(&format!("unknown lvalue tag {c}"))),
    }
}

fn write_vardecl(w: &mut Writer, vd: &VarDecl) {
    w.put_u32(vd.id);
    w.put_str(&vd.name);
    write_ty(w, &vd.ty);
    write_opt_expr(w, &vd.init);
    write_span(w, &vd.span);
}

fn read_vardecl(r: &mut Reader<'_>) -> R<VarDecl> {
    Ok(VarDecl {
        id: r.u32()?,
        name: r.string()?,
        ty: read_ty(r)?,
        init: read_opt_expr(r)?,
        span: read_span(r)?,
    })
}

fn write_block(w: &mut Writer, b: &Block) {
    w.put_seq_len(b.stmts.len());
    for s in &b.stmts {
        write_stmt(w, s);
    }
}

fn read_block(r: &mut Reader<'_>) -> R<Block> {
    let n = r.seq_len()?;
    let mut stmts = Vec::with_capacity(n);
    for _ in 0..n {
        stmts.push(read_stmt(r)?);
    }
    Ok(Block { stmts })
}

fn write_stmt(w: &mut Writer, s: &Stmt) {
    w.put_u32(s.id);
    write_span(w, &s.span);
    w.put_seq_len(s.pragmas.len());
    for p in &s.pragmas {
        w.put_str(&p.text);
        write_span(w, &p.span);
    }
    match &s.kind {
        StmtKind::Decl(vd) => {
            w.put_u8(0);
            write_vardecl(w, vd);
        }
        StmtKind::Expr(e) => {
            w.put_u8(1);
            write_expr(w, e);
        }
        StmtKind::Assign { target, op, value } => {
            w.put_u8(2);
            write_lvalue(w, target);
            w.put_code(&AssignOp::ALL, *op);
            write_expr(w, value);
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            w.put_u8(3);
            write_expr(w, cond);
            write_block(w, then_blk);
            match else_blk {
                None => w.put_u8(0),
                Some(b) => {
                    w.put_u8(1);
                    write_block(w, b);
                }
            }
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            w.put_u8(4);
            match init {
                None => w.put_u8(0),
                Some(s) => {
                    w.put_u8(1);
                    write_stmt(w, s);
                }
            }
            write_opt_expr(w, cond);
            match step {
                None => w.put_u8(0),
                Some(s) => {
                    w.put_u8(1);
                    write_stmt(w, s);
                }
            }
            write_block(w, body);
        }
        StmtKind::While { cond, body } => {
            w.put_u8(5);
            write_expr(w, cond);
            write_block(w, body);
        }
        StmtKind::Block(b) => {
            w.put_u8(6);
            write_block(w, b);
        }
        StmtKind::Return(e) => {
            w.put_u8(7);
            write_opt_expr(w, e);
        }
        StmtKind::Break => w.put_u8(8),
        StmtKind::Continue => w.put_u8(9),
    }
}

fn read_opt_stmt(r: &mut Reader<'_>) -> R<Option<Box<Stmt>>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(Box::new(read_stmt(r)?))),
        c => Err(r.err(&format!("invalid Option tag {c:#04x}"))),
    }
}

fn read_stmt(r: &mut Reader<'_>) -> R<Stmt> {
    let id = r.u32()?;
    let span = read_span(r)?;
    let n = r.seq_len()?;
    let mut pragmas = Vec::with_capacity(n);
    for _ in 0..n {
        pragmas.push(Pragma {
            text: r.string()?,
            span: read_span(r)?,
        });
    }
    let kind = match r.u8()? {
        0 => StmtKind::Decl(read_vardecl(r)?),
        1 => StmtKind::Expr(read_expr(r)?),
        2 => StmtKind::Assign {
            target: read_lvalue(r)?,
            op: r.code(&AssignOp::ALL, "assign op")?,
            value: read_expr(r)?,
        },
        3 => StmtKind::If {
            cond: read_expr(r)?,
            then_blk: read_block(r)?,
            else_blk: match r.u8()? {
                0 => None,
                1 => Some(read_block(r)?),
                c => return Err(r.err(&format!("invalid Option tag {c:#04x}"))),
            },
        },
        4 => StmtKind::For {
            init: read_opt_stmt(r)?,
            cond: read_opt_expr(r)?,
            step: read_opt_stmt(r)?,
            body: read_block(r)?,
        },
        5 => StmtKind::While {
            cond: read_expr(r)?,
            body: read_block(r)?,
        },
        6 => StmtKind::Block(read_block(r)?),
        7 => StmtKind::Return(read_opt_expr(r)?),
        8 => StmtKind::Break,
        9 => StmtKind::Continue,
        c => return Err(r.err(&format!("unknown stmt tag {c}"))),
    };
    Ok(Stmt {
        id,
        span,
        pragmas,
        kind,
    })
}

fn write_params(w: &mut Writer, params: &[Param]) {
    w.put_seq_len(params.len());
    for p in params {
        w.put_str(&p.name);
        write_ty(w, &p.ty);
    }
}

fn read_params(r: &mut Reader<'_>) -> R<Vec<Param>> {
    let n = r.seq_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(Param {
            name: r.string()?,
            ty: read_ty(r)?,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Program / Sema

/// Encode a whole program, ids and spans included.
pub fn write_program(w: &mut Writer, p: &Program) {
    w.put_u32(p.next_id);
    w.put_seq_len(p.items.len());
    for it in &p.items {
        match it {
            Item::Global(vd) => {
                w.put_u8(0);
                write_vardecl(w, vd);
            }
            Item::Func(f) => {
                w.put_u8(1);
                w.put_u32(f.id);
                w.put_str(&f.name);
                write_ty(w, &f.ret);
                write_params(w, &f.params);
                write_block(w, &f.body);
                write_span(w, &f.span);
            }
        }
    }
}

/// Decode a program written by [`write_program`].
pub fn read_program(r: &mut Reader<'_>) -> R<Program> {
    let next_id = r.u32()?;
    let n = r.seq_len()?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(match r.u8()? {
            0 => Item::Global(read_vardecl(r)?),
            1 => Item::Func(Func {
                id: r.u32()?,
                name: r.string()?,
                ret: read_ty(r)?,
                params: read_params(r)?,
                body: read_block(r)?,
                span: read_span(r)?,
            }),
            c => return Err(r.err(&format!("unknown item tag {c}"))),
        });
    }
    Ok(Program { items, next_id })
}

/// Encode a semantic-analysis table. Map entries are emitted in sorted
/// order so identical tables serialize to identical bytes.
pub fn write_sema(w: &mut Writer, s: &Sema) {
    let mut globals: Vec<(&String, &Ty)> = s.globals.iter().collect();
    globals.sort_by_key(|(k, _)| k.as_str());
    w.put_seq_len(globals.len());
    for (k, ty) in globals {
        w.put_str(k);
        write_ty(w, ty);
    }
    let mut funcs: Vec<(&String, &FuncInfo)> = s.funcs.iter().collect();
    funcs.sort_by_key(|(k, _)| k.as_str());
    w.put_seq_len(funcs.len());
    for (k, fi) in funcs {
        w.put_str(k);
        write_ty(w, &fi.ret);
        write_params(w, &fi.params);
        let mut locals: Vec<(&String, &Ty)> = fi.locals.iter().collect();
        locals.sort_by_key(|(k, _)| k.as_str());
        w.put_seq_len(locals.len());
        for (k, ty) in locals {
            w.put_str(k);
            write_ty(w, ty);
        }
    }
    let mut expr_ty: Vec<(&NodeId, &Ty)> = s.expr_ty.iter().collect();
    expr_ty.sort_by_key(|(id, _)| **id);
    w.put_seq_len(expr_ty.len());
    for (id, ty) in expr_ty {
        w.put_u32(*id);
        write_ty(w, ty);
    }
}

/// Decode a semantic table written by [`write_sema`].
pub fn read_sema(r: &mut Reader<'_>) -> R<Sema> {
    let mut sema = Sema::default();
    let n = r.seq_len()?;
    for _ in 0..n {
        let name = r.string()?;
        let ty = read_ty(r)?;
        sema.globals.insert(name, ty);
    }
    let n = r.seq_len()?;
    for _ in 0..n {
        let name = r.string()?;
        let ret = read_ty(r)?;
        let params = read_params(r)?;
        let nl = r.seq_len()?;
        let mut locals = std::collections::HashMap::new();
        for _ in 0..nl {
            let lname = r.string()?;
            let lty = read_ty(r)?;
            locals.insert(lname, lty);
        }
        sema.funcs.insert(
            name,
            FuncInfo {
                ret,
                params,
                locals,
            },
        );
    }
    let n = r.seq_len()?;
    for _ in 0..n {
        let id = r.u32()?;
        let ty = read_ty(r)?;
        sema.expr_ty.insert(id, ty);
    }
    Ok(sema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{frontend, print_program};

    const SRC: &str = r#"
double a[16][4];
double *p;
int n;
void scale(double s) {
    int i;
    int j;
    #pragma acc data copy(a)
    {
        #pragma acc kernels loop gang worker
        for (i = 0; i < 16; i++) {
            for (j = 0; j < 4; j = j + 1) {
                a[i][j] = a[i][j] * s + (double) i - 0.5f;
            }
        }
    }
    while (n > 0) {
        if (n % 2 == 0) { n = n / 2; } else { break; }
    }
    p = (double *) malloc(8 * sizeof(double));
    p[0] = sqrt(fabs(-2.0));
    free(p);
    return;
}
void main() {
    scale(3.0);
}
"#;

    fn encode_program(p: &Program) -> Vec<u8> {
        let mut w = Writer::new();
        write_program(&mut w, p);
        w.into_bytes()
    }

    fn encode_sema(s: &Sema) -> Vec<u8> {
        let mut w = Writer::new();
        write_sema(&mut w, s);
        w.into_bytes()
    }

    #[test]
    fn program_round_trips_bit_identically() {
        let (p, _sema) = frontend(SRC).unwrap();
        let bytes = encode_program(&p);
        let mut r = Reader::new(&bytes);
        let back = read_program(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, p);
        assert_eq!(print_program(&back), print_program(&p));
        // Deterministic: re-encoding is byte-identical.
        assert_eq!(encode_program(&back), bytes);
    }

    #[test]
    fn sema_round_trips_bit_identically() {
        let (_p, sema) = frontend(SRC).unwrap();
        let bytes = encode_sema(&sema);
        let mut r = Reader::new(&bytes);
        let back = read_sema(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.globals, sema.globals);
        assert_eq!(back.expr_ty, sema.expr_ty);
        assert_eq!(back.funcs.len(), sema.funcs.len());
        for (name, fi) in &sema.funcs {
            let bfi = back.funcs.get(name).expect("missing func");
            assert_eq!(bfi.ret, fi.ret);
            assert_eq!(bfi.params, fi.params);
            assert_eq!(bfi.locals, fi.locals);
        }
        // Sorted-map encode: re-encoding the decode is byte-identical.
        assert_eq!(encode_sema(&back), bytes);
    }

    #[test]
    fn float_literal_bits_survive() {
        let (p, _) = frontend("double x;\nvoid main() { x = 0.30000000000000004; }").unwrap();
        let bytes = encode_program(&p);
        let back = read_program(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn truncation_never_panics() {
        let (p, sema) = frontend(SRC).unwrap();
        for bytes in [encode_program(&p), encode_sema(&sema)] {
            for cut in (0..bytes.len()).step_by(7) {
                let mut r = Reader::new(&bytes[..cut]);
                let prog = read_program(&mut r).and_then(|p| r.expect_end().map(|()| p));
                assert!(prog.is_err(), "program truncation at {cut} did not error");
                let mut r = Reader::new(&bytes[..cut]);
                // Sema decode over a truncated/foreign prefix must error or
                // at minimum not consume past the end — it must never panic.
                let _ = read_sema(&mut r);
            }
        }
    }

    #[test]
    fn bad_tags_are_errors() {
        let mut w = Writer::new();
        w.put_u32(0); // next_id
        w.put_u32(1); // one item
        w.put_u8(9); // unknown item tag
        let bytes = w.into_bytes();
        assert!(read_program(&mut Reader::new(&bytes)).is_err());
    }
}
