//! Wire declarations for [`Program`] and [`Sema`] — the frontend half of
//! the cache's binary artifact format (`docs/FORMAT.md` §Program/§Sema).
//!
//! Every [`NodeId`], span and pragma survives bit-for-bit and float
//! literals are stored as IEEE-754 bit patterns; the encoding is
//! fixed-width little-endian primitives, one-byte codes for the closed
//! enum sets (scalar types, operators and intrinsics: positions in each
//! enum's `ALL`) and one-byte tags for the type, expression and statement
//! shapes. Map-shaped tables ([`Sema`]) are emitted in sorted order so
//! identical tables serialize to identical bytes; re-encoding a decoded
//! artifact is byte-identical, which is what the cache's round-trip
//! gate checks.
//!
//! Each type's shape is declared once below; `openarc_trace::bin::Wire`
//! generates its encoder and decoder. Decoding never panics — any
//! malformed byte sequence is an `Err(String)`, which the cache layer
//! treats as a corrupt entry and recomputes.

use crate::ast::*;
use crate::sema::{FuncInfo, Sema};
use crate::span::Span;
use openarc_trace::{wire_codes, wire_enum, wire_record};

// Every tree the parser accepts, with what translation wraps around it,
// decodes under the codec's nesting limit (`Expr` and `Stmt` below are
// its levels).
const _: () = assert!(openarc_trace::bin::MAX_NESTING >= 2 * MAX_DEPTH);

wire_codes!(ScalarTy, BinOp, UnOp, AssignOp, Intrinsic);

wire_enum!(Ty {
    0 => Void,
    1 => Scalar(s),
    2 => Ptr(s),
    3 => Array(s, dims),
});

wire_record!(Span { start, end, line });

wire_record!(nested Expr { id, span, kind });

wire_enum!(ExprKind {
    0 => IntLit(v),
    1 => FloatLit(v, f_suffix),
    2 => Var(name),
    3 => Index { base, indices },
    4 => Unary { op, expr },
    5 => Binary { op, lhs, rhs },
    6 => Ternary { cond, then_e, else_e },
    7 => Call { name, args },
    8 => Cast { ty, expr },
    9 => SizeOf(s),
});

wire_enum!(LValue {
    0 => Var(name),
    1 => Index { base, indices },
});

wire_record!(VarDecl {
    id,
    name,
    ty,
    init,
    span
});

wire_record!(Block { stmts });

wire_record!(Pragma { text, span });

wire_record!(nested Stmt {
    id,
    span,
    pragmas,
    kind
});

wire_enum!(StmtKind {
    0 => Decl(vd),
    1 => Expr(e),
    2 => Assign { target, op, value },
    3 => If { cond, then_blk, else_blk },
    4 => For { init, cond, step, body },
    5 => While { cond, body },
    6 => Block(b),
    7 => Return(e),
    8 => Break,
    9 => Continue,
});

wire_record!(Param { name, ty });

wire_record!(Func {
    id,
    name,
    ret,
    params,
    body,
    span
});

wire_enum!(Item {
    0 => Global(vd),
    1 => Func(f),
});

wire_record!(Program { next_id, items });

wire_record!(FuncInfo {
    ret,
    params,
    locals
});

wire_record!(Sema {
    globals,
    funcs,
    expr_ty
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{frontend, print_program};
    use openarc_trace::bin::{Reader, Wire, Writer};

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
        p.put(&mut w);
        w.into_bytes()
    }

    fn encode_sema(s: &Sema) -> Vec<u8> {
        let mut w = Writer::new();
        s.put(&mut w);
        w.into_bytes()
    }

    #[test]
    fn program_round_trips_bit_identically() {
        let (p, _sema) = frontend(SRC).unwrap();
        let bytes = encode_program(&p);
        let mut r = Reader::new(&bytes);
        let back = Program::get(&mut r).unwrap();
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
        let back = Sema::get(&mut r).unwrap();
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
        let back = Program::get(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn truncation_never_panics() {
        let (p, sema) = frontend(SRC).unwrap();
        for bytes in [encode_program(&p), encode_sema(&sema)] {
            for cut in (0..bytes.len()).step_by(7) {
                let mut r = Reader::new(&bytes[..cut]);
                let prog = Program::get(&mut r).and_then(|p| r.expect_end().map(|()| p));
                assert!(prog.is_err(), "program truncation at {cut} did not error");
                let mut r = Reader::new(&bytes[..cut]);
                // Sema decode over a truncated/foreign prefix must error or
                // at minimum not consume past the end — it must never panic.
                let _ = Sema::get(&mut r);
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
        assert!(Program::get(&mut Reader::new(&bytes)).is_err());
    }
}
