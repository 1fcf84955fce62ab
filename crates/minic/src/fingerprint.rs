//! Structural semantics fingerprint of a [`Program`].
//!
//! An FNV-1a hash over everything that determines a program's meaning —
//! item order, names, types, literals, operators, and attached pragma
//! text — while ignoring [`NodeId`]s and [`crate::Span`]s, which change
//! on every re-parse. The invariant the fuzzer's mutator and the
//! pretty-printer property tests rely on:
//!
//! ```text
//! fingerprint(parse(print(ast))) == fingerprint(ast)
//! ```
//!
//! i.e. a print → parse round trip is semantics-preserving even though it
//! renumbers every node.

use crate::ast::*;
use openarc_trace::Fnv;

fn hash_scalar(h: &mut Fnv, s: ScalarTy) {
    // The discriminant is the type's code, its position in `ScalarTy::ALL`.
    h.write(&[s as u8]);
}

fn hash_ty(h: &mut Fnv, ty: &Ty) {
    match ty {
        Ty::Void => {
            h.write(&[10]);
        }
        Ty::Scalar(s) => {
            h.write(&[11]);
            hash_scalar(h, *s);
        }
        Ty::Ptr(s) => {
            h.write(&[12]);
            hash_scalar(h, *s);
        }
        Ty::Array(s, dims) => {
            h.write(&[13]);
            hash_scalar(h, *s);
            h.write_u64(dims.len() as u64);
            for d in dims {
                h.write_u64(*d);
            }
        }
    }
}

fn hash_expr(h: &mut Fnv, e: &Expr) {
    match &e.kind {
        ExprKind::IntLit(v) => {
            h.write(&[20]);
            h.write_u64(*v as u64);
        }
        ExprKind::FloatLit(v, suf) => {
            h.write(&[21]);
            h.write_u64(v.to_bits());
            h.write(&[u8::from(*suf)]);
        }
        ExprKind::Var(n) => {
            h.write(&[22]);
            h.write_str(n);
        }
        ExprKind::Index { base, indices } => {
            h.write(&[23]);
            h.write_str(base);
            h.write_u64(indices.len() as u64);
            for i in indices {
                hash_expr(h, i);
            }
        }
        ExprKind::Unary { op, expr } => {
            h.write(&[24]);
            h.write_str(&op.to_string());
            hash_expr(h, expr);
        }
        ExprKind::Binary { op, lhs, rhs } => {
            h.write(&[25]);
            h.write_str(&op.to_string());
            hash_expr(h, lhs);
            hash_expr(h, rhs);
        }
        ExprKind::Ternary {
            cond,
            then_e,
            else_e,
        } => {
            h.write(&[26]);
            hash_expr(h, cond);
            hash_expr(h, then_e);
            hash_expr(h, else_e);
        }
        ExprKind::Call { name, args } => {
            h.write(&[27]);
            h.write_str(name);
            h.write_u64(args.len() as u64);
            for a in args {
                hash_expr(h, a);
            }
        }
        ExprKind::Cast { ty, expr } => {
            h.write(&[28]);
            hash_ty(h, ty);
            hash_expr(h, expr);
        }
        ExprKind::SizeOf(s) => {
            h.write(&[29]);
            hash_scalar(h, *s);
        }
    }
}

fn hash_lvalue(h: &mut Fnv, lv: &LValue) {
    match lv {
        LValue::Var(n) => {
            h.write(&[30]);
            h.write_str(n);
        }
        LValue::Index { base, indices } => {
            h.write(&[31]);
            h.write_str(base);
            h.write_u64(indices.len() as u64);
            for i in indices {
                hash_expr(h, i);
            }
        }
    }
}

fn hash_decl(h: &mut Fnv, d: &VarDecl) {
    h.write_str(&d.name);
    hash_ty(h, &d.ty);
    h.write_bool(d.init.is_some());
    if let Some(e) = &d.init {
        hash_expr(h, e);
    }
}

fn hash_block(h: &mut Fnv, b: &Block) {
    h.write_u64(b.stmts.len() as u64);
    for s in &b.stmts {
        hash_stmt(h, s);
    }
}

fn hash_stmt(h: &mut Fnv, s: &Stmt) {
    // Pragma text is whitespace-normalized by the lexer, so it is stable
    // across print → parse round trips and carries the directive meaning.
    h.write_u64(s.pragmas.len() as u64);
    for p in &s.pragmas {
        h.write_str(&p.text);
    }
    match &s.kind {
        StmtKind::Decl(d) => {
            h.write(&[40]);
            hash_decl(h, d);
        }
        StmtKind::Expr(e) => {
            h.write(&[41]);
            hash_expr(h, e);
        }
        StmtKind::Assign { target, op, value } => {
            h.write(&[42]);
            hash_lvalue(h, target);
            h.write_str(&op.to_string());
            hash_expr(h, value);
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            h.write(&[43]);
            hash_expr(h, cond);
            hash_block(h, then_blk);
            h.write_bool(else_blk.is_some());
            if let Some(b) = else_blk {
                hash_block(h, b);
            }
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            h.write(&[44]);
            h.write_bool(init.is_some());
            if let Some(s) = init {
                hash_stmt(h, s);
            }
            h.write_bool(cond.is_some());
            if let Some(e) = cond {
                hash_expr(h, e);
            }
            h.write_bool(step.is_some());
            if let Some(s) = step {
                hash_stmt(h, s);
            }
            hash_block(h, body);
        }
        StmtKind::While { cond, body } => {
            h.write(&[45]);
            hash_expr(h, cond);
            hash_block(h, body);
        }
        StmtKind::Block(b) => {
            h.write(&[46]);
            hash_block(h, b);
        }
        StmtKind::Return(e) => {
            h.write(&[47]);
            h.write_bool(e.is_some());
            if let Some(e) = e {
                hash_expr(h, e);
            }
        }
        StmtKind::Break => {
            h.write(&[48]);
        }
        StmtKind::Continue => {
            h.write(&[49]);
        }
    }
}

/// Semantics fingerprint of a whole program. Ignores node ids and spans;
/// covers everything else, in source order.
pub fn fingerprint_program(p: &Program) -> u64 {
    let mut h = Fnv::standard();
    h.write_u64(p.items.len() as u64);
    for it in &p.items {
        match it {
            Item::Global(g) => {
                h.write(&[1]);
                hash_decl(&mut h, g);
            }
            Item::Func(f) => {
                h.write(&[2]);
                h.write_str(&f.name);
                hash_ty(&mut h, &f.ret);
                h.write_u64(f.params.len() as u64);
                for pr in &f.params {
                    h.write_str(&pr.name);
                    hash_ty(&mut h, &pr.ty);
                }
                hash_block(&mut h, &f.body);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::pretty::print_program;

    const SRC: &str = "double a[16];\nint total;\nvoid main() {\n int i;\n #pragma acc data copyin(a)\n {\n #pragma acc kernels loop gang\n for (i = 0; i < 16; i++) { a[i] = a[i] * 2.0 + 1.0; }\n }\n for (i = 0; i < 16; i++) { total = total + (int)a[i]; }\n}";

    #[test]
    fn stable_across_reparse() {
        let p1 = parse(SRC).unwrap();
        let p2 = parse(&print_program(&p1)).unwrap();
        assert_eq!(fingerprint_program(&p1), fingerprint_program(&p2));
    }

    #[test]
    fn sensitive_to_semantic_change() {
        let p1 = parse(SRC).unwrap();
        let p2 = parse(&SRC.replace("2.0", "3.0")).unwrap();
        let p3 = parse(&SRC.replace("copyin", "copyout")).unwrap();
        assert_ne!(fingerprint_program(&p1), fingerprint_program(&p2));
        assert_ne!(fingerprint_program(&p1), fingerprint_program(&p3));
    }

    #[test]
    fn ignores_ids() {
        let mut p1 = parse(SRC).unwrap();
        let before = fingerprint_program(&p1);
        // Renumber: allocating ids changes next_id but not the hash.
        let _ = p1.fresh_id();
        assert_eq!(before, fingerprint_program(&p1));
    }
}
