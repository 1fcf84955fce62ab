//! Semantic analysis: name resolution and type checking.
//!
//! Produces a [`Sema`] table mapping every expression to its type and every
//! variable to its declaration type. The rest of the pipeline (OpenACC
//! validation, dataflow, bytecode compilation, the translator) relies on
//! these tables instead of re-deriving types.
//!
//! Scoping is simplified relative to C: all locals of a function share one
//! flat namespace (shadowing is rejected), which keeps variable identity
//! stable across the CFG — a property the coherence tracker depends on.

use crate::ast::*;
use crate::span::Diagnostic;
use std::collections::HashMap;

/// Signature information for one function.
#[derive(Debug, Clone)]
pub struct FuncInfo {
    /// Return type.
    pub ret: Ty,
    /// Declared parameters, in order.
    pub params: Vec<Param>,
    /// All locals (including parameters), name → type.
    pub locals: HashMap<String, Ty>,
}

/// Result of semantic analysis.
#[derive(Debug, Clone, Default)]
pub struct Sema {
    /// Global variables, name → type.
    pub globals: HashMap<String, Ty>,
    /// Functions, name → signature.
    pub funcs: HashMap<String, FuncInfo>,
    /// Type of every expression node.
    pub expr_ty: HashMap<NodeId, Ty>,
}

impl Sema {
    /// Resolve a variable as seen from inside `func`: local first, then
    /// global.
    pub fn var_ty(&self, func: &str, name: &str) -> Option<&Ty> {
        self.funcs
            .get(func)
            .and_then(|f| f.locals.get(name))
            .or_else(|| self.globals.get(name))
    }

    /// True if `name` inside `func` refers to a global (not shadowed by a
    /// local).
    pub fn is_global(&self, func: &str, name: &str) -> bool {
        !self
            .funcs
            .get(func)
            .map(|f| f.locals.contains_key(name))
            .unwrap_or(false)
            && self.globals.contains_key(name)
    }
}

/// True if `name` is a built-in rather than a user function: `malloc`,
/// `free` or an [`Intrinsic`].
pub fn is_intrinsic(name: &str) -> bool {
    matches!(name, "malloc" | "free") || Intrinsic::from_name(name).is_some()
}

/// Run semantic analysis over a parsed program.
pub fn check(p: &Program) -> Result<Sema, Vec<Diagnostic>> {
    let mut cx = Checker::default();
    for item in &p.items {
        if let Item::Global(g) = item {
            if cx
                .sema
                .globals
                .insert(g.name.clone(), g.ty.clone())
                .is_some()
            {
                cx.errs.push(Diagnostic::error(
                    format!("duplicate global `{}`", g.name),
                    g.span,
                ));
            }
        }
    }
    // Collect signatures first so forward calls resolve.
    for item in &p.items {
        if let Item::Func(f) = item {
            let mut locals = HashMap::new();
            for prm in &f.params {
                locals.insert(prm.name.clone(), prm.ty.clone());
            }
            let info = FuncInfo {
                ret: f.ret.clone(),
                params: f.params.clone(),
                locals,
            };
            if cx.sema.funcs.insert(f.name.clone(), info).is_some() {
                cx.errs.push(Diagnostic::error(
                    format!("duplicate function `{}`", f.name),
                    f.span,
                ));
            }
        }
    }
    for item in &p.items {
        match item {
            Item::Global(g) => {
                if let Some(init) = &g.init {
                    // Global initializers must be constant-evaluable; we
                    // accept any expression without variable references.
                    if !init.reads().is_empty() {
                        cx.errs.push(Diagnostic::error(
                            format!("global `{}` initializer must be constant", g.name),
                            g.span,
                        ));
                    }
                }
            }
            Item::Func(f) => cx.check_func(f),
        }
    }
    if cx.errs.is_empty() {
        Ok(cx.sema)
    } else {
        Err(cx.errs)
    }
}

#[derive(Default)]
struct Checker {
    sema: Sema,
    errs: Vec<Diagnostic>,
}

impl Checker {
    fn check_func(&mut self, f: &Func) {
        self.check_block(f, &f.body);
    }

    fn declare_local(&mut self, f: &Func, d: &VarDecl) {
        let info = self
            .sema
            .funcs
            .get_mut(&f.name)
            .expect("signature collected");
        if self.sema.globals.contains_key(&d.name) {
            self.errs.push(Diagnostic::error(
                format!(
                    "local `{}` shadows a global (shadowing is unsupported)",
                    d.name
                ),
                d.span,
            ));
            return;
        }
        if info.locals.insert(d.name.clone(), d.ty.clone()).is_some() {
            self.errs.push(Diagnostic::error(
                format!("duplicate local `{}` in function `{}`", d.name, f.name),
                d.span,
            ));
        }
    }

    fn check_block(&mut self, f: &Func, b: &Block) {
        for s in &b.stmts {
            self.check_stmt(f, s);
        }
    }

    fn check_stmt(&mut self, f: &Func, s: &Stmt) {
        match &s.kind {
            StmtKind::Decl(d) => {
                self.declare_local(f, d);
                if let Some(init) = &d.init {
                    let ty = self.type_expr(f, init);
                    self.expect_numeric_or_matching_ptr(&d.ty, &ty, s);
                }
            }
            StmtKind::Expr(e) => {
                self.type_expr(f, e);
            }
            StmtKind::Assign { target, op, value } => {
                let tty = self.type_lvalue(f, target, s);
                let vty = self.type_expr(f, value);
                if op.binop().is_some() {
                    if let Some(t) = &tty {
                        if t.is_aggregate() {
                            self.errs.push(Diagnostic::error(
                                "compound assignment to a pointer/array variable",
                                s.span,
                            ));
                        }
                    }
                }
                if let Some(t) = &tty {
                    self.expect_numeric_or_matching_ptr(t, &vty, s);
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expect_scalar(f, cond);
                self.check_block(f, then_blk);
                if let Some(e) = else_blk {
                    self.check_block(f, e);
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.check_stmt(f, i);
                }
                if let Some(c) = cond {
                    self.expect_scalar(f, c);
                }
                if let Some(st) = step {
                    self.check_stmt(f, st);
                }
                self.check_block(f, body);
            }
            StmtKind::While { cond, body } => {
                self.expect_scalar(f, cond);
                self.check_block(f, body);
            }
            StmtKind::Block(b) => self.check_block(f, b),
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    let ty = self.type_expr(f, e);
                    if f.ret == Ty::Void {
                        self.errs.push(Diagnostic::error(
                            "returning a value from a void function",
                            s.span,
                        ));
                    } else {
                        self.expect_numeric_or_matching_ptr(&f.ret, &ty, s);
                    }
                } else if f.ret != Ty::Void {
                    self.errs.push(Diagnostic::error(
                        format!("function `{}` must return a value", f.name),
                        s.span,
                    ));
                }
            }
            StmtKind::Break | StmtKind::Continue => {}
        }
    }

    fn expect_scalar(&mut self, f: &Func, e: &Expr) {
        if let Some(ty) = self.type_expr(f, e) {
            if !matches!(ty, Ty::Scalar(_)) {
                self.errs.push(Diagnostic::error(
                    format!("expected a scalar expression, found `{ty}`"),
                    e.span,
                ));
            }
        }
    }

    fn expect_numeric_or_matching_ptr(&mut self, dst: &Ty, src: &Option<Ty>, s: &Stmt) {
        let Some(src) = src else { return };
        let ok = match (dst, src) {
            (Ty::Scalar(_), Ty::Scalar(_)) => true,
            (Ty::Ptr(a), Ty::Ptr(b)) => a == b,
            // Writing an element of an array/pointer: dst is the elem type,
            // handled by type_lvalue returning Scalar; nothing else allowed.
            _ => false,
        };
        if !ok {
            self.errs.push(Diagnostic::error(
                format!("type mismatch: cannot assign `{src}` to `{dst}`"),
                s.span,
            ));
        }
    }

    fn type_lvalue(&mut self, f: &Func, lv: &LValue, s: &Stmt) -> Option<Ty> {
        match lv {
            LValue::Var(n) => match self.sema.var_ty(&f.name, n).cloned() {
                Some(t) => Some(t),
                None => {
                    self.errs.push(Diagnostic::error(
                        format!("undeclared variable `{n}`"),
                        s.span,
                    ));
                    None
                }
            },
            LValue::Index { base, indices } => {
                for ix in indices {
                    self.expect_scalar(f, ix);
                }
                self.index_elem_ty(f, base, indices.len(), s)
            }
        }
    }

    fn index_elem_ty(&mut self, f: &Func, base: &str, n_indices: usize, s: &Stmt) -> Option<Ty> {
        match self.sema.var_ty(&f.name, base).cloned() {
            None => {
                self.errs.push(Diagnostic::error(
                    format!("undeclared variable `{base}`"),
                    s.span,
                ));
                None
            }
            Some(Ty::Ptr(el)) => {
                if n_indices != 1 {
                    self.errs.push(Diagnostic::error(
                        format!("pointer `{base}` must be indexed with exactly one subscript"),
                        s.span,
                    ));
                }
                Some(Ty::Scalar(el))
            }
            Some(Ty::Array(el, dims)) => {
                if n_indices != dims.len() {
                    self.errs.push(Diagnostic::error(
                        format!(
                            "array `{base}` has {} dimension(s) but {} subscript(s) given",
                            dims.len(),
                            n_indices
                        ),
                        s.span,
                    ));
                }
                Some(Ty::Scalar(el))
            }
            Some(other) => {
                self.errs.push(Diagnostic::error(
                    format!("cannot index non-array `{base}` of type `{other}`"),
                    s.span,
                ));
                None
            }
        }
    }

    fn type_expr(&mut self, f: &Func, e: &Expr) -> Option<Ty> {
        let ty = self.type_expr_inner(f, e)?;
        self.sema.expr_ty.insert(e.id, ty.clone());
        Some(ty)
    }

    fn type_expr_inner(&mut self, f: &Func, e: &Expr) -> Option<Ty> {
        match &e.kind {
            ExprKind::IntLit(_) => Some(Ty::Scalar(ScalarTy::Int)),
            ExprKind::FloatLit(_, true) => Some(Ty::Scalar(ScalarTy::Float)),
            ExprKind::FloatLit(_, false) => Some(Ty::Scalar(ScalarTy::Double)),
            ExprKind::SizeOf(_) => Some(Ty::Scalar(ScalarTy::Long)),
            ExprKind::Var(n) => match self.sema.var_ty(&f.name, n).cloned() {
                Some(t) => Some(t),
                None => {
                    self.errs.push(Diagnostic::error(
                        format!("undeclared variable `{n}`"),
                        e.span,
                    ));
                    None
                }
            },
            ExprKind::Index { base, indices } => {
                for ix in indices {
                    self.expect_scalar(f, ix);
                }
                // Reuse the lvalue logic via a shim statement span.
                let shim = Stmt {
                    id: 0,
                    span: e.span,
                    pragmas: Vec::new(),
                    kind: StmtKind::Break,
                };
                self.index_elem_ty(f, base, indices.len(), &shim)
            }
            ExprKind::Unary { op, expr } => {
                let t = self.type_expr(f, expr)?;
                match t {
                    Ty::Scalar(s) => match op {
                        UnOp::Neg => Some(Ty::Scalar(s)),
                        UnOp::Not => Some(Ty::Scalar(ScalarTy::Int)),
                        UnOp::BitNot => {
                            if s.is_float() {
                                self.errs.push(Diagnostic::error(
                                    "bitwise not on a floating value",
                                    e.span,
                                ));
                            }
                            Some(Ty::Scalar(ScalarTy::Int))
                        }
                    },
                    other => {
                        self.errs.push(Diagnostic::error(
                            format!("unary `{op}` on non-scalar `{other}`"),
                            e.span,
                        ));
                        None
                    }
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.type_expr(f, lhs);
                let rt = self.type_expr(f, rhs);
                let (Some(Ty::Scalar(a)), Some(Ty::Scalar(b))) = (&lt, &rt) else {
                    // Pointer equality comparison is allowed.
                    if op.is_comparison() {
                        if let (Some(Ty::Ptr(a)), Some(Ty::Ptr(b))) = (&lt, &rt) {
                            if a == b {
                                return Some(Ty::Scalar(ScalarTy::Int));
                            }
                        }
                    }
                    self.errs.push(Diagnostic::error(
                        format!("binary `{op}` requires scalar operands"),
                        e.span,
                    ));
                    return None;
                };
                if op.is_comparison() || op.is_logical() {
                    return Some(Ty::Scalar(ScalarTy::Int));
                }
                if matches!(
                    op,
                    BinOp::Rem
                        | BinOp::BitAnd
                        | BinOp::BitOr
                        | BinOp::BitXor
                        | BinOp::Shl
                        | BinOp::Shr
                ) && (a.is_float() || b.is_float())
                {
                    self.errs.push(Diagnostic::error(
                        format!("binary `{op}` requires integer operands"),
                        e.span,
                    ));
                    return None;
                }
                Some(Ty::Scalar(promote(*a, *b)))
            }
            ExprKind::Ternary {
                cond,
                then_e,
                else_e,
            } => {
                self.expect_scalar(f, cond);
                let t1 = self.type_expr(f, then_e)?;
                let t2 = self.type_expr(f, else_e)?;
                match (t1, t2) {
                    (Ty::Scalar(a), Ty::Scalar(b)) => Some(Ty::Scalar(promote(a, b))),
                    (a, b) if a == b => Some(a),
                    (a, b) => {
                        self.errs.push(Diagnostic::error(
                            format!("ternary branches have incompatible types `{a}` / `{b}`"),
                            e.span,
                        ));
                        None
                    }
                }
            }
            ExprKind::Cast { ty, expr } => {
                // `(double *) malloc(...)` is the only pointer cast allowed.
                if let Ty::Ptr(_) = ty {
                    match &expr.kind {
                        ExprKind::Call { name, args } if name == "malloc" => {
                            if args.len() != 1 {
                                self.errs.push(Diagnostic::error(
                                    "malloc takes exactly one argument",
                                    e.span,
                                ));
                            }
                            for a in args {
                                self.expect_scalar(f, a);
                            }
                            return Some(ty.clone());
                        }
                        _ => {
                            self.errs.push(Diagnostic::error(
                                "pointer casts are only supported on malloc calls",
                                e.span,
                            ));
                            return None;
                        }
                    }
                }
                let inner = self.type_expr(f, expr)?;
                if !matches!(inner, Ty::Scalar(_)) {
                    self.errs.push(Diagnostic::error(
                        format!("cannot cast `{inner}` to `{ty}`"),
                        e.span,
                    ));
                    return None;
                }
                Some(ty.clone())
            }
            ExprKind::Call { name, args } => self.type_call(f, e, name, args),
        }
    }

    fn type_call(&mut self, f: &Func, e: &Expr, name: &str, args: &[Expr]) -> Option<Ty> {
        if is_intrinsic(name) {
            return self.type_intrinsic(f, e, name, args);
        }
        let Some(info) = self.sema.funcs.get(name).cloned() else {
            self.errs.push(Diagnostic::error(
                format!("call to unknown function `{name}`"),
                e.span,
            ));
            for a in args {
                self.type_expr(f, a);
            }
            return None;
        };
        if info.params.len() != args.len() {
            self.errs.push(Diagnostic::error(
                format!(
                    "function `{name}` expects {} argument(s), got {}",
                    info.params.len(),
                    args.len()
                ),
                e.span,
            ));
        }
        for (i, a) in args.iter().enumerate() {
            let aty = self.type_expr(f, a);
            if let (Some(prm), Some(aty)) = (info.params.get(i), aty) {
                let ok = match (&prm.ty, &aty) {
                    (Ty::Scalar(_), Ty::Scalar(_)) => true,
                    (Ty::Ptr(x), Ty::Ptr(y)) => x == y,
                    (Ty::Ptr(x), Ty::Array(y, _)) => x == y,
                    _ => false,
                };
                if !ok {
                    self.errs.push(Diagnostic::error(
                        format!(
                            "argument {} of `{name}`: expected `{}`, got `{aty}`",
                            i + 1,
                            prm.ty
                        ),
                        a.span,
                    ));
                }
            }
        }
        Some(info.ret.clone())
    }

    fn type_intrinsic(&mut self, f: &Func, e: &Expr, name: &str, args: &[Expr]) -> Option<Ty> {
        let arg_tys: Vec<Option<Ty>> = args.iter().map(|a| self.type_expr(f, a)).collect();
        let Some(intr) = Intrinsic::from_name(name) else {
            if name == "malloc" {
                self.errs.push(Diagnostic::error(
                    "malloc must be wrapped in a pointer cast, e.g. `(double *) malloc(...)`",
                    e.span,
                ));
                return None;
            }
            if args.len() != 1 || !matches!(arg_tys.first(), Some(Some(Ty::Ptr(_)))) {
                self.errs.push(Diagnostic::error(
                    "free takes exactly one pointer argument",
                    e.span,
                ));
            }
            return Some(Ty::Void);
        };
        let n = intr.arity();
        if args.len() != n {
            self.errs.push(Diagnostic::error(
                format!(
                    "intrinsic `{name}` expects {n} argument(s), got {}",
                    args.len()
                ),
                e.span,
            ));
        }
        for (a, t) in args.iter().zip(&arg_tys) {
            if let Some(t) = t {
                if !matches!(t, Ty::Scalar(_)) {
                    self.errs.push(Diagnostic::error(
                        format!("intrinsic `{name}` requires scalar arguments, got `{t}`"),
                        a.span,
                    ));
                }
            }
        }
        Some(Ty::Scalar(match intr {
            Intrinsic::SqrtF
            | Intrinsic::ExpF
            | Intrinsic::FabsF
            | Intrinsic::LogF
            | Intrinsic::PowF => ScalarTy::Float,
            Intrinsic::Abs => ScalarTy::Int,
            // Integer min/max when both args are integers, else double.
            Intrinsic::Min | Intrinsic::Max
                if arg_tys
                    .iter()
                    .all(|t| matches!(t, Some(Ty::Scalar(s)) if !s.is_float())) =>
            {
                ScalarTy::Int
            }
            _ => ScalarTy::Double,
        }))
    }
}

/// C-style usual arithmetic conversion for our four scalar types.
pub fn promote(a: ScalarTy, b: ScalarTy) -> ScalarTy {
    use ScalarTy::*;
    match (a, b) {
        (Double, _) | (_, Double) => Double,
        (Float, _) | (_, Float) => Float,
        (Long, _) | (_, Long) => Long,
        _ => Int,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn sema_ok(src: &str) -> Sema {
        let p = parse(src).expect("parse");
        check(&p).unwrap_or_else(|e| panic!("sema failed: {e:?}"))
    }

    fn sema_err(src: &str) -> Vec<Diagnostic> {
        let p = parse(src).expect("parse");
        check(&p).expect_err("expected sema error")
    }

    #[test]
    fn resolves_globals_and_locals() {
        let s = sema_ok("int n;\nvoid main() { int i; i = n; }");
        assert_eq!(s.var_ty("main", "i"), Some(&Ty::Scalar(ScalarTy::Int)));
        assert_eq!(s.var_ty("main", "n"), Some(&Ty::Scalar(ScalarTy::Int)));
        assert!(s.is_global("main", "n"));
        assert!(!s.is_global("main", "i"));
    }

    #[test]
    fn promote_follows_c_rules() {
        use ScalarTy::*;
        assert_eq!(promote(Int, Double), Double);
        assert_eq!(promote(Float, Long), Float);
        assert_eq!(promote(Int, Long), Long);
        assert_eq!(promote(Int, Int), Int);
    }

    #[test]
    fn undeclared_variable_rejected() {
        let errs = sema_err("void main() { x = 1; }");
        assert!(errs[0].message.contains("undeclared"));
    }

    #[test]
    fn duplicate_local_rejected() {
        let errs = sema_err("void main() { int i; double i; }");
        assert!(errs[0].message.contains("duplicate local"));
    }

    #[test]
    fn shadowing_rejected() {
        let errs = sema_err("int n;\nvoid main() { int n; }");
        assert!(errs[0].message.contains("shadows"));
    }

    #[test]
    fn index_dimension_mismatch_rejected() {
        let errs = sema_err("double a[4][4];\nvoid main() { a[1] = 0.0; }");
        assert!(errs[0].message.contains("subscript"));
    }

    #[test]
    fn pointer_index_must_be_single() {
        let errs = sema_err("double *p;\nvoid main() { p[1][2] = 0.0; }");
        assert!(errs[0].message.contains("exactly one"));
    }

    #[test]
    fn malloc_needs_cast() {
        let errs = sema_err("double *p;\nint n;\nvoid main() { p = malloc(n); }");
        assert!(errs.iter().any(|e| e.message.contains("cast")));
    }

    #[test]
    fn malloc_with_cast_types_as_pointer() {
        let s = sema_ok("double *p;\nint n;\nvoid main() { p = (double *) malloc(n * sizeof(double)); free(p); }");
        assert_eq!(s.var_ty("main", "p"), Some(&Ty::Ptr(ScalarTy::Double)));
    }

    #[test]
    fn pointer_assignment_same_elem_ok() {
        sema_ok("double *p;\ndouble *q;\nvoid main() { p = q; }");
    }

    #[test]
    fn pointer_assignment_wrong_elem_rejected() {
        let errs = sema_err("double *p;\nfloat *q;\nvoid main() { p = q; }");
        assert!(errs[0].message.contains("type mismatch"));
    }

    #[test]
    fn user_function_call_checked() {
        let s = sema_ok(
            "double dot(double *x, int n) { return x[0] + (double) n; }\ndouble a[8];\nvoid main() { double r; r = dot(a, 8); }",
        );
        assert_eq!(s.funcs["dot"].ret, Ty::Scalar(ScalarTy::Double));
    }

    #[test]
    fn call_arity_mismatch_rejected() {
        let errs = sema_err("double f(int x) { return 0.0; }\nvoid main() { f(1, 2); }");
        assert!(errs[0].message.contains("argument"));
    }

    #[test]
    fn float_rem_rejected() {
        let errs = sema_err("void main() { double d; d = 1.5 % 2.0; }");
        assert!(errs[0].message.contains("integer operands"));
    }

    #[test]
    fn void_return_mismatch() {
        let errs = sema_err("void main() { return 3; }");
        assert!(errs[0].message.contains("void"));
    }

    #[test]
    fn expr_types_recorded() {
        let p = parse("void main() { double d; d = 1 + 2.5; }").unwrap();
        let s = check(&p).unwrap();
        // At least one Double-typed expression exists (the addition).
        assert!(s
            .expr_ty
            .values()
            .any(|t| *t == Ty::Scalar(ScalarTy::Double)));
    }
}
