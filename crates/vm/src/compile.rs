//! AST → bytecode compiler.
//!
//! Compiles a semantically checked MiniC [`Program`] into a [`Module`].
//! Multi-dimensional array accesses are linearized here using the declared
//! static dimensions (the same flattening a directive compiler performs
//! when it lowers C arrays to CUDA device pointers).

use crate::bytecode::{Chunk, GlobalInfo, Instr, Module};
use crate::value::Value;
use openarc_minic::ast::*;
use openarc_minic::span::Diagnostic;
use openarc_minic::{Intrinsic, Sema, Span};
use std::collections::HashMap;

/// Name of the synthesized chunk that evaluates global initializers.
pub const GLOBALS_INIT: &str = "__globals_init";

/// Synthetic call name the translator uses to mark runtime operations;
/// compiled to [`Instr::HostOp`].
pub const HOST_OP: &str = "__host_op";

/// Compile a checked program.
pub fn compile(program: &Program, sema: &Sema) -> Result<Module, Diagnostic> {
    let mut module = Module::default();
    for (i, g) in program.globals().enumerate() {
        module.globals.push(GlobalInfo {
            name: g.name.clone(),
            ty: g.ty.clone(),
        });
        module.global_index.insert(g.name.clone(), i as u16);
    }
    // Reserve chunk indices so calls can be emitted before callee bodies.
    let mut funcs: Vec<&Func> = Vec::new();
    for item in &program.items {
        if let Item::Func(f) = item {
            module.func_index.insert(f.name.clone(), funcs.len() as u16);
            funcs.push(f);
        }
    }
    module
        .func_index
        .insert(GLOBALS_INIT.to_string(), funcs.len() as u16);

    for f in &funcs {
        let chunk = FnCompiler::new(&module, sema, f).compile()?;
        module.chunks.push(chunk);
    }
    module.chunks.push(compile_globals_init(&module, program)?);
    Ok(module)
}

/// Build the `__globals_init` chunk that stores every global initializer.
fn compile_globals_init(module: &Module, program: &Program) -> Result<Chunk, Diagnostic> {
    let mut chunk = Chunk {
        name: GLOBALS_INIT.to_string(),
        ..Default::default()
    };
    for g in program.globals() {
        if let Some(init) = &g.init {
            let slot = module.global_slot(&g.name).expect("global slot");
            // Initializers are constant (checked by sema); fold them here.
            let v = const_eval(init).ok_or_else(|| {
                Diagnostic::error(
                    format!(
                        "global `{}` initializer is not a supported constant",
                        g.name
                    ),
                    g.span,
                )
            })?;
            let elem = match &g.ty {
                Ty::Scalar(s) => *s,
                other => {
                    return Err(Diagnostic::error(
                        format!(
                            "global `{}` of type `{other}` cannot have an initializer",
                            g.name
                        ),
                        g.span,
                    ))
                }
            };
            let c = chunk.add_const(v.cast(elem));
            chunk.code.push(Instr::Const(c));
            chunk.code.push(Instr::StoreGlobal(slot));
        }
    }
    chunk.code.push(Instr::ReturnVoid);
    Ok(chunk)
}

/// Constant-fold a literal expression (global initializers).
fn const_eval(e: &Expr) -> Option<Value> {
    match &e.kind {
        ExprKind::IntLit(v) => Some(Value::Int(*v)),
        ExprKind::FloatLit(v, true) => Some(Value::F32(*v as f32)),
        ExprKind::FloatLit(v, false) => Some(Value::F64(*v)),
        ExprKind::Unary {
            op: UnOp::Neg,
            expr,
        } => crate::interp::eval_un(UnOp::Neg, const_eval(expr)?).ok(),
        ExprKind::Binary { op, lhs, rhs } => {
            let a = const_eval(lhs)?;
            let b = const_eval(rhs)?;
            crate::interp::eval_bin(*op, a, b).ok()
        }
        ExprKind::Cast {
            ty: Ty::Scalar(s),
            expr,
        } => Some(const_eval(expr)?.cast(*s)),
        ExprKind::SizeOf(s) => Some(Value::Int(s.size_bytes() as i64)),
        _ => None,
    }
}

struct LoopCtx {
    break_jumps: Vec<usize>,
    continue_jumps: Vec<usize>,
}

struct FnCompiler<'a> {
    module: &'a Module,
    sema: &'a Sema,
    func: &'a Func,
    chunk: Chunk,
    locals: HashMap<String, u16>,
    loops: Vec<LoopCtx>,
    /// Name of the variable currently being assigned (labels mallocs).
    malloc_target: String,
}

impl<'a> FnCompiler<'a> {
    fn new(module: &'a Module, sema: &'a Sema, func: &'a Func) -> Self {
        FnCompiler {
            module,
            sema,
            func,
            chunk: Chunk {
                name: func.name.clone(),
                ..Default::default()
            },
            locals: HashMap::new(),
            loops: Vec::new(),
            malloc_target: "malloc".to_string(),
        }
    }

    fn err(&self, msg: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(msg, span)
    }

    fn compile(mut self) -> Result<Chunk, Diagnostic> {
        // Parameters occupy the first slots.
        for p in &self.func.params {
            self.add_local(&p.name, p.ty.clone());
        }
        self.chunk.n_params = self.func.params.len() as u16;
        // Pre-allocate slots for every local declaration so nested scopes
        // resolve (sema guarantees per-function uniqueness).
        let mut decls: Vec<(String, Ty, Span)> = Vec::new();
        walk_stmts(&self.func.body, &mut |s| {
            if let StmtKind::Decl(d) = &s.kind {
                decls.push((d.name.clone(), d.ty.clone(), d.span));
            }
        });
        for (name, ty, span) in decls {
            if matches!(ty, Ty::Array(..)) {
                return Err(self.err(
                    format!("local array `{name}` is unsupported; use a global or malloc"),
                    span,
                ));
            }
            self.add_local(&name, ty);
        }
        self.block(&self.func.body)?;
        self.chunk.code.push(Instr::ReturnVoid);
        self.chunk.n_locals = self.chunk.local_names.len() as u16;
        Ok(self.chunk)
    }

    fn add_local(&mut self, name: &str, ty: Ty) -> u16 {
        let slot = self.chunk.local_names.len() as u16;
        self.chunk.local_names.push(name.to_string());
        self.chunk.local_tys.push(ty);
        self.locals.insert(name.to_string(), slot);
        slot
    }

    fn here(&self) -> usize {
        self.chunk.code.len()
    }

    fn emit(&mut self, i: Instr) {
        self.chunk.code.push(i);
    }

    fn emit_jump(&mut self, make: fn(u32) -> Instr) -> usize {
        let at = self.here();
        self.chunk.code.push(make(u32::MAX));
        at
    }

    fn patch(&mut self, at: usize) {
        let target = self.here() as u32;
        self.chunk.code[at] = match self.chunk.code[at] {
            Instr::Jump(_) => Instr::Jump(target),
            Instr::JumpIfFalse(_) => Instr::JumpIfFalse(target),
            Instr::JumpIfTrue(_) => Instr::JumpIfTrue(target),
            other => panic!("patching non-jump {other:?}"),
        };
    }

    fn block(&mut self, b: &Block) -> Result<(), Diagnostic> {
        for s in &b.stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), Diagnostic> {
        match &s.kind {
            StmtKind::Decl(d) => {
                if let Some(init) = &d.init {
                    let slot = self.locals[&d.name];
                    self.malloc_target = d.name.clone();
                    self.expr_value(init)?;
                    self.coerce_to(&d.ty);
                    self.emit(Instr::StoreLocal(slot));
                }
                Ok(())
            }
            StmtKind::Expr(e) => {
                if self.expr(e)? {
                    self.emit(Instr::Pop);
                }
                Ok(())
            }
            StmtKind::Assign { target, op, value } => self.assign(target, *op, value, s.span),
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expr_value(cond)?;
                let jf = self.emit_jump(Instr::JumpIfFalse);
                self.block(then_blk)?;
                match else_blk {
                    Some(e) => {
                        let je = self.emit_jump(Instr::Jump);
                        self.patch(jf);
                        self.block(e)?;
                        self.patch(je);
                    }
                    None => self.patch(jf),
                }
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let top = self.here();
                self.expr_value(cond)?;
                let jf = self.emit_jump(Instr::JumpIfFalse);
                self.loops.push(LoopCtx {
                    break_jumps: vec![],
                    continue_jumps: vec![],
                });
                self.block(body)?;
                let ctx = self.loops.pop().expect("loop ctx");
                for j in ctx.continue_jumps {
                    // continue → re-test condition
                    let t = top as u32;
                    self.chunk.code[j] = Instr::Jump(t);
                }
                self.emit(Instr::Jump(top as u32));
                self.patch(jf);
                for j in ctx.break_jumps {
                    self.patch(j);
                }
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let top = self.here();
                let jf = match cond {
                    Some(c) => {
                        self.expr_value(c)?;
                        Some(self.emit_jump(Instr::JumpIfFalse))
                    }
                    None => None,
                };
                self.loops.push(LoopCtx {
                    break_jumps: vec![],
                    continue_jumps: vec![],
                });
                self.block(body)?;
                let ctx = self.loops.pop().expect("loop ctx");
                let step_at = self.here();
                for j in ctx.continue_jumps {
                    self.chunk.code[j] = Instr::Jump(step_at as u32);
                }
                if let Some(st) = step {
                    self.stmt(st)?;
                }
                self.emit(Instr::Jump(top as u32));
                if let Some(jf) = jf {
                    self.patch(jf);
                }
                for j in ctx.break_jumps {
                    self.patch(j);
                }
                Ok(())
            }
            StmtKind::Block(b) => self.block(b),
            StmtKind::Return(e) => {
                match e {
                    Some(e) => {
                        self.expr_value(e)?;
                        self.coerce_to(&self.func.ret.clone());
                        self.emit(Instr::Return);
                    }
                    None => self.emit(Instr::ReturnVoid),
                }
                Ok(())
            }
            StmtKind::Break => {
                let j = self.emit_jump(Instr::Jump);
                if self.loops.is_empty() {
                    return Err(self.err("`break` outside a loop", s.span));
                }
                self.loops.last_mut().expect("loop ctx").break_jumps.push(j);
                Ok(())
            }
            StmtKind::Continue => {
                let j = self.emit_jump(Instr::Jump);
                if self.loops.is_empty() {
                    return Err(self.err("`continue` outside a loop", s.span));
                }
                self.loops
                    .last_mut()
                    .expect("loop ctx")
                    .continue_jumps
                    .push(j);
                Ok(())
            }
        }
    }

    fn assign(
        &mut self,
        target: &LValue,
        op: AssignOp,
        value: &Expr,
        span: Span,
    ) -> Result<(), Diagnostic> {
        match target {
            LValue::Var(name) => {
                let ty = self
                    .sema
                    .var_ty(&self.func.name, name)
                    .cloned()
                    .ok_or_else(|| self.err(format!("unknown variable `{name}`"), span))?;
                self.malloc_target = name.clone();
                if let Some(bin) = op.binop() {
                    self.load_var(name, span)?;
                    self.expr_value(value)?;
                    self.emit(Instr::Bin(bin));
                } else {
                    self.expr_value(value)?;
                }
                self.coerce_to(&ty);
                self.store_var(name, span)
            }
            LValue::Index { base, indices } => {
                // [handle, idx, value] → StoreElem.
                self.push_handle_and_index(base, indices, span)?;
                if let Some(bin) = op.binop() {
                    self.push_handle_and_index(base, indices, span)?;
                    self.emit(Instr::LoadElem);
                    self.expr_value(value)?;
                    self.emit(Instr::Bin(bin));
                } else {
                    self.expr_value(value)?;
                }
                self.emit(Instr::StoreElem);
                Ok(())
            }
        }
    }

    fn load_var(&mut self, name: &str, span: Span) -> Result<(), Diagnostic> {
        if let Some(slot) = self.locals.get(name) {
            self.emit(Instr::LoadLocal(*slot));
            Ok(())
        } else if let Some(slot) = self.module.global_slot(name) {
            self.emit(Instr::LoadGlobal(slot));
            Ok(())
        } else {
            Err(self.err(format!("unknown variable `{name}`"), span))
        }
    }

    fn store_var(&mut self, name: &str, span: Span) -> Result<(), Diagnostic> {
        if let Some(slot) = self.locals.get(name) {
            self.emit(Instr::StoreLocal(*slot));
            Ok(())
        } else if let Some(slot) = self.module.global_slot(name) {
            self.emit(Instr::StoreGlobal(slot));
            Ok(())
        } else {
            Err(self.err(format!("unknown variable `{name}`"), span))
        }
    }

    /// Insert a cast so the stored value matches the declared scalar type.
    fn coerce_to(&mut self, ty: &Ty) {
        if let Ty::Scalar(s) = ty {
            self.emit(Instr::Cast(*s));
        }
    }

    /// Push `[handle, linear_index]` for `base[indices...]`.
    fn push_handle_and_index(
        &mut self,
        base: &str,
        indices: &[Expr],
        span: Span,
    ) -> Result<(), Diagnostic> {
        let ty = self
            .sema
            .var_ty(&self.func.name, base)
            .cloned()
            .ok_or_else(|| self.err(format!("unknown variable `{base}`"), span))?;
        self.load_var(base, span)?;
        match ty {
            Ty::Ptr(_) => {
                if indices.len() != 1 {
                    return Err(self.err(
                        format!("pointer `{base}` must use exactly one subscript"),
                        span,
                    ));
                }
                self.expr_value(&indices[0])?;
                self.emit(Instr::Cast(ScalarTy::Long));
            }
            Ty::Array(_, dims) => {
                if indices.len() != dims.len() {
                    return Err(self.err(format!("array `{base}` dimension mismatch"), span));
                }
                // linear = ((i0 * d1 + i1) * d2 + i2) ...
                self.expr_value(&indices[0])?;
                self.emit(Instr::Cast(ScalarTy::Long));
                for (k, ix) in indices.iter().enumerate().skip(1) {
                    let dk = self.chunk.add_const(Value::Int(dims[k] as i64));
                    self.emit(Instr::Const(dk));
                    self.emit(Instr::Bin(BinOp::Mul));
                    self.expr_value(ix)?;
                    self.emit(Instr::Cast(ScalarTy::Long));
                    self.emit(Instr::Bin(BinOp::Add));
                }
            }
            other => return Err(self.err(format!("cannot index `{base}` of type `{other}`"), span)),
        }
        Ok(())
    }

    /// Compile an expression that must produce a value.
    fn expr_value(&mut self, e: &Expr) -> Result<(), Diagnostic> {
        if !self.expr(e)? {
            return Err(self.err("expression of type void used as a value", e.span));
        }
        Ok(())
    }

    /// Compile an expression. Returns whether a value was pushed.
    fn expr(&mut self, e: &Expr) -> Result<bool, Diagnostic> {
        match &e.kind {
            ExprKind::IntLit(v) => {
                let c = self.chunk.add_const(Value::Int(*v));
                self.emit(Instr::Const(c));
                Ok(true)
            }
            ExprKind::FloatLit(v, suf) => {
                let val = if *suf {
                    Value::F32(*v as f32)
                } else {
                    Value::F64(*v)
                };
                let c = self.chunk.add_const(val);
                self.emit(Instr::Const(c));
                Ok(true)
            }
            ExprKind::SizeOf(s) => {
                let c = self.chunk.add_const(Value::Int(s.size_bytes() as i64));
                self.emit(Instr::Const(c));
                Ok(true)
            }
            ExprKind::Var(n) => {
                self.load_var(n, e.span)?;
                Ok(true)
            }
            ExprKind::Index { base, indices } => {
                self.push_handle_and_index(base, indices, e.span)?;
                self.emit(Instr::LoadElem);
                Ok(true)
            }
            ExprKind::Unary { op, expr } => {
                self.expr_value(expr)?;
                self.emit(Instr::Un(*op));
                Ok(true)
            }
            ExprKind::Binary { op, lhs, rhs } => {
                match op {
                    BinOp::And => {
                        self.expr_value(lhs)?;
                        let jf1 = self.emit_jump(Instr::JumpIfFalse);
                        self.expr_value(rhs)?;
                        let jf2 = self.emit_jump(Instr::JumpIfFalse);
                        let one = self.chunk.add_const(Value::Int(1));
                        self.emit(Instr::Const(one));
                        let je = self.emit_jump(Instr::Jump);
                        self.patch(jf1);
                        self.patch(jf2);
                        let zero = self.chunk.add_const(Value::Int(0));
                        self.emit(Instr::Const(zero));
                        self.patch(je);
                    }
                    BinOp::Or => {
                        self.expr_value(lhs)?;
                        let jt1 = self.emit_jump(Instr::JumpIfTrue);
                        self.expr_value(rhs)?;
                        let jt2 = self.emit_jump(Instr::JumpIfTrue);
                        let zero = self.chunk.add_const(Value::Int(0));
                        self.emit(Instr::Const(zero));
                        let je = self.emit_jump(Instr::Jump);
                        self.patch(jt1);
                        self.patch(jt2);
                        let one = self.chunk.add_const(Value::Int(1));
                        self.emit(Instr::Const(one));
                        self.patch(je);
                    }
                    _ => {
                        self.expr_value(lhs)?;
                        self.expr_value(rhs)?;
                        self.emit(Instr::Bin(*op));
                    }
                }
                Ok(true)
            }
            ExprKind::Ternary {
                cond,
                then_e,
                else_e,
            } => {
                self.expr_value(cond)?;
                let jf = self.emit_jump(Instr::JumpIfFalse);
                self.expr_value(then_e)?;
                let je = self.emit_jump(Instr::Jump);
                self.patch(jf);
                self.expr_value(else_e)?;
                self.patch(je);
                Ok(true)
            }
            ExprKind::Cast { ty, expr } => {
                // `(T *) malloc(n)` compiles to Malloc.
                if let Ty::Ptr(elem) = ty {
                    if let ExprKind::Call { name, args } = &expr.kind {
                        if name == "malloc" && args.len() == 1 {
                            self.expr_value(&args[0])?;
                            let label = self.chunk.add_label(&self.malloc_target);
                            self.emit(Instr::Malloc(*elem, label));
                            return Ok(true);
                        }
                    }
                    return Err(self.err("unsupported pointer cast", e.span));
                }
                self.expr_value(expr)?;
                if let Ty::Scalar(s) = ty {
                    self.emit(Instr::Cast(*s));
                }
                Ok(true)
            }
            ExprKind::Call { name, args } => self.call(e, name, args),
        }
    }

    fn call(&mut self, e: &Expr, name: &str, args: &[Expr]) -> Result<bool, Diagnostic> {
        if name == HOST_OP {
            // Synthetic runtime-op marker inserted by the translator.
            let id = match args {
                [Expr {
                    kind: ExprKind::IntLit(v),
                    ..
                }] if *v >= 0 && *v <= u16::MAX as i64 => *v as u16,
                _ => return Err(self.err("__host_op requires one small integer literal", e.span)),
            };
            self.emit(Instr::HostOp(id));
            return Ok(false);
        }
        if name == "free" {
            if args.len() != 1 {
                return Err(self.err("free takes one argument", e.span));
            }
            self.expr_value(&args[0])?;
            self.emit(Instr::Free);
            return Ok(false);
        }
        if name == "malloc" {
            return Err(self.err("malloc must be wrapped in a pointer cast", e.span));
        }
        if let Some(intr) = Intrinsic::from_name(name) {
            if args.len() != intr.arity() {
                return Err(self.err(
                    format!("intrinsic `{name}` expects {} argument(s)", intr.arity()),
                    e.span,
                ));
            }
            for a in args {
                self.expr_value(a)?;
            }
            self.emit(Instr::CallIntrinsic(intr));
            return Ok(true);
        }
        let idx = *self
            .module
            .func_index
            .get(name)
            .ok_or_else(|| self.err(format!("unknown function `{name}`"), e.span))?;
        for a in args {
            self.expr_value(a)?;
        }
        self.emit(Instr::Call(idx));
        let returns_value = self
            .sema
            .funcs
            .get(name)
            .map(|f| f.ret != Ty::Void)
            .unwrap_or(false);
        Ok(returns_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openarc_minic::frontend;

    fn compile_src(src: &str) -> Module {
        let (p, s) = frontend(src).expect("frontend");
        compile(&p, &s).expect("compile")
    }

    #[test]
    fn compiles_simple_program() {
        let m = compile_src("int n;\nvoid main() { n = 1 + 2; }");
        assert!(m.chunk("main").is_some());
        assert!(m.chunk(GLOBALS_INIT).is_some());
        assert_eq!(m.globals.len(), 1);
    }

    #[test]
    fn local_slots_assigned() {
        let m = compile_src("void f(int a, double b) { int c; c = a; }\nvoid main() { }");
        let c = m.chunk("f").unwrap();
        assert_eq!(c.n_params, 2);
        assert_eq!(c.n_locals, 3);
        assert_eq!(c.local_names, vec!["a", "b", "c"]);
    }

    #[test]
    fn for_decl_locals_hoisted() {
        let m = compile_src("void main() { for (int i = 0; i < 3; i++) { } }");
        let c = m.chunk("main").unwrap();
        assert_eq!(c.local_names, vec!["i"]);
    }

    #[test]
    fn local_array_rejected() {
        let (p, s) = frontend("void main() { double a[4]; }").unwrap();
        assert!(compile(&p, &s).is_err());
    }

    #[test]
    fn array_linearization_constants_present() {
        let m = compile_src("double g[3][5];\nvoid main() { int i; int j; g[i][j] = 1.0; }");
        let c = m.chunk("main").unwrap();
        // The row stride (5) must appear in the constant pool.
        assert!(c.consts.contains(&Value::Int(5)));
    }

    #[test]
    fn global_initializers_in_init_chunk() {
        let m = compile_src("int n = 42;\ndouble eps = 1e-6;\nvoid main() { }");
        let c = m.chunk(GLOBALS_INIT).unwrap();
        assert!(c.consts.contains(&Value::Int(42)));
        assert!(
            c.code
                .iter()
                .filter(|i| matches!(i, Instr::StoreGlobal(_)))
                .count()
                == 2
        );
    }

    #[test]
    fn malloc_compiles_to_malloc_instr() {
        let m = compile_src("double *p;\nint n;\nvoid main() { p = (double *) malloc(n * sizeof(double)); free(p); }");
        let c = m.chunk("main").unwrap();
        assert!(c
            .code
            .iter()
            .any(|i| matches!(i, Instr::Malloc(ScalarTy::Double, _))));
        assert!(c.code.iter().any(|i| matches!(i, Instr::Free)));
    }

    #[test]
    fn break_continue_compile() {
        compile_src(
            "void main() { int i; for (i = 0; i < 10; i++) { if (i == 2) continue; if (i == 5) break; } }",
        );
    }

    #[test]
    fn const_eval_handles_arithmetic() {
        let e = openarc_minic::parse("int x = 6;\nvoid main() { }").unwrap();
        let g = e.globals().next().unwrap();
        assert_eq!(const_eval(g.init.as_ref().unwrap()), Some(Value::Int(6)));
        // `-(i64::MIN)` wraps, as `interp::eval_un` does at run time.
        let e =
            openarc_minic::parse("int x = -(-9223372036854775807 - 1);\nvoid main() { }").unwrap();
        let g = e.globals().next().unwrap();
        assert_eq!(
            const_eval(g.init.as_ref().unwrap()),
            Some(Value::Int(i64::MIN))
        );
    }
}
