//! The OpenACC → device-program translator.
//!
//! This is OpenARC's front half: compute regions are outlined into kernel
//! functions (first parameter = global thread id), multi-dimensional array
//! accesses are flattened, scalars are classified (value parameter /
//! privatized local / recognized reduction / **falsely-shared cell** when
//! recognition is disabled — the §IV-B fault injection), data clauses
//! become per-launch [`DataAction`]s, and every directive statement in the
//! host AST is replaced by a `__host_op(id)` marker dispatched at run time.
//!
//! Every kernel also gets a sequential CPU fallback (`__seq_*`) in the host
//! module: the same body wrapped in a plain loop. The kernel-verification
//! pass (§III-A) runs it as the reference; because the fallback shares the
//! translated body, any divergence observed on the device is attributable
//! to *parallel execution* (races, reduction reordering) — exactly what the
//! paper's tool hunts.
//!
//! One file per pass (DESIGN.md §21): this module holds the options, the
//! output, the translator state with one constructor per synthesized node
//! shape, and statement lowering; `transfers` lowers `data`, `update`,
//! `wait` and `declare` and builds a kernel's data actions; `privatize`
//! collects a region's accesses and classifies its scalars; `outline`
//! extracts loop levels, assembles kernel parameters, rewrites the body and
//! builds the `__seq_*` reference.

mod outline;
mod privatize;
mod transfers;

use crate::instrument::{plan, Instrumentation};
use crate::ir::{DataAction, DataRegionInfo, KernelInfo, RtOp};
use openarc_minic::ast::*;
use openarc_minic::sema::FuncInfo;
use openarc_minic::span::Diagnostic;
use openarc_minic::{Sema, Span};
use openarc_openacc::{directives_of, DataClause, Directive};
use openarc_vm::{compile as vm_compile, Module};

/// Translator configuration.
#[derive(Debug, Clone)]
pub struct TranslateOptions {
    /// Insert memory-transfer verification instrumentation (§III-B).
    pub instrument: bool,
    /// Use optimized check placement (first-access, hoisting) rather than
    /// checking every access.
    pub optimize_checks: bool,
    /// Hoist GPU-side write checks out of kernel-free-transfer loops
    /// (Listing 3). Disabling reproduces the prior schemes the paper
    /// compares against, which miss the per-iteration redundant copyouts.
    pub hoist_gpu_checks: bool,
    /// Automatic privatization of written-first scalars.
    pub auto_privatize: bool,
    /// Automatic reduction recognition.
    pub auto_reduction: bool,
    /// Update statements whose transfers the interactive user has removed:
    /// re-instrumentation treats them as absent (the paper's workflow
    /// recompiles the edited program every iteration).
    pub ignored_update_stmts: std::collections::BTreeSet<openarc_minic::NodeId>,
}

impl Default for TranslateOptions {
    fn default() -> Self {
        TranslateOptions {
            instrument: false,
            optimize_checks: true,
            hoist_gpu_checks: true,
            auto_privatize: true,
            auto_reduction: true,
            ignored_update_stmts: std::collections::BTreeSet::new(),
        }
    }
}

impl TranslateOptions {
    /// These options with every flag the translation never reads set to
    /// its default: a translation key hashes the view. An uninstrumented
    /// translation reads only the privatization and reduction flags;
    /// `hoist_gpu_checks` is read only with `optimize_checks`, and
    /// `ignored_update_stmts` only when both are set (`instrument::plan`).
    pub fn key_view(&self) -> TranslateOptions {
        let default = TranslateOptions::default();
        let optimize = self.instrument && self.optimize_checks;
        let mut view = self.clone();
        if !self.instrument {
            view.optimize_checks = default.optimize_checks;
        }
        if !optimize {
            view.hoist_gpu_checks = default.hoist_gpu_checks;
        }
        if !(optimize && self.hoist_gpu_checks) {
            view.ignored_update_stmts = default.ignored_update_stmts;
        }
        view
    }
}

/// Output of translation.
#[derive(Debug)]
pub struct Translated {
    /// Lowered host program (directives → `__host_op`, plus synthesized
    /// argument globals and `__seq_*` fallbacks).
    pub host_program: Program,
    /// Extended host semantic tables.
    pub host_sema: Sema,
    /// Compiled host module.
    pub host_module: Module,
    /// Kernel program (one function per compute region).
    pub kernel_program: Program,
    /// Compiled kernel module.
    pub kernel_module: Module,
    /// Runtime-op table indexed by `__host_op` ids.
    pub ops: Vec<RtOp>,
    /// Kernel launch table.
    pub kernels: Vec<KernelInfo>,
    /// Structured data region table.
    pub data_regions: Vec<DataRegionInfo>,
    /// Update directive sites: (site label, statement id).
    pub update_sites: Vec<(String, openarc_minic::NodeId)>,
    /// `declare` clause actions applied for the whole program run.
    pub declares: Vec<DataAction>,
}

/// Translate a checked program.
///
/// ```
/// use openarc_core::translate::{translate, TranslateOptions};
/// let src = "double a[8];\nvoid main() {\n int j;\n #pragma acc kernels loop gang\n for (j = 0; j < 8; j++) { a[j] = 1.0; }\n}";
/// let (program, sema) = openarc_minic::frontend(src).unwrap();
/// let tr = translate(&program, &sema, &TranslateOptions::default()).unwrap();
/// assert_eq!(tr.kernels[0].name, "main_kernel0");
/// assert!(tr.kernel_module.chunk("main_kernel0").is_some());
/// ```
pub fn translate(
    program: &Program,
    sema: &Sema,
    opts: &TranslateOptions,
) -> Result<Translated, Vec<Diagnostic>> {
    let mut tx = Tx {
        sema,
        opts,
        ops: Vec::new(),
        kernels: Vec::new(),
        data_regions: Vec::new(),
        synth_globals: Vec::new(),
        seq_funcs: Vec::new(),
        kernel_funcs: Vec::new(),
        next_id: program.next_id,
        errors: Vec::new(),
        region_stack: Vec::new(),
        update_count: 0,
        update_sites: Vec::new(),
        declares: Vec::new(),
        instr: Instrumentation::default(),
        cur_func: String::new(),
    };

    let mut items: Vec<Item> = Vec::new();
    for item in &program.items {
        match item {
            Item::Global(g) => items.push(Item::Global(g.clone())),
            Item::Func(f) => {
                let lowered = tx.lower_func(f);
                items.push(Item::Func(lowered));
            }
        }
    }
    if !tx.errors.is_empty() {
        return Err(tx.errors);
    }
    for g in tx.synth_globals.drain(..).collect::<Vec<_>>() {
        items.push(Item::Global(g));
    }
    for f in tx.seq_funcs.drain(..).collect::<Vec<_>>() {
        items.push(Item::Func(f));
    }
    let host_program = Program {
        items,
        next_id: tx.next_id,
    };

    // Extend the host sema with synthesized globals and functions.
    let mut host_sema = sema.clone();
    for g in host_program.globals() {
        host_sema
            .globals
            .entry(g.name.clone())
            .or_insert_with(|| g.ty.clone());
    }
    for item in &host_program.items {
        if let Item::Func(f) = item {
            host_sema
                .funcs
                .entry(f.name.clone())
                .or_insert_with(|| build_funcinfo(f));
        }
    }
    let host_module = vm_compile(&host_program, &host_sema).map_err(|d| vec![d])?;

    let kernel_program = Program {
        items: tx.kernel_funcs.drain(..).map(Item::Func).collect(),
        next_id: tx.next_id,
    };
    let mut kernel_sema = Sema::default();
    for item in &kernel_program.items {
        if let Item::Func(f) = item {
            kernel_sema.funcs.insert(f.name.clone(), build_funcinfo(f));
        }
    }
    let kernel_module = vm_compile(&kernel_program, &kernel_sema).map_err(|d| vec![d])?;

    Ok(Translated {
        host_program,
        host_sema,
        host_module,
        kernel_program,
        kernel_module,
        ops: tx.ops,
        kernels: tx.kernels,
        data_regions: tx.data_regions,
        update_sites: tx.update_sites,
        declares: tx.declares,
    })
}

/// Build a [`FuncInfo`] for a synthesized function.
fn build_funcinfo(f: &Func) -> FuncInfo {
    let mut locals = std::collections::HashMap::new();
    for p in &f.params {
        locals.insert(p.name.clone(), p.ty.clone());
    }
    walk_stmts(&f.body, &mut |s| {
        if let StmtKind::Decl(d) = &s.kind {
            locals.insert(d.name.clone(), d.ty.clone());
        }
    });
    FuncInfo {
        ret: f.ret.clone(),
        params: f.params.clone(),
        locals,
    }
}

struct Tx<'a> {
    sema: &'a Sema,
    opts: &'a TranslateOptions,
    ops: Vec<RtOp>,
    kernels: Vec<KernelInfo>,
    data_regions: Vec<DataRegionInfo>,
    synth_globals: Vec<VarDecl>,
    seq_funcs: Vec<Func>,
    kernel_funcs: Vec<Func>,
    next_id: NodeId,
    errors: Vec<Diagnostic>,
    region_stack: Vec<(usize, Vec<DataClause>)>,
    update_count: usize,
    update_sites: Vec<(String, NodeId)>,
    declares: Vec<DataAction>,
    instr: Instrumentation,
    cur_func: String,
}

impl Tx<'_> {
    fn id(&mut self) -> NodeId {
        let i = self.next_id;
        self.next_id += 1;
        i
    }

    fn err(&mut self, msg: impl Into<String>, span: Span) {
        self.errors.push(Diagnostic::error(msg, span));
    }

    fn is_global(&self, name: &str) -> bool {
        self.sema.is_global(&self.cur_func, name)
    }

    /// The declared type of `name` in the current function, or a scalar of
    /// type `default` when sema does not know it.
    fn var_ty_or(&self, name: &str, default: ScalarTy) -> Ty {
        self.sema
            .var_ty(&self.cur_func, name)
            .cloned()
            .unwrap_or(Ty::Scalar(default))
    }

    fn scalar_elem(&self, name: &str) -> ScalarTy {
        match self.sema.var_ty(&self.cur_func, name) {
            Some(Ty::Scalar(s)) => *s,
            _ => ScalarTy::Double,
        }
    }

    // ------------------------------------------------- node constructors
    //
    // Every synthesized node is built here, with a fresh id. No module
    // byte depends on the id, only on the shape.

    fn expr(&mut self, kind: ExprKind, span: Span) -> Expr {
        Expr {
            id: self.id(),
            span,
            kind,
        }
    }

    fn var(&mut self, name: &str, span: Span) -> Expr {
        self.expr(ExprKind::Var(name.to_string()), span)
    }

    fn int(&mut self, v: i64, span: Span) -> Expr {
        self.expr(ExprKind::IntLit(v), span)
    }

    fn bin(&mut self, op: BinOp, lhs: Expr, rhs: Expr, span: Span) -> Expr {
        let kind = ExprKind::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        };
        self.expr(kind, span)
    }

    fn stmt(&mut self, kind: StmtKind, span: Span) -> Stmt {
        Stmt {
            id: self.id(),
            span,
            pragmas: Vec::new(),
            kind,
        }
    }

    fn decl(&mut self, name: &str, ty: Ty, init: Option<Expr>, span: Span) -> Stmt {
        let decl = VarDecl {
            id: self.id(),
            name: name.to_string(),
            ty,
            init,
            span,
        };
        self.stmt(StmtKind::Decl(decl), span)
    }

    fn assign(&mut self, target: LValue, op: AssignOp, value: Expr, span: Span) -> Stmt {
        self.stmt(StmtKind::Assign { target, op, value }, span)
    }

    fn assign_var(&mut self, name: &str, value: Expr, span: Span) -> Stmt {
        self.assign(LValue::Var(name.to_string()), AssignOp::Set, value, span)
    }

    fn func(&mut self, name: String, params: Vec<Param>, stmts: Vec<Stmt>, span: Span) -> Func {
        Func {
            id: self.id(),
            name,
            ret: Ty::Void,
            params,
            body: Block { stmts },
            span,
        }
    }

    /// Append `op` to the runtime-op table and return its `__host_op(i);`
    /// marker.
    fn host_op_stmt(&mut self, op: RtOp, span: Span) -> Stmt {
        self.ops.push(op);
        let arg = self.int(self.ops.len() as i64 - 1, span);
        let call = ExprKind::Call {
            name: openarc_vm::HOST_OP.to_string(),
            args: vec![arg],
        };
        let call = self.expr(call, span);
        self.stmt(StmtKind::Expr(call), span)
    }

    fn push_host_ops(
        &mut self,
        ops: impl IntoIterator<Item = RtOp>,
        span: Span,
        out: &mut Vec<Stmt>,
    ) {
        for op in ops {
            let st = self.host_op_stmt(op, span);
            out.push(st);
        }
    }

    fn synth_global(&mut self, name: &str, ty: Ty, span: Span) {
        let id = self.id();
        self.synth_globals.push(VarDecl {
            id,
            name: name.to_string(),
            ty,
            init: None,
            span,
        });
    }

    /// A construct's `if(cond)`: the host evaluates `cond` into the
    /// synthesized global `name` (assignment appended to `out`), which the
    /// executor reads when it reaches the construct. `None` without a
    /// clause, or after reporting a condition that does not parse.
    fn if_global(
        &mut self,
        cond: Option<&str>,
        name: String,
        span: Span,
        out: &mut Vec<Stmt>,
    ) -> Option<String> {
        let text = cond?;
        match openarc_minic::parse_expression(text) {
            Ok(e) => {
                self.synth_global(&name, Ty::Scalar(ScalarTy::Long), span);
                let st = self.assign_var(&name, e, span);
                out.push(st);
                Some(name)
            }
            Err(d) => {
                self.err(format!("bad if(...) condition `{text}`: {d}"), span);
                None
            }
        }
    }

    // ------------------------------------------------------------ lowering

    fn lower_func(&mut self, f: &Func) -> Func {
        self.cur_func = f.name.clone();
        self.instr = if self.opts.instrument {
            match plan(
                f,
                self.sema,
                self.opts.optimize_checks,
                self.opts.hoist_gpu_checks,
                &self.opts.ignored_update_stmts,
            ) {
                Ok(i) => i,
                Err(d) => {
                    self.errors.push(d);
                    Instrumentation::default()
                }
            }
        } else {
            Instrumentation::default()
        };
        // `declare` coverage is function-scoped; don't leak it across
        // functions.
        let saved_regions = std::mem::take(&mut self.region_stack);
        let body = self.lower_block(&f.body);
        self.region_stack = saved_regions;
        Func {
            id: f.id,
            name: f.name.clone(),
            ret: f.ret.clone(),
            params: f.params.clone(),
            body,
            span: f.span,
        }
    }

    fn lower_block(&mut self, b: &Block) -> Block {
        let mut out = Vec::new();
        for s in &b.stmts {
            self.lower_stmt(s, &mut out);
        }
        Block { stmts: out }
    }

    /// Lower one statement, bracketed by its instrumentation ops.
    fn lower_stmt(&mut self, s: &Stmt, out: &mut Vec<Stmt>) {
        self.push_host_ops(
            self.instr.before.get(&s.id).cloned().unwrap_or_default(),
            s.span,
            out,
        );
        self.lower_stmt_inner(s, out);
        self.push_host_ops(
            self.instr.after.get(&s.id).cloned().unwrap_or_default(),
            s.span,
            out,
        );
    }

    fn lower_stmt_inner(&mut self, s: &Stmt, out: &mut Vec<Stmt>) {
        let dirs = match directives_of(s) {
            Ok(d) => d,
            Err(e) => {
                self.errors.push(e);
                return;
            }
        };
        for (d, pr) in &dirs {
            let diags = openarc_openacc::validate_directive(d, self.sema, &self.cur_func, pr.span);
            self.errors.extend(diags);
        }
        // A statement carrying several directives lowers as the first of
        // the highest-ranked kind; `loop` and `cache` lower nothing here.
        let rank = |d: &Directive| match d {
            Directive::Compute(_) => 0,
            Directive::Data(_) => 1,
            Directive::Update(_) => 2,
            Directive::Wait(_) => 3,
            Directive::Declare(_) => 4,
            Directive::HostData { .. } => 5,
            Directive::Loop(_) | Directive::Cache(_) => 6,
        };
        // `seq` on a compute construct's own loop would need a one-thread
        // kernel, a second lowering of its body: refuse it rather than run
        // the iterations in parallel.
        let seq = dirs.iter().any(|(d, _)| match d {
            Directive::Compute(c) => c.loop_spec.seq,
            Directive::Loop(l) => l.seq,
            _ => false,
        });
        match dirs.iter().map(|(d, _)| d).min_by_key(|d| rank(d)) {
            Some(Directive::Compute(_)) if seq => self.err(
                "`loop seq` on a compute construct's own loop is unsupported",
                s.span,
            ),
            Some(Directive::Compute(spec)) => self.lower_compute(s, spec, out),
            Some(Directive::Data(spec)) => self.lower_data(s, spec, out),
            Some(Directive::Update(spec)) => self.lower_update(s, spec, out),
            Some(Directive::Wait(q)) => self.push_host_ops([RtOp::Wait(*q)], s.span, out),
            Some(Directive::Declare(clauses)) => self.lower_declare(clauses),
            // host_data would change semantics: refuse it.
            Some(Directive::HostData { .. }) => {
                self.err("host_data is not supported by this translator", s.span)
            }
            Some(Directive::Loop(_) | Directive::Cache(_)) | None => self.lower_plain(s, out),
        }
    }

    /// A statement without a lowered directive: recurse into control flow.
    fn lower_plain(&mut self, s: &Stmt, out: &mut Vec<Stmt>) {
        let kind = match &s.kind {
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => StmtKind::If {
                cond: cond.clone(),
                then_blk: self.lower_block(then_blk),
                else_blk: else_blk.as_ref().map(|b| self.lower_block(b)),
            },
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let label = loop_label(init.as_deref());
                return self.lower_loop(s, body, label, out, |body| StmtKind::For {
                    init: init.clone(),
                    cond: cond.clone(),
                    step: step.clone(),
                    body,
                });
            }
            StmtKind::While { cond, body } => {
                let label = "while-loop".to_string();
                return self.lower_loop(s, body, label, out, |body| StmtKind::While {
                    cond: cond.clone(),
                    body,
                });
            }
            StmtKind::Block(b) => StmtKind::Block(self.lower_block(b)),
            _ => return out.push(strip_pragmas(s)),
        };
        let st = self.stmt(kind, s.span);
        out.push(st);
    }

    /// A host loop. One whose subtree holds a directive is bracketed by
    /// `LoopEnter`/`LoopExit` and ticks first thing in every iteration, so
    /// reports can name the iteration a transfer happened in.
    fn lower_loop(
        &mut self,
        s: &Stmt,
        body: &Block,
        label: String,
        out: &mut Vec<Stmt>,
        rebuild: impl FnOnce(Block) -> StmtKind,
    ) {
        let wrap = subtree_has_acc(s);
        let mut body = self.lower_block(body);
        if wrap {
            let tick = self.host_op_stmt(RtOp::LoopTick, s.span);
            body.stmts.insert(0, tick);
            self.push_host_ops([RtOp::LoopEnter { label }], s.span, out);
        }
        let st = self.stmt(rebuild(body), s.span);
        out.push(st);
        if wrap {
            self.push_host_ops([RtOp::LoopExit], s.span, out);
        }
    }
}

/// Does this statement's subtree carry any `acc` pragma?
fn subtree_has_acc(s: &Stmt) -> bool {
    let mut found = false;
    walk_stmt(s, &mut |x| {
        if x.pragmas.iter().any(|p| p.text.starts_with("acc")) {
            found = true;
        }
    });
    found
}

/// Clone a statement with pragmas removed (recursively at the top level
/// only — nested pragmas are unreachable once regions are lowered).
fn strip_pragmas(s: &Stmt) -> Stmt {
    let mut c = s.clone();
    c.pragmas.clear();
    c
}

/// Loop label for reports: `i-loop` when the induction variable is known.
fn loop_label(init: Option<&Stmt>) -> String {
    match init.map(|s| &s.kind) {
        Some(StmtKind::Assign {
            target: LValue::Var(v),
            ..
        }) => format!("{v}-loop"),
        Some(StmtKind::Decl(d)) => format!("{}-loop", d.name),
        _ => "loop".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::KernelParam;
    use openarc_minic::frontend;
    use openarc_openacc::ReductionOp;

    fn translate_src(src: &str) -> Translated {
        let (p, s) = frontend(src).expect("frontend");
        translate(&p, &s, &TranslateOptions::default())
            .unwrap_or_else(|e| panic!("translate failed: {e:?}"))
    }

    const COPY_SRC: &str = "double q[100];\ndouble w[100];\nvoid main() {\n int j;\n #pragma acc kernels loop gang worker\n for (j = 0; j < 100; j++) { q[j] = w[j]; }\n}";

    #[test]
    fn outlines_one_kernel() {
        let t = translate_src(COPY_SRC);
        assert_eq!(t.kernels.len(), 1);
        let k = &t.kernels[0];
        assert_eq!(k.name, "main_kernel0");
        assert!(t.kernel_module.chunk("main_kernel0").is_some());
        assert!(t.host_module.chunk(&k.seq_name).is_some());
        assert_eq!(k.gpu_writes, vec!["q"]);
        assert_eq!(k.gpu_reads, vec!["w"]);
    }

    #[test]
    fn default_policy_copies_everything() {
        let t = translate_src(COPY_SRC);
        let k = &t.kernels[0];
        let aq = k.actions.iter().find(|a| a.var == "q").unwrap();
        let aw = k.actions.iter().find(|a| a.var == "w").unwrap();
        assert!(aq.copyin && aq.copyout && aq.map);
        assert!(aw.copyin && !aw.copyout);
    }

    #[test]
    fn data_region_suppresses_kernel_transfers() {
        let src = "double q[10];\ndouble w[10];\nvoid main() {\n int j;\n #pragma acc data create(q, w)\n {\n  #pragma acc kernels loop gang\n  for (j = 0; j < 10; j++) { q[j] = w[j]; }\n }\n}";
        let t = translate_src(src);
        let k = &t.kernels[0];
        for a in &k.actions {
            assert!(!a.copyin && !a.copyout, "{a:?}");
        }
        assert_eq!(t.data_regions.len(), 1);
        assert_eq!(t.data_regions[0].actions.len(), 2);
        assert!(
            !t.data_regions[0].actions[0].copyin,
            "create does not transfer"
        );
    }

    #[test]
    fn kernel_own_clauses_override() {
        let src = "double q[10];\ndouble w[10];\nvoid main() {\n int j;\n #pragma acc kernels loop gang copy(q) copyin(w)\n for (j = 0; j < 10; j++) { q[j] = w[j]; }\n}";
        let t = translate_src(src);
        let k = &t.kernels[0];
        let aq = k.actions.iter().find(|a| a.var == "q").unwrap();
        assert!(aq.copyin && aq.copyout);
        let aw = k.actions.iter().find(|a| a.var == "w").unwrap();
        assert!(aw.copyin && !aw.copyout);
    }

    #[test]
    fn scalar_classification() {
        let src = "double a[10];\ndouble s;\nint n;\nvoid main() {\n int j; double tmp;\n #pragma acc kernels loop gang reduction(+:s)\n for (j = 0; j < 10; j++) { tmp = a[j] * 2.0; s += tmp + (double) n; }\n}";
        let t = translate_src(src);
        let k = &t.kernels[0];
        // tmp auto-privatized (first access is a write), s reduction, n param.
        assert!(k.params.iter().any(
            |p| matches!(p, KernelParam::ReductionSlot { var, op: ReductionOp::Add } if var == "s")
        ));
        assert!(k
            .params
            .iter()
            .any(|p| matches!(p, KernelParam::Scalar { var } if var == "n")));
        assert!(!k
            .params
            .iter()
            .any(|p| matches!(p, KernelParam::SharedCell { var, .. } if var == "tmp")));
        assert_eq!(k.reductions.len(), 1);
    }

    #[test]
    fn auto_reduction_recognized_without_clause() {
        let src = "double a[10];\ndouble s;\nvoid main() {\n int j;\n #pragma acc kernels loop gang\n for (j = 0; j < 10; j++) { s += a[j]; }\n}";
        let t = translate_src(src);
        assert_eq!(
            t.kernels[0].reductions,
            vec![("s".to_string(), ReductionOp::Add)]
        );
    }

    #[test]
    fn disabled_recognition_creates_shared_cell() {
        let src = "double a[10];\ndouble s;\nvoid main() {\n int j;\n #pragma acc kernels loop gang\n for (j = 0; j < 10; j++) { s += a[j]; }\n}";
        let (p, sm) = frontend(src).unwrap();
        let opts = TranslateOptions {
            auto_reduction: false,
            auto_privatize: false,
            ..Default::default()
        };
        let t = translate(&p, &sm, &opts).unwrap();
        assert!(t.kernels[0]
            .params
            .iter()
            .any(|pr| matches!(pr, KernelParam::SharedCell { var, .. } if var == "s")));
        assert!(t.kernels[0].reductions.is_empty());
    }

    #[test]
    fn collapse_two_levels() {
        let src = "double g[8][8];\nvoid main() {\n int i; int j;\n #pragma acc kernels loop gang worker collapse(2)\n for (i = 0; i < 8; i++) for (j = 0; j < 8; j++) { g[i][j] = 1.0; }\n}";
        let t = translate_src(src);
        let k = &t.kernels[0];
        assert!(
            k.params
                .iter()
                .filter(|p| matches!(p, KernelParam::Scalar { var } if var.contains("_lo")))
                .count()
                == 2
        );
        assert!(k
            .params
            .iter()
            .any(|p| matches!(p, KernelParam::Scalar { var } if var.contains("span1"))));
    }

    #[test]
    fn local_bound_captured_via_synth_global() {
        let src = "double a[100];\nvoid main() {\n int j; int n2; n2 = 50;\n #pragma acc kernels loop gang\n for (j = 0; j < n2; j++) { a[j] = 1.0; }\n}";
        let t = translate_src(src);
        // A synthesized global holds the captured bound.
        assert!(t
            .host_program
            .globals()
            .any(|g| g.name.starts_with("__k0_")));
        // And n threads global exists.
        assert!(t.host_module.global_slot("__k0_n").is_some());
    }

    #[test]
    fn update_and_wait_lowered_to_ops() {
        let src = "double b[4];\nvoid main() {\n #pragma acc update host(b)\n #pragma acc wait(1)\n b[0] = 1.0;\n}";
        let t = translate_src(src);
        assert!(t.ops.iter().any(
            |o| matches!(o, RtOp::Update { to_host, .. } if to_host == &vec!["b".to_string()])
        ));
        assert!(t.ops.iter().any(|o| matches!(o, RtOp::Wait(Some(1)))));
    }

    #[test]
    fn loop_context_ops_inserted_around_kernel_loops() {
        let src = "double q[8];\ndouble w[8];\nvoid main() {\n int k; int j;\n for (k = 0; k < 3; k++) {\n  #pragma acc kernels loop gang\n  for (j = 0; j < 8; j++) { q[j] = w[j]; }\n }\n}";
        let t = translate_src(src);
        assert!(t
            .ops
            .iter()
            .any(|o| matches!(o, RtOp::LoopEnter { label } if label == "k-loop")));
        assert!(t.ops.contains(&RtOp::LoopTick));
        assert!(t.ops.contains(&RtOp::LoopExit));
    }

    #[test]
    fn multidim_access_linearized_in_kernel() {
        let src = "double g[4][6];\nvoid main() {\n int i;\n #pragma acc kernels loop gang\n for (i = 0; i < 4; i++) { g[i][2] = 1.0; }\n}";
        let t = translate_src(src);
        let chunk = t.kernel_module.chunk("main_kernel0").unwrap();
        // Row stride 6 must appear in kernel constants.
        assert!(chunk.consts.contains(&openarc_vm::Value::Int(6)));
    }

    #[test]
    fn async_queue_recorded() {
        let src = "double q[8];\ndouble w[8];\nvoid main() {\n int j;\n #pragma acc kernels loop async(1) gang worker copy(q) copyin(w)\n for (j = 0; j < 8; j++) { q[j] = w[j]; }\n #pragma acc wait(1)\n}";
        let t = translate_src(src);
        assert_eq!(t.kernels[0].queue, Some(1));
    }

    #[test]
    fn rejects_unsupported_loop_shape() {
        let src = "double a[8];\nvoid main() {\n int j;\n #pragma acc kernels loop gang\n for (j = 8; j > 0; j--) { a[j-1] = 1.0; }\n}";
        let (p, s) = frontend(src).unwrap();
        assert!(translate(&p, &s, &TranslateOptions::default()).is_err());
    }

    #[test]
    fn rejects_user_call_in_region() {
        let src = "double f(double x) { return x; }\ndouble a[8];\nvoid main() {\n int j;\n #pragma acc kernels loop gang\n for (j = 0; j < 8; j++) { a[j] = f(1.0); }\n}";
        let (p, s) = frontend(src).unwrap();
        assert!(translate(&p, &s, &TranslateOptions::default()).is_err());
    }

    #[test]
    fn validation_catches_bad_directive_vars() {
        let src = "double a[8];\nvoid main() {\n int j;\n #pragma acc kernels loop gang copyin(zzz)\n for (j = 0; j < 8; j++) { a[j] = 1.0; }\n}";
        let (p, s) = frontend(src).unwrap();
        let err = translate(&p, &s, &TranslateOptions::default()).unwrap_err();
        assert!(err.iter().any(|d| d.message.contains("unknown variable")));
    }

    #[test]
    fn instrumented_translation_adds_check_ops() {
        let src = "double a[8];\nint z;\nvoid main() {\n int j;\n z = (int) a[0];\n #pragma acc kernels loop gang\n for (j = 0; j < 8; j++) { a[j] = 1.0; }\n}";
        let (p, s) = frontend(src).unwrap();
        let opts = TranslateOptions {
            instrument: true,
            ..Default::default()
        };
        let t = translate(&p, &s, &opts).unwrap();
        assert!(t.ops.iter().any(|o| matches!(o, RtOp::CheckRead { .. })));
    }
}
#[cfg(test)]
mod escape_tests {
    use super::*;
    use openarc_minic::frontend;

    #[test]
    fn break_out_of_data_region_rejected() {
        let src = "double a[4];\nvoid main() {\n int j;\n for (j = 0; j < 4; j++) {\n  #pragma acc data copyin(a)\n  {\n   if (j == 2) { break; }\n  }\n }\n}";
        let (p, s) = frontend(src).unwrap();
        let err = translate(&p, &s, &TranslateOptions::default()).unwrap_err();
        assert!(
            err.iter()
                .any(|d| d.message.contains("branch out of a structured data region")),
            "{err:?}"
        );
    }

    #[test]
    fn break_within_loop_inside_region_allowed() {
        let src = "double a[8];\nvoid main() {\n int j;\n #pragma acc data copyin(a)\n {\n  for (j = 0; j < 8; j++) { if (j == 2) { break; } }\n }\n}";
        let (p, s) = frontend(src).unwrap();
        assert!(translate(&p, &s, &TranslateOptions::default()).is_ok());
    }

    #[test]
    fn return_inside_data_region_rejected() {
        let src = "double a[4];\nvoid main() {\n #pragma acc data copyin(a)\n {\n  return;\n }\n}";
        let (p, s) = frontend(src).unwrap();
        assert!(translate(&p, &s, &TranslateOptions::default()).is_err());
    }
}

#[cfg(test)]
mod wave_tests {
    use super::*;
    use openarc_minic::frontend;

    fn kernel0(src: &str) -> crate::ir::KernelInfo {
        let (p, s) = frontend(src).unwrap();
        translate(&p, &s, &TranslateOptions::default())
            .unwrap()
            .kernels[0]
            .clone()
    }

    #[test]
    fn workers_times_vector_sets_wave() {
        let k = kernel0(
            "double a[8];\nvoid main() {\n int j;\n #pragma acc kernels loop gang num_workers(8) vector_length(32)\n for (j = 0; j < 8; j++) { a[j] = 1.0; }\n}",
        );
        assert_eq!(k.wave_override, Some(256));
    }

    #[test]
    fn absent_clauses_leave_default() {
        let k = kernel0(
            "double a[8];\nvoid main() {\n int j;\n #pragma acc kernels loop gang worker\n for (j = 0; j < 8; j++) { a[j] = 1.0; }\n}",
        );
        assert_eq!(k.wave_override, None);
    }

    #[test]
    fn single_lane_wave_serializes_thread_execution() {
        // With num_workers(1) vector_length(1), threads run one at a time:
        // the injected shared-temp race cannot interleave, so the result
        // matches the sequential one (the ablation-3 effect, driven from a
        // directive).
        let src = "double a[32];\ndouble tmp;\nvoid main() {\n int j;\n #pragma acc kernels loop gang num_workers(1) vector_length(1)\n for (j = 0; j < 32; j++) { tmp = (double) j; a[j] = tmp + 1.0; }\n}";
        let (p, s) = frontend(src).unwrap();
        let topts = TranslateOptions {
            auto_privatize: false,
            auto_reduction: false,
            ..Default::default()
        };
        let tr = translate(&p, &s, &topts).unwrap();
        let r = crate::exec::execute(&tr, &crate::exec::ExecOptions::default()).unwrap();
        let a = r.global_array(&tr, "a").unwrap();
        assert!((0..32).all(|i| a[i] == i as f64 + 1.0), "{a:?}");
        // The oracle still records the (cross-thread) conflicting accesses.
        assert!(!r.races.is_empty());
    }
}
