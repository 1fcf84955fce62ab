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

use crate::instrument::{plan, Instrumentation};
use crate::ir::{DataAction, DataRegionInfo, KernelInfo, KernelParam, RtOp};
use openarc_minic::ast::*;
use openarc_minic::sema::FuncInfo;
use openarc_minic::span::Diagnostic;
use openarc_minic::{Sema, Span};
use openarc_openacc::{directives_of, ComputeSpec, DataClause, Directive, ReductionOp};
use openarc_vm::{compile as vm_compile, Module};
use std::collections::{BTreeMap, BTreeSet};

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

    fn push_op(&mut self, op: RtOp) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    fn host_op_stmt(&mut self, op: RtOp, span: Span) -> Stmt {
        let id = self.push_op(op);
        let call_id = self.id();
        let arg_id = self.id();
        let stmt_id = self.id();
        Stmt {
            id: stmt_id,
            span,
            pragmas: Vec::new(),
            kind: StmtKind::Expr(Expr {
                id: call_id,
                span,
                kind: ExprKind::Call {
                    name: openarc_vm::HOST_OP.to_string(),
                    args: vec![Expr {
                        id: arg_id,
                        span,
                        kind: ExprKind::IntLit(id as i64),
                    }],
                },
            }),
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

    fn assign_global_stmt(&mut self, name: &str, value: Expr, span: Span) -> Stmt {
        let id = self.id();
        Stmt {
            id,
            span,
            pragmas: Vec::new(),
            kind: StmtKind::Assign {
                target: LValue::Var(name.to_string()),
                op: AssignOp::Set,
                value,
            },
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

    fn lower_stmt(&mut self, s: &Stmt, out: &mut Vec<Stmt>) {
        // Instrumentation before-ops.
        if let Some(ops) = self.instr.before.get(&s.id).cloned() {
            for op in ops {
                let st = self.host_op_stmt(op, s.span);
                out.push(st);
            }
        }
        self.lower_stmt_inner(s, out);
        if let Some(ops) = self.instr.after.get(&s.id).cloned() {
            for op in ops {
                let st = self.host_op_stmt(op, s.span);
                out.push(st);
            }
        }
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
        // Compute construct.
        if let Some((Directive::Compute(spec), _)) = dirs
            .iter()
            .find(|(d, _)| matches!(d, Directive::Compute(_)))
        {
            let spec = spec.clone();
            self.lower_compute(s, &spec, out);
            return;
        }
        // Data region.
        if let Some((Directive::Data(dspec), _)) =
            dirs.iter().find(|(d, _)| matches!(d, Directive::Data(_)))
        {
            let mut actions = Vec::new();
            for c in &dspec.clauses {
                for item in &c.items {
                    actions.push(DataAction {
                        var: item.name.clone(),
                        map: c.kind.allocates() || c.kind.checks_present(),
                        copyin: c.kind.transfers_in(),
                        copyout: c.kind.transfers_out(),
                        from_clause: Some(c.kind),
                        covering_region: None,
                        written: false,
                    });
                }
            }
            if let Some(kind) = escaping_branch(s) {
                self.err(
                    format!("`{kind}` would branch out of a structured data region (illegal in OpenACC)"),
                    s.span,
                );
                return;
            }
            let region = self.data_regions.len();
            let if_global = match &dspec.if_cond {
                Some(text) => match openarc_minic::parse_expression(text) {
                    Ok(e) => {
                        let g = format!("__d{region}_if");
                        self.synth_global(&g, Ty::Scalar(ScalarTy::Long), s.span);
                        let st = self.assign_global_stmt(&g, e, s.span);
                        out.push(st);
                        Some(g)
                    }
                    Err(d) => {
                        self.errors.push(Diagnostic::error(
                            format!("bad if(...) condition `{text}`: {d}"),
                            s.span,
                        ));
                        None
                    }
                },
                None => None,
            };
            self.data_regions.push(DataRegionInfo {
                actions,
                if_global,
                stmt: s.id,
            });
            let enter = self.host_op_stmt(RtOp::DataEnter(region), s.span);
            out.push(enter);
            self.region_stack.push((region, dspec.clauses.clone()));
            match &s.kind {
                StmtKind::Block(b) => {
                    let inner = self.lower_block(b);
                    out.extend(inner.stmts);
                }
                _ => {
                    let mut tmp = Vec::new();
                    let stripped = strip_pragmas(s);
                    self.lower_stmt(&stripped, &mut tmp);
                    out.extend(tmp);
                }
            }
            self.region_stack.pop();
            let exit = self.host_op_stmt(RtOp::DataExit(region), s.span);
            out.push(exit);
            return;
        }
        // Update.
        if let Some((Directive::Update(u), _)) =
            dirs.iter().find(|(d, _)| matches!(d, Directive::Update(_)))
        {
            let site = format!("update{}", self.update_count);
            self.update_count += 1;
            self.update_sites.push((site.clone(), s.id));
            let if_global = match &u.if_cond {
                Some(text) => match openarc_minic::parse_expression(text) {
                    Ok(e) => {
                        let g = format!("__u{}_if", self.update_count);
                        self.synth_global(&g, Ty::Scalar(ScalarTy::Long), s.span);
                        let st = self.assign_global_stmt(&g, e, s.span);
                        out.push(st);
                        Some(g)
                    }
                    Err(d) => {
                        self.errors.push(Diagnostic::error(
                            format!("bad if(...) condition `{text}`: {d}"),
                            s.span,
                        ));
                        None
                    }
                },
                None => None,
            };
            let op = RtOp::Update {
                to_host: u.host.clone(),
                to_device: u.device.clone(),
                queue: u.async_queue,
                site,
                if_global,
            };
            let st = self.host_op_stmt(op, s.span);
            out.push(st);
            return;
        }
        // Wait.
        if let Some((Directive::Wait(q), _)) =
            dirs.iter().find(|(d, _)| matches!(d, Directive::Wait(_)))
        {
            let st = self.host_op_stmt(RtOp::Wait(*q), s.span);
            out.push(st);
            return;
        }
        // `declare`: program-lifetime data clauses — the runtime maps them
        // before `main` runs.
        if let Some((Directive::Declare(cs), _)) = dirs
            .iter()
            .find(|(d, _)| matches!(d, Directive::Declare(_)))
        {
            for c in cs {
                for item in &c.items {
                    self.declares.push(DataAction {
                        var: item.name.clone(),
                        map: c.kind.allocates() || c.kind.checks_present(),
                        copyin: c.kind.transfers_in(),
                        copyout: c.kind.transfers_out(),
                        from_clause: Some(c.kind),
                        covering_region: None,
                        written: false,
                    });
                }
            }
            // Declared variables behave like an enclosing data region for
            // every later kernel in this function.
            self.region_stack.push((usize::MAX, cs.clone()));
            return;
        }
        // Unsupported standalone directives are ignored with an error for
        // host_data (which would change semantics).
        if dirs
            .iter()
            .any(|(d, _)| matches!(d, Directive::HostData { .. }))
        {
            self.err("host_data is not supported by this translator", s.span);
            return;
        }

        // Plain statement: recurse into control flow.
        match &s.kind {
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let id = self.id();
                out.push(Stmt {
                    id,
                    span: s.span,
                    pragmas: Vec::new(),
                    kind: StmtKind::If {
                        cond: cond.clone(),
                        then_blk: self.lower_block(then_blk),
                        else_blk: else_blk.as_ref().map(|b| self.lower_block(b)),
                    },
                });
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let wrap = subtree_has_acc(s);
                let inner_body = self.lower_block(body);
                let body2 = if wrap {
                    let tick = self.host_op_stmt(RtOp::LoopTick, s.span);
                    let mut stmts = vec![tick];
                    stmts.extend(inner_body.stmts);
                    Block { stmts }
                } else {
                    inner_body
                };
                if wrap {
                    let label = loop_label(init.as_deref());
                    let enter = self.host_op_stmt(RtOp::LoopEnter { label }, s.span);
                    out.push(enter);
                }
                let id = self.id();
                out.push(Stmt {
                    id,
                    span: s.span,
                    pragmas: Vec::new(),
                    kind: StmtKind::For {
                        init: init.clone(),
                        cond: cond.clone(),
                        step: step.clone(),
                        body: body2,
                    },
                });
                if wrap {
                    let exit = self.host_op_stmt(RtOp::LoopExit, s.span);
                    out.push(exit);
                }
            }
            StmtKind::While { cond, body } => {
                let wrap = subtree_has_acc(s);
                let inner_body = self.lower_block(body);
                let body2 = if wrap {
                    let tick = self.host_op_stmt(RtOp::LoopTick, s.span);
                    let mut stmts = vec![tick];
                    stmts.extend(inner_body.stmts);
                    Block { stmts }
                } else {
                    inner_body
                };
                if wrap {
                    let enter = self.host_op_stmt(
                        RtOp::LoopEnter {
                            label: "while-loop".into(),
                        },
                        s.span,
                    );
                    out.push(enter);
                }
                let id = self.id();
                out.push(Stmt {
                    id,
                    span: s.span,
                    pragmas: Vec::new(),
                    kind: StmtKind::While {
                        cond: cond.clone(),
                        body: body2,
                    },
                });
                if wrap {
                    let exit = self.host_op_stmt(RtOp::LoopExit, s.span);
                    out.push(exit);
                }
            }
            StmtKind::Block(b) => {
                let id = self.id();
                out.push(Stmt {
                    id,
                    span: s.span,
                    pragmas: Vec::new(),
                    kind: StmtKind::Block(self.lower_block(b)),
                });
            }
            _ => out.push(strip_pragmas(s)),
        }
    }

    // ------------------------------------------------------ compute region

    fn lower_compute(&mut self, s: &Stmt, spec: &ComputeSpec, out: &mut Vec<Stmt>) {
        let knowledge = match crate::knowledge::knowledge_of(s) {
            Ok(k) => k,
            Err(d) => {
                self.errors.push(d);
                return;
            }
        };
        let kernel_idx = self.kernels.len();
        let kname = format!("{}_kernel{}", self.cur_func, kernel_idx);
        let seq_name = format!("__seq_{kname}");

        // --- extract parallel loop levels -------------------------------
        let collapse = spec.loop_spec.collapse.unwrap_or(1).max(1) as usize;
        if collapse > 2 {
            // gid_to_index only decomposes one inner span; deeper collapse
            // would silently mis-index.
            self.err("collapse levels above 2 are unsupported", s.span);
            return;
        }
        let mut levels: Vec<LoopLevel> = Vec::new();
        let mut cursor: Stmt = s.clone();
        for _ in 0..collapse {
            match extract_level(&cursor) {
                Ok(level) => {
                    levels.push(level);
                    let body = &levels.last().unwrap().body;
                    if levels.len() < collapse {
                        if body.stmts.len() == 1 {
                            cursor = body.stmts[0].clone();
                        } else {
                            self.err("collapse requires perfectly nested loops", s.span);
                            return;
                        }
                    }
                }
                Err(msg) => {
                    self.err(msg, s.span);
                    return;
                }
            }
        }
        let body = levels.last().unwrap().body.clone();
        let level_vars: BTreeSet<String> = levels.iter().map(|l| l.var.clone()).collect();

        // --- collect accesses --------------------------------------------
        let acc = collect_region_accesses(&body, &level_vars, self.sema, &self.cur_func);
        for name in &acc.called_functions {
            self.err(
                format!("call to user function `{name}` inside a compute region is unsupported"),
                s.span,
            );
        }

        // --- scalar classification ---------------------------------------
        let mut explicit_private: BTreeSet<String> =
            spec.loop_spec.private.iter().cloned().collect();
        let mut explicit_fp: BTreeSet<String> =
            spec.loop_spec.firstprivate.iter().cloned().collect();
        let mut explicit_red: BTreeMap<String, ReductionOp> = BTreeMap::new();
        for r in &spec.loop_spec.reductions {
            for v in &r.vars {
                explicit_red.insert(v.clone(), r.op);
            }
        }
        // Inner `acc loop` directives contribute their clauses too.
        for inner in collect_inner_loop_specs(&body) {
            explicit_private.extend(inner.private.iter().cloned());
            explicit_fp.extend(inner.firstprivate.iter().cloned());
            for r in &inner.reductions {
                for v in &r.vars {
                    explicit_red.insert(v.clone(), r.op);
                }
            }
        }

        #[derive(Debug)]
        enum ScalarClass {
            /// Read-only (or firstprivate): passed by value.
            Param,
            /// Per-thread local declared in the kernel prologue.
            Private,
            /// Declared inside the region body — already thread-local.
            LocalAlready,
            /// Recognized (or declared) reduction.
            Reduction(ReductionOp),
            /// Falsely shared device cell — the injected-race case.
            Shared,
        }
        let mut classes: BTreeMap<String, ScalarClass> = BTreeMap::new();
        for (name, u) in &acc.scalars {
            let class = if u.declared_in_body {
                ScalarClass::LocalAlready
            } else if explicit_red.contains_key(name) {
                ScalarClass::Reduction(explicit_red[name])
            } else if explicit_private.contains(name) {
                ScalarClass::Private
            } else if explicit_fp.contains(name) || !u.written {
                ScalarClass::Param
            } else if self.opts.auto_privatize && u.first_is_write() {
                ScalarClass::Private
            } else if self.opts.auto_reduction && u.reduction_ok() {
                match u.red_op {
                    Some(op) => ScalarClass::Reduction(op),
                    None => ScalarClass::Shared,
                }
            } else {
                ScalarClass::Shared
            };
            classes.insert(name.clone(), class);
        }

        // --- kernel parameter assembly -----------------------------------
        let mut params: Vec<Param> = vec![Param {
            name: "__gid".into(),
            ty: Ty::Scalar(ScalarTy::Int),
        }];
        let mut recipes: Vec<KernelParam> = Vec::new();
        let mut capture_count = 0usize;
        let span = s.span;
        let mut pre_stmts: Vec<Stmt> = Vec::new();

        // Aggregates.
        let mut agg_dims: BTreeMap<String, Option<Vec<u64>>> = BTreeMap::new();
        for name in acc.aggregates.keys() {
            let ty = self.sema.var_ty(&self.cur_func, name).cloned();
            let (elem, dims) = match ty {
                Some(Ty::Array(e, d)) => (e, Some(d)),
                Some(Ty::Ptr(e)) => (e, None),
                _ => {
                    self.err(format!("cannot resolve aggregate `{name}`"), span);
                    continue;
                }
            };
            if !self.sema.is_global(&self.cur_func, name) {
                self.err(
                    format!(
                        "aggregate `{name}` used in a compute region must be a global (local pointer capture is unsupported)"
                    ),
                    span,
                );
                continue;
            }
            agg_dims.insert(name.clone(), dims);
            params.push(Param {
                name: name.clone(),
                ty: Ty::Ptr(elem),
            });
            recipes.push(KernelParam::Aggregate { var: name.clone() });
        }

        // Scalar inputs (params) — includes firstprivate.
        let mut scalar_param = |tx: &mut Tx, name: &str, pre: &mut Vec<Stmt>| -> String {
            // Returns the host global the executor reads.
            if tx.sema.is_global(&tx.cur_func, name) {
                name.to_string()
            } else {
                let g = format!("__k{kernel_idx}_c{capture_count}");
                capture_count += 1;
                let ty = tx
                    .sema
                    .var_ty(&tx.cur_func, name)
                    .cloned()
                    .unwrap_or(Ty::Scalar(ScalarTy::Double));
                tx.synth_global(&g, ty, span);
                let vid = tx.id();
                let value = Expr {
                    id: vid,
                    span,
                    kind: ExprKind::Var(name.to_string()),
                };
                let st = tx.assign_global_stmt(&g, value, span);
                pre.push(st);
                g
            }
        };

        for (name, class) in &classes {
            if matches!(class, ScalarClass::Param) {
                let ty = self
                    .sema
                    .var_ty(&self.cur_func, name)
                    .cloned()
                    .unwrap_or(Ty::Scalar(ScalarTy::Double));
                let resolved = scalar_param(self, name, &mut pre_stmts);
                params.push(Param {
                    name: name.clone(),
                    ty,
                });
                recipes.push(KernelParam::Scalar { var: resolved });
            }
        }

        // Loop-bound parameters: __lo{l} (+ __span for collapse).
        let n_global = format!("__k{kernel_idx}_n");
        self.synth_global(&n_global, Ty::Scalar(ScalarTy::Long), span);
        let mut n_total: Option<Expr> = None;
        for (l, level) in levels.iter().enumerate() {
            let count = level.count_expr(&mut || self.next_id_bump());
            n_total = Some(match n_total.take() {
                None => count.clone(),
                Some(prev) => Expr {
                    id: self.next_id_bump(),
                    span,
                    kind: ExprKind::Binary {
                        op: BinOp::Mul,
                        lhs: Box::new(prev),
                        rhs: Box::new(count.clone()),
                    },
                },
            });
            let lo_global = format!("__k{kernel_idx}_lo{l}");
            self.synth_global(&lo_global, Ty::Scalar(ScalarTy::Long), span);
            let st = self.assign_global_stmt(&lo_global, level.lo.clone(), span);
            pre_stmts.push(st);
            params.push(Param {
                name: format!("__lo{l}"),
                ty: Ty::Scalar(ScalarTy::Long),
            });
            recipes.push(KernelParam::Scalar { var: lo_global });
            if l == 1 {
                let span_global = format!("__k{kernel_idx}_span1");
                self.synth_global(&span_global, Ty::Scalar(ScalarTy::Long), span);
                let st = self.assign_global_stmt(&span_global, count, span);
                pre_stmts.push(st);
                params.push(Param {
                    name: "__span1".into(),
                    ty: Ty::Scalar(ScalarTy::Long),
                });
                recipes.push(KernelParam::Scalar { var: span_global });
            }
        }
        let st = self.assign_global_stmt(&n_global, n_total.expect("levels"), span);
        pre_stmts.push(st);

        // Shared cells and reduction slots.
        let mut cells: BTreeSet<String> = BTreeSet::new();
        let mut reductions: Vec<(String, ReductionOp)> = Vec::new();
        for (name, class) in &classes {
            match class {
                ScalarClass::Shared => {
                    let elem = self.scalar_elem(name);
                    let init_global = if self.sema.is_global(&self.cur_func, name) {
                        Some(name.clone())
                    } else {
                        Some(scalar_param(self, name, &mut pre_stmts))
                    };
                    params.push(Param {
                        name: format!("__cell_{name}"),
                        ty: Ty::Ptr(elem),
                    });
                    recipes.push(KernelParam::SharedCell {
                        var: name.clone(),
                        init_global,
                    });
                    cells.insert(name.clone());
                }
                ScalarClass::Reduction(op) => {
                    if !self.sema.is_global(&self.cur_func, name) {
                        self.err(
                            format!("reduction variable `{name}` must be a global"),
                            span,
                        );
                        continue;
                    }
                    let elem = self.scalar_elem(name);
                    params.push(Param {
                        name: format!("__red_{name}"),
                        ty: Ty::Ptr(elem),
                    });
                    recipes.push(KernelParam::ReductionSlot {
                        var: name.clone(),
                        op: *op,
                    });
                    reductions.push((name.clone(), *op));
                }
                _ => {}
            }
        }

        // --- kernel body --------------------------------------------------
        let mut kbody: Vec<Stmt> = Vec::new();
        // Loop variable decls + mapping from __gid.
        for (l, level) in levels.iter().enumerate() {
            let var_ty = self
                .sema
                .var_ty(&self.cur_func, &level.var)
                .cloned()
                .unwrap_or(Ty::Scalar(ScalarTy::Int));
            kbody.push(self.mk_decl(&level.var, var_ty, span));
            let idx_expr = self.gid_to_index(l, levels.len(), span);
            kbody.push(self.mk_assign_var(&level.var, idx_expr, span));
        }
        // Privates and reduction locals.
        for (name, class) in &classes {
            match class {
                ScalarClass::Private => {
                    let ty = self
                        .sema
                        .var_ty(&self.cur_func, name)
                        .cloned()
                        .unwrap_or(Ty::Scalar(ScalarTy::Double));
                    kbody.push(self.mk_decl(name, ty, span));
                }
                ScalarClass::Reduction(op) => {
                    let elem = self.scalar_elem(name);
                    let ty = Ty::Scalar(elem);
                    let mut d = self.mk_decl(name, ty, span);
                    let init = self.identity_expr(*op, elem, span);
                    if let StmtKind::Decl(vd) = &mut d.kind {
                        vd.init = Some(init);
                    }
                    kbody.push(d);
                }
                _ => {}
            }
        }
        // Rewritten body.
        for st in &body.stmts {
            kbody.push(self.rewrite_stmt(st, &agg_dims, &cells));
        }
        // Reduction epilogue: __red_s[__gid] = s;
        for (name, _) in &reductions {
            let gid = Expr {
                id: self.next_id_bump(),
                span,
                kind: ExprKind::Var("__gid".into()),
            };
            let val = Expr {
                id: self.next_id_bump(),
                span,
                kind: ExprKind::Var(name.clone()),
            };
            let sid = self.next_id_bump();
            kbody.push(Stmt {
                id: sid,
                span,
                pragmas: Vec::new(),
                kind: StmtKind::Assign {
                    target: LValue::Index {
                        base: format!("__red_{name}"),
                        indices: vec![gid],
                    },
                    op: AssignOp::Set,
                    value: val,
                },
            });
        }

        let kfunc = Func {
            id: self.next_id_bump(),
            name: kname.clone(),
            ret: Ty::Void,
            params: params.clone(),
            body: Block {
                stmts: kbody.clone(),
            },
            span,
        };
        self.kernel_funcs.push(kfunc);

        // --- sequential fallback -------------------------------------------
        let mut seq_params = vec![Param {
            name: "__n".into(),
            ty: Ty::Scalar(ScalarTy::Long),
        }];
        seq_params.extend(params.iter().skip(1).cloned());
        let loop_body = Block { stmts: kbody };
        let gid_decl_id = self.next_id_bump();
        let for_id = self.next_id_bump();
        let seq_body = Block {
            stmts: vec![Stmt {
                id: for_id,
                span,
                pragmas: Vec::new(),
                kind: StmtKind::For {
                    init: Some(Box::new(Stmt {
                        id: gid_decl_id,
                        span,
                        pragmas: Vec::new(),
                        kind: StmtKind::Decl(VarDecl {
                            id: self.next_id_bump(),
                            name: "__gid".into(),
                            ty: Ty::Scalar(ScalarTy::Int),
                            init: Some(Expr {
                                id: self.next_id_bump(),
                                span,
                                kind: ExprKind::IntLit(0),
                            }),
                            span,
                        }),
                    })),
                    cond: Some(Expr {
                        id: self.next_id_bump(),
                        span,
                        kind: ExprKind::Binary {
                            op: BinOp::Lt,
                            lhs: Box::new(Expr {
                                id: self.next_id_bump(),
                                span,
                                kind: ExprKind::Var("__gid".into()),
                            }),
                            rhs: Box::new(Expr {
                                id: self.next_id_bump(),
                                span,
                                kind: ExprKind::Var("__n".into()),
                            }),
                        },
                    }),
                    step: Some(Box::new(Stmt {
                        id: self.next_id_bump(),
                        span,
                        pragmas: Vec::new(),
                        kind: StmtKind::Assign {
                            target: LValue::Var("__gid".into()),
                            op: AssignOp::Add,
                            value: Expr {
                                id: self.next_id_bump(),
                                span,
                                kind: ExprKind::IntLit(1),
                            },
                        },
                    })),
                    body: loop_body,
                },
            }],
        };
        let seq_func_id = self.next_id_bump();
        self.seq_funcs.push(Func {
            id: seq_func_id,
            name: seq_name.clone(),
            ret: Ty::Void,
            params: seq_params,
            body: seq_body,
            span,
        });

        // --- data actions ---------------------------------------------------
        let mut actions = Vec::new();
        for (name, use_) in &acc.aggregates {
            let own_clause = spec
                .data
                .iter()
                .find(|c| c.names().any(|n| n == name))
                .map(|c| c.kind);
            let covering_region = self
                .region_stack
                .iter()
                .rev()
                .find(|(_, cs)| cs.iter().any(|c| c.names().any(|n| n == name)))
                .map(|(r, _)| *r);
            let action = if let Some(kind) = own_clause {
                DataAction {
                    var: name.clone(),
                    map: true,
                    copyin: kind.transfers_in(),
                    copyout: kind.transfers_out(),
                    from_clause: Some(kind),
                    covering_region: None,
                    written: use_.written,
                }
            } else if let Some(region) = covering_region {
                DataAction {
                    var: name.clone(),
                    map: true,
                    copyin: false,
                    copyout: false,
                    from_clause: None,
                    covering_region: Some(region),
                    written: use_.written,
                }
            } else {
                // Default OpenACC policy: copy everything in, modified data
                // out, allocate per kernel (the paper's naive scheme).
                DataAction {
                    var: name.clone(),
                    map: true,
                    copyin: true,
                    copyout: use_.written,
                    from_clause: None,
                    covering_region: None,
                    written: use_.written,
                }
            };
            actions.push(action);
        }

        let hoisted = self
            .instr
            .hoisted_kernel_writes
            .get(&s.id)
            .cloned()
            .unwrap_or_default();

        // `if(cond)`: host evaluates the condition into a synthesized
        // global; a falsy value makes the executor run the sequential
        // fallback (OpenACC 1.0 §2.4.3).
        let if_global = match &spec.if_cond {
            Some(text) => match openarc_minic::parse_expression(text) {
                Ok(e) => {
                    let g = format!("__k{kernel_idx}_if");
                    self.synth_global(&g, Ty::Scalar(ScalarTy::Long), span);
                    let st = self.assign_global_stmt(&g, e, span);
                    pre_stmts.push(st);
                    Some(g)
                }
                Err(d) => {
                    self.errors.push(Diagnostic::error(
                        format!("bad if(...) condition `{text}`: {d}"),
                        span,
                    ));
                    None
                }
            },
            None => None,
        };

        self.kernels.push(KernelInfo {
            name: kname,
            seq_name,
            n_threads_global: n_global,
            params: recipes,
            actions,
            gpu_reads: acc
                .aggregates
                .iter()
                .filter(|(_, u)| u.read)
                .map(|(n, _)| n.clone())
                .collect(),
            gpu_writes: acc
                .aggregates
                .iter()
                .filter(|(_, u)| u.written)
                .map(|(n, _)| n.clone())
                .collect(),
            hoisted_writes: hoisted,
            reductions,
            knowledge,
            wave_override: wave_of(spec),
            queue: spec.async_queue,
            if_global,
            stmt: s.id,
            line: s.span.line,
        });

        out.extend(pre_stmts);
        let launch = self.host_op_stmt(RtOp::Launch(kernel_idx), span);
        out.push(launch);
    }

    fn next_id_bump(&mut self) -> NodeId {
        self.id()
    }

    fn scalar_elem(&self, name: &str) -> ScalarTy {
        match self.sema.var_ty(&self.cur_func, name) {
            Some(Ty::Scalar(s)) => *s,
            _ => ScalarTy::Double,
        }
    }

    fn mk_decl(&mut self, name: &str, ty: Ty, span: Span) -> Stmt {
        let id = self.id();
        let did = self.id();
        Stmt {
            id,
            span,
            pragmas: Vec::new(),
            kind: StmtKind::Decl(VarDecl {
                id: did,
                name: name.to_string(),
                ty,
                init: None,
                span,
            }),
        }
    }

    fn mk_assign_var(&mut self, name: &str, value: Expr, span: Span) -> Stmt {
        let id = self.id();
        Stmt {
            id,
            span,
            pragmas: Vec::new(),
            kind: StmtKind::Assign {
                target: LValue::Var(name.to_string()),
                op: AssignOp::Set,
                value,
            },
        }
    }

    /// Identity literal for a reduction operator.
    fn identity_expr(&mut self, op: ReductionOp, elem: ScalarTy, span: Span) -> Expr {
        let id = self.id();
        let kind = match (op, elem.is_float()) {
            (
                ReductionOp::Add | ReductionOp::BitOr | ReductionOp::BitXor | ReductionOp::LogOr,
                true,
            ) => ExprKind::FloatLit(0.0, elem == ScalarTy::Float),
            (
                ReductionOp::Add | ReductionOp::BitOr | ReductionOp::BitXor | ReductionOp::LogOr,
                false,
            ) => ExprKind::IntLit(0),
            (ReductionOp::Mul | ReductionOp::LogAnd, true) => {
                ExprKind::FloatLit(1.0, elem == ScalarTy::Float)
            }
            (ReductionOp::Mul | ReductionOp::LogAnd, false) => ExprKind::IntLit(1),
            (ReductionOp::Max, true) => ExprKind::FloatLit(-1e30, elem == ScalarTy::Float),
            (ReductionOp::Max, false) => ExprKind::IntLit(i64::MIN / 2),
            (ReductionOp::Min, true) => ExprKind::FloatLit(1e30, elem == ScalarTy::Float),
            (ReductionOp::Min, false) => ExprKind::IntLit(i64::MAX / 2),
            (ReductionOp::BitAnd, _) => ExprKind::IntLit(-1),
        };
        Expr { id, span, kind }
    }

    /// Index reconstruction from `__gid` for loop level `l`.
    fn gid_to_index(&mut self, l: usize, n_levels: usize, span: Span) -> Expr {
        let e = |kind: ExprKind, tx: &mut Tx| Expr {
            id: tx.id(),
            span,
            kind,
        };
        let gid = e(ExprKind::Var("__gid".into()), self);
        let local = if n_levels == 1 {
            gid
        } else if l == 0 {
            // __gid / __span1
            let span1 = e(ExprKind::Var("__span1".into()), self);
            e(
                ExprKind::Binary {
                    op: BinOp::Div,
                    lhs: Box::new(gid),
                    rhs: Box::new(span1),
                },
                self,
            )
        } else {
            // __gid % __span1
            let span1 = e(ExprKind::Var("__span1".into()), self);
            e(
                ExprKind::Binary {
                    op: BinOp::Rem,
                    lhs: Box::new(gid),
                    rhs: Box::new(span1),
                },
                self,
            )
        };
        let lo = e(ExprKind::Var(format!("__lo{l}")), self);
        e(
            ExprKind::Binary {
                op: BinOp::Add,
                lhs: Box::new(lo),
                rhs: Box::new(local),
            },
            self,
        )
    }

    // ------------------------------------------------- kernel body rewrite

    fn rewrite_stmt(
        &mut self,
        s: &Stmt,
        aggs: &BTreeMap<String, Option<Vec<u64>>>,
        cells: &BTreeSet<String>,
    ) -> Stmt {
        let kind = match &s.kind {
            StmtKind::Decl(d) => StmtKind::Decl(VarDecl {
                id: d.id,
                name: d.name.clone(),
                ty: d.ty.clone(),
                init: d.init.as_ref().map(|e| self.rewrite_expr(e, aggs, cells)),
                span: d.span,
            }),
            StmtKind::Expr(e) => StmtKind::Expr(self.rewrite_expr(e, aggs, cells)),
            StmtKind::Assign { target, op, value } => StmtKind::Assign {
                target: self.rewrite_lvalue(target, aggs, cells, s.span),
                op: *op,
                value: self.rewrite_expr(value, aggs, cells),
            },
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => StmtKind::If {
                cond: self.rewrite_expr(cond, aggs, cells),
                then_blk: self.rewrite_block(then_blk, aggs, cells),
                else_blk: else_blk
                    .as_ref()
                    .map(|b| self.rewrite_block(b, aggs, cells)),
            },
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => StmtKind::For {
                init: init
                    .as_ref()
                    .map(|i| Box::new(self.rewrite_stmt(i, aggs, cells))),
                cond: cond.as_ref().map(|c| self.rewrite_expr(c, aggs, cells)),
                step: step
                    .as_ref()
                    .map(|st| Box::new(self.rewrite_stmt(st, aggs, cells))),
                body: self.rewrite_block(body, aggs, cells),
            },
            StmtKind::While { cond, body } => StmtKind::While {
                cond: self.rewrite_expr(cond, aggs, cells),
                body: self.rewrite_block(body, aggs, cells),
            },
            StmtKind::Block(b) => StmtKind::Block(self.rewrite_block(b, aggs, cells)),
            other => other.clone(),
        };
        Stmt {
            id: s.id,
            span: s.span,
            pragmas: Vec::new(),
            kind,
        }
    }

    fn rewrite_block(
        &mut self,
        b: &Block,
        aggs: &BTreeMap<String, Option<Vec<u64>>>,
        cells: &BTreeSet<String>,
    ) -> Block {
        Block {
            stmts: b
                .stmts
                .iter()
                .map(|s| self.rewrite_stmt(s, aggs, cells))
                .collect(),
        }
    }

    fn rewrite_lvalue(
        &mut self,
        lv: &LValue,
        aggs: &BTreeMap<String, Option<Vec<u64>>>,
        cells: &BTreeSet<String>,
        span: Span,
    ) -> LValue {
        match lv {
            LValue::Var(n) if cells.contains(n) => LValue::Index {
                base: format!("__cell_{n}"),
                indices: vec![Expr {
                    id: self.id(),
                    span,
                    kind: ExprKind::IntLit(0),
                }],
            },
            LValue::Var(n) => LValue::Var(n.clone()),
            LValue::Index { base, indices } => {
                let rewritten: Vec<Expr> = indices
                    .iter()
                    .map(|e| self.rewrite_expr(e, aggs, cells))
                    .collect();
                match aggs.get(base) {
                    Some(Some(dims)) if dims.len() > 1 => LValue::Index {
                        base: base.clone(),
                        indices: vec![self.linearize(dims, rewritten, span)],
                    },
                    _ => LValue::Index {
                        base: base.clone(),
                        indices: rewritten,
                    },
                }
            }
        }
    }

    fn rewrite_expr(
        &mut self,
        e: &Expr,
        aggs: &BTreeMap<String, Option<Vec<u64>>>,
        cells: &BTreeSet<String>,
    ) -> Expr {
        let kind = match &e.kind {
            ExprKind::Var(n) if cells.contains(n) => ExprKind::Index {
                base: format!("__cell_{n}"),
                indices: vec![Expr {
                    id: self.id(),
                    span: e.span,
                    kind: ExprKind::IntLit(0),
                }],
            },
            ExprKind::Index { base, indices } => {
                let rewritten: Vec<Expr> = indices
                    .iter()
                    .map(|x| self.rewrite_expr(x, aggs, cells))
                    .collect();
                match aggs.get(base) {
                    Some(Some(dims)) if dims.len() > 1 => ExprKind::Index {
                        base: base.clone(),
                        indices: vec![self.linearize(dims, rewritten, e.span)],
                    },
                    _ => ExprKind::Index {
                        base: base.clone(),
                        indices: rewritten,
                    },
                }
            }
            ExprKind::Unary { op, expr } => ExprKind::Unary {
                op: *op,
                expr: Box::new(self.rewrite_expr(expr, aggs, cells)),
            },
            ExprKind::Binary { op, lhs, rhs } => ExprKind::Binary {
                op: *op,
                lhs: Box::new(self.rewrite_expr(lhs, aggs, cells)),
                rhs: Box::new(self.rewrite_expr(rhs, aggs, cells)),
            },
            ExprKind::Ternary {
                cond,
                then_e,
                else_e,
            } => ExprKind::Ternary {
                cond: Box::new(self.rewrite_expr(cond, aggs, cells)),
                then_e: Box::new(self.rewrite_expr(then_e, aggs, cells)),
                else_e: Box::new(self.rewrite_expr(else_e, aggs, cells)),
            },
            ExprKind::Call { name, args } => ExprKind::Call {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| self.rewrite_expr(a, aggs, cells))
                    .collect(),
            },
            ExprKind::Cast { ty, expr } => ExprKind::Cast {
                ty: ty.clone(),
                expr: Box::new(self.rewrite_expr(expr, aggs, cells)),
            },
            other => other.clone(),
        };
        Expr {
            id: e.id,
            span: e.span,
            kind,
        }
    }

    /// `((i0 * d1 + i1) * d2 + i2) ...`
    fn linearize(&mut self, dims: &[u64], indices: Vec<Expr>, span: Span) -> Expr {
        let mut it = indices.into_iter();
        let mut acc = it.next().expect("at least one index");
        for (k, ix) in it.enumerate() {
            let d = dims[k + 1];
            let dc = Expr {
                id: self.id(),
                span,
                kind: ExprKind::IntLit(d as i64),
            };
            let mul = Expr {
                id: self.id(),
                span,
                kind: ExprKind::Binary {
                    op: BinOp::Mul,
                    lhs: Box::new(acc),
                    rhs: Box::new(dc),
                },
            };
            acc = Expr {
                id: self.id(),
                span,
                kind: ExprKind::Binary {
                    op: BinOp::Add,
                    lhs: Box::new(mul),
                    rhs: Box::new(ix),
                },
            };
        }
        acc
    }
}

// ------------------------------------------------------------- utilities

/// One extracted parallel loop level.
#[derive(Debug, Clone)]
struct LoopLevel {
    var: String,
    lo: Expr,
    hi: Expr,
    inclusive: bool,
    body: Block,
}

impl LoopLevel {
    /// Iteration count expression `hi - lo (+ 1)`.
    fn count_expr(&self, fresh: &mut dyn FnMut() -> NodeId) -> Expr {
        let span = self.lo.span;
        let sub = Expr {
            id: fresh(),
            span,
            kind: ExprKind::Binary {
                op: BinOp::Sub,
                lhs: Box::new(self.hi.clone()),
                rhs: Box::new(self.lo.clone()),
            },
        };
        if self.inclusive {
            Expr {
                id: fresh(),
                span,
                kind: ExprKind::Binary {
                    op: BinOp::Add,
                    lhs: Box::new(sub),
                    rhs: Box::new(Expr {
                        id: fresh(),
                        span,
                        kind: ExprKind::IntLit(1),
                    }),
                },
            }
        } else {
            sub
        }
    }
}

/// Extract a canonical parallel loop: `for (i = lo; i </(<=) hi; i++/i+=1)`.
fn extract_level(s: &Stmt) -> Result<LoopLevel, String> {
    let StmtKind::For {
        init,
        cond,
        step,
        body,
    } = &s.kind
    else {
        return Err("compute construct must annotate a for loop".into());
    };
    let (var, lo) = match init.as_deref() {
        Some(Stmt {
            kind:
                StmtKind::Assign {
                    target: LValue::Var(v),
                    op: AssignOp::Set,
                    value,
                },
            ..
        }) => (v.clone(), value.clone()),
        Some(Stmt {
            kind: StmtKind::Decl(d),
            ..
        }) => match &d.init {
            Some(init) => (d.name.clone(), init.clone()),
            None => return Err("parallel loop variable must be initialized".into()),
        },
        _ => return Err("parallel loop must initialize its induction variable".into()),
    };
    let (hi, inclusive) = match cond {
        Some(Expr {
            kind: ExprKind::Binary { op, lhs, rhs },
            ..
        }) => {
            let ok_var = matches!(&lhs.kind, ExprKind::Var(v) if *v == var);
            if !ok_var {
                return Err("parallel loop condition must compare the induction variable".into());
            }
            match op {
                BinOp::Lt => ((**rhs).clone(), false),
                BinOp::Le => ((**rhs).clone(), true),
                _ => return Err("parallel loop condition must use < or <=".into()),
            }
        }
        _ => return Err("parallel loop must have a condition".into()),
    };
    match step.as_deref() {
        Some(Stmt {
            kind:
                StmtKind::Assign {
                    target: LValue::Var(v),
                    op: AssignOp::Add,
                    value,
                },
            ..
        }) if *v == var && matches!(value.kind, ExprKind::IntLit(1)) => {}
        _ => return Err("parallel loop step must be i++ or i += 1".into()),
    }
    Ok(LoopLevel {
        var,
        lo,
        hi,
        inclusive,
        body: body.clone(),
    })
}

/// First event observed for a scalar inside a region.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FirstEvent {
    PlainRead,
    PlainWrite,
    RedWrite,
}

/// Per-scalar usage inside a region.
#[derive(Debug, Default, Clone)]
struct ScalarUse {
    first: Option<FirstEvent>,
    written: bool,
    plain_read: bool,
    plain_write: bool,
    red_op: Option<ReductionOp>,
    red_conflict: bool,
    declared_in_body: bool,
}

impl ScalarUse {
    fn see(&mut self, ev: FirstEvent) {
        if self.first.is_none() {
            self.first = Some(ev);
        }
    }

    /// First access is an unconditional write → privatizable.
    fn first_is_write(&self) -> bool {
        self.first == Some(FirstEvent::PlainWrite)
    }

    /// Every write is the same reduction pattern and there is no other
    /// read of the variable.
    fn reduction_ok(&self) -> bool {
        !self.plain_read && !self.plain_write && self.red_op.is_some() && !self.red_conflict
    }
}

/// Per-aggregate usage inside a region.
#[derive(Debug, Default, Clone)]
struct AggUse {
    read: bool,
    written: bool,
}

#[derive(Debug, Default)]
struct RegionAccesses {
    aggregates: BTreeMap<String, AggUse>,
    scalars: BTreeMap<String, ScalarUse>,
    called_functions: BTreeSet<String>,
}

/// Walk the region body in program order, recording first-access kinds and
/// reduction patterns.
fn collect_region_accesses(
    body: &Block,
    exclude: &BTreeSet<String>,
    sema: &Sema,
    func: &str,
) -> RegionAccesses {
    let mut acc = RegionAccesses::default();
    collect_block(body, exclude, sema, func, &mut acc);
    acc
}

fn is_aggregate(sema: &Sema, func: &str, name: &str) -> bool {
    sema.var_ty(func, name)
        .map(|t| t.is_aggregate())
        .unwrap_or(false)
}

fn note_read(
    acc: &mut RegionAccesses,
    exclude: &BTreeSet<String>,
    sema: &Sema,
    func: &str,
    name: &str,
) {
    if exclude.contains(name) {
        return;
    }
    if is_aggregate(sema, func, name) {
        acc.aggregates.entry(name.to_string()).or_default().read = true;
    } else {
        let u = acc.scalars.entry(name.to_string()).or_default();
        u.see(FirstEvent::PlainRead);
        // A read outside a reduction statement disqualifies the pattern.
        u.plain_read = true;
    }
}

fn note_expr_reads(
    e: &Expr,
    acc: &mut RegionAccesses,
    exclude: &BTreeSet<String>,
    sema: &Sema,
    func: &str,
) {
    e.walk(&mut |x| match &x.kind {
        ExprKind::Var(n) => note_read(acc, exclude, sema, func, n),
        ExprKind::Index { base, .. } => note_read(acc, exclude, sema, func, base),
        ExprKind::Call { name, .. } if !openarc_minic::sema::is_intrinsic(name) => {
            acc.called_functions.insert(name.clone());
        }
        _ => {}
    });
}

fn note_write(
    acc: &mut RegionAccesses,
    exclude: &BTreeSet<String>,
    sema: &Sema,
    func: &str,
    name: &str,
    red: Option<ReductionOp>,
) {
    if exclude.contains(name) {
        return;
    }
    if is_aggregate(sema, func, name) {
        acc.aggregates.entry(name.to_string()).or_default().written = true;
        return;
    }
    let u = acc.scalars.entry(name.to_string()).or_default();
    u.written = true;
    match red {
        Some(op) => {
            u.see(FirstEvent::RedWrite);
            if let Some(prev) = u.red_op {
                if prev != op {
                    u.red_conflict = true;
                }
            } else {
                u.red_op = Some(op);
            }
        }
        None => {
            u.see(FirstEvent::PlainWrite);
            u.plain_write = true;
        }
    }
}

/// Detect reduction-shaped statements: `s += e`, `s = s + e`, `s = e + s`,
/// `s *= e`, `s = max/min/fmax/fmin(s, e)`.
fn reduction_shape(target: &str, op: AssignOp, value: &Expr) -> Option<ReductionOp> {
    match op {
        AssignOp::Add => return (!expr_reads_var(value, target)).then_some(ReductionOp::Add),
        AssignOp::Mul => return (!expr_reads_var(value, target)).then_some(ReductionOp::Mul),
        AssignOp::Sub | AssignOp::Div => return None,
        AssignOp::Set => {}
    }
    match &value.kind {
        ExprKind::Binary {
            op: BinOp::Add,
            lhs,
            rhs,
        } => {
            if is_var(lhs, target) && !expr_reads_var(rhs, target) {
                return Some(ReductionOp::Add);
            }
            if is_var(rhs, target) && !expr_reads_var(lhs, target) {
                return Some(ReductionOp::Add);
            }
            None
        }
        ExprKind::Binary {
            op: BinOp::Mul,
            lhs,
            rhs,
        } => {
            if is_var(lhs, target) && !expr_reads_var(rhs, target) {
                return Some(ReductionOp::Mul);
            }
            if is_var(rhs, target) && !expr_reads_var(lhs, target) {
                return Some(ReductionOp::Mul);
            }
            None
        }
        ExprKind::Call { name, args } if args.len() == 2 => {
            let op = match name.as_str() {
                "max" | "fmax" => ReductionOp::Max,
                "min" | "fmin" => ReductionOp::Min,
                _ => return None,
            };
            if (is_var(&args[0], target) && !expr_reads_var(&args[1], target))
                || (is_var(&args[1], target) && !expr_reads_var(&args[0], target))
            {
                Some(op)
            } else {
                None
            }
        }
        _ => None,
    }
}

fn is_var(e: &Expr, name: &str) -> bool {
    matches!(&e.kind, ExprKind::Var(n) if n == name)
}

fn expr_reads_var(e: &Expr, name: &str) -> bool {
    e.reads().iter().any(|r| r == name)
}

fn collect_block(
    b: &Block,
    exclude: &BTreeSet<String>,
    sema: &Sema,
    func: &str,
    acc: &mut RegionAccesses,
) {
    for s in &b.stmts {
        collect_stmt(s, exclude, sema, func, acc);
    }
}

fn collect_stmt(
    s: &Stmt,
    exclude: &BTreeSet<String>,
    sema: &Sema,
    func: &str,
    acc: &mut RegionAccesses,
) {
    match &s.kind {
        StmtKind::Decl(d) => {
            // A declaration inside the region makes the scalar thread-local
            // by construction (it cannot be shared with the host).
            if let Some(init) = &d.init {
                note_expr_reads(init, acc, exclude, sema, func);
            }
            if !exclude.contains(&d.name) && !is_aggregate(sema, func, &d.name) {
                let u = acc.scalars.entry(d.name.clone()).or_default();
                u.declared_in_body = true;
                u.written = true;
            }
        }
        StmtKind::Expr(e) => note_expr_reads(e, acc, exclude, sema, func),
        StmtKind::Assign { target, op, value } => {
            let red = reduction_shape(target.base(), *op, value);
            // Reads of the value and indices come first...
            if red.is_none() {
                note_expr_reads(value, acc, exclude, sema, func);
                if op.binop().is_some() {
                    note_read(acc, exclude, sema, func, target.base());
                }
            } else {
                // Reduction-shaped: the self-read does not count as a
                // disqualifying read; other operands still count.
                match &value.kind {
                    ExprKind::Binary { lhs, rhs, .. } => {
                        if !is_var(lhs, target.base()) {
                            note_expr_reads(lhs, acc, exclude, sema, func);
                        }
                        if !is_var(rhs, target.base()) {
                            note_expr_reads(rhs, acc, exclude, sema, func);
                        }
                    }
                    ExprKind::Call { args, .. } => {
                        for a in args {
                            if !is_var(a, target.base()) {
                                note_expr_reads(a, acc, exclude, sema, func);
                            }
                        }
                    }
                    other_value => {
                        let e = Expr {
                            id: 0,
                            span: s.span,
                            kind: other_value.clone(),
                        };
                        note_expr_reads(&e, acc, exclude, sema, func);
                    }
                }
            }
            if let LValue::Index { indices, .. } = target {
                for ix in indices {
                    note_expr_reads(ix, acc, exclude, sema, func);
                }
            }
            match target {
                LValue::Var(n) => note_write(acc, exclude, sema, func, n, red),
                LValue::Index { base, .. } => note_write(acc, exclude, sema, func, base, None),
            }
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            note_expr_reads(cond, acc, exclude, sema, func);
            collect_block(then_blk, exclude, sema, func, acc);
            if let Some(e) = else_blk {
                collect_block(e, exclude, sema, func, acc);
            }
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(i) = init {
                collect_stmt(i, exclude, sema, func, acc);
            }
            if let Some(c) = cond {
                note_expr_reads(c, acc, exclude, sema, func);
            }
            if let Some(st) = step {
                collect_stmt(st, exclude, sema, func, acc);
            }
            collect_block(body, exclude, sema, func, acc);
        }
        StmtKind::While { cond, body } => {
            note_expr_reads(cond, acc, exclude, sema, func);
            collect_block(body, exclude, sema, func, acc);
        }
        StmtKind::Block(b) => collect_block(b, exclude, sema, func, acc),
        StmtKind::Return(Some(e)) => note_expr_reads(e, acc, exclude, sema, func),
        _ => {}
    }
}

/// Inner `acc loop` directives within a region contribute private /
/// reduction clauses.
fn collect_inner_loop_specs(body: &Block) -> Vec<openarc_openacc::LoopSpec> {
    let mut out = Vec::new();
    walk_stmts(body, &mut |s| {
        if let Ok(dirs) = directives_of(s) {
            for (d, _) in dirs {
                if let Directive::Loop(ls) = d {
                    out.push(ls);
                }
            }
        }
    });
    out
}

/// Resident-thread (lockstep wave) width implied by the construct's
/// `num_workers`/`vector_length` clauses: workers × vector lanes execute
/// together, like a resident thread block.
fn wave_of(spec: &ComputeSpec) -> Option<u32> {
    match (spec.num_workers, spec.vector_length) {
        (None, None) => None,
        (w, v) => {
            let w = w.unwrap_or(1).max(1) as u32;
            let v = v.unwrap_or(1).max(1) as u32;
            Some((w.saturating_mul(v)).clamp(1, 4096))
        }
    }
}

/// If the region body contains a `break`/`continue` not enclosed in a loop
/// inside the region, or any `return`, name the offending construct.
/// OpenACC forbids branching out of a structured data region; allowing it
/// would unbalance the present table.
fn escaping_branch(s: &Stmt) -> Option<&'static str> {
    fn scan(b: &Block, loop_depth: u32) -> Option<&'static str> {
        for st in &b.stmts {
            match &st.kind {
                StmtKind::Break if loop_depth == 0 => return Some("break"),
                StmtKind::Continue if loop_depth == 0 => return Some("continue"),
                StmtKind::Return(_) => return Some("return"),
                StmtKind::If {
                    then_blk, else_blk, ..
                } => {
                    if let Some(k) = scan(then_blk, loop_depth) {
                        return Some(k);
                    }
                    if let Some(e) = else_blk {
                        if let Some(k) = scan(e, loop_depth) {
                            return Some(k);
                        }
                    }
                }
                StmtKind::For { body, .. } | StmtKind::While { body, .. } => {
                    if let Some(k) = scan(body, loop_depth + 1) {
                        return Some(k);
                    }
                }
                StmtKind::Block(inner) => {
                    if let Some(k) = scan(inner, loop_depth) {
                        return Some(k);
                    }
                }
                _ => {}
            }
        }
        None
    }
    match &s.kind {
        StmtKind::Block(b) => scan(b, 0),
        _ => None,
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
    use openarc_minic::frontend;

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
