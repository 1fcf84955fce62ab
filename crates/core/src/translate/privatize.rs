//! Privatization and reduction recognition: walk a compute region in
//! program order, record each variable's first access and reduction shape,
//! and classify every scalar the region touches.

use super::TranslateOptions;
use openarc_minic::ast::*;
use openarc_minic::Sema;
use openarc_openacc::{directives_of, ComputeSpec, Directive, LoopSpec, ReductionOp};
use std::collections::{BTreeMap, BTreeSet};

/// How a scalar reaches the kernel.
#[derive(Debug)]
pub(super) enum ScalarClass {
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
pub(super) struct AggUse {
    pub(super) read: bool,
    pub(super) written: bool,
}

/// What a region body touches.
#[derive(Debug, Default)]
pub(super) struct RegionAccesses {
    pub(super) aggregates: BTreeMap<String, AggUse>,
    scalars: BTreeMap<String, ScalarUse>,
    pub(super) called_functions: BTreeSet<String>,
}

impl RegionAccesses {
    /// Walk the region body in program order, recording first-access kinds
    /// and reduction patterns. Names in `exclude` (the parallel loop
    /// variables) are skipped.
    pub(super) fn collect(
        body: &Block,
        exclude: &BTreeSet<String>,
        sema: &Sema,
        func: &str,
    ) -> Self {
        let mut c = Collector {
            exclude,
            sema,
            func,
            acc: RegionAccesses::default(),
        };
        c.block(body);
        c.acc
    }

    /// Classify every scalar. Explicit clauses — on the construct or on an
    /// inner `acc loop` — win; then a read-only scalar is a parameter, a
    /// written-first one is private (with `auto_privatize`), a
    /// reduction-shaped one is a reduction (with `auto_reduction`), and
    /// anything else is a falsely shared cell.
    pub(super) fn classify(
        &self,
        spec: &ComputeSpec,
        body: &Block,
        opts: &TranslateOptions,
    ) -> BTreeMap<String, ScalarClass> {
        let mut private = BTreeSet::new();
        let mut firstprivate = BTreeSet::new();
        let mut reduction = BTreeMap::new();
        let inner = inner_loop_specs(body);
        for ls in std::iter::once(&spec.loop_spec).chain(&inner) {
            private.extend(&ls.private);
            firstprivate.extend(&ls.firstprivate);
            for r in &ls.reductions {
                for v in &r.vars {
                    reduction.insert(v, r.op);
                }
            }
        }
        self.scalars
            .iter()
            .map(|(name, u)| {
                let class = if u.declared_in_body {
                    ScalarClass::LocalAlready
                } else if let Some(op) = reduction.get(name) {
                    ScalarClass::Reduction(*op)
                } else if private.contains(name) {
                    ScalarClass::Private
                } else if firstprivate.contains(name) || !u.written {
                    ScalarClass::Param
                } else if opts.auto_privatize && u.first_is_write() {
                    ScalarClass::Private
                } else if opts.auto_reduction && u.reduction_ok() {
                    match u.red_op {
                        Some(op) => ScalarClass::Reduction(op),
                        None => ScalarClass::Shared,
                    }
                } else {
                    ScalarClass::Shared
                };
                (name.clone(), class)
            })
            .collect()
    }
}

/// Inner `acc loop` directives within a region contribute private /
/// reduction clauses.
fn inner_loop_specs(body: &Block) -> Vec<LoopSpec> {
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

/// The walk behind [`RegionAccesses::collect`].
struct Collector<'a> {
    exclude: &'a BTreeSet<String>,
    sema: &'a Sema,
    func: &'a str,
    acc: RegionAccesses,
}

impl Collector<'_> {
    fn is_aggregate(&self, name: &str) -> bool {
        self.sema
            .var_ty(self.func, name)
            .is_some_and(|t| t.is_aggregate())
    }

    fn read(&mut self, name: &str) {
        if self.exclude.contains(name) {
            return;
        }
        if self.is_aggregate(name) {
            self.acc
                .aggregates
                .entry(name.to_string())
                .or_default()
                .read = true;
        } else {
            let u = self.acc.scalars.entry(name.to_string()).or_default();
            u.see(FirstEvent::PlainRead);
            // A read outside a reduction statement disqualifies the pattern.
            u.plain_read = true;
        }
    }

    fn expr_reads(&mut self, e: &Expr) {
        e.walk(&mut |x| match &x.kind {
            ExprKind::Var(n) => self.read(n),
            ExprKind::Index { base, .. } => self.read(base),
            ExprKind::Call { name, .. } if !openarc_minic::sema::is_intrinsic(name) => {
                self.acc.called_functions.insert(name.clone());
            }
            _ => {}
        });
    }

    fn write(&mut self, name: &str, red: Option<ReductionOp>) {
        if self.exclude.contains(name) {
            return;
        }
        if self.is_aggregate(name) {
            self.acc
                .aggregates
                .entry(name.to_string())
                .or_default()
                .written = true;
            return;
        }
        let u = self.acc.scalars.entry(name.to_string()).or_default();
        u.written = true;
        match red {
            Some(op) => {
                u.see(FirstEvent::RedWrite);
                match u.red_op {
                    Some(prev) if prev != op => u.red_conflict = true,
                    Some(_) => {}
                    None => u.red_op = Some(op),
                }
            }
            None => {
                u.see(FirstEvent::PlainWrite);
                u.plain_write = true;
            }
        }
    }

    fn block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Decl(d) => {
                // A declaration inside the region makes the scalar
                // thread-local by construction (it cannot be shared with
                // the host).
                if let Some(init) = &d.init {
                    self.expr_reads(init);
                }
                if !self.exclude.contains(&d.name) && !self.is_aggregate(&d.name) {
                    let u = self.acc.scalars.entry(d.name.clone()).or_default();
                    u.declared_in_body = true;
                    u.written = true;
                }
            }
            StmtKind::Expr(e) => self.expr_reads(e),
            StmtKind::Assign { target, op, value } => {
                let base = target.base();
                let red = reduction_shape(base, *op, value);
                // Reads of the value and indices come first...
                if red.is_none() {
                    self.expr_reads(value);
                    if op.binop().is_some() {
                        self.read(base);
                    }
                } else {
                    // Reduction-shaped: the self-read does not count as a
                    // disqualifying read; other operands still count.
                    match &value.kind {
                        ExprKind::Binary { lhs, rhs, .. } => {
                            for e in [lhs, rhs] {
                                if !is_var(e, base) {
                                    self.expr_reads(e);
                                }
                            }
                        }
                        ExprKind::Call { args, .. } => {
                            for a in args.iter().filter(|a| !is_var(a, base)) {
                                self.expr_reads(a);
                            }
                        }
                        _ => self.expr_reads(value),
                    }
                }
                if let LValue::Index { indices, .. } = target {
                    for ix in indices {
                        self.expr_reads(ix);
                    }
                }
                match target {
                    LValue::Var(n) => self.write(n, red),
                    LValue::Index { base, .. } => self.write(base, None),
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expr_reads(cond);
                self.block(then_blk);
                if let Some(e) = else_blk {
                    self.block(e);
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(i);
                }
                if let Some(c) = cond {
                    self.expr_reads(c);
                }
                if let Some(st) = step {
                    self.stmt(st);
                }
                self.block(body);
            }
            StmtKind::While { cond, body } => {
                self.expr_reads(cond);
                self.block(body);
            }
            StmtKind::Block(b) => self.block(b),
            StmtKind::Return(Some(e)) => self.expr_reads(e),
            _ => {}
        }
    }
}

/// Detect reduction-shaped statements: `s += e`, `s = s + e`, `s = e + s`,
/// `s *= e`, `s = max/min/fmax/fmin(s, e)`.
fn reduction_shape(target: &str, op: AssignOp, value: &Expr) -> Option<ReductionOp> {
    // `s op e` or `e op s`, with `e` not reading `s`.
    let one_side = |a: &Expr, b: &Expr| {
        (is_var(a, target) && !reads_var(b, target)) || (is_var(b, target) && !reads_var(a, target))
    };
    match op {
        AssignOp::Add => return (!reads_var(value, target)).then_some(ReductionOp::Add),
        AssignOp::Mul => return (!reads_var(value, target)).then_some(ReductionOp::Mul),
        AssignOp::Sub | AssignOp::Div => return None,
        AssignOp::Set => {}
    }
    let (op, a, b) = match &value.kind {
        ExprKind::Binary {
            op: BinOp::Add,
            lhs,
            rhs,
        } => (ReductionOp::Add, &**lhs, &**rhs),
        ExprKind::Binary {
            op: BinOp::Mul,
            lhs,
            rhs,
        } => (ReductionOp::Mul, &**lhs, &**rhs),
        ExprKind::Call { name, args } if args.len() == 2 => match Intrinsic::from_name(name) {
            Some(Intrinsic::Max | Intrinsic::Fmax) => (ReductionOp::Max, &args[0], &args[1]),
            Some(Intrinsic::Min | Intrinsic::Fmin) => (ReductionOp::Min, &args[0], &args[1]),
            _ => return None,
        },
        _ => return None,
    };
    one_side(a, b).then_some(op)
}

fn is_var(e: &Expr, name: &str) -> bool {
    matches!(&e.kind, ExprKind::Var(n) if n == name)
}

fn reads_var(e: &Expr, name: &str) -> bool {
    e.reads().iter().any(|r| r == name)
}
