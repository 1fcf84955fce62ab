//! Region outlining: extract a compute construct's parallel loop levels,
//! assemble the kernel's parameters and the host statements that fill
//! them, rewrite the region body into the kernel body, and wrap that same
//! body in the `__seq_*` reference loop §III-A compares each kernel
//! against.

use super::privatize::{RegionAccesses, ScalarClass};
use super::Tx;
use crate::ir::{KernelInfo, KernelParam, RtOp};
use crate::knowledge::knowledge_of;
use openarc_minic::ast::*;
use openarc_minic::Span;
use openarc_openacc::{ComputeSpec, ReductionOp};
use std::collections::{BTreeMap, BTreeSet};

/// One extracted parallel loop level.
#[derive(Debug, Clone)]
struct LoopLevel {
    var: String,
    lo: Expr,
    hi: Expr,
    inclusive: bool,
    body: Block,
}

/// A kernel under assembly.
struct Outline {
    /// Kernel index: names the `__k{k}_*` host globals.
    k: usize,
    span: Span,
    /// Device signature, `__gid` first.
    params: Vec<Param>,
    /// How the executor fills each parameter after `__gid`.
    recipes: Vec<KernelParam>,
    /// Host statements that set the synthesized globals before the launch.
    pre: Vec<Stmt>,
    /// Locals captured into `__k{k}_c{i}` globals so far.
    captures: usize,
    /// Static dimensions of each aggregate (`None` for a pointer).
    dims: BTreeMap<String, Option<Vec<u64>>>,
    /// Scalars lowered to `__cell_*` device cells.
    cells: BTreeSet<String>,
    reductions: Vec<(String, ReductionOp)>,
}

impl Outline {
    fn param(&mut self, name: impl Into<String>, ty: Ty, recipe: KernelParam) {
        self.params.push(Param {
            name: name.into(),
            ty,
        });
        self.recipes.push(recipe);
    }
}

impl Tx<'_> {
    /// Outline a compute construct into a kernel and its `__seq_*`
    /// reference; the host keeps the parameter set-up and a `Launch` op.
    pub(super) fn lower_compute(&mut self, s: &Stmt, spec: &ComputeSpec, out: &mut Vec<Stmt>) {
        let knowledge = match knowledge_of(s) {
            Ok(k) => k,
            Err(d) => {
                self.errors.push(d);
                return;
            }
        };
        let Some(levels) = self.loop_levels(s, spec) else {
            return;
        };
        let body = &levels.last().expect("at least one level").body;
        let level_vars = levels.iter().map(|l| l.var.clone()).collect();
        let acc = RegionAccesses::collect(body, &level_vars, self.sema, &self.cur_func);
        for name in &acc.called_functions {
            self.err(
                format!("call to user function `{name}` inside a compute region is unsupported"),
                s.span,
            );
        }
        let classes = acc.classify(spec, body, self.opts);

        let mut o = Outline {
            k: self.kernels.len(),
            span: s.span,
            params: vec![Param {
                name: "__gid".into(),
                ty: Ty::Scalar(ScalarTy::Int),
            }],
            recipes: Vec::new(),
            pre: Vec::new(),
            captures: 0,
            dims: BTreeMap::new(),
            cells: BTreeSet::new(),
            reductions: Vec::new(),
        };
        self.aggregate_params(&acc, &mut o);
        for (name, class) in &classes {
            if matches!(class, ScalarClass::Param) {
                let ty = self.var_ty_or(name, ScalarTy::Double);
                let var = self.capture(&mut o, name);
                o.param(name, ty, KernelParam::Scalar { var });
            }
        }
        self.bound_params(&levels, &mut o);
        self.slot_params(&classes, &mut o);

        let kbody = self.kernel_body(&levels, &classes, &o);
        let kname = format!("{}_kernel{}", self.cur_func, o.k);
        let seq_name = format!("__seq_{kname}");
        let kernel = self.func(kname.clone(), o.params.clone(), kbody.clone(), o.span);
        self.kernel_funcs.push(kernel);
        let seq = self.seq_fallback(seq_name.clone(), &o.params, kbody, o.span);
        self.seq_funcs.push(seq);

        let actions = self.compute_actions(spec, &acc.aggregates);
        let hoisted = self
            .instr
            .hoisted_kernel_writes
            .get(&s.id)
            .cloned()
            .unwrap_or_default();
        // A falsy `if(cond)` makes the executor run the sequential
        // fallback (OpenACC 1.0 §2.4.3).
        let if_global = self.if_global(
            spec.if_cond.as_deref(),
            format!("__k{}_if", o.k),
            o.span,
            &mut o.pre,
        );
        let used_by = |pick: fn(&_) -> bool| {
            acc.aggregates
                .iter()
                .filter(|(_, u)| pick(u))
                .map(|(n, _)| n.clone())
                .collect()
        };
        self.kernels.push(KernelInfo {
            name: kname,
            seq_name,
            n_threads_global: format!("__k{}_n", o.k),
            params: o.recipes,
            actions,
            gpu_reads: used_by(|u| u.read),
            gpu_writes: used_by(|u| u.written),
            hoisted_writes: hoisted,
            reductions: o.reductions,
            knowledge,
            wave_override: wave_of(spec),
            queue: spec.async_queue,
            if_global,
            stmt: s.id,
            line: s.span.line,
        });
        out.extend(o.pre);
        self.push_host_ops([RtOp::Launch(o.k)], o.span, out);
    }

    /// The construct's `collapse` loop levels, outermost first, or `None`
    /// after reporting why the nest cannot be outlined.
    fn loop_levels(&mut self, s: &Stmt, spec: &ComputeSpec) -> Option<Vec<LoopLevel>> {
        let collapse = spec.loop_spec.collapse.unwrap_or(1).max(1) as usize;
        if collapse > 2 {
            // gid_to_index only decomposes one inner span; deeper collapse
            // would silently mis-index.
            self.err("collapse levels above 2 are unsupported", s.span);
            return None;
        }
        let mut levels: Vec<LoopLevel> = Vec::new();
        let mut cursor = s.clone();
        while levels.len() < collapse {
            let level = match extract_level(&cursor) {
                Ok(level) => level,
                Err(msg) => {
                    self.err(msg, s.span);
                    return None;
                }
            };
            if levels.len() + 1 < collapse {
                match &level.body.stmts[..] {
                    [inner] => cursor = inner.clone(),
                    _ => {
                        self.err("collapse requires perfectly nested loops", s.span);
                        return None;
                    }
                }
            }
            levels.push(level);
        }
        Some(levels)
    }

    /// One pointer parameter per aggregate; each must be a global.
    fn aggregate_params(&mut self, acc: &RegionAccesses, o: &mut Outline) {
        for name in acc.aggregates.keys() {
            let (elem, dims) = match self.sema.var_ty(&self.cur_func, name) {
                Some(Ty::Array(e, d)) => (*e, Some(d.clone())),
                Some(Ty::Ptr(e)) => (*e, None),
                _ => {
                    self.err(format!("cannot resolve aggregate `{name}`"), o.span);
                    continue;
                }
            };
            if !self.is_global(name) {
                self.err(
                    format!(
                        "aggregate `{name}` used in a compute region must be a global (local pointer capture is unsupported)"
                    ),
                    o.span,
                );
                continue;
            }
            o.dims.insert(name.clone(), dims);
            o.param(
                name,
                Ty::Ptr(elem),
                KernelParam::Aggregate { var: name.clone() },
            );
        }
    }

    /// The host global the executor reads for scalar `name`: the global
    /// itself, or a fresh `__k{k}_c{i}` copy of a local set before the
    /// launch.
    fn capture(&mut self, o: &mut Outline, name: &str) -> String {
        if self.is_global(name) {
            return name.to_string();
        }
        let g = format!("__k{}_c{}", o.k, o.captures);
        o.captures += 1;
        let ty = self.var_ty_or(name, ScalarTy::Double);
        self.synth_global(&g, ty, o.span);
        let value = self.var(name, o.span);
        let st = self.assign_var(&g, value, o.span);
        o.pre.push(st);
        g
    }

    /// `__lo{l}` for every level, `__span1` for a collapsed inner level,
    /// and the thread count `__k{k}_n`, the product of the level counts.
    fn bound_params(&mut self, levels: &[LoopLevel], o: &mut Outline) {
        let n_global = format!("__k{}_n", o.k);
        self.synth_global(&n_global, Ty::Scalar(ScalarTy::Long), o.span);
        let mut n_total: Option<Expr> = None;
        for (l, level) in levels.iter().enumerate() {
            let count = self.count_expr(level);
            n_total = Some(match n_total.take() {
                None => count.clone(),
                Some(prev) => self.bin(BinOp::Mul, prev, count.clone(), o.span),
            });
            let lo = format!("__k{}_lo{l}", o.k);
            self.long_param(o, lo, format!("__lo{l}"), level.lo.clone());
            if l == 1 {
                let span1 = format!("__k{}_span1", o.k);
                self.long_param(o, span1, "__span1".into(), count);
            }
        }
        let st = self.assign_var(&n_global, n_total.expect("at least one level"), o.span);
        o.pre.push(st);
    }

    /// A `long` parameter `param` the executor reads from the synthesized
    /// host global `global`, set to `value` before the launch.
    fn long_param(&mut self, o: &mut Outline, global: String, param: String, value: Expr) {
        self.synth_global(&global, Ty::Scalar(ScalarTy::Long), o.span);
        let st = self.assign_var(&global, value, o.span);
        o.pre.push(st);
        o.param(
            param,
            Ty::Scalar(ScalarTy::Long),
            KernelParam::Scalar { var: global },
        );
    }

    /// A `__cell_*` pointer per falsely shared scalar and a `__red_*`
    /// per-thread slot array per reduction (which must be a global).
    fn slot_params(&mut self, classes: &BTreeMap<String, ScalarClass>, o: &mut Outline) {
        for (name, class) in classes {
            match class {
                ScalarClass::Shared => {
                    let elem = self.scalar_elem(name);
                    let init_global = Some(self.capture(o, name));
                    o.param(
                        format!("__cell_{name}"),
                        Ty::Ptr(elem),
                        KernelParam::SharedCell {
                            var: name.clone(),
                            init_global,
                        },
                    );
                    o.cells.insert(name.clone());
                }
                ScalarClass::Reduction(op) => {
                    if !self.is_global(name) {
                        self.err(
                            format!("reduction variable `{name}` must be a global"),
                            o.span,
                        );
                        continue;
                    }
                    let elem = self.scalar_elem(name);
                    o.param(
                        format!("__red_{name}"),
                        Ty::Ptr(elem),
                        KernelParam::ReductionSlot {
                            var: name.clone(),
                            op: *op,
                        },
                    );
                    o.reductions.push((name.clone(), *op));
                }
                _ => {}
            }
        }
    }

    /// The kernel body: loop variables from `__gid`, private and reduction
    /// locals, the rewritten region body, then `__red_s[__gid] = s;` per
    /// reduction.
    fn kernel_body(
        &mut self,
        levels: &[LoopLevel],
        classes: &BTreeMap<String, ScalarClass>,
        o: &Outline,
    ) -> Vec<Stmt> {
        let span = o.span;
        let mut out = Vec::new();
        for (l, level) in levels.iter().enumerate() {
            let ty = self.var_ty_or(&level.var, ScalarTy::Int);
            out.push(self.decl(&level.var, ty, None, span));
            let index = self.gid_to_index(l, levels.len(), span);
            out.push(self.assign_var(&level.var, index, span));
        }
        for (name, class) in classes {
            match class {
                ScalarClass::Private => {
                    let ty = self.var_ty_or(name, ScalarTy::Double);
                    out.push(self.decl(name, ty, None, span));
                }
                ScalarClass::Reduction(op) => {
                    let elem = self.scalar_elem(name);
                    let init = self.expr(op.identity(elem), span);
                    out.push(self.decl(name, Ty::Scalar(elem), Some(init), span));
                }
                _ => {}
            }
        }
        let mut rewrite = Rewrite {
            tx: self,
            dims: &o.dims,
            cells: &o.cells,
        };
        let body = &levels.last().expect("at least one level").body;
        out.extend(body.stmts.iter().map(|st| rewrite.stmt(st)));
        for (name, _) in &o.reductions {
            let gid = self.var("__gid", span);
            let target = LValue::Index {
                base: format!("__red_{name}"),
                indices: vec![gid],
            };
            let value = self.var(name, span);
            out.push(self.assign(target, AssignOp::Set, value, span));
        }
        out
    }

    /// The §III-A reference `name`: `for (int __gid = 0; __gid < __n;
    /// __gid += 1) { <kernel body> }`, taking `__n` and then the kernel's
    /// parameters after `__gid`.
    fn seq_fallback(
        &mut self,
        name: String,
        params: &[Param],
        body: Vec<Stmt>,
        span: Span,
    ) -> Func {
        let zero = self.int(0, span);
        let init = self.decl("__gid", Ty::Scalar(ScalarTy::Int), Some(zero), span);
        let (gid, n) = (self.var("__gid", span), self.var("__n", span));
        let cond = self.bin(BinOp::Lt, gid, n, span);
        let one = self.int(1, span);
        let step = self.assign(LValue::Var("__gid".into()), AssignOp::Add, one, span);
        let kind = StmtKind::For {
            init: Some(Box::new(init)),
            cond: Some(cond),
            step: Some(Box::new(step)),
            body: Block { stmts: body },
        };
        let for_loop = self.stmt(kind, span);
        let mut seq_params = vec![Param {
            name: "__n".into(),
            ty: Ty::Scalar(ScalarTy::Long),
        }];
        seq_params.extend(params[1..].iter().cloned());
        self.func(name, seq_params, vec![for_loop], span)
    }

    /// Iteration count `hi - lo`, `+ 1` for a `<=` bound.
    fn count_expr(&mut self, level: &LoopLevel) -> Expr {
        let span = level.lo.span;
        let count = self.bin(BinOp::Sub, level.hi.clone(), level.lo.clone(), span);
        if !level.inclusive {
            return count;
        }
        let one = self.int(1, span);
        self.bin(BinOp::Add, count, one, span)
    }

    /// Index of loop level `l` from `__gid`: `__lo{l} + __gid`, where a
    /// collapsed pair takes `__gid / __span1` (outer) and `__gid % __span1`
    /// (inner).
    fn gid_to_index(&mut self, l: usize, n_levels: usize, span: Span) -> Expr {
        let gid = self.var("__gid", span);
        let local = if n_levels == 1 {
            gid
        } else {
            let span1 = self.var("__span1", span);
            let op = if l == 0 { BinOp::Div } else { BinOp::Rem };
            self.bin(op, gid, span1, span)
        };
        let lo = self.var(&format!("__lo{l}"), span);
        self.bin(BinOp::Add, lo, local, span)
    }

    /// `((i0 * d1 + i1) * d2 + i2) ...`
    fn linearize(&mut self, dims: &[u64], indices: Vec<Expr>, span: Span) -> Expr {
        let mut it = indices.into_iter();
        let mut acc = it.next().expect("at least one index");
        for (k, ix) in it.enumerate() {
            let stride = self.int(dims[k + 1] as i64, span);
            let row = self.bin(BinOp::Mul, acc, stride, span);
            acc = self.bin(BinOp::Add, row, ix, span);
        }
        acc
    }
}

/// Rewrites a region body into kernel form: a falsely shared scalar `s`
/// becomes `__cell_s[0]` and a multi-dimensional aggregate access is
/// linearized. Original nodes keep their ids.
struct Rewrite<'t, 'a> {
    tx: &'t mut Tx<'a>,
    dims: &'t BTreeMap<String, Option<Vec<u64>>>,
    cells: &'t BTreeSet<String>,
}

impl Rewrite<'_, '_> {
    fn block(&mut self, b: &Block) -> Block {
        Block {
            stmts: b.stmts.iter().map(|s| self.stmt(s)).collect(),
        }
    }

    fn stmt(&mut self, s: &Stmt) -> Stmt {
        let kind = match &s.kind {
            StmtKind::Decl(d) => StmtKind::Decl(VarDecl {
                id: d.id,
                name: d.name.clone(),
                ty: d.ty.clone(),
                init: d.init.as_ref().map(|e| self.expr(e)),
                span: d.span,
            }),
            StmtKind::Expr(e) => StmtKind::Expr(self.expr(e)),
            StmtKind::Assign { target, op, value } => StmtKind::Assign {
                target: self.lvalue(target, s.span),
                op: *op,
                value: self.expr(value),
            },
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => StmtKind::If {
                cond: self.expr(cond),
                then_blk: self.block(then_blk),
                else_blk: else_blk.as_ref().map(|b| self.block(b)),
            },
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => StmtKind::For {
                init: init.as_ref().map(|i| Box::new(self.stmt(i))),
                cond: cond.as_ref().map(|c| self.expr(c)),
                step: step.as_ref().map(|st| Box::new(self.stmt(st))),
                body: self.block(body),
            },
            StmtKind::While { cond, body } => StmtKind::While {
                cond: self.expr(cond),
                body: self.block(body),
            },
            StmtKind::Block(b) => StmtKind::Block(self.block(b)),
            other => other.clone(),
        };
        Stmt {
            id: s.id,
            span: s.span,
            pragmas: Vec::new(),
            kind,
        }
    }

    fn lvalue(&mut self, lv: &LValue, span: Span) -> LValue {
        let (base, indices) = match lv {
            LValue::Var(n) if self.cells.contains(n) => self.cell(n, span),
            LValue::Var(_) => return lv.clone(),
            LValue::Index { base, indices } => self.index(base, indices, span),
        };
        LValue::Index { base, indices }
    }

    fn expr(&mut self, e: &Expr) -> Expr {
        let kind = match &e.kind {
            ExprKind::Var(n) if self.cells.contains(n) => {
                let (base, indices) = self.cell(n, e.span);
                ExprKind::Index { base, indices }
            }
            ExprKind::Index { base, indices } => {
                let (base, indices) = self.index(base, indices, e.span);
                ExprKind::Index { base, indices }
            }
            ExprKind::Unary { op, expr } => ExprKind::Unary {
                op: *op,
                expr: Box::new(self.expr(expr)),
            },
            ExprKind::Binary { op, lhs, rhs } => ExprKind::Binary {
                op: *op,
                lhs: Box::new(self.expr(lhs)),
                rhs: Box::new(self.expr(rhs)),
            },
            ExprKind::Ternary {
                cond,
                then_e,
                else_e,
            } => ExprKind::Ternary {
                cond: Box::new(self.expr(cond)),
                then_e: Box::new(self.expr(then_e)),
                else_e: Box::new(self.expr(else_e)),
            },
            ExprKind::Call { name, args } => ExprKind::Call {
                name: name.clone(),
                args: args.iter().map(|a| self.expr(a)).collect(),
            },
            ExprKind::Cast { ty, expr } => ExprKind::Cast {
                ty: ty.clone(),
                expr: Box::new(self.expr(expr)),
            },
            other => other.clone(),
        };
        Expr {
            id: e.id,
            span: e.span,
            kind,
        }
    }

    /// `__cell_n[0]`.
    fn cell(&mut self, n: &str, span: Span) -> (String, Vec<Expr>) {
        (format!("__cell_{n}"), vec![self.tx.int(0, span)])
    }

    /// `base[indices]` with rewritten indices, flattened to one for a
    /// multi-dimensional array.
    fn index(&mut self, base: &str, indices: &[Expr], span: Span) -> (String, Vec<Expr>) {
        let indices: Vec<Expr> = indices.iter().map(|x| self.expr(x)).collect();
        let indices = match self.dims.get(base) {
            Some(Some(dims)) if dims.len() > 1 => vec![self.tx.linearize(dims, indices, span)],
            _ => indices,
        };
        (base.to_string(), indices)
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
