//! Transfer lowering: structured `data` regions, `update`, `wait` and
//! `declare` directives, and the per-launch [`DataAction`]s of a compute
//! construct (its own clause, an enclosing region, or the default
//! copy-everything policy).

use super::privatize::AggUse;
use super::{strip_pragmas, Tx};
use crate::ir::{DataAction, DataRegionInfo, RtOp};
use openarc_minic::ast::{Block, Stmt, StmtKind};
use openarc_openacc::{ComputeSpec, DataClause, DataSpec, UpdateSpec};
use std::collections::BTreeMap;

impl Tx<'_> {
    /// `data`: `DataEnter`, the lowered body, `DataExit`. The region's
    /// clauses cover every kernel lowered inside it.
    pub(super) fn lower_data(&mut self, s: &Stmt, spec: &DataSpec, out: &mut Vec<Stmt>) {
        if let Some(kind) = escaping_branch(s) {
            self.err(
                format!(
                    "`{kind}` would branch out of a structured data region (illegal in OpenACC)"
                ),
                s.span,
            );
            return;
        }
        let region = self.data_regions.len();
        let if_global = self.if_global(
            spec.if_cond.as_deref(),
            format!("__d{region}_if"),
            s.span,
            out,
        );
        self.data_regions.push(DataRegionInfo {
            actions: clause_actions(&spec.clauses),
            if_global,
            stmt: s.id,
        });
        self.push_host_ops([RtOp::DataEnter(region)], s.span, out);
        self.region_stack.push((region, spec.clauses.clone()));
        match &s.kind {
            StmtKind::Block(b) => {
                for st in &b.stmts {
                    self.lower_stmt(st, out);
                }
            }
            _ => self.lower_stmt(&strip_pragmas(s), out),
        }
        self.region_stack.pop();
        self.push_host_ops([RtOp::DataExit(region)], s.span, out);
    }

    /// `update`: one `Update` op at site `update{n}`; its `if(...)` global
    /// is numbered from 1.
    pub(super) fn lower_update(&mut self, s: &Stmt, u: &UpdateSpec, out: &mut Vec<Stmt>) {
        let site = format!("update{}", self.update_count);
        self.update_count += 1;
        self.update_sites.push((site.clone(), s.id));
        let if_global = self.if_global(
            u.if_cond.as_deref(),
            format!("__u{}_if", self.update_count),
            s.span,
            out,
        );
        let op = RtOp::Update {
            to_host: u.host.clone(),
            to_device: u.device.clone(),
            queue: u.async_queue,
            site,
            if_global,
        };
        self.push_host_ops([op], s.span, out);
    }

    /// `declare`: program-lifetime data clauses — the runtime maps them
    /// before `main` runs. Declared variables behave like an enclosing data
    /// region for every later kernel in this function.
    pub(super) fn lower_declare(&mut self, clauses: &[DataClause]) {
        self.declares.extend(clause_actions(clauses));
        self.region_stack.push((usize::MAX, clauses.to_vec()));
    }

    /// One action per aggregate a kernel touches: its own clause wins, then
    /// the innermost enclosing region or `declare` naming it (no transfer),
    /// then the default OpenACC policy — copy everything in, modified data
    /// out, allocate per kernel (the paper's naive scheme).
    pub(super) fn compute_actions(
        &self,
        spec: &ComputeSpec,
        aggregates: &BTreeMap<String, AggUse>,
    ) -> Vec<DataAction> {
        aggregates
            .iter()
            .map(|(name, u)| {
                let own = spec
                    .data
                    .iter()
                    .find(|c| c.names().any(|n| n == name))
                    .map(|c| c.kind);
                let region = self
                    .region_stack
                    .iter()
                    .rev()
                    .find(|(_, cs)| cs.iter().any(|c| c.names().any(|n| n == name)))
                    .map(|(r, _)| *r);
                let (copyin, copyout) = match (own, region) {
                    (Some(kind), _) => (kind.transfers_in(), kind.transfers_out()),
                    (None, Some(_)) => (false, false),
                    (None, None) => (true, u.written),
                };
                DataAction {
                    var: name.clone(),
                    map: true,
                    copyin,
                    copyout,
                    from_clause: own,
                    covering_region: region.filter(|_| own.is_none()),
                    written: u.written,
                }
            })
            .collect()
    }
}

/// The actions of a `data` or `declare` directive: one per listed
/// variable, in clause order.
fn clause_actions(clauses: &[DataClause]) -> Vec<DataAction> {
    clauses
        .iter()
        .flat_map(|c| {
            c.items.iter().map(move |item| DataAction {
                var: item.name.clone(),
                map: c.kind.allocates() || c.kind.checks_present(),
                copyin: c.kind.transfers_in(),
                copyout: c.kind.transfers_out(),
                from_clause: Some(c.kind),
                covering_region: None,
                written: false,
            })
        })
        .collect()
}

/// If the region body contains a `break`/`continue` not enclosed in a loop
/// inside the region, or any `return`, name the offending construct.
/// OpenACC forbids branching out of a structured data region; allowing it
/// would unbalance the present table.
fn escaping_branch(s: &Stmt) -> Option<&'static str> {
    fn scan(b: &Block, loop_depth: u32) -> Option<&'static str> {
        b.stmts.iter().find_map(|st| match &st.kind {
            StmtKind::Break if loop_depth == 0 => Some("break"),
            StmtKind::Continue if loop_depth == 0 => Some("continue"),
            StmtKind::Return(_) => Some("return"),
            StmtKind::If {
                then_blk, else_blk, ..
            } => scan(then_blk, loop_depth)
                .or_else(|| else_blk.as_ref().and_then(|e| scan(e, loop_depth))),
            StmtKind::For { body, .. } | StmtKind::While { body, .. } => scan(body, loop_depth + 1),
            StmtKind::Block(inner) => scan(inner, loop_depth),
            _ => None,
        })
    }
    match &s.kind {
        StmtKind::Block(b) => scan(b, 0),
        _ => None,
    }
}
