//! Coherence-check placement (§III-B).
//!
//! Computes where the compiler inserts `check_read` / `check_write` /
//! `reset_status` runtime calls, applying the paper's placement
//! optimizations:
//!
//! * GPU-side checks only at kernel boundaries (built into the launch
//!   handler; this module only *subtracts* hoisted write checks from it).
//! * CPU-side checks only at may-be-first reads/writes since program entry
//!   or the last kernel call ([`openarc_dataflow::first_access`]).
//! * `reset_status` for remote-dead variables only at last writes
//!   ([`openarc_dataflow::last_write`], Algorithm 2) and kernel boundaries.
//! * Checks whose first access sits in a kernel-free loop hoist before the
//!   loop; kernel GPU write checks hoist out of loops under the Listing-3
//!   conditions, enabling detection of per-iteration redundant copyouts.

use crate::ir::RtOp;
use openarc_dataflow::{
    dead_live_compute, first_access, has, insert, last_write, natural_loops, ones, AccessSel, Cfg,
    Deadness, NodeKind, Side, VarId,
};
use openarc_minic::span::Diagnostic;
use openarc_minic::{Func, NodeId, Sema};
use openarc_runtime::{DevSide, St};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Planned instrumentation for one function.
#[derive(Debug, Default)]
pub struct Instrumentation {
    /// Ops to run before a statement.
    pub before: HashMap<NodeId, Vec<RtOp>>,
    /// Ops to run after a statement.
    pub after: HashMap<NodeId, Vec<RtOp>>,
    /// Kernel statement → aggregate vars whose GPU write check is hoisted
    /// (the launch skips their state transition; a pre-loop op does it).
    pub hoisted_kernel_writes: HashMap<NodeId, Vec<String>>,
}

impl Instrumentation {
    fn before_push(&mut self, id: NodeId, op: RtOp) {
        let v = self.before.entry(id).or_default();
        if !v.contains(&op) {
            v.push(op);
        }
    }

    fn after_push(&mut self, id: NodeId, op: RtOp) {
        let v = self.after.entry(id).or_default();
        if !v.contains(&op) {
            v.push(op);
        }
    }

    /// Total number of planned check/reset ops (used by overhead tests).
    pub fn op_count(&self) -> usize {
        self.before.values().map(Vec::len).sum::<usize>()
            + self.after.values().map(Vec::len).sum::<usize>()
    }
}

/// The aggregate (tracked) variables visible in `func`.
pub fn tracked_vars(func: &Func, sema: &Sema) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (name, ty) in &sema.globals {
        if ty.is_aggregate() {
            out.insert(name.clone());
        }
    }
    if let Some(info) = sema.funcs.get(&func.name) {
        for (name, ty) in &info.locals {
            if ty.is_aggregate() {
                out.insert(name.clone());
            }
        }
    }
    out
}

/// `reset_status(var, side, ..)` for a copy Algorithm 1 finds dead.
fn reset_for(deadness: Deadness, var: &str, side: DevSide) -> Option<RtOp> {
    let st = match deadness {
        Deadness::MustDead => St::NotStale,
        Deadness::MayDead => St::MayStale,
        Deadness::Live => return None,
    };
    let var = var.to_string();
    Some(RtOp::ResetStatus { var, side, st })
}

/// `a ∩ b`, ascending.
fn both<'a>(a: &'a [u64], b: &'a [u64]) -> impl Iterator<Item = VarId> + 'a {
    ones(a.iter().zip(b).map(|(a, b)| a & b))
}

/// Plan instrumentation for `func`. With `optimize` false, checks go at
/// every access (the naive placement the paper's optimizations replace).
///
/// Variables are [`Cfg`] ids throughout — ascending id order is name order,
/// which fixes the order of every op list — and become names again only
/// inside an [`RtOp`].
pub fn plan(
    func: &Func,
    sema: &Sema,
    optimize: bool,
    hoist_gpu: bool,
    ignored_updates: &BTreeSet<NodeId>,
) -> Result<Instrumentation, Diagnostic> {
    let cfg = Cfg::build_typed(func, sema)?;
    let mut ins = Instrumentation::default();
    let mut tracked = vec![0u64; cfg.words()];
    for v in tracked_vars(func, sema).iter().filter_map(|n| cfg.var(n)) {
        insert(&mut tracked, v);
    }
    if tracked.iter().all(|w| *w == 0) {
        return Ok(ins);
    }
    let tracked = &tracked[..];
    let name = |v: VarId| cfg.vars()[v as usize].as_str();
    // Kernel and update nodes manage coherence in their handlers.
    let checked_stmt = |n: usize| {
        let node = &cfg.nodes[n];
        let plain = !node.is_kernel() && !matches!(node.kind, NodeKind::Update(_));
        node.stmt.filter(|_| plain)
    };

    let loops = natural_loops(&cfg);
    let has_kernel: Vec<bool> = (loops.iter())
        .map(|l| l.body.iter().any(|&n| cfg.nodes[n].is_kernel()))
        .collect();
    // Node → the loops containing it, outermost first.
    let mut loops_of: Vec<Vec<usize>> = vec![Vec::new(); cfg.len()];
    for (i, l) in loops.iter().enumerate() {
        for &n in &l.body {
            loops_of[n].push(i);
        }
    }
    for chain in &mut loops_of {
        chain.sort_by_key(|&i| std::cmp::Reverse(loops[i].body.len()));
    }
    // A CPU check (or reset) in a kernel-free loop hoists to the outermost
    // such loop: only the first (final) iteration's state matters, and
    // keeping the call out of the hot loop is where the paper's low
    // Figure 4 overhead comes from.
    let target = |n: usize, stmt: NodeId| {
        if !optimize {
            return stmt;
        }
        let mut free = loops_of[n].iter().filter(|&&l| !has_kernel[l]);
        free.find_map(|&l| cfg.nodes[loops[l].head].stmt)
            .unwrap_or(stmt)
    };

    // ---- CPU-side read/write checks -------------------------------------
    // Naive: every access is checked.
    let first = optimize.then(|| {
        let reads = first_access(&cfg, Side::Host, AccessSel::Read);
        (reads, first_access(&cfg, Side::Host, AccessSel::Write))
    });
    for n in 0..cfg.len() {
        let Some(stmt) = checked_stmt(n) else {
            continue;
        };
        let host = cfg.summary(n, Side::Host);
        let (reads, writes) = match &first {
            Some((r, w)) => (r.first_at(&cfg, n), w.first_at(&cfg, n)),
            None => (host.reads.to_vec(), host.writes.to_vec()),
        };
        for v in both(&reads, tracked) {
            let op = RtOp::CheckRead {
                var: name(v).to_string(),
                side: DevSide::Cpu,
                site: format!("cpu_read@{stmt}"),
            };
            ins.before_push(target(n, stmt), op);
        }
        for v in both(&writes, tracked) {
            let op = RtOp::CheckWrite {
                var: name(v).to_string(),
                side: DevSide::Cpu,
                total: has(host.total_writes, v),
                site: format!("cpu_write@{stmt}"),
            };
            ins.before_push(target(n, stmt), op);
        }
    }

    // ---- reset_status at last CPU writes (remote = GPU deadness) --------
    let dl_gpu = dead_live_compute(&cfg, Side::Gpu);
    let lw_host = last_write(&cfg, Side::Host, true);
    for n in 0..cfg.len() {
        let Some(stmt) = checked_stmt(n) else {
            continue;
        };
        let candidates = if optimize {
            lw_host.last_written_at(&cfg, Side::Host, n)
        } else {
            cfg.summary(n, Side::Host).writes.to_vec()
        };
        for v in both(&candidates, tracked) {
            if let Some(op) = reset_for(dl_gpu.after(n, v), name(v), DevSide::Gpu) {
                ins.after_push(target(n, stmt), op);
            }
        }
    }

    // ---- reset_status for dead CPU copies at kernel boundaries ----------
    let dl_host = dead_live_compute(&cfg, Side::Host);
    let kernels: Vec<(usize, NodeId)> = (cfg.kernel_nodes())
        .filter_map(|k| Some((k, cfg.nodes[k].stmt?)))
        .collect();
    for &(k, stmt) in &kernels {
        for v in both(cfg.summary(k, Side::Gpu).writes, tracked) {
            if let Some(op) = reset_for(dl_host.after(k, v), name(v), DevSide::Cpu) {
                ins.after_push(stmt, op);
            }
        }
    }

    // ---- Listing-3 hoisting of GPU write checks --------------------------
    let hoistable = if optimize && hoist_gpu {
        &kernels[..]
    } else {
        &[]
    };
    for &(k, kstmt) in hoistable {
        let Some(outer) = loops_of[k].first().map(|&l| &loops[l]) else {
            continue;
        };
        let Some(head_stmt) = cfg.nodes[outer.head].stmt else {
            continue;
        };
        // Variables the loop pins in place: (i) host code in the loop
        // touches them, or (ii) "no memory transfer call for the variable
        // exists BEFORE the write_check() call within the loop" fails — only
        // transfers preceding the kernel in the iteration matter (the
        // paper's own example keeps the post-kernel memcpyout and still
        // hoists).
        let mut pinned = vec![0u64; cfg.words()];
        for &n in &outer.body {
            let node = &cfg.nodes[n];
            match &node.kind {
                NodeKind::Kernel(_) => {}
                NodeKind::Update(u) => {
                    // User-removed updates no longer transfer anything.
                    let removed = node.stmt.is_some_and(|id| ignored_updates.contains(&id));
                    if !removed && n < k {
                        for v in u.host.iter().chain(&u.device).filter_map(|v| cfg.var(v)) {
                            insert(&mut pinned, v);
                        }
                    }
                }
                NodeKind::DataEnter(_) | NodeKind::DataExit(_) => pinned.fill(!0),
                _ => {
                    let host = cfg.summary(n, Side::Host);
                    for (p, (r, w)) in pinned.iter_mut().zip(host.reads.iter().zip(host.writes)) {
                        *p |= r | w;
                    }
                }
            }
        }
        let written = cfg.summary(k, Side::Gpu).writes;
        let free: Vec<u64> = written.iter().zip(&pinned).map(|(w, p)| w & !p).collect();
        for v in both(&free, tracked) {
            ins.before_push(
                head_stmt,
                RtOp::CheckWrite {
                    var: name(v).to_string(),
                    side: DevSide::Gpu,
                    total: false,
                    site: format!("gpu_write_hoisted@{kstmt}"),
                },
            );
            ins.hoisted_kernel_writes
                .entry(kstmt)
                .or_default()
                .push(name(v).to_string());
        }
    }

    Ok(ins)
}

/// Count ops of each kind (diagnostics and tests).
pub fn op_histogram(ins: &Instrumentation) -> BTreeMap<&'static str, usize> {
    let mut h: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut bump = |op: &RtOp| {
        let k = match op {
            RtOp::CheckRead { .. } => "check_read",
            RtOp::CheckWrite { .. } => "check_write",
            RtOp::ResetStatus { .. } => "reset_status",
            _ => "other",
        };
        *h.entry(k).or_insert(0) += 1;
    };
    for ops in ins.before.values().chain(ins.after.values()) {
        for op in ops {
            bump(op);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use openarc_minic::frontend;

    fn planned(src: &str, optimize: bool) -> (openarc_minic::Program, Instrumentation) {
        let (p, s) = frontend(src).expect("frontend");
        let f = p.func("main").unwrap().clone();
        let ins = plan(&f, &s, optimize, true, &Default::default()).expect("plan");
        (p, ins)
    }

    #[test]
    fn no_aggregates_no_ops() {
        let (_, ins) = planned("int n;\nvoid main() { n = 1; }", true);
        assert_eq!(ins.op_count(), 0);
    }

    #[test]
    fn first_read_checked_once() {
        let src = "double a[8];\nint z;\nvoid main() { z = (int) a[0]; z = (int) a[1]; }";
        let (_, ins) = planned(src, true);
        let h = op_histogram(&ins);
        assert_eq!(h.get("check_read").copied().unwrap_or(0), 1);
    }

    #[test]
    fn naive_mode_checks_every_access() {
        let src = "double a[8];\nint z;\nvoid main() { z = (int) a[0]; z = (int) a[1]; }";
        let (_, ins) = planned(src, false);
        let h = op_histogram(&ins);
        assert_eq!(h.get("check_read").copied().unwrap_or(0), 2);
        // Optimized placement is strictly cheaper.
        let (_, opt) = planned(src, true);
        assert!(opt.op_count() < ins.op_count());
    }

    #[test]
    fn check_hoisted_out_of_kernel_free_loop() {
        let src = "double a[8];\nint z;\nvoid main() { int j; for (j = 0; j < 8; j++) { z = z + (int) a[j]; } }";
        let (p, ins) = planned(src, true);
        // The check must be attached to the for statement, not the body.
        let f = p.func("main").unwrap();
        let for_id = f.body.stmts[1].id;
        assert!(
            ins.before
                .get(&for_id)
                .map(|v| v
                    .iter()
                    .any(|op| matches!(op, RtOp::CheckRead { var, .. } if var == "a")))
                .unwrap_or(false),
            "{ins:?}"
        );
    }

    #[test]
    fn check_not_hoisted_past_kernel_in_loop() {
        let src = "double a[8];\nint z;\nvoid main() {\n int k; int j;\n for (k = 0; k < 3; k++) {\n  #pragma acc kernels loop gang\n  for (j = 0; j < 8; j++) { a[j] = 1.0; }\n  z = (int) a[0];\n }\n}";
        let (p, ins) = planned(src, true);
        let f = p.func("main").unwrap();
        let outer_for = f.body.stmts[2].id;
        // The host read of `a` after the kernel must NOT hoist out of the
        // kernel-containing loop.
        let hoisted_read = ins
            .before
            .get(&outer_for)
            .map(|v| v.iter().any(|op| matches!(op, RtOp::CheckRead { .. })))
            .unwrap_or(false);
        assert!(!hoisted_read);
        // But some check_read must exist inside the loop.
        let h = op_histogram(&ins);
        assert!(h.get("check_read").copied().unwrap_or(0) >= 1);
    }

    #[test]
    fn reset_status_after_last_write_when_gpu_dead() {
        // CPU writes `a`; GPU never touches it → GPU copy must-dead.
        let src = "double a[8];\ndouble b[8];\nvoid main() {\n int j;\n a[0] = 1.0;\n #pragma acc kernels loop gang\n for (j = 0; j < 8; j++) { b[j] = 2.0; }\n}";
        let (_, ins) = planned(src, true);
        let resets: Vec<&RtOp> = ins
            .after
            .values()
            .flatten()
            .filter(
                |op| matches!(op, RtOp::ResetStatus { var, side: DevSide::Gpu, .. } if var == "a"),
            )
            .collect();
        assert!(!resets.is_empty(), "{ins:?}");
    }

    #[test]
    fn listing3_gpu_write_check_hoisted() {
        // Kernel in a loop, var `b` written by kernel, no CPU access or
        // transfer of `b` inside the loop, data region outside.
        let src = "double a[8];\ndouble b[8];\nvoid main() {\n int k; int j;\n #pragma acc data create(a, b)\n {\n  for (k = 0; k < 4; k++) {\n   #pragma acc kernels loop gang\n   for (j = 0; j < 8; j++) { b[j] = a[j] + 1.0; }\n  }\n }\n}";
        let (p, ins) = planned(src, true);
        // Find the kernel statement id (the annotated for).
        let mut kernel_id = None;
        openarc_minic::ast::walk_stmts(&p.func("main").unwrap().body, &mut |s| {
            if s.pragmas.iter().any(|pr| pr.text.contains("kernels")) {
                kernel_id = Some(s.id);
            }
        });
        let kid = kernel_id.unwrap();
        let hoisted = ins
            .hoisted_kernel_writes
            .get(&kid)
            .cloned()
            .unwrap_or_default();
        assert!(hoisted.contains(&"b".to_string()), "{ins:?}");
    }

    #[test]
    fn listing3_no_hoist_when_cpu_touches_var_in_loop() {
        let src = "double b[8];\nvoid main() {\n int k; int j;\n #pragma acc data create(b)\n {\n  for (k = 0; k < 4; k++) {\n   #pragma acc kernels loop gang\n   for (j = 0; j < 8; j++) { b[j] = 1.0; }\n   b[0] = 2.0;\n  }\n }\n}";
        let (p, ins) = planned(src, true);
        let mut kernel_id = None;
        openarc_minic::ast::walk_stmts(&p.func("main").unwrap().body, &mut |s| {
            if s.pragmas.iter().any(|pr| pr.text.contains("kernels")) {
                kernel_id = Some(s.id);
            }
        });
        let hoisted = ins
            .hoisted_kernel_writes
            .get(&kernel_id.unwrap())
            .cloned()
            .unwrap_or_default();
        assert!(hoisted.is_empty(), "{ins:?}");
    }
}
