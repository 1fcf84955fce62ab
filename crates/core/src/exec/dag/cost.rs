//! Cost-model-driven device placement for the launch DAG.
//!
//! The round-robin plan of [`DepDag::device_plan`] balances *counts*, not
//! *work*: on CFD it leaves the devices at 0.84/0.13 utilization because a
//! tiny step-factor kernel shares a level with three heavy ones. This
//! module estimates what each launch site actually costs on the simulated
//! machine and list-schedules the DAG by earliest finish time (EFT):
//! level by level (the executor's real concurrency unit — consecutive
//! levels are separated by a host sync), heaviest site first, each one
//! going to the device whose level lane finishes it earliest, with
//! aggregate load and input locality breaking ties, then a refinement
//! pass that drains the bottleneck device within round-robin's per-level
//! makespan budget.
//!
//! Costs are static estimates ([`estimate_site_costs`]): kernel time from
//! [`CostModel::kernel_time`] over a thread-count proxy (the largest
//! statically-sized aggregate the site writes) and a per-thread
//! instruction proxy (the kernel chunk's bytecode length); staging cost
//! as one [`CostModel::transfer_time`] per touched aggregate.
//!
//! A site's table entry is its *total* predicted load: the
//! per-launch cost times the site's estimated launch count
//! ([`launch_multiplicity`], from the trip counts of the loops enclosing
//! the launch in the lowered host AST). The placement is per *site*, but
//! the device queues fill per *launch* — a kernel inside a `2`-trip
//! Runge-Kutta stage loads its device twice as much per outer iteration
//! as its level-mates, which is exactly the imbalance round-robin cannot
//! see.
//!
//! Greedy EFT carries no optimality guarantee, so [`eft_plan`] is a
//! *portfolio*: it evaluates both its greedy plan and the round-robin
//! plan under the same model and returns whichever predicts the better
//! [`Schedule::objective`] — makespan first, bottleneck device load as
//! tie-break. The EFT plan's predicted objective
//! therefore never exceeds round-robin's, by construction. Everything
//! here is deterministic — ordered maps, index-ordered tie-breaking, no
//! hashing — so a plan is a pure function of (DAG, cost table, device
//! count).

use super::DepDag;
use crate::ir::RtOp;
use crate::translate::Translated;
use openarc_gpusim::{CostModel, DeviceId};
use openarc_minic::ast::{AssignOp, BinOp, Block, Expr, ExprKind, Item, Stmt, StmtKind, UnOp};

/// Fallback bytes for an aggregate whose static size is unknown
/// (pointer-typed or dynamically sized): one page.
const DEFAULT_BYTES: u64 = 4096;

/// Fallback per-thread instruction count when a kernel chunk is missing.
const DEFAULT_BODY_LEN: u64 = 16;

/// Fallback trip count for a loop whose bounds the estimator cannot fold.
const DEFAULT_TRIPS: u64 = 8;

/// Cap on a site's estimated launch count; keeps pathological nests from
/// overflowing into meaningless magnitudes.
const MULT_CAP: u64 = 1 << 20;

/// Predicted cost of one launch site over the whole run, µs of simulated
/// time (per-launch cost × estimated launch count).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SiteCost {
    /// Device execution spans (launch overhead + kernel time).
    pub kernel_us: f64,
    /// Host→device staging transfers charged at issue.
    pub stage_us: f64,
}

impl SiteCost {
    /// Total predicted device-side occupancy of the site.
    pub fn total_us(&self) -> f64 {
        self.kernel_us + self.stage_us
    }
}

/// Per-site total costs plus launch-count estimates, aligned with a
/// [`DepDag`]'s sites.
#[derive(Debug, Clone, Default)]
pub struct CostTable {
    /// One entry per launch site: its total predicted device load.
    pub sites: Vec<SiteCost>,
    /// Estimated launches per site (≥ 1); already folded into `sites`,
    /// kept for display (`openarc dag` labels each site `cost×mult`).
    pub mult: Vec<u64>,
}

/// Fold an integer-constant expression (literals and unary negation).
fn const_i64(e: &Expr) -> Option<i64> {
    match &e.kind {
        ExprKind::IntLit(v) => Some(*v),
        ExprKind::Unary {
            op: UnOp::Neg,
            expr,
        } => const_i64(expr).map(|v| v.wrapping_neg()),
        _ => None,
    }
}

/// Estimate the trip count of a lowered `for` header. Only the canonical
/// counted shape folds — `v = a; v </<= b; v += c` with constant `a`,
/// `b`, `c` — everything else gets [`DEFAULT_TRIPS`].
fn loop_trips(init: Option<&Stmt>, cond: Option<&Expr>, step: Option<&Stmt>) -> u64 {
    let folded = || -> Option<u64> {
        let (var, start) = match init.map(|s| &s.kind) {
            Some(StmtKind::Assign {
                target,
                op: AssignOp::Set,
                value,
            }) => (target.base().to_string(), const_i64(value)?),
            Some(StmtKind::Decl(d)) => (d.name.clone(), const_i64(d.init.as_ref()?)?),
            _ => return None,
        };
        let (bound, inclusive) = match cond.map(|e| &e.kind) {
            Some(ExprKind::Binary { op, lhs, rhs })
                if matches!(op, BinOp::Lt | BinOp::Le)
                    && matches!(&lhs.kind, ExprKind::Var(n) if *n == var) =>
            {
                (const_i64(rhs)?, *op == BinOp::Le)
            }
            _ => return None,
        };
        let stride = match step.map(|s| &s.kind) {
            Some(StmtKind::Assign { target, op, value }) if target.base() == var => match op {
                AssignOp::Add => const_i64(value)?,
                AssignOp::Set => match &value.kind {
                    ExprKind::Binary {
                        op: BinOp::Add,
                        lhs,
                        rhs,
                    } if matches!(&lhs.kind, ExprKind::Var(n) if *n == var) => const_i64(rhs)?,
                    _ => return None,
                },
                _ => return None,
            },
            _ => return None,
        };
        if stride <= 0 {
            return None;
        }
        let span = bound + i64::from(inclusive) - start;
        Some((span.max(0) as u64).div_ceil(stride as u64))
    };
    folded().unwrap_or(DEFAULT_TRIPS)
}

/// Walk a lowered block recording, for every `__host_op` launch marker,
/// the product of enclosing-loop trip counts.
fn walk_mult(block: &Block, mult: u64, ops: &[RtOp], out: &mut [u64]) {
    for s in &block.stmts {
        match &s.kind {
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let trips = loop_trips(init.as_deref(), cond.as_ref(), step.as_deref());
                walk_mult(
                    body,
                    mult.saturating_mul(trips.max(1)).min(MULT_CAP),
                    ops,
                    out,
                );
            }
            StmtKind::While { body, .. } => {
                walk_mult(
                    body,
                    mult.saturating_mul(DEFAULT_TRIPS).min(MULT_CAP),
                    ops,
                    out,
                );
            }
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                walk_mult(then_blk, mult, ops, out);
                if let Some(e) = else_blk {
                    walk_mult(e, mult, ops, out);
                }
            }
            StmtKind::Block(b) => walk_mult(b, mult, ops, out),
            StmtKind::Expr(Expr {
                kind: ExprKind::Call { name, args },
                ..
            }) if name == openarc_vm::HOST_OP => {
                if let Some(id) = args.first().and_then(const_i64) {
                    if let Some(RtOp::Launch(k)) = ops.get(id as usize) {
                        if let Some(slot) = out.get_mut(*k) {
                            *slot = (*slot).max(mult);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Estimate how many times each launch site fires over one program run:
/// the product of the trip counts of the loops enclosing its `__host_op`
/// marker in the lowered host AST. Constant-bound counted loops fold
/// exactly; anything else contributes `DEFAULT_TRIPS`. Sites the walk
/// never reaches (dead code) report 1.
pub fn launch_multiplicity(tr: &Translated) -> Vec<u64> {
    let mut out = vec![0u64; tr.kernels.len()];
    for item in &tr.host_program.items {
        if let Item::Func(f) = item {
            walk_mult(&f.body, 1, &tr.ops, &mut out);
        }
    }
    for m in &mut out {
        *m = (*m).max(1);
    }
    out
}

/// Statically estimate every site's cost from the translated program.
///
/// Thread counts are unknowable at plan time (`n_threads_global` is
/// assigned right before each launch), so the estimator uses the largest
/// statically-declared length among the aggregates the site writes (its
/// output size bounds its iteration space), falling back to its read
/// aggregates, then to a single thread. Per-thread work is proxied by the
/// kernel chunk's instruction count. Each site's per-launch estimate is
/// scaled by its [`launch_multiplicity`].
pub fn estimate_site_costs(tr: &Translated, model: &CostModel) -> CostTable {
    let agg_bytes = |name: &str| -> Option<(u64, u64)> {
        // (elements, bytes) of a statically-sized host aggregate.
        let slot = tr.host_module.global_slot(name)?;
        let ty = &tr.host_module.globals[slot as usize].ty;
        let len = ty.static_len()?;
        let elem = ty.elem().map(|e| e.size_bytes()).unwrap_or(8);
        Some((len, len * elem))
    };

    let mult = launch_multiplicity(tr);
    let sites = tr
        .kernels
        .iter()
        .zip(&mult)
        .map(|(k, &m)| {
            let body_len = tr
                .kernel_module
                .chunk(&k.name)
                .map(|c| c.code.len() as u64)
                .unwrap_or(DEFAULT_BODY_LEN)
                .max(1);
            let n_est = k
                .gpu_writes
                .iter()
                .chain(k.gpu_reads.iter())
                .filter_map(|v| agg_bytes(v).map(|(len, _)| len))
                .max()
                .unwrap_or(1)
                .max(1);
            let kernel_us = model.kernel_time(n_est * body_len, body_len);
            let stage_us: f64 = k
                .gpu_reads
                .iter()
                .chain(k.gpu_writes.iter())
                .collect::<std::collections::BTreeSet<_>>()
                .iter()
                .map(|v| {
                    let bytes = agg_bytes(v).map(|(_, b)| b).unwrap_or(DEFAULT_BYTES);
                    model.transfer_time(bytes)
                })
                .sum();
            SiteCost {
                kernel_us: kernel_us * m as f64,
                stage_us: stage_us * m as f64,
            }
        })
        .collect();

    CostTable { sites, mult }
}

/// A fully-evaluated placement: per-site device, predicted start/finish
/// times on the model timeline, and the resulting makespan.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Device per launch site.
    pub plan: Vec<DeviceId>,
    /// Predicted issue time of each site, µs.
    pub start_us: Vec<f64>,
    /// Predicted finish time of each site, µs.
    pub finish_us: Vec<f64>,
    /// Predicted completion time of the whole DAG, µs (one-instance
    /// critical path through queues and dependency edges).
    pub makespan_us: f64,
    /// Predicted total load per device, µs.
    pub busy_us: Vec<f64>,
}

impl Schedule {
    /// The most-loaded device's total, µs — how well the plan spreads the
    /// program's whole device-side load.
    pub fn bottleneck_us(&self) -> f64 {
        self.busy_us.iter().copied().fold(0.0, f64::max)
    }

    /// The objective the placement portfolio minimizes: predicted
    /// makespan first, bottleneck load as the tie-break. Ties on both are
    /// common — a solo level's device cannot change the makespan — and
    /// the bottleneck term steers those free choices toward balance.
    pub fn objective(&self) -> (f64, f64) {
        (self.makespan_us, self.bottleneck_us())
    }
}

/// Model-evaluate a fixed device plan under the executor's *barrier*
/// semantics.
///
/// The verified executor issues launches in program order and retires
/// in-flight launches whenever a new site's footprint conflicts with one
/// of them — and the host clock syncs past the whole window at each such
/// retirement. Sites on the same DAG level are pairwise conflict-free
/// (an edge forces a level difference), so on the simulated machine a
/// level's sites genuinely overlap across devices, while consecutive
/// levels are separated by a host sync. The evaluator reproduces that:
/// per level, each device runs its assigned sites back to back from the
/// level's start; the next level starts when the slowest device lane
/// finishes. Starts and finishes therefore respect every RAW/WAR/WAW
/// edge (dependencies always cross a level boundary).
pub fn evaluate_plan(
    dag: &DepDag,
    costs: &CostTable,
    plan: &[DeviceId],
    n_devices: usize,
) -> Schedule {
    let n = n_devices.max(1);
    let mut busy_us = vec![0.0f64; n];
    let mut start_us = vec![0.0f64; dag.len()];
    let mut finish_us = vec![0.0f64; dag.len()];
    let mut level_start = 0.0f64;
    let mut lane = vec![0.0f64; n]; // device lanes within the current level
    let mut cur_level = 0usize;
    for &j in &dag.schedule() {
        if dag.levels[j] != cur_level {
            // Barrier: the next level starts when every lane has drained.
            level_start = lane.iter().copied().fold(level_start, f64::max);
            lane.iter_mut().for_each(|l| *l = level_start);
            cur_level = dag.levels[j];
        }
        let d = (plan[j].0 as usize).min(n - 1);
        let dur = costs.sites.get(j).copied().unwrap_or_default().total_us();
        let start = lane[d].max(level_start);
        start_us[j] = start;
        finish_us[j] = start + dur;
        lane[d] = finish_us[j];
        busy_us[d] += dur;
    }
    let makespan_us = finish_us.iter().copied().fold(0.0, f64::max);
    Schedule {
        plan: plan.to_vec(),
        start_us,
        finish_us,
        makespan_us,
        busy_us,
    }
}

/// Earliest-finish-time list scheduler with a round-robin portfolio
/// fallback.
///
/// Sites are scheduled level by level (the executor's real concurrency
/// unit — see [`evaluate_plan`]), heaviest site first within a level,
/// each going to the device whose level lane finishes it earliest. Ties
/// break by, in order: lighter total device load so far (solo levels and
/// symmetric lanes spread instead of stacking), fewer cross-device input
/// hops (a site prefers the device already holding its inputs — on this
/// machine locality saves a one-time allocation, below the model's
/// resolution, so it ranks as a preference rather than a cost), then the
/// lower device id.
///
/// After the per-level pass, a refinement loop drains load off the
/// bottleneck device: it moves sites away from the most-loaded device
/// whenever the move strictly lowers the heaviest device's total load
/// *and* keeps the donor level's makespan within round-robin's makespan
/// for that same level. The second condition is the sim-safety bound —
/// at every host sync point the refined plan's device lanes are no
/// longer than round-robin's, so refinement can trade predicted makespan
/// slack for balance without ever making the real run slower than the
/// round-robin baseline. (The slack is real: a level whose sole member
/// dominates the program, like CFD's update kernel, pins the makespan no
/// matter where it runs, so only aggregate balance is left to optimize.)
///
/// The chosen plan is re-evaluated with [`evaluate_plan`] and compared —
/// under the same evaluator — against [`DepDag::device_plan`]'s
/// round-robin on [`Schedule::objective`]; the better plan wins, so the
/// returned schedule's predicted objective is never worse than
/// round-robin's. With one device both collapse to the all-primary plan.
pub fn eft_plan(dag: &DepDag, costs: &CostTable, n_devices: usize) -> Schedule {
    const EPS: f64 = 1e-9;
    let n = n_devices.max(1);
    let mut plan = vec![DeviceId::PRIMARY; dag.len()];
    let mut busy = vec![0.0f64; n];
    let mut loc: Vec<Option<DeviceId>> = vec![None; dag.vars.names.len()];
    let schedule = dag.schedule();
    let site_cost = |j: usize| costs.sites.get(j).copied().unwrap_or_default().total_us();
    let rr_plan = dag.device_plan(n);

    // Sites grouped by level, in schedule order.
    let mut levels: Vec<Vec<usize>> = Vec::new();
    for &j in &schedule {
        let l = dag.levels[j];
        if levels.len() <= l {
            levels.resize(l + 1, Vec::new());
        }
        levels[l].push(j);
    }
    // Round-robin's per-level makespan: the sim-safety budget each level
    // of the refined plan must stay within.
    let rr_level_max: Vec<f64> = levels
        .iter()
        .map(|members| {
            let mut lane = vec![0.0f64; n];
            for &j in members {
                lane[(rr_plan[j].0 as usize).min(n - 1)] += site_cost(j);
            }
            lane.iter().copied().fold(0.0, f64::max)
        })
        .collect();

    // Per-level lane totals of the plan under construction, kept for the
    // refinement pass's level-budget checks.
    let mut level_lane: Vec<Vec<f64>> = vec![vec![0.0f64; n]; levels.len()];

    for (l, members) in levels.iter().enumerate() {
        // Longest-processing-time order within the level; index breaks
        // cost ties so the plan stays a pure function of its inputs.
        let mut order = members.clone();
        order.sort_by(|&a, &b| {
            site_cost(b)
                .partial_cmp(&site_cost(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let lane = &mut level_lane[l];
        for &j in &order {
            let hops = |dev: DeviceId| -> usize {
                dag.footprints[j]
                    .reads
                    .iter()
                    .chain(dag.footprints[j].writes.iter())
                    .filter(|&&v| matches!(loc[v as usize], Some(owner) if owner != dev))
                    .count()
            };
            let dur = site_cost(j);
            let d = (0..n)
                .min_by(|&a, &b| {
                    let ka = (lane[a] + dur, busy[a], hops(DeviceId(a as u32)));
                    let kb = (lane[b] + dur, busy[b], hops(DeviceId(b as u32)));
                    ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap_or(0);
            plan[j] = DeviceId(d as u32);
            lane[d] += dur;
            busy[d] += dur;
        }
        // Variable locations update only at the level barrier: same-level
        // sites never read each other's outputs.
        for &j in members {
            for &w in &dag.footprints[j].writes {
                loc[w as usize] = Some(plan[j]);
            }
        }
    }

    // Refinement: shift sites off the bottleneck device while every
    // touched level stays within round-robin's makespan for that level.
    // Each accepted move strictly lowers the bottleneck, so the loop
    // terminates; the cap is a belt-and-braces bound.
    for _ in 0..(2 * dag.len() + 8) {
        let b = (0..n)
            .max_by(|&a, &c| {
                busy[a]
                    .partial_cmp(&busy[c])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(0);
        let bottleneck = busy[b];
        // Candidate donors on the bottleneck device, heaviest first.
        let mut donors: Vec<usize> = (0..dag.len())
            .filter(|&j| plan[j].0 as usize == b)
            .collect();
        donors.sort_by(|&x, &y| {
            site_cost(y)
                .partial_cmp(&site_cost(x))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(x.cmp(&y))
        });
        let mut moved = false;
        'search: for &j in &donors {
            let dur = site_cost(j);
            if dur <= EPS {
                continue;
            }
            let l = dag.levels[j];
            for d in 0..n {
                if d == b || level_lane[l][d] + dur > rr_level_max[l] + EPS {
                    continue;
                }
                let new_bottleneck = (0..n)
                    .map(|k| match k {
                        _ if k == b => busy[b] - dur,
                        _ if k == d => busy[d] + dur,
                        _ => busy[k],
                    })
                    .fold(0.0f64, f64::max);
                if new_bottleneck < bottleneck - EPS {
                    plan[j] = DeviceId(d as u32);
                    level_lane[l][b] -= dur;
                    level_lane[l][d] += dur;
                    busy[b] -= dur;
                    busy[d] += dur;
                    moved = true;
                    break 'search;
                }
            }
        }
        if !moved {
            break;
        }
    }

    let eft = evaluate_plan(dag, costs, &plan, n);
    let rr = evaluate_plan(dag, costs, &rr_plan, n);
    if rr.objective() < eft.objective() {
        rr
    } else {
        eft
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::kernel;
    use super::super::*;
    use super::*;

    /// A hand-built cost table: site i costs `us[i]`, one launch each.
    fn table(_dag: &DepDag, us: &[f64]) -> CostTable {
        CostTable {
            sites: us
                .iter()
                .map(|&u| SiteCost {
                    kernel_us: u,
                    stage_us: 0.0,
                })
                .collect(),
            mult: vec![1; us.len()],
        }
    }

    #[test]
    fn eft_balances_uneven_level() {
        // One level of four independent sites: 100, 100, 100, 1 µs.
        // Round-robin on 2 devices pairs them (100+100) vs (100+1);
        // EFT should instead end up near 150/151.
        let ks = [
            kernel("a", &[], &["w"]),
            kernel("b", &[], &["x"]),
            kernel("c", &[], &["y"]),
            kernel("d", &[], &["z"]),
        ];
        let dag = DepDag::build(&ks);
        let t = table(&dag, &[100.0, 100.0, 100.0, 1.0]);
        let s = eft_plan(&dag, &t, 2);
        let rr = evaluate_plan(&dag, &t, &dag.device_plan(2), 2);
        assert!(s.makespan_us <= rr.makespan_us);
        assert!(
            s.makespan_us <= 201.0,
            "EFT should not stack two heavies: {}",
            s.makespan_us
        );
        // Deterministic: same inputs, same plan.
        assert_eq!(s.plan, eft_plan(&dag, &t, 2).plan);
    }

    #[test]
    fn single_device_is_all_primary() {
        let ks = [kernel("a", &[], &["x"]), kernel("b", &[], &["y"])];
        let dag = DepDag::build(&ks);
        let t = table(&dag, &[10.0, 10.0]);
        let s = eft_plan(&dag, &t, 1);
        assert!(s.plan.iter().all(|d| *d == DeviceId::PRIMARY));
    }

    #[test]
    fn locality_tiebreak_prefers_producer_device() {
        // a writes x on some device; consumer b reads x on the next level.
        // Both devices offer b the same finish time and carry equal load,
        // so the locality tie-break decides — b follows x to a's device.
        let ks = [
            kernel("a", &[], &["x"]),
            kernel("c", &[], &["z"]),
            kernel("b", &["x"], &["y"]),
        ];
        let dag = DepDag::build(&ks);
        let t = table(&dag, &[50.0, 50.0, 10.0]);
        let s = eft_plan(&dag, &t, 2);
        assert_eq!(
            s.plan[2], s.plan[0],
            "consumer should land on its producer's device"
        );
        assert!(s.finish_us[2] >= s.finish_us[0]);
    }

    #[test]
    fn evaluate_respects_dependencies() {
        let ks = [kernel("a", &[], &["x"]), kernel("b", &["x"], &["y"])];
        let dag = DepDag::build(&ks);
        let t = table(&dag, &[10.0, 10.0]);
        // Even on different devices, b cannot start before a finishes.
        let s = evaluate_plan(&dag, &t, &[DeviceId(0), DeviceId(1)], 2);
        assert!(s.start_us[1] >= s.finish_us[0]);
        assert!(s.makespan_us >= 20.0);
    }

    #[test]
    fn multiplicity_folds_enclosing_loop_trips() {
        // Outer loop ×5; the second kernel also sits inside a ×2 stage
        // loop, so its site fires 10 times per run.
        let src = "double a[8];\ndouble b[8];\nvoid main() {\n\
                   int i; int it; int rk;\n\
                   for (it = 0; it < 5; it++) {\n\
                   #pragma acc kernels loop gang worker\n\
                   for (i = 0; i < 8; i++) { a[i] = a[i] + 1.0; }\n\
                   for (rk = 0; rk < 2; rk++) {\n\
                   #pragma acc kernels loop gang worker\n\
                   for (i = 0; i < 8; i++) { b[i] = a[i]; }\n\
                   }\n}\n}";
        let (program, sema) = openarc_minic::frontend(src).unwrap();
        let tr = crate::translate::translate(
            &program,
            &sema,
            &crate::translate::TranslateOptions::default(),
        )
        .unwrap();
        assert_eq!(launch_multiplicity(&tr), vec![5, 10]);
        // The cost table carries the scaling: same body shape, but the
        // twice-as-frequent site predicts at least twice the load.
        let t = estimate_site_costs(&tr, &CostModel::default());
        assert_eq!(t.mult, vec![5, 10]);
        assert!(t.sites[1].total_us() > t.sites[0].total_us());
    }
}
