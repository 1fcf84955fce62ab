//! Launch dependency DAG for the multi-device verified executor.
//!
//! Nodes are the program's kernel launch *sites* (entries of
//! [`Translated::kernels`](crate::translate::Translated::kernels)); an edge `i → j` (for `i < j` in program
//! order) exists when the two sites' memory footprints conflict:
//!
//! * **RAW** — `j` reads something `i` writes;
//! * **WAR** — `j` writes something `i` reads;
//! * **WAW** — both write the same variable.
//!
//! A footprint is the variable set the §III-A verified launch touches:
//! reads are the kernel's aggregate reads plus scalar parameters plus
//! reduction initial values; writes are the aggregate writes plus
//! reduction results plus falsely-shared global cells written back after
//! the launch. Dependencies that flow through *host* computation between
//! launches (the CPU results are canonical, §III-A) are deliberately not
//! modeled — the executor's issue phase runs all host work in program
//! order, so host-mediated values are always current; the DAG only
//! governs which launches may overlap on the *simulated* timeline.
//!
//! Variable names are interned once into a shared `u32` table on the DAG
//! ([`DepDag::vars`]); footprints hold integer-id sets, so the O(n²)
//! conflict sweep in [`DepDag::build`] compares integers, never strings.
//!
//! Everything here is deterministic: sets are ordered (`BTreeSet`), the
//! topological levels come from longest-path over program order, and both
//! device planners ([`DepDag::device_plan`] round-robin and the
//! cost-model-driven EFT scheduler in [`cost`]) are pure functions of the
//! DAG, the cost table and the device count — so a schedule never depends
//! on iteration order of a hash map.

pub mod cost;

use crate::ir::{KernelInfo, KernelParam};
use openarc_gpusim::DeviceId;
use std::collections::BTreeSet;

/// Device-placement policy for the verified executor's launch sites (the
/// `placement=` key of `verificationOptions`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Static per-level round-robin (PR 7's scheme): within each level,
    /// sites cycle over the devices in program order, ignoring cost.
    #[default]
    RoundRobin,
    /// Cost-model-driven earliest-finish-time list scheduling: each site
    /// goes to the device minimizing its predicted finish time, using
    /// [`cost::estimate_site_costs`] static estimates (kernel time over
    /// footprint sizes and thread counts, staging transfers), with
    /// cross-device input hops as a tie-break.
    Eft,
}

impl Placement {
    /// The `verificationOptions` spelling of this policy.
    pub fn as_str(&self) -> &'static str {
        match self {
            Placement::RoundRobin => "roundrobin",
            Placement::Eft => "eft",
        }
    }
}

/// Interned variable id (index into [`DepDag::vars`]).
pub type VarId = u32;

/// The variable sets one launch site touches, as interned ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Variables read (aggregates, scalar params, reduction inits).
    pub reads: BTreeSet<VarId>,
    /// Variables written (aggregates, reduction results, cell writebacks).
    pub writes: BTreeSet<VarId>,
}

impl Footprint {
    /// Does scheduling `self` before `other` order them? True when any
    /// RAW, WAR or WAW hazard links the two footprints.
    pub fn conflicts_with(&self, other: &Footprint) -> bool {
        !self.writes.is_disjoint(&other.reads)       // RAW
            || !self.reads.is_disjoint(&other.writes) // WAR
            || !self.writes.is_disjoint(&other.writes) // WAW
    }

    /// Does this footprint touch `var` at all?
    pub fn touches(&self, var: VarId) -> bool {
        self.reads.contains(&var) || self.writes.contains(&var)
    }
}

/// Shared variable-name intern table: one id per distinct name, in
/// first-seen order. Construction is the only string work; after it,
/// footprint operations are pure integer-set comparisons.
#[derive(Debug, Clone, Default)]
pub struct VarTable {
    /// Id → name, in first-intern order.
    pub names: Vec<String>,
}

impl VarTable {
    /// Intern `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> VarId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as VarId;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as VarId
    }

    /// Id of an already-interned name.
    pub fn get(&self, name: &str) -> Option<VarId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| i as VarId)
    }

    /// Name of an id.
    pub fn name(&self, id: VarId) -> &str {
        &self.names[id as usize]
    }
}

/// Compute the footprint of one launch site, interning names into `vars`.
pub fn footprint(k: &KernelInfo, vars: &mut VarTable) -> Footprint {
    let mut fp = Footprint::default();
    for v in &k.gpu_reads {
        fp.reads.insert(vars.intern(v));
    }
    for v in &k.gpu_writes {
        fp.writes.insert(vars.intern(v));
    }
    for (var, _) in &k.reductions {
        // The reduction reads the scalar's initial value and writes the
        // final one.
        let id = vars.intern(var);
        fp.reads.insert(id);
        fp.writes.insert(id);
    }
    for p in &k.params {
        match p {
            KernelParam::Scalar { var } => {
                fp.reads.insert(vars.intern(var));
            }
            KernelParam::SharedCell { var, init_global } => {
                if init_global.as_deref() == Some(var.as_str()) {
                    // Falsely-shared global: written back after launch.
                    let id = vars.intern(var);
                    fp.reads.insert(id);
                    fp.writes.insert(id);
                }
            }
            KernelParam::Aggregate { .. } | KernelParam::ReductionSlot { .. } => {}
        }
    }
    fp
}

/// The dependency DAG over the program's launch sites.
#[derive(Debug, Clone)]
pub struct DepDag {
    /// Shared intern table mapping footprint variable ids to names.
    pub vars: VarTable,
    /// Per-site footprints, indexed like [`Translated::kernels`](crate::translate::Translated::kernels).
    pub footprints: Vec<Footprint>,
    /// `deps[j]` = sites `i < j` that must retire before `j` issues.
    pub deps: Vec<Vec<usize>>,
    /// Longest-path depth of each site (roots at level 0). Sites sharing
    /// a level have no path between them and may run concurrently.
    pub levels: Vec<usize>,
}

impl DepDag {
    /// Build the DAG from the kernel launch table.
    pub fn build(kernels: &[KernelInfo]) -> DepDag {
        let mut vars = VarTable::default();
        let footprints: Vec<Footprint> = kernels.iter().map(|k| footprint(k, &mut vars)).collect();
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); kernels.len()];
        let mut levels: Vec<usize> = vec![0; kernels.len()];
        for j in 0..kernels.len() {
            for i in 0..j {
                if footprints[i].conflicts_with(&footprints[j]) {
                    deps[j].push(i);
                    levels[j] = levels[j].max(levels[i] + 1);
                }
            }
        }
        DepDag {
            vars,
            footprints,
            deps,
            levels,
        }
    }

    /// Number of launch sites.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True when the program has no launch sites.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// A deterministic topological order: by (level, program index).
    /// Program order itself is already topological (edges only point
    /// forward); this order additionally groups concurrent sites.
    pub fn schedule(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| (self.levels[i], i));
        order
    }

    /// Static device assignment over `n_devices` simulated devices:
    /// within each level, sites round-robin across devices in program
    /// order, so independent launches land on distinct devices and
    /// dependent ones follow their level structure. Pure and
    /// deterministic; `n_devices = 1` maps every site to the primary
    /// device.
    pub fn device_plan(&self, n_devices: usize) -> Vec<DeviceId> {
        let n = n_devices.max(1) as u32;
        let mut rank_in_level: Vec<u32> = Vec::with_capacity(self.len());
        let mut seen_per_level: Vec<u32> = Vec::new();
        for &lvl in &self.levels {
            if lvl >= seen_per_level.len() {
                seen_per_level.resize(lvl + 1, 0);
            }
            rank_in_level.push(seen_per_level[lvl]);
            seen_per_level[lvl] += 1;
        }
        rank_in_level.into_iter().map(|r| DeviceId(r % n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn kernel(name: &str, reads: &[&str], writes: &[&str]) -> KernelInfo {
        KernelInfo {
            name: name.to_string(),
            seq_name: format!("__seq_{name}"),
            n_threads_global: format!("__n_{name}"),
            params: Vec::new(),
            actions: Vec::new(),
            gpu_reads: reads.iter().map(|s| s.to_string()).collect(),
            gpu_writes: writes.iter().map(|s| s.to_string()).collect(),
            hoisted_writes: Vec::new(),
            reductions: Vec::new(),
            knowledge: Default::default(),
            wave_override: None,
            queue: None,
            if_global: None,
            stmt: Default::default(),
            line: 0,
        }
    }

    #[test]
    fn raw_war_waw_all_order() {
        let raw = [kernel("a", &[], &["x"]), kernel("b", &["x"], &["y"])];
        let war = [kernel("a", &["x"], &["y"]), kernel("b", &[], &["x"])];
        let waw = [kernel("a", &[], &["x"]), kernel("b", &[], &["x"])];
        for ks in [&raw, &war, &waw] {
            let d = DepDag::build(ks);
            assert_eq!(d.deps[1], vec![0]);
            assert_eq!(d.levels, vec![0, 1]);
        }
    }

    #[test]
    fn interned_ids_round_trip_names() {
        let ks = [kernel("a", &["x"], &["y"]), kernel("b", &["y"], &["x"])];
        let d = DepDag::build(&ks);
        let x = d.vars.get("x").unwrap();
        let y = d.vars.get("y").unwrap();
        assert_ne!(x, y);
        assert_eq!(d.vars.name(x), "x");
        assert_eq!(d.vars.name(y), "y");
        // Both sites touch the same two interned ids, in opposite roles.
        assert!(d.footprints[0].reads.contains(&x));
        assert!(d.footprints[0].writes.contains(&y));
        assert!(d.footprints[1].reads.contains(&y));
        assert!(d.footprints[1].writes.contains(&x));
        assert!(d.footprints[0].touches(x) && d.footprints[0].touches(y));
    }

    #[test]
    fn independent_sites_share_a_level_and_split_devices() {
        // Diamond: a writes x,y; b reads x, c reads y (independent);
        // d reads both results.
        let ks = [
            kernel("a", &[], &["x", "y"]),
            kernel("b", &["x"], &["u"]),
            kernel("c", &["y"], &["v"]),
            kernel("d", &["u", "v"], &["w"]),
        ];
        let d = DepDag::build(&ks);
        assert_eq!(d.levels, vec![0, 1, 1, 2]);
        assert_eq!(d.deps[1], vec![0]);
        assert_eq!(d.deps[2], vec![0]);
        assert_eq!(d.deps[3], vec![1, 2]);
        let plan = d.device_plan(2);
        assert_eq!(plan[0], DeviceId(0));
        // b and c share level 1 → distinct devices.
        assert_eq!(plan[1], DeviceId(0));
        assert_eq!(plan[2], DeviceId(1));
        assert_eq!(plan[3], DeviceId(0));
        // Single device: everything on the primary.
        assert!(d.device_plan(1).iter().all(|d| *d == DeviceId::PRIMARY));
    }

    #[test]
    fn read_read_sharing_is_not_a_conflict() {
        let ks = [kernel("a", &["x"], &["u"]), kernel("b", &["x"], &["v"])];
        let d = DepDag::build(&ks);
        assert!(d.deps[1].is_empty());
        assert_eq!(d.levels, vec![0, 0]);
    }

    #[test]
    fn reductions_and_cells_count_as_writes() {
        let mut a = kernel("a", &[], &[]);
        a.reductions
            .push(("s".into(), openarc_openacc::ReductionOp::Add));
        let b = kernel("b", &["s"], &["y"]);
        let d = DepDag::build(&[a, b]);
        assert_eq!(d.deps[1], vec![0], "reduction result orders a RAW edge");
    }

    #[test]
    fn schedule_is_topological_and_deterministic() {
        let ks = [
            kernel("a", &[], &["x"]),
            kernel("b", &["x"], &["y"]),
            kernel("c", &[], &["z"]),
        ];
        let d = DepDag::build(&ks);
        let order = d.schedule();
        // c (level 0) sorts with a, before b.
        assert_eq!(order, vec![0, 2, 1]);
        for (pos_j, &j) in order.iter().enumerate() {
            for &i in &d.deps[j] {
                let pos_i = order.iter().position(|&x| x == i).unwrap();
                assert!(pos_i < pos_j, "dep {i} must precede {j}");
            }
        }
    }
}
