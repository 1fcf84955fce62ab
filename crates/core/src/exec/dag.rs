//! Launch dependency levels for multi-device verified runs.
//!
//! Nodes are the program's kernel launch *sites* (entries of
//! [`Translated::kernels`](crate::translate::Translated::kernels)); site
//! `j` depends on an earlier site `i` when the two sites' memory
//! footprints conflict:
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
//! launches are deliberately not modeled: every verified launch retires
//! before the next one issues, so host-mediated values are always
//! current. The levels only decide which device a site runs on.
//!
//! Everything here is deterministic: footprints are ordered sets, the
//! levels come from longest-path over program order, and
//! [`DepDag::device_plan`] is a pure function of the levels and the
//! device count.

use crate::ir::{KernelInfo, KernelParam};
use openarc_gpusim::DeviceId;
use std::collections::BTreeSet;

/// The variable sets one launch site touches.
#[derive(Debug, Default)]
struct Footprint<'a> {
    /// Variables read (aggregates, scalar params, reduction inits).
    reads: BTreeSet<&'a str>,
    /// Variables written (aggregates, reduction results, cell writebacks).
    writes: BTreeSet<&'a str>,
}

impl<'a> Footprint<'a> {
    /// The footprint of one launch site.
    fn of(k: &'a KernelInfo) -> Footprint<'a> {
        let mut fp = Footprint::default();
        fp.reads.extend(k.gpu_reads.iter().map(String::as_str));
        fp.writes.extend(k.gpu_writes.iter().map(String::as_str));
        for (var, _) in &k.reductions {
            // The reduction reads the scalar's initial value and writes the
            // final one.
            fp.reads.insert(var);
            fp.writes.insert(var);
        }
        for p in &k.params {
            match p {
                KernelParam::Scalar { var } => {
                    fp.reads.insert(var);
                }
                KernelParam::SharedCell { var, init_global } => {
                    if init_global.as_deref() == Some(var.as_str()) {
                        // Falsely-shared global: written back after launch.
                        fp.reads.insert(var);
                        fp.writes.insert(var);
                    }
                }
                KernelParam::Aggregate { .. } | KernelParam::ReductionSlot { .. } => {}
            }
        }
        fp
    }

    /// Does scheduling `self` before `other` order them? True when any
    /// RAW, WAR or WAW hazard links the two footprints.
    fn conflicts_with(&self, other: &Footprint) -> bool {
        !self.writes.is_disjoint(&other.reads)       // RAW
            || !self.reads.is_disjoint(&other.writes) // WAR
            || !self.writes.is_disjoint(&other.writes) // WAW
    }
}

/// The dependency levels of the program's launch sites.
#[derive(Debug)]
pub struct DepDag {
    /// Longest-path depth of each site (roots at level 0). Sites sharing
    /// a level have no path between them.
    pub levels: Vec<usize>,
}

impl DepDag {
    /// Build the levels from the kernel launch table.
    pub fn build(kernels: &[KernelInfo]) -> DepDag {
        let footprints: Vec<Footprint> = kernels.iter().map(Footprint::of).collect();
        let mut levels: Vec<usize> = vec![0; kernels.len()];
        for j in 0..kernels.len() {
            for i in 0..j {
                if footprints[i].conflicts_with(&footprints[j]) {
                    levels[j] = levels[j].max(levels[i] + 1);
                }
            }
        }
        DepDag { levels }
    }

    /// Static device assignment over `n_devices` simulated devices:
    /// within each level, sites round-robin across devices in program
    /// order, so independent launches land on distinct devices and
    /// dependent ones follow their level structure. Pure and
    /// deterministic; `n_devices = 1` maps every site to the primary
    /// device.
    pub fn device_plan(&self, n_devices: usize) -> Vec<DeviceId> {
        let n = n_devices.max(1) as u32;
        let mut rank_in_level: Vec<u32> = Vec::with_capacity(self.levels.len());
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

    fn kernel(name: &str, reads: &[&str], writes: &[&str]) -> KernelInfo {
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
            assert_eq!(DepDag::build(ks).levels, vec![0, 1]);
        }
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
        assert_eq!(DepDag::build(&ks).levels, vec![0, 0]);
    }

    #[test]
    fn reductions_and_cells_count_as_writes() {
        let mut a = kernel("a", &[], &[]);
        a.reductions
            .push(("s".into(), openarc_openacc::ReductionOp::Add));
        let b = kernel("b", &["s"], &["y"]);
        let levels = DepDag::build(&[a, b]).levels;
        assert_eq!(levels, vec![0, 1], "reduction result orders a RAW edge");
    }
}
