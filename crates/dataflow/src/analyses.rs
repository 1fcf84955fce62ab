//! The paper's dataflow analyses, each a `(gen, kill)` mask builder in
//! front of [`solve`].
//!
//! * [`liveness`] — classic backward liveness (a reference point for
//!   Algorithm 1's `live` plane; nothing outside this crate's tests calls it).
//! * [`dead_live`] — **Algorithm 1**: may-dead / may-live / must-dead.
//! * [`last_write`] — **Algorithm 2**: last-write detection, optionally
//!   restarting at kernel boundaries ("along some path from program exits
//!   or from the next kernel calls").
//! * [`first_access`] — first-read / first-write placement (following the
//!   Pai et al. scheme the paper cites), restarting at kernel boundaries.
//! * [`natural_loops`] — loop bodies for the check-hoisting optimization
//!   of §III-B (Listing 3).

use crate::cfg::{has, Cfg, NodeKind, Side, VarId};
use crate::solver::{solve, Direction, Masks, Meet, Solution};
use std::collections::{BTreeMap, BTreeSet};

fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

fn minus_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= !s;
    }
}

// ---------------------------------------------------------------- liveness

/// Backward liveness; `before(n)` = live-in at node `n`.
pub fn liveness(cfg: &Cfg, side: Side) -> Solution {
    let masks = Masks::build(cfg, |n, gen, kill| {
        let s = cfg.summary(n, side);
        // Only total writes kill liveness; element writes leave the rest of
        // the array live.
        or_into(kill, s.kills);
        or_into(kill, s.total_writes);
        or_into(gen, s.reads);
    });
    solve(cfg, Direction::Backward, Meet::Union, &masks)
}

// ------------------------------------------------------------ Algorithm 1

/// Deadness classification of one variable at one program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deadness {
    /// Read before written on some path: the value is needed.
    Live,
    /// Written first on every path (possibly partially): the value is
    /// *presumably* dead — the paper reports transfers of such variables as
    /// **may-redundant** and asks the programmer.
    MayDead,
    /// Not accessed on any following path: **verified** dead.
    MustDead,
}

/// Result of Algorithm 1: its two facts are independent planes.
pub struct DeadLiveResult {
    /// Variables read-before-written on **some** following path (∪-meet).
    pub live: Solution,
    /// Variables written-first on **all** following paths (∩-meet).
    pub dead: Solution,
}

impl DeadLiveResult {
    /// Classify `var` *after* node `n` executes (i.e. on its out-edge).
    pub fn after(&self, n: usize, var: VarId) -> Deadness {
        Self::classify(self.live.after(n), self.dead.after(n), var)
    }

    /// Classify `var` at entry to node `n`.
    pub fn before(&self, n: usize, var: VarId) -> Deadness {
        Self::classify(self.live.before(n), self.dead.before(n), var)
    }

    fn classify(live: &[u64], dead: &[u64], var: VarId) -> Deadness {
        if has(live, var) {
            Deadness::Live
        } else if has(dead, var) {
            Deadness::MayDead
        } else {
            Deadness::MustDead
        }
    }
}

/// Algorithm 1, with OUTLive(EXIT) = OUTDead(EXIT) = ∅:
///   INLive(n) = OUTLive(n) − KILL(n) − DEF(n) + USE(n)
///   INDead(n) = OUTDead(n) − KILL(n) + DEF(n) − USE(n)
/// With `ignore_updates`, `update` transfer nodes are transparent:
/// transfers are the objects being diagnosed, so they must not count as
/// genuine DEF/USE (data-region transfers are naturally invisible here;
/// this keeps updates consistent with them).
fn dead_live_planes(cfg: &Cfg, side: Side, ignore_updates: bool) -> DeadLiveResult {
    let skip = |n: usize| ignore_updates && matches!(cfg.nodes[n].kind, NodeKind::Update(_));
    let live = Masks::build(cfg, |n, gen, kill| {
        if skip(n) {
            return;
        }
        let s = cfg.summary(n, side);
        or_into(kill, s.kills);
        or_into(kill, s.writes);
        or_into(gen, s.reads);
    });
    let dead = Masks::build(cfg, |n, gen, kill| {
        if skip(n) {
            return;
        }
        let s = cfg.summary(n, side);
        or_into(kill, s.kills);
        or_into(kill, s.reads);
        or_into(gen, s.writes);
        minus_into(gen, s.reads);
    });
    DeadLiveResult {
        live: solve(cfg, Direction::Backward, Meet::Union, &live),
        dead: solve(cfg, Direction::Backward, Meet::Intersect, &dead),
    }
}

/// Run Algorithm 1 for one side (transfers visible as accesses).
pub fn dead_live(cfg: &Cfg, side: Side) -> DeadLiveResult {
    dead_live_planes(cfg, side, false)
}

/// Run Algorithm 1 treating `update` transfer nodes as transparent — the
/// variant used to place `reset_status` calls, where deadness must be
/// judged by *compute* accesses only.
pub fn dead_live_compute(cfg: &Cfg, side: Side) -> DeadLiveResult {
    dead_live_planes(cfg, side, true)
}

// ------------------------------------------------- Algorithm 2, first access

/// "Accessed on every path up to here" in either direction:
/// `fact = (incoming ∖ KILL) ∪ (acc ∖ KILL)`, ∩-meet, with `restart` nodes
/// forgetting everything that flows into them.
fn accessed_on_all_paths<'a>(
    cfg: &'a Cfg,
    dir: Direction,
    side: Side,
    acc: impl Fn(usize) -> &'a [u64],
    restart: impl Fn(usize) -> bool,
) -> Solution {
    let masks = Masks::build(cfg, |n, gen, kill| {
        let kills = cfg.summary(n, side).kills;
        or_into(gen, acc(n));
        minus_into(gen, kills);
        if restart(n) {
            kill.fill(!0);
        } else {
            or_into(kill, kills);
        }
    });
    solve(cfg, dir, Meet::Intersect, &masks)
}

/// Result of Algorithm 2.
pub struct LastWriteResult {
    /// INWrite at `before(n)`, OUTWrite at `after(n)`.
    pub sol: Solution,
}

impl LastWriteResult {
    /// Variables for which node `n` is a *last write* on some path
    /// (`LASTWrite(n) = INWrite(n) − OUTWrite(n)`, restricted to variables
    /// the node actually writes).
    pub fn last_written_at(&self, cfg: &Cfg, side: Side, n: usize) -> Vec<u64> {
        let written = cfg.summary(n, side).writes;
        let facts = self.sol.before(n).iter().zip(self.sol.after(n));
        (facts.zip(written).map(|((inn, out), w)| inn & w & !out)).collect()
    }
}

/// Run Algorithm 2 for one side: INWrite(n) = OUTWrite(n) + DEF(n) −
/// KILL(n), with kernels acting as analysis restarts when requested.
pub fn last_write(cfg: &Cfg, side: Side, reset_at_kernels: bool) -> LastWriteResult {
    let writes = |n: usize| cfg.summary(n, side).writes;
    let restart = |n: usize| reset_at_kernels && cfg.nodes[n].is_kernel();
    LastWriteResult {
        sol: accessed_on_all_paths(cfg, Direction::Backward, side, writes, restart),
    }
}

/// Which access kind a first-access query concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessSel {
    /// Reads.
    Read,
    /// Writes.
    Write,
}

/// Result of [`first_access`].
pub struct FirstAccessResult {
    /// Variables definitely accessed on every path so far. A variable NOT
    /// in `before(n)` may see its first access at `n` on some path.
    pub sol: Solution,
    side: Side,
    sel: AccessSel,
}

impl FirstAccessResult {
    /// The variables whose access at `n` may be the first.
    pub fn first_at(&self, cfg: &Cfg, n: usize) -> Vec<u64> {
        let acc = self.sel.of(cfg, n, self.side);
        let seen = self.sol.before(n);
        acc.iter().zip(seen).map(|(a, s)| a & !s).collect()
    }
}

impl AccessSel {
    fn of(self, cfg: &Cfg, n: usize, side: Side) -> &[u64] {
        match self {
            AccessSel::Read => cfg.summary(n, side).reads,
            AccessSel::Write => cfg.summary(n, side).writes,
        }
    }
}

/// For each node, the variables whose read/write at that node may be the
/// first since program entry or the last kernel call — exactly the points
/// where §III-B's optimized instrumentation inserts `check_read` /
/// `check_write` calls. Kernel launches restart host-side tracking ("…from
/// each GPU kernel call"): the device may have changed coherence state.
pub fn first_access(cfg: &Cfg, side: Side, sel: AccessSel) -> FirstAccessResult {
    let acc = |n: usize| sel.of(cfg, n, side);
    let restart = |n: usize| cfg.nodes[n].is_kernel();
    FirstAccessResult {
        sol: accessed_on_all_paths(cfg, Direction::Forward, side, acc, restart),
        side,
        sel,
    }
}

// ---------------------------------------------------------- natural loops

/// A natural loop: its head (branch node) and full body node set.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// Loop header node.
    pub head: usize,
    /// All nodes in the loop, including the header.
    pub body: BTreeSet<usize>,
}

/// Find natural loops from back edges (sufficient for our structured CFGs,
/// where every loop header is a [`crate::cfg::NodeKind::Branch`] node).
/// Multiple back edges to the same header merge into one loop.
pub fn natural_loops(cfg: &Cfg) -> Vec<NaturalLoop> {
    let mut by_head: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for (n, ss) in cfg.succ.iter().enumerate() {
        for &h in ss {
            if h <= n && matches!(cfg.nodes[h].kind, NodeKind::Branch) {
                // Back edge n → h. Body: h plus everything that reaches n
                // backwards without passing through h.
                let body = by_head.entry(h).or_default();
                body.insert(h);
                let mut stack = vec![n];
                while let Some(x) = stack.pop() {
                    if body.contains(&x) {
                        continue;
                    }
                    body.insert(x);
                    for &p in &cfg.pred[x] {
                        stack.push(p);
                    }
                }
            }
        }
    }
    by_head
        .into_iter()
        .map(|(head, body)| NaturalLoop { head, body })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use openarc_minic::parse;

    fn cfg_of(src: &str) -> Cfg {
        let p = parse(src).expect("parse");
        Cfg::build(p.func("main").unwrap()).expect("cfg")
    }

    fn node_writing(cfg: &Cfg, var: &str) -> usize {
        (0..cfg.len())
            .find(|&i| cfg.writes(i, Side::Host, var) && !cfg.nodes[i].is_kernel())
            .expect("writer node")
    }

    /// By-name classification; a name no node mentions is dead everywhere.
    fn deadness(cfg: &Cfg, var: &str, at: impl Fn(VarId) -> Deadness) -> Deadness {
        cfg.var(var).map_or(Deadness::MustDead, at)
    }

    fn host_nodes(cfg: &Cfg, pred: impl Fn(usize) -> bool) -> Vec<usize> {
        (0..cfg.len()).filter(|&i| pred(i)).collect()
    }

    // -------- liveness --------

    #[test]
    fn liveness_basic() {
        let cfg = cfg_of("int a;\nint b;\nvoid main() { a = 1; b = a; }");
        let live = liveness(&cfg, Side::Host);
        let n_a = node_writing(&cfg, "a");
        // After `a = 1`, `a` is live (read by the next statement).
        assert!(cfg.named(live.after(n_a), "a"));
        // At exit nothing is live.
        assert!(live.before(cfg.exit).iter().all(|w| *w == 0));
    }

    #[test]
    fn partial_write_keeps_array_live() {
        let cfg = cfg_of(
            "double q[4];\nint z;\nvoid main() { q[0] = 1.0; z = (int) q[1]; q[2] = 2.0; z = (int) q[3]; }",
        );
        let live = liveness(&cfg, Side::Host);
        let first = cfg.succ[cfg.entry][0];
        // q stays live through the partial write at the third statement.
        assert!(cfg.named(live.after(first), "q"));
    }

    // -------- Algorithm 1 --------

    #[test]
    fn written_first_everywhere_is_may_dead() {
        // `a` is overwritten (element-wise) before any read on all paths.
        let cfg =
            cfg_of("double a[4];\nint z;\nvoid main() { z = 0; a[0] = 1.0; z = (int) a[0]; }");
        let dl = dead_live(&cfg, Side::Host);
        let n_z = node_writing(&cfg, "z");
        // At entry of the first statement, the next access to `a` is a
        // write → may-dead (partial write, so not provably dead).
        assert_eq!(
            deadness(&cfg, "a", |v| dl.before(n_z, v)),
            Deadness::MayDead
        );
    }

    #[test]
    fn read_on_some_path_is_live() {
        let cfg = cfg_of(
            "double a[4];\nint z;\nvoid main() { if (z) { z = (int) a[0]; } else { a[0] = 1.0; } }",
        );
        let dl = dead_live(&cfg, Side::Host);
        let branch = cfg.succ[cfg.entry][0];
        assert_eq!(
            deadness(&cfg, "a", |v| dl.before(branch, v)),
            Deadness::Live
        );
    }

    #[test]
    fn untouched_variable_is_must_dead() {
        let cfg = cfg_of("double a[4];\nint z;\nvoid main() { z = 1; z = z + 1; }");
        let dl = dead_live(&cfg, Side::Host);
        let first = cfg.succ[cfg.entry][0];
        assert_eq!(
            deadness(&cfg, "a", |v| dl.before(first, v)),
            Deadness::MustDead
        );
    }

    #[test]
    fn paper_cg_example_partial_write_is_may_dead_not_must() {
        // Listing 1 discussion: the next access to q on every path is a
        // *partial* write, but unwritten elements are read afterwards. The
        // algorithm classifies q may-dead (transfer reported only as
        // MAY-redundant, so the user must verify) — not must-dead, which
        // would have wrongly declared the transfer redundant.
        let cfg = cfg_of("double q[8];\nint z;\nvoid main() { q[0] = 0.5; z = (int) q[1]; }");
        let dl = dead_live(&cfg, Side::Host);
        let first = cfg.succ[cfg.entry][0];
        assert_eq!(
            deadness(&cfg, "q", |v| dl.before(first, v)),
            Deadness::MayDead
        );
    }

    #[test]
    fn free_removes_from_both_sets() {
        let cfg = cfg_of("double *p;\nvoid main() { free(p); }");
        let dl = dead_live(&cfg, Side::Host);
        let n = cfg.succ[cfg.entry][0];
        // After free, p is gone: must-dead at the entry of a following nop.
        assert_eq!(deadness(&cfg, "p", |v| dl.after(n, v)), Deadness::MustDead);
    }

    // -------- Algorithm 2 --------

    #[test]
    fn last_write_found_in_sequence() {
        let cfg = cfg_of("int a;\nint z;\nvoid main() { a = 1; a = 2; z = a; }");
        let lw = last_write(&cfg, Side::Host, false);
        let writers = host_nodes(&cfg, |i| cfg.writes(i, Side::Host, "a"));
        assert_eq!(writers.len(), 2);
        let first_is_last = cfg.named(&lw.last_written_at(&cfg, Side::Host, writers[0]), "a");
        let second_is_last = cfg.named(&lw.last_written_at(&cfg, Side::Host, writers[1]), "a");
        assert!(!first_is_last, "a is rewritten later");
        assert!(second_is_last, "final write should be last");
    }

    #[test]
    fn kernel_resets_last_write_tracking() {
        let cfg = cfg_of(
            "double a[8];\ndouble b[8];\nvoid main() {\n int j;\n a[0] = 1.0;\n #pragma acc kernels loop gang\n for (j = 0; j < 8; j++) { b[j] = a[j]; }\n a[1] = 2.0;\n}",
        );
        let lw = last_write(&cfg, Side::Host, true);
        let writers = host_nodes(&cfg, |i| {
            cfg.writes(i, Side::Host, "a") && !cfg.nodes[i].is_kernel()
        });
        // With kernel reset, the write BEFORE the kernel is a last write
        // relative to the kernel boundary.
        assert!(cfg.named(&lw.last_written_at(&cfg, Side::Host, writers[0]), "a"));
        assert!(cfg.named(&lw.last_written_at(&cfg, Side::Host, writers[1]), "a"));
    }

    // -------- first access --------

    #[test]
    fn first_read_flagged_once_in_straight_line() {
        let cfg = cfg_of("int a;\nint z;\nvoid main() { z = a; z = a + a; }");
        let fr = first_access(&cfg, Side::Host, AccessSel::Read);
        let readers = host_nodes(&cfg, |i| cfg.reads(i, Side::Host, "a"));
        assert!(cfg.named(&fr.first_at(&cfg, readers[0]), "a"));
        assert!(!cfg.named(&fr.first_at(&cfg, readers[1]), "a"));
    }

    #[test]
    fn kernel_call_restarts_first_read() {
        let cfg = cfg_of(
            "double a[8];\nint z;\nvoid main() {\n int j;\n z = (int) a[0];\n #pragma acc kernels loop gang\n for (j = 0; j < 8; j++) { a[j] = 1.0; }\n z = (int) a[1];\n}",
        );
        let fr = first_access(&cfg, Side::Host, AccessSel::Read);
        let readers = host_nodes(&cfg, |i| {
            cfg.reads(i, Side::Host, "a") && matches!(cfg.nodes[i].kind, NodeKind::Plain)
        });
        assert_eq!(readers.len(), 2);
        assert!(
            cfg.named(&fr.first_at(&cfg, readers[0]), "a"),
            "read before kernel is first"
        );
        assert!(
            cfg.named(&fr.first_at(&cfg, readers[1]), "a"),
            "read after kernel is first again"
        );
    }

    #[test]
    fn first_read_in_loop_flagged_at_loop_node() {
        // A read inside a loop with no kernel: first iteration is a first
        // read, so the in-loop node is flagged (the hoisting optimization
        // later moves the check out).
        let cfg = cfg_of(
            "double a[8];\nint z;\nvoid main() { int j; for (j = 0; j < 8; j++) { z = z + (int) a[j]; } }",
        );
        let fr = first_access(&cfg, Side::Host, AccessSel::Read);
        let flagged = (0..cfg.len())
            .any(|i| cfg.reads(i, Side::Host, "a") && cfg.named(&fr.first_at(&cfg, i), "a"));
        assert!(flagged);
    }

    // -------- natural loops --------

    #[test]
    fn natural_loop_contains_body_nodes() {
        let cfg =
            cfg_of("int a;\nvoid main() { int i; for (i = 0; i < 3; i++) { a = i; } a = 9; }");
        let loops = natural_loops(&cfg);
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        let writer_at_depth = |d: u32| {
            (0..cfg.len())
                .find(|&i| cfg.writes(i, Side::Host, "a") && cfg.nodes[i].loop_depth == d)
                .unwrap()
        };
        let body_writer = writer_at_depth(1);
        let outside_writer = writer_at_depth(0);
        assert!(l.body.contains(&body_writer));
        assert!(!l.body.contains(&outside_writer));
    }

    #[test]
    fn nested_loops_found() {
        let cfg = cfg_of(
            "int a;\nvoid main() { int i; int j; for (i=0;i<2;i++) { for (j=0;j<2;j++) { a = 1; } } }",
        );
        let loops = natural_loops(&cfg);
        assert_eq!(loops.len(), 2);
    }
}
