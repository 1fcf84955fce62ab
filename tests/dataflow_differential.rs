//! The bitset dataflow engine against the engine it replaced.
//!
//! The first half of this file is the string-set engine this repository used until the
//! dense representation landed, moved here verbatim (`Problem`, the
//! round-robin `solve`, the five `Problem` impls, `natural_loops`) over a
//! by-name copy of the CFG — the way `tests/lockstep_contract.rs` keeps
//! literal round-robin. For every function of the 36 suite variants, the 12
//! privatization-stripped programs, `tests/corpus/*.c` and generated
//! programs, every node's `before`/`after` fact of all five analyses on both
//! sides, `last_written_at`, `first_access` and `natural_loops` must agree
//! name for name.

#![allow(dead_code)]

use openarc::core::faults::strip_privatization;
use openarc::core::fuzz::{gen, FuzzRng};
use openarc::dataflow::{self as df, ones, Side};
use openarc::minic::ast::{Item, Program};
use openarc::minic::{frontend, Sema};
use openarc::suite::{all, Scale, Variant};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

// ------------------------------------------ the string-set engine, as it was
//
// Everything down to "the comparison" is the reference; the engine under
// test is only ever named through `df::`.

#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessSummary {
    pub reads: BTreeSet<String>,
    pub writes: BTreeSet<String>,
    pub total_writes: BTreeSet<String>,
    pub kills: BTreeSet<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    Branch,
    Kernel(usize),
    Update(()),
    Other,
}

#[derive(Debug, Clone)]
pub struct CfgNode {
    pub kind: NodeKind,
    pub host: AccessSummary,
    pub gpu: AccessSummary,
}

impl CfgNode {
    pub fn summary(&self, side: Side) -> &AccessSummary {
        match side {
            Side::Host => &self.host,
            Side::Gpu => &self.gpu,
        }
    }

    pub fn is_kernel(&self) -> bool {
        matches!(self.kind, NodeKind::Kernel(_))
    }
}

#[derive(Debug, Clone, Default)]
pub struct Cfg {
    pub nodes: Vec<CfgNode>,
    pub succ: Vec<Vec<usize>>,
    pub pred: Vec<Vec<usize>>,
    pub entry: usize,
    pub exit: usize,
}

impl Cfg {
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The by-name copy of a built CFG.
    pub fn of(g: &df::Cfg) -> Cfg {
        let names = |set: &[u64]| -> BTreeSet<String> {
            ones(set.iter().copied())
                .map(|v| g.vars()[v as usize].clone())
                .collect()
        };
        let summary = |n: usize, side: Side| {
            let s = g.summary(n, side);
            AccessSummary {
                reads: names(s.reads),
                writes: names(s.writes),
                total_writes: names(s.total_writes),
                kills: names(s.kills),
            }
        };
        let nodes = (0..g.len())
            .map(|n| CfgNode {
                kind: match g.nodes[n].kind {
                    df::NodeKind::Branch => NodeKind::Branch,
                    df::NodeKind::Kernel(k) => NodeKind::Kernel(k),
                    df::NodeKind::Update(_) => NodeKind::Update(()),
                    _ => NodeKind::Other,
                },
                host: summary(n, Side::Host),
                gpu: summary(n, Side::Gpu),
            })
            .collect();
        Cfg {
            nodes,
            succ: g.succ.clone(),
            pred: g.pred.clone(),
            entry: g.entry,
            exit: g.exit,
        }
    }
}

// ------------------------------------------------ solver.rs, verbatim

/// A monotone dataflow problem over a [`Cfg`].
pub trait Problem {
    /// Lattice element.
    type Fact: Clone + PartialEq;

    /// True for backward problems (facts flow exit → entry).
    fn backward(&self) -> bool;

    /// Fact at the boundary node (entry for forward, exit for backward).
    fn boundary(&self) -> Self::Fact;

    /// Optimistic initial fact for all other nodes (⊤).
    fn init(&self) -> Self::Fact;

    /// Meet of two facts (⊓).
    fn meet(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;

    /// Transfer function of node `n` applied to the incoming fact
    /// (the OUT fact for backward problems, the IN fact for forward ones).
    fn transfer(&self, cfg: &Cfg, n: usize, incoming: &Self::Fact) -> Self::Fact;
}

/// Fixpoint solution: `before[n]` is the fact at node entry, `after[n]` at
/// node exit (in control-flow order, regardless of analysis direction).
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Fact at each node's entry.
    pub before: Vec<F>,
    /// Fact at each node's exit.
    pub after: Vec<F>,
}

/// Iterate to fixpoint.
pub fn solve<P: Problem>(cfg: &Cfg, p: &P) -> Solution<P::Fact> {
    let n = cfg.len();
    let mut before: Vec<P::Fact> = vec![p.init(); n];
    let mut after: Vec<P::Fact> = vec![p.init(); n];
    if p.backward() {
        after[cfg.exit] = p.boundary();
        before[cfg.exit] = p.transfer(cfg, cfg.exit, &after[cfg.exit]);
    } else {
        before[cfg.entry] = p.boundary();
        after[cfg.entry] = p.transfer(cfg, cfg.entry, &before[cfg.entry]);
    }
    // Simple round-robin iteration: CFGs here are small (one per function),
    // and set lattices converge in a few passes.
    let mut changed = true;
    let mut rounds = 0usize;
    while changed {
        changed = false;
        rounds += 1;
        assert!(rounds < 10_000, "dataflow failed to converge");
        for i in 0..n {
            if p.backward() {
                if i == cfg.exit {
                    continue;
                }
                let mut acc: Option<P::Fact> = None;
                for &s in &cfg.succ[i] {
                    acc = Some(match acc {
                        None => before[s].clone(),
                        Some(a) => p.meet(&a, &before[s]),
                    });
                }
                let out = acc.unwrap_or_else(|| p.init());
                let inn = p.transfer(cfg, i, &out);
                if out != after[i] || inn != before[i] {
                    after[i] = out;
                    before[i] = inn;
                    changed = true;
                }
            } else {
                if i == cfg.entry {
                    continue;
                }
                let mut acc: Option<P::Fact> = None;
                for &pr in &cfg.pred[i] {
                    acc = Some(match acc {
                        None => after[pr].clone(),
                        Some(a) => p.meet(&a, &after[pr]),
                    });
                }
                let inn = acc.unwrap_or_else(|| p.init());
                let out = p.transfer(cfg, i, &inn);
                if inn != before[i] || out != after[i] {
                    before[i] = inn;
                    after[i] = out;
                    changed = true;
                }
            }
        }
    }
    Solution { before, after }
}

// -------------------------------------------------- analyses.rs, verbatim

type Set = BTreeSet<String>;

/// All variable names mentioned by either side of any node.
pub fn universe(cfg: &Cfg) -> Set {
    let mut u = Set::new();
    for n in &cfg.nodes {
        for s in [&n.host, &n.gpu] {
            u.extend(s.reads.iter().cloned());
            u.extend(s.writes.iter().cloned());
            u.extend(s.kills.iter().cloned());
        }
    }
    u
}

// ---------------------------------------------------------------- liveness

struct Liveness {
    side: Side,
}

impl Problem for Liveness {
    type Fact = Set;

    fn backward(&self) -> bool {
        true
    }

    fn boundary(&self) -> Set {
        Set::new()
    }

    fn init(&self) -> Set {
        Set::new()
    }

    fn meet(&self, a: &Set, b: &Set) -> Set {
        a.union(b).cloned().collect()
    }

    fn transfer(&self, cfg: &Cfg, n: usize, out: &Set) -> Set {
        let s = cfg.nodes[n].summary(self.side);
        let mut live = out.clone();
        for k in &s.kills {
            live.remove(k);
        }
        // Only total writes kill liveness; element writes leave the rest of
        // the array live.
        for w in &s.total_writes {
            live.remove(w);
        }
        live.extend(s.reads.iter().cloned());
        live
    }
}

/// Backward liveness; `before[n]` = live-in at node `n`.
pub fn liveness(cfg: &Cfg, side: Side) -> Solution<Set> {
    solve(cfg, &Liveness { side })
}

// ------------------------------------------------------------ Algorithm 1

/// Joint may-live / may-dead fact.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeadLiveFact {
    /// Variables read-before-written on **some** following path.
    pub live: Set,
    /// Variables written-first on **all** following paths.
    pub dead: Set,
}

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

struct DeadLive {
    side: Side,
    universe: Set,
    /// Skip `update` transfer nodes: transfers are the objects being
    /// diagnosed, so they must not count as genuine DEF/USE (data-region
    /// transfers are naturally invisible here; this keeps updates
    /// consistent with them).
    ignore_updates: bool,
}

impl Problem for DeadLive {
    type Fact = DeadLiveFact;

    fn backward(&self) -> bool {
        true
    }

    fn boundary(&self) -> DeadLiveFact {
        // OUTLive(EXIT) = ∅, OUTDead(EXIT) = ∅.
        DeadLiveFact::default()
    }

    fn init(&self) -> DeadLiveFact {
        // Optimistic ⊤: live = ∅ (∪-meet), dead = universe (∩-meet).
        DeadLiveFact {
            live: Set::new(),
            dead: self.universe.clone(),
        }
    }

    fn meet(&self, a: &DeadLiveFact, b: &DeadLiveFact) -> DeadLiveFact {
        DeadLiveFact {
            live: a.live.union(&b.live).cloned().collect(),
            dead: a.dead.intersection(&b.dead).cloned().collect(),
        }
    }

    fn transfer(&self, cfg: &Cfg, n: usize, out: &DeadLiveFact) -> DeadLiveFact {
        if self.ignore_updates && matches!(cfg.nodes[n].kind, NodeKind::Update(_)) {
            return out.clone();
        }
        let s = cfg.nodes[n].summary(self.side);
        // Algorithm 1:
        //   INLive(n) = OUTLive(n) − KILL(n) − DEF(n) + USE(n)
        //   INDead(n) = OUTDead(n) − KILL(n) + DEF(n) − USE(n)
        let mut live = out.live.clone();
        let mut dead = out.dead.clone();
        for k in &s.kills {
            live.remove(k);
            dead.remove(k);
        }
        for d in &s.writes {
            live.remove(d);
            dead.insert(d.clone());
        }
        for u in &s.reads {
            dead.remove(u);
            live.insert(u.clone());
        }
        DeadLiveFact { live, dead }
    }
}

/// Result of Algorithm 1 with a convenience classifier.
pub struct DeadLiveResult {
    /// Solver solution (`before[n]` = fact on entry to `n`).
    pub sol: Solution<DeadLiveFact>,
}

impl DeadLiveResult {
    /// Classify `var` *after* node `n` executes (i.e. on its out-edge).
    pub fn after(&self, n: usize, var: &str) -> Deadness {
        Self::classify(&self.sol.after[n], var)
    }

    /// Classify `var` at entry to node `n`.
    pub fn before(&self, n: usize, var: &str) -> Deadness {
        Self::classify(&self.sol.before[n], var)
    }

    fn classify(f: &DeadLiveFact, var: &str) -> Deadness {
        if f.live.contains(var) {
            Deadness::Live
        } else if f.dead.contains(var) {
            Deadness::MayDead
        } else {
            Deadness::MustDead
        }
    }
}

/// Run Algorithm 1 for one side (transfers visible as accesses).
pub fn dead_live(cfg: &Cfg, side: Side) -> DeadLiveResult {
    let p = DeadLive {
        side,
        universe: universe(cfg),
        ignore_updates: false,
    };
    DeadLiveResult {
        sol: solve(cfg, &p),
    }
}

/// Run Algorithm 1 treating `update` transfer nodes as transparent — the
/// variant used to place `reset_status` calls, where deadness must be
/// judged by *compute* accesses only.
pub fn dead_live_compute(cfg: &Cfg, side: Side) -> DeadLiveResult {
    let p = DeadLive {
        side,
        universe: universe(cfg),
        ignore_updates: true,
    };
    DeadLiveResult {
        sol: solve(cfg, &p),
    }
}

// ------------------------------------------------------------ Algorithm 2

struct LastWrite {
    side: Side,
    universe: Set,
    reset_at_kernels: bool,
}

impl Problem for LastWrite {
    type Fact = Set;

    fn backward(&self) -> bool {
        true
    }

    fn boundary(&self) -> Set {
        Set::new()
    }

    fn init(&self) -> Set {
        self.universe.clone()
    }

    fn meet(&self, a: &Set, b: &Set) -> Set {
        a.intersection(b).cloned().collect()
    }

    fn transfer(&self, cfg: &Cfg, n: usize, out: &Set) -> Set {
        // Algorithm 2: INWrite(n) = OUTWrite(n) + DEF(n) − KILL(n), with
        // kernels acting as analysis restarts when requested.
        let node = &cfg.nodes[n];
        let mut fact = if self.reset_at_kernels && node.is_kernel() {
            Set::new()
        } else {
            out.clone()
        };
        let s = node.summary(self.side);
        fact.extend(s.writes.iter().cloned());
        for k in &s.kills {
            fact.remove(k);
        }
        fact
    }
}

/// Result of Algorithm 2.
pub struct LastWriteResult {
    sol: Solution<Set>,
}

impl LastWriteResult {
    /// Variables for which node `n` is a *last write* on some path
    /// (`LASTWrite(n) = INWrite(n) − OUTWrite(n)`, restricted to variables
    /// the node actually writes).
    pub fn last_written_at(&self, cfg: &Cfg, side: Side, n: usize) -> Set {
        let written = &cfg.nodes[n].summary(side).writes;
        self.sol.before[n]
            .iter()
            .filter(|v| written.contains(*v) && !self.sol.after[n].contains(*v))
            .cloned()
            .collect()
    }
}

/// Run Algorithm 2 for one side.
pub fn last_write(cfg: &Cfg, side: Side, reset_at_kernels: bool) -> LastWriteResult {
    let p = LastWrite {
        side,
        universe: universe(cfg),
        reset_at_kernels,
    };
    LastWriteResult {
        sol: solve(cfg, &p),
    }
}

// ----------------------------------------------------------- first access

/// Which access kind a first-access query concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessSel {
    /// Reads.
    Read,
    /// Writes.
    Write,
}

struct AccessedBefore {
    side: Side,
    sel: AccessSel,
    universe: Set,
}

impl Problem for AccessedBefore {
    type Fact = Set;

    fn backward(&self) -> bool {
        false
    }

    fn boundary(&self) -> Set {
        Set::new()
    }

    fn init(&self) -> Set {
        self.universe.clone()
    }

    fn meet(&self, a: &Set, b: &Set) -> Set {
        // ∩: "definitely accessed on every path so far". A variable NOT in
        // the set may see its first access here on some path.
        a.intersection(b).cloned().collect()
    }

    fn transfer(&self, cfg: &Cfg, n: usize, inn: &Set) -> Set {
        let node = &cfg.nodes[n];
        // Kernel launches restart host-side tracking ("…from each GPU
        // kernel call"): the device may have changed coherence state.
        let mut fact = if node.is_kernel() {
            Set::new()
        } else {
            inn.clone()
        };
        let s = node.summary(self.side);
        let acc = match self.sel {
            AccessSel::Read => &s.reads,
            AccessSel::Write => &s.writes,
        };
        fact.extend(acc.iter().cloned());
        for k in &s.kills {
            fact.remove(k);
        }
        fact
    }
}

/// For each node, the variables whose read/write at that node may be the
/// first since program entry or the last kernel call — exactly the points
/// where §III-B's optimized instrumentation inserts `check_read` /
/// `check_write` calls.
pub fn first_access(cfg: &Cfg, side: Side, sel: AccessSel) -> Vec<Set> {
    let p = AccessedBefore {
        side,
        sel,
        universe: universe(cfg),
    };
    let sol = solve(cfg, &p);
    cfg.nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let s = node.summary(side);
            let acc = match sel {
                AccessSel::Read => &s.reads,
                AccessSel::Write => &s.writes,
            };
            acc.iter()
                .filter(|v| !sol.before[i].contains(*v))
                .cloned()
                .collect()
        })
        .collect()
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
/// where every loop header is a [`NodeKind::Branch`] node).
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

// ------------------------------------------------------------ the comparison

/// A bitset of `g`, by name.
fn names(g: &df::Cfg, set: &[u64]) -> Set {
    ones(set.iter().copied())
        .map(|v| g.vars()[v as usize].clone())
        .collect()
}

/// `before`/`after` of a bitset solution against a string-set one.
fn same_facts(what: &str, g: &df::Cfg, got: &df::Solution, want: &Solution<Set>) {
    for n in 0..g.len() {
        assert_eq!(
            names(g, got.before(n)),
            want.before[n],
            "{what}: before[{n}]"
        );
        assert_eq!(names(g, got.after(n)), want.after[n], "{what}: after[{n}]");
    }
}

fn same_dead_live(what: &str, g: &df::Cfg, got: &df::DeadLiveResult, want: &DeadLiveResult) {
    let plane = |pick: fn(&DeadLiveFact) -> &Set| Solution {
        before: want.sol.before.iter().map(|f| pick(f).clone()).collect(),
        after: want.sol.after.iter().map(|f| pick(f).clone()).collect(),
    };
    same_facts(&format!("{what} live"), g, &got.live, &plane(|f| &f.live));
    same_facts(&format!("{what} dead"), g, &got.dead, &plane(|f| &f.dead));
    let class = |d: df::Deadness| match d {
        df::Deadness::Live => Deadness::Live,
        df::Deadness::MayDead => Deadness::MayDead,
        df::Deadness::MustDead => Deadness::MustDead,
    };
    for n in 0..g.len() {
        for (v, name) in g.vars().iter().enumerate() {
            let v = v as df::VarId;
            assert_eq!(class(got.before(n, v)), want.before(n, name), "{what}");
            assert_eq!(class(got.after(n, v)), want.after(n, name), "{what}");
        }
    }
}

/// All five analyses, both sides, on one function. Returns its node count.
fn check_function(what: &str, g: &df::Cfg) -> usize {
    let r = Cfg::of(g);
    let table: Vec<String> = universe(&r).into_iter().collect();
    assert_eq!(
        g.vars(),
        table,
        "{what}: the name table is the old universe"
    );
    for side in [Side::Host, Side::Gpu] {
        let what = format!("{what} {side:?}");
        same_facts(
            &format!("{what} liveness"),
            g,
            &df::liveness(g, side),
            &liveness(&r, side),
        );
        same_dead_live(
            &format!("{what} dead_live"),
            g,
            &df::dead_live(g, side),
            &dead_live(&r, side),
        );
        same_dead_live(
            &format!("{what} dead_live_compute"),
            g,
            &df::dead_live_compute(g, side),
            &dead_live_compute(&r, side),
        );
        for reset in [false, true] {
            let what = format!("{what} last_write(reset={reset})");
            let (got, want) = (df::last_write(g, side, reset), last_write(&r, side, reset));
            same_facts(&what, g, &got.sol, &want.sol);
            for n in 0..g.len() {
                assert_eq!(
                    names(g, &got.last_written_at(g, side, n)),
                    want.last_written_at(&r, side, n),
                    "{what}: last_written_at[{n}]"
                );
            }
        }
        for (sel, df_sel) in [
            (AccessSel::Read, df::AccessSel::Read),
            (AccessSel::Write, df::AccessSel::Write),
        ] {
            let what = format!("{what} first_access({sel:?})");
            let got = df::first_access(g, side, df_sel);
            let problem = AccessedBefore {
                side,
                sel,
                universe: universe(&r),
            };
            same_facts(&what, g, &got.sol, &solve(&r, &problem));
            let want = first_access(&r, side, sel);
            for (n, want) in want.iter().enumerate() {
                assert_eq!(names(g, &got.first_at(g, n)), *want, "{what}: [{n}]");
            }
        }
    }
    let got = df::natural_loops(g).into_iter().map(|l| (l.head, l.body));
    let want = natural_loops(&r).into_iter().map(|l| (l.head, l.body));
    assert!(got.eq(want), "{what}: natural_loops");
    g.len()
}

/// Every function of `p` as `instrument::plan` sees it, and — for the
/// hand-picked programs, where pointers make the two differ — untyped as
/// well. Returns the nodes compared.
fn check_program(what: &str, p: &Program, s: &Sema, untyped_too: bool) -> usize {
    let mut nodes = 0;
    for f in p.items.iter().filter_map(|it| match it {
        Item::Func(f) => Some(f),
        Item::Global(_) => None,
    }) {
        let what = format!("{what} fn {}", f.name);
        nodes += check_function(&what, &df::Cfg::build_typed(f, s).expect("typed cfg"));
        if untyped_too {
            nodes += check_function(&what, &df::Cfg::build(f).expect("cfg"));
        }
    }
    nodes
}

const SCALE: Scale = Scale { n: 16, iters: 2 };

#[test]
fn suite_variants_agree() {
    let mut nodes = 0;
    for b in all(SCALE) {
        for v in Variant::ALL {
            let (p, s) = frontend(b.source(v)).expect("frontend");
            nodes += check_program(&format!("{} [{}]", b.name, v.name()), &p, &s, true);
        }
    }
    assert_eq!(
        nodes,
        2 * 1652,
        "the 36 sources' CFG nodes, untyped + typed"
    );
}

#[test]
fn stripped_programs_agree() {
    for b in all(SCALE) {
        let (p, s) = frontend(b.source(Variant::Optimized)).expect("frontend");
        let (p, _) = strip_privatization(&p).expect("strip");
        assert!(check_program(&format!("{} [stripped]", b.name), &p, &s, true) > 0);
    }
}

#[test]
fn corpus_programs_agree() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    let mut compared = 0;
    for f in files {
        let src = std::fs::read_to_string(&f).expect("readable corpus file");
        if let Ok((p, s)) = frontend(&src) {
            check_program(&f.display().to_string(), &p, &s, true);
            compared += 1;
        }
    }
    assert!(compared >= 6, "only {compared} corpus programs compared");
}

/// Shapes the generator does not produce: code after `return`, `break` and
/// `continue`, loops with no exit path, more than one word of variables,
/// none at all, a kernel-only body, `free` and pointer rebinding.
#[test]
fn adversaries_agree() {
    let wide: String = (0..66).map(|i| format!("double w{i:03}[2];\n")).collect();
    let wide_body: String = (0..66)
        .map(|i| format!(" w{i:03}[0] = w{:03}[1];", (i * 7) % 66))
        .collect();
    let sources = [
        "void main() { }".to_string(),
        "int a;\nint b;\nvoid main() { a = 1; return; b = a; a = b; }".to_string(),
        "int a;\nvoid main() { while (1) { } a = 1; }".to_string(),
        "int a;\nint b;\nvoid main() { while (1) { a = b; if (a) { break; } b = 2; continue; a = 3; } b = a; }".to_string(),
        "int a;\nvoid main() { int i; for (i = 0; i < 4; i++) { if (i) { continue; } a = i; break; a = 7; } }".to_string(),
        "double q[4];\nint j;\nvoid main() {\n #pragma acc kernels loop gang\n for (j = 0; j < 4; j++) { q[j] = 1.0; }\n}".to_string(),
        "double *p;\ndouble *q;\ndouble a[4];\nvoid main() { p = (double *) malloc(4 * sizeof(double)); q = p; q[0] = a[1]; free(p); p = q; p[1] = a[0]; }".to_string(),
        "double a[8];\ndouble b[8];\nvoid main() {\n int k; int j;\n #pragma acc data copy(a) create(b)\n {\n  for (k = 0; k < 3; k++) {\n   #pragma acc kernels loop gang\n   for (j = 0; j < 8; j++) { b[j] = a[j]; }\n   #pragma acc update host(b)\n   a[0] = b[0];\n   if (a[0] > 2.0) { return; }\n   #pragma acc update device(a)\n  }\n }\n}".to_string(),
        format!("{wide}int z;\nvoid main() {{ while (z) {{{wide_body} }} }}"),
    ];
    for src in &sources {
        let (p, s) = frontend(src).unwrap_or_else(|e| panic!("{src}: {e:?}"));
        assert!(check_program(src, &p, &s, true) > 0);
    }
}

fn generated_programs(seed: u64, programs: usize) {
    let mut rng = FuzzRng::new(seed);
    let mut compared = 0;
    for i in 0..programs {
        let src = gen::generate(&mut rng.fork());
        if let Ok((p, s)) = frontend(&src) {
            check_program(&format!("generated #{i} (seed {seed})"), &p, &s, false);
            compared += 1;
        }
    }
    assert_eq!(
        compared, programs,
        "every generated program passes the frontend"
    );
}

#[test]
fn generated_programs_agree() {
    generated_programs(23, 300);
}

/// The CI-sized variant (`cargo test --release -- --ignored`).
#[test]
#[ignore = "large: run in release"]
fn generated_programs_agree_large() {
    generated_programs(2023, 2000);
}
