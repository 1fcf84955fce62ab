//! Control-flow graph over a MiniC function, OpenACC-aware.
//!
//! Compute regions collapse into single **kernel nodes** whose accesses are
//! attributed to the GPU side; everything else is host-side. This mirrors
//! the paper's placement rules ("coherence checking for GPU data is only
//! necessary at the kernel boundary") and gives the dead/live analyses the
//! two views they need (§III-B runs Algorithm 1 "twice, one for CPU
//! variables and the other for GPU variables").

use openarc_minic::ast::*;
use openarc_minic::span::Diagnostic;
use openarc_openacc::{directives_of, ComputeSpec, DataSpec, Directive, UpdateSpec};
use std::collections::HashMap;

/// Which device's accesses an analysis should look at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Host CPU accesses.
    Host,
    /// Device (compute-region) accesses.
    Gpu,
}

/// Dense variable id: the rank of the name in [`Cfg::vars`].
pub type VarId = u32;

/// Is `v` a member of the bitset `set`?
pub fn has(set: &[u64], v: VarId) -> bool {
    set.get(v as usize / 64)
        .is_some_and(|w| (w >> (v % 64)) & 1 != 0)
}

/// Add `v` to the bitset `set`, which must be wide enough for it.
pub fn insert(set: &mut [u64], v: VarId) {
    set[v as usize / 64] |= 1 << (v % 64);
}

/// Members of a bitset given word by word, in ascending id order — which
/// is lexicographic name order, because ids are ranks in a sorted table.
pub fn ones(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = VarId> {
    words.into_iter().enumerate().flat_map(|(i, word)| {
        let rest = |x: &u64| Some(x & (x - 1)).filter(|y| *y != 0);
        std::iter::successors(Some(word).filter(|x| *x != 0), rest)
            .map(move |x| i as VarId * 64 + x.trailing_zeros())
    })
}

/// Variable accesses attributed to one side at one CFG node: four bitsets
/// over [`Cfg::vars`], [`Cfg::words`] words each.
#[derive(Debug, Clone, Copy)]
pub struct AccessSummary<'a> {
    /// Variables read.
    pub reads: &'a [u64],
    /// Variables written (totally or partially).
    pub writes: &'a [u64],
    /// Variables written as a whole (scalar or pointer assignment).
    pub total_writes: &'a [u64],
    /// Variables whose allocation dies here (`free`, or pointer overwrite).
    pub kills: &'a [u64],
}

/// The builder's form of an [`AccessSummary`]: bitsets over first-seen ids
/// (see [`Names`]), as long as the highest member needs.
#[derive(Default)]
struct RawSets {
    reads: Vec<u64>,
    writes: Vec<u64>,
    total_writes: Vec<u64>,
    kills: Vec<u64>,
}

/// Interns names in first-seen order while a function is lowered; sorted
/// ranks exist only once its whole universe is known.
struct Names<'a> {
    is_ptr: &'a dyn Fn(&str) -> bool,
    ids: HashMap<String, VarId>,
}

impl Names<'_> {
    fn add(&mut self, set: &mut Vec<u64>, name: &str) {
        let id = match self.ids.get(name) {
            Some(&id) => id,
            None => {
                let id = self.ids.len() as VarId;
                self.ids.insert(name.to_string(), id);
                id
            }
        };
        let words = id as usize / 64 + 1;
        if set.len() < words {
            set.resize(words, 0);
        }
        insert(set, id);
    }
}

/// What a CFG node represents.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Function entry.
    Entry,
    /// Function exit.
    Exit,
    /// Structural no-op (joins, empty statements, `wait`).
    Nop,
    /// An ordinary host statement.
    Plain,
    /// A branch condition evaluation (reads only).
    Branch,
    /// A whole compute region (one kernel). Index into [`Cfg::regions`].
    Kernel(usize),
    /// Entry of a structured `data` region. Index into [`Cfg::data_regions`].
    DataEnter(usize),
    /// Exit of a structured `data` region.
    DataExit(usize),
    /// An executable `update` directive.
    Update(UpdateSpec),
}

/// A compute region discovered during CFG construction.
#[derive(Debug, Clone)]
pub struct ComputeRegion {
    /// The annotated statement.
    pub stmt: NodeId,
    /// Parsed directive.
    pub spec: ComputeSpec,
    /// CFG node index of the kernel node.
    pub node: usize,
}

/// A structured data region discovered during CFG construction.
#[derive(Debug, Clone)]
pub struct DataRegion {
    /// The annotated block statement.
    pub stmt: NodeId,
    /// Parsed directive.
    pub spec: DataSpec,
    /// Node at region entry.
    pub enter_node: usize,
    /// Node at region exit.
    pub exit_node: usize,
}

/// One node of the CFG. Its accesses are in [`Cfg::summary`].
#[derive(Debug, Clone)]
pub struct CfgNode {
    /// Originating statement, if any.
    pub stmt: Option<NodeId>,
    /// Node kind.
    pub kind: NodeKind,
    /// Nesting depth of enclosing loops (0 = top level of the function).
    pub loop_depth: u32,
}

impl CfgNode {
    /// True for kernel-launch nodes.
    pub fn is_kernel(&self) -> bool {
        matches!(self.kind, NodeKind::Kernel(_))
    }
}

/// A node while the function is being lowered.
struct RawNode {
    stmt: Option<NodeId>,
    kind: NodeKind,
    host: RawSets,
    gpu: RawSets,
    loop_depth: u32,
}

/// Control-flow graph of one function.
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    /// Nodes; index 0 is entry.
    pub nodes: Vec<CfgNode>,
    /// Successor lists.
    pub succ: Vec<Vec<usize>>,
    /// Predecessor lists.
    pub pred: Vec<Vec<usize>>,
    /// Entry node index.
    pub entry: usize,
    /// Exit node index.
    pub exit: usize,
    /// Compute regions in discovery order.
    pub regions: Vec<ComputeRegion>,
    /// Structured data regions in discovery order.
    pub data_regions: Vec<DataRegion>,
    /// Statement id → CFG node that *starts* it.
    pub stmt_node: HashMap<NodeId, usize>,
    /// Every variable a node of either side mentions, sorted.
    vars: Vec<String>,
    /// Words per bitset: `⌈|vars| / 64⌉`.
    words: usize,
    /// All access bitsets, flat: node-major, then side, then
    /// reads/writes/total_writes/kills.
    sets: Vec<u64>,
}

impl Cfg {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the CFG is trivially empty (never for built CFGs).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The function's variable universe, sorted; a [`VarId`] indexes it.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// The id of `name`, if any node mentions it.
    pub fn var(&self, name: &str) -> Option<VarId> {
        let rank = self.vars.binary_search_by(|v| v.as_str().cmp(name)).ok()?;
        Some(rank as VarId)
    }

    /// Words per bitset over [`Cfg::vars`].
    pub fn words(&self) -> usize {
        self.words
    }

    /// The accesses `side` performs at node `n`.
    pub fn summary(&self, n: usize, side: Side) -> AccessSummary<'_> {
        let w = self.words;
        let at = (n * 2 + side as usize) * 4 * w;
        let set = |k: usize| &self.sets[at + k * w..at + (k + 1) * w];
        AccessSummary {
            reads: set(0),
            writes: set(1),
            total_writes: set(2),
            kills: set(3),
        }
    }

    /// Build the CFG of `func` (untyped: pointer rebindings count as data
    /// writes — fine for tests and structural queries).
    pub fn build(func: &Func) -> Result<Cfg, Diagnostic> {
        Cfg::build_inner(func, &|_| false)
    }

    /// Build the CFG with type information: assignments *to* pointer
    /// variables are rebindings (they kill the old binding, they do not
    /// write data), and reading a pointer's value is not a data read.
    /// Element accesses through the pointer remain data accesses.
    pub fn build_typed(func: &Func, sema: &openarc_minic::Sema) -> Result<Cfg, Diagnostic> {
        let fname = func.name.clone();
        let is_ptr =
            move |n: &str| matches!(sema.var_ty(&fname, n), Some(openarc_minic::Ty::Ptr(_)));
        Cfg::build_inner(func, &is_ptr)
    }

    fn build_inner(func: &Func, is_ptr: &dyn Fn(&str) -> bool) -> Result<Cfg, Diagnostic> {
        let mut b = Builder::new(is_ptr);
        let entry = b.plain(None, NodeKind::Entry, RawSets::default());
        let exit = b.plain(None, NodeKind::Exit, RawSets::default());
        b.exit = exit;
        let last = b.lower_block(&func.body, entry)?;
        b.edge(last, exit);
        let mut pred = vec![Vec::new(); b.nodes.len()];
        for (n, ss) in b.succ.iter().enumerate() {
            for &s in ss {
                pred[s].push(n);
            }
        }
        // Re-rank: an id is the rank of its name in the sorted universe, so
        // ascending-bit iteration of any set is lexicographic name order.
        let mut by_name: Vec<(String, VarId)> = b.names.ids.into_iter().collect();
        by_name.sort_unstable();
        let mut rank = vec![0; by_name.len()];
        for (r, (_, first_seen)) in by_name.iter().enumerate() {
            rank[*first_seen as usize] = r as VarId;
        }
        let vars: Vec<String> = by_name.into_iter().map(|(name, _)| name).collect();
        let words = vars.len().div_ceil(64);
        let mut sets = vec![0u64; b.nodes.len() * 8 * words];
        let raw = (b.nodes.iter().flat_map(|n| [&n.host, &n.gpu]))
            .flat_map(|s| [&s.reads, &s.writes, &s.total_writes, &s.kills]);
        for (k, set) in raw.enumerate() {
            for id in ones(set.iter().copied()) {
                insert(&mut sets[k * words..(k + 1) * words], rank[id as usize]);
            }
        }
        let node = |n: RawNode| CfgNode {
            stmt: n.stmt,
            kind: n.kind,
            loop_depth: n.loop_depth,
        };
        Ok(Cfg {
            nodes: b.nodes.into_iter().map(node).collect(),
            succ: b.succ,
            pred,
            entry,
            exit,
            regions: b.regions,
            data_regions: b.data_regions,
            stmt_node: b.stmt_node,
            vars,
            words,
            sets,
        })
    }

    /// Node indices of all kernel nodes, ascending.
    pub fn kernel_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.regions.iter().map(|r| r.node)
    }
}

struct Builder<'a> {
    nodes: Vec<RawNode>,
    succ: Vec<Vec<usize>>,
    exit: usize,
    regions: Vec<ComputeRegion>,
    data_regions: Vec<DataRegion>,
    stmt_node: HashMap<NodeId, usize>,
    loop_stack: Vec<(usize, Vec<usize>)>, // (continue target, break sources)
    loop_depth: u32,
    names: Names<'a>,
}

impl<'a> Builder<'a> {
    fn new(is_ptr: &'a dyn Fn(&str) -> bool) -> Builder<'a> {
        Builder {
            nodes: Vec::new(),
            succ: Vec::new(),
            exit: 0,
            regions: Vec::new(),
            data_regions: Vec::new(),
            stmt_node: HashMap::new(),
            loop_stack: Vec::new(),
            loop_depth: 0,
            names: Names {
                is_ptr,
                ids: HashMap::new(),
            },
        }
    }
}

impl Builder<'_> {
    fn add(&mut self, node: RawNode) -> usize {
        self.nodes.push(node);
        self.succ.push(Vec::new());
        self.nodes.len() - 1
    }

    fn plain(&mut self, stmt: Option<NodeId>, kind: NodeKind, host: RawSets) -> usize {
        self.add(RawNode {
            stmt,
            kind,
            host,
            gpu: RawSets::default(),
            loop_depth: self.loop_depth,
        })
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.succ[from].contains(&to) {
            self.succ[from].push(to);
        }
    }

    fn lower_block(&mut self, b: &Block, mut cur: usize) -> Result<usize, Diagnostic> {
        for s in &b.stmts {
            cur = self.lower_stmt(s, cur)?;
        }
        Ok(cur)
    }

    /// Lower one statement; returns the node control flows out of.
    fn lower_stmt(&mut self, s: &Stmt, cur: usize) -> Result<usize, Diagnostic> {
        let dirs = directives_of(s)?;
        // Compute construct → a single kernel node.
        if let Some((Directive::Compute(spec), _)) = dirs
            .iter()
            .find(|(d, _)| matches!(d, Directive::Compute(_)))
        {
            let mut gpu = RawSets::default();
            summarize_region(s, &mut gpu, &mut self.names);
            // Launch-time host reads: loop bounds and scalar kernel inputs
            // are read on the host when marshalling arguments.
            let host = RawSets {
                reads: gpu.reads.clone(),
                ..Default::default()
            };
            let node = self.add(RawNode {
                stmt: Some(s.id),
                kind: NodeKind::Kernel(self.regions.len()),
                host,
                gpu,
                loop_depth: self.loop_depth,
            });
            self.regions.push(ComputeRegion {
                stmt: s.id,
                spec: spec.clone(),
                node,
            });
            self.stmt_node.insert(s.id, node);
            self.edge(cur, node);
            return Ok(node);
        }
        // Structured data region → enter node, body, exit node.
        if let Some((Directive::Data(spec), _)) =
            dirs.iter().find(|(d, _)| matches!(d, Directive::Data(_)))
        {
            let region_idx = self.data_regions.len();
            let enter = self.plain(
                Some(s.id),
                NodeKind::DataEnter(region_idx),
                RawSets::default(),
            );
            self.stmt_node.insert(s.id, enter);
            self.edge(cur, enter);
            // Reserve the slot before lowering the body so nested regions
            // keep discovery order.
            self.data_regions.push(DataRegion {
                stmt: s.id,
                spec: spec.clone(),
                enter_node: enter,
                exit_node: usize::MAX,
            });
            let body_end = match &s.kind {
                StmtKind::Block(b) => self.lower_block(b, enter)?,
                _ => self.lower_plain(s, enter)?,
            };
            let exit = self.plain(
                Some(s.id),
                NodeKind::DataExit(region_idx),
                RawSets::default(),
            );
            self.edge(body_end, exit);
            self.data_regions[region_idx].exit_node = exit;
            return Ok(exit);
        }
        // Executable update directive (standalone empty-block statement).
        if let Some((Directive::Update(u), _)) =
            dirs.iter().find(|(d, _)| matches!(d, Directive::Update(_)))
        {
            let mut host = RawSets::default();
            // update host(v): writes v on the host (totally) from the device
            // copy; update device(v): reads the host copy.
            for v in &u.host {
                self.names.add(&mut host.writes, v);
                self.names.add(&mut host.total_writes, v);
            }
            for v in &u.device {
                self.names.add(&mut host.reads, v);
            }
            let mut gpu = RawSets::default();
            for v in &u.host {
                self.names.add(&mut gpu.reads, v);
            }
            for v in &u.device {
                self.names.add(&mut gpu.writes, v);
                self.names.add(&mut gpu.total_writes, v);
            }
            let node = self.add(RawNode {
                stmt: Some(s.id),
                kind: NodeKind::Update(u.clone()),
                host,
                gpu,
                loop_depth: self.loop_depth,
            });
            self.stmt_node.insert(s.id, node);
            self.edge(cur, node);
            return Ok(node);
        }
        self.lower_plain(s, cur)
    }

    /// Lower a statement with no region-forming directive.
    fn lower_plain(&mut self, s: &Stmt, cur: usize) -> Result<usize, Diagnostic> {
        match &s.kind {
            StmtKind::Decl(_) | StmtKind::Expr(_) | StmtKind::Assign { .. } => {
                let mut host = RawSets::default();
                stmt_accesses(s, &mut host, &mut self.names);
                let node = self.plain(Some(s.id), NodeKind::Plain, host);
                self.stmt_node.insert(s.id, node);
                self.edge(cur, node);
                Ok(node)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let mut host = RawSets::default();
                expr_reads_typed(cond, &mut host.reads, &mut self.names);
                let cnode = self.plain(Some(s.id), NodeKind::Branch, host);
                self.stmt_node.insert(s.id, cnode);
                self.edge(cur, cnode);
                let then_end = self.lower_block(then_blk, cnode)?;
                let join = self.plain(None, NodeKind::Nop, RawSets::default());
                self.edge(then_end, join);
                match else_blk {
                    Some(e) => {
                        let else_end = self.lower_block(e, cnode)?;
                        self.edge(else_end, join);
                    }
                    None => self.edge(cnode, join),
                }
                Ok(join)
            }
            StmtKind::While { cond, body } => {
                let mut host = RawSets::default();
                expr_reads_typed(cond, &mut host.reads, &mut self.names);
                let cnode = self.plain(Some(s.id), NodeKind::Branch, host);
                self.stmt_node.insert(s.id, cnode);
                self.edge(cur, cnode);
                self.loop_stack.push((cnode, Vec::new()));
                self.loop_depth += 1;
                let body_end = self.lower_block(body, cnode)?;
                self.loop_depth -= 1;
                self.edge(body_end, cnode);
                let (_, breaks) = self.loop_stack.pop().expect("loop stack");
                let after = self.plain(None, NodeKind::Nop, RawSets::default());
                self.edge(cnode, after);
                for b in breaks {
                    self.edge(b, after);
                }
                Ok(after)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let mut cur2 = cur;
                if let Some(i) = init {
                    cur2 = self.lower_stmt(i, cur2)?;
                }
                let mut host = RawSets::default();
                if let Some(c) = cond {
                    expr_reads_typed(c, &mut host.reads, &mut self.names);
                }
                let cnode = self.plain(Some(s.id), NodeKind::Branch, host);
                self.stmt_node.insert(s.id, cnode);
                self.edge(cur2, cnode);
                // continue → step node; build step placeholder after body.
                let step_node = self.plain(None, NodeKind::Nop, RawSets::default());
                self.loop_stack.push((step_node, Vec::new()));
                self.loop_depth += 1;
                let body_end = self.lower_block(body, cnode)?;
                self.loop_depth -= 1;
                self.edge(body_end, step_node);
                let after_step = if let Some(st) = step {
                    self.lower_stmt(st, step_node)?
                } else {
                    step_node
                };
                self.edge(after_step, cnode);
                let (_, breaks) = self.loop_stack.pop().expect("loop stack");
                let after = self.plain(None, NodeKind::Nop, RawSets::default());
                self.edge(cnode, after);
                for b in breaks {
                    self.edge(b, after);
                }
                Ok(after)
            }
            StmtKind::Block(b) => {
                if b.stmts.is_empty() {
                    // Empty statement (or standalone wait pragma).
                    let node = self.plain(Some(s.id), NodeKind::Nop, RawSets::default());
                    self.stmt_node.insert(s.id, node);
                    self.edge(cur, node);
                    Ok(node)
                } else {
                    self.lower_block(b, cur)
                }
            }
            StmtKind::Return(e) => {
                let mut host = RawSets::default();
                if let Some(e) = e {
                    expr_reads_typed(e, &mut host.reads, &mut self.names);
                }
                let node = self.plain(Some(s.id), NodeKind::Plain, host);
                self.stmt_node.insert(s.id, node);
                self.edge(cur, node);
                self.edge(node, self.exit);
                // Unreachable continuation node.
                let dead = self.plain(None, NodeKind::Nop, RawSets::default());
                Ok(dead)
            }
            StmtKind::Break => {
                let node = self.plain(Some(s.id), NodeKind::Nop, RawSets::default());
                self.edge(cur, node);
                if let Some((_, breaks)) = self.loop_stack.last_mut() {
                    breaks.push(node);
                }
                let dead = self.plain(None, NodeKind::Nop, RawSets::default());
                Ok(dead)
            }
            StmtKind::Continue => {
                let node = self.plain(Some(s.id), NodeKind::Nop, RawSets::default());
                self.edge(cur, node);
                let target = self.loop_stack.last().map(|(t, _)| *t);
                if let Some(t) = target {
                    self.edge(node, t);
                }
                let dead = self.plain(None, NodeKind::Nop, RawSets::default());
                Ok(dead)
            }
        }
    }
}

/// Collect variables read by an expression (array bases included).
/// Reading a pointer's *value* (`q` in `p = q`) is not a data read; element
/// reads through it (`q[i]`) are.
fn expr_reads_typed(e: &Expr, out: &mut Vec<u64>, names: &mut Names) {
    e.walk(&mut |x| match &x.kind {
        ExprKind::Var(n) if !(names.is_ptr)(n) => {
            names.add(out, n);
        }
        ExprKind::Index { base, .. } => {
            names.add(out, base);
        }
        _ => {}
    });
}

/// Accesses of one simple statement (declaration, assignment, call).
fn stmt_accesses(s: &Stmt, sum: &mut RawSets, names: &mut Names) {
    match &s.kind {
        StmtKind::Decl(d) => {
            if let Some(init) = &d.init {
                expr_reads_typed(init, &mut sum.reads, names);
                if (names.is_ptr)(&d.name) {
                    // Pointer initialization is a rebinding, not a data
                    // write.
                    names.add(&mut sum.kills, &d.name);
                } else {
                    names.add(&mut sum.writes, &d.name);
                    names.add(&mut sum.total_writes, &d.name);
                }
                note_expr_effects(init, sum, names);
            }
        }
        StmtKind::Assign { target, op, value } => {
            expr_reads_typed(value, &mut sum.reads, names);
            note_expr_effects(value, sum, names);
            match target {
                LValue::Var(n) => {
                    if (names.is_ptr)(n) {
                        // `p = q` / `p = malloc(...)`: the old binding of p
                        // dies; no buffer data is written.
                        names.add(&mut sum.kills, n);
                    } else {
                        if op.binop().is_some() {
                            names.add(&mut sum.reads, n);
                        }
                        names.add(&mut sum.writes, n);
                        names.add(&mut sum.total_writes, n);
                    }
                }
                LValue::Index { base, indices } => {
                    for ix in indices {
                        expr_reads_typed(ix, &mut sum.reads, names);
                    }
                    if op.binop().is_some() {
                        names.add(&mut sum.reads, base);
                    }
                    names.add(&mut sum.writes, base);
                }
            }
        }
        StmtKind::Expr(e) => {
            expr_reads_typed(e, &mut sum.reads, names);
            note_expr_effects(e, sum, names);
        }
        _ => {}
    }
}

/// Side effects hidden in expressions: `free(p)` kills `p`; calls to user
/// functions conservatively read+partially-write their pointer arguments.
fn note_expr_effects(e: &Expr, sum: &mut RawSets, names: &mut Names) {
    e.walk(&mut |x| {
        if let ExprKind::Call { name, args } = &x.kind {
            if name == "free" {
                if let Some(Expr {
                    kind: ExprKind::Var(p),
                    ..
                }) = args.first()
                {
                    names.add(&mut sum.kills, p);
                }
            } else if !openarc_minic::sema::is_intrinsic(name) {
                // User call: pointer arguments may be read and written.
                for a in args {
                    if let ExprKind::Var(n) = &a.kind {
                        names.add(&mut sum.reads, n);
                        names.add(&mut sum.writes, n);
                    }
                }
            }
        }
    });
}

/// Aggregate all accesses inside a compute region (the GPU side of a kernel
/// node).
fn summarize_region(s: &Stmt, sum: &mut RawSets, names: &mut Names) {
    walk_stmt(s, &mut |inner| {
        stmt_accesses(inner, sum, names);
        // Branch/loop conditions inside the region.
        match &inner.kind {
            StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => {
                expr_reads_typed(cond, &mut sum.reads, names)
            }
            StmtKind::For { cond: Some(c), .. } => expr_reads_typed(c, &mut sum.reads, names),
            _ => {}
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use openarc_minic::parse;

    fn cfg_of(src: &str) -> Cfg {
        let p = parse(src).expect("parse");
        Cfg::build(p.func("main").unwrap()).expect("cfg")
    }

    /// By-name views of the access bitsets, for this crate's unit tests.
    impl Cfg {
        pub(crate) fn named(&self, set: &[u64], name: &str) -> bool {
            self.var(name).is_some_and(|v| has(set, v))
        }

        pub(crate) fn reads(&self, n: usize, side: Side, name: &str) -> bool {
            self.named(self.summary(n, side).reads, name)
        }

        pub(crate) fn writes(&self, n: usize, side: Side, name: &str) -> bool {
            self.named(self.summary(n, side).writes, name)
        }

        pub(crate) fn total_writes(&self, n: usize, side: Side, name: &str) -> bool {
            self.named(self.summary(n, side).total_writes, name)
        }

        pub(crate) fn kills(&self, n: usize, side: Side, name: &str) -> bool {
            self.named(self.summary(n, side).kills, name)
        }
    }

    #[test]
    fn straight_line_cfg() {
        let cfg = cfg_of("int a;\nint b;\nvoid main() { a = 1; b = a; }");
        // entry, exit, two plain nodes.
        assert_eq!(cfg.len(), 4);
        assert_eq!(cfg.succ[cfg.entry].len(), 1);
        let n1 = cfg.succ[cfg.entry][0];
        assert!(cfg.writes(n1, Side::Host, "a"));
        let n2 = cfg.succ[n1][0];
        assert!(cfg.reads(n2, Side::Host, "a"));
        assert_eq!(cfg.succ[n2], vec![cfg.exit]);
    }

    #[test]
    fn if_else_diamond() {
        let cfg = cfg_of("int a;\nvoid main() { if (a > 0) { a = 1; } else { a = 2; } }");
        let cnode = cfg.succ[cfg.entry][0];
        assert!(matches!(cfg.nodes[cnode].kind, NodeKind::Branch));
        assert_eq!(cfg.succ[cnode].len(), 2);
        // Both branches reach the same join.
        let j1 = cfg.succ[cfg.succ[cnode][0]][0];
        let j2 = cfg.succ[cfg.succ[cnode][1]][0];
        assert_eq!(j1, j2);
    }

    #[test]
    fn loop_back_edge_exists() {
        let cfg = cfg_of("void main() { int i; for (i = 0; i < 3; i++) { i = i; } }");
        // Some node must have a back edge (successor with smaller index that
        // is a Branch node).
        let mut has_back = false;
        for (n, ss) in cfg.succ.iter().enumerate() {
            for &s in ss {
                if s < n && matches!(cfg.nodes[s].kind, NodeKind::Branch) {
                    has_back = true;
                }
            }
        }
        assert!(has_back);
    }

    #[test]
    fn kernel_node_collapses_region() {
        let cfg = cfg_of(
            "double q[10];\ndouble w[10];\nvoid main() {\n int j;\n #pragma acc kernels loop gang worker\n for (j = 0; j < 10; j++) { q[j] = w[j]; }\n}",
        );
        assert_eq!(cfg.regions.len(), 1);
        let k = cfg.regions[0].node;
        assert!(cfg.nodes[k].is_kernel());
        assert!(cfg.writes(k, Side::Gpu, "q"));
        assert!(cfg.reads(k, Side::Gpu, "w"));
        // Region interior statements are not separate host nodes.
        assert!((0..cfg.len())
            .filter(|&n| matches!(cfg.nodes[n].kind, NodeKind::Plain))
            .all(|n| !cfg.writes(n, Side::Host, "q")));
    }

    #[test]
    fn data_region_has_enter_and_exit() {
        let cfg = cfg_of(
            "double a[4];\nvoid main() {\n #pragma acc data create(a)\n {\n  a[0] = 1.0;\n }\n}",
        );
        assert_eq!(cfg.data_regions.len(), 1);
        let dr = &cfg.data_regions[0];
        assert!(matches!(
            cfg.nodes[dr.enter_node].kind,
            NodeKind::DataEnter(0)
        ));
        assert!(matches!(
            cfg.nodes[dr.exit_node].kind,
            NodeKind::DataExit(0)
        ));
        assert_ne!(dr.exit_node, usize::MAX);
    }

    #[test]
    fn update_node_access_direction() {
        let cfg =
            cfg_of("double b[4];\nvoid main() {\n #pragma acc update host(b)\n b[0] = 1.0;\n}");
        let un = (0..cfg.len())
            .find(|&n| matches!(cfg.nodes[n].kind, NodeKind::Update(_)))
            .expect("update node");
        assert!(cfg.total_writes(un, Side::Host, "b"));
        assert!(cfg.reads(un, Side::Gpu, "b"));
    }

    #[test]
    fn free_kills_pointer() {
        let cfg = cfg_of("double *p;\nvoid main() { free(p); }");
        let n = cfg.succ[cfg.entry][0];
        assert!(cfg.kills(n, Side::Host, "p"));
    }

    #[test]
    fn partial_vs_total_writes() {
        let cfg =
            cfg_of("double a[4];\ndouble *p;\ndouble *q2;\nvoid main() { a[0] = 1.0; p = q2; }");
        let n1 = cfg.succ[cfg.entry][0];
        assert!(cfg.writes(n1, Side::Host, "a"));
        assert!(!cfg.total_writes(n1, Side::Host, "a"));
        let n2 = cfg.succ[n1][0];
        assert!(cfg.total_writes(n2, Side::Host, "p"));
    }

    #[test]
    fn break_edges_leave_loop() {
        let cfg = cfg_of(
            "int n;\nvoid main() { int i; for (i = 0; i < 9; i++) { if (n == 1) { break; } n = n + 1; } n = 99; }",
        );
        // The final assignment must be reachable from entry.
        let mut reach = vec![false; cfg.len()];
        let mut stack = vec![cfg.entry];
        while let Some(n) = stack.pop() {
            if reach[n] {
                continue;
            }
            reach[n] = true;
            for &s in &cfg.succ[n] {
                stack.push(s);
            }
        }
        assert!(reach[cfg.exit]);
        let wrote99: Vec<usize> = (0..cfg.len())
            .filter(|&i| {
                cfg.writes(i, Side::Host, "n") && matches!(cfg.nodes[i].kind, NodeKind::Plain)
            })
            .collect();
        assert!(wrote99.iter().all(|&i| reach[i]));
    }

    #[test]
    fn loop_depth_recorded() {
        let cfg = cfg_of(
            "int a;\nvoid main() { int i; int j; a = 0; for (i=0;i<2;i++) { for (j=0;j<2;j++) { a = 1; } } }",
        );
        let depths: Vec<u32> = (0..cfg.len())
            .filter(|&n| cfg.writes(n, Side::Host, "a"))
            .map(|n| cfg.nodes[n].loop_depth)
            .collect();
        assert!(depths.contains(&0));
        assert!(depths.contains(&2));
    }

    #[test]
    fn kernel_inside_loop_detected() {
        let cfg = cfg_of(
            "double q[8];\ndouble w[8];\nvoid main() {\n int k; int j;\n for (k = 0; k < 4; k++) {\n  #pragma acc kernels loop gang\n  for (j = 0; j < 8; j++) { q[j] = w[j]; }\n }\n}",
        );
        assert_eq!(cfg.regions.len(), 1);
        assert_eq!(cfg.nodes[cfg.regions[0].node].loop_depth, 1);
    }
}
