//! One gen/kill worklist solver over fixed-width bitsets.
//!
//! Every analysis of this crate is a per-node transfer
//! `out = (in ∖ kill) ∪ gen` with ∅ at the boundary node, a direction and
//! a meet; [`solve`] is the only fixpoint loop.

use crate::cfg::Cfg;
use std::collections::VecDeque;

/// Which way facts flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Entry → exit.
    Forward,
    /// Exit → entry.
    Backward,
}

/// How facts of several neighbours combine. The optimistic ⊤ every
/// non-boundary node starts from is the meet's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Meet {
    /// May-analysis: ∪, ⊤ = ∅.
    Union,
    /// Must-analysis: ∩, ⊤ = every variable.
    Intersect,
}

/// Per-node `(gen, kill)` bitsets, [`Cfg::words`] words each.
#[derive(Debug, Clone)]
pub struct Masks {
    words: usize,
    bits: Vec<u64>,
}

impl Masks {
    /// Let `fill(n, gen, kill)` set the masks of every node, from all-zero.
    pub fn build(cfg: &Cfg, mut fill: impl FnMut(usize, &mut [u64], &mut [u64])) -> Masks {
        let words = cfg.words();
        let mut bits = vec![0; cfg.len() * 2 * words];
        // No variables, no chunks: `max(1)` only keeps the chunk size legal.
        for (n, pair) in bits.chunks_exact_mut((2 * words).max(1)).enumerate() {
            let (gen, kill) = pair.split_at_mut(words);
            fill(n, gen, kill);
        }
        Masks { words, bits }
    }

    fn gen_kill(&self, n: usize, k: usize) -> (u64, u64) {
        let at = n * 2 * self.words + k;
        (self.bits[at], self.bits[at + self.words])
    }
}

/// Fixpoint solution: `before(n)` is the fact at node entry, `after(n)` at
/// node exit (in control-flow order, regardless of analysis direction).
/// All facts of a solve sit in one arena.
#[derive(Debug, Clone)]
pub struct Solution {
    nodes: usize,
    words: usize,
    bits: Vec<u64>,
}

impl Solution {
    fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..(r + 1) * self.words]
    }

    /// Fact at entry to node `n`.
    pub fn before(&self, n: usize) -> &[u64] {
        self.row(n)
    }

    /// Fact at exit from node `n`.
    pub fn after(&self, n: usize) -> &[u64] {
        self.row(self.nodes + n)
    }
}

/// Every node, each after the successors a depth-first walk reaches from
/// it; nodes unreachable from entry follow in index order.
fn post_order(cfg: &Cfg) -> Vec<usize> {
    let mut order = Vec::with_capacity(cfg.len());
    let mut seen = vec![false; cfg.len()];
    let mut stack = Vec::new();
    for root in std::iter::once(cfg.entry).chain(0..cfg.len()) {
        if std::mem::replace(&mut seen[root], true) {
            continue;
        }
        stack.push((root, 0));
        while let Some((n, next)) = stack.last_mut() {
            if let Some(&s) = cfg.succ[*n].get(*next) {
                *next += 1;
                if !std::mem::replace(&mut seen[s], true) {
                    stack.push((s, 0));
                }
            } else {
                order.push(*n);
                stack.pop();
            }
        }
    }
    order
}

/// Iterate to the fixpoint of `fact(n) = transfer(n, ⊓ facts flowing in)`.
///
/// Every node but the boundary (exit for backward problems, entry for
/// forward ones) starts at ⊤ and is visited at least once, so a node
/// nothing flows into — dead code after `return`, a loop with no way out —
/// keeps ⊤ on that side. The boundary node receives ∅, is transferred once
/// and never revisited.
pub fn solve(cfg: &Cfg, dir: Direction, meet: Meet, masks: &Masks) -> Solution {
    let (nodes, words) = (cfg.len(), cfg.words());
    // Word `k` of ⊤, kept inside the universe: no id past the last variable.
    let top = |k: usize| match meet {
        Meet::Union => 0,
        Meet::Intersect if k + 1 == words => !0 >> (words * 64 - cfg.vars().len()),
        Meet::Intersect => !0u64,
    };
    let mut bits: Vec<u64> = (0..2 * nodes * words).map(|i| top(i % words)).collect();
    // `inp(n)` is where the meet lands, `out(n)` what neighbours read.
    let (boundary, flows_in, flows_out, inp, out) = match dir {
        Direction::Backward => (cfg.exit, &cfg.succ, &cfg.pred, nodes, 0),
        Direction::Forward => (cfg.entry, &cfg.pred, &cfg.succ, 0, nodes),
    };
    for k in 0..words {
        bits[(inp + boundary) * words + k] = 0;
        bits[(out + boundary) * words + k] = masks.gen_kill(boundary, k).0;
    }
    let mut order = post_order(cfg);
    if dir == Direction::Forward {
        order.reverse();
    }
    let mut queued = vec![true; nodes];
    queued[boundary] = false;
    let mut work: VecDeque<usize> = order.into_iter().filter(|&n| n != boundary).collect();
    let edges: usize = cfg.succ.iter().map(Vec::len).sum();
    let bound = (nodes + edges) * (cfg.vars().len() + 1);
    let mut pops = 0usize;
    while let Some(n) = work.pop_front() {
        queued[n] = false;
        pops += 1;
        // A node is re-queued only when a fact flowing into it moved, and a
        // fact moves one way only: at most once per variable.
        debug_assert!(pops <= bound, "worklist exceeded its lattice-height bound");
        let mut moved = false;
        for k in 0..words {
            let mut sources = flows_in[n].iter().map(|&m| bits[(out + m) * words + k]);
            let met = match sources.next() {
                None => top(k),
                Some(first) => match meet {
                    Meet::Union => sources.fold(first, |a, b| a | b),
                    Meet::Intersect => sources.fold(first, |a, b| a & b),
                },
            };
            let (gen, kill) = masks.gen_kill(n, k);
            let new = (met & !kill) | gen;
            bits[(inp + n) * words + k] = met;
            moved |= std::mem::replace(&mut bits[(out + n) * words + k], new) != new;
        }
        if moved {
            for &m in &flows_out[n] {
                if m != boundary && !std::mem::replace(&mut queued[m], true) {
                    work.push_back(m);
                }
            }
        }
    }
    Solution { nodes, words, bits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{ones, Cfg, Side};
    use openarc_minic::parse;

    fn cfg_of(src: &str) -> Cfg {
        let p = parse(src).unwrap();
        Cfg::build(p.func("main").unwrap()).unwrap()
    }

    /// Host writes as `gen`, nothing killed.
    fn writes(cfg: &Cfg, dir: Direction, meet: Meet) -> Solution {
        let masks = Masks::build(cfg, |n, gen, _| {
            gen.copy_from_slice(cfg.summary(n, Side::Host).writes);
        });
        solve(cfg, dir, meet, &masks)
    }

    /// Classic reaching-writes (forward, union) to exercise the solver.
    fn reaching_writes(cfg: &Cfg) -> Solution {
        writes(cfg, Direction::Forward, Meet::Union)
    }

    /// "Every path from here writes it" (backward, intersect).
    fn must_write(cfg: &Cfg) -> Solution {
        writes(cfg, Direction::Backward, Meet::Intersect)
    }

    #[test]
    fn forward_union_reaches_through_branches() {
        let cfg = cfg_of(
            "int a;\nint b;\nint c;\nvoid main() { if (c) { a = 1; } else { b = 2; } c = 3; }",
        );
        let sol = reaching_writes(&cfg);
        let at_exit = sol.before(cfg.exit);
        assert!(cfg.named(at_exit, "a"));
        assert!(cfg.named(at_exit, "b"));
        assert!(cfg.named(at_exit, "c"));
    }

    #[test]
    fn loop_fixpoint_converges() {
        let cfg = cfg_of("int a;\nvoid main() { int i; for (i = 0; i < 4; i++) { a = i; } }");
        let sol = reaching_writes(&cfg);
        assert!(cfg.named(sol.before(cfg.exit), "a"));
        assert!(cfg.named(sol.before(cfg.exit), "i"));
    }

    #[test]
    fn more_than_one_word_of_variables() {
        let decls: String = (0..70).map(|i| format!("int v{i:02};\n")).collect();
        let body: String = (0..70).map(|i| format!(" v{i:02} = {i};")).collect();
        let cfg = cfg_of(&format!("{decls}void main() {{{body} }}"));
        assert_eq!((cfg.vars().len(), cfg.words()), (70, 2));
        let all: Vec<u32> = (0..70).collect();
        let sol = reaching_writes(&cfg);
        assert_eq!(
            ones(sol.before(cfg.exit).iter().copied()).collect::<Vec<_>>(),
            all
        );
        // ⊤ of the must-analysis stops at the last variable.
        let sol = must_write(&cfg);
        assert_eq!(
            ones(sol.before(cfg.entry).iter().copied()).collect::<Vec<_>>(),
            all
        );
        assert_eq!(cfg.var("v69"), Some(69));
    }

    #[test]
    fn function_without_variables() {
        let cfg = cfg_of("void main() { }");
        assert_eq!((cfg.vars().len(), cfg.words()), (0, 0));
        for sol in [reaching_writes(&cfg), must_write(&cfg)] {
            assert!(sol.before(cfg.entry).is_empty());
            assert!(sol.after(cfg.exit).is_empty());
        }
    }

    #[test]
    fn kernel_only_body() {
        let cfg = cfg_of(
            "double q[4];\nint j;\nvoid main() {\n #pragma acc kernels loop gang\n for (j = 0; j < 4; j++) { q[j] = 1.0; }\n}",
        );
        assert_eq!(cfg.len(), 3);
        // The kernel's writes are GPU-side: nothing reaches on the host.
        let sol = reaching_writes(&cfg);
        assert_eq!(ones(sol.before(cfg.exit).iter().copied()).count(), 0);
    }

    #[test]
    fn code_after_return_keeps_top_where_nothing_flows_in() {
        let cfg = cfg_of("int a;\nint b;\nvoid main() { a = 1; return; b = 2; }");
        let dead = (0..cfg.len())
            .find(|&n| cfg.pred[n].is_empty() && n != cfg.entry)
            .expect("continuation after return");
        // Forward: nothing flows into the continuation, ∪-⊤ is ∅.
        let sol = reaching_writes(&cfg);
        assert!(!cfg.named(sol.before(dead), "a"));
        assert!(cfg.named(sol.before(cfg.exit), "b"));
        // Backward it has a successor like any other node.
        let sol = must_write(&cfg);
        assert!(cfg.named(sol.before(dead), "b"));
        assert!(!cfg.named(sol.before(cfg.entry), "b"));
    }

    #[test]
    fn endless_loop_terminates() {
        let cfg = cfg_of("int a;\nvoid main() { while (1) { } a = 1; }");
        assert!(cfg.named(reaching_writes(&cfg).before(cfg.exit), "a"));
        assert!(cfg.named(must_write(&cfg).before(cfg.entry), "a"));
        // A node with no way out at all keeps ⊤ on its out side.
        let mut stuck = cfg.clone();
        let head = stuck.succ[stuck.entry][0];
        stuck.succ[head].clear();
        stuck.pred.iter_mut().for_each(|p| p.retain(|&n| n != head));
        let sol = must_write(&stuck);
        assert!(stuck.named(sol.after(head), "a"));
    }
}
