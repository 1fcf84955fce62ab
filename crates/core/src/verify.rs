//! Kernel verification front-end (§III-A).
//!
//! The semantic side of verification lives in the executor
//! ([`crate::exec::ExecMode::Verify`]). This module adds:
//!
//! * [`demote_source`] — the **memory-transfer demotion** source-to-source
//!   pass, reproducing the paper's Listing 2: data clauses of enclosing
//!   `data` regions move onto the target compute construct with adjusted
//!   transfer types (`copyin` for read-only data, `copy` otherwise), the
//!   construct becomes `async`, a matching `wait` is inserted, and all
//!   directives unrelated to the target kernel are removed.
//! * [`VerificationReport`] — per-kernel verdicts plus the Figure-3 time
//!   breakdown, as produced by [`crate::pipeline::Session::verify`].
//!
//! The executor runs each verified launch in three phases on the calling
//! thread (staged demotion copies, device run then CPU reference,
//! comparison — see `DESIGN.md` §12); the overlap of device and reference
//! is an effect on the simulated clock only.

use crate::exec::KernelVerification;
use openarc_gpusim::{RaceReport, TimeBreakdown};
use openarc_minic::ast::*;
use openarc_minic::span::Diagnostic;
use openarc_openacc::{directives_of, DataClause, DataClauseKind, DataItem, Directive};
use std::collections::BTreeSet;

/// Identify compute-region statements in document order (kernel index i
/// corresponds to the i-th compute construct, matching the translator).
fn is_compute_stmt(s: &Stmt) -> bool {
    directives_of(s)
        .map(|ds| ds.iter().any(|(d, _)| matches!(d, Directive::Compute(_))))
        .unwrap_or(false)
}

/// Apply memory-transfer demotion to `program` for the kernels whose
/// zero-based compute-construct indices are in `targets`. Returns the
/// transformed program (print it with `openarc_minic::print_program` for
/// Listing-2 style output).
///
/// ```
/// use openarc_core::verify::demote_source;
/// let src = "double q[8];\ndouble w[8];\nvoid main() {\n int j;\n #pragma acc data create(q, w)\n {\n  #pragma acc kernels loop gang\n  for (j = 0; j < 8; j++) { q[j] = w[j]; }\n }\n}";
/// let (program, _) = openarc_minic::frontend(src).unwrap();
/// let demoted = demote_source(&program, &std::iter::once(0).collect(), 1).unwrap();
/// let text = openarc_minic::print_program(&demoted);
/// assert!(text.contains("async(1)"));
/// assert!(text.contains("copy(q)"));
/// assert!(!text.contains("acc data"));
/// ```
pub fn demote_source(
    program: &Program,
    targets: &BTreeSet<usize>,
    queue: i64,
) -> Result<Program, Diagnostic> {
    let mut out = program.clone();
    let mut counter = 0usize;
    for item in &mut out.items {
        if let Item::Func(f) = item {
            let body = std::mem::take(&mut f.body);
            f.body = demote_block(body, targets, queue, &mut counter, &[])?;
        }
    }
    Ok(out)
}

fn demote_block(
    b: Block,
    targets: &BTreeSet<usize>,
    queue: i64,
    counter: &mut usize,
    enclosing: &[DataClause],
) -> Result<Block, Diagnostic> {
    let mut out = Vec::new();
    for s in b.stmts {
        demote_stmt(s, targets, queue, counter, enclosing, &mut out)?;
    }
    Ok(Block { stmts: out })
}

fn demote_stmt(
    mut s: Stmt,
    targets: &BTreeSet<usize>,
    queue: i64,
    counter: &mut usize,
    enclosing: &[DataClause],
    out: &mut Vec<Stmt>,
) -> Result<(), Diagnostic> {
    // Data region: remember its clauses, drop the directive, keep the block.
    let dirs = directives_of(&s)?;
    if let Some((Directive::Data(d), _)) =
        dirs.iter().find(|(d, _)| matches!(d, Directive::Data(_)))
    {
        let mut clauses = enclosing.to_vec();
        clauses.extend(d.clauses.clone());
        s.pragmas.clear();
        match s.kind {
            StmtKind::Block(inner) => {
                // Flatten: the region's scope no longer matters once its
                // clauses are demoted.
                let demoted = demote_block(inner, targets, queue, counter, &clauses)?;
                out.push(Stmt {
                    id: s.id,
                    span: s.span,
                    pragmas: Vec::new(),
                    kind: StmtKind::Block(demoted),
                });
            }
            other => {
                let blk = Block {
                    stmts: vec![Stmt {
                        id: s.id,
                        span: s.span,
                        pragmas: Vec::new(),
                        kind: other,
                    }],
                };
                let demoted = demote_block(blk, targets, queue, counter, &clauses)?;
                out.push(Stmt {
                    id: s.id,
                    span: s.span,
                    pragmas: Vec::new(),
                    kind: StmtKind::Block(demoted),
                });
            }
        }
        return Ok(());
    }
    if is_compute_stmt(&s) {
        let idx = *counter;
        *counter += 1;
        if targets.contains(&idx) {
            // Rewrite the compute directive: demoted clauses + async.
            let dirs = directives_of(&s)?;
            let mut spec = dirs
                .iter()
                .find_map(|(d, _)| d.as_compute().cloned())
                .expect("checked compute above");
            let span = s.span;
            // Variables accessed by the region: read-only → copyin,
            // written → copy.
            let (reads, writes) = region_var_sets(&s);
            spec.data.clear();
            let mut copy_items: Vec<DataItem> = Vec::new();
            let mut copyin_items: Vec<DataItem> = Vec::new();
            for v in writes.iter() {
                copy_items.push(DataItem::new(v.clone()));
            }
            for v in reads.iter().filter(|v| !writes.contains(*v)) {
                copyin_items.push(DataItem::new(v.clone()));
            }
            // Restrict to variables the enclosing regions or defaults would
            // have managed — demotion moves every accessed aggregate.
            if !copy_items.is_empty() {
                spec.data.push(DataClause {
                    kind: DataClauseKind::Copy,
                    items: copy_items,
                });
            }
            if !copyin_items.is_empty() {
                spec.data.push(DataClause {
                    kind: DataClauseKind::CopyIn,
                    items: copyin_items,
                });
            }
            spec.async_queue = Some(queue);
            let _ = enclosing; // clauses are subsumed by the full demotion
            s.pragmas = vec![Pragma {
                text: Directive::Compute(spec).to_string(),
                span,
            }];
            out.push(s.clone());
            // `// Sequential CPU version will be added.` (Listing 2 line 9)
            // is synthesized by the executor; here we add the wait and the
            // comparison anchor as in Listing 2 lines 10–11.
            out.push(Stmt {
                id: s.id,
                span,
                pragmas: vec![Pragma {
                    text: format!("acc wait({queue})"),
                    span,
                }],
                kind: StmtKind::Block(Block::default()),
            });
        } else {
            // Unrelated kernel: strip all directives so it runs on the CPU.
            s.pragmas.clear();
            out.push(recurse_plain(s, targets, queue, counter, enclosing)?);
        }
        return Ok(());
    }
    // Other executable directives (update/wait) are removed entirely.
    if !s.pragmas.is_empty() {
        s.pragmas.clear();
        if matches!(&s.kind, StmtKind::Block(b) if b.stmts.is_empty()) {
            return Ok(()); // standalone directive disappears
        }
    }
    out.push(recurse_plain(s, targets, queue, counter, enclosing)?);
    Ok(())
}

fn recurse_plain(
    s: Stmt,
    targets: &BTreeSet<usize>,
    queue: i64,
    counter: &mut usize,
    enclosing: &[DataClause],
) -> Result<Stmt, Diagnostic> {
    let kind = match s.kind {
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => StmtKind::If {
            cond,
            then_blk: demote_block(then_blk, targets, queue, counter, enclosing)?,
            else_blk: match else_blk {
                Some(e) => Some(demote_block(e, targets, queue, counter, enclosing)?),
                None => None,
            },
        },
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => StmtKind::For {
            init,
            cond,
            step,
            body: demote_block(body, targets, queue, counter, enclosing)?,
        },
        StmtKind::While { cond, body } => StmtKind::While {
            cond,
            body: demote_block(body, targets, queue, counter, enclosing)?,
        },
        StmtKind::Block(b) => StmtKind::Block(demote_block(b, targets, queue, counter, enclosing)?),
        other => other,
    };
    Ok(Stmt {
        id: s.id,
        span: s.span,
        pragmas: s.pragmas,
        kind,
    })
}

/// Aggregate variables read / written inside a compute region (syntactic).
fn region_var_sets(s: &Stmt) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    walk_stmt(s, &mut |inner| match &inner.kind {
        StmtKind::Assign { target, value, .. } => {
            match target {
                LValue::Index { base, indices } => {
                    writes.insert(base.clone());
                    for ix in indices {
                        for r in ix.reads() {
                            reads.insert(r);
                        }
                    }
                }
                LValue::Var(_) => {}
            }
            for r in value.reads() {
                reads.insert(r);
            }
        }
        StmtKind::Expr(e) | StmtKind::Return(Some(e)) => {
            for r in e.reads() {
                reads.insert(r);
            }
        }
        StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => {
            for r in cond.reads() {
                reads.insert(r);
            }
        }
        StmtKind::For { cond: Some(c), .. } => {
            for r in c.reads() {
                reads.insert(r);
            }
        }
        _ => {}
    });
    // Keep only names that look like aggregates (indexed).
    let indexed: BTreeSet<String> = {
        let mut ix = BTreeSet::new();
        walk_stmt(s, &mut |inner| {
            collect_indexed(inner, &mut ix);
        });
        ix
    };
    (
        reads.intersection(&indexed).cloned().collect(),
        writes.intersection(&indexed).cloned().collect(),
    )
}

fn collect_indexed(s: &Stmt, out: &mut BTreeSet<String>) {
    fn on_expr(e: &Expr, out: &mut BTreeSet<String>) {
        e.walk(&mut |x| {
            if let ExprKind::Index { base, .. } = &x.kind {
                out.insert(base.clone());
            }
        })
    }
    match &s.kind {
        StmtKind::Assign { target, value, .. } => {
            if let LValue::Index { base, indices } = target {
                out.insert(base.clone());
                for ix in indices {
                    on_expr(ix, out);
                }
            }
            on_expr(value, out);
        }
        StmtKind::Expr(e) | StmtKind::Return(Some(e)) => on_expr(e, out),
        StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => on_expr(cond, out),
        StmtKind::For { cond: Some(c), .. } => on_expr(c, out),
        _ => {}
    }
}

/// Result of a full verification run.
#[derive(Debug)]
pub struct VerificationReport {
    /// Per-kernel verdicts.
    pub kernels: Vec<KernelVerification>,
    /// Simulated time breakdown (Figure 3's bars).
    pub breakdown: TimeBreakdown,
    /// Simulated time of a pure sequential CPU run (Figure 3's baseline).
    pub cpu_baseline_us: f64,
    /// Races seen by the device oracle (ground truth for latent errors).
    pub races: Vec<(String, RaceReport)>,
}

impl VerificationReport {
    /// Kernels flagged by output comparison (active errors).
    pub fn flagged(&self) -> Vec<&KernelVerification> {
        self.kernels.iter().filter(|k| k.flagged()).collect()
    }

    /// Total verification time normalized to the CPU baseline.
    pub fn normalized_time(&self) -> f64 {
        if self.cpu_baseline_us <= 0.0 {
            return 0.0;
        }
        self.breakdown.total() / self.cpu_baseline_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::VerifyOptions;
    use crate::pipeline::Session;
    use crate::translate::TranslateOptions;
    use openarc_minic::{frontend, print_program};

    /// The paper's Listing 1 (CG excerpt), reduced.
    const LISTING1: &str = "double q[32];\ndouble w[32];\nint niter;\nvoid main() {\n int it; int j;\n niter = 3;\n #pragma acc data create(q, w)\n {\n  for (it = 1; it <= niter; it++) {\n   #pragma acc kernels loop gang worker\n   for (j = 0; j < 32; j++) { q[j] = w[j]; }\n  }\n }\n}";

    #[test]
    fn demotion_reproduces_listing2_shape() {
        let (p, _) = frontend(LISTING1).unwrap();
        let demoted = demote_source(&p, &std::iter::once(0).collect(), 1).unwrap();
        let text = print_program(&demoted);
        // Data clauses moved onto the kernel with adjusted transfer types,
        // async added, wait inserted, data directive gone (Listing 2).
        assert!(
            text.contains("acc kernels loop async(1) gang worker copy(q) copyin(w)"),
            "{text}"
        );
        assert!(text.contains("acc wait(1)"), "{text}");
        assert!(!text.contains("acc data"), "{text}");
    }

    #[test]
    fn demotion_strips_unrelated_kernels() {
        let src = "double a[8];\ndouble b[8];\nvoid main() {\n int j;\n #pragma acc kernels loop gang\n for (j = 0; j < 8; j++) { a[j] = 1.0; }\n #pragma acc kernels loop gang\n for (j = 0; j < 8; j++) { b[j] = 2.0; }\n}";
        let (p, _) = frontend(src).unwrap();
        let demoted = demote_source(&p, &std::iter::once(1).collect(), 1).unwrap();
        let text = print_program(&demoted);
        // Kernel 0 lost its pragma; kernel 1 kept (demoted) one.
        let n_pragmas = text.matches("#pragma acc kernels").count();
        assert_eq!(n_pragmas, 1, "{text}");
        assert!(text.contains("copy(b)"), "{text}");
    }

    #[test]
    fn demotion_removes_update_directives() {
        let src = "double a[8];\nvoid main() {\n int j;\n #pragma acc update host(a)\n #pragma acc kernels loop gang\n for (j = 0; j < 8; j++) { a[j] = 1.0; }\n}";
        let (p, _) = frontend(src).unwrap();
        let demoted = demote_source(&p, &std::iter::once(0).collect(), 1).unwrap();
        let text = print_program(&demoted);
        assert!(!text.contains("acc update"), "{text}");
    }

    #[test]
    fn verify_kernels_end_to_end_clean() {
        let session = Session::builder().build();
        let fe = session.frontend(LISTING1).unwrap();
        let (_, report) = session
            .verify(&fe, &TranslateOptions::default(), VerifyOptions::default())
            .unwrap();
        assert_eq!(report.kernels.len(), 1);
        assert!(report.flagged().is_empty());
        assert_eq!(report.kernels[0].launches, 3, "verified on every iteration");
        assert!(report.cpu_baseline_us > 0.0);
        assert!(
            report.normalized_time() > 1.0,
            "verification costs more than plain CPU"
        );
    }

    #[test]
    fn verify_kernels_flags_injected_race() {
        let src = "double a[64];\ndouble t;\nvoid main() {\n int j;\n #pragma acc kernels loop gang private(t)\n for (j = 0; j < 64; j++) { t = (double) j; a[j] = t + 1.0; }\n}";
        let (p, s) = frontend(src).unwrap();
        // Strip the private clause and disable recognition (the paper's
        // fault-injection protocol).
        let (stripped, stats) = crate::faults::strip_privatization(&p).unwrap();
        assert_eq!(stats.private_removed, 1);
        let topts = TranslateOptions {
            auto_privatize: false,
            auto_reduction: false,
            ..Default::default()
        };
        let session = Session::builder().build();
        let fe = session.frontend_program(stripped, s);
        let (_, report) = session
            .verify(&fe, &topts, VerifyOptions::default())
            .unwrap();
        assert_eq!(report.flagged().len(), 1);
        assert!(!report.races.is_empty());
    }
}
