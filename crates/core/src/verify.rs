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
use crate::ir::KernelInfo;
use openarc_gpusim::{RaceReport, TimeBreakdown};
use openarc_minic::ast::*;
use openarc_minic::span::Diagnostic;
use openarc_openacc::{directives_of, DataClause, DataClauseKind, DataItem, Directive};

/// Apply memory-transfer demotion to `program` for `kernel`, an entry of
/// the program's own translation (`Translated::kernels`). The construct
/// at `kernel.stmt` gets `copy` of what the kernel writes and `copyin`
/// of what it only reads (`gpu_writes`, `gpu_reads`): the sets the
/// verified launch stages. Returns the transformed program (print it
/// with `openarc_minic::print_program` for Listing-2 style output).
///
/// ```
/// use openarc_core::translate::{translate, TranslateOptions};
/// use openarc_core::verify::demote_source;
/// let src = "double q[8];\ndouble w[8];\nvoid main() {\n int j;\n #pragma acc data create(q, w)\n {\n  #pragma acc kernels loop gang\n  for (j = 0; j < 8; j++) { q[j] = w[j]; }\n }\n}";
/// let (program, sema) = openarc_minic::frontend(src).unwrap();
/// let tr = translate(&program, &sema, &TranslateOptions::default()).unwrap();
/// let demoted = demote_source(&program, &tr.kernels[0], 1).unwrap();
/// let text = openarc_minic::print_program(&demoted);
/// assert!(text.contains("async(1)"));
/// assert!(text.contains("copy(q) copyin(w)"));
/// assert!(!text.contains("acc data"));
/// ```
pub fn demote_source(
    program: &Program,
    kernel: &KernelInfo,
    queue: i64,
) -> Result<Program, Diagnostic> {
    let mut out = program.clone();
    for item in &mut out.items {
        if let Item::Func(f) = item {
            let body = std::mem::take(&mut f.body);
            f.body = demote_block(body, kernel, queue)?;
        }
    }
    Ok(out)
}

fn demote_block(b: Block, kernel: &KernelInfo, queue: i64) -> Result<Block, Diagnostic> {
    let mut out = Vec::new();
    for s in b.stmts {
        demote_stmt(s, kernel, queue, &mut out)?;
    }
    Ok(Block { stmts: out })
}

fn demote_stmt(
    mut s: Stmt,
    kernel: &KernelInfo,
    queue: i64,
    out: &mut Vec<Stmt>,
) -> Result<(), Diagnostic> {
    let dirs = directives_of(&s)?;
    let span = s.span;
    if s.id == kernel.stmt {
        // Rewrite the compute directive: demoted clauses + async.
        let Some(mut spec) = dirs.iter().find_map(|(d, _)| d.as_compute().cloned()) else {
            let msg = format!("kernel {} is not a compute construct here", kernel.name);
            return Err(Diagnostic::error(msg, span));
        };
        let item = |v: &String| DataItem::new(v.clone());
        let copy: Vec<_> = kernel.gpu_writes.iter().map(item).collect();
        let copyin: Vec<_> = (kernel.gpu_reads.iter())
            .filter(|v| !kernel.gpu_writes.contains(v))
            .map(item)
            .collect();
        spec.data.clear();
        for (kind, items) in [
            (DataClauseKind::Copy, copy),
            (DataClauseKind::CopyIn, copyin),
        ] {
            if !items.is_empty() {
                spec.data.push(DataClause { kind, items });
            }
        }
        spec.async_queue = Some(queue);
        s.pragmas = vec![Pragma {
            text: Directive::Compute(spec).to_string(),
            span,
        }];
        let id = s.id;
        out.push(s);
        // `// Sequential CPU version will be added.` (Listing 2 line 9)
        // is synthesized by the executor; here we add the wait and the
        // comparison anchor as in Listing 2 lines 10–11.
        out.push(Stmt {
            id,
            span,
            pragmas: vec![Pragma {
                text: format!("acc wait({queue})"),
                span,
            }],
            kind: StmtKind::Block(Block::default()),
        });
        return Ok(());
    }
    let data = dirs.iter().any(|(d, _)| matches!(d, Directive::Data(_)));
    let had_pragmas = !s.pragmas.is_empty();
    // Every other directive goes: the target alone moves data.
    s.pragmas.clear();
    if data {
        // Flatten a data region into a plain block: its clauses are
        // subsumed by the demotion.
        let inner = match s.kind {
            StmtKind::Block(inner) => inner,
            other => Block {
                stmts: vec![Stmt {
                    id: s.id,
                    span,
                    pragmas: Vec::new(),
                    kind: other,
                }],
            },
        };
        s.kind = StmtKind::Block(demote_block(inner, kernel, queue)?);
        out.push(s);
        return Ok(());
    }
    if had_pragmas && matches!(&s.kind, StmtKind::Block(b) if b.stmts.is_empty()) {
        return Ok(()); // a standalone directive disappears
    }
    out.push(recurse_plain(s, kernel, queue)?);
    Ok(())
}

fn recurse_plain(s: Stmt, kernel: &KernelInfo, queue: i64) -> Result<Stmt, Diagnostic> {
    let kind = match s.kind {
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => StmtKind::If {
            cond,
            then_blk: demote_block(then_blk, kernel, queue)?,
            else_blk: match else_blk {
                Some(e) => Some(demote_block(e, kernel, queue)?),
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
            body: demote_block(body, kernel, queue)?,
        },
        StmtKind::While { cond, body } => StmtKind::While {
            cond,
            body: demote_block(body, kernel, queue)?,
        },
        StmtKind::Block(b) => StmtKind::Block(demote_block(b, kernel, queue)?),
        other => other,
    };
    Ok(Stmt { kind, ..s })
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

    /// `src` demoted for its kernel `k`.
    fn demoted(src: &str, k: usize) -> String {
        let (p, sema) = frontend(src).unwrap();
        let tr = crate::translate::translate(&p, &sema, &TranslateOptions::default()).unwrap();
        print_program(&demote_source(&p, &tr.kernels[k], 1).unwrap())
    }

    #[test]
    fn demotion_reproduces_listing2_shape() {
        let text = demoted(LISTING1, 0);
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
        let text = demoted(src, 1);
        // Kernel 0 lost its pragma; kernel 1 kept (demoted) one.
        let n_pragmas = text.matches("#pragma acc kernels").count();
        assert_eq!(n_pragmas, 1, "{text}");
        assert!(text.contains("copy(b)"), "{text}");
    }

    #[test]
    fn demotion_removes_update_directives() {
        let src = "double a[8];\nvoid main() {\n int j;\n #pragma acc update host(a)\n #pragma acc kernels loop gang\n for (j = 0; j < 8; j++) { a[j] = 1.0; }\n}";
        let text = demoted(src, 0);
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
