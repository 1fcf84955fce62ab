//! The interactive memory-transfer optimization loop (§III-B, Figure 2,
//! Table 3).
//!
//! Models the paper's programmer-compiler-runtime iteration:
//!
//! 1. run the instrumented program (offline profiling);
//! 2. the tool reports redundant / may-redundant / missing / incorrect
//!    transfers;
//! 3. the *programmer model* applies the suggestions as edits
//!    ([`crate::exec::TransferOverlay`]): in-loop redundant transfers are
//!    deferred past the loop (the Listing 4 action), others are removed;
//! 4. the next run verifies: new missing/incorrect findings — or a wrong
//!    program output, which kernel verification would expose — mean the
//!    previous suggestion was false (the aliasing cases of Table 3); the
//!    edit is reverted and pinned, and the extra round is counted as an
//!    **incorrect iteration**;
//! 5. repeat until no further suggestion survives.

use crate::compare;
use crate::exec::{ExecOptions, RunResult, TransferKey, TransferOverlay};
use crate::pipeline::Session;
use crate::translate::Translated;
use openarc_runtime::{Direction, IssueKind};
use std::collections::BTreeSet;

/// What program outputs must match the sequential reference.
#[derive(Debug, Clone, Default)]
pub struct OutputSpec {
    /// Global arrays compared element-wise.
    pub arrays: Vec<String>,
    /// Global scalars compared.
    pub scalars: Vec<String>,
    /// Comparison tolerance (absolute + relative).
    pub tol: f64,
}

impl OutputSpec {
    /// Spec over the given arrays with a default tolerance.
    pub fn arrays(names: &[&str]) -> OutputSpec {
        OutputSpec {
            arrays: names.iter().map(|s| s.to_string()).collect(),
            scalars: Vec::new(),
            tol: 1e-6,
        }
    }

    /// Add scalars to the spec.
    pub fn with_scalars(mut self, names: &[&str]) -> OutputSpec {
        self.scalars.extend(names.iter().map(|s| s.to_string()));
        self
    }
}

/// Reference outputs captured from a sequential run.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    arrays: Vec<(String, Vec<f64>)>,
    scalars: Vec<(String, f64)>,
}

/// Capture reference outputs from a run result.
pub fn capture_outputs(tr: &Translated, r: &RunResult, spec: &OutputSpec) -> Reference {
    Reference {
        arrays: spec
            .arrays
            .iter()
            .filter_map(|n| r.global_array(tr, n).map(|v| (n.clone(), v)))
            .collect(),
        scalars: spec
            .scalars
            .iter()
            .filter_map(|n| r.global_scalar(tr, n).map(|v| (n.clone(), v.as_f64())))
            .collect(),
    }
}

/// Compare a run's outputs against the reference, each value under
/// [`compare::within`] with `tol` as both margins.
pub fn outputs_match(tr: &Translated, r: &RunResult, reference: &Reference, tol: f64) -> bool {
    for (name, expect) in &reference.arrays {
        let Some(got) = r.global_array(tr, name) else {
            return false;
        };
        if got.len() != expect.len() {
            return false;
        }
        for (g, e) in got.iter().zip(expect) {
            if !compare::within(*e, *g, tol, tol) {
                return false;
            }
        }
    }
    for (name, expect) in &reference.scalars {
        let Some(got) = r.global_scalar(tr, name) else {
            return false;
        };
        if !compare::within(*expect, got.as_f64(), tol, tol) {
            return false;
        }
    }
    true
}

/// One round of the interactive loop.
#[derive(Debug, Clone)]
pub struct IterationLog {
    /// 1-based iteration number.
    pub index: usize,
    /// Suggestions applied this round (human-readable).
    pub applied: Vec<String>,
    /// Edits reverted this round because the previous round broke the
    /// program (false suggestions).
    pub reverted: Vec<String>,
    /// Missing/incorrect findings observed this round.
    pub errors: usize,
    /// Whether the program's outputs matched the reference this round.
    pub output_ok: bool,
}

/// Outcome of the interactive optimization (one Table 3 row).
#[derive(Debug)]
pub struct InteractiveOutcome {
    /// Total verification iterations run.
    pub iterations: usize,
    /// Iterations spent on false suggestions (reverts).
    pub incorrect_iterations: usize,
    /// Final edits.
    pub overlay: TransferOverlay,
    /// Final-run transfer statistics.
    pub final_stats: openarc_runtime::TransferStats,
    /// Whether the loop converged with correct outputs.
    pub converged: bool,
    /// Per-iteration log.
    pub log: Vec<IterationLog>,
}

/// Drive the interactive loop to a fixpoint against a pipeline
/// [`Session`].
///
/// ```
/// use openarc_core::exec::ExecOptions;
/// use openarc_core::interactive::{optimize_transfers_in_session, OutputSpec};
/// use openarc_core::pipeline::Session;
/// use openarc_core::translate::TranslateOptions;
/// // A per-iteration copyout that only matters after the loop (Listing 4).
/// let src = "double a[16];\ndouble b[16];\ndouble out;\nvoid main() {\n int k; int j;\n for (j = 0; j < 16; j++) { a[j] = 1.0; }\n #pragma acc data copyin(a) create(b)\n {\n  for (k = 0; k < 3; k++) {\n   #pragma acc kernels loop gang\n   for (j = 0; j < 16; j++) { b[j] = a[j] + (double) k; }\n   #pragma acc update host(b)\n  }\n }\n out = b[0];\n}";
/// let (program, sema) = openarc_minic::frontend(src).unwrap();
/// let topts = TranslateOptions { instrument: true, ..Default::default() };
/// let out = optimize_transfers_in_session(
///     &Session::builder().build(),
///     &program, &sema, &topts,
///     &OutputSpec::arrays(&["b"]).with_scalars(&["out"]),
///     &ExecOptions { race_detect: false, ..Default::default() },
///     10,
/// ).unwrap();
/// assert!(out.converged);
/// assert!(!out.overlay.defer.is_empty()); // the copyout moved past the loop
/// ```
///
/// Each round re-translates the program with the user's accumulated edits
/// visible to the instrumentation pass — the paper's workflow recompiles
/// the modified directive program on every iteration, which is what lets
/// a removal in round N expose a hoisting (and therefore a new suggestion)
/// in round N+1.
///
/// Every round's recompilation and run goes through the session's staged
/// caches, so rounds that revisit an earlier edit set (reverts) — and
/// repeats of the whole loop inside a batch driver — are served from the
/// cache. Both the translate-options fingerprint (which covers
/// `ignored_update_stmts`) and the exec-options fingerprint (which covers
/// the overlay) distinguish rounds, so a hit is always semantically
/// identical to a fresh compile-and-run.
pub fn optimize_transfers_in_session(
    session: &Session,
    program: &openarc_minic::Program,
    sema: &openarc_minic::Sema,
    topts: &crate::translate::TranslateOptions,
    spec: &OutputSpec,
    base_opts: &ExecOptions,
    max_iterations: usize,
) -> Result<InteractiveOutcome, String> {
    let mut topts = topts.clone();
    topts.instrument = true;
    let fe = session.frontend_program(program.clone(), sema.clone());
    let tr0a = session
        .translate(&fe, &topts)
        .map_err(|e| format!("translate: {e:?}"))?;
    let tr0 = &tr0a.tr;
    // Reference outputs from a sequential run.
    let seq = session
        .execute(
            &tr0a,
            &ExecOptions {
                mode: crate::exec::ExecMode::CpuOnly,
                ..base_opts.clone()
            },
        )
        .map_err(|e| e.to_string())?;
    let reference = capture_outputs(tr0, &seq, spec);

    let mut overlay = base_opts.overlay.clone();
    let mut pinned: BTreeSet<TransferKey> = BTreeSet::new();
    let mut last_applied: Vec<(TransferKey, IssueKind)> = Vec::new();
    let mut log: Vec<IterationLog> = Vec::new();
    let mut incorrect = 0usize;
    let mut converged = false;
    let mut final_stats = openarc_runtime::TransferStats::default();

    for index in 1..=max_iterations {
        // Recompile with the user's removals visible to instrumentation —
        // through the session, so a revisited edit set is a cache hit.
        let mut round_topts = topts.clone();
        round_topts.ignored_update_stmts = fully_removed_updates(tr0, &overlay);
        let tra = session
            .translate(&fe, &round_topts)
            .map_err(|e| format!("translate: {e:?}"))?;
        let tr = &tra.tr;
        let opts = ExecOptions {
            mode: crate::exec::ExecMode::Normal,
            check_transfers: true,
            overlay: overlay.clone(),
            ..base_opts.clone()
        };
        let run = session.execute(&tra, &opts);
        let mut entry = IterationLog {
            index,
            applied: Vec::new(),
            reverted: Vec::new(),
            errors: 0,
            output_ok: false,
        };
        // Ground truth is the program output: missing/incorrect reports are
        // logged, but with aliased pointers they can themselves be false
        // (the user dismisses them after kernel verification comes back
        // clean — the schemes "complement each other", §IV-C).
        let broken = match &run {
            Err(_) => true,
            Ok(r) => {
                entry.errors = r.machine.report.count(IssueKind::Missing)
                    + r.machine.report.count(IssueKind::Incorrect);
                entry.output_ok = outputs_match(tr, r, &reference, spec.tol.max(1e-12));
                !entry.output_ok
            }
        };
        if broken {
            if last_applied.is_empty() {
                // The starting program itself is broken — report and stop.
                log.push(entry);
                return Ok(InteractiveOutcome {
                    iterations: index,
                    incorrect_iterations: incorrect,
                    overlay,
                    final_stats,
                    converged: false,
                    log,
                });
            }
            // The previous round's suggestions were false. The programmer
            // examines ONE suspect edit per round (the paper's users
            // needed one extra verification step per false suggestion,
            // e.g. LUD's three incorrect iterations): `may-*` warnings are
            // suspected first — that's the class the paper says needs user
            // verification — then the most recent certain edit.
            incorrect += 1;
            // The new missing/incorrect messages name the corrupted
            // variable — the user inspects the edit touching it first.
            let error_vars: BTreeSet<String> = match &run {
                Ok(r) => r
                    .machine
                    .report
                    .issues
                    .iter()
                    .filter(|i| matches!(i.kind, IssueKind::Missing | IssueKind::Incorrect))
                    .map(|i| i.var.clone())
                    .collect(),
                Err(_) => BTreeSet::new(),
            };
            let idx = last_applied
                .iter()
                .position(|(k, kind)| {
                    error_vars.contains(&k.var) && matches!(kind, IssueKind::MayRedundant)
                })
                .or_else(|| {
                    last_applied
                        .iter()
                        .position(|(k, _)| error_vars.contains(&k.var))
                })
                .or_else(|| {
                    last_applied
                        .iter()
                        .position(|(_, k)| matches!(k, IssueKind::MayRedundant))
                })
                .unwrap_or(0);
            let (k, _) = last_applied.remove(idx);
            overlay.disable.remove(&k);
            overlay.defer.remove(&k);
            entry.reverted.push(format!("{}:{}", k.site, k.var));
            pinned.insert(k);
            log.push(entry);
            continue;
        }
        let r = run.expect("checked above");
        final_stats = r.machine.stats;

        // Gather surviving suggestions.
        let mut new_edits: Vec<(TransferKey, IssueKind)> = Vec::new();
        for (kind, var, site) in r.machine.report.distinct_suggestions() {
            if !matches!(kind, IssueKind::Redundant | IssueKind::MayRedundant) {
                continue;
            }
            // Direction comes from the first matching issue.
            let dir = r
                .machine
                .report
                .issues
                .iter()
                .find(|i| i.var == var && i.site == site && i.kind == kind)
                .and_then(|i| i.direction);
            let Some(dir) = dir else { continue };
            let key = TransferKey {
                site: site.clone(),
                var: var.clone(),
                to_device: dir == Direction::ToDevice,
            };
            if pinned.contains(&key)
                || overlay.disable.contains(&key)
                || overlay.defer.contains(&key)
            {
                continue;
            }
            // In-loop transfers (issues carrying loop context) are deferred
            // past the loop; others are removed outright.
            let in_loop = r
                .machine
                .report
                .issues
                .iter()
                .any(|i| i.var == var && i.site == site && !i.loop_context.is_empty());
            // Application knowledge (§III-C): the programmer knows which
            // variables are program outputs and never deletes their final
            // device→host transfer (a deferral keeps the final value, so
            // in-loop output copyouts may still be deferred).
            let is_output = spec.arrays.contains(&var) || spec.scalars.contains(&var);
            if is_output && dir == Direction::ToHost && !in_loop {
                continue;
            }
            if in_loop && dir == Direction::ToHost {
                overlay.defer.insert(key.clone());
                entry
                    .applied
                    .push(format!("defer {}:{} past loop", site, var));
            } else {
                overlay.disable.insert(key.clone());
                entry.applied.push(format!("remove {}:{}", site, var));
            }
            new_edits.push((key, kind));
        }
        let done = new_edits.is_empty();
        last_applied = new_edits;
        log.push(entry);
        if done {
            converged = true;
            return Ok(InteractiveOutcome {
                iterations: index,
                incorrect_iterations: incorrect,
                overlay,
                final_stats,
                converged,
                log,
            });
        }
    }
    Ok(InteractiveOutcome {
        iterations: max_iterations,
        incorrect_iterations: incorrect,
        overlay,
        final_stats,
        converged,
        log,
    })
}

/// Update statements every one of whose transfers the user removed.
fn fully_removed_updates(
    tr: &Translated,
    overlay: &TransferOverlay,
) -> std::collections::BTreeSet<openarc_minic::NodeId> {
    let mut out = std::collections::BTreeSet::new();
    for (site, stmt) in &tr.update_sites {
        // Find the op for this site to learn its variables/directions.
        let op = tr.ops.iter().find_map(|o| match o {
            crate::ir::RtOp::Update {
                to_host,
                to_device,
                site: s2,
                ..
            } if s2 == site => Some((to_host.clone(), to_device.clone())),
            _ => None,
        });
        let Some((to_host, to_device)) = op else {
            continue;
        };
        let all_removed = to_host.iter().all(|v| {
            overlay.disable.contains(&TransferKey {
                site: site.clone(),
                var: v.clone(),
                to_device: false,
            })
        }) && to_device.iter().all(|v| {
            overlay.disable.contains(&TransferKey {
                site: site.clone(),
                var: v.clone(),
                to_device: true,
            })
        });
        if all_removed && (!to_host.is_empty() || !to_device.is_empty()) {
            out.insert(*stmt);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::TranslateOptions;
    use openarc_minic::frontend;

    fn optimize_src(src: &str, spec: &OutputSpec) -> InteractiveOutcome {
        let (p, s) = frontend(src).expect("frontend");
        let topts = TranslateOptions {
            instrument: true,
            ..Default::default()
        };
        let session = Session::builder().build();
        optimize_transfers_in_session(&session, &p, &s, &topts, spec, &ExecOptions::default(), 10)
            .unwrap()
    }

    #[test]
    fn already_optimal_program_converges_in_one_round() {
        let src = "double q[32];\ndouble w[32];\nvoid main() {\n int j;\n for (j = 0; j < 32; j++) { w[j] = 1.0; }\n #pragma acc data copyin(w) copyout(q)\n {\n  #pragma acc kernels loop gang\n  for (j = 0; j < 32; j++) { q[j] = w[j] + 1.0; }\n }\n}";
        let out = optimize_src(src, &OutputSpec::arrays(&["q"]));
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
        assert_eq!(out.incorrect_iterations, 0);
        assert!(out.overlay.is_empty());
    }

    #[test]
    fn redundant_in_loop_update_gets_deferred() {
        // Conservative per-iteration copyout of q; only the final value is
        // read — the JACOBI/Listing 4 pattern.
        let src = "double q[32];\ndouble w[32];\ndouble s;\nvoid main() {\n int k; int j;\n for (j = 0; j < 32; j++) { w[j] = 1.0; }\n #pragma acc data copyin(w) create(q)\n {\n  for (k = 0; k < 4; k++) {\n   #pragma acc kernels loop gang\n   for (j = 0; j < 32; j++) { q[j] = w[j] + (double) k; }\n   #pragma acc update host(q)\n  }\n }\n s = q[0];\n}";
        let out = optimize_src(src, &OutputSpec::arrays(&["q"]).with_scalars(&["s"]));
        assert!(out.converged, "{:?}", out.log);
        assert_eq!(out.incorrect_iterations, 0, "{:?}", out.log);
        assert!(
            !out.overlay.defer.is_empty(),
            "the in-loop update should be deferred: {:?}",
            out.overlay
        );
        // 4 transfers reduced to 1 (deferred) + initial copyin.
        assert!(out.final_stats.d2h_count <= 2, "{:?}", out.final_stats);
        assert!(
            out.iterations >= 2 && out.iterations <= 4,
            "{}",
            out.iterations
        );
    }

    #[test]
    fn redundant_device_update_removed() {
        // w never changes on the host after region entry, yet it is
        // re-uploaded every iteration.
        let src = "double q[32];\ndouble w[32];\nvoid main() {\n int k; int j;\n for (j = 0; j < 32; j++) { w[j] = 2.0; }\n #pragma acc data copyin(w) copyout(q)\n {\n  for (k = 0; k < 3; k++) {\n   #pragma acc update device(w)\n   #pragma acc kernels loop gang\n   for (j = 0; j < 32; j++) { q[j] = w[j]; }\n  }\n }\n}";
        let out = optimize_src(src, &OutputSpec::arrays(&["q"]));
        assert!(out.converged, "{:?}", out.log);
        assert!(
            !out.overlay.disable.is_empty() || !out.overlay.defer.is_empty(),
            "{:?}",
            out.overlay
        );
        assert_eq!(out.final_stats.h2d_count, 1, "{:?}", out.final_stats);
    }

    #[test]
    fn output_spec_helpers() {
        let s = OutputSpec::arrays(&["a", "b"]).with_scalars(&["x"]);
        assert_eq!(s.arrays.len(), 2);
        assert_eq!(s.scalars, vec!["x"]);
    }
}
