//! The threefold differential oracle.
//!
//! Each input runs through one [`Session`] under several legs:
//!
//! 1. **CPU reference** (`ExecMode::CpuOnly`) — the canonical sequential
//!    semantics of the program, directives ignored.
//! 2. **Instrumented GPU run** (`check` leg: `check_transfers = true`) —
//!    the simulated-GPU execution with the program's own data clauses,
//!    plus the §III-B coherence tracker. Its journal feeds an independent
//!    replay of the PR-5 reference state machine
//!    ([`validate_coherence`]); when the tracker reports *no* transfer
//!    errors, the leg's observable outputs must match the CPU reference.
//! 3. **Verification matrix** — verify-mode runs on 1, 2 and 3 simulated
//!    devices. Per-launch verdicts compare simulated-GPU kernel outputs
//!    against the runtime's own sequential reference, so a failed verdict
//!    on a race-free input is a pipeline bug regardless of the program's
//!    clause hygiene; and every config's observables must agree bit for
//!    bit with the one-device oracle config.
//!
//! Everything the legs journal is folded into one coverage [`Signature`].

use crate::exec::{ExecMode, ExecOptions, RunResult, VerifyOptions};
use crate::interactive::{capture_outputs, outputs_match, OutputSpec};
use crate::pipeline::{Fnv, PipelineError, Session, TranslatedArtifact};
use crate::translate::TranslateOptions;
use openarc_minic::ast::Ty;
use openarc_trace::coverage::{event_atoms, Signature};
use openarc_trace::{Cause, EventKind, Journal, Side, St, TraceEvent};
use openarc_vm::VmError;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Per-leg VM step budget. Generated programs finish in a few thousand
/// steps; mutants that lose a loop increment would otherwise spin for the
/// executor's 5e9-step default. Hitting the budget on both legs is a
/// plain `reject:run:step-limit`, not a finding.
const FUZZ_STEP_BUDGET: u64 = 2_000_000;

/// One cell of the verification-options matrix.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Short label used in findings, repro files and the `cfg:` coverage
    /// atom.
    pub label: &'static str,
    /// Simulated device count.
    pub devices: usize,
}

impl MatrixConfig {
    /// The `verificationOptions` string equivalent of this config, as
    /// accepted by `openarc verify --options`.
    pub fn options_string(&self) -> String {
        format!("devices={}", self.devices)
    }

    fn verify_options(&self) -> VerifyOptions {
        VerifyOptions {
            devices: self.devices,
            ..VerifyOptions::default()
        }
    }
}

/// The default matrix: the one-device oracle cell first, then two
/// multi-device cells that must agree with it. Every campaign fingerprint
/// hashes the labels as `cfg:` coverage atoms, so renaming a cell moves
/// every pinned fingerprint.
pub fn default_matrix() -> Vec<MatrixConfig> {
    vec![
        MatrixConfig {
            label: "oracle",
            devices: 1,
        },
        MatrixConfig {
            label: "eft-d2",
            devices: 2,
        },
        MatrixConfig {
            label: "rr-d3",
            devices: 3,
        },
    ]
}

/// Kinds of fuzz findings, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FindingKind {
    /// A panic or `VmError::Internal` anywhere in the pipeline.
    Crash,
    /// One leg errored while another completed (or error classes differ).
    ErrorDivergence,
    /// The coherence tracker's journal violates the reference model.
    CoherenceModel,
    /// A kernel-verification verdict failed on the oracle config.
    VerifyDivergence,
    /// Clean check report but GPU observables differ from CPU reference.
    OutputDivergence,
    /// A matrix config disagrees with the one-device oracle config.
    CrossConfig,
}

impl FindingKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::Crash => "crash",
            FindingKind::ErrorDivergence => "error-divergence",
            FindingKind::CoherenceModel => "coherence-model",
            FindingKind::VerifyDivergence => "verify-divergence",
            FindingKind::OutputDivergence => "output-divergence",
            FindingKind::CrossConfig => "cross-config",
        }
    }
}

/// One confirmed finding.
#[derive(Debug, Clone)]
pub struct FuzzFinding {
    /// What kind of disagreement.
    pub kind: FindingKind,
    /// Matrix config label involved (`oracle` for single-leg findings).
    pub config: String,
    /// Human-readable detail.
    pub detail: String,
}

/// How one input fared against the oracle.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// All legs agreed.
    Clean,
    /// The input never reached execution (parse/sema/translate reject) or
    /// failed identically on every leg. The payload names the stage.
    Rejected(String),
    /// A data race was detected; divergence oracles are skipped (the
    /// program, not the pipeline, is at fault).
    Racy,
    /// The oracle disagreed somewhere.
    Finding(FuzzFinding),
}

/// Outcome of one oracle evaluation: the verdict plus the coverage
/// signature harvested from every leg's journal.
#[derive(Debug, Clone)]
pub struct OracleOutcome {
    /// The verdict.
    pub verdict: Verdict,
    /// Coverage atoms observed across all legs.
    pub signature: Signature,
}

impl OracleOutcome {
    /// The finding, if any.
    pub fn finding(&self) -> Option<&FuzzFinding> {
        match &self.verdict {
            Verdict::Finding(f) => Some(f),
            _ => None,
        }
    }
}

/// Replay the journal's coherence transitions against the PR-5 reference
/// state machine. Checks, independently of the tracker's implementation:
/// per-`(var, side)` transition *chaining* (each event's `from` state must
/// equal the state the previous event left), and per-cause legality — a
/// `transfer` must land the side in `notstale`. A `write` (`notstale` or
/// `maystale` on the written side, `stale` on the others), a `reset` and a
/// `dealloc` may each produce any state.
pub fn validate_coherence(events: &[TraceEvent]) -> Result<(), String> {
    let mut st: HashMap<(&str, Side), St> = HashMap::new();
    for ev in events {
        let EventKind::Coherence {
            var,
            side,
            from,
            to,
            cause,
        } = &ev.kind
        else {
            continue;
        };
        let key = (var.as_str(), *side);
        if let Some(cur) = st.get(&key) {
            if cur != from {
                return Err(format!(
                    "broken chain on {var}.{side}: tracked {cur} but event says from={from} (cause={cause})"
                ));
            }
        }
        if *cause == Cause::Transfer && *to != St::NotStale {
            return Err(format!(
                "illegal transition on {var}.{side}: {from} -> {to} caused by {cause}"
            ));
        }
        st.insert(key, *to);
    }
    Ok(())
}

/// Coarse error class of a [`VmError`] (message payloads stripped so both
/// legs classify identically).
fn vm_class(e: &VmError) -> &'static str {
    match e {
        VmError::OutOfBounds { .. } => "oob",
        VmError::BadHandle(_) => "bad-handle",
        VmError::TransferMismatch { .. } => "transfer-mismatch",
        VmError::DivByZero => "div-zero",
        VmError::TypeError(_) => "type",
        VmError::UnknownFunction(_) => "unknown-fn",
        VmError::StepLimit(_) => "step-limit",
        VmError::Internal(_) => "internal",
        VmError::BadAlloc(_) => "bad-alloc",
        VmError::NotPresent { .. } => "not-present",
    }
}

/// Per-kernel verdict tuple: kernel name, launches, failed launches,
/// compared/mismatched element counts, max-abs-error bits, assertion
/// failures.
type VerdictObs = (String, u64, u64, u64, u64, u64, u64);

/// Comparable observables of one verify-mode run: per-kernel verdict
/// tuples, an FNV fingerprint of the final global state, and the launch
/// count. Simulated time is deliberately excluded — it legitimately
/// varies across placements and device counts.
fn observables(tr: &TranslatedArtifact, r: &RunResult) -> (Vec<VerdictObs>, u64, u64) {
    let verdicts: Vec<_> = r
        .verify
        .iter()
        .map(|v| {
            (
                v.kernel.clone(),
                v.launches,
                v.failed_launches,
                v.compared_elems,
                v.mismatched_elems,
                v.max_abs_err.to_bits(),
                v.assertion_failures,
            )
        })
        .collect();
    let mut h = Fnv::new();
    for g in tr.tr.host_program.globals() {
        if g.name.starts_with("__") {
            continue;
        }
        match &g.ty {
            Ty::Array(_, _) => {
                if let Some(vals) = r.global_array(&tr.tr, &g.name) {
                    for v in vals {
                        h.write_f64(v);
                    }
                }
            }
            Ty::Scalar(_) => {
                if let Some(v) = r.global_scalar(&tr.tr, &g.name) {
                    h.write_f64(v.as_f64());
                }
            }
            _ => {}
        }
    }
    (verdicts, h.finish(), r.kernel_launches)
}

/// Output spec over every user-visible global (arrays and scalars),
/// minus arrays the static sync model proved may be legitimately stale
/// on the host at program exit (`copyin`-only results never published).
fn output_spec(
    tr: &TranslatedArtifact,
    exclude: &std::collections::BTreeSet<String>,
) -> OutputSpec {
    let arrays: Vec<String> = tr
        .tr
        .host_program
        .globals()
        .filter(|g| {
            !g.name.starts_with("__")
                && matches!(g.ty, Ty::Array(_, _))
                && !exclude.contains(&g.name)
        })
        .map(|g| g.name.clone())
        .collect();
    let scalars: Vec<String> = tr
        .tr
        .host_program
        .globals()
        .filter(|g| !g.name.starts_with("__") && matches!(g.ty, Ty::Scalar(_)))
        .map(|g| g.name.clone())
        .collect();
    let mut spec = OutputSpec::arrays(&arrays.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    spec = spec.with_scalars(&scalars.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    spec
}

fn harvest(journal: &Journal, sig: &mut Signature) -> Vec<TraceEvent> {
    let evs = journal.drain();
    for ev in &evs {
        event_atoms(ev, sig);
    }
    evs
}

/// Run one source through the full threefold oracle.
pub fn run_oracle(session: &Session, src: &str, matrix: &[MatrixConfig]) -> OracleOutcome {
    let result = catch_unwind(AssertUnwindSafe(|| run_oracle_inner(session, src, matrix)));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic".to_string());
            let mut signature = Signature::new();
            signature.insert("oracle:panic");
            OracleOutcome {
                verdict: Verdict::Finding(FuzzFinding {
                    kind: FindingKind::Crash,
                    config: "oracle".to_string(),
                    detail: format!("panic: {msg}"),
                }),
                signature,
            }
        }
    }
}

fn run_oracle_inner(session: &Session, src: &str, matrix: &[MatrixConfig]) -> OracleOutcome {
    let mut sig = Signature::new();
    let finding = |kind: FindingKind, config: &str, detail: String, sig: Signature| OracleOutcome {
        verdict: Verdict::Finding(FuzzFinding {
            kind,
            config: config.to_string(),
            detail,
        }),
        signature: sig,
    };

    // Frontend + both translations.
    let fe = match session.frontend(src) {
        Ok(fe) => fe,
        Err(_) => {
            sig.insert("reject:frontend");
            return OracleOutcome {
                verdict: Verdict::Rejected("frontend".into()),
                signature: sig,
            };
        }
    };
    let plain = match session.translate(&fe, &TranslateOptions::default()) {
        Ok(tr) => tr,
        Err(_) => {
            sig.insert("reject:translate");
            return OracleOutcome {
                verdict: Verdict::Rejected("translate".into()),
                signature: sig,
            };
        }
    };
    let instrumented = match session.translate(
        &fe,
        &TranslateOptions {
            instrument: true,
            ..TranslateOptions::default()
        },
    ) {
        Ok(tr) => tr,
        Err(_) => {
            sig.insert("reject:instrument");
            return OracleOutcome {
                verdict: Verdict::Rejected("instrument".into()),
                signature: sig,
            };
        }
    };

    // Reading an uninitialized `private` copy is OpenACC undefined
    // behaviour: the sequential reference, the simulated device, and the
    // verify-mode replay may all legitimately disagree, so any oracle
    // signal from such a program is noise. Reject before executing.
    if super::sync::uninit_private_read(&fe.program) {
        sig.insert("reject:uninit-private");
        return OracleOutcome {
            verdict: Verdict::Rejected("uninit-private".into()),
            signature: sig,
        };
    }

    // Leg 1: CPU reference.
    let cpu_journal = Journal::enabled();
    let cpu_opts = ExecOptions {
        mode: ExecMode::CpuOnly,
        journal: cpu_journal.clone(),
        step_budget: FUZZ_STEP_BUDGET,
        ..ExecOptions::default()
    };
    let cpu = session.execute(&plain, &cpu_opts);
    harvest(&cpu_journal, &mut sig);

    // Leg 2: instrumented GPU run with transfer checking.
    let chk_journal = Journal::enabled();
    let chk_opts = ExecOptions {
        mode: ExecMode::Normal,
        check_transfers: true,
        race_detect: true,
        journal: chk_journal.clone(),
        step_budget: FUZZ_STEP_BUDGET,
        ..ExecOptions::default()
    };
    let chk = session.execute(&instrumented, &chk_opts);
    let chk_events = harvest(&chk_journal, &mut sig);

    // Error-class reconciliation between the two legs.
    let cpu_err = match &cpu {
        Err(PipelineError::Run(e)) => Some(vm_class(e)),
        Err(_) => Some("pipeline"),
        Ok(_) => None,
    };
    let chk_err = match &chk {
        Err(PipelineError::Run(e)) => Some(vm_class(e)),
        Err(_) => Some("pipeline"),
        Ok(_) => None,
    };
    if cpu_err == Some("internal") || chk_err == Some("internal") {
        return finding(
            FindingKind::Crash,
            "oracle",
            "VmError::Internal — compiler/runtime invariant broken".into(),
            sig,
        );
    }
    if cpu_err == Some("step-limit") || chk_err == Some("step-limit") {
        // A nonterminating mutant. The legs count steps differently
        // (host loops vs simulated launches), so one side may finish
        // under budget while the other spins — not a pipeline bug.
        sig.insert("reject:run:step-limit");
        return OracleOutcome {
            verdict: Verdict::Rejected("run:step-limit".into()),
            signature: sig,
        };
    }
    if chk_err == Some("not-present") {
        // `update` of unmapped data: a program error with no CPU-leg
        // counterpart (the CPU reference ignores directives entirely).
        sig.insert("reject:run:not-present");
        return OracleOutcome {
            verdict: Verdict::Rejected("run:not-present".into()),
            signature: sig,
        };
    }
    match (cpu_err, chk_err) {
        (Some(a), Some(b)) if a == b => {
            sig.insert(format!("reject:run:{a}"));
            return OracleOutcome {
                verdict: Verdict::Rejected(format!("run:{a}")),
                signature: sig,
            };
        }
        (Some(a), Some(b)) => {
            return finding(
                FindingKind::ErrorDivergence,
                "oracle",
                format!("cpu leg failed with {a}, gpu leg with {b}"),
                sig,
            );
        }
        (Some(a), None) => {
            return finding(
                FindingKind::ErrorDivergence,
                "oracle",
                format!("cpu leg failed with {a}, gpu leg completed"),
                sig,
            );
        }
        (None, Some(b)) => {
            return finding(
                FindingKind::ErrorDivergence,
                "oracle",
                format!("gpu leg failed with {b}, cpu leg completed"),
                sig,
            );
        }
        (None, None) => {}
    }
    let cpu = cpu.expect("checked above");
    let chk = chk.expect("checked above");

    // Oracle 2a: the coherence tracker vs the reference state machine.
    if let Err(msg) = validate_coherence(&chk_events) {
        return finding(FindingKind::CoherenceModel, "oracle", msg, sig);
    }
    for (var, _) in &chk.races {
        sig.insert(format!("race:{var}"));
    }
    let racy = !chk.races.is_empty();

    // Leg 3: the verification matrix.
    let mut legs: Vec<(&MatrixConfig, Arc<RunResult>)> = Vec::new();
    for cfg in matrix {
        let journal = Journal::enabled();
        let opts = ExecOptions {
            mode: ExecMode::Verify(cfg.verify_options()),
            race_detect: true,
            journal: journal.clone(),
            step_budget: FUZZ_STEP_BUDGET,
            ..ExecOptions::default()
        };
        let r = session.execute(&plain, &opts);
        harvest(&journal, &mut sig);
        sig.insert(format!("cfg:{}", cfg.label));
        match r {
            Ok(r) => legs.push((cfg, r)),
            Err(PipelineError::Run(VmError::StepLimit(_))) => {
                // Verify mode replays kernels on both sides, so a program
                // near the budget can pass normally yet trip here.
                sig.insert("reject:run:step-limit");
                return OracleOutcome {
                    verdict: Verdict::Rejected("run:step-limit".into()),
                    signature: sig,
                };
            }
            Err(PipelineError::Run(e)) => {
                return finding(
                    FindingKind::ErrorDivergence,
                    cfg.label,
                    format!(
                        "verify config {} failed with {} though normal execution completed",
                        cfg.label,
                        vm_class(&e)
                    ),
                    sig,
                );
            }
            Err(_) => {
                return finding(
                    FindingKind::ErrorDivergence,
                    cfg.label,
                    format!("verify config {} failed in the pipeline", cfg.label),
                    sig,
                );
            }
        }
    }

    if racy || legs.iter().any(|(_, r)| !r.races.is_empty()) {
        sig.insert("racy");
        return OracleOutcome {
            verdict: Verdict::Racy,
            signature: sig,
        };
    }

    // Oracle 1: per-launch verdicts on the oracle config.
    if let Some((cfg, r)) = legs.first() {
        for v in &r.verify {
            if v.flagged() {
                return finding(
                    FindingKind::VerifyDivergence,
                    cfg.label,
                    format!(
                        "kernel {}: {}/{} launches failed, {} of {} elems mismatched (max abs err {:e})",
                        v.kernel,
                        v.failed_launches,
                        v.launches,
                        v.mismatched_elems,
                        v.compared_elems,
                        v.max_abs_err
                    ),
                    sig,
                );
            }
        }
    }

    // Oracle 3: cross-config observable identity.
    if let Some((_, base)) = legs.first() {
        let want = observables(&plain, base);
        for (cfg, r) in legs.iter().skip(1) {
            let got = observables(&plain, r);
            if got != want {
                let detail = if got.0 != want.0 {
                    format!("config {} verdicts differ from oracle config", cfg.label)
                } else if got.1 != want.1 {
                    format!(
                        "config {} final globals differ from oracle config",
                        cfg.label
                    )
                } else {
                    format!(
                        "config {} launched {} kernels, oracle launched {}",
                        cfg.label, got.2, want.2
                    )
                };
                return finding(FindingKind::CrossConfig, cfg.label, detail, sig);
            }
        }
    }

    // Oracle 2b: when the program's clauses provably publish every
    // GPU-written array back to the host (and the checker agrees), the
    // instrumented GPU run's outputs must match the CPU reference. The
    // static sync check keeps clause-sloppy *programs* (stale host
    // reads the first-access checker tolerates) from masquerading as
    // pipeline bugs.
    for issue in &chk.machine.report.issues {
        sig.insert(format!("issue:{}:{:?}", issue.kind.severity(), issue.kind));
    }
    match super::sync::sync_check(&fe.program) {
        super::sync::SyncVerdict::Unknown => {
            sig.insert("outputs:skipped-unsynced");
        }
        super::sync::SyncVerdict::Synced { stale_at_exit } => {
            if chk.machine.report.has_errors() {
                sig.insert("outputs:skipped-dirty-report");
            } else {
                let spec = output_spec(&plain, &stale_at_exit);
                let reference = capture_outputs(&plain.tr, &cpu, &spec);
                if !outputs_match(&instrumented.tr, &chk, &reference, 1e-6) {
                    return finding(
                        FindingKind::OutputDivergence,
                        "oracle",
                        "clauses publish all outputs yet GPU observables differ from CPU reference"
                            .into(),
                        sig,
                    );
                }
                sig.insert(if stale_at_exit.is_empty() {
                    "outputs:match"
                } else {
                    "outputs:match-partial"
                });
            }
        }
    }

    OracleOutcome {
        verdict: Verdict::Clean,
        signature: sig,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openarc_trace::Track;

    fn coh(var: &str, side: Side, from: St, to: St, cause: Cause) -> TraceEvent {
        TraceEvent {
            ts_us: 0.0,
            dur_us: 0.0,
            track: Track::Host,
            kind: EventKind::Coherence {
                var: var.into(),
                side,
                from,
                to,
                cause,
            },
        }
    }

    #[test]
    fn coherence_accepts_legal_chain() {
        let evs = vec![
            coh("a", Side::Gpu, St::NotStale, St::Stale, Cause::Write),
            coh("a", Side::Gpu, St::Stale, St::NotStale, Cause::Transfer),
            coh("a", Side::Cpu, St::NotStale, St::Stale, Cause::Write),
            coh("a", Side::Cpu, St::Stale, St::NotStale, Cause::Transfer),
        ];
        assert!(validate_coherence(&evs).is_ok());
    }

    #[test]
    fn coherence_rejects_broken_chain() {
        let evs = vec![
            coh("a", Side::Gpu, St::NotStale, St::Stale, Cause::Write),
            // The tracker claims gpu was notstale, but we left it stale.
            coh("a", Side::Gpu, St::NotStale, St::MayStale, Cause::Write),
        ];
        let err = validate_coherence(&evs).unwrap_err();
        assert!(err.contains("broken chain"), "{err}");
    }

    #[test]
    fn coherence_rejects_illegal_transfer_target() {
        let evs = vec![coh(
            "a",
            Side::Gpu,
            St::Stale,
            St::MayStale,
            Cause::Transfer,
        )];
        let err = validate_coherence(&evs).unwrap_err();
        assert!(err.contains("illegal transition"), "{err}");
    }

    #[test]
    fn clean_program_is_clean() {
        let session = Session::builder().build();
        let src = "double a[8];\ndouble total;\nvoid main() {\n int i;\n for (i = 0; i < 8; i++) { a[i] = (double)i; }\n total = 0.0;\n #pragma acc data copy(a)\n {\n #pragma acc kernels loop gang\n for (i = 0; i < 8; i++) { a[i] = a[i] * 2.0; }\n }\n for (i = 0; i < 8; i++) { total = total + a[i]; }\n}";
        let out = run_oracle(&session, src, &default_matrix());
        assert!(matches!(out.verdict, Verdict::Clean), "{:?}", out.verdict);
        assert!(out.signature.contains("event:kernel-launch"));
        assert!(out.signature.contains("outputs:match"));
    }

    #[test]
    fn parse_error_is_rejected() {
        let session = Session::builder().build();
        let out = run_oracle(&session, "void main() { garbage !!", &default_matrix());
        assert!(matches!(out.verdict, Verdict::Rejected(_)));
        assert!(out.signature.contains("reject:frontend"));
    }

    #[test]
    fn stale_host_read_is_not_a_finding() {
        // copyin-only clause: the checksum reads a stale host copy. The
        // static sync check catches it (the first-access checker's report
        // stays clean for this shape), so the output oracle must skip —
        // the program is wrong, not the pipeline.
        let session = Session::builder().build();
        let src = "double a[8];\ndouble total;\nvoid main() {\n int i;\n for (i = 0; i < 8; i++) { a[i] = 1.0; }\n total = 0.0;\n #pragma acc data copyin(a)\n {\n #pragma acc kernels loop gang\n for (i = 0; i < 8; i++) { a[i] = a[i] * 2.0; }\n }\n for (i = 0; i < 8; i++) { total = total + a[i]; }\n}";
        let out = run_oracle(&session, src, &default_matrix());
        assert!(
            matches!(out.verdict, Verdict::Clean),
            "expected clean-with-dirty-report, got {:?}",
            out.verdict
        );
        assert!(out.signature.contains("outputs:skipped-unsynced"));
    }

    #[test]
    fn matrix_options_strings() {
        let m = default_matrix();
        let specs: Vec<String> = m.iter().map(MatrixConfig::options_string).collect();
        assert_eq!(specs, ["devices=1", "devices=2", "devices=3"]);
        // Every spec is one `openarc verify` accepts.
        for spec in &specs {
            crate::options::parse_verification_options(spec).unwrap();
        }
    }
}
