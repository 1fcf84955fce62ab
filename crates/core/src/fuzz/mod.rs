//! `core::fuzz` — coverage-guided differential fuzzing of the whole
//! pipeline.
//!
//! The campaign loop is the classic scheduled-mutator / in-memory-executor
//! shape: a corpus of interesting inputs, a grammar-aware
//! generator/mutator ([`gen`], [`mutate`]), per-worker executors fanned
//! over [`crate::sched::run_tasks`] running each input through its own
//! fresh [`Session`] under a matrix of `verificationOptions` ([`oracle`]),
//! and coverage feedback from journal-derived signatures
//! ([`openarc_trace::coverage`]). Findings are auto-minimized
//! ([`minimize()`]) into self-contained repros.
//!
//! ## Memory
//!
//! A session's artifacts only ever hit within one input's oracle legs, so
//! each input (baseline, seed, generated program, minimization candidate)
//! gets one session, dropped when its oracle returns. The artifacts a
//! campaign holds at once are one program's per worker, however long it
//! runs. Memo hits are exact, so a fresh session gives the same outcome a
//! warm one would.
//!
//! ## Determinism contract
//!
//! Everything observable about a campaign — the input sequence, the
//! coverage signature set, the findings and their minimized repros — is a
//! pure function of `(seed, max_programs, seeds, baseline, matrix)`:
//!
//! * all random decisions flow through one [`FuzzRng`] stream, consumed
//!   only on the scheduler thread (generation and corpus selection happen
//!   *before* a batch is fanned out);
//! * [`crate::sched::run_tasks`] returns results in task order, and
//!   corpus/coverage folding is sequential;
//! * wall-clock time is read only for throughput stats and the optional
//!   time budget, never for a mutation or scheduling decision. A campaign
//!   stopped by the time budget sets [`CampaignReport::truncated`] — two
//!   truncated runs may differ in length (they agree on every program
//!   they both executed); untruncated runs are bit-reproducible.
//!
//! `jobs` deliberately does **not** enter the contract: any worker count
//! produces the identical report.

pub mod gen;
pub mod minimize;
pub mod mutate;
pub mod oracle;
pub mod rng;
mod sync;

pub use minimize::{minimize, Minimized};
pub use oracle::{
    default_matrix, run_oracle, validate_coherence, FindingKind, FuzzFinding, MatrixConfig,
    OracleOutcome, Verdict,
};
pub use rng::FuzzRng;

use crate::pipeline::{Fnv, Session};
use crate::sched::run_tasks;
use openarc_trace::coverage::Signature;
use std::time::Instant;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// PRNG seed; the whole campaign is a function of it.
    pub seed: u64,
    /// Generated/mutated programs to execute (seeds and baseline are on
    /// top of this).
    pub max_programs: usize,
    /// Worker threads for the executor fan-out. Does not affect results.
    pub jobs: usize,
    /// Optional wall-clock budget in seconds, checked at batch
    /// boundaries. Exceeding it stops the campaign and marks the report
    /// truncated.
    pub time_budget_s: Option<f64>,
    /// Initial corpus sources (e.g. the committed regression corpus).
    pub seeds: Vec<String>,
    /// Baseline sources whose signature defines "already covered" (the
    /// 12 reduced benchmarks); campaign coverage growth is measured
    /// against their atom set.
    pub baseline: Vec<String>,
    /// The verification-options matrix; element 0 is the oracle config.
    pub matrix: Vec<MatrixConfig>,
    /// Attempt budget per finding minimization.
    pub minimize_budget: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 1,
            max_programs: 200,
            jobs: 1,
            time_budget_s: None,
            seeds: Vec::new(),
            baseline: Vec::new(),
            matrix: default_matrix(),
            minimize_budget: 2000,
        }
    }
}

/// One reported finding with its minimized repro.
#[derive(Debug, Clone)]
pub struct FindingReport {
    /// Finding classification.
    pub kind: FindingKind,
    /// Matrix config label involved.
    pub config: String,
    /// Detail string from the first occurrence.
    pub detail: String,
    /// The original failing source.
    pub source: String,
    /// The minimized repro.
    pub minimized: String,
    /// Whether minimization reached a fixed point within budget.
    pub minimized_ok: bool,
    /// How many inputs reproduced this (kind, config) pair.
    pub occurrences: usize,
    /// The `verificationOptions` string of the involved config.
    pub options: String,
}

/// Everything a campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Seed the campaign ran with.
    pub seed: u64,
    /// Generated/mutated programs executed.
    pub programs: usize,
    /// Inputs rejected before execution (parse/sema/translate) or failing
    /// identically on every leg.
    pub rejected: usize,
    /// Inputs skipped by the divergence oracles because a data race was
    /// detected.
    pub racy: usize,
    /// Corpus size at the end (seeds + inputs that added coverage).
    pub corpus: usize,
    /// Union of all coverage atoms observed (campaign + seeds).
    pub coverage: Signature,
    /// Atoms of the baseline programs alone.
    pub baseline_coverage: Signature,
    /// Deduplicated findings, each minimized.
    pub findings: Vec<FindingReport>,
    /// Per-program wall-clock execution times, µs (stats only).
    pub exec_us: Vec<f64>,
    /// True when the time budget stopped the campaign early.
    pub truncated: bool,
    /// FNV fingerprint of (inputs, coverage, findings) — equal
    /// fingerprints mean bit-identical campaigns.
    pub fingerprint: u64,
}

impl CampaignReport {
    /// Atoms the campaign covered beyond the baseline set, sorted.
    pub fn new_atoms(&self) -> Vec<&str> {
        self.coverage.new_atoms(&self.baseline_coverage)
    }

    /// Findings whose minimization did not converge.
    pub fn unminimized(&self) -> usize {
        self.findings.iter().filter(|f| !f.minimized_ok).count()
    }
}

/// Decide the next input: generate fresh or mutate a corpus entry.
fn next_input(rng: &mut FuzzRng, corpus: &[String]) -> String {
    if corpus.is_empty() || rng.chance(25) {
        return gen::generate(rng);
    }
    // Favor recently added entries (they carried new coverage) half the
    // time, uniform otherwise.
    let idx = if rng.chance(50) {
        corpus.len() - 1 - rng.below(corpus.len().min(4))
    } else {
        rng.below(corpus.len())
    };
    let mut cur = corpus[idx].clone();
    let stack = 1 + rng.below(3);
    for _ in 0..stack {
        if let Some(m) = mutate::mutate_source(rng, &cur) {
            cur = m;
        }
    }
    cur
}

/// [`run_oracle`] on a session of its own, dropped before returning.
fn run_oracle_fresh(src: &str, matrix: &[MatrixConfig]) -> OracleOutcome {
    run_oracle(&Session::builder().build(), src, matrix)
}

/// Run a fuzzing campaign.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let start = Instant::now();
    let mut rng = FuzzRng::new(cfg.seed);
    let mut fp = Fnv::new();
    fp.write_u64(cfg.seed);

    // Baseline signature: the "already covered" set.
    let mut baseline_coverage = Signature::new();
    let baseline_outcomes = run_tasks(
        cfg.jobs,
        cfg.baseline
            .iter()
            .map(|src| {
                let matrix = &cfg.matrix;
                let src = src.clone();
                move || run_oracle_fresh(&src, matrix)
            })
            .collect(),
    );
    for out in &baseline_outcomes {
        baseline_coverage.merge(&out.signature);
    }

    let mut coverage = Signature::new();
    let mut corpus: Vec<String> = Vec::new();
    let mut raw_findings: Vec<(FuzzFinding, String)> = Vec::new();
    let mut rejected = 0;
    let mut racy = 0;

    // Seed the corpus; seed atoms count toward campaign coverage.
    let seed_outcomes = run_tasks(
        cfg.jobs,
        cfg.seeds
            .iter()
            .map(|src| {
                let matrix = &cfg.matrix;
                let src = src.clone();
                move || run_oracle_fresh(&src, matrix)
            })
            .collect(),
    );
    for (src, out) in cfg.seeds.iter().zip(&seed_outcomes) {
        coverage.merge(&out.signature);
        if let Some(f) = out.finding() {
            raw_findings.push((f.clone(), src.clone()));
        }
        corpus.push(src.clone());
    }

    // The main loop: deterministic batches, parallel execution,
    // sequential folding.
    const BATCH: usize = 32;
    let mut programs = 0;
    let mut exec_us = Vec::new();
    let mut truncated = false;
    while programs < cfg.max_programs {
        if let Some(budget) = cfg.time_budget_s {
            if start.elapsed().as_secs_f64() > budget {
                truncated = true;
                break;
            }
        }
        let count = BATCH.min(cfg.max_programs - programs);
        let batch: Vec<String> = (0..count).map(|_| next_input(&mut rng, &corpus)).collect();
        let outcomes = run_tasks(
            cfg.jobs,
            batch
                .iter()
                .map(|src| {
                    let matrix = &cfg.matrix;
                    let src = src.clone();
                    move || {
                        // Built before and dropped after the timed span,
                        // so `exec_us` measures the oracle alone.
                        let session = Session::builder().build();
                        let t = Instant::now();
                        let out = run_oracle(&session, &src, matrix);
                        let us = t.elapsed().as_secs_f64() * 1e6;
                        drop(session);
                        (out, us)
                    }
                })
                .collect(),
        );
        for (src, (out, us)) in batch.iter().zip(outcomes) {
            programs += 1;
            exec_us.push(us);
            fp.write_str(src);
            match &out.verdict {
                Verdict::Rejected(_) => rejected += 1,
                Verdict::Racy => racy += 1,
                Verdict::Finding(f) => raw_findings.push((f.clone(), src.clone())),
                Verdict::Clean => {}
            }
            if coverage.novelty(&out.signature) > 0 {
                corpus.push(src.clone());
            }
            coverage.merge(&out.signature);
        }
    }

    // Deduplicate findings by (kind, config) and minimize each.
    let mut findings: Vec<FindingReport> = Vec::new();
    for (f, src) in raw_findings {
        if let Some(existing) = findings
            .iter_mut()
            .find(|r| r.kind == f.kind && r.config == f.config)
        {
            existing.occurrences += 1;
            continue;
        }
        let kind = f.kind;
        let mut fails = |s: &str| matches!(run_oracle_fresh(s, &cfg.matrix).verdict, Verdict::Finding(g) if g.kind == kind);
        let m = minimize::minimize(&src, cfg.minimize_budget, &mut fails);
        let options = cfg
            .matrix
            .iter()
            .find(|c| c.label == f.config)
            .map(|c| c.options_string())
            .unwrap_or_else(|| cfg.matrix[0].options_string());
        findings.push(FindingReport {
            kind: f.kind,
            config: f.config,
            detail: f.detail,
            source: src,
            minimized: m.source,
            minimized_ok: m.converged,
            occurrences: 1,
            options,
        });
    }

    fp.write_u64(coverage.fingerprint());
    for f in &findings {
        fp.write_str(f.kind.name());
        fp.write_str(&f.config);
        fp.write_str(&f.minimized);
    }

    CampaignReport {
        seed: cfg.seed,
        programs,
        rejected,
        racy,
        corpus: corpus.len(),
        coverage,
        baseline_coverage,
        findings,
        exec_us,
        truncated,
        fingerprint: fp.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(seed: u64, jobs: usize) -> CampaignConfig {
        CampaignConfig {
            seed,
            max_programs: 24,
            jobs,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaign_is_seed_deterministic() {
        let a = run_campaign(&tiny_cfg(7, 1));
        let b = run_campaign(&tiny_cfg(7, 1));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.programs, 24);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.findings.len(), b.findings.len());
    }

    #[test]
    fn campaign_is_jobs_stable() {
        let a = run_campaign(&tiny_cfg(11, 1));
        let b = run_campaign(&tiny_cfg(11, 4));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.coverage, b.coverage);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_campaign(&tiny_cfg(1, 2));
        let b = run_campaign(&tiny_cfg(2, 2));
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn coverage_accumulates() {
        let r = run_campaign(&tiny_cfg(5, 2));
        assert!(!r.coverage.is_empty());
        assert!(r.corpus > 0);
        assert_eq!(r.exec_us.len(), r.programs);
    }
}
