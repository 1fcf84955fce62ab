//! `fuzz_seeded`: `fuzz::run_campaign` over many tiny generated programs,
//! each through the threefold oracle and the options matrix — per-program
//! fixed costs (session set-up, compile, matrix legs) dominate.
//!
//! Throughput of a campaign depends strongly on which programs its seed
//! happens to generate (three 500-program campaigns measured 135, 172 and
//! 198 programs/s at this commit), so the campaign seeds are a fixed pool:
//! every run executes the same programs and `--seed` only orders the
//! campaigns. A pass is one sweep over the pool; an op is one executed
//! program.

use crate::digest::Fnv;
use crate::expected::{repo_root, Answer, Expected};
use crate::rng::Rng;
use crate::span::Tracer;
use crate::workload::{Checks, OpSample, PassSample, TracedPass, Workload};
use openarc_core::fuzz::{run_campaign, CampaignConfig, CampaignReport};
use openarc_suite::{reduced_corpus, Scale};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Campaign seeds of the pool.
pub const CAMPAIGN_SEEDS: [u64; 3] = [1, 2, 3];
/// Generated/mutated programs per campaign (1500 per pass).
pub const PROGRAMS: usize = 500;
/// The warm-up campaign of set-up: its own seed, a tenth of the size.
const WARMUP: (u64, usize) = (7, 50);

/// The fuzz workload.
pub struct FuzzSeeded {
    /// Committed regression corpus (`tests/corpus/*.c`), sorted by name.
    seeds: Vec<String>,
    /// The twelve reduced benchmarks defining "already covered".
    baseline: Vec<String>,
    rows: Vec<String>,
    known: Vec<Option<Answer>>,
    order: Vec<usize>,
}

/// Read the committed fuzz corpus.
pub fn corpus_sources() -> Result<Vec<String>, String> {
    let dir = repo_root().join("tests").join("corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no .c files", dir.display()));
    }
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

fn row_name(seed: u64, programs: usize) -> String {
    format!("campaign/seed{seed}/programs{programs}")
}

/// The answer of a campaign: how many programs it executed, and its
/// fingerprint over (inputs, coverage, findings) plus what would make the
/// result unusable.
pub fn answer_of_campaign(r: &CampaignReport) -> Answer {
    Answer {
        code: r.programs as i64,
        digest: Fnv::new()
            .u64(r.fingerprint)
            .u64(r.findings.len() as u64)
            .u64(r.unminimized() as u64)
            .u64(u64::from(r.truncated))
            .finish(),
    }
}

impl FuzzSeeded {
    /// Read the corpus and order the pool; checks nothing.
    pub fn new(seed: u64, expected: &Expected) -> Result<FuzzSeeded, String> {
        let rows: Vec<String> = CAMPAIGN_SEEDS
            .iter()
            .map(|s| row_name(*s, PROGRAMS))
            .collect();
        let known = rows.iter().map(|r| expected.get(r)).collect();
        let mut order: Vec<usize> = (0..rows.len()).collect();
        Rng::new(seed, Self::NAME).shuffle(&mut order);
        Ok(FuzzSeeded {
            seeds: corpus_sources()?,
            baseline: reduced_corpus(Scale::default())
                .into_iter()
                .map(|(_, src)| src)
                .collect(),
            rows,
            known,
            order,
        })
    }

    /// One campaign, single-threaded.
    pub fn campaign(&self, seed: u64, programs: usize) -> Result<CampaignReport, String> {
        let cfg = CampaignConfig {
            seed,
            max_programs: programs,
            jobs: 1,
            seeds: self.seeds.clone(),
            baseline: self.baseline.clone(),
            ..CampaignConfig::default()
        };
        catch_unwind(AssertUnwindSafe(|| run_campaign(&cfg)))
            .map_err(|_| "campaign panicked".to_string())
    }
}

const LAYERS: &[(&str, &str)] = &[("fuzz.oracle", "fuzz_oracle")];

impl Workload for FuzzSeeded {
    const NAME: &'static str = "fuzz_seeded";
    const SCALE: &'static str = "3 campaigns x 500 programs, jobs=1";

    fn set_up(seed: u64, expected: &Expected) -> Result<(Self, Checks), String> {
        let w = FuzzSeeded::new(seed, expected)?;
        let mut checks = Checks::default();
        // The pool's known answers are checked by the timed passes (a
        // campaign is the pass); set-up warms up on a small campaign with
        // a known answer of its own.
        let got = w.campaign(WARMUP.0, WARMUP.1);
        if let Ok(r) = &got {
            // Independent of the goldens: nothing truncated, every finding
            // minimized, every requested program executed.
            checks.note(
                r.programs == WARMUP.1 && !r.truncated && r.unminimized() == 0,
                || {
                    format!(
                        "warm-up campaign: {} programs, truncated={}, {} unminimized findings",
                        r.programs,
                        r.truncated,
                        r.unminimized()
                    )
                },
            );
        }
        checks.answer(
            expected,
            &row_name(WARMUP.0, WARMUP.1),
            &got.map(|r| answer_of_campaign(&r)),
        );
        Ok((w, checks))
    }

    fn rows(&self) -> &[String] {
        &self.rows
    }

    fn pass(&mut self) -> Result<PassSample, String> {
        let t = Instant::now();
        let mut ops = Vec::with_capacity(PROGRAMS * self.order.len());
        let mut missing = 0;
        for &i in &self.order {
            // A campaign that panics executed nothing.
            let r = self.campaign(CAMPAIGN_SEEDS[i], PROGRAMS);
            let ok = r
                .as_ref()
                .is_ok_and(|r| Some(answer_of_campaign(r)) == self.known[i]);
            let exec_us = r.map(|r| r.exec_us).unwrap_or_default();
            ops.extend(exec_us.iter().map(|us| OpSample {
                row: i,
                ms: us / 1e3,
                ok,
            }));
            // Programs short of the requested count are failed ops.
            missing += PROGRAMS.saturating_sub(exec_us.len()) as u64;
        }
        Ok(PassSample {
            wall_ms: t.elapsed().as_secs_f64() * 1e3,
            ops,
            missing,
        })
    }

    fn traced_pass(&mut self, tracer: &mut Tracer) -> Result<TracedPass, String> {
        let mut out = TracedPass {
            layers: LAYERS,
            ..Default::default()
        };
        for &i in &self.order {
            tracer.scope("fuzz.campaign", i, |t| {
                let t0 = Instant::now();
                let r = self.campaign(CAMPAIGN_SEEDS[i], PROGRAMS)?;
                out.opaque_ms += t0.elapsed().as_secs_f64() * 1e3;
                out.attempted += PROGRAMS as u64;
                if Some(answer_of_campaign(&r)) != self.known[i] {
                    out.failed += PROGRAMS as u64;
                }
                // The campaign owns its session and its loop; what it
                // reports to the outside is each program's oracle time.
                let mut at = t.open_start_ns();
                for us in &r.exec_us {
                    at = t.synthetic("fuzz.oracle", i, at, (us * 1e3) as u64);
                }
                Ok::<(), String>(())
            })?;
        }
        out.wall_ms = out.opaque_ms;
        Ok(out)
    }

    fn known_answers() -> Result<BTreeMap<String, Answer>, String> {
        let w = FuzzSeeded::new(0, &Expected::default())?;
        CAMPAIGN_SEEDS
            .iter()
            .map(|s| (*s, PROGRAMS))
            .chain([WARMUP])
            .map(|(seed, programs)| {
                let r = w.campaign(seed, programs)?;
                Ok((row_name(seed, programs), answer_of_campaign(&r)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_up_campaign_has_its_known_answer() {
        let e = Expected::load(FuzzSeeded::NAME).unwrap();
        assert_eq!(e.len(), CAMPAIGN_SEEDS.len() + 1);
        let (w, checks) = FuzzSeeded::set_up(4, &e).unwrap();
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        assert!(w.seeds.len() >= 9, "committed corpus found");
        assert_eq!(w.baseline.len(), 12);
    }

    #[test]
    fn regenerating_at_this_commit_is_a_no_op() {
        let fresh = Expected::from_rows(FuzzSeeded::known_answers().unwrap());
        assert_eq!(fresh, Expected::load(FuzzSeeded::NAME).unwrap());
    }

    #[test]
    fn a_campaign_answer_pins_size_and_fingerprint() {
        let w = FuzzSeeded::new(1, &Expected::default()).unwrap();
        let a = w.campaign(5, 8).unwrap();
        assert_eq!((a.programs, a.exec_us.len()), (8, 8));
        assert_eq!(
            answer_of_campaign(&a),
            answer_of_campaign(&w.campaign(5, 8).unwrap())
        );
        assert_ne!(
            answer_of_campaign(&a),
            answer_of_campaign(&w.campaign(6, 8).unwrap())
        );
        assert_ne!(
            answer_of_campaign(&a).code,
            answer_of_campaign(&w.campaign(5, 9).unwrap()).code
        );
    }
}
