//! `interactive_loop`: the paper's headline workflow (Figure 2 /
//! Table III). One op is one benchmark's
//! `optimize_transfers_in_session` from the Unoptimized variant to
//! convergence, in a fresh memory-only [`Session`]: the same frontend is
//! re-translated with a growing edit set every round, so memo reuse across
//! rounds and per-round re-instrumentation dominate.

use crate::digest::Fnv;
use crate::expected::{Answer, Expected};
use crate::rng::Rng;
use crate::span::Tracer;
use crate::workload::{
    stage_spans, Checks, OpSample, PassSample, TracedPass, Workload, STAGE_LAYERS,
};
use openarc_core::exec::ExecOptions;
use openarc_core::interactive::{optimize_transfers_in_session, InteractiveOutcome, OutputSpec};
use openarc_core::pipeline::{Session, Stage};
use openarc_core::translate::TranslateOptions;
use openarc_suite::{all, Scale, Variant};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Problem scale (the suite's test default — the scale Table III in
/// EXPERIMENTS.md was recorded at).
pub const SCALE: Scale = Scale { n: 32, iters: 4 };

/// Iteration cap handed to the loop (Table III's driver uses the same).
const MAX_ITERATIONS: usize = 12;

/// Σ iterations over the twelve benchmarks in EXPERIMENTS.md, Table III.
pub const TABLE3_TOTAL_ITERATIONS: i64 = 28;

struct Program {
    source: String,
    outputs: OutputSpec,
}

/// The interactive-loop workload.
pub struct InteractiveLoop {
    programs: Vec<Program>,
    rows: Vec<String>,
    known: Vec<Option<Answer>>,
    order: Vec<usize>,
}

fn answer_of_outcome(out: &InteractiveOutcome) -> Answer {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "converged={} incorrect={} transfers={} bytes={}",
        out.converged,
        out.incorrect_iterations,
        out.final_stats.total_count(),
        out.final_stats.total_bytes()
    );
    for round in &out.log {
        let _ = writeln!(
            text,
            "{} applied={:?} reverted={:?} errors={} ok={}",
            round.index, round.applied, round.reverted, round.errors, round.output_ok
        );
    }
    Answer {
        code: out.iterations as i64,
        digest: Fnv::new().str(&text).finish(),
    }
}

/// One loop to convergence; also returns the session for its counters.
fn run_loop(p: &Program) -> Result<(InteractiveOutcome, Session), String> {
    let session = Session::builder().build();
    let fe = session.frontend(&p.source).map_err(|e| e.to_string())?;
    let out = optimize_transfers_in_session(
        &session,
        &fe.program,
        &fe.sema,
        &TranslateOptions {
            instrument: true,
            ..Default::default()
        },
        &p.outputs,
        &ExecOptions {
            race_detect: false,
            ..Default::default()
        },
        MAX_ITERATIONS,
    )?;
    Ok((out, session))
}

impl InteractiveLoop {
    fn new(seed: u64, expected: &Expected) -> InteractiveLoop {
        let (rows, programs): (Vec<String>, Vec<Program>) = all(SCALE)
            .into_iter()
            .map(|b| {
                (
                    b.name.to_string(),
                    Program {
                        source: b.source(Variant::Unoptimized).to_string(),
                        outputs: b.outputs,
                    },
                )
            })
            .unzip();
        let known = rows.iter().map(|r| expected.get(r)).collect();
        let mut order: Vec<usize> = (0..rows.len()).collect();
        Rng::new(seed, Self::NAME).shuffle(&mut order);
        InteractiveLoop {
            programs,
            rows,
            known,
            order,
        }
    }

    fn run_op(&self, i: usize) -> Result<(Answer, bool), String> {
        catch_unwind(AssertUnwindSafe(|| {
            run_loop(&self.programs[i]).map(|(out, _)| (answer_of_outcome(&out), out.converged))
        }))
        .unwrap_or_else(|_| Err("panicked".to_string()))
    }
}

impl Workload for InteractiveLoop {
    const NAME: &'static str = "interactive_loop";
    const SCALE: &'static str = "n=32 iters=4";

    fn set_up(seed: u64, expected: &Expected) -> Result<(Self, Checks), String> {
        let w = InteractiveLoop::new(seed, expected);
        let mut checks = Checks::default();
        let mut iterations = 0;
        for &i in &w.order {
            let got = w.run_op(i);
            // Independent of the goldens: every loop converges with
            // outputs matching the sequential reference (the loop itself
            // compares them each round) …
            checks.note(matches!(got, Ok((_, true))), || {
                format!("{}: loop did not converge", w.rows[i])
            });
            let got = got.map(|(a, _)| a);
            iterations += got.as_ref().map_or(0, |a| a.code);
            checks.answer(expected, &w.rows[i], &got);
        }
        // … and the iteration counts are Table III's.
        checks.note(iterations == TABLE3_TOTAL_ITERATIONS, || {
            format!("Σ iterations = {iterations}, Table III says {TABLE3_TOTAL_ITERATIONS}")
        });
        Ok((w, checks))
    }

    fn rows(&self) -> &[String] {
        &self.rows
    }

    fn pass(&mut self) -> Result<PassSample, String> {
        let t = Instant::now();
        let ops = self
            .order
            .iter()
            .map(|&i| {
                let t = Instant::now();
                let got = self.run_op(i);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                OpSample {
                    row: i,
                    ms,
                    ok: got.is_ok_and(|(a, converged)| converged && Some(a) == self.known[i]),
                }
            })
            .collect();
        Ok(PassSample {
            wall_ms: t.elapsed().as_secs_f64() * 1e3,
            ops,
            missing: 0,
        })
    }

    fn traced_pass(&mut self, tracer: &mut Tracer) -> Result<TracedPass, String> {
        let mut out = TracedPass {
            layers: STAGE_LAYERS,
            ..Default::default()
        };
        for &i in &self.order {
            tracer.scope("op", i, |t| {
                t.scope("interactive.optimize", i, |t| {
                    let t0 = Instant::now();
                    let (outcome, session) = run_loop(&self.programs[i])
                        .map_err(|e| format!("{}: {e}", self.rows[i]))?;
                    out.opaque_ms += t0.elapsed().as_secs_f64() * 1e3;
                    out.attempted += 1;
                    out.failed += u64::from(
                        !outcome.converged || Some(answer_of_outcome(&outcome)) != self.known[i],
                    );
                    // The loop owns its rounds; what can be seen from
                    // outside is the session's per-stage wall clock.
                    let fresh = Session::builder().build().stage_times();
                    stage_spans(t, i, &fresh, &session.stage_times());
                    Ok::<(), String>(())
                })
            })?;
        }
        out.wall_ms = out.opaque_ms;
        Ok(out)
    }

    fn known_answers() -> Result<BTreeMap<String, Answer>, String> {
        let w = InteractiveLoop::new(0, &Expected::default());
        (0..w.rows.len())
            .map(|i| match w.run_op(i) {
                Ok((a, _)) => Ok((w.rows[i].clone(), a)),
                Err(e) => Err(format!("{}: {e}", w.rows[i])),
            })
            .collect()
    }
}

/// Per-layer probe: one pass over the twelve loops; returns Σ iterations
/// (Table III) and Σ translate calls the loops made on their sessions.
pub fn probe() -> Result<(u64, u64), String> {
    let w = InteractiveLoop::new(0, &Expected::default());
    let (mut iterations, mut translate_calls) = (0, 0);
    for (p, row) in w.programs.iter().zip(&w.rows) {
        let (out, session) = run_loop(p).map_err(|e| format!("{row}: {e}"))?;
        iterations += out.iterations as u64;
        let stats = session.stats();
        for stage in [Stage::Analysis, Stage::Instrument] {
            let c = stats.get(stage);
            translate_calls += c.hits + c.misses;
        }
    }
    Ok((iterations, translate_calls))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers_are_table_three() {
        let e = Expected::load(InteractiveLoop::NAME).unwrap();
        let fresh = InteractiveLoop::known_answers().unwrap();
        assert_eq!(Expected::from_rows(fresh.clone()), e, "regen is a no-op");
        assert_eq!(fresh.len(), 12);
        assert_eq!(
            fresh.values().map(|a| a.code).sum::<i64>(),
            TABLE3_TOTAL_ITERATIONS
        );
        let (_, checks) = InteractiveLoop::set_up(5, &e).unwrap();
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
    }
}
