//! What every workload has in common: the set-up/pass contract, the timed
//! loop, and the end-to-end metrics computed from its samples.

use crate::expected::{Answer, Expected};
use crate::span::Tracer;
use crate::stats;
use openarc_core::pipeline::Stage;
use std::collections::BTreeMap;
use std::time::Instant;

/// The seven workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 7] = [
    "compile_cold",
    "exec_host",
    "exec_verify",
    "interactive_loop",
    "disk_warm",
    "serve_closed",
    "fuzz_seeded",
];

/// How many times the untraced run repeats its set-up; `setup_s` is the
/// median of the repeats.
pub const SETUP_REPEATS: usize = 3;

/// Timed ops every run makes at least, whatever `--seconds` says:
/// `latency_ms_p95` needs ten samples beyond its rank.
pub const MIN_OPS: usize = 200;

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Row the op belongs to (index into [`Workload::rows`]).
    pub row: usize,
    /// Latency as the caller saw it, ms.
    pub ms: f64,
    /// Completed with the known answer.
    pub ok: bool,
}

/// One sweep over the workload's op list.
#[derive(Debug, Clone, Default)]
pub struct PassSample {
    /// Whole-pass wall time, ms.
    pub wall_ms: f64,
    /// Every op of the pass.
    pub ops: Vec<OpSample>,
    /// Ops the pass should have made but never executed (a fuzz campaign
    /// that stopped short): failed, with no latency to report.
    pub missing: u64,
}

/// Did an op complete with its known answer? An op without a known
/// answer (a row missing from the expected file) never has.
pub fn is_known(got: &Result<Answer, String>, want: Option<Answer>) -> bool {
    matches!((got, want), (Ok(a), Some(w)) if *a == w)
}

/// Outcome of the known-answer and independent checks of one set-up.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Check ops attempted.
    pub attempted: u64,
    /// Check ops whose answer was wrong, missing, or an error.
    pub failed: u64,
    /// One line per failure (printed, never fatal).
    pub notes: Vec<String>,
}

impl Checks {
    /// Record one check.
    pub fn note(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Record a known-answer comparison for `row`.
    pub fn answer(&mut self, expected: &Expected, row: &str, got: &Result<Answer, String>) {
        let want = expected.get(row);
        self.note(is_known(got, want), || {
            format!("{row}: expected {want:?}, got {got:?}")
        });
    }
}

/// What the traced pass of a workload reports besides its spans.
#[derive(Debug, Clone, Default)]
pub struct TracedPass {
    /// Whole-pass wall with the recorder on, measured as the timed passes
    /// measure [`PassSample::wall_ms`] (walks excluded), ms.
    pub wall_ms: f64,
    /// Σ latency of the opaque ops of the traced pass — the same calls the
    /// timed passes make — which the layer spans must add up to, ms.
    pub opaque_ms: f64,
    /// Span names whose self time counts as attributed layer time, with
    /// the `share.*` bucket each belongs to.
    pub layers: &'static [(&'static str, &'static str)],
    /// Attributed time that is a difference of two measurements rather
    /// than a span (serve overhead = served latency − bare handle), ms per
    /// `share.*` bucket.
    pub extra_ms: Vec<(&'static str, f64)>,
    /// Opaque ops of the traced pass.
    pub attempted: u64,
    /// Opaque ops that failed or gave a wrong answer.
    pub failed: u64,
}

/// `Session::stage_times()`: accumulated wall µs per stage.
pub type StageClock = [(Stage, f64); 7];

/// Span names of the stage clock, in [`Stage::ALL`] order.
const STAGE_SPANS: [&str; 7] = [
    "stage.frontend",
    "stage.directives",
    "stage.analysis",
    "stage.instrument",
    "stage.plan",
    "stage.execute",
    "stage.verify",
];

/// [`TracedPass::layers`] for workloads whose only view of the layers is
/// the stage clock. `stage.verify` wraps the two execute legs of a verify
/// request, which `stage.execute` already counts, and `stage.directives`
/// is never entered by `api::handle`: both are recorded, neither counted.
pub const STAGE_LAYERS: &[(&str, &str)] = &[
    ("stage.frontend", "minic"),
    ("stage.analysis", "translate"),
    ("stage.instrument", "translate"),
    ("stage.plan", "translate"),
    ("stage.execute", "execute"),
];

/// Record what a session's stage clock advanced by between `before` and
/// `after` as synthetic children of the innermost open span: the program's
/// own per-stage wall clock, read from outside.
pub fn stage_spans(t: &mut Tracer, op: usize, before: &StageClock, after: &StageClock) {
    let mut at = t.open_start_ns();
    for ((name, b), a) in STAGE_SPANS.iter().zip(before).zip(after) {
        at = t.synthetic(name, op, at, ((a.1 - b.1) * 1e3) as u64);
    }
}

/// A workload: seeded set-up, then identical passes.
pub trait Workload: Sized {
    /// Name as listed in `BENCHMARK.json`.
    const NAME: &'static str;

    /// Input scale, for the result file (`n=64 iters=4`, …).
    const SCALE: &'static str;

    /// Untimed preparation: generate the corpus from `seed`, check every
    /// row against its known answer (this is also the warm-up pass),
    /// populate stores, start daemons. Only harness failures are `Err`;
    /// a wrong answer is a failed check.
    fn set_up(seed: u64, expected: &Expected) -> Result<(Self, Checks), String>;

    /// Row ids (`BENCHMARK/variant/action`, …), independent of the seed.
    fn rows(&self) -> &[String];

    /// One timed pass, tracing off.
    fn pass(&mut self) -> Result<PassSample, String>;

    /// One pass with the benchmark's spans on: every op once as the
    /// opaque call the timed passes make, and once walked layer by layer.
    fn traced_pass(&mut self, tracer: &mut Tracer) -> Result<TracedPass, String>;

    /// Compute every row's answer from scratch (`regen-expected`).
    fn known_answers() -> Result<BTreeMap<String, Answer>, String>;
}

/// Everything one untraced run measured.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Row ids.
    pub rows: Vec<String>,
    /// Wall of each set-up repeat, s.
    pub setup_s: Vec<f64>,
    /// The timed passes.
    pub passes: Vec<PassSample>,
    /// Set-up checks (summed over the repeats).
    pub checks: Checks,
}

/// Should the timed loop make another pass? Stops at the pass boundary
/// nearest to `seconds` (never before [`MIN_OPS`] ops).
fn keep_going(elapsed_s: f64, passes: usize, ops: usize, seconds: f64) -> bool {
    if passes == 0 || ops < MIN_OPS {
        return true;
    }
    let mean_pass = elapsed_s / passes as f64;
    elapsed_s + mean_pass / 2.0 < seconds
}

/// Run the untraced measurement of workload `W`.
pub fn measure<W: Workload>(
    seed: u64,
    seconds: f64,
    expected: &Expected,
) -> Result<Measured, String> {
    let mut setup_s = Vec::new();
    let mut checks = Checks::default();
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous instance first so that stores and daemons of
        // two set-ups never coexist.
        drop(workload.take());
        let t = Instant::now();
        let (w, c) = W::set_up(seed, expected)?;
        setup_s.push(t.elapsed().as_secs_f64());
        checks.attempted += c.attempted;
        checks.failed += c.failed;
        // Every repeat makes the same checks: keep one copy of the notes.
        checks.notes = c.notes;
        workload = Some(w);
    }
    let mut w = workload.expect("SETUP_REPEATS > 0");
    let mut passes: Vec<PassSample> = Vec::new();
    let mut ops = 0;
    let t = Instant::now();
    while keep_going(t.elapsed().as_secs_f64(), passes.len(), ops, seconds) {
        let p = w.pass()?;
        ops += p.ops.len();
        passes.push(p);
    }
    Ok(Measured {
        rows: w.rows().to_vec(),
        setup_s,
        passes,
        checks,
    })
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value, all digits.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Per-row medians over passes, ms (`None` for a row no pass touched).
pub fn row_medians(m: &Measured) -> Vec<Option<f64>> {
    let mut per_row: Vec<Vec<f64>> = vec![Vec::new(); m.rows.len()];
    for p in &m.passes {
        // A row hit several times in one pass (a serve row's requests, a
        // fuzz campaign's programs) contributes its in-pass mean: what one
        // op of that row cost in that pass.
        let mut in_pass: Vec<(f64, u32)> = vec![(0.0, 0); m.rows.len()];
        for op in &p.ops {
            in_pass[op.row].0 += op.ms;
            in_pass[op.row].1 += 1;
        }
        for (row, (sum, n)) in in_pass.iter().enumerate() {
            if *n > 0 {
                per_row[row].push(sum / f64::from(*n));
            }
        }
    }
    per_row.iter().map(|s| stats::median(s)).collect()
}

/// Ops attempted and failed over the timed passes and the set-up checks.
pub fn attempted_failed(m: &Measured) -> (u64, u64) {
    let missing: u64 = m.passes.iter().map(|p| p.missing).sum();
    let timed: u64 = m.passes.iter().map(|p| p.ops.len() as u64).sum();
    let bad: u64 = m
        .passes
        .iter()
        .flat_map(|p| &p.ops)
        .filter(|op| !op.ok)
        .count() as u64;
    (
        timed + missing + m.checks.attempted,
        bad + missing + m.checks.failed,
    )
}

/// The end-to-end metrics of one untraced run, in `BENCHMARK.json` order.
/// `Err` names the metric that could not be computed (too few samples is a
/// harness failure: the run was too short to mean anything).
pub fn end_to_end(m: &Measured, peak_rss_mib: f64) -> Result<Vec<Metric>, String> {
    let need = |name: &str, v: Option<f64>| v.ok_or_else(|| format!("{name}: not enough samples"));
    let pass_ms: Vec<f64> = m.passes.iter().map(|p| p.wall_ms).collect();
    let ops_per_s: Vec<f64> = m
        .passes
        .iter()
        .map(|p| p.ops.iter().filter(|op| op.ok).count() as f64 / (p.wall_ms / 1e3))
        .collect();
    let latencies: Vec<f64> = m
        .passes
        .iter()
        .flat_map(|p| &p.ops)
        .map(|op| op.ms)
        .collect();
    let rows: Vec<f64> = row_medians(m).into_iter().flatten().collect();
    Ok(vec![
        Metric::new("setup_s", need("setup_s", stats::median(&m.setup_s))?, "s"),
        Metric::new(
            "pass_ms_p50",
            need("pass_ms_p50", stats::median(&pass_ms))?,
            "ms",
        ),
        Metric::new(
            "op_ms_geomean",
            need("op_ms_geomean", stats::geomean(&rows))?,
            "ms",
        ),
        Metric::new(
            "ops_per_s",
            need("ops_per_s", stats::median(&ops_per_s))?,
            "1/s",
        ),
        Metric::new(
            "latency_ms_p50",
            need("latency_ms_p50", stats::median(&latencies))?,
            "ms",
        ),
        Metric::new(
            "latency_ms_p95",
            need("latency_ms_p95", stats::percentile(&latencies, 0.95))?,
            "ms",
        ),
        Metric::new("peak_rss_mb", peak_rss_mib, "MiB"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(pass_walls: &[f64], ok: bool) -> Measured {
        Measured {
            rows: vec!["a".into(), "b".into()],
            setup_s: vec![0.3, 0.1, 0.2],
            passes: pass_walls
                .iter()
                .map(|w| PassSample {
                    missing: 0,
                    wall_ms: *w,
                    ops: (0..100)
                        .map(|i| OpSample {
                            row: i % 2,
                            ms: if i % 2 == 0 { 1.0 } else { 4.0 },
                            ok,
                        })
                        .collect(),
                })
                .collect(),
            checks: Checks::default(),
        }
    }

    #[test]
    fn metrics_are_medians_over_passes_and_rows() {
        let m = measured(&[500.0, 700.0, 510.0], true);
        let e2e = end_to_end(&m, 12.5).unwrap();
        let get = |n: &str| e2e.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("setup_s"), 0.2);
        assert_eq!(get("pass_ms_p50"), 510.0);
        assert!((get("op_ms_geomean") - 2.0).abs() < 1e-12);
        assert!((get("ops_per_s") - 100.0 / 0.51).abs() < 1e-9);
        assert_eq!(get("latency_ms_p50"), 2.5);
        assert_eq!(get("latency_ms_p95"), 4.0);
        assert_eq!(get("peak_rss_mb"), 12.5);
        assert_eq!(attempted_failed(&m), (300, 0));
    }

    #[test]
    fn failed_ops_count_and_do_not_earn_throughput() {
        let m = measured(&[500.0, 500.0, 500.0], false);
        assert_eq!(attempted_failed(&m), (300, 300));
        let e2e = end_to_end(&m, 1.0).unwrap();
        assert_eq!(
            e2e.iter().find(|x| x.name == "ops_per_s").unwrap().value,
            0.0
        );
    }

    #[test]
    fn too_short_a_run_names_the_metric_it_cannot_give() {
        let mut m = measured(&[500.0], true);
        m.passes[0].ops.truncate(50);
        let err = end_to_end(&m, 1.0).unwrap_err();
        assert!(err.starts_with("latency_ms_p95"), "{err}");
    }

    #[test]
    fn timed_loop_stops_at_the_boundary_nearest_the_budget() {
        assert!(keep_going(0.0, 0, 0, 1.0));
        assert!(keep_going(100.0, 9, MIN_OPS - 1, 1.0));
        // 4 passes of 2 s: 8 s elapsed, budget 10 → one more lands on 10.
        assert!(keep_going(8.0, 4, 1000, 10.0));
        // 4 passes of 2.4 s: 9.6 s elapsed → a fifth would end at 12.
        assert!(!keep_going(9.6, 4, 1000, 10.0));
        // One long pass already at the budget: stop.
        assert!(!keep_going(9.1, 1, 1500, 10.0));
    }
}
