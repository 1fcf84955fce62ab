//! Running one workload (untraced or traced), printing its metrics, and
//! driving every workload in child processes for `all` / `trace`.

use crate::expected::{bench_dir, Expected};
use crate::layers;
use crate::rss;
use crate::span::{chrome_json, self_time_by_name, Tracer};
use crate::stats;
use crate::workload::{
    attempted_failed, end_to_end, measure, row_medians, Metric, Workload, WORKLOADS,
};
use openarc_trace::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `run_seconds` of `BENCHMARK.json`: what `all` measures for when
/// `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// `share.*` buckets, in print order (`unattributed` is the remainder).
const SHARES: [&str; 6] = [
    "minic",
    "translate",
    "execute",
    "cache",
    "serve",
    "fuzz_oracle",
];

/// Names of the per-layer metrics a traced pass itself yields (after the
/// probes), in report order. All are ratios.
pub fn pass_metric_names() -> Vec<String> {
    ["bench.layer_coverage_ratio", "bench.trace_overhead_ratio"]
        .into_iter()
        .map(String::from)
        .chain(SHARES.iter().map(|b| format!("share.{b}")))
        .chain(["share.unattributed".to_string()])
        .collect()
}

/// `benchmark/results/`, created on demand (git-ignored by the root
/// `results/` rule).
pub fn results_dir() -> Result<PathBuf, String> {
    let dir = bench_dir().join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Write `doc` as `benchmark/results/<name>`.
pub fn write_json(name: &str, doc: &Json) -> Result<(), String> {
    let path = results_dir()?.join(name);
    std::fs::write(&path, format!("{}\n", doc.pretty()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::from(m.value)),
                        ("unit", Json::from(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Print one `workload metric value unit` line per metric, then — as the
/// last line of standard output — the result object of the contract.
fn finish(workload: &str, attempted: u64, failed: u64, metrics: &[Metric]) -> Result<(), String> {
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{}: measured a non-finite value", bad.name));
    }
    for m in metrics {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{workload} failed_share {} ratio",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::from(failed == 0)),
            ("attempted", Json::from(attempted.max(1))),
            ("failed", Json::from(failed)),
            ("metrics", metrics_json(metrics)),
        ])
    );
    Ok(())
}

/// The contract's `--trace 0` run of workload `W`.
pub fn untraced<W: Workload>(seed: u64, seconds: f64) -> Result<(), String> {
    let expected = Expected::load(W::NAME)?;
    let m = measure::<W>(seed, seconds, &expected)?;
    let metrics = end_to_end(&m, rss::peak_rss_mib()?)?;
    let (attempted, failed) = attempted_failed(&m);
    for note in &m.checks.notes {
        eprintln!("{}: failed check: {note}", W::NAME);
    }
    let medians = row_medians(&m);
    let mut rows = Vec::new();
    for (row, med) in m.rows.iter().zip(&medians) {
        if let Some(ms) = med {
            println!("{} row {row} {ms} ms", W::NAME);
            rows.push((row.as_str(), Json::from(*ms)));
        }
    }
    write_json(
        &format!("{}-{seed}.json", W::NAME),
        &Json::obj(vec![
            ("workload", Json::from(W::NAME)),
            ("scale", Json::from(W::SCALE)),
            ("seed", Json::from(seed)),
            ("seconds", Json::from(seconds)),
            ("nproc", Json::from(nproc())),
            ("setup_repeats", Json::from(m.setup_s.len())),
            ("passes", Json::from(m.passes.len())),
            (
                "op_samples",
                Json::from(m.passes.iter().map(|p| p.ops.len()).sum::<usize>()),
            ),
            ("rows", Json::from(m.rows.len())),
            ("check_ops", Json::from(m.checks.attempted)),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
            (
                "pass_ms",
                Json::Arr(m.passes.iter().map(|p| Json::from(p.wall_ms)).collect()),
            ),
            ("metrics", metrics_json(&metrics)),
            ("row_ms_p50", Json::obj(rows)),
        ]),
    )?;
    finish(W::NAME, attempted, failed, &metrics)
}

/// The contract's `--trace 1` run of workload `W`: one pass with the
/// benchmark's spans on, then the per-layer probes.
pub fn traced<W: Workload>(seed: u64) -> Result<(), String> {
    let expected = Expected::load(W::NAME)?;
    let (mut w, checks) = W::set_up(seed, &expected)?;
    for note in &checks.notes {
        eprintln!("{}: failed check: {note}", W::NAME);
    }
    // A few passes with tracing off, for the tracing-overhead ratio.
    let mut walls = Vec::new();
    let t = Instant::now();
    while walls.len() < 3 && (walls.is_empty() || t.elapsed() < Duration::from_secs(2)) {
        walls.push(w.pass()?.wall_ms);
    }
    let untraced_ms = stats::median(&walls).expect("at least one pass");
    let mut tracer = Tracer::new(Instant::now(), 0);
    let pass = w.traced_pass(&mut tracer)?;
    let spans = tracer.into_spans();

    let own = self_time_by_name(&spans);
    let mut buckets: BTreeMap<&str, f64> = SHARES.iter().map(|b| (*b, 0.0)).collect();
    let mut credit = |bucket: &str, ms: f64| match buckets.get_mut(bucket) {
        Some(total) => {
            *total += ms;
            Ok(())
        }
        None => Err(format!("{}: unknown share bucket `{bucket}`", W::NAME)),
    };
    for (name, bucket) in pass.layers {
        credit(bucket, own.get(name).copied().unwrap_or(0) as f64 / 1e6)?;
    }
    for (bucket, ms) in &pass.extra_ms {
        credit(bucket, *ms)?;
    }
    let coverage = buckets.values().sum::<f64>() / pass.opaque_ms;
    let mut values = vec![coverage, pass.wall_ms / untraced_ms];
    values.extend(SHARES.iter().map(|b| buckets[b] / pass.opaque_ms));
    values.push((1.0 - coverage).max(0.0));
    let mut metrics = layers::probe_all()?;
    metrics.extend(
        pass_metric_names()
            .into_iter()
            .zip(values)
            .map(|(name, v)| Metric::new(name, v, "ratio")),
    );

    // The spans, written once, now that nothing is being timed.
    let mut doc = chrome_json(&spans, w.rows());
    if let Json::Obj(pairs) = &mut doc {
        pairs.push(("workload".to_string(), Json::from(W::NAME)));
        pairs.push(("seed".to_string(), Json::from(seed)));
        pairs.push((
            "self_ms".to_string(),
            Json::Obj(
                own.iter()
                    .map(|(name, ns)| (name.to_string(), Json::from(*ns as f64 / 1e6)))
                    .collect(),
            ),
        ));
    }
    write_json(&format!("trace-{}-{seed}.json", W::NAME), &doc)?;
    for (name, ns) in &own {
        println!("{} self {name} {} ms", W::NAME, *ns as f64 / 1e6);
    }
    finish(
        W::NAME,
        checks.attempted + pass.attempted,
        checks.failed + pass.failed,
        &metrics,
    )
}

/// What a child run of the contract form printed.
pub struct Child {
    /// Everything before the result line.
    pub head: String,
    /// The result object.
    pub result: Json,
}

/// Run the contract form for one workload in a child process of this
/// executable and wait for it.
pub fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let text =
        String::from_utf8(out.stdout).map_err(|_| format!("{workload}: output not UTF-8"))?;
    let text = text.trim_end();
    let (head, last) = text.rsplit_once('\n').unwrap_or(("", text));
    Ok(Child {
        head: head.to_string(),
        result: Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?,
    })
}

/// `all` (untraced) and `trace`: every workload, one child each; prints
/// what the children print and writes the combined result file. Failed ops
/// never make this fail — only a harness failure does.
pub fn drive(seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    let mut results = Vec::new();
    for workload in WORKLOADS {
        let child = run_child(workload, seed, seconds, trace)?;
        println!("{}", child.head);
        // Fold in what the untraced child wrote beside its result line:
        // sample and pass counts, nproc, scale, seed, per-row medians.
        let mut result = child.result;
        if let (false, Json::Obj(pairs)) = (trace, &mut result) {
            let path = results_dir()?.join(format!("{workload}-{seed}.json"));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let detail = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            pairs.push(("detail".to_string(), detail));
        }
        results.push((workload, result));
    }
    let kind = if trace { "layers" } else { "run" };
    write_json(
        &format!("{kind}-{seed}.json"),
        &Json::obj(vec![
            ("seed", Json::from(seed)),
            ("seconds", Json::from(seconds)),
            ("nproc", Json::from(nproc())),
            ("trace", Json::from(trace)),
            ("workloads", Json::obj(results)),
        ]),
    )?;
    println!(
        "wrote {}",
        results_dir()?.join(format!("{kind}-{seed}.json")).display()
    );
    Ok(())
}
