//! The benchmark's own tooling gates.
//!
//! `selfcheck` runs every workload twice with the same seed and reduced
//! `--seconds`, and the traced run twice; every end-to-end metric must
//! agree within its own bound from `BENCHMARK.json` and every *count*
//! layer metric must repeat exactly.
//!
//! `spread` runs every workload once per seed over consecutive seeds and
//! reports, per end-to-end metric, the inter-quartile range as a share of
//! the median — the steadiness figure a bound has to be judged against.

use crate::expected::repo_root;
use crate::report::{run_child, write_json};
use crate::stats;
use crate::workload::WORKLOADS;
use openarc_trace::json::Json;

/// `--seconds` of the reduced runs.
pub const SECONDS: f64 = 2.0;

/// Workload whose traced run is repeated: the probes behind the count
/// metrics are the same whichever workload carries them.
const TRACED: &str = "compile_cold";

fn metric_values(result: &Json) -> Result<Vec<(String, f64, String)>, String> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result without `metrics`")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                _ => Err(format!("metric `{name}` without value and unit")),
            }
        })
        .collect()
}

/// The repository's `BENCHMARK.json`.
fn benchmark_json() -> Result<Json, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    benchmark_json()?
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json without `end_to_end`")?
        .iter()
        .map(|m| {
            match (
                m.get("name").and_then(Json::as_str),
                m.get("bound").and_then(Json::as_f64),
            ) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err("end_to_end entry without name and bound".to_string()),
            }
        })
        .collect()
}

/// Do two readings of one metric agree within `bound` of the smaller?
pub fn agree(a: f64, b: f64, bound: f64) -> bool {
    (a - b).abs() <= bound * a.abs().min(b.abs())
}

/// Run the self-check; `Err` names every offending metric and workload.
pub fn run(seed: u64, seconds: f64) -> Result<(), String> {
    let bounds = bounds()?;
    let mut offenders = Vec::new();
    for workload in WORKLOADS {
        let a = metric_values(&run_child(workload, seed, seconds, false)?.result)?;
        let b = metric_values(&run_child(workload, seed, seconds, false)?.result)?;
        for ((name, va, _), (_, vb, _)) in a.iter().zip(&b) {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("`{name}` is not in BENCHMARK.json"))?;
            let ok = agree(*va, *vb, bound);
            println!(
                "{workload} {name} {va} vs {vb} (bound {bound}) {}",
                if ok { "ok" } else { "DISAGREE" }
            );
            if !ok {
                offenders.push(format!(
                    "{workload}/{name}: {va} vs {vb} exceeds bound {bound}"
                ));
            }
        }
    }
    let a = metric_values(&run_child(TRACED, seed, seconds, true)?.result)?;
    let b = metric_values(&run_child(TRACED, seed, seconds, true)?.result)?;
    for ((name, va, unit), (_, vb, _)) in a.iter().zip(&b) {
        if unit == "count" {
            let ok = va == vb;
            println!(
                "{TRACED} {name} {va} vs {vb} {}",
                if ok { "ok" } else { "DIFFER" }
            );
            if !ok {
                offenders.push(format!(
                    "{TRACED}/{name}: count {va} vs {vb} does not repeat"
                ));
            }
        }
    }
    if offenders.is_empty() {
        println!("selfcheck ok");
        Ok(())
    } else {
        Err(format!("selfcheck failed:\n  {}", offenders.join("\n  ")))
    }
}

/// Run every workload under `runs` consecutive seeds and print each
/// end-to-end metric's median and spread next to its bound. A spread
/// above a third of the bound is marked: such a metric cannot carry a
/// claim at that bound.
pub fn spread(seed: u64, seconds: f64, runs: u64) -> Result<(), String> {
    let bounds = bounds()?;
    let mut doc = Vec::new();
    for workload in WORKLOADS {
        let mut samples: Vec<(String, Vec<f64>)> = Vec::new();
        for s in seed..seed + runs {
            let result = run_child(workload, s, seconds, false)?.result;
            for (i, (name, v, _)) in metric_values(&result)?.into_iter().enumerate() {
                if samples.len() <= i {
                    samples.push((name, Vec::new()));
                }
                samples[i].1.push(v);
            }
        }
        let mut rows = Vec::new();
        for (name, values) in &samples {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |x| x.1);
            let median = stats::median(values).ok_or("spread needs at least one run")?;
            let spread = stats::iqr_share(values).ok_or("spread needs at least two runs")?;
            println!(
                "{workload} {name} median {median} spread {spread:.4} bound {bound} {}",
                if spread <= bound / 3.0 { "ok" } else { "WIDE" }
            );
            rows.push((
                name.as_str(),
                Json::obj(vec![
                    ("median", Json::from(median)),
                    ("iqr_share", Json::from(spread)),
                    ("bound", Json::from(bound)),
                    (
                        "values",
                        Json::Arr(values.iter().map(|v| Json::from(*v)).collect()),
                    ),
                ]),
            ));
        }
        doc.push((workload, Json::obj(rows)));
    }
    write_json(
        &format!("spread-{seed}.json"),
        &Json::obj(vec![
            ("first_seed", Json::from(seed)),
            ("runs", Json::from(runs)),
            ("seconds", Json::from(seconds)),
            ("workloads", Json::obj(doc)),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_is_relative_to_the_smaller_reading() {
        assert!(agree(100.0, 104.9, 0.05));
        assert!(!agree(100.0, 105.1, 0.05));
        assert!(agree(105.0, 100.0, 0.05));
        assert!(agree(0.0, 0.0, 0.05));
    }

    #[test]
    fn every_reported_metric_has_a_bound_in_benchmark_json() {
        let names: Vec<String> = bounds().unwrap().into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "pass_ms_p50",
                "op_ms_geomean",
                "ops_per_s",
                "latency_ms_p50",
                "latency_ms_p95",
                "peak_rss_mb"
            ]
        );
    }

    #[test]
    fn benchmark_json_lists_the_workloads_and_the_per_layer_metrics_as_reported() {
        let doc = benchmark_json().unwrap();
        let names = |key: &str, field: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let get = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (get("name"), get(field))
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads", "why").into_iter().map(|x| x.0).collect();
        assert_eq!(workloads, WORKLOADS);
        // What a traced run reports: every probe, then the pass's own rows.
        let mut reported: Vec<(String, String)> = crate::layers::probe_all()
            .unwrap()
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect();
        reported.extend(
            crate::report::pass_metric_names()
                .into_iter()
                .map(|n| (n, "ratio".to_string())),
        );
        assert_eq!(names("per_layer", "unit"), reported);
    }

    #[test]
    fn layer_map_names_every_per_layer_metric_once() {
        let path = crate::expected::bench_dir().join("layer_map.json");
        let map = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let mut mapped: Vec<String> = map
            .get("layers")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .flat_map(|l| l.get("metrics").and_then(Json::as_arr).unwrap())
            .map(|m| m.as_str().unwrap().to_string())
            .collect();
        let mut listed: Vec<String> = benchmark_json()
            .unwrap()
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        mapped.sort();
        listed.sort();
        assert_eq!(mapped, listed);
        let shares = map.get("measured_shares").and_then(Json::as_obj).unwrap();
        let workloads: Vec<&str> = shares.iter().map(|(w, _)| w.as_str()).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_objects_flatten_to_name_value_unit() {
        let doc = Json::parse(
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"a":{"value":1.5,"unit":"ms"},"n":{"value":7,"unit":"count"}}}"#,
        )
        .unwrap();
        assert_eq!(
            metric_values(&doc).unwrap(),
            vec![
                ("a".to_string(), 1.5, "ms".to_string()),
                ("n".to_string(), 7.0, "count".to_string())
            ]
        );
        assert!(metric_values(&Json::Null).is_err());
    }
}
