//! Render a fuzz [`CampaignReport`] as the `BENCH_fuzz.json` document.
//!
//! The shape: top-level campaign counters, a latency block over the
//! per-program oracle times, the coverage-growth evidence (baseline atom
//! count, campaign atom count, the sorted list of new atoms) and one entry
//! per deduplicated finding. The CI `fuzz-smoke` job gates on `programs`,
//! `new_atoms` and `unminimized` from this file.

use openarc_core::fuzz::CampaignReport;
use openarc_trace::json::Json;

/// `BENCH_fuzz.json` for one campaign.
pub fn campaign_json(r: &CampaignReport) -> Json {
    let new_atoms: Vec<Json> = r
        .new_atoms()
        .into_iter()
        .map(|a| Json::Str(a.to_string()))
        .collect();
    let findings: Vec<Json> = r
        .findings
        .iter()
        .map(|f| {
            Json::obj(vec![
                ("kind", Json::Str(f.kind.name().to_string())),
                ("config", Json::Str(f.config.clone())),
                ("options", Json::Str(f.options.clone())),
                ("detail", Json::Str(f.detail.clone())),
                ("occurrences", Json::from(f.occurrences)),
                ("minimized_ok", Json::Bool(f.minimized_ok)),
                ("minimized_lines", Json::from(f.minimized.lines().count())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("seed", Json::U64(r.seed)),
        ("programs", Json::from(r.programs)),
        ("rejected", Json::from(r.rejected)),
        ("racy", Json::from(r.racy)),
        ("corpus", Json::from(r.corpus)),
        ("truncated", Json::Bool(r.truncated)),
        ("fingerprint", Json::Str(format!("{:016x}", r.fingerprint))),
        ("baseline_atoms", Json::from(r.baseline_coverage.len())),
        ("coverage_atoms", Json::from(r.coverage.len())),
        ("new_atoms", Json::Arr(new_atoms)),
        ("findings", Json::Arr(findings)),
        ("unminimized", Json::from(r.unminimized())),
        ("exec_per_program", latency_json(&r.exec_us)),
    ])
}

/// p50 / p95 / min / max in milliseconds plus the sample count over
/// per-program times in µs (nearest-rank percentiles on the samples
/// truncated to whole nanoseconds); `null` for an empty campaign.
fn latency_json(exec_us: &[f64]) -> Json {
    let mut ns: Vec<u128> = exec_us.iter().map(|us| (us * 1e3) as u128).collect();
    if ns.is_empty() {
        return Json::Null;
    }
    ns.sort_unstable();
    let ms = |i: usize| ns[i] as f64 / 1e6;
    let rank = |p: usize| ms((p * (ns.len() - 1) + 50) / 100);
    Json::obj(vec![
        ("p50_ms", Json::from(rank(50))),
        ("p95_ms", Json::from(rank(95))),
        ("min_ms", Json::from(ms(0))),
        ("max_ms", Json::from(ms(ns.len() - 1))),
        ("samples", Json::from(ns.len())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use openarc_core::fuzz::{run_campaign, CampaignConfig};

    #[test]
    fn report_renders_and_round_trips() {
        let r = run_campaign(&CampaignConfig {
            seed: 3,
            max_programs: 8,
            ..CampaignConfig::default()
        });
        let j = campaign_json(&r);
        let text = j.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("seed").and_then(Json::as_u64), Some(3));
        assert_eq!(
            back.get("programs").and_then(Json::as_u64),
            Some(r.programs as u64)
        );
        assert_eq!(
            back.get("fingerprint").and_then(Json::as_str),
            Some(format!("{:016x}", r.fingerprint).as_str())
        );
        // Coverage superset of the (empty-baseline) new-atom list.
        let atoms = back.get("new_atoms").and_then(Json::as_arr).unwrap();
        assert_eq!(atoms.len(), r.new_atoms().len());
    }

    #[test]
    fn empty_campaign_has_null_latency() {
        let r = run_campaign(&CampaignConfig {
            seed: 1,
            max_programs: 0,
            ..CampaignConfig::default()
        });
        let j = campaign_json(&r);
        assert_eq!(j.get("exec_per_program"), Some(&Json::Null));
        assert_eq!(j.get("programs").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn latency_takes_nearest_rank_percentiles() {
        let j = latency_json(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        let ms = |k: &str| j.get(k).and_then(Json::as_f64).unwrap();
        assert_eq!(ms("min_ms"), 1e3 / 1e6);
        assert_eq!(ms("p50_ms"), 3e3 / 1e6);
        assert_eq!(ms("p95_ms"), 5e3 / 1e6);
        assert_eq!(ms("max_ms"), 5e3 / 1e6);
        assert_eq!(j.get("samples").and_then(Json::as_u64), Some(5));
    }

    #[test]
    fn latency_renders_to_json() {
        let j = latency_json(&[2.0, 1.0, 3.0]).pretty();
        assert!(j.contains("\"p50_ms\""));
        assert!(j.contains("\"p95_ms\""));
        assert!(j.contains("\"samples\": 3"));
    }
}
