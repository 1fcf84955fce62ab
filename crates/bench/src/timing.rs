//! Minimal wall-clock measurement for the `pipeline` and `serve_load`
//! bins.
//!
//! The workspace builds offline with no external crates, so the bins
//! use this helper instead of Criterion: fixed sample count, p50 / p95 /
//! min / max over `std::time::Instant`, with a JSON rendering for
//! machine-readable reports (`BENCH_pipeline.json`).

use openarc_trace::json::Json;
use std::time::Instant;

/// Wall-clock stats over repeated runs of a closure, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Median (p50) sample.
    pub median_ns: u128,
    /// 95th-percentile sample (nearest-rank; equals the max for small
    /// sample counts).
    pub p95_ns: u128,
    /// Fastest sample.
    pub min_ns: u128,
    /// Slowest sample.
    pub max_ns: u128,
    /// Number of samples.
    pub samples: usize,
}

impl Stats {
    /// p50 in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.median_ns as f64 / 1e6
    }

    /// p95 in milliseconds.
    pub fn p95_ms(&self) -> f64 {
        self.p95_ns as f64 / 1e6
    }

    /// Minimum in milliseconds.
    pub fn min_ms(&self) -> f64 {
        self.min_ns as f64 / 1e6
    }

    /// JSON object (`p50_ms` / `p95_ms` / `min_ms` / `max_ms` / `samples`).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("p50_ms", Json::from(self.p50_ms())),
            ("p95_ms", Json::from(self.p95_ms())),
            ("min_ms", Json::from(self.min_ms())),
            ("max_ms", Json::from(self.max_ns as f64 / 1e6)),
            ("samples", Json::from(self.samples)),
        ])
    }
}

impl Stats {
    /// Stats over externally collected samples (nanoseconds) — e.g. the
    /// per-request latencies a load generator measured across many
    /// client threads. Panics on an empty sample set.
    pub fn from_samples(mut times: Vec<u128>) -> Stats {
        assert!(!times.is_empty(), "Stats::from_samples needs >= 1 sample");
        times.sort_unstable();
        // Nearest-rank percentile on the sorted samples.
        let rank = |p: usize| times[(p * (times.len() - 1) + 50) / 100];
        Stats {
            median_ns: rank(50),
            p95_ns: rank(95),
            min_ns: times[0],
            max_ns: *times.last().unwrap(),
            samples: times.len(),
        }
    }
}

/// Run `f` once as warmup, then `samples` timed times; returns the stats.
pub fn measure<T>(samples: usize, mut f: impl FnMut() -> T) -> Stats {
    std::hint::black_box(f());
    let mut times: Vec<u128> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed().as_nanos());
    }
    Stats::from_samples(times)
}

/// Measure and print one labelled row (`label  p50  p95  min  max`).
pub fn report<T>(label: &str, samples: usize, f: impl FnMut() -> T) -> Stats {
    let s = measure(samples, f);
    println!(
        "{:<28} p50 {:>10.3} ms   p95 {:>10.3} ms   min {:>10.3} ms   max {:>10.3} ms   ({} samples)",
        label,
        s.p50_ms(),
        s.p95_ms(),
        s.min_ms(),
        s.max_ns as f64 / 1e6,
        s.samples
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_orders_stats() {
        let s = measure(5, || (0..1000u64).sum::<u64>());
        assert_eq!(s.samples, 5);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.p95_ns);
        assert!(s.p95_ns <= s.max_ns);
    }

    #[test]
    fn from_samples_matches_measure_semantics() {
        let s = Stats::from_samples(vec![5, 1, 3, 2, 4]);
        assert_eq!(s.samples, 5);
        assert_eq!(s.min_ns, 1);
        assert_eq!(s.max_ns, 5);
        assert_eq!(s.median_ns, 3);
        assert_eq!(s.p95_ns, 5);
    }

    #[test]
    fn stats_render_to_json() {
        let s = measure(3, || 1 + 1);
        let j = s.to_json().pretty();
        assert!(j.contains("\"p50_ms\""));
        assert!(j.contains("\"p95_ms\""));
        assert!(j.contains("\"samples\": 3"));
    }
}
