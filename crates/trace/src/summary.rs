//! Per-category and per-kernel summaries of a journal.
//!
//! [`category_totals`] replays the journal's [`EventKind::Slice`] charges in
//! emission order, performing the *same* floating-point additions in the
//! *same* order as the simulator clock's `TimeBreakdown` — so the two
//! reconcile exactly, not approximately.

use crate::event::{CacheOp, Category, EventKind, Phase, TraceEvent};
use std::fmt;

/// Per-category host-time totals, in [`Category::ALL`] order.
///
/// Because slices are emitted at the instant the clock charges time, the
/// per-category sums here are bit-for-bit equal to the clock's
/// `TimeBreakdown` for the same run.
pub fn category_totals(events: &[TraceEvent]) -> [(Category, f64); 7] {
    let mut acc = [0.0f64; 7];
    for ev in events {
        if let EventKind::Slice { cat } = ev.kind {
            acc[cat as usize] += ev.dur_us;
        }
    }
    Category::ALL.map(|c| (c, acc[c as usize]))
}

/// Aggregated activity for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRow {
    /// Kernel name.
    pub name: String,
    /// Number of launches observed.
    pub launches: u64,
    /// Summed execution-span time, µs (async spans included).
    pub exec_us: f64,
    /// Host→device transfers attributed to this kernel's sites.
    pub h2d_count: u64,
    /// Bytes moved host→device.
    pub h2d_bytes: u64,
    /// Device→host transfers attributed to this kernel's sites.
    pub d2h_count: u64,
    /// Bytes moved device→host.
    pub d2h_bytes: u64,
    /// Verification verdicts that passed.
    pub verified_ok: u64,
    /// Verification verdicts that failed.
    pub verified_fail: u64,
    /// Largest absolute error across this kernel's verdicts.
    pub max_abs_err: f64,
    /// Transfer-report findings attributed to this kernel's sites.
    pub findings: u64,
}

/// A rendered-ready digest of a journal.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Host-time totals per category (reconciles with the clock).
    pub categories: [(Category, f64); 7],
    /// Sum over all categories, µs.
    pub total_us: f64,
    /// Per-kernel rows, in first-launch order.
    pub kernels: Vec<KernelRow>,
    /// Pipeline-stage wall-clock totals (label, µs, cache hits), in
    /// first-seen order. Empty unless the journal carries
    /// [`EventKind::Stage`] events from a staged pipeline session. These
    /// are *real* µs, so they are reported separately and never summed
    /// into [`Summary::total_us`] (which is simulated time).
    pub stages: Vec<(Phase, f64, u64)>,
    /// Disk-cache operation counts `(stage, op, count)` in first-seen
    /// order. Empty unless the journal carries [`EventKind::Cache`] events
    /// from a session with a disk-backed artifact store.
    pub cache: Vec<(Phase, CacheOp, u64)>,
    /// Per-device activity rows `(device, busy µs, spans, queues)`, sorted
    /// by device id. Busy time sums the durations of every span journaled
    /// on one of the device's queue tracks (kernel executions and async
    /// transfers); `queues` counts the distinct queue ids used. Empty when
    /// the journal holds no queue-track events.
    pub devices: Vec<DeviceRow>,
    /// End of the simulated timeline: the largest `ts_us + dur_us` over
    /// every journaled event, µs. Device utilization is measured against
    /// this span.
    pub makespan_us: f64,
    /// Events summarized.
    pub n_events: usize,
}

/// Aggregated queue-track activity for one simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceRow {
    /// Device id (`0` is the primary device).
    pub dev: u32,
    /// Summed span time on the device's queues, µs.
    pub busy_us: f64,
    /// Number of spans.
    pub spans: u64,
    /// Distinct queue ids used.
    pub queues: u64,
    /// Busy time over the run's makespan. Can exceed `1.0` when several
    /// of the device's queues overlap.
    pub util: f64,
    /// Idle gap: makespan minus busy time, floored at zero, µs.
    pub idle_us: f64,
}

/// Digest `events` into per-category totals and per-kernel rows.
pub fn summarize(events: &[TraceEvent]) -> Summary {
    let categories = category_totals(events);
    let total_us = categories.iter().map(|(_, t)| t).sum();

    let mut kernels: Vec<KernelRow> = Vec::new();
    let mut stages: Vec<(Phase, f64, u64)> = Vec::new();
    let mut cache: Vec<(Phase, CacheOp, u64)> = Vec::new();
    let row = |kernels: &mut Vec<KernelRow>, name: &str| -> usize {
        if let Some(i) = kernels.iter().position(|r| r.name == name) {
            return i;
        }
        kernels.push(KernelRow {
            name: name.to_string(),
            launches: 0,
            exec_us: 0.0,
            h2d_count: 0,
            h2d_bytes: 0,
            d2h_count: 0,
            d2h_bytes: 0,
            verified_ok: 0,
            verified_fail: 0,
            max_abs_err: 0.0,
            findings: 0,
        });
        kernels.len() - 1
    };

    for ev in events {
        match &ev.kind {
            EventKind::KernelLaunch { kernel, .. } => {
                let i = row(&mut kernels, kernel);
                kernels[i].launches += 1;
            }
            EventKind::KernelComplete { kernel } => {
                let i = row(&mut kernels, kernel);
                kernels[i].exec_us += ev.dur_us;
            }
            EventKind::Verification {
                kernel,
                passed,
                max_abs_err,
                ..
            } => {
                let i = row(&mut kernels, kernel);
                if *passed {
                    kernels[i].verified_ok += 1;
                } else {
                    kernels[i].verified_fail += 1;
                }
                if *max_abs_err > kernels[i].max_abs_err {
                    kernels[i].max_abs_err = *max_abs_err;
                }
            }
            EventKind::Stage { stage, cached } => {
                let i = match stages.iter().position(|(s, _, _)| s == stage) {
                    Some(i) => i,
                    None => {
                        stages.push((*stage, 0.0, 0));
                        stages.len() - 1
                    }
                };
                stages[i].1 += ev.dur_us;
                if *cached {
                    stages[i].2 += 1;
                }
            }
            EventKind::Cache { stage, op } => {
                let i = match cache.iter().position(|(s, o, _)| s == stage && o == op) {
                    Some(i) => i,
                    None => {
                        cache.push((*stage, *op, 0));
                        cache.len() - 1
                    }
                };
                cache[i].2 += 1;
            }
            _ => {}
        }
    }
    // Per-device busy rows from queue-track spans.
    let mut devices: Vec<DeviceRow> = Vec::new();
    let mut dev_queues: Vec<(u32, i64)> = Vec::new();
    for ev in events {
        let Some((dev, q)) = ev.track.dev_queue() else {
            continue;
        };
        let i = match devices.iter().position(|r| r.dev == dev) {
            Some(i) => i,
            None => {
                devices.push(DeviceRow {
                    dev,
                    busy_us: 0.0,
                    spans: 0,
                    queues: 0,
                    util: 0.0,
                    idle_us: 0.0,
                });
                devices.len() - 1
            }
        };
        if ev.dur_us > 0.0 {
            devices[i].busy_us += ev.dur_us;
            devices[i].spans += 1;
        }
        if !dev_queues.contains(&(dev, q)) {
            dev_queues.push((dev, q));
            devices[i].queues += 1;
        }
    }
    devices.sort_by_key(|r| r.dev);
    // Stage and Cache events carry *wall-clock* observations; the
    // makespan is a simulated-time quantity, so they are excluded.
    let makespan_us = events
        .iter()
        .filter(|e| !matches!(e.kind, EventKind::Stage { .. } | EventKind::Cache { .. }))
        .map(|e| e.ts_us + e.dur_us)
        .fold(0.0, f64::max);
    for r in &mut devices {
        if makespan_us > 0.0 {
            r.util = r.busy_us / makespan_us;
            r.idle_us = (makespan_us - r.busy_us).max(0.0);
        }
    }

    // Second pass: transfers and findings attach by report site, which only
    // matches kernels discovered above.
    let names: Vec<String> = kernels.iter().map(|r| r.name.clone()).collect();
    for ev in events {
        for (i, name) in names.iter().enumerate() {
            if !ev.matches_kernel(name) {
                continue;
            }
            match &ev.kind {
                EventKind::Transfer {
                    bytes, to_device, ..
                } => {
                    if *to_device {
                        kernels[i].h2d_count += 1;
                        kernels[i].h2d_bytes += bytes;
                    } else {
                        kernels[i].d2h_count += 1;
                        kernels[i].d2h_bytes += bytes;
                    }
                }
                EventKind::Finding { .. } => kernels[i].findings += 1,
                _ => {}
            }
        }
    }

    Summary {
        categories,
        total_us,
        kernels,
        stages,
        cache,
        devices,
        makespan_us,
        n_events: events.len(),
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "host time by category ({} events)", self.n_events)?;
        for (cat, us) in &self.categories {
            writeln!(f, "  {:<14} {:>14.3} us", cat.label(), us)?;
        }
        writeln!(f, "  {:<14} {:>14.3} us", "TOTAL", self.total_us)?;
        if !self.stages.is_empty() {
            writeln!(f)?;
            writeln!(f, "pipeline stages (wall clock)")?;
            for (stage, us, hits) in &self.stages {
                let hits = if *hits > 0 {
                    format!("  ({hits} cache hits)")
                } else {
                    String::new()
                };
                writeln!(f, "  {:<20} {:>14.3} us{}", stage.label(), us, hits)?;
            }
        }
        if !self.cache.is_empty() {
            writeln!(f)?;
            writeln!(f, "disk cache")?;
            for (stage, op, count) in &self.cache {
                writeln!(f, "  {:<20} {:<8} {:>6}", stage.label(), op.label(), count)?;
            }
        }
        if !self.devices.is_empty() {
            writeln!(f)?;
            writeln!(
                f,
                "  {:<8} {:>14} {:>7} {:>14} {:>8} {:>8}",
                "device", "busy us", "util", "idle us", "spans", "queues"
            )?;
            for r in &self.devices {
                writeln!(
                    f,
                    "  {:<8} {:>14.3} {:>6.1}% {:>14.3} {:>8} {:>8}",
                    format!("dev{}", r.dev),
                    r.busy_us,
                    r.util * 100.0,
                    r.idle_us,
                    r.spans,
                    r.queues,
                )?;
            }
        }
        if self.kernels.is_empty() {
            return Ok(());
        }
        writeln!(f)?;
        writeln!(
            f,
            "  {:<18} {:>8} {:>14} {:>16} {:>16} {:>10} {:>9}",
            "kernel", "launches", "exec us", "H2D", "D2H", "verify", "findings"
        )?;
        for r in &self.kernels {
            let verify = if r.verified_ok + r.verified_fail == 0 {
                "-".to_string()
            } else if r.verified_fail == 0 {
                format!("{} ok", r.verified_ok)
            } else {
                format!("{} FAIL", r.verified_fail)
            };
            writeln!(
                f,
                "  {:<18} {:>8} {:>14.3} {:>16} {:>16} {:>10} {:>9}",
                r.name,
                r.launches,
                r.exec_us,
                format!("{}x {} B", r.h2d_count, r.h2d_bytes),
                format!("{}x {} B", r.d2h_count, r.d2h_bytes),
                verify,
                r.findings,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Severity, Track};

    fn slice(ts: f64, dt: f64, cat: Category) -> TraceEvent {
        TraceEvent {
            ts_us: ts,
            dur_us: dt,
            track: Track::Host,
            kind: EventKind::Slice { cat },
        }
    }

    #[test]
    fn category_totals_sum_in_order() {
        let events = vec![
            slice(0.0, 1.5, Category::CpuTime),
            slice(1.5, 2.5, Category::MemTransfer),
            slice(4.0, 3.0, Category::CpuTime),
        ];
        let totals = category_totals(&events);
        let get = |c: Category| totals.iter().find(|(k, _)| *k == c).unwrap().1;
        assert_eq!(get(Category::CpuTime), 1.5 + 3.0);
        assert_eq!(get(Category::MemTransfer), 2.5);
        assert_eq!(get(Category::KernelExec), 0.0);
    }

    #[test]
    fn verify_stage_spans_aggregate_into_summary() {
        // The verified-launch pipeline's wall-clock spans surface in
        // `openarc profile --summary` through `Summary::stages`: one row
        // per label, durations summed across launches, in first-seen
        // order, never counted as cache hits.
        let span = |stage: Phase, dur: f64| TraceEvent {
            ts_us: 0.0,
            dur_us: dur,
            track: Track::Host,
            kind: EventKind::Stage {
                stage,
                cached: false,
            },
        };
        let events = vec![
            span(Phase::VerifyStaging, 2.0),
            span(Phase::VerifyOverlap, 10.0),
            span(Phase::VerifyCompare, 3.0),
            span(Phase::VerifyStaging, 1.0),
            span(Phase::VerifyOverlap, 5.0),
            span(Phase::VerifyCompare, 4.0),
        ];
        let s = summarize(&events);
        assert_eq!(
            s.stages,
            vec![
                (Phase::VerifyStaging, 3.0, 0),
                (Phase::VerifyOverlap, 15.0, 0),
                (Phase::VerifyCompare, 7.0, 0),
            ]
        );
        // Wall-clock spans never leak into the simulated-time totals.
        assert_eq!(s.total_us, 0.0);
        let shown = s.to_string();
        assert!(shown.contains("verify:staging"), "{shown}");
    }

    #[test]
    fn device_rows_aggregate_queue_track_spans() {
        let span = |dev: u32, id: i64, ts: f64, dur: f64| TraceEvent {
            ts_us: ts,
            dur_us: dur,
            track: Track::Queue { dev, id },
            kind: EventKind::KernelComplete { kernel: "k".into() },
        };
        let events = vec![
            span(1, 1, 0.0, 4.0),
            span(0, 1, 0.0, 2.0),
            span(0, 2, 2.0, 3.0),
            span(0, 1, 5.0, 1.0),
        ];
        let s = summarize(&events);
        // Makespan = latest span end = 6 µs.
        assert_eq!(s.makespan_us, 6.0);
        assert_eq!(
            s.devices,
            vec![
                DeviceRow {
                    dev: 0,
                    busy_us: 6.0,
                    spans: 3,
                    queues: 2,
                    util: 1.0,
                    idle_us: 0.0,
                },
                DeviceRow {
                    dev: 1,
                    busy_us: 4.0,
                    spans: 1,
                    queues: 1,
                    util: 4.0 / 6.0,
                    idle_us: 2.0,
                },
            ]
        );
        let shown = s.to_string();
        assert!(shown.contains("dev0"), "{shown}");
        assert!(shown.contains("dev1"), "{shown}");
        assert!(shown.contains("util"), "{shown}");
        assert!(shown.contains("idle us"), "{shown}");
    }

    #[test]
    fn kernels_aggregate_launches_exec_and_verdicts() {
        let mk = |kind| TraceEvent {
            ts_us: 0.0,
            dur_us: 0.0,
            track: Track::Host,
            kind,
        };
        let events = vec![
            mk(EventKind::KernelLaunch {
                kernel: "k0".into(),
                n_threads: 32,
                queue: None,
                dev: 0,
            }),
            TraceEvent {
                ts_us: 0.0,
                dur_us: 7.0,
                track: Track::queue0(1),
                kind: EventKind::KernelComplete {
                    kernel: "k0".into(),
                },
            },
            mk(EventKind::Verification {
                kernel: "k0".into(),
                passed: true,
                compared_elems: 32,
                mismatched_elems: 0,
                max_abs_err: 1e-9,
            }),
            mk(EventKind::Transfer {
                var: "a".into(),
                site: "k0".into(),
                bytes: 256,
                to_device: true,
            }),
            mk(EventKind::Finding {
                severity: Severity::Warning,
                kind: "Redundant".into(),
                var: "a".into(),
                site: "k0_in".into(),
                message: "m".into(),
            }),
        ];
        let s = summarize(&events);
        assert_eq!(s.kernels.len(), 1);
        let r = &s.kernels[0];
        assert_eq!(r.launches, 1);
        assert_eq!(r.exec_us, 7.0);
        assert_eq!(r.verified_ok, 1);
        assert_eq!(r.h2d_count, 1);
        assert_eq!(r.h2d_bytes, 256);
        assert_eq!(r.findings, 1);
        let shown = s.to_string();
        assert!(shown.contains("k0"), "{shown}");
        assert!(shown.contains("TOTAL"), "{shown}");
    }
}
