//! Human-readable event timelines — the evidence behind a report finding.
//!
//! `explain_var` filters the journal down to one variable's story:
//! allocations, present-table activity, coherence transitions, transfers
//! and findings, in timestamp order. The interactive session uses this to
//! answer "why was this transfer flagged redundant": the timeline shows a
//! D2H/H2D pair with no intervening coherence change on the source side.

use crate::event::{EventKind, TraceEvent};
use std::fmt::Write as _;

/// Render the timeline of every event mentioning `var`, one line per
/// event: `[timestamp] description`. Returns `None` when the journal has
/// nothing about the variable.
pub fn explain_var(events: &[TraceEvent], var: &str) -> Option<String> {
    let mut lines: Vec<(f64, String)> = Vec::new();
    for ev in events {
        if !ev.mentions_var(var) {
            continue;
        }
        let desc = match &ev.kind {
            EventKind::DevAlloc { bytes, .. } => {
                format!("device alloc ({bytes} B)")
            }
            EventKind::DevFree { .. } => "device free".to_string(),
            EventKind::PresentHit { .. } => "present-table hit (no new mapping)".to_string(),
            EventKind::PresentMiss { .. } => "present-table miss (mapping created)".to_string(),
            EventKind::Transfer {
                site,
                bytes,
                to_device,
                ..
            } => format!(
                "{} {bytes} B at site `{site}`",
                if *to_device {
                    "H2D transfer"
                } else {
                    "D2H transfer"
                }
            ),
            EventKind::Coherence {
                side,
                from,
                to,
                cause,
                ..
            } => {
                format!("{side} copy {from} -> {to} (cause: {cause})")
            }
            EventKind::Finding {
                severity,
                kind,
                site,
                message,
                ..
            } => {
                format!("{severity}: {kind} at `{site}` — {message}")
            }
            _ => continue,
        };
        lines.push((ev.ts_us, desc));
    }
    if lines.is_empty() {
        return None;
    }
    lines.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut out = format!("timeline for `{var}` ({} events):\n", lines.len());
    for (ts, desc) in lines {
        let _ = writeln!(out, "  [{ts:>12.3} us] {desc}");
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Severity, Track};

    fn at(ts: f64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            ts_us: ts,
            dur_us: 0.0,
            track: Track::Host,
            kind,
        }
    }

    #[test]
    fn timeline_filters_and_sorts() {
        let events = vec![
            at(
                5.0,
                EventKind::Transfer {
                    var: "a".into(),
                    site: "u1".into(),
                    bytes: 8,
                    to_device: true,
                },
            ),
            at(
                1.0,
                EventKind::DevAlloc {
                    var: "a".into(),
                    bytes: 64,
                },
            ),
            at(
                2.0,
                EventKind::DevAlloc {
                    var: "b".into(),
                    bytes: 128,
                },
            ),
            at(
                6.0,
                EventKind::Finding {
                    severity: Severity::Warning,
                    kind: "Redundant".into(),
                    var: "a".into(),
                    site: "u1".into(),
                    message: "already up to date".into(),
                },
            ),
        ];
        let text = explain_var(&events, "a").unwrap();
        let alloc_pos = text.find("device alloc").unwrap();
        let h2d_pos = text.find("H2D transfer").unwrap();
        let finding_pos = text.find("Redundant").unwrap();
        assert!(alloc_pos < h2d_pos && h2d_pos < finding_pos, "{text}");
        assert!(!text.contains("128"), "other vars excluded: {text}");
        assert!(explain_var(&events, "zzz").is_none());
    }
}
