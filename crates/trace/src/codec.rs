//! Faithful [`TraceEvent`] ↔ [`Json`] codec for the serve wire protocol.
//!
//! A served `profile` reply carries the run's journal, and the served
//! stream must equal the one-shot CLI's **bit-for-bit**: replies are
//! compared with `==` down to `f64` bits. Floating-point fields are
//! therefore encoded as their IEEE-754 bit patterns (`u64`), never as
//! decimal text — `NaN`, infinities and `-0.0` all round-trip exactly.
//!
//! `&'static str` fields ([`EventKind::Coherence`] sides/states/causes,
//! finding severities, pipeline-stage labels) are interned on decode
//! against the closed sets the stack actually emits; an unknown label is a
//! decode error. The label tables are shared with [`crate::bin`], the
//! journal's binary encoding inside cached run artifacts.

use crate::event::{Category, EventKind, TraceEvent, Track};
use crate::json::Json;

/// Coherence sides emitted by the runtime. Shared with [`crate::bin`],
/// whose u8 side codes index into this table (normative order — see
/// `docs/FORMAT.md`). `"gpu"` is the primary device; `"gpuN"` names
/// device N of a multi-device run (the simulator caps device counts at
/// 8, so the table is closed).
pub const SIDES: &[&str] = &[
    "cpu", "gpu", "gpu1", "gpu2", "gpu3", "gpu4", "gpu5", "gpu6", "gpu7",
];
/// Coherence states (the paper's three-state protocol). Binary codes
/// index into this table.
pub const STATES: &[&str] = &["notstale", "maystale", "stale"];
/// Coherence transition causes. Binary codes index into this table.
pub const CAUSES: &[&str] = &["write", "transfer", "reset", "dealloc"];
/// Finding severities (`IssueKind::severity`). Binary codes index into
/// this table.
pub const SEVERITIES: &[&str] = &["info", "warning", "error"];
/// Pipeline stage labels (`pipeline::Stage::label`). Binary codes index
/// into this table.
pub const STAGES: &[&str] = &[
    "frontend",
    "directives",
    "analysis",
    "instrument",
    "plan",
    "execute",
    "verify",
    // Verified-launch pipeline phases (core::exec stage journal).
    "verify:staging",
    "verify:overlap",
    "verify:compare",
];
/// Disk-cache operations. Binary codes index into this table.
pub const CACHE_OPS: &[&str] = &["hit", "miss", "store", "evict", "corrupt"];

/// Intern a decoded label against one of the closed sets above,
/// recovering the `&'static str` the stack originally emitted. An
/// unknown label is a decode error (the cache treats it as corruption).
pub fn intern(s: &str, known: &'static [&'static str], what: &str) -> Result<&'static str, String> {
    known
        .iter()
        .find(|k| **k == s)
        .copied()
        .ok_or_else(|| format!("unknown {what} label {s:?}"))
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing u64 field {key:?}"))
}

fn bool_field(v: &Json, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing bool field {key:?}"))
}

/// Encode an `f64` as its exact bit pattern.
pub fn f64_to_json(v: f64) -> Json {
    Json::U64(v.to_bits())
}

/// Decode an `f64` stored via [`f64_to_json`].
pub fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    Ok(f64::from_bits(u64_field(v, key)?))
}

/// Encode one event. See the module docs for the representation contract.
pub fn event_to_json(ev: &TraceEvent) -> Json {
    let mut pairs: Vec<(&str, Json)> = vec![
        ("ts", f64_to_json(ev.ts_us)),
        ("dur", f64_to_json(ev.dur_us)),
    ];
    if let Track::Queue { dev, id } = ev.track {
        pairs.push(("q", Json::I64(id)));
        // Device 0 is implicit so primary-device journals encode exactly
        // as they did before queues grew a device dimension.
        if dev != 0 {
            pairs.push(("qdev", Json::from(u64::from(dev))));
        }
    }
    let (tag, mut fields): (&str, Vec<(&str, Json)>) = match &ev.kind {
        EventKind::Slice { cat } => ("slice", vec![("cat", Json::from(cat.label()))]),
        EventKind::KernelLaunch {
            kernel,
            n_threads,
            queue,
            dev,
        } => {
            let mut fields = vec![
                ("kernel", Json::from(kernel.as_str())),
                ("n_threads", Json::from(*n_threads)),
                ("queue", queue.map(Json::I64).unwrap_or(Json::Null)),
            ];
            if *dev != 0 {
                fields.push(("dev", Json::from(u64::from(*dev))));
            }
            ("launch", fields)
        }
        EventKind::KernelComplete { kernel } => {
            ("complete", vec![("kernel", Json::from(kernel.as_str()))])
        }
        EventKind::DevAlloc { var, bytes } => (
            "alloc",
            vec![
                ("var", Json::from(var.as_str())),
                ("bytes", Json::from(*bytes)),
            ],
        ),
        EventKind::DevFree { var } => ("free", vec![("var", Json::from(var.as_str()))]),
        EventKind::Transfer {
            var,
            site,
            bytes,
            to_device,
        } => (
            "transfer",
            vec![
                ("var", Json::from(var.as_str())),
                ("site", Json::from(site.as_str())),
                ("bytes", Json::from(*bytes)),
                ("to_device", Json::from(*to_device)),
            ],
        ),
        EventKind::PresentHit { var } => ("present_hit", vec![("var", Json::from(var.as_str()))]),
        EventKind::PresentMiss { var } => ("present_miss", vec![("var", Json::from(var.as_str()))]),
        EventKind::Coherence {
            var,
            side,
            from,
            to,
            cause,
        } => (
            "coherence",
            vec![
                ("var", Json::from(var.as_str())),
                ("side", Json::from(*side)),
                ("from", Json::from(*from)),
                ("to", Json::from(*to)),
                ("cause", Json::from(*cause)),
            ],
        ),
        EventKind::Finding {
            severity,
            kind,
            var,
            site,
            message,
        } => (
            "finding",
            vec![
                ("severity", Json::from(*severity)),
                ("kind", Json::from(kind.as_str())),
                ("var", Json::from(var.as_str())),
                ("site", Json::from(site.as_str())),
                ("message", Json::from(message.as_str())),
            ],
        ),
        EventKind::Verification {
            kernel,
            passed,
            compared_elems,
            mismatched_elems,
            max_abs_err,
        } => (
            "verification",
            vec![
                ("kernel", Json::from(kernel.as_str())),
                ("passed", Json::from(*passed)),
                ("compared_elems", Json::from(*compared_elems)),
                ("mismatched_elems", Json::from(*mismatched_elems)),
                ("max_abs_err", f64_to_json(*max_abs_err)),
            ],
        ),
        EventKind::Stage { stage, cached } => (
            "stage",
            vec![
                ("stage", Json::from(*stage)),
                ("cached", Json::from(*cached)),
            ],
        ),
        EventKind::Cache { stage, op } => (
            "cache",
            vec![("stage", Json::from(*stage)), ("op", Json::from(*op))],
        ),
        EventKind::Serve { gauge, value } => (
            "serve",
            vec![
                ("gauge", Json::from(gauge.as_str())),
                ("value", f64_to_json(*value)),
            ],
        ),
    };
    pairs.push(("k", Json::from(tag)));
    pairs.append(&mut fields);
    Json::obj(pairs)
}

/// Decode one event encoded by [`event_to_json`].
pub fn event_from_json(v: &Json) -> Result<TraceEvent, String> {
    let ts_us = f64_field(v, "ts")?;
    let dur_us = f64_field(v, "dur")?;
    let track = match v.get("q") {
        Some(q) => Track::Queue {
            dev: match v.get("qdev") {
                Some(Json::Null) | None => 0,
                Some(d) => u32::try_from(
                    d.as_u64()
                        .ok_or_else(|| "queue device is not an integer".to_string())?,
                )
                .map_err(|_| "queue device out of range".to_string())?,
            },
            id: q
                .as_i64()
                .ok_or_else(|| "queue id is not an integer".to_string())?,
        },
        None => Track::Host,
    };
    let tag = str_field(v, "k")?;
    let kind = match tag {
        "slice" => {
            let label = str_field(v, "cat")?;
            let cat = Category::ALL
                .iter()
                .find(|c| c.label() == label)
                .copied()
                .ok_or_else(|| format!("unknown category {label:?}"))?;
            EventKind::Slice { cat }
        }
        "launch" => EventKind::KernelLaunch {
            kernel: str_field(v, "kernel")?.to_string(),
            n_threads: u64_field(v, "n_threads")?,
            queue: match v.get("queue") {
                Some(Json::Null) | None => None,
                Some(q) => Some(
                    q.as_i64()
                        .ok_or_else(|| "launch queue is not an integer".to_string())?,
                ),
            },
            dev: match v.get("dev") {
                Some(Json::Null) | None => 0,
                Some(d) => u32::try_from(
                    d.as_u64()
                        .ok_or_else(|| "launch device is not an integer".to_string())?,
                )
                .map_err(|_| "launch device out of range".to_string())?,
            },
        },
        "complete" => EventKind::KernelComplete {
            kernel: str_field(v, "kernel")?.to_string(),
        },
        "alloc" => EventKind::DevAlloc {
            var: str_field(v, "var")?.to_string(),
            bytes: u64_field(v, "bytes")?,
        },
        "free" => EventKind::DevFree {
            var: str_field(v, "var")?.to_string(),
        },
        "transfer" => EventKind::Transfer {
            var: str_field(v, "var")?.to_string(),
            site: str_field(v, "site")?.to_string(),
            bytes: u64_field(v, "bytes")?,
            to_device: bool_field(v, "to_device")?,
        },
        "present_hit" => EventKind::PresentHit {
            var: str_field(v, "var")?.to_string(),
        },
        "present_miss" => EventKind::PresentMiss {
            var: str_field(v, "var")?.to_string(),
        },
        "coherence" => EventKind::Coherence {
            var: str_field(v, "var")?.to_string(),
            side: intern(str_field(v, "side")?, SIDES, "side")?,
            from: intern(str_field(v, "from")?, STATES, "state")?,
            to: intern(str_field(v, "to")?, STATES, "state")?,
            cause: intern(str_field(v, "cause")?, CAUSES, "cause")?,
        },
        "finding" => EventKind::Finding {
            severity: intern(str_field(v, "severity")?, SEVERITIES, "severity")?,
            kind: str_field(v, "kind")?.to_string(),
            var: str_field(v, "var")?.to_string(),
            site: str_field(v, "site")?.to_string(),
            message: str_field(v, "message")?.to_string(),
        },
        "verification" => EventKind::Verification {
            kernel: str_field(v, "kernel")?.to_string(),
            passed: bool_field(v, "passed")?,
            compared_elems: u64_field(v, "compared_elems")?,
            mismatched_elems: u64_field(v, "mismatched_elems")?,
            max_abs_err: f64_field(v, "max_abs_err")?,
        },
        "stage" => EventKind::Stage {
            stage: intern(str_field(v, "stage")?, STAGES, "stage")?,
            cached: bool_field(v, "cached")?,
        },
        "cache" => EventKind::Cache {
            stage: intern(str_field(v, "stage")?, STAGES, "stage")?,
            op: intern(str_field(v, "op")?, CACHE_OPS, "cache op")?,
        },
        "serve" => EventKind::Serve {
            gauge: str_field(v, "gauge")?.to_string(),
            value: f64_field(v, "value")?,
        },
        other => return Err(format!("unknown event tag {other:?}")),
    };
    Ok(TraceEvent {
        ts_us,
        dur_us,
        track,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        let mk = |track, kind| TraceEvent {
            ts_us: 1.25,
            dur_us: 0.5,
            track,
            kind,
        };
        vec![
            mk(
                Track::Host,
                EventKind::Slice {
                    cat: Category::MemTransfer,
                },
            ),
            mk(
                Track::queue0(2),
                EventKind::KernelLaunch {
                    kernel: "k0".into(),
                    n_threads: 64,
                    queue: Some(2),
                    dev: 0,
                },
            ),
            mk(
                Track::queue0(2),
                EventKind::KernelComplete {
                    kernel: "k0".into(),
                },
            ),
            mk(
                Track::Queue { dev: 1, id: 2 },
                EventKind::KernelComplete {
                    kernel: "k0".into(),
                },
            ),
            mk(
                Track::Host,
                EventKind::DevAlloc {
                    var: "a".into(),
                    bytes: 512,
                },
            ),
            mk(Track::Host, EventKind::DevFree { var: "a".into() }),
            mk(
                Track::Host,
                EventKind::Transfer {
                    var: "a".into(),
                    site: "k0_in".into(),
                    bytes: 256,
                    to_device: true,
                },
            ),
            mk(Track::Host, EventKind::PresentHit { var: "a".into() }),
            mk(Track::Host, EventKind::PresentMiss { var: "b".into() }),
            mk(
                Track::Host,
                EventKind::Coherence {
                    var: "a".into(),
                    side: "gpu",
                    from: "maystale",
                    to: "notstale",
                    cause: "transfer",
                },
            ),
            mk(
                Track::Host,
                EventKind::Finding {
                    severity: "warning",
                    kind: "Redundant".into(),
                    var: "a".into(),
                    site: "k0_in".into(),
                    message: "line \"42\"\nredundant".into(),
                },
            ),
            mk(
                Track::Host,
                EventKind::Verification {
                    kernel: "k0".into(),
                    passed: false,
                    compared_elems: 64,
                    mismatched_elems: 3,
                    max_abs_err: 1e-3,
                },
            ),
            mk(
                Track::Host,
                EventKind::Stage {
                    stage: "frontend",
                    cached: true,
                },
            ),
            mk(
                Track::Host,
                EventKind::Cache {
                    stage: "execute",
                    op: "hit",
                },
            ),
            mk(
                Track::Host,
                EventKind::KernelLaunch {
                    kernel: "k1".into(),
                    n_threads: 1,
                    queue: None,
                    dev: 1,
                },
            ),
            mk(
                Track::Host,
                EventKind::Serve {
                    gauge: "queue_depth".into(),
                    value: 3.0,
                },
            ),
        ]
    }

    #[test]
    fn every_kind_round_trips_through_text() {
        for ev in sample_events() {
            let text = event_to_json(&ev).pretty();
            let back = event_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn f64_bits_survive_exactly() {
        for v in [0.0, -0.0, f64::NAN, f64::INFINITY, 0.1 + 0.2, 1e-300] {
            let ev = TraceEvent {
                ts_us: v,
                dur_us: -v,
                track: Track::Host,
                kind: EventKind::Slice {
                    cat: Category::CpuTime,
                },
            };
            let text = event_to_json(&ev).to_string();
            let back = event_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.ts_us.to_bits(), v.to_bits());
            assert_eq!(back.dur_us.to_bits(), (-v).to_bits());
        }
    }

    #[test]
    fn unknown_labels_are_decode_errors() {
        let mut v = event_to_json(&sample_events()[9]); // coherence
        if let Json::Obj(pairs) = &mut v {
            for (k, val) in pairs.iter_mut() {
                if k == "cause" {
                    *val = Json::from("frobnicate");
                }
            }
        }
        assert!(event_from_json(&v).is_err());
        assert!(event_from_json(&Json::obj(vec![("k", Json::from("nope"))])).is_err());
        assert!(event_from_json(&Json::Null).is_err());
    }
}
