//! Chrome `trace_event` export.
//!
//! Produces the JSON Object Format understood by `chrome://tracing`,
//! Perfetto and Speedscope: a `traceEvents` array of complete (`"X"`) and
//! instant (`"i"`) events. The mapping:
//!
//! * timestamps/durations are the simulator's microseconds, unchanged
//!   (`ts`/`dur` are specified in µs);
//! * the host timeline is `tid 0`; each `(device, queue)` pair gets its
//!   own `tid` (`1 + rank` in sorted `(device, queue)` order), named via
//!   `thread_name` metadata — `async queue N` on the primary device,
//!   `devD async queue N` on others;
//! * slices and spans become `"X"` events; everything else becomes a
//!   thread-scoped `"i"` instant;
//! * the payload (bytes, direction, coherence states, verdicts…) lands in
//!   `args`, so clicking an event in the viewer shows the evidence.

use crate::event::{EventKind, TraceEvent, Track};
use crate::json::Json;

/// The `pid` every event is tagged with.
const PID: u64 = 1;

fn tid_of(track: Track, queue_tids: &[((u32, i64), u64)]) -> u64 {
    match track.dev_queue() {
        None => 0,
        Some(key) => queue_tids
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, t)| *t)
            .unwrap_or(999),
    }
}

fn args_of(ev: &TraceEvent) -> Json {
    match &ev.kind {
        EventKind::Slice { cat } => Json::obj(vec![("category", Json::from(cat.label()))]),
        EventKind::KernelLaunch {
            kernel,
            n_threads,
            queue,
            dev,
        } => {
            let mut pairs = vec![
                ("kernel", Json::from(kernel.as_str())),
                ("n_threads", Json::from(*n_threads)),
                ("queue", queue.map(Json::I64).unwrap_or(Json::Null)),
            ];
            if *dev != 0 {
                pairs.push(("device", Json::from(u64::from(*dev))));
            }
            Json::obj(pairs)
        }
        EventKind::KernelComplete { kernel } => {
            Json::obj(vec![("kernel", Json::from(kernel.as_str()))])
        }
        EventKind::DevAlloc { var, bytes } => Json::obj(vec![
            ("var", Json::from(var.as_str())),
            ("bytes", Json::from(*bytes)),
        ]),
        EventKind::DevFree { var } => Json::obj(vec![("var", Json::from(var.as_str()))]),
        EventKind::Transfer {
            var,
            site,
            bytes,
            to_device,
        } => Json::obj(vec![
            ("var", Json::from(var.as_str())),
            ("site", Json::from(site.as_str())),
            ("bytes", Json::from(*bytes)),
            (
                "direction",
                Json::from(if *to_device { "H2D" } else { "D2H" }),
            ),
        ]),
        EventKind::PresentHit { var } | EventKind::PresentMiss { var } => {
            Json::obj(vec![("var", Json::from(var.as_str()))])
        }
        EventKind::Coherence {
            var,
            side,
            from,
            to,
            cause,
        } => Json::obj(vec![
            ("var", Json::from(var.as_str())),
            ("side", Json::from(side.label())),
            ("from", Json::from(from.label())),
            ("to", Json::from(to.label())),
            ("cause", Json::from(cause.label())),
        ]),
        EventKind::Finding {
            severity,
            kind,
            var,
            site,
            message,
        } => Json::obj(vec![
            ("severity", Json::from(severity.label())),
            ("kind", Json::from(kind.as_str())),
            ("var", Json::from(var.as_str())),
            ("site", Json::from(site.as_str())),
            ("message", Json::from(message.as_str())),
        ]),
        EventKind::Verification {
            kernel,
            passed,
            compared_elems,
            mismatched_elems,
            max_abs_err,
        } => Json::obj(vec![
            ("kernel", Json::from(kernel.as_str())),
            ("passed", Json::from(*passed)),
            ("compared_elems", Json::from(*compared_elems)),
            ("mismatched_elems", Json::from(*mismatched_elems)),
            ("max_abs_err", Json::from(*max_abs_err)),
        ]),
        EventKind::Stage { stage, cached } => Json::obj(vec![
            ("stage", Json::from(stage.label())),
            ("cached", Json::from(*cached)),
        ]),
        EventKind::Cache { stage, op } => Json::obj(vec![
            ("stage", Json::from(stage.label())),
            ("op", Json::from(op.label())),
        ]),
        EventKind::Serve { gauge, value } => Json::obj(vec![
            ("gauge", Json::from(gauge.as_str())),
            ("value", Json::from(*value)),
        ]),
    }
}

fn meta(name: &str, tid: u64, value: &str) -> Json {
    Json::obj(vec![
        ("name", Json::from(name)),
        ("ph", Json::from("M")),
        ("pid", Json::from(PID)),
        ("tid", Json::from(tid)),
        ("args", Json::obj(vec![("name", Json::from(value))])),
    ])
}

/// Render events as a Chrome `trace_event` JSON document.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    // Stable (device, queue) → tid assignment: sorted keys, starting at
    // tid 1 — so a single-device trace lays out exactly as before queues
    // grew a device dimension.
    let mut queues: Vec<(u32, i64)> = events.iter().filter_map(|e| e.track.dev_queue()).collect();
    queues.sort_unstable();
    queues.dedup();
    let queue_tids: Vec<((u32, i64), u64)> = queues
        .iter()
        .enumerate()
        .map(|(i, key)| (*key, i as u64 + 1))
        .collect();

    let mut out: Vec<Json> = Vec::with_capacity(events.len() + queue_tids.len() + 2);
    out.push(meta("process_name", 0, "openarc simulated machine"));
    out.push(meta("thread_name", 0, "host"));
    for ((dev, q), tid) in &queue_tids {
        let name = if *dev == 0 {
            format!("async queue {q}")
        } else {
            format!("dev{dev} async queue {q}")
        };
        out.push(meta("thread_name", *tid, &name));
    }
    for ev in events {
        let tid = tid_of(ev.track, &queue_tids);
        let mut pairs: Vec<(&str, Json)> = vec![
            ("name", Json::from(ev.name())),
            ("cat", Json::from(ev.chrome_category())),
        ];
        if ev.dur_us > 0.0 {
            pairs.push(("ph", Json::from("X")));
            pairs.push(("ts", Json::F64(ev.ts_us)));
            pairs.push(("dur", Json::F64(ev.dur_us)));
        } else {
            pairs.push(("ph", Json::from("i")));
            pairs.push(("ts", Json::F64(ev.ts_us)));
            pairs.push(("s", Json::from("t")));
        }
        pairs.push(("pid", Json::from(PID)));
        pairs.push(("tid", Json::from(tid)));
        pairs.push(("args", args_of(ev)));
        out.push(Json::obj(pairs));
    }

    Json::obj(vec![
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", Json::from("ms")),
        (
            "otherData",
            Json::obj(vec![("generator", Json::from("openarc profile"))]),
        ),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Category;

    fn ev(ts: f64, dur: f64, track: Track, kind: EventKind) -> TraceEvent {
        TraceEvent {
            ts_us: ts,
            dur_us: dur,
            track,
            kind,
        }
    }

    #[test]
    fn spans_and_instants_map_to_x_and_i() {
        let events = vec![
            ev(
                0.0,
                5.0,
                Track::Host,
                EventKind::Slice {
                    cat: Category::CpuTime,
                },
            ),
            ev(
                5.0,
                0.0,
                Track::Host,
                EventKind::DevFree { var: "a".into() },
            ),
        ];
        let s = chrome_trace(&events);
        assert!(s.contains(r#""ph": "X""#), "{s}");
        assert!(s.contains(r#""ph": "i""#), "{s}");
        assert!(s.contains(r#""traceEvents""#));
        assert!(s.contains(r#""displayTimeUnit": "ms""#));
    }

    #[test]
    fn queues_get_stable_tids_and_names() {
        let events = vec![
            ev(
                0.0,
                3.0,
                Track::queue0(4),
                EventKind::KernelComplete { kernel: "k".into() },
            ),
            ev(
                0.0,
                3.0,
                Track::queue0(1),
                EventKind::KernelComplete { kernel: "k".into() },
            ),
        ];
        let s = chrome_trace(&events);
        assert!(s.contains(r#""name": "async queue 1""#), "{s}");
        assert!(s.contains(r#""name": "async queue 4""#), "{s}");
        // Queue 1 sorts first → tid 1; queue 4 → tid 2.
        let i1 = s.find("async queue 1").unwrap();
        let i4 = s.find("async queue 4").unwrap();
        assert!(i1 < i4);
    }

    #[test]
    fn each_device_queue_pair_gets_its_own_lane() {
        let events = vec![
            ev(
                0.0,
                3.0,
                Track::Queue { dev: 1, id: 1 },
                EventKind::KernelComplete { kernel: "a".into() },
            ),
            ev(
                0.0,
                3.0,
                Track::queue0(1),
                EventKind::KernelComplete { kernel: "b".into() },
            ),
        ];
        let s = chrome_trace(&events);
        // Primary-device lane keeps its legacy name; device 1 is named.
        assert!(s.contains(r#""name": "async queue 1""#), "{s}");
        assert!(s.contains(r#""name": "dev1 async queue 1""#), "{s}");
        // (0, 1) sorts before (1, 1) → tids 1 and 2.
        let i0 = s.find(r#""name": "async queue 1""#).unwrap();
        let i1 = s.find(r#""name": "dev1 async queue 1""#).unwrap();
        assert!(i0 < i1);
    }

    #[test]
    fn args_carry_payload() {
        let events = vec![ev(
            1.0,
            2.0,
            Track::Host,
            EventKind::Transfer {
                var: "b".into(),
                site: "update0".into(),
                bytes: 512,
                to_device: false,
            },
        )];
        let s = chrome_trace(&events);
        assert!(s.contains(r#""direction": "D2H""#), "{s}");
        assert!(s.contains(r#""bytes": 512"#), "{s}");
        assert!(s.contains(r#""site": "update0""#), "{s}");
    }
}
