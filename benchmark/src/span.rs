//! The benchmark's own spans: name, start, end, parent and the op's id,
//! kept in memory and written once when the run ends. A layer's self time
//! is its span minus the part its direct children cover.
//!
//! Spans are recorded only in the traced run, from the benchmark's own
//! code around the calls into each layer; end-to-end numbers never come
//! from a run that records them.

use openarc_trace::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in its recorder.
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (request, loop, campaign) every span of one walk shares.
    pub op: usize,
    /// Layer name (`minic.parse`, `api.handle`, …).
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Recorder lane (thread) — the Chrome trace `tid`.
    pub lane: usize,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread. Spans nest by call order: `scope` inside
/// `scope` records a child.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    lane: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch` (share one epoch
    /// across the lanes of one run).
    pub fn new(epoch: Instant, lane: usize) -> Tracer {
        Tracer {
            epoch,
            lane,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record `f` as one span named `name` belonging to op `op`.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        op: usize,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op,
            name,
            start_ns,
            end_ns: start_ns,
            lane: self.lane,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Record an already-measured interval as a child of the innermost
    /// open span: used where the duration comes from the program's own
    /// counters read from outside (`Session::stage_times`, the fuzzer's
    /// per-program times) and the true start is not observable. Such spans
    /// are laid end to end from `start_ns`; returns the end.
    pub fn synthetic(&mut self, name: &'static str, op: usize, start_ns: u64, dur_ns: u64) -> u64 {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            lane: self.lane,
        });
        start_ns + dur_ns
    }

    /// The epoch timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Append the closed spans of another lane of the same epoch (ids and
    /// parent links are re-based; their roots stay roots).
    pub fn adopt(&mut self, lane: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(lane.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Start of the innermost open span (where synthetic children begin).
    pub fn open_start_ns(&self) -> u64 {
        self.open
            .last()
            .map(|id| self.spans[*id].start_ns)
            .unwrap_or(0)
    }

    /// The closed spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "tracer dropped with open spans");
        self.spans
    }
}

/// Self time per span: duration minus the summed durations of its direct
/// children (saturating — synthetic children may overhang by rounding).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| s.dur_ns().saturating_sub(child_sum[s.id]))
        .collect()
}

/// Total self time per span name, ns.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

/// Chrome `trace_event` document (complete events, µs) carrying every
/// span's id, parent and op in `args`.
pub fn chrome_json(spans: &[Span], rows: &[String]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![("id", Json::from(s.id)), ("op", Json::from(s.op))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::from(p)));
            }
            if let Some(row) = rows.get(s.op) {
                args.push(("row", Json::from(row.as_str())));
            }
            Json::obj(vec![
                ("name", Json::from(s.name)),
                ("ph", Json::from("X")),
                ("ts", Json::from(s.start_ns as f64 / 1e3)),
                ("dur", Json::from(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(s.lane)),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("displayTimeUnit", Json::from("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns: start,
            end_ns: end,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "walk", 10, 90),
            span(2, Some(1), "parse", 10, 30),
            span(3, Some(1), "execute", 30, 80),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 10, 20, 50]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["op"], 20);
        assert_eq!(by_name["walk"], 10);
        assert_eq!(by_name["execute"], 50);
        // Self times partition the root.
        assert_eq!(by_name.values().sum::<u64>(), 100);
    }

    #[test]
    fn overhanging_synthetic_children_saturate_at_zero() {
        let spans = vec![span(0, None, "op", 0, 10), span(1, Some(0), "stage", 0, 12)];
        assert_eq!(self_times_ns(&spans), vec![0, 12]);
    }

    #[test]
    fn scopes_nest_by_call_order() {
        let mut t = Tracer::new(Instant::now(), 3);
        t.scope("outer", 7, |t| {
            t.scope("inner", 7, |_| std::hint::black_box(1 + 1));
            let at = t.open_start_ns();
            t.synthetic("counted", 7, at, 5);
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].dur_ns(), 5);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans.iter().all(|s| s.op == 7 && s.lane == 3));
    }

    #[test]
    fn adopted_lanes_keep_parent_links() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.adopt(vec![span(0, None, "a", 0, 10), span(1, Some(0), "b", 1, 2)]);
        t.adopt(vec![span(0, None, "c", 0, 10), span(1, Some(0), "d", 1, 2)]);
        let merged = t.into_spans();
        assert_eq!(merged[3].id, 3);
        assert_eq!(merged[3].parent, Some(2));
        assert_eq!(self_times_ns(&merged), vec![9, 1, 9, 1]);
        let doc = chrome_json(&merged, &[]);
        assert_eq!(
            doc.get("traceEvents").and_then(Json::as_arr).unwrap().len(),
            4
        );
    }
}
