//! Journal-derived coverage signatures for the differential fuzzer.
//!
//! A [`Signature`] is an **order-independent set** of small string atoms
//! harvested from a journal: which [`EventKind`]s fired, which coherence
//! transitions occurred, which verdict and finding kinds were produced,
//! which per-device queue shapes appeared, and which pipeline-stage cache
//! paths ran. Set semantics make the signature stable across `--jobs`
//! values by construction — two journals that contain the same events in
//! any interleaving produce byte-identical signatures — which is the
//! contract `openarc fuzz` relies on for deterministic coverage feedback
//! (and the fix for the jobs-dependent signatures the fuzzer work
//! surfaced).
//!
//! Atoms deliberately *normalize away* identity that would otherwise make
//! every input look novel: report sites drop their trailing ordinals
//! (`update3` → `update`), secondary devices collapse to `gpux`, and
//! numeric payloads (bytes, thread counts, timestamps) are never part of
//! an atom. What remains is the shape of the behaviour, which is what
//! coverage-guided scheduling needs.

use crate::event::{EventKind, Side, TraceEvent, Track};
use crate::Fnv;
use std::collections::BTreeSet;
use std::fmt;

/// An order-independent set of coverage atoms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Signature {
    atoms: BTreeSet<String>,
}

impl Signature {
    /// The empty signature.
    pub fn new() -> Signature {
        Signature::default()
    }

    /// Insert one atom.
    pub fn insert(&mut self, atom: impl Into<String>) {
        self.atoms.insert(atom.into());
    }

    /// True when the atom is present.
    pub fn contains(&self, atom: &str) -> bool {
        self.atoms.contains(atom)
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True when no atom has been recorded.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Iterate atoms in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.atoms.iter().map(|s| s.as_str())
    }

    /// Union another signature into this one.
    pub fn merge(&mut self, other: &Signature) {
        for a in &other.atoms {
            self.atoms.insert(a.clone());
        }
    }

    /// Atoms present here but absent from `baseline`, sorted.
    pub fn new_atoms<'a>(&'a self, baseline: &Signature) -> Vec<&'a str> {
        self.atoms
            .iter()
            .filter(|a| !baseline.atoms.contains(*a))
            .map(|s| s.as_str())
            .collect()
    }

    /// Count of atoms in `other` that this signature does not have yet.
    pub fn novelty(&self, other: &Signature) -> usize {
        other
            .atoms
            .iter()
            .filter(|a| !self.atoms.contains(*a))
            .count()
    }

    /// FNV-1a hash over the sorted atom list. Two signatures with the
    /// same atom set hash identically regardless of insertion order.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::standard();
        for a in &self.atoms {
            // Atom separator so {"ab","c"} and {"a","bc"} differ.
            h.write(a.as_bytes()).write(&[0x1f]);
        }
        h.finish()
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for a in &self.atoms {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{a}")?;
            first = false;
        }
        Ok(())
    }
}

/// Strip a trailing run of ASCII digits: `update12` → `update`.
fn site_class(site: &str) -> &str {
    site.trim_end_matches(|c: char| c.is_ascii_digit())
}

/// Collapse secondary-device side labels: `cpu`/`gpu` pass through, any
/// `gpuN` (N > 0) becomes `gpux` so signatures do not scale with the
/// device count.
fn side_class(side: Side) -> &'static str {
    match side {
        Side::Cpu | Side::Gpu => side.label(),
        _ => "gpux",
    }
}

/// Add the atoms of one event to `sig`.
pub fn event_atoms(ev: &TraceEvent, sig: &mut Signature) {
    if let Track::Queue { dev, id } = ev.track {
        sig.insert(format!("queue:dev{dev}:q{id}"));
    }
    match &ev.kind {
        EventKind::Slice { cat } => {
            sig.insert(format!("slice:{}", cat.label()));
        }
        EventKind::KernelLaunch { queue, dev, .. } => {
            sig.insert("event:kernel-launch");
            let q = match queue {
                Some(_) => "async",
                None => "sync",
            };
            sig.insert(format!("launch:dev{dev}:{q}"));
        }
        EventKind::KernelComplete { .. } => sig.insert("event:kernel-complete"),
        EventKind::DevAlloc { .. } => sig.insert("event:dev-alloc"),
        EventKind::DevFree { .. } => sig.insert("event:dev-free"),
        EventKind::Transfer {
            site, to_device, ..
        } => {
            let dir = if *to_device { "h2d" } else { "d2h" };
            sig.insert(format!("transfer:{dir}:{}", site_class(site)));
        }
        EventKind::PresentHit { .. } => sig.insert("present:hit"),
        EventKind::PresentMiss { .. } => sig.insert("present:miss"),
        EventKind::Coherence {
            side,
            from,
            to,
            cause,
            ..
        } => {
            sig.insert(format!("coh:{}:{from}>{to}:{cause}", side_class(*side)));
        }
        EventKind::Finding { severity, kind, .. } => {
            sig.insert(format!("finding:{severity}:{kind}"));
        }
        EventKind::Verification {
            passed,
            mismatched_elems,
            ..
        } => {
            sig.insert(if *passed {
                "verdict:pass"
            } else {
                "verdict:fail"
            });
            if *mismatched_elems > 0 {
                sig.insert("verdict:mismatch");
            }
        }
        EventKind::Stage { stage, cached } => {
            let path = if *cached { "hit" } else { "miss" };
            sig.insert(format!("stage:{}:{path}", stage.label()));
        }
        EventKind::Cache { stage, op } => {
            sig.insert(format!("cache:{}:{}", stage.label(), op.label()));
        }
        EventKind::Serve { gauge, .. } => {
            sig.insert(format!("serve:{gauge}"));
        }
    }
}

/// Signature over a whole event stream. Order-independent: any permutation
/// of `events` yields the same signature.
pub fn signature_of(events: &[TraceEvent]) -> Signature {
    let mut sig = Signature::new();
    for ev in events {
        event_atoms(ev, &mut sig);
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Category, Cause, St};

    fn ev(kind: EventKind) -> TraceEvent {
        TraceEvent {
            ts_us: 0.0,
            dur_us: 0.0,
            track: Track::Host,
            kind,
        }
    }

    #[test]
    fn order_independent() {
        let a = ev(EventKind::PresentMiss { var: "a".into() });
        let b = ev(EventKind::Slice {
            cat: Category::KernelExec,
        });
        let c = ev(EventKind::Coherence {
            var: "a".into(),
            side: Side::Gpu,
            from: St::Stale,
            to: St::NotStale,
            cause: Cause::Transfer,
        });
        let fwd = signature_of(&[a.clone(), b.clone(), c.clone()]);
        let rev = signature_of(&[c, b, a]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.fingerprint(), rev.fingerprint());
    }

    #[test]
    fn duplicates_collapse() {
        let e = ev(EventKind::PresentHit { var: "x".into() });
        let one = signature_of(std::slice::from_ref(&e));
        let many = signature_of(&[e.clone(), e.clone(), e]);
        assert_eq!(one, many);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn site_ordinals_and_devices_normalize() {
        let t3 = ev(EventKind::Transfer {
            var: "a".into(),
            site: "update3".into(),
            bytes: 64,
            to_device: true,
        });
        let t9 = ev(EventKind::Transfer {
            var: "a".into(),
            site: "update9".into(),
            bytes: 128,
            to_device: true,
        });
        let s = signature_of(&[t3, t9]);
        assert_eq!(s.len(), 1);
        assert!(s.contains("transfer:h2d:update"));
        assert_eq!(side_class(Side::Gpu7), "gpux");
        assert_eq!(side_class(Side::Gpu1), "gpux");
        assert_eq!(side_class(Side::Gpu), "gpu");
        assert_eq!(side_class(Side::Cpu), "cpu");
    }

    #[test]
    fn queue_shape_atoms() {
        let k = TraceEvent {
            ts_us: 1.0,
            dur_us: 2.0,
            track: Track::Queue { dev: 1, id: 2 },
            kind: EventKind::KernelComplete {
                kernel: "k0".into(),
            },
        };
        let s = signature_of(&[k]);
        assert!(s.contains("queue:dev1:q2"));
        assert!(s.contains("event:kernel-complete"));
    }

    #[test]
    fn novelty_and_merge() {
        let mut base = Signature::new();
        base.insert("a");
        let mut more = Signature::new();
        more.insert("a");
        more.insert("b");
        assert_eq!(base.novelty(&more), 1);
        assert_eq!(more.new_atoms(&base), vec!["b"]);
        base.merge(&more);
        assert_eq!(base.len(), 2);
        assert_eq!(base.novelty(&more), 0);
    }

    #[test]
    fn verdict_atoms() {
        let v = ev(EventKind::Verification {
            kernel: "k".into(),
            passed: false,
            compared_elems: 10,
            mismatched_elems: 3,
            max_abs_err: 0.5,
        });
        let s = signature_of(&[v]);
        assert!(s.contains("verdict:fail"));
        assert!(s.contains("verdict:mismatch"));
    }
}
