//! The journal collector: a cheaply-cloneable handle every layer of the
//! stack can emit into.
//!
//! A disabled journal (the default) is a `None` — emitting through it is a
//! single branch, so instrumented code paths cost nothing measurable when
//! tracing is off. An enabled journal shares one append-only event vector
//! behind a mutex; clones share the same buffer, which is what lets the
//! clock (inside `gpusim`), the machine (inside `runtime`) and the
//! executor (inside `core`) all write one interleaved timeline.

use crate::event::TraceEvent;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct Inner {
    /// Largest batch a [`JournalPart`] has flushed into this journal —
    /// used to pre-reserve part buffers so later runs against the same
    /// journal never reallocate on the emission path.
    hint: AtomicUsize,
    events: Mutex<Vec<TraceEvent>>,
}

/// A shareable event collector. `Default` is the disabled journal.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    inner: Option<Arc<Inner>>,
}

impl Journal {
    /// A disabled journal: every emit is a no-op.
    pub fn disabled() -> Journal {
        Journal { inner: None }
    }

    /// An enabled journal.
    pub fn enabled() -> Journal {
        Journal {
            inner: Some(Arc::new(Inner {
                hint: AtomicUsize::new(0),
                events: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event. No-op (one branch) when disabled.
    pub fn emit(&self, ev: TraceEvent) {
        let Some(inner) = &self.inner else { return };
        inner.events.lock().expect("journal poisoned").push(ev);
    }

    /// Number of events collected.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.events.lock().expect("journal poisoned").len(),
            None => 0,
        }
    }

    /// True when no events were collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of every event, in emission order. Clones the whole buffer —
    /// when the caller owns the journal and is done with it, prefer
    /// [`Journal::drain`].
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => inner.events.lock().expect("journal poisoned").clone(),
            None => Vec::new(),
        }
    }

    /// Take every event out of the journal, leaving it empty. This moves
    /// the buffer instead of cloning it, which is the right call for
    /// per-cell capture journals that are read exactly once.
    pub fn drain(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => std::mem::take(&mut *inner.events.lock().expect("journal poisoned")),
            None => Vec::new(),
        }
    }

    /// Pre-reservation hint for part buffers: the largest batch ever
    /// flushed into this journal (0 until a part has flushed).
    fn size_hint(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.hint.load(Ordering::Relaxed),
            None => 0,
        }
    }

    fn note_hint(&self, n: usize) {
        if let Some(inner) = &self.inner {
            inner.hint.fetch_max(n, Ordering::Relaxed);
        }
    }

    /// Append a batch of events preserving their order: a
    /// [`JournalPart`]'s flush, or a cached run's journal replayed on an
    /// Execute hit. No-op when disabled.
    pub fn extend(&self, evs: Vec<TraceEvent>) {
        let Some(inner) = &self.inner else { return };
        inner.events.lock().expect("journal poisoned").extend(evs);
    }
}

/// A single-writer batch buffer in front of a shared [`Journal`].
///
/// [`Journal::emit`] takes the shared buffer's mutex once per event; a
/// journaled benchmark sweep makes tens of thousands of those round-trips.
/// A `JournalPart` removes them: `emit` is one branch plus a `Vec` push
/// into a thread-private buffer, and [`JournalPart::flush`] hands the whole
/// batch to [`Journal::extend`] — one lock acquisition per run instead of
/// one per event. The machine's layers (clock, runtime, executor) all emit
/// from the single driving thread, so a part is single-writer by
/// construction.
///
/// Unflushed events are flushed on drop, so nothing is lost if a caller
/// forgets; an explicit flush after the run keeps the shared journal's
/// contents deterministic. Part buffers pre-reserve to the largest batch
/// previously flushed into the same journal, so repeat runs never
/// reallocate on the emission path.
#[derive(Debug, Default)]
pub struct JournalPart {
    shared: Journal,
    buf: Vec<TraceEvent>,
}

impl JournalPart {
    /// A part writing into `shared`. Disabled journals produce a disabled
    /// part: emits stay a single branch.
    pub fn new(shared: Journal) -> JournalPart {
        let buf = if shared.is_enabled() {
            Vec::with_capacity(shared.size_hint())
        } else {
            Vec::new()
        };
        JournalPart { shared, buf }
    }

    /// Whether emits are collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_enabled()
    }

    /// Record one event into the private buffer. No lock; no-op (one
    /// branch) when the shared journal is disabled.
    #[inline]
    pub fn emit(&mut self, ev: TraceEvent) {
        if self.shared.is_enabled() {
            self.buf.push(ev);
        }
    }

    /// Events buffered but not yet flushed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// The shared journal this part flushes into.
    pub fn shared(&self) -> &Journal {
        &self.shared
    }

    /// Push every buffered event into the shared journal in emission
    /// order. Idempotent: a second flush with nothing new buffered is a
    /// no-op.
    pub fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.shared.note_hint(self.buf.len());
            self.shared.extend(std::mem::take(&mut self.buf));
        }
    }
}

impl Clone for JournalPart {
    /// Clones share the journal; buffered-but-unflushed events are copied
    /// into the clone so a cloned machine replays its own pending tail.
    fn clone(&self) -> JournalPart {
        JournalPart {
            shared: self.shared.clone(),
            buf: self.buf.clone(),
        }
    }
}

impl Drop for JournalPart {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Category, EventKind, Track};

    fn slice(ts: f64, dt: f64, cat: Category) -> TraceEvent {
        TraceEvent {
            ts_us: ts,
            dur_us: dt,
            track: Track::Host,
            kind: EventKind::Slice { cat },
        }
    }

    #[test]
    fn disabled_journal_collects_nothing() {
        let j = Journal::disabled();
        j.emit(slice(0.0, 1.0, Category::CpuTime));
        assert!(!j.is_enabled());
        assert!(j.is_empty());
        assert_eq!(j.snapshot(), vec![]);
    }

    #[test]
    fn clones_share_one_buffer() {
        let j = Journal::enabled();
        let j2 = j.clone();
        j.emit(slice(0.0, 1.0, Category::CpuTime));
        j2.emit(slice(1.0, 2.0, Category::MemTransfer));
        assert_eq!(j.len(), 2);
        assert_eq!(j2.len(), 2);
        assert_eq!(j.snapshot()[1].ts_us, 1.0);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Journal::default().is_enabled());
    }

    #[test]
    fn drain_moves_events_out() {
        let j = Journal::enabled();
        j.emit(slice(0.0, 1.0, Category::CpuTime));
        j.emit(slice(1.0, 2.0, Category::MemTransfer));
        let evs = j.drain();
        assert_eq!(evs.len(), 2);
        assert!(j.is_empty(), "drain leaves the journal empty");
        assert_eq!(Journal::disabled().drain(), vec![]);
    }

    #[test]
    fn part_buffers_then_flushes_in_order() {
        let j = Journal::enabled();
        let mut p = JournalPart::new(j.clone());
        p.emit(slice(0.0, 1.0, Category::CpuTime));
        p.emit(slice(1.0, 2.0, Category::MemTransfer));
        assert_eq!(j.len(), 0, "events stay buffered until flush");
        assert_eq!(p.buffered(), 2);
        p.flush();
        assert_eq!(p.buffered(), 0);
        let evs = j.snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].ts_us, 0.0);
        assert_eq!(evs[1].ts_us, 1.0);
    }

    #[test]
    fn part_flushes_on_drop() {
        let j = Journal::enabled();
        {
            let mut p = JournalPart::new(j.clone());
            p.emit(slice(0.0, 1.0, Category::CpuTime));
        }
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn disabled_part_is_a_noop() {
        let mut p = JournalPart::new(Journal::disabled());
        p.emit(slice(0.0, 1.0, Category::CpuTime));
        assert!(!p.is_enabled());
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn flushed_batches_seed_the_size_hint() {
        let j = Journal::enabled();
        let mut p = JournalPart::new(j.clone());
        for i in 0..64 {
            p.emit(slice(i as f64, 1.0, Category::CpuTime));
        }
        p.flush();
        let p2 = JournalPart::new(j.clone());
        assert!(p2.buf.capacity() >= 64, "later parts pre-reserve");
    }
}
