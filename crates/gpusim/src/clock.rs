//! Simulated wall clock with async-queue timelines and a per-category
//! time breakdown (the accounting behind the paper's Figure 3).
//!
//! When a [`JournalPart`] is attached, the clock emits a
//! [`openarc_trace::EventKind::Slice`] at the instant each charge lands, so
//! per-category sums over the journal reproduce [`TimeBreakdown`] exactly
//! (same `f64` additions, same order).

use crate::device::DeviceId;
use openarc_trace::{Category, EventKind, JournalPart, TraceEvent, Track};
use std::collections::BTreeMap;

/// Accumulated simulated time per category, µs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Indexed by `Category as usize`, which is [`Category::ALL`] order.
    per_cat: [f64; Category::ALL.len()],
}

impl TimeBreakdown {
    /// Add `dt` µs to `cat`.
    pub fn add(&mut self, cat: Category, dt: f64) {
        self.per_cat[cat as usize] += dt;
    }

    /// Time spent in `cat`.
    pub fn get(&self, cat: Category) -> f64 {
        self.per_cat[cat as usize]
    }

    /// Sum of all categories, added in [`Category::ALL`] order: the
    /// same run gives the same bits.
    pub fn total(&self) -> f64 {
        self.per_cat.iter().sum()
    }
}

/// The machine clock: a host timeline plus one timeline per async queue,
/// where queues are namespaced per simulated device (`(device, queue)`
/// keys). Every queue operation names its device; single-device callers
/// pass [`DeviceId::PRIMARY`]. The queue map is ordered by `(device,
/// queue)`, so snapshots and drains visit queues in one fixed order.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    host_now: f64,
    queues: BTreeMap<(DeviceId, i64), f64>,
    /// Per-category accounting of host-visible time.
    pub breakdown: TimeBreakdown,
    /// Event journal writer: a buffered [`JournalPart`] so the per-charge
    /// emission path is a branch plus a push — no lock. The default
    /// (disabled) part makes every emission a single branch. Flush it (or
    /// drop the clock) to publish into the shared journal.
    pub journal: JournalPart,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// Rebuild a clock from a recorded final state: host time,
    /// per-category breakdown, and the per-`(device, queue)` timeline
    /// snapshot from [`SimClock::queue_snapshot`]. The journal starts
    /// disabled. Used by the on-disk artifact cache to reconstruct the
    /// observable clock of a cached run; restoring the queue ends keeps
    /// any replay across the restore point from seeing in-flight async
    /// state silently zeroed.
    pub fn restore(
        host_now: f64,
        breakdown: TimeBreakdown,
        queues: Vec<(DeviceId, i64, f64)>,
    ) -> SimClock {
        SimClock {
            host_now,
            queues: queues
                .into_iter()
                .map(|(d, q, end)| ((d, q), end))
                .collect(),
            breakdown,
            journal: JournalPart::default(),
        }
    }

    /// Snapshot every queue timeline as `(device, queue, end)` triples,
    /// in `(device, queue)` order so the encoding is deterministic.
    pub fn queue_snapshot(&self) -> Vec<(DeviceId, i64, f64)> {
        self.queues
            .iter()
            .map(|((d, q), end)| (*d, *q, *end))
            .collect()
    }

    /// Current host time, µs.
    pub fn now(&self) -> f64 {
        self.host_now
    }

    /// Advance the host timeline by `dt` µs, charging `cat`.
    pub fn advance(&mut self, cat: Category, dt: f64) {
        debug_assert!(dt >= 0.0, "negative time {dt}");
        self.journal.emit(TraceEvent {
            ts_us: self.host_now,
            dur_us: dt,
            track: Track::Host,
            kind: EventKind::Slice { cat },
        });
        self.host_now += dt;
        self.breakdown.add(cat, dt);
    }

    /// Enqueue `dt` µs of asynchronous work on device `dev`'s `queue`.
    /// The work starts no earlier than the host's current time and the
    /// queue's previous end; the host does not block. Returns the
    /// simulated start time of the enqueued span, so callers can journal
    /// it with a true timestamp. Queues on distinct devices are fully
    /// independent timelines.
    pub fn enqueue_async_on(&mut self, dev: DeviceId, queue: i64, dt: f64) -> f64 {
        let end = self.queues.entry((dev, queue)).or_insert(0.0);
        let start = end.max(self.host_now);
        *end = start + dt;
        start
    }

    /// Block the host until device `dev`'s `queue` drains, charging the
    /// stall to [`Category::AsyncWait`].
    pub fn wait_on(&mut self, dev: DeviceId, queue: i64) {
        if let Some(end) = self.queues.get(&(dev, queue)).copied() {
            if end > self.host_now {
                let stall = end - self.host_now;
                self.journal.emit(TraceEvent {
                    ts_us: self.host_now,
                    dur_us: stall,
                    track: Track::Host,
                    kind: EventKind::Slice {
                        cat: Category::AsyncWait,
                    },
                });
                self.host_now = end;
                self.breakdown.add(Category::AsyncWait, stall);
            }
        }
    }

    /// Block the host until every queue on device `dev` drains, in
    /// sorted-id order.
    pub fn wait_all_on(&mut self, dev: DeviceId) {
        let queues: Vec<i64> = self
            .queues
            .range((dev, i64::MIN)..=(dev, i64::MAX))
            .map(|((_, q), _)| *q)
            .collect();
        for q in queues {
            self.wait_on(dev, q);
        }
    }

    /// Block the host until every queue on every device drains. Queues
    /// drain in sorted `(device, id)` order so journaled stall slices are
    /// deterministic — identical to sorted-id order when only the primary
    /// device has queues.
    pub fn wait_all(&mut self) {
        let keys: Vec<(DeviceId, i64)> = self.queues.keys().copied().collect();
        for (d, q) in keys {
            self.wait_on(d, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: DeviceId = DeviceId::PRIMARY;

    #[test]
    fn advance_accumulates_by_category() {
        let mut c = SimClock::new();
        c.advance(Category::CpuTime, 5.0);
        c.advance(Category::MemTransfer, 3.0);
        c.advance(Category::CpuTime, 2.0);
        assert_eq!(c.now(), 10.0);
        assert_eq!(c.breakdown.get(Category::CpuTime), 7.0);
        assert_eq!(c.breakdown.get(Category::MemTransfer), 3.0);
        assert_eq!(c.breakdown.total(), 10.0);
    }

    #[test]
    fn async_overlap_hides_gpu_time() {
        let mut c = SimClock::new();
        c.enqueue_async_on(P, 1, 100.0); // kernel on queue 1
        c.advance(Category::CpuTime, 60.0); // CPU overlaps
        c.wait_on(P, 1);
        // Only the remaining 40 µs stall the host.
        assert_eq!(c.breakdown.get(Category::AsyncWait), 40.0);
        assert_eq!(c.now(), 100.0);
    }

    #[test]
    fn async_fully_hidden_when_cpu_longer() {
        let mut c = SimClock::new();
        c.enqueue_async_on(P, 1, 30.0);
        c.advance(Category::CpuTime, 50.0);
        c.wait_on(P, 1);
        assert_eq!(c.breakdown.get(Category::AsyncWait), 0.0);
        assert_eq!(c.now(), 50.0);
    }

    #[test]
    fn queue_serializes_its_own_work() {
        let mut c = SimClock::new();
        c.enqueue_async_on(P, 1, 10.0);
        c.enqueue_async_on(P, 1, 10.0); // starts after the first
        c.wait_on(P, 1);
        assert_eq!(c.now(), 20.0);
    }

    #[test]
    fn separate_queues_overlap() {
        let mut c = SimClock::new();
        c.enqueue_async_on(P, 1, 10.0);
        c.enqueue_async_on(P, 2, 10.0);
        c.wait_all();
        assert_eq!(c.now(), 10.0);
    }

    #[test]
    fn wait_on_idle_queue_is_free() {
        let mut c = SimClock::new();
        c.wait_on(P, 7);
        assert_eq!(c.now(), 0.0);
    }

    #[test]
    fn async_after_host_progress_starts_at_host_now() {
        let mut c = SimClock::new();
        c.advance(Category::CpuTime, 100.0);
        let start = c.enqueue_async_on(P, 1, 5.0);
        assert_eq!(start, 100.0);
        c.wait_on(P, 1);
        assert_eq!(c.now(), 105.0);
    }

    #[test]
    fn async_transfer_kernel_chain_reconciles_with_breakdown() {
        // The verified-launch pipeline's clock shape: staged demotion
        // copies enqueued async, the kernel queued behind them on the same
        // queue, CPU reference time overlapping, then one wait. Journal
        // slices must reconcile with the breakdown bit-for-bit, and the
        // async work must surface purely as the wait's stall.
        let shared = openarc_trace::Journal::enabled();
        let mut c = SimClock::new();
        c.journal = JournalPart::new(shared.clone());
        let t0 = c.enqueue_async_on(P, 3, 4.0); // staged copy 1
        let t1 = c.enqueue_async_on(P, 3, 4.0); // staged copy 2, queued behind it
        let t2 = c.enqueue_async_on(P, 3, 20.0); // async kernel behind the copies
        assert_eq!((t0, t1, t2), (0.0, 4.0, 8.0), "queue serializes the chain");
        c.advance(Category::CpuTime, 10.0); // CPU reference overlaps
        c.wait_on(P, 3);
        c.journal.flush();
        // The transfers and kernel never touch their synchronous
        // categories — everything async folds into the wait's stall.
        assert_eq!(c.breakdown.get(Category::MemTransfer), 0.0);
        assert_eq!(c.breakdown.get(Category::KernelExec), 0.0);
        assert_eq!(c.breakdown.get(Category::AsyncWait), 28.0 - 10.0);
        assert_eq!(c.now(), 28.0);
        // Event-for-event reconciliation: per-category slice sums equal
        // the breakdown, and slices tile the host timeline end to end.
        let events = shared.snapshot();
        for (cat, total) in openarc_trace::category_totals(&events) {
            assert_eq!(total, c.breakdown.get(cat), "{cat}");
        }
        let mut cursor = 0.0;
        for e in &events {
            assert_eq!(e.ts_us, cursor, "slices tile the host timeline");
            cursor += e.dur_us;
        }
        assert_eq!(cursor, c.now());
    }

    #[test]
    fn same_queue_id_on_distinct_devices_is_independent() {
        let mut c = SimClock::new();
        c.enqueue_async_on(DeviceId(0), 1, 10.0);
        c.enqueue_async_on(DeviceId(1), 1, 10.0); // same id, other device
        c.wait_all();
        // Independent timelines: both spans ran concurrently.
        assert_eq!(c.now(), 10.0);
        // Whereas chaining on one device's queue serializes:
        let mut c = SimClock::new();
        c.enqueue_async_on(DeviceId(1), 1, 10.0);
        c.enqueue_async_on(DeviceId(1), 1, 10.0);
        c.wait_all();
        assert_eq!(c.now(), 20.0);
    }

    #[test]
    fn wait_all_on_drains_only_that_device() {
        let mut c = SimClock::new();
        c.enqueue_async_on(DeviceId(0), 1, 10.0);
        c.enqueue_async_on(DeviceId(1), 1, 30.0);
        c.wait_all_on(DeviceId(0));
        assert_eq!(c.now(), 10.0);
        c.wait_all_on(DeviceId(1));
        assert_eq!(c.now(), 30.0);
    }

    #[test]
    fn restore_preserves_queue_timelines() {
        // Regression: `restore` used to drop queue timelines, silently
        // zeroing in-flight async state for any replay across a restore
        // point. A wait after restore must still see the queued work.
        // 24 queues on each of two devices, enqueued out of order: an
        // unordered map would hand them back sorted with odds of 1 in 48!.
        let mut c = SimClock::new();
        let mut want = Vec::new();
        for i in 0..48i64 {
            let (dev, q) = (DeviceId((i % 2) as u32), (i * 17) % 48 - 24);
            let end = 10.0 + i as f64;
            c.enqueue_async_on(dev, q, end);
            want.push((dev, q, end));
        }
        c.advance(Category::CpuTime, 10.0);
        want.sort_by_key(|(d, q, _)| (*d, *q));

        let snap = c.queue_snapshot();
        assert_eq!(snap, want, "snapshot is sorted by (device, queue)");
        let mut r = SimClock::restore(c.now(), c.breakdown.clone(), snap);
        assert_eq!(r.now(), c.now());
        assert_eq!(r.breakdown, c.breakdown);
        assert_eq!(r.queue_snapshot(), c.queue_snapshot());

        // The restored clock replays exactly like the original.
        c.wait_all();
        r.wait_all();
        assert_eq!(r.now(), c.now());
        assert_eq!(r.now(), 57.0);
        assert_eq!(
            r.breakdown.get(Category::AsyncWait).to_bits(),
            c.breakdown.get(Category::AsyncWait).to_bits()
        );
    }

    #[test]
    fn journal_slices_reconcile_with_breakdown() {
        let shared = openarc_trace::Journal::enabled();
        let mut c = SimClock::new();
        c.journal = JournalPart::new(shared.clone());
        c.advance(Category::CpuTime, 1.25);
        c.advance(Category::MemTransfer, 0.5);
        c.enqueue_async_on(P, 1, 10.0);
        c.advance(Category::CpuTime, 3.0);
        c.wait_all();
        c.journal.flush();
        let events = shared.snapshot();
        for (cat, total) in openarc_trace::category_totals(&events) {
            assert_eq!(total, c.breakdown.get(cat), "{cat}");
        }
    }
}
