//! Data-race detection inside simulated kernels.
//!
//! This is the *ground-truth oracle* our Table 2 reproduction uses to
//! classify injected concurrency bugs: the paper's kernel-verification tool
//! only observes *active* errors (wrong outputs), while races whose final
//! value happens to be unused are *latent*. The simulator sees every
//! conflicting access, so it can count latent races the output comparison
//! cannot.

use openarc_vm::Handle;

/// Kind of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read.
    Read,
    /// Write.
    Write,
}

/// Summary of races observed on one buffer during one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceReport {
    /// The buffer.
    pub handle: Handle,
    /// Buffer label (source variable name).
    pub label: String,
    /// Number of conflicting access pairs observed.
    pub conflicts: u64,
    /// Example conflicting element index.
    pub example_idx: u64,
    /// Example pair of thread ids.
    pub example_threads: (u64, u64),
}

openarc_trace::wire_record!(RaceReport {
    handle,
    label,
    conflicts,
    example_idx,
    example_threads,
});

#[derive(Debug, Clone, Copy, Default)]
struct LastAccess {
    /// False until the element's first access of the launch.
    touched: bool,
    tid: u64,
    wrote: bool,
    read_tid: u64,
    read_any: bool,
    /// More than one distinct thread has read this element. Without this
    /// a later read by the eventual writer would mask the foreign read
    /// (lockstep order: foreign read, own read, own write) and the
    /// write-after-read conflict would go unreported.
    read_many: bool,
}

/// Accesses to one buffer: a slot per element, allocated at the buffer's
/// first access of the launch, and its report once a conflict is seen.
#[derive(Debug, Default)]
struct BufferAccesses {
    last: Vec<LastAccess>,
    report: Option<RaceReport>,
}

/// Per-launch access table. Tracks, per element, the last writer and
/// whether any other thread touched it.
#[derive(Debug, Default)]
pub struct RaceDetector {
    /// Indexed by handle value (kernels cannot allocate or free, so a
    /// handle names one buffer for the whole launch).
    bufs: Vec<BufferAccesses>,
}

impl RaceDetector {
    /// Fresh detector (one per kernel launch).
    pub fn new() -> RaceDetector {
        RaceDetector::default()
    }

    /// Record an access by thread `tid` to element `idx` of the buffer
    /// `handle`, which holds `len` elements and is called `label`. An
    /// out-of-range `idx` is not an access (the caller's load or store
    /// fails).
    pub fn record(
        &mut self,
        handle: Handle,
        label: &str,
        len: usize,
        idx: u64,
        tid: u64,
        kind: AccessKind,
    ) {
        let slot = handle.0 as usize;
        if slot >= self.bufs.len() {
            self.bufs.resize_with(slot + 1, BufferAccesses::default);
        }
        let buf = &mut self.bufs[slot];
        if buf.last.is_empty() {
            buf.last = vec![LastAccess::default(); len];
        }
        let Some(la) = usize::try_from(idx).ok().and_then(|i| buf.last.get_mut(i)) else {
            return;
        };
        if !la.touched {
            *la = LastAccess {
                touched: true,
                tid,
                wrote: kind == AccessKind::Write,
                read_tid: tid,
                read_any: kind == AccessKind::Read,
                read_many: false,
            };
            return;
        }
        let conflict = match kind {
            // write-after-write, or write after a read by any other thread
            // (even one since shadowed by the writer's own read).
            AccessKind::Write => {
                (la.wrote && la.tid != tid) || (la.read_any && (la.read_tid != tid || la.read_many))
            }
            // read-after-write by another thread
            AccessKind::Read => la.wrote && la.tid != tid,
        };
        if conflict {
            let other = if la.wrote {
                la.tid
            } else if la.read_tid != tid {
                la.read_tid
            } else {
                la.tid
            };
            let rep = buf.report.get_or_insert_with(|| RaceReport {
                handle,
                label: label.to_string(),
                conflicts: 0,
                example_idx: idx,
                example_threads: (other, tid),
            });
            rep.conflicts += 1;
        }
        match kind {
            AccessKind::Write => {
                la.wrote = true;
                la.tid = tid;
            }
            AccessKind::Read => {
                if la.read_any && la.read_tid != tid {
                    la.read_many = true;
                }
                la.read_any = true;
                la.read_tid = tid;
            }
        }
    }

    /// Reports for all buffers that raced, sorted by label (buffers that
    /// share a label stay in handle order).
    pub fn reports(&self) -> Vec<RaceReport> {
        let mut v: Vec<RaceReport> = self.bufs.iter().filter_map(|b| b.report.clone()).collect();
        v.sort_by(|a, b| a.label.cmp(&b.label));
        v
    }

    /// True if any race was observed.
    pub fn any(&self) -> bool {
        self.bufs.iter().any(|b| b.report.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: Handle = Handle(3);

    #[test]
    fn disjoint_indices_do_not_race() {
        let mut d = RaceDetector::new();
        d.record(H, "a", 4, 0, 0, AccessKind::Write);
        d.record(H, "a", 4, 1, 1, AccessKind::Write);
        d.record(H, "a", 4, 0, 0, AccessKind::Read);
        assert!(!d.any());
    }

    #[test]
    fn write_write_conflict_detected() {
        let mut d = RaceDetector::new();
        d.record(H, "tmp", 4, 0, 0, AccessKind::Write);
        d.record(H, "tmp", 4, 0, 1, AccessKind::Write);
        assert!(d.any());
        let r = &d.reports()[0];
        assert_eq!(r.label, "tmp");
        assert_eq!(r.example_threads, (0, 1));
        assert_eq!(r.conflicts, 1);
    }

    #[test]
    fn read_after_foreign_write_detected() {
        let mut d = RaceDetector::new();
        d.record(H, "s", 4, 0, 2, AccessKind::Write);
        d.record(H, "s", 4, 0, 5, AccessKind::Read);
        assert!(d.any());
    }

    #[test]
    fn write_after_foreign_read_detected() {
        let mut d = RaceDetector::new();
        d.record(H, "s", 4, 0, 2, AccessKind::Read);
        d.record(H, "s", 4, 0, 5, AccessKind::Write);
        assert!(d.any());
    }

    #[test]
    fn same_thread_sequence_is_fine() {
        let mut d = RaceDetector::new();
        d.record(H, "x", 4, 0, 4, AccessKind::Read);
        d.record(H, "x", 4, 0, 4, AccessKind::Write);
        d.record(H, "x", 4, 0, 4, AccessKind::Read);
        assert!(!d.any());
    }

    #[test]
    fn conflicts_accumulate_per_buffer() {
        let mut d = RaceDetector::new();
        for t in 0..10u64 {
            d.record(H, "acc", 4, 0, t, AccessKind::Read);
            d.record(H, "acc", 4, 0, t, AccessKind::Write);
        }
        let r = &d.reports()[0];
        assert!(r.conflicts >= 9, "{}", r.conflicts);
        assert_eq!(d.reports().len(), 1);
    }

    #[test]
    fn own_read_does_not_mask_foreign_read() {
        // Lockstep loop-carried dependence order: thread 2 reads, then
        // thread 1 reads and writes the same element. The write still
        // conflicts with thread 2's earlier read.
        let mut d = RaceDetector::new();
        d.record(H, "b", 4, 1, 2, AccessKind::Read);
        d.record(H, "b", 4, 1, 1, AccessKind::Read);
        d.record(H, "b", 4, 1, 1, AccessKind::Write);
        assert!(d.any());
    }

    #[test]
    fn reads_only_never_race() {
        let mut d = RaceDetector::new();
        for t in 0..5u64 {
            d.record(H, "ro", 4, 0, t, AccessKind::Read);
        }
        assert!(!d.any());
    }
}
