//! The event schema: what the stack journals and when.
//!
//! Events come in two shapes:
//!
//! * **Slices** ([`EventKind::Slice`]) — host-timeline time charges,
//!   emitted by the simulated clock itself at the instant the time is
//!   charged. Summing slice durations per [`Category`] reproduces the
//!   clock's `TimeBreakdown` *exactly* (same additions, same order), which
//!   is what lets summaries reconcile to the unit.
//! * **Semantic events** — everything else: kernel launches/completions,
//!   device alloc/free, transfers, present-table hits/misses, coherence
//!   transitions, report findings, and verification verdicts. These carry
//!   the payload a programmer asks about ("why was this transfer flagged
//!   redundant"); spans additionally carry a duration and the async-queue
//!   track they executed on.

use std::fmt;

/// Where simulated host time was spent: Figure 3's legend plus kernel
/// execution (which the figure folds into Async-Wait because verification
/// kernels run asynchronously). The simulator clock's `TimeBreakdown` and
/// the journal's slices share this one type, so journal totals and clock
/// totals are the same vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Device memory frees.
    GpuMemFree,
    /// Device memory allocations.
    GpuMemAlloc,
    /// Host↔device transfers (synchronous part).
    MemTransfer,
    /// Host blocked in `wait` for async work.
    AsyncWait,
    /// Output comparison against the CPU reference (kernel verification).
    ResultComp,
    /// Host CPU computation.
    CpuTime,
    /// Synchronous kernel execution.
    KernelExec,
}

impl Category {
    /// All categories, in Figure 3 order (also their code order).
    pub const ALL: [Category; 7] = [
        Category::GpuMemFree,
        Category::GpuMemAlloc,
        Category::MemTransfer,
        Category::AsyncWait,
        Category::ResultComp,
        Category::CpuTime,
        Category::KernelExec,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Category::GpuMemFree => "GPU Mem Free",
            Category::GpuMemAlloc => "GPU Mem Alloc",
            Category::MemTransfer => "Mem Transfer",
            Category::AsyncWait => "Async-Wait",
            Category::ResultComp => "Result-Comp",
            Category::CpuTime => "CPU Time",
            Category::KernelExec => "Kernel Exec",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Coherence state of one copy of a tracked variable: the paper's three
/// §III-B states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum St {
    /// Up to date.
    #[default]
    NotStale,
    /// Possibly outdated (compiler said may-dead, or partial overwrite of a
    /// stale copy).
    MayStale,
    /// Outdated: the other device modified the data.
    Stale,
}

impl St {
    /// All states, in code order.
    pub const ALL: [St; 3] = [St::NotStale, St::MayStale, St::Stale];

    /// Journal spelling.
    pub fn label(self) -> &'static str {
        match self {
            St::NotStale => "notstale",
            St::MayStale => "maystale",
            St::Stale => "stale",
        }
    }
}

impl fmt::Display for St {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which copy a coherence transition changed: the host's (`Cpu`), the
/// primary device's (`Gpu`), or device N's (`GpuN`). The set is closed,
/// which caps a simulation at eight devices.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    Cpu,
    Gpu,
    Gpu1,
    Gpu2,
    Gpu3,
    Gpu4,
    Gpu5,
    Gpu6,
    Gpu7,
}

impl Side {
    /// All sides, in code order: the host, then device 0, 1, ….
    pub const ALL: [Side; 9] = [
        Side::Cpu,
        Side::Gpu,
        Side::Gpu1,
        Side::Gpu2,
        Side::Gpu3,
        Side::Gpu4,
        Side::Gpu5,
        Side::Gpu6,
        Side::Gpu7,
    ];

    /// Journal spelling: `cpu`, `gpu` for the primary device, `gpuN` for
    /// device N > 0.
    pub fn label(self) -> &'static str {
        match self {
            Side::Cpu => "cpu",
            Side::Gpu => "gpu",
            Side::Gpu1 => "gpu1",
            Side::Gpu2 => "gpu2",
            Side::Gpu3 => "gpu3",
            Side::Gpu4 => "gpu4",
            Side::Gpu5 => "gpu5",
            Side::Gpu6 => "gpu6",
            Side::Gpu7 => "gpu7",
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What moved a copy between coherence states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cause {
    /// A write on some side.
    Write,
    /// A transfer into the copy.
    Transfer,
    /// A compiler-inserted status reset (may-dead / must-dead copy).
    Reset,
    /// Deallocation of the device copy.
    Dealloc,
}

impl Cause {
    /// All causes, in code order.
    pub const ALL: [Cause; 4] = [Cause::Write, Cause::Transfer, Cause::Reset, Cause::Dealloc];

    /// Journal spelling.
    pub fn label(self) -> &'static str {
        match self {
            Cause::Write => "write",
            Cause::Transfer => "transfer",
            Cause::Reset => "reset",
            Cause::Dealloc => "dealloc",
        }
    }
}

impl fmt::Display for Cause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How urgent a transfer-report finding is: errors must be fixed, warnings
/// need user judgement, info is an optimization opportunity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// An optimization opportunity.
    Info,
    /// Needs user judgement.
    Warning,
    /// Must be fixed.
    Error,
}

impl Severity {
    /// All severities, in code order.
    pub const ALL: [Severity; 3] = [Severity::Info, Severity::Warning, Severity::Error];

    /// Journal spelling.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a session-level [`EventKind::Stage`] span timed, or whose
/// artifact an [`EventKind::Cache`] operation concerned: the seven
/// staged-pipeline stages (`core::pipeline::Stage` is their first seven
/// codes), then the three phases of a verified launch.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    Frontend,
    Directives,
    Analysis,
    Instrument,
    Plan,
    Execute,
    Verify,
    VerifyStaging,
    VerifyOverlap,
    VerifyCompare,
}

impl Phase {
    /// All phases, in code order.
    pub const ALL: [Phase; 10] = [
        Phase::Frontend,
        Phase::Directives,
        Phase::Analysis,
        Phase::Instrument,
        Phase::Plan,
        Phase::Execute,
        Phase::Verify,
        Phase::VerifyStaging,
        Phase::VerifyOverlap,
        Phase::VerifyCompare,
    ];

    /// Journal spelling.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Frontend => "frontend",
            Phase::Directives => "directives",
            Phase::Analysis => "analysis",
            Phase::Instrument => "instrument",
            Phase::Plan => "plan",
            Phase::Execute => "execute",
            Phase::Verify => "verify",
            Phase::VerifyStaging => "verify:staging",
            Phase::VerifyOverlap => "verify:overlap",
            Phase::VerifyCompare => "verify:compare",
        }
    }
}

/// A disk-cache operation on one stage artifact. No session emits
/// `Evict`; it keeps its code so that `Corrupt` keeps its own.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheOp {
    Hit,
    Miss,
    Store,
    Evict,
    Corrupt,
}

impl CacheOp {
    /// All operations, in code order.
    pub const ALL: [CacheOp; 5] = [
        CacheOp::Hit,
        CacheOp::Miss,
        CacheOp::Store,
        CacheOp::Evict,
        CacheOp::Corrupt,
    ];

    /// Journal spelling.
    pub fn label(self) -> &'static str {
        match self {
            CacheOp::Hit => "hit",
            CacheOp::Miss => "miss",
            CacheOp::Store => "store",
            CacheOp::Evict => "evict",
            CacheOp::Corrupt => "corrupt",
        }
    }
}

/// Which simulated timeline an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Track {
    /// The host timeline.
    Host,
    /// An asynchronous queue on one simulated device. Queues are
    /// namespaced per device: `(dev, id)` is the timeline identity, and
    /// the same queue id on two devices names two independent timelines.
    Queue {
        /// Device owning the queue (`0` is the primary device).
        dev: u32,
        /// Queue id within the device.
        id: i64,
    },
}

impl Track {
    /// A queue track on the primary device (device 0).
    pub fn queue0(id: i64) -> Track {
        Track::Queue { dev: 0, id }
    }

    /// The queue id, if this is a queue track (any device).
    pub fn queue(self) -> Option<i64> {
        match self {
            Track::Host => None,
            Track::Queue { id, .. } => Some(id),
        }
    }

    /// The device id, if this is a queue track.
    pub fn device(self) -> Option<u32> {
        match self {
            Track::Host => None,
            Track::Queue { dev, .. } => Some(dev),
        }
    }

    /// The `(device, queue)` pair, if this is a queue track.
    pub fn dev_queue(self) -> Option<(u32, i64)> {
        match self {
            Track::Host => None,
            Track::Queue { dev, id } => Some((dev, id)),
        }
    }
}

/// One journaled event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated start timestamp, µs.
    pub ts_us: f64,
    /// Duration, µs. `0.0` marks an instant event.
    pub dur_us: f64,
    /// Timeline the event occurred on.
    pub track: Track,
    /// Payload.
    pub kind: EventKind,
}

/// The payload of a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A host-time charge, emitted by the simulated clock. The per-category
    /// sum of slice durations equals the clock's `TimeBreakdown` exactly.
    Slice {
        /// Category the time was charged to.
        cat: Category,
    },
    /// A kernel was launched (instant, at the host-side launch point).
    KernelLaunch {
        /// Kernel name.
        kernel: String,
        /// Threads in the launch.
        n_threads: u64,
        /// Async queue, if any.
        queue: Option<i64>,
        /// Device the launch was dispatched to (`0` = primary device).
        dev: u32,
    },
    /// A kernel's execution span; its end (`ts_us + dur_us`) is the
    /// completion timestamp. Lands on the queue track for async launches.
    KernelComplete {
        /// Kernel name.
        kernel: String,
    },
    /// Device memory allocated for a variable (instant).
    DevAlloc {
        /// Variable label.
        var: String,
        /// Allocation size.
        bytes: u64,
    },
    /// Device memory freed (instant).
    DevFree {
        /// Variable label.
        var: String,
    },
    /// A host↔device transfer span. Lands on the queue track when async.
    Transfer {
        /// Variable transferred.
        var: String,
        /// Report site naming the transfer (e.g. `update0`).
        site: String,
        /// Payload size.
        bytes: u64,
        /// Direction: `true` = host→device.
        to_device: bool,
    },
    /// Present-table lookup found an existing mapping (instant).
    PresentHit {
        /// Variable looked up.
        var: String,
    },
    /// Present-table lookup missed; a mapping was created (instant).
    PresentMiss {
        /// Variable looked up.
        var: String,
    },
    /// A coherence state transition on one side of a tracked variable
    /// (instant).
    Coherence {
        /// Variable whose state changed.
        var: String,
        /// Side that changed.
        side: Side,
        /// Previous state.
        from: St,
        /// New state.
        to: St,
        /// What caused the transition.
        cause: Cause,
    },
    /// A transfer-report finding (instant) — the journal's copy of one
    /// Listing-4-style suggestion.
    Finding {
        /// Severity of the finding.
        severity: Severity,
        /// Finding kind, e.g. `"Redundant"`, `"Missing"`.
        kind: String,
        /// Variable involved.
        var: String,
        /// Site the finding fired at.
        site: String,
        /// Rendered message.
        message: String,
    },
    /// A kernel-verification verdict (§III-A) for one launch (instant).
    Verification {
        /// Kernel verified.
        kernel: String,
        /// Whether the launch's outputs stayed within the error margin.
        passed: bool,
        /// Elements compared.
        compared_elems: u64,
        /// Elements that diverged.
        mismatched_elems: u64,
        /// Largest absolute divergence.
        max_abs_err: f64,
    },
    /// A pipeline-stage timing span emitted by the staged compilation
    /// pipeline (`Session`). Unlike [`EventKind::Slice`], the duration is
    /// **real wall-clock** µs spent compiling/executing, not simulated
    /// time, and the timestamp is the offset since the session started.
    /// Stage events therefore never enter the deterministic per-run
    /// journals compared byte-for-byte across worker counts — they live in
    /// a separate session-level stream.
    Stage {
        /// What was timed.
        stage: Phase,
        /// Whether the stage result came from the artifact cache.
        cached: bool,
    },
    /// A disk-cache operation performed by the staged pipeline's
    /// content-addressed artifact store (instant, session-level stream —
    /// same rules as [`EventKind::Stage`]: real wall-clock offsets, never
    /// part of the deterministic per-run journals).
    Cache {
        /// Stage of the artifact involved.
        stage: Phase,
        /// What the store did.
        op: CacheOp,
    },
    /// One gauge sample from the `openarc serve` daemon's periodic stats
    /// heartbeat (instant, server-level stream — real wall-clock offsets
    /// since daemon start, same rules as [`EventKind::Stage`]: never part
    /// of the deterministic per-run journals).
    Serve {
        /// Gauge name, e.g. `"in_flight"`, `"queue_depth"`, `"p95_us"`,
        /// `"cache_hits"`.
        gauge: String,
        /// Sampled value.
        value: f64,
    },
}

impl TraceEvent {
    /// Short display name (the Chrome trace event name).
    pub fn name(&self) -> String {
        match &self.kind {
            EventKind::Slice { cat } => cat.label().to_string(),
            EventKind::KernelLaunch { kernel, .. } => format!("launch {kernel}"),
            EventKind::KernelComplete { kernel } => kernel.clone(),
            EventKind::DevAlloc { var, .. } => format!("alloc {var}"),
            EventKind::DevFree { var } => format!("free {var}"),
            EventKind::Transfer { var, to_device, .. } => {
                if *to_device {
                    format!("H2D {var}")
                } else {
                    format!("D2H {var}")
                }
            }
            EventKind::PresentHit { var } => format!("present-hit {var}"),
            EventKind::PresentMiss { var } => format!("present-miss {var}"),
            EventKind::Coherence { var, side, to, .. } => format!("{var}.{side} → {to}"),
            EventKind::Finding { kind, var, .. } => format!("{kind} {var}"),
            EventKind::Verification { kernel, passed, .. } => {
                format!("verify {kernel}: {}", if *passed { "ok" } else { "FAIL" })
            }
            EventKind::Stage { stage, cached } => {
                let cached = if *cached { " (cached)" } else { "" };
                format!("stage {}{cached}", stage.label())
            }
            EventKind::Cache { stage, op } => format!("cache {} {}", op.label(), stage.label()),
            EventKind::Serve { gauge, value } => format!("serve {gauge}={value}"),
        }
    }

    /// Chrome trace category string for this event.
    pub fn chrome_category(&self) -> &'static str {
        match &self.kind {
            EventKind::Slice { .. } => "clock",
            EventKind::KernelLaunch { .. } | EventKind::KernelComplete { .. } => "kernel",
            EventKind::DevAlloc { .. }
            | EventKind::DevFree { .. }
            | EventKind::PresentHit { .. }
            | EventKind::PresentMiss { .. } => "memory",
            EventKind::Transfer { .. } => "transfer",
            EventKind::Coherence { .. } => "coherence",
            EventKind::Finding { .. } => "finding",
            EventKind::Verification { .. } => "verify",
            EventKind::Stage { .. } => "stage",
            EventKind::Cache { .. } => "cache",
            EventKind::Serve { .. } => "serve",
        }
    }

    /// True when the event concerns the named kernel (its launch,
    /// completion, verification verdict, or a transfer/finding at a site
    /// named after it — kernel-boundary transfers use the kernel name as
    /// their report site).
    pub fn matches_kernel(&self, name: &str) -> bool {
        match &self.kind {
            EventKind::KernelLaunch { kernel, .. }
            | EventKind::KernelComplete { kernel }
            | EventKind::Verification { kernel, .. } => kernel == name,
            EventKind::Transfer { site, .. } | EventKind::Finding { site, .. } => {
                site == name || site.starts_with(&format!("{name}_"))
            }
            _ => false,
        }
    }

    /// True when the event mentions the named variable.
    pub fn mentions_var(&self, name: &str) -> bool {
        match &self.kind {
            EventKind::DevAlloc { var, .. }
            | EventKind::DevFree { var }
            | EventKind::Transfer { var, .. }
            | EventKind::PresentHit { var }
            | EventKind::PresentMiss { var }
            | EventKind::Coherence { var, .. }
            | EventKind::Finding { var, .. } => var == name,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each `ALL` is a code table: an entry's code is its position. The
    // matches are exhaustive, so a new variant does not compile here until
    // it is given a code, and each loop checks that `ALL` holds every entry
    // at its code.

    #[test]
    fn category_all_is_its_code_table() {
        let code = |c| match c {
            Category::GpuMemFree => 0,
            Category::GpuMemAlloc => 1,
            Category::MemTransfer => 2,
            Category::AsyncWait => 3,
            Category::ResultComp => 4,
            Category::CpuTime => 5,
            Category::KernelExec => 6,
        };
        for (i, c) in Category::ALL.into_iter().enumerate() {
            assert_eq!(code(c), i, "{c:?}");
        }
    }

    #[test]
    fn state_all_is_its_code_table() {
        let code = |s| match s {
            St::NotStale => 0,
            St::MayStale => 1,
            St::Stale => 2,
        };
        for (i, s) in St::ALL.into_iter().enumerate() {
            assert_eq!(code(s), i, "{s:?}");
        }
    }

    #[test]
    fn side_all_is_its_code_table() {
        let code = |s| match s {
            Side::Cpu => 0,
            Side::Gpu => 1,
            Side::Gpu1 => 2,
            Side::Gpu2 => 3,
            Side::Gpu3 => 4,
            Side::Gpu4 => 5,
            Side::Gpu5 => 6,
            Side::Gpu6 => 7,
            Side::Gpu7 => 8,
        };
        for (i, s) in Side::ALL.into_iter().enumerate() {
            assert_eq!(code(s), i, "{s:?}");
        }
    }

    #[test]
    fn cause_all_is_its_code_table() {
        let code = |c| match c {
            Cause::Write => 0,
            Cause::Transfer => 1,
            Cause::Reset => 2,
            Cause::Dealloc => 3,
        };
        for (i, c) in Cause::ALL.into_iter().enumerate() {
            assert_eq!(code(c), i, "{c:?}");
        }
    }

    #[test]
    fn severity_all_is_its_code_table() {
        let code = |s| match s {
            Severity::Info => 0,
            Severity::Warning => 1,
            Severity::Error => 2,
        };
        for (i, s) in Severity::ALL.into_iter().enumerate() {
            assert_eq!(code(s), i, "{s:?}");
        }
    }

    #[test]
    fn phase_all_is_its_code_table() {
        let code = |p| match p {
            Phase::Frontend => (0, "frontend"),
            Phase::Directives => (1, "directives"),
            Phase::Analysis => (2, "analysis"),
            Phase::Instrument => (3, "instrument"),
            Phase::Plan => (4, "plan"),
            Phase::Execute => (5, "execute"),
            Phase::Verify => (6, "verify"),
            Phase::VerifyStaging => (7, "verify:staging"),
            Phase::VerifyOverlap => (8, "verify:overlap"),
            Phase::VerifyCompare => (9, "verify:compare"),
        };
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(code(p), (i, p.label()), "{p:?}");
        }
    }

    #[test]
    fn cache_op_all_is_its_code_table() {
        let code = |o| match o {
            CacheOp::Hit => (0, "hit"),
            CacheOp::Miss => (1, "miss"),
            CacheOp::Store => (2, "store"),
            CacheOp::Evict => (3, "evict"),
            CacheOp::Corrupt => (4, "corrupt"),
        };
        for (i, o) in CacheOp::ALL.into_iter().enumerate() {
            assert_eq!(code(o), (i, o.label()), "{o:?}");
        }
    }
}
