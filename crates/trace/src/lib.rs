//! # openarc-trace — the execution event journal
//!
//! Structured observability for the simulated OpenACC stack. Every layer
//! emits typed [`TraceEvent`]s into a shared [`Journal`]:
//!
//! * **gpusim** — the simulated clock emits a [`EventKind::Slice`] for every
//!   host-time charge, plus kernel-execution and transfer spans on their
//!   async-queue tracks;
//! * **runtime** — the machine emits present-table hits/misses, device
//!   alloc/free, H2D/D2H transfers, coherence transitions
//!   (`notstale`/`maystale`/`stale`, the paper's §III-B states) and
//!   transfer-report findings;
//! * **core** — the executor emits per-launch kernel-verification verdicts
//!   (§III-A) with error margins.
//!
//! ## Event schema
//!
//! A [`TraceEvent`] is `{ts_us, dur_us, track, kind}`: a simulated-µs start
//! timestamp, a duration (`0` = instant), the timeline it belongs to
//! ([`Track::Host`] or [`Track::Queue`]) and a typed payload
//! ([`EventKind`]). See the [`event`] module for the full taxonomy.
//!
//! ## Reconciliation guarantee
//!
//! Slices are emitted by the clock at the instant time is charged, so
//! [`summary::category_totals`] performs the same `f64` additions in the
//! same order as the clock's `TimeBreakdown` — summaries reconcile with
//! Figure-3 accounting **exactly**, not approximately. A disabled journal
//! (the [`Journal::default`]) costs one branch per emission site.
//!
//! ## Exports
//!
//! [`chrome::chrome_trace`] renders the journal as Chrome `trace_event`
//! JSON (loadable in `chrome://tracing` / Perfetto); [`summary::summarize`]
//! digests it into per-category totals and per-kernel rows;
//! [`explain::explain_var`] renders one variable's timeline — the evidence
//! behind "why was this transfer flagged redundant".

#![warn(missing_docs)]

pub mod bin;
pub mod chrome;
pub mod coverage;
pub mod event;
pub mod explain;
mod fnv;
pub mod journal;
pub mod json;
pub mod summary;

pub use chrome::chrome_trace;
pub use coverage::{signature_of, Signature};
pub use event::{
    CacheOp, Category, Cause, EventKind, Phase, Severity, Side, St, TraceEvent, Track,
};
pub use explain::explain_var;
pub use fnv::Fnv;
pub use journal::{Journal, JournalPart};
pub use summary::{category_totals, summarize, KernelRow, Summary};
