//! # openarc-runtime
//!
//! The OpenACC runtime of OpenARC-rs: present table, structured data
//! environments, the host↔device transfer engine with simulated-time
//! accounting, and — the paper's §III-B centerpiece — the **runtime
//! coherence tracker** (`notstale` / `maystale` / `stale` per variable per
//! device) plus the report engine that produces Listing-4-style
//! missing/incorrect/redundant/may-* findings.
//!
//! ## The coherence state machine
//!
//! Each tracked variable carries one state per side (`cpu`, `gpu`):
//!
//! * `notstale` — this copy holds the latest data;
//! * `maystale` — a *conditional* remote write may have outdated it
//!   (the §III-B "may" findings);
//! * `stale` — a remote write definitely outdated it.
//!
//! Writes demote the *other* side (`stale`, or `maystale` when the write
//! is conditional); a transfer promotes its destination to `notstale`;
//! deallocation of the device copy demotes the gpu side. The two sides
//! are never simultaneously `stale` — someone always holds the latest
//! data (property-tested in `tests/props.rs`).
//!
//! ## Event journal
//!
//! When a [`openarc_trace::Journal`] is attached
//! ([`Machine::set_journal`]), the machine emits the semantic events of
//! the `openarc-trace` schema: `DevAlloc`/`DevFree`,
//! `PresentHit`/`PresentMiss`, `Transfer` spans (on the host track, or
//! the owning async-queue track), every `Coherence` transition
//! (obtained by diffing the state machine around each
//! write/transfer/dealloc, with the cause recorded), and each report
//! `Finding` at the simulated time it was raised. With the journal
//! disabled (the default) each site costs a single branch.

#![warn(missing_docs)]

pub mod coherence;
pub mod machine;
pub mod present;
pub mod report;

pub use coherence::{Coherence, DevSide, Loc, ReadDiag, VarState, XferDiag};
pub use machine::{Machine, TransferStats, MAX_DEVICES};
pub use openarc_trace::St;
pub use present::{Mapping, PresentTable};
pub use report::{Direction, Issue, IssueKind, Report};
