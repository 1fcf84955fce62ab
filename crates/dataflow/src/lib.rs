//! # openarc-dataflow
//!
//! Control-flow graphs and the dataflow analyses behind the paper's
//! memory-transfer verification and optimization (§III-B):
//!
//! * [`mod@cfg`] — OpenACC-aware CFG construction: compute regions collapse
//!   into kernel nodes with device-side access summaries; variables are
//!   dense ids into a sorted name table, access sets are bitsets.
//! * [`solver`] — the one gen/kill worklist solver behind every analysis.
//! * [`analyses::dead_live`] — the paper's **Algorithm 1**
//!   (may-dead / may-live / must-dead).
//! * [`analyses::last_write`] — **Algorithm 2** (last-write detection).
//! * [`analyses::first_access`] — first-read/first-write placement for
//!   runtime coherence checks.
//! * [`analyses::natural_loops`] — loop structure for the check-hoisting
//!   optimization (Listing 3).
//! * [`alias`] — conservative pointer analysis whose imprecision produces
//!   the "incorrect iterations" of Table III.

#![warn(missing_docs)]

pub mod alias;
pub mod analyses;
pub mod cfg;
pub mod solver;

pub use alias::{analyze as alias_analyze, AliasInfo, Loc};
pub use analyses::{
    dead_live, dead_live_compute, first_access, last_write, liveness, natural_loops, AccessSel,
    DeadLiveResult, Deadness, FirstAccessResult, LastWriteResult, NaturalLoop,
};
pub use cfg::{
    has, insert, ones, AccessSummary, Cfg, CfgNode, ComputeRegion, DataRegion, NodeKind, Side,
    VarId,
};
pub use solver::{solve, Direction, Masks, Meet, Solution};
