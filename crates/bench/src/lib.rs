//! # openarc-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§IV). See [`experiments`] for the drivers, [`render`] for
//! their text tables, and the `paper` binary, which prints all of them
//! plus the ablation studies. All drivers take a [`sweep::Sweep`] — scale
//! × shared pipeline session — and walk the benchmark matrix in order on
//! the calling thread. Performance is measured by the separate
//! `benchmark/` package, not here.

#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod fuzzstats;
pub mod render;
pub mod sweep;
