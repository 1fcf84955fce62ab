//! # openarc-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§IV). See [`experiments`] for the drivers and the
//! `figure1`/`figure3`/`figure4`/`table2`/`table3`/`paper` binaries for
//! the renderers. All drivers take a [`sweep::Sweep`] — scale × worker
//! count × shared pipeline session — so the same code runs sequentially
//! or fanned across cores (`--jobs N`) with byte-identical output; the
//! `pipeline` bin measures the real (wall-clock) cost of the same
//! pipelines with the [`timing`] helper.

#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod fuzzstats;
pub mod render;
pub mod sweep;
pub mod timing;
