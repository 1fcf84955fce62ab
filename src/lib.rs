//! # OpenARC-rs
//!
//! A Rust reproduction of *"Interactive Program Debugging and Optimization
//! for Directive-Based, Efficient GPU Computing"* (Lee, Li, Vetter —
//! IPDPS 2014): the interactive debugging and optimization system the
//! paper built inside the OpenARC OpenACC compiler, together with every
//! substrate it needs — a C-subset frontend, the OpenACC 1.0 directive
//! model, the dataflow analyses (Algorithms 1 and 2), a bytecode VM, a
//! deterministic lockstep GPU simulator, and the OpenACC runtime with the
//! `notstale`/`maystale`/`stale` coherence tracker.
//!
//! ## Quick start
//!
//! ```
//! use openarc::prelude::*;
//!
//! let src = r#"
//! double q[16];
//! double w[16];
//! void main() {
//!     int j;
//!     for (j = 0; j < 16; j++) { w[j] = (double) j; }
//!     #pragma acc kernels loop gang worker
//!     for (j = 0; j < 16; j++) { q[j] = w[j] * 2.0; }
//! }
//! "#;
//! let (program, sema) = openarc::minic::frontend(src).unwrap();
//! let tr = translate(&program, &sema, &TranslateOptions::default()).unwrap();
//! let run = execute(&tr, &ExecOptions::default()).unwrap();
//! assert_eq!(run.global_array(&tr, "q").unwrap()[3], 6.0);
//! ```
//!
//! See `examples/` for kernel verification, interactive transfer
//! optimization, and race hunting.

#![warn(missing_docs)]

pub use openarc_bench as bench;
pub use openarc_core as core;
pub use openarc_dataflow as dataflow;
pub use openarc_gpusim as gpusim;
pub use openarc_minic as minic;
pub use openarc_openacc as openacc;
pub use openarc_runtime as runtime;
pub use openarc_suite as suite;
pub use openarc_trace as trace;
pub use openarc_vm as vm;

/// The most commonly used items in one import.
pub mod prelude {
    pub use openarc_core::exec::{
        execute, ExecMode, ExecOptions, RunResult, TransferOverlay, VerifyOptions,
    };
    pub use openarc_core::interactive::{optimize_transfers_in_session, OutputSpec};
    pub use openarc_core::pipeline::Session;
    pub use openarc_core::translate::{translate, TranslateOptions, Translated};
    pub use openarc_core::verify::demote_source;
    pub use openarc_minic::frontend;
    pub use openarc_suite::{Benchmark, Scale, Variant};
    pub use openarc_trace::{chrome_trace, explain_var, summarize, Journal};
}
