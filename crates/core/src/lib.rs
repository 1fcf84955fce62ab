//! # openarc-core
//!
//! The paper's contribution, reproduced: an interactive program debugging
//! and optimization system for directive-based GPU programs, built on an
//! OpenACC→device translator.
//!
//! * [`mod@translate`] — OpenARC's front half: compute-region outlining,
//!   privatization / reduction recognition (switchable, for the §IV-B
//!   fault-injection study), data-clause lowering, `__host_op` markers.
//! * [`instrument`] — §III-B coherence-check placement (first-access,
//!   last-write resets, Listing-3 hoisting).
//! * [`exec`] — the executor over the simulated machine, with Normal /
//!   CpuOnly / Verify modes and the interactive [`exec::TransferOverlay`].
//! * [`verify`] — §III-A kernel verification: memory-transfer demotion
//!   (Listing 2) and the [`VerificationReport`] that
//!   [`pipeline::Session::verify`], the one verification driver, returns.
//! * [`interactive`] — the §III-B/Figure-2 iterative optimization loop
//!   (Table 3's mechanics: suggestions, false-suggestion recovery).
//! * [`faults`] — clause stripping for the Table 2 experiment.

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod compare;
pub mod exec;
pub mod faults;
pub mod fuzz;
pub mod instrument;
pub mod interactive;
pub mod ir;
pub mod knowledge;
pub mod options;
pub mod pipeline;
pub mod sched;
pub mod serve;
pub mod translate;
pub mod verify;

pub use api::{Action, ApiError, ErrorKind, Request, Response};
pub use cache::{DiskCache, DiskStats};
pub use exec::{
    execute, ExecMode, ExecOptions, KernelVerification, RunResult, TransferKey, TransferOverlay,
    VerifyOptions,
};
pub use faults::strip_privatization;
pub use fuzz::{run_campaign, CampaignConfig, CampaignReport};
pub use interactive::{optimize_transfers_in_session, InteractiveOutcome, OutputSpec};
pub use ir::{DataAction, KernelInfo, KernelParam, RtOp};
pub use knowledge::{KernelAssert, KernelBound, KernelKnowledge};
pub use options::parse_verification_options;
pub use pipeline::{PipelineRun, PipelineStats, Session, Stage};
pub use sched::{parse_jobs, run_tasks};
pub use serve::{Server, ServerConfig};
pub use translate::{translate, TranslateOptions, Translated};
pub use verify::{demote_source, VerificationReport};
