//! # openarc-gpusim
//!
//! Deterministic GPU simulator for OpenARC-rs — the substitute for the
//! paper's Tesla M2090 + CUDA stack (see DESIGN.md §4).
//!
//! What it preserves of the real machine, because the paper's results
//! depend on it:
//!
//! * **Separate address spaces** — device memory is its own
//!   [`openarc_vm::MemSpace`]; data moves only through explicit transfers,
//!   so missing/redundant-transfer bugs behave as on hardware.
//! * **Lockstep thread execution** ([`exec::launch`]) — races from missed
//!   privatization corrupt results deterministically, like
//!   warp-synchronous execution.
//! * **Transfer/latency cost shape** ([`cost::CostModel`]) — per-transfer
//!   latency plus bandwidth term, slow single threads but high aggregate
//!   throughput, so time breakdowns (Figures 1/3/4) keep the paper's shape.
//! * **Floating-point divergence** — `float` math stays in f32 and
//!   reductions combine in tree order ([`exec::tree_combine`]).
//!
//! Beyond the paper's hardware, the simulator adds a race **oracle**
//! ([`race::RaceDetector`]) used to count latent errors in the Table 2
//! reproduction, and a **launch memo** ([`memo::LaunchMemo`]) that
//! serves a launch whose inputs an earlier one already had instead of
//! simulating it again.
//!
//! ## Event journal
//!
//! The simulated clock ([`clock::SimClock`]) owns the run's
//! [`openarc_trace::Journal`]. Every time charge
//! ([`SimClock::advance`], and the stall portion of [`SimClock::wait_on`])
//! emits a `Slice` event tagged with its [`openarc_trace::Category`] —
//! the one type both the journal and [`TimeBreakdown`] count by — at the
//! moment the charge lands, so the journal's per-category totals are the
//! same f64 additions, in the same order, as the breakdown, and
//! reconcile with it exactly. Async work enqueued via [`SimClock::enqueue_async_on`]
//! reports its true simulated start time so kernel/transfer spans land
//! on the right queue track of the trace.

#![warn(missing_docs)]

pub mod clock;
pub mod cost;
pub mod device;
pub mod exec;
pub mod memo;
pub mod race;

pub use clock::{SimClock, TimeBreakdown};
pub use cost::CostModel;
pub use device::{Device, DeviceEnv, DeviceId, DeviceSet};
pub use exec::{launch, tree_combine, KernelOutcome, LaunchConfig};
pub use memo::{LaunchMemo, LaunchStats, ModuleFp};
pub use race::{AccessKind, RaceDetector, RaceReport};
