//! # openarc-vm
//!
//! Bytecode compiler and resumable interpreter for MiniC.
//!
//! The same bytecode executes in two worlds:
//!
//! * **Host**: a single [`interp::ThreadState`] running the translated host
//!   program against host memory (plus runtime hooks, in `openarc-runtime`).
//! * **Device**: a [`wave::Wave`] of simulated GPU threads, run as lane
//!   groups (one instruction stream per convergent group) and scheduled in
//!   lockstep order by `openarc-gpusim` against device memory.
//!
//! Resumable execution (a slice parks before any instruction its caller
//! wants to order itself) is the key property: it lets the device
//! simulator interleave threads deterministically, so the data races the
//! paper's kernel-verification tool must catch actually occur and are
//! reproducible.

#![warn(missing_docs)]

pub mod binio;
pub mod bytecode;
pub mod compile;
pub mod error;
mod fuse;
pub mod interp;
pub mod mem;
pub mod value;
pub mod wave;

pub use bytecode::{Chunk, GlobalInfo, Instr, Module};
pub use compile::{compile, GLOBALS_INIT, HOST_OP};
pub use error::VmError;
pub use interp::{call_function, BasicEnv, Env, Stop, ThreadState, Yield};
pub use mem::{BufData, Buffer, MemSpace};
pub use openarc_minic::Intrinsic;
pub use value::{Handle, Value};
pub use wave::{Group, Park, Wave};
