//! Binary on-disk codec for the cached pipeline artifacts.
//!
//! This is the cache's one entry format, normatively specified in
//! `docs/FORMAT.md`; this module is the reference implementation. In
//! brief:
//!
//! * every entry starts with the 8-byte magic `b"OARCBIN\0"` and a fixed
//!   40-byte little-endian header (format version, stage code, tool
//!   fingerprint hash, artifact id, section count);
//! * the payload is a fixed-order list of length-prefixed **sections**
//!   (`u32` kind + `u64` byte length + payload), one per top-level field
//!   group of the artifact, and the final section ends exactly at EOF;
//! * scalars are little-endian, `f64`/`f32` travel as raw bit patterns,
//!   strings are `u32`-length-prefixed UTF-8 validated (and borrowed)
//!   in place, and closed label sets travel as one-byte codes.
//!
//! Each IR and report record's shape is declared once (below, or beside
//! its type in the crate that owns it) and `openarc_trace::bin::Wire`
//! generates both directions; the header and the section framing are
//! written out here by hand.
//!
//! A decode is a single sequential pass over the mapped bytes: no
//! intermediate DOM is built, strings are validated in place and copied
//! exactly once into the artifact, and every length is bounds-checked against the
//! remaining buffer before any allocation. Any malformed input — bad
//! magic, wrong version, truncation, an unknown code, trailing bytes —
//! is a `String` error carrying a byte offset, never a panic; the disk
//! layer treats it as corruption and recomputes.

use crate::exec::{KernelVerification, RunResult};
use crate::ir::{DataAction, DataRegionInfo, KernelInfo, KernelParam, RtOp};
use crate::knowledge::{KernelAssert, KernelBound, KernelKnowledge};
use crate::pipeline::{ArtifactId, Fnv, FrontendArtifact, Stage, TranslatedArtifact};
use crate::translate::Translated;
use openarc_gpusim::{SimClock, TimeBreakdown};
use openarc_runtime::{Machine, Report};
use openarc_trace::bin::{read_events, write_events, Reader, Wire, Writer};
use openarc_trace::{wire_enum, wire_record, Category, TraceEvent};
use openarc_vm::BasicEnv;

type R<T> = Result<T, String>;

// ---------------------------------------------------------------------------
// Container constants
// ---------------------------------------------------------------------------

/// Magic bytes opening every binary cache entry.
pub const MAGIC: [u8; 8] = *b"OARCBIN\0";

/// Version of the container layout and every section schema. Bumped on any
/// incompatible change; a reader rejects other versions and the disk layer
/// recomputes the artifact.
pub const FORMAT_VERSION: u32 = 3;

/// Total size of the fixed entry header in bytes.
pub const HEADER_LEN: usize = 40;

/// Section kind codes, globally unique across artifact kinds so a stray
/// section is always identifiable in a hex dump.
pub mod section {
    /// Frontend: the parsed MiniC program.
    pub const PROGRAM: u32 = 1;
    /// Frontend: the semantic tables.
    pub const SEMA: u32 = 2;
    /// Translated: artifact flags (instrumented bit).
    pub const FLAGS: u32 = 3;
    /// Translated: rewritten host program.
    pub const HOST_PROGRAM: u32 = 4;
    /// Translated: host program semantic tables.
    pub const HOST_SEMA: u32 = 5;
    /// Translated: compiled host bytecode module.
    pub const HOST_MODULE: u32 = 6;
    /// Translated: extracted kernel program.
    pub const KERNEL_PROGRAM: u32 = 7;
    /// Translated: compiled kernel bytecode module.
    pub const KERNEL_MODULE: u32 = 8;
    /// Translated: runtime op sequence.
    pub const OPS: u32 = 9;
    /// Translated: kernel info table.
    pub const KERNELS: u32 = 10;
    /// Translated: data region table.
    pub const DATA_REGIONS: u32 = 11;
    /// Translated: update-site table.
    pub const UPDATE_SITES: u32 = 12;
    /// Translated: declare-clause actions.
    pub const DECLARES: u32 = 13;
    /// Run: simulated clock and per-category time breakdown.
    pub const CLOCK: u32 = 14;
    /// Run: final host global values.
    pub const GLOBALS: u32 = 15;
    /// Run: final host memory image.
    pub const MEM: u32 = 16;
    /// Run: transfer statistics.
    pub const STATS: u32 = 17;
    /// Run: coherence findings.
    pub const ISSUES: u32 = 18;
    /// Run: final loop-context stack.
    pub const LOOPS: u32 = 19;
    /// Run: kernel verification verdicts.
    pub const VERIFY: u32 = 20;
    /// Run: race reports.
    pub const RACES: u32 = 21;
    /// Run: launch / instruction counters.
    pub const COUNTS: u32 = 22;
    /// Run: recorded journal event stream.
    pub const EVENTS: u32 = 23;
}

const FRONTEND_SECTIONS: u32 = 2;
const TRANSLATED_SECTIONS: u32 = 11;
const RUN_SECTIONS: u32 = 10;

/// Stage code stored in the header: position in [`super::DISK_STAGES`].
fn stage_code(stage: Stage) -> Option<u32> {
    super::DISK_STAGES
        .iter()
        .position(|s| *s == stage)
        .map(|p| p as u32)
}

/// FNV-1a hash of [`super::tool_fingerprint`], stored in the header so a
/// decoder can reject entries written by another tool version without
/// parsing any payload.
fn tool_hash() -> u64 {
    Fnv::new().write_str(super::tool_fingerprint()).finish()
}

// ---------------------------------------------------------------------------
// Container framing
// ---------------------------------------------------------------------------

fn put_header(w: &mut Writer, stage: u32, id: ArtifactId, sections: u32) {
    w.put_bytes(&MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u32(stage);
    w.put_u64(tool_hash());
    w.put_u64(id.0);
    w.put_u32(sections);
    w.put_u32(0); // reserved
}

/// Validate the fixed header against the expected stage, the running
/// tool and the artifact id the entry's cache key was derived from,
/// returning a reader positioned at the first section.
fn open(bytes: &[u8], stage: Stage, id: ArtifactId, sections: u32) -> R<Reader<'_>> {
    let code = stage_code(stage)
        .ok_or_else(|| format!("stage {} is not persisted in binary form", stage.label()))?;
    let mut r = Reader::new(bytes);
    if r.bytes(MAGIC.len())? != MAGIC {
        return Err(r.err("bad magic (not an OARCBIN entry)"));
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(r.err(&format!(
            "unsupported format version {version} (this reader accepts {FORMAT_VERSION})"
        )));
    }
    let got = r.u32()?;
    if got != code {
        return Err(r.err(&format!(
            "stage code {got} does not match expected {code} ({})",
            stage.label()
        )));
    }
    let tool = r.u64()?;
    if tool != tool_hash() {
        return Err(r.err("tool fingerprint hash mismatch"));
    }
    let got = r.u64()?;
    if got != id.0 {
        return Err(r.err(&format!(
            "artifact id mismatch: entry holds {got:#018x}, expected {:#018x}",
            id.0
        )));
    }
    let n = r.u32()?;
    if n != sections {
        return Err(r.err(&format!("expected {sections} sections, header says {n}")));
    }
    let reserved = r.u32()?;
    if reserved != 0 {
        return Err(r.err(&format!("reserved header field must be 0, got {reserved}")));
    }
    Ok(r)
}

/// Append one section: kind, length placeholder, payload, then patch the
/// real length in.
fn put_section(w: &mut Writer, kind: u32, body: impl FnOnce(&mut Writer)) {
    w.put_u32(kind);
    let at = w.len();
    w.put_u64(0);
    let start = w.len();
    body(w);
    w.patch_u64(at, (w.len() - start) as u64);
}

/// Read one section header, checking the kind, and decode its payload
/// with `body`, which must consume the section exactly.
fn get_section<'a, T>(
    r: &mut Reader<'a>,
    kind: u32,
    body: impl FnOnce(&mut Reader<'a>) -> R<T>,
) -> R<T> {
    let got = r.u32()?;
    if got != kind {
        return Err(r.err(&format!("expected section kind {kind}, found {got}")));
    }
    let len = r.u64()?;
    let len = usize::try_from(len).map_err(|_| r.err("section length overflows usize"))?;
    let mut sub = Reader::new(r.bytes(len)?);
    let v = body(&mut sub).map_err(|e| format!("section {kind}: {e}"))?;
    sub.expect_end()
        .map_err(|e| format!("section {kind}: {e}"))?;
    Ok(v)
}

// ---------------------------------------------------------------------------
// IR table declarations
// ---------------------------------------------------------------------------

wire_record!(DataAction {
    var,
    map,
    copyin,
    copyout,
    from_clause,
    covering_region,
    written,
});

wire_enum!(KernelParam {
    0 => Aggregate { var },
    1 => Scalar { var },
    2 => SharedCell { var, init_global },
    3 => ReductionSlot { var, op },
});

wire_record!(KernelBound { var, lo, hi });

wire_enum!(KernelAssert {
    0 => ChecksumWithin { var, expected, tol },
    1 => AllFinite { var },
    2 => NonNegative { var },
});

wire_record!(KernelKnowledge { bounds, asserts });

// `wave_override` is a `u32` on a `u64` wire.
wire_record!(KernelInfo {
    name,
    seq_name,
    n_threads_global,
    params,
    actions,
    gpu_reads,
    gpu_writes,
    hoisted_writes,
    reductions,
    knowledge,
    wave_override [via Option<u64>:
        |v: &Option<u32>| v.map(u64::from),
        |x: Option<u64>| x.map(|x| x as u32)],
    queue,
    if_global,
    stmt,
    line,
});

wire_record!(DataRegionInfo {
    actions,
    if_global,
    stmt
});

wire_enum!(RtOp {
    0 => DataEnter(region),
    1 => DataExit(region),
    2 => Launch(kernel),
    3 => Update { to_host, to_device, queue, site, if_global },
    4 => Wait(queue),
    5 => CheckRead { var, side, site },
    6 => CheckWrite { var, side, total, site },
    7 => ResetStatus { var, side, st },
    8 => LoopEnter { label },
    9 => LoopTick,
    10 => LoopExit,
});

wire_record!(KernelVerification {
    kernel,
    launches,
    failed_launches,
    compared_elems,
    mismatched_elems,
    max_abs_err,
    assertion_failures,
});

// ---------------------------------------------------------------------------
// Artifact encoders
// ---------------------------------------------------------------------------

/// Encode a frontend artifact as a complete binary entry.
pub fn encode_frontend(art: &FrontendArtifact) -> Vec<u8> {
    let mut w = Writer::new();
    put_header(
        &mut w,
        stage_code(Stage::Frontend).expect("frontend is a disk stage"),
        art.id,
        FRONTEND_SECTIONS,
    );
    put_section(&mut w, section::PROGRAM, |w| art.program.put(w));
    put_section(&mut w, section::SEMA, |w| art.sema.put(w));
    w.into_bytes()
}

/// Encode a translation artifact as a complete binary entry. `stage` must
/// be the disk stage the entry is keyed under ([`Stage::Analysis`] or
/// [`Stage::Instrument`]).
pub fn encode_translated(stage: Stage, art: &TranslatedArtifact) -> Vec<u8> {
    assert!(
        matches!(stage, Stage::Analysis | Stage::Instrument),
        "translated artifacts live in the analysis/instrument stages"
    );
    let tr = &art.tr;
    let mut w = Writer::new();
    put_header(
        &mut w,
        stage_code(stage).expect("checked above"),
        art.id,
        TRANSLATED_SECTIONS,
    );
    put_section(&mut w, section::FLAGS, |w| art.instrumented.put(w));
    put_section(&mut w, section::HOST_PROGRAM, |w| tr.host_program.put(w));
    put_section(&mut w, section::HOST_SEMA, |w| tr.host_sema.put(w));
    put_section(&mut w, section::HOST_MODULE, |w| tr.host_module.put(w));
    put_section(&mut w, section::KERNEL_PROGRAM, |w| {
        tr.kernel_program.put(w)
    });
    put_section(&mut w, section::KERNEL_MODULE, |w| tr.kernel_module.put(w));
    put_section(&mut w, section::OPS, |w| tr.ops.put(w));
    put_section(&mut w, section::KERNELS, |w| tr.kernels.put(w));
    put_section(&mut w, section::DATA_REGIONS, |w| tr.data_regions.put(w));
    put_section(&mut w, section::UPDATE_SITES, |w| tr.update_sites.put(w));
    put_section(&mut w, section::DECLARES, |w| tr.declares.put(w));
    w.into_bytes()
}

/// Encode a finished run's observable surface plus its recorded journal
/// event stream as a complete binary entry.
pub fn encode_run(id: ArtifactId, r: &RunResult, events: &[TraceEvent]) -> Vec<u8> {
    let m = &r.machine;
    let mut w = Writer::new();
    put_header(
        &mut w,
        stage_code(Stage::Execute).expect("execute is a disk stage"),
        id,
        RUN_SECTIONS,
    );
    put_section(&mut w, section::CLOCK, |w| {
        // Host time, one total per time category, then the queue ends.
        let per_cat: Vec<f64> = Category::ALL
            .iter()
            .map(|c| m.clock.breakdown.get(*c))
            .collect();
        (m.clock.now(), per_cat, m.clock.queue_snapshot()).put(w)
    });
    put_section(&mut w, section::GLOBALS, |w| m.host.globals.put(w));
    put_section(&mut w, section::MEM, |w| m.host.mem.put(w));
    put_section(&mut w, section::STATS, |w| m.stats.put(w));
    put_section(&mut w, section::ISSUES, |w| m.report.issues.put(w));
    put_section(&mut w, section::LOOPS, |w| m.loop_context.put(w));
    put_section(&mut w, section::VERIFY, |w| r.verify.put(w));
    put_section(&mut w, section::RACES, |w| r.races.put(w));
    put_section(&mut w, section::COUNTS, |w| {
        (r.kernel_launches, r.host_instrs).put(w)
    });
    put_section(&mut w, section::EVENTS, |w| write_events(w, events));
    w.into_bytes()
}

// ---------------------------------------------------------------------------
// Artifact decoders
// ---------------------------------------------------------------------------

/// Decode a frontend entry, checking the header id against the expected
/// cache key id.
pub fn decode_frontend(id: ArtifactId, bytes: &[u8]) -> R<FrontendArtifact> {
    let mut r = open(bytes, Stage::Frontend, id, FRONTEND_SECTIONS)?;
    let program = get_section(&mut r, section::PROGRAM, Wire::get)?;
    let sema = get_section(&mut r, section::SEMA, Wire::get)?;
    r.expect_end()?;
    Ok(FrontendArtifact { id, program, sema })
}

/// Decode a translation entry stored under `stage`, checking the header
/// id against the expected cache key id.
pub fn decode_translated(stage: Stage, id: ArtifactId, bytes: &[u8]) -> R<TranslatedArtifact> {
    let mut r = open(bytes, stage, id, TRANSLATED_SECTIONS)?;
    let instrumented = get_section(&mut r, section::FLAGS, Wire::get)?;
    let host_program = get_section(&mut r, section::HOST_PROGRAM, Wire::get)?;
    let host_sema = get_section(&mut r, section::HOST_SEMA, Wire::get)?;
    let host_module = get_section(&mut r, section::HOST_MODULE, Wire::get)?;
    let kernel_program = get_section(&mut r, section::KERNEL_PROGRAM, Wire::get)?;
    let kernel_module = get_section(&mut r, section::KERNEL_MODULE, Wire::get)?;
    let ops = get_section(&mut r, section::OPS, Wire::get)?;
    let kernels = get_section(&mut r, section::KERNELS, Wire::get)?;
    let data_regions = get_section(&mut r, section::DATA_REGIONS, Wire::get)?;
    let update_sites = get_section(&mut r, section::UPDATE_SITES, Wire::get)?;
    let declares = get_section(&mut r, section::DECLARES, Wire::get)?;
    r.expect_end()?;
    Ok(TranslatedArtifact {
        id,
        instrumented,
        tr: Translated {
            host_program,
            host_sema,
            host_module,
            kernel_program,
            kernel_module,
            ops,
            kernels,
            data_regions,
            update_sites,
            declares,
        },
    })
}

/// Decode a run entry, checking the header id against the expected cache
/// key id.
pub fn decode_run(id: ArtifactId, bytes: &[u8]) -> R<(RunResult, Vec<TraceEvent>)> {
    let mut r = open(bytes, Stage::Execute, id, RUN_SECTIONS)?;
    let (now, per_cat, queues): (f64, Vec<f64>, _) =
        get_section(&mut r, section::CLOCK, Wire::get)?;
    if per_cat.len() != Category::ALL.len() {
        return Err(format!(
            "section {}: expected {} time categories, got {}",
            section::CLOCK,
            Category::ALL.len(),
            per_cat.len()
        ));
    }
    let mut breakdown = TimeBreakdown::default();
    for (cat, t) in Category::ALL.iter().zip(per_cat) {
        breakdown.add(*cat, t);
    }
    let globals = get_section(&mut r, section::GLOBALS, Wire::get)?;
    let mem = get_section(&mut r, section::MEM, Wire::get)?;

    let mut machine = Machine::new(BasicEnv { globals, mem }, false);
    machine.clock = SimClock::restore(now, breakdown, queues);
    machine.stats = get_section(&mut r, section::STATS, Wire::get)?;
    machine.report = Report {
        issues: get_section(&mut r, section::ISSUES, Wire::get)?,
    };
    machine.loop_context = get_section(&mut r, section::LOOPS, Wire::get)?;

    let verify = get_section(&mut r, section::VERIFY, Wire::get)?;
    let races = get_section(&mut r, section::RACES, Wire::get)?;
    let (kernel_launches, host_instrs) = get_section(&mut r, section::COUNTS, Wire::get)?;
    let events = get_section(&mut r, section::EVENTS, read_events)?;
    r.expect_end()?;
    Ok((
        RunResult {
            machine,
            verify,
            races,
            kernel_launches,
            host_instrs,
        },
        events,
    ))
}

#[cfg(test)]
mod tests;
