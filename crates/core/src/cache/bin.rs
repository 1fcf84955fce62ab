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
use openarc_gpusim::{RaceReport, SimClock, TimeBreakdown};
use openarc_minic::binio as mb;
use openarc_minic::NodeId;
use openarc_openacc::{DataClauseKind, ReductionOp};
use openarc_runtime::coherence::DevSide;
use openarc_runtime::{Direction, Issue, IssueKind, Machine, Report, St, TransferStats};
use openarc_trace::bin::{read_events, write_events, Reader, Writer};
use openarc_trace::{Category, TraceEvent};
use openarc_vm::binio as vb;
use openarc_vm::{BasicEnv, Handle};

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
// Small field helpers
// ---------------------------------------------------------------------------

fn put_opt_str(w: &mut Writer, v: &Option<String>) {
    match v {
        Some(s) => {
            w.put_u8(1);
            w.put_str(s);
        }
        None => w.put_u8(0),
    }
}

fn get_opt_string(r: &mut Reader<'_>) -> R<Option<String>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.string()?)),
        t => Err(r.err(&format!("invalid option tag {t}"))),
    }
}

fn put_opt_u64(w: &mut Writer, v: Option<u64>) {
    match v {
        Some(x) => {
            w.put_u8(1);
            w.put_u64(x);
        }
        None => w.put_u8(0),
    }
}

fn get_opt_u64(r: &mut Reader<'_>) -> R<Option<u64>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        t => Err(r.err(&format!("invalid option tag {t}"))),
    }
}

fn put_strings(w: &mut Writer, xs: &[String]) {
    w.put_seq_len(xs.len());
    for x in xs {
        w.put_str(x);
    }
}

fn get_strings(r: &mut Reader<'_>) -> R<Vec<String>> {
    read_vec(r, |r| r.string())
}

fn read_vec<'a, T>(r: &mut Reader<'a>, mut f: impl FnMut(&mut Reader<'a>) -> R<T>) -> R<Vec<T>> {
    let n = r.seq_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(f(r)?);
    }
    Ok(out)
}

/// Codes of an issue's optional transfer direction.
const DIRECTIONS: [Option<Direction>; 3] =
    [None, Some(Direction::ToDevice), Some(Direction::ToHost)];

// ---------------------------------------------------------------------------
// IR table codecs
// ---------------------------------------------------------------------------

fn put_action(w: &mut Writer, a: &DataAction) {
    w.put_str(&a.var);
    w.put_bool(a.map);
    w.put_bool(a.copyin);
    w.put_bool(a.copyout);
    match a.from_clause {
        Some(c) => {
            w.put_u8(1);
            w.put_code(&DataClauseKind::ALL, c);
        }
        None => w.put_u8(0),
    }
    put_opt_u64(w, a.covering_region.map(|r| r as u64));
    w.put_bool(a.written);
}

fn get_action(r: &mut Reader<'_>) -> R<DataAction> {
    Ok(DataAction {
        var: r.string()?,
        map: r.bool()?,
        copyin: r.bool()?,
        copyout: r.bool()?,
        from_clause: match r.u8()? {
            0 => None,
            1 => Some(r.code(&DataClauseKind::ALL, "data clause")?),
            t => return Err(r.err(&format!("invalid option tag {t}"))),
        },
        covering_region: get_opt_u64(r)?.map(|x| x as usize),
        written: r.bool()?,
    })
}

fn put_actions(w: &mut Writer, actions: &[DataAction]) {
    w.put_seq_len(actions.len());
    for a in actions {
        put_action(w, a);
    }
}

fn get_actions(r: &mut Reader<'_>) -> R<Vec<DataAction>> {
    read_vec(r, get_action)
}

mod param_tag {
    pub const AGGREGATE: u8 = 0;
    pub const SCALAR: u8 = 1;
    pub const SHARED_CELL: u8 = 2;
    pub const REDUCTION_SLOT: u8 = 3;
}

fn put_param(w: &mut Writer, p: &KernelParam) {
    match p {
        KernelParam::Aggregate { var } => {
            w.put_u8(param_tag::AGGREGATE);
            w.put_str(var);
        }
        KernelParam::Scalar { var } => {
            w.put_u8(param_tag::SCALAR);
            w.put_str(var);
        }
        KernelParam::SharedCell { var, init_global } => {
            w.put_u8(param_tag::SHARED_CELL);
            w.put_str(var);
            put_opt_str(w, init_global);
        }
        KernelParam::ReductionSlot { var, op } => {
            w.put_u8(param_tag::REDUCTION_SLOT);
            w.put_str(var);
            w.put_code(&ReductionOp::ALL, *op);
        }
    }
}

fn get_param(r: &mut Reader<'_>) -> R<KernelParam> {
    let tag = r.u8()?;
    Ok(match tag {
        param_tag::AGGREGATE => KernelParam::Aggregate { var: r.string()? },
        param_tag::SCALAR => KernelParam::Scalar { var: r.string()? },
        param_tag::SHARED_CELL => KernelParam::SharedCell {
            var: r.string()?,
            init_global: get_opt_string(r)?,
        },
        param_tag::REDUCTION_SLOT => KernelParam::ReductionSlot {
            var: r.string()?,
            op: r.code(&ReductionOp::ALL, "reduction op")?,
        },
        other => return Err(r.err(&format!("unknown kernel param tag {other}"))),
    })
}

mod assert_tag {
    pub const CHECKSUM: u8 = 0;
    pub const FINITE: u8 = 1;
    pub const NONNEG: u8 = 2;
}

fn put_knowledge(w: &mut Writer, k: &KernelKnowledge) {
    w.put_seq_len(k.bounds.len());
    for b in &k.bounds {
        w.put_str(&b.var);
        w.put_f64(b.lo);
        w.put_f64(b.hi);
    }
    w.put_seq_len(k.asserts.len());
    for a in &k.asserts {
        match a {
            KernelAssert::ChecksumWithin { var, expected, tol } => {
                w.put_u8(assert_tag::CHECKSUM);
                w.put_str(var);
                w.put_f64(*expected);
                w.put_f64(*tol);
            }
            KernelAssert::AllFinite { var } => {
                w.put_u8(assert_tag::FINITE);
                w.put_str(var);
            }
            KernelAssert::NonNegative { var } => {
                w.put_u8(assert_tag::NONNEG);
                w.put_str(var);
            }
        }
    }
}

fn get_knowledge(r: &mut Reader<'_>) -> R<KernelKnowledge> {
    let bounds = read_vec(r, |r| {
        Ok(KernelBound {
            var: r.string()?,
            lo: r.f64()?,
            hi: r.f64()?,
        })
    })?;
    let asserts = read_vec(r, |r| {
        let tag = r.u8()?;
        Ok(match tag {
            assert_tag::CHECKSUM => KernelAssert::ChecksumWithin {
                var: r.string()?,
                expected: r.f64()?,
                tol: r.f64()?,
            },
            assert_tag::FINITE => KernelAssert::AllFinite { var: r.string()? },
            assert_tag::NONNEG => KernelAssert::NonNegative { var: r.string()? },
            other => return Err(r.err(&format!("unknown assert tag {other}"))),
        })
    })?;
    Ok(KernelKnowledge { bounds, asserts })
}

fn put_kernel(w: &mut Writer, k: &KernelInfo) {
    w.put_str(&k.name);
    w.put_str(&k.seq_name);
    w.put_str(&k.n_threads_global);
    w.put_seq_len(k.params.len());
    for p in &k.params {
        put_param(w, p);
    }
    put_actions(w, &k.actions);
    put_strings(w, &k.gpu_reads);
    put_strings(w, &k.gpu_writes);
    put_strings(w, &k.hoisted_writes);
    w.put_seq_len(k.reductions.len());
    for (var, op) in &k.reductions {
        w.put_str(var);
        w.put_code(&ReductionOp::ALL, *op);
    }
    put_knowledge(w, &k.knowledge);
    put_opt_u64(w, k.wave_override.map(u64::from));
    w.put_opt_i64(k.queue);
    put_opt_str(w, &k.if_global);
    w.put_u32(k.stmt);
    w.put_u32(k.line);
}

fn get_kernel(r: &mut Reader<'_>) -> R<KernelInfo> {
    Ok(KernelInfo {
        name: r.string()?,
        seq_name: r.string()?,
        n_threads_global: r.string()?,
        params: read_vec(r, get_param)?,
        actions: get_actions(r)?,
        gpu_reads: get_strings(r)?,
        gpu_writes: get_strings(r)?,
        hoisted_writes: get_strings(r)?,
        reductions: read_vec(r, |r| {
            Ok((r.string()?, r.code(&ReductionOp::ALL, "reduction op")?))
        })?,
        knowledge: get_knowledge(r)?,
        wave_override: get_opt_u64(r)?.map(|x| x as u32),
        queue: r.opt_i64()?,
        if_global: get_opt_string(r)?,
        stmt: r.u32()? as NodeId,
        line: r.u32()?,
    })
}

fn put_region(w: &mut Writer, region: &DataRegionInfo) {
    put_actions(w, &region.actions);
    put_opt_str(w, &region.if_global);
    w.put_u32(region.stmt);
}

fn get_region(r: &mut Reader<'_>) -> R<DataRegionInfo> {
    Ok(DataRegionInfo {
        actions: get_actions(r)?,
        if_global: get_opt_string(r)?,
        stmt: r.u32()? as NodeId,
    })
}

mod op_tag {
    pub const DATA_ENTER: u8 = 0;
    pub const DATA_EXIT: u8 = 1;
    pub const LAUNCH: u8 = 2;
    pub const UPDATE: u8 = 3;
    pub const WAIT: u8 = 4;
    pub const CHECK_READ: u8 = 5;
    pub const CHECK_WRITE: u8 = 6;
    pub const RESET: u8 = 7;
    pub const LOOP_ENTER: u8 = 8;
    pub const LOOP_TICK: u8 = 9;
    pub const LOOP_EXIT: u8 = 10;
}

fn put_op(w: &mut Writer, op: &RtOp) {
    match op {
        RtOp::DataEnter(i) => {
            w.put_u8(op_tag::DATA_ENTER);
            w.put_u64(*i as u64);
        }
        RtOp::DataExit(i) => {
            w.put_u8(op_tag::DATA_EXIT);
            w.put_u64(*i as u64);
        }
        RtOp::Launch(i) => {
            w.put_u8(op_tag::LAUNCH);
            w.put_u64(*i as u64);
        }
        RtOp::Update {
            to_host,
            to_device,
            queue,
            site,
            if_global,
        } => {
            w.put_u8(op_tag::UPDATE);
            put_strings(w, to_host);
            put_strings(w, to_device);
            w.put_opt_i64(*queue);
            w.put_str(site);
            put_opt_str(w, if_global);
        }
        RtOp::Wait(q) => {
            w.put_u8(op_tag::WAIT);
            w.put_opt_i64(*q);
        }
        RtOp::CheckRead { var, side, site } => {
            w.put_u8(op_tag::CHECK_READ);
            w.put_str(var);
            w.put_code(&DevSide::ALL, *side);
            w.put_str(site);
        }
        RtOp::CheckWrite {
            var,
            side,
            total,
            site,
        } => {
            w.put_u8(op_tag::CHECK_WRITE);
            w.put_str(var);
            w.put_code(&DevSide::ALL, *side);
            w.put_bool(*total);
            w.put_str(site);
        }
        RtOp::ResetStatus { var, side, st } => {
            w.put_u8(op_tag::RESET);
            w.put_str(var);
            w.put_code(&DevSide::ALL, *side);
            w.put_code(&St::ALL, *st);
        }
        RtOp::LoopEnter { label } => {
            w.put_u8(op_tag::LOOP_ENTER);
            w.put_str(label);
        }
        RtOp::LoopTick => w.put_u8(op_tag::LOOP_TICK),
        RtOp::LoopExit => w.put_u8(op_tag::LOOP_EXIT),
    }
}

fn get_op(r: &mut Reader<'_>) -> R<RtOp> {
    let tag = r.u8()?;
    Ok(match tag {
        op_tag::DATA_ENTER => RtOp::DataEnter(r.u64()? as usize),
        op_tag::DATA_EXIT => RtOp::DataExit(r.u64()? as usize),
        op_tag::LAUNCH => RtOp::Launch(r.u64()? as usize),
        op_tag::UPDATE => RtOp::Update {
            to_host: get_strings(r)?,
            to_device: get_strings(r)?,
            queue: r.opt_i64()?,
            site: r.string()?,
            if_global: get_opt_string(r)?,
        },
        op_tag::WAIT => RtOp::Wait(r.opt_i64()?),
        op_tag::CHECK_READ => RtOp::CheckRead {
            var: r.string()?,
            side: r.code(&DevSide::ALL, "side")?,
            site: r.string()?,
        },
        op_tag::CHECK_WRITE => RtOp::CheckWrite {
            var: r.string()?,
            side: r.code(&DevSide::ALL, "side")?,
            total: r.bool()?,
            site: r.string()?,
        },
        op_tag::RESET => RtOp::ResetStatus {
            var: r.string()?,
            side: r.code(&DevSide::ALL, "side")?,
            st: r.code(&St::ALL, "coherence state")?,
        },
        op_tag::LOOP_ENTER => RtOp::LoopEnter { label: r.string()? },
        op_tag::LOOP_TICK => RtOp::LoopTick,
        op_tag::LOOP_EXIT => RtOp::LoopExit,
        other => return Err(r.err(&format!("unknown op tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Run surface codecs
// ---------------------------------------------------------------------------

fn put_loops(w: &mut Writer, loops: &[(String, i64)]) {
    w.put_seq_len(loops.len());
    for (label, i) in loops {
        w.put_str(label);
        w.put_i64(*i);
    }
}

fn get_loops(r: &mut Reader<'_>) -> R<Vec<(String, i64)>> {
    read_vec(r, |r| Ok((r.string()?, r.i64()?)))
}

fn put_issue(w: &mut Writer, i: &Issue) {
    w.put_code(&IssueKind::ALL, i.kind);
    w.put_str(&i.var);
    w.put_str(&i.site);
    w.put_code(&DIRECTIONS, i.direction);
    put_loops(w, &i.loop_context);
}

fn get_issue(r: &mut Reader<'_>) -> R<Issue> {
    Ok(Issue {
        kind: r.code(&IssueKind::ALL, "issue kind")?,
        var: r.string()?,
        site: r.string()?,
        direction: r.code(&DIRECTIONS, "direction")?,
        loop_context: get_loops(r)?,
    })
}

fn put_kv(w: &mut Writer, k: &KernelVerification) {
    w.put_str(&k.kernel);
    w.put_u64(k.launches);
    w.put_u64(k.failed_launches);
    w.put_u64(k.compared_elems);
    w.put_u64(k.mismatched_elems);
    w.put_f64(k.max_abs_err);
    w.put_u64(k.assertion_failures);
}

fn get_kv(r: &mut Reader<'_>) -> R<KernelVerification> {
    Ok(KernelVerification {
        kernel: r.string()?,
        launches: r.u64()?,
        failed_launches: r.u64()?,
        compared_elems: r.u64()?,
        mismatched_elems: r.u64()?,
        max_abs_err: r.f64()?,
        assertion_failures: r.u64()?,
    })
}

fn put_race(w: &mut Writer, race: &RaceReport) {
    w.put_u32(race.handle.0);
    w.put_str(&race.label);
    w.put_u64(race.conflicts);
    w.put_u64(race.example_idx);
    w.put_u64(race.example_threads.0);
    w.put_u64(race.example_threads.1);
}

fn get_race(r: &mut Reader<'_>) -> R<RaceReport> {
    Ok(RaceReport {
        handle: Handle(r.u32()?),
        label: r.string()?,
        conflicts: r.u64()?,
        example_idx: r.u64()?,
        example_threads: (r.u64()?, r.u64()?),
    })
}

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
    put_section(&mut w, section::PROGRAM, |w| {
        mb::write_program(w, &art.program)
    });
    put_section(&mut w, section::SEMA, |w| mb::write_sema(w, &art.sema));
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
    put_section(&mut w, section::FLAGS, |w| w.put_bool(art.instrumented));
    put_section(&mut w, section::HOST_PROGRAM, |w| {
        mb::write_program(w, &tr.host_program)
    });
    put_section(&mut w, section::HOST_SEMA, |w| {
        mb::write_sema(w, &tr.host_sema)
    });
    put_section(&mut w, section::HOST_MODULE, |w| {
        vb::write_module(w, &tr.host_module)
    });
    put_section(&mut w, section::KERNEL_PROGRAM, |w| {
        mb::write_program(w, &tr.kernel_program)
    });
    put_section(&mut w, section::KERNEL_MODULE, |w| {
        vb::write_module(w, &tr.kernel_module)
    });
    put_section(&mut w, section::OPS, |w| {
        w.put_seq_len(tr.ops.len());
        for op in &tr.ops {
            put_op(w, op);
        }
    });
    put_section(&mut w, section::KERNELS, |w| {
        w.put_seq_len(tr.kernels.len());
        for k in &tr.kernels {
            put_kernel(w, k);
        }
    });
    put_section(&mut w, section::DATA_REGIONS, |w| {
        w.put_seq_len(tr.data_regions.len());
        for region in &tr.data_regions {
            put_region(w, region);
        }
    });
    put_section(&mut w, section::UPDATE_SITES, |w| {
        w.put_seq_len(tr.update_sites.len());
        for (site, id) in &tr.update_sites {
            w.put_str(site);
            w.put_u32(*id);
        }
    });
    put_section(&mut w, section::DECLARES, |w| put_actions(w, &tr.declares));
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
        w.put_f64(m.clock.now());
        w.put_seq_len(Category::ALL.len());
        for c in Category::ALL.iter() {
            w.put_f64(m.clock.breakdown.get(*c));
        }
        let queues = m.clock.queue_snapshot();
        w.put_seq_len(queues.len());
        for (dev, q, end) in queues {
            w.put_u32(dev.0);
            w.put_i64(q);
            w.put_f64(end);
        }
    });
    put_section(&mut w, section::GLOBALS, |w| {
        w.put_seq_len(m.host.globals.len());
        for v in &m.host.globals {
            vb::write_value(w, v);
        }
    });
    put_section(&mut w, section::MEM, |w| vb::write_memspace(w, &m.host.mem));
    put_section(&mut w, section::STATS, |w| {
        w.put_u64(m.stats.h2d_bytes);
        w.put_u64(m.stats.d2h_bytes);
        w.put_u64(m.stats.h2d_count);
        w.put_u64(m.stats.d2h_count);
        w.put_u64(m.stats.dev_allocs);
        w.put_u64(m.stats.dev_frees);
    });
    put_section(&mut w, section::ISSUES, |w| {
        w.put_seq_len(m.report.issues.len());
        for i in &m.report.issues {
            put_issue(w, i);
        }
    });
    put_section(&mut w, section::LOOPS, |w| put_loops(w, &m.loop_context));
    put_section(&mut w, section::VERIFY, |w| {
        w.put_seq_len(r.verify.len());
        for k in &r.verify {
            put_kv(w, k);
        }
    });
    put_section(&mut w, section::RACES, |w| {
        w.put_seq_len(r.races.len());
        for (name, race) in &r.races {
            w.put_str(name);
            put_race(w, race);
        }
    });
    put_section(&mut w, section::COUNTS, |w| {
        w.put_u64(r.kernel_launches);
        w.put_u64(r.host_instrs);
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
    let program = get_section(&mut r, section::PROGRAM, mb::read_program)?;
    let sema = get_section(&mut r, section::SEMA, mb::read_sema)?;
    r.expect_end()?;
    Ok(FrontendArtifact { id, program, sema })
}

/// Decode a translation entry stored under `stage`, checking the header
/// id against the expected cache key id.
pub fn decode_translated(stage: Stage, id: ArtifactId, bytes: &[u8]) -> R<TranslatedArtifact> {
    let mut r = open(bytes, stage, id, TRANSLATED_SECTIONS)?;
    let instrumented = get_section(&mut r, section::FLAGS, |b| b.bool())?;
    let host_program = get_section(&mut r, section::HOST_PROGRAM, mb::read_program)?;
    let host_sema = get_section(&mut r, section::HOST_SEMA, mb::read_sema)?;
    let host_module = get_section(&mut r, section::HOST_MODULE, vb::read_module)?;
    let kernel_program = get_section(&mut r, section::KERNEL_PROGRAM, mb::read_program)?;
    let kernel_module = get_section(&mut r, section::KERNEL_MODULE, vb::read_module)?;
    let ops = get_section(&mut r, section::OPS, |b| read_vec(b, get_op))?;
    let kernels = get_section(&mut r, section::KERNELS, |b| read_vec(b, get_kernel))?;
    let data_regions = get_section(&mut r, section::DATA_REGIONS, |b| read_vec(b, get_region))?;
    let update_sites = get_section(&mut r, section::UPDATE_SITES, |b| {
        read_vec(b, |b| Ok((b.string()?, b.u32()? as NodeId)))
    })?;
    let declares = get_section(&mut r, section::DECLARES, get_actions)?;
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
    let (now, breakdown, queues) = get_section(&mut r, section::CLOCK, |b| {
        let now = b.f64()?;
        let n = b.seq_len()?;
        if n != Category::ALL.len() {
            return Err(b.err(&format!(
                "expected {} time categories, got {n}",
                Category::ALL.len()
            )));
        }
        let mut breakdown = TimeBreakdown::default();
        for cat in Category::ALL.iter() {
            breakdown.add(*cat, b.f64()?);
        }
        let nq = b.seq_len()?;
        let mut queues = Vec::with_capacity(nq);
        for _ in 0..nq {
            queues.push((openarc_gpusim::DeviceId(b.u32()?), b.i64()?, b.f64()?));
        }
        Ok((now, breakdown, queues))
    })?;
    let globals = get_section(&mut r, section::GLOBALS, |b| read_vec(b, vb::read_value))?;
    let mem = get_section(&mut r, section::MEM, vb::read_memspace)?;

    let mut machine = Machine::new(BasicEnv { globals, mem }, false);
    machine.clock = SimClock::restore(now, breakdown, queues);
    machine.stats = get_section(&mut r, section::STATS, |b| {
        Ok(TransferStats {
            h2d_bytes: b.u64()?,
            d2h_bytes: b.u64()?,
            h2d_count: b.u64()?,
            d2h_count: b.u64()?,
            dev_allocs: b.u64()?,
            dev_frees: b.u64()?,
        })
    })?;
    machine.report = Report {
        issues: get_section(&mut r, section::ISSUES, |b| read_vec(b, get_issue))?,
    };
    machine.loop_context = get_section(&mut r, section::LOOPS, get_loops)?;

    let verify = get_section(&mut r, section::VERIFY, |b| read_vec(b, get_kv))?;
    let races = get_section(&mut r, section::RACES, |b| {
        read_vec(b, |b| Ok((b.string()?, get_race(b)?)))
    })?;
    let (kernel_launches, host_instrs) =
        get_section(&mut r, section::COUNTS, |b| Ok((b.u64()?, b.u64()?)))?;
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
