//! Typed request/response API shared by the one-shot CLI and the
//! `openarc serve` daemon.
//!
//! The `run`/`cpu`/`check`/`verify`/`profile` commands used to render
//! their reports inside the CLI binary, which made a served request a
//! *reimplementation* of the CLI instead of the same code path. This
//! module is the single entry point both front ends call:
//! [`Request`] names the work (action, program source, `verificationOptions`
//! spec, tenant id, journal flag), [`handle`] routes it through a shared
//! warm [`Session`], and [`Response`] carries the rendered report — the
//! exact bytes the one-shot CLI prints — plus the structured surface
//! (exit code, simulated time, per-stage cache stats, optional journal
//! events). Served reports are therefore byte-identical to the CLI by
//! construction, which is the gate `tests/serve_cli.rs` enforces.
//!
//! Both types (de)serialize with the hand-rolled [`Json`] from the trace
//! crate — the wire format of the serve protocol. Simulated time travels
//! as its IEEE-754 bit pattern, and the journal as one base64 string of
//! its OARCBIN event encoding ([`openarc_trace::bin::write_events`], the
//! bytes the disk cache stores), so both survive the round trip exactly.

use crate::exec::{ExecMode, ExecOptions, RunResult, VerifyOptions};
use crate::options::parse_verification_options;
use crate::pipeline::{PipelineError, Session, Stage, TranslatedArtifact};
use crate::translate::{TranslateOptions, Translated};
use openarc_trace::bin::{read_events, write_events, Reader, Writer};
use openarc_trace::json::Json;
use openarc_trace::{Journal, TraceEvent};
use std::fmt::Write as _;

/// What a request asks the pipeline to do. Mirrors the CLI commands of
/// the same names; `Profile` is the journaled run behind
/// `openarc profile` (the caller renders the summary from
/// [`Response::events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Translate and execute on the simulated device.
    Run,
    /// Execute the sequential CPU reference.
    Cpu,
    /// §III-B memory-transfer verification report.
    Check,
    /// §III-A kernel verification.
    Verify,
    /// Instrumented, journaled run (trace capture); the report stays
    /// empty and [`Response::events`] carries the journal.
    Profile,
}

impl Action {
    /// All actions.
    pub const ALL: [Action; 5] = [
        Action::Run,
        Action::Cpu,
        Action::Check,
        Action::Verify,
        Action::Profile,
    ];

    /// Wire name (also the CLI command name).
    pub fn as_str(self) -> &'static str {
        match self {
            Action::Run => "run",
            Action::Cpu => "cpu",
            Action::Check => "check",
            Action::Verify => "verify",
            Action::Profile => "profile",
        }
    }

    /// Parse a wire name.
    pub fn from_wire(s: &str) -> Option<Action> {
        Action::ALL.into_iter().find(|a| a.as_str() == s)
    }
}

/// One unit of work for the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// What to do.
    pub action: Action,
    /// MiniC + OpenACC program source.
    pub source: String,
    /// `verificationOptions` spec (the paper's syntax). For
    /// [`Action::Verify`] `None` means defaults; for [`Action::Profile`]
    /// `None` profiles a normal run and `Some(spec)` profiles a
    /// verification run. Ignored by the other actions.
    pub options: Option<String>,
    /// Tenant id (`""` = the default tenant). The daemon routes each
    /// tenant to its own warm [`Session`] and cache namespace; the
    /// one-shot CLI leaves it empty.
    pub tenant: String,
    /// Capture the deterministic run journal into [`Response::events`].
    /// Forced on for [`Action::Profile`]; ignored by [`Action::Verify`]
    /// (whose report is memoized without a journal).
    pub journal: bool,
    /// Serve-side admission deadline, milliseconds from admission.
    /// Ignored by [`handle`]; the daemon rejects requests it cannot
    /// start in time.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// A request with defaults for everything but the action and source.
    pub fn new(action: Action, source: impl Into<String>) -> Request {
        Request {
            action,
            source: source.into(),
            options: None,
            tenant: String::new(),
            journal: false,
            deadline_ms: None,
        }
    }

    /// Encode for the wire.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("action", Json::from(self.action.as_str())),
            ("source", Json::from(self.source.as_str())),
        ];
        if let Some(spec) = &self.options {
            pairs.push(("options", Json::from(spec.as_str())));
        }
        if !self.tenant.is_empty() {
            pairs.push(("tenant", Json::from(self.tenant.as_str())));
        }
        if self.journal {
            pairs.push(("journal", Json::from(true)));
        }
        if let Some(ms) = self.deadline_ms {
            pairs.push(("deadline_ms", Json::from(ms)));
        }
        Json::obj(pairs)
    }

    /// Decode a wire request. Unknown actions, missing fields, and
    /// ill-typed fields are [`ApiError::bad_request`]s.
    pub fn from_json(v: &Json) -> Result<Request, ApiError> {
        let action = v
            .get("action")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::bad_request("missing string field `action`"))?;
        let action = Action::from_wire(action).ok_or_else(|| {
            ApiError::bad_request(format!(
                "unknown action `{action}` (expected run, cpu, check, verify or profile)"
            ))
        })?;
        let source = v
            .get("source")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::bad_request("missing string field `source`"))?
            .to_string();
        let options = match v.get("options") {
            None | Some(Json::Null) => None,
            Some(o) => Some(
                o.as_str()
                    .ok_or_else(|| ApiError::bad_request("`options` must be a string"))?
                    .to_string(),
            ),
        };
        let tenant = match v.get("tenant") {
            None | Some(Json::Null) => String::new(),
            Some(t) => t
                .as_str()
                .ok_or_else(|| ApiError::bad_request("`tenant` must be a string"))?
                .to_string(),
        };
        let journal = match v.get("journal") {
            None | Some(Json::Null) => false,
            Some(j) => j
                .as_bool()
                .ok_or_else(|| ApiError::bad_request("`journal` must be a bool"))?,
        };
        let deadline_ms = match v.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(d) => Some(
                d.as_u64()
                    .ok_or_else(|| ApiError::bad_request("`deadline_ms` must be an integer"))?,
            ),
        };
        Ok(Request {
            action,
            source,
            options,
            tenant,
            journal,
            deadline_ms,
        })
    }
}

/// Per-stage cache counters carried in a [`Response`] (a snapshot of the
/// serving session's cumulative [`crate::pipeline::PipelineStats`], so a
/// client can watch its tenant session warm up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStat {
    /// Stage label ([`Stage::label`]).
    pub stage: &'static str,
    /// Requests served from the session cache.
    pub hits: u64,
    /// Requests that ran the stage.
    pub misses: u64,
}

/// The pipeline's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The rendered report — exactly the bytes the one-shot CLI prints
    /// to stdout for the same action (empty for [`Action::Profile`],
    /// whose deliverable is [`Response::events`]).
    pub report: String,
    /// The CLI exit code: `0` clean, `1` findings.
    pub exit_code: i32,
    /// Simulated time of the run, µs.
    pub sim_time_us: f64,
    /// Kernel launches performed.
    pub kernel_launches: u64,
    /// Serving session's cumulative per-stage cache counters.
    pub stages: Vec<StageStat>,
    /// Deterministic run-journal events, when [`Request::journal`] was
    /// set (or the action was [`Action::Profile`]).
    pub events: Vec<TraceEvent>,
}

impl Response {
    /// Encode for the wire.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("report", Json::from(self.report.as_str())),
            ("exit_code", Json::I64(self.exit_code.into())),
            ("sim_time_us", Json::U64(self.sim_time_us.to_bits())),
            ("kernel_launches", Json::from(self.kernel_launches)),
            (
                "stages",
                Json::Arr(
                    self.stages
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("stage", Json::from(s.stage)),
                                ("hits", Json::from(s.hits)),
                                ("misses", Json::from(s.misses)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if !self.events.is_empty() {
            let mut w = Writer::new();
            write_events(&mut w, &self.events);
            pairs.push(("events", Json::from(base64_encode(&w.into_bytes()))));
        }
        Json::obj(pairs)
    }

    /// Decode a wire response.
    pub fn from_json(v: &Json) -> Result<Response, String> {
        let report = v
            .get("report")
            .and_then(Json::as_str)
            .ok_or("missing string field `report`")?
            .to_string();
        let exit_code = v
            .get("exit_code")
            .and_then(Json::as_i64)
            .ok_or("missing integer field `exit_code`")? as i32;
        let sim_time_us = v
            .get("sim_time_us")
            .and_then(Json::as_u64)
            .map(f64::from_bits)
            .ok_or("missing u64 field `sim_time_us`")?;
        let kernel_launches = v
            .get("kernel_launches")
            .and_then(Json::as_u64)
            .ok_or("missing u64 field `kernel_launches`")?;
        let mut stages = Vec::new();
        if let Some(arr) = v.get("stages").and_then(Json::as_arr) {
            for row in arr {
                let label = row
                    .get("stage")
                    .and_then(Json::as_str)
                    .ok_or("stage row missing `stage`")?;
                let stage = Stage::ALL
                    .iter()
                    .map(|s| s.label())
                    .find(|l| *l == label)
                    .ok_or_else(|| format!("unknown stage label {label:?}"))?;
                stages.push(StageStat {
                    stage,
                    hits: row
                        .get("hits")
                        .and_then(Json::as_u64)
                        .ok_or("stage row missing `hits`")?,
                    misses: row
                        .get("misses")
                        .and_then(Json::as_u64)
                        .ok_or("stage row missing `misses`")?,
                });
            }
        }
        let events = match v.get("events") {
            None | Some(Json::Null) => Vec::new(),
            Some(text) => {
                let text = text.as_str().ok_or("`events` must be a base64 string")?;
                let bytes = base64_decode(text)?;
                let mut r = Reader::new(&bytes);
                read_events(&mut r)
                    .and_then(|events| r.expect_end().map(|()| events))
                    .map_err(|e| format!("`events`: {e}"))?
            }
        };
        Ok(Response {
            report,
            exit_code,
            sim_time_us,
            kernel_launches,
            stages,
            events,
        })
    }
}

/// The base64 alphabet of RFC 4648 §4 (standard, padded).
const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encode `bytes` as padded standard base64.
fn base64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let n = chunk
            .iter()
            .enumerate()
            .fold(0u32, |n, (i, &b)| n | u32::from(b) << (16 - 8 * i));
        for i in 0..4 {
            out.push(if i <= chunk.len() {
                BASE64[(n >> (18 - 6 * i)) as usize & 63] as char
            } else {
                '='
            });
        }
    }
    out
}

/// Decode padded standard base64. A character outside the alphabet, a
/// length that is not a multiple of four, padding anywhere but the end
/// of the last quartet, or nonzero bits under the padding are errors.
fn base64_decode(text: &str) -> Result<Vec<u8>, String> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return Err(format!(
            "base64 length {} is not a multiple of 4",
            text.len()
        ));
    }
    let quads = text.len() / 4;
    let mut out = Vec::with_capacity(quads * 3);
    for (q, quad) in text.chunks(4).enumerate() {
        let pad = quad.iter().rev().take_while(|&&c| c == b'=').count();
        if pad > 2 || (pad > 0 && q + 1 < quads) {
            return Err(format!("bad base64 padding in quartet {q}"));
        }
        let mut n = 0u32;
        for &c in &quad[..4 - pad] {
            let v = BASE64
                .iter()
                .position(|&a| a == c)
                .ok_or_else(|| format!("invalid base64 character {:?}", c as char))?;
            n = n << 6 | v as u32;
        }
        let [_, b0, b1, b2] = (n << (6 * pad)).to_be_bytes();
        let bytes = [b0, b1, b2];
        if bytes[3 - pad..].iter().any(|&b| b != 0) {
            return Err(format!("nonzero bits under base64 padding in quartet {q}"));
        }
        out.extend_from_slice(&bytes[..3 - pad]);
    }
    Ok(out)
}

/// Classified API failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request itself is malformed (bad action, bad options spec,
    /// bad field types). CLI exit code `2`.
    BadRequest,
    /// The program failed to compile (frontend/directive/translate
    /// diagnostics). CLI exit code `2`.
    Program,
    /// The program compiled but the run failed. CLI exit code `3`.
    Execution,
    /// The daemon's admission queue is full; retry after
    /// [`ApiError::retry_after_ms`]. Never produced by [`handle`].
    Overloaded,
    /// The request's deadline passed before work could start. Never
    /// produced by [`handle`].
    DeadlineExceeded,
    /// The serving side failed internally (protocol framing, worker
    /// loss).
    Internal,
}

impl ErrorKind {
    /// All error kinds.
    pub const ALL: [ErrorKind; 6] = [
        ErrorKind::BadRequest,
        ErrorKind::Program,
        ErrorKind::Execution,
        ErrorKind::Overloaded,
        ErrorKind::DeadlineExceeded,
        ErrorKind::Internal,
    ];

    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Program => "program",
            ErrorKind::Execution => "execution",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parse a wire name.
    pub fn from_wire(s: &str) -> Option<ErrorKind> {
        ErrorKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// Structured API error: what went wrong, the message a CLI prints to
/// stderr, and — for [`ErrorKind::Overloaded`] — when to retry.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiError {
    /// Failure class.
    pub kind: ErrorKind,
    /// Human-readable message.
    pub message: String,
    /// For [`ErrorKind::Overloaded`]: suggested client backoff before
    /// retrying, derived from queue depth × recent service time.
    pub retry_after_ms: Option<u64>,
}

impl ApiError {
    /// A [`ErrorKind::BadRequest`] error.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError {
            kind: ErrorKind::BadRequest,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// A [`ErrorKind::Internal`] error.
    pub fn internal(message: impl Into<String>) -> ApiError {
        ApiError {
            kind: ErrorKind::Internal,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// The process exit code a CLI front end maps this error to
    /// (matches [`PipelineError::exit_code`]'s contract: `2` bad input,
    /// `3` failed execution).
    pub fn exit_code(&self) -> i32 {
        match self.kind {
            ErrorKind::BadRequest | ErrorKind::Program => 2,
            _ => 3,
        }
    }

    /// Encode for the wire.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("kind", Json::from(self.kind.as_str())),
            ("message", Json::from(self.message.as_str())),
        ];
        if let Some(ms) = self.retry_after_ms {
            pairs.push(("retry_after_ms", Json::from(ms)));
        }
        Json::obj(pairs)
    }

    /// Decode a wire error.
    pub fn from_json(v: &Json) -> Result<ApiError, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("error missing `kind`")?;
        Ok(ApiError {
            kind: ErrorKind::from_wire(kind)
                .ok_or_else(|| format!("unknown error kind {kind:?}"))?,
            message: v
                .get("message")
                .and_then(Json::as_str)
                .ok_or("error missing `message`")?
                .to_string(),
            retry_after_ms: v.get("retry_after_ms").and_then(Json::as_u64),
        })
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ApiError {}

/// A front end's usage or input error (bad flag, unreadable file).
impl From<String> for ApiError {
    fn from(message: String) -> ApiError {
        ApiError::bad_request(message)
    }
}

impl From<PipelineError> for ApiError {
    fn from(e: PipelineError) -> ApiError {
        ApiError {
            kind: if e.exit_code() == 2 {
                ErrorKind::Program
            } else {
                ErrorKind::Execution
            },
            message: e.to_string(),
            retry_after_ms: None,
        }
    }
}

/// Serve one request through `session`.
///
/// This is the single entry point behind both the one-shot CLI commands
/// and the daemon: the returned [`Response::report`] holds the exact
/// bytes `openarc <action>` prints to stdout, so a served report is
/// byte-identical to the one-shot CLI by construction.
pub fn handle(session: &Session, req: &Request) -> Result<Response, ApiError> {
    match req.action {
        Action::Run | Action::Cpu => handle_run(session, req),
        Action::Check => handle_check(session, req),
        Action::Verify => handle_verify(session, req),
        Action::Profile => handle_profile(session, req),
    }
}

fn stage_stats(session: &Session) -> Vec<StageStat> {
    let stats = session.stats();
    Stage::ALL
        .iter()
        .map(|s| {
            let c = stats.get(*s);
            StageStat {
                stage: s.label(),
                hits: c.hits,
                misses: c.misses,
            }
        })
        .collect()
}

fn run_journal(req: &Request) -> Journal {
    if req.journal {
        Journal::enabled()
    } else {
        Journal::disabled()
    }
}

/// Render the program's observable outputs — every non-internal global,
/// scalars in full precision, arrays elided after six elements — exactly
/// as `openarc run` prints them.
fn render_outputs(out: &mut String, tr: &Translated, r: &RunResult) {
    for g in &tr.host_module.globals {
        if g.name.starts_with("__") {
            continue;
        }
        match &g.ty {
            openarc_minic::Ty::Scalar(_) => {
                if let Some(v) = r.global_scalar(tr, &g.name) {
                    let _ = writeln!(out, "{:<16} = {v}", g.name);
                }
            }
            openarc_minic::Ty::Array(..) | openarc_minic::Ty::Ptr(_) => {
                if let Some(vals) = r.global_array(tr, &g.name) {
                    let head: Vec<String> =
                        vals.iter().take(6).map(|v| format!("{v:.6}")).collect();
                    let ell = if vals.len() > 6 { ", …" } else { "" };
                    let _ = writeln!(
                        out,
                        "{:<16} = [{}{}] (len {})",
                        g.name,
                        head.join(", "),
                        ell,
                        vals.len()
                    );
                }
            }
            _ => {}
        }
    }
}

fn handle_run(session: &Session, req: &Request) -> Result<Response, ApiError> {
    let fe = session.frontend(&req.source)?;
    let tra = session.translate(&fe, &TranslateOptions::default())?;
    let mode = if req.action == Action::Cpu {
        ExecMode::CpuOnly
    } else {
        ExecMode::Normal
    };
    let journal = run_journal(req);
    let r = session.execute(
        &tra,
        &ExecOptions {
            mode,
            journal: journal.clone(),
            ..Default::default()
        },
    )?;
    let mut report = String::new();
    render_outputs(&mut report, &tra.tr, &r);
    let _ = writeln!(report, "--");
    let _ = writeln!(report, "kernel launches   : {}", r.kernel_launches);
    let _ = writeln!(report, "simulated time    : {:.1} µs", r.sim_time_us());
    let _ = writeln!(
        report,
        "transfers         : {} ops, {} bytes",
        r.machine.stats.total_count(),
        r.machine.stats.total_bytes()
    );
    let mut exit_code = 0;
    if !r.races.is_empty() {
        let _ = writeln!(report, "data races        : {}", r.races.len());
        for (k, race) in &r.races {
            let _ = writeln!(
                report,
                "  {k}: {} ({} conflicts)",
                race.label, race.conflicts
            );
        }
        exit_code = 1;
    }
    Ok(Response {
        report,
        exit_code,
        sim_time_us: r.sim_time_us(),
        kernel_launches: r.kernel_launches,
        stages: stage_stats(session),
        events: journal.drain(),
    })
}

fn handle_check(session: &Session, req: &Request) -> Result<Response, ApiError> {
    let fe = session.frontend(&req.source)?;
    let topts = TranslateOptions {
        instrument: true,
        ..Default::default()
    };
    let tra = session.translate(&fe, &topts)?;
    let journal = run_journal(req);
    let r = session.execute(
        &tra,
        &ExecOptions {
            check_transfers: true,
            journal: journal.clone(),
            ..Default::default()
        },
    )?;
    let (report, exit_code) = if r.machine.report.issues.is_empty() {
        ("no memory-transfer issues found\n".to_string(), 0)
    } else {
        (
            r.machine.report.to_string(),
            i32::from(r.machine.report.has_errors()),
        )
    };
    Ok(Response {
        report,
        exit_code,
        sim_time_us: r.sim_time_us(),
        kernel_launches: r.kernel_launches,
        stages: stage_stats(session),
        events: journal.drain(),
    })
}

fn parse_spec(spec: &str) -> Result<VerifyOptions, ApiError> {
    parse_verification_options(spec).map_err(|e| ApiError::bad_request(e.to_string()))
}

fn handle_verify(session: &Session, req: &Request) -> Result<Response, ApiError> {
    let vopts = match &req.options {
        Some(spec) => parse_spec(spec)?,
        None => VerifyOptions::default(),
    };
    let fe = session.frontend(&req.source)?;
    let (_, rep) = session.verify(&fe, &TranslateOptions::default(), vopts)?;
    let mut report = String::new();
    for k in &rep.kernels {
        let verdict = if k.flagged() {
            "FAIL"
        } else if k.launches > 0 {
            "ok"
        } else {
            "skipped"
        };
        let _ = writeln!(
            report,
            "{:<20} launches={:<4} mismatched={:<8} max|err|={:<12.3e} asserts_failed={:<3} {verdict}",
            k.kernel, k.launches, k.mismatched_elems, k.max_abs_err, k.assertion_failures
        );
    }
    let _ = writeln!(
        report,
        "--\nverification time = {:.2}x sequential CPU",
        rep.normalized_time()
    );
    let launches: u64 = rep.kernels.iter().map(|k| k.launches).sum();
    Ok(Response {
        report,
        exit_code: i32::from(!rep.flagged().is_empty()),
        sim_time_us: rep.breakdown.total(),
        kernel_launches: launches,
        stages: stage_stats(session),
        events: Vec::new(),
    })
}

fn handle_profile(session: &Session, req: &Request) -> Result<Response, ApiError> {
    let mode = match &req.options {
        Some(spec) => ExecMode::Verify(parse_spec(spec)?),
        None => ExecMode::Normal,
    };
    let fe = session.frontend(&req.source)?;
    let topts = TranslateOptions {
        instrument: true,
        ..Default::default()
    };
    let tra: std::sync::Arc<TranslatedArtifact> = session.translate(&fe, &topts)?;
    // Keep our own journal handle: a cached journaled run replays into
    // it, while the run's own capture points at the recording journal.
    let journal = Journal::enabled();
    let r = session.execute(
        &tra,
        &ExecOptions {
            mode,
            check_transfers: true,
            journal: journal.clone(),
            // Verified launches add their wall-clock staging/overlap/
            // compare spans to the session's stage journal (fresh runs
            // only — stage spans are observations, never replayed).
            stage_journal: session.stage_journal().clone(),
            ..Default::default()
        },
    )?;
    let flagged = r.verify.iter().any(|k| k.flagged());
    Ok(Response {
        report: String::new(),
        exit_code: i32::from(r.machine.report.has_errors() || flagged),
        sim_time_us: r.sim_time_us(),
        kernel_launches: r.kernel_launches,
        stages: stage_stats(session),
        events: journal.drain(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "double a[16];\nvoid main() {\n int j;\n #pragma acc kernels loop gang\n for (j = 0; j < 16; j++) { a[j] = (double) j; }\n}";

    // The matches are exhaustive, so a new action or error kind does not
    // compile here until it is in `ALL` with its wire name.

    #[test]
    fn action_all_is_its_wire_table() {
        let wire = |a| match a {
            Action::Run => (0, "run"),
            Action::Cpu => (1, "cpu"),
            Action::Check => (2, "check"),
            Action::Verify => (3, "verify"),
            Action::Profile => (4, "profile"),
        };
        for (i, a) in Action::ALL.into_iter().enumerate() {
            assert_eq!(wire(a), (i, a.as_str()), "{a:?}");
            assert_eq!(Action::from_wire(a.as_str()), Some(a));
        }
        assert_eq!(Action::from_wire("Run"), None);
    }

    #[test]
    fn error_kind_all_is_its_wire_table() {
        let wire = |k| match k {
            ErrorKind::BadRequest => (0, "bad_request"),
            ErrorKind::Program => (1, "program"),
            ErrorKind::Execution => (2, "execution"),
            ErrorKind::Overloaded => (3, "overloaded"),
            ErrorKind::DeadlineExceeded => (4, "deadline_exceeded"),
            ErrorKind::Internal => (5, "internal"),
        };
        for (i, k) in ErrorKind::ALL.into_iter().enumerate() {
            assert_eq!(wire(k), (i, k.as_str()), "{k:?}");
            assert_eq!(ErrorKind::from_wire(k.as_str()), Some(k));
        }
        assert_eq!(ErrorKind::from_wire("Program"), None);
    }

    #[test]
    fn request_round_trips_through_json() {
        let mut req = Request::new(Action::Verify, SRC);
        req.options = Some("devices=2,relTol=1e-4".into());
        req.tenant = "team-a".into();
        req.journal = true;
        req.deadline_ms = Some(250);
        let text = req.to_json().pretty();
        let back = Request::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, req);
        // Defaults stay off the wire and decode back to defaults.
        let plain = Request::new(Action::Run, SRC);
        let text = plain.to_json().to_string();
        assert!(!text.contains("tenant"));
        let back = Request::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, plain);
    }

    #[test]
    fn malformed_requests_are_bad_requests() {
        let session = Session::builder().build();
        for v in [
            Json::obj(vec![("action", Json::from("frobnicate"))]),
            Json::obj(vec![("action", Json::from("run"))]),
            Json::obj(vec![
                ("action", Json::from("run")),
                ("source", Json::from("x")),
                ("journal", Json::from("yes")),
            ]),
            Json::Null,
            // Well-formed on the wire; the options spec is what is rejected.
            Json::obj(vec![
                ("action", Json::from("verify")),
                ("source", Json::from(SRC)),
                ("options", Json::from("devices=0")),
            ]),
            // Removed keys are unknown keys.
            Json::obj(vec![
                ("action", Json::from("verify")),
                ("source", Json::from(SRC)),
                ("options", Json::from("compareJobs=2")),
            ]),
            Json::obj(vec![
                ("action", Json::from("verify")),
                ("source", Json::from(SRC)),
                ("options", Json::from("dagJobs=4")),
            ]),
            Json::obj(vec![
                ("action", Json::from("verify")),
                ("source", Json::from(SRC)),
                ("options", Json::from("placement=eft")),
            ]),
        ] {
            let err = Request::from_json(&v)
                .and_then(|req| handle(&session, &req))
                .unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{v:?}");
            assert_eq!(err.exit_code(), 2);
        }
    }

    #[test]
    fn run_response_matches_the_cli_report_shape() {
        let session = Session::builder().build();
        let resp = handle(&session, &Request::new(Action::Run, SRC)).unwrap();
        assert_eq!(resp.exit_code, 0);
        assert!(resp
            .report
            .contains("a                = [0.000000, 1.000000"));
        assert!(resp.report.contains("kernel launches   : 1"));
        assert!(resp.report.ends_with('\n'));
        assert!(resp.events.is_empty());
        // A journaled request replays the same run with events attached.
        let mut req = Request::new(Action::Run, SRC);
        req.journal = true;
        let with_events = handle(&session, &req).unwrap();
        assert_eq!(with_events.report, resp.report);
        assert!(!with_events.events.is_empty());
    }

    #[test]
    fn responses_round_trip_through_json() {
        let session = Session::builder().build();
        let mut req = Request::new(Action::Run, SRC);
        req.journal = true;
        let resp = handle(&session, &req).unwrap();
        let text = resp.to_json().pretty();
        let back = Response::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn base64_matches_the_rfc_4648_vectors() {
        for (raw, text) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(base64_encode(raw.as_bytes()), text);
            assert_eq!(base64_decode(text).unwrap(), raw.as_bytes());
        }
        let all: Vec<u8> = (0..=255).collect();
        assert_eq!(base64_decode(&base64_encode(&all)).unwrap(), all);
    }

    #[test]
    fn hostile_event_payloads_are_errors() {
        let session = Session::builder().build();
        let mut req = Request::new(Action::Run, SRC);
        req.journal = true;
        let wire = handle(&session, &req).unwrap().to_json();
        let mut w = Writer::new();
        write_events(&mut w, &Response::from_json(&wire).unwrap().events);
        let bytes = w.into_bytes();
        let valid = base64_encode(&bytes);
        let with_events = |events: Json| {
            let Json::Obj(mut pairs) = wire.clone() else {
                unreachable!()
            };
            pairs.retain(|(k, _)| k != "events");
            pairs.push(("events".to_string(), events));
            Response::from_json(&Json::Obj(pairs))
        };
        assert!(with_events(Json::from(valid.as_str())).is_ok());

        let mut oversized = bytes.clone();
        oversized[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut trailing = bytes.clone();
        trailing.push(0);
        for (what, events) in [
            (
                "non-alphabet character",
                Json::from(format!("!{}", &valid[1..])),
            ),
            ("padding mid-quartet", Json::from("QQ=A")),
            ("padding before the end", Json::from(format!("QQ=={valid}"))),
            ("three pad characters", Json::from("Q===")),
            ("length not a multiple of 4", Json::from(&valid[1..])),
            ("nonzero bits under padding", Json::from("QR==")),
            (
                "truncated events",
                Json::from(base64_encode(&bytes[..bytes.len() - 1])),
            ),
            ("one trailing byte", Json::from(base64_encode(&trailing))),
            ("oversized seq count", Json::from(base64_encode(&oversized))),
            (
                "JSON array",
                Json::Arr(vec![Json::obj(vec![("k", Json::from("slice"))])]),
            ),
        ] {
            assert!(with_events(events).is_err(), "{what} decoded");
        }
    }

    #[test]
    fn verify_and_check_render_reports() {
        let session = Session::builder().build();
        let v = handle(&session, &Request::new(Action::Verify, SRC)).unwrap();
        assert_eq!(v.exit_code, 0);
        assert!(v.report.contains("verification time ="));
        let c = handle(&session, &Request::new(Action::Check, SRC)).unwrap();
        assert!(c.report.ends_with('\n'));
        let mut bad = Request::new(Action::Verify, SRC);
        bad.options = Some("frobnicate=1".into());
        let err = handle(&session, &bad).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn program_errors_classify_by_exit_code() {
        let session = Session::builder().build();
        let err = handle(&session, &Request::new(Action::Run, "void main( {")).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Program);
        assert_eq!(err.exit_code(), 2);
        let wire = err.to_json().to_string();
        let back = ApiError::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, err);
    }
}
