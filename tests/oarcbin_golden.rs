//! OARCBIN bytes are pinned against committed values: one FNV-1a digest
//! per encoded entry, committed in `tests/golden/oarcbin.tsv`.
//!
//! The round-trip tests in `cache::bin` and `trace::bin` encode and decode
//! with the same build, so a reordered code table passes them. This file
//! does not: for each of the 12 optimized suite variants at
//! `Scale::default()` it digests the frontend entry, both translated
//! entries (plain and instrumented) and the run entry of every execution
//! the `run`, `check` and `verify` requests make, plus the `profile`
//! request's journal through `write_events`. One program uses every
//! scalar type, operator, intrinsic, data clause and reduction, and one
//! hand-built event sequence uses every entry of every event code table.
//! Each entry is also decoded (`decode_frontend`, `decode_translated`,
//! `decode_run` or `read_events`) and re-encoded, and those bytes must
//! match the same committed digest, so the file pins both directions.
//! `UPDATE_GOLDEN=1` rewrites the file, which is only right for a change
//! that bumps `FORMAT_VERSION`.

use openarc::core::api::{self, Action, Request};
use openarc::core::cache::bin::{
    decode_frontend, decode_run, decode_translated, encode_frontend, encode_run, encode_translated,
};
use openarc::core::exec::{ExecMode, ExecOptions, VerifyOptions};
use openarc::core::pipeline::{Session, Stage, TranslatedArtifact};
use openarc::core::translate::TranslateOptions;
use openarc::suite::{all, Scale, Variant};
use openarc::trace::bin::{read_events, write_events, Reader, Writer};
use openarc::trace::{
    CacheOp, Category, Cause, EventKind, Journal, Phase, Severity, Side, St, TraceEvent, Track,
};
use std::fmt::Write as _;
use std::path::Path;

/// Every scalar type, unary, binary and assignment operator, intrinsic,
/// data clause and reduction operator of MiniC + OpenACC.
const EVERY_CODE: &str = "double a[8];
double b[8];
double c[8];
double d[8];
double e[8];
double g[8];
double h[8];
double o[8];
float f[8];
long l[8];
int k[8];
double s;
double p;
double mx;
double mn;
int ia;
int io;
int ix;
int la;
int lo;
void main() {
 int j; int m; long q; float t; double u;
 m = 3; q = 5; t = 0.5f; u = 2.0;
 for (j = 0; j < 8; j++) { a[j] = (double) j; b[j] = 1.0; f[j] = t; l[j] = q; k[j] = j; }
 ia = -1; io = 0; ix = 0; la = 1; lo = 0; p = 1.0;
 #pragma acc data copy(a) copyin(b) copyout(c) create(d) pcopy(e) pcopyin(g) pcopyout(o) pcreate(h) copy(f, l, k)
 {
  #pragma acc kernels loop gang present(a)
  for (j = 0; j < 8; j++) {
   a[j] = sqrt(b[j]) + fabs(-b[j]) + exp(b[j]) + log(b[j]) + pow(b[j], 2.0) + sin(b[j]) + cos(b[j]);
   c[j] = floor(a[j]) + ceil(a[j]) + fmin(a[j], b[j]) + fmax(a[j], b[j]);
   k[j] = abs(k[j] - m) + min(k[j], m) + max(k[j], m);
   f[j] = sqrtf(f[j]) + expf(f[j]) + fabsf(f[j]) + logf(f[j]) + powf(f[j], t);
   l[j] = (l[j] * 3 / 2 % 7) << 1 >> 1;
   k[j] = (k[j] & 3) | (k[j] ^ 5) | ~k[j];
   d[j] = (a[j] < b[j]) + (a[j] > b[j]) + (a[j] <= b[j]) + (a[j] >= b[j]) + (a[j] == b[j]) + (a[j] != b[j]);
   e[j] = (double) (!(j && m) || j);
   g[j] = u; g[j] += 1.0; g[j] -= 0.5; g[j] *= 2.0; g[j] /= 4.0;
   o[j] = -g[j];
   h[j] = a[j] - c[j];
  }
  #pragma acc kernels loop gang reduction(+:s) reduction(*:p) reduction(max:mx) reduction(min:mn)
  for (j = 0; j < 8; j++) { s += a[j]; p *= b[j]; mx = fmax(mx, a[j]); mn = fmin(mn, a[j]); }
  #pragma acc kernels loop gang reduction(&:ia) reduction(|:io) reduction(^:ix) reduction(&&:la) reduction(||:lo)
  for (j = 0; j < 8; j++) { ia = ia & k[j]; io = io | k[j]; ix = ix ^ k[j]; la = la && k[j]; lo = lo || k[j]; }
 }
 u = (double) sizeof(double) + (double) sizeof(float) + (double) sizeof(long) + (double) sizeof(int);
}
";

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn event_bytes(events: &[TraceEvent]) -> Vec<u8> {
    let mut w = Writer::new();
    write_events(&mut w, events);
    w.into_bytes()
}

/// `events` encoded, then decoded and encoded again.
fn event_bytes_again(events: &[TraceEvent]) -> Vec<u8> {
    let bytes = event_bytes(events);
    let mut r = Reader::new(&bytes);
    let back = read_events(&mut r).expect("events decode");
    r.expect_end().expect("events end");
    event_bytes(&back)
}

/// One entry's bytes as encoded, and as decoded and encoded again.
type Entry = (&'static str, Vec<u8>, Vec<u8>);

fn translated_entry(label: &'static str, stage: Stage, tr: &TranslatedArtifact) -> Entry {
    let bytes = encode_translated(stage, tr);
    let back = decode_translated(stage, tr.id, &bytes).expect("translated entry decodes");
    let again = encode_translated(stage, &back);
    (label, bytes, again)
}

/// The run entry the disk layer stores for one execution: the run under
/// its plan id, with the journal the execution recorded.
fn run_entry(
    label: &'static str,
    session: &Session,
    tr: &TranslatedArtifact,
    eopts: ExecOptions,
) -> Entry {
    let journal = Journal::enabled();
    let eopts = ExecOptions {
        journal: journal.clone(),
        ..eopts
    };
    let plan = session.plan(tr, &eopts);
    let r = session.execute(tr, &eopts).expect("the program runs");
    let bytes = encode_run(plan.id, &r, &journal.drain());
    let (back, events) = decode_run(plan.id, &bytes).expect("run entry decodes");
    let again = encode_run(plan.id, &back, &events);
    (label, bytes, again)
}

/// Every OARCBIN entry one program's requests make.
fn entries(src: &str) -> Vec<Entry> {
    let session = Session::builder().build();
    let fe = session.frontend(src).expect("frontend");
    let plain = session
        .translate(&fe, &TranslateOptions::default())
        .expect("translate");
    let instrumented = session
        .translate(
            &fe,
            &TranslateOptions {
                instrument: true,
                ..Default::default()
            },
        )
        .expect("translate instrumented");
    let run = run_entry("run", &session, &plain, ExecOptions::default());
    let check = run_entry(
        "check",
        &session,
        &instrumented,
        ExecOptions {
            check_transfers: true,
            ..Default::default()
        },
    );
    let verify_cpu = run_entry(
        "verify-cpu",
        &session,
        &plain,
        ExecOptions {
            mode: ExecMode::CpuOnly,
            race_detect: false,
            ..Default::default()
        },
    );
    let verify = run_entry(
        "verify",
        &session,
        &plain,
        ExecOptions {
            mode: ExecMode::Verify(VerifyOptions::default()),
            ..Default::default()
        },
    );
    let mut req = Request::new(Action::Profile, src);
    req.journal = true;
    let profile = api::handle(&Session::builder().build(), &req).expect("profile");
    let frontend = encode_frontend(&fe);
    let fe_back = decode_frontend(fe.id, &frontend).expect("frontend entry decodes");
    let fe_again = encode_frontend(&fe_back);
    vec![
        ("frontend", frontend, fe_again),
        translated_entry("analysis", Stage::Analysis, &plain),
        translated_entry("instrument", Stage::Instrument, &instrumented),
        run,
        check,
        verify_cpu,
        verify,
        (
            "profile-journal",
            event_bytes(&profile.events),
            event_bytes_again(&profile.events),
        ),
    ]
}

/// One event per entry of every event code table: each time category,
/// every side, state, cause and severity, every stage phase and cache op.
fn every_event_code() -> Vec<TraceEvent> {
    // Each table is named variant by variant: iterating an enum's `ALL`
    // would move the events together with their codes.
    const SIDES: [Side; 9] = [
        Side::Cpu,
        Side::Gpu,
        Side::Gpu1,
        Side::Gpu2,
        Side::Gpu3,
        Side::Gpu4,
        Side::Gpu5,
        Side::Gpu6,
        Side::Gpu7,
    ];
    const STATES: [St; 3] = [St::NotStale, St::MayStale, St::Stale];
    const CAUSES: [Cause; 4] = [Cause::Write, Cause::Transfer, Cause::Reset, Cause::Dealloc];
    const SEVERITIES: [Severity; 3] = [Severity::Info, Severity::Warning, Severity::Error];
    const PHASES: [Phase; 10] = [
        Phase::Frontend,
        Phase::Directives,
        Phase::Analysis,
        Phase::Instrument,
        Phase::Plan,
        Phase::Execute,
        Phase::Verify,
        Phase::VerifyStaging,
        Phase::VerifyOverlap,
        Phase::VerifyCompare,
    ];
    const CACHE_OPS: [CacheOp; 5] = [
        CacheOp::Hit,
        CacheOp::Miss,
        CacheOp::Store,
        CacheOp::Evict,
        CacheOp::Corrupt,
    ];
    let mut kinds: Vec<EventKind> = [
        Category::GpuMemFree,
        Category::GpuMemAlloc,
        Category::MemTransfer,
        Category::AsyncWait,
        Category::ResultComp,
        Category::CpuTime,
        Category::KernelExec,
    ]
    .into_iter()
    .map(|cat| EventKind::Slice { cat })
    .collect();
    for (i, side) in SIDES.into_iter().enumerate() {
        for (j, from) in STATES.into_iter().enumerate() {
            kinds.push(EventKind::Coherence {
                var: format!("v{i}"),
                side,
                from,
                to: STATES[(i + j + 1) % STATES.len()],
                cause: CAUSES[(i + j) % CAUSES.len()],
            });
        }
    }
    for severity in SEVERITIES {
        kinds.push(EventKind::Finding {
            severity,
            kind: "Redundant".into(),
            var: "a".into(),
            site: "update0".into(),
            message: format!("{severity} finding"),
        });
    }
    for (i, stage) in PHASES.into_iter().enumerate() {
        kinds.push(EventKind::Stage {
            stage,
            cached: i % 2 == 0,
        });
        kinds.push(EventKind::Cache {
            stage,
            op: CACHE_OPS[i % CACHE_OPS.len()],
        });
    }
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| TraceEvent {
            ts_us: i as f64 * 0.25,
            dur_us: 0.0,
            track: Track::Host,
            kind,
        })
        .collect()
}

#[test]
fn oarcbin_bytes_match_golden() {
    // `table` digests the encoded entries, `again` the same entries
    // decoded and encoded again; both must equal the golden.
    let header = "# program\tentry\tbytes\tfnv1a\n";
    let (mut table, mut again) = (String::from(header), String::from(header));
    let mut row = |label: &str, (entry, bytes, back): Entry| {
        for (out, bytes) in [(&mut table, &bytes), (&mut again, &back)] {
            let (len, digest) = (bytes.len(), fnv1a(bytes));
            writeln!(out, "{label}\t{entry}\t{len}\t{digest:016x}").unwrap();
        }
    };
    for b in all(Scale::default()) {
        for entry in entries(b.source(Variant::Optimized)) {
            row(b.name, entry);
        }
    }
    for entry in entries(EVERY_CODE) {
        row("every-code", entry);
    }
    let events = every_event_code();
    row(
        "every-event-code",
        ("events", event_bytes(&events), event_bytes_again(&events)),
    );

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/oarcbin.tsv");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &table).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    for (got, want) in table.lines().zip(golden.lines()) {
        assert_eq!(got, want, "OARCBIN bytes moved");
    }
    assert_eq!(table.lines().count(), golden.lines().count());
    for (got, want) in again.lines().zip(golden.lines()) {
        assert_eq!(got, want, "decoding and re-encoding moved OARCBIN bytes");
    }
    assert_eq!(again.lines().count(), golden.lines().count());
}
