//! `Session::verify`'s CPU baseline is pinned bit for bit against
//! committed values, in `tests/golden/verify_baseline.tsv`.
//!
//! For every program below, a fresh session verifies it with the default
//! options; the row then pins three things:
//!
//! * the bits of the report's `cpu_baseline_us`;
//! * FNV-1a of `encode_run` of the `CpuOnly` Execute artifact the session
//!   holds afterwards (fetched as a memo hit, so the lookup itself is
//!   checked too);
//! * FNV-1a of the `Debug` rendering of the whole verification report
//!   (verdicts, breakdown, baseline, races).
//!
//! A program whose verify fails pins its error text instead. A last row
//! pins the exit code and error text of `openarc verify` on a kernel that
//! indexes out of bounds: which leg's error a failing verify reports.
//!
//! Programs: the 36 suite variants at `Scale::default()`, the 12
//! `strip_privatization` mutants (privatization and reduction
//! recognition off), the `tests/corpus` files, 200 `fuzz::gen` programs
//! at seed 42, and [`INT_CELL`]. `UPDATE_GOLDEN=1` rewrites the file,
//! which is only right for a change that moves a verify report or a
//! sequential run on purpose.

use openarc::core::cache::bin::encode_run;
use openarc::core::exec::{ExecMode, ExecOptions, VerifyOptions};
use openarc::core::faults::strip_privatization;
use openarc::core::fuzz::{gen, FuzzRng};
use openarc::core::pipeline::{FrontendArtifact, Session, Stage};
use openarc::core::translate::TranslateOptions;
use openarc::minic::frontend;
use openarc::suite::{all, Scale, Variant};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

/// Seed and count of the generated programs.
const FUZZ_SEED: u64 = 42;
const FUZZ_PROGRAMS: usize = 200;

/// A falsely-shared `int` global written a value past 2^53 inside a
/// kernel (translated with privatization and reduction recognition off,
/// so `s` is a shared cell). The sequential run keeps the exact value;
/// a verified run must too.
const INT_CELL: &str = "int s;
double a[8];
void main() {
  int j;
  s = 0;
  #pragma acc kernels loop gang
  for (j = 0; j < 8; j++) { s = 9007199254740993; a[j] = 1.0; }
  a[0] = (double) (s - 9007199254740992);
}
";

/// A kernel that writes one element past the end of its array.
const OUT_OF_BOUNDS: &str = "double a[8];
void main() {
  int j;
  #pragma acc kernels loop gang
  for (j = 0; j < 9; j++) { a[j] = 1.0; }
}
";

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// How a case enters the session: as source text, or as a stripped
/// program (translated with privatization and reduction recognition off).
enum Input {
    Source(String),
    Stripped(String),
}

/// Every program the golden covers, labelled, in a fixed order.
fn cases() -> Vec<(String, Input)> {
    let mut out = Vec::new();
    for b in all(Scale::default()) {
        for v in Variant::ALL {
            let src = b.source(v).to_string();
            out.push((format!("{}/{}", b.name, v.name()), Input::Source(src)));
        }
    }
    for b in all(Scale::default()) {
        let src = b.source(Variant::Optimized).to_string();
        out.push((format!("{}/stripped", b.name), Input::Stripped(src)));
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    for f in files {
        let src = std::fs::read_to_string(&f).expect("readable corpus file");
        let name = f.file_name().unwrap().to_string_lossy().into_owned();
        out.push((format!("corpus/{name}"), Input::Source(src)));
    }
    let mut rng = FuzzRng::new(FUZZ_SEED);
    for i in 0..FUZZ_PROGRAMS {
        let src = gen::generate(&mut rng.fork());
        out.push((format!("gen/{FUZZ_SEED}/{i}"), Input::Source(src)));
    }
    out.push(("repro/int-cell".into(), Input::Stripped(INT_CELL.into())));
    out
}

/// The frontend artifact and translate options of one case.
fn enter(session: &Session, input: &Input) -> Option<(Arc<FrontendArtifact>, TranslateOptions)> {
    match input {
        Input::Source(src) => Some((session.frontend(src).ok()?, TranslateOptions::default())),
        Input::Stripped(src) => {
            let (p, s) = frontend(src).ok()?;
            let (p, _) = strip_privatization(&p).ok()?;
            let topts = TranslateOptions {
                auto_privatize: false,
                auto_reduction: false,
                ..Default::default()
            };
            Some((session.frontend_program(p, s), topts))
        }
    }
}

/// The golden row of one case, without its label.
fn row(input: &Input) -> String {
    let session = Session::builder().build();
    let Some((fe, topts)) = enter(&session, input) else {
        return "frontend-error".into();
    };
    let (tr, rep) = match session.verify(&fe, &topts, VerifyOptions::default()) {
        Ok(v) => v,
        Err(e) => return format!("error\t{:016x}", fnv1a(e.to_string().as_bytes())),
    };
    let base_opts = ExecOptions {
        mode: ExecMode::CpuOnly,
        race_detect: false,
        ..Default::default()
    };
    let hits = session.stats().get(Stage::Execute).hits;
    let base = session
        .execute(&tr, &base_opts)
        .expect("the baseline is cached");
    assert_eq!(
        session.stats().get(Stage::Execute).hits,
        hits + 1,
        "verify left no CpuOnly run in the session"
    );
    let id = session.plan(&tr, &base_opts).id;
    format!(
        "{:016x}\t{:016x}\t{:016x}",
        rep.cpu_baseline_us.to_bits(),
        fnv1a(&encode_run(id, &base, &[])),
        fnv1a(format!("{rep:?}").as_bytes())
    )
}

/// Exit code and stderr of `openarc verify` on [`OUT_OF_BOUNDS`].
fn cli_out_of_bounds() -> String {
    let dir = std::env::temp_dir().join("openarc-verify-baseline-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("oob.c");
    std::fs::write(&path, OUT_OF_BOUNDS).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_openarc"))
        .args(["verify", "--no-cache"])
        .arg(&path)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).replace(&*path.to_string_lossy(), "<file>");
    format!(
        "{:?}\t{}",
        out.status.code(),
        stderr.trim_end().replace('\n', "\\n")
    )
}

#[test]
fn verify_baselines_match_golden() {
    let mut table = String::from("# program\tcpu_baseline_bits\tcpu_run_fnv1a\treport_fnv1a\n");
    for (label, input) in cases() {
        writeln!(table, "{label}\t{}", row(&input)).unwrap();
    }
    writeln!(table, "cli/verify-out-of-bounds\t{}", cli_out_of_bounds()).unwrap();

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/verify_baseline.tsv");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &table).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    for (got, want) in table.lines().zip(golden.lines()) {
        assert_eq!(got, want, "a verify baseline moved");
    }
    assert_eq!(table.lines().count(), golden.lines().count());
}
