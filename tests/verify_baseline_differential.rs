//! A verified run's host projection is its `CpuOnly` run, byte for byte.
//!
//! `Session::verify` stores `RunResult::host_projection` of the verified
//! run as the program's `CpuOnly` Execute entry instead of running the
//! program a second time. Here each program is run for real in both
//! modes, and the OARCBIN bytes of the projection must equal those of the
//! real `CpuOnly` run: the suite variants, the stripped mutants, the
//! corpus and 200 generated programs in tier-1, and 2 000 generated
//! programs in the `#[ignore]`d large variant. A `CpuOnly` run gives the
//! same bytes with and without `race_detect`, which its Execute key drops.
//! The session-level tests pin
//! what a verify leaves in the stage counters and the disk store.

use openarc::core::cache::bin::encode_run;
use openarc::core::exec::{execute, ExecMode, ExecOptions, VerifyOptions};
use openarc::core::faults::strip_privatization;
use openarc::core::fuzz::{gen, FuzzRng};
use openarc::core::pipeline::{ArtifactId, Session, Stage};
use openarc::core::translate::{translate, TranslateOptions, Translated};
use openarc::minic::frontend;
use openarc::suite::{all, Scale, Variant};
use openarc::vm::Value;
use std::path::{Path, PathBuf};

/// A falsely-shared `int` global written a value past 2^53 inside a
/// kernel; translated with privatization and reduction recognition off,
/// so `s` is a shared cell.
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

/// Translate options with privatization and reduction recognition off.
fn stripped() -> TranslateOptions {
    TranslateOptions {
        auto_privatize: false,
        auto_reduction: false,
        ..Default::default()
    }
}

fn cpu_opts() -> ExecOptions {
    ExecOptions {
        mode: ExecMode::CpuOnly,
        race_detect: false,
        ..Default::default()
    }
}

fn verify_opts() -> ExecOptions {
    ExecOptions {
        mode: ExecMode::Verify(VerifyOptions::default()),
        ..Default::default()
    }
}

/// `src` translated, stripped of privatization with `strip`; `None` when
/// the translator refuses it.
fn translated(label: &str, src: &str, strip: bool) -> Option<Translated> {
    let (p, sema) = frontend(src).unwrap_or_else(|e| panic!("{label}: {e:?}"));
    let (p, topts) = if strip {
        (strip_privatization(&p).expect("strip").0, stripped())
    } else {
        (p, TranslateOptions::default())
    };
    translate(&p, &sema, &topts).ok()
}

/// Run `src` in both modes and compare the projection with the real
/// `CpuOnly` run. Returns whether the verified run succeeded (a failed one
/// has nothing to project).
fn projection_matches(label: &str, src: &str, strip: bool) -> bool {
    let Some(tr) = translated(label, src, strip) else {
        return false;
    };
    let Ok(verified) = execute(&tr, &verify_opts()) else {
        return false;
    };
    let real = execute(&tr, &cpu_opts())
        .unwrap_or_else(|e| panic!("{label}: the verified run passed, CpuOnly failed: {e}"));
    let id = ArtifactId(0);
    assert!(
        encode_run(id, &verified.host_projection(), &[]) == encode_run(id, &real, &[]),
        "{label}: the host projection differs from the CpuOnly run"
    );
    true
}

/// The pinned programs of `tests/verify_baseline_golden.rs`, less the
/// generated ones: `(label, source, stripped)`.
fn fixed_programs() -> Vec<(String, String, bool)> {
    let mut out = Vec::new();
    for b in all(Scale::default()) {
        for v in Variant::ALL {
            let label = format!("{}/{}", b.name, v.name());
            out.push((label, b.source(v).to_string(), false));
        }
        let src = b.source(Variant::Optimized).to_string();
        out.push((format!("{}/stripped", b.name), src, true));
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
        out.push((f.display().to_string(), src, false));
    }
    out.push(("int-cell".into(), INT_CELL.into(), true));
    out
}

/// Compare `count` generated programs at seed 42; returns how many
/// verified.
fn generated(count: usize) -> usize {
    let mut rng = FuzzRng::new(42);
    (0..count)
        .filter(|i| {
            projection_matches(
                &format!("gen/42/{i}"),
                &gen::generate(&mut rng.fork()),
                false,
            )
        })
        .count()
}

#[test]
fn projection_equals_the_cpu_only_run_on_the_pinned_programs() {
    let programs = fixed_programs();
    let verified = programs
        .iter()
        .filter(|(label, src, strip)| projection_matches(label, src, *strip))
        .count();
    assert_eq!(verified, programs.len(), "every fixed program verifies");
    assert!(generated(200) > 150, "most generated programs verify");
}

#[test]
fn a_cpu_only_run_does_not_read_race_detect() {
    // The Execute key of a `CpuOnly` run drops `race_detect`, so both
    // settings must give the same entry.
    let id = ArtifactId(0);
    for (label, src, strip) in fixed_programs() {
        let Some(tr) = translated(&label, &src, strip) else {
            continue;
        };
        let racing = ExecOptions {
            race_detect: true,
            ..cpu_opts()
        };
        match (execute(&tr, &cpu_opts()), execute(&tr, &racing)) {
            (Ok(off), Ok(on)) => assert!(
                encode_run(id, &off, &[]) == encode_run(id, &on, &[]),
                "{label}: race_detect moved the CpuOnly run"
            ),
            (off, on) => assert_eq!(off.err(), on.err(), "{label}"),
        }
    }
}

#[test]
#[ignore = "2 000 generated programs; run in CI with --release"]
fn projection_equals_the_cpu_only_run_on_2000_generated_programs() {
    assert!(generated(2000) > 1500, "most generated programs verify");
}

#[test]
fn a_verified_run_keeps_an_int_cell_past_2_pow_53_exact() {
    let (p, sema) = frontend(INT_CELL).unwrap();
    let (p, _) = strip_privatization(&p).unwrap();
    let tr = translate(&p, &sema, &stripped()).unwrap();
    let verified = execute(&tr, &verify_opts()).unwrap();
    let real = execute(&tr, &cpu_opts()).unwrap();
    let s = Some(Value::Int(9007199254740993));
    assert_eq!(real.global_scalar(&tr, "s"), s);
    assert_eq!(verified.global_scalar(&tr, "s"), s);
    assert_eq!(
        verified.global_array(&tr, "a").unwrap()[0],
        1.0,
        "the host reads the exact cell value back"
    );
}

#[test]
fn verify_counts_two_execute_entries_cold_and_two_disk_hits_warm() {
    let src = all(Scale::default())[0].source(Variant::Naive).to_string();
    let dir = std::env::temp_dir().join(format!("openarc-verify-baseline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let verify = |session: &Session| {
        let fe = session.frontend(&src).unwrap();
        let topts = TranslateOptions::default();
        session
            .verify(&fe, &topts, VerifyOptions::default())
            .unwrap()
    };

    let cold = Session::builder().disk_cache(&dir).build();
    let (tr, rep) = verify(&cold);
    let s = cold.stats();
    assert_eq!(
        (s.get(Stage::Execute).hits, s.get(Stage::Execute).misses),
        (0, 2)
    );
    assert_eq!((s.get(Stage::Plan).hits, s.get(Stage::Plan).misses), (0, 2));
    assert_eq!(s.disk.stores, 4, "frontend, translation and two runs");
    // A later `CpuOnly` request with the baseline's options is a hit.
    let base = cold.execute(&tr, &cpu_opts()).unwrap();
    assert_eq!(cold.stats().get(Stage::Execute).hits, 1);
    assert_eq!(base.sim_time_us().to_bits(), rep.cpu_baseline_us.to_bits());

    let warm = Session::builder().disk_cache(&dir).build();
    let (_, again) = verify(&warm);
    let s = warm.stats();
    assert_eq!(
        (s.get(Stage::Execute).hits, s.get(Stage::Execute).misses),
        (2, 0)
    );
    assert_eq!((s.disk.hits, s.disk.misses, s.disk.stores), (4, 0, 0));
    assert_eq!(
        again.cpu_baseline_us.to_bits(),
        rep.cpu_baseline_us.to_bits()
    );
    assert_eq!(format!("{again:?}"), format!("{rep:?}"));
    let _ = std::fs::remove_dir_all(&dir);
}
