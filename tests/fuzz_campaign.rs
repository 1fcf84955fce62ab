//! Campaign-level integration properties: journal-derived coverage
//! signatures are a pure function of the input program (stable across
//! `--jobs`), an oracle outcome does not depend on what its session ran
//! before, and whole campaigns are bit-reproducible from the seed.

use openarc::core::fuzz::{default_matrix, gen, run_campaign, run_oracle, CampaignConfig, FuzzRng};
use openarc::core::pipeline::Session;
use openarc::suite::{jacobi, Scale};
use std::path::Path;

fn scale() -> Scale {
    Scale { n: 8, iters: 2 }
}

/// JACOBI's coverage signature at `jobs` worker threads: an empty
/// campaign (no generated programs) over a one-benchmark baseline
/// harvests exactly the baseline's journal atoms.
fn jacobi_signature(jobs: usize) -> (Vec<String>, u64) {
    let b = jacobi::benchmark(scale());
    let cfg = CampaignConfig {
        seed: 7,
        max_programs: 0,
        jobs,
        baseline: vec![b.optimized.clone()],
        ..Default::default()
    };
    let r = run_campaign(&cfg);
    let atoms: Vec<String> = r.baseline_coverage.iter().map(|a| a.to_string()).collect();
    (atoms, r.baseline_coverage.fingerprint())
}

#[test]
fn jacobi_signature_is_jobs_stable() {
    let (atoms1, fp1) = jacobi_signature(1);
    let (atoms4, fp4) = jacobi_signature(4);
    assert!(!atoms1.is_empty(), "JACOBI must produce coverage atoms");
    assert_eq!(atoms1, atoms4, "signature atoms differ across --jobs");
    assert_eq!(fp1, fp4, "signature fingerprint differs across --jobs");
}

#[test]
fn jacobi_signature_covers_the_pipeline_stages() {
    // Regression-pin the load-bearing atom families rather than the full
    // set: kernel launches, memory traffic, and a clean output verdict
    // must all appear in JACOBI's journal-derived signature.
    let (atoms, _) = jacobi_signature(1);
    for prefix in [
        "event:kernel-launch",
        "launch:",
        "transfer:",
        "coh:",
        "verdict:pass",
    ] {
        assert!(
            atoms.iter().any(|a| a.starts_with(prefix)),
            "JACOBI signature lost the `{prefix}` atom family: {atoms:?}"
        );
    }
}

#[test]
fn campaign_report_is_bit_reproducible_across_jobs() {
    let run = |jobs: usize| {
        let cfg = CampaignConfig {
            seed: 99,
            max_programs: 48,
            jobs,
            ..Default::default()
        };
        run_campaign(&cfg)
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.programs, 48);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(a.racy, b.racy);
    assert_eq!(a.corpus, b.corpus);
}

#[test]
fn campaign_expands_coverage_beyond_the_benchmark_baseline() {
    let baseline: Vec<String> = openarc::suite::reduced_corpus(scale())
        .into_iter()
        .map(|(_, src)| src)
        .collect();
    let cfg = CampaignConfig {
        seed: 3,
        max_programs: 64,
        jobs: 4,
        baseline,
        ..Default::default()
    };
    let r = run_campaign(&cfg);
    assert!(
        !r.new_atoms().is_empty(),
        "64 generated programs must reach atoms the 12 benchmarks do not"
    );
}

/// A campaign runs every input on a fresh session, trusting that memo
/// hits are exact. Pin it: each input's outcome on a fresh session equals
/// its outcome on a shared session that has already run every input.
#[test]
fn a_fresh_session_answers_like_a_warm_one() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut corpus: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    corpus.sort();
    let mut inputs: Vec<String> = corpus
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("readable corpus file"))
        .collect();
    inputs.extend(
        openarc::suite::reduced_corpus(scale())
            .into_iter()
            .map(|(_, src)| src),
    );
    let mut rng = FuzzRng::new(34);
    inputs.extend((0..50).map(|_| gen::generate(&mut rng)));

    let matrix = default_matrix();
    let fresh: Vec<_> = inputs
        .iter()
        .map(|src| run_oracle(&Session::builder().build(), src, &matrix))
        .collect();
    let warm = Session::builder().build();
    for src in &inputs {
        run_oracle(&warm, src, &matrix);
    }
    let before = warm.stats();
    for (i, (src, fresh)) in inputs.iter().zip(&fresh).enumerate() {
        let out = run_oracle(&warm, src, &matrix);
        assert_eq!(
            format!("{:?}", out.verdict),
            format!("{:?}", fresh.verdict),
            "input {i}: verdict differs on a warm session:\n{src}"
        );
        assert!(
            out.signature == fresh.signature,
            "input {i}: signature differs on a warm session:\n{src}"
        );
    }
    let after = warm.stats();
    assert!(
        after.launches.hits > before.launches.hits,
        "the warm pass never replayed a launch"
    );
}
