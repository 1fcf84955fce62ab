//! Cross-crate integration tests: the full OpenACC→simulator pipeline on
//! programs shaped like the paper's listings.

use openarc::core::faults::strip_privatization;
use openarc::prelude::*;

/// The paper's Listing 1, reduced: a CG-style iteration copying `w` into
/// `q` on the device inside a `data create(q, w)` region.
const LISTING1: &str = r#"
double q[64];
double w[64];
double out;
int niter;
int cgitmax;
void main() {
    int it; int cgit; int j;
    niter = 3;
    cgitmax = 2;
    for (j = 0; j < 64; j++) { w[j] = (double) (j + 1); }
    #pragma acc data copyin(w) create(q)
    {
        for (it = 1; it <= niter; it++) {
            for (cgit = 1; cgit <= cgitmax; cgit++) {
                #pragma acc kernels loop gang worker
                for (j = 0; j < 64; j++) { q[j] = w[j]; }
            }
        }
        #pragma acc update host(q)
    }
    out = q[63];
}
"#;

#[test]
fn listing1_pipeline_end_to_end() {
    let (p, s) = frontend(LISTING1).unwrap();
    let tr = translate(&p, &s, &TranslateOptions::default()).unwrap();
    assert_eq!(tr.kernels.len(), 1);
    // 3 × 2 launches of the same kernel.
    let r = execute(&tr, &ExecOptions::default()).unwrap();
    assert_eq!(r.kernel_launches, 6);
    assert_eq!(r.global_scalar(&tr, "out").unwrap().as_f64(), 64.0);
    // The data region keeps q/w resident: exactly one copyin + one update.
    assert_eq!(r.machine.stats.h2d_count, 1);
    assert_eq!(r.machine.stats.d2h_count, 1);
}

#[test]
fn listing2_demotion_then_verification_passes() {
    let (p, s) = frontend(LISTING1).unwrap();
    let tr = translate(&p, &s, &TranslateOptions::default()).unwrap();
    let demoted = demote_source(&p, &tr.kernels[0], 1).unwrap();
    let text = openarc::minic::print_program(&demoted);
    assert!(text.contains("async(1)"), "{text}");
    assert!(text.contains("copy(q)"), "{text}");
    assert!(text.contains("copyin(w)"), "{text}");
    // Full verification of the original program: clean, runs per launch.
    let session = Session::builder().build();
    let fe = session.frontend_program(p, s);
    let (_, report) = session
        .verify(&fe, &TranslateOptions::default(), VerifyOptions::default())
        .unwrap();
    assert!(report.flagged().is_empty());
    assert_eq!(report.kernels[0].launches, 6);
}

#[test]
fn injected_reduction_race_caught_only_when_recognition_off() {
    let src = r#"
double a[128];
double s;
void main() {
    int j;
    for (j = 0; j < 128; j++) { a[j] = 1.0; }
    #pragma acc kernels loop gang worker reduction(+:s)
    for (j = 0; j < 128; j++) { s += a[j]; }
}
"#;
    let (p, s) = frontend(src).unwrap();
    let session = Session::builder().build();
    // Healthy: clause present → clean.
    let fe = session.frontend_program(p.clone(), s.clone());
    let (_, ok) = session
        .verify(&fe, &TranslateOptions::default(), VerifyOptions::default())
        .unwrap();
    assert!(ok.flagged().is_empty());
    // Fault-injected: stripped + recognition off → detected.
    let (bad, _) = strip_privatization(&p).unwrap();
    let topts = TranslateOptions {
        auto_privatize: false,
        auto_reduction: false,
        ..Default::default()
    };
    let fe = session.frontend_program(bad, s);
    let (_, flagged) = session
        .verify(&fe, &topts, VerifyOptions::default())
        .unwrap();
    assert_eq!(flagged.flagged().len(), 1);
    // Recognition ON rescues the stripped program (OpenARC's automatic
    // reduction recognition).
    let (_, rescued) = session
        .verify(&fe, &TranslateOptions::default(), VerifyOptions::default())
        .unwrap();
    assert!(rescued.flagged().is_empty());
}

#[test]
fn jacobi_interactive_reaches_hand_optimized_transfer_count() {
    let b = openarc::suite::jacobi::benchmark(Scale::default());
    let topts = TranslateOptions {
        instrument: true,
        ..Default::default()
    };
    let (p, s) = frontend(b.source(Variant::Unoptimized)).unwrap();
    let eopts = ExecOptions {
        race_detect: false,
        ..Default::default()
    };
    let session = Session::builder().build();
    let out =
        optimize_transfers_in_session(&session, &p, &s, &topts, &b.outputs, &eopts, 10).unwrap();
    assert!(out.converged);
    assert_eq!(out.incorrect_iterations, 0);
    // Hand-optimized reference.
    let (_, opt) =
        openarc::suite::run_variant(&b, Variant::Optimized, &TranslateOptions::default(), &eopts)
            .unwrap();
    assert_eq!(
        out.final_stats.total_count(),
        opt.machine.stats.total_count(),
        "tool-optimized JACOBI must match the manual transfer pattern"
    );
}

#[test]
fn whole_suite_runs_at_alternate_scale() {
    // Different size/iteration mix than both unit tests and benches.
    let scale = Scale { n: 24, iters: 3 };
    for b in openarc::suite::all(scale) {
        openarc::suite::check_variant(&b, Variant::Optimized).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn figure1_shape_naive_never_beats_optimized() {
    let scale = Scale { n: 24, iters: 3 };
    for b in openarc::suite::all(scale) {
        let eopts = ExecOptions {
            race_detect: false,
            ..Default::default()
        };
        let (_, naive) =
            openarc::suite::run_variant(&b, Variant::Naive, &TranslateOptions::default(), &eopts)
                .unwrap();
        let (_, opt) = openarc::suite::run_variant(
            &b,
            Variant::Optimized,
            &TranslateOptions::default(),
            &eopts,
        )
        .unwrap();
        assert!(
            naive.machine.stats.total_bytes() >= opt.machine.stats.total_bytes(),
            "{}: naive moved less data than optimized?",
            b.name
        );
        assert!(
            naive.sim_time_us() >= opt.sim_time_us() * 0.99,
            "{}: naive {} faster than optimized {}?",
            b.name,
            naive.sim_time_us(),
            opt.sim_time_us()
        );
    }
}
