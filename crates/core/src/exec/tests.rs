use super::*;
use crate::translate::{translate, TranslateOptions};
use openarc_minic::frontend;
use openarc_runtime::IssueKind;
use openarc_trace::Category;
use std::sync::OnceLock;

fn run_src(src: &str, topts: &TranslateOptions, eopts: &ExecOptions) -> (Translated, RunResult) {
    let (p, s) = frontend(src).expect("frontend");
    let tr = translate(&p, &s, topts).expect("translate");
    let r = execute(&tr, eopts).expect("execute");
    (tr, r)
}

const COPY_SRC: &str = "double q[64];\ndouble w[64];\nvoid main() {\n int j;\n for (j = 0; j < 64; j++) { w[j] = (double) j; }\n #pragma acc kernels loop gang worker\n for (j = 0; j < 64; j++) { q[j] = w[j] * 2.0; }\n}";

/// Shared fixture: [`COPY_SRC`] translated once with default options.
/// Most cases differ only in [`ExecOptions`], so they re-execute this one
/// [`Translated`] instead of re-running the whole frontend + translate
/// per test.
fn copy_fixture() -> &'static Translated {
    static TR: OnceLock<Translated> = OnceLock::new();
    TR.get_or_init(|| {
        let (p, s) = frontend(COPY_SRC).expect("frontend");
        translate(&p, &s, &TranslateOptions::default()).expect("translate")
    })
}

fn run_copy(eopts: &ExecOptions) -> RunResult {
    execute(copy_fixture(), eopts).expect("execute")
}

#[test]
fn normal_mode_produces_correct_output() {
    let tr = copy_fixture();
    let r = run_copy(&ExecOptions::default());
    let q = r.global_array(tr, "q").unwrap();
    for (i, v) in q.iter().enumerate() {
        assert_eq!(*v, i as f64 * 2.0);
    }
    assert_eq!(r.kernel_launches, 1);
    assert!(r.races.is_empty());
    // Naive policy: q and w copied in, q copied out.
    assert_eq!(r.machine.stats.h2d_count, 2);
    assert_eq!(r.machine.stats.d2h_count, 1);
    assert!(r.sim_time_us() > 0.0);
}

#[test]
fn cpu_only_mode_matches_normal_output() {
    let eopts = ExecOptions {
        mode: ExecMode::CpuOnly,
        ..Default::default()
    };
    let tr = copy_fixture();
    let r = run_copy(&eopts);
    let q = r.global_array(tr, "q").unwrap();
    for (i, v) in q.iter().enumerate() {
        assert_eq!(*v, i as f64 * 2.0);
    }
    assert_eq!(r.machine.stats.total_count(), 0, "no transfers in CPU mode");
    assert_eq!(r.machine.stats.dev_allocs, 0);
}

#[test]
fn reduction_finalizes_on_host() {
    let src = "double a[100];\ndouble s;\nvoid main() {\n int j;\n for (j = 0; j < 100; j++) { a[j] = 1.0; }\n s = 5.0;\n #pragma acc kernels loop gang reduction(+:s)\n for (j = 0; j < 100; j++) { s += a[j]; }\n}";
    let (tr, r) = run_src(src, &TranslateOptions::default(), &ExecOptions::default());
    assert_eq!(r.global_scalar(&tr, "s").unwrap().as_f64(), 105.0);
}

#[test]
fn data_region_avoids_per_kernel_transfers() {
    let src = "double q[64];\ndouble w[64];\nvoid main() {\n int k; int j;\n #pragma acc data copyin(w) copyout(q)\n {\n  for (k = 0; k < 5; k++) {\n   #pragma acc kernels loop gang\n   for (j = 0; j < 64; j++) { q[j] = w[j] + (double) k; }\n  }\n }\n}";
    let (_, r) = run_src(src, &TranslateOptions::default(), &ExecOptions::default());
    // One copyin at region enter, one copyout at region exit.
    assert_eq!(r.machine.stats.h2d_count, 1);
    assert_eq!(r.machine.stats.d2h_count, 1);
    assert_eq!(r.machine.stats.dev_allocs, 2);
    // Versus naive: 5 kernels × 2 copyins + 5 copyouts.
    let naive_src = src.replace("#pragma acc data copyin(w) copyout(q)\n {\n", "{\n");
    let (p, s) = frontend(&naive_src).unwrap();
    let tr = translate(&p, &s, &TranslateOptions::default()).unwrap();
    let rn = execute(&tr, &ExecOptions::default()).unwrap();
    assert!(rn.machine.stats.total_bytes() > 5 * r.machine.stats.total_bytes());
}

#[test]
fn update_host_transfers_back() {
    let src = "double q[16];\ndouble w[16];\ndouble s;\nvoid main() {\n int j;\n #pragma acc data copyin(w) create(q)\n {\n  #pragma acc kernels loop gang\n  for (j = 0; j < 16; j++) { q[j] = w[j] + 1.0; }\n  #pragma acc update host(q)\n }\n s = q[3];\n}";
    let (tr, r) = run_src(src, &TranslateOptions::default(), &ExecOptions::default());
    assert_eq!(r.global_scalar(&tr, "s").unwrap().as_f64(), 1.0);
}

#[test]
fn missing_update_leaves_stale_host_data() {
    // Same as above without the update: host q stays zero.
    let src = "double q[16];\ndouble w[16];\ndouble s;\nvoid main() {\n int j;\n for (j = 0; j < 16; j++) { w[j] = 2.0; }\n #pragma acc data copyin(w) create(q)\n {\n  #pragma acc kernels loop gang\n  for (j = 0; j < 16; j++) { q[j] = w[j] + 1.0; }\n }\n s = q[3];\n}";
    let (tr, r) = run_src(src, &TranslateOptions::default(), &ExecOptions::default());
    assert_eq!(
        r.global_scalar(&tr, "s").unwrap().as_f64(),
        0.0,
        "bug reproduced: host never updated"
    );
}

#[test]
fn coherence_detects_missing_transfer() {
    let src = "double q[16];\ndouble w[16];\ndouble s;\nvoid main() {\n int j;\n #pragma acc data copyin(w) create(q)\n {\n  #pragma acc kernels loop gang\n  for (j = 0; j < 16; j++) { q[j] = w[j] + 1.0; }\n }\n s = q[3];\n}";
    let (p, se) = frontend(src).unwrap();
    let topts = TranslateOptions {
        instrument: true,
        ..Default::default()
    };
    let tr = translate(&p, &se, &topts).unwrap();
    let eopts = ExecOptions {
        check_transfers: true,
        ..Default::default()
    };
    let r = execute(&tr, &eopts).unwrap();
    assert!(
        r.machine.report.count(IssueKind::Missing) >= 1,
        "report: {}",
        r.machine.report
    );
}

#[test]
fn coherence_detects_redundant_transfer() {
    // w never changes after the region entry copyin, yet an update
    // device(w) inside the loop re-copies it every iteration.
    let src = "double q[16];\ndouble w[16];\nvoid main() {\n int k; int j;\n #pragma acc data copyin(w) copyout(q)\n {\n  for (k = 0; k < 3; k++) {\n   #pragma acc update device(w)\n   #pragma acc kernels loop gang\n   for (j = 0; j < 16; j++) { q[j] = w[j]; }\n  }\n }\n}";
    let (p, se) = frontend(src).unwrap();
    let topts = TranslateOptions {
        instrument: true,
        ..Default::default()
    };
    let tr = translate(&p, &se, &topts).unwrap();
    let eopts = ExecOptions {
        check_transfers: true,
        ..Default::default()
    };
    let r = execute(&tr, &eopts).unwrap();
    assert!(
        r.machine.report.count(IssueKind::Redundant) >= 3,
        "report: {}",
        r.machine.report
    );
    // Context strings include the enclosing loop iteration (Listing 4).
    let text = r.machine.report.to_string();
    assert!(text.contains("k-loop index ="), "{text}");
}

#[test]
fn verify_mode_passes_clean_kernel() {
    let vopts = VerifyOptions::default();
    let eopts = ExecOptions {
        mode: ExecMode::Verify(vopts),
        ..Default::default()
    };
    let r = run_copy(&eopts);
    assert_eq!(r.verify.len(), 1);
    assert_eq!(r.verify[0].launches, 1);
    assert!(!r.verify[0].flagged(), "{:?}", r.verify[0]);
    assert!(r.verify[0].compared_elems > 0);
    // Verification moves data: breakdown has transfer + result comp.
    assert!(r.machine.clock.breakdown.get(Category::ResultComp) > 0.0);
    assert!(r.machine.clock.breakdown.get(Category::GpuMemFree) > 0.0);
}

#[test]
fn verify_stage_journal_spans_all_three_phases() {
    // With a stage journal attached, one verified launch emits exactly
    // one wall-clock span per pipeline phase; the deterministic run
    // journal stays untouched.
    let stage_journal = openarc_trace::Journal::enabled();
    let eopts = ExecOptions {
        mode: ExecMode::Verify(VerifyOptions::default()),
        stage_journal: stage_journal.clone(),
        ..Default::default()
    };
    let r = run_copy(&eopts);
    assert!(!r.verify[0].flagged());
    let spans = stage_journal.drain();
    let labels: Vec<&str> = spans
        .iter()
        .map(|e| match &e.kind {
            openarc_trace::EventKind::Stage { stage, .. } => stage.label(),
            other => panic!("unexpected event in stage journal: {other:?}"),
        })
        .collect();
    assert_eq!(
        labels,
        vec!["verify:staging", "verify:overlap", "verify:compare"]
    );
    for e in &spans {
        assert!(e.dur_us >= 0.0 && e.ts_us >= 0.0);
    }
    // Disabled stage journal (the default) emits nothing and changes
    // nothing: the run above matches a plain verified run.
    let plain = run_copy(&ExecOptions {
        mode: ExecMode::Verify(VerifyOptions::default()),
        ..Default::default()
    });
    assert_eq!(r.sim_time_us().to_bits(), plain.sim_time_us().to_bits());
}

#[test]
fn verify_mode_catches_injected_race() {
    // Shared temporary without privatization: lockstep corrupts it.
    let src = "double a[64];\ndouble tmp;\nvoid main() {\n int j;\n #pragma acc kernels loop gang\n for (j = 0; j < 64; j++) { tmp = (double) j; a[j] = tmp * 2.0; }\n}";
    let (p, s) = frontend(src).unwrap();
    let topts = TranslateOptions {
        auto_privatize: false,
        auto_reduction: false,
        ..Default::default()
    };
    let tr = translate(&p, &s, &topts).unwrap();
    let eopts = ExecOptions {
        mode: ExecMode::Verify(VerifyOptions::default()),
        ..Default::default()
    };
    let r = execute(&tr, &eopts).unwrap();
    assert!(
        r.verify[0].flagged(),
        "verification must catch the race: {:?}",
        r.verify[0]
    );
    // The oracle saw the race too.
    assert!(r
        .races
        .iter()
        .any(|(k, rr)| k == "main_kernel0" && rr.label.contains("tmp")));
}

#[test]
fn race_detector_catches_loop_carried_dependence() {
    // `b[j] = f(b[j-1], b[j])`: thread j reads the element thread j-1
    // writes — a cross-thread read/write conflict the detector must see.
    let src = "float b[8];\nvoid main() {\n int j;\n #pragma acc kernels loop gang worker\n for (j = 1; j < 7; j++) { b[j] = (float) ((double) b[(j - 1)] + ((3.0 * (double) b[j]) * 1.5)); }\n}";
    let (_, r) = run_src(
        src,
        &TranslateOptions::default(),
        &ExecOptions {
            race_detect: true,
            ..Default::default()
        },
    );
    assert!(
        r.races
            .iter()
            .any(|(k, rr)| k == "main_kernel0" && rr.label.contains('b')),
        "loop-carried dependence must race: {:?}",
        r.races
    );
}

#[test]
fn verify_untargeted_kernels_run_sequentially() {
    let vopts = VerifyOptions {
        targets: Some(std::iter::once("main_kernel9".to_string()).collect()),
        ..Default::default()
    };
    let eopts = ExecOptions {
        mode: ExecMode::Verify(vopts),
        ..Default::default()
    };
    let tr = copy_fixture();
    let r = run_copy(&eopts);
    // Kernel not selected: ran on CPU, output still correct.
    assert_eq!(r.verify[0].launches, 0);
    let q = r.global_array(tr, "q").unwrap();
    assert_eq!(q[10], 20.0);
    assert_eq!(r.machine.stats.total_count(), 0);
}

#[test]
fn verify_complement_selects_inverse() {
    let vopts = VerifyOptions {
        targets: Some(std::iter::once("main_kernel9".to_string()).collect()),
        complement: true,
        ..Default::default()
    };
    let eopts = ExecOptions {
        mode: ExecMode::Verify(vopts),
        ..Default::default()
    };
    let r = run_copy(&eopts);
    assert_eq!(r.verify[0].launches, 1);
}

#[test]
fn min_value_to_check_skips_tiny_values() {
    let vopts = VerifyOptions {
        min_value_to_check: 1e9,
        ..Default::default()
    };
    let eopts = ExecOptions {
        mode: ExecMode::Verify(vopts),
        ..Default::default()
    };
    let r = run_copy(&eopts);
    assert_eq!(r.verify[0].compared_elems, 0);
}

#[test]
fn assertion_api_flags_bad_checksum() {
    // `COPY_SRC` with §III-C assertion pragmas on its one kernel.
    let with_assert = |pragma: &str| {
        COPY_SRC.replace(
            " #pragma acc kernels",
            &format!(" #pragma openarc verify {pragma}\n #pragma acc kernels"),
        )
    };
    let eopts = ExecOptions {
        mode: ExecMode::Verify(VerifyOptions::default()),
        ..Default::default()
    };
    let src = with_assert("assert_checksum(q, -1.0, 0.5)");
    let (_, r) = run_src(&src, &TranslateOptions::default(), &eopts);
    assert_eq!(r.verify[0].assertion_failures, 1);
    let src = with_assert("assert_nonnegative(q)");
    let (_, r) = run_src(&src, &TranslateOptions::default(), &eopts);
    assert_eq!(r.verify[0].assertion_failures, 0);
}

#[test]
fn async_kernel_overlaps_and_waits() {
    let src = "double q[64];\ndouble w[64];\nint z;\nvoid main() {\n int j;\n #pragma acc kernels loop async(1) gang copy(q) copyin(w)\n for (j = 0; j < 64; j++) { q[j] = w[j]; }\n for (j = 0; j < 1000; j++) { z = z + 1; }\n #pragma acc wait(1)\n}";
    let (tr, r) = run_src(src, &TranslateOptions::default(), &ExecOptions::default());
    assert_eq!(r.global_scalar(&tr, "z").unwrap(), Value::Int(1000));
    assert!(r.sim_time_us() > 0.0);
}

#[test]
fn collapse_kernel_runs_correctly() {
    let src = "double g[8][8];\ndouble s;\nvoid main() {\n int i; int j;\n #pragma acc kernels loop gang collapse(2)\n for (i = 0; i < 8; i++) for (j = 0; j < 8; j++) { g[i][j] = (double)(i * 8 + j); }\n s = g[7][7];\n}";
    let (tr, r) = run_src(src, &TranslateOptions::default(), &ExecOptions::default());
    assert_eq!(r.global_scalar(&tr, "s").unwrap().as_f64(), 63.0);
    let g = r.global_array(&tr, "g").unwrap();
    assert_eq!(g[13], 13.0);
}

#[test]
fn malloc_backed_pointers_work_in_kernels() {
    let src = "double *p;\nint n;\ndouble s;\nvoid main() {\n int j;\n n = 32;\n p = (double *) malloc(n * sizeof(double));\n for (j = 0; j < n; j++) { p[j] = 1.0; }\n #pragma acc kernels loop gang\n for (j = 0; j < n; j++) { p[j] = p[j] + 1.0; }\n s = p[31];\n}";
    let (tr, r) = run_src(src, &TranslateOptions::default(), &ExecOptions::default());
    assert_eq!(r.global_scalar(&tr, "s").unwrap().as_f64(), 2.0);
}

#[test]
fn seq_and_gpu_reduction_roundings_differ_but_within_margin() {
    // Large float reduction: tree vs sequential rounding differ.
    let src = "float a[4096];\ndouble s;\nvoid main() {\n int j;\n for (j = 0; j < 4096; j++) { a[j] = 0.1f; }\n #pragma acc kernels loop gang reduction(+:s)\n for (j = 0; j < 4096; j++) { s += (double) a[j]; }\n}";
    let eopts = ExecOptions {
        mode: ExecMode::Verify(VerifyOptions::default()),
        ..Default::default()
    };
    let (tr, r) = run_src(src, &TranslateOptions::default(), &eopts);
    assert!(!r.verify[0].flagged(), "{:?}", r.verify[0]);
    let s = r.global_scalar(&tr, "s").unwrap().as_f64();
    assert!((s - 409.6).abs() < 0.1, "{s}");
}
