//! Integration tests for the OpenACC `if(...)` clause and the §III-C
//! application-knowledge directives (`#pragma openarc verify ...`).

use openarc::core::options::parse_verification_options;
use openarc::prelude::*;

fn run(src: &str) -> (Translated, openarc::core::exec::RunResult) {
    let (p, s) = frontend(src).unwrap();
    let tr = translate(&p, &s, &TranslateOptions::default()).unwrap();
    let r = execute(
        &tr,
        &ExecOptions {
            race_detect: false,
            ..Default::default()
        },
    )
    .unwrap();
    (tr, r)
}

/// §III-A verification of an already-parsed program on a fresh session.
fn verify_parsed(
    p: &openarc::minic::Program,
    s: &openarc::minic::Sema,
    topts: &TranslateOptions,
    vopts: VerifyOptions,
) -> std::sync::Arc<openarc::core::VerificationReport> {
    let session = Session::builder().build();
    let fe = session.frontend_program(p.clone(), s.clone());
    session.verify(&fe, topts, vopts).unwrap().1
}

// ------------------------------------------------------------- if clause

#[test]
fn kernel_if_false_runs_on_host() {
    let src = r#"
double a[32];
int n;
void main() {
    int j;
    n = 10;
    #pragma acc kernels loop gang if(n > 100)
    for (j = 0; j < 32; j++) { a[j] = 1.0; }
}
"#;
    let (tr, r) = run(src);
    // Condition false: no device traffic at all, but the work happened.
    assert_eq!(r.machine.stats.total_count(), 0);
    assert_eq!(r.machine.stats.dev_allocs, 0);
    assert_eq!(r.global_array(&tr, "a").unwrap()[7], 1.0);
}

#[test]
fn kernel_if_true_offloads() {
    let src = r#"
double a[32];
int n;
void main() {
    int j;
    n = 1000;
    #pragma acc kernels loop gang if(n > 100)
    for (j = 0; j < 32; j++) { a[j] = 1.0; }
}
"#;
    let (tr, r) = run(src);
    assert!(r.machine.stats.total_count() > 0);
    assert_eq!(r.global_array(&tr, "a").unwrap()[7], 1.0);
}

#[test]
fn kernel_if_reevaluated_per_launch() {
    // The same kernel offloads only for iterations where the condition
    // holds.
    let src = r#"
double a[16];
int k;
void main() {
    int it; int j;
    for (it = 0; it < 4; it++) {
        k = it;
        #pragma acc kernels loop gang if(k >= 2)
        for (j = 0; j < 16; j++) { a[j] = a[j] + 1.0; }
    }
}
"#;
    let (tr, r) = run(src);
    assert_eq!(r.global_array(&tr, "a").unwrap()[0], 4.0);
    // Two offloaded launches: each copies a in and out.
    assert_eq!(r.machine.stats.h2d_count, 2);
    assert_eq!(r.machine.stats.d2h_count, 2);
}

#[test]
fn data_region_if_false_disables_mapping_and_kernels_fall_back() {
    let src = r#"
double a[32];
double out;
int n;
void main() {
    int j;
    n = 1;
    for (j = 0; j < 32; j++) { a[j] = 2.0; }
    #pragma acc data if(n > 100) copyin(a)
    {
        #pragma acc kernels loop gang
        for (j = 0; j < 32; j++) { a[j] = a[j] * 3.0; }
    }
    out = a[0];
}
"#;
    let (tr, r) = run(src);
    // Region inactive → the kernel used its own default copy policy, so
    // the host still sees the result.
    assert_eq!(r.global_scalar(&tr, "out").unwrap().as_f64(), 6.0);
    // The region itself moved nothing; the kernel moved a in and out once.
    assert_eq!(r.machine.stats.h2d_count, 1);
    assert_eq!(r.machine.stats.d2h_count, 1);
}

#[test]
fn update_if_false_is_a_noop() {
    let src = r#"
double a[16];
double out;
int n;
void main() {
    int j;
    n = 0;
    for (j = 0; j < 16; j++) { a[j] = 1.0; }
    #pragma acc data copyin(a)
    {
        #pragma acc kernels loop gang
        for (j = 0; j < 16; j++) { a[j] = 9.0; }
        #pragma acc update host(a) if(n)
    }
    out = a[0];
}
"#;
    let (tr, r) = run(src);
    // Update suppressed: host copy unchanged.
    assert_eq!(r.global_scalar(&tr, "out").unwrap().as_f64(), 1.0);
}

// ---------------------------------------------------- §III-C knowledge

#[test]
fn bounds_pragma_absolves_in_range_divergence() {
    // Inject a uniform-valued shared cell race (value identical across
    // threads after the race on a narrow f32 computation) — here we force
    // real divergence via a racy temp, then absolve it with bounds.
    let src = r#"
double a[64];
double tmp;
void main() {
    int j;
    #pragma openarc verify bounds(a, 0.0, 200.0)
    #pragma acc kernels loop gang
    for (j = 0; j < 64; j++) { tmp = (double) j; a[j] = tmp + 1.0; }
}
"#;
    let (p, s) = frontend(src).unwrap();
    let (stripped, _) = openarc::core::faults::strip_privatization(&p).unwrap();
    let topts = TranslateOptions {
        auto_privatize: false,
        auto_reduction: false,
        ..Default::default()
    };
    // Without bounds the race is flagged...
    let no_bounds = {
        let mut p2 = stripped.clone();
        // remove the openarc pragma
        if let openarc::minic::Item::Func(f) = &mut p2.items[2] {
            for st in &mut f.body.stmts {
                st.pragmas.retain(|pr| !pr.text.starts_with("openarc"));
            }
        }
        let rep = verify_parsed(&p2, &s, &topts, VerifyOptions::default());
        rep.flagged().len()
    };
    assert_eq!(no_bounds, 1, "race must be flagged without bounds");
    // ...with bounds(0..200) every diverging value is inside the band, so
    // the tool suppresses the report (the paper's false-positive-avoidance
    // use case).
    let rep = verify_parsed(&stripped, &s, &topts, VerifyOptions::default());
    assert_eq!(rep.flagged().len(), 0, "{:?}", rep.kernels);
    // The race itself is still real (oracle sees it).
    assert!(!rep.races.is_empty());
}

#[test]
fn assert_checksum_pragma_catches_corruption() {
    let src = r#"
double a[64];
double tmp;
void main() {
    int j;
    #pragma openarc verify assert_checksum(a, 2080.0, 0.5)
    #pragma acc kernels loop gang
    for (j = 0; j < 64; j++) { tmp = (double) j; a[j] = tmp + 1.0; }
}
"#;
    let (p, s) = frontend(src).unwrap();
    // Healthy: checksum Σ(j+1) = 2080 holds.
    let ok = verify_parsed(
        &p,
        &s,
        &TranslateOptions::default(),
        VerifyOptions::default(),
    );
    assert_eq!(ok.kernels[0].assertion_failures, 0);
    // Injected race: checksum breaks; the assertion catches it even with a
    // sky-high comparison tolerance (the §III-C "automatic bug detection"
    // path that avoids user interaction).
    let (stripped, _) = openarc::core::faults::strip_privatization(&p).unwrap();
    let topts = TranslateOptions {
        auto_privatize: false,
        auto_reduction: false,
        ..Default::default()
    };
    let vopts = VerifyOptions {
        rel_tol: 1e9,
        abs_tol: 1e9,
        ..Default::default()
    };
    let bad = verify_parsed(&stripped, &s, &topts, vopts);
    assert!(bad.kernels[0].assertion_failures > 0);
    assert!(bad.kernels[0].flagged());
}

#[test]
fn assert_finite_and_nonnegative() {
    let src = r#"
double a[16];
void main() {
    int j;
    #pragma openarc verify assert_finite(a)
    #pragma openarc verify assert_nonnegative(a)
    #pragma acc kernels loop gang
    for (j = 0; j < 16; j++) { a[j] = 1.0 / ((double) j + 1.0); }
}
"#;
    let (p, s) = frontend(src).unwrap();
    let rep = verify_parsed(
        &p,
        &s,
        &TranslateOptions::default(),
        VerifyOptions::default(),
    );
    assert_eq!(rep.kernels[0].assertion_failures, 0);
}

#[test]
fn bad_knowledge_pragma_is_a_translate_error() {
    let src = r#"
double a[4];
void main() {
    int j;
    #pragma openarc verify bounds(a, 5.0, 1.0)
    #pragma acc kernels loop gang
    for (j = 0; j < 4; j++) { a[j] = 1.0; }
}
"#;
    let (p, s) = frontend(src).unwrap();
    assert!(translate(&p, &s, &TranslateOptions::default()).is_err());
}

// ------------------------------------------------ verification options

#[test]
fn verification_options_select_kernels_end_to_end() {
    let src = r#"
double a[16];
double b[16];
void main() {
    int j;
    #pragma acc kernels loop gang
    for (j = 0; j < 16; j++) { a[j] = 1.0; }
    #pragma acc kernels loop gang
    for (j = 0; j < 16; j++) { b[j] = 2.0; }
}
"#;
    let (p, s) = frontend(src).unwrap();
    let vopts = parse_verification_options("complement=0,kernels=main_kernel1").unwrap();
    let rep = verify_parsed(&p, &s, &TranslateOptions::default(), vopts);
    assert_eq!(rep.kernels[0].launches, 0, "kernel0 not selected");
    assert_eq!(rep.kernels[1].launches, 1, "kernel1 selected");
    // Paper's complement=1 inverts.
    let vopts = parse_verification_options("complement=1,kernels=main_kernel1").unwrap();
    let rep = verify_parsed(&p, &s, &TranslateOptions::default(), vopts);
    assert_eq!(rep.kernels[0].launches, 1);
    assert_eq!(rep.kernels[1].launches, 0);
}

// ------------------------------------------------------------- declare

#[test]
fn declare_keeps_data_resident_for_whole_run() {
    let src = r#"
double scratch[32];
double inp[32];
double out;
void main() {
    int k; int j;
    for (j = 0; j < 32; j++) { inp[j] = 1.0; }
    #pragma acc declare create(scratch)
    for (k = 0; k < 4; k++) {
        #pragma acc kernels loop gang copyin(inp)
        for (j = 0; j < 32; j++) { scratch[j] = inp[j] + (double) k; }
        #pragma acc kernels loop gang
        for (j = 0; j < 32; j++) { inp[j] = scratch[j]; }
    }
    out = inp[0];
}
"#;
    let (tr, r) = run(src);
    assert_eq!(r.global_scalar(&tr, "out").unwrap().as_f64(), 7.0);
    // scratch allocated exactly once for the whole run (inp re-maps per
    // launch: 8 kernel launches + 1 declare mapping) and never transfers.
    assert_eq!(r.machine.stats.dev_allocs, 9);
    // Transfers are inp only: 8 uploads (one per launch) + 4 downloads.
    assert_eq!(r.machine.stats.h2d_count, 8);
    assert_eq!(r.machine.stats.d2h_count, 4);
}

#[test]
fn declare_copyin_snapshots_entry_values_and_update_refreshes() {
    // `declare copyin` captures the values at program entry (zeros here,
    // since the host fills `table` afterwards); an explicit `update
    // device` then refreshes the resident copy — declared data is present,
    // so the update is legal without any data region.
    let src = r#"
double table[16];
double a[16];
double out;
void main() {
    int k; int j;
    #pragma acc declare copyin(table)
    for (j = 0; j < 16; j++) { table[j] = 2.0; }
    #pragma acc update device(table)
    for (k = 0; k < 3; k++) {
        #pragma acc kernels loop gang
        for (j = 0; j < 16; j++) { a[j] = table[j] * (double) (k + 1); }
    }
    out = a[0];
}
"#;
    let (tr, r) = run(src);
    assert_eq!(r.global_scalar(&tr, "out").unwrap().as_f64(), 6.0);
    // Uploads: declare snapshot + update + a per launch (3).
    assert_eq!(r.machine.stats.h2d_count, 5);
    // table allocated once; a thrice.
    assert_eq!(r.machine.stats.dev_allocs, 4);
}
