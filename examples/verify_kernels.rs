//! Kernel verification (§III-A): inject the paper's fault — remove a
//! `private` clause and disable automatic privatization — then let the
//! verifier compare every kernel against its sequential CPU reference.
//! Also prints the memory-transfer-demoted program (the paper's
//! Listing 2 transformation).
//!
//! Run with: `cargo run --example verify_kernels`

use openarc::core::faults::strip_privatization;
use openarc::prelude::*;

fn main() {
    let src = r#"
double a[128];
double b[128];
double tmp;
void main() {
    int j;
    for (j = 0; j < 128; j++) { b[j] = (double) j; }
    #pragma acc data copyin(b) copyout(a)
    {
        #pragma acc kernels loop gang worker private(tmp)
        for (j = 0; j < 128; j++) {
            tmp = b[j] * 2.0;
            a[j] = tmp + 1.0;
        }
    }
}
"#;
    let (program, sema) = frontend(src).expect("frontend");

    // 1. Show the memory-transfer demotion (Listing 2).
    let tr = translate(&program, &sema, &TranslateOptions::default()).expect("translate");
    let demoted = demote_source(&program, &tr.kernels[0], 1).unwrap();
    println!("--- demoted program (target kernel 0) ---");
    println!("{}", openarc::minic::print_program(&demoted));

    // 2. Verify the healthy program: clean.
    let session = Session::builder().build();
    let fe = session.frontend_program(program.clone(), sema.clone());
    let (_, ok) = session
        .verify(&fe, &TranslateOptions::default(), VerifyOptions::default())
        .unwrap();
    println!("healthy program: {} kernel(s) flagged", ok.flagged().len());
    assert!(ok.flagged().is_empty());

    // 3. Inject the fault: strip private(tmp), disable recognition.
    let (faulty, stats) = strip_privatization(&program).unwrap();
    println!("stripped {} private clause(s)", stats.private_removed);
    let topts = TranslateOptions {
        auto_privatize: false,
        auto_reduction: false,
        ..Default::default()
    };
    let fe = session.frontend_program(faulty, sema);
    let (_, bad) = session
        .verify(&fe, &topts, VerifyOptions::default())
        .unwrap();
    for k in &bad.kernels {
        println!(
            "kernel {}: launches={} failed={} max |err| = {:.3}",
            k.kernel, k.launches, k.failed_launches, k.max_abs_err
        );
    }
    assert_eq!(bad.flagged().len(), 1, "the race must be detected");
    println!(
        "race oracle saw: {:?}",
        bad.races
            .iter()
            .map(|(k, r)| (k, &r.label))
            .collect::<Vec<_>>()
    );
}
