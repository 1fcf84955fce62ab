//! The interactive memory-transfer optimization loop (§III-B, Figure 2):
//! start from a conservatively-annotated JACOBI, let the tool report
//! redundant transfers (Listing 4 messages), and watch the programmer
//! model defer/remove them until the transfer pattern is optimal.
//!
//! Run with: `cargo run --example optimize_transfers`

use openarc::prelude::*;

fn main() {
    let b = openarc::suite::jacobi::benchmark(Scale::default());

    // Peek at the raw tool output for one instrumented run.
    let topts = TranslateOptions {
        instrument: true,
        ..Default::default()
    };
    let (program, sema) = frontend(b.source(Variant::Unoptimized)).unwrap();
    let tr = translate(&program, &sema, &topts).unwrap();
    let run = execute(
        &tr,
        &ExecOptions {
            check_transfers: true,
            race_detect: false,
            ..Default::default()
        },
    )
    .unwrap();
    println!("--- tool report (first profiling run) ---");
    print!("{}", run.machine.report);

    // Drive the loop to a fixpoint.
    let out = optimize_transfers_in_session(
        &Session::builder().build(),
        &program,
        &sema,
        &topts,
        &b.outputs,
        &ExecOptions {
            race_detect: false,
            ..Default::default()
        },
        10,
    )
    .unwrap();
    println!("\n--- interactive loop ---");
    for l in &out.log {
        println!(
            "iteration {}: applied {:?}, reverted {:?}",
            l.index, l.applied, l.reverted
        );
    }
    println!(
        "\nconverged = {} after {} iteration(s), {} incorrect",
        out.converged, out.iterations, out.incorrect_iterations
    );
    println!("final transfer count = {}", out.final_stats.total_count());
    assert!(out.converged);
}
