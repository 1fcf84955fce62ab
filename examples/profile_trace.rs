//! Programmatic use of the execution event journal (what `openarc
//! profile` does under the hood): run the unoptimized JACOBI with a
//! journal attached, reconcile the journal against the simulator's
//! `TimeBreakdown` accounting, export a Chrome trace, and replay the
//! event timeline that explains why the per-sweep `update` transfers
//! are flagged redundant.
//!
//! Run with: `cargo run --example profile_trace`

use openarc::prelude::*;
use openarc::trace::category_totals;

fn main() {
    let b = openarc::suite::jacobi::benchmark(Scale::default());
    let (program, sema) = frontend(b.source(Variant::Unoptimized)).unwrap();
    let topts = TranslateOptions {
        instrument: true,
        ..Default::default()
    };
    let tr = translate(&program, &sema, &topts).unwrap();

    // A cloned journal shares the buffer with the executor's copy, so we
    // can keep a handle and read the events after the run.
    let journal = Journal::enabled();
    let run = execute(
        &tr,
        &ExecOptions {
            check_transfers: true,
            journal: journal.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    // `drain` takes the buffer — this is the journal's only reader, so
    // there is no need to pay for a copy the way `snapshot` would.
    let events = journal.drain();

    // The journal's per-category slice totals reconcile *exactly* with
    // the simulated clock's breakdown — same additions, same order.
    for (cat, total) in category_totals(&events) {
        assert_eq!(total, run.machine.clock.breakdown.get(cat), "{cat}");
    }

    print!("{}", summarize(&events));

    let out = std::env::temp_dir().join("jacobi-trace.json");
    std::fs::write(&out, chrome_trace(&events)).unwrap();
    println!("--\nchrome trace written to {}", out.display());
    println!("(open chrome://tracing or https://ui.perfetto.dev and load it)");

    // The interactive question from §III-B: why was the `update`
    // transfer of `a` flagged redundant?  The per-variable timeline
    // shows each H2D at `update0` immediately followed by the finding.
    println!();
    println!("{}", explain_var(&events, "a").unwrap());
}
