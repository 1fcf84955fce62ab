//! Race hunting with the lockstep simulator: run every benchmark with the
//! paper's §IV-B fault injection and report which kernels race, which
//! races corrupt outputs (active), and which stay latent — the data behind
//! the Table 2 reproduction.
//!
//! Run with: `cargo run --example race_hunt`

use openarc::core::faults::strip_privatization;
use openarc::prelude::*;

fn main() {
    let session = Session::builder().build();
    for b in openarc::suite::all(Scale::default()) {
        let (program, sema) = frontend(b.source(Variant::Optimized)).unwrap();
        let (faulty, stats) = strip_privatization(&program).unwrap();
        if stats.private_removed + stats.reductions_removed == 0 {
            println!("{:<10} no clauses to strip", b.name);
            continue;
        }
        let topts = TranslateOptions {
            auto_privatize: false,
            auto_reduction: false,
            ..Default::default()
        };
        let fe = session.frontend_program(faulty, sema);
        let (_, report) = session
            .verify(&fe, &topts, VerifyOptions::default())
            .unwrap();
        let active: Vec<&str> = report
            .kernels
            .iter()
            .filter(|k| k.flagged())
            .map(|k| k.kernel.as_str())
            .collect();
        let raced: std::collections::BTreeSet<&str> =
            report.races.iter().map(|(k, _)| k.as_str()).collect();
        let latent: Vec<&str> = raced
            .iter()
            .filter(|k| !active.contains(*k))
            .copied()
            .collect();
        println!(
            "{:<10} stripped {:>2} clauses → active: {:?}, latent: {:?}",
            b.name,
            stats.private_removed + stats.reductions_removed,
            active,
            latent
        );
    }
}
