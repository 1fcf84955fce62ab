//! Differential tests of multi-device verified runs against the
//! one-device oracle, across the whole benchmark suite.
//!
//! Launch sites that share a dependency level are spread round-robin over
//! the simulated devices, and every verified launch retires before the
//! next one issues. Adding devices moves where work lands on the
//! simulated timeline (`tests/verify_devices_golden.rs` pins that bit for
//! bit), but never what verification observes: verdicts, comparison
//! counts, maximum errors, coherence reports and race oracles are
//! bit-identical on 1, 2 and 3 devices.

use openarc::prelude::*;

/// Run one benchmark's naive variant under kernel verification on
/// `devices` simulated devices.
fn verify_run(b: &Benchmark, devices: usize) -> RunResult {
    let eopts = ExecOptions {
        mode: ExecMode::Verify(VerifyOptions {
            devices,
            ..Default::default()
        }),
        ..Default::default()
    };
    let (_, r) =
        openarc::suite::run_variant(b, Variant::Naive, &TranslateOptions::default(), &eopts)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    r
}

/// Everything verification *observes* must agree between two runs:
/// per-kernel verdicts (bit-exact errors included), the coherence report,
/// the race oracle, and the launch/instruction counts.
fn assert_observables_identical(name: &str, ctx: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.verify.len(), b.verify.len(), "{name} {ctx}: kernel count");
    for (x, y) in a.verify.iter().zip(&b.verify) {
        assert_eq!(x.kernel, y.kernel, "{name} {ctx}");
        assert_eq!(x.launches, y.launches, "{name} {ctx}: {}", x.kernel);
        assert_eq!(
            x.failed_launches, y.failed_launches,
            "{name} {ctx}: {}",
            x.kernel
        );
        assert_eq!(
            x.compared_elems, y.compared_elems,
            "{name} {ctx}: {}",
            x.kernel
        );
        assert_eq!(
            x.mismatched_elems, y.mismatched_elems,
            "{name} {ctx}: {}",
            x.kernel
        );
        assert_eq!(
            x.max_abs_err.to_bits(),
            y.max_abs_err.to_bits(),
            "{name} {ctx}: {} max_abs_err",
            x.kernel
        );
        assert_eq!(
            x.assertion_failures, y.assertion_failures,
            "{name} {ctx}: {}",
            x.kernel
        );
    }
    assert_eq!(
        a.machine.report.issues, b.machine.report.issues,
        "{name} {ctx}: coherence report"
    );
    assert_eq!(a.races, b.races, "{name} {ctx}: race oracle");
    assert_eq!(a.kernel_launches, b.kernel_launches, "{name} {ctx}");
    assert_eq!(a.host_instrs, b.host_instrs, "{name} {ctx}");
}

/// Adding devices must not change any verification observable on any
/// benchmark: 2 and 3 devices agree with the one-device oracle bit for bit
/// on verdicts, reports and counters.
#[test]
fn dag_matrix_matches_oracle_observables_on_every_benchmark() {
    for b in openarc::suite::all(Scale::default()) {
        let oracle = verify_run(&b, 1);
        assert!(
            oracle.verify.iter().all(|k| !k.flagged()),
            "{}: oracle flags a healthy program",
            b.name
        );
        for devices in [2usize, 3] {
            let r = verify_run(&b, devices);
            assert_observables_identical(b.name, &format!("devices={devices}"), &oracle, &r);
        }
    }
}
