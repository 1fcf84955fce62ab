//! Suite-wide invariants: every benchmark must verify clean when healthy,
//! and the fault-injection protocol must behave per Table 2 on each one.

use openarc::core::faults::strip_privatization;
use openarc::prelude::*;

#[test]
fn every_benchmark_verifies_clean_when_healthy() {
    let session = Session::builder().build();
    for b in openarc::suite::all(Scale::default()) {
        let fe = session.frontend(b.source(Variant::Optimized)).unwrap();
        let (tr, report) = session
            .verify(&fe, &TranslateOptions::default(), VerifyOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert!(
            report.flagged().is_empty(),
            "{}: healthy program flagged: {:?}",
            b.name,
            report.flagged()
        );
        // Every kernel actually ran under verification at least once.
        for k in &report.kernels {
            assert!(k.launches > 0, "{}: {} never verified", b.name, k.kernel);
            assert!(k.compared_elems > 0 || k.kernel.is_empty() || k.launches > 0);
        }
        assert_eq!(tr.tr.kernels.len(), b.n_kernels, "{}", b.name);
    }
}

#[test]
fn fault_injection_never_escapes_detection_when_output_corrupting() {
    // For each benchmark: if the stripped program's normal run corrupts
    // outputs relative to its sequential reference, verification must flag
    // at least one kernel (the paper's central Table 2 claim).
    let session = Session::builder().build();
    for b in openarc::suite::all(Scale::default()) {
        let (p, s) = frontend(b.source(Variant::Optimized)).unwrap();
        let (stripped, st) = strip_privatization(&p).unwrap();
        if st.private_removed + st.reductions_removed == 0 {
            continue;
        }
        let topts = TranslateOptions {
            auto_privatize: false,
            auto_reduction: false,
            ..Default::default()
        };
        let tr = match translate(&stripped, &s, &topts) {
            Ok(tr) => tr,
            Err(e) => panic!("{}: {e:?}", b.name),
        };
        // Ground truth: does the race corrupt final outputs?
        let cpu = execute(
            &tr,
            &ExecOptions {
                mode: ExecMode::CpuOnly,
                race_detect: false,
                ..Default::default()
            },
        )
        .unwrap();
        let gpu = execute(&tr, &ExecOptions::default()).unwrap();
        let reference = openarc::core::interactive::capture_outputs(&tr, &cpu, &b.outputs);
        let corrupted = !openarc::core::interactive::outputs_match(
            &tr,
            &gpu,
            &reference,
            b.outputs.tol.max(1e-9),
        );
        // Verification verdict.
        let fe = session.frontend_program(stripped, s);
        let (_, report) = session
            .verify(&fe, &topts, VerifyOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        if corrupted {
            assert!(
                !report.flagged().is_empty(),
                "{}: outputs corrupted but verification silent",
                b.name
            );
        }
        // And the race oracle must have seen something whenever clauses
        // were stripped from a kernel that actually races.
        if !report.flagged().is_empty() {
            assert!(
                !report.races.is_empty(),
                "{}: flagged without any oracle-visible race",
                b.name
            );
        }
    }
}

#[test]
fn every_variant_matches_its_sequential_reference() {
    // Transfer annotations must not change semantics: each variant's
    // device run agrees with its own sequential execution.
    for b in openarc::suite::all(Scale::default()) {
        for v in Variant::ALL {
            let (p, s) = frontend(b.source(v)).unwrap();
            let tr = translate(&p, &s, &TranslateOptions::default()).unwrap();
            let r = execute(
                &tr,
                &ExecOptions {
                    race_detect: false,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{} [{}]: {e}", b.name, v.name()));
            let cpu = execute(
                &tr,
                &ExecOptions {
                    mode: ExecMode::CpuOnly,
                    race_detect: false,
                    ..Default::default()
                },
            )
            .unwrap();
            let reference = openarc::core::interactive::capture_outputs(&tr, &cpu, &b.outputs);
            assert!(
                openarc::core::interactive::outputs_match(
                    &tr,
                    &r,
                    &reference,
                    b.outputs.tol.max(1e-9)
                ),
                "{} [{}] diverges from its reference",
                b.name,
                v.name()
            );
        }
    }
}

#[test]
fn naive_variant_moves_at_least_as_much_data() {
    for b in openarc::suite::all(Scale::default()) {
        let eopts = ExecOptions {
            race_detect: false,
            ..Default::default()
        };
        let naive = openarc::suite::run_variant(&b, Variant::Naive, &Default::default(), &eopts)
            .unwrap()
            .1;
        let unopt =
            openarc::suite::run_variant(&b, Variant::Unoptimized, &Default::default(), &eopts)
                .unwrap()
                .1;
        let opt = openarc::suite::run_variant(&b, Variant::Optimized, &Default::default(), &eopts)
            .unwrap()
            .1;
        let (nb, ub, ob) = (
            naive.machine.stats.total_bytes(),
            unopt.machine.stats.total_bytes(),
            opt.machine.stats.total_bytes(),
        );
        assert!(nb >= ob, "{}: naive {} < optimized {}", b.name, nb, ob);
        assert!(
            ub >= ob,
            "{}: unoptimized {} < optimized {}",
            b.name,
            ub,
            ob
        );
    }
}
