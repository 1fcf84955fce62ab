//! Integration tests of the execution event journal: exact reconciliation
//! of journal slice totals against the simulator's `TimeBreakdown`
//! accounting on real benchmarks, a golden-file check of the Chrome
//! `trace_event` export, and verification events in verify mode.

use openarc::prelude::*;
use openarc::trace::{category_totals, EventKind};

/// Run one benchmark variant with the journal attached and assert that the
/// journal's per-category totals equal the clock's breakdown *exactly* —
/// the journal performs the same f64 additions in the same order.
fn assert_reconciles(b: &openarc::suite::Benchmark, v: Variant) {
    let topts = TranslateOptions {
        instrument: true,
        ..Default::default()
    };
    let journal = Journal::enabled();
    let eopts = ExecOptions {
        check_transfers: true,
        journal: journal.clone(),
        ..Default::default()
    };
    let (_, r) = openarc::suite::run_variant(b, v, &topts, &eopts).unwrap();
    let events = journal.snapshot();
    assert!(
        !events.is_empty(),
        "{} [{}] journal empty",
        b.name,
        v.name()
    );
    for (cat, total) in category_totals(&events) {
        assert_eq!(
            total,
            r.machine.clock.breakdown.get(cat),
            "{} [{}] {cat} drifted from the clock",
            b.name,
            v.name()
        );
    }
    let journal_total: f64 = category_totals(&events).iter().map(|(_, t)| t).sum();
    assert!(
        (journal_total - r.sim_time_us()).abs() < 1e-6 * r.sim_time_us().max(1.0),
        "{} [{}] journal total {journal_total} vs clock {}",
        b.name,
        v.name(),
        r.sim_time_us()
    );
}

#[test]
fn jacobi_journal_reconciles_with_time_categories() {
    let b = openarc::suite::jacobi::benchmark(Scale::default());
    for v in Variant::ALL {
        assert_reconciles(&b, v);
    }
}

#[test]
fn spmul_journal_reconciles_with_time_categories() {
    let b = openarc::suite::spmul::benchmark(Scale::default());
    for v in Variant::ALL {
        assert_reconciles(&b, v);
    }
}

#[test]
fn verify_mode_journals_verification_events() {
    let b = openarc::suite::jacobi::benchmark(Scale::default());
    let topts = TranslateOptions::default();
    let journal = Journal::enabled();
    let eopts = ExecOptions {
        mode: ExecMode::Verify(VerifyOptions::default()),
        journal: journal.clone(),
        ..Default::default()
    };
    let (_, r) = openarc::suite::run_variant(&b, Variant::Naive, &topts, &eopts).unwrap();
    let events = journal.snapshot();
    let verdicts: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Verification { kernel, passed, .. } => Some((kernel.clone(), *passed)),
            _ => None,
        })
        .collect();
    let total_launches: u64 = r.verify.iter().map(|k| k.launches).sum();
    assert_eq!(
        verdicts.len() as u64,
        total_launches,
        "one verdict per verified launch"
    );
    assert!(verdicts.iter().all(|(_, passed)| *passed), "{verdicts:?}");
    assert!(verdicts.iter().any(|(k, _)| k == "main_kernel0"));
}

/// A tiny fixed program whose Chrome trace is pinned as a golden file.
/// Includes an async kernel + wait so the export's queue-track mapping
/// (tid assignment, thread_name metadata) is covered.
const GOLDEN_SRC: &str = "double q[8];\ndouble w[8];\nvoid main() {\n    int j;\n    for (j = 0; j < 8; j++) { w[j] = (double) j; }\n    #pragma acc kernels loop async(1) gang worker copy(q) copyin(w)\n    for (j = 0; j < 8; j++) { q[j] = w[j] * 2.0; }\n    #pragma acc wait(1)\n}\n";

/// The export is deterministic; the golden file pins its exact shape.
/// Regenerate after an intentional schema change with:
/// `UPDATE_GOLDEN=1 cargo test --test trace_journal`.
#[test]
fn chrome_trace_matches_golden() {
    let (p, s) = frontend(GOLDEN_SRC).unwrap();
    let topts = TranslateOptions {
        instrument: true,
        ..Default::default()
    };
    let tr = translate(&p, &s, &topts).unwrap();
    let journal = Journal::enabled();
    let eopts = ExecOptions {
        check_transfers: true,
        journal: journal.clone(),
        ..Default::default()
    };
    execute(&tr, &eopts).unwrap();
    let trace = chrome_trace(&journal.snapshot());

    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/profile_trace.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &trace).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        trace, golden,
        "Chrome trace drifted from tests/golden/profile_trace.json"
    );
}

/// Two identical runs produce byte-identical traces (the golden file is
/// meaningful only because the export is deterministic).
#[test]
fn chrome_trace_is_deterministic() {
    let render = || {
        let (p, s) = frontend(GOLDEN_SRC).unwrap();
        let topts = TranslateOptions {
            instrument: true,
            ..Default::default()
        };
        let tr = translate(&p, &s, &topts).unwrap();
        let journal = Journal::enabled();
        let eopts = ExecOptions {
            check_transfers: true,
            journal: journal.clone(),
            ..Default::default()
        };
        execute(&tr, &eopts).unwrap();
        chrome_trace(&journal.snapshot())
    };
    assert_eq!(render(), render());
}
