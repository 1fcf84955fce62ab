//! Differential tests of the dependency-DAG verified executor against the
//! sequential oracle, across the whole benchmark suite.
//!
//! The refactor's central invariant: `dagJobs=1, devices=1` *is* the
//! sequential oracle — every launch retires before the next issues, on the
//! primary device, producing the identical f64 addition sequence on the
//! simulated clock and the identical journal event stream, *for every
//! placement policy* (with one device there is nothing to place). Larger
//! windows and device counts may reorder *accounting* on the simulated
//! timeline, but never change what verification observes: verdicts,
//! comparison counts, maximum errors, coherence reports and race oracles
//! are bit-identical for every configuration in the placement × dagJobs ×
//! devices matrix.

use openarc::core::exec::dag::Placement;
use openarc::prelude::*;
use openarc::trace::{Category, EventKind, TraceEvent, Track};

/// Run one benchmark's naive variant under kernel verification with the
/// given DAG window, device count, and placement policy, capturing the
/// journal.
fn placed_run(
    b: &Benchmark,
    dag_jobs: usize,
    devices: usize,
    placement: Placement,
) -> (RunResult, Vec<TraceEvent>) {
    let journal = Journal::enabled();
    let eopts = ExecOptions {
        mode: ExecMode::Verify(VerifyOptions {
            dag_jobs,
            devices,
            placement,
            ..Default::default()
        }),
        journal: journal.clone(),
        ..Default::default()
    };
    let (_, r) =
        openarc::suite::run_variant(b, Variant::Naive, &TranslateOptions::default(), &eopts)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let events = journal.snapshot();
    (r, events)
}

/// Round-robin shorthand (the historical configuration).
fn verify_run(b: &Benchmark, dag_jobs: usize, devices: usize) -> (RunResult, Vec<TraceEvent>) {
    placed_run(b, dag_jobs, devices, Placement::RoundRobin)
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

/// `dagJobs=1, devices=1` is *bit-identical* to the oracle: same journal
/// event stream (timestamps compared exactly), same clock, same breakdown
/// — under every placement policy, since with one device placement has
/// nothing to decide. Repeated unit-configuration runs pin the executor's
/// determinism and guard the planner against perturbing the sequential
/// path.
#[test]
fn unit_dag_config_is_bit_identical_to_oracle() {
    for b in openarc::suite::all(Scale::default()) {
        let (oracle, oracle_events) = verify_run(&b, 1, 1);
        for placement in [Placement::RoundRobin, Placement::Eft] {
            let (dag, dag_events) = placed_run(&b, 1, 1, placement);
            let ctx = format!("dagJobs=1 devices=1 placement={}", placement.as_str());
            assert_observables_identical(b.name, &ctx, &oracle, &dag);
            assert_eq!(
                oracle.machine.clock.now().to_bits(),
                dag.machine.clock.now().to_bits(),
                "{}: clock now ({ctx})",
                b.name
            );
            for cat in Category::ALL.iter() {
                assert_eq!(
                    oracle.machine.clock.breakdown.get(*cat).to_bits(),
                    dag.machine.clock.breakdown.get(*cat).to_bits(),
                    "{}: breakdown {cat:?} ({ctx})",
                    b.name
                );
            }
            assert_eq!(
                oracle_events, dag_events,
                "{}: journal event streams differ ({ctx})",
                b.name
            );
            // Every launch landed on the primary device.
            for e in &dag_events {
                if let EventKind::KernelLaunch { dev, .. } = &e.kind {
                    assert_eq!(*dev, 0, "{}: launch off primary device ({ctx})", b.name);
                }
            }
        }
    }
}

/// Widening the in-flight window, adding devices, and switching placement
/// policies must not change any verification observable on any benchmark:
/// the full `placement ∈ {roundrobin, eft} × dagJobs ∈ {1,4} ×
/// devices ∈ {1,2}` matrix agrees with the sequential oracle bit-for-bit
/// on verdicts, reports and counters.
#[test]
fn dag_matrix_matches_oracle_observables_on_every_benchmark() {
    for b in openarc::suite::all(Scale::default()) {
        let (oracle, _) = verify_run(&b, 1, 1);
        assert!(
            oracle.verify.iter().all(|k| !k.flagged()),
            "{}: oracle flags a healthy program",
            b.name
        );
        for placement in [Placement::RoundRobin, Placement::Eft] {
            for dag_jobs in [1usize, 4] {
                for devices in [1usize, 2] {
                    if dag_jobs == 1 && devices == 1 && placement == Placement::RoundRobin {
                        continue;
                    }
                    let (r, _) = placed_run(&b, dag_jobs, devices, placement);
                    let ctx = format!(
                        "dagJobs={dag_jobs} devices={devices} placement={}",
                        placement.as_str()
                    );
                    assert_observables_identical(b.name, &ctx, &oracle, &r);
                }
            }
        }
    }
}

/// With two devices and a widened window, at least one benchmark in the
/// suite schedules two kernels on *distinct* devices whose device-queue
/// spans overlap on the simulated timeline — the concurrency the DAG
/// executor exists to expose. Checked for both static planners.
#[test]
fn some_benchmark_overlaps_kernels_across_devices() {
    for placement in [Placement::RoundRobin, Placement::Eft] {
        let mut overlapped = Vec::new();
        for b in openarc::suite::all(Scale::default()) {
            let (_, events) = placed_run(&b, 4, 2, placement);
            // Kernel execution spans per device queue.
            let spans: Vec<(u32, f64, f64)> = events
                .iter()
                .filter_map(|e| match (&e.kind, &e.track) {
                    (EventKind::KernelComplete { .. }, Track::Queue { dev, .. }) => {
                        Some((*dev, e.ts_us, e.ts_us + e.dur_us))
                    }
                    _ => None,
                })
                .collect();
            let used_second_device = spans.iter().any(|(d, _, _)| *d != 0);
            let has_cross_device_overlap = spans.iter().enumerate().any(|(i, a)| {
                spans[i + 1..]
                    .iter()
                    .any(|b| a.0 != b.0 && a.1 < b.2 && b.1 < a.2)
            });
            if used_second_device && has_cross_device_overlap {
                overlapped.push(b.name);
            }
        }
        assert!(
            !overlapped.is_empty(),
            "no benchmark overlapped kernels across devices (placement={})",
            placement.as_str()
        );
    }
}

/// At `dagJobs=4, devices=2`, EFT placement never lengthens the device
/// makespan — the bottleneck device's `busy_us` in the journal summary,
/// i.e. its total queue-span time — or the end-to-end simulated time against round-robin on any
/// benchmark, and it cuts the device makespan by ≥15 % on at least three.
/// Both are simulated-clock facts, so they repeat exactly. The 1 %
/// allowance covers first-touch allocation when a balanced plan mirrors a
/// variable onto the second device.
#[test]
fn eft_never_lengthens_device_makespan_and_cuts_it_on_three_benchmarks() {
    let device_makespan = |events: &[TraceEvent]| {
        openarc::trace::summarize(events)
            .devices
            .iter()
            .map(|d| d.busy_us)
            .fold(0.0, f64::max)
    };
    let mut table = String::from("benchmark    rr dev µs   eft dev µs     cut\n");
    let mut regressed = Vec::new();
    let mut cut_15pct = 0;
    for b in openarc::suite::all(Scale::default()) {
        let (rr_run, rr_events) = placed_run(&b, 4, 2, Placement::RoundRobin);
        let (eft_run, eft_events) = placed_run(&b, 4, 2, Placement::Eft);
        let (rr, eft) = (device_makespan(&rr_events), device_makespan(&eft_events));
        let cut = 1.0 - eft / rr.max(1e-9);
        table += &format!(
            "{:<10} {rr:>11.1} {eft:>12.1} {:>6.1}%\n",
            b.name,
            cut * 100.0
        );
        if eft > rr * 1.01 || eft_run.sim_time_us() > rr_run.sim_time_us() * 1.01 {
            regressed.push(b.name);
        }
        if cut >= 0.15 {
            cut_15pct += 1;
        }
    }
    assert!(
        regressed.is_empty(),
        "EFT regressed against round-robin on {regressed:?}\n{table}"
    );
    assert!(
        cut_15pct >= 3,
        "EFT cut the device makespan ≥15% on {cut_15pct} benchmarks, need 3\n{table}"
    );
}
