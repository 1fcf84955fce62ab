//! Regenerate the whole evaluation section in one run: suite validation,
//! Figure 1, Table 2, Figure 3, Table 3 and Figure 4 (each also written
//! to `results/<name>.json`), then the ablation studies. The five
//! experiments share one [`openarc_bench::sweep::Sweep`], so every
//! translation and cacheable run is compiled/executed once no matter how
//! many figures touch it.
//!
//! The ablations cover the design choices DESIGN.md calls out, at fixed
//! scales independent of the command-line flags:
//!
//! 1. **Check placement** — the §III-B first-access/last-write placement
//!    vs. naive per-access checking: instrumentation cost.
//! 2. **Listing-3 GPU-check hoisting** — with vs. without: how many
//!    per-iteration redundant copyouts the tool can detect ("optimizing
//!    GPU-coherence-check placement allows us to detect additional
//!    redundant transfers, which was not possible in the previous
//!    schemes").
//! 3. **Lockstep execution width** — the simulator's wave-based lockstep
//!    vs. one-thread-at-a-time execution: whether injected races manifest
//!    at all (why the substrate design makes Table 2 reproducible).

use openarc_bench::args::BenchArgs;
use openarc_bench::{experiments, render};
use openarc_core::exec::{execute, ExecMode, ExecOptions, VerifyOptions};
use openarc_core::faults::strip_privatization;
use openarc_core::translate::{translate, TranslateOptions};
use openarc_gpusim::LaunchConfig;
use openarc_runtime::IssueKind;
use openarc_suite::{jacobi, Scale, Variant};
use openarc_trace::json::Json;

fn main() {
    let sw = BenchArgs::from_env("paper").sweep();
    let problems = exit_on_error(experiments::validate_suite(&sw));
    if !problems.is_empty() {
        eprintln!("paper: suite validation failed:");
        for p in &problems {
            eprintln!("  {p}");
        }
        std::process::exit(1);
    }
    println!(
        "suite validated (n={}, iters={})\n",
        sw.scale.n, sw.scale.iters
    );
    let rows = exit_on_error(experiments::figure1(&sw));
    println!("{}", render::figure1_text(&rows));
    write_result("figure1", experiments::rows_json(&rows, |r| r.to_json()));
    let t = exit_on_error(experiments::table2(&sw));
    println!("{}", render::table2_text(&t));
    write_result("table2", t.to_json());
    let rows = exit_on_error(experiments::figure3(&sw));
    println!("{}", render::figure3_text(&rows));
    write_result("figure3", experiments::rows_json(&rows, |r| r.to_json()));
    let rows = exit_on_error(experiments::table3(&sw));
    println!("{}", render::table3_text(&rows));
    write_result("table3", experiments::rows_json(&rows, |r| r.to_json()));
    let rows = exit_on_error(experiments::figure4(&sw));
    println!("{}", render::figure4_text(&rows));
    write_result("figure4", experiments::rows_json(&rows, |r| r.to_json()));
    println!("pipeline cache across experiments:\n{}", sw.session.stats());

    ablate_check_placement();
    ablate_hoisting();
    ablate_lockstep();
}

/// Unwrap an experiment result, printing the error to stderr and exiting
/// with status `1` on failure.
fn exit_on_error<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("paper: {e}");
        std::process::exit(1);
    })
}

/// Best-effort JSON copy of one experiment at `results/<name>.json`.
fn write_result(name: &str, json: Json) {
    std::fs::create_dir_all("results").ok();
    std::fs::write(format!("results/{name}.json"), json.pretty()).ok();
}

/// Ablation 1: optimized vs naive check placement on the optimized JACOBI.
fn ablate_check_placement() {
    println!("Ablation 1 — coherence-check placement (JACOBI, optimized variant)");
    let baseline = {
        let b = jacobi::benchmark(Scale::bench());
        let (p, s) = openarc_minic::frontend(b.source(Variant::Optimized)).unwrap();
        let tr = translate(&p, &s, &TranslateOptions::default()).unwrap();
        execute(
            &tr,
            &ExecOptions {
                race_detect: false,
                ..Default::default()
            },
        )
        .unwrap()
        .sim_time_us()
    };
    println!(
        "{:<22}{:>14}{:>16}{:>12}",
        "placement", "sim_time_us", "static checks", "overhead"
    );
    for (label, optimize) in [("first-access+hoist", true), ("every-access", false)] {
        let b = jacobi::benchmark(Scale::bench());
        let (p, s) = openarc_minic::frontend(b.source(Variant::Optimized)).unwrap();
        let topts = TranslateOptions {
            instrument: true,
            optimize_checks: optimize,
            ..Default::default()
        };
        let tr = translate(&p, &s, &topts).unwrap();
        let checks = tr
            .ops
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    openarc_core::ir::RtOp::CheckRead { .. }
                        | openarc_core::ir::RtOp::CheckWrite { .. }
                        | openarc_core::ir::RtOp::ResetStatus { .. }
                )
            })
            .count();
        let r = execute(
            &tr,
            &ExecOptions {
                check_transfers: true,
                race_detect: false,
                ..Default::default()
            },
        )
        .unwrap();
        println!(
            "{:<22}{:>14.1}{:>16}{:>11.2}%",
            label,
            r.sim_time_us(),
            checks,
            (r.sim_time_us() - baseline) / baseline * 100.0
        );
    }
    println!();
}

/// Ablation 2: Listing-3 hoisting on/off → detected redundant copyouts in
/// the paper's exact Listing 3/4 scenario (kernel writes `b` each
/// iteration, only the final value is consumed).
fn ablate_hoisting() {
    println!("Ablation 2 — Listing-3 GPU write-check hoisting (paper's JACOBI excerpt)");
    println!("{:<22}{:>22}", "hoisting", "redundant copyouts");
    let src = r#"
double a[64];
double b[64];
double out;
void main() {
    int k; int j;
    for (j = 0; j < 64; j++) { a[j] = 1.0; }
    #pragma acc data copyin(a) create(b)
    {
        for (k = 0; k < 8; k++) {
            #pragma acc kernels loop gang
            for (j = 0; j < 64; j++) { b[j] = a[j] + (double) k; }
            #pragma acc update host(b)
        }
    }
    out = b[0];
}
"#;
    for (label, hoist) in [("enabled (paper)", true), ("disabled (prior art)", false)] {
        let (p, s) = openarc_minic::frontend(src).unwrap();
        let topts = TranslateOptions {
            instrument: true,
            hoist_gpu_checks: hoist,
            ..Default::default()
        };
        let tr = translate(&p, &s, &topts).unwrap();
        let r = execute(
            &tr,
            &ExecOptions {
                check_transfers: true,
                race_detect: false,
                ..Default::default()
            },
        )
        .unwrap();
        let redundant = r.machine.report.count(IssueKind::Redundant);
        println!("{:<22}{:>22}", label, redundant);
    }
    println!();
}

/// Ablation 3: lockstep wave width → does the injected JACOBI race
/// manifest?
fn ablate_lockstep() {
    println!("Ablation 3 — lockstep wave width vs race manifestation (JACOBI, stripped clauses)");
    println!(
        "{:<22}{:>10}{:>18}",
        "wave width", "races", "verification FAIL"
    );
    let b = jacobi::benchmark(Scale::default());
    let (p, s) = openarc_minic::frontend(b.source(Variant::Optimized)).unwrap();
    let (stripped, _) = strip_privatization(&p).unwrap();
    let topts = TranslateOptions {
        auto_privatize: false,
        auto_reduction: false,
        ..Default::default()
    };
    for wave in [1u32, 4, 64, 256] {
        let tr = translate(&stripped, &s, &topts).unwrap();
        let r = execute(
            &tr,
            &ExecOptions {
                mode: ExecMode::Verify(VerifyOptions::default()),
                launch: LaunchConfig {
                    wave,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        let flagged = r.verify.iter().any(|k| k.flagged());
        println!("{:<22}{:>10}{:>18}", wave, r.races.len(), flagged);
    }
}
