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

use openarc_bench::args::{self, emit, Args, BenchArgs, Outcome, FLAGS_HELP};
use openarc_bench::{experiments, render};
use openarc_core::exec::{ExecMode, ExecOptions, VerifyOptions};
use openarc_core::faults::strip_privatization;
use openarc_core::ir::RtOp;
use openarc_core::pipeline::{PipelineError, Session};
use openarc_core::translate::TranslateOptions;
use openarc_gpusim::LaunchConfig;
use openarc_runtime::IssueKind;
use openarc_suite::{jacobi, Scale, Variant};
use openarc_trace::json::Json;

fn main() {
    args::main("paper", paper)
}

/// Each section is written to `results/` and printed as it finishes.
/// Exits `2` on a usage error or a failed `results/` write, `1` when the
/// suite diverges or an experiment fails.
fn paper(argv: &[String]) -> Outcome {
    let usage = format!("usage: paper {FLAGS_HELP}");
    let sw = BenchArgs::parse(Args::new("paper", argv, &usage).with_cache(None))
        .map_err(|e| (2, e))?
        .sweep();
    // An unwritable `results/` fails before any experiment runs.
    std::fs::create_dir_all("results").map_err(|e| (2, format!("results: {e}")))?;
    let failed = |e: String| (1, e);
    let problems = experiments::validate_suite(&sw).map_err(failed)?;
    if !problems.is_empty() {
        let list = problems.join("\n  ");
        return Err(failed(format!("suite validation failed:\n  {list}")));
    }
    let Scale { n, iters } = sw.scale;
    emit(&format!("suite validated (n={n}, iters={iters})\n\n"));
    let rows = experiments::figure1(&sw).map_err(failed)?;
    let json = experiments::rows_json(&rows, |r| r.to_json());
    section("figure1", json, render::figure1_text(&rows))?;
    let t = experiments::table2(&sw).map_err(failed)?;
    section("table2", t.to_json(), render::table2_text(&t))?;
    let rows = experiments::figure3(&sw).map_err(failed)?;
    let json = experiments::rows_json(&rows, |r| r.to_json());
    section("figure3", json, render::figure3_text(&rows))?;
    let rows = experiments::table3(&sw).map_err(failed)?;
    let json = experiments::rows_json(&rows, |r| r.to_json());
    section("table3", json, render::table3_text(&rows))?;
    let rows = experiments::figure4(&sw).map_err(failed)?;
    let json = experiments::rows_json(&rows, |r| r.to_json());
    section("figure4", json, render::figure4_text(&rows))?;
    let stats = sw.session.stats();
    emit(&format!("pipeline cache across experiments:\n{stats}\n"));
    for ablation in [ablate_check_placement, ablate_hoisting, ablate_lockstep] {
        emit(&ablation(&sw.session).map_err(|e| failed(e.to_string()))?);
    }
    Ok((0, String::new()))
}

/// Write one experiment's JSON copy to `results/<name>.json`, then print
/// its `text`.
fn section(name: &str, json: Json, text: String) -> Result<(), (i32, String)> {
    let path = format!("results/{name}.json");
    std::fs::write(&path, json.pretty()).map_err(|e| (2, format!("{path}: {e}")))?;
    emit(&format!("{text}\n"));
    Ok(())
}

/// Ablation 1: optimized vs naive check placement on the optimized JACOBI.
fn ablate_check_placement(session: &Session) -> Result<String, PipelineError> {
    let b = jacobi::benchmark(Scale::bench());
    let fe = session.frontend(b.source(Variant::Optimized))?;
    let plain = ExecOptions {
        race_detect: false,
        ..Default::default()
    };
    let tr = session.translate(&fe, &TranslateOptions::default())?;
    let baseline = session.execute(&tr, &plain)?.sim_time_us();
    let checked = ExecOptions {
        check_transfers: true,
        ..plain
    };
    let mut out = format!(
        "Ablation 1 — coherence-check placement (JACOBI, optimized variant)\n\
         {:<22}{:>14}{:>16}{:>12}\n",
        "placement", "sim_time_us", "static checks", "overhead"
    );
    for (label, optimize) in [("first-access+hoist", true), ("every-access", false)] {
        let topts = TranslateOptions {
            instrument: true,
            optimize_checks: optimize,
            ..Default::default()
        };
        let tr = session.translate(&fe, &topts)?;
        let checks = tr
            .tr
            .ops
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    RtOp::CheckRead { .. } | RtOp::CheckWrite { .. } | RtOp::ResetStatus { .. }
                )
            })
            .count();
        let r = session.execute(&tr, &checked)?;
        out.push_str(&format!(
            "{:<22}{:>14.1}{:>16}{:>11.2}%\n",
            label,
            r.sim_time_us(),
            checks,
            (r.sim_time_us() - baseline) / baseline * 100.0
        ));
    }
    out.push('\n');
    Ok(out)
}

/// Ablation 2: Listing-3 hoisting on/off → detected redundant copyouts in
/// the paper's exact Listing 3/4 scenario (kernel writes `b` each
/// iteration, only the final value is consumed).
fn ablate_hoisting(session: &Session) -> Result<String, PipelineError> {
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
    let fe = session.frontend(src)?;
    let eopts = ExecOptions {
        check_transfers: true,
        race_detect: false,
        ..Default::default()
    };
    let mut out = format!(
        "Ablation 2 — Listing-3 GPU write-check hoisting (paper's JACOBI excerpt)\n\
         {:<22}{:>22}\n",
        "hoisting", "redundant copyouts"
    );
    for (label, hoist) in [("enabled (paper)", true), ("disabled (prior art)", false)] {
        let topts = TranslateOptions {
            instrument: true,
            hoist_gpu_checks: hoist,
            ..Default::default()
        };
        let tr = session.translate(&fe, &topts)?;
        let r = session.execute(&tr, &eopts)?;
        let redundant = r.machine.report.count(IssueKind::Redundant);
        out.push_str(&format!("{:<22}{:>22}\n", label, redundant));
    }
    out.push('\n');
    Ok(out)
}

/// Ablation 3: lockstep wave width → does the injected JACOBI race
/// manifest?
fn ablate_lockstep(session: &Session) -> Result<String, PipelineError> {
    let b = jacobi::benchmark(Scale::default());
    let fe = session.frontend(b.source(Variant::Optimized))?;
    let (stripped, _) =
        strip_privatization(&fe.program).map_err(|d| PipelineError::Frontend(vec![d]))?;
    let fe = session.frontend_program(stripped, fe.sema.clone());
    let topts = TranslateOptions {
        auto_privatize: false,
        auto_reduction: false,
        ..Default::default()
    };
    let tr = session.translate(&fe, &topts)?;
    let mut out = format!(
        "Ablation 3 — lockstep wave width vs race manifestation (JACOBI, stripped clauses)\n\
         {:<22}{:>10}{:>18}\n",
        "wave width", "races", "verification FAIL"
    );
    for wave in [1u32, 4, 64, 256] {
        let eopts = ExecOptions {
            mode: ExecMode::Verify(VerifyOptions::default()),
            launch: LaunchConfig {
                wave,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = session.execute(&tr, &eopts)?;
        let flagged = r.verify.iter().any(|k| k.flagged());
        out.push_str(&format!(
            "{:<22}{:>10}{:>18}\n",
            wave,
            r.races.len(),
            flagged
        ));
    }
    Ok(out)
}
