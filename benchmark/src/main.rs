//! The layered benchmark of OpenARC-rs.
//!
//! ```text
//! openarc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! openarc-benchmark all           [--seed <n>] [--seconds <s>]
//! openarc-benchmark trace         [--seed <n>]
//! openarc-benchmark selfcheck     [--seed <n>] [--seconds <s>]
//! openarc-benchmark spread        [--seed <n>] [--seconds <s>] [--runs <n>]
//! openarc-benchmark regen-expected
//! ```
//!
//! The first form is the contract of `BENCHMARK.json`: one workload in
//! this process, one JSON object as the last line of standard output.
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it makes one pass with the benchmark's own spans on,
//! runs the per-layer probes and reports the per-layer metrics. `all` and
//! `trace` run that form once per workload, each in a child process of its
//! own (so `peak_rss_mb` is per workload). See `benchmark/README.md`.

mod batch;
mod digest;
mod expected;
mod fuzz;
mod interactive;
mod layers;
mod report;
mod rng;
mod rss;
mod selfcheck;
mod serve;
mod span;
mod stats;
mod workload;

use batch::{Batch, CompileCold, DiskWarm, ExecHost, ExecVerify};
use expected::Expected;
use fuzz::FuzzSeeded;
use interactive::InteractiveLoop;
use report::{traced, untraced};
use serve::ServeClosed;
use workload::{Workload, WORKLOADS};

/// Call the generic function `$f::<W>` for the workload named `$name`.
macro_rules! for_workload {
    ($name:expr, $f:ident ( $($arg:expr),* )) => {
        match $name {
            "compile_cold" => $f::<Batch<CompileCold>>($($arg),*),
            "exec_host" => $f::<Batch<ExecHost>>($($arg),*),
            "exec_verify" => $f::<Batch<ExecVerify>>($($arg),*),
            "interactive_loop" => $f::<InteractiveLoop>($($arg),*),
            "disk_warm" => $f::<Batch<DiskWarm>>($($arg),*),
            "serve_closed" => $f::<ServeClosed>($($arg),*),
            "fuzz_seeded" => $f::<FuzzSeeded>($($arg),*),
            other => Err(format!(
                "unknown workload `{other}` (expected one of {})",
                WORKLOADS.join(", ")
            )),
        }
    };
}

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    runs: u64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        runs: 10,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value()?.to_string()),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed expects an unsigned integer".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds expects a number".to_string())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be finite and non-negative".to_string());
                }
                args.seconds = Some(s);
            }
            "--runs" => {
                args.runs = value()?
                    .parse()
                    .map_err(|_| "--runs expects an unsigned integer".to_string())?;
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            command if args.command.is_none() => args.command = Some(command.to_string()),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    Ok(args)
}

fn regen<W: Workload>() -> Result<(), String> {
    let answers = Expected::from_rows(W::known_answers()?);
    answers.save(W::NAME)?;
    println!("{}: {} known answers", W::NAME, answers.len());
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        let seconds = args.seconds.unwrap_or(report::DEFAULT_SECONDS);
        match (args.command.as_deref(), args.workload.as_deref()) {
            (None, Some(w)) if args.trace => for_workload!(w, traced(args.seed)),
            (None, Some(w)) => for_workload!(w, untraced(args.seed, seconds)),
            (Some("all"), None) => report::drive(args.seed, seconds, false),
            (Some("trace"), None) => report::drive(args.seed, seconds, true),
            (Some("selfcheck"), None) => {
                selfcheck::run(args.seed, args.seconds.unwrap_or(selfcheck::SECONDS))
            }
            (Some("spread"), None) => selfcheck::spread(args.seed, seconds, args.runs),
            (Some("regen-expected"), None) => WORKLOADS
                .iter()
                .try_for_each(|w| for_workload!(*w, regen())),
            _ => Err(
                "usage: openarc-benchmark (--workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 | all | trace | selfcheck | spread | regen-expected) [--seed <n>] [--seconds <s>] \
                 [--runs <n>]"
                    .to_string(),
            ),
        }
    });
    if let Err(e) = outcome {
        eprintln!("openarc-benchmark: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn contract_form_parses() {
        let a = parse_args(&argv(
            "--workload exec_host --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("exec_host"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(10.0), true));
        assert_eq!(a.command, None);
    }

    #[test]
    fn subcommands_and_defaults_parse() {
        let a = parse_args(&argv("all --seed 7")).unwrap();
        assert_eq!(a.command.as_deref(), Some("all"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, None, false));
        assert_eq!(parse_args(&argv("selfcheck")).unwrap().seed, 1);
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for bad in [
            "--seed",
            "--seed x",
            "--seconds -1",
            "--seconds nan",
            "--trace 2",
            "--frobnicate 1",
            "all trace",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn unknown_workloads_are_named() {
        let err = for_workload!("nope", regen()).unwrap_err();
        assert!(err.contains("nope") && err.contains("compile_cold"));
    }
}
