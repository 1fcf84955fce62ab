//! Program-level tests: each `tests/programs/<area>/*.c` states the
//! verdicts it expects in its own comments, and this one harness runs it
//! through `api::handle` on a fresh `Session`, the path the CLI and
//! `openarc serve` share (DESIGN.md §22):
//!
//! ```text
//! // expect <cmd> [spec]: exit <n>       the exit code of `openarc <cmd>`
//! // expect <cmd> [spec]: <exact line>   a line of the report or error message
//! // defect: <ROADMAP item>              the expectations state the right
//!                                        verdict and must currently fail
//! ```
//!
//! `<cmd>` is `run`, `cpu`, `check` or `verify`; only `verify` takes a
//! `verificationOptions` spec. Each file is one `#[test]`, listed below.

use openarc::core::api::{handle, Action, Request};
use openarc::core::pipeline::Session;
use openarc::prelude::{execute, frontend, translate, ExecOptions, TranslateOptions};
use std::collections::BTreeMap;
use std::path::Path;

const DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/programs");

/// What one `// expect` line wants.
enum Want {
    Exit(i32),
    Line(String),
}

/// One `// expect` line: its 1-based line number, request and want.
struct Expect {
    line: usize,
    action: Action,
    spec: Option<String>,
    want: Want,
}

/// The `// expect` lines of `text` and the line of its `// defect:`
/// marker, if any.
fn parse(name: &str, text: &str) -> Result<(Vec<Expect>, Option<usize>), String> {
    let mut expects = Vec::new();
    let mut defect = None;
    for (i, raw) in text.lines().enumerate() {
        let (line, l) = (i + 1, raw.trim_start());
        if l.starts_with("// defect:") {
            defect = Some(line);
        }
        let Some(rest) = l.strip_prefix("// expect") else {
            continue;
        };
        if !(rest.is_empty() || rest.starts_with([' ', ':'])) {
            continue; // prose such as `// expected`
        }
        let malformed = || {
            format!("{name}:{line}: malformed expect line `{l}`; the forms are `// expect <cmd> [spec]: exit <n>` and `// expect <cmd> [spec]: <line>`")
        };
        let (head, tail) = rest.split_once(": ").ok_or_else(malformed)?;
        let words: Vec<&str> = head.split_whitespace().collect();
        let (cmd, spec) = match words[..] {
            [cmd] => (cmd, None),
            [cmd, spec] => (cmd, Some(spec.to_string())),
            _ => return Err(malformed()),
        };
        let action = match cmd {
            "run" => Action::Run,
            "cpu" => Action::Cpu,
            "check" => Action::Check,
            "verify" => Action::Verify,
            _ => {
                return Err(format!(
                    "{name}:{line}: unknown command `{cmd}`; it is one of run, cpu, check, verify"
                ))
            }
        };
        let tail = tail.trim_end();
        let want = match tail.strip_prefix("exit ") {
            Some(n) => Want::Exit(n.parse().map_err(|_| malformed())?),
            None => Want::Line(tail.to_string()),
        };
        if tail.is_empty() || (spec.is_some() && action != Action::Verify) {
            return Err(malformed());
        }
        expects.push(Expect {
            line,
            action,
            spec,
            want,
        });
    }
    if expects.is_empty() {
        return Err(format!("{name}:1: no `// expect` line"));
    }
    Ok((expects, defect))
}

/// Exit code and report (or error message) of one request on a fresh
/// session.
fn outcome(source: &str, action: Action, spec: &Option<String>) -> (i32, String) {
    let req = Request {
        options: spec.clone(),
        ..Request::new(action, source)
    };
    match handle(&Session::builder().build(), &req) {
        Ok(r) => (r.exit_code, r.report),
        Err(e) => (e.exit_code(), e.message),
    }
}

/// Check every expectation of the program `text`. An error names the
/// `name:line` of each expectation that fails, or of a `// defect:` marker
/// whose expectations all hold.
fn check(name: &str, text: &str) -> Result<(), String> {
    let (expects, defect) = parse(name, text)?;
    let mut outcomes = BTreeMap::new();
    let mut failures = Vec::new();
    for e in &expects {
        let key = (e.action.as_str(), e.spec.clone());
        let (code, out) = outcomes
            .entry(key)
            .or_insert_with(|| outcome(text, e.action, &e.spec));
        let (held, want) = match &e.want {
            Want::Exit(n) => (code == n, format!("exit {n}")),
            Want::Line(l) => (out.lines().any(|o| o == l), format!("the line `{l}`")),
        };
        if !held {
            let spec = e.spec.as_deref().map_or(String::new(), |s| format!(" {s}"));
            failures.push(format!(
                "{name}:{}: {}{spec} wanted {want}; got exit {code}:\n{out}",
                e.line,
                e.action.as_str()
            ));
        }
    }
    match (defect, failures.is_empty()) {
        (Some(line), true) => Err(format!(
            "{name}:{line}: every expectation holds, so the defect is mended: delete the `// defect:` marker"
        )),
        (None, false) => Err(failures.join("\n")),
        _ => Ok(()),
    }
}

fn source(path: &str) -> String {
    std::fs::read_to_string(Path::new(DIR).join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// One `#[test]` per program file, and the list the completeness test
/// compares with the directory.
macro_rules! programs {
    ($($test:ident: $path:literal,)*) => {
        const LISTED: &[&str] = &[$($path),*];
        $(#[test]
        fn $test() {
            check(concat!("tests/programs/", $path), &source($path))
                .unwrap_or_else(|e| panic!("{e}"));
        })*
    };
}

programs! {
    class_i_transfer_of_non_stale_data_flagged: "coherence/class-i-non-stale.c",
    class_iii_private_gpu_only_data_needs_no_transfer: "coherence/class-iii-gpu-only.c",
    incorrect_transfer_copies_stale_source: "coherence/incorrect-transfer.c",
    listing4_messages_defer_until_loop_finishes: "coherence/listing4-deferred.c",
    may_redundant_requires_user_judgement: "coherence/may-redundant.c",
    missing_transfer_reported_and_output_actually_wrong: "coherence/missing-transfer.c",
    data_region_if_false_disables_mapping_and_kernels_fall_back: "directives/data-if-false.c",
    declare_copyin_snapshots_entry_values_and_update_refreshes: "directives/declare-copyin-update.c",
    declare_keeps_data_resident_for_whole_run: "directives/declare-create-resident.c",
    kernel_if_false_runs_on_host: "directives/kernel-if-false.c",
    kernel_if_reevaluated_per_launch: "directives/kernel-if-per-launch.c",
    kernel_if_true_offloads: "directives/kernel-if-true.c",
    update_if_false_is_a_noop: "directives/update-if-false.c",
    assert_checksum_pragma_catches_corruption: "knowledge/assert-checksum-catches-race.c",
    assert_checksum_holds_on_a_healthy_kernel: "knowledge/assert-checksum-holds.c",
    assert_finite_and_nonnegative: "knowledge/assert-finite-nonnegative.c",
    bad_knowledge_pragma_is_a_translate_error: "knowledge/bad-bounds-pragma.c",
    bounds_pragma_absolves_in_range_divergence: "knowledge/bounds-absolves-race.c",
    verification_options_select_kernels_end_to_end: "knowledge/kernel-selection.c",
    race_is_flagged_without_bounds: "knowledge/race-flagged-without-bounds.c",
    a_nan_matches_only_a_nan: "knowledge/race-flagged-nan-reference.c",
    an_infinity_matches_only_an_equal_infinity: "knowledge/race-flagged-inf-reference.c",
    bounds_test_the_device_value_too: "knowledge/bounds-device-outside.c",
    cpu_runs_an_i64_min_global_initializer: "lowering/i64-min-global-initializer.c",
    loop_seq_on_a_compute_construct_is_refused: "lowering/loop-seq-combined.c",
    loop_seq_on_an_inner_loop_directive_is_refused: "lowering/loop-seq-inner-loop.c",
    max_reduction_below_minus_1e30: "reduction/max-float-below-1e30.c",
    min_reduction_near_5e18: "reduction/min-long-near-5e18.c",
    min_reduction_past_2_pow_53: "reduction/min-long-past-2-pow-53.c",
    int_and_double_operators_agree_with_gcc: "semantics/int-and-double-operators.c",
    async_read_before_wait_is_a_finding: "defects/async-without-wait.c",
    device_read_before_write_is_a_finding: "defects/device-memory-read.c",
}

#[test]
fn every_program_file_is_listed() {
    fn walk(dir: &Path, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|x| x == "c") {
                let rel = path.strip_prefix(DIR).unwrap();
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    let mut on_disk = Vec::new();
    walk(Path::new(DIR), &mut on_disk);
    on_disk.sort();
    let mut listed = LISTED.to_vec();
    listed.sort();
    assert_eq!(on_disk, listed, "add each new file to `programs!`");
}

/// Counts no report renders: `run` prints only the transfer total, not
/// its split into uploads and downloads, nor device allocations.
#[test]
fn transfer_directions_and_device_allocations() {
    // (file, uploads, downloads, device allocations)
    let rows = [
        ("coherence/class-iii-gpu-only.c", 1, 1, 3),
        ("directives/kernel-if-false.c", 0, 0, 0),
        ("directives/kernel-if-per-launch.c", 2, 2, 2),
        ("directives/data-if-false.c", 1, 1, 1),
        ("directives/declare-create-resident.c", 8, 4, 9),
        ("directives/declare-copyin-update.c", 5, 3, 4),
    ];
    for (path, h2d, d2h, allocs) in rows {
        let (p, sema) = frontend(&source(path)).unwrap();
        let tr = translate(&p, &sema, &TranslateOptions::default()).unwrap();
        let s = execute(&tr, &ExecOptions::default()).unwrap().machine.stats;
        assert_eq!(
            (s.h2d_count, s.d2h_count, s.dev_allocs),
            (h2d, d2h, allocs),
            "{path}"
        );
    }
}

/// An expect line states a line that appears; that the first download of
/// Listing 4 is needed is the absence of one.
#[test]
fn listing4_first_copyout_is_not_redundant() {
    let (_, report) = outcome(
        &source("coherence/listing4-deferred.c"),
        Action::Check,
        &None,
    );
    assert!(
        !report.contains("k-loop index = 1) is redundant"),
        "{report}"
    );
}

/// The harness rejects each malformed or unmet file with its `file:line`.
#[test]
fn harness_failures_name_file_and_line() {
    let prog = "int x;\nvoid main() { x = 1; }\n";
    let cases = [
        ("// expect run exit 0\n", "t.c:1: malformed"),
        ("// expect cpu verify: exit 0\n", "t.c:1: malformed"),
        ("// expect run: exit zero\n", "t.c:1: malformed"),
        ("// expect profile: exit 0\n", "t.c:1: unknown command `profile`"),
        ("// no expectation\n", "t.c:1: no `// expect` line"),
        ("// ok\n// expect run: exit 1\n", "t.c:2: run wanted exit 1; got exit 0"),
        ("// expect cpu: x = 2\n", "t.c:1: cpu wanted the line `x = 2`"),
        (
            "// defect: mended\n// expect run: exit 0\n",
            "t.c:1: every expectation holds, so the defect is mended: delete the `// defect:` marker",
        ),
    ];
    for (head, want) in cases {
        let err = check("t.c", &format!("{head}{prog}")).expect_err(head);
        assert!(err.starts_with(want), "{head:?}: {err}");
    }
    // A defect whose expectation fails, and a held expectation, both pass.
    check(
        "t.c",
        &format!("// defect: open\n// expect run: exit 1\n{prog}"),
    )
    .unwrap();
    check(
        "t.c",
        &format!("// expect cpu: x                = 1\n{prog}"),
    )
    .unwrap();
}

/// MiniC's nesting limit (DESIGN.md §7). A program nested exactly
/// `MAX_DEPTH` levels deep goes through every command on a 2 MiB thread,
/// the stack of an `openarc serve` connection, and a fresh session then
/// loads every stage's entry back from the disk cache, the deep trees
/// included. One level more, and the two 200 000-deep repros that used to
/// overflow the stack, are a frontend diagnostic with exit 2.
#[test]
fn nesting_past_max_depth_is_a_diagnostic() {
    use openarc::minic::ast::MAX_DEPTH;
    type Shape = (&'static str, fn(usize) -> String, usize);
    let in_loop = |body: String| {
        format!(
            "double a[4];\nvoid main() {{\n    int i;\n    #pragma acc parallel loop\n    \
             for (i = 0; i < 4; i++) {{ {body} }}\n}}\n"
        )
    };
    // A shape at `n` has its deepest leaf `n + offset` levels down: the
    // loop is one level, the first statement of its body two, that
    // statement's expression three, and an index in its target four.
    let shapes: [Shape; 5] = [
        (
            "parentheses",
            |n| format!("a[i] = {}1{};", "(".repeat(n), ")".repeat(n)),
            3,
        ),
        (
            "operator chain",
            |n| format!("a[i] = 1{};", " + 1".repeat(n)),
            3,
        ),
        (
            "prefix operators",
            |n| format!("a[i] = {}1;", "!".repeat(n)),
            3,
        ),
        (
            "ternary chain",
            |n| format!("a[i] = {}1;", "1 ? 1 : ".repeat(n)),
            3,
        ),
        (
            "statements",
            |n| format!("{}a[i] = 1.0;", "if (i < 4) ".repeat(n)),
            4,
        ),
    ];
    let on_small_stack = |src: String, action: Action| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || outcome(&src, action, &None))
            .unwrap()
            .join()
            .unwrap()
    };
    // `action` answered by a fresh session over the disk cache `dir`, on
    // the same stack: the outcome and the session's disk counters.
    let cached = |src: String, action: Action, dir: std::path::PathBuf| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let session = Session::builder().disk_cache(dir).build();
                let got = match handle(&session, &Request::new(action, src)) {
                    Ok(r) => (r.exit_code, r.report),
                    Err(e) => (e.exit_code(), e.message),
                };
                (got, session.stats().disk)
            })
            .unwrap()
            .join()
            .unwrap()
    };
    let refused = |(code, msg): (i32, String)| {
        code == 2 && msg.contains(&format!("nesting deeper than {MAX_DEPTH} levels"))
    };
    for (name, body, offset) in shapes {
        let at_limit = in_loop(body(MAX_DEPTH - offset));
        let dir = std::env::temp_dir().join(format!("openarc-nesting-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for action in [Action::Check, Action::Run, Action::Verify] {
            let (cold, _) = cached(at_limit.clone(), action, dir.clone());
            assert_eq!(cold.0, 0, "{name} at the limit, {action:?}: {}", cold.1);
            let (warm, disk) = cached(at_limit.clone(), action, dir.clone());
            assert_eq!(warm, cold, "{name} at the limit, {action:?}, from disk");
            assert!(
                disk.hits > 0 && disk.misses == 0 && disk.corrupt == 0,
                "{name} at the limit, {action:?}: {disk:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        let over = on_small_stack(in_loop(body(MAX_DEPTH - offset + 1)), Action::Check);
        assert!(refused(over.clone()), "{name} one level over: {over:?}");
    }
    let n = 200_000;
    for repro in [
        format!(
            "int x;\nvoid main() {{ x = {}1{}; }}\n",
            "(".repeat(n),
            ")".repeat(n)
        ),
        format!("int x;\nvoid main() {{ x = 1{}; }}\n", " + 1".repeat(n)),
    ] {
        let got = on_small_stack(repro, Action::Check);
        assert!(refused(got.clone()), "{got:?}");
    }
}
