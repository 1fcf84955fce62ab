//! What the `openarc` binary answers for a fixed set of command lines is
//! pinned against committed values in `tests/golden/cli.tsv`.
//!
//! One row per command line, run in a fresh process from a scratch
//! working directory (so relative paths such as `store` or `t.json` land
//! there). Columns: the row kind, the command line, the exit code, and
//! for accepted lines the FNV-1a 64 digest of stdout:
//! - `ok`: a command line the binary accepts — `run`, `cpu`, `check`,
//!   `verify` (with and without a spec) and `demote 0` on
//!   `examples/jacobi.c` and every `tests/corpus/*.c`; `--cache-dir` /
//!   `--no-cache` before and after the file; `profile --trace-out` and
//!   `--explain`; `bench`; the `cache` subcommands on a store the rows
//!   before them populated; a small `fuzz` campaign;
//! - `file`: the digest of a file the row before it wrote;
//! - `err`: a command line the binary rejects; only the exit code is
//!   pinned, not the stderr wording.
//!
//! `profile --summary` is left out: its stage table is wall-clock.
//! `UPDATE_GOLDEN=1` rewrites the file, which is only right for a change
//! that means to change what a command line prints or exits with.

use openarc::trace::Fnv;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

const JACOBI: &str = "examples/jacobi.c";
const SPEC: &str = "relTol=1e-4,kernels=main_kernel0";

/// Every command line the golden runs, in order, as `(kind, argv)`.
/// Arguments under `examples/` or `tests/` are resolved against the
/// package root; `file` rows name the file to digest.
fn rows(root: &Path) -> Vec<(&'static str, String)> {
    let mut out: Vec<(&'static str, String)> = Vec::new();
    let mut ok = |line: String| out.push(("ok", line));

    let mut files = vec![JACOBI.to_string()];
    let mut corpus: Vec<String> = std::fs::read_dir(root.join("tests/corpus"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .map(|p| format!("tests/corpus/{}", p.file_name().unwrap().to_str().unwrap()))
        .collect();
    corpus.sort();
    files.extend(corpus);
    for f in &files {
        for cmd in ["run", "cpu", "check", "verify"] {
            ok(format!("{cmd} {f}"));
        }
        ok(format!("verify {f} {SPEC}"));
        ok(format!("demote {f} 0"));
    }

    // The cache flags before and after the file, with a store of their
    // own (the second `--cache-dir` run answers from disk).
    for cmd in ["run", "cpu", "check", "verify"] {
        ok(format!("{cmd} --no-cache {JACOBI}"));
        ok(format!("{cmd} {JACOBI} --no-cache"));
        ok(format!("{cmd} --cache-dir pipe {JACOBI}"));
        ok(format!("{cmd} {JACOBI} --cache-dir pipe"));
    }
    ok(format!("verify {JACOBI} {SPEC} --cache-dir pipe"));
    ok(format!("verify --no-cache {JACOBI} {SPEC}"));

    ok(format!("profile {JACOBI} --trace-out t.json"));
    out.push(("file", "t.json".to_string()));
    let mut ok = |line: String| out.push(("ok", line));
    ok(format!("profile {JACOBI} --explain a"));
    ok(format!("profile --no-cache {JACOBI} --explain a"));
    ok(format!("profile {JACOBI} --explain a --cache-dir pipe"));
    ok(format!(
        "profile --cache-dir pipe {JACOBI} --verify --explain a"
    ));

    ok("bench --scale small --no-cache".to_string());
    ok("bench --no-cache --scale small".to_string());

    ok(format!("run {JACOBI} --cache-dir store"));
    ok(format!("check --cache-dir store {JACOBI}"));
    ok("cache stats --cache-dir store".to_string());
    ok("cache --cache-dir store stats".to_string());
    ok("cache stats --json --cache-dir store".to_string());
    ok("cache stats".to_string());
    ok("cache gc --max-bytes 0 --cache-dir store".to_string());
    ok(format!("run {JACOBI} --cache-dir store"));
    ok("cache clear --cache-dir store".to_string());

    ok("fuzz --seed 3 --programs 10 --report f.json".to_string());

    let mut err = |line: String| out.push(("err", line));
    err(String::new());
    err("frobnicate".to_string());
    err("dag".to_string());
    for cmd in ["run", "cpu", "check", "verify", "profile"] {
        err(format!("{cmd} {JACOBI} --bogus"));
        err(format!("{cmd} --bogus {JACOBI}"));
        err(format!("{cmd} {JACOBI} --cache-dir"));
        err(cmd.to_string());
    }
    for cmd in ["run", "cpu", "check"] {
        err(format!("{cmd} {JACOBI} extra"));
    }
    err(format!("demote {JACOBI} --bogus"));
    err(format!("demote --bogus {JACOBI} 0"));
    err("serve --bogus".to_string());
    err("serve --tcp".to_string());
    err("serve --queue x".to_string());
    err("serve --stats-interval-ms x".to_string());
    err("serve --jobs x".to_string());
    err("bench --bogus".to_string());
    err("bench --scale huge".to_string());
    err("bench --n 0".to_string());
    err("bench --n x".to_string());
    err("bench --iters".to_string());
    err("bench --jobs 4".to_string());
    err("fuzz --bogus".to_string());
    err("fuzz --seed x".to_string());
    err("fuzz --seed".to_string());
    err("fuzz --programs x".to_string());
    err("fuzz --time-budget-s x".to_string());
    err("fuzz --jobs x".to_string());
    err("fuzz --no-cache".to_string());
    err("fuzz --cache-dir x".to_string());
    err("cache".to_string());
    err("cache bogus".to_string());
    err("cache --bogus stats".to_string());
    err("cache stats --bogus".to_string());
    err("cache stats extra".to_string());
    err("cache gc".to_string());
    err("cache gc --max-bytes x".to_string());
    err("cache gc --max-bytes".to_string());
    err("cache clear extra".to_string());
    err("cache --no-cache stats".to_string());
    err("cache stats --cache-dir".to_string());
    err(format!("demote {JACOBI} --cache-dir x"));
    err(format!("demote --no-cache {JACOBI} 0"));
    err(format!("demote {JACOBI} x"));
    err(format!("demote {JACOBI} 99"));
    err(format!("demote {JACOBI}"));
    err("demote".to_string());
    err("run /nonexistent.c".to_string());
    err(format!("profile {JACOBI} {JACOBI}"));
    err(format!("profile {JACOBI} --trace-out"));
    err(format!("verify {JACOBI} dagJobs=2"));
    err(format!("verify {JACOBI} bogus=1"));
    out
}

fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", Fnv::standard().write(bytes).finish())
}

fn render(root: &Path, work: &Path) -> String {
    let mut text = String::from("# kind\tcommand line\texit\tstdout digest\n");
    for (kind, line) in rows(root) {
        if kind == "file" {
            let bytes = std::fs::read(work.join(&line)).unwrap();
            writeln!(text, "file\t{line}\t-\t{}", digest(&bytes)).unwrap();
            continue;
        }
        let argv: Vec<PathBuf> = line
            .split_whitespace()
            .map(|a| {
                if a.starts_with("examples/") || a.starts_with("tests/") {
                    root.join(a)
                } else {
                    PathBuf::from(a)
                }
            })
            .collect();
        let out = Command::new(env!("CARGO_BIN_EXE_openarc"))
            .args(&argv)
            .current_dir(work)
            .output()
            .unwrap();
        let code = out
            .status
            .code()
            .map_or_else(|| "signal".to_string(), |c| c.to_string());
        let stdout = if kind == "ok" {
            digest(&out.stdout)
        } else {
            "-".to_string()
        };
        writeln!(text, "{kind}\t{line}\t{code}\t{stdout}").unwrap();
    }
    text
}

#[test]
fn cli_golden() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let work = std::env::temp_dir().join(format!("openarc-cli-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    let text = render(root, &work);
    let _ = std::fs::remove_dir_all(&work);

    let golden = root.join("tests/golden/cli.tsv");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden, &text).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&golden).unwrap();
    let diffs: Vec<String> = want
        .lines()
        .zip(text.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("- {w}\n+ {g}"))
        .collect();
    assert!(
        diffs.is_empty() && want.lines().count() == text.lines().count(),
        "{} row(s) differ from tests/golden/cli.tsv ({} vs {} rows):\n{}",
        diffs.len(),
        want.lines().count(),
        text.lines().count(),
        diffs.join("\n")
    );
}
