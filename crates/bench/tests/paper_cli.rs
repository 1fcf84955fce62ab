//! What the `paper` binary prints and writes at `--scale small` is pinned
//! against committed values: its exit code, and the size and FNV-1a 64
//! digest (`Fnv::standard`) of its stdout and of each `results/*.json`.
//! Each case runs the binary in a fresh process from a scratch working
//! directory, so `results/` lands there.

use openarc_trace::Fnv;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The five JSON copies `paper` writes: file, bytes, digest.
const RESULTS: [(&str, usize, &str); 5] = [
    ("figure1.json", 2602, "3ce5d4e8c3db4dcf"),
    ("table2.json", 2321, "4ddeb82f2a673e33"),
    ("figure3.json", 5874, "c321b55ec99be16c"),
    ("table3.json", 1673, "b2e9142d93af7096"),
    ("figure4.json", 1736, "c800fabe52cee1ca"),
];

fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", Fnv::standard().write(bytes).finish())
}

/// An empty scratch working directory named after one test.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("openarc-paper-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn paper(work: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_paper"));
    cmd.current_dir(work);
    cmd
}

#[test]
fn small_scale_stdout_and_results_are_pinned() {
    let work = workdir("pinned");
    let out = paper(&work)
        .args(["--scale", "small", "--no-cache"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(
        (out.stdout.len(), digest(&out.stdout).as_str()),
        (6920, "30b61cdbeaa01d90"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    for (name, len, want) in RESULTS {
        let bytes = std::fs::read(work.join("results").join(name)).unwrap();
        assert_eq!(
            (bytes.len(), digest(&bytes).as_str()),
            (len, want),
            "{name}"
        );
    }
    let _ = std::fs::remove_dir_all(&work);
}

/// A stream whose reader is gone: every write to it fails.
fn closed() -> std::io::PipeWriter {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    writer
}

#[test]
fn a_closed_stdout_keeps_the_exit_code_and_the_results() {
    let work = workdir("closed-stdout");
    let out = paper(&work)
        .args(["--scale", "small", "--no-cache"])
        .stdout(closed())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    for (name, ..) in RESULTS {
        assert!(work.join("results").join(name).is_file(), "{name}");
    }
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn a_usage_error_into_a_closed_stderr_still_exits_2() {
    let work = workdir("closed-stderr");
    let out = paper(&work)
        .arg("--bogus")
        .stderr(closed())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn an_unwritable_results_dir_is_an_error() {
    let work = workdir("results-file");
    std::fs::write(work.join("results"), "not a directory").unwrap();
    let out = paper(&work)
        .args(["--scale", "small", "--no-cache"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The same code `openarc fuzz` exits with for an unwritable --report.
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("results"), "{stderr}");
    // `results/` is made before any work: nothing ran, nothing printed.
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_dir_all(&work);
}
