//! Integration tests of the persistent artifact cache across real
//! processes: a second `openarc bench` invocation over the same
//! `--cache-dir` must reload every persisted pipeline stage from disk
//! (zero frontend/translate misses), corrupted stores must recompute
//! cleanly, and concurrent writers must not corrupt each other.

use openarc::core::api::{handle, Action, Request};
use openarc::core::pipeline::{Session, Stage};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_openarc"))
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("openarc-cache-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `openarc bench --scale small --cache-dir <dir>` in a fresh process
/// and return its stdout.
fn bench(dir: &std::path::Path) -> String {
    let out = bin()
        .args(["bench", "--scale", "small", "--cache-dir"])
        .arg(dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout).unwrap()
}

/// Parse one row of the `pipeline cache:` stats table: `(hits, misses)`.
fn stage_counts(stdout: &str, label: &str) -> (u64, u64) {
    let row = stdout
        .lines()
        .skip_while(|l| !l.starts_with("pipeline cache:"))
        .find(|l| l.split_whitespace().next() == Some(label))
        .unwrap_or_else(|| panic!("no `{label}` row in:\n{stdout}"));
    let mut f = row.split_whitespace().skip(1);
    (
        f.next().unwrap().parse().unwrap(),
        f.next().unwrap().parse().unwrap(),
    )
}

/// The benchmark table (everything before `--`), for output comparison.
fn matrix_rows(stdout: &str) -> String {
    stdout
        .lines()
        .take_while(|l| *l != "--")
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn second_process_reloads_every_persisted_stage() {
    let dir = scratch("warm");
    let cold = bench(&dir);
    let warm = bench(&dir);

    // Cold process: every distinct artifact was computed and stored.
    let (_, fe_misses) = stage_counts(&cold, "frontend");
    assert!(fe_misses > 0, "cold run computed frontends:\n{cold}");
    let (disk_hits, _) = stage_counts(&cold, "disk");
    assert_eq!(disk_hits, 0, "cold run had nothing to load:\n{cold}");

    // Warm process: zero misses for the persisted stages — the acceptance
    // criterion. Frontends and translations load from disk.
    for label in ["frontend", "analysis"] {
        let (hits, misses) = stage_counts(&warm, label);
        assert_eq!(misses, 0, "warm `{label}` recomputed:\n{warm}");
        assert!(hits > 0, "warm `{label}` saw no requests:\n{warm}");
    }
    let (disk_hits, disk_misses) = stage_counts(&warm, "disk");
    assert!(disk_hits > 0, "warm run loaded nothing:\n{warm}");
    assert_eq!(disk_misses, 0, "warm run missed on disk:\n{warm}");

    // And the science is unchanged: both processes print the same matrix.
    assert_eq!(matrix_rows(&cold), matrix_rows(&warm));

    // `openarc cache stats` sees the populated store.
    let out = bin()
        .args(["cache", "stats", "--cache-dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    let total = text
        .lines()
        .find(|l| l.starts_with("total"))
        .unwrap_or_else(|| panic!("no total row:\n{text}"));
    let entries: u64 = total.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert!(entries > 0, "{text}");

    // `openarc cache clear` empties it; the next run is cold again.
    let out = bin()
        .args(["cache", "clear", "--cache-dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let recold = bench(&dir);
    let (disk_hits, _) = stage_counts(&recold, "disk");
    assert_eq!(disk_hits, 0, "cleared store still served hits:\n{recold}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_store_recomputes_without_failing() {
    let dir = scratch("corrupt");
    let cold = bench(&dir);

    // Trash every persisted entry with a rotation of failure shapes.
    let mut junked = 0;
    for stage in std::fs::read_dir(&dir).unwrap().flatten() {
        let Ok(rd) = std::fs::read_dir(stage.path()) else {
            continue;
        };
        for entry in rd.flatten() {
            let junk = ["", "{not json", "{\"schema\": 999}"][junked % 3];
            std::fs::write(entry.path(), junk).unwrap();
            junked += 1;
        }
    }
    assert!(junked > 0, "first run persisted nothing");

    // The next process must detect the corruption, recompute, and print
    // the same matrix — exit 0, no panic.
    let warm = bench(&dir);
    assert_eq!(matrix_rows(&cold), matrix_rows(&warm));
    let (disk_hits, _) = stage_counts(&warm, "disk");
    assert_eq!(disk_hits, 0, "corrupt entries served as hits:\n{warm}");
    let disk_row = warm
        .lines()
        .find(|l| l.starts_with("disk"))
        .unwrap()
        .to_string();
    let corrupt: u64 = disk_row.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(corrupt > 0, "no corruption counted: {disk_row}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn removed_export_subcommand_is_a_usage_error() {
    let out = bin()
        .args(["cache", "export", "--out", "x"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown subcommand `export`"), "{err}");
    for sub in ["cache stats", "cache gc", "cache clear"] {
        assert!(err.contains(sub), "usage lists `{sub}`:\n{err}");
    }
    assert!(!err.contains("cache export"), "{err}");
}

#[test]
fn concurrent_processes_share_one_store() {
    let dir = scratch("race");
    let spawn = || {
        bin()
            .args(["bench", "--scale", "small", "--cache-dir"])
            .arg(&dir)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap()
    };
    let (a, b) = (spawn(), spawn());
    let (a, b) = (a.wait_with_output().unwrap(), b.wait_with_output().unwrap());
    assert!(a.status.success(), "{a:?}");
    assert!(b.status.success(), "{b:?}");
    let out_a = matrix_rows(&String::from_utf8(a.stdout).unwrap());
    let out_b = matrix_rows(&String::from_utf8(b.stdout).unwrap());
    assert_eq!(out_a, out_b, "concurrent writers diverged");

    // Whatever interleaving happened, the store the two runs left behind
    // must be fully valid: a third run loads everything with zero misses.
    let warm = bench(&dir);
    let (disk_hits, disk_misses) = stage_counts(&warm, "disk");
    assert!(disk_hits > 0, "{warm}");
    assert_eq!(disk_misses, 0, "{warm}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cpu_after_verify_reads_the_verify_baseline() {
    // `verify` stores the program's `CpuOnly` run; `cpu` on the same store
    // finds that entry instead of adding a third one.
    let dir = scratch("cpu-after-verify");
    let file = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/jacobi.c");
    for cmd in ["verify", "cpu"] {
        let out = bin()
            .arg(cmd)
            .arg(&file)
            .arg("--cache-dir")
            .arg(&dir)
            .output()
            .unwrap();
        assert!(out.status.success(), "{cmd}: {out:?}");
    }
    let out = bin()
        .args(["cache", "stats", "--cache-dir"])
        .arg(&dir)
        .output()
        .unwrap();
    let stats = String::from_utf8(out.stdout).unwrap();
    let execute = stats.lines().find(|l| l.starts_with("execute")).unwrap();
    assert_eq!(execute.split_whitespace().nth(1), Some("2"), "{stats}");

    // A fresh process's `cpu` is an Execute hit on that entry.
    let session = Session::builder().disk_cache(&dir).build();
    let src = std::fs::read_to_string(&file).unwrap();
    handle(&session, &Request::new(Action::Cpu, src)).unwrap();
    let s = session.stats().get(Stage::Execute);
    assert_eq!((s.hits, s.misses), (1, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
