//! Integration tests of the `openarc` command-line driver.

use std::io::Write;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_openarc"))
}

fn write_temp(name: &str, src: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("openarc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(src.as_bytes()).unwrap();
    path
}

const SAXPY: &str = r#"
double x[32];
double y[32];
void main() {
    int j;
    for (j = 0; j < 32; j++) { x[j] = 1.0; y[j] = (double) j; }
    #pragma acc kernels loop gang worker
    for (j = 0; j < 32; j++) { y[j] = 2.0 * x[j] + y[j]; }
}
"#;

#[test]
fn run_prints_outputs_and_stats() {
    let path = write_temp("saxpy.c", SAXPY);
    let out = bin().arg("run").arg(&path).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("kernel launches   : 1"), "{text}");
    assert!(text.contains("y "), "{text}");
    assert!(text.contains("2.000000, 3.000000"), "{text}");
}

#[test]
fn cpu_mode_produces_same_values_without_transfers() {
    let path = write_temp("saxpy_cpu.c", SAXPY);
    let out = bin().arg("cpu").arg(&path).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("transfers         : 0 ops"), "{text}");
    assert!(text.contains("2.000000, 3.000000"), "{text}");
}

#[test]
fn verify_reports_per_kernel_and_exit_codes() {
    let path = write_temp("saxpy_v.c", SAXPY);
    let out = bin()
        .arg("verify")
        .arg(&path)
        .arg("complement=0,kernels=main_kernel0")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("main_kernel0"), "{text}");
    assert!(text.contains(" ok"), "{text}");
}

#[test]
fn check_flags_missing_transfer_with_exit_1() {
    let src = r#"
double q[16];
double w[16];
double out;
void main() {
    int j;
    for (j = 0; j < 16; j++) { w[j] = 3.0; }
    #pragma acc data copyin(w) create(q)
    {
        #pragma acc kernels loop gang
        for (j = 0; j < 16; j++) { q[j] = w[j]; }
    }
    out = q[0];
}
"#;
    let path = write_temp("leaky.c", src);
    let out = bin().arg("check").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("memory transfer is missing"), "{text}");
}

#[test]
fn check_clean_program_exits_0() {
    let path = write_temp("saxpy_chk.c", SAXPY);
    let out = bin().arg("check").arg(&path).output().unwrap();
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn demote_prints_listing2_transform() {
    let path = write_temp("saxpy_dem.c", SAXPY);
    let out = bin().arg("demote").arg(&path).arg("0").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("async(1)"), "{text}");
    assert!(text.contains("copy(y)"), "{text}");
    assert!(text.contains("acc wait(1)"), "{text}");
}

#[test]
fn bad_source_reports_diagnostic() {
    let path = write_temp("bad.c", "void main() { undeclared = 1; }");
    let out = bin().arg("run").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("undeclared"), "{text}");
}

#[test]
fn unknown_command_shows_usage() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("usage:"), "{text}");
}

#[test]
fn verify_rejects_the_removed_dagjobs_and_placement_keys() {
    let path = write_temp("saxpy_removed_keys.c", SAXPY);
    for (spec, key) in [
        ("dagJobs=4", "dagJobs"),
        ("devices=2,placement=eft", "placement"),
    ] {
        let out = bin().arg("verify").arg(&path).arg(spec).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{spec}: {out:?}");
        let text = String::from_utf8(out.stderr).unwrap();
        assert!(text.contains(&format!("unknown key `{key}`")), "{text}");
    }
    // Two devices alone is still a verify spec.
    let out = bin()
        .arg("verify")
        .arg(&path)
        .arg("devices=2")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn dag_is_an_unknown_command() {
    let path = write_temp("saxpy_dag.c", SAXPY);
    let out = bin().arg("dag").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("unknown command `dag`"), "{text}");
    assert!(!text.contains("dag <file.c>"), "{text}");
}

#[test]
fn bench_rejects_the_removed_jobs_flag() {
    // Rejected, not silently ignored: the matrix runs in order on one thread.
    let out = bin()
        .args(["bench", "--scale", "small", "--no-cache", "--jobs", "4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("unknown bench flag `--jobs`"), "{text}");
    assert!(text.contains("bench [flags]"), "{text}");
}

#[test]
fn every_command_rejects_an_extra_positional_argument() {
    let path = write_temp("saxpy_extra.c", SAXPY);
    let path = path.to_str().unwrap();
    for argv in [
        vec!["run", path, "extra"],
        vec!["verify", path, "relTol=1e-6", "extra"],
        vec!["demote", path, "0", "extra"],
        vec!["profile", path, "extra"],
    ] {
        let out = bin().args(&argv).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{argv:?}: {out:?}");
        let text = String::from_utf8(out.stderr).unwrap();
        assert!(text.contains("unexpected argument `extra`"), "{text}");
    }
}

#[test]
fn help_keeps_the_indentation_of_its_continuation_and_flag_lines() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let verify = lines.iter().position(|l| l.starts_with("verify ")).unwrap();
    assert!(
        lines[verify + 1].starts_with("                           syntax"),
        "{text}"
    );
    assert!(text.contains("\n  --trace-out <path>"), "{text}");
    assert!(text.contains("\n  --seed <N>"), "{text}");
    // The footer names every command that takes the cache flags.
    assert!(
        text.contains("run/cpu/check/verify/profile take --cache-dir"),
        "{text}"
    );
}

#[test]
fn closed_pipes_cut_the_output_short_and_keep_code_and_files() {
    let dir = std::env::temp_dir().join(format!("openarc-closed-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let jacobi = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/jacobi.c");
    // (command line, the stream closed before it runs, exit code); every
    // line runs from `dir`.
    let table = [
        ("help".to_string(), "stdout", 0),
        (format!("profile {jacobi} --summary"), "stdout", 0),
        (format!("profile {jacobi} --explain a"), "stdout", 0),
        (format!("profile {jacobi} --trace-out t.json"), "stdout", 0),
        ("bench --scale small --no-cache".to_string(), "stdout", 0),
        (format!("run {jacobi} --cache-dir store"), "stdout", 0),
        ("cache stats --cache-dir store".to_string(), "stdout", 0),
        ("cache clear --cache-dir store".to_string(), "stdout", 0),
        (
            "fuzz --seed 3 --programs 3 --report f.json".to_string(),
            "stdout",
            0,
        ),
        (format!("run {jacobi}"), "stdout", 0),
        (format!("demote {jacobi} 0"), "stdout", 0),
        ("run /nonexistent.c".to_string(), "stderr", 2),
    ];
    for (line, stream, code) in &table {
        let (reader, writer) = std::io::pipe().unwrap();
        // No reader: every write to the pipe fails with a broken pipe.
        drop(reader);
        let mut cmd = bin();
        cmd.args(line.split_whitespace()).current_dir(&dir);
        match *stream {
            "stdout" => cmd.stdout(writer),
            _ => cmd.stderr(writer),
        };
        let out = cmd.output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{line}: {err}");
        assert_eq!(out.status.code(), Some(*code), "{line}: {err}");
    }
    for file in ["t.json", "f.json"] {
        assert!(dir.join(file).is_file(), "{file} was not written");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_fails_fast_on_an_unwritable_report() {
    let dir = std::env::temp_dir().join(format!("openarc-fuzz-report-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("afile"), "a regular file").unwrap();
    // A campaign this long runs for minutes; the report's directory is
    // checked before it starts.
    let start = std::time::Instant::now();
    let out = bin()
        .args(["fuzz", "--seed", "1", "--programs", "50000"])
        .args(["--report", "afile/x.json"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let elapsed = start.elapsed();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("afile"), "{err}");
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        elapsed.as_secs() < 10,
        "took {elapsed:?}: the campaign ran first"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = bin()
        .arg("run")
        .arg("/nonexistent/nope.c")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn demote_out_of_range_kernel_is_an_error() {
    let path = write_temp("saxpy_oor.c", SAXPY);
    let out = bin().arg("demote").arg(&path).arg("99").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("out of range"), "{text}");
}

// ------------------------------------------------------------- profile

/// JACOBI-style loop with a per-sweep redundant `update device`, so the
/// profile journal contains transfer findings to explain.
const REDUNDANT_UPDATE: &str = r#"
double a[16];
double out;
void main() {
    int j; int k;
    for (j = 0; j < 16; j++) { a[j] = 1.0; }
    #pragma acc data copyin(a)
    {
        for (k = 0; k < 3; k++) {
            #pragma acc update device(a)
            #pragma acc kernels loop gang worker
            for (j = 0; j < 16; j++) { a[j] = a[j] + 1.0; }
            #pragma acc update host(a)
        }
    }
    out = a[0];
}
"#;

#[test]
fn profile_prints_summary_by_default() {
    let path = write_temp("prof_sum.c", SAXPY);
    let out = bin().arg("profile").arg(&path).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("host time by category"), "{text}");
    assert!(text.contains("Mem Transfer"), "{text}");
    assert!(text.contains("main_kernel0"), "{text}");
    assert!(text.contains("journal events"), "{text}");
}

#[test]
fn profile_trace_out_writes_chrome_json() {
    let path = write_temp("prof_trace.c", SAXPY);
    let trace = std::env::temp_dir().join("openarc-cli-tests/prof_trace.json");
    let out = bin()
        .arg("profile")
        .arg(&path)
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let json = std::fs::read_to_string(&trace).unwrap();
    assert!(json.contains("\"traceEvents\""), "{json}");
    assert!(json.contains("\"ph\": \"X\""), "{json}");
    assert!(json.contains("main_kernel0"), "{json}");
    // --trace-out alone suppresses the summary.
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(!text.contains("host time by category"), "{text}");
    assert!(text.contains("wrote"), "{text}");
}

#[test]
fn profile_explain_shows_redundant_transfer_timeline() {
    let path = write_temp("prof_expl.c", REDUNDANT_UPDATE);
    let out = bin()
        .arg("profile")
        .arg(&path)
        .arg("--explain")
        .arg("a")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("timeline for `a`"), "{text}");
    assert!(text.contains("H2D transfer"), "{text}");
    assert!(text.contains("Redundant"), "{text}");
    assert!(text.contains("notstale"), "{text}");
}

#[test]
fn profile_filter_kernel_restricts_tables() {
    let path = write_temp("prof_filt.c", REDUNDANT_UPDATE);
    let out = bin()
        .arg("profile")
        .arg(&path)
        .arg("--summary")
        .arg("--filter-kernel")
        .arg("nonexistent_kernel")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    // Category totals stay global; the kernel table is filtered empty.
    assert!(text.contains("host time by category"), "{text}");
    assert!(!text.contains("main_kernel0"), "{text}");
}

#[test]
fn profile_verify_mode_reports_verdicts() {
    let path = write_temp("prof_ver.c", SAXPY);
    let out = bin()
        .arg("profile")
        .arg(&path)
        .arg("--verify")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("1 ok"), "{text}");
}

#[test]
fn profile_unknown_flag_is_an_error() {
    let path = write_temp("prof_bad.c", SAXPY);
    let out = bin()
        .arg("profile")
        .arg(&path)
        .arg("--bogus")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("unknown profile flag"), "{text}");
}
