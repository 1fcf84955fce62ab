//! Known answers: per workload and row, a result code and an FNV digest
//! of the report, committed under `benchmark/expected/` and regenerated
//! only by the `regen-expected` subcommand.
//!
//! The code is the CLI exit code for `api::handle` rows, the iteration
//! count for interactive-loop rows (Table III) and the executed-program
//! count for fuzz campaigns.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The known (or observed) answer of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Exit code / iteration count / program count.
    pub code: i64,
    /// FNV-1a digest of everything else the op reported.
    pub digest: u64,
}

/// The known answers of one workload, by row id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expected {
    rows: BTreeMap<String, Answer>,
}

/// Directory of this package (`benchmark/`), fixed at build time.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Root of the checkout the benchmark was built in.
pub fn repo_root() -> PathBuf {
    bench_dir()
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf()
}

fn file_of(workload: &str) -> PathBuf {
    bench_dir().join("expected").join(format!("{workload}.tsv"))
}

impl Expected {
    /// Build from computed answers.
    pub fn from_rows(rows: BTreeMap<String, Answer>) -> Expected {
        Expected { rows }
    }

    /// Load the committed answers of `workload`.
    pub fn load(workload: &str) -> Result<Expected, String> {
        let path = file_of(workload);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Expected::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parse the `row<TAB>code<TAB>digest` text form (`#` lines are
    /// comments).
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut rows = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("line {}: expected `row<TAB>code<TAB>digest`", n + 1);
            let mut fields = line.split('\t');
            let (Some(row), Some(code), Some(digest), None) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                return Err(bad());
            };
            let answer = Answer {
                code: code.parse().map_err(|_| bad())?,
                digest: u64::from_str_radix(digest, 16).map_err(|_| bad())?,
            };
            if rows.insert(row.to_string(), answer).is_some() {
                return Err(format!("line {}: duplicate row `{row}`", n + 1));
            }
        }
        Ok(Expected { rows })
    }

    /// The text form [`Expected::parse`] reads.
    pub fn render(&self) -> String {
        let mut out = String::from("# row\tcode\tdigest (FNV-1a 64 of the report)\n");
        for (row, a) in &self.rows {
            let _ = writeln!(out, "{row}\t{}\t{:016x}", a.code, a.digest);
        }
        out
    }

    /// Write the answers of `workload` under `benchmark/expected/`.
    pub fn save(&self, workload: &str) -> Result<(), String> {
        let path = file_of(workload);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, self.render()).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The known answer of `row`.
    pub fn get(&self, row: &str) -> Option<Answer> {
        self.rows.get(row).copied()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Flip one bit of one row's digest (test helper for the
    /// failed-op-not-crash contract). Returns the row id.
    #[cfg(test)]
    pub fn corrupt_first(&mut self) -> String {
        let (row, a) = self
            .rows
            .iter_mut()
            .next()
            .expect("non-empty expected file");
        a.digest ^= 1;
        row.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_form_round_trips() {
        let mut rows = BTreeMap::new();
        rows.insert(
            "SRAD/naive/verify".to_string(),
            Answer {
                code: 1,
                digest: 0xdead_beef,
            },
        );
        rows.insert(
            "EP/optimized/run".to_string(),
            Answer {
                code: 0,
                digest: u64::MAX,
            },
        );
        let e = Expected::from_rows(rows);
        assert_eq!(Expected::parse(&e.render()).unwrap(), e);
        assert_eq!(e.get("SRAD/naive/verify").unwrap().code, 1);
        assert_eq!(e.get("absent"), None);
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        assert!(Expected::parse("row\t0\n").is_err());
        assert!(Expected::parse("row\tx\t00\n").is_err());
        assert!(Expected::parse("row\t0\tzz\n").is_err());
        assert!(Expected::parse("row\t0\t00\textra\n").is_err());
        assert!(Expected::parse("a\t0\t00\na\t0\t00\n").is_err());
        assert_eq!(Expected::parse("# only a comment\n\n").unwrap().len(), 0);
    }
}
