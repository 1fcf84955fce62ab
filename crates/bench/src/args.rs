//! Shared command-line argument parsing for the `paper` binary and the
//! `openarc bench` subcommand.
//!
//! Both take the same flags — `--scale small|bench`, `--n SIZE`,
//! `--iters COUNT` — plus the disk-cache pair `--cache-dir DIR` /
//! `--no-cache`. Parsing them once here keeps their usage strings and
//! error behaviour identical.

use crate::sweep::Sweep;
use openarc_core::pipeline::Session;
use openarc_suite::Scale;
use std::path::PathBuf;

/// The flag summary shared by every usage message.
pub const FLAGS_HELP: &str =
    "[--scale small|bench] [--n SIZE] [--iters COUNT] [--cache-dir DIR] [--no-cache]";

/// Parsed bench-driver arguments.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Problem scale every cell runs at.
    pub scale: Scale,
    /// Resolved disk-cache root: the `--cache-dir` value, else the
    /// caller's default, and `None` when `--no-cache` was given (it wins
    /// over both).
    pub cache_dir: Option<PathBuf>,
}

impl BenchArgs {
    /// Parse `args`. `default_cache` is the cache directory used when
    /// neither `--cache-dir` nor `--no-cache` appears (`None`: disk cache
    /// off by default). The error string is ready for stderr.
    pub fn parse(args: &[String], default_cache: Option<&str>) -> Result<BenchArgs, String> {
        let mut scale = Scale::bench();
        let mut cache_dir: Option<PathBuf> = None;
        let mut no_cache = false;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} expects a value"))
            };
            match a.as_str() {
                "--scale" => {
                    scale = match value("--scale")?.as_str() {
                        "small" => Scale::default(),
                        "bench" => Scale::bench(),
                        other => {
                            return Err(format!(
                                "--scale expects 'small' or 'bench' (got '{other}')"
                            ))
                        }
                    }
                }
                "--n" => {
                    scale.n = value("--n")?
                        .parse()
                        .map_err(|_| "--n expects a positive integer".to_string())?
                }
                "--iters" => {
                    scale.iters = value("--iters")?
                        .parse()
                        .map_err(|_| "--iters expects a positive integer".to_string())?
                }
                "--cache-dir" => cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
                "--no-cache" => no_cache = true,
                other => {
                    return Err(format!(
                        "unknown argument '{other}' (expected {FLAGS_HELP})"
                    ))
                }
            }
        }
        if scale.n == 0 || scale.iters == 0 {
            return Err("--n and --iters must be positive".to_string());
        }
        let cache_dir = if no_cache {
            None
        } else {
            cache_dir.or_else(|| default_cache.map(PathBuf::from))
        };
        Ok(BenchArgs { scale, cache_dir })
    }

    /// Parse a bin's process arguments (no default cache directory),
    /// printing a usage message to stderr and exiting with status `2`
    /// when they don't parse.
    pub fn from_env(bin: &str) -> BenchArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse(&args, None) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{bin}: {e}");
                eprintln!("usage: {bin} {FLAGS_HELP}");
                std::process::exit(2);
            }
        }
    }

    /// Fresh [`Session`] honouring the resolved cache directory.
    pub fn session(&self) -> Session {
        let builder = Session::builder();
        match &self.cache_dir {
            Some(dir) => builder.disk_cache(dir).build(),
            None => builder.build(),
        }
    }

    /// Fresh [`Sweep`] at this scale, backed by [`BenchArgs::session`].
    pub fn sweep(&self) -> Sweep {
        Sweep {
            scale: self.scale,
            session: self.session(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_and_flags() {
        let a = BenchArgs::parse(&[], None).unwrap();
        assert_eq!(
            (a.scale.n, a.scale.iters, a.cache_dir),
            (Scale::bench().n, Scale::bench().iters, None)
        );
        let a = BenchArgs::parse(&strs(&["--scale", "small"]), None).unwrap();
        assert_eq!(a.scale.n, Scale::default().n);
        // The sweep is sequential: `--jobs` is an unknown argument.
        let e = BenchArgs::parse(&strs(&["--scale", "small", "--jobs", "4"]), None).unwrap_err();
        assert!(e.contains("'--jobs'") && e.contains(FLAGS_HELP), "{e}");
        assert!(BenchArgs::parse(&strs(&["--frobnicate"]), None).is_err());
        assert!(BenchArgs::parse(&strs(&["--n", "0"]), None).is_err());
    }

    #[test]
    fn cache_flags_resolve_with_default() {
        // No flags: the caller's default wins.
        let a = BenchArgs::parse(&[], Some("target/openarc-cache")).unwrap();
        assert_eq!(a.cache_dir, Some(PathBuf::from("target/openarc-cache")));
        // Explicit dir overrides the default.
        let a = BenchArgs::parse(&strs(&["--cache-dir", "/tmp/c"]), Some("x")).unwrap();
        assert_eq!(a.cache_dir, Some(PathBuf::from("/tmp/c")));
        // --no-cache beats both, in either flag order.
        let a =
            BenchArgs::parse(&strs(&["--no-cache", "--cache-dir", "/tmp/c"]), Some("x")).unwrap();
        assert_eq!(a.cache_dir, None);
        let a = BenchArgs::parse(&strs(&["--no-cache"]), Some("x")).unwrap();
        assert_eq!(a.cache_dir, None);
    }

    #[test]
    fn session_and_sweep_honour_the_cache_dir() {
        let dir = std::env::temp_dir().join("openarc-args-test");
        let a = BenchArgs::parse(
            &strs(&["--cache-dir", dir.to_str().unwrap(), "--scale", "small"]),
            None,
        )
        .unwrap();
        assert!(a.session().disk_cache().is_some());
        assert!(a.sweep().session.disk_cache().is_some());
        let plain = BenchArgs::parse(&strs(&["--scale", "small"]), None).unwrap();
        assert!(plain.session().disk_cache().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
