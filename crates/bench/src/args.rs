//! The command-line front end shared by the `openarc` binary and the
//! `paper` bin: one argument reader, one cache rule, one session
//! constructor and one output path.
//!
//! Every command reads its arguments left to right through [`Args`]:
//! [`Args::next_arg`] yields the next argument, [`Args::value`] the value
//! after a flag and [`Args::parse`] that value parsed, and
//! [`Args::positional`] files a positional argument or rejects what the
//! command does not take — an unknown flag or one positional too many —
//! the same way for every command. A command that takes the disk cache
//! opens its reader [`Args::with_cache`]: the reader then consumes
//! `--cache-dir DIR` and `--no-cache` wherever they appear, and
//! [`Args::cache_dir`] resolves them. Any other command rejects both
//! flags as unknown. [`session`] is the one place a front end builds its
//! [`Session`].
//!
//! [`main`] is the one output path of both binaries: a command answers
//! an [`Outcome`], and the driver writes it and exits. Nothing else
//! prints or exits, so a closed stdout or stderr cuts the output short
//! and changes no exit code and no file.

use crate::sweep::Sweep;
use openarc_core::pipeline::Session;
use openarc_suite::Scale;
use openarc_trace::Journal;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// The flag summary of `paper` and `openarc bench`.
pub const FLAGS_HELP: &str =
    "[--scale small|bench] [--n SIZE] [--iters COUNT] [--cache-dir DIR] [--no-cache]";

/// What a command answers: its exit code and its stdout text, or an exit
/// code and the message for stderr.
pub type Outcome<E = (i32, String)> = Result<(i32, String), E>;

/// Run `command` on the process arguments, write what it answers and exit
/// with its code. The stdout text, or an error's message as
/// `{bin}: {message}` on stderr, goes out through [`emit`]'s write.
pub fn main(bin: &str, command: impl FnOnce(&[String]) -> Outcome) -> ! {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (code, text, out): (_, _, Box<dyn Write>) = match command(&args) {
        Ok((code, text)) => (code, text, Box::new(std::io::stdout())),
        Err((code, msg)) => (code, format!("{bin}: {msg}\n"), Box::new(std::io::stderr())),
    };
    write_all(out, &text);
    std::process::exit(code)
}

/// Write `text` to stdout now. A reader that closed the pipe early
/// (`| head`) only cuts the output short.
pub fn emit(text: &str) {
    write_all(std::io::stdout(), text);
}

fn write_all(mut out: impl Write, text: &str) {
    let _ = out.write_all(text.as_bytes()).and_then(|()| out.flush());
}

/// A cursor over one command's arguments.
///
/// Errors are ready for stderr. Usage errors (a flag without its value,
/// an unknown flag, a missing or extra positional argument) end with the
/// caller's usage text; a value that does not parse does not.
#[derive(Debug)]
pub struct Args<'a> {
    cmd: &'a str,
    rest: std::slice::Iter<'a, String>,
    usage: &'a str,
    /// `Some(default root)` when the command takes the cache flags.
    cache: Option<Option<&'a str>>,
    cache_flag: Option<&'a str>,
    no_cache: bool,
}

impl<'a> Args<'a> {
    /// A reader over `args`, the arguments after the command name `cmd`.
    /// `usage` ends every usage error.
    pub fn new(cmd: &'a str, args: &'a [String], usage: &'a str) -> Args<'a> {
        Args {
            cmd,
            rest: args.iter(),
            usage,
            cache: None,
            cache_flag: None,
            no_cache: false,
        }
    }

    /// Let the command take `--cache-dir DIR` and `--no-cache`; `default`
    /// is the cache root when neither appears (`None`: cache off).
    pub fn with_cache(mut self, default: Option<&'a str>) -> Args<'a> {
        self.cache = Some(default);
        self
    }

    /// The next argument, after consuming any cache flags before it.
    pub fn next_arg(&mut self) -> Result<Option<&'a str>, String> {
        while let Some(arg) = self.rest.next() {
            match arg.as_str() {
                "--cache-dir" if self.cache.is_some() => self.cache_flag = Some(self.value(arg)?),
                "--no-cache" if self.cache.is_some() => self.no_cache = true,
                arg => return Ok(Some(arg)),
            }
        }
        Ok(None)
    }

    /// The value after `flag`.
    pub fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.rest
            .next()
            .map(String::as_str)
            .ok_or_else(|| self.error(format!("{flag} needs a value")))
    }

    /// The value after `flag`, parsed; `expects` names what it must be.
    pub fn parse<T: FromStr>(&mut self, flag: &str, expects: &str) -> Result<T, String> {
        self.value(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects {expects}"))
    }

    /// File `arg` into the first empty slot of `slots`. A flag no match
    /// arm took, or a positional argument with no slot left, is an error.
    pub fn positional(&self, arg: &'a str, slots: &mut [Option<&'a str>]) -> Result<(), String> {
        if arg.starts_with("--") {
            return Err(self.error(format!("unknown {} flag `{arg}`", self.cmd)));
        }
        let slot = slots
            .iter_mut()
            .find(|s| s.is_none())
            .ok_or_else(|| self.error(format!("unexpected argument `{arg}`")))?;
        *slot = Some(arg);
        Ok(())
    }

    /// A usage error: `msg`, then the usage text.
    pub fn error(&self, msg: impl std::fmt::Display) -> String {
        format!("{msg}\n{}", self.usage)
    }

    /// The resolved cache root: the last `--cache-dir`, else the default;
    /// `None` when `--no-cache` appeared anywhere.
    pub fn cache_dir(&self) -> Option<PathBuf> {
        if self.no_cache {
            return None;
        }
        self.cache_flag.or(self.cache.flatten()).map(PathBuf::from)
    }
}

/// A fresh [`Session`] on the disk store at `cache_dir` (none: memory
/// only), with `journal` as its stage journal.
pub fn session(cache_dir: Option<&Path>, journal: Journal) -> Session {
    let builder = Session::builder().journal(journal);
    match cache_dir {
        Some(dir) => builder.disk_cache(dir).build(),
        None => builder.build(),
    }
}

/// Parsed bench-driver arguments.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Problem scale every cell runs at.
    pub scale: Scale,
    /// Resolved disk-cache root ([`Args::cache_dir`]).
    pub cache_dir: Option<PathBuf>,
}

impl BenchArgs {
    /// Read `--scale small|bench`, `--n SIZE` and `--iters COUNT` (plus
    /// the cache flags, when `args` takes them) to the end of `args`.
    pub fn parse(mut args: Args<'_>) -> Result<BenchArgs, String> {
        let mut scale = Scale::bench();
        while let Some(a) = args.next_arg()? {
            match a {
                "--scale" => {
                    scale = match args.value(a)? {
                        "small" => Scale::default(),
                        "bench" => Scale::bench(),
                        other => {
                            return Err(format!(
                                "--scale expects 'small' or 'bench' (got '{other}')"
                            ))
                        }
                    }
                }
                "--n" => scale.n = args.parse(a, "a positive integer")?,
                "--iters" => scale.iters = args.parse(a, "a positive integer")?,
                other => args.positional(other, &mut [])?,
            }
        }
        if scale.n == 0 || scale.iters == 0 {
            return Err("--n and --iters must be positive".to_string());
        }
        Ok(BenchArgs {
            scale,
            cache_dir: args.cache_dir(),
        })
    }

    /// Fresh [`Sweep`] at this scale on a fresh [`session`].
    pub fn sweep(&self) -> Sweep {
        Sweep {
            scale: self.scale,
            session: session(self.cache_dir.as_deref(), Journal::disabled()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn bench(args: &[&str], default_cache: Option<&str>) -> Result<BenchArgs, String> {
        let args = strs(args);
        BenchArgs::parse(Args::new("bench", &args, "USAGE").with_cache(default_cache))
    }

    #[test]
    fn defaults_and_flags() {
        let a = bench(&[], None).unwrap();
        assert_eq!(
            (a.scale.n, a.scale.iters, a.cache_dir),
            (Scale::bench().n, Scale::bench().iters, None)
        );
        let a = bench(&["--scale", "small"], None).unwrap();
        assert_eq!(a.scale.n, Scale::default().n);
        // The sweep is sequential: `--jobs` is an unknown flag.
        let e = bench(&["--scale", "small", "--jobs", "4"], None).unwrap_err();
        assert_eq!(e, "unknown bench flag `--jobs`\nUSAGE");
        assert!(bench(&["--frobnicate"], None).is_err());
        assert!(bench(&["--n", "0"], None).is_err());
        assert_eq!(
            bench(&["--n", "x"], None).unwrap_err(),
            "--n expects a positive integer"
        );
        assert_eq!(
            bench(&["--iters"], None).unwrap_err(),
            "--iters needs a value\nUSAGE"
        );
    }

    #[test]
    fn cache_flags_resolve_with_default() {
        // No flags: the caller's default wins.
        let a = bench(&[], Some("target/openarc-cache")).unwrap();
        assert_eq!(a.cache_dir, Some(PathBuf::from("target/openarc-cache")));
        // Explicit dir overrides the default.
        let a = bench(&["--cache-dir", "/tmp/c"], Some("x")).unwrap();
        assert_eq!(a.cache_dir, Some(PathBuf::from("/tmp/c")));
        // --no-cache beats both, in either flag order.
        let a = bench(&["--no-cache", "--cache-dir", "/tmp/c"], Some("x")).unwrap();
        assert_eq!(a.cache_dir, None);
        let a = bench(&["--no-cache"], Some("x")).unwrap();
        assert_eq!(a.cache_dir, None);
    }

    #[test]
    fn one_rule_for_positionals_and_cache_flags() {
        let args = strs(&["--no-cache", "f.c", "spec", "--cache-dir", "d", "extra"]);
        let mut r = Args::new("verify", &args, "USAGE").with_cache(None);
        let mut slots = [None, None];
        let mut err = None;
        while let Some(a) = r.next_arg().unwrap() {
            if let Err(e) = r.positional(a, &mut slots) {
                err = Some(e);
            }
        }
        assert_eq!(slots, [Some("f.c"), Some("spec")]);
        assert_eq!(err.unwrap(), "unexpected argument `extra`\nUSAGE");
        assert_eq!(r.cache_dir(), None);
        // A command without the cache flags rejects them as unknown.
        let args = strs(&["--no-cache"]);
        let mut r = Args::new("demote", &args, "USAGE");
        let a = r.next_arg().unwrap().unwrap();
        assert_eq!(
            r.positional(a, &mut [None]).unwrap_err(),
            "unknown demote flag `--no-cache`\nUSAGE"
        );
        // A trailing `--cache-dir` needs its value.
        let args = strs(&["--cache-dir"]);
        let mut r = Args::new("run", &args, "USAGE").with_cache(None);
        assert_eq!(
            r.next_arg().unwrap_err(),
            "--cache-dir needs a value\nUSAGE"
        );
    }

    #[test]
    fn session_and_sweep_honour_the_cache_dir() {
        let dir = std::env::temp_dir().join("openarc-args-test");
        let a = bench(
            &["--cache-dir", dir.to_str().unwrap(), "--scale", "small"],
            None,
        )
        .unwrap();
        assert!(a.sweep().session.disk_cache().is_some());
        assert!(session(Some(&dir), Journal::disabled())
            .disk_cache()
            .is_some());
        let plain = bench(&["--scale", "small"], None).unwrap();
        assert!(plain.sweep().session.disk_cache().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
