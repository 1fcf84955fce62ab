//! Build identity: an FNV-1a hash over the `.rs` sources of every crate
//! that decides what a cached artifact means. `cache::BUILD_ID` is this
//! value; the disk cache folds it into every entry key, so an artifact
//! written by one build is never read by another.

use std::fs;
use std::path::{Path, PathBuf};

// The one FNV-1a definition, shared with the build script as source.
#[allow(dead_code)]
#[path = "../trace/src/fnv.rs"]
mod fnv;

/// The crates whose sources decide what a cached artifact means.
const CRATES: [&str; 8] = [
    "minic", "openacc", "dataflow", "vm", "gpusim", "runtime", "trace", "core",
];

/// Every `.rs` file under `dir`, recursively.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let crates = manifest.parent().expect("crates/ holds this crate");
    let mut h = fnv::Fnv::standard();
    for name in CRATES {
        let dir = crates.join(name).join("src");
        println!("cargo:rerun-if-changed={}", dir.display());
        let mut files = Vec::new();
        sources(&dir, &mut files);
        // Relative paths with `/` separators: the identity does not
        // depend on where the checkout lives or on the host's separator.
        let mut files: Vec<(String, PathBuf)> = files
            .into_iter()
            .map(|p| {
                let rel = p.strip_prefix(crates).expect("under crates/");
                let rel: Vec<_> = rel.iter().map(|c| c.to_string_lossy()).collect();
                (rel.join("/"), p)
            })
            .collect();
        files.sort();
        for (rel, path) in files {
            let text = fs::read(&path).expect("readable source file");
            h.write_str(&rel).write_u64(text.len() as u64).write(&text);
        }
    }
    let out = PathBuf::from(std::env::var("OUT_DIR").expect("set by cargo"));
    fs::write(
        out.join("build_id.rs"),
        format!(
            "/// Build identity: FNV-1a over the `.rs` sources of {}.\n\
             pub const BUILD_ID: u64 = {:#018x};\n",
            CRATES.join(", "),
            h.finish()
        ),
    )
    .expect("writable OUT_DIR");
}
