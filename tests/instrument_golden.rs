//! `instrument::plan` is pinned byte for byte: one FNV-1a digest per
//! (program, function, `optimize`, `hoist_gpu`) over a canonical rendering
//! of the planned `Instrumentation`, committed in
//! `tests/golden/instrument_plan.tsv`. The file was generated with the
//! string-set dataflow engine and must never need regenerating for a change
//! to the analyses' *representation* (`UPDATE_GOLDEN=1` rewrites it for a
//! change that moves a check on purpose).
//!
//! The two layer counts the benchmark reports for the compile side are
//! pinned here too, so they fail in `cargo test -q` and not only in a
//! traced benchmark run.

use openarc::core::faults::strip_privatization;
use openarc::core::instrument::{plan, Instrumentation};
use openarc::core::translate::TranslateOptions;
use openarc::dataflow::Cfg;
use openarc::minic::ast::{Func, Item, Program};
use openarc::minic::{frontend, NodeId, Sema};
use openarc::suite::{all, Scale, Variant};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The benchmark's compile scale (`benchmark/src/layers.rs`).
const COMPILE_SCALE: Scale = Scale { n: 16, iters: 2 };

fn funcs(p: &Program) -> impl Iterator<Item = &Func> {
    p.items.iter().filter_map(|it| match it {
        Item::Func(f) => Some(f),
        Item::Global(_) => None,
    })
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `before`/`after`/`hoisted_kernel_writes` keyed by ascending `NodeId`,
/// ops in `Vec` order.
fn render(ins: &Instrumentation) -> String {
    fn section<T: std::fmt::Debug>(out: &mut String, name: &str, m: &HashMap<NodeId, Vec<T>>) {
        let mut ids: Vec<&NodeId> = m.keys().collect();
        ids.sort();
        for id in ids {
            for item in &m[id] {
                writeln!(out, "{name} {id} {item:?}").unwrap();
            }
        }
    }
    let mut out = String::new();
    section(&mut out, "before", &ins.before);
    section(&mut out, "after", &ins.after);
    section(&mut out, "hoisted", &ins.hoisted_kernel_writes);
    out
}

/// Every program the golden covers, in a fixed order, with a stable label.
fn programs() -> Vec<(String, Program, Sema)> {
    let mut out = Vec::new();
    for b in all(COMPILE_SCALE) {
        for v in Variant::ALL {
            let (p, s) = frontend(b.source(v)).expect("suite source passes the frontend");
            out.push((format!("{}/{}", b.name, v.name()), p, s));
        }
    }
    for b in all(COMPILE_SCALE) {
        let (p, s) = frontend(b.source(Variant::Optimized)).expect("frontend");
        let (p, _) = strip_privatization(&p).expect("strip");
        out.push((format!("{}/stripped", b.name), p, s));
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    for f in files {
        let src = std::fs::read_to_string(&f).expect("readable corpus file");
        if let Ok((p, s)) = frontend(&src) {
            let name = f.file_name().unwrap().to_string_lossy().into_owned();
            out.push((format!("corpus/{name}"), p, s));
        }
    }
    out
}

#[test]
fn instrumentation_plan_matches_golden() {
    let mut table = String::from("# program\tfunction\toptimize\thoist_gpu\tops\tfnv1a\n");
    for (label, p, s) in programs() {
        for f in funcs(&p) {
            for (optimize, hoist) in [(false, false), (false, true), (true, false), (true, true)] {
                let ins = plan(f, &s, optimize, hoist, &Default::default())
                    .unwrap_or_else(|e| panic!("{label} {}: {e}", f.name));
                writeln!(
                    table,
                    "{label}\t{}\t{}\t{}\t{}\t{:016x}",
                    f.name,
                    u8::from(optimize),
                    u8::from(hoist),
                    ins.op_count(),
                    fnv1a(render(&ins).as_bytes())
                )
                .unwrap();
            }
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/instrument_plan.tsv");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &table).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    for (got, want) in table.lines().zip(golden.lines()) {
        assert_eq!(got, want, "instrumentation moved");
    }
    assert_eq!(table.lines().count(), golden.lines().count());
}

/// `dataflow.cfg_nodes` and `instrument.ops` of the benchmark's compile
/// sweep: 36 sources, default instrumented `TranslateOptions`.
#[test]
fn compile_scale_layer_counts_are_pinned() {
    let o = TranslateOptions {
        instrument: true,
        ..Default::default()
    };
    let (mut cfg_nodes, mut ops) = (0, 0);
    for b in all(COMPILE_SCALE) {
        for v in Variant::ALL {
            let (p, s) = frontend(b.source(v)).expect("frontend");
            for f in funcs(&p) {
                cfg_nodes += Cfg::build_typed(f, &s).expect("cfg").len();
                ops += plan(
                    f,
                    &s,
                    o.optimize_checks,
                    o.hoist_gpu_checks,
                    &o.ignored_update_stmts,
                )
                .expect("plan")
                .op_count();
            }
        }
    }
    assert_eq!(cfg_nodes, 1652, "dataflow.cfg_nodes");
    assert_eq!(ops, 369, "instrument.ops");
}
