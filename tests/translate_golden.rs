//! `core::translate` is pinned byte for byte: one FNV-1a digest per
//! (program, options) over everything a translation hands on — the printed
//! host and kernel programs, the OARCBIN bytes of both compiled modules,
//! and the `Debug` rendering of the runtime-op, kernel, data-region,
//! update-site and `declare` tables — committed in
//! `tests/golden/translate.tsv`. A program the translator rejects is
//! pinned by its diagnostics instead. Node ids of synthesized nodes appear
//! in none of these, so a change that only renumbers them keeps the file;
//! `UPDATE_GOLDEN=1` rewrites it for a change that moves lowering on
//! purpose.
//!
//! The same programs pin the §III-A reference contract: every `__seq_*`
//! fallback is the kernel body in a plain `__gid` loop.

use openarc::core::faults::strip_privatization;
use openarc::core::fuzz::{gen, FuzzRng};
use openarc::core::translate::{translate, TranslateOptions, Translated};
use openarc::minic::ast::{
    AssignOp, BinOp, Expr, ExprKind, Func, LValue, Program, ScalarTy, StmtKind, Ty,
};
use openarc::minic::pretty::print_block;
use openarc::minic::{frontend, print_program, Sema};
use openarc::suite::{all, Scale, Variant};
use openarc::trace::bin::Writer;
use openarc::vm::binio::write_module;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The benchmark's compile scale (`benchmark/src/layers.rs`).
const COMPILE_SCALE: Scale = Scale { n: 16, iters: 2 };
/// Seed and count of the generated programs.
const FUZZ_SEED: u64 = 42;
const FUZZ_PROGRAMS: usize = 200;

/// Hand-written programs for lowering shapes the other sources do not
/// reach: `<=` bounds, every `if(...)` site, `declare`, a `while` loop
/// around a kernel, each reduction operator, shared cells, and rejected
/// programs. `(label, privatization and recognition on, source)`.
const SHAPES: &[(&str, bool, &str)] = &[
    (
        "le-bound",
        true,
        "double a[9];\nvoid main() {\n int j;\n #pragma acc kernels loop gang\n for (j = 0; j <= 8; j++) { a[j] = 1.0; }\n}",
    ),
    (
        "collapse-le",
        true,
        "double g[4][5];\nvoid main() {\n int i; int j;\n #pragma acc parallel loop gang collapse(2)\n for (i = 1; i <= 3; i++) for (j = 0; j < 5; j++) { g[i][j] = 2.0; }\n}",
    ),
    (
        "if-sites",
        true,
        "double a[16];\nint n;\nvoid main() {\n int j; int m; double t;\n m = 8; t = 0.5;\n #pragma acc data copy(a) if(n > 4)\n {\n  #pragma acc kernels loop gang async(1) if(m > 2)\n  for (j = 0; j < m; j++) { a[j] = a[j] * t; }\n  #pragma acc wait(1)\n  #pragma acc update host(a) if(n)\n  #pragma acc update device(a) if(m)\n }\n}",
    ),
    (
        "declare-while",
        true,
        "double tab[8];\ndouble out[8];\nint k;\nvoid main() {\n int j;\n #pragma acc declare copyin(tab)\n k = 0;\n while (k < 3) {\n  #pragma acc kernels loop gang\n  for (j = 0; j < 8; j++) { out[j] = tab[j] + (double) k; }\n  k = k + 1;\n }\n}",
    ),
    (
        "reductions",
        true,
        "double a[8];\ndouble s;\ndouble p;\ndouble mx;\ndouble mn;\nint c;\nvoid main() {\n int j;\n #pragma acc kernels loop gang reduction(+:s) reduction(*:p) reduction(max:mx) reduction(min:mn)\n for (j = 0; j < 8; j++) { s += a[j]; p *= a[j]; mx = fmax(mx, a[j]); mn = fmin(mn, a[j]); }\n #pragma acc kernels loop gang\n for (j = 0; j < 8; j++) { c = c + 1; }\n}",
    ),
    (
        "shared-cells",
        false,
        "double a[8];\ndouble g;\nvoid main() {\n int j; double t;\n t = 1.0;\n #pragma acc kernels loop gang\n for (j = 0; j < 8; j++) { t = a[j]; g = t * 2.0; a[j] = g; }\n}",
    ),
    (
        "inner-private",
        true,
        "double a[8][8];\nvoid main() {\n int i; int j; double t;\n #pragma acc kernels loop gang\n for (i = 0; i < 8; i++) {\n  #pragma acc loop worker private(t)\n  for (j = 0; j < 8; j++) { t = (double) j; a[i][j] = t; }\n }\n}",
    ),
    (
        "host-data",
        true,
        "double a[4];\nvoid main() {\n #pragma acc host_data use_device(a)\n { a[0] = 1.0; }\n}",
    ),
    (
        "bad-if",
        true,
        "double a[4];\nint n;\nvoid main() {\n int j;\n #pragma acc kernels loop gang if(n >)\n for (j = 0; j < 4; j++) { a[j] = 1.0; }\n}",
    ),
    (
        "escape",
        true,
        "double a[4];\nvoid main() {\n #pragma acc data copyin(a)\n {\n  return;\n }\n}",
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One program of the golden: a stable label, the checked program, and
/// whether it is a `strip_privatization` mutant (translated with automatic
/// privatization and reduction recognition off, as the fault injection
/// runs it).
struct Case {
    label: String,
    program: Program,
    sema: Sema,
    stripped: bool,
}

/// Every program the golden covers, in a fixed order.
fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    let mut push = |label: String, program, sema, stripped| {
        out.push(Case {
            label,
            program,
            sema,
            stripped,
        })
    };
    for b in all(COMPILE_SCALE) {
        for v in Variant::ALL {
            let (p, s) = frontend(b.source(v)).expect("suite source passes the frontend");
            push(format!("{}/{}", b.name, v.name()), p, s, false);
        }
    }
    for b in all(COMPILE_SCALE) {
        let (p, s) = frontend(b.source(Variant::Optimized)).expect("frontend");
        let (p, _) = strip_privatization(&p).expect("strip");
        push(format!("{}/stripped", b.name), p, s, true);
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
            push(format!("corpus/{name}"), p, s, false);
        }
    }
    for (name, auto, src) in SHAPES {
        let (p, s) = frontend(src).expect("shape programs pass the frontend");
        push(format!("shape/{name}"), p, s, !auto);
    }
    let mut rng = FuzzRng::new(FUZZ_SEED);
    for i in 0..FUZZ_PROGRAMS {
        let src = gen::generate(&mut rng.fork());
        let (p, s) = frontend(&src).expect("generated programs pass the frontend");
        push(format!("gen/{FUZZ_SEED}/{i}"), p, s, false);
    }
    out
}

/// The three option legs, labelled: plain, instrumented, and instrumented
/// with naive check placement.
fn option_legs(stripped: bool) -> [(&'static str, TranslateOptions); 3] {
    let base = TranslateOptions {
        auto_privatize: !stripped,
        auto_reduction: !stripped,
        ..Default::default()
    };
    [
        ("plain", base.clone()),
        (
            "instrumented",
            TranslateOptions {
                instrument: true,
                ..base.clone()
            },
        ),
        (
            "instrumented-naive",
            TranslateOptions {
                instrument: true,
                optimize_checks: false,
                hoist_gpu_checks: false,
                ..base
            },
        ),
    ]
}

/// Everything a translation hands on, as bytes.
fn render(tr: &Translated) -> Vec<u8> {
    let mut out = String::new();
    out.push_str(&print_program(&tr.host_program));
    out.push('\0');
    out.push_str(&print_program(&tr.kernel_program));
    out.push('\0');
    writeln!(out, "{:?}", tr.ops).unwrap();
    writeln!(out, "{:?}", tr.kernels).unwrap();
    writeln!(out, "{:?}", tr.data_regions).unwrap();
    writeln!(out, "{:?}", tr.update_sites).unwrap();
    writeln!(out, "{:?}", tr.declares).unwrap();
    let mut w = Writer::new();
    write_module(&mut w, &tr.host_module);
    write_module(&mut w, &tr.kernel_module);
    let mut bytes = out.into_bytes();
    bytes.extend(w.into_bytes());
    bytes
}

#[test]
fn translation_matches_golden() {
    let mut table = String::from("# program\toptions\tkernels\tops\tfnv1a\n");
    for c in cases() {
        for (leg, opts) in option_legs(c.stripped) {
            let (kernels, ops, digest) = match translate(&c.program, &c.sema, &opts) {
                Ok(tr) => (
                    tr.kernels.len().to_string(),
                    tr.ops.len().to_string(),
                    fnv1a(&render(&tr)),
                ),
                Err(diags) => (
                    "err".into(),
                    "err".into(),
                    fnv1a(format!("{diags:?}").as_bytes()),
                ),
            };
            writeln!(table, "{}\t{leg}\t{kernels}\t{ops}\t{digest:016x}", c.label).unwrap();
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/translate.tsv");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &table).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    for (got, want) in table.lines().zip(golden.lines()) {
        assert_eq!(got, want, "translation moved");
    }
    assert_eq!(table.lines().count(), golden.lines().count());
}

fn func<'a>(p: &'a Program, name: &str) -> &'a Func {
    p.func(name)
        .unwrap_or_else(|| panic!("no function `{name}`"))
}

fn is_var(e: &Expr, name: &str) -> bool {
    matches!(&e.kind, ExprKind::Var(v) if v == name)
}

/// `__seq_k` is `for (__gid = 0; __gid < __n; __gid += 1) { <body of k> }`
/// with parameters `__n` followed by `k`'s parameters after `__gid`.
fn assert_seq_shares_body(label: &str, tr: &Translated) {
    for k in &tr.kernels {
        let kernel = func(&tr.kernel_program, &k.name);
        let seq = func(&tr.host_program, &k.seq_name);
        let at = format!("{label}: {}", k.seq_name);
        assert_eq!(kernel.params[0].name, "__gid", "{at}");
        assert_eq!(seq.params[0].name, "__n", "{at}");
        assert_eq!(seq.params[0].ty, Ty::Scalar(ScalarTy::Long), "{at}");
        assert_eq!(seq.params[1..], kernel.params[1..], "{at}");
        let [loop_stmt] = &seq.body.stmts[..] else {
            panic!("{at}: body is not one loop");
        };
        let StmtKind::For {
            init: Some(init),
            cond: Some(cond),
            step: Some(step),
            body,
        } = &loop_stmt.kind
        else {
            panic!("{at}: body is not a counted for loop");
        };
        assert!(
            matches!(&init.kind, StmtKind::Decl(d) if d.name == "__gid"
                && d.ty == Ty::Scalar(ScalarTy::Int)
                && matches!(d.init.as_ref().map(|e| &e.kind), Some(ExprKind::IntLit(0)))),
            "{at}: init is not `int __gid = 0`"
        );
        assert!(
            matches!(&cond.kind, ExprKind::Binary { op: BinOp::Lt, lhs, rhs }
                if is_var(lhs, "__gid") && is_var(rhs, "__n")),
            "{at}: condition is not `__gid < __n`"
        );
        assert!(
            matches!(&step.kind, StmtKind::Assign { target: LValue::Var(v), op: AssignOp::Add, value }
                if v == "__gid" && matches!(value.kind, ExprKind::IntLit(1))),
            "{at}: step is not `__gid += 1`"
        );
        let (mut want, mut got) = (String::new(), String::new());
        print_block(&mut want, &kernel.body, 0);
        print_block(&mut got, body, 0);
        assert_eq!(got, want, "{at}: loop body differs from the kernel body");
    }
}

#[test]
fn seq_fallback_is_the_kernel_body_in_a_loop() {
    let mut kernels = 0;
    for c in cases() {
        for (leg, opts) in option_legs(c.stripped) {
            if let Ok(tr) = translate(&c.program, &c.sema, &opts) {
                assert_seq_shares_body(&format!("{} {leg}", c.label), &tr);
                kernels += tr.kernels.len();
            }
        }
    }
    assert!(kernels > 0);
}
