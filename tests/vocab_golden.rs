//! Every spelling of every closed name set the public API reads is pinned
//! against committed values in `tests/golden/vocab.tsv`.
//!
//! One row per spelling, for:
//! - `intrinsic`: the 21 built-in call names and four near misses. Each
//!   row gives `sema::is_intrinsic`, the `Intrinsic::from_name` code and
//!   arity, the frontend verdict (and call type) at 1, 2 and 3 `double`
//!   arguments, and, for each math intrinsic, the `cpu` report digest of
//!   one program calling it with `int` and one with `double` arguments;
//! - `clause`: every data-clause spelling `parse_directive` accepts, and
//!   two it does not;
//! - `reduction`: every `ReductionOp::from_symbol` spelling and two near
//!   misses;
//! - `action` and `error_kind`: every wire name and two near misses, with
//!   what `Request::from_json` answers for the action;
//! - `fingerprint`: `fingerprint_program` of every suite variant.
//!
//! `UPDATE_GOLDEN=1` rewrites the file, which is only right for a change
//! that means to change what a spelling parses to.

use openarc::core::api::{self, Action, ErrorKind, Request};
use openarc::core::pipeline::Session;
use openarc::minic::sema::is_intrinsic;
use openarc::minic::{fingerprint_program, frontend, parse, Span, StmtKind};
use openarc::openacc::{parse_directive, Directive, ReductionOp};
use openarc::suite::{all, Scale, Variant};
use openarc::trace::json::Json;
use openarc::vm::Intrinsic;
use std::fmt::Write as _;
use std::path::Path;

const INTRINSIC_NAMES: [&str; 25] = [
    "sqrt", "fabs", "exp", "log", "pow", "sin", "cos", "floor", "ceil", "fmin", "fmax", "abs",
    "min", "max", "malloc", "free", "sqrtf", "expf", "fabsf", "logf", "powf", "sqrtl", "fabsl",
    "Sqrt", "round",
];

const CLAUSE_NAMES: [&str; 16] = [
    "copy",
    "copyin",
    "copyout",
    "create",
    "present",
    "present_or_copy",
    "present_or_copyin",
    "present_or_copyout",
    "present_or_create",
    "deviceptr",
    "pcopy",
    "pcopyin",
    "pcopyout",
    "pcreate",
    "pcopy_in",
    "COPY",
];

const REDUCTION_SYMBOLS: [&str; 11] = [
    "+", "*", "max", "min", "&", "|", "^", "&&", "||", "-", "max_",
];

const ACTION_NAMES: [&str; 7] = ["run", "cpu", "check", "verify", "profile", "Run", "stats"];

const ERROR_KIND_NAMES: [&str; 8] = [
    "bad_request",
    "program",
    "execution",
    "overloaded",
    "deadline_exceeded",
    "internal",
    "Run",
    "stats",
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn or_none<T: ToString>(v: Option<T>) -> String {
    v.map_or_else(|| "none".to_string(), |v| v.to_string())
}

/// What the frontend says about `r = name(args);`: `ok <call type>`, or
/// every diagnostic message.
fn frontend_verdict(name: &str, args: &str) -> String {
    let src = format!("double r;\nvoid main() {{ r = {name}({args}); }}\n");
    match frontend(&src) {
        Ok((program, sema)) => {
            let main = program.func("main").expect("main");
            let StmtKind::Assign { value, .. } = &main.body.stmts[0].kind else {
                panic!("not an assignment");
            };
            format!("ok {}", or_none(sema.expr_ty.get(&value.id)))
        }
        Err(diags) => {
            let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
            format!("error {}", messages.join(" | "))
        }
    }
}

/// Exit code and report digest of `openarc cpu` on a program calling
/// `name` twice with the given argument lists, each result divided by 4
/// so an integer result type shows.
fn cpu_digest(name: &str, args: [&str; 2]) -> String {
    let src = format!(
        "double r;\ndouble s;\nvoid main() {{ r = {name}({}) / 4; s = {name}({}) / 4; }}\n",
        args[0], args[1]
    );
    let resp = api::handle(&Session::builder().build(), &Request::new(Action::Cpu, src))
        .unwrap_or_else(|e| panic!("cpu {name}: {}", e.message));
    format!("{}:{:016x}", resp.exit_code, fnv1a(resp.report.as_bytes()))
}

fn intrinsic_row(name: &str) -> String {
    let intr = Intrinsic::from_name(name);
    let code = intr.map(|i| Intrinsic::ALL.iter().position(|x| *x == i).expect("in ALL"));
    let verdicts: Vec<String> = ["1.5", "1.5, 2.5", "1.5, 2.5, 3.5"]
        .iter()
        .map(|args| frontend_verdict(name, args))
        .collect();
    let (int_run, double_run) = match intr.map(Intrinsic::arity) {
        Some(1) => (
            cpu_digest(name, ["7", "-3"]),
            cpu_digest(name, ["2.5", "-1.5"]),
        ),
        Some(_) => (
            cpu_digest(name, ["7, -3", "-3, 7"]),
            cpu_digest(name, ["2.5, -1.5", "-1.5, 2.5"]),
        ),
        None => ("-".to_string(), "-".to_string()),
    };
    format!(
        "intrinsic\t{name}\t{}\t{}\t{}\t{}\t{int_run}\t{double_run}",
        is_intrinsic(name),
        or_none(code),
        or_none(intr.map(Intrinsic::arity)),
        verdicts.join("\t"),
    )
}

fn clause_row(name: &str) -> String {
    let parsed = match parse_directive(&format!("acc data {name}(a)"), Span::default()) {
        Ok(Some(Directive::Data(d))) => d.clauses.first().map(|c| c.kind.name()),
        _ => None,
    };
    format!("clause\t{name}\t{}", or_none(parsed))
}

fn reduction_row(symbol: &str) -> String {
    let op = ReductionOp::from_symbol(symbol);
    let code = op.map(|o| {
        ReductionOp::ALL
            .iter()
            .position(|x| *x == o)
            .expect("in ALL")
    });
    format!(
        "reduction\t{symbol}\t{}\t{}",
        or_none(op.map(ReductionOp::symbol)),
        or_none(code)
    )
}

fn action_row(name: &str) -> String {
    let wire = Json::obj(vec![
        ("action", Json::from(name)),
        ("source", Json::from("")),
    ]);
    let decoded = match Request::from_json(&wire) {
        Ok(req) => format!("ok {}", req.action.as_str()),
        Err(e) => format!("{} {}", e.kind.as_str(), e.message),
    };
    format!(
        "action\t{name}\t{}\t{decoded}",
        or_none(Action::from_wire(name).map(Action::as_str))
    )
}

fn error_kind_row(name: &str) -> String {
    format!(
        "error_kind\t{name}\t{}",
        or_none(ErrorKind::from_wire(name).map(ErrorKind::as_str))
    )
}

#[test]
fn vocabulary_lookups_match_golden() {
    let mut table = String::from("# kind\tspelling\tcolumns…\n");
    let rows = INTRINSIC_NAMES
        .iter()
        .map(|n| intrinsic_row(n))
        .chain(CLAUSE_NAMES.iter().map(|n| clause_row(n)))
        .chain(REDUCTION_SYMBOLS.iter().map(|s| reduction_row(s)))
        .chain(ACTION_NAMES.iter().map(|n| action_row(n)))
        .chain(ERROR_KIND_NAMES.iter().map(|n| error_kind_row(n)));
    for row in rows {
        writeln!(table, "{row}").unwrap();
    }
    for b in all(Scale::default()) {
        for v in Variant::ALL {
            let program = parse(b.source(v)).expect("suite programs parse");
            writeln!(
                table,
                "fingerprint\t{}:{}\t{:016x}",
                b.name,
                v.name(),
                fingerprint_program(&program)
            )
            .unwrap();
        }
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/vocab.tsv");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &table).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    for (got, want) in table.lines().zip(golden.lines()) {
        assert_eq!(got, want, "a vocabulary lookup moved");
    }
    assert_eq!(table.lines().count(), golden.lines().count());
}
