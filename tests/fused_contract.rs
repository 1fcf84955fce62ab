//! The fused execution form (DESIGN.md §18) against the canonical
//! interpreter, on the host.
//!
//! `ThreadState::run` dispatches on a table in which a fused entry stands
//! for a stretch of canonical instructions, and runs the stretch only when
//! the slice has fuel for all of it. With fuel 1 it never can, so fuel-1
//! slices *are* the canonical interpreter. Every program this file can get
//! its hands on (the 36 suite variants and the 12 privatization-stripped
//! programs compiled untranslated, `tests/corpus`, and generated programs)
//! runs `__globals_init` and then `main` under a recording `Env` three
//! ways: in one slice, in fuel-1 slices, and in slices of seeded random
//! fuel in 1..9 that stop at every `Env` access. All three must leave the
//! same globals and memory bits, the same `steps` and result or error, and
//! the same log of `Env` calls; the two stepped ways also agree on the step
//! index of every call. (A single slice cannot tell its `Env` which step it
//! is on; its log is compared without them.)

use openarc::core::faults::strip_privatization;
use openarc::core::fuzz::{gen, FuzzRng};
use openarc::minic::{frontend, ScalarTy};
use openarc::suite::{all, Scale, Variant};
use openarc::vm::interp::BasicEnv;
use openarc::vm::{
    compile, BufData, Env, Handle, Module, Stop, ThreadState, Value, VmError, Yield, GLOBALS_INIT,
};
use std::path::PathBuf;

/// Instructions a program may execute before the run counts as endless.
const BUDGET: u64 = 2_000_000;

fn bits(v: Value) -> (u8, u64) {
    match v {
        Value::Int(x) => (0, x as u64),
        Value::F32(x) => (1, x.to_bits() as u64),
        Value::F64(x) => (2, x.to_bits()),
        Value::Ptr(h) => (3, h.0 as u64),
    }
}

/// One `Env` call: what was asked, what came back, and the 1-based step
/// index of the instruction that asked (0 in a single slice).
#[derive(Debug, Clone, PartialEq)]
struct Call {
    step: u64,
    what: String,
    answer: Result<Option<(u8, u64)>, VmError>,
}

/// `BasicEnv` with a log of every call made into it.
struct Recording {
    inner: BasicEnv,
    /// The step index the next call is made at, as the slicing loop knows it.
    step: u64,
    log: Vec<Call>,
}

impl Recording {
    fn note<T>(
        &mut self,
        what: String,
        r: Result<T, VmError>,
        v: impl Fn(&T) -> Option<Value>,
    ) -> Result<T, VmError> {
        self.log.push(Call {
            step: self.step,
            what,
            answer: r.as_ref().map(|t| v(t).map(bits)).map_err(Clone::clone),
        });
        r
    }
}

impl Env for Recording {
    fn load_global(&mut self, slot: u16) -> Result<Value, VmError> {
        let r = self.inner.load_global(slot);
        self.note(format!("load_global {slot}"), r, |v| Some(*v))
    }
    fn store_global(&mut self, slot: u16, v: Value) -> Result<(), VmError> {
        let r = self.inner.store_global(slot, v);
        self.note(format!("store_global {slot} {:?}", bits(v)), r, |_| None)
    }
    fn load_elem(&mut self, h: Handle, idx: u64) -> Result<Value, VmError> {
        let r = self.inner.load_elem(h, idx);
        self.note(format!("load_elem {h} {idx}"), r, |v| Some(*v))
    }
    fn store_elem(&mut self, h: Handle, idx: u64, v: Value) -> Result<(), VmError> {
        let r = self.inner.store_elem(h, idx, v);
        self.note(format!("store_elem {h} {idx} {:?}", bits(v)), r, |_| None)
    }
    fn malloc(&mut self, elem: ScalarTy, len: u64, label: &str) -> Result<Handle, VmError> {
        let r = self.inner.malloc(elem, len, label);
        self.note(format!("malloc {elem:?} {len} {label}"), r, |h| {
            Some(Value::Ptr(*h))
        })
    }
    fn free(&mut self, h: Handle) -> Result<(), VmError> {
        let r = self.inner.free(h);
        self.note(format!("free {h}"), r, |_| None)
    }
}

/// How a function's thread ended: its steps, and its result or error
/// (`StepLimit` past the budget).
type End = (u64, Result<Option<(u8, u64)>, VmError>);

/// How a thread is cut into slices.
#[derive(Clone, Copy, Debug)]
enum Slicing {
    Whole,
    FuelOne,
    Random(u64),
}

/// Everything a run leaves behind, floats as bit patterns.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per function run.
    ends: Vec<End>,
    globals: Vec<(u8, u64)>,
    memory: Vec<Option<(String, Vec<u64>)>>,
    log: Vec<Call>,
}

fn memory_bits(env: &BasicEnv) -> Vec<Option<(String, Vec<u64>)>> {
    env.mem
        .slots()
        .iter()
        .map(|slot| {
            slot.as_ref().map(|b| {
                let bits = match &b.data {
                    BufData::I64(v) => v.iter().map(|x| *x as u64).collect(),
                    BufData::F32(v) => v.iter().map(|x| x.to_bits() as u64).collect(),
                    BufData::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
                };
                (b.label.clone(), bits)
            })
        })
        .collect()
}

/// Run `func` to its end, a trap or past the budget, sliced as asked.
fn run_fn(m: &Module, env: &mut Recording, func: &str, how: Slicing, rng: &mut FuzzRng) -> End {
    let mut t = ThreadState::new(m, func, &[]).expect("function exists");
    let end = loop {
        let (fuel, stop) = match how {
            Slicing::Whole => (BUDGET + 1, Stop::Never),
            Slicing::FuelOne => (1, Stop::Never),
            Slicing::Random(_) => (1 + rng.below(9) as u64, Stop::EnvAccess),
        };
        // A stepped slice performs its `Env` call, if any, first.
        env.step = match how {
            Slicing::Whole => 0,
            _ => t.steps + 1,
        };
        match t.run(m, env, fuel.min(BUDGET + 1 - t.steps), stop) {
            Ok(Yield::Done) => break Ok(t.result().expect("done").map(bits)),
            Ok(_) if t.steps > BUDGET => break Err(VmError::StepLimit(BUDGET)),
            Ok(_) => {}
            Err(e) => break Err(e),
        }
    };
    (t.steps, end)
}

fn observe(m: &Module, how: Slicing) -> Observed {
    let mut rng = FuzzRng::new(match how {
        Slicing::Random(seed) => seed,
        _ => 0,
    });
    let mut env = Recording {
        inner: BasicEnv::for_module(m),
        step: 0,
        log: Vec::new(),
    };
    let mut ends = Vec::new();
    for func in [GLOBALS_INIT, "main"] {
        let end = run_fn(m, &mut env, func, how, &mut rng);
        let failed = end.1.is_err();
        ends.push(end);
        if failed {
            break;
        }
    }
    Observed {
        ends,
        globals: env.inner.globals.iter().map(|v| bits(*v)).collect(),
        memory: memory_bits(&env.inner),
        log: env.log,
    }
}

/// A program compiled untranslated: its pragmas are ignored.
fn compiled(src: &str) -> Option<Module> {
    let (p, s) = frontend(src).ok()?;
    compile(&p, &s).ok()
}

/// The three slicings of one program agree.
fn check(what: &str, m: &Module, seed: u64) {
    let canonical = observe(m, Slicing::FuelOne);
    let random = observe(m, Slicing::Random(seed));
    assert!(
        random == canonical,
        "{what}: random fuel (seed {seed}) left\n{random:?}\nfuel 1 left\n{canonical:?}"
    );
    let mut whole = observe(m, Slicing::Whole);
    for (w, c) in whole.log.iter_mut().zip(&canonical.log) {
        assert_eq!(w.step, 0);
        w.step = c.step;
    }
    assert!(
        whole == canonical,
        "{what}: one slice left\n{whole:?}\nfuel 1 left\n{canonical:?}"
    );
}

const SMALL: Scale = Scale { n: 8, iters: 1 };

#[test]
fn suite_programs_run_the_same_in_every_slicing() {
    let mut checked = 0;
    for (i, b) in all(SMALL).into_iter().enumerate() {
        for v in Variant::ALL {
            let what = format!("{} [{}]", b.name, v.name());
            let m = compiled(b.source(v)).unwrap_or_else(|| panic!("{what} compiles"));
            check(&what, &m, i as u64);
            checked += 1;
        }
        let (p, s) = frontend(b.source(Variant::Optimized)).expect("frontend");
        let (stripped, _) = strip_privatization(&p).expect("strip");
        let m = compile(&stripped, &s).expect("stripped program compiles");
        check(&format!("{} [stripped]", b.name), &m, i as u64);
        checked += 1;
    }
    assert_eq!(checked, 48);
}

#[test]
fn corpus_programs_run_the_same_in_every_slicing() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    let mut checked = 0;
    for (i, f) in files.iter().enumerate() {
        let src = std::fs::read_to_string(f).expect("readable corpus file");
        if let Some(m) = compiled(&src) {
            check(&f.display().to_string(), &m, i as u64);
            checked += 1;
        }
    }
    assert!(checked >= 6, "only {checked} corpus programs compiled");
}

fn generated_programs(seed: u64, programs: usize) {
    let mut rng = FuzzRng::new(seed);
    let mut checked = 0;
    for i in 0..programs {
        let src = gen::generate(&mut rng.fork());
        if let Some(m) = compiled(&src) {
            check(
                &format!("generated #{i} (seed {seed})"),
                &m,
                seed ^ i as u64,
            );
            checked += 1;
        }
    }
    assert_eq!(checked, programs, "every generated program compiles");
}

#[test]
fn generated_programs_run_the_same_in_every_slicing() {
    generated_programs(56, 48);
}

/// The CI-sized variant (`cargo test --release -- --ignored`).
#[test]
#[ignore = "large: run in release"]
fn generated_programs_run_the_same_in_every_slicing_large() {
    generated_programs(2014, 2000);
}
