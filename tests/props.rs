//! Property-style tests over the core data structures and invariants.
//!
//! The workspace builds offline with no external crates, so instead of a
//! property-testing framework these tests drive the same invariants with a
//! small deterministic xorshift PRNG and exhaustive grids — every run
//! checks the identical case set.

use openarc::core::fuzz::{gen, FuzzRng};
use openarc::dataflow as df;
use openarc::gpusim::DeviceId;
use openarc::minic::ast::Item;
use openarc::minic::{frontend, parse, print_program};
use openarc::openacc::{parse_directive, DataClause, DataClauseKind, Directive, LoopSpec};
use openarc::runtime::{Coherence, DevSide, Loc, PresentTable, ReadDiag, St, XferDiag};
use openarc::vm::interp::eval_bin;
use openarc::vm::{Handle, MemSpace, Value};
use openarc_minic::ast::BinOp;
use openarc_minic::ScalarTy;

/// Deterministic xorshift64* PRNG — the same sequence on every run.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform-ish i64 in `[lo, hi)`.
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    /// f64 in `[lo, hi)` with coarse granularity (still exercises signs,
    /// magnitudes and fractional parts).
    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.below(1_000_000) as f64 / 1_000_000.0)
    }
}

// ---------------------------------------------------------- minic parser

/// Generate a small well-formed expression as text.
fn gen_expr(rng: &mut Rng, depth: u32) -> String {
    let leaf = |rng: &mut Rng| match rng.below(4) {
        0 => rng.int(0, 1000).to_string(),
        1 => format!("{}.5", rng.below(100)),
        2 => "x".to_string(),
        _ => "y".to_string(),
    };
    if depth == 0 || rng.below(3) == 0 {
        return leaf(rng);
    }
    let a = gen_expr(rng, depth - 1);
    let b = gen_expr(rng, depth - 1);
    let op = ["+", "-", "*"][rng.below(3) as usize];
    format!("({a} {op} {b})")
}

/// parse ∘ print ∘ parse is the identity (up to formatting).
#[test]
fn parser_pretty_round_trip() {
    let mut rng = Rng::new(0xC0FFEE);
    for _ in 0..64 {
        let e = gen_expr(&mut rng, 3);
        let src = format!("double x;\ndouble y;\ndouble z;\nvoid main() {{ z = {e}; }}");
        let p1 = parse(&src).expect("first parse");
        let printed = print_program(&p1);
        let p2 = parse(&printed).expect("re-parse");
        assert_eq!(print_program(&p1), print_program(&p2), "{e}");
    }
}

/// VM integer arithmetic matches native Rust (wrapping semantics).
#[test]
fn vm_int_arith_matches_native() {
    let mut rng = Rng::new(1);
    let mut cases: Vec<(i64, i64)> =
        vec![(0, 0), (1, -1), (-10_000, 9_999), (9_999, -10_000), (7, 0)];
    for _ in 0..200 {
        cases.push((rng.int(-10_000, 10_000), rng.int(-10_000, 10_000)));
    }
    for (a, b) in cases {
        assert_eq!(
            eval_bin(BinOp::Add, Value::Int(a), Value::Int(b)).unwrap(),
            Value::Int(a.wrapping_add(b))
        );
        assert_eq!(
            eval_bin(BinOp::Mul, Value::Int(a), Value::Int(b)).unwrap(),
            Value::Int(a.wrapping_mul(b))
        );
        if b != 0 {
            assert_eq!(
                eval_bin(BinOp::Div, Value::Int(a), Value::Int(b)).unwrap(),
                Value::Int(a / b)
            );
        }
    }
}

/// VM double arithmetic matches native f64 bit-for-bit.
#[test]
fn vm_f64_arith_matches_native() {
    let mut rng = Rng::new(2);
    for _ in 0..200 {
        let a = rng.f64(-1e6, 1e6);
        let b = rng.f64(-1e6, 1e6);
        for (op, expect) in [
            (BinOp::Add, a + b),
            (BinOp::Sub, a - b),
            (BinOp::Mul, a * b),
        ] {
            match eval_bin(op, Value::F64(a), Value::F64(b)).unwrap() {
                Value::F64(v) => assert_eq!(v.to_bits(), expect.to_bits(), "{a} {op:?} {b}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}

/// Comparisons always yield canonical 0/1 ints.
#[test]
fn vm_comparisons_are_boolean() {
    for a in -5i64..=5 {
        for b in -5i64..=5 {
            for op in [
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::Eq,
                BinOp::Ne,
            ] {
                match eval_bin(op, Value::Int(a), Value::Int(b)).unwrap() {
                    Value::Int(v) => assert!(v == 0 || v == 1),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }
}

// ----------------------------------------------------- memory space

/// Whatever is stored is loaded back (after elem-type coercion).
#[test]
fn memspace_store_load_round_trip() {
    let mut rng = Rng::new(3);
    for len in [1usize, 2, 7, 63] {
        let vals: Vec<f64> = (0..len).map(|_| rng.f64(-1e9, 1e9)).collect();
        let mut m = MemSpace::new();
        let h = m.alloc(ScalarTy::Double, vals.len(), "buf");
        for (i, v) in vals.iter().enumerate() {
            m.store(h, i as u64, Value::F64(*v)).unwrap();
        }
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(m.load(h, i as u64).unwrap(), Value::F64(*v));
        }
        assert_eq!(m.get(h).unwrap().size_bytes(), vals.len() as u64 * 8);
    }
}

/// Byte accounting never goes negative and peak is monotone.
#[test]
fn memspace_accounting_invariants() {
    let mut rng = Rng::new(4);
    for round in 0..10 {
        let sizes: Vec<usize> = (0..(1 + round * 2))
            .map(|_| 1 + rng.below(127) as usize)
            .collect();
        let mut m = MemSpace::new();
        let mut hs = Vec::new();
        let mut peak = 0;
        for (i, len) in sizes.iter().enumerate() {
            hs.push(m.alloc(ScalarTy::Double, *len, format!("b{i}")));
            peak = peak.max(m.allocated_bytes());
            assert_eq!(m.peak_bytes(), peak);
        }
        for h in hs {
            m.free(h).unwrap();
        }
        assert_eq!(m.allocated_bytes(), 0);
        assert_eq!(m.peak_bytes(), peak);
    }
}

// ----------------------------------------------------- present table

/// Retain/release counts balance; device handle stable until drop.
#[test]
fn present_table_refcount_balance() {
    for extra in 0u32..6 {
        let mut t = PresentTable::new();
        let host = Handle(7);
        let dev = Handle(9);
        t.insert(host, dev, "a").unwrap();
        for _ in 0..extra {
            t.retain(host).unwrap();
        }
        for _ in 0..extra {
            assert_eq!(t.release(host).unwrap(), None);
            assert_eq!(t.device_of(host), Some(dev));
        }
        assert_eq!(t.release(host).unwrap(), Some(dev));
        assert!(!t.contains(host));
    }
}

// ----------------------------------------------- coherence machine

/// After any event sequence: the two copies are never both stale, a
/// transfer to a side makes reads on that side clean, and a remote write
/// makes the untouched side dirty.
#[test]
fn coherence_transfer_always_cleans() {
    let mut rng = Rng::new(5);
    for _ in 0..100 {
        let mut c = Coherence::new(true);
        let h = Handle(3);
        c.track(h, "a");
        let n_ops = rng.below(40);
        for _ in 0..n_ops {
            match rng.below(6) {
                0 => {
                    c.on_write_at(h, DevSide::Cpu.loc(), false);
                }
                1 => {
                    c.on_write_at(h, DevSide::Gpu.loc(), false);
                }
                2 => {
                    c.on_write_at(h, DevSide::Cpu.loc(), true);
                }
                3 => {
                    c.on_write_at(h, DevSide::Gpu.loc(), true);
                }
                4 => {
                    c.on_transfer_between(h, DevSide::Gpu.loc(), DevSide::Cpu.loc());
                }
                _ => {
                    c.on_transfer_between(h, DevSide::Cpu.loc(), DevSide::Gpu.loc());
                }
            }
            // Invariant: the two copies are never both stale — someone
            // holds the latest data.
            let v = c.state(h).unwrap();
            assert!(
                !(v.cpu == St::Stale && v.gpu_on(DeviceId::PRIMARY) == St::Stale),
                "both sides stale: {v:?}"
            );
        }
        // A transfer in always cleans the destination.
        c.on_transfer_between(h, DevSide::Gpu.loc(), DevSide::Cpu.loc());
        assert_eq!(c.check_read_at(h, DevSide::Cpu.loc()), ReadDiag::Ok);
        c.on_write_at(h, DevSide::Cpu.loc(), false);
        assert_eq!(c.check_read_at(h, DevSide::Gpu.loc()), ReadDiag::Missing);
    }
}

/// Tiny executable reference model of the §III-B state machine, written
/// directly from the paper's prose (not from the tracker's code): two
/// independent per-side states, writes stale the remote copy, transfers
/// clean the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ModelVar {
    cpu: St,
    gpu: St,
}

impl ModelVar {
    fn new() -> ModelVar {
        ModelVar {
            cpu: St::NotStale,
            gpu: St::NotStale,
        }
    }

    fn get(&self, side: DevSide) -> St {
        match side {
            DevSide::Cpu => self.cpu,
            DevSide::Gpu => self.gpu,
        }
    }

    fn set(&mut self, side: DevSide, st: St) {
        match side {
            DevSide::Cpu => self.cpu = st,
            DevSide::Gpu => self.gpu = st,
        }
    }

    fn check_read(&self, side: DevSide) -> ReadDiag {
        match self.get(side) {
            St::Stale => ReadDiag::Missing,
            St::MayStale => ReadDiag::MayMissing,
            St::NotStale => ReadDiag::Ok,
        }
    }

    fn on_write(&mut self, side: DevSide, total: bool) -> ReadDiag {
        let before = self.get(side);
        // Partially overwriting a stale copy means the read part of the
        // region may be outdated — the paper's may-missing case.
        let diag = if before == St::Stale && !total {
            ReadDiag::MayMissing
        } else {
            ReadDiag::Ok
        };
        let local = if total || before == St::NotStale {
            St::NotStale
        } else {
            St::MayStale
        };
        self.set(side, local);
        self.set(side.other(), St::Stale);
        diag
    }

    fn on_transfer(&mut self, dst: DevSide) -> XferDiag {
        let incorrect = match self.get(dst.other()) {
            St::Stale => Some(true),
            St::MayStale => Some(false),
            St::NotStale => None,
        };
        let redundant = match self.get(dst) {
            St::NotStale => Some(true),
            St::MayStale => Some(false),
            St::Stale => None,
        };
        self.set(dst, St::NotStale);
        XferDiag {
            incorrect,
            redundant,
        }
    }
}

fn rand_side(rng: &mut Rng) -> DevSide {
    if rng.below(2) == 0 {
        DevSide::Cpu
    } else {
        DevSide::Gpu
    }
}

fn rand_st(rng: &mut Rng) -> St {
    match rng.below(3) {
        0 => St::NotStale,
        1 => St::MayStale,
        _ => St::Stale,
    }
}

/// Drive one random op sequence through the tracker and the model in
/// lockstep, asserting every diagnosis and every visible state agrees.
fn drive_coherence_vs_model(seed: u64, ops: usize) {
    let mut rng = Rng::new(seed);
    let handles = [Handle(1), Handle(2), Handle(3)];
    let mut c = Coherence::new(true);
    // `None` = untracked: the tracker answers Ok / all-None for those, and
    // `track` only initialises state for handles it is not already holding.
    let mut model: [Option<ModelVar>; 3] = [None, None, None];

    for step in 0..ops {
        let i = rng.below(handles.len() as u64) as usize;
        let h = handles[i];
        let ctx = format!("seed={seed} step={step} h={h:?}");
        match rng.below(7) {
            0 => {
                c.track(h, "v");
                if model[i].is_none() {
                    model[i] = Some(ModelVar::new());
                }
            }
            1 => {
                c.untrack(h);
                model[i] = None;
            }
            2 => {
                let side = rand_side(&mut rng);
                let want = model[i].map_or(ReadDiag::Ok, |m| m.check_read(side));
                assert_eq!(c.check_read_at(h, side.loc()), want, "check_read {ctx}");
            }
            3 => {
                let side = rand_side(&mut rng);
                let total = rng.below(2) == 0;
                let want = model[i]
                    .as_mut()
                    .map_or(ReadDiag::Ok, |m| m.on_write(side, total));
                assert_eq!(c.on_write_at(h, side.loc(), total), want, "on_write {ctx}");
            }
            4 => {
                let dst = rand_side(&mut rng);
                let want = model[i].as_mut().map_or(
                    XferDiag {
                        incorrect: None,
                        redundant: None,
                    },
                    |m| m.on_transfer(dst),
                );
                assert_eq!(
                    c.on_transfer_between(h, dst.other().loc(), dst.loc()),
                    want,
                    "on_transfer {ctx}"
                );
            }
            5 => {
                let side = rand_side(&mut rng);
                let st = rand_st(&mut rng);
                c.reset_status_at(h, side.loc(), st);
                if let Some(m) = model[i].as_mut() {
                    m.set(side, st);
                }
            }
            _ => {
                // Pure observation: visible state must match the model.
                match (c.state(h), model[i]) {
                    (Some(v), Some(m)) => {
                        assert_eq!(v.cpu, m.cpu, "cpu state {ctx}");
                        assert_eq!(v.gpu_on(DeviceId::PRIMARY), m.gpu, "gpu state {ctx}");
                    }
                    (None, None) => {}
                    (got, want) => panic!("tracked-ness mismatch {ctx}: {got:?} vs {want:?}"),
                }
            }
        }
    }
    // Final state agreement on every handle.
    for (i, h) in handles.iter().enumerate() {
        match (c.state(*h), model[i]) {
            (Some(v), Some(m)) => {
                assert_eq!(
                    (v.cpu, v.gpu_on(DeviceId::PRIMARY)),
                    (m.cpu, m.gpu),
                    "final state seed={seed} h={h:?}"
                );
            }
            (None, None) => {}
            (got, want) => panic!("final tracked-ness seed={seed} h={h:?}: {got:?} vs {want:?}"),
        }
    }
}

/// The tracker agrees with the reference model on every diagnosis (missing,
/// may-missing, redundant, incorrect) over long random op sequences — it
/// never reports a finding the model doesn't, and never misses one the
/// model predicts. Fixed seeds keep the run deterministic; CI adds an
/// extra sequence per matrix seed through `OPENARC_PROP_SEED`.
#[test]
fn coherence_tracker_matches_reference_model() {
    for seed in [0x5EED_0001u64, 0x5EED_0002, 0x5EED_0003] {
        drive_coherence_vs_model(seed, 600);
    }
    if let Some(extra) = std::env::var("OPENARC_PROP_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        drive_coherence_vs_model(extra.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1), 600);
    }
}

// --------------------------------------- N-device coherence model

/// N-device generalisation of the §III-B reference model: one CPU copy
/// plus one copy per simulated device. A write at any location stales
/// every *other* location; a transfer between any two locations cleans
/// the destination and diagnoses against the source. Written from the
/// rules, not from the tracker's code.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ModelVarN {
    cpu: St,
    gpus: Vec<St>,
}

impl ModelVarN {
    fn new(n_devices: usize) -> ModelVarN {
        ModelVarN {
            cpu: St::NotStale,
            gpus: vec![St::NotStale; n_devices],
        }
    }

    fn at(&self, loc: Loc) -> St {
        match loc {
            Loc::Cpu => self.cpu,
            Loc::Dev(d) => self.gpus[d.0 as usize],
        }
    }

    fn set_at(&mut self, loc: Loc, st: St) {
        match loc {
            Loc::Cpu => self.cpu = st,
            Loc::Dev(d) => self.gpus[d.0 as usize] = st,
        }
    }

    fn locs(&self) -> Vec<Loc> {
        let mut out = vec![Loc::Cpu];
        out.extend((0..self.gpus.len()).map(|i| Loc::Dev(DeviceId(i as u32))));
        out
    }

    fn check_read_at(&self, loc: Loc) -> ReadDiag {
        match self.at(loc) {
            St::Stale => ReadDiag::Missing,
            St::MayStale => ReadDiag::MayMissing,
            St::NotStale => ReadDiag::Ok,
        }
    }

    fn on_write_at(&mut self, loc: Loc, total: bool) -> ReadDiag {
        let before = self.at(loc);
        let diag = if before == St::Stale && !total {
            ReadDiag::MayMissing
        } else {
            ReadDiag::Ok
        };
        let local = if total || before == St::NotStale {
            St::NotStale
        } else {
            St::MayStale
        };
        for other in self.locs() {
            if other != loc {
                self.set_at(other, St::Stale);
            }
        }
        self.set_at(loc, local);
        diag
    }

    fn on_transfer_between(&mut self, src: Loc, dst: Loc) -> XferDiag {
        let incorrect = match self.at(src) {
            St::Stale => Some(true),
            St::MayStale => Some(false),
            St::NotStale => None,
        };
        let redundant = match self.at(dst) {
            St::NotStale => Some(true),
            St::MayStale => Some(false),
            St::Stale => None,
        };
        self.set_at(dst, St::NotStale);
        XferDiag {
            incorrect,
            redundant,
        }
    }
}

fn rand_loc(rng: &mut Rng, n_devices: usize) -> Loc {
    let i = rng.below(n_devices as u64 + 1);
    if i == 0 {
        Loc::Cpu
    } else {
        Loc::Dev(DeviceId((i - 1) as u32))
    }
}

/// Drive one random op stream through an N-device tracker and the model
/// in lockstep, asserting every per-op diagnosis and the final state of
/// every handle on every location agree.
fn drive_coherence_vs_model_n(seed: u64, n_devices: usize, ops: usize) {
    let mut rng = Rng::new(seed);
    let handles = [Handle(1), Handle(2), Handle(3)];
    let mut c = Coherence::with_devices(true, n_devices);
    let mut model: [Option<ModelVarN>; 3] = [None, None, None];

    for step in 0..ops {
        let i = rng.below(handles.len() as u64) as usize;
        let h = handles[i];
        let ctx = format!("seed={seed} devices={n_devices} step={step} h={h:?}");
        match rng.below(7) {
            0 => {
                c.track(h, "v");
                if model[i].is_none() {
                    model[i] = Some(ModelVarN::new(n_devices));
                }
            }
            1 => {
                c.untrack(h);
                model[i] = None;
            }
            2 => {
                let loc = rand_loc(&mut rng, n_devices);
                let want = model[i]
                    .as_ref()
                    .map_or(ReadDiag::Ok, |m| m.check_read_at(loc));
                assert_eq!(c.check_read_at(h, loc), want, "check_read_at {ctx}");
            }
            3 => {
                let loc = rand_loc(&mut rng, n_devices);
                let total = rng.below(2) == 0;
                let want = model[i]
                    .as_mut()
                    .map_or(ReadDiag::Ok, |m| m.on_write_at(loc, total));
                assert_eq!(c.on_write_at(h, loc, total), want, "on_write_at {ctx}");
            }
            4 => {
                // Transfer between two distinct locations: host↔device or
                // device↔device.
                let src = rand_loc(&mut rng, n_devices);
                let mut dst = rand_loc(&mut rng, n_devices);
                while dst == src {
                    dst = rand_loc(&mut rng, n_devices);
                }
                let want = model[i].as_mut().map_or(
                    XferDiag {
                        incorrect: None,
                        redundant: None,
                    },
                    |m| m.on_transfer_between(src, dst),
                );
                assert_eq!(
                    c.on_transfer_between(h, src, dst),
                    want,
                    "on_transfer_between {ctx}"
                );
            }
            5 => {
                let loc = rand_loc(&mut rng, n_devices);
                let st = rand_st(&mut rng);
                c.reset_status_at(h, loc, st);
                if let Some(m) = model[i].as_mut() {
                    m.set_at(loc, st);
                }
            }
            _ => match (c.state(h), model[i].as_ref()) {
                (Some(v), Some(m)) => {
                    assert_eq!(v.cpu, m.cpu, "cpu state {ctx}");
                    assert_eq!(v.gpus(), &m.gpus[..], "gpu states {ctx}");
                }
                (None, None) => {}
                (got, want) => panic!("tracked-ness mismatch {ctx}: {got:?} vs {want:?}"),
            },
        }
    }
    for (i, h) in handles.iter().enumerate() {
        match (c.state(*h), model[i].as_ref()) {
            (Some(v), Some(m)) => {
                assert_eq!(v.cpu, m.cpu, "final cpu seed={seed} h={h:?}");
                assert_eq!(v.gpus(), &m.gpus[..], "final gpus seed={seed} h={h:?}");
            }
            (None, None) => {}
            (got, want) => panic!("final tracked-ness seed={seed} h={h:?}: {got:?} vs {want:?}"),
        }
    }
}

/// The per-device tracker agrees with the N-device reference model on
/// every diagnosis and every visible state over long random op streams,
/// for 2–4 simulated devices. The single-device case is covered by
/// [`coherence_tracker_matches_reference_model`] through the two-sided
/// wrappers, so together the two tests pin both views of the tracker.
#[test]
fn coherence_tracker_matches_reference_model_n_devices() {
    for n_devices in 2..=4 {
        for seed in [0xB0B0_0001_u64, 0xB0B0_0002, 0xB0B0_0003] {
            drive_coherence_vs_model_n(seed ^ (n_devices as u64) << 32, n_devices, 600);
        }
    }
    if let Some(extra) = std::env::var("OPENARC_PROP_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        drive_coherence_vs_model_n(extra.wrapping_mul(0x2545_F491_4F6C_DD1D).max(1), 3, 600);
    }
}

/// A disabled tracker is observably inert under any op sequence: every
/// check returns Ok / all-None and no state is ever materialised.
#[test]
fn coherence_disabled_tracker_stays_silent() {
    let mut rng = Rng::new(0xD15AB1ED);
    let mut c = Coherence::new(false);
    let h = Handle(9);
    for _ in 0..300 {
        match rng.below(6) {
            0 => c.track(h, "v"),
            1 => {
                let side = rand_side(&mut rng);
                assert_eq!(c.check_read_at(h, side.loc()), ReadDiag::Ok);
            }
            2 => {
                let side = rand_side(&mut rng);
                assert_eq!(
                    c.on_write_at(h, side.loc(), rng.below(2) == 0),
                    ReadDiag::Ok
                );
            }
            3 => {
                let dst = rand_side(&mut rng);
                let d = c.on_transfer_between(h, dst.other().loc(), dst.loc());
                assert_eq!(d.incorrect, None);
                assert_eq!(d.redundant, None);
            }
            4 => {
                let side = rand_side(&mut rng);
                let st = rand_st(&mut rng);
                c.reset_status_at(h, side.loc(), st);
            }
            _ => assert!(c.state(h).is_none()),
        }
    }
    assert!(c.state(h).is_none());
}

// ------------------------------------------------ directive parsing

/// Directive display round-trips through the parser for every clause
/// combination in the grid.
#[test]
fn directive_display_round_trip() {
    let names = ["aa", "bb", "cc"];
    for gang in [false, true] {
        for worker in [false, true] {
            for asyncq in [None, Some(0i64), Some(3), Some(7)] {
                for n_copy in 0usize..3 {
                    for n_create in 0usize..3 {
                        let mut spec = openarc::openacc::ComputeSpec {
                            combined_loop: true,
                            async_queue: asyncq,
                            loop_spec: LoopSpec {
                                gang,
                                worker,
                                ..Default::default()
                            },
                            ..Default::default()
                        };
                        if n_copy > 0 {
                            spec.data
                                .push(DataClause::of(DataClauseKind::Copy, &names[..n_copy]));
                        }
                        if n_create > 0 {
                            spec.data
                                .push(DataClause::of(DataClauseKind::Create, &names[..n_create]));
                        }
                        let d = Directive::Compute(spec);
                        let text = d.to_string();
                        let parsed = parse_directive(&text, openarc::minic::Span::dummy())
                            .expect("parse")
                            .expect("acc directive");
                        assert_eq!(d, parsed);
                    }
                }
            }
        }
    }
}

// ------------------------------------------------------ dataflow fixpoints

/// One analysis as the paper states it: direction, meet, and per node the
/// transfer `out = (in ∖ kill) ∪ gen`, written here from `Cfg::summary`
/// independently of the crate's own mask builders.
struct Equations {
    backward: bool,
    must: bool,
    gen: Vec<Vec<u64>>,
    kill: Vec<Vec<u64>>,
}

fn equations(
    g: &df::Cfg,
    backward: bool,
    must: bool,
    transfer: impl Fn(usize) -> (Vec<u64>, Vec<u64>),
) -> Equations {
    let (gen, kill) = (0..g.len()).map(transfer).unzip();
    Equations {
        backward,
        must,
        gen,
        kill,
    }
}

/// The solution satisfies its equations at every node, and it is the
/// extreme one: every variable missing from a must-fact (present in a
/// may-fact) is forced there along some path from a node that kills
/// (generates) it or from the boundary, so no fact can be raised without
/// breaking an equation.
fn assert_extreme_fixpoint(what: &str, g: &df::Cfg, sol: &df::Solution, eq: &Equations) {
    let (boundary, flows_in) = match eq.backward {
        true => (g.exit, &g.succ),
        false => (g.entry, &g.pred),
    };
    let inp = |n: usize| {
        if eq.backward {
            sol.after(n)
        } else {
            sol.before(n)
        }
    };
    let out = |n: usize| {
        if eq.backward {
            sol.before(n)
        } else {
            sol.after(n)
        }
    };
    let all = g.vars().len() as df::VarId;
    for (n, sources) in flows_in.iter().enumerate() {
        for v in 0..all {
            let mut sources = sources.iter().map(|&m| df::has(out(m), v));
            let met = match n == boundary {
                true => false,
                false if eq.must => sources.all(|x| x),
                false => sources.any(|x| x),
            };
            assert_eq!(df::has(inp(n), v), met, "{what}: meet at node {n}, {v}");
            let after = (met && !df::has(&eq.kill[n], v)) || df::has(&eq.gen[n], v);
            assert_eq!(
                df::has(out(n), v),
                after,
                "{what}: transfer at node {n}, {v}"
            );
        }
    }
    for v in 0..all {
        // A must-fact starts with `v` everywhere and loses it; a may-fact
        // starts without and gains it. `forced` is where that happens.
        let loses = |n: usize| !df::has(&eq.gen[n], v);
        let gains = |n: usize| !df::has(&eq.kill[n], v);
        let mut forced: Vec<bool> = (0..g.len())
            .map(|n| match eq.must {
                true => loses(n) && (n == boundary || df::has(&eq.kill[n], v)),
                false => df::has(&eq.gen[n], v),
            })
            .collect();
        loop {
            let mut grew = false;
            for n in (0..g.len()).filter(|&n| n != boundary) {
                let carries = if eq.must { loses(n) } else { gains(n) };
                if !forced[n] && carries && flows_in[n].iter().any(|&m| forced[m]) {
                    forced[n] = true;
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        for (n, forced) in forced.iter().enumerate() {
            assert_eq!(
                df::has(out(n), v),
                *forced != eq.must,
                "{what}: node {n} holds {v} without a path that forces it"
            );
        }
    }
}

fn or(a: &[u64], b: &[u64]) -> Vec<u64> {
    a.iter().zip(b).map(|(a, b)| a | b).collect()
}

fn minus(a: &[u64], b: &[u64]) -> Vec<u64> {
    a.iter().zip(b).map(|(a, b)| a & !b).collect()
}

fn assert_all_fixpoints(what: &str, g: &df::Cfg) {
    let everything = vec![!0u64; g.words()];
    for side in [df::Side::Host, df::Side::Gpu] {
        let s = |n: usize| g.summary(n, side);
        let is_update = |n: usize| matches!(g.nodes[n].kind, df::NodeKind::Update(_));
        let what = format!("{what} {side:?}");
        let eq = equations(g, true, false, |n| {
            (s(n).reads.to_vec(), or(s(n).kills, s(n).total_writes))
        });
        assert_extreme_fixpoint(&format!("{what} liveness"), g, &df::liveness(g, side), &eq);
        for (compute, dl) in [
            (false, df::dead_live(g, side)),
            (true, df::dead_live_compute(g, side)),
        ] {
            let none = || (vec![0; g.words()], vec![0; g.words()]);
            let live = equations(g, true, false, |n| match compute && is_update(n) {
                true => none(),
                false => (s(n).reads.to_vec(), or(s(n).kills, s(n).writes)),
            });
            let dead = equations(g, true, true, |n| match compute && is_update(n) {
                true => none(),
                false => (minus(s(n).writes, s(n).reads), or(s(n).kills, s(n).reads)),
            });
            let what = format!("{what} dead_live(compute={compute})");
            assert_extreme_fixpoint(&format!("{what} live"), g, &dl.live, &live);
            assert_extreme_fixpoint(&format!("{what} dead"), g, &dl.dead, &dead);
        }
        let accessed = |backward: bool, acc: &dyn Fn(usize) -> Vec<u64>, restart: bool| {
            equations(g, backward, true, |n| {
                let kill = match restart && g.nodes[n].is_kernel() {
                    true => everything.clone(),
                    false => s(n).kills.to_vec(),
                };
                (minus(&acc(n), s(n).kills), kill)
            })
        };
        for reset in [false, true] {
            let eq = accessed(true, &|n| s(n).writes.to_vec(), reset);
            let sol = df::last_write(g, side, reset).sol;
            assert_extreme_fixpoint(&format!("{what} last_write({reset})"), g, &sol, &eq);
        }
        for sel in [df::AccessSel::Read, df::AccessSel::Write] {
            let acc = |n: usize| match sel {
                df::AccessSel::Read => s(n).reads.to_vec(),
                df::AccessSel::Write => s(n).writes.to_vec(),
            };
            let sol = df::first_access(g, side, sel).sol;
            let eq = accessed(false, &acc, true);
            assert_extreme_fixpoint(&format!("{what} first_access({sel:?})"), g, &sol, &eq);
        }
    }
}

/// DESIGN.md §5's "dataflow lattice monotonicity/fixpoint": over generated
/// programs and a few shapes the generator avoids, every analysis returns
/// the extreme fixpoint of its own equations.
#[test]
fn dataflow_solutions_are_extreme_fixpoints() {
    let seed = std::env::var("OPENARC_PROP_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    let mut rng = FuzzRng::new(0xDF_0001 + seed);
    let mut sources: Vec<String> = (0..60).map(|_| gen::generate(&mut rng.fork())).collect();
    sources.extend(
        [
            "int a;\nint b;\nvoid main() { a = 1; return; b = a; a = b; }",
            "int a;\nint b;\nvoid main() { while (1) { a = b; if (a) { break; } b = 2; continue; a = 3; } b = a; }",
            "double *p;\ndouble a[4];\nvoid main() { p = (double *) malloc(4 * sizeof(double)); p[0] = a[1]; free(p); }",
        ]
        .map(String::from),
    );
    for src in &sources {
        let (p, s) = frontend(src).expect("frontend");
        for f in p.items.iter().filter_map(|it| match it {
            Item::Func(f) => Some(f),
            Item::Global(_) => None,
        }) {
            let g = df::Cfg::build_typed(f, &s).expect("cfg");
            assert_all_fixpoints(&format!("{src}\nfn {}", f.name), &g);
        }
    }
}
