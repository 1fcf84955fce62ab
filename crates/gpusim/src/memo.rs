//! Launch memo: simulate each (kernel, inputs) once.
//!
//! An interactive session re-runs the same program again and again with
//! only its data clauses changed, so most kernel launches see inputs that
//! an earlier launch already saw. [`LaunchMemo::launch`] wraps the pure
//! [`launch`] and serves such a repeat from a table instead of simulating
//! it again.
//!
//! The key is exact because a kernel reaches memory only through its `Ptr`
//! arguments: buffers hold no pointers, and [`crate::DeviceEnv`] rejects
//! globals and `malloc`. It covers the kernel module's fingerprint, the
//! kernel name, every argument value (raw handle ids included: race
//! reports come out in handle order), the thread count, the
//! [`LaunchConfig`], the race-detection flag, and for each `Ptr` argument
//! the buffer's label, element type, length and contents. The value is
//! the [`KernelOutcome`] plus the post-launch contents of every argument
//! buffer the launch changed; a hit writes those back and returns the
//! outcome, so the caller's accounting runs exactly as after a simulation.
//!
//! Four rules keep the table exact and bounded: a launch that fails is
//! never stored; stored post-state is capped by a fixed byte budget, and
//! an insert that would pass the cap clears the table first (one eviction);
//! debug builds re-simulate every hit on a copy of the device and assert
//! that the fresh outcome and buffer contents equal the stored ones and
//! the written-back ones; and nothing is persisted.

use crate::device::Device;
use crate::exec::{launch, KernelOutcome, LaunchConfig};
use openarc_trace::bin::Writer;
use openarc_vm::binio::write_module;
use openarc_vm::{BufData, Handle, Module, Value, VmError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Most bytes of stored state one memo holds: post-launch buffer contents
/// plus [`ENTRY_BYTES`] per entry. One interactive-loop round of SRAD at
/// the benchmark scale stores 264 KB; with 256 KiB the table is cleared
/// inside every round and the next round finds nothing.
const BUDGET_BYTES: usize = 384 << 10;

/// Fixed weight of one entry on top of its buffer contents: key, outcome
/// and table slot.
const ENTRY_BYTES: usize = 128;

/// 128-bit hash: two independent 64-bit lanes, one word at a time. Each
/// lane xors the word in, multiplies by an odd constant and folds the high
/// half down with a shift-xor. For a fixed word every step is a bijection,
/// so inputs that differ in one word never collide. The fold is what
/// makes a difference in a word's top bit reach later steps: without it
/// (plain FNV-1a on words) the multiply only carries a difference upward,
/// and a second top-bit flip, such as a second f64 sign change, cancels
/// the first.
#[derive(Debug, Clone, Copy)]
struct Hash128 {
    a: u64,
    b: u64,
}

impl Hash128 {
    const SEED: Hash128 = Hash128 {
        a: 0x243f_6a88_85a3_08d3,
        b: 0x1319_8a2e_0370_7344,
    };

    #[inline]
    fn word(&mut self, w: u64) {
        let a = (self.a ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let b = (self.b ^ w).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        self.a = a ^ (a >> 29);
        self.b = b ^ (b >> 32);
    }

    fn wide(&mut self, v: u128) {
        self.word(v as u64);
        self.word((v >> 64) as u64);
    }

    /// Length-prefixed bytes, eight to a word.
    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn finish(self) -> u128 {
        (self.a as u128) << 64 | self.b as u128
    }
}

/// Hash of one buffer's elements, bit patterns for floats.
fn contents(data: &BufData) -> u128 {
    match data {
        BufData::I64(v) => words(v, |x| x as u64),
        BufData::F32(v) => words(v, |x| x.to_bits().into()),
        BufData::F64(v) => words(v, f64::to_bits),
    }
}

/// [`Hash128`] over a slice, element `i` into stream `i mod 4`. One
/// stream is a chain of dependent multiplies; four independent ones keep
/// the multiplier busy (≈0.9 against ≈2 ns per element). The streams are
/// folded into one hash at the end, so an input that differs in one
/// element still never collides.
fn words<T: Copy>(v: &[T], word: impl Fn(T) -> u64) -> u128 {
    let mut streams = [0, 1, 2, 3].map(|i| {
        let mut h = Hash128::SEED;
        h.word(i);
        h
    });
    let mut chunks = v.chunks_exact(4);
    for chunk in &mut chunks {
        for (h, &x) in streams.iter_mut().zip(chunk) {
            h.word(word(x));
        }
    }
    let mut h = Hash128::SEED;
    for &x in chunks.remainder() {
        h.word(word(x));
    }
    for s in streams {
        h.word(s.a);
        h.word(s.b);
    }
    h.finish()
}

/// Bitwise equality of two buffers' elements (`NaN` equals itself).
fn same_bits(x: &BufData, y: &BufData) -> bool {
    match (x, y) {
        (BufData::I64(x), BufData::I64(y)) => x == y,
        (BufData::F32(x), BufData::F32(y)) => x
            .iter()
            .map(|v| v.to_bits())
            .eq(y.iter().map(|v| v.to_bits())),
        (BufData::F64(x), BufData::F64(y)) => x
            .iter()
            .map(|v| v.to_bits())
            .eq(y.iter().map(|v| v.to_bits())),
        _ => false,
    }
}

/// Fingerprint of a compiled kernel module: the hash of its OARCBIN
/// encoding ([`write_module`]), which the artifact cache already relies on
/// to capture everything a module executes. Compute it once per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleFp(u128);

impl ModuleFp {
    /// Fingerprint `module`.
    pub fn of(module: &Module) -> ModuleFp {
        let mut w = Writer::new();
        write_module(&mut w, module);
        let mut h = Hash128::SEED;
        h.bytes(&w.into_bytes());
        ModuleFp(h.finish())
    }
}

/// What a stored launch replays: its outcome and the post-launch contents
/// of every argument buffer it changed.
#[derive(Debug)]
struct Entry {
    outcome: KernelOutcome,
    post: Vec<(Handle, BufData)>,
}

impl Entry {
    /// Bytes charged against the budget: 8 per stored element (a `float`
    /// holds 4, so this errs high) plus [`ENTRY_BYTES`].
    fn weight(&self) -> usize {
        let elems: usize = self.post.iter().map(|(_, d)| d.len()).sum();
        ENTRY_BYTES + elems * 8
    }

    fn same_as(&self, other: &Entry) -> bool {
        self.outcome == other.outcome
            && self.post.len() == other.post.len()
            && self
                .post
                .iter()
                .zip(&other.post)
                .all(|((h, x), (g, y))| h == g && same_bits(x, y))
    }
}

/// The key of one launch, and the content hash of each distinct argument
/// buffer, which tells after the launch which buffers it changed.
fn inputs(
    device: &Device,
    module_fp: ModuleFp,
    kernel: &str,
    args: &[Value],
    n_threads: u64,
    cfg: &LaunchConfig,
) -> (u128, Vec<(Handle, u128)>) {
    let mut key = Hash128::SEED;
    key.wide(module_fp.0);
    key.bytes(kernel.as_bytes());
    key.word(n_threads);
    key.word(cfg.wave.into());
    key.word(cfg.step_budget);
    key.word(device.race_detect.into());
    key.word(args.len() as u64);
    let mut bufs: Vec<(Handle, u128)> = Vec::new();
    for arg in args {
        match *arg {
            Value::Int(x) => {
                key.word(0);
                key.word(x as u64);
            }
            Value::F32(x) => {
                key.word(1);
                key.word(x.to_bits().into());
            }
            Value::F64(x) => {
                key.word(2);
                key.word(x.to_bits());
            }
            Value::Ptr(h) => {
                key.word(3);
                key.word(h.0.into());
                // A dangling handle is keyed by its id alone: any access
                // through it fails the launch, which is never stored.
                let Ok(buf) = device.mem.get(h) else {
                    key.word(u64::MAX);
                    continue;
                };
                key.bytes(buf.label.as_bytes());
                key.word(buf.elem as u64);
                key.word(buf.len() as u64);
                let c = match bufs.iter().find(|(g, _)| *g == h) {
                    Some(&(_, c)) => c,
                    None => {
                        let c = contents(&buf.data);
                        bufs.push((h, c));
                        c
                    }
                };
                key.wide(c);
            }
        }
    }
    (key.finish(), bufs)
}

/// Simulate the launch and collect the buffers it changed.
fn simulate(
    device: &mut Device,
    module: &Module,
    kernel: &str,
    args: &[Value],
    n_threads: u64,
    cfg: &LaunchConfig,
    before: &[(Handle, u128)],
) -> Result<Entry, VmError> {
    let outcome = launch(device, module, kernel, args, n_threads, cfg)?;
    let mut post = Vec::new();
    for &(h, pre) in before {
        let buf = device.mem.get(h)?;
        if contents(&buf.data) != pre {
            post.push((h, buf.data.clone()));
        }
    }
    Ok(Entry { outcome, post })
}

/// Launch-memo counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Launches served from the table.
    pub hits: u64,
    /// Launches simulated (failed ones included).
    pub misses: u64,
    /// Times the table was cleared to stay inside its byte budget.
    pub evictions: u64,
    /// Thread steps the hits replayed instead of simulating. The
    /// simulated count stays in the outcomes the callers charge.
    pub replayed_thread_steps: u64,
}

#[derive(Debug, Default)]
struct Table {
    entries: HashMap<u128, Arc<Entry>>,
    /// Σ [`Entry::weight`] over `entries`.
    bytes: usize,
}

/// An exact, bounded table of kernel launches keyed by everything a launch
/// can read. Shareable across threads; the lock is never held while a
/// kernel runs.
#[derive(Debug, Default)]
pub struct LaunchMemo {
    table: Mutex<Table>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    replayed_thread_steps: AtomicU64,
}

impl LaunchMemo {
    /// [`launch`], served from the table when an earlier launch had the
    /// same inputs. `module_fp` must be [`ModuleFp::of`] `module`.
    #[allow(clippy::too_many_arguments)]
    pub fn launch(
        &self,
        device: &mut Device,
        module: &Module,
        module_fp: ModuleFp,
        kernel: &str,
        args: &[Value],
        n_threads: u64,
        cfg: &LaunchConfig,
    ) -> Result<KernelOutcome, VmError> {
        let (key, before) = inputs(device, module_fp, kernel, args, n_threads, cfg);
        let stored = self.lock().entries.get(&key).cloned();
        let Some(entry) = stored else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let entry = simulate(device, module, kernel, args, n_threads, cfg, &before)?;
            let outcome = entry.outcome.clone();
            self.insert(key, entry);
            return Ok(outcome);
        };
        // Debug builds simulate the hit anyway, on a copy of the device.
        let shadow = cfg!(debug_assertions).then(|| {
            let mut copy = Device {
                mem: device.mem.clone(),
                race_detect: device.race_detect,
            };
            let fresh = simulate(&mut copy, module, kernel, args, n_threads, cfg, &before)
                .unwrap_or_else(|e| panic!("stored launch of `{kernel}` failed when re-run: {e}"));
            assert!(
                fresh.same_as(&entry),
                "replayed launch of `{kernel}` differs from a fresh simulation:\n\
                 stored {:?}\nfresh  {:?}",
                entry.outcome,
                fresh.outcome
            );
            copy
        });
        for (h, data) in &entry.post {
            device.mem.get_mut(*h)?.data = data.clone();
        }
        if let Some(copy) = shadow {
            for &(h, _) in &before {
                assert!(
                    same_bits(&device.mem.get(h)?.data, &copy.mem.get(h)?.data),
                    "replaying `{kernel}` left {h} unlike a fresh simulation"
                );
            }
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.replayed_thread_steps
            .fetch_add(entry.outcome.total_instrs, Ordering::Relaxed);
        Ok(entry.outcome.clone())
    }

    /// Counters so far.
    pub fn stats(&self) -> LaunchStats {
        LaunchStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            replayed_thread_steps: self.replayed_thread_steps.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Table> {
        self.table.lock().expect("launch memo lock poisoned")
    }

    /// Store `entry` unless it alone passes the budget; clear the table
    /// first when it would push the total past it.
    fn insert(&self, key: u128, entry: Entry) {
        let weight = entry.weight();
        if weight > BUDGET_BYTES {
            return;
        }
        let mut table = self.lock();
        if table.bytes + weight > BUDGET_BYTES {
            table.entries.clear();
            table.bytes = 0;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(old) = table.entries.insert(key, Arc::new(entry)) {
            table.bytes -= old.weight();
        }
        table.bytes += weight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openarc_minic::{frontend, ScalarTy};
    use openarc_vm::compile;

    const KERNEL: &str = "void k(int gid, double s, double *a, double *b) { b[gid] = a[gid] * s; }";
    const N: u64 = 8;

    fn module(src: &str) -> Module {
        let (p, s) = frontend(src).expect("frontend");
        compile(&p, &s).expect("compile")
    }

    /// A fresh device holding `a` (non-zero) and `b` (zeros), and the
    /// kernel's arguments `[s, a, b]`.
    fn setup() -> (Device, Vec<Value>) {
        let mut dev = Device::new();
        let a = dev.mem.alloc(ScalarTy::Double, N as usize, "a");
        let b = dev.mem.alloc(ScalarTy::Double, N as usize, "b");
        for i in 0..N {
            dev.mem.store(a, i, Value::F64(1.5 + i as f64)).unwrap();
        }
        (dev, vec![Value::F64(2.0), Value::Ptr(a), Value::Ptr(b)])
    }

    fn handle(v: Value) -> Handle {
        match v {
            Value::Ptr(h) => h,
            other => panic!("not a pointer: {other}"),
        }
    }

    fn doubles(dev: &Device, h: Handle) -> Vec<f64> {
        match &dev.mem.get(h).unwrap().data {
            BufData::F64(v) => v.clone(),
            other => panic!("not doubles: {other:?}"),
        }
    }

    /// Plain FNV-1a over 64-bit words: the hash whose blind spot the
    /// sign-bit case below demonstrates.
    fn fnv1a_words(v: &[f64]) -> u64 {
        v.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x1000_0000_01b3)
        })
    }

    #[test]
    fn a_repeat_hits_and_replays_the_simulated_state() {
        let memo = LaunchMemo::default();
        let m = module(KERNEL);
        let fp = ModuleFp::of(&m);
        let cfg = LaunchConfig::default();
        let (mut plain, args) = setup();
        let want = launch(&mut plain, &m, "k", &args, N, &cfg).unwrap();
        for round in 0..3 {
            let (mut dev, args) = setup();
            let got = memo.launch(&mut dev, &m, fp, "k", &args, N, &cfg).unwrap();
            assert_eq!(got, want, "round {round}");
            assert_eq!(dev.mem.slots(), plain.mem.slots(), "round {round}");
        }
        let st = memo.stats();
        assert_eq!((st.hits, st.misses, st.evictions), (2, 1, 0));
        assert_eq!(st.replayed_thread_steps, 2 * want.total_instrs);
    }

    #[test]
    fn every_input_a_kernel_can_read_is_in_the_key() {
        let memo = LaunchMemo::default();
        let m = module(KERNEL);
        let fp = ModuleFp::of(&m);
        let cfg = LaunchConfig::default();
        let run = |dev: &mut Device, m: &Module, args: &[Value], n: u64, cfg: &LaunchConfig| {
            memo.launch(dev, m, ModuleFp::of(m), "k", args, n, cfg)
                .unwrap();
        };
        let (mut dev, args) = setup();
        run(&mut dev, &m, &args, N, &cfg);
        let (mut dev, args) = setup();
        run(&mut dev, &m, &args, N, &cfg);
        assert_eq!(memo.stats().hits, 1, "the unchanged launch hits");

        let a = handle(setup().1[1]);
        let flipped_signs = move |dev: &mut Device| {
            for i in [1, 5] {
                let x = dev.mem.load(a, i).unwrap().as_f64();
                dev.mem.store(a, i, Value::F64(-x)).unwrap();
            }
        };
        // The case plain FNV-1a on words cannot tell apart.
        let (mut dev, _) = setup();
        let before = doubles(&dev, a);
        flipped_signs(&mut dev);
        assert_eq!(fnv1a_words(&before), fnv1a_words(&doubles(&dev, a)));

        type Change = Box<dyn Fn(&mut Device, &mut Vec<Value>, &mut u64, &mut LaunchConfig)>;
        let changes: Vec<(&str, Change)> = vec![
            (
                "one buffer element",
                Box::new(move |d, _, _, _| d.mem.store(a, 3, Value::F64(-7.0)).unwrap()),
            ),
            (
                "two f64 sign bits",
                Box::new(move |d, _, _, _| flipped_signs(d)),
            ),
            (
                "a scalar argument",
                Box::new(|_, args, _, _| args[0] = Value::F64(3.0)),
            ),
            (
                "a handle",
                Box::new(move |d, args, _, _| {
                    let copy = d.mem.get(a).unwrap().clone();
                    args[1] = Value::Ptr(d.mem.insert(copy));
                }),
            ),
            ("n", Box::new(|_, _, n, _| *n = N - 1)),
            ("wave", Box::new(|_, _, _, c| c.wave = 4)),
            (
                "step_budget",
                Box::new(|_, _, _, c| c.step_budget = 1_000_000),
            ),
            (
                "the race flag",
                Box::new(|d, _, _, _| d.race_detect = false),
            ),
        ];
        for (what, change) in &changes {
            let (mut dev, mut args) = setup();
            let (mut n, mut cfg) = (N, cfg.clone());
            change(&mut dev, &mut args, &mut n, &mut cfg);
            let before = memo.stats();
            run(&mut dev, &m, &args, n, &cfg);
            let after = memo.stats();
            assert_eq!(after.hits, before.hits, "changing {what} still hit");
            assert_eq!(after.misses, before.misses + 1, "{what}");
        }
        // Same kernel name, same inputs, another body.
        let other =
            module("void k(int gid, double s, double *a, double *b) { b[gid] = a[gid] + s; }");
        assert_ne!(ModuleFp::of(&other), fp);
        let (mut dev, args) = setup();
        let before = memo.stats();
        run(&mut dev, &other, &args, N, &cfg);
        assert_eq!(
            memo.stats().hits,
            before.hits,
            "changing the kernel body still hit"
        );
    }

    #[test]
    fn a_failed_launch_is_not_stored() {
        let memo = LaunchMemo::default();
        let m = module("void k(int gid, double *a) { a[gid + 100] = 1.0; }");
        let fp = ModuleFp::of(&m);
        for _ in 0..2 {
            let mut dev = Device::new();
            let a = dev.mem.alloc(ScalarTy::Double, 4, "a");
            let r = memo.launch(
                &mut dev,
                &m,
                fp,
                "k",
                &[Value::Ptr(a)],
                4,
                &LaunchConfig::default(),
            );
            assert!(matches!(r, Err(VmError::OutOfBounds { .. })), "{r:?}");
        }
        let st = memo.stats();
        assert_eq!((st.hits, st.misses), (0, 2));
        assert!(memo.lock().entries.is_empty());
    }

    #[test]
    fn passing_the_budget_clears_the_table_once() {
        // Each launch changes all of `b`: one entry weighs a little over
        // 3/8 of the budget, so two fit and the third does not.
        let len = (BUDGET_BYTES * 3 / 8) / 8;
        let memo = LaunchMemo::default();
        let m = module("void k(int gid, double *a, double *b) { b[0] = a[0]; }");
        let fp = ModuleFp::of(&m);
        let run = |v: f64| {
            let mut dev = Device::new();
            let a = dev.mem.alloc(ScalarTy::Double, len, "a");
            let b = dev.mem.alloc(ScalarTy::Double, len, "b");
            dev.mem.store(a, 0, Value::F64(v)).unwrap();
            let args = [Value::Ptr(a), Value::Ptr(b)];
            memo.launch(&mut dev, &m, fp, "k", &args, 1, &LaunchConfig::default())
                .unwrap();
            memo.stats()
        };
        run(1.0);
        run(2.0);
        assert_eq!(memo.stats().evictions, 0);
        assert_eq!(memo.lock().entries.len(), 2);
        let st = run(3.0);
        assert_eq!((st.misses, st.evictions), (3, 1));
        assert_eq!(memo.lock().entries.len(), 1, "cleared, then stored");
        assert!(memo.lock().bytes <= BUDGET_BYTES);
        assert_eq!(run(1.0).hits, 0, "the cleared entry is gone");
        assert_eq!(run(3.0).hits, 1, "the entry stored after clearing stays");
        assert_eq!(memo.stats().evictions, 1);
    }
}
