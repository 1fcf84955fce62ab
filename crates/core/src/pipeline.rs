//! Staged execution pipeline with content-addressed artifact reuse.
//!
//! The paper's workflow is interactive: the user runs the same program over
//! and over while toggling verification targets, error margins, transfer
//! overlays, and optimization variants. Re-running `frontend → translate →
//! execute` from scratch each round repeats work whose inputs did not
//! change. This module decomposes the run flow into explicit stages
//!
//! ```text
//! Frontend → Directives → Analysis → Instrument → Plan → Execute → Verify
//! ```
//!
//! where each stage produces a typed **artifact** carrying a content hash
//! ([`ArtifactId`], FNV-1a over the stage inputs). A [`Session`] memoizes
//! artifacts by id: the same source re-entered with different
//! [`ExecOptions`] reuses the parse and the translation; the same options
//! reuse the run itself. Per-stage hit/miss counters ([`Session::stats`])
//! make the reuse observable and testable.
//!
//! Stage meanings:
//!
//! * **Frontend** — parse + semantic check ([`openarc_minic::frontend`]).
//! * **Directives** — no entry point of its own: directives are parsed
//!   and validated inside translation. The stage keeps its row in
//!   [`Stage::ALL`] (and reads 0/0) so per-stage tables keep their layout.
//! * **Analysis** — translation *without* instrumentation: dataflow,
//!   privatization/reduction recognition, kernel extraction.
//! * **Instrument** — translation *with* §III-B instrumentation; consulted
//!   only when [`TranslateOptions::instrument`] is set (otherwise the
//!   Analysis artifact is the translation).
//! * **Plan** — binding of a translation to one [`ExecOptions`]
//!   fingerprint.
//! * **Execute** — the simulated run ([`RunResult`]). Journaled runs are
//!   cached too: the miss records the exact event stream the run emitted,
//!   and a hit **replays** it into the caller's journal, so the journal
//!   side effect of a cache hit is byte-identical to a real run. Below the
//!   whole-run memo, every device launch goes through the session's
//!   [`LaunchMemo`]: a run that misses still skips simulating any kernel
//!   whose inputs an earlier run already had ([`PipelineStats::launches`]).
//! * **Verify** — the §III-A report: verification run + CPU baseline, two
//!   Execute-stage entries; the baseline is the verified run's projection.
//!
//! Every stage request runs the same memo protocol (one routine, one
//! table type): memory lookup, disk load-through for the persisted kinds,
//! else compute and publish — metered and spanned identically whichever
//! stage asked. The tables sit behind [`Mutex`]es and artifacts are
//! shared via [`Arc`], so one `Session` can be driven from many threads at
//! once (a served tenant's concurrent requests, [`crate::serve`]); locks
//! are never held across stage work, so concurrent misses compute in
//! parallel (last insert wins).
//!
//! Sessions are constructed with [`Session::builder`]. A builder given a
//! [`SessionBuilder::disk_cache`] directory adds the persistent layer
//! ([`crate::cache::DiskCache`]): Frontend, Analysis/Instrument, and
//! Execute artifacts that miss in memory are loaded from disk (counted as
//! stage *hits* — the stage work was skipped), and recomputed artifacts
//! are published back, so a second process over the same sources reruns
//! nothing. Disk traffic shows up in [`PipelineStats::disk`] and, for
//! journaled sessions, as [`EventKind::Cache`] events.
//!
//! Every stage records its **wall-clock** cost (cache hits included, so
//! reuse is visible as near-zero time): [`Session::stage_times`] returns
//! the accumulated per-stage breakdown, and a session built with
//! [`SessionBuilder::journal`] additionally emits one
//! [`EventKind::Stage`] span per stage request into the given journal.
//! Stage spans measure real time, not simulated time — they never enter
//! the deterministic per-run journals compared across worker counts.

use crate::cache::{DiskCache, DiskStats, Lookup};
use crate::exec::{execute_in, ExecMode, ExecOptions, RunResult, VerifyOptions};
use crate::translate::{translate, TranslateOptions, Translated};
use crate::verify::VerificationReport;
use openarc_gpusim::{LaunchMemo, LaunchStats};
use openarc_minic::span::Diagnostic;
use openarc_minic::{frontend, print_program, Program, Sema};
pub use openarc_trace::Fnv;
use openarc_trace::{CacheOp, EventKind, Journal, Phase, TraceEvent, Track};
use openarc_vm::VmError;
use std::collections::HashMap;
use std::convert::Infallible;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------------

/// Content hash identifying one stage artifact (FNV-1a, 64-bit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArtifactId(pub u64);

impl std::fmt::Display for ArtifactId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

fn combine(a: u64, b: u64) -> u64 {
    Fnv::new().write_u64(a).write_u64(b).finish()
}

/// Fingerprint of what a translation reads of `o` ([`TranslateOptions::key_view`]).
fn fp_translate_options(o: &TranslateOptions) -> u64 {
    let o = o.key_view();
    let mut h = Fnv::new();
    h.write_bool(o.instrument)
        .write_bool(o.optimize_checks)
        .write_bool(o.hoist_gpu_checks)
        .write_bool(o.auto_privatize)
        .write_bool(o.auto_reduction);
    h.write_u64(o.ignored_update_stmts.len() as u64);
    for id in &o.ignored_update_stmts {
        h.write_u64(*id as u64);
    }
    h.finish()
}

fn fp_verify_options(h: &mut Fnv, v: &VerifyOptions) {
    match &v.targets {
        None => {
            h.write_bool(false);
        }
        Some(set) => {
            h.write_bool(true).write_u64(set.len() as u64);
            for t in set {
                h.write_str(t);
            }
        }
    }
    h.write_bool(v.complement)
        .write_f64(v.rel_tol)
        .write_f64(v.abs_tol)
        .write_f64(v.min_value_to_check)
        .write_u64(v.queue as u64)
        .write_u64(v.devices as u64);
}

/// Fingerprint of what a run reads of `o` ([`ExecOptions::key_view`]).
fn fp_exec_options(o: &ExecOptions) -> u64 {
    let o = o.key_view();
    let mut h = Fnv::new();
    match &o.mode {
        ExecMode::Normal => {
            h.write_u64(0);
        }
        ExecMode::CpuOnly => {
            h.write_u64(1);
        }
        ExecMode::Verify(v) => {
            h.write_u64(2);
            fp_verify_options(&mut h, v);
        }
    }
    h.write_bool(o.check_transfers)
        .write_bool(o.race_detect)
        .write_u64(o.launch.wave as u64)
        .write_u64(o.launch.step_budget)
        .write_u64(o.step_budget);
    h.write_u64(o.overlay.disable.len() as u64);
    for k in &o.overlay.disable {
        h.write_str(&k.site)
            .write_str(&k.var)
            .write_bool(k.to_device);
    }
    h.write_u64(o.overlay.defer.len() as u64);
    for k in &o.overlay.defer {
        h.write_str(&k.site)
            .write_str(&k.var)
            .write_bool(k.to_device);
    }
    // `o.stage_journal` is deliberately NOT hashed: stage spans are
    // wall-clock observations emitted live during a fresh run, never
    // recorded into or replayed from cached artifacts, so enabling them
    // must not fork the plan fingerprint.
    h.write_bool(o.journal.is_enabled());
    h.finish()
}

// ---------------------------------------------------------------------------
// Stage artifacts
// ---------------------------------------------------------------------------

/// Frontend artifact: checked AST + semantic tables, keyed by source hash.
#[derive(Debug)]
pub struct FrontendArtifact {
    /// Content hash of the source text (or of the printed program when
    /// built from a pre-parsed AST).
    pub id: ArtifactId,
    /// Parsed program.
    pub program: Program,
    /// Semantic tables.
    pub sema: Sema,
}

/// Translation artifact (Analysis or Instrument stage).
#[derive(Debug)]
pub struct TranslatedArtifact {
    /// Content hash: frontend id × translate-options fingerprint.
    pub id: ArtifactId,
    /// Whether this is the instrumented (§III-B) translation.
    pub instrumented: bool,
    /// The translation output.
    pub tr: Translated,
}

/// Plan artifact: one translation bound to one [`ExecOptions`] fingerprint.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    /// Content hash: translation id × exec-options fingerprint.
    pub id: ArtifactId,
    /// Translation this plan executes.
    pub translated: ArtifactId,
    /// Whether this plan journals events. Journaled plans are still
    /// cacheable: the Execute stage records the event stream on a miss and
    /// replays it into the caller's journal on a hit, so the side effect
    /// survives caching byte-for-byte.
    pub journaled: bool,
}

// ---------------------------------------------------------------------------
// Stage bookkeeping
// ---------------------------------------------------------------------------

/// Pipeline stages, in order. A stage's discriminant is its index in
/// [`Stage::ALL`] and in every per-stage array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Parse + semantic check.
    Frontend,
    /// Directive parsing; no entry point meters it (see the module docs).
    Directives,
    /// Uninstrumented translation (dataflow, kernel extraction).
    Analysis,
    /// Instrumented translation (§III-B checks inserted).
    Instrument,
    /// Translation × options binding.
    Plan,
    /// Simulated run.
    Execute,
    /// §III-A verification report.
    Verify,
}

impl Stage {
    /// All stages, pipeline order.
    pub const ALL: [Stage; 7] = [
        Stage::Frontend,
        Stage::Directives,
        Stage::Analysis,
        Stage::Instrument,
        Stage::Plan,
        Stage::Execute,
        Stage::Verify,
    ];

    /// The journal phase this stage's spans and cache events carry: a
    /// stage's discriminant is its phase's code.
    pub fn phase(self) -> Phase {
        Phase::ALL[self as usize]
    }

    /// Display label: the phase's journal spelling.
    pub fn label(self) -> &'static str {
        self.phase().label()
    }
}

/// Hit/miss counters for one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// Requests served from cache.
    pub hits: u64,
    /// Requests that ran the stage.
    pub misses: u64,
}

/// Snapshot of a session's per-stage cache behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// Counters indexed like [`Stage::ALL`].
    pub stages: [StageCounts; Stage::ALL.len()],
    /// Disk-layer traffic (all zero when the session has no disk cache).
    /// A disk hit is *also* a stage hit — the stage work was skipped.
    pub disk: DiskStats,
    /// Device launches the session's launch memo served or simulated.
    pub launches: LaunchStats,
}

impl PipelineStats {
    /// Counters for one stage.
    pub fn get(&self, s: Stage) -> StageCounts {
        self.stages[s as usize]
    }

    /// Add every counter of `other` into `self` (totals over sessions).
    pub fn add(&mut self, other: &PipelineStats) {
        for (t, c) in self.stages.iter_mut().zip(&other.stages) {
            t.hits += c.hits;
            t.misses += c.misses;
        }
        let (d, o) = (&mut self.disk, &other.disk);
        d.hits += o.hits;
        d.misses += o.misses;
        d.stores += o.stores;
        d.evictions += o.evictions;
        d.corrupt += o.corrupt;
        let (l, o) = (&mut self.launches, &other.launches);
        l.hits += o.hits;
        l.misses += o.misses;
        l.evictions += o.evictions;
        l.replayed_thread_steps += o.replayed_thread_steps;
    }
}

impl std::fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{:<12} {:>6} {:>6}", "stage", "hits", "misses")?;
        for s in Stage::ALL {
            let c = self.get(s);
            writeln!(f, "{:<12} {:>6} {:>6}", s.label(), c.hits, c.misses)?;
        }
        let l = &self.launches;
        writeln!(
            f,
            "{:<12} {:>6} {:>6}   evicted {}, replayed steps {}",
            "launches", l.hits, l.misses, l.evictions, l.replayed_thread_steps
        )?;
        if !self.disk.is_empty() {
            writeln!(
                f,
                "{:<12} {:>6} {:>6}   stores {}, evicted {}, corrupt {}",
                "disk",
                self.disk.hits,
                self.disk.misses,
                self.disk.stores,
                self.disk.evictions,
                self.disk.corrupt
            )?;
        }
        Ok(())
    }
}

/// One stage's live counters.
#[derive(Default)]
struct StageMeter {
    hits: AtomicU64,
    misses: AtomicU64,
    /// Accumulated wall-clock nanoseconds, hits included.
    wall_ns: AtomicU64,
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// The one error type every pipeline stage returns, so drivers match a
/// single enum instead of juggling `Vec<Diagnostic>` / `Diagnostic` /
/// [`VmError`] per call site.
#[derive(Debug)]
pub enum PipelineError {
    /// Parse or semantic-check failure.
    Frontend(Vec<Diagnostic>),
    /// Translation failure.
    Translate(Vec<Diagnostic>),
    /// Execution failure.
    Run(VmError),
}

impl PipelineError {
    /// Process exit code a CLI driver should use for this error:
    /// 2 for anything wrong with the *input program* (parse, directives,
    /// translation), 3 for a failure while *running* it.
    pub fn exit_code(&self) -> i32 {
        match self {
            PipelineError::Frontend(_) | PipelineError::Translate(_) => 2,
            PipelineError::Run(_) => 3,
        }
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (what, ds) = match self {
            PipelineError::Frontend(ds) => ("frontend", ds),
            PipelineError::Translate(ds) => ("translation", ds),
            PipelineError::Run(e) => return write!(f, "execution failed: {e}"),
        };
        write!(f, "{what} failed:")?;
        for d in ds {
            write!(f, " {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PipelineError {}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// A pipeline session: stage caches + counters, shareable across threads.
///
/// ```
/// use openarc_core::pipeline::{Session, Stage};
/// use openarc_core::exec::{ExecMode, ExecOptions};
/// use openarc_core::translate::TranslateOptions;
/// let src = "double a[8];\nvoid main() {\n int j;\n #pragma acc kernels loop gang\n for (j = 0; j < 8; j++) { a[j] = 1.0; }\n}";
/// let session = Session::builder().build();
/// let run1 = session.run_source(src, &TranslateOptions::default(), &ExecOptions::default()).unwrap();
/// // Same source, different options: frontend + translation are reused.
/// let cpu = ExecOptions { mode: ExecMode::CpuOnly, ..Default::default() };
/// let run2 = session.run_source(src, &TranslateOptions::default(), &cpu).unwrap();
/// let stats = session.stats();
/// assert_eq!(stats.get(Stage::Frontend).hits, 1);
/// assert_eq!(stats.get(Stage::Analysis).hits, 1);
/// assert_eq!(stats.get(Stage::Execute).misses, 2);
/// assert!(run1.result.sim_time_us() > run2.result.sim_time_us());
/// ```
pub struct Session {
    /// Indexed like [`Stage::ALL`].
    meters: [StageMeter; Stage::ALL.len()],
    frontends: Memo<Arc<FrontendArtifact>>,
    translations: Memo<Arc<TranslatedArtifact>>,
    plans: Memo<ExecPlan>,
    runs: Memo<CachedRun>,
    verifications: Memo<Arc<VerificationReport>>,
    /// Every device launch of every run the session executes goes through
    /// this memo, so a kernel that meets inputs it already saw in an
    /// earlier run is not simulated again.
    launches: LaunchMemo,
    /// Optional session-level stream of [`EventKind::Stage`] spans.
    stage_journal: Journal,
    /// Session epoch: stage-span timestamps are offsets from here.
    t0: Instant,
    /// Optional persistent layer under the in-memory stage caches.
    disk: Option<Arc<DiskCache>>,
}

impl Default for Session {
    fn default() -> Session {
        Session {
            meters: Default::default(),
            frontends: Memo::default(),
            translations: Memo::default(),
            plans: Memo::default(),
            runs: Memo::default(),
            verifications: Memo::default(),
            launches: LaunchMemo::default(),
            stage_journal: Journal::disabled(),
            t0: Instant::now(),
            disk: None,
        }
    }
}

/// Builder for [`Session`] — the one way to configure a session.
///
/// ```
/// use openarc_core::pipeline::Session;
/// // Plain in-memory session:
/// let s = Session::builder().build();
/// // Journaled session with a persistent artifact cache:
/// let j = openarc_trace::Journal::enabled();
/// let dir = std::env::temp_dir().join("openarc-doc-cache");
/// let s = Session::builder().journal(j).disk_cache(&dir).build();
/// assert!(s.disk_cache().is_some());
/// ```
#[derive(Debug, Default)]
pub struct SessionBuilder {
    journal: Option<Journal>,
    disk: Option<PathBuf>,
    namespace: String,
}

impl SessionBuilder {
    /// Emit one [`EventKind::Stage`] span per stage request (and one
    /// [`EventKind::Cache`] event per disk-cache operation) into
    /// `journal`. Wall-clock µs; timestamps are offsets from session
    /// creation.
    pub fn journal(mut self, journal: Journal) -> SessionBuilder {
        self.journal = Some(journal);
        self
    }

    /// Add the persistent content-addressed artifact store rooted at
    /// `dir` (created lazily on first store). See [`crate::cache`].
    pub fn disk_cache(mut self, dir: impl Into<PathBuf>) -> SessionBuilder {
        self.disk = Some(dir.into());
        self
    }

    /// Fold a tenant namespace into the disk layer's entry keys (see
    /// [`DiskCache::with_namespace`]): sessions with different namespaces
    /// over the same [`SessionBuilder::disk_cache`] root never observe
    /// each other's persisted artifacts. No effect without a disk layer;
    /// the empty namespace (the default) is the identity.
    pub fn cache_namespace(mut self, namespace: impl Into<String>) -> SessionBuilder {
        self.namespace = namespace.into();
        self
    }

    /// Construct the session.
    pub fn build(self) -> Session {
        Session {
            stage_journal: self.journal.unwrap_or_else(Journal::disabled),
            disk: self
                .disk
                .map(|dir| Arc::new(DiskCache::with_namespace(dir, self.namespace))),
            ..Session::default()
        }
    }
}

/// A memoized Execute-stage entry: the run plus the exact event stream it
/// journaled (empty for unjournaled runs), so a cache hit can replay the
/// journal side effect byte-for-byte.
#[derive(Clone)]
struct CachedRun {
    result: Arc<RunResult>,
    events: Arc<Vec<TraceEvent>>,
}

/// One in-memory memo table: artifacts by content-hash key. Values are
/// cheap handles (`Arc`s), cloned out so the lock is never held across
/// stage work.
struct Memo<V>(Mutex<HashMap<u64, V>>);

impl<V> Default for Memo<V> {
    fn default() -> Memo<V> {
        Memo(Mutex::default())
    }
}

impl<V: Clone> Memo<V> {
    fn get(&self, key: u64) -> Option<V> {
        self.lock().get(&key).cloned()
    }

    fn insert(&self, key: u64, v: V) {
        self.lock().insert(key, v);
    }

    /// The map, also after a thread panicked holding it: a single `get` or
    /// `insert` cannot leave it half-written, so a poisoned lock is
    /// recovered, not fatal.
    fn lock(&self) -> MutexGuard<'_, HashMap<u64, V>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Disk load/store of one persisted artifact kind, for
/// [`Session::memoized`].
struct DiskHooks<'a, V> {
    load: &'a dyn Fn(&DiskCache) -> Lookup<V>,
    store: &'a dyn Fn(&DiskCache, &V) -> bool,
}

/// One end-to-end pipeline run: the translation used plus the run result.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Frontend artifact (parse reused across runs).
    pub frontend: Arc<FrontendArtifact>,
    /// Translation artifact (Analysis or Instrument stage output).
    pub translated: Arc<TranslatedArtifact>,
    /// Plan the Execute stage ran (or served from cache).
    pub plan: ExecPlan,
    /// The run.
    pub result: Arc<RunResult>,
}

impl Session {
    /// Start configuring a session. See [`SessionBuilder`].
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The persistent artifact store, when the session was built with
    /// [`SessionBuilder::disk_cache`].
    pub fn disk_cache(&self) -> Option<&DiskCache> {
        self.disk.as_deref()
    }

    /// The session-level stage journal ([`SessionBuilder::journal`]);
    /// disabled when the session was built without one. Cloning the
    /// handle shares the underlying stream.
    pub fn stage_journal(&self) -> &Journal {
        &self.stage_journal
    }

    /// Journal one disk-cache operation (zero-duration marker event).
    fn disk_event(&self, stage: Stage, op: CacheOp) {
        if self.stage_journal.is_enabled() {
            self.stage_journal.emit(TraceEvent {
                ts_us: self.t0.elapsed().as_secs_f64() * 1e6,
                dur_us: 0.0,
                track: Track::Host,
                kind: EventKind::Cache {
                    stage: stage.phase(),
                    op,
                },
            });
        }
    }

    /// The one memo protocol every stage request goes through: serve
    /// `key` from `memo`; else (persisted kinds) load it through from the
    /// disk layer — the stage work was skipped, so that is a stage hit
    /// too; else count a miss, run `compute`, and publish the artifact to
    /// memory and disk. Each served request is metered and emits one
    /// Stage span timed from `started`; a failed `compute` has counted
    /// its miss and emits none. Returns the artifact and whether it was
    /// cached.
    fn memoized<V: Clone, E>(
        &self,
        stage: Stage,
        started: Instant,
        memo: &Memo<V>,
        key: u64,
        disk: Option<DiskHooks<'_, V>>,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let cached = memo.get(key).or_else(|| {
            let (found, op) = match (disk.as_ref()?.load)(self.disk.as_ref()?) {
                Lookup::Hit(v) => (Some(v), CacheOp::Hit),
                Lookup::Miss => (None, CacheOp::Miss),
                Lookup::Corrupt => (None, CacheOp::Corrupt),
            };
            self.disk_event(stage, op);
            let v = found?;
            memo.insert(key, v.clone());
            Some(v)
        });
        let meter = &self.meters[stage as usize];
        if let Some(v) = cached {
            meter.hits.fetch_add(1, Ordering::Relaxed);
            self.note_stage(stage, started, true);
            return Ok((v, true));
        }
        meter.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute()?;
        memo.insert(key, v.clone());
        if let (Some(hooks), Some(cache)) = (&disk, &self.disk) {
            if (hooks.store)(cache, &v) {
                self.disk_event(stage, CacheOp::Store);
            }
        }
        self.note_stage(stage, started, false);
        Ok((v, false))
    }

    /// Record one stage request's wall-clock cost; `cached` marks hits.
    fn note_stage(&self, stage: Stage, started: Instant, cached: bool) {
        let dur = started.elapsed();
        self.meters[stage as usize]
            .wall_ns
            .fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
        if self.stage_journal.is_enabled() {
            let dur_us = dur.as_secs_f64() * 1e6;
            let end_us = started.duration_since(self.t0).as_secs_f64() * 1e6 + dur_us;
            self.stage_journal.emit(TraceEvent {
                ts_us: end_us - dur_us,
                dur_us,
                track: Track::Host,
                kind: EventKind::Stage {
                    stage: stage.phase(),
                    cached,
                },
            });
        }
    }

    /// Accumulated wall-clock µs spent in each stage (cache hits included,
    /// so artifact reuse shows up as near-zero stage time), in
    /// [`Stage::ALL`] order.
    pub fn stage_times(&self) -> [(Stage, f64); Stage::ALL.len()] {
        Stage::ALL.map(|s| {
            let ns = self.meters[s as usize].wall_ns.load(Ordering::Relaxed);
            (s, ns as f64 / 1e3)
        })
    }

    /// Frontend stage: parse + check `src`, cached by source hash (memory
    /// first, then the disk layer — a disk load skips the parse and counts
    /// as a hit).
    pub fn frontend(&self, src: &str) -> Result<Arc<FrontendArtifact>, PipelineError> {
        let t = Instant::now();
        let id = ArtifactId(Fnv::new().write_str(src).finish());
        let disk = DiskHooks {
            load: &|d| d.load_frontend(id).map(Arc::new),
            store: &|d, fe| d.store_frontend(fe),
        };
        let compute = || {
            let (program, sema) = frontend(src).map_err(PipelineError::Frontend)?;
            Ok(Arc::new(FrontendArtifact { id, program, sema }))
        };
        self.memoized(
            Stage::Frontend,
            t,
            &self.frontends,
            id.0,
            Some(disk),
            compute,
        )
        .map(|(fe, _)| fe)
    }

    /// Frontend stage for a pre-parsed program (e.g. one produced by a
    /// source-to-source transform such as [`crate::strip_privatization`]),
    /// keyed by the printed program text.
    pub fn frontend_program(&self, program: Program, sema: Sema) -> Arc<FrontendArtifact> {
        let t = Instant::now();
        let id = ArtifactId(Fnv::new().write_str(&print_program(&program)).finish());
        let compute = || Ok::<_, Infallible>(Arc::new(FrontendArtifact { id, program, sema }));
        let Ok((fe, _)) = self.memoized(Stage::Frontend, t, &self.frontends, id.0, None, compute);
        fe
    }

    /// Analysis/Instrument stage: translate under `topts`, cached by
    /// frontend id × options fingerprint (memory first, then the disk
    /// layer). Instrumented translations are metered as the Instrument
    /// stage, plain ones as Analysis.
    pub fn translate(
        &self,
        fe: &FrontendArtifact,
        topts: &TranslateOptions,
    ) -> Result<Arc<TranslatedArtifact>, PipelineError> {
        let t = Instant::now();
        let stage = if topts.instrument {
            Stage::Instrument
        } else {
            Stage::Analysis
        };
        let id = ArtifactId(combine(fe.id.0, fp_translate_options(topts)));
        let disk = DiskHooks {
            load: &|d| d.load_translated(stage, id).map(Arc::new),
            store: &|d, art| d.store_translated(stage, art),
        };
        let compute = || {
            let tr = translate(&fe.program, &fe.sema, topts).map_err(PipelineError::Translate)?;
            Ok(Arc::new(TranslatedArtifact {
                id,
                instrumented: topts.instrument,
                tr,
            }))
        };
        self.memoized(stage, t, &self.translations, id.0, Some(disk), compute)
            .map(|(art, _)| art)
    }

    /// Plan stage: bind a translation to one options fingerprint.
    pub fn plan(&self, tr: &TranslatedArtifact, eopts: &ExecOptions) -> ExecPlan {
        let t = Instant::now();
        let key = combine(tr.id.0, fp_exec_options(eopts));
        let compute = || {
            Ok::<_, Infallible>(ExecPlan {
                id: ArtifactId(key),
                translated: tr.id,
                journaled: eopts.journal.is_enabled(),
            })
        };
        let Ok((plan, _)) = self.memoized(Stage::Plan, t, &self.plans, key, None, compute);
        plan
    }

    /// Execute stage: run the plan, serving repeats from cache. Journaled
    /// plans replay their recorded event stream into the caller's journal
    /// on a hit, so the side effect is byte-identical to a real run.
    pub fn execute(
        &self,
        tr: &TranslatedArtifact,
        eopts: &ExecOptions,
    ) -> Result<Arc<RunResult>, PipelineError> {
        let plan = self.plan(tr, eopts);
        self.execute_plan(eopts, &plan, || self.run_plan(tr, eopts))
    }

    /// Execute stage against an already-materialized plan (avoids metering
    /// the Plan stage twice when the caller holds the plan); `compute`
    /// produces the run on a miss.
    fn execute_plan(
        &self,
        eopts: &ExecOptions,
        plan: &ExecPlan,
        compute: impl FnOnce() -> Result<CachedRun, PipelineError>,
    ) -> Result<Arc<RunResult>, PipelineError> {
        let (t, key) = (Instant::now(), plan.id.0);
        let disk = DiskHooks {
            load: &|d| {
                d.load_run(plan.id).map(|(result, events)| CachedRun {
                    result: Arc::new(result),
                    events: Arc::new(events),
                })
            },
            store: &|d, run| d.store_run(plan.id, &run.result, &run.events),
        };
        let (run, cached) =
            self.memoized(Stage::Execute, t, &self.runs, key, Some(disk), compute)?;
        if cached && !run.events.is_empty() {
            // Replay the recorded journal side effect.
            eopts.journal.extend((*run.events).clone());
        }
        Ok(run.result)
    }

    /// A real run of `tr` under `eopts`. A journaled run records into a
    /// private capture journal, then forwards exactly its events.
    fn run_plan(
        &self,
        tr: &TranslatedArtifact,
        eopts: &ExecOptions,
    ) -> Result<CachedRun, PipelineError> {
        let capture = eopts.journal.is_enabled().then(Journal::enabled);
        let capture = capture.unwrap_or_default();
        let opts = ExecOptions {
            journal: capture.clone(),
            ..eopts.clone()
        };
        let result = execute_in(&tr.tr, &opts, &self.launches).map_err(PipelineError::Run)?;
        let events = capture.drain();
        eopts.journal.extend(events.clone());
        Ok(CachedRun {
            result: Arc::new(result),
            events: Arc::new(events),
        })
    }

    /// Verify stage: §III-A report (verification run + CPU baseline), two
    /// Execute-stage entries, but one run: the baseline's compute is the
    /// verified run's [`RunResult::host_projection`] (after a failed one,
    /// a real run whose error comes first; debug builds check the entry
    /// against a real run, outside the Execute stage and the launch memo).
    /// This is the one verification driver; a program that is already
    /// parsed (or transformed) enters through [`Session::frontend_program`].
    ///
    /// ```
    /// use openarc_core::exec::VerifyOptions;
    /// use openarc_core::pipeline::Session;
    /// use openarc_core::translate::TranslateOptions;
    /// let src = "double a[16];\nvoid main() {\n int j;\n #pragma acc kernels loop gang\n for (j = 0; j < 16; j++) { a[j] = (double) j; }\n}";
    /// let session = Session::builder().build();
    /// let fe = session.frontend(src).unwrap();
    /// let (_, report) = session
    ///     .verify(&fe, &TranslateOptions::default(), VerifyOptions::default())
    ///     .unwrap();
    /// assert!(report.flagged().is_empty());
    /// assert_eq!(report.kernels[0].launches, 1);
    /// ```
    pub fn verify(
        &self,
        fe: &FrontendArtifact,
        topts: &TranslateOptions,
        vopts: VerifyOptions,
    ) -> Result<(Arc<TranslatedArtifact>, Arc<VerificationReport>), PipelineError> {
        let tr = self.translate(fe, topts)?;
        let t = Instant::now();
        let vrun_opts = ExecOptions {
            mode: ExecMode::Verify(vopts),
            ..Default::default()
        };
        let key = combine(tr.id.0, fp_exec_options(&vrun_opts));
        let compute = || -> Result<_, PipelineError> {
            let run = self.execute(&tr, &vrun_opts);
            let cpu = ExecOptions {
                mode: ExecMode::CpuOnly,
                ..Default::default()
            };
            let plan = self.plan(&tr, &cpu);
            let base = self.execute_plan(&cpu, &plan, || match &run {
                Ok(run) => Ok(CachedRun {
                    result: Arc::new(run.host_projection()),
                    events: Arc::default(),
                }),
                Err(_) => self.run_plan(&tr, &cpu),
            })?;
            let run = run?;
            let bytes = |r: &RunResult| crate::cache::bin::encode_run(plan.id, r, &[]);
            debug_assert!(
                crate::exec::execute(&tr.tr, &cpu).is_ok_and(|r| bytes(&r) == bytes(&base)),
                "the CpuOnly entry differs from a real CpuOnly run"
            );
            Ok(Arc::new(VerificationReport {
                kernels: run.verify.clone(),
                breakdown: run.machine.clock.breakdown.clone(),
                cpu_baseline_us: base.sim_time_us(),
                races: run.races.clone(),
            }))
        };
        let (rep, _) = self.memoized(Stage::Verify, t, &self.verifications, key, None, compute)?;
        Ok((tr, rep))
    }

    /// End-to-end convenience: frontend → translate → execute.
    pub fn run_source(
        &self,
        src: &str,
        topts: &TranslateOptions,
        eopts: &ExecOptions,
    ) -> Result<PipelineRun, PipelineError> {
        let fe = self.frontend(src)?;
        let tr = self.translate(&fe, topts)?;
        let plan = self.plan(&tr, eopts);
        let result = self.execute_plan(eopts, &plan, || self.run_plan(&tr, eopts))?;
        Ok(PipelineRun {
            frontend: fe,
            translated: tr,
            plan,
            result,
        })
    }

    /// Per-stage hit/miss counters accumulated so far, the launch memo's
    /// counters, plus disk-layer traffic when a disk cache is attached.
    pub fn stats(&self) -> PipelineStats {
        let mut out = PipelineStats::default();
        for (c, m) in out.stages.iter_mut().zip(&self.meters) {
            c.hits = m.hits.load(Ordering::Relaxed);
            c.misses = m.misses.load(Ordering::Relaxed);
        }
        out.launches = self.launches.stats();
        if let Some(disk) = &self.disk {
            out.disk = disk.stats();
        }
        out
    }
}

#[cfg(test)]
mod tests;
