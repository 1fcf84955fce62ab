//! Persistent content-addressed artifact store under [`crate::pipeline::Session`].
//!
//! The in-memory stage caches die with the process, so every new CLI
//! invocation re-parses and re-translates sources that have not changed
//! since the last run. This module adds the disk layer: a
//! content-addressed store at `<root>/<stage>/<key>.bin` holding
//! serialized Frontend, Translated, and journal-replay Run artifacts.
//!
//! Entries are written in the versioned binary format of [`bin`]
//! (normative spec: `docs/FORMAT.md`), the store's only entry format:
//! every other file in a stage directory that is not a live writer lock
//! or temp file — a `<key>.json` left by a pre-OARCBIN build, say — is
//! never read, counts toward the store's size, and ages out through
//! [`DiskCache::gc`] and [`DiskCache::clear`].
//!
//! Design rules, all load-bearing:
//!
//! * **Keys** fold the artifact's content hash together with
//!   [`BUILD_ID`], a hash of the sources that decide what an artifact
//!   means, so a binary built from other sources never reads this one's
//!   entries — old entries simply stop being addressed and age out via
//!   [`DiskCache::gc`].
//! * **Publishing is atomic**: entries are written to a private temp file
//!   and `rename`d into place, so readers never observe partial writes.
//! * **Writers hold an advisory lock** (`create_new` lock file) per entry;
//!   a second concurrent writer of the same content skips the store (the
//!   bytes would be identical). Stale locks are taken over.
//! * **Corruption never panics**: a truncated, garbage, or
//!   wrong-versioned entry is detected on load, deleted, counted, and the
//!   stage recomputes as if the entry never existed.
//! * **Eviction is LRU by modification time**: every hit re-touches the
//!   entry, and [`DiskCache::gc`] drops the oldest entries until the
//!   store fits a byte budget.

pub mod bin;

use crate::exec::RunResult;
use crate::pipeline::{ArtifactId, Fnv, FrontendArtifact, Stage, TranslatedArtifact};
use openarc_trace::TraceEvent;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

// `BUILD_ID`, computed by `build.rs`: the build identity every entry key
// folds.
include!(concat!(env!("OUT_DIR"), "/build_id.rs"));

/// Default cache directory used by the CLI and bench drivers.
pub const DEFAULT_DIR: &str = "target/openarc-cache";

/// Fingerprint of the producing tool (the crate version), hashed into
/// every entry header. It guards only the header: the entry key folds
/// [`BUILD_ID`], which is what keeps artifacts written by one build from
/// ever being read by another.
pub fn tool_fingerprint() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// Age after which an abandoned writer lock or temp file is taken over.
const STALE_LOCK: Duration = Duration::from_secs(60);

/// Counters of one cache's disk traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Entries loaded, decoded, and served.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries published.
    pub stores: u64,
    /// Entries evicted by [`DiskCache::gc`].
    pub evictions: u64,
    /// Entries found corrupt (bad bytes, bad header, bad payload) and
    /// deleted.
    pub corrupt: u64,
}

impl DiskStats {
    /// True when no counter has moved (e.g. a session without a disk layer).
    pub fn is_empty(&self) -> bool {
        *self == DiskStats::default()
    }
}

/// Outcome of one typed lookup.
pub enum Lookup<T> {
    /// Entry existed, validated, and decoded.
    Hit(T),
    /// No entry on disk.
    Miss,
    /// Entry existed but was unreadable/invalid; it has been deleted and
    /// counted, and the caller should recompute.
    Corrupt,
}

impl<T> Lookup<T> {
    /// Convert a hit's artifact, keeping misses and corruption as they are.
    pub(crate) fn map<U>(self, f: impl FnOnce(T) -> U) -> Lookup<U> {
        match self {
            Lookup::Hit(v) => Lookup::Hit(f(v)),
            Lookup::Miss => Lookup::Miss,
            Lookup::Corrupt => Lookup::Corrupt,
        }
    }
}

/// Result of one [`DiskCache::gc`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcResult {
    /// Entries examined.
    pub examined: u64,
    /// Entries removed.
    pub evicted: u64,
    /// Store size before the pass, bytes.
    pub bytes_before: u64,
    /// Store size after the pass, bytes.
    pub bytes_after: u64,
}

/// Per-stage usage row reported by [`DiskCache::usage`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UsageRow {
    /// Stage directory label.
    pub stage: &'static str,
    /// Number of entries.
    pub entries: u64,
    /// Total bytes.
    pub bytes: u64,
}

/// The content-addressed on-disk artifact store.
///
/// All operations are best-effort: I/O failures degrade to cache misses
/// or skipped stores, never to pipeline errors — the pipeline can always
/// recompute.
pub struct DiskCache {
    root: PathBuf,
    /// Tenant namespace folded into every entry key (`""` = the default
    /// namespace, whose keys are identical to a pre-namespace store).
    namespace: String,
    /// Build identity folded into every entry key: [`BUILD_ID`], except
    /// where a test plays another build.
    build: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
    corrupt: AtomicU64,
}

impl std::fmt::Debug for DiskCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskCache")
            .field("root", &self.root)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Stages whose artifacts are persisted to disk, cheapest-to-recompute
/// first ([`DiskCache::gc`] breaks recency ties in this order).
/// Directives, Plan, and Verify artifacts are cheap derivations of these
/// and stay memory-only.
pub const DISK_STAGES: [Stage; 4] = [
    Stage::Frontend,
    Stage::Analysis,
    Stage::Instrument,
    Stage::Execute,
];

impl DiskCache {
    /// Open (lazily — directories are created on first store) a cache
    /// rooted at `root`, in the default (empty) tenant namespace.
    pub fn new(root: impl Into<PathBuf>) -> DiskCache {
        DiskCache::with_namespace(root, "")
    }

    /// Open a cache rooted at `root` whose entry keys are folded with the
    /// tenant namespace `namespace`. Two caches over the same root with
    /// different namespaces address disjoint key sets: one tenant's
    /// entries are plain misses for every other tenant (the multi-tenant
    /// isolation layer behind `openarc serve`). The empty namespace
    /// addresses exactly the keys [`DiskCache::new`] does.
    pub fn with_namespace(root: impl Into<PathBuf>, namespace: impl Into<String>) -> DiskCache {
        DiskCache {
            root: root.into(),
            namespace: namespace.into(),
            build: BUILD_ID,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// Root directory of the store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Tenant namespace this handle addresses (`""` = default).
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    /// Snapshot of this process's traffic counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }

    /// Entry key: the artifact's content hash folded with the build
    /// identity and (when non-empty) the tenant namespace, so another
    /// build's entries — and other tenants' — are simply never addressed.
    /// The empty namespace writes nothing into the hash.
    fn entry_key(&self, stage: Stage, id: ArtifactId) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.build)
            .write_str(stage.label())
            .write_u64(id.0);
        if !self.namespace.is_empty() {
            h.write_str("tenant").write_str(&self.namespace);
        }
        h.finish()
    }

    fn entry_path(&self, stage: Stage, key: u64) -> PathBuf {
        self.root
            .join(stage.label())
            .join(format!("{key:016x}.bin"))
    }

    /// Re-touch an entry's mtime for LRU: [`DiskCache::gc`] evicts
    /// oldest-mtime entries first.
    fn touch(path: &Path) {
        if let Ok(f) = fs::File::open(path) {
            let _ = f.set_modified(SystemTime::now());
        }
    }

    /// Look up `(stage, id)`: read `<key>.bin` and decode it. An absent
    /// file is a miss; any decode failure deletes the offending file and
    /// reports [`Lookup::Corrupt`] — the caller recomputes.
    fn load_entry<T>(
        &self,
        stage: Stage,
        id: ArtifactId,
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Lookup<T> {
        let path = self.entry_path(stage, self.entry_key(stage, id));
        let Ok(bytes) = fs::read(&path) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Lookup::Miss;
        };
        match decode(&bytes) {
            Ok(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Self::touch(&path);
                Lookup::Hit(v)
            }
            Err(_) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&path);
                Lookup::Corrupt
            }
        }
    }

    /// Look up a frontend artifact.
    pub fn load_frontend(&self, id: ArtifactId) -> Lookup<FrontendArtifact> {
        self.load_entry(Stage::Frontend, id, |bytes| bin::decode_frontend(id, bytes))
    }

    /// Look up a translation artifact stored under `stage`
    /// ([`Stage::Analysis`] or [`Stage::Instrument`]).
    pub fn load_translated(&self, stage: Stage, id: ArtifactId) -> Lookup<TranslatedArtifact> {
        self.load_entry(stage, id, |bytes| bin::decode_translated(stage, id, bytes))
    }

    /// Look up a finished run (surface + journal events).
    pub fn load_run(&self, id: ArtifactId) -> Lookup<(RunResult, Vec<TraceEvent>)> {
        self.load_entry(Stage::Execute, id, |bytes| bin::decode_run(id, bytes))
    }

    /// Publish a frontend artifact. Returns true when this call wrote the
    /// entry (false: lock held by a live concurrent writer, or I/O
    /// failure — both benign); likewise for the other stores.
    pub fn store_frontend(&self, art: &FrontendArtifact) -> bool {
        self.store_bytes(Stage::Frontend, art.id, &bin::encode_frontend(art))
    }

    /// Publish a translation artifact under `stage` ([`Stage::Analysis`]
    /// or [`Stage::Instrument`]).
    pub fn store_translated(&self, stage: Stage, art: &TranslatedArtifact) -> bool {
        self.store_bytes(stage, art.id, &bin::encode_translated(stage, art))
    }

    /// Publish a finished run (surface + journal events).
    pub fn store_run(&self, id: ArtifactId, r: &RunResult, events: &[TraceEvent]) -> bool {
        self.store_bytes(Stage::Execute, id, &bin::encode_run(id, r, events))
    }

    /// Atomically publish entry bytes for `(stage, id)`: private temp
    /// file, fsync, rename, under the entry's `<key>.lock` writer lock.
    fn store_bytes(&self, stage: Stage, id: ArtifactId, bytes: &[u8]) -> bool {
        let key = self.entry_key(stage, id);
        let path = self.entry_path(stage, key);
        let Some(dir) = path.parent() else {
            return false;
        };
        if fs::create_dir_all(dir).is_err() {
            return false;
        }
        let lock = path.with_extension("lock");
        if !Self::acquire_lock(&lock) {
            return false;
        }
        let tmp = dir.join(format!(".tmp-{key:016x}-{}", std::process::id()));
        let ok = (|| -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, &path)
        })()
        .is_ok();
        if !ok {
            let _ = fs::remove_file(&tmp);
        }
        let _ = fs::remove_file(&lock);
        if ok {
            self.stores.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Take the advisory per-entry writer lock. A held lock younger than
    /// [`STALE_LOCK`] means a live writer is publishing the same content —
    /// skip. An older one is an abandoned writer: take it over.
    fn acquire_lock(lock: &Path) -> bool {
        for _ in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(lock)
            {
                Ok(_) => return true,
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if Self::is_stale(lock) {
                        let _ = fs::remove_file(lock);
                        continue;
                    }
                    return false;
                }
                Err(_) => return false,
            }
        }
        false
    }

    fn is_stale(path: &Path) -> bool {
        match fs::metadata(path).and_then(|m| m.modified()) {
            Ok(mtime) => SystemTime::now()
                .duration_since(mtime)
                .map(|age| age > STALE_LOCK)
                .unwrap_or(false),
            // Metadata unreadable: the file likely vanished between the
            // existence check and here — retrying create_new is safe.
            Err(_) => true,
        }
    }

    /// Every entry in the store, unsorted: each file in a stage directory
    /// that is not a writer lock or temp file (whatever its name — see the
    /// module docs). Abandoned locks and temp files are swept as a side
    /// effect; live ones are left to their writers.
    fn entries(&self) -> Vec<Entry> {
        let mut out = Vec::new();
        for (stage, dir) in DISK_STAGES.iter().enumerate() {
            let Ok(rd) = fs::read_dir(self.root.join(dir.label())) else {
                continue;
            };
            for file in rd.flatten() {
                let path = file.path();
                let name = file.file_name();
                let name = name.to_string_lossy();
                if name.starts_with(".tmp-") || name.ends_with(".lock") {
                    if Self::is_stale(&path) {
                        let _ = fs::remove_file(&path);
                    }
                    continue;
                }
                match file.metadata() {
                    Ok(meta) if meta.is_file() => out.push(Entry {
                        stage,
                        path,
                        bytes: meta.len(),
                        mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                    }),
                    _ => {}
                }
            }
        }
        out
    }

    /// Per-stage entry counts and sizes.
    pub fn usage(&self) -> Vec<UsageRow> {
        let mut rows = DISK_STAGES.map(|stage| UsageRow {
            stage: stage.label(),
            ..Default::default()
        });
        for entry in self.entries() {
            rows[entry.stage].entries += 1;
            rows[entry.stage].bytes += entry.bytes;
        }
        rows.to_vec()
    }

    /// Cost-aware LRU eviction pass: delete least-valuable entries until
    /// the store holds at most `max_bytes`.
    ///
    /// Eviction order is least-recently-touched first, with recency
    /// compared at whole-second granularity; inside one second the
    /// cheaper-to-recompute stage goes first (its position in
    /// [`DISK_STAGES`], cheapest-first: a Frontend parse re-runs in
    /// microseconds, an Execute artifact replays a whole simulated run),
    /// then exact mtime. The coarse bucket is deliberate: hits re-touch
    /// entries, so sub-second mtime deltas mostly record directory-walk
    /// and publish order — at that resolution "which artifact costs more
    /// to rebuild" is the better signal, and a pipeline that stored a
    /// Frontend parse and an Execute run in the same second keeps the
    /// run.
    pub fn gc(&self, max_bytes: u64) -> GcResult {
        let whole_secs = |t: &SystemTime| {
            t.duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0)
        };
        let mut entries = self.entries();
        entries.sort_by_key(|e| (whole_secs(&e.mtime), e.stage, e.mtime));
        let bytes_before: u64 = entries.iter().map(|e| e.bytes).sum();
        let mut result = GcResult {
            examined: entries.len() as u64,
            evicted: 0,
            bytes_before,
            bytes_after: bytes_before,
        };
        for entry in entries {
            if result.bytes_after <= max_bytes {
                break;
            }
            if fs::remove_file(&entry.path).is_ok() {
                result.evicted += 1;
                result.bytes_after -= entry.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Delete every entry (and abandoned temp/lock file). Returns the
    /// number of entries removed.
    pub fn clear(&self) -> u64 {
        self.entries()
            .iter()
            .filter(|e| fs::remove_file(&e.path).is_ok())
            .count() as u64
    }
}

/// One file of the store, as listed by [`DiskCache::entries`].
struct Entry {
    /// Position of the entry's stage in [`DISK_STAGES`], which is ordered
    /// cheapest-to-recompute first — so this is also its eviction rank.
    stage: usize,
    path: PathBuf,
    bytes: u64,
    mtime: SystemTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecOptions};
    use crate::translate::{translate, TranslateOptions};
    use openarc_trace::bin::MAX_NESTING;
    use std::sync::atomic::AtomicU32;

    /// A fresh per-test cache root under the system temp dir.
    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "openarc-cache-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    // Small but real artifacts of each persisted kind.

    fn frontend_artifact(id: u64) -> FrontendArtifact {
        let (program, sema) = openarc_minic::frontend("int x;\nvoid main() { x = 1; }").unwrap();
        FrontendArtifact {
            id: ArtifactId(id),
            program,
            sema,
        }
    }

    fn translated_artifact(id: u64) -> TranslatedArtifact {
        let fe = frontend_artifact(id);
        TranslatedArtifact {
            id: fe.id,
            instrumented: false,
            tr: translate(&fe.program, &fe.sema, &TranslateOptions::default()).unwrap(),
        }
    }

    fn run_result() -> RunResult {
        execute(&translated_artifact(0).tr, &ExecOptions::default()).unwrap()
    }

    fn is_hit<T>(got: Lookup<T>) -> bool {
        matches!(got, Lookup::Hit(_))
    }

    #[test]
    fn store_then_load_round_trips_and_counts() {
        let cache = DiskCache::new(scratch("roundtrip"));
        let art = frontend_artifact(7);
        assert!(matches!(cache.load_frontend(art.id), Lookup::Miss));
        assert!(cache.store_frontend(&art));
        let key = cache.entry_key(Stage::Frontend, art.id);
        assert!(cache.entry_path(Stage::Frontend, key).exists());
        match cache.load_frontend(art.id) {
            Lookup::Hit(back) => assert_eq!(back.program, art.program),
            _ => panic!("expected hit"),
        }
        // Same id under a different stage is a different entry.
        assert!(matches!(cache.load_run(art.id), Lookup::Miss));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 2, 1));
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corrupt_entries_are_deleted_and_recomputable() {
        // Garbage, truncated, flipped-magic, and empty files, a wrong
        // format version, and a well-formed entry holding some other
        // artifact: all Corrupt, all deleted, none panic.
        let cache = DiskCache::new(scratch("corrupt"));
        let art = frontend_artifact(5);
        let key = cache.entry_key(Stage::Frontend, art.id);
        let path = cache.entry_path(Stage::Frontend, key);
        let original = bin::encode_frontend(&art);
        let truncated = original[..original.len() / 2].to_vec();
        let mut flipped = original.clone();
        flipped[0] ^= 0xff;
        let mut wrong_version = original.clone();
        wrong_version[8..12].copy_from_slice(&(bin::FORMAT_VERSION + 1).to_le_bytes());
        let wrong_artifact = bin::encode_frontend(&frontend_artifact(6));
        let shapes = [
            b"junk".to_vec(),
            truncated,
            flipped,
            Vec::new(),
            wrong_version,
            wrong_artifact,
        ];
        for bytes in &shapes {
            assert!(cache.store_frontend(&art));
            fs::write(&path, bytes).unwrap();
            assert!(matches!(cache.load_frontend(art.id), Lookup::Corrupt));
            assert!(!path.exists(), "corrupt entry must be deleted");
            // The stage recomputes and re-stores cleanly.
            assert!(cache.store_frontend(&art));
            assert!(is_hit(cache.load_frontend(art.id)));
        }
        assert_eq!(cache.stats().corrupt, shapes.len() as u64);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn gc_evicts_least_recently_used_first() {
        let cache = DiskCache::new(scratch("gc"));
        for n in 0..4u64 {
            assert!(cache.store_frontend(&frontend_artifact(n)));
        }
        // Backdate entries 0..3 in order; then touch entry 0 via a hit so
        // it becomes the newest and survives eviction.
        let now = SystemTime::now();
        for n in 0..4u64 {
            let key = cache.entry_key(Stage::Frontend, ArtifactId(n));
            let f = fs::File::open(cache.entry_path(Stage::Frontend, key)).unwrap();
            f.set_modified(now - Duration::from_secs(100 - n)).unwrap();
        }
        assert!(is_hit(cache.load_frontend(ArtifactId(0))));
        let one_entry = cache.usage().iter().map(|r| r.bytes).sum::<u64>() / 4;
        let gc = cache.gc(2 * one_entry);
        assert_eq!(gc.examined, 4);
        assert_eq!(gc.evicted, 2);
        assert!(gc.bytes_after <= 2 * one_entry && gc.bytes_before > gc.bytes_after);
        // Oldest-touched (1, 2) went; recently-hit 0 and newest 3 remain.
        for (n, hit) in [(0u64, true), (1, false), (2, false), (3, true)] {
            assert_eq!(is_hit(cache.load_frontend(ArtifactId(n))), hit, "entry {n}");
        }
        assert_eq!(cache.stats().evictions, 2);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn gc_prefers_evicting_cheap_stages_at_equal_recency() {
        // A Frontend parse and an Execute run land in the same one-second
        // recency bucket, the Execute entry strictly older by exact
        // mtime. A plain LRU-by-mtime policy would evict the expensive
        // Execute artifact first; the cost-aware order must keep it and
        // evict the Frontend parse instead.
        let cache = DiskCache::new(scratch("gc-cost"));
        assert!(cache.store_frontend(&frontend_artifact(1)));
        assert!(cache.store_run(ArtifactId(2), &run_result(), &[]));
        // Pin both mtimes inside one second, Execute older than Frontend.
        let secs = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .unwrap()
            .as_secs();
        let bucket = SystemTime::UNIX_EPOCH + Duration::from_secs(secs);
        let touch = |stage: Stage, id: ArtifactId, offset_ms: u64| {
            let key = cache.entry_key(stage, id);
            let f = fs::File::open(cache.entry_path(stage, key)).unwrap();
            f.set_modified(bucket + Duration::from_millis(offset_ms))
                .unwrap();
        };
        touch(Stage::Execute, ArtifactId(2), 100);
        touch(Stage::Frontend, ArtifactId(1), 800);
        let total = cache.usage().iter().map(|r| r.bytes).sum::<u64>();
        let gc = cache.gc(total - 1);
        assert_eq!(gc.examined, 2);
        assert_eq!(gc.evicted, 1);
        assert!(matches!(cache.load_frontend(ArtifactId(1)), Lookup::Miss));
        assert!(is_hit(cache.load_run(ArtifactId(2))));
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn clear_empties_the_store() {
        let cache = DiskCache::new(scratch("clear"));
        for n in 0..3u64 {
            assert!(cache.store_translated(Stage::Analysis, &translated_artifact(n)));
        }
        assert_eq!(cache.clear(), 3);
        assert!(cache.usage().iter().all(|r| r.entries == 0));
        assert!(matches!(
            cache.load_translated(Stage::Analysis, ArtifactId(0)),
            Lookup::Miss
        ));
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn concurrent_writers_of_the_same_entry_are_safe() {
        // Two threads race to publish the same content-addressed entry;
        // at least one wins, and the result decodes cleanly either way.
        let cache = DiskCache::new(scratch("race"));
        let run = run_result();
        let start = std::sync::Barrier::new(2);
        let publish = || {
            start.wait();
            cache.store_run(ArtifactId(1), &run, &[])
        };
        let wins = std::thread::scope(|s| {
            let (a, b) = (s.spawn(publish), s.spawn(publish));
            [a.join().unwrap(), b.join().unwrap()]
        });
        assert!(wins.iter().any(|w| *w), "at least one writer publishes");
        assert!(is_hit(cache.load_run(ArtifactId(1))));
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn leftover_files_are_never_read_and_age_out() {
        // A pre-OARCBIN store's `<key>.json` next to a valid `<key>.bin`.
        let cache = DiskCache::new(scratch("leftover"));
        let art = frontend_artifact(11);
        assert!(cache.store_frontend(&art));
        let bin_path = cache.entry_path(Stage::Frontend, cache.entry_key(Stage::Frontend, art.id));
        let json_path = bin_path.with_extension("json");
        let leftover = "{\"schema\": 1, \"not\": \"an entry\"}";
        fs::write(&json_path, leftover).unwrap();

        // The lookup is served from `.bin`; without it the key is plainly
        // absent — the leftover is neither decoded nor flagged corrupt.
        assert!(is_hit(cache.load_frontend(art.id)));
        let bin_bytes = fs::metadata(&bin_path).unwrap().len();
        fs::remove_file(&bin_path).unwrap();
        assert!(matches!(cache.load_frontend(art.id), Lookup::Miss));
        assert_eq!(cache.stats().corrupt, 0);
        assert_eq!(fs::read_to_string(&json_path).unwrap(), leftover);

        // It still counts toward the store's size, and gc/clear evict it.
        assert!(cache.store_frontend(&art));
        let row = cache.usage()[0];
        assert_eq!(
            (row.stage, row.entries, row.bytes),
            ("frontend", 2, bin_bytes + leftover.len() as u64)
        );
        assert_eq!(cache.gc(0).evicted, 2);
        assert!(!json_path.exists() && !bin_path.exists());
        fs::write(&json_path, leftover).unwrap();
        assert_eq!(cache.clear(), 1);
        assert!(!json_path.exists());
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn tenant_namespaces_are_disjoint() {
        // Same root, same artifact id, three namespaces: each handle
        // addresses its own key, so one tenant's warm entries are plain
        // misses for every other tenant and for the default namespace.
        let root = scratch("tenant");
        let a = DiskCache::with_namespace(&root, "tenant-a");
        let b = DiskCache::with_namespace(&root, "tenant-b");
        let default = DiskCache::new(&root);
        let art = frontend_artifact(7);
        assert_ne!(
            a.entry_key(Stage::Frontend, art.id),
            b.entry_key(Stage::Frontend, art.id)
        );
        assert_ne!(
            a.entry_key(Stage::Frontend, art.id),
            default.entry_key(Stage::Frontend, art.id)
        );
        assert!(a.store_frontend(&art));
        assert!(is_hit(a.load_frontend(art.id)));
        assert!(matches!(b.load_frontend(art.id), Lookup::Miss));
        assert!(matches!(default.load_frontend(art.id), Lookup::Miss));
        // The default namespace is the identity: a second handle made via
        // `new` reads what the first wrote.
        assert!(default.store_run(art.id, &run_result(), &[]));
        let again = DiskCache::new(&root);
        assert!(is_hit(again.load_run(art.id)));
        let _ = fs::remove_dir_all(&root);
    }

    /// A frontend entry whose `x = !x` holds `levels` nested `!`s, spliced
    /// in as bytes: building the tree itself would recurse that deep.
    fn deep_frontend_entry(levels: usize) -> (ArtifactId, Vec<u8>) {
        use openarc_minic::ast::{ExprKind, Item, StmtKind};
        use openarc_trace::bin::{Wire, Writer};
        let (program, sema) = openarc_minic::frontend("int x;\nvoid main() { x = !x; }").unwrap();
        let Item::Func(f) = &program.items[1] else {
            panic!("main is the second item")
        };
        let StmtKind::Assign { value, .. } = &f.body.stmts[0].kind else {
            panic!("an assignment")
        };
        let ExprKind::Unary { expr: leaf, .. } = &value.kind else {
            panic!("a prefix operator")
        };
        let encode = |e: &openarc_minic::ast::Expr| {
            let mut w = Writer::new();
            e.put(&mut w);
            w.into_bytes()
        };
        let (node, leaf) = (encode(value), encode(leaf));
        // The leaf is encoded last, so a node's own bytes are a prefix.
        let chain = [node[..node.len() - leaf.len()].repeat(levels), leaf].concat();
        let art = FrontendArtifact {
            id: ArtifactId(9),
            program,
            sema,
        };
        let mut bytes = bin::encode_frontend(&art);
        let at = bytes.windows(node.len()).position(|w| w == node).unwrap();
        bytes.splice(at..at + node.len(), chain.iter().copied());
        // The program section's length follows its kind, after the header.
        let len_at = bin::HEADER_LEN + 4;
        let len = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap());
        let len = len + (chain.len() - node.len()) as u64;
        bytes[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
        (art.id, bytes)
    }

    #[test]
    fn a_tree_nested_past_the_decode_limit_loads_as_corrupt() {
        // On the stack of an `openarc serve` connection: the entry is
        // refused at the nesting limit, deleted and counted, never an
        // overflow. One level deep, the same splice loads.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let cache = DiskCache::new(scratch("deep"));
                let path = cache.entry_path(
                    Stage::Frontend,
                    cache.entry_key(Stage::Frontend, ArtifactId(9)),
                );
                for (levels, loads) in [(1, true), (200_000, false)] {
                    let (id, bytes) = deep_frontend_entry(levels);
                    assert!(cache.store_frontend(&frontend_artifact(id.0)));
                    fs::write(&path, &bytes).unwrap();
                    assert_eq!(is_hit(cache.load_frontend(id)), loads, "{levels} levels");
                    let err = bin::decode_frontend(id, &bytes).err().unwrap_or_default();
                    let refused = format!("nesting deeper than {MAX_NESTING} levels");
                    assert_eq!(err.contains(&refused), !loads, "{err}");
                }
                assert_eq!(cache.stats().corrupt, 1);
                assert!(!path.exists(), "the corrupt entry is deleted");
                let _ = fs::remove_dir_all(cache.root());
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn another_builds_entries_are_misses() {
        // One root, two builds: what the other build stored is a plain
        // miss here — never decoded, never counted corrupt — and its
        // entries stay readable by that build.
        let root = scratch("build");
        let ours = DiskCache::new(&root);
        let theirs = DiskCache {
            build: BUILD_ID ^ 1,
            ..DiskCache::new(&root)
        };
        let art = frontend_artifact(3);
        assert!(theirs.store_frontend(&art));
        assert!(theirs.store_run(art.id, &run_result(), &[]));
        assert!(matches!(ours.load_frontend(art.id), Lookup::Miss));
        assert!(matches!(ours.load_run(art.id), Lookup::Miss));
        assert_eq!((ours.stats().misses, ours.stats().corrupt), (2, 0));
        assert!(is_hit(theirs.load_frontend(art.id)));
        assert!(is_hit(theirs.load_run(art.id)));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn usage_reports_per_stage_rows() {
        let cache = DiskCache::new(scratch("usage"));
        assert!(cache.store_frontend(&frontend_artifact(1)));
        assert!(cache.store_run(ArtifactId(2), &run_result(), &[]));
        let usage = cache.usage();
        assert_eq!(usage.len(), DISK_STAGES.len());
        for row in &usage {
            let expect = u64::from(row.stage == "frontend" || row.stage == "execute");
            assert_eq!(row.entries, expect, "{}", row.stage);
            assert_eq!(row.bytes > 0, expect == 1);
        }
        let _ = fs::remove_dir_all(cache.root());
    }
}
