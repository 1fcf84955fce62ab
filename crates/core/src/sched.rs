//! Std-only worker pools for the fuzzer and the serve daemon.
//!
//! The simulator is deterministic and single-threaded per run, so a batch
//! of whole runs parallelizes at run granularity. [`run_tasks`] fans a
//! vector of closures over a fixed worker pool built on
//! [`std::thread::scope`] (no dependencies, no unsafe) and returns results
//! **in task order**, so callers observe output identical to a sequential
//! loop regardless of worker interleaving; `openarc fuzz --jobs N` runs its
//! campaign rounds on it. [`WorkQueue`] is the bounded admission pool
//! behind `openarc serve --jobs N`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Number of workers the host can usefully run (`available_parallelism`,
/// falling back to 1 when the platform cannot say).
pub fn auto_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Upper bound accepted for `--jobs` (beyond this more workers gain
/// nothing and thread overhead dominates).
pub const MAX_JOBS: usize = 512;

/// Parse a `--jobs` argument: a positive integer, `0`, or `auto` (both
/// meaning [`auto_jobs`]). Returns a user-facing message on bad input.
pub fn parse_jobs(s: &str) -> Result<usize, String> {
    if s == "auto" {
        return Ok(auto_jobs());
    }
    match s.parse::<usize>() {
        Ok(0) => Ok(auto_jobs()),
        Ok(n) if n <= MAX_JOBS => Ok(n),
        Ok(n) => Err(format!("--jobs must be between 1 and {MAX_JOBS} (got {n})")),
        Err(_) => Err(format!(
            "--jobs expects a positive integer or 'auto' (got '{s}')"
        )),
    }
}

/// Run `tasks` across up to `jobs` worker threads and return their results
/// in task order.
///
/// `jobs <= 1` (or a single task) degenerates to an inline sequential loop
/// on the calling thread — byte-identical behaviour, zero thread overhead.
///
/// Workers self-schedule in **guided chunks**: each claims
/// `max(1, remaining / (2 × workers))` consecutive task indices under one
/// lock acquisition, so a matrix of fine-grained cells does not pay one
/// mutex round-trip per task — early chunks are large (low overhead), the
/// final chunks shrink to single tasks (good load balance, so an expensive
/// task never strands cheap ones behind it). Each worker buffers its
/// `(index, result)` pairs locally and publishes them with one lock at
/// exit, so result collection adds one acquisition per worker, not per
/// task. A panicking task does not poison the pool: remaining tasks still
/// run, and the first panic (in task order) is re-raised on the caller
/// after all workers join.
///
/// ```
/// use openarc_core::sched::run_tasks;
/// let tasks: Vec<_> = (0..8).map(|i| move || i * i).collect();
/// assert_eq!(run_tasks(4, tasks), vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn run_tasks<T, F>(jobs: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    if jobs <= 1 || n <= 1 {
        return tasks.into_iter().map(|f| f()).collect();
    }
    let workers = jobs.min(n);
    struct Queue<F> {
        tasks: Vec<Option<F>>,
        next: usize,
    }
    let queue = Mutex::new(Queue {
        tasks: tasks.into_iter().map(Some).collect(),
        next: 0,
    });
    let results: Mutex<Vec<Option<std::thread::Result<T>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut chunk: Vec<(usize, F)> = Vec::new();
                let mut done: Vec<(usize, std::thread::Result<T>)> = Vec::new();
                loop {
                    {
                        let mut q = queue.lock().expect("sched queue poisoned");
                        let remaining = n - q.next;
                        if remaining == 0 {
                            break;
                        }
                        let take = (remaining / (2 * workers)).max(1);
                        let start = q.next;
                        q.next += take;
                        for i in start..start + take {
                            chunk.push((i, q.tasks[i].take().expect("task claimed twice")));
                        }
                    }
                    for (i, task) in chunk.drain(..) {
                        done.push((i, catch_unwind(AssertUnwindSafe(task))));
                    }
                }
                let mut slots = results.lock().expect("sched results poisoned");
                for (i, r) in done {
                    slots[i] = Some(r);
                }
            });
        }
    });
    results
        .into_inner()
        .expect("sched results poisoned")
        .into_iter()
        .map(|slot| match slot.expect("task never ran") {
            Ok(v) => v,
            Err(panic) => resume_unwind(panic),
        })
        .collect()
}

/// Admission refusal from [`WorkQueue::try_submit`]: the bounded queue
/// is at capacity. Carries the depth observed at refusal so the caller
/// can size a retry-after hint (depth × recent service time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// Jobs waiting (excluding those already running) when refused.
    pub depth: usize,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work queue full ({} jobs waiting)", self.depth)
    }
}

impl std::error::Error for QueueFull {}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct QueueInner {
    state: Mutex<QueueState>,
    /// Signalled when a job is enqueued or shutdown begins.
    available: Condvar,
    capacity: usize,
    /// Jobs whose closure panicked (the worker survives and keeps
    /// serving; the panic is contained, not resurfaced).
    panicked: AtomicUsize,
}

/// A persistent worker pool with a **bounded** submission queue — the
/// admission-control half of the `openarc serve` daemon.
///
/// Where [`run_tasks`] fans a known batch over short-lived scoped
/// threads, `WorkQueue` keeps `workers` threads alive for the life of
/// the pool and accepts jobs one at a time, refusing (never blocking)
/// when more than `capacity` jobs are already waiting: callers get a
/// [`QueueFull`] carrying the observed depth and decide whether to shed
/// load or retry later. A panicking job is contained to its worker
/// ([`WorkQueue::panicked`] counts them); dropping the pool finishes
/// every admitted job before the workers exit.
///
/// ```
/// use openarc_core::sched::WorkQueue;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
/// let pool = WorkQueue::new(2, 16);
/// let hits = Arc::new(AtomicUsize::new(0));
/// for _ in 0..8 {
///     let hits = hits.clone();
///     pool.try_submit(move || {
///         hits.fetch_add(1, Ordering::SeqCst);
///     })
///     .unwrap();
/// }
/// drop(pool); // joins the workers; every admitted job has run
/// assert_eq!(hits.load(Ordering::SeqCst), 8);
/// ```
pub struct WorkQueue {
    inner: Arc<QueueInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkQueue {
    /// Start a pool of `workers` threads (min 1) admitting at most
    /// `capacity` waiting jobs (min 1; running jobs don't count against
    /// the bound).
    pub fn new(workers: usize, capacity: usize) -> WorkQueue {
        let inner = Arc::new(QueueInner {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
            panicked: AtomicUsize::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut st = inner.state.lock().expect("work queue poisoned");
                        loop {
                            if let Some(job) = st.jobs.pop_front() {
                                break job;
                            }
                            if st.shutdown {
                                return;
                            }
                            st = inner.available.wait(st).expect("work queue poisoned");
                        }
                    };
                    if catch_unwind(AssertUnwindSafe(job)).is_err() {
                        inner.panicked.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        WorkQueue { inner, workers }
    }

    /// Enqueue `job`, or refuse with [`QueueFull`] if `capacity` jobs
    /// are already waiting. Never blocks the caller.
    pub fn try_submit<F>(&self, job: F) -> Result<(), QueueFull>
    where
        F: FnOnce() + Send + 'static,
    {
        let mut st = self.inner.state.lock().expect("work queue poisoned");
        if st.jobs.len() >= self.inner.capacity {
            return Err(QueueFull {
                depth: st.jobs.len(),
            });
        }
        st.jobs.push_back(Box::new(job));
        drop(st);
        self.inner.available.notify_one();
        Ok(())
    }

    /// Jobs admitted but not yet started.
    pub fn depth(&self) -> usize {
        self.inner
            .state
            .lock()
            .expect("work queue poisoned")
            .jobs
            .len()
    }

    /// The queue bound this pool was built with.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Jobs whose closure panicked (contained; the pool kept serving).
    pub fn panicked(&self) -> usize {
        self.inner.panicked.load(Ordering::Relaxed)
    }
}

impl Drop for WorkQueue {
    /// Graceful shutdown: admitted jobs all run, then workers exit.
    fn drop(&mut self) {
        self.inner
            .state
            .lock()
            .expect("work queue poisoned")
            .shutdown = true;
        self.inner.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn results_come_back_in_task_order() {
        // Tasks deliberately uneven: late indices finish first under
        // parallelism, yet output order must match input order.
        let tasks: Vec<_> = (0..32usize)
            .map(|i| {
                move || {
                    if i % 3 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    i * 10
                }
            })
            .collect();
        let got = run_tasks(8, tasks);
        assert_eq!(got, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let make = || (0..20usize).map(|i| move || i * i + 1).collect::<Vec<_>>();
        assert_eq!(run_tasks(1, make()), run_tasks(7, make()));
    }

    #[test]
    fn panic_propagates_after_all_tasks_run() {
        use std::sync::atomic::AtomicUsize;
        static DONE: AtomicUsize = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("task 3 exploded");
                    }
                    DONE.fetch_add(1, Ordering::SeqCst);
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let r = catch_unwind(AssertUnwindSafe(|| run_tasks(4, tasks)));
        assert!(r.is_err());
        assert_eq!(DONE.load(Ordering::SeqCst), 7, "other tasks still ran");
    }

    #[test]
    fn work_queue_runs_every_admitted_job() {
        use std::sync::atomic::AtomicUsize;
        let pool = WorkQueue::new(3, 64);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..40 {
            let done = done.clone();
            pool.try_submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn work_queue_refuses_when_full_and_recovers() {
        // One worker pinned on a gate; capacity 2 means the third
        // *waiting* job is refused with the observed depth.
        let pool = WorkQueue::new(1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = gate.clone();
        pool.try_submit(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
        .unwrap();
        // Wait until the worker has picked the gate job up, so the
        // queue depth is deterministic.
        while pool.depth() > 0 {
            std::thread::yield_now();
        }
        pool.try_submit(|| {}).unwrap();
        pool.try_submit(|| {}).unwrap();
        let err = pool.try_submit(|| {}).unwrap_err();
        assert_eq!(err, QueueFull { depth: 2 });
        assert!(err.to_string().contains("2 jobs waiting"));
        // Opening the gate drains the queue and admission resumes.
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        while pool.depth() >= pool.capacity() {
            std::thread::yield_now();
        }
        assert!(pool.try_submit(|| {}).is_ok());
    }

    #[test]
    fn work_queue_contains_job_panics() {
        use std::sync::atomic::AtomicUsize;
        let pool = WorkQueue::new(1, 8);
        let done = Arc::new(AtomicUsize::new(0));
        pool.try_submit(|| panic!("job exploded")).unwrap();
        let d = done.clone();
        pool.try_submit(move || {
            d.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        // Single worker, FIFO: once the second job has run, the first
        // has already panicked and been counted.
        while done.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        assert_eq!(pool.panicked(), 1);
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 1, "worker survived the panic");
    }

    #[test]
    fn work_queue_clamps_degenerate_sizes() {
        let pool = WorkQueue::new(0, 0);
        assert_eq!(pool.capacity(), 1);
        pool.try_submit(|| {}).unwrap();
        drop(pool);
    }

    #[test]
    fn parse_jobs_accepts_auto_and_rejects_garbage() {
        assert!(parse_jobs("auto").unwrap() >= 1);
        assert!(parse_jobs("0").unwrap() >= 1);
        assert_eq!(parse_jobs("4").unwrap(), 4);
        assert!(parse_jobs("banana").is_err());
        assert!(parse_jobs("-2").is_err());
        assert!(parse_jobs("100000").is_err());
    }
}
