//! Std-only concurrency for the fuzzer and the serve daemon.
//!
//! The simulator is deterministic and single-threaded per run, so a batch
//! of whole runs parallelizes at run granularity. [`run_tasks`] fans a
//! vector of closures over scoped worker threads ([`std::thread::scope`];
//! no dependencies, no unsafe) and returns results **in task order**, so
//! callers observe output identical to a sequential loop regardless of
//! worker interleaving; `openarc fuzz --jobs N` runs its campaign rounds
//! on it. [`Gate`] is the admission bound behind `openarc serve --jobs N`:
//! each request runs on its own connection thread once the gate lets it
//! in.
//!
//! Every lock here guards only counters or an iterator, which no panic can
//! leave half-updated, so a poisoned lock is taken as is.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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
/// Workers claim one task at a time from a shared iterator and keep their
/// `(index, result)` pairs until they run out; the caller sorts the pairs
/// back into task order. A panicking task does not poison the pool:
/// remaining tasks still run, and the first panic (in task order) is
/// re-raised on the caller after all workers join.
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
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let mut done: Vec<(usize, std::thread::Result<T>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Its own statement, so the lock is released
                        // before the task runs.
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((i, task)) = next else {
                            return done;
                        };
                        done.push((i, catch_unwind(AssertUnwindSafe(task))));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter()
        .map(|(_, r)| r.unwrap_or_else(|panic| resume_unwind(panic)))
        .collect()
}

/// Admission refusal from [`Gate::enter`]: `capacity` callers are already
/// waiting. Carries the depth observed at refusal so the caller can size
/// a retry-after hint (depth × recent service time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// Callers waiting (excluding those already running) when refused.
    pub depth: usize,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work queue full ({} jobs waiting)", self.depth)
    }
}

impl std::error::Error for QueueFull {}

#[derive(Default)]
struct GateState {
    /// Tickets handed out so far; a caller's ticket is its arrival order.
    issued: u64,
    /// Tickets that have started; the next to start is ticket `started`.
    started: u64,
    /// Permits alive.
    running: usize,
}

impl GateState {
    fn waiting(&self) -> usize {
        (self.issued - self.started) as usize
    }
}

/// The admission bound of the `openarc serve` daemon: at most `workers`
/// callers run at once, at most `capacity` more wait, and waiters start
/// in arrival order.
///
/// The work runs on the caller's own thread; the gate only counts.
/// [`Gate::enter`] refuses at once with [`QueueFull`] when `capacity`
/// callers are already waiting, and otherwise blocks until its turn,
/// returning a [`Permit`] whose drop (unwinding included) frees the slot.
///
/// ```
/// use openarc_core::sched::Gate;
/// let gate = Gate::new(1, 16);
/// let permit = gate.enter().unwrap();
/// assert_eq!(gate.running(), 1);
/// drop(permit); // the slot is free again
/// assert_eq!(gate.running(), 0);
/// ```
pub struct Gate {
    state: Mutex<GateState>,
    /// Signalled whenever a slot frees or a waiter starts.
    turn: Condvar,
    workers: usize,
    capacity: usize,
}

/// A running slot of a [`Gate`], freed on drop.
pub struct Permit<'a>(&'a Gate);

impl Gate {
    /// A gate letting `workers` callers (min 1) run at once and `capacity`
    /// more (min 1) wait.
    pub fn new(workers: usize, capacity: usize) -> Gate {
        Gate {
            state: Mutex::default(),
            turn: Condvar::new(),
            workers: workers.max(1),
            capacity: capacity.max(1),
        }
    }

    fn state(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait for a running slot, in arrival order, or refuse with
    /// [`QueueFull`] if `capacity` callers are already waiting.
    pub fn enter(&self) -> Result<Permit<'_>, QueueFull> {
        let mut st = self.state();
        let depth = st.waiting();
        if depth >= self.capacity {
            return Err(QueueFull { depth });
        }
        let ticket = st.issued;
        st.issued += 1;
        // A waiter never gives its ticket up, so every ticket starts.
        while st.started != ticket || st.running >= self.workers {
            st = self.turn.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.started += 1;
        st.running += 1;
        drop(st);
        // The next ticket may fit in another free slot.
        self.turn.notify_all();
        Ok(Permit(self))
    }

    /// Callers holding a permit.
    pub fn running(&self) -> usize {
        self.state().running
    }

    /// Callers waiting for a permit.
    pub fn depth(&self) -> usize {
        self.state().waiting()
    }

    /// The waiting bound this gate was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.state().running -= 1;
        self.0.turn.notify_all();
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
    fn gate_refuses_when_full_and_recovers() {
        // One slot held here; capacity 2 means the third *waiting* caller
        // is refused with the observed depth.
        let gate = Gate::new(1, 2);
        let held = gate.enter().unwrap();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| drop(gate.enter().unwrap()));
            }
            while gate.depth() < 2 {
                std::thread::yield_now();
            }
            let err = gate.enter().err().unwrap();
            assert_eq!(err, QueueFull { depth: 2 });
            assert!(err.to_string().contains("2 jobs waiting"));
            // Freeing the slot drains the waiters.
            drop(held);
        });
        assert_eq!((gate.depth(), gate.running()), (0, 0));
        assert!(gate.enter().is_ok());
    }

    #[test]
    fn gate_clamps_degenerate_sizes() {
        let gate = Gate::new(0, 0);
        assert_eq!(gate.capacity(), 1);
        drop(gate.enter().unwrap());
        assert!(gate.enter().is_ok());
    }

    #[test]
    fn gate_starts_waiters_in_arrival_order() {
        let gate = Gate::new(1, 8);
        let order = Mutex::new(Vec::new());
        let held = gate.enter().unwrap();
        std::thread::scope(|s| {
            for id in 0..6 {
                let (gate, order) = (&gate, &order);
                s.spawn(move || {
                    let _permit = gate.enter().unwrap();
                    order.lock().unwrap().push(id);
                });
                // Let waiter `id` take its ticket before the next arrives.
                while gate.depth() <= id {
                    std::thread::yield_now();
                }
            }
            drop(held);
        });
        assert_eq!(order.into_inner().unwrap(), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn gate_frees_a_slot_when_a_permit_unwinds() {
        let gate = Gate::new(1, 1);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _permit = gate.enter().unwrap();
            panic!("request exploded");
        }));
        assert!(r.is_err());
        assert_eq!(gate.running(), 0);
        assert!(gate.enter().is_ok(), "the next caller enters");
    }

    #[test]
    fn gate_bounds_concurrent_callers() {
        use std::sync::atomic::AtomicUsize;
        let gate = Gate::new(3, 64);
        let now = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..24 {
                s.spawn(|| {
                    let _permit = gate.enter().unwrap();
                    peak.fetch_max(now.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    now.fetch_sub(1, Ordering::SeqCst);
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 24, "every caller ran");
        assert!(peak.load(Ordering::SeqCst) <= 3, "over `workers` at once");
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
