//! `openarc serve`: a multi-tenant compile-and-verify daemon.
//!
//! The one-shot CLI pays the full pipeline on every invocation; an
//! interactive debugging session (the paper's whole premise) re-verifies
//! the same program dozens of times with small edits. This module keeps
//! the pipeline **warm** in a long-running process: clients connect over
//! TCP, send newline-framed JSON [`Request`]s, and
//! get back [`Response`]s rendered by the same [`crate::api::handle`]
//! entry point the CLI uses — so a served report is byte-identical to
//! `openarc <action>` on the same program, while repeat requests hit the
//! session caches.
//!
//! ## Wire protocol
//!
//! One JSON object per line, both directions (`\n`-terminated, no
//! pretty-printing on the wire; a line longer than
//! [`ServerConfig::max_frame`] is refused and the connection closed).
//! Each server→client line is rendered whole and leaves in one write on
//! a `TCP_NODELAY` socket, so no reply waits on the peer's delayed ACK.
//! Client→server lines are [`Request`]s (`action` = `run`/`cpu`/`check`/
//! `verify`/`profile`) plus two control actions: `{"action":"stats"}`
//! returns the daemon's counters and `{"action":"shutdown"}` stops the
//! daemon after acknowledging. Server→client lines are
//! `{"ok":true,"response":{...}}`, `{"ok":true,"stats":{...}}`,
//! `{"ok":true,"shutdown":true}`, or `{"ok":false,"error":{...}}` with a
//! structured [`ApiError`]. Malformed JSON gets an error line, never a
//! panic and never a dropped connection; only oversized frames and EOF
//! close the stream.
//!
//! ## Admission, tenancy, observability
//!
//! Each request runs on its own connection thread once a [`Gate`] lets
//! it in: at most [`ServerConfig::workers`] run at once and the rest wait
//! in arrival order. When [`ServerConfig::queue_capacity`] requests are
//! already waiting the daemon refuses with [`ErrorKind::Overloaded`] and
//! a `retry_after_ms` hint sized from the observed queue depth × recent
//! median service time — load is shed at the door, not by timing out
//! deep in the pipeline. A request carrying `deadline_ms` that cannot
//! *start* within its deadline is dropped once it gets its turn, with
//! [`ErrorKind::DeadlineExceeded`].
//! Each tenant id is routed to its own warm [`Session`] whose disk cache
//! lives in a per-tenant namespace of one shared store (the tenant id is
//! folded into every cache key), so tenants never observe each other's
//! artifacts. At most [`MAX_TENANTS`] sessions stay warm: past the cap
//! the least recently used idle tenant is evicted, its counters fold into
//! a retired total (so `stats` never goes backwards), and its disk
//! namespace survives, so it comes back warm from disk. A heartbeat
//! thread samples the same gauges the `stats` action reports and emits
//! them as [`EventKind::Serve`] events on the server journal (real
//! wall-clock offsets since daemon start).

use crate::api::{self, ApiError, ErrorKind, Request, Response};
use crate::pipeline::{PipelineStats, Session, Stage};
use crate::sched::Gate;
use openarc_trace::json::Json;
use openarc_trace::{EventKind, Journal, TraceEvent, Track};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Largest accepted request/response line, bytes (8 MiB — a full
/// journaled bench-scale response is well under 1 MiB).
pub const DEFAULT_MAX_FRAME: usize = 8 << 20;

/// How many recent per-request service times feed the p50/p95 gauges.
const SERVICE_WINDOW: usize = 256;

/// Most tenant sessions a daemon keeps warm. Creating one more evicts the
/// least recently used idle tenant; only tenants with requests in flight
/// can hold the map above the cap.
pub const MAX_TENANTS: usize = 64;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Requests run at once.
    pub workers: usize,
    /// Bounded admission queue: requests *waiting* beyond the running ones.
    pub queue_capacity: usize,
    /// Root of the shared content-addressed store; tenants get disjoint
    /// key namespaces inside it. `None` serves from memory only.
    pub cache_dir: Option<PathBuf>,
    /// Heartbeat period for [`EventKind::Serve`] gauge samples; `None`
    /// disables the heartbeat thread.
    pub stats_interval: Option<Duration>,
    /// Largest accepted wire line, bytes.
    pub max_frame: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            cache_dir: None,
            stats_interval: Some(Duration::from_millis(1000)),
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// Daemon-level counters behind the `stats` action and the heartbeat.
#[derive(Default)]
struct ServerStats {
    admitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    deadline_missed: AtomicU64,
    protocol_errors: AtomicU64,
    /// Ring of the last [`SERVICE_WINDOW`] request service times, µs.
    service_us: Mutex<VecDeque<u64>>,
}

impl ServerStats {
    /// The service ring. A push or pop cannot be left half done, so a
    /// poisoned lock is taken as is.
    fn service_ring(&self) -> MutexGuard<'_, VecDeque<u64>> {
        self.service_us
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn record_service(&self, us: u64) {
        let mut ring = self.service_ring();
        if ring.len() == SERVICE_WINDOW {
            ring.pop_front();
        }
        ring.push_back(us);
    }

    /// Nearest-rank p50/p95 over the recent-service window, µs.
    fn percentiles(&self) -> (u64, u64) {
        let ring = self.service_ring();
        if ring.is_empty() {
            return (0, 0);
        }
        let mut sorted: Vec<u64> = ring.iter().copied().collect();
        sorted.sort_unstable();
        let rank = |p: f64| {
            let idx = (p * sorted.len() as f64).ceil() as usize;
            sorted[idx.clamp(1, sorted.len()) - 1]
        };
        (rank(0.50), rank(0.95))
    }
}

/// A warm tenant session and the tick of its last request.
struct Tenant {
    session: Arc<Session>,
    last_used: u64,
}

/// The tenant sessions, capped at [`MAX_TENANTS`] by idle-LRU eviction.
#[derive(Default)]
struct TenantMap {
    /// One warm session per tenant id (`""` = the default tenant).
    live: HashMap<String, Tenant>,
    /// Bumped on every lookup; orders tenants by recency.
    tick: u64,
    /// Counters of the evicted sessions.
    retired: PipelineStats,
}

impl TenantMap {
    /// Evict least recently used idle tenants until one more fits under
    /// the cap. Returns the evicted sessions, to be dropped after the
    /// lock is released.
    fn make_room(&mut self) -> Vec<Arc<Session>> {
        let mut evicted = Vec::new();
        while self.live.len() >= MAX_TENANTS {
            // Under the map lock a count of 1 means no request holds the
            // session and none can fetch it, so its counters are final.
            let Some(victim) = self
                .live
                .iter()
                .filter(|(_, t)| Arc::strong_count(&t.session) == 1)
                .min_by_key(|(_, t)| t.last_used)
                .map(|(name, _)| name.clone())
            else {
                break;
            };
            let t = self.live.remove(&victim).expect("victim is live");
            self.retired.add(&t.session.stats());
            evicted.push(t.session);
        }
        evicted
    }
}

struct ServerInner {
    cfg: ServerConfig,
    tenants: Mutex<TenantMap>,
    gate: Gate,
    stats: ServerStats,
    /// Server-level journal carrying [`EventKind::Serve`] heartbeats.
    journal: Journal,
    start: Instant,
    /// Set by the `shutdown` action; checked by the accept loop and the
    /// heartbeat thread.
    stopping: AtomicBool,
    /// Wakes the heartbeat thread early on shutdown.
    stop_signal: (Mutex<bool>, Condvar),
}

impl ServerInner {
    /// The tenant map. It holds only `Arc`s, ticks and counters, so a
    /// panic elsewhere cannot leave it inconsistent: a poisoned lock is
    /// taken as is.
    fn tenant_map(&self) -> MutexGuard<'_, TenantMap> {
        self.tenants.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The warm session serving `tenant`, created on first use.
    fn session_for(&self, tenant: &str) -> Arc<Session> {
        let mut map = self.tenant_map();
        map.tick += 1;
        let tick = map.tick;
        if let Some(t) = map.live.get_mut(tenant) {
            t.last_used = tick;
            return Arc::clone(&t.session);
        }
        let evicted = map.make_room();
        let mut b = Session::builder();
        if let Some(dir) = &self.cfg.cache_dir {
            b = b.disk_cache(dir).cache_namespace(tenant);
        }
        let session = Arc::new(b.build());
        map.live.insert(
            tenant.to_string(),
            Tenant {
                session: Arc::clone(&session),
                last_used: tick,
            },
        );
        drop(map);
        drop(evicted);
        session
    }

    /// Per-stage, disk and launch-memo counters over every tenant session,
    /// evicted ones included, and the live tenant count.
    fn cache_totals(&self) -> (PipelineStats, usize) {
        let map = self.tenant_map();
        let mut totals = map.retired;
        for t in map.live.values() {
            totals.add(&t.session.stats());
        }
        (totals, map.live.len())
    }

    /// The gauge set shared by the `stats` action and the heartbeat.
    fn gauges(&self) -> Vec<(&'static str, f64)> {
        let (p50, p95) = self.stats.percentiles();
        let (totals, tenants) = self.cache_totals();
        let (hits, misses) = totals
            .stages
            .iter()
            .fold((0, 0), |(h, m), c| (h + c.hits, m + c.misses));
        vec![
            ("in_flight", self.gate.running() as f64),
            ("queue_depth", self.gate.depth() as f64),
            (
                "admitted",
                self.stats.admitted.load(Ordering::Relaxed) as f64,
            ),
            (
                "completed",
                self.stats.completed.load(Ordering::Relaxed) as f64,
            ),
            (
                "rejected",
                self.stats.rejected.load(Ordering::Relaxed) as f64,
            ),
            (
                "deadline_missed",
                self.stats.deadline_missed.load(Ordering::Relaxed) as f64,
            ),
            ("tenants", tenants as f64),
            ("p50_us", p50 as f64),
            ("p95_us", p95 as f64),
            ("cache_hits", hits as f64),
            ("cache_misses", misses as f64),
            ("disk_hits", totals.disk.hits as f64),
            ("disk_misses", totals.disk.misses as f64),
            ("launch_hits", totals.launches.hits as f64),
            ("launch_misses", totals.launches.misses as f64),
        ]
    }

    /// The `stats` action's payload.
    fn stats_json(&self) -> Json {
        let (p50, p95) = self.stats.percentiles();
        let (totals, tenants) = self.cache_totals();
        let (disk, launches) = (totals.disk, totals.launches);
        Json::obj(vec![
            (
                "uptime_us",
                Json::from(self.start.elapsed().as_micros() as u64),
            ),
            ("in_flight", Json::from(self.gate.running() as u64)),
            ("queue_depth", Json::from(self.gate.depth() as u64)),
            ("queue_capacity", Json::from(self.gate.capacity() as u64)),
            (
                "admitted",
                Json::from(self.stats.admitted.load(Ordering::Relaxed)),
            ),
            (
                "completed",
                Json::from(self.stats.completed.load(Ordering::Relaxed)),
            ),
            (
                "rejected",
                Json::from(self.stats.rejected.load(Ordering::Relaxed)),
            ),
            (
                "deadline_missed",
                Json::from(self.stats.deadline_missed.load(Ordering::Relaxed)),
            ),
            (
                "protocol_errors",
                Json::from(self.stats.protocol_errors.load(Ordering::Relaxed)),
            ),
            ("tenants", Json::from(tenants as u64)),
            ("p50_us", Json::from(p50)),
            ("p95_us", Json::from(p95)),
            (
                "stages",
                Json::Arr(
                    Stage::ALL
                        .iter()
                        .zip(&totals.stages)
                        .map(|(stage, c)| {
                            Json::obj(vec![
                                ("stage", Json::from(stage.label())),
                                ("hits", Json::from(c.hits)),
                                ("misses", Json::from(c.misses)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "disk",
                Json::obj(vec![
                    ("hits", Json::from(disk.hits)),
                    ("misses", Json::from(disk.misses)),
                    ("stores", Json::from(disk.stores)),
                ]),
            ),
            (
                "launches",
                Json::obj(vec![
                    ("hits", Json::from(launches.hits)),
                    ("misses", Json::from(launches.misses)),
                    ("evictions", Json::from(launches.evictions)),
                    (
                        "replayed_thread_steps",
                        Json::from(launches.replayed_thread_steps),
                    ),
                ]),
            ),
        ])
    }

    /// Emit one heartbeat: every gauge as an instant
    /// [`EventKind::Serve`] event stamped with the wall-clock offset
    /// since daemon start.
    fn heartbeat(&self) {
        let ts_us = self.start.elapsed().as_micros() as f64;
        for (gauge, value) in self.gauges() {
            self.journal.emit(TraceEvent {
                ts_us,
                dur_us: 0.0,
                track: Track::Host,
                kind: EventKind::Serve {
                    gauge: gauge.to_string(),
                    value,
                },
            });
        }
    }

    /// Run one admitted request; the caller holds its permit.
    fn execute(&self, req: Request, admitted_at: Instant) -> Result<Response, ApiError> {
        if let Some(ms) = req.deadline_ms {
            if admitted_at.elapsed() >= Duration::from_millis(ms) {
                self.stats.deadline_missed.fetch_add(1, Ordering::Relaxed);
                return Err(ApiError {
                    kind: ErrorKind::DeadlineExceeded,
                    message: format!("request spent its {ms} ms deadline waiting in the queue"),
                    retry_after_ms: None,
                });
            }
        }
        let t0 = Instant::now();
        let session = self.session_for(&req.tenant);
        let out = api::handle(&session, &req);
        self.stats.record_service(t0.elapsed().as_micros() as u64);
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Admission: wait at the gate, then run the request on this
    /// connection thread. Refused entries become [`ErrorKind::Overloaded`]
    /// with a backoff hint of queue-depth × recent median service time; a
    /// panic in the pipeline answers [`ErrorKind::Internal`].
    fn admit(&self, req: Request) -> Result<Response, ApiError> {
        // Taken before waiting, so the deadline covers the wait.
        let admitted_at = Instant::now();
        let _permit = match self.gate.enter() {
            Ok(permit) => permit,
            Err(full) => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                let (p50_us, _) = self.stats.percentiles();
                let per_job_ms = (p50_us / 1000).max(1);
                return Err(ApiError {
                    kind: ErrorKind::Overloaded,
                    message: full.to_string(),
                    retry_after_ms: Some((full.depth as u64 + 1) * per_job_ms),
                });
            }
        };
        self.stats.admitted.fetch_add(1, Ordering::Relaxed);
        catch_unwind(AssertUnwindSafe(|| self.execute(req, admitted_at)))
            .unwrap_or_else(|_| Err(ApiError::internal("the request panicked")))
    }
}

impl Drop for ServerInner {
    /// Free every tenant session, then hand the freed heap back to the
    /// OS. The sessions were built on connection threads and freed pages
    /// stay in those threads' allocator arenas; the next daemon's threads
    /// get other arenas, so without the trim every stopped daemon would
    /// stay resident. Not done in [`Server::run`]: the CLI reads
    /// [`Server::stats_json`] after `run` returns.
    fn drop(&mut self) {
        let tenants = self
            .tenants
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        drop(std::mem::take(tenants));
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        {
            extern "C" {
                fn malloc_trim(pad: usize) -> std::ffi::c_int;
            }
            // SAFETY: glibc's `malloc_trim` takes no pointer, only releases
            // pages no allocation uses, and is thread-safe; its result
            // (whether anything was released) carries no obligation.
            unsafe {
                malloc_trim(0);
            }
        }
    }
}

/// What to send back for one request line, and whether to keep reading.
enum Outcome {
    Reply(Json),
    Shutdown(Json),
}

fn error_line(e: &ApiError) -> Json {
    Json::obj(vec![("ok", Json::from(false)), ("error", e.to_json())])
}

/// Dispatch one parsed request line.
fn dispatch(inner: &ServerInner, line: &str) -> Outcome {
    let parsed = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            inner.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return Outcome::Reply(error_line(&ApiError::bad_request(format!(
                "request is not valid JSON: {e}"
            ))));
        }
    };
    match parsed.get("action").and_then(Json::as_str) {
        Some("stats") => Outcome::Reply(Json::obj(vec![
            ("ok", Json::from(true)),
            ("stats", inner.stats_json()),
        ])),
        Some("shutdown") => Outcome::Shutdown(Json::obj(vec![
            ("ok", Json::from(true)),
            ("shutdown", Json::from(true)),
        ])),
        _ => match Request::from_json(&parsed) {
            Ok(req) => match inner.admit(req) {
                Ok(resp) => Outcome::Reply(Json::obj(vec![
                    ("ok", Json::from(true)),
                    ("response", resp.to_json()),
                ])),
                Err(e) => Outcome::Reply(error_line(&e)),
            },
            Err(e) => {
                inner.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                Outcome::Reply(error_line(&e))
            }
        },
    }
}

/// One wire frame, or why there isn't one.
enum Frame {
    /// A complete line (without the trailing `\n`).
    Line(Vec<u8>),
    /// Clean EOF between frames.
    Eof,
    /// The peer sent more than `max_frame` bytes without a newline, or
    /// EOF arrived mid-line (truncated frame).
    Broken(&'static str),
}

/// Read one newline-terminated frame with a hard size cap, never
/// buffering more than the cap.
fn read_frame<R: BufRead>(reader: &mut R, max_frame: usize) -> io::Result<Frame> {
    let mut line = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if line.is_empty() {
                Frame::Eof
            } else {
                Frame::Broken("truncated frame (EOF before newline)")
            });
        }
        match chunk.iter().position(|b| *b == b'\n') {
            Some(pos) => {
                if line.len() + pos > max_frame {
                    return Ok(Frame::Broken("frame exceeds the size limit"));
                }
                line.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                return Ok(Frame::Line(line));
            }
            None => {
                let n = chunk.len();
                if line.len() + n > max_frame {
                    return Ok(Frame::Broken("frame exceeds the size limit"));
                }
                line.extend_from_slice(chunk);
                reader.consume(n);
            }
        }
    }
}

/// Send one wire line in a single write. Formatting a [`Json`] straight
/// into the socket issues one `write(2)` per token, and Nagle then holds
/// the tail of that burst until the peer's delayed ACK (~40 ms).
fn send_line<W: Write>(w: &mut W, json: &Json) -> io::Result<()> {
    let mut line = json.to_string();
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Serve one connection: frames in, responses out, until EOF, a broken
/// frame, or a `shutdown` action. Returns `true` if the daemon should
/// stop.
fn handle_conn<R: Read, W: Write>(inner: &ServerInner, reader: R, mut writer: W) -> bool {
    let mut reader = BufReader::new(reader);
    loop {
        let frame = match read_frame(&mut reader, inner.cfg.max_frame) {
            Ok(f) => f,
            Err(_) => return false,
        };
        let line = match frame {
            Frame::Eof => return false,
            Frame::Broken(why) => {
                // Framing is lost; report once and close.
                inner.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = send_line(&mut writer, &error_line(&ApiError::bad_request(why)));
                return false;
            }
            Frame::Line(bytes) => match String::from_utf8(bytes) {
                Ok(s) => s,
                Err(_) => {
                    inner.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = send_line(
                        &mut writer,
                        &error_line(&ApiError::bad_request("request is not UTF-8")),
                    );
                    continue;
                }
            },
        };
        if line.trim().is_empty() {
            continue;
        }
        match dispatch(inner, &line) {
            Outcome::Reply(json) => {
                if send_line(&mut writer, &json).is_err() {
                    return false;
                }
            }
            Outcome::Shutdown(json) => {
                let _ = send_line(&mut writer, &json);
                return true;
            }
        }
    }
}

/// A bound, not-yet-running daemon. Create with [`Server::bind_tcp`]
/// (use port `0` for an ephemeral port), then call [`Server::run`]
/// (blocks until a client sends `{"action":"shutdown"}`).
pub struct Server {
    listener: TcpListener,
    inner: Arc<ServerInner>,
}

impl Server {
    /// Bind a TCP endpoint (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind_tcp(cfg: ServerConfig, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            inner: Arc::new(ServerInner {
                gate: Gate::new(cfg.workers, cfg.queue_capacity),
                cfg,
                tenants: Mutex::default(),
                stats: ServerStats::default(),
                journal: Journal::enabled(),
                start: Instant::now(),
                stopping: AtomicBool::new(false),
                stop_signal: (Mutex::new(false), Condvar::new()),
            }),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server journal: heartbeat [`EventKind::Serve`] gauge samples.
    pub fn journal(&self) -> &Journal {
        &self.inner.journal
    }

    /// The daemon's current stats payload (same shape as the `stats`
    /// wire action).
    pub fn stats_json(&self) -> Json {
        self.inner.stats_json()
    }

    /// Accept connections until a client sends `{"action":"shutdown"}`.
    ///
    /// Each connection gets its own thread, which runs its requests once
    /// the admission gate lets them in. The final heartbeat is emitted on exit, so
    /// the journal always carries at least one full gauge set.
    pub fn run(&self) -> io::Result<()> {
        let heartbeat = self.inner.cfg.stats_interval.map(|period| {
            let inner = Arc::clone(&self.inner);
            std::thread::spawn(move || {
                let (lock, cv) = &inner.stop_signal;
                let mut stopped = lock.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    let (guard, timeout) = cv
                        .wait_timeout(stopped, period)
                        .unwrap_or_else(PoisonError::into_inner);
                    stopped = guard;
                    if *stopped {
                        return;
                    }
                    if timeout.timed_out() {
                        inner.heartbeat();
                    }
                }
            })
        });
        let mut conns = Vec::new();
        for stream in self.listener.incoming() {
            if self.inner.stopping.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            // A reply longer than one segment ends in a short one, which
            // Nagle would hold until the client ACKs the rest.
            let _ = stream.set_nodelay(true);
            let inner = Arc::clone(&self.inner);
            let addr = self.listener.local_addr();
            conns.push(std::thread::spawn(move || {
                let reader = match stream.try_clone() {
                    Ok(r) => r,
                    Err(_) => return,
                };
                if handle_conn(&inner, reader, stream) {
                    inner.stopping.store(true, Ordering::SeqCst);
                    // Wake the accept loop so it observes the flag.
                    if let Ok(addr) = addr {
                        let _ = TcpStream::connect(addr);
                    }
                }
            }));
        }
        // Stop the heartbeat, then let every in-flight connection finish
        // before reporting the final gauge set.
        {
            let (lock, cv) = &self.inner.stop_signal;
            *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
            cv.notify_all();
        }
        if let Some(h) = heartbeat {
            let _ = h.join();
        }
        for c in conns {
            let _ = c.join();
        }
        self.inner.heartbeat();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "double a[8];\nvoid main() {\n int j;\n #pragma acc kernels loop gang\n for (j = 0; j < 8; j++) { a[j] = 2.0 * (double) j; }\n}";

    fn start(cfg: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let server = Server::bind_tcp(cfg, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, handle)
    }

    fn send_lines(addr: SocketAddr, lines: &[String]) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut out = Vec::new();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for line in lines {
            stream.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            out.push(resp);
        }
        out
    }

    fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
        send_lines(addr, &[r#"{"action":"shutdown"}"#.to_string()]);
        handle.join().unwrap();
    }

    #[test]
    fn serves_requests_and_stats_over_tcp() {
        let (addr, handle) = start(ServerConfig {
            stats_interval: None,
            ..ServerConfig::default()
        });
        let req = Request::new(crate::api::Action::Run, SRC);
        let lines = send_lines(
            addr,
            &[
                req.to_json().to_string(),
                req.to_json().to_string(),
                r#"{"action":"stats"}"#.to_string(),
            ],
        );
        let first = Json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
        let resp = Response::from_json(first.get("response").unwrap()).unwrap();
        assert_eq!(resp.exit_code, 0);
        assert!(resp.report.contains("kernel launches   : 1"));
        // Second identical request replays from the warm session:
        // same bytes, but the stage counters now show hits.
        let second =
            Response::from_json(Json::parse(&lines[1]).unwrap().get("response").unwrap()).unwrap();
        assert_eq!(second.report, resp.report);
        assert_eq!(second.sim_time_us, resp.sim_time_us);
        let frontend = second
            .stages
            .iter()
            .find(|s| s.stage == "frontend")
            .unwrap();
        assert_eq!((frontend.hits, frontend.misses), (1, 1));
        let stats = Json::parse(&lines[2]).unwrap();
        let stats = stats.get("stats").unwrap();
        assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(2));
        assert_eq!(stats.get("rejected").and_then(Json::as_u64), Some(0));
        shutdown(addr, handle);
    }

    #[test]
    fn garbage_and_bad_requests_get_error_lines_not_panics() {
        let (addr, handle) = start(ServerConfig {
            stats_interval: None,
            ..ServerConfig::default()
        });
        let lines = send_lines(
            addr,
            &[
                "this is not json".to_string(),
                r#"{"action":"frobnicate","source":"x"}"#.to_string(),
                r#"{"action":"run"}"#.to_string(),
                // The connection survived all three errors.
                r#"{"action":"stats"}"#.to_string(),
            ],
        );
        for line in &lines[..3] {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
            let e = ApiError::from_json(v.get("error").unwrap()).unwrap();
            assert_eq!(e.kind, ErrorKind::BadRequest);
        }
        let stats = Json::parse(&lines[3]).unwrap();
        assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            stats
                .get("stats")
                .and_then(|s| s.get("protocol_errors"))
                .and_then(Json::as_u64),
            Some(3)
        );
        shutdown(addr, handle);
    }

    #[test]
    fn oversized_frames_close_the_connection_with_an_error() {
        let (addr, handle) = start(ServerConfig {
            stats_interval: None,
            max_frame: 256,
            ..ServerConfig::default()
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&vec![b'x'; 4096]).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reply = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut reply)
            .unwrap();
        let v = Json::parse(&reply).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert!(reply.contains("size limit"));
        // Server closed its side: the next read returns EOF.
        let mut rest = String::new();
        BufReader::new(stream).read_line(&mut rest).unwrap();
        assert!(rest.is_empty());
        shutdown(addr, handle);
    }

    #[test]
    fn truncated_frames_never_hang_the_server() {
        let (addr, handle) = start(ServerConfig {
            stats_interval: None,
            ..ServerConfig::default()
        });
        // Half a request, then EOF: the server drops the connection and
        // keeps serving others.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"{\"action\":\"ru").unwrap();
        drop(stream);
        let lines = send_lines(addr, &[r#"{"action":"stats"}"#.to_string()]);
        assert_eq!(
            Json::parse(&lines[0])
                .unwrap()
                .get("ok")
                .and_then(Json::as_bool),
            Some(true)
        );
        shutdown(addr, handle);
    }

    #[test]
    fn tenants_get_isolated_cache_namespaces() {
        let dir =
            std::env::temp_dir().join(format!("openarc-serve-tenants-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (addr, handle) = start(ServerConfig {
            stats_interval: None,
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let mut a = Request::new(crate::api::Action::Run, SRC);
        a.tenant = "team-a".into();
        let mut b = a.clone();
        b.tenant = "team-b".into();
        let lines = send_lines(
            addr,
            &[
                a.to_json().to_string(),
                b.to_json().to_string(),
                r#"{"action":"stats"}"#.to_string(),
            ],
        );
        // Identical program, identical bytes — but each tenant compiled
        // it in its own session: every stage missed twice, and the disk
        // store holds two disjoint key sets.
        assert_eq!(
            Json::parse(&lines[0]).unwrap().get("response"),
            Json::parse(&lines[1]).unwrap().get("response")
        );
        let stats = Json::parse(&lines[2]).unwrap();
        let stats = stats.get("stats").unwrap();
        assert_eq!(stats.get("tenants").and_then(Json::as_u64), Some(2));
        let disk = stats.get("disk").unwrap();
        assert_eq!(disk.get("hits").and_then(Json::as_u64), Some(0));
        let stores = disk.get("stores").and_then(Json::as_u64).unwrap();
        assert!(stores >= 2, "two tenants stored disjoint entries");
        // Launch memos are per tenant session as well: each tenant
        // simulated its own kernel launch.
        let launches = stats.get("launches").unwrap();
        assert_eq!(launches.get("hits").and_then(Json::as_u64), Some(0));
        assert_eq!(launches.get("misses").and_then(Json::as_u64), Some(2));
        shutdown(addr, handle);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_deadline_is_rejected_at_dequeue() {
        let (addr, handle) = start(ServerConfig {
            stats_interval: None,
            ..ServerConfig::default()
        });
        let mut req = Request::new(crate::api::Action::Run, SRC);
        req.deadline_ms = Some(0);
        let lines = send_lines(addr, &[req.to_json().to_string()]);
        let v = Json::parse(&lines[0]).unwrap();
        let e = ApiError::from_json(v.get("error").unwrap()).unwrap();
        assert_eq!(e.kind, ErrorKind::DeadlineExceeded);
        shutdown(addr, handle);
    }

    /// A writer that keeps every `write` call apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn quiet_server(max_frame: usize) -> Server {
        let cfg = ServerConfig {
            stats_interval: None,
            max_frame,
            ..ServerConfig::default()
        };
        Server::bind_tcp(cfg, "127.0.0.1:0").unwrap()
    }

    #[test]
    fn every_reply_is_one_write_of_its_rendered_line() {
        let server = quiet_server(DEFAULT_MAX_FRAME);
        let req = Request::new(crate::api::Action::Run, SRC)
            .to_json()
            .to_string();
        let garbage = "this is not json";
        let mut input = Vec::new();
        for line in [&req, &req, r#"{"action":"stats"}"#, garbage] {
            input.extend_from_slice(line.as_bytes());
            input.push(b'\n');
        }
        input.extend_from_slice(b"\xff\xfe\n{\"action\":\"shutdown\"}\n");
        let mut out = Writes::default();
        assert!(handle_conn(&server.inner, &input[..], &mut out));
        assert_eq!(out.0.len(), 6, "one write per reply");
        for write in &out.0 {
            assert_eq!(write.iter().filter(|b| **b == b'\n').count(), 1);
            assert_eq!(write.last(), Some(&b'\n'));
        }

        // The same replies rendered here: a bare session answers the run
        // twice; `stats` carries the uptime, so its own bytes stand in.
        let bare = Session::builder().build();
        let request = Request::from_json(&Json::parse(&req).unwrap()).unwrap();
        let answer = || {
            let resp = api::handle(&bare, &request).unwrap();
            Json::obj(vec![("ok", Json::from(true)), ("response", resp.to_json())])
        };
        let stats = Json::parse(std::str::from_utf8(&out.0[2]).unwrap().trim_end()).unwrap();
        assert_eq!(
            stats
                .get("stats")
                .and_then(|s| s.get("completed"))
                .and_then(Json::as_u64),
            Some(2)
        );
        let not_json = Json::parse(garbage).unwrap_err();
        let expected = [
            answer(),
            answer(),
            stats,
            error_line(&ApiError::bad_request(format!(
                "request is not valid JSON: {not_json}"
            ))),
            error_line(&ApiError::bad_request("request is not UTF-8")),
            Json::obj(vec![
                ("ok", Json::from(true)),
                ("shutdown", Json::from(true)),
            ]),
        ];
        let want: String = expected.iter().map(|j| format!("{j}\n")).collect();
        assert_eq!(String::from_utf8(out.0.concat()).unwrap(), want);
    }

    #[test]
    fn an_oversized_frame_is_refused_in_one_write() {
        let server = quiet_server(64);
        let mut input = vec![b'x'; 4096];
        input.push(b'\n');
        let mut out = Writes::default();
        assert!(!handle_conn(&server.inner, &input[..], &mut out));
        let refusal = error_line(&ApiError::bad_request("frame exceeds the size limit"));
        assert_eq!(out.0, vec![format!("{refusal}\n").into_bytes()]);
    }

    #[test]
    fn a_dropped_server_frees_its_sessions_after_stats_outlive_run() {
        let server = quiet_server(DEFAULT_MAX_FRAME);
        let addr = server.local_addr().unwrap();
        let daemon = Arc::downgrade(&server.inner);
        let handle = std::thread::spawn(move || {
            server.run().unwrap();
            server
        });
        let req = Request::new(crate::api::Action::Run, SRC);
        send_lines(addr, &[req.to_json().to_string()]);
        let session = {
            let inner = daemon.upgrade().unwrap();
            let tenants = inner.tenants.lock().unwrap();
            Arc::downgrade(&tenants.live[""].session)
        };
        send_lines(addr, &[r#"{"action":"shutdown"}"#.to_string()]);
        let server = handle.join().unwrap();
        // `run` has returned; the tenant totals are still there to print.
        let stats = server.stats_json();
        assert_eq!(stats.get("tenants").and_then(Json::as_u64), Some(1));
        let frontend = stats
            .get("stages")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .find(|s| s.get("stage").and_then(Json::as_str) == Some("frontend"))
            .unwrap();
        assert_eq!(frontend.get("misses").and_then(Json::as_u64), Some(1));
        drop(server);
        assert!(
            session.upgrade().is_none(),
            "a tenant session outlived its daemon"
        );
        assert!(daemon.upgrade().is_none());
    }

    #[test]
    fn the_cap_evicts_the_least_recently_used_idle_tenant() {
        let server = quiet_server(DEFAULT_MAX_FRAME);
        let inner = &server.inner;
        // t0 is the oldest but has a request in flight; t1 is the oldest
        // idle tenant and has counters to retire.
        let busy = inner.session_for("t0");
        for i in 1..MAX_TENANTS {
            let session = inner.session_for(&format!("t{i}"));
            if i == 1 {
                api::handle(&session, &Request::new(crate::api::Action::Run, SRC)).unwrap();
            }
        }
        let (before, tenants) = inner.cache_totals();
        assert_eq!(tenants, MAX_TENANTS);
        drop(inner.session_for("new"));
        let (after, tenants) = inner.cache_totals();
        assert_eq!(tenants, MAX_TENANTS);
        assert_eq!(after.stages, before.stages, "totals moved on eviction");
        let map = inner.tenant_map();
        assert!(map.live.contains_key("t0"), "a busy tenant was evicted");
        assert!(!map.live.contains_key("t1"));
        assert_eq!(map.retired.stages[0].misses, 1);
        drop(busy);
    }

    #[test]
    fn service_percentiles_are_nearest_rank_over_the_last_window() {
        let stats = ServerStats::default();
        // 300 distinct values in no order: the first 44 must drop out.
        let samples: Vec<u64> = (0..300u64).map(|i| i * 7919 % 1000).collect();
        for &us in &samples {
            stats.record_service(us);
        }
        let mut window = samples[samples.len() - SERVICE_WINDOW..].to_vec();
        window.sort_unstable();
        // Nearest rank over 256: the 128th and the 244th smallest.
        assert_eq!(stats.percentiles(), (window[127], window[243]));
    }

    #[test]
    fn heartbeat_emits_serve_gauges() {
        let server = Server::bind_tcp(
            ServerConfig {
                stats_interval: None,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        server.inner.heartbeat();
        let events = server.journal().drain();
        assert!(!events.is_empty());
        let gauges: Vec<&str> = events
            .iter()
            .map(|e| match &e.kind {
                EventKind::Serve { gauge, .. } => gauge.as_str(),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        for want in [
            "in_flight",
            "queue_depth",
            "p50_us",
            "p95_us",
            "cache_hits",
            "launch_hits",
            "launch_misses",
        ] {
            assert!(gauges.contains(&want), "missing gauge {want}");
        }
    }
}
