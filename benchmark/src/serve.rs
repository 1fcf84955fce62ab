//! `serve_closed`: an in-process `openarc serve` daemon under a **closed
//! loop** — two client connections, each sending its next request only
//! after the previous reply (callers are editors and CI jobs that wait),
//! one tenant per client.
//!
//! Each client's stream is a stratified seeded draw from the universe —
//! one request from every (benchmark, action, size) stratum, so that every
//! seed asks for nearly the same amount of pipeline work — in a seeded
//! order, with seeded repeats of requests it already sent mixed in so that
//! exactly [`FIRST_TOUCH_SHARE`] of the stream is first-touch: first-touch
//! requests pay the pipeline, repeats are almost pure serve overhead
//! (framing, JSON codec, admission queue, tenant-session locking). Every
//! pass starts a fresh daemon, so every pass of a run does the same work.

use crate::batch::answer_of_response;
use crate::expected::{Answer, Expected};
use crate::rng::Rng;
use crate::span::Tracer;
use crate::workload::{
    is_known, stage_spans, Checks, OpSample, PassSample, TracedPass, Workload, STAGE_LAYERS,
};
use openarc_core::api::{self, Action, ApiError, Request, Response};
use openarc_core::pipeline::Session;
use openarc_core::serve::{Server, ServerConfig, DEFAULT_MAX_FRAME};
use openarc_suite::{all, Scale, Variant};
use openarc_trace::json::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections (= tenants). `nproc` is 2 on the reference box.
pub const CLIENTS: usize = 2;
/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Problem sizes of the universe.
pub const SIZES: [usize; 4] = [12, 16, 20, 24];
/// Outer iteration counts of the universe.
pub const ITERS: [usize; 3] = [1, 2, 3];
/// Actions of the universe.
pub const ACTIONS: [Action; 3] = [Action::Run, Action::Check, Action::Verify];
/// Share of a client's stream that is the first touch of its request.
pub const FIRST_TOUCH_SHARE: f64 = 0.6;
/// Requests each client checks against bare `api::handle` in set-up.
const SETUP_SAMPLE: usize = 24;
/// Hinted retries before a refusal counts as failed.
const MAX_RETRIES: u32 = 3;

/// One distinct request of the universe.
pub struct Item {
    /// `BENCH/variant/n<N>i<I>/action`.
    pub id: String,
    /// Metric row of its first touch (`+ 1` for a repeat).
    row: usize,
    /// (benchmark, action, size) stratum the streams draw one item from.
    stratum: usize,
    /// The request, tenant unset.
    pub request: Request,
}

/// 12 benchmarks × 3 variants × 4 sizes × 3 iteration counts × 3 actions.
pub fn universe() -> Vec<Item> {
    let mut out = Vec::new();
    for (ni, n) in SIZES.into_iter().enumerate() {
        for iters in ITERS {
            for (bi, b) in all(Scale { n, iters }).iter().enumerate() {
                for v in Variant::ALL {
                    for (ai, a) in ACTIONS.iter().enumerate() {
                        out.push(Item {
                            id: format!("{}/{}/n{n}i{iters}/{}", b.name, v.name(), a.as_str()),
                            row: (bi * ACTIONS.len() + ai) * 2,
                            stratum: (bi * ACTIONS.len() + ai) * SIZES.len() + ni,
                            request: Request::new(*a, b.source(v)),
                        });
                    }
                }
            }
        }
    }
    out
}

/// Metric rows: `BENCH/action/first` and `BENCH/action/repeat`.
fn metric_rows() -> Vec<String> {
    let mut rows = Vec::new();
    for b in all(Scale::default()) {
        for a in ACTIONS {
            for touch in ["first", "repeat"] {
                rows.push(format!("{}/{}/{touch}", b.name, a.as_str()));
            }
        }
    }
    rows
}

/// One request of a client's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Index into the universe.
    pub item: usize,
    /// The client sent this exact request before.
    pub repeat: bool,
}

/// A client's seeded stream over `universe`: one seeded pick from every
/// stratum, in a seeded order, cut to `first_touches` (the per-layer probe
/// uses a shorter stream), interleaved with seeded repeats of
/// already-sent items so that first touches are [`FIRST_TOUCH_SHARE`] of
/// the stream.
pub fn draw_stream(seed: u64, client: usize, universe: &[Item], first_touches: usize) -> Vec<Slot> {
    let mut rng = Rng::new(seed, &format!("serve_closed/client{client}"));
    let mut strata: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, item) in universe.iter().enumerate() {
        strata.entry(item.stratum).or_default().push(i);
    }
    let mut fresh: Vec<usize> = strata
        .values()
        .map(|members| members[rng.below(members.len())])
        .collect();
    rng.shuffle(&mut fresh);
    fresh.truncate(first_touches);
    let first_touches = fresh.len();
    let total = (first_touches as f64 / FIRST_TOUCH_SHARE).round() as usize;
    // Which slots repeat; the first cannot.
    let mut repeats: Vec<bool> = (1..total).map(|i| i >= first_touches).collect();
    rng.shuffle(&mut repeats);
    repeats.insert(0, false);
    let mut fresh = fresh.into_iter();
    let mut sent: Vec<usize> = Vec::with_capacity(first_touches);
    repeats
        .into_iter()
        .map(|repeat| {
            let item = if repeat {
                sent[rng.below(sent.len())]
            } else {
                let item = fresh.next().expect("one fresh item per non-repeat slot");
                sent.push(item);
                item
            };
            Slot { item, repeat }
        })
        .collect()
}

/// An in-process daemon on an ephemeral loopback port.
pub struct Daemon {
    addr: SocketAddr,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Bind and start serving.
    pub fn start() -> Result<Daemon, String> {
        let server = Server::bind_tcp(
            ServerConfig {
                workers: WORKERS,
                queue_capacity: 64,
                cache_dir: None,
                stats_interval: None,
                max_frame: DEFAULT_MAX_FRAME,
            },
            "127.0.0.1:0",
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        Ok(Daemon {
            addr,
            thread: Some(std::thread::spawn(move || server.run())),
        })
    }

    /// One control exchange on a connection of its own.
    fn control(&self, line: &str) -> Result<Json, String> {
        let mut conn = Conn::open(self.addr)?;
        let mut reply = String::new();
        conn.exchange(line, &mut reply)?;
        Json::parse(&reply).map_err(|e| format!("control reply: {e}"))
    }

    /// The daemon's `stats` payload.
    pub fn stats(&self) -> Result<Json, String> {
        self.control("{\"action\":\"stats\"}\n")?
            .get("stats")
            .cloned()
            .ok_or_else(|| "stats payload missing".to_string())
    }

    /// Shut down and wait for the serve loop and every connection thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        self.control("{\"action\":\"shutdown\"}\n")?;
        thread
            .join()
            .map_err(|_| "serve loop panicked".to_string())?
            .map_err(|e| format!("serve loop: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// One client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    /// Send one newline-terminated line, read one reply line.
    fn exchange(&mut self, line: &str, reply: &mut String) -> Result<(), String> {
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        reply.clear();
        let n = self
            .reader
            .read_line(reply)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        Ok(())
    }
}

/// What one request cost and returned, as the client saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Send of the first attempt → receipt of the final reply, ns.
    pub latency_ns: u64,
    /// Start, ns since the pass epoch.
    pub start_ns: u64,
    /// The reply's answer, or why there is none.
    pub answer: Result<Answer, String>,
    /// Hinted retries after `overloaded` refusals.
    pub retries: u32,
    /// Bytes sent (all attempts).
    pub bytes_out: u64,
    /// Bytes received (all attempts).
    pub bytes_in: u64,
}

fn decode_reply(line: &str) -> Result<Result<Response, ApiError>, String> {
    let v = Json::parse(line).map_err(|e| format!("reply is not JSON: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) == Some(true) {
        let resp = v.get("response").ok_or("reply without `response`")?;
        Ok(Ok(Response::from_json(resp)?))
    } else {
        let err = v.get("error").ok_or("reply without `error`")?;
        Ok(Err(ApiError::from_json(err)?))
    }
}

/// Send one request, honouring `retry_after_ms` hints on refusals.
fn request(conn: &mut Conn, line: &str, epoch: Instant, buf: &mut String) -> Reply {
    let t0 = Instant::now();
    let mut out = Reply {
        latency_ns: 0,
        start_ns: t0.duration_since(epoch).as_nanos() as u64,
        answer: Err(String::new()),
        retries: 0,
        bytes_out: 0,
        bytes_in: 0,
    };
    out.answer = loop {
        if let Err(e) = conn.exchange(line, buf) {
            break Err(e);
        }
        out.latency_ns = t0.elapsed().as_nanos() as u64;
        out.bytes_out += line.len() as u64;
        out.bytes_in += buf.len() as u64;
        match decode_reply(buf) {
            Err(e) => break Err(e),
            Ok(Ok(resp)) => break Ok(answer_of_response(&resp)),
            Ok(Err(e)) => match e.retry_after_ms {
                Some(ms) if out.retries < MAX_RETRIES => {
                    out.retries += 1;
                    std::thread::sleep(Duration::from_millis(ms.min(100)));
                }
                _ => break Err(format!("{}: {}", e.kind.as_str(), e.message)),
            },
        }
    };
    out
}

/// One client's connection lifetime: every line in order, closed loop.
fn run_client(
    mut conn: Conn,
    lines: &[&str],
    start: &Barrier,
    epoch: Instant,
) -> (Vec<Reply>, Instant, Instant) {
    let mut buf = String::new();
    start.wait();
    let t0 = Instant::now();
    let replies = lines
        .iter()
        .map(|line| request(&mut conn, line, epoch, &mut buf))
        .collect();
    (replies, t0, Instant::now())
}

/// What one served pass produced.
pub struct Served {
    /// First client start → last client end, ms.
    pub wall_ms: f64,
    /// Per client, per slot.
    pub replies: Vec<Vec<Reply>>,
    /// The daemon's `stats` payload after the pass.
    pub stats: Json,
}

/// The serve workload.
pub struct ServeClosed {
    universe: Vec<Item>,
    rows: Vec<String>,
    known: Vec<Option<Answer>>,
    /// Per client: its stream and, slot by slot, the wire line to send
    /// (tenant set, newline-terminated).
    streams: Vec<Vec<Slot>>,
    lines: Vec<Vec<String>>,
}

fn tenant(client: usize) -> String {
    format!("client{client}")
}

impl ServeClosed {
    /// Universe, streams of at most `first_touches` distinct requests per
    /// client, and pre-encoded wire lines (the generator shares two cores with the
    /// daemon; encoding is measured alone as `serve.json_codec_us`).
    pub fn new(seed: u64, first_touches: usize, expected: &Expected) -> ServeClosed {
        let universe = universe();
        let known = universe.iter().map(|it| expected.get(&it.id)).collect();
        let streams: Vec<Vec<Slot>> = (0..CLIENTS)
            .map(|c| draw_stream(seed, c, &universe, first_touches))
            .collect();
        let lines = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                stream
                    .iter()
                    .map(|slot| {
                        let mut req = universe[slot.item].request.clone();
                        req.tenant = tenant(c);
                        format!("{}\n", req.to_json())
                    })
                    .collect()
            })
            .collect();
        ServeClosed {
            universe,
            rows: metric_rows(),
            known,
            streams,
            lines,
        }
    }

    /// Fresh daemon, every client through the first `limit` slots of its
    /// stream concurrently, daemon stopped. Only the client section is
    /// timed.
    pub fn serve(&self, limit: usize, epoch: Instant) -> Result<Served, String> {
        let daemon = Daemon::start()?;
        // Connect before the start barrier: a client that cannot connect
        // must not leave the other waiting at it.
        let conns = (0..CLIENTS)
            .map(|_| Conn::open(daemon.addr))
            .collect::<Result<Vec<_>, String>>()?;
        let barrier = Barrier::new(CLIENTS);
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .into_iter()
                .enumerate()
                .map(|(c, conn)| {
                    let lines: Vec<&str> = self.lines[c]
                        .iter()
                        .take(limit)
                        .map(String::as_str)
                        .collect();
                    let barrier = &barrier;
                    scope.spawn(move || run_client(conn, &lines, barrier, epoch))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "client panicked".to_string()))
                .collect::<Result<Vec<_>, String>>()
        })?;
        let stats = daemon.stats()?;
        daemon.stop()?;
        let start = results.iter().map(|r| r.1).min().expect("CLIENTS > 0");
        let end = results.iter().map(|r| r.2).max().expect("CLIENTS > 0");
        Ok(Served {
            wall_ms: end.duration_since(start).as_secs_f64() * 1e3,
            replies: results.into_iter().map(|r| r.0).collect(),
            stats,
        })
    }

    fn row_of(&self, slot: Slot) -> usize {
        self.universe[slot.item].row + usize::from(slot.repeat)
    }

    fn ok(&self, slot: Slot, reply: &Reply) -> bool {
        is_known(&reply.answer, self.known[slot.item])
    }

    /// The distinct requests of client `c`'s stream, in first-touch order.
    pub fn first_touches(&self, c: usize) -> impl Iterator<Item = &Request> {
        self.streams[c]
            .iter()
            .filter(|slot| !slot.repeat)
            .map(|slot| &self.universe[slot.item].request)
    }

    /// Replay client `c`'s first `limit` slots against bare `api::handle`
    /// on one warm session (what the daemon does per tenant, minus the
    /// daemon). Records one `api.handle` span per request with the
    /// session's stage clock as children; returns each request's bare
    /// time in ns and answer.
    pub fn replay_bare(
        &self,
        c: usize,
        limit: usize,
        tracer: &mut Tracer,
    ) -> Vec<(u64, Result<Answer, String>)> {
        let session = Session::builder().build();
        let mut before = session.stage_times();
        self.streams[c]
            .iter()
            .take(limit)
            .map(|slot| {
                let mut req = self.universe[slot.item].request.clone();
                req.tenant = tenant(c);
                tracer.scope("api.handle", slot.item, |t| {
                    let t0 = Instant::now();
                    let got = api::handle(&session, &req);
                    let ns = t0.elapsed().as_nanos() as u64;
                    let after = session.stage_times();
                    stage_spans(t, slot.item, &before, &after);
                    before = after;
                    (
                        ns,
                        got.map(|r| answer_of_response(&r))
                            .map_err(|e| e.to_string()),
                    )
                })
            })
            .collect()
    }
}

impl Workload for ServeClosed {
    const NAME: &'static str = "serve_closed";
    const SCALE: &'static str = "n in 12..24, iters in 1..3; 2 clients x 240 requests";

    fn set_up(seed: u64, expected: &Expected) -> Result<(Self, Checks), String> {
        let w = ServeClosed::new(seed, usize::MAX, expected);
        let mut checks = Checks::default();
        // Warm-up and check on a throw-away daemon (the timed passes need
        // cold tenant sessions): the head of every stream, each reply
        // against its golden and — independent of the goldens — against
        // bare `api::handle` on the same request.
        let served = w.serve(SETUP_SAMPLE, Instant::now())?;
        let mut scratch = Tracer::new(Instant::now(), 0);
        for c in 0..CLIENTS {
            let bare = w.replay_bare(c, SETUP_SAMPLE, &mut scratch);
            for ((slot, reply), (_, bare)) in w.streams[c].iter().zip(&served.replies[c]).zip(bare)
            {
                let id = &w.universe[slot.item].id;
                checks.answer(expected, id, &reply.answer);
                checks.note(reply.answer.is_ok() && reply.answer == bare, || {
                    format!("{id}: served {:?} ≠ bare {:?}", reply.answer, bare)
                });
            }
        }
        Ok((w, checks))
    }

    fn rows(&self) -> &[String] {
        &self.rows
    }

    fn pass(&mut self) -> Result<PassSample, String> {
        let served = self.serve(usize::MAX, Instant::now())?;
        let ops = self
            .streams
            .iter()
            .zip(&served.replies)
            .flat_map(|(stream, replies)| stream.iter().zip(replies))
            .map(|(slot, reply)| OpSample {
                row: self.row_of(*slot),
                ms: reply.latency_ns as f64 / 1e6,
                ok: self.ok(*slot, reply),
            })
            .collect();
        Ok(PassSample {
            wall_ms: served.wall_ms,
            ops,
            missing: 0,
        })
    }

    fn traced_pass(&mut self, tracer: &mut Tracer) -> Result<TracedPass, String> {
        let mut out = TracedPass {
            layers: STAGE_LAYERS,
            ..Default::default()
        };
        let served = self.serve(usize::MAX, tracer.epoch())?;
        out.wall_ms = served.wall_ms;
        let mut overhead_ms = 0.0;
        for c in 0..CLIENTS {
            let mut lane = Tracer::new(tracer.epoch(), c + 1);
            for (slot, reply) in self.streams[c].iter().zip(&served.replies[c]) {
                lane.synthetic("serve.request", slot.item, reply.start_ns, reply.latency_ns);
            }
            tracer.adopt(lane.into_spans());
            let bare = tracer.scope("replay", c, |t| self.replay_bare(c, usize::MAX, t));
            for ((slot, reply), (bare_ns, bare)) in
                self.streams[c].iter().zip(&served.replies[c]).zip(bare)
            {
                out.opaque_ms += reply.latency_ns as f64 / 1e6;
                overhead_ms += reply.latency_ns.saturating_sub(bare_ns) as f64 / 1e6;
                out.attempted += 1;
                // Every served reply equals bare `api::handle` on the same
                // request, and both equal the golden.
                out.failed += u64::from(!self.ok(*slot, reply) || reply.answer != bare);
            }
        }
        out.extra_ms.push(("serve", overhead_ms));
        Ok(out)
    }

    fn known_answers() -> Result<BTreeMap<String, Answer>, String> {
        // One warm session, as a tenant's is: answers must not depend on
        // what the session has seen.
        let session = Session::builder().build();
        universe()
            .into_iter()
            .map(|it| match api::handle(&session, &it.request) {
                Ok(r) => Ok((it.id, answer_of_response(&r))),
                Err(e) => Err(format!("{}: {e}", it.id)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let u = universe();
        let a = draw_stream(11, 0, &u, usize::MAX);
        assert_eq!(a, draw_stream(11, 0, &u, usize::MAX));
        assert_ne!(a, draw_stream(12, 0, &u, usize::MAX));
        assert_ne!(
            a,
            draw_stream(11, 1, &u, usize::MAX),
            "clients draw independently"
        );
    }

    #[test]
    fn first_touch_share_is_sixty_percent_and_repeats_are_real() {
        let u = universe();
        for (limit, first) in [(usize::MAX, 144), (72, 72), (7, 7)] {
            let s = draw_stream(3, 0, &u, limit);
            let firsts = s.iter().filter(|x| !x.repeat).count();
            assert_eq!(firsts, first);
            let share = firsts as f64 / s.len() as f64;
            assert!((0.5..=0.7).contains(&share), "share {share}");
            // A repeat repeats something already sent; a first touch never does.
            let mut seen = std::collections::BTreeSet::new();
            for slot in &s {
                assert_eq!(slot.repeat, !seen.insert(slot.item), "{slot:?}");
            }
        }
    }

    #[test]
    fn a_full_stream_touches_every_stratum_once() {
        let u = universe();
        let s = draw_stream(5, 1, &u, usize::MAX);
        assert_eq!(s.len(), 240);
        let strata: std::collections::BTreeSet<usize> = s
            .iter()
            .filter(|x| !x.repeat)
            .map(|x| u[x.item].stratum)
            .collect();
        assert_eq!(strata.len(), 12 * ACTIONS.len() * SIZES.len());
    }

    #[test]
    fn universe_and_rows_have_the_documented_shape() {
        let u = universe();
        assert_eq!(u.len(), 1296);
        let rows = metric_rows();
        assert_eq!(rows.len(), 72);
        let ids: std::collections::BTreeSet<_> = u.iter().map(|i| &i.id).collect();
        assert_eq!(ids.len(), u.len(), "ids are unique");
        let srad = u
            .iter()
            .find(|i| i.id == "SRAD/naive/n24i3/verify")
            .unwrap();
        assert_eq!(rows[srad.row], "SRAD/verify/first");
        assert_eq!(rows[srad.row + 1], "SRAD/verify/repeat");
    }

    #[test]
    fn regenerating_at_this_commit_is_a_no_op() {
        let fresh = Expected::from_rows(ServeClosed::known_answers().unwrap());
        assert_eq!(fresh, Expected::load(ServeClosed::NAME).unwrap());
    }

    #[test]
    fn a_short_closed_loop_matches_bare_handle() {
        let e = Expected::load(ServeClosed::NAME).unwrap();
        let w = ServeClosed::new(9, 20, &e);
        let served = w.serve(usize::MAX, Instant::now()).unwrap();
        assert_eq!(
            served.stats.get("completed").and_then(Json::as_u64),
            Some((w.streams[0].len() + w.streams[1].len()) as u64)
        );
        let mut t = Tracer::new(Instant::now(), 0);
        for c in 0..CLIENTS {
            let bare = w.replay_bare(c, usize::MAX, &mut t);
            for ((slot, reply), (_, bare)) in w.streams[c].iter().zip(&served.replies[c]).zip(bare)
            {
                assert!(w.ok(*slot, reply), "{}", w.universe[slot.item].id);
                assert_eq!(reply.answer, bare);
            }
        }
        // 7 stage children per handled request.
        assert_eq!(
            t.into_spans().len(),
            8 * (w.streams[0].len() + w.streams[1].len())
        );
    }
}
