//! Wire-protocol tests of the `openarc serve` daemon through its public
//! API: framing edge cases (garbage, truncated, oversized — error lines,
//! never panics), typed round-trips, journaled replies equal to the
//! in-process answer, admission backpressure, tenant cache isolation on
//! disk, and the tenant cap.

use openarc::core::api::{self, Action, ApiError, ErrorKind, Request, Response};
use openarc::core::pipeline::Session;
use openarc::core::serve::{Server, ServerConfig, MAX_TENANTS};
use openarc::suite::{all, Scale, Variant};
use openarc::trace::bin::{write_events, Writer};
use openarc::trace::json::Json;
use openarc::trace::TraceEvent;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

const SAXPY: &str = r#"
double x[32];
double y[32];
void main() {
    int j;
    for (j = 0; j < 32; j++) { x[j] = 1.0; y[j] = (double) j; }
    #pragma acc kernels loop gang worker
    for (j = 0; j < 32; j++) { y[j] = 2.0 * x[j] + y[j]; }
}
"#;

/// SAXPY relaunched 64 times over 4096 elements: long enough (tens of ms
/// in release, hundreds in debug) that one worker is still busy with it
/// when the other clients' requests arrive, even on a loaded machine.
const SAXPY_64X: &str = r#"
double x[4096];
double y[4096];
void main() {
    int i;
    int j;
    for (j = 0; j < 4096; j++) { x[j] = 1.0; y[j] = (double) j; }
    for (i = 0; i < 64; i++) {
        #pragma acc kernels loop gang worker
        for (j = 0; j < 4096; j++) { y[j] = 2.0 * x[j] + y[j]; }
    }
}
"#;

fn start(cfg: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind_tcp(cfg, "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    (addr, std::thread::spawn(move || server.run().unwrap()))
}

fn quiet() -> ServerConfig {
    ServerConfig {
        stats_interval: None,
        ..ServerConfig::default()
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn round_trip(&mut self, line: &str) -> Json {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        assert!(!reply.is_empty(), "server closed unexpectedly");
        Json::parse(&reply).unwrap()
    }

    fn shutdown(mut self, handle: std::thread::JoinHandle<()>) {
        let v = self.round_trip(r#"{"action":"shutdown"}"#);
        assert_eq!(v.get("shutdown").and_then(Json::as_bool), Some(true));
        handle.join().unwrap();
    }
}

#[test]
fn typed_request_round_trips_over_the_wire() {
    let (addr, handle) = start(quiet());
    let mut c = Client::connect(addr);
    for action in [Action::Run, Action::Cpu, Action::Check, Action::Verify] {
        let v = c.round_trip(&Request::new(action, SAXPY).to_json().to_string());
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "{action:?}"
        );
        let resp = Response::from_json(v.get("response").unwrap()).unwrap();
        assert_eq!(resp.exit_code, 0, "{action:?}");
        assert!(resp.report.ends_with('\n'), "{action:?}");
    }
    c.shutdown(handle);
}

fn journal_bytes(events: &[TraceEvent]) -> Vec<u8> {
    let mut w = Writer::new();
    write_events(&mut w, events);
    w.into_bytes()
}

#[test]
fn served_journals_equal_the_in_process_answer() {
    let (addr, handle) = start(quiet());
    let mut c = Client::connect(addr);
    for b in all(Scale::default()) {
        for action in [Action::Profile, Action::Run] {
            let mut req = Request::new(action, b.source(Variant::Optimized));
            req.journal = true;
            let v = c.round_trip(&req.to_json().to_string());
            let what = format!("{} {}", b.name, action.as_str());
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{what}");
            let served = Response::from_json(v.get("response").unwrap()).unwrap();
            let fresh = api::handle(&Session::builder().build(), &req).unwrap();
            assert!(!fresh.events.is_empty(), "{what}: no journal");
            assert!(
                journal_bytes(&served.events) == journal_bytes(&fresh.events),
                "{what}: served journal differs"
            );
            assert_eq!(served.report, fresh.report, "{what}");
            assert_eq!(served.exit_code, fresh.exit_code, "{what}");
            assert_eq!(
                served.sim_time_us.to_bits(),
                fresh.sim_time_us.to_bits(),
                "{what}"
            );
        }
    }
    c.shutdown(handle);
}

#[test]
fn framing_abuse_gets_structured_errors_never_a_hang() {
    let (addr, handle) = start(ServerConfig {
        max_frame: 512,
        ..quiet()
    });

    // Garbage and half-typed requests: one error line each, connection
    // stays usable.
    let mut c = Client::connect(addr);
    for (line, needle) in [
        ("}{ not json", "not valid JSON"),
        (
            r#"{"action":"launch-missiles","source":"x"}"#,
            "unknown action",
        ),
        (r#"{"action":"verify"}"#, "missing string field `source`"),
        (
            r#"{"action":"run","source":"x","deadline_ms":"soon"}"#,
            "integer",
        ),
    ] {
        let v = c.round_trip(line);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
        let e = ApiError::from_json(v.get("error").unwrap()).unwrap();
        assert_eq!(e.kind, ErrorKind::BadRequest, "{line}");
        assert!(e.message.contains(needle), "{line}: {}", e.message);
    }
    // ...and a well-formed request still succeeds on the same socket.
    let v = c.round_trip(&Request::new(Action::Run, SAXPY).to_json().to_string());
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));

    // Oversized frame: error line, then the server hangs up.
    let mut big = TcpStream::connect(addr).unwrap();
    big.write_all(&vec![b'a'; 2048]).unwrap();
    big.write_all(b"\n").unwrap();
    let mut all = String::new();
    BufReader::new(big).read_to_string(&mut all).unwrap();
    assert!(all.contains("size limit"), "{all}");
    assert_eq!(all.lines().count(), 1, "exactly one error line then EOF");

    // Truncated frame: EOF mid-line is dropped silently and the daemon
    // keeps serving.
    let mut cut = TcpStream::connect(addr).unwrap();
    cut.write_all(b"{\"action\":\"run\",\"sou").unwrap();
    drop(cut);
    let v = c.round_trip(r#"{"action":"stats"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));

    c.shutdown(handle);
}

/// Parentheses nested 200 000 deep once overflowed the stack of the
/// connection's thread and aborted the daemon. They are a program error
/// now, and the same connection goes on answering.
#[test]
fn a_deeply_nested_program_is_refused_and_the_daemon_keeps_serving() {
    let (addr, handle) = start(quiet());
    let mut c = Client::connect(addr);
    let n = 200_000;
    let deep = format!(
        "int x;\nvoid main() {{ x = {}1{}; }}\n",
        "(".repeat(n),
        ")".repeat(n)
    );
    let v = c.round_trip(&Request::new(Action::Check, &deep).to_json().to_string());
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    let e = ApiError::from_json(v.get("error").unwrap()).unwrap();
    assert_eq!((e.kind, e.exit_code()), (ErrorKind::Program, 2));
    assert!(e.message.contains("nesting deeper than"), "{}", e.message);
    let v = c.round_trip(&Request::new(Action::Run, SAXPY).to_json().to_string());
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let resp = Response::from_json(v.get("response").unwrap()).unwrap();
    assert_eq!(resp.exit_code, 0);
    assert!(
        resp.report
            .contains("y                = [2.000000, 3.000000, 4.000000"),
        "{}",
        resp.report
    );
    c.shutdown(handle);
}

#[test]
fn overload_refusals_carry_a_retry_hint() {
    // 1 worker and a queue of 1: firing several concurrent requests must
    // refuse at least one with `overloaded` + retry_after_ms, and every
    // accepted one still renders the exact report. The clients connect
    // first and send together, and each request keeps the worker busy
    // well past that burst, so the queue bound engages however the
    // threads are scheduled.
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..quiet()
    });
    let line = Request::new(Action::Run, SAXPY_64X).to_json().to_string();
    let clients = 6;
    let ready = std::sync::Barrier::new(clients);
    let replies: Vec<Json> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut c = Client::connect(addr);
                    ready.wait();
                    c.round_trip(&line)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut report: Option<String> = None;
    let mut refused = 0;
    for v in &replies {
        if v.get("ok").and_then(Json::as_bool) == Some(true) {
            let resp = Response::from_json(v.get("response").unwrap()).unwrap();
            if let Some(first) = &report {
                assert_eq!(&resp.report, first, "served reports must agree");
            } else {
                report = Some(resp.report);
            }
        } else {
            let e = ApiError::from_json(v.get("error").unwrap()).unwrap();
            assert_eq!(e.kind, ErrorKind::Overloaded);
            assert!(e.retry_after_ms.unwrap_or(0) >= 1, "hint must be nonzero");
            assert_eq!(e.exit_code(), 3);
            refused += 1;
        }
    }
    assert!(report.is_some(), "at least one request must be served");
    // 1 running + 1 queued leaves at least four refusals among six.
    assert!(refused >= 1, "queue bound never engaged");
    let mut c = Client::connect(addr);
    let v = c.round_trip(r#"{"action":"stats"}"#);
    let rejected = v
        .get("stats")
        .and_then(|s| s.get("rejected"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(rejected, refused, "stats must count every refusal");
    c.shutdown(handle);
}

#[test]
fn tenant_namespaces_are_isolated_on_disk_but_share_nothing_warm() {
    let dir = std::env::temp_dir().join(format!("openarc-serve-proto-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, handle) = start(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..quiet()
    });
    let mut c = Client::connect(addr);
    let mut req = Request::new(Action::Run, SAXPY);
    req.tenant = "alice".into();
    let alice = c.round_trip(&req.to_json().to_string());
    req.tenant = "bob".into();
    let bob = c.round_trip(&req.to_json().to_string());
    // Same program, same bytes out...
    let a = Response::from_json(alice.get("response").unwrap()).unwrap();
    let b = Response::from_json(bob.get("response").unwrap()).unwrap();
    assert_eq!(a.report, b.report);
    // ...but bob compiled from scratch: alice's cached artifacts are
    // invisible across the namespace boundary, in memory and on disk.
    let v = c.round_trip(r#"{"action":"stats"}"#);
    let stats = v.get("stats").unwrap();
    assert_eq!(stats.get("tenants").and_then(Json::as_u64), Some(2));
    let disk = stats.get("disk").unwrap();
    assert_eq!(disk.get("hits").and_then(Json::as_u64), Some(0));
    assert!(disk.get("stores").and_then(Json::as_u64).unwrap() >= 2);
    // A repeat from alice is served warm (stage hits grow).
    req.tenant = "alice".into();
    c.round_trip(&req.to_json().to_string());
    let v = c.round_trip(r#"{"action":"stats"}"#);
    let hits: u64 = v
        .get("stats")
        .and_then(|s| s.get("stages"))
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|r| r.get("hits").and_then(Json::as_u64))
        .sum();
    assert!(hits > 0, "alice's repeat must hit her warm session");
    c.shutdown(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(tenants, completed, Σ stage hits + misses, disk hits)` from a
/// `stats` reply.
fn counters(c: &mut Client) -> (u64, u64, u64, u64) {
    let v = c.round_trip(r#"{"action":"stats"}"#);
    let stats = v.get("stats").unwrap();
    let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_u64).unwrap();
    let stage_requests = stats
        .get("stages")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|r| field(r, "hits") + field(r, "misses"))
        .sum();
    (
        field(stats, "tenants"),
        field(stats, "completed"),
        stage_requests,
        field(stats.get("disk").unwrap(), "hits"),
    )
}

#[test]
fn a_thousand_tenants_stay_under_the_cap_and_come_back_warm_from_disk() {
    let dir = std::env::temp_dir().join(format!("openarc-serve-cap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (addr, handle) = start(ServerConfig {
        cache_dir: Some(dir.join("store")),
        ..quiet()
    });
    let mut c = Client::connect(addr);
    let line = |tenant: &str| {
        let mut req = Request::new(Action::Run, SAXPY);
        req.tenant = tenant.into();
        req.to_json().to_string()
    };

    let mut last = counters(&mut c);
    for i in 0..1000 {
        let v = c.round_trip(&line(&format!("tenant-{i}")));
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "tenant {i}"
        );
        if i % 50 == 49 {
            let now = counters(&mut c);
            assert!(now.0 as usize <= MAX_TENANTS, "{} tenants warm", now.0);
            assert!(
                now.1 > last.1,
                "`completed` went backwards: {last:?} -> {now:?}"
            );
            assert!(
                now.2 > last.2,
                "stage counters went backwards: {last:?} -> {now:?}"
            );
            last = now;
        }
    }
    assert_eq!(last.1, 1000);

    // tenant-0 was evicted long ago: its repeat builds a new session that
    // finds the first one's entries in its disk namespace, and answers
    // with the one-shot CLI's bytes.
    let v = c.round_trip(&line("tenant-0"));
    let resp = Response::from_json(v.get("response").unwrap()).unwrap();
    let path = dir.join("saxpy.c");
    std::fs::write(&path, SAXPY).unwrap();
    let cli = std::process::Command::new(env!("CARGO_BIN_EXE_openarc"))
        .arg("run")
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(resp.report, String::from_utf8(cli.stdout).unwrap());
    assert_eq!(Some(resp.exit_code), cli.status.code());
    let now = counters(&mut c);
    assert!(now.0 as usize <= MAX_TENANTS);
    assert_eq!(now.1, last.1 + 1);
    assert!(now.2 > last.2);
    assert!(
        now.3 > last.3,
        "the evicted tenant's repeat missed its disk namespace"
    );

    c.shutdown(handle);
    let _ = std::fs::remove_dir_all(&dir);
}
