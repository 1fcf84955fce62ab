//! Full-process gate for `openarc serve`: start the real daemon binary
//! on a disk store, drive it over TCP with the 12-benchmark corpus, and
//! require that every served report is **byte-identical** to the one-shot
//! CLI's stdout for the same program and command — plus exit-code
//! agreement, and on a repeat pass from concurrent clients the same bytes
//! again, warm-session hits and no refused or lost request.

use openarc::core::api::{Action, Request, Response};
use openarc::suite::{all, Scale, Variant};
use openarc::trace::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_openarc"))
}

/// Start `openarc serve` on an ephemeral port and parse the
/// `listening on ADDR` discovery line from its stdout.
fn spawn_daemon(extra: &[&str]) -> (Child, String) {
    let mut child = bin()
        .arg("serve")
        .arg("--stats-interval-ms")
        .arg("0")
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().unwrap())
        .read_line(&mut line)
        .unwrap();
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("bad discovery line: {line:?}"))
        .trim()
        .to_string();
    (child, addr)
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
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
        assert!(!reply.is_empty(), "daemon closed the connection");
        Json::parse(&reply).unwrap()
    }
}

/// `verify` runs on two simulated devices on part of the corpus
/// so the daemon path covers it too.
const VERIFY_SPEC: &str = "devices=2";

fn corpus_action(i: usize) -> (Action, Option<String>, &'static str) {
    match i % 3 {
        0 => (Action::Run, None, "run"),
        1 => (Action::Check, None, "check"),
        _ => (Action::Verify, Some(VERIFY_SPEC.to_string()), "verify"),
    }
}

#[test]
fn served_reports_are_byte_identical_to_the_one_shot_cli() {
    let dir = std::env::temp_dir().join("openarc-serve-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let (mut child, addr) = spawn_daemon(&["--jobs", "2", "--cache-dir", store.to_str().unwrap()]);
    let mut client = Client::connect(&addr);
    let corpus = all(Scale::default());
    let mut first_pass = Vec::new();

    for (i, b) in corpus.iter().enumerate() {
        let (action, options, cmd) = corpus_action(i);
        let source = b.source(Variant::Naive);

        // One-shot ground truth: the real CLI on the real file.
        let path = dir.join(format!("{}.c", b.name));
        std::fs::write(&path, source).unwrap();
        let mut one_shot = bin();
        one_shot.arg(cmd).arg(&path);
        if let Some(spec) = &options {
            one_shot.arg(spec);
        }
        let one_shot = one_shot.output().unwrap();
        let expected = String::from_utf8(one_shot.stdout).unwrap();
        let expected_code = one_shot.status.code().unwrap();

        // Served: same program through the daemon.
        let mut req = Request::new(action, source);
        req.options = options;
        let reply = client.round_trip(&req.to_json().to_string());
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{} {cmd}: {reply:?}",
            b.name
        );
        let resp = Response::from_json(reply.get("response").unwrap()).unwrap();
        assert_eq!(
            resp.report, expected,
            "{} {cmd}: report bytes differ",
            b.name
        );
        assert_eq!(resp.exit_code, expected_code, "{} {cmd}", b.name);
        first_pass.push(resp);
    }

    // Second pass over the corpus from two concurrent connections: every
    // reply must repeat the first pass byte for byte, and the daemon's
    // warm sessions must show stage-cache hits (the one-shot CLI pays the
    // full pipeline each time; the daemon must not).
    const CLIENTS: usize = 2;
    let connected = std::sync::Barrier::new(CLIENTS);
    let second_pass: Vec<Vec<Response>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::connect(&addr);
                    connected.wait();
                    corpus
                        .iter()
                        .enumerate()
                        .map(|(i, b)| {
                            let (action, options, _) = corpus_action(i);
                            let mut req = Request::new(action, b.source(Variant::Naive));
                            req.options = options;
                            let reply = client.round_trip(&req.to_json().to_string());
                            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
                            Response::from_json(reply.get("response").unwrap()).unwrap()
                        })
                        .collect()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for replies in &second_pass {
        for ((b, first), again) in corpus.iter().zip(&first_pass).zip(replies) {
            assert_eq!(
                again.report, first.report,
                "{}: repeat report differs",
                b.name
            );
            assert_eq!(again.exit_code, first.exit_code, "{}", b.name);
        }
    }
    let stats = client.round_trip(r#"{"action":"stats"}"#);
    let stats = stats.get("stats").unwrap();
    let hits: u64 = stats
        .get("stages")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|r| r.get("hits").and_then(Json::as_u64))
        .sum();
    assert!(hits > 0, "second pass never hit the warm sessions: {stats}");
    assert_eq!(stats.get("rejected").and_then(Json::as_u64), Some(0));
    let sent = corpus.len() * (1 + CLIENTS);
    assert_eq!(
        stats.get("completed").and_then(Json::as_u64),
        Some(sent as u64),
        "{stats}"
    );

    let ack = client.round_trip(r#"{"action":"shutdown"}"#);
    assert_eq!(ack.get("shutdown").and_then(Json::as_bool), Some(true));
    let status = child.wait().unwrap();
    assert!(status.success(), "daemon exit: {status:?}");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn serve_rejects_bad_flags_with_usage() {
    let out = bin().arg("serve").arg("--frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown serve flag"), "{err}");
}
