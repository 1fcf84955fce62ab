//! The session launch memo changes nothing a user can observe. Every
//! comparison below runs a request on one warm `Session` — after a primer
//! request whose plan differs but whose kernel launches are the same, so
//! the compared request replays every launch instead of simulating it —
//! and again on a fresh `Session` of its own, which meets those launches
//! for the first time. Reports, journal bytes, `sim_time_us` bits, race
//! verdicts and verification tuples must match. Debug builds also
//! re-simulate every hit inside the memo.

use openarc::core::api::{handle, Action, Request};
use openarc::core::exec::{ExecOptions, KernelVerification, VerifyOptions};
use openarc::core::fuzz::{run_campaign, CampaignConfig};
use openarc::core::interactive::optimize_transfers_in_session;
use openarc::core::pipeline::Session;
use openarc::core::strip_privatization;
use openarc::core::translate::TranslateOptions;
use openarc::core::verify::VerificationReport;
use openarc::suite::{all, Scale, Variant};
use openarc::trace::bin::{write_events, Writer};
use openarc::trace::{Journal, TraceEvent};

fn event_bytes(events: &[TraceEvent]) -> Vec<u8> {
    let mut w = Writer::new();
    write_events(&mut w, events);
    w.into_bytes()
}

/// Everything a reply shows: exit code, report, `sim_time_us` bits,
/// launches, journal bytes — or the error it is refused with.
fn reply(session: &Session, req: &Request) -> Result<(i32, String, u64, u64, Vec<u8>), String> {
    let r = handle(session, req).map_err(|e| e.to_string())?;
    Ok((
        r.exit_code,
        r.report,
        r.sim_time_us.to_bits(),
        r.kernel_launches,
        event_bytes(&r.events),
    ))
}

/// Answer `req` on `warm` after `primer`, and on a fresh session; the two
/// must agree, and the warm answer must simulate no launch. Returns the
/// launch hits the warm answer took.
fn same_on_warm_and_fresh(what: &str, warm: &Session, primer: &Request, req: &Request) -> u64 {
    let _ = handle(warm, primer);
    let before = warm.stats().launches;
    let replayed = reply(warm, req);
    let after = warm.stats().launches;
    let fresh = reply(&Session::builder().build(), req);
    let action = req.action.as_str();
    assert_eq!(
        after.misses, before.misses,
        "{what} {action}: simulated again"
    );
    assert!(
        replayed == fresh,
        "{what} {action}: a warm session answers differently\nwarm:  {replayed:?}\nfresh: {fresh:?}"
    );
    after.hits - before.hits
}

/// `run` and `check` journaled, primed by the same request unjournaled
/// (another plan, the same launches).
fn journaled_pair(action: Action, src: &str) -> (Request, Request) {
    let primer = Request::new(action, src);
    let mut req = primer.clone();
    req.journal = true;
    (primer, req)
}

#[test]
fn variants_answer_the_same_from_a_warm_session() {
    let warm = Session::builder().build();
    let mut hits = 0;
    for b in all(Scale { n: 8, iters: 2 }) {
        for v in Variant::ALL {
            let src = b.source(v);
            let what = format!("{} [{}]", b.name, v.name());
            for action in [Action::Run, Action::Check] {
                let (primer, req) = journaled_pair(action, src);
                hits += same_on_warm_and_fresh(&what, &warm, &primer, &req);
            }
            // Another verification queue: another plan, the same launches.
            let mut primer = Request::new(Action::Verify, src);
            primer.options = Some("queue=2".into());
            let req = Request::new(Action::Verify, src);
            hits += same_on_warm_and_fresh(&what, &warm, &primer, &req);
        }
    }
    assert!(hits > 0, "no compared request replayed a launch");
}

#[test]
fn corpus_answers_the_same_from_a_warm_session() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let warm = Session::builder().build();
    let (mut seen, mut hits) = (0, 0);
    for entry in std::fs::read_dir(dir).expect("tests/corpus exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|x| x == "c") {
            let src = std::fs::read_to_string(&path).expect("readable corpus file");
            for action in [Action::Run, Action::Check] {
                let (primer, req) = journaled_pair(action, &src);
                hits += same_on_warm_and_fresh(&path.display().to_string(), &warm, &primer, &req);
            }
            seen += 1;
        }
    }
    assert!(seen >= 6, "regression corpus shrank unexpectedly");
    assert!(hits > 0, "no corpus request replayed a launch");
}

/// A verification report as comparable bits.
fn report_bits(rep: &VerificationReport) -> String {
    let tuple = |k: &KernelVerification| {
        (
            k.kernel.clone(),
            k.launches,
            k.failed_launches,
            k.compared_elems,
            k.mismatched_elems,
            k.max_abs_err.to_bits(),
            k.assertion_failures,
        )
    };
    let kernels: Vec<_> = rep.kernels.iter().map(tuple).collect();
    format!(
        "{kernels:?} {:?} {} {} {:?}",
        rep.breakdown,
        rep.breakdown.total().to_bits(),
        rep.cpu_baseline_us.to_bits(),
        rep.races
    )
}

#[test]
fn stripped_programs_verify_the_same_from_a_warm_session() {
    let topts = TranslateOptions {
        auto_privatize: false,
        auto_reduction: false,
        ..Default::default()
    };
    let verify = |s: &Session, program, sema, v: VerifyOptions| {
        let fe = s.frontend_program(program, sema);
        let (_, rep) = s.verify(&fe, &topts, v).expect("stripped program verifies");
        report_bits(&rep)
    };
    let warm = Session::builder().build();
    for b in all(Scale { n: 16, iters: 2 }) {
        let fe = warm.frontend(b.source(Variant::Optimized)).unwrap();
        let (stripped, _) = strip_privatization(&fe.program).unwrap();
        let primer = VerifyOptions {
            queue: 2,
            ..Default::default()
        };
        verify(&warm, stripped.clone(), fe.sema.clone(), primer);
        let before = warm.stats().launches;
        let replayed = verify(
            &warm,
            stripped.clone(),
            fe.sema.clone(),
            VerifyOptions::default(),
        );
        let after = warm.stats().launches;
        assert_eq!(
            after.misses, before.misses,
            "{}: a launch was simulated again",
            b.name
        );
        assert!(after.hits > before.hits, "{}", b.name);
        let fresh = Session::builder().build();
        let expect = verify(&fresh, stripped, fe.sema.clone(), VerifyOptions::default());
        assert_eq!(replayed, expect, "{}", b.name);
    }
}

#[test]
fn interactive_loops_converge_the_same_from_a_warm_session() {
    let topts = TranslateOptions {
        instrument: true,
        ..Default::default()
    };
    // The loop as a user sees it, rounds and journal bytes included.
    let run_loop = |s: &Session, b: &openarc::suite::Benchmark, journal: Journal| {
        let fe = s.frontend(b.source(Variant::Unoptimized)).unwrap();
        let out = optimize_transfers_in_session(
            s,
            &fe.program,
            &fe.sema,
            &topts,
            &b.outputs,
            &ExecOptions {
                race_detect: false,
                journal: journal.clone(),
                ..Default::default()
            },
            12,
        )
        .unwrap();
        let shown = format!(
            "{} {} {} {:?} {:?} {:?}",
            out.iterations,
            out.incorrect_iterations,
            out.converged,
            out.overlay,
            out.final_stats,
            out.log
        );
        (out.iterations, shown, event_bytes(&journal.drain()))
    };
    let warm = Session::builder().build();
    let (mut rounds, mut hits) = (0, 0);
    for b in all(Scale { n: 32, iters: 4 }) {
        // Unjournaled first: the journaled loop's plans all miss, its
        // launches do not — unless the byte budget cleared the table on
        // the way. A fresh session simulates each distinct launch of the
        // loop once.
        let primed = warm.stats().launches;
        run_loop(&warm, &b, Journal::disabled());
        let before = warm.stats().launches;
        let replayed = run_loop(&warm, &b, Journal::enabled());
        let after = warm.stats().launches;
        if after.evictions == primed.evictions {
            assert_eq!(after.misses, before.misses, "{}: simulated again", b.name);
        }
        hits += after.hits - before.hits;
        let fresh = run_loop(&Session::builder().build(), &b, Journal::enabled());
        assert!(
            replayed == fresh,
            "{}: the loop ran differently from a warm session",
            b.name
        );
        rounds += replayed.0;
    }
    assert_eq!(rounds, 28, "Table III's iteration total");
    assert!(hits > 0);
}

#[test]
fn a_campaign_keeps_its_fingerprint() {
    // Recorded before the launch memo existed.
    let cfg = CampaignConfig {
        seed: 27,
        max_programs: 300,
        ..Default::default()
    };
    assert_eq!(run_campaign(&cfg).fingerprint, 0xe54c_1307_ccec_9b5f);
}
