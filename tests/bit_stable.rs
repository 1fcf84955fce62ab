//! Simulated time is a function of the program and the options, to the
//! last bit. `TimeBreakdown::total()` once summed a `HashMap` in iteration
//! order, and std's `RandomState` reseeds per map, so two runs *in one
//! process* already summed in different orders — which is what this test
//! does: every answer four times, from fresh sessions, compared as bytes.

use openarc::core::api::{handle, Action, Request};
use openarc::core::pipeline::Session;
use openarc::suite::{all, Scale, Variant};
use openarc::trace::bin::{write_events, Writer};

/// (`sim_time_us` bits, report bytes, OARCBIN-encoded journal) of one
/// request answered by a fresh session, or the error it is refused with.
fn answer(req: &Request) -> Result<(u64, String, Vec<u8>), String> {
    let r = handle(&Session::builder().build(), req).map_err(|e| e.to_string())?;
    let mut w = Writer::new();
    write_events(&mut w, &r.events);
    Ok((r.sim_time_us.to_bits(), r.report, w.into_bytes()))
}

fn assert_repeats(what: &str, req: &Request) {
    let first = answer(req);
    for _ in 0..3 {
        assert!(
            answer(req) == first,
            "{what} {}: two runs of one build differ",
            req.action.as_str()
        );
    }
}

#[test]
fn verify_runs_repeat_to_the_last_bit() {
    for b in all(Scale { n: 16, iters: 2 }) {
        let src = b.source(Variant::Optimized);
        // `verify` gives the report and the summed breakdown; `profile`
        // with a (default) verification spec gives that run's journal.
        let verify = Request::new(Action::Verify, src);
        let mut profile = Request::new(Action::Profile, src);
        profile.options = Some(String::new());
        assert!(answer(&verify).is_ok(), "{} verifies", b.name);
        assert_repeats(b.name, &verify);
        assert_repeats(b.name, &profile);
    }
}

#[test]
fn corpus_runs_repeat_to_the_last_bit() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("tests/corpus exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|x| x == "c") {
            let src = std::fs::read_to_string(&path).expect("readable corpus file");
            let mut run = Request::new(Action::Run, src);
            run.journal = true;
            assert_repeats(&path.display().to_string(), &run);
            seen += 1;
        }
    }
    assert!(seen >= 6, "regression corpus shrank unexpectedly");
}
