//! Batch-mode pipeline benchmark: runs the full 12-benchmark × 3-variant
//! matrix sequentially and fanned across `--jobs N` workers, asserts the
//! parallel output is byte-identical (rows, journals, and category
//! totals), times both modes, and writes the machine-readable
//! `BENCH_pipeline.json` report.
//!
//! With `--cache-dir DIR` the sweeps run over the persistent artifact
//! store: the sequential pass is the **cold** run (populating the store),
//! the parallel pass runs **warm** (loading Frontend/Translate/Execute
//! artifacts back), a third timed pass measures the steady warm cost, and
//! the report's `cache` block records the disk traffic — so a second
//! process over the same matrix shows zero stage misses for the persisted
//! stages.
use openarc_bench::args::{BenchArgs, FLAGS_HELP};
use openarc_bench::sweep::Sweep;
use openarc_bench::timing;
use openarc_core::pipeline::Session;
use openarc_trace::json::Json;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match BenchArgs::parse(&raw, None) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("pipeline: {e}");
            eprintln!("usage: pipeline {FLAGS_HELP}");
            std::process::exit(2);
        }
    };
    let scale = args.scale;
    // With the default --jobs 1 there is nothing to compare against, so
    // fall back to one worker per core.
    let jobs = if args.jobs <= 1 {
        openarc_core::sched::auto_jobs()
    } else {
        args.jobs
    };

    let sequential = Sweep::with_session(scale, 1, args.session());
    let parallel = Sweep::with_session(scale, jobs, args.session());
    let (rows_seq, events_seq) = match sequential.matrix() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("pipeline: sequential matrix failed: {e}");
            std::process::exit(1);
        }
    };
    let (rows_par, events_par) = match parallel.matrix() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("pipeline: parallel matrix failed: {e}");
            std::process::exit(1);
        }
    };

    // Determinism gate: the parallel run must be byte-identical to the
    // sequential one — same rows (f64s compared bit-for-bit via the JSON
    // rendering), same merged journal, same per-category totals. With a
    // disk cache the parallel run replays stored journal streams, so the
    // gate also proves warm runs are observationally exact.
    let json_seq = Json::Arr(rows_seq.iter().map(|r| r.to_json()).collect()).pretty();
    let json_par = Json::Arr(rows_par.iter().map(|r| r.to_json()).collect()).pretty();
    let identical = json_seq == json_par
        && events_seq == events_par
        && openarc_trace::category_totals(&events_seq)
            == openarc_trace::category_totals(&events_par);
    if !identical {
        eprintln!("pipeline: parallel output diverges from sequential — determinism bug");
        std::process::exit(1);
    }
    println!(
        "matrix: {} cells, {} journal events, parallel (jobs={jobs}) output identical to sequential",
        rows_seq.len(),
        events_seq.len()
    );

    // Where the parallel matrix spent its wall-clock time, per pipeline
    // stage (summed across workers; cache hits included).
    let stages = parallel.session.stage_times();
    println!("parallel stage breakdown (wall clock, summed across workers):");
    for (stage, us) in stages {
        if us > 0.0 {
            println!("  {:<12} {:>12.1} µs", stage.label(), us);
        }
    }

    let samples = 5;
    let t_seq = timing::report("matrix sequential", samples, || {
        Sweep::sequential(scale).matrix().unwrap()
    });
    let t_par = timing::report(&format!("matrix --jobs {jobs}"), samples, || {
        Sweep::new(scale, jobs).matrix().unwrap()
    });
    let speedup = t_seq.p50_ms() / t_par.p50_ms().max(1e-9);
    println!("speedup (p50): {speedup:.2}x");

    // Warm timing: fresh processes would see exactly this — a new session
    // per sample, every persisted stage served from disk.
    let t_warm = args.cache_dir.as_ref().map(|dir| {
        let dir = dir.clone();
        timing::report("matrix warm (disk cache)", samples, move || {
            Sweep::with_session(scale, 1, Session::builder().disk_cache(&dir).build())
                .matrix()
                .unwrap()
        })
    });

    let mut report = vec![
        ("n", Json::from(scale.n)),
        ("iters", Json::from(scale.iters)),
        ("jobs", Json::from(jobs)),
        ("cells", Json::from(rows_seq.len())),
        ("journal_events", Json::from(events_seq.len())),
        ("identical_output", Json::from(identical)),
        ("sequential", t_seq.to_json()),
        ("parallel", t_par.to_json()),
        ("speedup_p50", Json::from(speedup)),
        (
            "parallel_stage_us",
            Json::obj(
                stages
                    .iter()
                    .map(|(s, us)| (s.label(), Json::from(*us)))
                    .collect(),
            ),
        ),
    ];
    if let Some(t_warm) = &t_warm {
        report.push(("warm", t_warm.to_json()));
        report.push((
            "warm_speedup_p50",
            Json::from(t_seq.p50_ms() / t_warm.p50_ms().max(1e-9)),
        ));
    }
    let disk_json = |s: openarc_core::DiskStats| {
        Json::obj(vec![
            ("hits", Json::from(s.hits)),
            ("misses", Json::from(s.misses)),
            ("stores", Json::from(s.stores)),
            ("evictions", Json::from(s.evictions)),
            ("corrupt", Json::from(s.corrupt)),
        ])
    };
    if let Some(dir) = &args.cache_dir {
        let seq_disk = sequential.session.stats().disk;
        let par_disk = parallel.session.stats().disk;
        report.push((
            "cache",
            Json::obj(vec![
                ("dir", Json::from(dir.to_string_lossy().as_ref())),
                ("cold", disk_json(seq_disk)),
                ("warm", disk_json(par_disk)),
            ]),
        ));
        println!(
            "cache: cold {} stores, warm {} hits / {} misses",
            seq_disk.stores, par_disk.hits, par_disk.misses
        );
    }
    std::fs::write("BENCH_pipeline.json", Json::obj(report).pretty()).ok();
    println!("wrote BENCH_pipeline.json");
}
