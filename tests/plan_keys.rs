//! A cache key hashes what its stage reads, and nothing else.
//!
//! A plan id hashes `ExecOptions::key_view()` and a translation id
//! `TranslateOptions::key_view()`. For each program and each option a
//! flip can change, starting from what `run`, `check`, `cpu` and `verify`
//! ask for (and four translation legs):
//!
//! * **sound** — the options and their view have one key, and the run
//!   (or translation) under the raw options has the OARCBIN bytes, at a
//!   fixed id and with its journal, of the run under the view. So a field
//!   the view clears is never read: the executor reads the raw options,
//!   and a real dependence shows as a byte difference here.
//! * **tight** — every field the view keeps in a mode changes the bytes
//!   of some program's run in that mode (a step budget of 1, say, turns
//!   the run into a step-limit error).
//!
//! Programs: the suite variants and the stripped programs (at n = 16, two
//! iterations), `tests/corpus` and 24 generated programs in tier-1;
//! 2 000 generated programs in the `#[ignore]`d large variant (CI runs it
//! with `--release`).

use openarc::core::cache::bin::{encode_run, encode_translated};
use openarc::core::exec::{execute, ExecMode, ExecOptions, TransferKey, VerifyOptions};
use openarc::core::faults::strip_privatization;
use openarc::core::fuzz::{gen, FuzzRng};
use openarc::core::pipeline::{ArtifactId, FrontendArtifact, Session, Stage, TranslatedArtifact};
use openarc::core::translate::{translate, TranslateOptions, Translated};
use openarc::minic::NodeId;
use openarc::suite::{all, Scale, Variant};
use openarc::trace::{EventKind, Journal};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::rc::Rc;

/// Entry bytes at a fixed id, or the error the stage returned.
type Bytes = Result<Vec<u8>, String>;

/// Names a flip needs from the program it is applied to.
#[derive(Default)]
struct Sites {
    /// The transfer the program's `run` makes most often.
    transfer: Option<TransferKey>,
    /// The first `update` directive's statement.
    update: Option<NodeId>,
}

/// One option field and a value for it other than the leg's.
struct Flip<O> {
    field: &'static str,
    apply: fn(&mut O, &Sites),
}

fn in_verify(o: &mut ExecOptions, f: impl FnOnce(&mut VerifyOptions)) {
    if let ExecMode::Verify(v) = &mut o.mode {
        f(v);
    }
}

fn exec_flips() -> Vec<Flip<ExecOptions>> {
    vec![
        Flip {
            field: "check_transfers",
            apply: |o, _| o.check_transfers = !o.check_transfers,
        },
        Flip {
            field: "race_detect",
            apply: |o, _| o.race_detect = !o.race_detect,
        },
        Flip {
            field: "launch.wave",
            apply: |o, _| o.launch.wave = 32,
        },
        Flip {
            field: "launch.step_budget",
            apply: |o, _| o.launch.step_budget = 1,
        },
        Flip {
            field: "step_budget",
            apply: |o, _| o.step_budget = 1,
        },
        Flip {
            field: "overlay.disable",
            apply: |o, s| o.overlay.disable.extend(s.transfer.clone()),
        },
        Flip {
            field: "overlay.defer",
            apply: |o, s| o.overlay.defer.extend(s.transfer.clone()),
        },
        Flip {
            field: "verify.targets",
            apply: |o, _| in_verify(o, |v| v.targets = Some(BTreeSet::new())),
        },
        Flip {
            field: "verify.complement",
            apply: |o, _| in_verify(o, |v| v.complement = !v.complement),
        },
        Flip {
            field: "verify.rel_tol",
            apply: |o, _| in_verify(o, |v| v.rel_tol = 1e300),
        },
        Flip {
            field: "verify.abs_tol",
            apply: |o, _| in_verify(o, |v| v.abs_tol = 1e300),
        },
        Flip {
            field: "verify.min_value_to_check",
            apply: |o, _| in_verify(o, |v| v.min_value_to_check = 1e300),
        },
        Flip {
            field: "verify.queue",
            apply: |o, _| in_verify(o, |v| v.queue = 7),
        },
        Flip {
            field: "verify.devices",
            apply: |o, _| in_verify(o, |v| v.devices = 3),
        },
    ]
}

fn translate_flips() -> Vec<Flip<TranslateOptions>> {
    vec![
        Flip {
            field: "instrument",
            apply: |o, _| o.instrument = !o.instrument,
        },
        Flip {
            field: "optimize_checks",
            apply: |o, _| o.optimize_checks = !o.optimize_checks,
        },
        Flip {
            field: "hoist_gpu_checks",
            apply: |o, _| o.hoist_gpu_checks = !o.hoist_gpu_checks,
        },
        Flip {
            field: "auto_privatize",
            apply: |o, _| o.auto_privatize = !o.auto_privatize,
        },
        Flip {
            field: "auto_reduction",
            apply: |o, _| o.auto_reduction = !o.auto_reduction,
        },
        Flip {
            field: "ignored_update_stmts",
            apply: |o, s| o.ignored_update_stmts.extend(s.update),
        },
    ]
}

/// The request each leg starts from: `(leg, instrumented, options)`.
fn exec_legs() -> Vec<(&'static str, bool, ExecOptions)> {
    vec![
        ("run", false, ExecOptions::default()),
        (
            "check",
            true,
            ExecOptions {
                check_transfers: true,
                ..Default::default()
            },
        ),
        (
            "cpu",
            false,
            ExecOptions {
                mode: ExecMode::CpuOnly,
                ..Default::default()
            },
        ),
        (
            "verify",
            false,
            ExecOptions {
                mode: ExecMode::Verify(VerifyOptions::default()),
                ..Default::default()
            },
        ),
    ]
}

/// The translation legs, over a program's own privatization flags.
fn translate_legs(base: &TranslateOptions) -> Vec<(&'static str, TranslateOptions)> {
    let instrumented = TranslateOptions {
        instrument: true,
        ..base.clone()
    };
    vec![
        ("plain", base.clone()),
        ("instrumented", instrumented.clone()),
        (
            "instrumented-naive",
            TranslateOptions {
                optimize_checks: false,
                ..instrumented.clone()
            },
        ),
        (
            "instrumented-unhoisted",
            TranslateOptions {
                hoist_gpu_checks: false,
                ..instrumented
            },
        ),
    ]
}

fn mode_label(o: &ExecOptions) -> &'static str {
    match o.mode {
        ExecMode::Normal => "Normal",
        ExecMode::CpuOnly => "CpuOnly",
        ExecMode::Verify(_) => "Verify",
    }
}

/// Per `(mode, field)`: whether the key kept the flip, and whether some
/// program's bytes moved with it.
#[derive(Default)]
struct Tally {
    kept: BTreeSet<(&'static str, &'static str)>,
    read: BTreeSet<(&'static str, &'static str)>,
}

impl Tally {
    fn assert_tight(&self) {
        let unshown: Vec<_> = self.kept.difference(&self.read).collect();
        assert!(
            unshown.is_empty(),
            "kept in the key but never shown read: {unshown:?}"
        );
    }
}

/// A program's stages run directly (not through the session, whose memo
/// would serve one key's entry for both sides), each option set once.
struct Program<'a> {
    label: &'a str,
    fe: &'a FrontendArtifact,
    session: &'a Session,
    translations: HashMap<String, (Bytes, Option<Rc<Translated>>)>,
}

impl Program<'_> {
    fn translation(&mut self, o: &TranslateOptions) -> (Bytes, Option<Rc<Translated>>) {
        let fe = self.fe;
        self.translations
            .entry(format!("{o:?}"))
            .or_insert_with(|| match translate(&fe.program, &fe.sema, o) {
                Ok(tr) => {
                    let stage = if o.instrument {
                        Stage::Instrument
                    } else {
                        Stage::Analysis
                    };
                    let art = TranslatedArtifact {
                        id: ArtifactId(0),
                        instrumented: o.instrument,
                        tr,
                    };
                    (Ok(encode_translated(stage, &art)), Some(Rc::new(art.tr)))
                }
                Err(e) => (Err(format!("{e:?}")), None),
            })
            .clone()
    }

    /// The key the session gives a translation under `o`, when it
    /// translates.
    fn translation_id(&self, o: &TranslateOptions) -> Option<ArtifactId> {
        self.session.translate(self.fe, o).ok().map(|t| t.id)
    }

    fn check_translations(&mut self, base: &TranslateOptions, sites: &Sites, tally: &mut Tally) {
        for (leg, lo) in translate_legs(base) {
            let Some(base_id) = self.translation_id(&lo) else {
                continue;
            };
            let base_bytes = self.translation(&lo).0;
            // The leg itself first: its own view must be sound too.
            let flips = translate_flips();
            for flip in std::iter::once(None).chain(flips.iter().map(Some)) {
                let mut o = lo.clone();
                let field = flip.map_or("(leg)", |f| {
                    (f.apply)(&mut o, sites);
                    f.field
                });
                let view = o.key_view();
                let (Some(id), Some(view_id)) =
                    (self.translation_id(&o), self.translation_id(&view))
                else {
                    continue;
                };
                let label = self.label;
                assert_eq!(
                    id, view_id,
                    "{label} {leg} {field}: key differs from its view's"
                );
                let bytes = self.translation(&o).0;
                assert!(
                    bytes == self.translation(&view).0,
                    "{label} {leg} {field}: the view clears a flag the translation reads"
                );
                if id != base_id {
                    tally.kept.insert(("translate", field));
                    if bytes != base_bytes {
                        tally.read.insert(("translate", field));
                    }
                }
            }
        }
    }

    fn check_runs(&mut self, base: &TranslateOptions, sites: &Sites, tally: &mut Tally) {
        for (leg, instrumented, lo) in exec_legs() {
            let topts = TranslateOptions {
                instrument: instrumented,
                ..base.clone()
            };
            let Some(tra) = self.session.translate(self.fe, &topts).ok() else {
                continue;
            };
            let Some(tr) = self.translation(&topts).1 else {
                continue;
            };
            let mut runs: HashMap<String, Bytes> = HashMap::new();
            let mut run = |o: &ExecOptions| {
                let key = format!("{o:?}");
                runs.entry(key).or_insert_with(|| run_bytes(&tr, o)).clone()
            };
            let base_id = self.session.plan(&tra, &lo).id;
            let base_bytes = run(&lo);
            // The leg itself first: its own view must be sound too.
            let flips = exec_flips();
            for flip in std::iter::once(None).chain(flips.iter().map(Some)) {
                let mut o = lo.clone();
                let field = flip.map_or("(leg)", |f| {
                    (f.apply)(&mut o, sites);
                    f.field
                });
                let view = o.key_view();
                let id = self.session.plan(&tra, &o).id;
                let label = self.label;
                let view_id = self.session.plan(&tra, &view).id;
                assert_eq!(
                    id, view_id,
                    "{label} {leg} {field}: key differs from its view's"
                );
                let bytes = run(&o);
                assert!(
                    bytes == run(&view),
                    "{label} {leg} {field}: the view clears a field the run reads"
                );
                if id != base_id {
                    let key = (mode_label(&lo), field);
                    tally.kept.insert(key);
                    if bytes != base_bytes {
                        tally.read.insert(key);
                    }
                }
            }
        }
    }
}

/// One journaled run: its entry bytes at id 0, events included.
fn run_bytes(tr: &Translated, o: &ExecOptions) -> Bytes {
    let journal = Journal::enabled();
    let opts = ExecOptions {
        journal: journal.clone(),
        ..o.clone()
    };
    let r = execute(tr, &opts).map_err(|e| e.to_string())?;
    Ok(encode_run(ArtifactId(0), &r, &journal.drain()))
}

/// The names the flips use: the most frequent transfer of a plain
/// Normal run, and the first `update` directive.
fn sites_of(tr: &Translated) -> Sites {
    let journal = Journal::enabled();
    let opts = ExecOptions {
        journal: journal.clone(),
        ..Default::default()
    };
    let mut counts: BTreeMap<TransferKey, usize> = BTreeMap::new();
    if execute(tr, &opts).is_ok() {
        for e in journal.drain() {
            if let EventKind::Transfer {
                var,
                site,
                to_device,
                ..
            } = e.kind
            {
                let key = TransferKey {
                    site,
                    var,
                    to_device,
                };
                *counts.entry(key).or_default() += 1;
            }
        }
    }
    let most = counts.values().max().copied();
    Sites {
        transfer: counts
            .into_iter()
            .find(|(_, n)| Some(*n) == most)
            .map(|(k, _)| k),
        update: tr.update_sites.first().map(|(_, id)| *id),
    }
}

/// Check one program; `strip` translates it stripped of privatization
/// with recognition off, as the fault-injection protocol does.
fn check_program(session: &Session, label: &str, src: &str, strip: bool, tally: &mut Tally) {
    let Ok(fe) = session.frontend(src) else {
        return;
    };
    let (fe, base) = if strip {
        let (p, _) = strip_privatization(&fe.program).expect("strip");
        let topts = TranslateOptions {
            auto_privatize: false,
            auto_reduction: false,
            ..Default::default()
        };
        (session.frontend_program(p, fe.sema.clone()), topts)
    } else {
        (fe, TranslateOptions::default())
    };
    let mut prog = Program {
        label,
        fe: &fe,
        session,
        translations: HashMap::new(),
    };
    let sites = match prog.translation(&base).1 {
        Some(tr) => sites_of(&tr),
        None => Sites::default(),
    };
    prog.check_translations(&base, &sites, tally);
    prog.check_runs(&base, &sites, tally);
}

/// The suite variants, the stripped programs and the corpus:
/// `(label, source, stripped)`.
fn fixed_programs() -> Vec<(String, String, bool)> {
    let mut out = Vec::new();
    for b in all(Scale { n: 16, iters: 2 }) {
        for v in Variant::ALL {
            let label = format!("{}/{}", b.name, v.name());
            out.push((label, b.source(v).to_string(), false));
        }
        let src = b.source(Variant::Optimized).to_string();
        out.push((format!("{}/stripped", b.name), src, true));
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    for f in files {
        let src = std::fs::read_to_string(&f).expect("readable corpus file");
        out.push((f.display().to_string(), src, false));
    }
    out
}

/// `count` generated programs at seed 42.
fn generated(count: usize) -> Vec<(String, String, bool)> {
    let mut rng = FuzzRng::new(42);
    (0..count)
        .map(|i| (format!("gen/42/{i}"), gen::generate(&mut rng.fork()), false))
        .collect()
}

/// Check every program, on two threads, each with sessions of its own.
fn check_all(programs: &[(String, String, bool)]) -> Tally {
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let half = |start: usize| {
            s.spawn(move || {
                let mut tally = Tally::default();
                for (label, src, strip) in programs.iter().skip(start).step_by(2) {
                    let session = Session::builder().build();
                    check_program(&session, label, src, *strip, &mut tally);
                }
                tally
            })
        };
        let (a, b) = (half(0), half(1));
        [a, b].map(|h| h.join().expect("checker thread")).into()
    });
    let mut all = Tally::default();
    for t in tallies {
        all.kept.extend(t.kept);
        all.read.extend(t.read);
    }
    all
}

#[test]
fn every_key_hashes_what_its_stage_reads() {
    let mut programs = fixed_programs();
    programs.extend(generated(24));
    check_all(&programs).assert_tight();
}

#[test]
#[ignore = "2 000 generated programs; run in CI with --release"]
fn every_key_hashes_what_its_stage_reads_on_2000_generated_programs() {
    // Soundness only: tightness is judged on the tier-1 set.
    check_all(&generated(2000));
}
