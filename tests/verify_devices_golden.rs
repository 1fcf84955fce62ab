//! Multi-device verified runs are pinned bit for bit against committed
//! values: one FNV-1a digest per suite benchmark × device count, committed
//! in `tests/golden/verify_devices.tsv`.
//!
//! Each row runs one benchmark's naive variant at `Scale::default()` under
//! kernel verification with `devices ∈ {1, 2, 3}` and digests four things:
//! the run journal's OARCBIN event bytes, the simulated clock's final
//! reading, every `Category` of the time breakdown, and the per-kernel
//! verdicts. The observable comparisons elsewhere would not notice a
//! launch that moves on the simulated timeline; this file does.
//! `UPDATE_GOLDEN=1` rewrites the file, which is only right for a change
//! that moves the multi-device schedule on purpose.

use openarc::core::exec::{ExecMode, ExecOptions, VerifyOptions};
use openarc::core::translate::TranslateOptions;
use openarc::suite::{all, run_variant, Scale, Variant};
use openarc::trace::bin::{write_events, Writer};
use openarc::trace::{Category, Journal};
use std::fmt::Write as _;
use std::path::Path;

/// FNV-1a 64 over a byte stream fed in pieces.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[test]
fn verified_runs_on_one_to_three_devices_match_golden() {
    let mut table = String::from("# benchmark\tdevices\tevents\tfnv1a\n");
    for b in all(Scale::default()) {
        for devices in 1..=3 {
            let journal = Journal::enabled();
            let eopts = ExecOptions {
                mode: ExecMode::Verify(VerifyOptions {
                    devices,
                    ..VerifyOptions::default()
                }),
                journal: journal.clone(),
                ..ExecOptions::default()
            };
            let (_, r) = run_variant(&b, Variant::Naive, &TranslateOptions::default(), &eopts)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let events = journal.snapshot();
            let mut w = Writer::new();
            write_events(&mut w, &events);
            let mut h = Fnv::new();
            h.bytes(&w.into_bytes());
            h.u64(r.machine.clock.now().to_bits());
            for cat in Category::ALL {
                h.u64(r.machine.clock.breakdown.get(cat).to_bits());
            }
            for k in &r.verify {
                h.bytes(k.kernel.as_bytes());
                h.u64(k.launches);
                h.u64(k.failed_launches);
                h.u64(k.compared_elems);
                h.u64(k.mismatched_elems);
                h.u64(k.max_abs_err.to_bits());
                h.u64(k.assertion_failures);
            }
            writeln!(
                table,
                "{}\t{devices}\t{}\t{:016x}",
                b.name,
                events.len(),
                h.0
            )
            .unwrap();
        }
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/verify_devices.tsv");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &table).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    for (got, want) in table.lines().zip(golden.lines()) {
        assert_eq!(got, want, "a multi-device verified run moved");
    }
    assert_eq!(table.lines().count(), golden.lines().count());
}
