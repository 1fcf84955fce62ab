use super::*;
use crate::exec::{execute, ExecOptions};
use crate::translate::{translate, TranslateOptions};
use openarc_minic::frontend;
use openarc_trace::Journal;

const SRC: &str = "double q[16];\ndouble w[16];\ndouble acc;\nvoid main() {\n int j;\n for (j = 0; j < 16; j++) { w[j] = (double) j; }\n #pragma acc data copyin(w) copyout(q)\n {\n  #pragma openarc verify bounds(q, 0.0, 100.0)\n  #pragma acc kernels loop gang reduction(+:acc)\n  for (j = 0; j < 16; j++) { q[j] = w[j] * 2.0; acc = acc + w[j]; }\n  #pragma acc update host(q) if(1)\n }\n}";

fn frontend_artifact() -> FrontendArtifact {
    let (program, sema) = frontend(SRC).unwrap();
    FrontendArtifact {
        id: ArtifactId(7),
        program,
        sema,
    }
}

fn translated(instrument: bool) -> TranslatedArtifact {
    let (p, s) = frontend(SRC).unwrap();
    let tr = translate(
        &p,
        &s,
        &TranslateOptions {
            instrument,
            ..Default::default()
        },
    )
    .unwrap();
    TranslatedArtifact {
        id: ArtifactId(42),
        instrumented: instrument,
        tr,
    }
}

fn run_entry() -> (RunResult, Vec<TraceEvent>, Vec<u8>) {
    let art = translated(true);
    let journal = Journal::enabled();
    let opts = ExecOptions {
        check_transfers: true,
        journal: journal.clone(),
        ..Default::default()
    };
    let r = execute(&art.tr, &opts).unwrap();
    let events = journal.drain();
    assert!(!events.is_empty());
    let bytes = encode_run(ArtifactId(9), &r, &events);
    (r, events, bytes)
}

/// Every byte offset at which a header field or section begins or
/// ends, derived by walking the container framing.
fn boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut out = vec![0, 8, 12, 16, 24, 32, 36, HEADER_LEN];
    let mut pos = HEADER_LEN;
    while pos + 12 <= bytes.len() {
        out.push(pos + 4); // after section kind
        out.push(pos + 12); // after section length
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        pos += 12 + len;
        out.push(pos.min(bytes.len()));
    }
    out
}

#[test]
fn frontend_round_trips_bit_identically() {
    let art = frontend_artifact();
    let bytes = encode_frontend(&art);
    let back = decode_frontend(art.id, &bytes).unwrap();
    assert_eq!(back.id, art.id);
    assert_eq!(back.program, art.program);
    assert_eq!(encode_frontend(&back), bytes, "re-encode is byte-identical");
}

#[test]
fn translated_round_trips_bit_identically() {
    for (instrument, stage) in [(false, Stage::Analysis), (true, Stage::Instrument)] {
        let art = translated(instrument);
        let bytes = encode_translated(stage, &art);
        let back = decode_translated(stage, art.id, &bytes).unwrap();
        assert_eq!(back.instrumented, instrument);
        assert_eq!(back.tr.ops, art.tr.ops);
        assert_eq!(back.tr.kernels.len(), art.tr.kernels.len());
        assert_eq!(back.tr.update_sites, art.tr.update_sites);
        assert_eq!(
            encode_translated(stage, &back),
            bytes,
            "re-encode is byte-identical"
        );
    }
}

#[test]
fn restored_translation_still_executes() {
    let art = translated(true);
    let bytes = encode_translated(Stage::Instrument, &art);
    let back = decode_translated(Stage::Instrument, art.id, &bytes).unwrap();
    let a = execute(&art.tr, &ExecOptions::default()).unwrap();
    let b = execute(&back.tr, &ExecOptions::default()).unwrap();
    assert_eq!(a.sim_time_us(), b.sim_time_us());
    assert_eq!(a.kernel_launches, b.kernel_launches);
    assert_eq!(a.machine.stats, b.machine.stats);
}

#[test]
fn run_round_trips_bit_identically() {
    let (r, events, bytes) = run_entry();
    let (back, back_events) = decode_run(ArtifactId(9), &bytes).unwrap();
    assert_eq!(back_events, events, "journal replay stream is exact");
    assert_eq!(back.sim_time_us().to_bits(), r.sim_time_us().to_bits());
    assert_eq!(back.kernel_launches, r.kernel_launches);
    assert_eq!(back.host_instrs, r.host_instrs);
    assert_eq!(back.machine.stats, r.machine.stats);
    assert_eq!(back.machine.report.issues, r.machine.report.issues);
    assert_eq!(
        encode_run(ArtifactId(9), &back, &back_events),
        bytes,
        "re-encode is byte-identical"
    );
}

#[test]
fn header_fields_are_all_validated() {
    let art = frontend_artifact();
    let good = encode_frontend(&art);
    assert!(decode_frontend(art.id, &good).is_ok());

    // Flipped magic byte.
    let mut bad = good.clone();
    bad[0] ^= 0xff;
    assert!(decode_frontend(art.id, &bad).unwrap_err().contains("magic"));

    // Unsupported format version.
    let mut bad = good.clone();
    bad[8..12].copy_from_slice(&999u32.to_le_bytes());
    assert!(decode_frontend(art.id, &bad)
        .unwrap_err()
        .contains("version"));

    // Wrong stage directory for the entry's stage code.
    assert!(decode_run(art.id, &good)
        .err()
        .unwrap()
        .contains("stage code"));

    // A stage that has no binary artifact form.
    assert!(decode_translated(Stage::Plan, art.id, &good)
        .unwrap_err()
        .contains("not persisted"));

    // Another tool version's fingerprint hash.
    let mut bad = good.clone();
    bad[16] ^= 0xff;
    assert!(decode_frontend(art.id, &bad)
        .unwrap_err()
        .contains("fingerprint"));

    // Key/id mismatch.
    assert!(decode_frontend(ArtifactId(8), &good)
        .unwrap_err()
        .contains("id mismatch"));

    // Wrong section count.
    let mut bad = good.clone();
    bad[32..36].copy_from_slice(&9u32.to_le_bytes());
    assert!(decode_frontend(art.id, &bad)
        .unwrap_err()
        .contains("sections"));

    // Non-zero reserved field.
    let mut bad = good.clone();
    bad[36] = 1;
    assert!(decode_frontend(art.id, &bad)
        .unwrap_err()
        .contains("reserved"));
}

#[test]
fn frontend_truncation_at_every_byte_errors_cleanly() {
    let art = frontend_artifact();
    let bytes = encode_frontend(&art);
    for len in 0..bytes.len() {
        assert!(
            decode_frontend(art.id, &bytes[..len]).is_err(),
            "truncation to {len} bytes must be an error"
        );
    }
}

#[test]
fn truncation_at_every_section_boundary_errors_cleanly() {
    let tr = translated(true);
    let (_, _, run_bytes) = run_entry();
    let every_cut_fails = |bytes: &[u8], decodes: &dyn Fn(&[u8]) -> bool| {
        assert!(decodes(bytes));
        for at in boundaries(bytes) {
            for cut in [at.saturating_sub(1), at] {
                if cut >= bytes.len() {
                    continue;
                }
                assert!(
                    !decodes(&bytes[..cut]),
                    "truncation at {cut} must be an error"
                );
            }
        }
    };
    every_cut_fails(&encode_translated(Stage::Instrument, &tr), &|b| {
        decode_translated(Stage::Instrument, tr.id, b).is_ok()
    });
    every_cut_fails(&run_bytes, &|b| decode_run(ArtifactId(9), b).is_ok());
}

#[test]
fn oversized_length_prefixes_are_rejected_before_allocating() {
    let art = frontend_artifact();
    let mut bytes = encode_frontend(&art);
    // First section's u64 length, at header end + 4 (after the kind).
    bytes[HEADER_LEN + 4..HEADER_LEN + 12].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(decode_frontend(art.id, &bytes).is_err());
    // And a large-but-plausible lie that exceeds the buffer.
    let mut bytes = encode_frontend(&art);
    bytes[HEADER_LEN + 4..HEADER_LEN + 12].copy_from_slice(&(1u64 << 40).to_le_bytes());
    assert!(decode_frontend(art.id, &bytes).is_err());
}

#[test]
fn wrong_section_kind_and_trailing_bytes_are_errors() {
    let art = frontend_artifact();
    let mut bytes = encode_frontend(&art);
    bytes[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&99u32.to_le_bytes());
    assert!(decode_frontend(art.id, &bytes)
        .unwrap_err()
        .contains("section kind"));

    let mut bytes = encode_frontend(&art);
    bytes.push(0);
    assert!(decode_frontend(art.id, &bytes).is_err());
}
