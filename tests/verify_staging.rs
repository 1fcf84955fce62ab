//! The verifier's staging copies are its own, not the program's: a
//! `Verify` run with the §III-B transfer checks on reports no finding at a
//! `<kernel>_verify` site.

use openarc::prelude::*;

#[test]
fn staging_copies_never_reach_the_transfer_report() {
    let eopts = ExecOptions {
        mode: ExecMode::Verify(VerifyOptions::default()),
        check_transfers: true,
        ..Default::default()
    };
    let mut kernels = 0;
    for b in openarc::suite::all(Scale { n: 8, iters: 1 }) {
        let (tr, r) =
            openarc::suite::run_variant(&b, Variant::Naive, &TranslateOptions::default(), &eopts)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        kernels += tr.kernels.len();
        let staged: Vec<_> = r
            .machine
            .report
            .issues
            .iter()
            .filter(|i| i.site.ends_with("_verify"))
            .collect();
        assert!(staged.is_empty(), "{}: {staged:?}", b.name);
    }
    assert!(kernels >= 12, "only {kernels} kernels verified");
}
