//! # openarc-openacc
//!
//! OpenACC 1.0 directive model for OpenARC-rs: clause and directive types,
//! a parser from the raw `#pragma` text captured by `openarc-minic`, a
//! `Display` implementation that re-emits directives (used by the
//! memory-transfer demotion pass to rewrite programs, as in the paper's
//! Listing 2), and a validator.
//!
//! The paper's system supports "the full feature set of OpenACC V1.0"; this
//! crate models every directive and clause of that version that is
//! meaningful for C programs.

#![warn(missing_docs)]

pub mod clause;
pub mod directive;
pub mod parse;
pub mod validate;

pub use clause::{DataClause, DataClauseKind, DataItem, Reduction, ReductionOp};
pub use directive::{ComputeSpec, DataSpec, Directive, LoopSpec, UpdateSpec};
pub use parse::parse_directive;
pub use validate::validate_directive;

use openarc_minic::span::Diagnostic;
use openarc_minic::{Pragma, Stmt};

// Cached kernel and data-region tables carry these as one-byte codes.
openarc_trace::wire_codes!(DataClauseKind, ReductionOp);

/// Parse all `acc` pragmas attached to a statement. Non-`acc` pragmas are
/// skipped.
pub fn directives_of(stmt: &Stmt) -> Result<Vec<(Directive, &Pragma)>, Diagnostic> {
    let mut out = Vec::new();
    for pr in &stmt.pragmas {
        if let Some(d) = parse_directive(&pr.text, pr.span)? {
            out.push((d, pr));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openarc_minic::parse as parse_minic;

    #[test]
    fn directives_of_statement() {
        let p = parse_minic(
            "void main() {\n #pragma acc data create(a)\n #pragma omp something\n { }\n}",
        )
        .unwrap();
        // `a` is undeclared but directives_of does not validate.
        let f = p.func("main").unwrap();
        let ds = directives_of(&f.body.stmts[0]).unwrap();
        assert_eq!(ds.len(), 1);
        assert!(matches!(ds[0].0, Directive::Data(_)));
    }
}
