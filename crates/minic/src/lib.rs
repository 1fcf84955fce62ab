//! # openarc-minic
//!
//! MiniC frontend for the OpenARC-rs reproduction of *"Interactive Program
//! Debugging and Optimization for Directive-Based, Efficient GPU Computing"*
//! (Lee, Li, Vetter — IPDPS 2014).
//!
//! MiniC is the C subset the paper's twelve OpenACC benchmarks are written
//! in: the four numeric scalar types, static multi-dimensional arrays,
//! single-level heap pointers via `malloc`/`free`, functions, structured
//! control flow, and `#pragma` lines (captured verbatim for the OpenACC
//! layer).
//!
//! Pipeline: [`parse`] → [`sema::check`] → downstream crates
//! (`openarc-openacc` parses the pragmas, `openarc-dataflow` analyses the
//! AST, `openarc-vm` compiles it to bytecode, `openarc-core` transforms it).

#![warn(missing_docs)]

pub mod ast;
pub mod binio;
pub mod fingerprint;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod sema;
pub mod span;
pub mod token;

pub use ast::{
    Block, Expr, ExprKind, Func, Intrinsic, Item, LValue, NodeId, Pragma, Program, ScalarTy, Stmt,
    StmtKind, Ty, VarDecl,
};
pub use fingerprint::fingerprint_program;
pub use parser::{parse, parse_expression};
pub use pretty::print_program;
pub use sema::{check, Sema};
pub use span::{Diagnostic, Severity, Span};

/// Parse and semantically check a source file in one step.
pub fn frontend(src: &str) -> Result<(Program, Sema), Vec<Diagnostic>> {
    let program = parse(src).map_err(|d| vec![d])?;
    let sema = sema::check(&program)?;
    Ok((program, sema))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontend_combines_parse_and_check() {
        let (p, s) = frontend("int n;\nvoid main() { n = 2; }").unwrap();
        assert!(p.func("main").is_some());
        assert!(s.globals.contains_key("n"));
    }

    #[test]
    fn frontend_propagates_parse_errors() {
        assert!(frontend("void main() { !!! }").is_err());
    }

    #[test]
    fn frontend_propagates_sema_errors() {
        assert!(frontend("void main() { y = 1; }").is_err());
    }
}
