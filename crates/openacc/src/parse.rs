//! Parser for `#pragma acc ...` directive text.
//!
//! The input is the whitespace-normalized pragma text captured by the MiniC
//! lexer (everything after `#pragma`). Parsing is permissive about clause
//! order, matching the OpenACC 1.0 grammar.

use crate::clause::{DataClause, DataClauseKind, DataItem, Reduction, ReductionOp};
use crate::directive::{ComputeSpec, DataSpec, Directive, LoopSpec, UpdateSpec};
use openarc_minic::span::{Diagnostic, Span};

/// Parse one directive. Returns `Ok(None)` for non-`acc` pragmas (e.g.
/// `omp ...`), which callers should ignore.
pub fn parse_directive(text: &str, span: Span) -> Result<Option<Directive>, Diagnostic> {
    let mut p = DirParser {
        toks: tokenize(text, span)?,
        pos: 0,
        span,
    };
    if !p.eat_ident("acc") {
        return Ok(None);
    }
    let d = p.directive()?;
    if !p.at_end() {
        return Err(p.err(format!("trailing tokens after directive: `{}`", p.rest())));
    }
    Ok(Some(d))
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Sym(char),
    /// `&&` / `||` (reduction operators).
    DSym(char),
}

fn tokenize(text: &str, span: Span) -> Result<Vec<Tok>, Diagnostic> {
    let mut toks = Vec::new();
    let b = text.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' => i += 1,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let s = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                toks.push(Tok::Ident(text[s..i].to_string()));
            }
            b'0'..=b'9' => {
                let s = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                toks.push(Tok::Int(text[s..i].parse().map_err(|_| {
                    Diagnostic::error(format!("bad integer in directive: `{}`", &text[s..i]), span)
                })?));
            }
            b'&' | b'|' if i + 1 < b.len() && b[i + 1] == c => {
                toks.push(Tok::DSym(c as char));
                i += 2;
            }
            b'(' | b')' | b',' | b':' | b'+' | b'*' | b'&' | b'|' | b'^' | b'[' | b']' | b'<'
            | b'>' | b'=' | b'-' | b'/' | b'!' | b'.' => {
                toks.push(Tok::Sym(c as char));
                i += 1;
            }
            other => {
                return Err(Diagnostic::error(
                    format!("unexpected character `{}` in directive", other as char),
                    span,
                ))
            }
        }
    }
    Ok(toks)
}

struct DirParser {
    toks: Vec<Tok>,
    pos: usize,
    span: Span,
}

impl DirParser {
    fn err(&self, msg: impl Into<String>) -> Diagnostic {
        Diagnostic::error(msg, self.span)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn rest(&self) -> String {
        format!("{:?}", &self.toks[self.pos.min(self.toks.len())..])
    }

    fn peek_ident(&self) -> Option<&str> {
        match self.toks.get(self.pos) {
            Some(Tok::Ident(s)) => Some(s),
            _ => None,
        }
    }

    fn eat_ident(&mut self, name: &str) -> bool {
        if self.peek_ident() == Some(name) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_sym(&mut self, c: char) -> bool {
        if matches!(self.toks.get(self.pos), Some(Tok::Sym(x)) if *x == c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, c: char) -> Result<(), Diagnostic> {
        if self.eat_sym(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{c}` in directive")))
        }
    }

    fn expect_any_ident(&mut self) -> Result<String, Diagnostic> {
        match self.toks.get(self.pos).cloned() {
            Some(Tok::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_int(&mut self) -> Result<i64, Diagnostic> {
        match self.toks.get(self.pos).cloned() {
            Some(Tok::Int(v)) => {
                self.pos += 1;
                Ok(v)
            }
            other => Err(self.err(format!("expected integer, found {other:?}"))),
        }
    }

    fn directive(&mut self) -> Result<Directive, Diagnostic> {
        let head = self.expect_any_ident()?;
        match head.as_str() {
            "kernels" | "parallel" => {
                let mut spec = ComputeSpec {
                    is_parallel: head == "parallel",
                    ..Default::default()
                };
                if self.eat_ident("loop") {
                    spec.combined_loop = true;
                }
                self.compute_clauses(&mut spec)?;
                Ok(Directive::Compute(spec))
            }
            "data" => {
                let mut spec = DataSpec::default();
                while !self.at_end() {
                    if self.eat_ident("if") {
                        spec.if_cond = Some(self.paren_text()?);
                    } else if let Some(c) = self.try_data_clause()? {
                        spec.clauses.push(c);
                    } else {
                        return Err(self.err(format!("unknown data clause: `{}`", self.rest())));
                    }
                }
                Ok(Directive::Data(spec))
            }
            "loop" => {
                let mut ls = LoopSpec::default();
                self.loop_clauses(&mut ls)?;
                Ok(Directive::Loop(ls))
            }
            "host_data" => {
                if !self.eat_ident("use_device") {
                    return Err(self.err("host_data requires use_device(...)"));
                }
                let vars = self.paren_name_list()?;
                Ok(Directive::HostData { use_device: vars })
            }
            "update" => {
                let mut u = UpdateSpec::default();
                while !self.at_end() {
                    if self.eat_ident("host") || self.eat_ident("self") {
                        u.host.extend(self.paren_name_list()?);
                    } else if self.eat_ident("device") {
                        u.device.extend(self.paren_name_list()?);
                    } else if self.eat_ident("async") {
                        u.async_queue = Some(self.paren_int()?);
                    } else if self.eat_ident("if") {
                        u.if_cond = Some(self.paren_text()?);
                    } else {
                        return Err(self.err(format!("unknown update clause: `{}`", self.rest())));
                    }
                }
                if u.host.is_empty() && u.device.is_empty() {
                    return Err(self.err("update requires host(...) or device(...)"));
                }
                Ok(Directive::Update(u))
            }
            "wait" => {
                if self.at_end() {
                    Ok(Directive::Wait(None))
                } else {
                    Ok(Directive::Wait(Some(self.paren_int()?)))
                }
            }
            "declare" => {
                let mut cs = Vec::new();
                while !self.at_end() {
                    match self.try_data_clause()? {
                        Some(c) => cs.push(c),
                        None => {
                            return Err(
                                self.err(format!("unknown declare clause: `{}`", self.rest()))
                            )
                        }
                    }
                }
                Ok(Directive::Declare(cs))
            }
            "cache" => Ok(Directive::Cache(self.paren_name_list()?)),
            other => Err(self.err(format!("unknown directive `acc {other}`"))),
        }
    }

    fn compute_clauses(&mut self, spec: &mut ComputeSpec) -> Result<(), Diagnostic> {
        while !self.at_end() {
            if self.eat_ident("async") {
                spec.async_queue = if matches!(self.toks.get(self.pos), Some(Tok::Sym('('))) {
                    Some(self.paren_int()?)
                } else {
                    Some(-1)
                };
            } else if self.eat_ident("if") {
                spec.if_cond = Some(self.paren_text()?);
            } else if self.eat_ident("num_gangs") {
                spec.num_gangs = Some(self.paren_int()?);
            } else if self.eat_ident("num_workers") {
                spec.num_workers = Some(self.paren_int()?);
            } else if self.eat_ident("vector_length") {
                spec.vector_length = Some(self.paren_int()?);
            } else if let Some(c) = self.try_data_clause()? {
                spec.data.push(c);
            } else if self.try_loop_clause(&mut spec.loop_spec)? {
                // consumed a loop clause
            } else {
                return Err(self.err(format!("unknown compute clause: `{}`", self.rest())));
            }
        }
        Ok(())
    }

    fn loop_clauses(&mut self, ls: &mut LoopSpec) -> Result<(), Diagnostic> {
        while !self.at_end() {
            if !self.try_loop_clause(ls)? {
                return Err(self.err(format!("unknown loop clause: `{}`", self.rest())));
            }
        }
        Ok(())
    }

    fn try_loop_clause(&mut self, ls: &mut LoopSpec) -> Result<bool, Diagnostic> {
        if self.eat_ident("gang") {
            self.skip_optional_paren_int()?;
            ls.gang = true;
        } else if self.eat_ident("worker") {
            self.skip_optional_paren_int()?;
            ls.worker = true;
        } else if self.eat_ident("vector") {
            self.skip_optional_paren_int()?;
            ls.vector = true;
        } else if self.eat_ident("seq") {
            ls.seq = true;
        } else if self.eat_ident("independent") {
            ls.independent = true;
        } else if self.eat_ident("collapse") {
            ls.collapse = Some(self.paren_int()? as u32);
        } else if self.eat_ident("private") {
            ls.private.extend(self.paren_name_list()?);
        } else if self.eat_ident("firstprivate") {
            ls.firstprivate.extend(self.paren_name_list()?);
        } else if self.eat_ident("reduction") {
            ls.reductions.push(self.reduction_clause()?);
        } else {
            return Ok(false);
        }
        Ok(true)
    }

    fn try_data_clause(&mut self) -> Result<Option<DataClause>, Diagnostic> {
        let name = self.peek_ident();
        let names = DataClauseKind::ALL.map(|k| (k.name(), k));
        let mut spellings = names.iter().chain(&DataClauseKind::ALIASES);
        let Some(&(_, kind)) = spellings.find(|(s, _)| Some(*s) == name) else {
            return Ok(None);
        };
        self.pos += 1;
        let items = self.paren_item_list()?;
        Ok(Some(DataClause { kind, items }))
    }

    fn reduction_clause(&mut self) -> Result<Reduction, Diagnostic> {
        self.expect_sym('(')?;
        let op = match self.toks.get(self.pos).cloned() {
            Some(Tok::Sym(c)) => {
                self.pos += 1;
                ReductionOp::from_symbol(&c.to_string())
            }
            Some(Tok::DSym(c)) => {
                self.pos += 1;
                ReductionOp::from_symbol(&format!("{c}{c}"))
            }
            Some(Tok::Ident(s)) if s == "max" || s == "min" => {
                self.pos += 1;
                ReductionOp::from_symbol(&s)
            }
            other => return Err(self.err(format!("expected reduction operator, found {other:?}"))),
        }
        .ok_or_else(|| self.err("invalid reduction operator"))?;
        self.expect_sym(':')?;
        let mut vars = vec![self.expect_any_ident()?];
        while self.eat_sym(',') {
            vars.push(self.expect_any_ident()?);
        }
        self.expect_sym(')')?;
        Ok(Reduction { op, vars })
    }

    /// `( name, name, ... )`
    fn paren_name_list(&mut self) -> Result<Vec<String>, Diagnostic> {
        self.expect_sym('(')?;
        let mut names = vec![self.expect_any_ident()?];
        while self.eat_sym(',') {
            names.push(self.expect_any_ident()?);
        }
        self.expect_sym(')')?;
        Ok(names)
    }

    /// `( item, item, ... )` where an item is `name` or `name[lo:hi]`.
    fn paren_item_list(&mut self) -> Result<Vec<DataItem>, Diagnostic> {
        self.expect_sym('(')?;
        let mut items = vec![self.data_item()?];
        while self.eat_sym(',') {
            items.push(self.data_item()?);
        }
        self.expect_sym(')')?;
        Ok(items)
    }

    fn data_item(&mut self) -> Result<DataItem, Diagnostic> {
        let name = self.expect_any_ident()?;
        let mut bounds = None;
        if self.eat_sym('[') {
            let mut text = String::new();
            let mut depth = 0usize;
            loop {
                match self.toks.get(self.pos).cloned() {
                    Some(Tok::Sym(']')) if depth == 0 => {
                        self.pos += 1;
                        break;
                    }
                    Some(Tok::Sym('[')) => {
                        depth += 1;
                        text.push('[');
                        self.pos += 1;
                    }
                    Some(Tok::Sym(']')) => {
                        depth -= 1;
                        text.push(']');
                        self.pos += 1;
                    }
                    Some(t) => {
                        push_tok_text(&mut text, &t);
                        self.pos += 1;
                    }
                    None => return Err(self.err("unterminated subarray bounds")),
                }
            }
            bounds = Some(text);
        }
        Ok(DataItem { name, bounds })
    }

    fn paren_int(&mut self) -> Result<i64, Diagnostic> {
        self.expect_sym('(')?;
        let v = self.expect_int()?;
        self.expect_sym(')')?;
        Ok(v)
    }

    fn skip_optional_paren_int(&mut self) -> Result<(), Diagnostic> {
        if matches!(self.toks.get(self.pos), Some(Tok::Sym('('))) {
            self.paren_int()?;
        }
        Ok(())
    }

    /// Raw text of a parenthesized expression (for `if(...)` conditions).
    fn paren_text(&mut self) -> Result<String, Diagnostic> {
        self.expect_sym('(')?;
        let mut depth = 0usize;
        let mut text = String::new();
        loop {
            match self.toks.get(self.pos).cloned() {
                Some(Tok::Sym(')')) if depth == 0 => {
                    self.pos += 1;
                    return Ok(text);
                }
                Some(Tok::Sym('(')) => {
                    depth += 1;
                    text.push('(');
                    self.pos += 1;
                }
                Some(Tok::Sym(')')) => {
                    depth -= 1;
                    text.push(')');
                    self.pos += 1;
                }
                Some(t) => {
                    push_tok_text(&mut text, &t);
                    self.pos += 1;
                }
                None => return Err(self.err("unterminated parenthesized expression")),
            }
        }
    }
}

fn push_tok_text(out: &mut String, t: &Tok) {
    // Separate adjacent words/numbers; punctuation needs no spacing.
    let prev_wordish = out
        .chars()
        .last()
        .map(|c| c.is_alphanumeric() || c == '_')
        .unwrap_or(false);
    if prev_wordish && matches!(t, Tok::Ident(_) | Tok::Int(_)) {
        out.push(' ');
    }
    match t {
        Tok::Ident(s) => out.push_str(s),
        Tok::Int(v) => out.push_str(&v.to_string()),
        Tok::Sym(c) => out.push(*c),
        Tok::DSym(c) => {
            out.push(*c);
            out.push(*c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openarc_minic::span::Span;

    fn parse_ok(text: &str) -> Directive {
        parse_directive(text, Span::dummy())
            .unwrap_or_else(|e| panic!("parse failed for `{text}`: {e}"))
            .unwrap_or_else(|| panic!("`{text}` did not parse as an acc directive"))
    }

    #[test]
    fn non_acc_pragma_ignored() {
        assert_eq!(
            parse_directive("omp parallel for", Span::dummy()).unwrap(),
            None
        );
    }

    #[test]
    fn parse_listing1_directives() {
        // From the paper's Listing 1.
        let d = parse_ok("acc data create(q, w)");
        let data = d.as_data().unwrap();
        assert_eq!(data.clauses.len(), 1);
        assert_eq!(data.clauses[0].kind, DataClauseKind::Create);
        assert_eq!(data.clauses[0].names().collect::<Vec<_>>(), vec!["q", "w"]);

        let d = parse_ok("acc kernels loop gang worker");
        let c = d.as_compute().unwrap();
        assert!(!c.is_parallel);
        assert!(c.combined_loop);
        assert!(c.loop_spec.gang && c.loop_spec.worker);
    }

    #[test]
    fn parse_listing2_directive() {
        // From the paper's Listing 2 (post-demotion form).
        let d = parse_ok("acc kernels loop async(1) gang worker copy(q) copyin(w)");
        let c = d.as_compute().unwrap();
        assert_eq!(c.async_queue, Some(1));
        assert_eq!(c.data.len(), 2);
        assert_eq!(c.data[0].kind, DataClauseKind::Copy);
        assert_eq!(c.data[1].kind, DataClauseKind::CopyIn);
    }

    #[test]
    fn parse_reductions() {
        let d = parse_ok("acc kernels loop gang reduction(+:sum) reduction(max:err)");
        let c = d.as_compute().unwrap();
        assert_eq!(c.loop_spec.reductions.len(), 2);
        assert_eq!(c.loop_spec.reductions[0].op, ReductionOp::Add);
        assert_eq!(c.loop_spec.reductions[1].op, ReductionOp::Max);
        assert_eq!(c.loop_spec.reductions[1].vars, vec!["err"]);
    }

    #[test]
    fn parse_logical_reduction_ops() {
        let d = parse_ok("acc loop reduction(&&:all) reduction(||:any)");
        match d {
            Directive::Loop(ls) => {
                assert_eq!(ls.reductions[0].op, ReductionOp::LogAnd);
                assert_eq!(ls.reductions[1].op, ReductionOp::LogOr);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_private_and_collapse() {
        let d = parse_ok("acc kernels loop collapse(2) private(tmp, t2) independent");
        let c = d.as_compute().unwrap();
        assert_eq!(c.loop_spec.collapse, Some(2));
        assert_eq!(c.loop_spec.private, vec!["tmp", "t2"]);
        assert!(c.loop_spec.independent);
    }

    #[test]
    fn parse_update_host_device() {
        let d = parse_ok("acc update host(b) device(a) async(1)");
        match d {
            Directive::Update(u) => {
                assert_eq!(u.host, vec!["b"]);
                assert_eq!(u.device, vec!["a"]);
                assert_eq!(u.async_queue, Some(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_wait_forms() {
        assert_eq!(parse_ok("acc wait"), Directive::Wait(None));
        assert_eq!(parse_ok("acc wait(1)"), Directive::Wait(Some(1)));
    }

    #[test]
    fn parse_subarray_bounds() {
        let d = parse_ok("acc data copy(a[0:n])");
        let data = d.as_data().unwrap();
        assert_eq!(data.clauses[0].items[0].bounds.as_deref(), Some("0:n"));
    }

    #[test]
    fn parse_present_or_aliases() {
        let d = parse_ok("acc data pcopyin(x) present_or_create(y)");
        let data = d.as_data().unwrap();
        assert_eq!(data.clauses[0].kind, DataClauseKind::PresentOrCopyIn);
        assert_eq!(data.clauses[1].kind, DataClauseKind::PresentOrCreate);
        let spellings = DataClauseKind::ALL
            .into_iter()
            .map(|k| (k.name(), k))
            .chain(DataClauseKind::ALIASES);
        for (name, kind) in spellings {
            let d = parse_ok(&format!("acc data {name}(x)"));
            assert_eq!(d.as_data().unwrap().clauses[0].kind, kind, "{name}");
        }
    }

    #[test]
    fn parse_num_gangs_and_vector_length() {
        let d = parse_ok("acc parallel num_gangs(32) num_workers(8) vector_length(128)");
        let c = d.as_compute().unwrap();
        assert!(c.is_parallel);
        assert_eq!(c.num_gangs, Some(32));
        assert_eq!(c.num_workers, Some(8));
        assert_eq!(c.vector_length, Some(128));
    }

    #[test]
    fn parse_if_condition_text() {
        let d = parse_ok("acc data if(n > 100) copy(a)");
        let data = d.as_data().unwrap();
        let cond = data.if_cond.as_deref().unwrap();
        assert!(
            cond.contains('>') && cond.contains('n') && cond.contains("100"),
            "{cond}"
        );
        assert_eq!(data.clauses[0].kind, DataClauseKind::Copy);
    }

    #[test]
    fn parse_host_data() {
        let d = parse_ok("acc host_data use_device(buf)");
        assert_eq!(
            d,
            Directive::HostData {
                use_device: vec!["buf".into()]
            }
        );
    }

    #[test]
    fn parse_declare_and_cache() {
        let d = parse_ok("acc declare create(scratch)");
        match d {
            Directive::Declare(cs) => assert_eq!(cs[0].kind, DataClauseKind::Create),
            other => panic!("unexpected {other:?}"),
        }
        let d = parse_ok("acc cache(tile)");
        assert_eq!(d, Directive::Cache(vec!["tile".into()]));
    }

    #[test]
    fn gang_with_size_argument() {
        let d = parse_ok("acc loop gang(64) worker(4)");
        match d {
            Directive::Loop(ls) => assert!(ls.gang && ls.worker),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_clause_is_error() {
        assert!(parse_directive("acc kernels loop turbo", Span::dummy()).is_err());
        assert!(parse_directive("acc frobnicate", Span::dummy()).is_err());
    }

    #[test]
    fn update_without_direction_is_error() {
        assert!(parse_directive("acc update async(1)", Span::dummy()).is_err());
    }

    #[test]
    fn display_round_trip() {
        for text in [
            "acc data create(q, w)",
            "acc kernels loop async(1) gang worker copy(q) copyin(w)",
            "acc kernels loop gang worker private(tmp) reduction(+:sum)",
            "acc update host(b)",
            "acc wait(1)",
            "acc parallel loop num_gangs(4) gang",
        ] {
            let d = parse_ok(text);
            let printed = d.to_string();
            let d2 = parse_ok(&printed);
            assert_eq!(d, d2, "round-trip failed for `{text}` → `{printed}`");
        }
    }
}
