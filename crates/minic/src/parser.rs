//! Recursive-descent parser for MiniC.
//!
//! Produces a [`Program`] with unique node ids. `#pragma` lines attach to the
//! statement that follows them, except *standalone* OpenACC executable
//! directives (`update`, `wait`, `declare`, `cache`), which become their own
//! empty statements so the runtime can execute them in place.

use crate::ast::*;
use crate::lexer::lex;
use crate::span::{Diagnostic, Span};
use crate::token::{Token, TokenKind};

/// Parse a full MiniC translation unit.
pub fn parse(src: &str) -> Result<Program, Diagnostic> {
    Parser::new(lex(src)?).program()
}

/// Parse a standalone expression (used for directive `if(...)` conditions).
/// Node ids restart from 0; callers embedding the result into an existing
/// program must not rely on id uniqueness.
pub fn parse_expression(src: &str) -> Result<Expr, Diagnostic> {
    let mut p = Parser::new(lex(src)?);
    let e = p.expr()?;
    if !matches!(p.peek(), TokenKind::Eof) {
        return Err(Diagnostic::error(
            format!("trailing tokens after expression: `{}`", p.peek()),
            p.span(),
        ));
    }
    Ok(e)
}

/// True for pragma texts that are standalone executable directives rather
/// than constructs annotating the next statement.
pub fn is_standalone_pragma(text: &str) -> bool {
    let mut words = text.split_whitespace();
    if words.next() != Some("acc") {
        return false;
    }
    match words.next() {
        Some(w) => {
            let head: String = w
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            matches!(head.as_str(), "update" | "wait" | "declare" | "cache")
                || w.starts_with("wait(")
                || w.starts_with("update(")
        }
        None => false,
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_id: NodeId,
    /// Statements, expressions and parentheses open at the current token.
    depth: usize,
    /// Height of each expression node built so far, by id (0 for others).
    heights: Vec<usize>,
}

fn too_deep(span: Span) -> Diagnostic {
    let msg = format!("nesting deeper than {MAX_DEPTH} levels (a MiniC limit)");
    Diagnostic::error(msg, span)
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            next_id: 0,
            depth: 0,
            heights: Vec::new(),
        }
    }

    fn fresh(&mut self) -> NodeId {
        self.heights.push(0);
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Run `parse` one level deeper; refused past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: fn(&mut Self) -> Result<T, Diagnostic>,
    ) -> Result<T, Diagnostic> {
        if self.depth == MAX_DEPTH {
            return Err(too_deep(self.span()));
        }
        self.depth += 1;
        let r = parse(self);
        self.depth -= 1;
        r
    }

    /// A new expression node. Its deepest leaf sits at least `depth +
    /// height - 1` levels down, so the tree grows no deeper than the limit
    /// even where a node becomes the left operand of a later one.
    fn node(&mut self, span: Span, kind: ExprKind) -> Result<Expr, Diagnostic> {
        let below = kind.operands().map(|e| self.heights[e.id as usize]).max();
        let height = below.unwrap_or(0) + 1;
        if self.depth + height > MAX_DEPTH + 1 {
            return Err(too_deep(span));
        }
        let id = self.fresh();
        self.heights[id as usize] = height;
        Ok(Expr { id, span, kind })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, Diagnostic> {
        if self.peek() == &kind {
            Ok(self.bump())
        } else {
            Err(Diagnostic::error(
                format!("expected `{kind}`, found `{}`", self.peek()),
                self.span(),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), Diagnostic> {
        let sp = self.span();
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok((name, sp))
            }
            other => Err(Diagnostic::error(
                format!("expected identifier, found `{other}`"),
                sp,
            )),
        }
    }

    // ---------------- Types ----------------

    fn peek_is_type(&self) -> bool {
        self.peek().type_keyword().is_some()
    }

    fn base_type(&mut self) -> Result<(Option<ScalarTy>, Span), Diagnostic> {
        let sp = self.span();
        let ty = match self.peek() {
            TokenKind::KwInt => Some(ScalarTy::Int),
            TokenKind::KwLong => Some(ScalarTy::Long),
            TokenKind::KwFloat => Some(ScalarTy::Float),
            TokenKind::KwDouble => Some(ScalarTy::Double),
            TokenKind::KwVoid => None,
            other => {
                return Err(Diagnostic::error(
                    format!("expected type, found `{other}`"),
                    sp,
                ))
            }
        };
        self.bump();
        // Allow `long long` / `long int` spellings.
        if ty == Some(ScalarTy::Long) && matches!(self.peek(), TokenKind::KwLong | TokenKind::KwInt)
        {
            self.bump();
        }
        Ok((ty, sp))
    }

    /// Parse array dims after a declarator name: `[N]` or `[N][M]`.
    fn array_dims(&mut self) -> Result<Vec<u64>, Diagnostic> {
        let mut dims = Vec::new();
        while self.eat(&TokenKind::LBracket) {
            let sp = self.span();
            match self.peek().clone() {
                TokenKind::IntLit(v) if v > 0 => {
                    self.bump();
                    dims.push(v as u64);
                }
                other => {
                    return Err(Diagnostic::error(
                        format!(
                            "array dimension must be a positive integer literal, found `{other}`"
                        ),
                        sp,
                    ))
                }
            }
            self.expect(TokenKind::RBracket)?;
        }
        Ok(dims)
    }

    // ---------------- Items ----------------

    fn program(&mut self) -> Result<Program, Diagnostic> {
        let mut items = Vec::new();
        while !matches!(self.peek(), TokenKind::Eof) {
            if let TokenKind::Pragma(_) = self.peek() {
                return Err(Diagnostic::error(
                    "pragmas are only supported inside function bodies",
                    self.span(),
                ));
            }
            items.push(self.item()?);
        }
        Ok(Program {
            items,
            next_id: self.next_id,
        })
    }

    fn item(&mut self) -> Result<Item, Diagnostic> {
        let (base, sp) = self.base_type()?;
        let is_ptr = self.eat(&TokenKind::Star);
        let (name, _) = self.expect_ident()?;
        if self.peek() == &TokenKind::LParen {
            self.func_item(base, is_ptr, name, sp).map(Item::Func)
        } else {
            let decl = self.finish_var_decl(base, is_ptr, name, sp)?;
            self.expect(TokenKind::Semi)?;
            Ok(Item::Global(decl))
        }
    }

    fn finish_var_decl(
        &mut self,
        base: Option<ScalarTy>,
        is_ptr: bool,
        name: String,
        sp: Span,
    ) -> Result<VarDecl, Diagnostic> {
        let base = base.ok_or_else(|| Diagnostic::error("variable cannot have type void", sp))?;
        let dims = self.array_dims()?;
        let ty = if is_ptr {
            if !dims.is_empty() {
                return Err(Diagnostic::error(
                    "pointer-to-array declarators are unsupported",
                    sp,
                ));
            }
            Ty::Ptr(base)
        } else if dims.is_empty() {
            Ty::Scalar(base)
        } else {
            Ty::Array(base, dims)
        };
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        if init.is_some() && ty.is_aggregate() && !matches!(ty, Ty::Ptr(_)) {
            return Err(Diagnostic::error("array initializers are unsupported", sp));
        }
        Ok(VarDecl {
            id: self.fresh(),
            name,
            ty,
            init,
            span: sp.to(self.prev_span()),
        })
    }

    fn func_item(
        &mut self,
        ret_base: Option<ScalarTy>,
        ret_ptr: bool,
        name: String,
        sp: Span,
    ) -> Result<Func, Diagnostic> {
        let ret = match (ret_base, ret_ptr) {
            (None, false) => Ty::Void,
            (None, true) => return Err(Diagnostic::error("void * return is unsupported", sp)),
            (Some(s), false) => Ty::Scalar(s),
            (Some(s), true) => Ty::Ptr(s),
        };
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            if self.peek() == &TokenKind::KwVoid && self.peek_at(1) == &TokenKind::RParen {
                self.bump();
                self.bump();
            } else {
                loop {
                    let (base, psp) = self.base_type()?;
                    let is_ptr = self.eat(&TokenKind::Star);
                    let (pname, _) = self.expect_ident()?;
                    let dims = self.array_dims()?;
                    let base =
                        base.ok_or_else(|| Diagnostic::error("parameter cannot be void", psp))?;
                    let ty = if is_ptr || !dims.is_empty() {
                        // Array parameters decay to pointers.
                        Ty::Ptr(base)
                    } else {
                        Ty::Scalar(base)
                    };
                    params.push(Param { name: pname, ty });
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RParen)?;
            }
        }
        let body = self.block()?;
        Ok(Func {
            id: self.fresh(),
            name,
            ret,
            params,
            body,
            span: sp.to(self.prev_span()),
        })
    }

    // ---------------- Statements ----------------

    fn block(&mut self) -> Result<Block, Diagnostic> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            if matches!(self.peek(), TokenKind::Eof) {
                return Err(Diagnostic::error(
                    "unexpected end of input in block",
                    self.span(),
                ));
            }
            self.stmt_into(&mut stmts)?;
        }
        Ok(Block { stmts })
    }

    /// Parse one statement (possibly expanding multi-declarators into
    /// several [`Stmt`]s) into `out`.
    fn stmt_into(&mut self, out: &mut Vec<Stmt>) -> Result<(), Diagnostic> {
        // Gather leading pragmas.
        let mut pragmas = Vec::new();
        while let TokenKind::Pragma(text) = self.peek().clone() {
            let sp = self.span();
            self.bump();
            if is_standalone_pragma(&text) {
                // Standalone executable directive: its own empty statement.
                out.push(Stmt {
                    id: self.fresh(),
                    span: sp,
                    pragmas: vec![Pragma { text, span: sp }],
                    kind: StmtKind::Block(Block::default()),
                });
            } else {
                pragmas.push(Pragma { text, span: sp });
            }
        }
        if !pragmas.is_empty() || !matches!(self.peek(), TokenKind::RBrace | TokenKind::Eof) {
            let mut stmts = self.nested(Self::stmt_multi)?;
            if let Some(first) = stmts.first_mut() {
                first.pragmas = pragmas;
            } else if !pragmas.is_empty() {
                return Err(Diagnostic::error(
                    "pragma not followed by a statement",
                    self.span(),
                ));
            }
            out.append(&mut stmts);
        }
        Ok(())
    }

    /// Parse one syntactic statement; declarations with several declarators
    /// expand into several statements.
    fn stmt_multi(&mut self) -> Result<Vec<Stmt>, Diagnostic> {
        let sp = self.span();
        if self.peek_is_type() {
            let (base, tsp) = self.base_type()?;
            let mut stmts = Vec::new();
            loop {
                let is_ptr = self.eat(&TokenKind::Star);
                let (name, _) = self.expect_ident()?;
                let decl = self.finish_var_decl(base, is_ptr, name, tsp)?;
                stmts.push(Stmt {
                    id: self.fresh(),
                    span: tsp.to(self.prev_span()),
                    pragmas: Vec::new(),
                    kind: StmtKind::Decl(decl),
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::Semi)?;
            return Ok(stmts);
        }
        let stmt = match self.peek().clone() {
            TokenKind::LBrace => {
                let b = self.block()?;
                self.mk_stmt(sp, StmtKind::Block(b))
            }
            TokenKind::KwIf => self.if_stmt()?,
            TokenKind::KwFor => self.for_stmt()?,
            TokenKind::KwWhile => self.while_stmt()?,
            TokenKind::KwReturn => {
                self.bump();
                let e = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi)?;
                self.mk_stmt(sp, StmtKind::Return(e))
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                self.mk_stmt(sp, StmtKind::Break)
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                self.mk_stmt(sp, StmtKind::Continue)
            }
            TokenKind::Semi => {
                self.bump();
                self.mk_stmt(sp, StmtKind::Block(Block::default()))
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect(TokenKind::Semi)?;
                s
            }
        };
        Ok(vec![stmt])
    }

    fn mk_stmt(&mut self, sp: Span, kind: StmtKind) -> Stmt {
        Stmt {
            id: self.fresh(),
            span: sp.to(self.prev_span()),
            pragmas: Vec::new(),
            kind,
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let sp = self.span();
        self.expect(TokenKind::KwIf)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_blk = self.stmt_as_block()?;
        let else_blk = if self.eat(&TokenKind::KwElse) {
            Some(self.stmt_as_block()?)
        } else {
            None
        };
        Ok(self.mk_stmt(
            sp,
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            },
        ))
    }

    fn while_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let sp = self.span();
        self.expect(TokenKind::KwWhile)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let body = self.stmt_as_block()?;
        Ok(self.mk_stmt(sp, StmtKind::While { cond, body }))
    }

    fn for_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let sp = self.span();
        self.expect(TokenKind::KwFor)?;
        self.expect(TokenKind::LParen)?;
        let init = if self.peek() == &TokenKind::Semi {
            None
        } else if self.peek_is_type() {
            // `for (int i = 0; ...)` — single declarator only.
            let (base, tsp) = self.base_type()?;
            let is_ptr = self.eat(&TokenKind::Star);
            let (name, _) = self.expect_ident()?;
            let decl = self.finish_var_decl(base, is_ptr, name, tsp)?;
            Some(Box::new(Stmt {
                id: self.fresh(),
                span: tsp.to(self.prev_span()),
                pragmas: Vec::new(),
                kind: StmtKind::Decl(decl),
            }))
        } else {
            Some(Box::new(self.simple_stmt()?))
        };
        self.expect(TokenKind::Semi)?;
        let cond = if self.peek() == &TokenKind::Semi {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::Semi)?;
        let step = if self.peek() == &TokenKind::RParen {
            None
        } else {
            Some(Box::new(self.simple_stmt()?))
        };
        self.expect(TokenKind::RParen)?;
        let body = self.stmt_as_block()?;
        Ok(self.mk_stmt(
            sp,
            StmtKind::For {
                init,
                cond,
                step,
                body,
            },
        ))
    }

    /// Parse a statement and wrap single statements into a one-entry block.
    fn stmt_as_block(&mut self) -> Result<Block, Diagnostic> {
        if self.peek() == &TokenKind::LBrace {
            self.block()
        } else {
            let mut stmts = Vec::new();
            self.stmt_into(&mut stmts)?;
            Ok(Block { stmts })
        }
    }

    /// Assignment / increment / call statement, *without* the trailing `;`
    /// (used directly in `for` headers).
    fn simple_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let sp = self.span();
        // Prefix increment/decrement.
        if matches!(self.peek(), TokenKind::PlusPlus | TokenKind::MinusMinus) {
            let op = if self.bump().kind == TokenKind::PlusPlus {
                AssignOp::Add
            } else {
                AssignOp::Sub
            };
            let lv = self.lvalue()?;
            let one = self.int_one(sp)?;
            return Ok(self.mk_stmt(
                sp,
                StmtKind::Assign {
                    target: lv,
                    op,
                    value: one,
                },
            ));
        }
        let e = self.expr()?;
        match self.peek().clone() {
            TokenKind::Assign
            | TokenKind::PlusAssign
            | TokenKind::MinusAssign
            | TokenKind::StarAssign
            | TokenKind::SlashAssign => {
                let op = match self.bump().kind {
                    TokenKind::Assign => AssignOp::Set,
                    TokenKind::PlusAssign => AssignOp::Add,
                    TokenKind::MinusAssign => AssignOp::Sub,
                    TokenKind::StarAssign => AssignOp::Mul,
                    TokenKind::SlashAssign => AssignOp::Div,
                    _ => unreachable!(),
                };
                let target = expr_to_lvalue(&e).ok_or_else(|| {
                    Diagnostic::error("left side of assignment is not assignable", e.span)
                })?;
                let value = self.expr()?;
                Ok(self.mk_stmt(sp, StmtKind::Assign { target, op, value }))
            }
            TokenKind::PlusPlus | TokenKind::MinusMinus => {
                let op = if self.bump().kind == TokenKind::PlusPlus {
                    AssignOp::Add
                } else {
                    AssignOp::Sub
                };
                let target = expr_to_lvalue(&e).ok_or_else(|| {
                    Diagnostic::error("operand of ++/-- is not assignable", e.span)
                })?;
                let one = self.int_one(sp)?;
                Ok(self.mk_stmt(
                    sp,
                    StmtKind::Assign {
                        target,
                        op,
                        value: one,
                    },
                ))
            }
            _ => Ok(self.mk_stmt(sp, StmtKind::Expr(e))),
        }
    }

    fn int_one(&mut self, sp: Span) -> Result<Expr, Diagnostic> {
        self.node(sp, ExprKind::IntLit(1))
    }

    fn lvalue(&mut self) -> Result<LValue, Diagnostic> {
        let e = self.postfix_expr()?;
        expr_to_lvalue(&e)
            .ok_or_else(|| Diagnostic::error("expected an assignable expression", e.span))
    }

    // ---------------- Expressions ----------------

    fn expr(&mut self) -> Result<Expr, Diagnostic> {
        self.nested(Self::ternary)
    }

    fn ternary(&mut self) -> Result<Expr, Diagnostic> {
        let cond = self.binary(0)?;
        if self.eat(&TokenKind::Question) {
            let then_e = self.expr()?;
            self.expect(TokenKind::Colon)?;
            let else_e = self.expr()?;
            let span = cond.span.to(else_e.span);
            self.node(
                span,
                ExprKind::Ternary {
                    cond: Box::new(cond),
                    then_e: Box::new(then_e),
                    else_e: Box::new(else_e),
                },
            )
        } else {
            Ok(cond)
        }
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, Diagnostic> {
        let mut lhs = self.unary()?;
        loop {
            let (op, prec) = match self.peek() {
                TokenKind::PipePipe => (BinOp::Or, 1),
                TokenKind::AmpAmp => (BinOp::And, 2),
                TokenKind::Pipe => (BinOp::BitOr, 3),
                TokenKind::Caret => (BinOp::BitXor, 4),
                TokenKind::Amp => (BinOp::BitAnd, 5),
                TokenKind::Eq => (BinOp::Eq, 6),
                TokenKind::Ne => (BinOp::Ne, 6),
                TokenKind::Lt => (BinOp::Lt, 7),
                TokenKind::Gt => (BinOp::Gt, 7),
                TokenKind::Le => (BinOp::Le, 7),
                TokenKind::Ge => (BinOp::Ge, 7),
                TokenKind::Shl => (BinOp::Shl, 8),
                TokenKind::Shr => (BinOp::Shr, 8),
                TokenKind::Plus => (BinOp::Add, 9),
                TokenKind::Minus => (BinOp::Sub, 9),
                TokenKind::Star => (BinOp::Mul, 10),
                TokenKind::Slash => (BinOp::Div, 10),
                TokenKind::Percent => (BinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            let span = lhs.span.to(rhs.span);
            let (lhs_, rhs) = (Box::new(lhs), Box::new(rhs));
            lhs = self.node(span, ExprKind::Binary { op, lhs: lhs_, rhs })?;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, Diagnostic> {
        let sp = self.span();
        let op = match self.peek() {
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Bang => Some(UnOp::Not),
            TokenKind::Tilde => Some(UnOp::BitNot),
            TokenKind::Plus => {
                self.bump();
                return self.nested(Self::unary);
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let e = Box::new(self.nested(Self::unary)?);
            return self.node(sp.to(e.span), ExprKind::Unary { op, expr: e });
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, Diagnostic> {
        let sp = self.span();
        // Cast or parenthesized expression.
        if self.peek() == &TokenKind::LParen {
            if self.peek_at(1).type_keyword().is_some() {
                self.bump();
                let (base, tsp) = self.base_type()?;
                let is_ptr = self.eat(&TokenKind::Star);
                self.expect(TokenKind::RParen)?;
                let base = base.ok_or_else(|| Diagnostic::error("cannot cast to void", tsp))?;
                let ty = if is_ptr {
                    Ty::Ptr(base)
                } else {
                    Ty::Scalar(base)
                };
                let e = Box::new(self.nested(Self::unary)?);
                return self.node(sp.to(e.span), ExprKind::Cast { ty, expr: e });
            }
            self.bump();
            let e = self.expr()?;
            self.expect(TokenKind::RParen)?;
            return self.maybe_index(e);
        }
        if self.peek() == &TokenKind::KwSizeof {
            self.bump();
            self.expect(TokenKind::LParen)?;
            let (base, tsp) = self.base_type()?;
            let base = base.ok_or_else(|| Diagnostic::error("sizeof(void) is invalid", tsp))?;
            self.expect(TokenKind::RParen)?;
            return self.node(sp.to(self.prev_span()), ExprKind::SizeOf(base));
        }
        match self.peek().clone() {
            TokenKind::IntLit(v) => {
                self.bump();
                self.node(sp, ExprKind::IntLit(v))
            }
            TokenKind::FloatLit(v, suf) => {
                self.bump();
                self.node(sp, ExprKind::FloatLit(v, suf))
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.peek() == &TokenKind::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect(TokenKind::RParen)?;
                    }
                    let e = self.node(sp.to(self.prev_span()), ExprKind::Call { name, args })?;
                    return self.maybe_index(e);
                }
                let e = self.node(sp, ExprKind::Var(name))?;
                self.maybe_index(e)
            }
            other => Err(Diagnostic::error(
                format!("expected expression, found `{other}`"),
                sp,
            )),
        }
    }

    /// Parse trailing `[i][j]...` indices onto `e` when `e` is a variable.
    fn maybe_index(&mut self, e: Expr) -> Result<Expr, Diagnostic> {
        if self.peek() != &TokenKind::LBracket {
            return Ok(e);
        }
        let base = match &e.kind {
            ExprKind::Var(name) => name.clone(),
            _ => {
                return Err(Diagnostic::error(
                    "indexing is only supported directly on variables",
                    e.span,
                ))
            }
        };
        let mut indices = Vec::new();
        while self.eat(&TokenKind::LBracket) {
            indices.push(self.expr()?);
            self.expect(TokenKind::RBracket)?;
        }
        self.node(
            e.span.to(self.prev_span()),
            ExprKind::Index { base, indices },
        )
    }
}

/// Convert an expression to an assignable lvalue, if it is one.
fn expr_to_lvalue(e: &Expr) -> Option<LValue> {
    match &e.kind {
        ExprKind::Var(n) => Some(LValue::Var(n.clone())),
        ExprKind::Index { base, indices } => Some(LValue::Index {
            base: base.clone(),
            indices: indices.clone(),
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        parse(src).unwrap_or_else(|e| panic!("parse failed: {e}\nsource:\n{src}"))
    }

    #[test]
    fn parse_global_and_main() {
        let p = parse_ok("int n;\ndouble a[100];\nvoid main() { n = 3; }");
        assert_eq!(p.items.len(), 3);
        assert!(p.func("main").is_some());
        let g: Vec<_> = p.globals().collect();
        assert_eq!(g[1].ty, Ty::Array(ScalarTy::Double, vec![100]));
    }

    #[test]
    fn parse_multi_declarator() {
        let p = parse_ok("void main() { int i, j, k; i = j + k; }");
        let body = &p.func("main").unwrap().body;
        assert_eq!(body.stmts.len(), 4);
    }

    #[test]
    fn parse_for_loop_with_pragma() {
        let p = parse_ok(
            "void main() {\n int i;\n #pragma acc kernels loop gang worker\n for (i = 0; i < 10; i++) { i = i; }\n}",
        );
        let body = &p.func("main").unwrap().body;
        let for_stmt = &body.stmts[1];
        assert_eq!(for_stmt.pragmas.len(), 1);
        assert_eq!(for_stmt.pragmas[0].text, "acc kernels loop gang worker");
        assert!(matches!(for_stmt.kind, StmtKind::For { .. }));
    }

    #[test]
    fn standalone_update_pragma_is_own_statement() {
        let p = parse_ok("void main() {\n int x;\n #pragma acc update host(x)\n x = 1;\n}");
        let body = &p.func("main").unwrap().body;
        assert_eq!(body.stmts.len(), 3);
        assert_eq!(body.stmts[1].pragmas[0].text, "acc update host(x)");
        assert!(matches!(body.stmts[1].kind, StmtKind::Block(ref b) if b.stmts.is_empty()));
        // The assignment must NOT carry the pragma.
        assert!(body.stmts[2].pragmas.is_empty());
    }

    #[test]
    fn data_pragma_attaches_to_block() {
        let p = parse_ok("void main() {\n #pragma acc data copyin(a)\n {\n  int i;\n }\n}");
        let body = &p.func("main").unwrap().body;
        assert_eq!(body.stmts[0].pragmas[0].text, "acc data copyin(a)");
        assert!(matches!(body.stmts[0].kind, StmtKind::Block(_)));
    }

    #[test]
    fn parse_malloc_cast_sizeof() {
        let p = parse_ok(
            "double *p;\nint n;\nvoid main() { p = (double *) malloc(n * sizeof(double)); }",
        );
        let body = &p.func("main").unwrap().body;
        match &body.stmts[0].kind {
            StmtKind::Assign { target, value, .. } => {
                assert_eq!(target.base(), "p");
                assert!(matches!(value.kind, ExprKind::Cast { .. }));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parse_precedence() {
        let p = parse_ok("void main() { int x; x = 1 + 2 * 3; }");
        let body = &p.func("main").unwrap().body;
        match &body.stmts[1].kind {
            StmtKind::Assign { value, .. } => match &value.kind {
                ExprKind::Binary {
                    op: BinOp::Add,
                    rhs,
                    ..
                } => {
                    assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("unexpected: {other:?}"),
            },
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parse_2d_index() {
        let p = parse_ok("float g[4][4];\nvoid main() { int i; g[i][i+1] = 0.5f; }");
        let body = &p.func("main").unwrap().body;
        match &body.stmts[1].kind {
            StmtKind::Assign {
                target: LValue::Index { base, indices },
                ..
            } => {
                assert_eq!(base, "g");
                assert_eq!(indices.len(), 2);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parse_ternary_and_calls() {
        let p = parse_ok("void main() { double d; d = d > 0.0 ? sqrt(d) : fabs(d); }");
        let body = &p.func("main").unwrap().body;
        assert!(matches!(
            &body.stmts[1].kind,
            StmtKind::Assign {
                value: Expr {
                    kind: ExprKind::Ternary { .. },
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn parse_increment_forms() {
        let p = parse_ok("void main() { int i; i++; ++i; i--; i += 2; }");
        let body = &p.func("main").unwrap().body;
        assert_eq!(body.stmts.len(), 5);
        for s in &body.stmts[1..] {
            assert!(matches!(s.kind, StmtKind::Assign { .. }));
        }
    }

    #[test]
    fn parse_function_with_params() {
        let p = parse_ok(
            "double dot(double *x, double *y, int n) { int i; double s; s = 0.0; for (i=0;i<n;i++) s += x[i]*y[i]; return s; }\nvoid main() { }",
        );
        let f = p.func("dot").unwrap();
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[0].ty, Ty::Ptr(ScalarTy::Double));
        assert_eq!(f.ret, Ty::Scalar(ScalarTy::Double));
    }

    #[test]
    fn array_param_decays_to_pointer() {
        let p = parse_ok("void f(double a[10]) { }\nvoid main() { }");
        assert_eq!(p.func("f").unwrap().params[0].ty, Ty::Ptr(ScalarTy::Double));
    }

    #[test]
    fn error_on_bad_assignment_target() {
        assert!(parse("void main() { 1 + 2 = 3; }").is_err());
    }

    #[test]
    fn error_on_top_level_pragma() {
        assert!(parse("#pragma acc data\nint x;").is_err());
    }

    #[test]
    fn error_on_void_variable() {
        assert!(parse("void x;").is_err());
    }

    #[test]
    fn while_and_if_else_chain() {
        let p = parse_ok(
            "void main() { int i; i = 0; while (i < 4) { if (i == 1) i = 2; else if (i == 2) i = 3; else i++; } }",
        );
        assert!(p.func("main").is_some());
    }

    #[test]
    fn standalone_pragma_classifier() {
        assert!(is_standalone_pragma("acc update host(q)"));
        assert!(is_standalone_pragma("acc wait(1)"));
        assert!(!is_standalone_pragma("acc kernels loop gang"));
        assert!(!is_standalone_pragma("acc data copy(a)"));
        assert!(!is_standalone_pragma("omp parallel for"));
    }

    #[test]
    fn for_with_decl_init() {
        let p = parse_ok("void main() { for (int i = 0; i < 3; i++) { } }");
        let body = &p.func("main").unwrap().body;
        match &body.stmts[0].kind {
            StmtKind::For {
                init: Some(init), ..
            } => {
                assert!(matches!(init.kind, StmtKind::Decl(_)))
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn node_ids_unique() {
        let p = parse_ok("void main() { int i; for (i=0;i<9;i++) { i = i + 1; } }");
        let mut ids = Vec::new();
        if let Some(f) = p.func("main") {
            crate::ast::walk_stmts(&f.body, &mut |s| ids.push(s.id));
        }
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }
}
