//! Abstract syntax tree for MiniC.
//!
//! The AST is deliberately close to the source: `#pragma` lines are kept as
//! raw [`Pragma`] attachments on the following statement so the OpenACC
//! layer (crate `openarc-openacc`) can parse, validate, and — crucially for
//! the paper's passes — *rewrite* them (memory-transfer demotion edits data
//! clauses in place and the pretty-printer reproduces Listing-2-style
//! output).
//!
//! Every statement and expression carries a unique [`NodeId`]; dataflow
//! analyses and the coherence-check instrumentation key their results on
//! these ids.

use crate::span::Span;
use std::fmt;

/// Unique id of an AST node within one [`Program`].
pub type NodeId = u32;

/// Deepest nesting a MiniC program may have: one level per statement,
/// expression node and parenthesis on the way down from a function body or
/// global initializer. C sets no such limit. MiniC's passes recurse on the
/// syntax tree, and a program at this depth fits every pass into a 2 MiB
/// thread stack (that of an `openarc serve` connection), so no program
/// text can overflow one; the parser refuses anything deeper
/// (DESIGN.md §7).
pub const MAX_DEPTH: usize = 128;

/// Primitive scalar types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarTy {
    /// 64-bit signed integer (C `int` widened for simplicity).
    Int,
    /// 64-bit signed integer (C `long`).
    Long,
    /// 32-bit IEEE float.
    Float,
    /// 64-bit IEEE float.
    Double,
}

impl ScalarTy {
    /// All scalar types, in code order.
    pub const ALL: [ScalarTy; 4] = [
        ScalarTy::Int,
        ScalarTy::Long,
        ScalarTy::Float,
        ScalarTy::Double,
    ];

    /// Size in bytes of one element, used by the transfer cost model.
    pub fn size_bytes(self) -> u64 {
        match self {
            ScalarTy::Int => 4,
            ScalarTy::Long => 8,
            ScalarTy::Float => 4,
            ScalarTy::Double => 8,
        }
    }

    /// True for `float`/`double`.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarTy::Float | ScalarTy::Double)
    }
}

impl fmt::Display for ScalarTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarTy::Int => write!(f, "int"),
            ScalarTy::Long => write!(f, "long"),
            ScalarTy::Float => write!(f, "float"),
            ScalarTy::Double => write!(f, "double"),
        }
    }
}

/// A MiniC type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ty {
    /// `void` (function returns only).
    Void,
    /// A scalar value.
    Scalar(ScalarTy),
    /// Pointer to scalar, e.g. `double *`. Only one indirection level is
    /// supported; the benchmarks never need more.
    Ptr(ScalarTy),
    /// Statically sized array, e.g. `double a[512][512]`.
    Array(ScalarTy, Vec<u64>),
}

impl Ty {
    /// The element scalar type of arrays/pointers, or the scalar itself.
    pub fn elem(&self) -> Option<ScalarTy> {
        match self {
            Ty::Void => None,
            Ty::Scalar(s) | Ty::Ptr(s) | Ty::Array(s, _) => Some(*s),
        }
    }

    /// True if this type names CPU/GPU-shareable aggregate data (array or
    /// heap pointer) — the "variables of interest" of the coherence tracker.
    pub fn is_aggregate(&self) -> bool {
        matches!(self, Ty::Ptr(_) | Ty::Array(_, _))
    }

    /// Total element count of a static array (product of dims).
    pub fn static_len(&self) -> Option<u64> {
        match self {
            Ty::Array(_, dims) => Some(dims.iter().product()),
            _ => None,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Void => write!(f, "void"),
            Ty::Scalar(s) => write!(f, "{s}"),
            Ty::Ptr(s) => write!(f, "{s} *"),
            Ty::Array(s, dims) => {
                write!(f, "{s}")?;
                for d in dims {
                    write!(f, "[{d}]")?;
                }
                Ok(())
            }
        }
    }
}

/// A raw `#pragma` attachment.
#[derive(Debug, Clone, PartialEq)]
pub struct Pragma {
    /// Text after `#pragma`, whitespace-normalized.
    pub text: String,
    /// Source location of the pragma line.
    pub span: Span,
}

/// Binary operators (C spellings).
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    And,
    Or,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

impl BinOp {
    /// All binary operators, in code order.
    pub const ALL: [BinOp; 18] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Lt,
        BinOp::Gt,
        BinOp::Le,
        BinOp::Ge,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::And,
        BinOp::Or,
        BinOp::BitAnd,
        BinOp::BitOr,
        BinOp::BitXor,
        BinOp::Shl,
        BinOp::Shr,
    ];

    /// True for `&&`/`||` (short-circuit evaluation).
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// True for comparison operators (result type int).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Logical not `!`.
    Not,
    /// Bitwise not `~`.
    BitNot,
}

impl UnOp {
    /// All unary operators, in code order.
    pub const ALL: [UnOp; 3] = [UnOp::Neg, UnOp::Not, UnOp::BitNot];
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => write!(f, "-"),
            UnOp::Not => write!(f, "!"),
            UnOp::BitNot => write!(f, "~"),
        }
    }
}

/// Compound-assignment operators (`=` is [`AssignOp::Set`]).
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    Set,
    Add,
    Sub,
    Mul,
    Div,
}

impl AssignOp {
    /// All assignment operators, in code order.
    pub const ALL: [AssignOp; 5] = [
        AssignOp::Set,
        AssignOp::Add,
        AssignOp::Sub,
        AssignOp::Mul,
        AssignOp::Div,
    ];

    /// The binary operator a compound assignment expands to, if any.
    pub fn binop(self) -> Option<BinOp> {
        match self {
            AssignOp::Set => None,
            AssignOp::Add => Some(BinOp::Add),
            AssignOp::Sub => Some(BinOp::Sub),
            AssignOp::Mul => Some(BinOp::Mul),
            AssignOp::Div => Some(BinOp::Div),
        }
    }
}

impl fmt::Display for AssignOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignOp::Set => write!(f, "="),
            AssignOp::Add => write!(f, "+="),
            AssignOp::Sub => write!(f, "-="),
            AssignOp::Mul => write!(f, "*="),
            AssignOp::Div => write!(f, "/="),
        }
    }
}

/// Math intrinsics: the built-in calls besides `malloc`/`free`, which
/// have their own checks and instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Intrinsic {
    Sqrt,
    Fabs,
    Exp,
    Log,
    Pow,
    Sin,
    Cos,
    Floor,
    Ceil,
    Fmin,
    Fmax,
    Abs,
    Min,
    Max,
    SqrtF,
    ExpF,
    FabsF,
    LogF,
    PowF,
}

impl Intrinsic {
    /// All intrinsics, in code order.
    pub const ALL: [Intrinsic; 19] = [
        Intrinsic::Sqrt,
        Intrinsic::Fabs,
        Intrinsic::Exp,
        Intrinsic::Log,
        Intrinsic::Pow,
        Intrinsic::Sin,
        Intrinsic::Cos,
        Intrinsic::Floor,
        Intrinsic::Ceil,
        Intrinsic::Fmin,
        Intrinsic::Fmax,
        Intrinsic::Abs,
        Intrinsic::Min,
        Intrinsic::Max,
        Intrinsic::SqrtF,
        Intrinsic::ExpF,
        Intrinsic::FabsF,
        Intrinsic::LogF,
        Intrinsic::PowF,
    ];

    /// Source spelling of the call.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Fabs => "fabs",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Pow => "pow",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Floor => "floor",
            Intrinsic::Ceil => "ceil",
            Intrinsic::Fmin => "fmin",
            Intrinsic::Fmax => "fmax",
            Intrinsic::Abs => "abs",
            Intrinsic::Min => "min",
            Intrinsic::Max => "max",
            Intrinsic::SqrtF => "sqrtf",
            Intrinsic::ExpF => "expf",
            Intrinsic::FabsF => "fabsf",
            Intrinsic::LogF => "logf",
            Intrinsic::PowF => "powf",
        }
    }

    /// The intrinsic a call name spells, if any.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        Intrinsic::ALL.into_iter().find(|i| i.name() == name)
    }

    /// Number of arguments.
    #[inline]
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Pow
            | Intrinsic::Fmin
            | Intrinsic::Fmax
            | Intrinsic::Min
            | Intrinsic::Max
            | Intrinsic::PowF => 2,
            _ => 1,
        }
    }
}

/// An expression node.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Unique node id.
    pub id: NodeId,
    /// Source span.
    pub span: Span,
    /// What kind of expression.
    pub kind: ExprKind,
}

/// Expression variants.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Float literal; bool marks an `f` suffix.
    FloatLit(f64, bool),
    /// Variable reference.
    Var(String),
    /// Array/pointer element access `base[i0][i1]...`.
    Index {
        /// Array or pointer variable name.
        base: String,
        /// One index per dimension.
        indices: Vec<Expr>,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Conditional `c ? a : b`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then_e: Box<Expr>,
        /// Value when false.
        else_e: Box<Expr>,
    },
    /// Function or intrinsic call.
    Call {
        /// Callee name (`sqrt`, `malloc`, or a user function).
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// C-style cast `(double)x` or `(double *)malloc(...)`.
    Cast {
        /// Target type.
        ty: Ty,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `sizeof(double)` etc.
    SizeOf(ScalarTy),
}

impl ExprKind {
    /// The direct sub-expressions, in source order.
    pub fn operands(&self) -> impl Iterator<Item = &Expr> {
        let (boxed, listed): ([Option<&Expr>; 3], &[Expr]) = match self {
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(..)
            | ExprKind::Var(_)
            | ExprKind::SizeOf(_) => ([None; 3], &[]),
            ExprKind::Index { indices: l, .. } | ExprKind::Call { args: l, .. } => ([None; 3], l),
            ExprKind::Unary { expr, .. } | ExprKind::Cast { expr, .. } => {
                ([Some(expr), None, None], &[])
            }
            ExprKind::Binary { lhs, rhs, .. } => ([Some(lhs), Some(rhs), None], &[]),
            ExprKind::Ternary {
                cond,
                then_e,
                else_e,
            } => ([Some(cond), Some(then_e), Some(else_e)], &[]),
        };
        boxed.into_iter().flatten().chain(listed)
    }
}

impl Expr {
    /// Visit this expression and all sub-expressions (pre-order).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        for e in self.kind.operands() {
            e.walk(f);
        }
    }

    /// Names of all variables *read* by this expression, including array
    /// bases (index expressions are walked too).
    pub fn reads(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |e| match &e.kind {
            ExprKind::Var(n) => out.push(n.clone()),
            ExprKind::Index { base, .. } => out.push(base.clone()),
            _ => {}
        });
        out
    }
}

/// Assignment target.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Scalar or pointer variable.
    Var(String),
    /// Array/pointer element.
    Index {
        /// Array or pointer variable name.
        base: String,
        /// One index per dimension.
        indices: Vec<Expr>,
    },
}

impl LValue {
    /// The variable name being written.
    pub fn base(&self) -> &str {
        match self {
            LValue::Var(n) => n,
            LValue::Index { base, .. } => base,
        }
    }
}

/// A variable declaration (global, local, or parameter-like).
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Node id.
    pub id: NodeId,
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: Ty,
    /// Optional initializer (scalars only).
    pub init: Option<Expr>,
    /// Source span.
    pub span: Span,
}

/// A statement node with attached pragmas.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Unique node id.
    pub id: NodeId,
    /// Source span.
    pub span: Span,
    /// Pragmas immediately preceding this statement.
    pub pragmas: Vec<Pragma>,
    /// Statement body.
    pub kind: StmtKind,
}

/// Statement variants.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Local declaration.
    Decl(VarDecl),
    /// Expression statement (usually a call).
    Expr(Expr),
    /// Assignment `target op= value`.
    Assign {
        /// Destination.
        target: LValue,
        /// `=`, `+=`, ...
        op: AssignOp,
        /// Source expression.
        value: Expr,
    },
    /// `if`/`else`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_blk: Block,
        /// Optional else branch.
        else_blk: Option<Block>,
    },
    /// `for (init; cond; step) body`.
    For {
        /// Init statement (declaration or assignment), if any.
        init: Option<Box<Stmt>>,
        /// Loop condition, if any.
        cond: Option<Expr>,
        /// Step statement, if any.
        step: Option<Box<Stmt>>,
        /// Loop body.
        body: Block,
    },
    /// `while (cond) body`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// A braced block (data regions attach their pragma here).
    Block(Block),
    /// `return [expr];`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
}

/// A sequence of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// The statements, in source order.
    pub stmts: Vec<Stmt>,
}

/// Function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type (scalar or pointer).
    pub ty: Ty,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    /// Node id.
    pub id: NodeId,
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Ty,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body.
    pub body: Block,
    /// Source span.
    pub span: Span,
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// Global variable.
    Global(VarDecl),
    /// Function definition.
    Func(Func),
}

/// A whole translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Next unused [`NodeId`]; passes that synthesize nodes allocate from
    /// here via [`Program::fresh_id`].
    pub next_id: NodeId,
}

impl Program {
    /// Allocate a fresh node id.
    pub fn fresh_id(&mut self) -> NodeId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Find a function by name.
    pub fn func(&self, name: &str) -> Option<&Func> {
        self.items.iter().find_map(|it| match it {
            Item::Func(f) if f.name == name => Some(f),
            _ => None,
        })
    }

    /// Iterate over all global variable declarations.
    pub fn globals(&self) -> impl Iterator<Item = &VarDecl> {
        self.items.iter().filter_map(|it| match it {
            Item::Global(g) => Some(g),
            _ => None,
        })
    }
}

/// Walk every statement in a block, depth-first, pre-order.
pub fn walk_stmts<'a>(block: &'a Block, f: &mut impl FnMut(&'a Stmt)) {
    for s in &block.stmts {
        walk_stmt(s, f);
    }
}

/// Walk one statement and its nested statements, pre-order.
pub fn walk_stmt<'a>(stmt: &'a Stmt, f: &mut impl FnMut(&'a Stmt)) {
    f(stmt);
    match &stmt.kind {
        StmtKind::If {
            then_blk, else_blk, ..
        } => {
            walk_stmts(then_blk, f);
            if let Some(e) = else_blk {
                walk_stmts(e, f);
            }
        }
        StmtKind::For {
            init, step, body, ..
        } => {
            if let Some(i) = init {
                walk_stmt(i, f);
            }
            if let Some(s) = step {
                walk_stmt(s, f);
            }
            walk_stmts(body, f);
        }
        StmtKind::While { body, .. } => walk_stmts(body, f),
        StmtKind::Block(b) => walk_stmts(b, f),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(kind: ExprKind) -> Expr {
        Expr {
            id: 0,
            span: Span::dummy(),
            kind,
        }
    }

    #[test]
    fn scalar_sizes() {
        assert_eq!(ScalarTy::Int.size_bytes(), 4);
        assert_eq!(ScalarTy::Double.size_bytes(), 8);
        assert!(ScalarTy::Float.is_float());
        assert!(!ScalarTy::Long.is_float());
    }

    #[test]
    fn ty_aggregate_and_len() {
        assert!(Ty::Ptr(ScalarTy::Double).is_aggregate());
        assert!(!Ty::Scalar(ScalarTy::Int).is_aggregate());
        assert_eq!(
            Ty::Array(ScalarTy::Float, vec![4, 8]).static_len(),
            Some(32)
        );
        assert_eq!(Ty::Ptr(ScalarTy::Float).static_len(), None);
    }

    #[test]
    fn ty_display() {
        assert_eq!(Ty::Ptr(ScalarTy::Double).to_string(), "double *");
        assert_eq!(
            Ty::Array(ScalarTy::Int, vec![3, 5]).to_string(),
            "int[3][5]"
        );
    }

    #[test]
    fn expr_reads_collects_bases() {
        let expr = e(ExprKind::Binary {
            op: BinOp::Add,
            lhs: Box::new(e(ExprKind::Index {
                base: "a".into(),
                indices: vec![e(ExprKind::Var("i".into()))],
            })),
            rhs: Box::new(e(ExprKind::Var("x".into()))),
        });
        let mut reads = expr.reads();
        reads.sort();
        assert_eq!(reads, vec!["a", "i", "x"]);
    }

    // Each `ALL` is a code table: an entry's code is its position. The
    // matches are exhaustive, so a new variant does not compile here until
    // it is given a code, and each loop checks that `ALL` holds every entry
    // at its code.

    #[test]
    fn scalar_all_is_its_code_table() {
        let code = |s| match s {
            ScalarTy::Int => 0,
            ScalarTy::Long => 1,
            ScalarTy::Float => 2,
            ScalarTy::Double => 3,
        };
        for (i, s) in ScalarTy::ALL.into_iter().enumerate() {
            assert_eq!(code(s), i, "{s:?}");
            // `fingerprint` hashes the discriminant as this code.
            assert_eq!(s as usize, i, "{s:?}");
        }
    }

    #[test]
    fn unop_all_is_its_code_table() {
        let code = |op| match op {
            UnOp::Neg => 0,
            UnOp::Not => 1,
            UnOp::BitNot => 2,
        };
        for (i, op) in UnOp::ALL.into_iter().enumerate() {
            assert_eq!(code(op), i, "{op:?}");
        }
    }

    #[test]
    fn binop_all_is_its_code_table() {
        let code = |op| match op {
            BinOp::Add => 0,
            BinOp::Sub => 1,
            BinOp::Mul => 2,
            BinOp::Div => 3,
            BinOp::Rem => 4,
            BinOp::Lt => 5,
            BinOp::Gt => 6,
            BinOp::Le => 7,
            BinOp::Ge => 8,
            BinOp::Eq => 9,
            BinOp::Ne => 10,
            BinOp::And => 11,
            BinOp::Or => 12,
            BinOp::BitAnd => 13,
            BinOp::BitOr => 14,
            BinOp::BitXor => 15,
            BinOp::Shl => 16,
            BinOp::Shr => 17,
        };
        for (i, op) in BinOp::ALL.into_iter().enumerate() {
            assert_eq!(code(op), i, "{op:?}");
        }
    }

    #[test]
    fn assign_op_all_is_its_code_table() {
        let code = |op| match op {
            AssignOp::Set => 0,
            AssignOp::Add => 1,
            AssignOp::Sub => 2,
            AssignOp::Mul => 3,
            AssignOp::Div => 4,
        };
        for (i, op) in AssignOp::ALL.into_iter().enumerate() {
            assert_eq!(code(op), i, "{op:?}");
        }
    }

    #[test]
    fn intrinsic_all_is_its_code_table() {
        let code = |i| match i {
            Intrinsic::Sqrt => (0, "sqrt"),
            Intrinsic::Fabs => (1, "fabs"),
            Intrinsic::Exp => (2, "exp"),
            Intrinsic::Log => (3, "log"),
            Intrinsic::Pow => (4, "pow"),
            Intrinsic::Sin => (5, "sin"),
            Intrinsic::Cos => (6, "cos"),
            Intrinsic::Floor => (7, "floor"),
            Intrinsic::Ceil => (8, "ceil"),
            Intrinsic::Fmin => (9, "fmin"),
            Intrinsic::Fmax => (10, "fmax"),
            Intrinsic::Abs => (11, "abs"),
            Intrinsic::Min => (12, "min"),
            Intrinsic::Max => (13, "max"),
            Intrinsic::SqrtF => (14, "sqrtf"),
            Intrinsic::ExpF => (15, "expf"),
            Intrinsic::FabsF => (16, "fabsf"),
            Intrinsic::LogF => (17, "logf"),
            Intrinsic::PowF => (18, "powf"),
        };
        for (i, k) in Intrinsic::ALL.into_iter().enumerate() {
            assert_eq!(code(k), (i, k.name()), "{k:?}");
        }
    }

    #[test]
    fn intrinsic_names_round_trip() {
        for i in Intrinsic::ALL {
            assert_eq!(Intrinsic::from_name(i.name()), Some(i));
        }
        assert_eq!(Intrinsic::from_name("malloc"), None);
        assert_eq!(Intrinsic::from_name("Sqrt"), None);
        assert_eq!(Intrinsic::Pow.arity(), 2);
        assert_eq!(Intrinsic::Sin.arity(), 1);
    }

    #[test]
    fn assign_op_expansion() {
        assert_eq!(AssignOp::Add.binop(), Some(BinOp::Add));
        assert_eq!(AssignOp::Set.binop(), None);
    }

    #[test]
    fn fresh_ids_monotonic() {
        let mut p = Program::default();
        let a = p.fresh_id();
        let b = p.fresh_id();
        assert!(b > a);
    }
}
