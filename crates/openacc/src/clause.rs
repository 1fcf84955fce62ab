//! OpenACC clause types shared by all directives.

use openarc_minic::{ExprKind, ScalarTy};
use std::fmt;

/// Data-movement clause kinds of OpenACC 1.0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataClauseKind {
    /// `copy(...)` — copyin at region entry, copyout at region exit.
    Copy,
    /// `copyin(...)` — host→device at region entry only.
    CopyIn,
    /// `copyout(...)` — device→host at region exit only.
    CopyOut,
    /// `create(...)` — device allocation only, no transfers.
    Create,
    /// `present(...)` — assert data is already on the device.
    Present,
    /// `present_or_copy(...)` (a.k.a. `pcopy`).
    PresentOrCopy,
    /// `present_or_copyin(...)` (a.k.a. `pcopyin`).
    PresentOrCopyIn,
    /// `present_or_copyout(...)` (a.k.a. `pcopyout`).
    PresentOrCopyOut,
    /// `present_or_create(...)` (a.k.a. `pcreate`).
    PresentOrCreate,
    /// `deviceptr(...)` — host pointer already holds a device address.
    DevicePtr,
}

impl DataClauseKind {
    /// All clause kinds, in code order.
    pub const ALL: [DataClauseKind; 10] = [
        DataClauseKind::Copy,
        DataClauseKind::CopyIn,
        DataClauseKind::CopyOut,
        DataClauseKind::Create,
        DataClauseKind::Present,
        DataClauseKind::PresentOrCopy,
        DataClauseKind::PresentOrCopyIn,
        DataClauseKind::PresentOrCopyOut,
        DataClauseKind::PresentOrCreate,
        DataClauseKind::DevicePtr,
    ];

    /// Short forms the parser accepts beside each kind's [`name`](Self::name).
    pub(crate) const ALIASES: [(&'static str, DataClauseKind); 4] = [
        ("pcopy", DataClauseKind::PresentOrCopy),
        ("pcopyin", DataClauseKind::PresentOrCopyIn),
        ("pcopyout", DataClauseKind::PresentOrCopyOut),
        ("pcreate", DataClauseKind::PresentOrCreate),
    ];

    /// Does region entry trigger a host→device transfer?
    pub fn transfers_in(self) -> bool {
        matches!(
            self,
            DataClauseKind::Copy
                | DataClauseKind::CopyIn
                | DataClauseKind::PresentOrCopy
                | DataClauseKind::PresentOrCopyIn
        )
    }

    /// Does region exit trigger a device→host transfer?
    pub fn transfers_out(self) -> bool {
        matches!(
            self,
            DataClauseKind::Copy
                | DataClauseKind::CopyOut
                | DataClauseKind::PresentOrCopy
                | DataClauseKind::PresentOrCopyOut
        )
    }

    /// Does the clause allocate device memory at region entry (when the
    /// data is not already present)?
    pub fn allocates(self) -> bool {
        !matches!(self, DataClauseKind::Present | DataClauseKind::DevicePtr)
    }

    /// The `present_or_*` forms first consult the present table.
    pub fn checks_present(self) -> bool {
        matches!(
            self,
            DataClauseKind::Present
                | DataClauseKind::PresentOrCopy
                | DataClauseKind::PresentOrCopyIn
                | DataClauseKind::PresentOrCopyOut
                | DataClauseKind::PresentOrCreate
        )
    }

    /// Canonical spelling.
    pub fn name(self) -> &'static str {
        match self {
            DataClauseKind::Copy => "copy",
            DataClauseKind::CopyIn => "copyin",
            DataClauseKind::CopyOut => "copyout",
            DataClauseKind::Create => "create",
            DataClauseKind::Present => "present",
            DataClauseKind::PresentOrCopy => "present_or_copy",
            DataClauseKind::PresentOrCopyIn => "present_or_copyin",
            DataClauseKind::PresentOrCopyOut => "present_or_copyout",
            DataClauseKind::PresentOrCreate => "present_or_create",
            DataClauseKind::DevicePtr => "deviceptr",
        }
    }
}

impl fmt::Display for DataClauseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One variable inside a data clause, with an optional `[start:length]`
/// subarray annotation. Transfer granularity in this implementation (as in
/// the paper's tracker) is the whole array; the bounds are kept only so
/// directives round-trip textually.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DataItem {
    /// Variable name.
    pub name: String,
    /// Raw text of the subarray bounds, e.g. `0:n`, if present.
    pub bounds: Option<String>,
}

impl DataItem {
    /// An item without bounds.
    pub fn new(name: impl Into<String>) -> Self {
        DataItem {
            name: name.into(),
            bounds: None,
        }
    }
}

impl fmt::Display for DataItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.bounds {
            Some(b) => write!(f, "{}[{}]", self.name, b),
            None => write!(f, "{}", self.name),
        }
    }
}

/// A data clause: kind plus the variables it names.
#[derive(Debug, Clone, PartialEq)]
pub struct DataClause {
    /// Which clause.
    pub kind: DataClauseKind,
    /// The listed variables.
    pub items: Vec<DataItem>,
}

impl DataClause {
    /// Build a clause over plain variable names.
    pub fn of(kind: DataClauseKind, names: &[&str]) -> Self {
        DataClause {
            kind,
            items: names.iter().map(|n| DataItem::new(*n)).collect(),
        }
    }

    /// Variable names listed in this clause.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.items.iter().map(|i| i.name.as_str())
    }
}

impl fmt::Display for DataClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.kind)?;
        for (i, it) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{it}")?;
        }
        write!(f, ")")
    }
}

/// Reduction operators of OpenACC 1.0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReductionOp {
    /// `+`
    Add,
    /// `*`
    Mul,
    /// `max`
    Max,
    /// `min`
    Min,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&&`
    LogAnd,
    /// `||`
    LogOr,
}

impl ReductionOp {
    /// All operators, in code order.
    pub const ALL: [ReductionOp; 9] = [
        ReductionOp::Add,
        ReductionOp::Mul,
        ReductionOp::Max,
        ReductionOp::Min,
        ReductionOp::BitAnd,
        ReductionOp::BitOr,
        ReductionOp::BitXor,
        ReductionOp::LogAnd,
        ReductionOp::LogOr,
    ];

    /// The identity of the operator on `elem`, as the literal that seeds
    /// each thread's partial: `max` starts at -inf or `i64::MIN`, `min` at
    /// +inf or `i64::MAX`, so every element wins against it.
    pub fn identity(self, elem: ScalarTy) -> ExprKind {
        let single = elem == ScalarTy::Float;
        let (int, float) = match self {
            ReductionOp::Add | ReductionOp::BitOr | ReductionOp::BitXor | ReductionOp::LogOr => {
                (0, 0.0)
            }
            ReductionOp::Mul | ReductionOp::LogAnd => (1, 1.0),
            ReductionOp::Max => (i64::MIN, f64::NEG_INFINITY),
            ReductionOp::Min => (i64::MAX, f64::INFINITY),
            // All ones, on either type.
            ReductionOp::BitAnd => return ExprKind::IntLit(-1),
        };
        if elem.is_float() {
            ExprKind::FloatLit(float, single)
        } else {
            ExprKind::IntLit(int)
        }
    }

    /// Spelling inside `reduction(OP:...)`.
    pub fn symbol(self) -> &'static str {
        match self {
            ReductionOp::Add => "+",
            ReductionOp::Mul => "*",
            ReductionOp::Max => "max",
            ReductionOp::Min => "min",
            ReductionOp::BitAnd => "&",
            ReductionOp::BitOr => "|",
            ReductionOp::BitXor => "^",
            ReductionOp::LogAnd => "&&",
            ReductionOp::LogOr => "||",
        }
    }

    /// Parse the spelling used inside `reduction(...)`.
    pub fn from_symbol(s: &str) -> Option<Self> {
        ReductionOp::ALL.into_iter().find(|op| op.symbol() == s)
    }
}

impl fmt::Display for ReductionOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// A `reduction(op: vars)` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Reduction {
    /// The combining operator.
    pub op: ReductionOp,
    /// The reduced scalar variables.
    pub vars: Vec<String>,
}

impl fmt::Display for Reduction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reduction({}:{})", self.op, self.vars.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each `ALL` is a code table: an entry's code is its position. The
    // matches are exhaustive, so a new variant does not compile here until
    // it is given a code, and each loop checks that `ALL` holds every entry
    // at its code.

    #[test]
    fn data_clause_all_is_its_code_table() {
        let code = |c| match c {
            DataClauseKind::Copy => 0,
            DataClauseKind::CopyIn => 1,
            DataClauseKind::CopyOut => 2,
            DataClauseKind::Create => 3,
            DataClauseKind::Present => 4,
            DataClauseKind::PresentOrCopy => 5,
            DataClauseKind::PresentOrCopyIn => 6,
            DataClauseKind::PresentOrCopyOut => 7,
            DataClauseKind::PresentOrCreate => 8,
            DataClauseKind::DevicePtr => 9,
        };
        for (i, c) in DataClauseKind::ALL.into_iter().enumerate() {
            assert_eq!(code(c), i, "{c:?}");
        }
    }

    #[test]
    fn reduction_all_is_its_code_table() {
        let code = |op| match op {
            ReductionOp::Add => 0,
            ReductionOp::Mul => 1,
            ReductionOp::Max => 2,
            ReductionOp::Min => 3,
            ReductionOp::BitAnd => 4,
            ReductionOp::BitOr => 5,
            ReductionOp::BitXor => 6,
            ReductionOp::LogAnd => 7,
            ReductionOp::LogOr => 8,
        };
        for (i, op) in ReductionOp::ALL.into_iter().enumerate() {
            assert_eq!(code(op), i, "{op:?}");
        }
    }

    #[test]
    fn transfer_direction_table() {
        assert!(DataClauseKind::Copy.transfers_in());
        assert!(DataClauseKind::Copy.transfers_out());
        assert!(DataClauseKind::CopyIn.transfers_in());
        assert!(!DataClauseKind::CopyIn.transfers_out());
        assert!(!DataClauseKind::Create.transfers_in());
        assert!(!DataClauseKind::Create.transfers_out());
        assert!(DataClauseKind::PresentOrCopyOut.transfers_out());
    }

    #[test]
    fn present_forms_check_table() {
        assert!(DataClauseKind::Present.checks_present());
        assert!(DataClauseKind::PresentOrCreate.checks_present());
        assert!(!DataClauseKind::Copy.checks_present());
    }

    #[test]
    fn clause_display() {
        let c = DataClause::of(DataClauseKind::CopyIn, &["a", "b"]);
        assert_eq!(c.to_string(), "copyin(a, b)");
        let mut c2 = DataClause::of(DataClauseKind::Copy, &["q"]);
        c2.items[0].bounds = Some("0:n".into());
        assert_eq!(c2.to_string(), "copy(q[0:n])");
    }

    #[test]
    fn reduction_round_trip() {
        for op in [
            ReductionOp::Add,
            ReductionOp::Mul,
            ReductionOp::Max,
            ReductionOp::Min,
            ReductionOp::BitAnd,
            ReductionOp::BitOr,
            ReductionOp::BitXor,
            ReductionOp::LogAnd,
            ReductionOp::LogOr,
        ] {
            assert_eq!(ReductionOp::from_symbol(op.symbol()), Some(op));
        }
        assert_eq!(ReductionOp::from_symbol("??"), None);
    }

    #[test]
    fn identities() {
        use ScalarTy::*;
        assert_eq!(
            ReductionOp::Add.identity(Double),
            ExprKind::FloatLit(0.0, false)
        );
        assert_eq!(ReductionOp::Mul.identity(Int), ExprKind::IntLit(1));
        assert_eq!(ReductionOp::BitAnd.identity(Float), ExprKind::IntLit(-1));
        let extremes = [
            (ReductionOp::Max, i64::MIN, f64::NEG_INFINITY),
            (ReductionOp::Min, i64::MAX, f64::INFINITY),
        ];
        for (op, int, float) in extremes {
            assert_eq!(op.identity(Long), ExprKind::IntLit(int));
            assert_eq!(op.identity(Int), ExprKind::IntLit(int));
            assert_eq!(op.identity(Double), ExprKind::FloatLit(float, false));
            assert_eq!(op.identity(Float), ExprKind::FloatLit(float, true));
        }
    }
}
