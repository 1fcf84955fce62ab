//! Runtime values and buffer handles.

use openarc_minic::ScalarTy;
use std::fmt;

/// Handle to a heap/array buffer inside some memory space. Handle 0 is the
/// null pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle(pub u32);

impl Handle {
    /// The null pointer.
    pub const NULL: Handle = Handle(0);

    /// True if this is the null handle.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buf#{}", self.0)
    }
}

/// A dynamically typed VM value.
///
/// Integer (`int`/`long`) values share the `Int` representation; `float`
/// arithmetic stays in `F32` so single-precision rounding matches what a
/// real GPU would produce (the CPU/GPU precision-mismatch behaviour the
/// paper's configurable error margin exists for).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// Single-precision float.
    F32(f32),
    /// Double-precision float.
    F64(f64),
    /// Buffer handle (pointer).
    Ptr(Handle),
}

impl Value {
    /// Zero of the given scalar type.
    pub fn zero(ty: ScalarTy) -> Value {
        match ty {
            ScalarTy::Int | ScalarTy::Long => Value::Int(0),
            ScalarTy::Float => Value::F32(0.0),
            ScalarTy::Double => Value::F64(0.0),
        }
    }

    /// Interpret as a boolean (C truthiness).
    #[inline]
    pub fn truthy(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::F32(v) => v != 0.0,
            Value::F64(v) => v != 0.0,
            Value::Ptr(h) => !h.is_null(),
        }
    }

    /// Widen to f64 (for comparisons and float math).
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::F32(v) => v as f64,
            Value::F64(v) => v,
            Value::Ptr(h) => h.0 as f64,
        }
    }

    /// Truncate to i64 (C cast semantics for float→int).
    #[inline]
    pub fn as_i64(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::F32(v) => v as i64,
            Value::F64(v) => v as i64,
            Value::Ptr(h) => h.0 as i64,
        }
    }

    /// Convert to the given scalar type (C cast).
    #[inline]
    pub fn cast(self, ty: ScalarTy) -> Value {
        match ty {
            ScalarTy::Int | ScalarTy::Long => Value::Int(self.as_i64()),
            ScalarTy::Float => Value::F32(self.as_f64() as f32),
            ScalarTy::Double => Value::F64(self.as_f64()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::F32(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Ptr(h) => write!(f, "{h}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(Value::Int(3).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::F64(0.0).truthy());
        assert!(Value::F32(0.5).truthy());
        assert!(!Value::Ptr(Handle::NULL).truthy());
        assert!(Value::Ptr(Handle(7)).truthy());
    }

    #[test]
    fn casting_follows_c() {
        assert_eq!(Value::F64(2.9).cast(ScalarTy::Int), Value::Int(2));
        assert_eq!(Value::Int(1).cast(ScalarTy::Double), Value::F64(1.0));
        assert_eq!(Value::F64(1.5).cast(ScalarTy::Float), Value::F32(1.5));
        assert_eq!(Value::F32(-3.7).cast(ScalarTy::Long), Value::Int(-3));
    }

    #[test]
    fn zero_values() {
        assert_eq!(Value::zero(ScalarTy::Float), Value::F32(0.0));
        assert_eq!(Value::zero(ScalarTy::Long), Value::Int(0));
    }
}
