//! Source locations and diagnostics.
//!
//! Every token, AST node and compiler message carries a [`Span`] so that
//! errors and interactive-tool suggestions can be attributed back to the
//! directive-annotated input program — the traceability requirement the
//! paper motivates in §II-B.

use std::fmt;

/// A half-open byte range `[start, end)` into a source file, plus the
/// 1-based line the range starts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
    /// 1-based source line of `start`.
    pub line: u32,
}

impl Span {
    /// Create a span covering `[start, end)` on `line`.
    pub fn new(start: u32, end: u32, line: u32) -> Self {
        Span { start, end, line }
    }

    /// A zero-width placeholder span (used for synthesized nodes).
    pub fn dummy() -> Self {
        Span::default()
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line: self
                .line
                .min(other.line)
                .max(1)
                .max(self.line.min(other.line)),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}", self.line)
    }
}

/// Severity of a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// A hard error: compilation cannot proceed meaningfully.
    Error,
    /// A warning: suspicious but not fatal.
    Warning,
    /// A note attached to another diagnostic or informational output.
    Note,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
            Severity::Note => write!(f, "note"),
        }
    }
}

/// A compiler message attributed to a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How severe the problem is.
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
    /// Location in the input program.
    pub span: Span,
}

impl Diagnostic {
    /// Construct an error diagnostic.
    pub fn error(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Error,
            message: message.into(),
            span,
        }
    }

    /// Construct a warning diagnostic.
    pub fn warning(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            message: message.into(),
            span,
        }
    }

    /// Construct a note diagnostic.
    pub fn note(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Note,
            message: message.into(),
            span,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} ({})", self.severity, self.message, self.span)
    }
}

impl std::error::Error for Diagnostic {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_to_covers_both() {
        let a = Span::new(3, 7, 1);
        let b = Span::new(10, 20, 3);
        let c = a.to(b);
        assert_eq!(c.start, 3);
        assert_eq!(c.end, 20);
        assert_eq!(c.line, 1);
    }

    #[test]
    fn diagnostic_display_includes_severity_and_line() {
        let d = Diagnostic::error("bad token", Span::new(0, 1, 42));
        let s = d.to_string();
        assert!(s.contains("error"));
        assert!(s.contains("line 42"));
    }

    #[test]
    fn severity_display() {
        assert_eq!(Severity::Warning.to_string(), "warning");
        assert_eq!(Severity::Note.to_string(), "note");
    }
}
