//! The report engine: structured findings the interactive tool shows the
//! programmer, with Listing-4-style loop-iteration context.

use openarc_trace::Severity;
use std::fmt;

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Host → device.
    ToDevice,
    /// Device → host.
    ToHost,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::ToDevice => write!(f, "from host to device"),
            Direction::ToHost => write!(f, "from device to host"),
        }
    }
}

/// Kind of finding. The three suggestion classes of §IV-C: information on
/// redundant transfers, errors on missing/incorrect transfers, and warnings
/// on may-redundant / may-missing transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IssueKind {
    /// Destination already up to date.
    Redundant,
    /// Destination was may-stale (compiler said may-dead): user verifies.
    MayRedundant,
    /// Source was stale: outdated data copied.
    Incorrect,
    /// Source was may-stale.
    MayIncorrect,
    /// A read found its local copy stale.
    Missing,
    /// A stale copy was partially overwritten / read may precede refresh.
    MayMissing,
}

impl IssueKind {
    /// All kinds, in code order.
    pub const ALL: [IssueKind; 6] = [
        IssueKind::Redundant,
        IssueKind::MayRedundant,
        IssueKind::Incorrect,
        IssueKind::MayIncorrect,
        IssueKind::Missing,
        IssueKind::MayMissing,
    ];

    /// Errors must be fixed; warnings (the `may-*` kinds) need user
    /// judgement; info is an optimization opportunity.
    pub fn severity(self) -> Severity {
        match self {
            IssueKind::Redundant => Severity::Info,
            IssueKind::MayRedundant | IssueKind::MayMissing | IssueKind::MayIncorrect => {
                Severity::Warning
            }
            IssueKind::Incorrect | IssueKind::Missing => Severity::Error,
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Issue {
    /// What was diagnosed.
    pub kind: IssueKind,
    /// Variable involved.
    pub var: String,
    /// Name of the transfer site (e.g. `update0`) or access site.
    pub site: String,
    /// Transfer direction, when applicable.
    pub direction: Option<Direction>,
    /// Enclosing-loop iteration indices, outermost first
    /// (Listing 4's "enclosing loop index = 1").
    pub loop_context: Vec<(String, i64)>,
}

openarc_trace::wire_codes!(IssueKind);

/// Wire codes of an issue's optional transfer direction: one byte, not an
/// `Option` tag followed by a code.
const DIRECTIONS: [Option<Direction>; 3] =
    [None, Some(Direction::ToDevice), Some(Direction::ToHost)];

openarc_trace::wire_record!(Issue {
    kind,
    var,
    site,
    direction [in DIRECTIONS],
    loop_context,
});

impl fmt::Display for Issue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ctx = if self.loop_context.is_empty() {
            String::new()
        } else {
            let parts: Vec<String> = self
                .loop_context
                .iter()
                .map(|(l, i)| format!("enclosing {l} index = {i}"))
                .collect();
            format!(" ({})", parts.join(", "))
        };
        match self.kind {
            IssueKind::Redundant => {
                let dir = self.direction.map(|d| d.to_string()).unwrap_or_default();
                write!(
                    f,
                    "- Copying {} {} in {}{} is redundant.",
                    self.var, dir, self.site, ctx
                )
            }
            IssueKind::MayRedundant => {
                let dir = self.direction.map(|d| d.to_string()).unwrap_or_default();
                write!(
                    f,
                    "- Copying {} {} in {}{} may be redundant; verify the value is dead.",
                    self.var, dir, self.site, ctx
                )
            }
            IssueKind::Incorrect => write!(
                f,
                "- ERROR: transfer of {} in {}{} copies stale data.",
                self.var, self.site, ctx
            ),
            IssueKind::MayIncorrect => write!(
                f,
                "- WARNING: transfer of {} in {}{} may copy stale data.",
                self.var, self.site, ctx
            ),
            IssueKind::Missing => write!(
                f,
                "- ERROR: {} is stale at {}{}; a memory transfer is missing.",
                self.var, self.site, ctx
            ),
            IssueKind::MayMissing => write!(
                f,
                "- WARNING: {} may be stale at {}{}; verify whether a transfer is needed.",
                self.var, self.site, ctx
            ),
        }
    }
}

/// Collected findings of one profiling run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings in occurrence order.
    pub issues: Vec<Issue>,
}

impl Report {
    /// Record one finding.
    pub fn push(&mut self, issue: Issue) {
        self.issues.push(issue);
    }

    /// Findings of a given kind.
    pub fn of_kind(&self, kind: IssueKind) -> impl Iterator<Item = &Issue> {
        self.issues.iter().filter(move |i| i.kind == kind)
    }

    /// Count per kind.
    pub fn count(&self, kind: IssueKind) -> usize {
        self.of_kind(kind).count()
    }

    /// Deduplicated (kind, var, site) triples — each is one actionable
    /// suggestion even if it fired on every loop iteration.
    pub fn distinct_suggestions(&self) -> Vec<(IssueKind, String, String)> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for i in &self.issues {
            let key = (format!("{:?}", i.kind), i.var.clone(), i.site.clone());
            if seen.insert(key) {
                out.push((i.kind, i.var.clone(), i.site.clone()));
            }
        }
        out
    }

    /// True if any hard error (missing/incorrect) was found.
    pub fn has_errors(&self) -> bool {
        self.issues
            .iter()
            .any(|i| i.kind.severity() == Severity::Error)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in &self.issues {
            writeln!(f, "{i}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: IssueKind) -> Issue {
        Issue {
            kind,
            var: "b".into(),
            site: "update0".into(),
            direction: Some(Direction::ToHost),
            loop_context: vec![("loop".into(), 1)],
        }
    }

    #[test]
    fn listing4_style_message() {
        let msg = sample(IssueKind::Redundant).to_string();
        assert_eq!(
            msg,
            "- Copying b from device to host in update0 (enclosing loop index = 1) is redundant."
        );
    }

    #[test]
    fn severities() {
        assert_eq!(IssueKind::Redundant.severity(), Severity::Info);
        assert_eq!(IssueKind::Missing.severity(), Severity::Error);
        assert_eq!(IssueKind::MayRedundant.severity(), Severity::Warning);
    }

    /// `ALL` is the kind's code table: the match is exhaustive, so a new
    /// kind does not compile here until it is given a code.
    #[test]
    fn issue_kind_all_is_its_code_table() {
        let code = |k| match k {
            IssueKind::Redundant => 0,
            IssueKind::MayRedundant => 1,
            IssueKind::Incorrect => 2,
            IssueKind::MayIncorrect => 3,
            IssueKind::Missing => 4,
            IssueKind::MayMissing => 5,
        };
        for (i, k) in IssueKind::ALL.into_iter().enumerate() {
            assert_eq!(code(k), i, "{k:?}");
        }
    }

    #[test]
    fn distinct_suggestions_dedupe_iterations() {
        let mut r = Report::default();
        for it in 1..=5 {
            let mut i = sample(IssueKind::Redundant);
            i.loop_context = vec![("k-loop".into(), it)];
            r.push(i);
        }
        r.push(sample(IssueKind::MayRedundant));
        assert_eq!(r.issues.len(), 6);
        assert_eq!(r.distinct_suggestions().len(), 2);
        assert_eq!(r.count(IssueKind::Redundant), 5);
    }

    #[test]
    fn has_errors_detects_missing() {
        let mut r = Report::default();
        r.push(sample(IssueKind::Redundant));
        assert!(!r.has_errors());
        r.push(sample(IssueKind::Missing));
        assert!(r.has_errors());
    }
}
