//! OpenACC directive AST.

use crate::clause::{DataClause, Reduction};
use std::fmt;

/// Loop-scheduling and privatization clauses (`loop` directive and the loop
/// part of combined `kernels loop` / `parallel loop`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoopSpec {
    /// Distribute iterations across gangs.
    pub gang: bool,
    /// Distribute iterations across workers.
    pub worker: bool,
    /// Vector (SIMD) execution of iterations.
    pub vector: bool,
    /// Force sequential execution.
    pub seq: bool,
    /// Assert iterations are independent.
    pub independent: bool,
    /// `collapse(n)` — fuse the n perfectly nested loops.
    pub collapse: Option<u32>,
    /// `private(...)` variables (per-iteration copies).
    pub private: Vec<String>,
    /// `firstprivate(...)` variables (per-iteration copies initialized from
    /// the host value).
    pub firstprivate: Vec<String>,
    /// `reduction(op: ...)` clauses.
    pub reductions: Vec<Reduction>,
}

impl fmt::Display for LoopSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if self.gang {
            parts.push("gang".into());
        }
        if self.worker {
            parts.push("worker".into());
        }
        if self.vector {
            parts.push("vector".into());
        }
        if self.seq {
            parts.push("seq".into());
        }
        if self.independent {
            parts.push("independent".into());
        }
        if let Some(n) = self.collapse {
            parts.push(format!("collapse({n})"));
        }
        if !self.private.is_empty() {
            parts.push(format!("private({})", self.private.join(", ")));
        }
        if !self.firstprivate.is_empty() {
            parts.push(format!("firstprivate({})", self.firstprivate.join(", ")));
        }
        for r in &self.reductions {
            parts.push(r.to_string());
        }
        write!(f, "{}", parts.join(" "))
    }
}

/// A compute construct: `kernels` or `parallel`, optionally combined with
/// `loop`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComputeSpec {
    /// True for `parallel`, false for `kernels`.
    pub is_parallel: bool,
    /// True when written as the combined form `kernels loop` /
    /// `parallel loop`.
    pub combined_loop: bool,
    /// Data clauses on the construct.
    pub data: Vec<DataClause>,
    /// `async(n)` queue id, if asynchronous.
    pub async_queue: Option<i64>,
    /// `if(cond)` raw condition text.
    pub if_cond: Option<String>,
    /// `num_gangs(n)`.
    pub num_gangs: Option<i64>,
    /// `num_workers(n)`.
    pub num_workers: Option<i64>,
    /// `vector_length(n)`.
    pub vector_length: Option<i64>,
    /// Loop clauses of the combined form.
    pub loop_spec: LoopSpec,
}

/// A structured `data` construct.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataSpec {
    /// The data clauses.
    pub clauses: Vec<DataClause>,
    /// `if(cond)` raw condition text.
    pub if_cond: Option<String>,
}

/// An executable `update` directive.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UpdateSpec {
    /// `host(...)` — device→host.
    pub host: Vec<String>,
    /// `device(...)` — host→device.
    pub device: Vec<String>,
    /// `async(n)` queue.
    pub async_queue: Option<i64>,
    /// `if(cond)` raw condition text.
    pub if_cond: Option<String>,
}

/// Any parsed `#pragma acc ...` directive.
#[derive(Debug, Clone, PartialEq)]
pub enum Directive {
    /// `kernels ...` or `parallel ...` (possibly combined with `loop`).
    Compute(ComputeSpec),
    /// Structured `data` region.
    Data(DataSpec),
    /// Orphaned `loop` directive inside a compute region.
    Loop(LoopSpec),
    /// `host_data use_device(...)`.
    HostData {
        /// Variables whose device address is exposed.
        use_device: Vec<String>,
    },
    /// Executable `update` directive.
    Update(UpdateSpec),
    /// `wait` or `wait(n)`.
    Wait(Option<i64>),
    /// `declare` with data clauses.
    Declare(Vec<DataClause>),
    /// `cache(...)` hint.
    Cache(Vec<String>),
}

impl Directive {
    /// The compute spec, if this is a compute construct.
    pub fn as_compute(&self) -> Option<&ComputeSpec> {
        match self {
            Directive::Compute(c) => Some(c),
            _ => None,
        }
    }

    /// The data spec, if this is a data construct.
    pub fn as_data(&self) -> Option<&DataSpec> {
        match self {
            Directive::Data(d) => Some(d),
            _ => None,
        }
    }
}

impl fmt::Display for Directive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Directive::Compute(c) => {
                write!(
                    f,
                    "acc {}",
                    if c.is_parallel { "parallel" } else { "kernels" }
                )?;
                if c.combined_loop {
                    write!(f, " loop")?;
                }
                if let Some(q) = c.async_queue {
                    write!(f, " async({q})")?;
                }
                if let Some(cond) = &c.if_cond {
                    write!(f, " if({cond})")?;
                }
                if let Some(n) = c.num_gangs {
                    write!(f, " num_gangs({n})")?;
                }
                if let Some(n) = c.num_workers {
                    write!(f, " num_workers({n})")?;
                }
                if let Some(n) = c.vector_length {
                    write!(f, " vector_length({n})")?;
                }
                let ls = c.loop_spec.to_string();
                if !ls.is_empty() {
                    write!(f, " {ls}")?;
                }
                for d in &c.data {
                    write!(f, " {d}")?;
                }
                Ok(())
            }
            Directive::Data(d) => {
                write!(f, "acc data")?;
                if let Some(cond) = &d.if_cond {
                    write!(f, " if({cond})")?;
                }
                for c in &d.clauses {
                    write!(f, " {c}")?;
                }
                Ok(())
            }
            Directive::Loop(ls) => {
                write!(f, "acc loop")?;
                let s = ls.to_string();
                if !s.is_empty() {
                    write!(f, " {s}")?;
                }
                Ok(())
            }
            Directive::HostData { use_device } => {
                write!(f, "acc host_data use_device({})", use_device.join(", "))
            }
            Directive::Update(u) => {
                write!(f, "acc update")?;
                if !u.host.is_empty() {
                    write!(f, " host({})", u.host.join(", "))?;
                }
                if !u.device.is_empty() {
                    write!(f, " device({})", u.device.join(", "))?;
                }
                if let Some(q) = u.async_queue {
                    write!(f, " async({q})")?;
                }
                if let Some(cond) = &u.if_cond {
                    write!(f, " if({cond})")?;
                }
                Ok(())
            }
            Directive::Wait(None) => write!(f, "acc wait"),
            Directive::Wait(Some(q)) => write!(f, "acc wait({q})"),
            Directive::Declare(cs) => {
                write!(f, "acc declare")?;
                for c in cs {
                    write!(f, " {c}")?;
                }
                Ok(())
            }
            Directive::Cache(vars) => write!(f, "acc cache({})", vars.join(", ")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::{DataClauseKind, ReductionOp};

    #[test]
    fn display_combined_compute() {
        let c = ComputeSpec {
            is_parallel: false,
            combined_loop: true,
            data: vec![
                DataClause::of(DataClauseKind::Copy, &["q"]),
                DataClause::of(DataClauseKind::CopyIn, &["w"]),
            ],
            async_queue: Some(1),
            loop_spec: LoopSpec {
                gang: true,
                worker: true,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(
            Directive::Compute(c).to_string(),
            "acc kernels loop async(1) gang worker copy(q) copyin(w)"
        );
    }

    #[test]
    fn display_loop_with_reduction() {
        let ls = LoopSpec {
            gang: true,
            private: vec!["tmp".into()],
            reductions: vec![Reduction {
                op: ReductionOp::Add,
                vars: vec!["sum".into()],
            }],
            ..Default::default()
        };
        assert_eq!(
            Directive::Loop(ls).to_string(),
            "acc loop gang private(tmp) reduction(+:sum)"
        );
    }

    #[test]
    fn display_update_and_wait() {
        let u = UpdateSpec {
            host: vec!["b".into()],
            ..Default::default()
        };
        assert_eq!(Directive::Update(u).to_string(), "acc update host(b)");
        assert_eq!(Directive::Wait(Some(2)).to_string(), "acc wait(2)");
        assert_eq!(Directive::Wait(None).to_string(), "acc wait");
    }
}
