//! Batch-mode sweep driver over the 12-benchmark matrix.
//!
//! Every figure/table of the evaluation walks the same 12-benchmark
//! matrix, and each cell is an independent deterministic simulation. A
//! [`Sweep`] couples a problem [`Scale`] with one shared pipeline
//! [`Session`], so repeated compilations of the same variant hit the
//! session's artifact cache whichever experiment asks. Cells run one
//! after another on the calling thread, in (benchmark, variant) order.

use openarc_core::exec::ExecOptions;
use openarc_core::pipeline::Session;
use openarc_core::translate::TranslateOptions;
use openarc_suite::{all, run_variant_cached, Benchmark, Scale, Variant};
use openarc_trace::{Journal, TraceEvent};

/// One batch sweep: scale × shared artifact cache.
pub struct Sweep {
    /// Problem scale every cell runs at.
    pub scale: Scale,
    /// Shared stage cache every cell compiles and runs through.
    pub session: Session,
}

/// One cell of the full benchmark × variant matrix.
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// Benchmark name.
    pub bench: String,
    /// Variant name.
    pub variant: &'static str,
    /// Simulated time, µs.
    pub sim_us: f64,
    /// Bytes moved between host and device.
    pub transferred_bytes: u64,
    /// Kernel launches.
    pub kernel_launches: u64,
    /// Journal events the run emitted.
    pub events: usize,
}

impl Sweep {
    /// Sweep with a fresh in-memory session.
    pub fn new(scale: Scale) -> Sweep {
        Sweep {
            scale,
            session: Session::builder().build(),
        }
    }

    /// Run `f` over all twelve benchmarks; results return in benchmark
    /// order. The first error wins.
    pub fn map_benchmarks<T, F>(&self, f: F) -> Result<Vec<T>, String>
    where
        F: FnMut(&Benchmark) -> Result<T, String>,
    {
        all(self.scale).iter().map(f).collect()
    }

    /// Run the full 12-benchmark × 3-variant matrix, journaling every run.
    /// Returns the 36 rows plus the concatenated event stream, both in
    /// (benchmark, variant) order.
    pub fn matrix(&self) -> Result<(Vec<MatrixRow>, Vec<TraceEvent>), String> {
        let mut rows = Vec::new();
        let mut events = Vec::new();
        for b in &all(self.scale) {
            for v in Variant::ALL {
                let journal = Journal::enabled();
                let eopts = ExecOptions {
                    race_detect: false,
                    journal: journal.clone(),
                    ..Default::default()
                };
                let (_, r) =
                    run_variant_cached(&self.session, b, v, &TranslateOptions::default(), &eopts)?;
                let cell = journal.drain();
                rows.push(MatrixRow {
                    bench: b.name.to_string(),
                    variant: v.name(),
                    sim_us: r.sim_time_us(),
                    transferred_bytes: r.machine.stats.total_bytes(),
                    kernel_launches: r.kernel_launches,
                    events: cell.len(),
                });
                events.extend(cell);
            }
        }
        Ok((rows, events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_36_cells_and_journals() {
        let sw = Sweep::new(Scale::default());
        let (rows, events) = sw.matrix().unwrap();
        assert_eq!(rows.len(), 36);
        assert!(!events.is_empty());
        assert_eq!(rows.iter().map(|r| r.events).sum::<usize>(), events.len());
        // Task order: benchmarks alphabetical (suite order), variants in
        // Variant::ALL order within each.
        assert_eq!(rows[0].bench, "BACKPROP");
        assert_eq!(rows[0].variant, "naive");
        assert_eq!(rows[2].variant, "optimized");
    }
}
