//! The four workloads. Each returns an [`Outcome`]: the end-to-end
//! metrics for an untraced run, the per-layer metrics for a traced run,
//! and the correctness gate's verdict either way.

pub mod checkpoint;
pub mod fleet;
pub mod mfem;
pub mod process;

use crate::harness::Args;
use crate::report::Outcome;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "workflow-mfem",
    "checkpoint-resume",
    "serve-fleet",
    "workflow-process",
];

/// Run the named workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "workflow-mfem" => mfem::run(args),
        "checkpoint-resume" => checkpoint::run(args),
        "serve-fleet" => fleet::run(args),
        "workflow-process" => process::run(args),
        other => Err(format!(
            "unknown workload `{other}` (available: {})",
            NAMES.join(", ")
        )),
    }
}

/// Count one workflow run as attempted; a `WorkflowError` counts as a
/// failed operation and a mismatch (its report is missing).
fn attempt(
    out: &mut Outcome,
    what: &str,
    result: Result<crate::workflow::Pass, flit_core::workflow::WorkflowError>,
) -> Option<crate::workflow::Pass> {
    out.attempt(result.is_err());
    result
        .map_err(|e| out.mismatches.push(format!("{what} failed: {e}")))
        .ok()
}
