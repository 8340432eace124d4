//! Workflow passes: the untraced form times `run_workflow` as a user
//! calls it; the traced form calls the same public stages one by one so
//! each gets a host-time span of its own.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use flit_bisect::hierarchy::HierarchicalConfig;
use flit_bisect::ledger::QueryLedger;
use flit_core::analysis::{category_bars, fastest_is_reproducible_count};
use flit_core::runner::{run_matrix_in, RunnerConfig};
use flit_core::test::{DriverTest, FlitTest};
use flit_core::workflow::{
    bisect_variable_rows, determinism_check, render_workflow_report, run_workflow, WorkflowConfig,
    WorkflowError, WorkflowReport,
};
use flit_exec::ExecBackend;
use flit_program::model::SimProgram;
use flit_toolchain::cache::BuildCtx;
use flit_toolchain::compilation::Compilation;
use flit_trace::sink::TraceSink;

use crate::stats::secs;

/// Worker threads for the sweep and the bisection fan-out: the 2-core
/// host the figures in the benchmark doc were measured on.
pub const JOBS: usize = 2;

/// What a workflow runs: one application and a compilation list.
pub struct Subject {
    /// Application name (the report header).
    pub app: &'static str,
    /// The program under test.
    pub program: SimProgram,
    /// Its FLiT tests.
    pub tests: Vec<DriverTest>,
    /// The compilations to sweep.
    pub comps: Vec<Compilation>,
}

/// A finished workflow: the report, its rendered text and host time.
pub struct Pass {
    /// The structured report.
    pub report: WorkflowReport,
    /// The rendered `flit workflow` text.
    pub body: String,
    /// Host seconds from the call to the rendered text.
    pub seconds: f64,
}

impl Pass {
    /// Sweep rows.
    pub fn rows(&self) -> usize {
        self.report.db.rows.len()
    }

    /// Variable sweep rows.
    pub fn variable_rows(&self) -> usize {
        self.report
            .db
            .rows
            .iter()
            .filter(|r| r.is_variable())
            .count()
    }
}

/// The workflow configuration the workloads share.
pub fn config(
    cap: Option<usize>,
    ledger: Option<Arc<QueryLedger>>,
    backend: Option<Arc<dyn ExecBackend>>,
    trace: TraceSink,
) -> WorkflowConfig {
    let mut bisect = HierarchicalConfig::all();
    if let Some(backend) = backend {
        bisect = bisect.with_backend(backend);
    }
    WorkflowConfig {
        runner: RunnerConfig {
            threads: JOBS,
            ..RunnerConfig::default()
        },
        bisect,
        max_bisections: cap.unwrap_or(usize::MAX),
        jobs: JOBS,
        trace,
        ledger,
        ..WorkflowConfig::default()
    }
}

/// One untraced workflow pass through `run_workflow`.
pub fn run(subject: &Subject, cfg: &WorkflowConfig) -> Result<Pass, WorkflowError> {
    let t = Instant::now();
    let report = run_workflow(&subject.program, &subject.tests, &subject.comps, cfg)?;
    let body = render_workflow_report(subject.app, "", &report);
    Ok(Pass {
        report,
        body,
        seconds: secs(t.elapsed()),
    })
}

/// Host time spent in each workflow stage, summed over traced passes.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    /// Determinism pre-check.
    pub determinism_s: f64,
    /// `run_matrix_in`.
    pub sweep_s: f64,
    /// `bisect_variable_rows`.
    pub bisect_s: f64,
    /// Dropping the workflow's build context.
    pub teardown_s: f64,
    /// Sweep rows produced.
    pub rows: u64,
    /// Searches run.
    pub searches: u64,
}

/// One traced workflow pass: the stages of `run_workflow`, called in
/// the same order with the same arguments, each inside a span. The
/// rendered report is the same as the untraced pass's, which the
/// workloads check.
pub fn run_traced(
    subject: &Subject,
    cfg: &WorkflowConfig,
    spans: &mut Spans,
) -> Result<Pass, WorkflowError> {
    let start = Instant::now();
    let (program, tests) = (&subject.program, &subject.tests);
    let mut runner_cfg = cfg.runner.clone();
    if cfg.trace.is_enabled() && !runner_cfg.trace.is_enabled() {
        runner_cfg.trace = cfg.trace.clone();
    }
    let refs: Vec<&DriverTest> = tests.iter().collect();
    let t = Instant::now();
    let deterministic = determinism_check(program, &refs, &runner_cfg.baseline, 2);
    spans.determinism_s += secs(t.elapsed());

    let ctx = match runner_cfg.trace.registry() {
        Some(reg) if runner_cfg.cache => BuildCtx::cached_in(&reg),
        Some(reg) => BuildCtx::counting_in(&reg),
        None if runner_cfg.cache => BuildCtx::cached(),
        None => BuildCtx::counting(),
    };
    let dyn_tests: Vec<&dyn FlitTest> = tests.iter().map(|t| t as &dyn FlitTest).collect();
    let t = Instant::now();
    let mut db = run_matrix_in(program, &dyn_tests, &subject.comps, &runner_cfg, &ctx)?;
    spans.sweep_s += secs(t.elapsed());
    spans.rows += db.rows.len() as u64;

    let bars = db.tests().iter().map(|t| category_bars(&db, t)).collect();
    let reproducible_fastest = fastest_is_reproducible_count(&db);
    let t = Instant::now();
    let bisections = bisect_variable_rows(program, tests, &db, cfg, &ctx)?;
    spans.bisect_s += secs(t.elapsed());
    spans.searches += bisections.len() as u64;
    db.build_stats = ctx.stats();
    // `run_workflow` frees its build context before returning; on the
    // full MFEM workflow that takes seconds, so it belongs in the pass.
    let t = Instant::now();
    drop(ctx);
    spans.teardown_s += secs(t.elapsed());

    let report = WorkflowReport {
        deterministic,
        db,
        bars,
        reproducible_fastest,
        bisections,
    };
    let body = render_workflow_report(subject.app, "", &report);
    Ok(Pass {
        report,
        body,
        seconds: secs(start.elapsed()),
    })
}

/// The program's counters recorded on `trace` so far.
pub fn counters(trace: &TraceSink) -> BTreeMap<String, u64> {
    trace.registry().map(|r| r.snapshot()).unwrap_or_default()
}

/// FNV-1a 64 digest of a rendered report, as 16 hex digits. The
/// benchmark keeps its own hash so a digest recorded in `expected.json`
/// does not move when the program's hashers change.
pub fn digest(body: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in body.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a_64() {
        assert_eq!(digest(""), "cbf29ce484222325");
        assert_eq!(digest("a"), "af63dc4c8601ec8c");
    }
}
