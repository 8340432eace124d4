//! Per-layer metrics of a traced run.
//!
//! Three sources, named in each metric's note:
//! - *span*: host time the benchmark measured around a public call
//!   (workflow stages, `ExecBackend::dispatch`, `WorkflowRunner::run`);
//! - *counter*: the program's own `TraceSink` counters, read after the
//!   traced unit;
//! - *probe*: per-call times from the probe pass, and *computed* busy
//!   estimates (count × per-call time).
//!
//! Every metric is printed for every workload. A layer a workload
//! bypasses reads 0: its counters stay 0, and its live spans (dispatch,
//! handle, queue wait) have no samples.

use std::collections::BTreeMap;

use flit_serve::protocol::StatusReport;
use flit_trace::names::counter as c;

use crate::probe::Probe;
use crate::report::{ratio, Metric};
use crate::stats::{median, percentile, tail};
use crate::workflow::Spans;

/// Everything a traced run hands to the per-layer report.
#[derive(Debug, Default)]
pub struct Traced {
    /// Workflow-stage spans.
    pub spans: Spans,
    /// Program counters after the traced unit.
    pub counters: BTreeMap<String, u64>,
    /// Primary timing of the untraced unit (s).
    pub untraced_s: f64,
    /// Primary timing of the traced unit (s).
    pub traced_s: f64,
    /// Probe-pass results.
    pub probe: Probe,
    /// Host time of the journaled pass (s).
    pub checkpoint_s: f64,
    /// Final size of the workload's journal files (bytes).
    pub journal_bytes: u64,
    /// `ExecBackend::dispatch` times (ms).
    pub dispatch_ms: Vec<f64>,
    /// `WorkflowRunner::run` times (ms).
    pub handle_ms: Vec<f64>,
    /// Submit latency minus handle time, per submission (ms).
    pub queue_wait_ms: Vec<f64>,
    /// The daemon's status after the traced round.
    pub status: Option<StatusReport>,
}

impl Traced {
    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

fn timing(
    name_p50: &'static str,
    name_tail: &'static str,
    samples: &[f64],
    src: &str,
) -> [Metric; 2] {
    let (tail, label) = tail(samples);
    [
        Metric::new(
            name_p50,
            "ms",
            median(samples),
            format!("{src}, p50 of n={}", samples.len()),
        ),
        Metric::new(
            name_tail,
            "ms",
            tail,
            format!("{src}, {label} of n={}", samples.len()),
        ),
    ]
}

/// The per-layer metrics, in report order.
pub fn metrics(t: &Traced) -> Vec<Metric> {
    let p = &t.probe;
    let objects_compiled = t.counter(c::BUILD_OBJECTS_COMPILED);
    let object_hits = t.counter(c::BUILD_OBJECT_CACHE_HITS);
    let links = t.counter(c::BUILD_LINKS);
    let link_hits = t.counter(c::BUILD_LINK_MEMO_HITS);
    let executed = t.counter(c::EXEC_QUERIES_EXECUTED);
    let shared = t.counter(c::EXEC_QUERIES_SHARED_HITS);
    let executions = t.counter(c::BISECT_REFERENCE_RUNS)
        + t.counter(c::BISECT_FILE_RUNS)
        + t.counter(c::BISECT_PROBE_RUNS)
        + t.counter(c::BISECT_SYMBOL_RUNS);
    let engine_runs = t.spans.rows + executed;
    let (fleet_dedup, rejected) = t.status.as_ref().map_or((0.0, 0), |s| {
        let f = s.fleet;
        (
            ratio(f.shared_hits as f64, (f.executed + f.shared_hits) as f64),
            s.rejected,
        )
    });
    let mut out = vec![
        Metric::new(
            "core.runner.sweep_s",
            "s",
            t.spans.sweep_s,
            "span run_matrix_in",
        ),
        Metric::count("core.runner.rows", t.spans.rows, "span run_matrix_in"),
        Metric::new(
            "core.workflow.determinism_s",
            "s",
            t.spans.determinism_s,
            "span determinism_check",
        ),
        Metric::new(
            "core.workflow.bisect_s",
            "s",
            t.spans.bisect_s,
            "span bisect_variable_rows",
        ),
        Metric::count(
            "core.workflow.searches",
            t.spans.searches,
            "span bisect_variable_rows",
        ),
        Metric::count(
            "toolchain.cache.object_requests",
            objects_compiled + object_hits,
            "counter build.*",
        ),
        Metric::new(
            "toolchain.cache.object_hit_ratio",
            "ratio",
            ratio(object_hits as f64, (objects_compiled + object_hits) as f64),
            "counter build.*",
        ),
        Metric::count(
            "toolchain.cache.link_requests",
            links + link_hits,
            "counter build.*",
        ),
        Metric::new(
            "toolchain.cache.link_hit_ratio",
            "ratio",
            ratio(link_hits as f64, (links + link_hits) as f64),
            "counter build.*",
        ),
        Metric::new(
            "toolchain.cache.teardown_s",
            "s",
            t.spans.teardown_s,
            "span dropping the workflow's BuildCtx",
        ),
        Metric::new(
            "toolchain.cache.object_hit_us",
            "us",
            p.object_hit_us,
            "probe Build::object_in, warm",
        ),
        Metric::new(
            "toolchain.compile_us",
            "us",
            p.compile_us,
            "probe Build::object_in, uncached",
        ),
        Metric::new(
            "toolchain.link_us",
            "us",
            p.link_us,
            "probe linker::link, whole program",
        ),
        Metric::new(
            "toolchain.compile_busy_s",
            "s",
            objects_compiled as f64 * p.compile_us * 1e-6,
            "computed objects_compiled x compile_us",
        ),
        Metric::new(
            "toolchain.link_busy_s",
            "s",
            links as f64 * p.link_us * 1e-6,
            "computed links x link_us",
        ),
        Metric::new(
            "program.build.file_mixed_us",
            "us",
            p.file_mixed_us,
            "probe file_mixed_executable_in",
        ),
        Metric::new(
            "program.build.symbol_mixed_us",
            "us",
            p.symbol_mixed_us,
            "probe symbol_mixed_executable_in",
        ),
        Metric::new(
            "program.engine.run_us",
            "us",
            p.engine_run_us,
            "probe Engine::run",
        ),
        Metric::count(
            "program.engine.runs",
            engine_runs,
            "computed rows + exec.queries.executed",
        ),
        Metric::new(
            "program.engine.busy_s",
            "s",
            engine_runs as f64 * p.engine_run_us * 1e-6,
            "computed runs x run_us",
        ),
        Metric::count(
            "bisect.hierarchy.executions",
            executions,
            "counter bisect.executions.*",
        ),
    ];
    out.extend(timing(
        "bisect.hierarchy.search_ms_p50",
        "bisect.hierarchy.search_ms_tail",
        &p.search_ms,
        "probe bisect_hierarchical",
    ));
    out.extend([
        Metric::count(
            "bisect.ledger.executed",
            executed,
            "counter exec.queries.executed",
        ),
        Metric::count(
            "bisect.ledger.memoized",
            t.counter(c::EXEC_QUERIES_MEMOIZED),
            "counter exec.queries.memoized",
        ),
        Metric::count(
            "bisect.ledger.shared_hits",
            shared,
            "counter exec.queries.shared_hits",
        ),
        Metric::new(
            "bisect.ledger.dedup_ratio",
            "ratio",
            ratio(shared as f64, (executed + shared) as f64),
            "computed shared_hits / (executed + shared_hits)",
        ),
        Metric::new(
            "bisect.ledger.hit_us",
            "us",
            p.ledger_hit_us,
            "probe LedgerHandle::eval_score, present key",
        ),
        Metric::count(
            "bisect.journal.appended",
            t.counter(c::JOURNAL_APPENDED),
            "counter journal.records.appended",
        ),
        Metric::count(
            "bisect.journal.replayed",
            t.counter(c::JOURNAL_REPLAYED),
            "counter journal.records.replayed",
        ),
        Metric::new(
            "bisect.journal.bytes",
            "bytes",
            t.journal_bytes as f64,
            "final journal size",
        ),
        Metric::new(
            "bisect.journal.checkpoint_pass_s",
            "s",
            t.checkpoint_s,
            "span whole journaled workflow pass",
        ),
        Metric::new(
            "bisect.journal.append_us_head",
            "us",
            p.append_head_us,
            "probe JournalWriter::append, first tenth",
        ),
        Metric::new(
            "bisect.journal.append_us_tail",
            "us",
            p.append_tail_us,
            "probe JournalWriter::append, last tenth",
        ),
        Metric::new(
            "bisect.journal.load_ms",
            "ms",
            p.load_ms,
            "probe load_journal",
        ),
        Metric::new(
            "bisect.wire.task_bytes",
            "bytes",
            p.task_bytes,
            "computed WireTask::to_wire length",
        ),
        Metric::new(
            "bisect.wire.encode_us",
            "us",
            p.encode_us,
            "probe WireTask::to_wire",
        ),
        Metric::new(
            "bisect.wire.evaluate_us",
            "us",
            p.evaluate_us,
            "probe wire::evaluate in-process",
        ),
    ]);
    out.extend(timing(
        "exec.process.dispatch_ms_p50",
        "exec.process.dispatch_ms_tail",
        &t.dispatch_ms,
        "span ExecBackend::dispatch",
    ));
    out.extend([
        Metric::count(
            "exec.backend.dispatched",
            t.counter(c::EXEC_BACKEND_DISPATCHED),
            "counter",
        ),
        Metric::count(
            "exec.backend.worker_spawns",
            t.counter(c::EXEC_BACKEND_WORKER_SPAWNS),
            "counter",
        ),
        Metric::count(
            "exec.backend.requeued",
            t.counter(c::EXEC_BACKEND_REQUEUED),
            "counter",
        ),
    ]);
    out.extend(timing(
        "serve.handle_ms_p50",
        "serve.handle_ms_tail",
        &t.handle_ms,
        "span WorkflowRunner::run",
    ));
    out.extend([
        Metric::new(
            "serve.queue_wait_ms_p90",
            "ms",
            percentile(&t.queue_wait_ms, 90.0),
            format!(
                "computed submit latency - handle, p90 of n={}",
                t.queue_wait_ms.len()
            ),
        ),
        Metric::new(
            "serve.frame_us",
            "us",
            p.frame_us,
            "probe write_frame + read_frame, report-sized",
        ),
        Metric::count("serve.rejected", rejected, "StatusReport"),
        Metric::new(
            "serve.fleet.dedup_ratio",
            "ratio",
            fleet_dedup,
            "StatusReport fleet",
        ),
        Metric::new(
            "trace.overhead_ratio",
            "ratio",
            ratio(t.traced_s, t.untraced_s),
            format!(
                "traced {:.3} s / untraced {:.3} s primary timing",
                t.traced_s, t.untraced_s
            ),
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_name;

    #[test]
    fn every_per_layer_name_is_valid_and_unique() {
        let names: Vec<&str> = metrics(&Traced::default()).iter().map(|m| m.name).collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }
}
