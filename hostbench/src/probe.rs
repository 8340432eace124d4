//! The probe pass of a traced run.
//!
//! Object cache, link and engine sit behind `LocalPlane` inside a
//! search and cannot be timed from outside. The probe pass calls each
//! layer's public function directly, on inputs taken from the workload
//! (its program, its variable rows, its journal, its report), and
//! records per-call host times. Counts times these per-call times are
//! the *computed* busy-time estimates in the per-layer report.

use std::collections::{BTreeSet, HashSet};
use std::hint::black_box;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::time::Instant;

use flit_bisect::hierarchy::{bisect_hierarchical, HierarchicalConfig};
use flit_bisect::journal::{load_journal, JournalWriter};
use flit_bisect::ledger::{LedgerHandle, QueryLedger};
use flit_bisect::wire::{evaluate, ExeRecipe, WireRequest, WireTask};
use flit_core::metrics::l2_compare;
use flit_core::test::FlitTest;
use flit_program::build::{file_mixed_executable_in, symbol_mixed_executable_in, Build};
use flit_program::engine::Engine;
use flit_serve::protocol::{read_frame, write_frame, Response};
use flit_toolchain::cache::BuildCtx;
use flit_toolchain::compilation::Compilation;
use flit_toolchain::compiler::CompilerKind;
use flit_toolchain::linker::link;
use flit_trace::sink::TraceSink;

use crate::draw::Rng;
use crate::stats::{median, per_call_us, secs};
use crate::workflow::Subject;

/// Searches timed for `bisect.hierarchy.search_ms` (100 gives a p90
/// with ten samples beyond it).
const SEARCHES: usize = 100;
/// Searches journaled to obtain records on workloads without a journal.
const JOURNALED_SEARCHES: usize = 5;
/// Calls per micro-probe.
const CALLS: usize = 200;
/// Calls per link-heavy probe.
const LINK_CALLS: usize = 60;
/// Distinct search tasks encoded for the wire probes.
const WIRE_TASKS: usize = 10;
/// Repetitions of `load_journal`.
const LOADS: usize = 5;

/// The link driver of the workflow's searches (`HierarchicalConfig::all`).
const LINK_DRIVER: CompilerKind = CompilerKind::Gcc;

/// What the probe pass measured.
#[derive(Debug, Default, Clone)]
pub struct Probe {
    /// `Build::object_in`, uncached context (µs per call).
    pub compile_us: f64,
    /// `Build::object_in`, warm context (µs per call).
    pub object_hit_us: f64,
    /// `linker::link` of a whole-program object set (µs per call).
    pub link_us: f64,
    /// `file_mixed_executable_in`, warm context, fresh item sets (µs).
    pub file_mixed_us: f64,
    /// `symbol_mixed_executable_in`, warm context, fresh item sets (µs).
    pub symbol_mixed_us: f64,
    /// `Engine::run` on the workload's drivers and inputs (µs).
    pub engine_run_us: f64,
    /// `bisect_hierarchical` per sampled row (ms).
    pub search_ms: Vec<f64>,
    /// `LedgerHandle::eval_score` on a present key (µs).
    pub ledger_hit_us: f64,
    /// `JournalWriter::append`, median over the first tenth (µs).
    pub append_head_us: f64,
    /// `JournalWriter::append`, median over the last tenth (µs).
    pub append_tail_us: f64,
    /// `load_journal` of the workload's journal (ms).
    pub load_ms: f64,
    /// Serialized `WireTask` size (bytes, median over sampled rows).
    pub task_bytes: f64,
    /// `WireTask::to_wire` (µs).
    pub encode_us: f64,
    /// `wire::evaluate` in-process (µs).
    pub evaluate_us: f64,
    /// `write_frame` + `read_frame` of a report-sized `Response` (µs).
    pub frame_us: f64,
}

/// One variable sweep row: index into the subject's tests, and the
/// variable compilation.
pub type Row = (usize, Compilation);

/// The variable rows of a sweep, as probe inputs.
pub fn variable_rows(subject: &Subject, db: &flit_core::db::ResultsDb) -> Vec<Row> {
    db.rows
        .iter()
        .filter(|r| r.is_variable())
        .filter_map(|r| {
            let t = subject.tests.iter().position(|t| t.name() == r.test)?;
            Some((t, r.compilation.clone()))
        })
        .collect()
}

/// Run the probe pass. `journal` is the workload's own journal;
/// workloads that keep none get one recorded from a few of the sampled
/// searches under `scratch`.
pub fn run(
    subject: &Subject,
    rows: &[Row],
    journal: Option<PathBuf>,
    report_body: &str,
    seed: u64,
    scratch: &Path,
) -> Probe {
    assert!(!rows.is_empty(), "the probe pass needs variable rows");
    let program = &subject.program;
    let fp = program.fingerprint();
    let mut rng = Rng::new(seed, "probe");
    let sample: Vec<&Row> = rng
        .sample(rows.len(), SEARCHES)
        .into_iter()
        .map(|i| &rows[i])
        .collect();
    let baseline = Build::new(program, Compilation::baseline());
    let variable = |i: usize| Build::tagged(program, sample[i % sample.len()].1.clone(), 1);
    let files = program.files.len();
    let mut p = Probe::default();

    let uncached = BuildCtx::uncached();
    p.compile_us = per_call_us(CALLS, |i| {
        black_box(variable(i).object_in(&uncached, i % files, false));
    });

    // Warm context: every object the later probes touch is compiled
    // once here, so they time cache hits and links only.
    let warm = BuildCtx::cached();
    baseline.all_objects_in(&warm);
    for i in 0..sample.len() {
        variable(i).all_objects_in(&warm);
    }
    p.object_hit_us = per_call_us(CALLS, |i| {
        black_box(variable(i).object_in(&warm, i % files, false));
    });

    let mut link_times = Vec::with_capacity(LINK_CALLS);
    for i in 0..LINK_CALLS {
        let build = variable(i);
        let objects = build.all_objects_in(&warm);
        let t = Instant::now();
        black_box(link(objects, build.compilation.compiler).ok());
        link_times.push(secs(t.elapsed()) * 1e6);
    }
    p.link_us = median(&link_times);

    let mut seen = HashSet::new();
    let mut fresh_files = |rng: &mut Rng, i: usize| loop {
        let k = 1 + rng.below(files);
        let set: BTreeSet<usize> = rng.sample(files, k).into_iter().collect();
        if seen.insert((i % sample.len(), set.clone())) {
            return set;
        }
    };
    let sets: Vec<BTreeSet<usize>> = (0..LINK_CALLS).map(|i| fresh_files(&mut rng, i)).collect();
    p.file_mixed_us = per_call_us(LINK_CALLS, |i| {
        black_box(
            file_mixed_executable_in(&baseline, &variable(i), &sets[i], LINK_DRIVER, &warm).ok(),
        );
    });

    let target = (0..files)
        .max_by_key(|&f| program.files[f].functions.len())
        .expect("programs have files");
    let symbols: Vec<String> = program.files[target]
        .functions
        .iter()
        .map(|f| f.name.clone())
        .collect();
    for i in 0..sample.len() {
        let v = variable(i);
        v.object_in(&warm, target, true);
        baseline.object_in(&warm, target, true);
    }
    let mut seen = HashSet::new();
    let symbol_sets: Vec<BTreeSet<String>> = (0..LINK_CALLS)
        .map(|i| loop {
            let k = 1 + rng.below(symbols.len());
            let set: BTreeSet<String> = rng
                .sample(symbols.len(), k)
                .into_iter()
                .map(|s| symbols[s].clone())
                .collect();
            if seen.insert((i % sample.len(), set.clone())) {
                break set;
            }
        })
        .collect();
    p.symbol_mixed_us = per_call_us(LINK_CALLS, |i| {
        black_box(
            symbol_mixed_executable_in(
                &baseline,
                &variable(i),
                target,
                &symbol_sets[i],
                LINK_DRIVER,
                &warm,
            )
            .ok(),
        );
    });

    let input_of = |i: usize| {
        let test = &subject.tests[sample[i % sample.len()].0];
        let input = test.default_input();
        input[..test.inputs_per_run().min(input.len())].to_vec()
    };
    let exes: Vec<_> = (0..sample.len())
        .map(|i| {
            Build::new(program, sample[i].1.clone())
                .executable_in(&warm)
                .expect("whole-program links succeed")
        })
        .collect();
    let inputs: Vec<Vec<f64>> = (0..sample.len()).map(input_of).collect();
    p.engine_run_us = per_call_us(CALLS, |i| {
        let k = i % sample.len();
        let driver = subject.tests[sample[k].0].driver();
        black_box(Engine::new(program, &exes[k]).run(driver, &inputs[k]).ok());
    });

    let search = |i: usize, ledger: &std::sync::Arc<QueryLedger>| {
        let (test, comp) = sample[i];
        let test = &subject.tests[*test];
        let cfg = HierarchicalConfig::all()
            .with_ctx(warm.clone())
            .with_ledger(LedgerHandle::new(
                ledger.clone(),
                i as u64 + 1,
                format!("{}/{}", test.name(), comp.label()),
            ));
        black_box(bisect_hierarchical(
            &baseline,
            &variable(i),
            test.driver(),
            &inputs[i],
            &l2_compare,
            &cfg,
        ));
    };
    p.search_ms = (0..sample.len())
        .map(|i| {
            let ledger = QueryLedger::new(fp, &TraceSink::disabled());
            let t = Instant::now();
            search(i, &ledger);
            secs(t.elapsed()) * 1e3
        })
        .collect();

    let journal = journal.unwrap_or_else(|| {
        let path = scratch.join("probe-searches.jsonl");
        let ledger = QueryLedger::new(fp, &TraceSink::disabled());
        ledger.attach_journal(JournalWriter::create(&path, fp).expect("probe journal is writable"));
        for i in 0..JOURNALED_SEARCHES.min(sample.len()) {
            search(i, &ledger);
        }
        path
    });
    journal_probes(&mut p, &journal, fp, scratch);

    // Encode every sampled task once; evaluate with each task already
    // registered, as a worker does for every query after the first.
    let mut wire_times = Vec::new();
    let mut sizes = Vec::new();
    let tasks: Vec<(String, String)> = (0..WIRE_TASKS.min(sample.len()))
        .map(|i| {
            let driver = subject.tests[sample[i].0].driver();
            let task = WireTask::capture(&baseline, &variable(i), driver, &inputs[i], LINK_DRIVER);
            let t = Instant::now();
            let body = black_box(task.to_wire());
            wire_times.push(secs(t.elapsed()) * 1e6);
            sizes.push(body.len() as f64);
            let digest = WireTask::digest_of(&body);
            black_box(evaluate(&digest, &body, "{}"));
            (digest, body)
        })
        .collect();
    let specs: Vec<String> = sets
        .iter()
        .map(|set| {
            serde_json::to_string(&WireRequest::Run {
                recipe: ExeRecipe::FileMixed {
                    items: set.iter().copied().collect(),
                },
            })
            .expect("wire request serializes")
        })
        .collect();
    p.evaluate_us = per_call_us(LINK_CALLS, |i| {
        let (digest, body) = &tasks[i % tasks.len()];
        black_box(evaluate(digest, body, &specs[i]));
    });
    p.encode_us = median(&wire_times);
    p.task_bytes = median(&sizes);

    let response = Response::Report {
        tenant: "probe".to_string(),
        body: report_body.to_string(),
        simulated_seconds: 1.0,
    };
    p.frame_us = per_call_us(CALLS, |_| {
        let mut buf = Vec::new();
        write_frame(&mut buf, &response).expect("in-memory write");
        let back: Option<Response> = read_frame(&mut Cursor::new(&buf)).expect("frame reads back");
        black_box(back);
    });
    p
}

/// Journal probes on the workload's own records: re-append them into a
/// fresh journal, time `load_journal`, and time ledger hits on their
/// keys.
fn journal_probes(p: &mut Probe, journal: &Path, fp: u64, scratch: &Path) {
    let records = load_journal(journal, fp).expect("the workload's journal loads");
    if records.is_empty() {
        return;
    }
    let mut loads = Vec::with_capacity(LOADS);
    for _ in 0..LOADS {
        let t = Instant::now();
        black_box(load_journal(journal, fp).ok());
        loads.push(secs(t.elapsed()) * 1e3);
    }
    p.load_ms = median(&loads);

    let path = scratch.join("probe-reappend.jsonl");
    let mut writer = JournalWriter::create(&path, fp).expect("probe journal is writable");
    let appends: Vec<f64> = records
        .iter()
        .map(|r| {
            let t = Instant::now();
            writer
                .append(&r.pair, &r.key, &r.backend, r.answer.clone())
                .expect("probe append");
            secs(t.elapsed()) * 1e6
        })
        .collect();
    let tenth = (appends.len() / 10).max(1);
    p.append_head_us = median(&appends[..tenth.min(appends.len())]);
    p.append_tail_us = median(&appends[appends.len().saturating_sub(tenth)..]);
    let _ = std::fs::remove_file(&path);

    let ledger = QueryLedger::new(fp, &TraceSink::disabled());
    let handle = LedgerHandle::new(ledger, 1, "probe");
    let keys: Vec<&str> = records.iter().take(CALLS).map(|r| r.key.as_str()).collect();
    for key in &keys {
        handle
            .eval_score(key, || Ok((0.0, 0.0)))
            .expect("ledger insert");
    }
    p.ledger_hit_us = per_call_us(CALLS, |i| {
        black_box(
            handle
                .eval_score(keys[i % keys.len()], || Ok((0.0, 0.0)))
                .ok(),
        );
    });
}
