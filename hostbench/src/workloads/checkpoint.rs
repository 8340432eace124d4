//! `checkpoint-resume`: a seeded draw of MFEM compilations, bisected
//! once with a checkpoint journal attached (`QueryLedger` +
//! `JournalWriter`, as `flit workflow --checkpoint` does), then resumed
//! from that journal again and again (as `flit workflow --resume`
//! does). The resumed passes answer every bisect query from the
//! journal; they are the timed operation. The journaled pass is
//! dominated by appends, each of which rewrites and fsyncs the whole
//! file, so its time follows the disk's fsync latency, which varied
//! two- to three-fold over minutes on the shared host the benchmark was
//! built on. It is reported in the run's table and as the per-layer
//! `bisect.journal.checkpoint_pass_s`, not as a gated metric.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use flit_bisect::journal::JournalWriter;
use flit_bisect::ledger::QueryLedger;
use flit_mfem::{mfem_examples, mfem_program};
use flit_trace::sink::TraceSink;

use super::attempt;
use crate::draw::mfem_compilations;
use crate::harness::{end_to_end, for_seconds, setup_window, timed, Args, StateDir, Timings};
use crate::layers::{self, Traced};
use crate::probe;
use crate::report::{Metric, Outcome};
use crate::stats::{median, secs};
use crate::workflow::{self, config, counters, Pass, Spans, Subject};

/// Compilations drawn: 158 variable rows, all of them bisected.
pub const DRAW: usize = 27;
/// Resumes per side of the traced run's overhead ratio.
const OVERHEAD_SAMPLES: usize = 5;

fn setup(seed: u64, state: &StateDir) -> Result<(Subject, PathBuf), String> {
    let subject = Subject {
        app: "mfem",
        program: mfem_program(),
        tests: mfem_examples(),
        comps: mfem_compilations(seed, "checkpoint-resume", DRAW),
    };
    let dir = state
        .sub()
        .map_err(|e| format!("cannot create the journal directory: {e}"))?;
    Ok((subject, dir.join("checkpoint.jsonl")))
}

/// How a pass is traced: not at all, or through [`workflow::run_traced`]
/// into `spans` (with `trace` enabled).
type Tracing<'a> = Option<&'a mut Spans>;

fn run_pass(
    subject: &Subject,
    ledger: Arc<QueryLedger>,
    trace: &TraceSink,
    tracing: Tracing<'_>,
) -> Result<Pass, flit_core::workflow::WorkflowError> {
    let cfg = config(None, Some(ledger), None, trace.clone());
    match tracing {
        Some(spans) => workflow::run_traced(subject, &cfg, spans),
        None => workflow::run(subject, &cfg),
    }
}

/// The journaled pass. Host time covers creating the journal.
fn checkpoint_pass(
    out: &mut Outcome,
    subject: &Subject,
    path: &Path,
    trace: &TraceSink,
    tracing: Tracing<'_>,
) -> Option<Pass> {
    let fp = subject.program.fingerprint();
    let t = Instant::now();
    let writer = match JournalWriter::create(path, fp) {
        Ok(w) => w,
        Err(e) => {
            out.attempt(true);
            out.mismatches
                .push(format!("cannot create the journal: {e}"));
            return None;
        }
    };
    let ledger = QueryLedger::new(fp, trace);
    ledger.attach_journal(writer);
    let result = run_pass(subject, ledger.clone(), trace, tracing);
    let seconds = secs(t.elapsed());
    let mut pass = attempt(out, "checkpoint pass", result)?;
    pass.seconds = seconds;
    journal_ok(out, &ledger)?;
    Some(pass)
}

/// A pass resumed from the journal. Host time covers loading it.
fn resume_pass(
    out: &mut Outcome,
    subject: &Subject,
    path: &Path,
    first: &Pass,
    trace: &TraceSink,
    tracing: Tracing<'_>,
) -> Option<Pass> {
    let fp = subject.program.fingerprint();
    let t = Instant::now();
    let (writer, records) = match JournalWriter::resume(path, fp) {
        Ok(r) => r,
        Err(e) => {
            out.attempt(true);
            out.mismatches
                .push(format!("cannot resume the journal: {e}"));
            return None;
        }
    };
    let ledger = QueryLedger::new(fp, trace);
    ledger.preload(&records);
    ledger.attach_journal(writer);
    let result = run_pass(subject, ledger.clone(), trace, tracing);
    let seconds = secs(t.elapsed());
    let mut pass = attempt(out, "resumed pass", result)?;
    pass.seconds = seconds;
    journal_ok(out, &ledger)?;
    out.check(pass.body == first.body, || {
        "resumed report differs from the checkpoint pass's".to_string()
    });
    let executed = ledger.stats().executed;
    out.check(executed == 0, || {
        format!("resumed pass executed {executed} queries, expected 0")
    });
    Some(pass)
}

/// A journal write error is a failed operation.
fn journal_ok(out: &mut Outcome, ledger: &QueryLedger) -> Option<()> {
    match ledger.journal_error() {
        None => Some(()),
        Some(e) => {
            out.failed += 1;
            out.mismatches.push(format!("journal write failed: {e}"));
            None
        }
    }
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let start = Instant::now();
    let state = StateDir::fresh(&args.workload).map_err(|e| e.to_string())?;
    let mut out = Outcome::default();
    let off = TraceSink::disabled();
    if !args.trace {
        let mut t = Timings::default();
        setup_window(&mut t.setups, || setup(args.seed, &state), |_| Ok(()))?;
        let (subject, path) = timed(&mut t.setups, || setup(args.seed, &state))?;
        let Some(first) = checkpoint_pass(&mut out, &subject, &path, &off, None) else {
            return Ok(out);
        };
        out.also.push(Metric::new(
            "checkpoint_s",
            "s",
            first.seconds,
            "journaled pass, n=1; fsync-bound, so not in the JSON result",
        ));
        for_seconds(args.seconds - secs(start.elapsed()), |_| {
            let Some(resumed) = resume_pass(&mut out, &subject, &path, &first, &off, None) else {
                return false;
            };
            t.passes.push(resumed.seconds);
            t.ops.push(resumed.seconds);
            t.ops_wall += resumed.seconds;
            true
        });
        setup_window(&mut t.setups, || setup(args.seed, &state), |_| Ok(()))?;
        out.metrics = end_to_end(&t, "resumed pass", "resumed pass");
        return Ok(out);
    }

    let (subject, path) = setup(args.seed, &state)?;
    let Some(first) = checkpoint_pass(&mut out, &subject, &path, &off, None) else {
        return Ok(out);
    };
    // A warm-up resume first, so the untraced and the traced resumes all
    // run in a warm process. A resume takes a fraction of a second, so
    // the overhead ratio compares medians of several.
    let mut plain = Vec::new();
    for i in 0..=OVERHEAD_SAMPLES {
        let Some(pass) = resume_pass(&mut out, &subject, &path, &first, &off, None) else {
            return Ok(out);
        };
        if i > 0 {
            plain.push(pass.seconds);
        }
    }

    let (subject, path) = setup(args.seed, &state)?;
    let trace = TraceSink::enabled();
    let mut traced = Traced::default();
    let Some(journaled) =
        checkpoint_pass(&mut out, &subject, &path, &trace, Some(&mut traced.spans))
    else {
        return Ok(out);
    };
    out.check(journaled.body == first.body, || {
        "traced checkpoint report differs from the untraced one".to_string()
    });
    // The first traced resume records the counters; the others time
    // tracing on sinks of their own, so the counts cover one resume.
    let mut traced_resumes = Vec::new();
    for i in 0..OVERHEAD_SAMPLES {
        let sink = if i == 0 {
            trace.clone()
        } else {
            TraceSink::enabled()
        };
        let resumed = resume_pass(
            &mut out,
            &subject,
            &path,
            &journaled,
            &sink,
            Some(&mut Spans::default()),
        );
        let Some(resumed) = resumed else {
            return Ok(out);
        };
        traced_resumes.push(resumed.seconds);
    }
    traced.counters = counters(&trace);
    traced.checkpoint_s = journaled.seconds;
    traced.untraced_s = median(&plain);
    traced.traced_s = median(&traced_resumes);
    traced.journal_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let rows = probe::variable_rows(&subject, &journaled.report.db);
    traced.probe = probe::run(
        &subject,
        &rows,
        Some(path),
        &journaled.body,
        args.seed,
        state.path(),
    );
    out.metrics = layers::metrics(&traced);
    Ok(out)
}
