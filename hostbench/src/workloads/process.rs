//! `workflow-process`: a seeded draw of MFEM compilations whose
//! bisection stage evaluates every query in two `worker` subprocesses
//! through `ProcessBackend` — the only workload that crosses
//! `bisect.wire` and `exec.process`. Each pass gets freshly spawned
//! workers, as a `flit workflow --backend process` run does.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use flit_exec::{AnswerEnvelope, ExecBackend, ExecError, ProcessBackend, QueryEnvelope};
use flit_mfem::{mfem_examples, mfem_program};
use flit_trace::sink::TraceSink;

use super::attempt;
use crate::draw::mfem_compilations;
use crate::harness::{end_to_end, for_seconds, setup_window, timed, Args, StateDir, Timings};
use crate::layers::{self, Traced};
use crate::probe;
use crate::report::Outcome;
use crate::stats::secs;
use crate::workflow::{self, config, counters, digest, Subject, JOBS};

/// Compilations drawn: 102 variable rows, all of them bisected.
pub const DRAW: usize = 23;

/// The worker command: this executable's own `worker` mode.
fn worker_cmd() -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    Ok(vec![
        exe.to_string_lossy().into_owned(),
        "worker".to_string(),
    ])
}

/// An `ExecBackend` that forwards to the process backend and times
/// every `dispatch`.
#[derive(Debug)]
struct TimedBackend {
    inner: Arc<ProcessBackend>,
    dispatch_s: Mutex<Vec<f64>>,
}

impl ExecBackend for TimedBackend {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn is_remote(&self) -> bool {
        self.inner.is_remote()
    }

    fn run_units(&self, units: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), ExecError> {
        self.inner.run_units(units, f)
    }

    fn dispatch(&self, query: &QueryEnvelope) -> Result<AnswerEnvelope, ExecError> {
        let t = Instant::now();
        let answer = self.inner.dispatch(query);
        self.dispatch_s
            .lock()
            .expect("no dispatch panics while holding the log")
            .push(secs(t.elapsed()));
        answer
    }

    fn drain(&self) {
        self.inner.drain();
    }
}

/// Spawn every worker of `backend` before timing starts. A query whose
/// task does not parse is answered with a structured crash and leaves
/// no task or build cache behind, so the pass still starts cold; the
/// concurrent dispatches make the pool grow to its full width.
fn spawn_workers(backend: &ProcessBackend) -> Result<(), String> {
    let query = QueryEnvelope {
        task_digest: "hostbench-spawn".to_string(),
        task: String::new(),
        spec: String::new(),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..backend.workers())
            .map(|_| scope.spawn(|| backend.dispatch(&query)))
            .collect();
        handles.into_iter().try_for_each(|h| {
            match h.join().expect("dispatch threads do not panic") {
                Ok(_) => Ok(()),
                Err(e) => Err(format!("cannot spawn workers: {e}")),
            }
        })
    })
}

struct Setup {
    subject: Subject,
    backend: Arc<ProcessBackend>,
}

fn setup(seed: u64, trace: &TraceSink) -> Result<Setup, String> {
    let subject = Subject {
        app: "mfem",
        program: mfem_program(),
        tests: mfem_examples(),
        comps: mfem_compilations(seed, "workflow-process", DRAW),
    };
    let backend = Arc::new(ProcessBackend::with_trace(
        worker_cmd()?,
        JOBS,
        trace.clone(),
    ));
    spawn_workers(&backend)?;
    Ok(Setup { subject, backend })
}

/// The threads-backend report digest for the same input.
fn threads_digest(out: &mut Outcome, subject: &Subject) -> Option<String> {
    let cfg = config(None, None, None, TraceSink::disabled());
    attempt(
        out,
        "threads reference workflow",
        workflow::run(subject, &cfg),
    )
    .map(|p| digest(&p.body))
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let off = TraceSink::disabled();
    let mut digests = Vec::new();
    if !args.trace {
        let mut t = Timings::default();
        let drain = |s: Setup| {
            s.backend.drain();
            Ok(())
        };
        setup_window(&mut t.setups, || setup(args.seed, &off), drain)?;
        let mut error = None;
        let mut last = None;
        for_seconds(args.seconds, |_| {
            let s = match timed(&mut t.setups, || setup(args.seed, &off)) {
                Ok(s) => s,
                Err(e) => {
                    error = Some(e);
                    return false;
                }
            };
            let cfg = config(None, None, Some(s.backend.clone()), off.clone());
            let result = workflow::run(&s.subject, &cfg);
            s.backend.drain();
            let Some(pass) = attempt(&mut out, "process-backend workflow", result) else {
                return false;
            };
            digests.push(digest(&pass.body));
            t.passes.push(pass.seconds);
            t.ops.push(pass.seconds);
            t.ops_wall += pass.seconds;
            last = Some(s.subject);
            true
        });
        if let Some(e) = error {
            return Err(e);
        }
        setup_window(&mut t.setups, || setup(args.seed, &off), drain)?;
        // Metrics first: peak memory is the coordinator's, without the
        // threads-backend reference run.
        out.metrics = end_to_end(&t, "process-backend workflow pass", "workflow pass");
        if let Some(subject) = last {
            check(&mut out, &subject, &digests);
        }
        return Ok(out);
    }

    let state = StateDir::fresh(&args.workload).map_err(|e| e.to_string())?;
    // A warm-up pass first, so the untraced and the traced pass both
    // run in a warm coordinator and their ratio is the tracing overhead.
    let mut plain = None;
    for _ in 0..2 {
        let s = setup(args.seed, &off)?;
        let cfg = config(None, None, Some(s.backend.clone()), off.clone());
        let result = workflow::run(&s.subject, &cfg);
        s.backend.drain();
        let Some(pass) = attempt(&mut out, "process-backend workflow", result) else {
            return Ok(out);
        };
        digests.push(digest(&pass.body));
        plain = Some(pass);
    }
    let plain = plain.expect("two untraced passes ran");

    let trace = TraceSink::enabled();
    let s = setup(args.seed, &trace)?;
    let timed_backend = Arc::new(TimedBackend {
        inner: s.backend.clone(),
        dispatch_s: Mutex::default(),
    });
    let mut traced = Traced::default();
    let cfg = config(None, None, Some(timed_backend.clone()), trace.clone());
    let result = workflow::run_traced(&s.subject, &cfg, &mut traced.spans);
    timed_backend.drain();
    let Some(pass) = attempt(&mut out, "traced process-backend workflow", result) else {
        return Ok(out);
    };
    digests.push(digest(&pass.body));
    check(&mut out, &s.subject, &digests);
    traced.counters = counters(&trace);
    traced.untraced_s = plain.seconds;
    traced.traced_s = pass.seconds;
    traced.dispatch_ms = timed_backend
        .dispatch_s
        .lock()
        .expect("dispatch log")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let rows = probe::variable_rows(&s.subject, &pass.report.db);
    traced.probe = probe::run(&s.subject, &rows, None, &pass.body, args.seed, state.path());
    out.metrics = layers::metrics(&traced);
    Ok(out)
}

/// Every process-backend report must equal the threads backend's.
fn check(out: &mut Outcome, subject: &Subject, digests: &[String]) {
    let Some(reference) = threads_digest(out, subject) else {
        return;
    };
    for d in digests {
        out.check(*d == reference, || {
            format!("process-backend report {d} differs from the threads backend's {reference}")
        });
    }
}
