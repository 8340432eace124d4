//! `serve-fleet`: an in-process `flit_serve::daemon::serve` on
//! `127.0.0.1:0` with `max_inflight` 2 and a fresh state directory,
//! driven by two closed-loop clients (one tenant each) that submit the
//! seeded schedule of `laghos`/`lulesh`/`mfem` workflows. Each round
//! starts a fresh daemon on a fresh state directory.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use flit_bisect::ledger::QueryLedger;
use flit_cli::apps::resolve_app;
use flit_cli::serve::CliRunner;
use flit_persist::tenant_journal_path;
use flit_serve::daemon::{
    serve, JobOutcome, JobRequest, ServeConfig, ServeSummary, WorkflowRunner,
};
use flit_serve::protocol::{self, Response, StatusReport};
use flit_toolchain::compilation::{compilation_matrix, mfem_matrix};
use flit_toolchain::compiler::CompilerKind;
use flit_trace::sink::TraceSink;

use super::attempt;
use crate::draw::{fleet_schedule, Submission, FLEET_MIX};
use crate::harness::{end_to_end, for_seconds, setup_window, timed, Args, StateDir, Timings};
use crate::layers::{self, Traced};
use crate::probe;
use crate::report::Outcome;
use crate::stats::secs;
use crate::workflow::{self, config, counters, Pass, Spans, Subject};

/// Runner threads: how many submissions run at once.
const MAX_INFLIGHT: usize = 2;

/// The tenant of client `i`.
fn tenant(i: usize) -> String {
    format!("tenant-{i}")
}

/// A `WorkflowRunner` that forwards to the CLI's threads runner and
/// times each `run`, per tenant in submission order.
struct TimedRunner {
    inner: CliRunner,
    handle_s: Mutex<BTreeMap<String, Vec<f64>>>,
}

impl WorkflowRunner for TimedRunner {
    fn fingerprint(&self, app: &str) -> Result<u64, String> {
        self.inner.fingerprint(app)
    }

    fn run(&self, req: &JobRequest, ledger: Arc<QueryLedger>) -> Result<JobOutcome, String> {
        let t = Instant::now();
        let result = self.inner.run(req, ledger);
        let seconds = secs(t.elapsed());
        self.handle_s
            .lock()
            .expect("no runner panics while holding the handle log")
            .entry(req.tenant.clone())
            .or_default()
            .push(seconds);
        result
    }
}

/// A running daemon and its state directory.
struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<ServeSummary>>,
    runner: Option<Arc<TimedRunner>>,
    trace: TraceSink,
}

impl Daemon {
    /// Bind, spawn the runner pool and the accept loop.
    fn start(dir: PathBuf, traced: bool) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let timed = traced.then(|| {
            Arc::new(TimedRunner {
                inner: CliRunner::threads(),
                handle_s: Mutex::default(),
            })
        });
        let runner: Arc<dyn WorkflowRunner> = match &timed {
            Some(r) => r.clone(),
            None => Arc::new(CliRunner::threads()),
        };
        let cfg = ServeConfig {
            state_dir: dir,
            max_inflight: MAX_INFLIGHT,
            trace: if traced {
                TraceSink::enabled()
            } else {
                TraceSink::disabled()
            },
            ..ServeConfig::default()
        };
        let trace = cfg.trace.clone();
        let thread = std::thread::spawn(move || serve(listener, runner, cfg));
        Ok(Daemon {
            addr,
            thread,
            runner: timed,
            trace,
        })
    }

    /// Drain and stop the daemon, and wait for its threads. Without a
    /// shutdown acknowledgement the accept loop may still be running, so
    /// the thread is not joined (it ends with the process).
    fn stop(self) -> Result<(), String> {
        match protocol::shutdown(self.addr) {
            Ok(Response::ShutdownAck { .. }) => {}
            other => return Err(format!("daemon did not acknowledge shutdown: {other:?}")),
        }
        match self.thread.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon failed: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

/// What one submission returned.
#[derive(Debug)]
pub struct Reply {
    /// The submission.
    pub sub: Submission,
    /// The report body, or why there is none.
    pub body: Result<String, String>,
    /// Client-side latency (s).
    pub seconds: f64,
}

/// Classify a daemon response: only a `Report` is a success; a refusal,
/// an error response or a transport error is a failed submission.
pub fn classify(response: std::io::Result<Response>) -> Result<String, String> {
    match response {
        Ok(Response::Report { body, .. }) => Ok(body),
        Ok(Response::Error { message }) => Err(format!("refused: {message}")),
        Ok(other) => Err(format!("unexpected response: {other:?}")),
        Err(e) => Err(format!("transport error: {e}")),
    }
}

/// One round: every client submits its sequence, closed loop. Returns
/// the replies per client and the round's wall time.
fn round(addr: SocketAddr, schedule: &[Vec<Submission>]) -> (Vec<Vec<Reply>>, f64) {
    let t = Instant::now();
    let replies = std::thread::scope(|scope| {
        let clients: Vec<_> = schedule
            .iter()
            .enumerate()
            .map(|(i, seq)| {
                scope.spawn(move || {
                    seq.iter()
                        .map(|sub| {
                            let t = Instant::now();
                            let response =
                                protocol::submit(addr, &tenant(i), sub.app, Some(sub.cap), None);
                            Reply {
                                sub: sub.clone(),
                                body: classify(response),
                                seconds: secs(t.elapsed()),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    (replies, secs(t.elapsed()))
}

fn fetch_status(addr: SocketAddr) -> Result<StatusReport, String> {
    match protocol::status(addr) {
        Ok(Response::Status(s)) => Ok(s),
        other => Err(format!("status request failed: {other:?}")),
    }
}

/// The compilation matrix `flit workflow <app>` sweeps.
fn matrix_for(app: &str) -> Vec<flit_toolchain::compilation::Compilation> {
    if app.starts_with("laghos") {
        [CompilerKind::Gcc, CompilerKind::Xlc]
            .into_iter()
            .flat_map(compilation_matrix)
            .collect()
    } else {
        mfem_matrix()
    }
}

fn subject(app: &'static str) -> Subject {
    let bundled = resolve_app(app).expect("fleet apps are bundled");
    Subject {
        app,
        program: bundled.program,
        tests: bundled.tests,
        comps: matrix_for(app),
    }
}

/// Everything a round needs, built by the set-up.
struct Fleet {
    schedule: Vec<Vec<Submission>>,
    /// Program model, suite and matrix of every scheduled app: the
    /// inputs of the serial reference runs.
    subjects: BTreeMap<&'static str, Subject>,
    /// The daemon's state directory.
    dir: PathBuf,
    daemon: Daemon,
}

/// Draw the schedule, build the reference inputs, and start a daemon on
/// a fresh state directory; done once it answers a status request.
fn setup(seed: u64, state: &StateDir, traced: bool) -> Result<Fleet, String> {
    let schedule = fleet_schedule(seed);
    let subjects = FLEET_MIX
        .iter()
        .map(|&(app, _)| (app, subject(app)))
        .collect();
    let dir = state
        .sub()
        .map_err(|e| format!("cannot create the daemon state dir: {e}"))?;
    let daemon =
        Daemon::start(dir.clone(), traced).map_err(|e| format!("cannot start the daemon: {e}"))?;
    fetch_status(daemon.addr)?;
    Ok(Fleet {
        schedule,
        subjects,
        dir,
        daemon,
    })
}

/// Serial reference runs, one per distinct submission: the body every
/// daemon report must equal. In a traced run they are the traced
/// workflow passes of this workload.
fn references(
    out: &mut Outcome,
    schedule: &[Vec<Submission>],
    subjects: &BTreeMap<&'static str, Subject>,
    trace: &TraceSink,
    mut spans: Option<&mut Spans>,
) -> BTreeMap<Submission, Pass> {
    let distinct: std::collections::BTreeSet<&Submission> = schedule.iter().flatten().collect();
    let mut refs = BTreeMap::new();
    for sub in distinct {
        let subject = &subjects[sub.app];
        let cfg = config(Some(sub.cap), None, None, trace.clone());
        let result = match spans.as_deref_mut() {
            Some(s) => workflow::run_traced(subject, &cfg, s),
            None => workflow::run(subject, &cfg),
        };
        if let Some(pass) = attempt(out, "serial reference workflow", result) {
            refs.insert(sub.clone(), pass);
        }
    }
    refs
}

/// The round's check after timing: a same-tenant repeat must add no
/// fleet traffic. Returns the daemon status taken before the repeat.
fn repeat_check(out: &mut Outcome, fleet: &Fleet) -> Result<(StatusReport, Reply), String> {
    let addr = fleet.daemon.addr;
    let before = fetch_status(addr)?;
    let sub = fleet.schedule[0][0].clone();
    let t = Instant::now();
    let body = classify(protocol::submit(
        addr,
        &tenant(0),
        sub.app,
        Some(sub.cap),
        None,
    ));
    let reply = Reply {
        sub,
        body,
        seconds: secs(t.elapsed()),
    };
    let after = fetch_status(addr)?;
    out.check(after.fleet == before.fleet, || {
        format!(
            "same-tenant repeat added fleet traffic: {:?} -> {:?}",
            before.fleet, after.fleet
        )
    });
    Ok((before, reply))
}

fn check_replies(out: &mut Outcome, replies: &[Reply], refs: &BTreeMap<Submission, Pass>) {
    for r in replies {
        out.attempt(r.body.is_err());
        match (&r.body, refs.get(&r.sub)) {
            (Err(e), _) => out
                .mismatches
                .push(format!("{} cap {}: {e}", r.sub.app, r.sub.cap)),
            (Ok(body), Some(reference)) => out.check(*body == reference.body, || {
                format!(
                    "{} cap {}: daemon report differs from the serial workflow",
                    r.sub.app, r.sub.cap
                )
            }),
            (Ok(_), None) => {}
        }
    }
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let state = StateDir::fresh(&args.workload).map_err(|e| e.to_string())?;
    let mut out = Outcome::default();
    let mut replies = Vec::new();
    if !args.trace {
        let mut t = Timings::default();
        let stop = |fleet: Fleet| fleet.daemon.stop();
        setup_window(&mut t.setups, || setup(args.seed, &state, false), stop)?;
        let mut error = None;
        let mut last = None;
        for_seconds(args.seconds, |_| {
            let result =
                timed(&mut t.setups, || setup(args.seed, &state, false)).and_then(|fleet| {
                    let (per_client, wall) = round(fleet.daemon.addr, &fleet.schedule);
                    let repeat = repeat_check(&mut out, &fleet);
                    let Fleet {
                        schedule,
                        subjects,
                        daemon,
                        ..
                    } = fleet;
                    daemon.stop()?;
                    let (_, repeat) = repeat?;
                    t.passes.push(wall);
                    t.ops_wall += wall;
                    for r in per_client.into_iter().flatten() {
                        t.ops.push(r.seconds);
                        replies.push(r);
                    }
                    replies.push(repeat);
                    last = Some((schedule, subjects));
                    Ok(())
                });
            error = result.err();
            error.is_none()
        });
        if let Some(e) = error {
            return Err(e);
        }
        setup_window(&mut t.setups, || setup(args.seed, &state, false), stop)?;
        // Metrics first: peak memory must not include the references.
        out.metrics = end_to_end(&t, "round of all submissions", "submission");
        if let Some((schedule, subjects)) = last {
            let refs = references(&mut out, &schedule, &subjects, &TraceSink::disabled(), None);
            check_replies(&mut out, &replies, &refs);
        }
        return Ok(out);
    }

    // A warm-up round first, so the untraced and the traced round both
    // run in a warm process and their ratio is the tracing overhead.
    let mut plain_wall = 0.0;
    for _ in 0..2 {
        let fleet = setup(args.seed, &state, false)?;
        let (per_client, wall) = round(fleet.daemon.addr, &fleet.schedule);
        fleet.daemon.stop()?;
        replies.extend(per_client.into_iter().flatten());
        plain_wall = wall;
    }

    let fleet = setup(args.seed, &state, true)?;
    let (per_client, wall) = round(fleet.daemon.addr, &fleet.schedule);
    let (status, repeat) = repeat_check(&mut out, &fleet)?;
    let Fleet {
        schedule,
        subjects,
        dir: daemon_dir,
        daemon,
    } = fleet;
    let runner = daemon
        .runner
        .clone()
        .expect("traced daemons time their runner");
    let daemon_trace = daemon.trace.clone();
    daemon.stop()?;
    let mut traced = Traced {
        untraced_s: plain_wall,
        traced_s: wall,
        journal_bytes: journal_files(&daemon_dir)
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum(),
        status: Some(status),
        ..Traced::default()
    };
    let handles = runner.handle_s.lock().expect("runner log").clone();
    for (i, seq) in per_client.iter().enumerate() {
        let handle = handles.get(&tenant(i)).cloned().unwrap_or_default();
        for (r, h) in seq.iter().zip(handle) {
            traced.handle_ms.push(h * 1e3);
            traced.queue_wait_ms.push((r.seconds - h).max(0.0) * 1e3);
        }
    }
    replies.extend(per_client.into_iter().flatten());
    replies.push(repeat);

    let trace = TraceSink::enabled();
    let refs = references(
        &mut out,
        &schedule,
        &subjects,
        &trace,
        Some(&mut traced.spans),
    );
    check_replies(&mut out, &replies, &refs);
    // Build and bisect counters come from the serial runs (the daemon's
    // runner records none); the query-ledger counters are the fleet's.
    traced.counters = counters(&trace);
    traced
        .counters
        .retain(|name, _| !name.starts_with("exec.queries."));
    traced.counters.extend(
        counters(&daemon_trace)
            .into_iter()
            .filter(|(name, _)| name.starts_with("exec.queries.")),
    );
    let mfem = refs
        .iter()
        .find(|(s, _)| s.app == "mfem")
        .map(|(_, p)| p)
        .ok_or("the schedule has no mfem submission")?;
    let subject = &subjects["mfem"];
    let rows = probe::variable_rows(subject, &mfem.report.db);
    // Client 0's mfem tenant journal: the workload's own records.
    let journal = tenant_journal_path(&daemon_dir, &tenant(0), subject.program.fingerprint());
    traced.probe = probe::run(
        subject,
        &rows,
        Some(journal),
        &mfem.body,
        args.seed,
        state.path(),
    );
    out.metrics = layers::metrics(&traced);
    Ok(out)
}

/// Every tenant journal under a daemon state directory.
fn journal_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "jsonl") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_forced_refusal_counts_as_failed() {
        let state = StateDir::fresh("fleet-refusal-test").expect("state dir");
        let daemon = Daemon::start(state.sub().expect("sub"), false).expect("daemon starts");
        let reply = Reply {
            sub: Submission {
                app: "laghos",
                cap: 1,
            },
            body: classify(protocol::submit(
                daemon.addr,
                "t",
                "no-such-app",
                Some(1),
                None,
            )),
            seconds: 0.0,
        };
        daemon.stop().expect("daemon stops");
        assert!(reply.body.is_err(), "{reply:?}");
        let mut out = Outcome::default();
        out.attempt(false);
        check_replies(&mut out, &[reply], &BTreeMap::new());
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert!(!out.correct());
        assert!(out.table("t").contains("1 failed / 2 attempted"));
    }
}
