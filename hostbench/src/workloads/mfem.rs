//! `workflow-mfem`: the full Figure-1 MFEM workflow through
//! `run_workflow` — 19 tests × 244 compilations, every variable row
//! bisected, threads backend, build cache on, no journal. The input is
//! the whole matrix, so this workload does not depend on the seed.

use serde::Deserialize;

use flit_mfem::{mfem_examples, mfem_program};
use flit_toolchain::compilation::mfem_matrix;
use flit_trace::sink::TraceSink;

use super::attempt;
use crate::harness::{end_to_end, for_seconds, setup_window, timed, Args, StateDir, Timings};
use crate::layers::{self, Traced};
use crate::probe;
use crate::report::Outcome;
use crate::workflow::{self, config, counters, digest, Pass, Subject};

/// The committed expected output (see `expected.json` for where each
/// value comes from).
#[derive(Debug, Deserialize)]
struct Expected {
    mfem_rows: usize,
    mfem_variable_rows: usize,
    mfem_report_fnv1a64: String,
}

fn load_expected() -> Result<Expected, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("bad {path}: {e}"))
}

fn setup() -> Result<(Subject, Expected), String> {
    let subject = Subject {
        app: "mfem",
        program: mfem_program(),
        tests: mfem_examples(),
        comps: mfem_matrix(),
    };
    Ok((subject, load_expected()?))
}

fn check(out: &mut Outcome, expected: &Expected, pass: &Pass) {
    out.check(pass.rows() == expected.mfem_rows, || {
        format!(
            "{} sweep rows, expected {}",
            pass.rows(),
            expected.mfem_rows
        )
    });
    out.check(pass.variable_rows() == expected.mfem_variable_rows, || {
        format!(
            "{} variable rows, expected {}",
            pass.variable_rows(),
            expected.mfem_variable_rows
        )
    });
    let got = digest(&pass.body);
    out.check(got == expected.mfem_report_fnv1a64, || {
        format!(
            "report digest {got}, expected {}",
            expected.mfem_report_fnv1a64
        )
    });
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let untraced = || config(None, None, None, TraceSink::disabled());
    if !args.trace {
        let mut t = Timings::default();
        setup_window(&mut t.setups, setup, |_| Ok(()))?;
        let mut setup_error = None;
        for_seconds(args.seconds, |_| {
            let (subject, expected) = match timed(&mut t.setups, setup) {
                Ok(s) => s,
                Err(e) => {
                    setup_error = Some(e);
                    return false;
                }
            };
            let Some(pass) = attempt(
                &mut out,
                "workflow pass",
                workflow::run(&subject, &untraced()),
            ) else {
                return false;
            };
            check(&mut out, &expected, &pass);
            t.passes.push(pass.seconds);
            t.ops.push(pass.seconds);
            t.ops_wall += pass.seconds;
            true
        });
        if let Some(e) = setup_error {
            return Err(e);
        }
        setup_window(&mut t.setups, setup, |_| Ok(()))?;
        out.metrics = end_to_end(&t, "workflow pass", "workflow pass");
        return Ok(out);
    }

    let state = StateDir::fresh(&args.workload).map_err(|e| e.to_string())?;
    let (subject, expected) = setup()?;
    let mut traced = Traced::default();
    // A warm-up pass first, so the untraced and the traced pass both
    // run in a warm process and their ratio is the tracing overhead.
    let mut plain = None;
    for _ in 0..2 {
        let Some(pass) = attempt(
            &mut out,
            "workflow pass",
            workflow::run(&subject, &untraced()),
        ) else {
            return Ok(out);
        };
        check(&mut out, &expected, &pass);
        plain = Some(pass);
    }
    let plain = plain.expect("two untraced passes ran");
    let trace = TraceSink::enabled();
    let cfg = config(None, None, None, trace.clone());
    let Some(pass) = attempt(
        &mut out,
        "traced workflow pass",
        workflow::run_traced(&subject, &cfg, &mut traced.spans),
    ) else {
        return Ok(out);
    };
    check(&mut out, &expected, &pass);
    traced.counters = counters(&trace);
    traced.untraced_s = plain.seconds;
    traced.traced_s = pass.seconds;
    let rows = probe::variable_rows(&subject, &pass.report.db);
    traced.probe = probe::run(&subject, &rows, None, &pass.body, args.seed, state.path());
    out.metrics = layers::metrics(&traced);
    Ok(out)
}
