//! The dual-level File → Symbol search (§2.3).
//!
//! "We perform this Bisect algorithm on a dual-level hierarchy, first by
//! searching for the files where the compiler caused variability, and
//! then searching the functions within each found file."
//!
//! File Bisect's Test function links objects from the two compilations
//! per Figure 3 (left); Symbol Bisect recompiles the found file with
//! `-fPIC` — verifying variability survives the recompile — and links
//! two complementarily-weakened copies per Figure 3 (right). If `-fPIC`
//! removes the variability, "the search cannot go deeper; we must be
//! content with reporting the file containing the variability."
//!
//! There is one search, [`bisect_hierarchical_parallel`]; its width is
//! the width of the execution backend it is handed, and every result is
//! byte-identical at any width. [`bisect_hierarchical`] is that search on
//! one inline worker, which replays the serial algorithm's exact call
//! sequence and records no scheduling telemetry.

use std::collections::BTreeMap;
use std::hash::Hash;
use std::sync::Arc;

use flit_program::build::Build;
use flit_program::model::Driver;
use flit_toolchain::cache::BuildCtx;
use flit_toolchain::compiler::CompilerKind;
use flit_trace::names::{counter as counter_names, phase};
use flit_trace::sink::TraceSink;

use flit_exec::{run_on, ExecBackend, ExecError, ThreadsBackend};

use crate::algo::BisectOutcome;
use crate::ledger::{LedgerHandle, SearchKeys};
use crate::parallel::{
    drive_plans_seeded, emit_query_spans, ParallelTestFn, SharedOracle, SpeculationScore,
};
use crate::planner::{canonical, BisectPlan, PlanFailure, PlanOutcome, SearchMode};
use crate::test_fn::TestError;
use crate::wire::{ExeRecipe, LocalPlane, QueryPlane, RemotePlane};

/// A static prescreen of the hierarchical search space (produced by
/// `flit-lint`, consumed here): predicted-sensitivity scores per file
/// and per exported symbol.
///
/// Scores `> 0.0` mean "predicted variable"; missing entries mean
/// "predicted invariant". The scores seed the parallel drivers'
/// speculative frontiers in predicted-sensitivity order — answers only
/// enter a plan through its answer table, so seeding never changes
/// found sets, traces, violations, or execution counts. When [`prune`]
/// is set the predicted-invariant items are additionally removed from
/// the search space itself; because that *is* observable if the static
/// analysis was wrong, the search then re-runs Test over the unpruned
/// space and over the found set (an Algorithm-1-style dynamic
/// verification) and reports a violation when they disagree.
///
/// [`prune`]: Prescreen::prune
#[derive(Debug, Clone, Default)]
pub struct Prescreen {
    /// `file_id` → predicted-sensitivity score.
    pub file_priority: BTreeMap<usize, f64>,
    /// Exported symbol → predicted-sensitivity score.
    pub symbol_priority: BTreeMap<String, f64>,
    /// Prune predicted-invariant items from the search space (opt-in:
    /// `flit bisect --lint-prune`).
    pub prune: bool,
    /// Certified divergence bounds from `flit-absint` backing a
    /// `--prune certified` run. When present together with [`prune`],
    /// the search space drops `Invariant`-certified items instead of
    /// score-zero items, the 2-execution dynamic probe is replaced by a
    /// single residual audit per pruned level (`Test(all)` against the
    /// search's own found-set verification value), and every file-level
    /// finding is cross-checked against its certificate — a dishonest
    /// certificate surfaces as a structured assumption violation, never
    /// as a silently dropped item. Certificates must have been computed
    /// for the same `(baseline, variable, link_driver)` the search
    /// uses; the CLI guarantees this.
    ///
    /// [`prune`]: Prescreen::prune
    pub certificates: Option<flit_absint::PairCertificates>,
}

impl Prescreen {
    /// Score for a file (`0.0` = predicted invariant).
    pub fn file_score(&self, file_id: usize) -> f64 {
        self.file_priority.get(&file_id).copied().unwrap_or(0.0)
    }

    /// Score for a symbol (`0.0` = predicted invariant).
    pub fn symbol_score(&self, symbol: &str) -> f64 {
        self.symbol_priority.get(symbol).copied().unwrap_or(0.0)
    }

    /// Keep this file in a pruned search space? Certified mode drops
    /// exactly the `Invariant`-certified files; lint mode drops
    /// score-zero files.
    fn keep_file(&self, file_id: usize) -> bool {
        match &self.certificates {
            Some(c) => !c.file(file_id).prunable(),
            None => self.file_score(file_id) > 0.0,
        }
    }

    /// Keep this symbol in a pruned search space? (See [`keep_file`].)
    ///
    /// [`keep_file`]: Prescreen::keep_file
    fn keep_symbol(&self, symbol: &str) -> bool {
        match &self.certificates {
            Some(c) => !c.symbol(symbol).prunable(),
            None => self.symbol_score(symbol) > 0.0,
        }
    }
}

fn prune_guard_violation(level: &str, full: f64, found: f64) -> String {
    format!(
        "lint-prune verification failed at {level} level: Test(all)={full} != \
         Test(found)={found} (the static prescreen pruned a variability-inducing element)"
    )
}

fn certified_audit_violation(level: &str, full: f64, found: f64) -> String {
    format!(
        "certified-prune audit failed at {level} level: Test(all)={full} != \
         Test(found)={found} (a certificate wrongly claimed Invariant for a \
         variability-inducing element)"
    )
}

fn certified_bound_violation(file: &str, cert: &flit_absint::Certificate, value: f64) -> String {
    format!(
        "certified bound violated for file {file}: certificate {cert:?} \
         contradicted by Test = {value:e} (unsound certificate)"
    )
}

/// Zero-execution certificate cross-check: every file-level finding's
/// singleton Test value must respect its certified bound. (The symbol
/// level compares against a non-`-fPIC` reference, which is outside the
/// symbol certificates' model — symbol dishonesty is caught by the
/// residual audit instead.)
fn check_certified_bounds(
    cfg: &HierarchicalConfig,
    files: &[FileFinding],
    violations: &mut Vec<String>,
) {
    let Some(certs) = cfg.prescreen.as_ref().and_then(|p| p.certificates.as_ref()) else {
        return;
    };
    for f in files {
        let cert = certs.file(f.file_id);
        if cert.contradicted_by(f.value) {
            violations.push(certified_bound_violation(&f.file_name, &cert, f.value));
        }
    }
}

/// The Test value the search itself established for its found set (the
/// Assumption-1 verification query), mined from the trace so the
/// certified audit does not re-execute it. `None` when the search mode
/// skipped that verification.
fn found_verification_value<I: Clone + Ord>(outcome: &BisectOutcome<I>) -> Option<f64> {
    let mut found: Vec<I> = outcome.found.iter().map(|(i, _)| i.clone()).collect();
    found.sort();
    outcome.trace.iter().rev().find_map(|row| {
        let mut tested = row.tested.clone();
        tested.sort();
        (tested == found).then_some(row.value)
    })
}

/// Configuration for a hierarchical search.
#[derive(Debug, Clone)]
pub struct HierarchicalConfig {
    /// The compiler driving the mixed links (FLiT uses a consistent
    /// driver and a common C++ standard library — §2.3).
    pub link_driver: CompilerKind,
    /// `Some(k)` runs `BisectBiggest` at both levels; `None` runs the
    /// verifying `BisectAll`.
    pub k: Option<usize>,
    /// Build context the search compiles and links through. The default
    /// ([`BuildCtx::uncached`]) rebuilds everything; pass a
    /// [`BuildCtx::cached`] handle to share objects and memoized links
    /// within — and across — searches.
    pub ctx: BuildCtx,
    /// Trace sink for per-level spans and execution counters (the
    /// paper's Tables 2/4 "number of runs"). Disabled by default.
    pub trace: TraceSink,
    /// Optional static prescreen from `flit-lint`: seeds speculative
    /// frontiers in predicted-sensitivity order and, when its `prune`
    /// flag is set, removes predicted-invariant items from the search
    /// space under dynamic verification.
    pub prescreen: Option<Prescreen>,
    /// Optional handle on a workflow-wide [`QueryLedger`]: every Test
    /// query (reference run, file level, probes, symbol level) is
    /// answered through the shared single-flight table — and journaled,
    /// when the ledger carries a checkpoint journal. All per-search
    /// observables (found sets, execution counts, seconds, `bisect.*`
    /// counters and spans) are byte-identical with or without a ledger;
    /// only the physical `exec.queries.*` counters change. Sharing is
    /// sound only when every search handed the same ledger uses the
    /// same pure `compare` metric.
    ///
    /// [`QueryLedger`]: crate::ledger::QueryLedger
    pub ledger: Option<LedgerHandle>,
    /// Optional execution backend deciding *where* Test queries
    /// evaluate. `None` (and any backend whose
    /// [`ExecBackend::is_remote`] is false) evaluates in-process via a
    /// [`LocalPlane`]; a remote backend (the `process` coordinator)
    /// ships every query through [`ExecBackend::dispatch`] via a
    /// [`RemotePlane`]. Found sets, execution counts, `bisect.*`
    /// counters/spans, and ledger accounting are byte-identical either
    /// way; only the `build.*` counters move into the workers.
    pub backend: Option<Arc<dyn ExecBackend>>,
}

impl HierarchicalConfig {
    /// BisectAll through a GNU-driven link.
    pub fn all() -> Self {
        HierarchicalConfig {
            link_driver: CompilerKind::Gcc,
            k: None,
            ctx: BuildCtx::uncached(),
            trace: TraceSink::disabled(),
            prescreen: None,
            ledger: None,
            backend: None,
        }
    }

    /// BisectBiggest(k) through a GNU-driven link.
    pub fn biggest(k: usize) -> Self {
        HierarchicalConfig {
            k: Some(k),
            ..HierarchicalConfig::all()
        }
    }

    /// Run this search through the given build context.
    pub fn with_ctx(mut self, ctx: BuildCtx) -> Self {
        self.ctx = ctx;
        self
    }

    /// Record this search's spans and execution counters into `trace`.
    pub fn with_trace(mut self, trace: TraceSink) -> Self {
        self.trace = trace;
        self
    }

    /// Attach a static prescreen (see [`Prescreen`]).
    pub fn with_prescreen(mut self, prescreen: Prescreen) -> Self {
        self.prescreen = Some(prescreen);
        self
    }

    /// Answer this search's Test queries through a shared query ledger
    /// (see [`HierarchicalConfig::ledger`]).
    pub fn with_ledger(mut self, ledger: LedgerHandle) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Evaluate this search's Test queries through an execution
    /// backend (see [`HierarchicalConfig::backend`]).
    pub fn with_backend(mut self, backend: Arc<dyn ExecBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The query plane this configuration evaluates through.
    fn plane<'a>(
        &'a self,
        baseline: &'a Build<'a>,
        variable: &'a Build<'a>,
        driver: &'a Driver,
        input: &'a [f64],
    ) -> Box<dyn QueryPlane + 'a> {
        match &self.backend {
            Some(b) if b.is_remote() => Box::new(RemotePlane::new(
                b.clone(),
                baseline,
                variable,
                driver,
                input,
                self.link_driver,
            )),
            _ => Box::new(LocalPlane {
                baseline,
                variable,
                driver,
                input,
                link_driver: self.link_driver,
                ctx: &self.ctx,
            }),
        }
    }
}

/// The canonical ledger keys of one search task (see [`SearchKeys`]).
fn search_keys(
    baseline: &Build,
    variable: &Build,
    driver: &Driver,
    input: &[f64],
    cfg: &HierarchicalConfig,
) -> SearchKeys {
    SearchKeys::new(
        baseline.program.fingerprint(),
        variable.program.fingerprint(),
        &driver.name,
        input,
        &baseline.compilation.label(),
        &format!("{:?}", cfg.link_driver),
    )
}

/// A file-level finding.
#[derive(Debug, Clone, PartialEq)]
pub struct FileFinding {
    /// Index in the program's file list.
    pub file_id: usize,
    /// File name.
    pub file_name: String,
    /// Singleton Test value of this file.
    pub value: f64,
}

/// A symbol-level finding.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolFinding {
    /// The function's symbol name.
    pub symbol: String,
    /// The file defining it.
    pub file_id: usize,
    /// Singleton Test value of this symbol.
    pub value: f64,
}

/// How the search ended.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchOutcome {
    /// Both levels completed.
    Completed,
    /// The whole variable file set tested clean through the bisection
    /// link: the original variability came from the *link step* itself
    /// (the Intel vendor-math substitution on MFEM examples 4, 5, 9, 10
    /// and 15).
    LinkStepOnly,
    /// A mixed executable crashed (Table 2's File Bisect failures).
    Crashed(String),
    /// A dynamic-verification assertion failed; results may be
    /// incomplete (the user is notified, §2.4).
    AssumptionViolated,
}

/// Result of [`bisect_hierarchical`].
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalResult {
    /// How the search ended.
    pub outcome: SearchOutcome,
    /// Variability-inducing files.
    pub files: Vec<FileFinding>,
    /// Variability-inducing symbols across all searched files.
    pub symbols: Vec<SymbolFinding>,
    /// Files whose variability disappeared under the `-fPIC` probe
    /// (file-level blame only).
    pub file_level_only: Vec<usize>,
    /// Total program executions (file level + probes + symbol level,
    /// including the baseline reference run).
    pub executions: usize,
    /// Assumption violations from the verifying searches.
    pub violations: Vec<String>,
}

impl HierarchicalResult {
    /// Did the search complete with full dynamic verification?
    pub fn verified_complete(&self) -> bool {
        self.outcome == SearchOutcome::Completed && self.violations.is_empty()
    }

    /// Library-level blame (the coarsest level of Figure 1's "Library,
    /// Source, and Function Blame"): found files grouped by their
    /// top-level directory, each with the summed Test magnitude.
    pub fn library_blame(&self) -> Vec<(String, f64)> {
        let mut groups: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
        for f in &self.files {
            let lib = f
                .file_name
                .split('/')
                .next()
                .unwrap_or(&f.file_name)
                .to_string();
            *groups.entry(lib).or_default() += f.value;
        }
        let mut v: Vec<(String, f64)> = groups.into_iter().collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        v
    }
}

/// Run the full hierarchical search on one inline worker: the
/// [`bisect_hierarchical_parallel`] search at width 1, which walks the
/// serial algorithm's exact call sequence.
///
/// * `baseline` / `variable` — the two builds (identical program
///   structure; different compilations and/or different bodies, as in
///   the injection study).
/// * `driver` — the test driver (entry points and input scheme).
/// * `input` — the FLiT test input vector.
/// * `compare` — the user's comparison metric
///   (`||baseline − actual||₂` in the MFEM study).
pub fn bisect_hierarchical(
    baseline: &Build,
    variable: &Build,
    driver: &Driver,
    input: &[f64],
    compare: &(dyn Fn(&[f64], &[f64]) -> f64 + Sync),
    cfg: &HierarchicalConfig,
) -> HierarchicalResult {
    bisect_hierarchical_parallel(
        baseline,
        variable,
        driver,
        input,
        compare,
        cfg,
        &ThreadsBackend::new(1),
    )
}

/// One level of the hierarchy: names its counters, spans and messages.
#[derive(Clone, Copy)]
enum Level {
    File,
    Symbol,
}

impl Level {
    fn name(self) -> &'static str {
        match self {
            Level::File => "file",
            Level::Symbol => "symbol",
        }
    }

    fn phase(self) -> &'static str {
        match self {
            Level::File => phase::BISECT_FILE,
            Level::Symbol => phase::BISECT_SYMBOL,
        }
    }

    fn runs_counter(self) -> &'static str {
        match self {
            Level::File => counter_names::BISECT_FILE_RUNS,
            Level::Symbol => counter_names::BISECT_SYMBOL_RUNS,
        }
    }

    /// Book `dropped` items a pruning prescreen removed at this level,
    /// under the `absint.pruned.*` or `lint.pruned.*` counter.
    fn count_pruned(self, trace: &TraceSink, prune: &Prescreen, dropped: usize) {
        let name = match (self, prune.certificates.is_some()) {
            (Level::File, true) => counter_names::ABSINT_PRUNED_FILES,
            (Level::File, false) => counter_names::LINT_PRUNED_FILES,
            (Level::Symbol, true) => counter_names::ABSINT_PRUNED_SYMBOLS,
            (Level::Symbol, false) => counter_names::LINT_PRUNED_SYMBOLS,
        };
        trace.counter(name).incr(dropped as u64);
    }
}

/// A plan over one level's items. One worker has nothing to speculate
/// with, so its frontier is only the query the replay needs next.
fn level_plan<I: Clone + Ord + Hash>(items: &[I], mode: SearchMode, serial: bool) -> BisectPlan<I> {
    let plan = BisectPlan::new(items, mode);
    if serial {
        plan.with_speculation(0)
    } else {
        plan
    }
}

/// What guards a pruned level: the prescreen, the level's oracle and
/// its unpruned item set.
type Guard<'a, 'f, I> = (&'a Prescreen, &'a SharedOracle<'f, I>, &'a [I]);

/// The dynamic verification guarding a pruned level: the found set
/// must reproduce the *unpruned* space's Test value, or the prescreen
/// hid a real culprit. Lint mode spends two executions, `Test(all)` and
/// `Test(found)`. In certified mode the certificate replaces one leg:
/// `Test(found)` is mined from the search's own Assumption-1
/// verification query, so only the residual `Test(all)` audit executes.
/// Executions and seconds are booked into `execs` / `secs` whether or
/// not the oracle serves them from its memo.
fn prune_guard<I>(
    (pre, oracle, all): Guard<'_, '_, I>,
    level: Level,
    outcome: &BisectOutcome<I>,
    trace: &TraceSink,
    execs: &mut usize,
    secs: &mut f64,
) -> Result<Option<String>, TestError>
where
    I: Clone + Ord + Hash + Send + Sync,
{
    let mut eval = |items: &[I]| {
        *execs += 1;
        let answer = oracle.eval(items);
        if let Ok((_, s)) = &answer {
            *secs += *s;
        }
        answer.map(|(v, _)| v)
    };
    let found: Vec<I> = outcome.found.iter().map(|(i, _)| i.clone()).collect();
    let certified = pre.certificates.is_some();
    let (full, found) = if certified {
        trace.counter(counter_names::ABSINT_PRUNE_AUDITS).incr(1);
        let full = eval(&canonical(all));
        // BisectBiggest skips the Assumption-1 verification query; fall
        // back to an explicit one.
        let found = match found_verification_value(outcome) {
            Some(v) => Ok(v),
            None => eval(&canonical(&found)),
        };
        (full, found)
    } else {
        trace
            .counter(counter_names::LINT_PRUNE_VERIFICATIONS)
            .incr(2);
        (eval(&canonical(all)), eval(&canonical(&found)))
    };
    let (full, found) = (full?, found?);
    let level = level.name();
    Ok((full != found).then(|| {
        if certified {
            certified_audit_violation(level, full, found)
        } else {
            prune_guard_violation(level, full, found)
        }
    }))
}

/// Close one search level: run its prune guard (when `guard` is set),
/// book the level's executions — those the serial algorithm performs,
/// on failure too, never the speculation — into `executions`, its runs
/// counter and its span, and return the outcome plus any guard
/// violation, or the reason the search crashes.
fn settle_level<I>(
    result: Result<PlanOutcome<I>, PlanFailure>,
    guard: Option<Guard<'_, '_, I>>,
    level: Level,
    label: String,
    trace: &TraceSink,
    executions: &mut usize,
) -> Result<(PlanOutcome<I>, Option<String>), String>
where
    I: Clone + Ord + Hash + Send + Sync,
{
    let (mut execs, mut secs) = match &result {
        Ok(p) => (p.outcome.executions, p.seconds),
        Err(f) => (f.executions, f.seconds),
    };
    let guarded = match (&result, guard) {
        (Ok(p), Some(guard)) => prune_guard(guard, level, &p.outcome, trace, &mut execs, &mut secs),
        _ => Ok(None),
    };
    *executions += execs;
    trace.counter(level.runs_counter()).incr(execs as u64);
    trace.span(level.phase(), label, execs as u64, secs);
    match (result, guarded) {
        (Ok(p), Ok(violation)) => Ok((p, violation)),
        (Err(f), _) => Err(f.error.abort_reason()),
        (_, Err(e)) => Err(e.abort_reason()),
    }
}

/// A Test oracle routed through the search's ledger when it has one.
fn routed_oracle<'a, I>(
    raw: impl ParallelTestFn<I> + 'a,
    trace: &TraceSink,
    routed: Option<&(LedgerHandle, SearchKeys)>,
    key: impl Fn(&SearchKeys, &[I]) -> String + Sync + 'a,
) -> SharedOracle<'a, I>
where
    I: Clone + Ord + Hash + Send + Sync,
{
    match routed {
        Some((ledger, keys)) => {
            let keys = keys.clone();
            SharedOracle::with_ledger(raw, trace, ledger.clone(), move |items| key(&keys, items))
        }
        None => SharedOracle::new(raw, trace),
    }
}

/// The reason a failed fan-out ends the search. A panicking Test is a
/// bug, not a crashed mixed executable, so it is re-raised on the
/// caller's thread with its message — at every width.
fn exec_failure(e: ExecError) -> String {
    match e {
        ExecError::WorkerPanicked { message, .. } => std::panic::resume_unwind(Box::new(message)),
        ExecError::Backend { message } => format!("bisect backend failed: {message}"),
    }
}

impl HierarchicalResult {
    fn crashed(mut self, reason: String) -> Self {
        self.outcome = SearchOutcome::Crashed(reason);
        self
    }
}

/// The File → Symbol search, with every independent Test query fanned
/// out on `backend`; its width is the search's width.
///
/// Each level is *decided* by the planner and *folded* in the serial
/// order. The file-level search runs as a frontier-driven plan; the
/// `-fPIC` probes of the found files run as one wave; their symbol
/// searches run as *joint* plans sharing the backend. Wider backends
/// evaluate both halves of every split plus speculation concurrently
/// through a single-flight [`SharedOracle`]. One worker has nothing to
/// schedule or speculate: it answers only the query the serial replay
/// needs next, walks the found files one at a time (probe, then that
/// file's symbol search), and records no `exec.wave` / `exec.query`
/// scheduling telemetry. The result — outcome, findings, execution
/// counts, violations, and the `bisect.*` spans/counters — is
/// byte-identical at any width. With a remote backend
/// ([`ExecBackend::is_remote`], e.g. the `process` coordinator), each
/// query evaluates in a worker subprocess via [`RemotePlane`].
///
/// A panicking Test unwinds out of the search with its message at every
/// width; a backend whose retry budget is exhausted surfaces as
/// [`SearchOutcome::Crashed`].
pub fn bisect_hierarchical_parallel(
    baseline: &Build,
    variable: &Build,
    driver: &Driver,
    input: &[f64],
    compare: &(dyn Fn(&[f64], &[f64]) -> f64 + Sync),
    cfg: &HierarchicalConfig,
    backend: &dyn ExecBackend,
) -> HierarchicalResult {
    let mut res = HierarchicalResult {
        outcome: SearchOutcome::Completed,
        files: vec![],
        symbols: vec![],
        file_level_only: vec![],
        executions: 0,
        violations: vec![],
    };
    // One search = one file-level span plus one symbol-level span per
    // searched file, labelled by the (driver, variable compilation)
    // pair that identifies the search.
    let search = format!("{}/{}", driver.name, variable.compilation.label());
    let variable_label = variable.compilation.label();
    let reference_runs = cfg.trace.counter(counter_names::BISECT_REFERENCE_RUNS);
    let probe_runs = cfg.trace.counter(counter_names::BISECT_PROBE_RUNS);
    let routed = cfg.ledger.as_ref().map(|l| {
        (
            l.clone(),
            search_keys(baseline, variable, driver, input, cfg),
        )
    });
    let plane = cfg.plane(baseline, variable, driver, input);
    let serial = backend.workers() <= 1;
    let sched = if serial {
        TraceSink::disabled()
    } else {
        cfg.trace.clone()
    };
    let mode = match cfg.k {
        None => SearchMode::All,
        Some(k) => SearchMode::Biggest(k),
    };

    // Reference run under the trusted baseline build. Through a ledger
    // the answer (the full output vector) may be served by another
    // search or a journal replay; the accounting is identical either
    // way.
    let reference = {
        let compute = || plane.run_recipe(&ExeRecipe::Baseline);
        match &routed {
            Some((ledger, keys)) => ledger.eval_output(&keys.reference(), compute),
            None => compute(),
        }
    };
    let base_out = match reference {
        Ok((out, _)) => {
            res.executions += 1;
            reference_runs.incr(1);
            out
        }
        // A failed baseline *link* is not an execution.
        Err(TestError::Link(e)) => return res.crashed(format!("baseline link failed: {e}")),
        Err(TestError::Crash(e)) => {
            res.executions += 1;
            reference_runs.incr(1);
            return res.crashed(format!("baseline run failed: {e}"));
        }
    };

    // ---- File Bisect ----
    let prune = cfg.prescreen.as_ref().filter(|p| p.prune);
    let all_file_ids: Vec<usize> = (0..baseline.program.files.len()).collect();
    let file_ids: Vec<usize> = all_file_ids
        .iter()
        .copied()
        .filter(|id| prune.is_none_or(|p| p.keep_file(*id)))
        .collect();
    if let Some(p) = prune {
        Level::File.count_pruned(&cfg.trace, p, all_file_ids.len() - file_ids.len());
    }
    let file_score = |items: &[usize]| -> f64 {
        let p = cfg.prescreen.as_ref().expect("seed implies a prescreen");
        items.iter().map(|i| p.file_score(*i)).fold(0.0, f64::max)
    };
    let file_seed: Option<SpeculationScore<'_, usize>> = cfg
        .prescreen
        .as_ref()
        .filter(|_| !serial)
        .map(|_| &file_score as SpeculationScore<'_, usize>);
    let file_raw = |items: &[usize]| -> Result<(f64, f64), TestError> {
        let recipe = ExeRecipe::FileMixed {
            items: items.to_vec(),
        };
        let (out, seconds) = plane.run_recipe(&recipe)?;
        Ok((compare(&base_out, &out), seconds))
    };
    let file_oracle = routed_oracle(file_raw, &sched, routed.as_ref(), |k, items| {
        k.file_query(&variable_label, items)
    });
    let file_label = format!("{search}/file");
    let mut file_plans = [level_plan(&file_ids, mode, serial)];
    let file_result = match drive_plans_seeded(
        &mut file_plans,
        &[&file_oracle],
        backend,
        &sched,
        &file_label,
        file_seed,
    ) {
        Ok(mut results) => results.pop().expect("one file-level plan"),
        Err(e) => return res.crashed(exec_failure(e)),
    };
    let guard = prune
        .filter(|_| file_ids.len() < all_file_ids.len())
        .map(|p| (p, &file_oracle, all_file_ids.as_slice()));
    let (file_outcome, guard_violation) = match settle_level(
        file_result,
        guard,
        Level::File,
        search.clone(),
        &cfg.trace,
        &mut res.executions,
    ) {
        Ok(settled) => settled,
        Err(reason) => return res.crashed(reason),
    };
    emit_query_spans(&sched, &file_label, &file_outcome);
    let file_name = |id: &usize| baseline.program.files[*id].name.clone();
    res.violations.extend(
        file_outcome
            .outcome
            .violations
            .iter()
            .map(|v| v.describe(file_name)),
    );
    res.violations.extend(guard_violation);
    res.files = file_outcome
        .outcome
        .found
        .iter()
        .map(|(id, value)| FileFinding {
            file_id: *id,
            file_name: file_name(id),
            value: *value,
        })
        .collect();
    check_certified_bounds(cfg, &res.files, &mut res.violations);

    if res.files.is_empty() {
        // Nothing found and nothing flagged: the mixed link cannot
        // reproduce the variability — link-step blame.
        res.outcome = if res.violations.is_empty() {
            SearchOutcome::LinkStepOnly
        } else {
            SearchOutcome::AssumptionViolated
        };
        return res;
    }

    // ---- -fPIC probes and Symbol Bisect, in chunks of found files ----
    let files = res.files.clone();
    let chunk_len = if serial { 1 } else { files.len() };
    for chunk in files.chunks(chunk_len) {
        // -fPIC probe: does the variability survive the recompile?
        let probes = match run_on(backend, chunk.len(), |i| {
            let fid = chunk[i].file_id;
            let compute = || -> Result<(f64, f64), TestError> {
                let (out, seconds) = plane.run_recipe(&ExeRecipe::PicProbe { file: fid })?;
                Ok((compare(&base_out, &out), seconds))
            };
            let answer = match &routed {
                Some((ledger, keys)) => {
                    ledger.eval_score(&keys.probe(&variable_label, fid), compute)
                }
                None => compute(),
            };
            answer.map(|(v, _)| v)
        }) {
            Ok(p) => p,
            Err(e) => return res.crashed(exec_failure(e)),
        };

        // Candidates are chosen optimistically (probe positive, exported
        // symbols present); whether a candidate's result is *consumed*
        // is decided by the fold below, which replicates the serial
        // walk. Under pruning a plan searches only the kept symbols; a
        // fully-pruned file still gets a plan so the fold has a result
        // to consume.
        let candidates: Vec<(usize, Vec<String>)> = chunk
            .iter()
            .zip(&probes)
            .filter_map(|(finding, probe)| match probe {
                Ok(v) if *v != 0.0 => {
                    let syms = baseline.program.exported_symbols_of_file(finding.file_id);
                    (!syms.is_empty()).then(|| {
                        let kept = syms
                            .into_iter()
                            .filter(|s| prune.is_none_or(|p| p.keep_symbol(s)));
                        (finding.file_id, kept.collect())
                    })
                }
                _ => None,
            })
            .collect();
        let sym_oracles: Vec<SharedOracle<'_, String>> = candidates
            .iter()
            .map(|(fid, _)| {
                let fid = *fid;
                let (base_out, plane, variable_label) = (&base_out, &plane, &variable_label);
                let raw = move |items: &[String]| -> Result<(f64, f64), TestError> {
                    let recipe = ExeRecipe::SymbolMixed {
                        file: fid,
                        items: items.to_vec(),
                    };
                    let (out, seconds) = plane.run_recipe(&recipe)?;
                    Ok((compare(base_out, &out), seconds))
                };
                routed_oracle(raw, &sched, routed.as_ref(), move |k, items| {
                    k.symbol_query(variable_label, fid, items)
                })
            })
            .collect();
        let mut sym_plans: Vec<BisectPlan<String>> = candidates
            .iter()
            .map(|(_, syms)| level_plan(syms, mode, serial))
            .collect();
        let oracle_refs: Vec<&SharedOracle<'_, String>> = sym_oracles.iter().collect();
        let sym_score = |items: &[String]| -> f64 {
            let p = cfg.prescreen.as_ref().expect("seed implies a prescreen");
            items.iter().map(|s| p.symbol_score(s)).fold(0.0, f64::max)
        };
        let sym_seed: Option<SpeculationScore<'_, String>> = cfg
            .prescreen
            .as_ref()
            .filter(|_| !serial)
            .map(|_| &sym_score as SpeculationScore<'_, String>);
        let sym_results = match drive_plans_seeded(
            &mut sym_plans,
            &oracle_refs,
            backend,
            &sched,
            &format!("{search}/symbol"),
            sym_seed,
        ) {
            Ok(r) => r,
            Err(e) => return res.crashed(exec_failure(e)),
        };
        let mut searched = candidates.iter().zip(&sym_oracles).zip(sym_results);

        // ---- Fold in file order: replicate the serial walk
        // byte-for-byte, discarding any speculative results the serial
        // path never reaches.
        for (finding, probe) in chunk.iter().zip(probes) {
            let fid = finding.file_id;
            match probe {
                // A failed probe *link* is not an execution.
                Err(TestError::Link(e)) => return res.crashed(format!("pic probe link: {e}")),
                Err(TestError::Crash(s)) => {
                    res.executions += 1;
                    probe_runs.incr(1);
                    return res.crashed(s);
                }
                Ok(v) => {
                    res.executions += 1;
                    probe_runs.incr(1);
                    if v == 0.0 {
                        res.file_level_only.push(fid);
                        continue;
                    }
                }
            }
            let all_syms = baseline.program.exported_symbols_of_file(fid);
            if all_syms.is_empty() {
                res.file_level_only.push(fid);
                continue;
            }
            let (((_, kept), oracle), sym_result) = searched
                .next()
                .expect("candidate plan for every searched file");
            if let Some(p) = prune {
                Level::Symbol.count_pruned(&cfg.trace, p, all_syms.len() - kept.len());
            }
            let sym_label = format!("{search}/{}", baseline.program.files[fid].name);
            let guard = prune
                .filter(|_| kept.len() < all_syms.len())
                .map(|p| (p, oracle, all_syms.as_slice()));
            let (p, guard_violation) = match settle_level(
                sym_result,
                guard,
                Level::Symbol,
                sym_label.clone(),
                &cfg.trace,
                &mut res.executions,
            ) {
                Ok(settled) => settled,
                Err(reason) => return res.crashed(reason),
            };
            emit_query_spans(&sched, &sym_label, &p);
            res.violations.extend(
                p.outcome
                    .violations
                    .iter()
                    .map(|v| v.describe(Clone::clone)),
            );
            res.violations.extend(guard_violation);
            if p.outcome.found.is_empty() {
                // Exported-symbol interposition cannot reproduce it
                // (e.g. variability lives in statics/inlined code).
                res.file_level_only.push(fid);
            }
            res.symbols.extend(
                p.outcome
                    .found
                    .into_iter()
                    .map(|(symbol, value)| SymbolFinding {
                        symbol,
                        file_id: fid,
                        value,
                    }),
            );
        }
    }

    if !res.violations.is_empty() {
        res.outcome = SearchOutcome::AssumptionViolated;
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_fpsim::ulp::l2_diff;
    use flit_program::kernel::Kernel;
    use flit_program::model::{Function, SimProgram, SourceFile};
    use flit_toolchain::compilation::Compilation;
    use flit_toolchain::compiler::OptLevel;
    use flit_toolchain::flags::Switch;

    /// A program with known blame structure: files 1 and 3 contain
    /// env-sensitive functions, the rest are benign.
    fn program() -> SimProgram {
        SimProgram::new(
            "hier-test",
            vec![
                SourceFile::new(
                    "io.cpp",
                    vec![
                        Function::exported("io_read", Kernel::Benign { flavor: 0 }),
                        Function::exported("io_write", Kernel::Benign { flavor: 1 }),
                    ],
                ),
                SourceFile::new(
                    "assemble.cpp",
                    vec![
                        Function::exported("assemble_mass", Kernel::DotMix { stride: 3 }),
                        Function::exported("assemble_aux", Kernel::Benign { flavor: 2 }),
                    ],
                ),
                SourceFile::new(
                    "mesh.cpp",
                    vec![Function::exported(
                        "mesh_permute",
                        Kernel::Benign { flavor: 3 },
                    )],
                ),
                SourceFile::new(
                    "solver.cpp",
                    vec![
                        Function::exported("solver_norm", Kernel::NormScale),
                        Function::exported("solver_post", Kernel::Benign { flavor: 4 }),
                    ],
                ),
            ],
        )
    }

    fn driver() -> Driver {
        Driver::new(
            "hier",
            vec![
                "io_read".into(),
                "assemble_mass".into(),
                "assemble_aux".into(),
                "mesh_permute".into(),
                "solver_norm".into(),
                "solver_post".into(),
                "io_write".into(),
            ],
            2,
            64,
        )
    }

    fn l2_compare(a: &[f64], b: &[f64]) -> f64 {
        l2_diff(a, b)
    }

    #[test]
    fn finds_both_files_and_their_symbols() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::tagged(
            &p,
            Compilation::new(
                flit_toolchain::compiler::CompilerKind::Gcc,
                OptLevel::O3,
                vec![Switch::Avx2FmaUnsafe],
            ),
            1,
        );
        let res = bisect_hierarchical(
            &base,
            &var,
            &driver(),
            &[0.5, 0.25],
            &l2_compare,
            &HierarchicalConfig::all(),
        );
        assert_eq!(
            res.outcome,
            SearchOutcome::Completed,
            "{:?}",
            res.violations
        );
        let mut file_ids: Vec<usize> = res.files.iter().map(|f| f.file_id).collect();
        file_ids.sort();
        assert_eq!(file_ids, vec![1, 3], "blamed files");
        let mut syms: Vec<&str> = res.symbols.iter().map(|s| s.symbol.as_str()).collect();
        syms.sort();
        assert_eq!(syms, vec!["assemble_mass", "solver_norm"]);
        assert!(res.verified_complete());
        // O(k log N) scale: a handful of file tests + per-file symbol
        // searches; far below exhaustive.
        assert!(res.executions < 40, "executions = {}", res.executions);
    }

    #[test]
    fn biggest_k1_finds_the_dominant_file_only() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::tagged(
            &p,
            Compilation::new(
                flit_toolchain::compiler::CompilerKind::Gcc,
                OptLevel::O3,
                vec![Switch::Avx2FmaUnsafe],
            ),
            1,
        );
        let res = bisect_hierarchical(
            &base,
            &var,
            &driver(),
            &[0.5, 0.25],
            &l2_compare,
            &HierarchicalConfig::biggest(1),
        );
        assert_eq!(res.outcome, SearchOutcome::Completed);
        assert_eq!(res.files.len(), 1);
        assert!(res.symbols.len() <= 1);
    }

    #[test]
    fn clean_compilation_is_link_step_only_shape() {
        // Baseline vs plain -O3 (value-safe): nothing to find; the
        // search reports that the mixed link shows no variability.
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::tagged(
            &p,
            Compilation::new(
                flit_toolchain::compiler::CompilerKind::Gcc,
                OptLevel::O3,
                vec![],
            ),
            1,
        );
        let res = bisect_hierarchical(
            &base,
            &var,
            &driver(),
            &[0.5],
            &l2_compare,
            &HierarchicalConfig::all(),
        );
        assert_eq!(res.outcome, SearchOutcome::LinkStepOnly);
        assert!(res.files.is_empty());
    }

    #[test]
    fn extended_precision_blame_stops_at_file_level() {
        // x87 extended-precision variability washes out under the -fPIC
        // probe: the file is reported, no symbols.
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::tagged(
            &p,
            Compilation::new(
                flit_toolchain::compiler::CompilerKind::Gcc,
                OptLevel::O2,
                vec![Switch::FpMath387],
            ),
            1,
        );
        let res = bisect_hierarchical(
            &base,
            &var,
            &driver(),
            &[0.5],
            &l2_compare,
            &HierarchicalConfig::all(),
        );
        assert_eq!(res.outcome, SearchOutcome::Completed);
        assert!(!res.files.is_empty());
        assert!(res.symbols.is_empty(), "symbols: {:?}", res.symbols);
        assert_eq!(
            res.file_level_only.len(),
            res.files.len(),
            "every found file should be file-level-only under x87 blame"
        );
    }

    #[test]
    fn cached_search_matches_uncached_and_reuses_builds() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::tagged(
            &p,
            Compilation::new(
                flit_toolchain::compiler::CompilerKind::Gcc,
                OptLevel::O3,
                vec![Switch::Avx2FmaUnsafe],
            ),
            1,
        );
        let plain = bisect_hierarchical(
            &base,
            &var,
            &driver(),
            &[0.5, 0.25],
            &l2_compare,
            &HierarchicalConfig::all(),
        );
        let ctx = BuildCtx::cached();
        let cached = bisect_hierarchical(
            &base,
            &var,
            &driver(),
            &[0.5, 0.25],
            &l2_compare,
            &HierarchicalConfig::all().with_ctx(ctx.clone()),
        );
        assert_eq!(cached.outcome, plain.outcome);
        assert_eq!(cached.files, plain.files);
        assert_eq!(cached.symbols, plain.symbols);
        assert_eq!(cached.executions, plain.executions);
        let first = ctx.stats();
        assert!(first.object_cache_hits > 0, "{first:?}");

        // A repeated search through the same context is served almost
        // entirely from the link memo.
        let again = bisect_hierarchical(
            &base,
            &var,
            &driver(),
            &[0.5, 0.25],
            &l2_compare,
            &HierarchicalConfig::all().with_ctx(ctx.clone()),
        );
        assert_eq!(again.files, plain.files);
        let second = ctx.stats();
        assert_eq!(
            second.links, first.links,
            "rerun must not perform any new link"
        );
        assert!(second.link_memo_hits > first.link_memo_hits);
    }

    #[test]
    fn executions_are_counted_and_deterministic() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::tagged(
            &p,
            Compilation::new(
                flit_toolchain::compiler::CompilerKind::Gcc,
                OptLevel::O3,
                vec![Switch::Avx2FmaUnsafe],
            ),
            1,
        );
        let r1 = bisect_hierarchical(
            &base,
            &var,
            &driver(),
            &[0.5, 0.25],
            &l2_compare,
            &HierarchicalConfig::all(),
        );
        let r2 = bisect_hierarchical(
            &base,
            &var,
            &driver(),
            &[0.5, 0.25],
            &l2_compare,
            &HierarchicalConfig::all(),
        );
        assert_eq!(r1.executions, r2.executions);
        assert_eq!(r1.files, r2.files);
        assert_eq!(r1.symbols, r2.symbols);
    }

    /// The parallel search must be indistinguishable from the serial one
    /// in its entire result struct, at any worker count.
    #[test]
    fn parallel_hierarchy_matches_serial_at_every_width() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::tagged(
            &p,
            Compilation::new(
                flit_toolchain::compiler::CompilerKind::Gcc,
                OptLevel::O3,
                vec![Switch::Avx2FmaUnsafe],
            ),
            1,
        );
        for cfg in [HierarchicalConfig::all(), HierarchicalConfig::biggest(1)] {
            let serial =
                bisect_hierarchical(&base, &var, &driver(), &[0.5, 0.25], &l2_compare, &cfg);
            for jobs in [1, 2, 8] {
                let par = bisect_hierarchical_parallel(
                    &base,
                    &var,
                    &driver(),
                    &[0.5, 0.25],
                    &l2_compare,
                    &cfg,
                    &flit_exec::ThreadsBackend::new(jobs),
                );
                assert_eq!(par, serial, "jobs={jobs} k={:?}", cfg.k);
            }
        }
    }

    #[test]
    fn parallel_hierarchy_matches_serial_on_degenerate_shapes() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let exec = flit_exec::ThreadsBackend::new(8);
        // Clean compilation: LinkStepOnly, no files.
        let clean = Build::tagged(
            &p,
            Compilation::new(
                flit_toolchain::compiler::CompilerKind::Gcc,
                OptLevel::O3,
                vec![],
            ),
            1,
        );
        let serial = bisect_hierarchical(
            &base,
            &clean,
            &driver(),
            &[0.5],
            &l2_compare,
            &HierarchicalConfig::all(),
        );
        assert_eq!(serial.outcome, SearchOutcome::LinkStepOnly);
        let par = bisect_hierarchical_parallel(
            &base,
            &clean,
            &driver(),
            &[0.5],
            &l2_compare,
            &HierarchicalConfig::all(),
            &exec,
        );
        assert_eq!(par, serial);

        // x87 blame: found files wash out under the -fPIC probe, so the
        // probe/file-level-only fold must agree too.
        let x87 = Build::tagged(
            &p,
            Compilation::new(
                flit_toolchain::compiler::CompilerKind::Gcc,
                OptLevel::O2,
                vec![Switch::FpMath387],
            ),
            1,
        );
        let serial = bisect_hierarchical(
            &base,
            &x87,
            &driver(),
            &[0.5],
            &l2_compare,
            &HierarchicalConfig::all(),
        );
        assert!(!serial.files.is_empty());
        let par = bisect_hierarchical_parallel(
            &base,
            &x87,
            &driver(),
            &[0.5],
            &l2_compare,
            &HierarchicalConfig::all(),
            &exec,
        );
        assert_eq!(par, serial);
    }

    /// The `bisect.*` counters and level spans — the accounting the
    /// paper reports — must also match the serial trace exactly; only
    /// `exec.*` scheduling telemetry may differ.
    #[test]
    fn parallel_hierarchy_emits_identical_bisect_counters() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::tagged(
            &p,
            Compilation::new(
                flit_toolchain::compiler::CompilerKind::Gcc,
                OptLevel::O3,
                vec![Switch::Avx2FmaUnsafe],
            ),
            1,
        );
        let counters = |trace: &flit_trace::TraceSink| -> Vec<(String, u64)> {
            trace
                .registry()
                .expect("enabled")
                .snapshot()
                .into_iter()
                .filter(|(name, _)| name.starts_with("bisect."))
                .collect()
        };
        let serial_trace = flit_trace::TraceSink::enabled();
        let serial = bisect_hierarchical(
            &base,
            &var,
            &driver(),
            &[0.5, 0.25],
            &l2_compare,
            &HierarchicalConfig::all().with_trace(serial_trace.clone()),
        );
        let par_trace = flit_trace::TraceSink::enabled();
        let par = bisect_hierarchical_parallel(
            &base,
            &var,
            &driver(),
            &[0.5, 0.25],
            &l2_compare,
            &HierarchicalConfig::all().with_trace(par_trace.clone()),
            &flit_exec::ThreadsBackend::new(4),
        );
        assert_eq!(par, serial);
        assert_eq!(counters(&par_trace), counters(&serial_trace));
        // The parallel run additionally reports scheduling telemetry;
        // one worker has nothing to schedule, so its trace has none.
        let waves = par_trace
            .registry()
            .unwrap()
            .snapshot()
            .get("exec.waves")
            .copied()
            .unwrap_or(0);
        assert!(waves > 0, "parallel search should record its waves");
        let width1 = serial_trace.snapshot();
        assert!(
            width1
                .counters()
                .keys()
                .all(|name| name.starts_with("bisect.")),
            "{:?}",
            width1.counters()
        );
        assert_eq!(
            width1.phases(),
            vec![phase::BISECT_FILE, phase::BISECT_SYMBOL]
        );
    }

    /// A panicking Test unwinds out of the search with its own message
    /// at every width — it is a bug in the metric, never reported as a
    /// crashed mixed executable.
    #[test]
    fn a_panicking_test_unwinds_at_every_width() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::tagged(&p, unsafe_variable(), 1);
        let exploding = |_: &[f64], _: &[f64]| -> f64 { panic!("metric exploded") };
        for jobs in [1, 4] {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                bisect_hierarchical_parallel(
                    &base,
                    &var,
                    &driver(),
                    &[0.5, 0.25],
                    &exploding,
                    &HierarchicalConfig::all(),
                    &flit_exec::ThreadsBackend::new(jobs),
                )
            }))
            .expect_err("the panic must reach the caller");
            assert_eq!(
                flit_exec::executor::panic_message(unwound.as_ref()),
                "metric exploded",
                "jobs={jobs}"
            );
        }
    }

    fn unsafe_variable() -> Compilation {
        Compilation::new(
            flit_toolchain::compiler::CompilerKind::Gcc,
            OptLevel::O3,
            vec![Switch::Avx2FmaUnsafe],
        )
    }

    /// Honest certificates for the fixture pair, wrapped in a pruning
    /// prescreen — exactly what `flit bisect --prune certified` builds.
    fn certified_prescreen(p: &SimProgram, var: &Compilation) -> Prescreen {
        let certs = flit_absint::certify_pair(
            p,
            p,
            &driver(),
            &Compilation::baseline(),
            var,
            flit_toolchain::compiler::CompilerKind::Gcc,
        );
        Prescreen {
            prune: true,
            certificates: Some(certs),
            ..Prescreen::default()
        }
    }

    /// Soundness of the certified prune: the found sets are byte-
    /// identical to the unpruned search — at every width — while the
    /// search spends strictly fewer executions.
    #[test]
    fn certified_prune_is_byte_identical_and_strictly_cheaper() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::tagged(&p, unsafe_variable(), 1);
        let unpruned = bisect_hierarchical(
            &base,
            &var,
            &driver(),
            &[0.5, 0.25],
            &l2_compare,
            &HierarchicalConfig::all(),
        );
        let cfg =
            HierarchicalConfig::all().with_prescreen(certified_prescreen(&p, &var.compilation));
        let pruned = bisect_hierarchical(&base, &var, &driver(), &[0.5, 0.25], &l2_compare, &cfg);
        assert_eq!(
            pruned.outcome,
            SearchOutcome::Completed,
            "{:?}",
            pruned.violations
        );
        assert!(pruned.violations.is_empty(), "{:?}", pruned.violations);
        assert_eq!(pruned.files, unpruned.files, "found files must not change");
        assert_eq!(
            pruned.symbols, unpruned.symbols,
            "found symbols must not change"
        );
        assert_eq!(pruned.file_level_only, unpruned.file_level_only);
        assert!(
            pruned.executions < unpruned.executions,
            "certified prune must be a strict reduction: {} vs {}",
            pruned.executions,
            unpruned.executions
        );
        for jobs in [1, 8] {
            let par = bisect_hierarchical_parallel(
                &base,
                &var,
                &driver(),
                &[0.5, 0.25],
                &l2_compare,
                &cfg,
                &flit_exec::ThreadsBackend::new(jobs),
            );
            assert_eq!(par, pruned, "jobs={jobs}");
        }
    }

    /// A certificate that wrongly claims `Invariant` for a real culprit
    /// must surface as a structured assumption violation (the residual
    /// audit), never as a silently dropped item.
    #[test]
    fn dishonest_invariant_certificate_fails_loudly() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::tagged(&p, unsafe_variable(), 1);
        let mut screen = certified_prescreen(&p, &var.compilation);
        // File 1 (assemble.cpp) genuinely diverges under this pair;
        // forge an Invariant certificate for it.
        screen.certificates.as_mut().unwrap().files[1] = flit_absint::Certificate::Invariant;
        let cfg = HierarchicalConfig::all().with_prescreen(screen);
        let res = bisect_hierarchical(&base, &var, &driver(), &[0.5, 0.25], &l2_compare, &cfg);
        assert_eq!(res.outcome, SearchOutcome::AssumptionViolated);
        assert!(
            res.violations
                .iter()
                .any(|v| v.contains("certified-prune audit failed at file level")),
            "expected a loud audit failure, got {:?}",
            res.violations
        );
        for jobs in [1, 8] {
            let par = bisect_hierarchical_parallel(
                &base,
                &var,
                &driver(),
                &[0.5, 0.25],
                &l2_compare,
                &cfg,
                &flit_exec::ThreadsBackend::new(jobs),
            );
            assert_eq!(par, res, "jobs={jobs}");
        }
    }

    /// A dishonest `Invariant` on a culprit *symbol* is caught by the
    /// symbol-level residual audit of its file.
    #[test]
    fn dishonest_symbol_certificate_fails_loudly() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::tagged(&p, unsafe_variable(), 1);
        let mut screen = certified_prescreen(&p, &var.compilation);
        screen
            .certificates
            .as_mut()
            .unwrap()
            .symbols
            .insert("solver_norm".into(), flit_absint::Certificate::Invariant);
        let cfg = HierarchicalConfig::all().with_prescreen(screen);
        let res = bisect_hierarchical(&base, &var, &driver(), &[0.5, 0.25], &l2_compare, &cfg);
        assert_eq!(res.outcome, SearchOutcome::AssumptionViolated);
        assert!(
            res.violations
                .iter()
                .any(|v| v.contains("certified-prune audit failed at symbol level")),
            "expected a loud audit failure, got {:?}",
            res.violations
        );
        let par = bisect_hierarchical_parallel(
            &base,
            &var,
            &driver(),
            &[0.5, 0.25],
            &l2_compare,
            &cfg,
            &flit_exec::ThreadsBackend::new(8),
        );
        assert_eq!(par, res);
    }

    /// A finite bound contradicted by the observed file divergence is
    /// caught by the zero-execution cross-check of the found set.
    #[test]
    fn contradicted_bound_certificate_fails_loudly() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::tagged(&p, unsafe_variable(), 1);
        let mut screen = certified_prescreen(&p, &var.compilation);
        // Vastly too tight: the observed divergence of file 1 is many
        // orders of magnitude above this.
        screen.certificates.as_mut().unwrap().files[1] = flit_absint::Certificate::Bounded(1e-300);
        let cfg = HierarchicalConfig::all().with_prescreen(screen);
        let res = bisect_hierarchical(&base, &var, &driver(), &[0.5, 0.25], &l2_compare, &cfg);
        assert_eq!(res.outcome, SearchOutcome::AssumptionViolated);
        assert!(
            res.violations
                .iter()
                .any(|v| v.contains("certified bound violated for file assemble.cpp")),
            "expected a bound violation, got {:?}",
            res.violations
        );
        // The finding itself is still reported — loud, not lossy.
        assert!(res.files.iter().any(|f| f.file_id == 1));
        let par = bisect_hierarchical_parallel(
            &base,
            &var,
            &driver(),
            &[0.5, 0.25],
            &l2_compare,
            &cfg,
            &flit_exec::ThreadsBackend::new(8),
        );
        assert_eq!(par, res);
    }

    /// An all-Invariant pair (value-safe flags only) prunes the whole
    /// space and still reports the unpruned `LinkStepOnly` shape.
    #[test]
    fn certified_prune_handles_a_fully_invariant_pair() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let clean = Compilation::new(
            flit_toolchain::compiler::CompilerKind::Gcc,
            OptLevel::O3,
            vec![],
        );
        let var = Build::tagged(&p, clean.clone(), 1);
        let unpruned = bisect_hierarchical(
            &base,
            &var,
            &driver(),
            &[0.5],
            &l2_compare,
            &HierarchicalConfig::all(),
        );
        assert_eq!(unpruned.outcome, SearchOutcome::LinkStepOnly);
        let cfg = HierarchicalConfig::all().with_prescreen(certified_prescreen(&p, &clean));
        let pruned = bisect_hierarchical(&base, &var, &driver(), &[0.5], &l2_compare, &cfg);
        assert_eq!(pruned.outcome, SearchOutcome::LinkStepOnly);
        assert!(pruned.violations.is_empty(), "{:?}", pruned.violations);
        assert!(pruned.executions <= unpruned.executions);
        let par = bisect_hierarchical_parallel(
            &base,
            &var,
            &driver(),
            &[0.5],
            &l2_compare,
            &cfg,
            &flit_exec::ThreadsBackend::new(8),
        );
        assert_eq!(par, pruned);
    }

    /// The `absint.*` accounting: pruned-item and audit counters are
    /// emitted (not the lint ones), and the parallel trace agrees with
    /// the serial trace exactly.
    #[test]
    fn certified_prune_emits_absint_counters_identically() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::tagged(&p, unsafe_variable(), 1);
        let screen = certified_prescreen(&p, &var.compilation);
        // `lint.speculation.skipped` is planner scheduling telemetry
        // (parallel-only, like `exec.*`); parity is over `absint.*`.
        let snap = |trace: &flit_trace::TraceSink| -> Vec<(String, u64)> {
            trace
                .registry()
                .expect("enabled")
                .snapshot()
                .into_iter()
                .filter(|(name, _)| name.starts_with("absint."))
                .collect()
        };
        let serial_trace = flit_trace::TraceSink::enabled();
        let serial = bisect_hierarchical(
            &base,
            &var,
            &driver(),
            &[0.5, 0.25],
            &l2_compare,
            &HierarchicalConfig::all()
                .with_prescreen(screen.clone())
                .with_trace(serial_trace.clone()),
        );
        assert_eq!(serial.outcome, SearchOutcome::Completed);
        let counters: std::collections::BTreeMap<String, u64> =
            snap(&serial_trace).into_iter().collect();
        // Files 0 and 2 are certified Invariant and pruned.
        assert_eq!(counters.get("absint.pruned.files"), Some(&2));
        // One file-level audit plus one per symbol-searched file.
        assert!(counters.get("absint.prune.audits").copied().unwrap_or(0) >= 1);
        // Certified mode must not book lint-prune accounting.
        let full = serial_trace.registry().expect("enabled").snapshot();
        assert_eq!(full.get("lint.pruned.files"), None);
        assert_eq!(full.get("lint.prune.verifications"), None);

        let par_trace = flit_trace::TraceSink::enabled();
        let par = bisect_hierarchical_parallel(
            &base,
            &var,
            &driver(),
            &[0.5, 0.25],
            &l2_compare,
            &HierarchicalConfig::all()
                .with_prescreen(screen)
                .with_trace(par_trace.clone()),
            &flit_exec::ThreadsBackend::new(4),
        );
        assert_eq!(par, serial);
        assert_eq!(snap(&par_trace), snap(&serial_trace));
    }
}
