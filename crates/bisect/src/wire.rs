//! The coordinator/worker wire format and the [`QueryPlane`]
//! abstraction over *where* a search's Test queries evaluate.
//!
//! A hierarchical (or perf) search issues exactly five kinds of
//! executable recipes ([`ExeRecipe`]); every compute closure in
//! `hierarchy.rs` and `perf.rs` is one recipe plus a coordinator-side
//! reduction (the comparison metric, Welch statistics, counters). The
//! [`QueryPlane`] trait captures precisely the part that can move to
//! another process: *build the recipe's executable and run (or time)
//! it*, returning raw vectors. Everything downstream of the raw
//! vectors — `compare`, speedup reports, ledger accounting — stays in
//! the coordinator, which is what makes the process backend
//! byte-identical to the serial search.
//!
//! Two implementations:
//! - [`LocalPlane`]: evaluates in-process against borrowed [`Build`]s,
//!   with the exact per-recipe error mappings the serial closures have
//!   always used.
//! - [`RemotePlane`]: serializes the search task once ([`WireTask`]),
//!   ships each query as a [`WireRequest`] through an
//!   [`ExecBackend::dispatch`], and decodes the answer from the
//!   checkpoint-journal answer schema ([`JournalAnswer`] doubles as
//!   the wire answer format).
//!
//! ## Programs travel once per worker
//!
//! A program is by far the largest part of a task (about 0.5 MB for
//! MFEM), and every search of a workflow runs the same one. So a
//! [`RemotePlane`] task names its programs by content digest
//! ([`ProgramSlot::Ref`]) and carries only the search's own context.
//! A worker keeps a process-wide program table; a reference it cannot
//! resolve is answered with a [`ProgramMiss`], and the plane re-sends
//! the same query with a self-contained task (each distinct program
//! [`ProgramSlot::Inline`] once, built once per search), whose
//! programs the worker interns. The miss travels through the same
//! [`ExecBackend::dispatch`] as every query, so any forwarding backend
//! carries it unchanged.
//!
//! The worker half is [`evaluate`]: given a task digest, a serialized
//! task body, and a serialized request, produce a serialized answer.
//! `flit worker` plugs this into `flit_exec::serve_worker`.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use flit_exec::{ExecBackend, ExecError, QueryEnvelope};
use flit_program::build::{
    file_mixed_executable_in, pic_probe_executable_in, symbol_mixed_executable_in, Build,
};
use flit_program::{Driver, Engine, RunError, SimProgram};
use flit_toolchain::cache::{BuildCtx, RecipeHasher};
use flit_toolchain::compilation::Compilation;
use flit_toolchain::compiler::CompilerKind;

use crate::journal::JournalAnswer;
use crate::test_fn::TestError;

/// Which mixed executable a query builds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExeRecipe {
    /// The all-baseline executable (the trusted reference).
    Baseline,
    /// The all-variable (candidate) executable.
    Candidate,
    /// File-mixed: the given file ids come from the variable build,
    /// everything else from the baseline.
    FileMixed {
        /// Variable file ids (canonically sorted).
        items: Vec<usize>,
    },
    /// The `-fPIC` interposition probe for one file.
    PicProbe {
        /// The probed file id.
        file: usize,
    },
    /// Symbol-mixed within one file: the given symbols come from the
    /// variable build.
    SymbolMixed {
        /// The file under symbol search.
        file: usize,
        /// Variable symbol names (canonically sorted).
        items: Vec<String>,
    },
}

/// One query as it crosses the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireRequest {
    /// Build the recipe's executable and run it once, returning the
    /// output vector and simulated seconds.
    Run {
        /// The executable to build.
        recipe: ExeRecipe,
    },
    /// Build the recipe's executable and draw timing samples from its
    /// profile under the seeded noise model.
    Time {
        /// The executable to build.
        recipe: ExeRecipe,
        /// Noise-model seed.
        seed: u64,
        /// Number of samples to draw.
        samples: u32,
    },
}

/// How a task carries one program.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ProgramSlot {
    /// The whole program: the task is self-contained.
    Inline {
        /// The program.
        program: SimProgram,
    },
    /// A program the worker interned earlier, named by its
    /// [`SimProgram::content_digest`].
    Ref {
        /// The program's content digest.
        digest: String,
    },
}

/// Everything a worker needs to evaluate queries for one search:
/// both programs, both compilations (with build tags), the driver, the
/// input (bit-exact), and the link driver. Registered once per
/// (worker, task digest); queries reference the digest only.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireTask {
    /// The baseline program.
    pub baseline_program: ProgramSlot,
    /// The variable program (differs from the baseline in the
    /// injection studies; usually identical).
    pub variable_program: ProgramSlot,
    /// The baseline compilation.
    pub baseline_compilation: Compilation,
    /// The variable compilation.
    pub variable_compilation: Compilation,
    /// Build tag of the baseline build.
    pub baseline_tag: u32,
    /// Build tag of the variable build.
    pub variable_tag: u32,
    /// The test driver.
    pub driver: Driver,
    /// `f64::to_bits` of each input element (bit-exact round trip).
    pub input_bits: Vec<u64>,
    /// The linking compiler (the Intel link-step effect).
    pub link_driver: CompilerKind,
}

impl WireTask {
    /// Capture a self-contained search task from its in-process pieces:
    /// both programs travel inline.
    pub fn capture(
        baseline: &Build,
        variable: &Build,
        driver: &Driver,
        input: &[f64],
        link_driver: CompilerKind,
    ) -> Self {
        let inline = |b: &Build| ProgramSlot::Inline {
            program: b.program.clone(),
        };
        Self::with_slots(baseline, variable, driver, input, link_driver, inline)
    }

    /// Capture a search task whose programs travel by content digest
    /// (a few hundred bytes, whatever the program size). A worker
    /// evaluates it only once it has interned both programs.
    pub fn capture_refs(
        baseline: &Build,
        variable: &Build,
        driver: &Driver,
        input: &[f64],
        link_driver: CompilerKind,
    ) -> Self {
        let by_ref = |b: &Build| ProgramSlot::Ref {
            digest: b.program.content_digest().to_string(),
        };
        Self::with_slots(baseline, variable, driver, input, link_driver, by_ref)
    }

    fn with_slots(
        baseline: &Build,
        variable: &Build,
        driver: &Driver,
        input: &[f64],
        link_driver: CompilerKind,
        slot: impl Fn(&Build) -> ProgramSlot,
    ) -> Self {
        WireTask {
            baseline_program: slot(baseline),
            variable_program: slot(variable),
            baseline_compilation: baseline.compilation.clone(),
            variable_compilation: variable.compilation.clone(),
            baseline_tag: baseline.tag,
            variable_tag: variable.tag,
            driver: driver.clone(),
            input_bits: input.iter().map(|x| x.to_bits()).collect(),
            link_driver,
        }
    }

    /// Serialize to the wire (the task body of a [`QueryEnvelope`]).
    pub fn to_wire(&self) -> String {
        serde_json::to_string(self).expect("wire task serializes")
    }

    /// Stable digest of a serialized task body.
    pub fn digest_of(body: &str) -> String {
        let mut h = RecipeHasher::new();
        h.write_str(body);
        format!("{:016x}", h.finish())
    }
}

/// A serialized task and its digest: what a [`QueryEnvelope`] carries.
struct EncodedTask {
    digest: String,
    body: String,
}

impl EncodedTask {
    fn new(task: &WireTask) -> Self {
        let body = task.to_wire();
        EncodedTask {
            digest: WireTask::digest_of(&body),
            body,
        }
    }
}

/// A worker's answer to a task naming programs its table lacks. Not a
/// [`JournalAnswer`]: it never reaches the ledger or a journal; the
/// coordinator answers it by re-sending the query with the
/// self-contained task.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgramMiss {
    /// Content digests of the programs the worker has not interned.
    pub missing: Vec<String>,
}

/// What a worker answers: a journal answer, or a program miss.
enum Reply {
    Answer(JournalAnswer),
    Miss(ProgramMiss),
}

/// Where a search's Test queries evaluate. Both methods take the
/// recipe only; the plane owns (or transports) the task context.
pub trait QueryPlane: Sync {
    /// Build and run once: `(output vector, simulated seconds)`.
    fn run_recipe(&self, recipe: &ExeRecipe) -> Result<(Vec<f64>, f64), TestError>;

    /// Build and time: the drawn sample vector.
    fn time_recipe(
        &self,
        recipe: &ExeRecipe,
        seed: u64,
        samples: u32,
    ) -> Result<Vec<f64>, TestError>;
}

fn run_to_test_error(e: RunError) -> TestError {
    match e {
        RunError::Crash(s) => TestError::Crash(s),
        RunError::MissingSymbol(s) => TestError::Link(format!("undefined symbol `{s}`")),
        e @ RunError::CorruptBuildTag { .. } => TestError::Link(e.to_string()),
        // A real binary overflows its stack: a crash.
        e @ RunError::CallDepthOverflow(_) => TestError::Crash(e.to_string()),
    }
}

/// In-process evaluation against borrowed builds — the historical
/// serial semantics, error mappings included:
///
/// - reference executables (`Baseline`/`Candidate`) map *every* run
///   failure to `Crash` (a reference that cannot run aborts the
///   search);
/// - mixed executables map run failures through the mixed-run rules
///   (`MissingSymbol`/`CorruptBuildTag` are link-shaped);
/// - the `-fPIC` probe keeps real crash messages verbatim and treats
///   everything else as a crash.
pub struct LocalPlane<'a> {
    /// The trusted baseline build.
    pub baseline: &'a Build<'a>,
    /// The variable (candidate) build.
    pub variable: &'a Build<'a>,
    /// The test driver.
    pub driver: &'a Driver,
    /// The test input.
    pub input: &'a [f64],
    /// The linking compiler.
    pub link_driver: CompilerKind,
    /// The build cache.
    pub ctx: &'a BuildCtx,
}

impl<'a> LocalPlane<'a> {
    fn executable(
        &self,
        recipe: &ExeRecipe,
    ) -> Result<Arc<flit_toolchain::linker::Executable>, TestError> {
        match recipe {
            ExeRecipe::Baseline => self
                .baseline
                .executable_in(self.ctx)
                .map_err(|e| TestError::Link(e.to_string())),
            ExeRecipe::Candidate => self
                .variable
                .executable_in(self.ctx)
                .map_err(|e| TestError::Link(e.to_string())),
            ExeRecipe::FileMixed { items } => {
                let set: BTreeSet<usize> = items.iter().copied().collect();
                file_mixed_executable_in(
                    self.baseline,
                    self.variable,
                    &set,
                    self.link_driver,
                    self.ctx,
                )
                .map_err(|e| TestError::Link(e.to_string()))
            }
            ExeRecipe::PicProbe { file } => pic_probe_executable_in(
                self.baseline,
                self.variable,
                *file,
                self.link_driver,
                self.ctx,
            )
            .map_err(|e| TestError::Link(e.to_string())),
            ExeRecipe::SymbolMixed { file, items } => {
                let set: BTreeSet<String> = items.iter().cloned().collect();
                symbol_mixed_executable_in(
                    self.baseline,
                    self.variable,
                    *file,
                    &set,
                    self.link_driver,
                    self.ctx,
                )
                .map_err(|e| TestError::Link(e.to_string()))
            }
        }
    }

    fn map_run_error(recipe: &ExeRecipe, e: RunError) -> TestError {
        match recipe {
            // A reference executable that cannot run is always a crash.
            ExeRecipe::Baseline | ExeRecipe::Candidate => TestError::Crash(e.to_string()),
            // The probe keeps real crash messages verbatim; anything
            // else (a symbol the probe link dropped) is still a crash
            // at probe level.
            ExeRecipe::PicProbe { .. } => match e {
                RunError::Crash(s) => TestError::Crash(s),
                e => TestError::Crash(e.to_string()),
            },
            ExeRecipe::FileMixed { .. } | ExeRecipe::SymbolMixed { .. } => run_to_test_error(e),
        }
    }
}

impl QueryPlane for LocalPlane<'_> {
    fn run_recipe(&self, recipe: &ExeRecipe) -> Result<(Vec<f64>, f64), TestError> {
        let exe = self.executable(recipe)?;
        let out = Engine::with_variant(self.baseline.program, self.variable.program, &exe)
            .run(self.driver, self.input)
            .map_err(|e| Self::map_run_error(recipe, e))?;
        Ok((out.output, out.seconds))
    }

    fn time_recipe(
        &self,
        recipe: &ExeRecipe,
        seed: u64,
        samples: u32,
    ) -> Result<Vec<f64>, TestError> {
        let exe = self.executable(recipe)?;
        let (_, prof) = Engine::with_variant(self.baseline.program, self.variable.program, &exe)
            .run_with_profile(self.driver, self.input)
            .map_err(|e| Self::map_run_error(recipe, e))?;
        Ok(prof.samples(seed, samples))
    }
}

/// Encode a plane result as the wire answer payload (the journal
/// answer schema, bit-exact floats).
fn encode_answer(result: Result<(Vec<f64>, f64), TestError>) -> JournalAnswer {
    match result {
        Ok((output, seconds)) => JournalAnswer::Output {
            output_bits: output.iter().map(|x| x.to_bits()).collect(),
            seconds_bits: seconds.to_bits(),
        },
        Err(TestError::Crash(message)) => JournalAnswer::Crash { message },
        Err(TestError::Link(message)) => JournalAnswer::Link { message },
    }
}

fn decode_answer(answer: JournalAnswer) -> Result<(Vec<f64>, f64), TestError> {
    match answer {
        JournalAnswer::Output {
            output_bits,
            seconds_bits,
        } => Ok((
            output_bits.into_iter().map(f64::from_bits).collect(),
            f64::from_bits(seconds_bits),
        )),
        JournalAnswer::Score {
            score_bits,
            seconds_bits,
        } => Ok((
            vec![f64::from_bits(score_bits)],
            f64::from_bits(seconds_bits),
        )),
        JournalAnswer::Crash { message } => Err(TestError::Crash(message)),
        JournalAnswer::Link { message } => Err(TestError::Link(message)),
    }
}

/// Evaluation through a remote [`ExecBackend`]: the task is serialized
/// once, each query ships as an envelope, and answers decode from the
/// journal answer schema. Programs travel by content digest; a worker
/// that lacks one answers with a [`ProgramMiss`], and the query is sent
/// again with the self-contained task, built on the first miss. Backend
/// transport failures (a query that exhausted its retry budget)
/// surface as `TestError::Crash` with the structured backend message,
/// which aborts the search the same way a crashed mixed executable
/// does.
pub struct RemotePlane<'a> {
    backend: Arc<dyn ExecBackend>,
    baseline: &'a SimProgram,
    variable: &'a SimProgram,
    /// The by-reference task; `by_ref` is its encoding.
    task: WireTask,
    by_ref: EncodedTask,
    inline: OnceLock<EncodedTask>,
}

impl<'a> RemotePlane<'a> {
    /// Capture and serialize the by-reference search task for
    /// `backend`.
    pub fn new(
        backend: Arc<dyn ExecBackend>,
        baseline: &'a Build<'a>,
        variable: &'a Build<'a>,
        driver: &'a Driver,
        input: &'a [f64],
        link_driver: CompilerKind,
    ) -> Self {
        let task = WireTask::capture_refs(baseline, variable, driver, input, link_driver);
        RemotePlane {
            backend,
            baseline: baseline.program,
            variable: variable.program,
            by_ref: EncodedTask::new(&task),
            task,
            inline: OnceLock::new(),
        }
    }

    /// The task a miss is answered with: each distinct program travels
    /// inline once. A variable program equal to the baseline stays a
    /// reference, which the worker resolves against the baseline it
    /// interns first.
    fn self_contained_task(&self) -> WireTask {
        let mut task = self.task.clone();
        task.baseline_program = ProgramSlot::Inline {
            program: self.baseline.clone(),
        };
        if self.variable.content_digest() != self.baseline.content_digest() {
            task.variable_program = ProgramSlot::Inline {
                program: self.variable.clone(),
            };
        }
        task
    }

    fn send(&self, task: &EncodedTask, spec: &str) -> Result<Reply, TestError> {
        let envelope = QueryEnvelope {
            task_digest: task.digest.clone(),
            task: task.body.clone(),
            spec: spec.to_string(),
        };
        let answer = self.backend.dispatch(&envelope).map_err(|e| match e {
            ExecError::Backend { message } => TestError::Crash(message),
            other => TestError::Crash(other.to_string()),
        })?;
        if let Ok(answer) = serde_json::from_str(&answer.payload) {
            return Ok(Reply::Answer(answer));
        }
        serde_json::from_str(&answer.payload)
            .map(Reply::Miss)
            .map_err(|e| TestError::Crash(format!("unparseable wire answer: {e}")))
    }

    fn dispatch(&self, request: &WireRequest) -> Result<(Vec<f64>, f64), TestError> {
        let spec = serde_json::to_string(request).expect("wire request serializes");
        if let Reply::Answer(answer) = self.send(&self.by_ref, &spec)? {
            return decode_answer(answer);
        }
        let inline = self
            .inline
            .get_or_init(|| EncodedTask::new(&self.self_contained_task()));
        match self.send(inline, &spec)? {
            Reply::Answer(answer) => decode_answer(answer),
            Reply::Miss(miss) => Err(TestError::Crash(format!(
                "worker reported programs {:?} missing from a self-contained task",
                miss.missing
            ))),
        }
    }
}

impl QueryPlane for RemotePlane<'_> {
    fn run_recipe(&self, recipe: &ExeRecipe) -> Result<(Vec<f64>, f64), TestError> {
        self.dispatch(&WireRequest::Run {
            recipe: recipe.clone(),
        })
    }

    fn time_recipe(
        &self,
        recipe: &ExeRecipe,
        seed: u64,
        samples: u32,
    ) -> Result<Vec<f64>, TestError> {
        self.dispatch(&WireRequest::Time {
            recipe: recipe.clone(),
            seed,
            samples,
        })
        .map(|(samples, _)| samples)
    }
}

/// A task as a worker holds it: the programs are shared entries of the
/// program table, and `task`'s slots are references.
struct WorkerTask {
    baseline: Arc<SimProgram>,
    variable: Arc<SimProgram>,
    task: WireTask,
    input: Vec<f64>,
}

/// Worker-side task cache: parsed tasks keyed by task digest.
fn worker_tasks() -> &'static Mutex<HashMap<String, Arc<WorkerTask>>> {
    static TASKS: OnceLock<Mutex<HashMap<String, Arc<WorkerTask>>>> = OnceLock::new();
    TASKS.get_or_init(Default::default)
}

/// Worker-side program table: every program this process has seen,
/// keyed by the content digest it computed itself.
fn worker_programs() -> &'static Mutex<HashMap<String, Arc<SimProgram>>> {
    static PROGRAMS: OnceLock<Mutex<HashMap<String, Arc<SimProgram>>>> = OnceLock::new();
    PROGRAMS.get_or_init(Default::default)
}

/// One process-wide build cache, so a worker amortizes object files and
/// links across queries exactly like the coordinator would.
fn worker_ctx() -> &'static BuildCtx {
    static CTX: OnceLock<BuildCtx> = OnceLock::new();
    CTX.get_or_init(BuildCtx::cached)
}

/// Resolve a slot against the program table, leaving a reference in
/// its place: an inline program is interned (or, when the table holds
/// it already, dropped for the shared copy); a reference the table
/// lacks is `Err(digest)`.
fn intern(slot: &mut ProgramSlot) -> Result<Arc<SimProgram>, String> {
    let digest = match slot {
        ProgramSlot::Inline { program } => program.content_digest().to_string(),
        ProgramSlot::Ref { digest } => digest.clone(),
    };
    let taken = std::mem::replace(
        slot,
        ProgramSlot::Ref {
            digest: digest.clone(),
        },
    );
    let mut table = worker_programs().lock().expect("program table poisoned");
    match taken {
        ProgramSlot::Inline { program } => Ok(Arc::clone(
            table.entry(digest).or_insert_with(|| Arc::new(program)),
        )),
        ProgramSlot::Ref { .. } => table.get(&digest).cloned().ok_or(digest),
    }
}

/// Parse a task body and resolve both programs; a miss names every
/// program the table lacks. The baseline interns first, so the
/// variable slot may reference it.
fn parse_task(digest: &str, body: &str) -> Result<WorkerTask, Reply> {
    let mut task: WireTask = serde_json::from_str(body).map_err(|e| {
        Reply::Answer(JournalAnswer::Crash {
            message: format!("worker cannot parse task {digest}: {e}"),
        })
    })?;
    let baseline = intern(&mut task.baseline_program);
    let variable = intern(&mut task.variable_program);
    match (baseline, variable) {
        (Ok(baseline), Ok(variable)) => Ok(WorkerTask {
            baseline,
            variable,
            input: task
                .input_bits
                .iter()
                .copied()
                .map(f64::from_bits)
                .collect(),
            task,
        }),
        (b, v) => Err(Reply::Miss(ProgramMiss {
            missing: [b.err(), v.err()].into_iter().flatten().collect(),
        })),
    }
}

/// The worker half: evaluate one serialized request against a
/// serialized task, returning the serialized answer payload — a
/// [`JournalAnswer`], or a [`ProgramMiss`] when the task references a
/// program this process has not interned. Errors (malformed task or
/// request) are encoded as `Crash` answers rather than killing the
/// worker — a malformed frame is a protocol bug the coordinator should
/// see as a structured search abort, not a hang.
pub fn evaluate(digest: &str, task_body: &str, spec: &str) -> String {
    match evaluate_inner(digest, task_body, spec) {
        Reply::Answer(answer) => serde_json::to_string(&answer),
        Reply::Miss(miss) => serde_json::to_string(&miss),
    }
    .expect("wire answer serializes")
}

fn evaluate_inner(digest: &str, task_body: &str, spec: &str) -> Reply {
    let cached = worker_tasks()
        .lock()
        .expect("worker task cache poisoned")
        .get(digest)
        .cloned();
    let cached = match cached {
        Some(t) => t,
        None => {
            let t = match parse_task(digest, task_body) {
                Ok(t) => Arc::new(t),
                Err(answer) => return answer,
            };
            worker_tasks()
                .lock()
                .expect("worker task cache poisoned")
                .insert(digest.to_string(), Arc::clone(&t));
            t
        }
    };
    let request: WireRequest = match serde_json::from_str(spec) {
        Ok(r) => r,
        Err(e) => {
            return Reply::Answer(JournalAnswer::Crash {
                message: format!("worker cannot parse request: {e}"),
            })
        }
    };
    let t = &cached.task;
    let baseline = Build::tagged(
        &cached.baseline,
        t.baseline_compilation.clone(),
        t.baseline_tag,
    );
    let variable = Build::tagged(
        &cached.variable,
        t.variable_compilation.clone(),
        t.variable_tag,
    );
    let plane = LocalPlane {
        baseline: &baseline,
        variable: &variable,
        driver: &t.driver,
        input: &cached.input,
        link_driver: t.link_driver,
        ctx: worker_ctx(),
    };
    Reply::Answer(match request {
        WireRequest::Run { recipe } => encode_answer(plane.run_recipe(&recipe)),
        WireRequest::Time {
            recipe,
            seed,
            samples,
        } => encode_answer(
            plane
                .time_recipe(&recipe, seed, samples)
                .map(|s| (s, 0.0f64)),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_exec::AnswerEnvelope;
    use flit_program::{Function, Kernel, SourceFile};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn unsafe_gcc() -> Compilation {
        use flit_toolchain::compiler::OptLevel;
        use flit_toolchain::flags::Switch;
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe])
    }

    /// A small program. The worker program table is process-global, so
    /// a test that needs a table without this program uses a name no
    /// other test uses (the name is part of the content digest).
    fn program(name: &str) -> SimProgram {
        SimProgram::new(
            name,
            vec![
                SourceFile::new(
                    "a.cpp",
                    vec![Function::exported("A_dot", Kernel::DotMix { stride: 3 })],
                ),
                SourceFile::new(
                    "b.cpp",
                    vec![Function::exported("B_norm", Kernel::NormScale)],
                ),
            ],
        )
    }

    fn tiny_program() -> SimProgram {
        program("wire-test")
    }

    fn driver() -> Driver {
        Driver::new("t", vec!["A_dot".into(), "B_norm".into()], 2, 24)
    }

    fn run_spec(recipe: ExeRecipe) -> String {
        serde_json::to_string(&WireRequest::Run { recipe }).unwrap()
    }

    fn worker_reply(task: &WireTask, spec: &str) -> String {
        let body = task.to_wire();
        evaluate(&WireTask::digest_of(&body), &body, spec)
    }

    /// An in-process backend answering through [`evaluate`] (or with a
    /// canned payload), counting dispatches.
    #[derive(Debug, Default)]
    struct InProcess {
        dispatched: AtomicUsize,
        canned: Option<String>,
    }

    impl ExecBackend for InProcess {
        fn label(&self) -> &str {
            "in-process"
        }

        fn workers(&self) -> usize {
            1
        }

        fn run_units(&self, units: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), ExecError> {
            (0..units).for_each(f);
            Ok(())
        }

        fn dispatch(&self, query: &QueryEnvelope) -> Result<AnswerEnvelope, ExecError> {
            self.dispatched.fetch_add(1, Ordering::Relaxed);
            let payload = match &self.canned {
                Some(p) => p.clone(),
                None => evaluate(&query.task_digest, &query.task, &query.spec),
            };
            Ok(AnswerEnvelope { payload })
        }
    }

    #[test]
    fn wire_task_round_trips_bit_exactly() {
        let prog = tiny_program();
        let baseline = Build::new(&prog, Compilation::baseline());
        let variable = Build::tagged(&prog, unsafe_gcc(), 1);
        let input = [0.3, f64::MIN_POSITIVE, -0.0];
        let task = WireTask::capture(&baseline, &variable, &driver(), &input, CompilerKind::Gcc);
        let wire = task.to_wire();
        let back: WireTask = serde_json::from_str(&wire).unwrap();
        assert_eq!(back.input_bits, task.input_bits);
        let ProgramSlot::Inline { program } = &back.baseline_program else {
            panic!("capture carries programs inline");
        };
        assert_eq!(program.fingerprint(), prog.fingerprint());
        assert_eq!(program.content_digest(), prog.content_digest());
        assert_eq!(back.variable_compilation, task.variable_compilation);
        assert_eq!(back.variable_tag, 1);
        // Digest is a pure function of the body.
        assert_eq!(WireTask::digest_of(&wire), WireTask::digest_of(&wire));
        // The by-reference task names the programs by content digest.
        let refs =
            WireTask::capture_refs(&baseline, &variable, &driver(), &input, CompilerKind::Gcc);
        let back: WireTask = serde_json::from_str(&refs.to_wire()).unwrap();
        assert!(
            matches!(&back.variable_program, ProgramSlot::Ref { digest } if digest == prog.content_digest())
        );
    }

    #[test]
    fn local_and_worker_evaluation_agree_bit_for_bit() {
        let prog = tiny_program();
        let baseline = Build::new(&prog, Compilation::baseline());
        let variable = Build::tagged(&prog, unsafe_gcc(), 1);
        let d = driver();
        let input = [0.3, 0.7];
        let ctx = BuildCtx::cached();
        let plane = LocalPlane {
            baseline: &baseline,
            variable: &variable,
            driver: &d,
            input: &input,
            link_driver: CompilerKind::Gcc,
            ctx: &ctx,
        };
        let inline = WireTask::capture(&baseline, &variable, &d, &input, CompilerKind::Gcc);
        let by_ref = WireTask::capture_refs(&baseline, &variable, &d, &input, CompilerKind::Gcc);
        for recipe in [
            ExeRecipe::Baseline,
            ExeRecipe::Candidate,
            ExeRecipe::FileMixed { items: vec![0] },
            ExeRecipe::PicProbe { file: 0 },
            ExeRecipe::SymbolMixed {
                file: 0,
                items: vec!["A_dot".into()],
            },
        ] {
            let local = encode_answer(plane.run_recipe(&recipe));
            let spec = run_spec(recipe.clone());
            let time_spec = serde_json::to_string(&WireRequest::Time {
                recipe: recipe.clone(),
                seed: 42,
                samples: 4,
            })
            .unwrap();
            let timed = encode_answer(plane.time_recipe(&recipe, 42, 4).map(|s| (s, 0.0)));
            // The inline task goes first, so the by-reference task
            // always resolves against the interned programs.
            for task in [&inline, &by_ref] {
                let remote: JournalAnswer =
                    serde_json::from_str(&worker_reply(task, &spec)).unwrap();
                assert_eq!(
                    local, remote,
                    "recipe {recipe:?} diverged between local and worker evaluation"
                );
                let remote: JournalAnswer =
                    serde_json::from_str(&worker_reply(task, &time_spec)).unwrap();
                assert_eq!(timed, remote, "timed recipe {recipe:?} diverged");
            }
        }
    }

    #[test]
    fn a_reference_misses_until_the_inline_task_interns_the_program() {
        let prog = program("wire-test-fresh-table");
        let baseline = Build::new(&prog, Compilation::baseline());
        let variable = Build::tagged(&prog, unsafe_gcc(), 1);
        let d = driver();
        let input = [0.4, 0.1];
        let by_ref = WireTask::capture_refs(&baseline, &variable, &d, &input, CompilerKind::Gcc);
        let inline = WireTask::capture(&baseline, &variable, &d, &input, CompilerKind::Gcc);
        let spec = run_spec(ExeRecipe::Candidate);

        let miss: ProgramMiss = serde_json::from_str(&worker_reply(&by_ref, &spec)).unwrap();
        assert_eq!(
            miss.missing,
            vec![prog.content_digest().to_string(); 2],
            "both slots name the unseen program"
        );
        let answer: JournalAnswer = serde_json::from_str(&worker_reply(&inline, &spec)).unwrap();
        assert!(matches!(answer, JournalAnswer::Output { .. }), "{answer:?}");
        assert!(worker_programs()
            .lock()
            .unwrap()
            .contains_key(prog.content_digest()));
        let resolved: JournalAnswer = serde_json::from_str(&worker_reply(&by_ref, &spec)).unwrap();
        assert_eq!(resolved, answer);
    }

    #[test]
    fn a_remote_plane_pulls_each_program_once_and_agrees_with_local() {
        let prog = program("wire-test-remote-plane");
        let mut injected = prog.clone();
        injected.function_mut("B_norm").unwrap().kernel = Kernel::DivScan;
        let d = driver();
        let input = [0.2, 0.9];
        let ctx = BuildCtx::cached();
        // The variable program is new to the table in each round: the
        // shared program first, then an injected copy.
        for variable_program in [&prog, &injected] {
            let baseline = Build::new(&prog, Compilation::baseline());
            let variable = Build::tagged(variable_program, unsafe_gcc(), 1);
            let local = LocalPlane {
                baseline: &baseline,
                variable: &variable,
                driver: &d,
                input: &input,
                link_driver: CompilerKind::Gcc,
                ctx: &ctx,
            };
            let backend = Arc::new(InProcess::default());
            let remote = RemotePlane::new(
                backend.clone(),
                &baseline,
                &variable,
                &d,
                &input,
                CompilerKind::Gcc,
            );
            let recipe = ExeRecipe::FileMixed { items: vec![1] };
            assert_eq!(remote.run_recipe(&recipe), local.run_recipe(&recipe));
            // One miss, then the self-contained retry.
            assert_eq!(backend.dispatched.load(Ordering::Relaxed), 2);
            assert_eq!(
                remote.time_recipe(&recipe, 3, 5),
                local.time_recipe(&recipe, 3, 5)
            );
            assert_eq!(backend.dispatched.load(Ordering::Relaxed), 3);
        }
    }

    #[test]
    fn a_miss_on_the_inline_retry_is_a_crash_not_a_loop() {
        let prog = tiny_program();
        let baseline = Build::new(&prog, Compilation::baseline());
        let variable = Build::tagged(&prog, unsafe_gcc(), 1);
        let d = driver();
        let miss = ProgramMiss {
            missing: vec!["feedfacefeedface".into()],
        };
        let backend = Arc::new(InProcess {
            dispatched: AtomicUsize::new(0),
            canned: Some(serde_json::to_string(&miss).unwrap()),
        });
        let remote = RemotePlane::new(
            backend.clone(),
            &baseline,
            &variable,
            &d,
            &[0.5],
            CompilerKind::Gcc,
        );
        let err = remote.run_recipe(&ExeRecipe::Baseline).unwrap_err();
        assert!(
            matches!(&err, TestError::Crash(m) if m.contains("feedfacefeedface")),
            "{err:?}"
        );
        assert_eq!(backend.dispatched.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn malformed_wire_input_becomes_a_structured_crash_answer() {
        let ans: JournalAnswer = serde_json::from_str(&evaluate("d0", "not json", "{}")).unwrap();
        assert!(
            matches!(&ans, JournalAnswer::Crash { message } if message.contains("cannot parse task")),
            "{ans:?}"
        );
        let prog = tiny_program();
        let baseline = Build::new(&prog, Compilation::baseline());
        let variable = Build::tagged(&prog, unsafe_gcc(), 1);
        let task = WireTask::capture(&baseline, &variable, &driver(), &[0.1], CompilerKind::Gcc);
        let ans: JournalAnswer = serde_json::from_str(&worker_reply(&task, "garbage")).unwrap();
        assert!(
            matches!(&ans, JournalAnswer::Crash { message } if message.contains("cannot parse request")),
            "{ans:?}"
        );
    }
}
