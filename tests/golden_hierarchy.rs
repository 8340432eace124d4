//! Golden fixtures for the File → Symbol search.
//!
//! Every `HierarchicalResult` below is pinned by the FNV-1a digest of
//! its `Debug` form (which prints every f64 in shortest round-trip
//! form, so a changed bit changes the digest). The digests were
//! recorded from the search before its serial and parallel drivers were
//! merged into one, so these tests check the merged search against
//! recorded behaviour rather than only against itself:
//!
//! - a fixed sample of variable Table-2 MFEM rows, plus pruned
//!   (lint-prune, certified) and dishonest-prescreen searches on a few
//!   of them;
//! - the Laghos xsw hunt (`BisectBiggest(2)`);
//! - the LULESH injection sample of `injection_sample_precision_recall`;
//! - the JSONL trace of a small lint-seeded workflow whose searches all
//!   run at width 1. Width 1 has nothing to schedule or speculate, so
//!   its trace carries no `exec.wave`/`exec.query` spans and no
//!   speculation counters.
//!
//! On a mismatch the assertion prints every actual digest, so a
//! deliberate behaviour change can be re-recorded in one pass.

use std::collections::BTreeMap;
use std::fmt::Debug;

use flit::inject::enumerate_sites;
use flit::mfem::examples::example_driver;
use flit::prelude::*;
use flit::program::sites::{InjectOp, Injection};
use flit::toolchain::cache::BuildCtx;

const MFEM_INPUT: [f64; 2] = [0.35, 0.62];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(value: &impl Debug) -> String {
    format!("{:016x}", fnv1a(format!("{value:?}").as_bytes()))
}

/// Compare `(name, digest)` pairs against the recorded table, printing
/// the whole actual table on any difference.
fn assert_golden(actual: &[(String, String)], expected: &[(&str, &str)]) {
    let got: Vec<(&str, &str)> = actual
        .iter()
        .map(|(n, d)| (n.as_str(), d.as_str()))
        .collect();
    if got != expected {
        let table: String = got
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", \"{d}\"),\n"))
            .collect();
        panic!("golden digests changed; actual table:\n{table}");
    }
}

/// The sampled Table-2 rows: `(example, compilation)` pairs whose
/// whole-program output differs from the baseline's, walked through
/// the MFEM matrix with a fixed stride.
fn mfem_rows(program: &SimProgram) -> Vec<(usize, Compilation)> {
    let matrix = mfem_matrix();
    let base = Build::new(program, Compilation::baseline());
    let base_exe = base.executable().expect("baseline links");
    let mut rows = Vec::new();
    for i in 0..matrix.len() {
        let ex = 1 + (i * 7) % 19;
        let comp = &matrix[(i * 37 + 11) % matrix.len()];
        let driver = example_driver(ex, 1);
        let var = Build::tagged(program, comp.clone(), 1);
        let Ok(exe) = var.executable() else { continue };
        let a = Engine::new(program, &base_exe).run(&driver, &MFEM_INPUT);
        let b = Engine::new(program, &exe).run(&driver, &MFEM_INPUT);
        if let (Ok(a), Ok(b)) = (a, b) {
            if l2_compare(&a.output, &b.output) != 0.0 {
                rows.push((ex, comp.clone()));
            }
        }
        if rows.len() == 52 {
            break;
        }
    }
    rows
}

/// Every sampled row under `BisectAll`, and every fifth row (the one
/// mixed-ABI crash among them) under `BisectBiggest(2)` too.
#[test]
fn mfem_table2_rows_match_the_recorded_results() {
    let program = flit::mfem::mfem_program();
    let rows = mfem_rows(&program);
    let mut searches: Vec<(usize, Option<usize>)> = (0..rows.len()).map(|i| (i, None)).collect();
    searches.extend((0..rows.len()).step_by(5).map(|i| (i, Some(2))));
    let ctx = BuildCtx::cached();
    let base = Build::new(&program, Compilation::baseline());
    let results = Executor::new(2)
        .run(searches.len(), |j| {
            let (i, k) = searches[j];
            let (ex, comp) = &rows[i];
            let var = Build::tagged(&program, comp.clone(), 1);
            let cfg = HierarchicalConfig {
                k,
                ..HierarchicalConfig::all().with_ctx(ctx.clone())
            };
            bisect_hierarchical(
                &base,
                &var,
                &example_driver(*ex, 1),
                &MFEM_INPUT,
                &l2_compare,
                &cfg,
            )
        })
        .expect("searches do not panic");
    let mut outcomes: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &results {
        let kind = match r.outcome {
            SearchOutcome::Completed => "completed",
            SearchOutcome::LinkStepOnly => "link-step-only",
            SearchOutcome::Crashed(_) => "crashed",
            SearchOutcome::AssumptionViolated => "violated",
        };
        *outcomes.entry(kind).or_default() += 1;
    }
    assert!(
        ["completed", "link-step-only", "crashed"]
            .iter()
            .all(|k| outcomes.contains_key(k)),
        "the sample must cover every unpruned outcome: {outcomes:?}"
    );
    let actual: Vec<(String, String)> = searches
        .iter()
        .zip(&results)
        .map(|((i, k), r)| {
            let (ex, comp) = &rows[*i];
            let mode = k.map_or(String::new(), |k| format!(" biggest({k})"));
            (format!("ex{ex:02} {}{mode}", comp.label()), digest(r))
        })
        .collect();
    assert_golden(&actual, MFEM_ROWS);
}

/// Pruned and prescreened searches on three Table-2 rows: lint-prune
/// (heuristic prune + 2-execution guard), certified prune (residual
/// audit), a lint-seeded width-1 search, and a dishonest prescreen the
/// guard must flag.
#[test]
fn pruned_mfem_searches_match_the_recorded_results() {
    let program = flit::mfem::mfem_program();
    let base = Build::new(&program, Compilation::baseline());
    let pairs = [
        (
            13,
            Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2Fma]),
        ),
        (
            8,
            Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe]),
        ),
        (
            9,
            Compilation::new(CompilerKind::Icpc, OptLevel::O2, vec![]),
        ),
    ];
    let mut actual = Vec::new();
    for (ex, comp) in pairs {
        let driver = example_driver(ex, 1);
        let var = Build::tagged(&program, comp.clone(), 1);
        let pred = predict_pair(&base, &var, Some(&driver), CompilerKind::Gcc);
        let certs = flit_absint::certify_pair(
            &program,
            &program,
            &driver,
            &Compilation::baseline(),
            &comp,
            CompilerKind::Gcc,
        );
        let lie = Prescreen {
            prune: true,
            ..Prescreen::default()
        };
        let certified = Prescreen {
            prune: true,
            certificates: Some(certs),
            ..Prescreen::default()
        };
        for (mode, screen) in [
            ("seed", pred.prescreen(false)),
            ("lint-prune", pred.prescreen(true)),
            ("certified", certified),
            ("dishonest", lie),
        ] {
            let r = bisect_hierarchical(
                &base,
                &var,
                &driver,
                &MFEM_INPUT,
                &l2_compare,
                &HierarchicalConfig::all().with_prescreen(screen),
            );
            actual.push((format!("ex{ex:02} {} {mode}", comp.label()), digest(&r)));
        }
    }
    assert_golden(&actual, PRUNED_ROWS);
}

#[test]
fn laghos_xsw_hunt_matches_the_recorded_result() {
    let res = flit::laghos::experiment::hunt_xsw_bug();
    assert_golden(&[("xsw hunt".into(), digest(&res))], LAGHOS_HUNT);
}

/// The sites `injection_sample_precision_recall` samples, each bisected
/// clean tree against injected tree.
#[test]
fn injection_sample_matches_the_recorded_results() {
    let program = flit::lulesh::lulesh_program();
    let driver = flit::lulesh::lulesh_driver();
    let input = [0.53, 0.31];
    let compilation = Compilation::perf_reference();
    let clean = Build::new(&program, compilation.clone());
    let mut actual = Vec::new();
    for site in enumerate_sites(&program).iter().step_by(53) {
        let injected = flit::inject::apply_injection(
            &program,
            site,
            Injection {
                site: site.site,
                op: InjectOp::Mul,
                eps: 0.77,
            },
        );
        let var = Build::tagged(&injected, compilation.clone(), 1);
        let r = bisect_hierarchical(
            &clean,
            &var,
            &driver,
            &input,
            &flit::fpsim::ulp::l2_diff,
            &HierarchicalConfig::all(),
        );
        actual.push((format!("{}#{}", site.symbol, site.site), digest(&r)));
    }
    assert_golden(&actual, INJECTION_SAMPLE);
}

/// A four-file app with two culprit files, an x87 (file-level-only)
/// pair and a value-safe pair.
fn workflow_app() -> (SimProgram, Vec<DriverTest>, Vec<Compilation>) {
    let program = SimProgram::new(
        "golden-wf",
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
    );
    let entries: Vec<String> = [
        "io_read",
        "assemble_mass",
        "assemble_aux",
        "mesh_permute",
        "solver_norm",
        "solver_post",
        "io_write",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    let tests = vec![
        DriverTest::new(Driver::new("wf1", entries.clone(), 2, 64), 1, vec![0.5]),
        DriverTest::new(Driver::new("wf2", entries, 2, 48), 2, vec![0.5, 0.25]),
    ];
    let compilations = vec![
        Compilation::baseline(),
        Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![]),
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe]),
        Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![Switch::FpMath387]),
        Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![Switch::Avx2Fma]),
    ];
    (program, tests, compilations)
}

#[test]
fn width1_workflow_trace_matches_the_recorded_trace() {
    let (program, tests, compilations) = workflow_app();
    let sink = TraceSink::enabled();
    let cfg = WorkflowConfig {
        lint: LintMode::Seed,
        trace: sink.clone(),
        ..WorkflowConfig::default()
    };
    let report = run_workflow(&program, &tests, &compilations, &cfg).expect("workflow runs");
    assert!(report.bisections.len() >= 4, "{}", report.bisections.len());
    let jsonl = sink.snapshot().to_jsonl();
    let actual = vec![
        ("bisections".to_string(), digest(&report.bisections)),
        ("trace".to_string(), digest(&jsonl)),
    ];
    assert_golden(&actual, WORKFLOW_TRACE);
}

const MFEM_ROWS: &[(&str, &str)] = &[
    ("ex01 g++ -O3 -ffast-math", "0d26747cdb2ab539"),
    ("ex10 icpc -O3 -fp-model strict", "6249d6b9ba28f1d9"),
    ("ex05 icpc -O1 -mp1", "6249d6b9ba28f1d9"),
    ("ex02 icpc -O2 -no-ftz", "aeaffc3f44bd81e5"),
    ("ex09 icpc -O3 -march=core-avx2", "f21f5be73fee1c5e"),
    ("ex13 icpc -O1 -prec-div", "5e3778913664c075"),
    ("ex01 icpc -O2 -fimf-precision=low", "856218282f1738ef"),
    ("ex08 g++ -O3 -fassociative-math", "fd1fb8e81805b723"),
    ("ex17 icpc -O3 -fp-model double", "14e5da5434e27c68"),
    ("ex05 icpc -O0 -xHost", "6249d6b9ba28f1d9"),
    ("ex02 icpc -O1 -fp-model fast=1", "aeaffc3f44bd81e5"),
    ("ex09 icpc -O2 -fma", "afba3f124b951abc"),
    ("ex01 icpc -O1 -prec-sqrt", "856218282f1738ef"),
    (
        "ex17 clang++ -O2 -mavx2 -mfma -ffast-math",
        "5ee8ac13abe1400c",
    ),
    ("ex05 icpc -O3 -no-ftz", "6249d6b9ba28f1d9"),
    (
        "ex19 g++ -O1 -funsafe-math-optimizations",
        "89b9f8eb03b22f65",
    ),
    ("ex14 clang++ -O3 -ffast-math", "d5b9492d4ce54c4e"),
    ("ex09 icpc -O1 -fp-model precise", "6249d6b9ba28f1d9"),
    ("ex04 icpc -O3 -fimf-precision=low", "74678b814fc66d61"),
    ("ex01 icpc -O0 -fp-model extended", "3efc589bae46a4d9"),
    ("ex08 icpc -O1 -xHost", "e09e99e7d29e1a9e"),
    ("ex15 icpc -O2 -inline-level=2", "6249d6b9ba28f1d9"),
    ("ex05 icpc -O2 -fp-model fast=1", "6249d6b9ba28f1d9"),
    ("ex04 icpc -O2 -prec-sqrt", "74678b814fc66d61"),
    (
        "ex01 clang++ -O3 -mavx2 -mfma -ffast-math",
        "f036fc65d0aa643f",
    ),
    ("ex15 icpc -O1 -fast", "6249d6b9ba28f1d9"),
    ("ex19 icpc -O3 -prec-div", "bdcaf5da6a02b5a9"),
    ("ex04 icpc -O1 -fp-model extended", "ff7b7cdde066b2fe"),
    ("ex11 icpc -O2 -xHost", "869b573ad76c419c"),
    ("ex06 g++ -O0 -mfpmath=387", "a89093ec325c7caf"),
    ("ex08 icpc -O3 -fp-model fast=1", "5f82cb1ee0c5d28d"),
    ("ex15 icpc -O0 -no-fma", "6249d6b9ba28f1d9"),
    (
        "ex09 g++ -O2 -mavx2 -mfma -funsafe-math-optimizations",
        "1990a99a53a31a3c",
    ),
    ("ex04 icpc -O0", "6249d6b9ba28f1d9"),
    ("ex15 icpc -O3 -fp-model precise", "6249d6b9ba28f1d9"),
    ("ex10 icpc -O1 -fltconsistency", "6249d6b9ba28f1d9"),
    ("ex17 g++ -O2 -freciprocal-math", "05aac41f0159611a"),
    ("ex14 icpc -O3 -xHost", "8a377aa69a913a7a"),
    ("ex09 g++ -O1 -mfpmath=387", "df0e24b8c2763b6c"),
    ("ex10 icpc -O0 -no-prec-sqrt", "6249d6b9ba28f1d9"),
    ("ex17 icpc -O1 -fno-alias", "7db9263e9a5aac9a"),
    ("ex14 icpc -O2 -ftz", "d5b9492d4ce54c4e"),
    ("ex02 icpc -O3 -fast", "c7cc341b313e4c8f"),
    ("ex01 g++ -O3 -freciprocal-math", "ce1fddc5bc7b6eb2"),
    ("ex10 icpc -O3 -fp-model extended", "6249d6b9ba28f1d9"),
    ("ex14 icpc -O1 -fp-model fast=2", "47ce0d899efde602"),
    ("ex02 icpc -O2 -no-fma", "aeaffc3f44bd81e5"),
    ("ex09 icpc -O3 -fimf-precision=high", "afba3f124b951abc"),
    ("ex06 icpc -O0 -fp-model double", "a89093ec325c7caf"),
    ("ex13 icpc -O1 -no-prec-sqrt", "5e3778913664c075"),
    ("ex01 icpc -O2 -fno-alias", "856218282f1738ef"),
    ("ex10 icpc -O2", "6249d6b9ba28f1d9"),
    ("ex01 g++ -O3 -ffast-math biggest(2)", "607254e4cf048e97"),
    ("ex13 icpc -O1 -prec-div biggest(2)", "fd7d4a9b88435c63"),
    (
        "ex02 icpc -O1 -fp-model fast=1 biggest(2)",
        "6ab8028c653b3d20",
    ),
    (
        "ex19 g++ -O1 -funsafe-math-optimizations biggest(2)",
        "6ac92de6fc25b3ea",
    ),
    ("ex08 icpc -O1 -xHost biggest(2)", "b37e29da72078e5d"),
    ("ex15 icpc -O1 -fast biggest(2)", "b3eb1ed43e841022"),
    (
        "ex08 icpc -O3 -fp-model fast=1 biggest(2)",
        "470567b5a34edfd4",
    ),
    (
        "ex10 icpc -O1 -fltconsistency biggest(2)",
        "b3eb1ed43e841022",
    ),
    ("ex17 icpc -O1 -fno-alias biggest(2)", "a96de667da24b03e"),
    (
        "ex14 icpc -O1 -fp-model fast=2 biggest(2)",
        "9f258c63885e541d",
    ),
    ("ex01 icpc -O2 -fno-alias biggest(2)", "607254e4cf048e97"),
];
const PRUNED_ROWS: &[(&str, &str)] = &[
    ("ex13 g++ -O3 -mavx2 -mfma seed", "bff718b31a8a67a5"),
    ("ex13 g++ -O3 -mavx2 -mfma lint-prune", "923186c2842e76a3"),
    ("ex13 g++ -O3 -mavx2 -mfma certified", "a047d5881808a895"),
    ("ex13 g++ -O3 -mavx2 -mfma dishonest", "05e0121010290031"),
    (
        "ex08 g++ -O3 -mavx2 -mfma -funsafe-math-optimizations seed",
        "a36d5ce90fa91f0f",
    ),
    (
        "ex08 g++ -O3 -mavx2 -mfma -funsafe-math-optimizations lint-prune",
        "73bc319977087fe0",
    ),
    (
        "ex08 g++ -O3 -mavx2 -mfma -funsafe-math-optimizations certified",
        "b506ba56bccb33d1",
    ),
    (
        "ex08 g++ -O3 -mavx2 -mfma -funsafe-math-optimizations dishonest",
        "71868bd9a405e915",
    ),
    ("ex09 icpc -O2 seed", "afba3f124b951abc"),
    ("ex09 icpc -O2 lint-prune", "eaff08235d387ceb"),
    ("ex09 icpc -O2 certified", "afba3f124b951abc"),
    ("ex09 icpc -O2 dishonest", "fba32da328704d3e"),
];
const LAGHOS_HUNT: &[(&str, &str)] = &[("xsw hunt", "22ee651c822d4ec5")];
const INJECTION_SAMPLE: &[(&str, &str)] = &[
    ("LagrangeNodal#0", "a26985cbf151aaa7"),
    ("CalcVolumeForceForElems#24", "313e486788ffc70e"),
    ("CalcAccelerationForNodes#14", "ae603cabb6625c69"),
    ("CalcKinematicsForElems#10", "ce5b68c7541ed635"),
    ("CalcQForElems#3", "b22ae8faa7af4f2f"),
    ("CalcMonotonicQRegionForElems#32", "24a9917cdb748003"),
    ("EvalEOSForElems#27", "749d77f90ae898dc"),
    ("CalcEnergyForElems#4", "b147dc7c31254d98"),
    ("CalcEnergyForElems#57", "b33748f0e8d570c8"),
    ("CalcEnergyForElems#110", "a40065f47c3be60c"),
    ("UpdateVolumesForElems#13", "be42a7cbd0723d87"),
    ("CalcCourantConstraintForElems#36", "129ea52253e19b62"),
    ("CalcHydroConstraintForElems#41", "fe936ce4ea59051b"),
    ("CalcElemShapeFunctionDerivatives#52", "33cde5af931a3e45"),
    ("CalcElemVolume#1", "a5ba5af21a8333a9"),
    ("CalcElemVolume#54", "b48ddf9d9fa3ed87"),
    ("AreaFace#7", "d42fe6668443bbdf"),
    ("SumElemFaceNormal#17", "2ec2ed7730b3bd38"),
    ("CalcFBHourglassForceForElems#6", "6249d6b9ba28f1d9"),
    ("InitStressTermsForElems#15", "6249d6b9ba28f1d9"),
    ("CommSendPosVel#1", "6249d6b9ba28f1d9"),
];
const WORKFLOW_TRACE: &[(&str, &str)] = &[
    ("bisections", "424f9b8c90b32861"),
    ("trace", "f8d8d3737523b738"),
];
