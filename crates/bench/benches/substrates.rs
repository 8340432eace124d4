//! Criterion benchmarks of the substrates: FP-semantics kernels under
//! different environments, the linker, and objcopy weakening.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use flit_fpsim::env::{FpEnv, SimdWidth};
use flit_fpsim::{linalg::DenseMatrix, reduce, solve};
use flit_program::build::Build;
use flit_toolchain::cache::BuildCtx;
use flit_toolchain::compilation::Compilation;
use flit_toolchain::compiler::{CompilerKind, OptLevel};
use flit_toolchain::linker::link;

fn bench_reductions(c: &mut Criterion) {
    let xs: Vec<f64> = (0..4096)
        .map(|i| ((i as f64) * 0.7311).sin() * 10f64.powi((i % 9) - 4))
        .collect();
    let mut group = c.benchmark_group("fpsim_dot");
    for (name, env) in [
        ("strict", FpEnv::strict()),
        ("w4", FpEnv::strict().with_simd(SimdWidth::W4)),
        ("fma", FpEnv::strict().with_fma(true)),
        ("extended", FpEnv::strict().with_extended(true)),
        ("fast", FpEnv::fast()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &env, |b, env| {
            b.iter(|| reduce::dot(env, &xs, &xs));
        });
    }
    group.finish();
}

fn bench_cg(c: &mut Criterion) {
    let n = 48;
    let mut a = DenseMatrix::zeros(n, n);
    for i in 0..n {
        a[(i, i)] = 3.0 + (i as f64 * 0.61).sin() * 0.2;
        if i + 1 < n {
            a[(i, i + 1)] = -1.0;
            a[(i + 1, i)] = -1.0;
        }
    }
    let bvec: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) * 0.1).collect();
    let mut group = c.benchmark_group("fpsim_cg");
    for (name, env) in [("strict", FpEnv::strict()), ("fast", FpEnv::fast())] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &env, |b, env| {
            b.iter(|| solve::conjugate_gradient(env, &a, &bvec, 1e-12, 500));
        });
    }
    group.finish();
}

fn bench_linker(c: &mut Criterion) {
    let program = flit_mfem::mfem_program();
    let build = Build::new(&program, Compilation::perf_reference());
    let objects = build.all_objects_in(&BuildCtx::uncached());
    c.bench_function("linker_mfem_97_objects", |b| {
        b.iter(|| link(objects.clone(), CompilerKind::Gcc).unwrap());
    });
    let var = Build::tagged(
        &program,
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![]),
        1,
    );
    c.bench_function("compile_and_link_mfem", |b| {
        b.iter(|| var.executable().unwrap());
    });
}

fn bench_engine(c: &mut Criterion) {
    let program = flit_mfem::mfem_program();
    let build = Build::new(&program, Compilation::perf_reference());
    let exe = build.executable().unwrap();
    let driver = flit_mfem::examples::example_driver(8, 1);
    c.bench_function("engine_run_ex08", |b| {
        b.iter(|| {
            flit_program::engine::Engine::new(&program, &exe)
                .run(&driver, &[0.35, 0.62])
                .unwrap()
        });
    });
}

criterion_group!(
    benches,
    bench_reductions,
    bench_cg,
    bench_linker,
    bench_engine
);
criterion_main!(benches);
