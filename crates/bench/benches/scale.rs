//! Criterion bench: full-pipeline compiles at 100/500/1000+ qubits, one
//! `compile` row per lattice.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paulihedral::{compile, Backend, CompileOptions, Scheduler};
use workloads::scale;

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    for name in ["Heisen-100", "Heisen-500", "Heisen-1000", "Heisen-32x32"] {
        let ir = scale::named_scale_ir(name).expect("preset scale name");
        group.bench_with_input(BenchmarkId::new("compile", name), &ir, |bench, ir| {
            let opts = CompileOptions::new(Scheduler::Auto, Backend::FaultTolerant);
            bench.iter(|| compile(ir, &opts));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
