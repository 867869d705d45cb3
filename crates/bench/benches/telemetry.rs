//! Criterion bench: telemetry overhead on the batch compile path.
//!
//! Three configurations over the same batch of jobs:
//!
//! - `disabled` — the default no-op sink ([`Telemetry::disabled`]); every
//!   instrumentation call is an `Option` check that branches away. This
//!   must sit within noise of the pre-telemetry engine.
//! - `enabled` — a live [`Collector`]: spans, cache events, and histogram
//!   records all land, bounding what full tracing costs.
//! - `metrics_only` — a live collector but measured with the cache off,
//!   isolating the span/histogram path from cache-event traffic.
//!
//! The cache is disabled in every configuration so each iteration measures
//! real compiles, not cache lookups.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use paulihedral::ir::PauliIR;
use ph_engine::{Collector, CompileJob, Engine, Pipeline, Target, Telemetry};
use workloads::suite;

fn jobs_for(irs: &[(String, PauliIR)]) -> Vec<CompileJob> {
    irs.iter()
        .map(|(name, ir)| CompileJob::named(name.clone(), ir.clone()))
        .collect()
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    let irs: Vec<(String, PauliIR)> = ["Ising-1D", "Heisen-1D", "Rand-20-0.3"]
        .iter()
        .map(|&n| (n.to_string(), suite::generate(n).ir))
        .collect();

    group.bench_function("batch_disabled", |b| {
        let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant).without_cache();
        b.iter(|| engine.compile_all(jobs_for(&irs)));
    });

    group.bench_function("batch_enabled", |b| {
        b.iter(|| {
            // A fresh collector per iteration so the event buffer does not
            // grow unboundedly across samples.
            let collector = Arc::new(Collector::new());
            let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant)
                .without_cache()
                .with_telemetry(Telemetry::attached(Arc::clone(&collector)));
            engine.compile_all(jobs_for(&irs))
        });
    });

    group.bench_function("single_disabled", |b| {
        let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant)
            .without_cache()
            .with_threads(1);
        b.iter(|| engine.compile_all(jobs_for(&irs)));
    });

    group.finish();
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
