//! Batch compilation: push a mixed suite (Ising, QAOA, UCCSD) through the
//! `ph_engine` worker pool, print each program's per-pass report, then
//! resubmit the whole batch to show it served entirely from cache.
//!
//! ```text
//! cargo run --release --example batch_compile
//! ```

use paulihedral::Scheduler;
use ph_engine::{CacheConfig, CompileJob, Engine, Pipeline, Target};
use qdevice::devices;
use workloads::suite::{self, BackendClass};

fn suite_jobs(names: &[&str], sc_target: &Target) -> Vec<CompileJob> {
    names
        .iter()
        .map(|&name| {
            let b = suite::generate(name);
            let job = CompileJob::named(name, b.ir);
            match b.class {
                // The paper's SC configuration: depth-oriented scheduling.
                BackendClass::Superconducting => job
                    .on_target(sc_target.clone())
                    .with_scheduler(Scheduler::Depth),
                // FT benchmarks use the §7 adaptive choice.
                BackendClass::FaultTolerant => job.with_scheduler(Scheduler::Auto),
            }
        })
        .collect()
}

fn main() {
    // A mixed workload: spin chains (FT), QAOA MaxCut (SC), UCCSD (SC).
    let names = ["Ising-1D", "Heisen-2D", "REG-20-4", "UCCSD-8"];
    let sc_target = Target::superconducting(devices::manhattan_65());

    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant);
    println!(
        "compiling {} programs on {} worker thread(s)\n",
        names.len(),
        engine.threads()
    );
    let results = engine.compile_all(suite_jobs(&names, &sc_target));

    for r in results {
        let out = r.outcome.expect("suite benchmarks compile");
        let stats = out.compiled.circuit.mapped_stats();
        println!(
            "== {} : {} CNOT, {} single, depth {}",
            r.name, stats.cnot, stats.single, stats.depth
        );
        print!("{}", out.report.table());
        println!();
    }

    // A second submission of the same batch — as a Trotter loop or a
    // re-run benchmark suite would issue — never recompiles.
    let again = engine.compile_all(suite_jobs(&names, &sc_target));
    let hits = again
        .iter()
        .filter(|r| r.outcome.as_ref().unwrap().report.cache_hit)
        .count();
    println!("resubmitted {} jobs: {hits} cache hits", again.len());

    let cs = engine.cache_stats();
    println!(
        "cache: {} hits, {} misses, {} coalesced, {} evictions, {} entries (~{} KiB resident)",
        cs.hits,
        cs.misses,
        cs.coalesced,
        cs.evictions,
        cs.entries,
        cs.resident_bytes / 1024
    );
    assert_eq!(hits, names.len(), "second wave must be all cache hits");

    // The same batch against a persistent cache directory: a fresh engine
    // (empty memory tier) warm-starts from the files the first one wrote.
    let dir = std::env::temp_dir().join(format!("ph-batch-compile-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk_config = || CacheConfig {
        disk_dir: Some(dir.clone()),
        ..CacheConfig::default()
    };
    let cold =
        Engine::new(Pipeline::auto(), Target::FaultTolerant).with_cache_config(disk_config());
    cold.compile_all(suite_jobs(&names, &sc_target));
    let warm =
        Engine::new(Pipeline::auto(), Target::FaultTolerant).with_cache_config(disk_config());
    warm.compile_all(suite_jobs(&names, &sc_target));
    let ws = warm.cache_stats();
    println!(
        "persistent tier: fresh engine served {} of {} jobs from {}",
        ws.disk_hits,
        names.len(),
        dir.display()
    );
    assert_eq!(ws.disk_hits as usize, names.len());
    let _ = std::fs::remove_dir_all(&dir);
}
