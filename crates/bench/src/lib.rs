//! Shared experiment harness for regenerating the paper's tables/figures.
//!
//! Each `table*`/`fig11` binary composes the pieces here: the two-stage
//! compilation flows (Paulihedral or a baseline first stage, then a generic
//! second stage), timing, and tabular output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use baselines::generic::{self, Mapping};
use baselines::tk;
use paulihedral::ir::PauliIR;
use paulihedral::Scheduler;
use ph_engine::{
    CacheConfig, CacheStats, Collector, CompileJob, CompileReport, Engine, MetricsSnapshot,
    Pipeline, Target, Telemetry,
};
use qcircuit::{Circuit, CircuitStats};
use qdevice::CouplingMap;
use workloads::suite::{self, BackendClass};

/// Which generic second-stage pipeline to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SecondStage {
    /// The Qiskit-level-3-like pipeline.
    QiskitL3,
    /// The tket-O2-like pipeline.
    TketO2,
}

impl SecondStage {
    /// Human-readable label matching the paper's column headers.
    pub fn label(self) -> &'static str {
        match self {
            SecondStage::QiskitL3 => "Qiskit_L3",
            SecondStage::TketO2 => "tket_O2",
        }
    }

    fn run(self, circuit: &Circuit, mapping: Mapping<'_>) -> Circuit {
        match self {
            SecondStage::QiskitL3 => generic::qiskit_l3_like(circuit, mapping).circuit,
            SecondStage::TketO2 => generic::tket_o2_like(circuit, mapping).circuit,
        }
    }
}

/// The outcome of one two-stage flow.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// Metrics of the final circuit (SWAPs decomposed).
    pub stats: CircuitStats,
    /// First-stage (PH or baseline) wall time.
    pub stage1: Duration,
    /// Second-stage (generic pipeline) wall time.
    pub stage2: Duration,
    /// Per-pass instrumentation of the first stage (PH flows only; empty
    /// for baseline flows).
    pub report: CompileReport,
}

/// The engine target for a benchmark's backend class.
fn class_target(class: BackendClass, device: &CouplingMap) -> Target {
    match class {
        BackendClass::Superconducting => Target::superconducting(device.clone()),
        BackendClass::FaultTolerant => Target::FaultTolerant,
    }
}

/// Runs the Paulihedral flow: schedule + block-wise synthesis through the
/// `ph_engine` engine, then a generic clean-up stage (the paper's
/// `PH+Qiskit_L3` / `PH+tket_O2`). The cache is disabled so `stage1` is a
/// real compile-time measurement on every call.
pub fn ph_flow(
    ir: &PauliIR,
    class: BackendClass,
    scheduler: Scheduler,
    device: &CouplingMap,
    second: SecondStage,
) -> FlowResult {
    // Engine and target setup (including the device clone) stays outside
    // the stage-1 timer: it is driver overhead, not compile time, and the
    // pre-engine flow never measured it.
    let engine =
        Engine::new(Pipeline::standard(scheduler), class_target(class, device)).without_cache();
    let t0 = Instant::now();
    let out = engine
        .compile_with(ir, None, None)
        .expect("benchmark programs are valid compile requests");
    let stage1 = t0.elapsed();
    let t1 = Instant::now();
    let mapping = match class {
        BackendClass::Superconducting => Mapping::AlreadyMapped,
        BackendClass::FaultTolerant => Mapping::None,
    };
    let final_circuit = second.run(&out.compiled.circuit, mapping);
    let stage2 = t1.elapsed();
    FlowResult {
        stats: final_circuit.stats(),
        stage1,
        stage2,
        report: out.report,
    }
}

/// Runs the TK baseline flow: simultaneous diagonalization, then a generic
/// stage that also routes on the SC backend (`TK+Qiskit_L3` / `TK+tket_O2`).
pub fn tk_flow(
    ir: &PauliIR,
    class: BackendClass,
    device: &CouplingMap,
    second: SecondStage,
) -> FlowResult {
    let t0 = Instant::now();
    let r = tk::compile_tk(ir);
    let stage1 = t0.elapsed();
    let t1 = Instant::now();
    let mapping = match class {
        BackendClass::Superconducting => Mapping::Route(device),
        BackendClass::FaultTolerant => Mapping::None,
    };
    let final_circuit = second.run(&r.circuit, mapping);
    let stage2 = t1.elapsed();
    FlowResult {
        stats: final_circuit.stats(),
        stage1,
        stage2,
        report: CompileReport::default(),
    }
}

/// Naive-synthesis flow with Paulihedral *scheduling* but naive chains
/// (isolates the block-wise-compilation effect for Table 4's BC column).
pub fn scheduled_naive_flow(
    ir: &PauliIR,
    class: BackendClass,
    scheduler: Scheduler,
    device: &CouplingMap,
    second: SecondStage,
) -> FlowResult {
    use paulihedral::synth::chain::emit_gadget;
    let t0 = Instant::now();
    let layers = paulihedral::run_scheduler(ir, scheduler);
    let mut logical = Circuit::new(ir.num_qubits());
    for layer in &layers {
        for block in &layer.blocks {
            for (i, term) in block.terms.iter().enumerate() {
                if term.string.is_identity() {
                    continue;
                }
                let order = term.string.support();
                emit_gadget(&mut logical, &term.string, block.theta(i), &order);
            }
        }
    }
    let stage1 = t0.elapsed();
    let t1 = Instant::now();
    let mapping = match class {
        BackendClass::Superconducting => Mapping::Route(device),
        BackendClass::FaultTolerant => Mapping::None,
    };
    let final_circuit = second.run(&logical, mapping);
    let stage2 = t1.elapsed();
    FlowResult {
        stats: final_circuit.stats(),
        stage1,
        stage2,
        report: CompileReport::default(),
    }
}

/// One benchmark's outcome from [`run_suite`].
#[derive(Clone, Debug)]
pub struct SuiteResult {
    /// Table 1 benchmark name.
    pub name: String,
    /// Backend class the benchmark targets.
    pub class: BackendClass,
    /// Metrics of the Paulihedral stage-1 circuit (SWAPs decomposed).
    pub stats: CircuitStats,
    /// Per-pass instrumentation (cache-hit flag, timings, deltas).
    pub report: CompileReport,
}

/// A full suite run: per-benchmark results plus the final counters of the
/// engine's compilation cache.
#[derive(Clone, Debug)]
pub struct SuiteRun {
    /// Per-benchmark outcomes, in input order.
    pub results: Vec<SuiteResult>,
    /// Cache counters after the batch (hits, disk hits, coalesced waits,
    /// evictions, resident bytes).
    pub cache: CacheStats,
    /// The run's telemetry metrics: cache event counters plus latency
    /// histograms (`compile.total_ns`, `pass.<name>_ns`,
    /// `batch.job_wall_ns`, `batch.queue_wait_ns`) with
    /// p50/p90/p99 summaries.
    pub metrics: MetricsSnapshot,
}

/// Compiles named Table 1 benchmarks through [`Engine::compile_all`]: SC
/// benchmarks map onto `device` with depth-oriented scheduling (the
/// paper's SC configuration), FT benchmarks stay logical with adaptive
/// scheduling. `threads = None` sizes the worker pool to the machine.
///
/// Results come back in input order; duplicate names in one call are
/// compiled once and served from the engine's cache thereafter.
///
/// # Panics
///
/// Panics on unknown benchmark names (see [`suite::generate`]) and when
/// `device` cannot host an SC benchmark (disconnected, or smaller than
/// the benchmark — e.g. UCCSD-12 on a 16-qubit device).
pub fn run_suite(names: &[&str], device: &CouplingMap, threads: Option<usize>) -> Vec<SuiteResult> {
    run_suite_with(names, device, threads, CacheConfig::default()).results
}

/// [`run_suite`] with an explicit cache configuration — point
/// [`CacheConfig::disk_dir`] at a directory to make a suite run warm-start
/// from a previous one — returning the cache counters alongside the
/// results.
///
/// # Panics
///
/// See [`run_suite`].
pub fn run_suite_with(
    names: &[&str],
    device: &CouplingMap,
    threads: Option<usize>,
    cache: CacheConfig,
) -> SuiteRun {
    let sc_target = Target::superconducting(device.clone());
    let mut classes = Vec::with_capacity(names.len());
    let jobs: Vec<CompileJob> = names
        .iter()
        .map(|&name| {
            let b = suite::generate(name);
            classes.push(b.class);
            let job = CompileJob::named(name, b.ir);
            match b.class {
                BackendClass::Superconducting => job
                    .on_target(sc_target.clone())
                    .with_scheduler(Scheduler::Depth),
                BackendClass::FaultTolerant => job.with_scheduler(Scheduler::Auto),
            }
        })
        .collect();
    let collector = Arc::new(Collector::new());
    let mut engine = Engine::new(Pipeline::auto(), Target::FaultTolerant)
        .with_cache_config(cache)
        .with_telemetry(Telemetry::attached(Arc::clone(&collector)));
    if let Some(t) = threads {
        engine = engine.with_threads(t);
    }
    let results = engine
        .compile_all(jobs)
        .into_iter()
        .zip(classes)
        .map(|(r, class)| {
            let out = r.outcome.unwrap_or_else(|e| panic!("{}: {e}", r.name));
            SuiteResult {
                name: r.name,
                class,
                stats: out.compiled.circuit.mapped_stats(),
                report: out.report,
            }
        })
        .collect();
    SuiteRun {
        results,
        cache: engine.cache_stats(),
        metrics: collector.metrics(),
    }
}

/// Formats a duration as seconds with sensible precision.
pub fn fmt_secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 0.095 {
        format!("{s:.3}")
    } else if s < 10.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.1}")
    }
}

/// Signed percentage change from `base` to `new` (negative = reduction).
pub fn pct_change(base: usize, new: usize) -> f64 {
    if base == 0 {
        return 0.0;
    }
    (new as f64 - base as f64) / base as f64 * 100.0
}

/// Prints a row of fixed-width columns.
pub fn print_row(widths: &[usize], cells: &[String]) {
    let mut line = String::new();
    for (w, c) in widths.iter().zip(cells) {
        line.push_str(&format!("{c:>w$} ", w = w));
    }
    println!("{}", line.trim_end());
}

/// The benchmark subset used by `--quick` runs (one representative per
/// family; random Hamiltonians capped at 40 qubits).
pub fn quick_subset() -> Vec<&'static str> {
    vec![
        "UCCSD-8",
        "UCCSD-12",
        "REG-20-4",
        "Rand-20-0.3",
        "TSP-4",
        "Ising-1D",
        "Ising-2D",
        "Heisen-1D",
        "Heisen-2D",
        "N2",
        "Rand-30",
    ]
}

/// Parses `--flag value`-style options from `args`.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Whether a bare `--flag` is present.
pub fn arg_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdevice::devices;
    use workloads::suite;

    #[test]
    fn ph_flow_runs_on_both_classes() {
        let device = devices::manhattan_65();
        let sc = suite::generate("REG-20-4");
        let r = ph_flow(
            &sc.ir,
            sc.class,
            Scheduler::Depth,
            &device,
            SecondStage::QiskitL3,
        );
        assert!(r.stats.cnot > 0);
        assert_eq!(r.stats.swap, 0, "final stats must be swap-free");
        let ft = suite::generate("Ising-1D");
        let r = ph_flow(
            &ft.ir,
            ft.class,
            Scheduler::Depth,
            &device,
            SecondStage::TketO2,
        );
        assert_eq!(r.stats.cnot, 58);
    }

    #[test]
    fn tk_flow_routes_sc_benchmarks() {
        let device = devices::manhattan_65();
        let b = suite::generate("Rand-20-0.1");
        let r = tk_flow(&b.ir, b.class, &device, SecondStage::QiskitL3);
        assert!(r.stats.cnot > 0);
    }

    #[test]
    fn ph_beats_scheduled_naive_on_uccsd() {
        let device = devices::manhattan_65();
        let b = suite::generate("UCCSD-8");
        let ph = ph_flow(
            &b.ir,
            b.class,
            Scheduler::Depth,
            &device,
            SecondStage::QiskitL3,
        );
        let naive = scheduled_naive_flow(
            &b.ir,
            b.class,
            Scheduler::Depth,
            &device,
            SecondStage::QiskitL3,
        );
        assert!(
            ph.stats.cnot < naive.stats.cnot,
            "PH {} vs naive {}",
            ph.stats.cnot,
            naive.stats.cnot
        );
    }

    #[test]
    fn run_suite_serves_repeats_from_cache() {
        let device = devices::manhattan_65();
        // One worker makes the second (identical) job a deterministic hit.
        let results = run_suite(&["Ising-1D", "Ising-1D"], &device, Some(1));
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].stats.cnot, results[1].stats.cnot);
        assert!(!results[0].report.cache_hit);
        assert!(results[1].report.cache_hit);
        // The report carries the standard pipeline's three passes.
        let names: Vec<&str> = results[0]
            .report
            .passes
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(names, ["schedule", "synthesis", "peephole"]);
    }

    #[test]
    fn run_suite_warm_starts_from_a_disk_cache() {
        let dir = std::env::temp_dir().join(format!("ph-bench-disk-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let device = devices::manhattan_65();
        let names = ["Ising-1D", "Heisen-1D"];
        let config = CacheConfig {
            disk_dir: Some(dir.clone()),
            ..CacheConfig::default()
        };
        let cold = run_suite_with(&names, &device, Some(2), config.clone());
        assert_eq!((cold.cache.misses, cold.cache.disk_hits), (2, 0));
        // The telemetry snapshot mirrors the cache counters and carries
        // the per-pass latency histograms.
        assert_eq!(cold.metrics.counter("cache.miss"), 2);
        assert_eq!(cold.metrics.counter("cache.disk_write"), 2);
        let h = cold
            .metrics
            .histogram("compile.total_ns")
            .expect("compile latency histogram present");
        assert_eq!(h.count, 2);
        assert!(h.p50 <= h.p90 && h.p90 <= h.p99);
        // A fresh engine (empty memory tier) against the same directory is
        // served entirely from disk, bit-identically.
        let warm = run_suite_with(&names, &device, Some(2), config);
        assert_eq!((warm.cache.misses, warm.cache.disk_hits), (0, 2));
        assert_eq!(warm.metrics.counter("cache.disk_read"), 2);
        assert_eq!(warm.metrics.counter("cache.miss"), 0);
        for (c, w) in cold.results.iter().zip(&warm.results) {
            assert_eq!(c.stats, w.stats, "{}: warm stats differ", c.name);
            assert!(
                w.report.cache_hit,
                "{}: warm run must be a cache hit",
                c.name
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_suite_matches_ph_flow_stage1() {
        let device = devices::manhattan_65();
        let results = run_suite(&["REG-20-4"], &device, None);
        // Same stage-1 circuit metrics as the single-shot flow's engine
        // compile (before the generic second stage).
        let flow = ph_flow(
            &suite::generate("REG-20-4").ir,
            BackendClass::Superconducting,
            Scheduler::Depth,
            &device,
            SecondStage::QiskitL3,
        );
        assert_eq!(
            results[0].report.final_stats().cnot,
            flow.report.final_stats().cnot
        );
    }

    #[test]
    fn helpers_behave() {
        assert_eq!(pct_change(100, 50), -50.0);
        assert_eq!(pct_change(0, 10), 0.0);
        let args: Vec<String> = ["x", "--shots", "512", "--quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--shots").as_deref(), Some("512"));
        assert!(arg_flag(&args, "--quick"));
        assert!(!arg_flag(&args, "--full"));
    }
}
