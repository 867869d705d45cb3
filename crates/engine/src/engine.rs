//! The engine and its one compile path: validate → cache lookup →
//! [`paulihedral::compile_observed`] → cache fill, with every stage timed
//! and recorded. Direct compiles, batches ([`crate::batch`]) and the
//! compile service ([`crate::serve`]) all run it.

use std::cell::RefCell;
use std::num::NonZeroUsize;
use std::sync::Arc;

use paulihedral::ir::PauliIR;
use paulihedral::{
    compile_observed, validate, CompileError, CompileOptions, Compiled, Observer, Scheduler,
    StageOutput,
};
use ph_telemetry::Telemetry;
use qcircuit::CircuitStats;

use crate::cache::{
    fingerprint_ir, CacheConfig, CacheEntry, CacheOutcome, CacheStats, CompileCache, Fingerprint,
};
use crate::fault::{Fault, WorkerFault};
use crate::pipeline::Pipeline;
use crate::proto::scheduler_spec;
use crate::report::{CompileReport, PassRecord};
use crate::target::Target;

/// What one compilation returns: the (shared) artifact and its report.
#[derive(Clone, Debug)]
pub struct EngineOutput {
    /// The compiled kernel. `Arc` because cache hits share one allocation.
    pub compiled: Arc<Compiled>,
    /// Per-pass instrumentation for this request.
    pub report: CompileReport,
}

/// A compilation engine: one pipeline, one default target, one cache, and
/// a worker count for batches ([`Engine::compile_all`]) and the compile
/// service ([`crate::Server`]).
///
/// The engine is `Sync` — `&Engine` is all the worker threads need.
#[derive(Debug)]
pub struct Engine {
    pipeline: Pipeline,
    target: Target,
    cache: CompileCache,
    cache_enabled: bool,
    telemetry: Telemetry,
    threads: usize,
    fault: Fault,
}

/// The engine's observer of one compile: each stage runs inside a span
/// of its name, is timed into `pass.<name>_ns`, and becomes a
/// [`PassRecord`] whose snapshots are mapped circuit stats.
struct Recorder<'t> {
    telemetry: &'t Telemetry,
    passes: RefCell<Vec<PassRecord>>,
}

impl Observer for Recorder<'_> {
    fn stage(&self, name: &'static str, run: &mut dyn FnMut()) {
        // The stage span is also the stage timer.
        let span = self.telemetry.span(name);
        run();
        let wall = span.finish();
        self.telemetry
            .record_duration(&format!("pass.{name}_ns"), wall);
        let mut passes = self.passes.borrow_mut();
        let before = passes
            .last()
            .map_or_else(CircuitStats::default, |p| p.after);
        passes.push(PassRecord {
            name: name.to_string(),
            wall,
            before,
            after: before,
            note: String::new(),
        });
    }

    fn after_stage(&self, output: StageOutput<'_>) {
        let (note, circuit) = match output {
            StageOutput::Scheduled(scheduler, layers) => (
                format!("{} -> {layers} layers", scheduler_spec(scheduler)),
                None,
            ),
            StageOutput::Synthesized(emitted, c) => (format!("{emitted} strings emitted"), Some(c)),
            StageOutput::Optimized(r, c) => (
                format!(
                    "cancelled {}, merged {}, zeroed {}, {} rounds",
                    r.cancelled, r.merged, r.zero_rotations, r.rounds
                ),
                Some(c),
            ),
        };
        let mut passes = self.passes.borrow_mut();
        let record = passes.last_mut().expect("after_stage follows a stage");
        record.note = note;
        if let Some(c) = circuit {
            record.after = c.mapped_stats();
        }
    }
}

impl Engine {
    /// An engine with an unbounded, memory-only cache (see
    /// [`Engine::with_cache_config`] for bounds and a disk tier), one
    /// worker per available CPU.
    pub fn new(pipeline: Pipeline, target: Target) -> Engine {
        Engine {
            pipeline,
            target,
            cache: CompileCache::new(),
            cache_enabled: true,
            telemetry: Telemetry::disabled(),
            threads: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            fault: Fault::disabled(),
        }
    }

    /// Overrides the worker count of batches and the compile service
    /// (minimum 1). Builder-style.
    pub fn with_threads(mut self, threads: usize) -> Engine {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Workers [`Engine::compile_all`] spawns for a batch of `jobs` jobs:
    /// never more threads than jobs.
    pub fn worker_count(&self, jobs: usize) -> usize {
        self.threads.min(jobs)
    }

    /// Returns the engine unchanged: synthesis is sequential and has no
    /// worker knob. It remains only because the service benchmark
    /// (`perfbench/src/replay.rs`) calls it.
    pub fn with_intra_threads(self, _intra_threads: usize) -> Engine {
        self
    }

    /// Replaces the cache with an empty one using `config` (entry/byte
    /// budgets and an optional persistent directory). Builder-style; call
    /// before the first compilation.
    pub fn with_cache_config(mut self, config: CacheConfig) -> Engine {
        self.cache = CompileCache::with_config(config);
        self.cache.set_telemetry(self.telemetry.clone());
        self.cache.set_fault(self.fault.clone());
        self
    }

    /// Attaches a fault-injection handle ([`crate::fault`]) to the engine
    /// and its cache: compiles consult the worker seam (injected panics
    /// and delays), the disk tier consults the disk seam. Builder-style;
    /// the default [`Fault::disabled`] handle injects nothing and costs
    /// one `Option` check per site.
    pub fn with_fault(mut self, fault: Fault) -> Engine {
        self.cache.set_fault(fault.clone());
        self.fault = fault;
        self
    }

    /// The engine's fault-injection handle (disabled unless
    /// [`Engine::with_fault`] attached one).
    pub fn fault(&self) -> &Fault {
        &self.fault
    }

    /// Attaches a telemetry handle: one span per request (`compile`) and
    /// per stage (the stage's name), cache events on the shared cache, and
    /// latency histograms (`compile.total_ns`, `pass.<name>_ns`).
    /// [`Engine::compile_all`] adds one `batch` span per batch, one
    /// `job:<name>` span per job (queue wait in its args), and the
    /// `batch.job_wall_ns` / `batch.queue_wait_ns` histograms.
    /// Builder-style; the default is the zero-cost
    /// [`Telemetry::disabled`] sink.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Engine {
        self.cache.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// The engine's telemetry handle (disabled unless
    /// [`Engine::with_telemetry`] attached one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Disables the compilation cache (for benchmarking flows that must
    /// measure real compile time on every request). Also skips request
    /// fingerprinting entirely — reports carry `key: 0`.
    pub fn without_cache(mut self) -> Engine {
        self.cache_enabled = false;
        self
    }

    /// Cache hit/miss/eviction/byte counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The cache's configuration (budgets, disk tier, degradation knobs).
    pub fn cache_config(&self) -> &CacheConfig {
        self.cache.config()
    }

    /// Compiles one program with optional per-request target and
    /// scheduler overrides.
    ///
    /// Concurrent calls with the same request key compile once: one
    /// caller runs the pipeline while the rest wait and share its `Arc`
    /// (counted in [`CacheStats::coalesced`]).
    ///
    /// Panic-isolating: a panic anywhere under the compile path (a
    /// compiler bug, or an injected [`crate::fault`] worker panic) is
    /// returned as [`CompileError::Panicked`] instead of unwinding into
    /// the caller, so one bad job cannot tear down a batch or service
    /// worker. The single-flight cache treats a leader's unwind as a
    /// retryable failure, so coalesced waiters are unaffected.
    ///
    /// # Errors
    ///
    /// A [`CompileError`] for an empty program or an unusable SC device
    /// (see [`paulihedral::validate`]), or [`CompileError::Panicked`].
    pub fn compile_with(
        &self,
        ir: &PauliIR,
        target: Option<&Target>,
        scheduler: Option<Scheduler>,
    ) -> Result<EngineOutput, CompileError> {
        // `&Engine` + `&PauliIR` are only conditionally unwind-safe, but
        // the shared state they reach (the cache) is designed for it: its
        // critical sections swap complete values and its locks recover
        // from poisoning, so observing post-panic state is sound.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // The worker fault seam sits at the very top of the compile
            // path: an injected panic unwinds exactly like an organic
            // compiler bug would, and an injected delay models a slow
            // compile without touching the compiler.
            match self.fault.worker() {
                WorkerFault::Panic => panic!("injected fault: worker panic"),
                WorkerFault::Delay(d) => self.fault.sleep(d),
                WorkerFault::None => {}
            }
            // The request span both traces the compile and is its timer:
            // its wall time becomes `CompileReport::total`.
            let span = self.telemetry.span("compile");
            let target = target.unwrap_or(&self.target);
            // Rejected before keying, so a bad request never reaches the
            // cache (core validates again on a miss).
            validate(ir, &target.as_backend())?;
            let options = CompileOptions {
                scheduler: scheduler.unwrap_or(self.pipeline.scheduler()),
                backend: target.as_backend(),
            };
            // No cache ⇒ no reason to pay IR fingerprinting on every
            // request; benchmark flows measure pure compile time.
            let (entry, cache_hit) = if self.cache_enabled {
                let key = self.request_key(ir, target, scheduler);
                let (entry, outcome) = self
                    .cache
                    .get_or_compute(key, || self.execute(ir, &options, key))?;
                (entry, outcome != CacheOutcome::Compiled)
            } else {
                (self.execute(ir, &options, 0)?, false)
            };
            let mut report = entry.report;
            report.cache_hit = cache_hit;
            report.total = span.finish();
            self.telemetry
                .record_duration("compile.total_ns", report.total);
            Ok(EngineOutput {
                compiled: entry.compiled,
                report,
            })
        }))
        // `as_ref` reaches the payload itself; `&payload` would coerce the
        // `Box` into the `dyn Any` and every downcast below would miss.
        .unwrap_or_else(|payload| Err(CompileError::Panicked(panic_message(payload.as_ref()))))
    }

    /// The same call as [`Engine::compile_with`]. It remains only because
    /// the service benchmark (`perfbench/src/replay.rs`) calls it by this
    /// name.
    ///
    /// # Errors
    ///
    /// See [`Engine::compile_with`].
    pub fn compile_caught(
        &self,
        ir: &PauliIR,
        target: Option<&Target>,
        scheduler: Option<Scheduler>,
    ) -> Result<EngineOutput, CompileError> {
        self.compile_with(ir, target, scheduler)
    }

    /// Compiles under the engine's observer (the cache-miss path).
    fn execute(
        &self,
        ir: &PauliIR,
        options: &CompileOptions<'_>,
        key: u64,
    ) -> Result<CacheEntry, CompileError> {
        let span = self.telemetry.span("pipeline");
        let recorder = Recorder {
            telemetry: &self.telemetry,
            passes: RefCell::new(Vec::with_capacity(3)),
        };
        let compiled = compile_observed(ir, options, Some(&recorder))?;
        let passes = recorder.passes.into_inner();
        Ok(CacheEntry {
            compiled: Arc::new(compiled),
            report: CompileReport {
                passes,
                total: span.finish(),
                cache_hit: false,
                key,
            },
        })
    }

    /// The content-addressed key of a request: canonical hashes of the IR,
    /// the pipeline signature (with the scheduler override applied), and
    /// the target.
    fn request_key(&self, ir: &PauliIR, target: &Target, scheduler: Option<Scheduler>) -> u64 {
        let mut h = Fingerprint::new();
        fingerprint_ir(ir, &mut h);
        h.write_str(&self.pipeline.signature(scheduler));
        target.fingerprint(&mut h);
        h.finish()
    }
}

/// Extracts the human-readable message from a panic payload (`&str` and
/// `String` payloads cover `panic!`, `assert!`, `unwrap`, and friends).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
