//! The engine and its one compile path: validate → cache lookup →
//! pipeline → cache fill, with full per-pass instrumentation. Direct
//! compiles, batches ([`crate::batch`]) and the compile service
//! ([`crate::serve`]) all run it.

use std::num::NonZeroUsize;
use std::sync::{Arc, OnceLock};

use paulihedral::ir::PauliIR;
use paulihedral::synth::par::{Intra, ShardObserver};
use paulihedral::{validate, CompileError, Compiled, Scheduler};
use ph_telemetry::Telemetry;

use crate::cache::{
    fingerprint_ir, CacheConfig, CacheEntry, CacheOutcome, CacheStats, CompileCache, Fingerprint,
};
use crate::fault::{Fault, WorkerFault};
use crate::pass::{PassContext, Target};
use crate::pipeline::Pipeline;
use crate::report::{CompileReport, PassRecord};
use crate::unit::CompileUnit;

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
    intra_threads: usize,
    fault: Fault,
}

/// The machine's CPU count (`available_parallelism`, at least 1), read
/// once per process: on Linux the query reads cgroup files, which a
/// per-request budget must not pay for.
fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Wraps each parallel synthesis shard in a `shard:<stage>` telemetry
/// span. Shards run on scoped worker threads with fresh span stacks, so
/// each shard shows up as a per-thread row in the exported trace.
struct ShardSpans<'t> {
    telemetry: &'t Telemetry,
}

impl ShardObserver for ShardSpans<'_> {
    fn shard(&self, stage: &str, shard: usize, work: &mut dyn FnMut()) {
        let span = self
            .telemetry
            .span_with(format!("shard:{stage}"), vec![("shard", shard.into())]);
        work();
        drop(span);
    }
}

impl Engine {
    /// An engine with an unbounded, memory-only cache (see
    /// [`Engine::with_cache_config`] for bounds and a disk tier), one
    /// worker per available CPU, and sequential synthesis.
    pub fn new(pipeline: Pipeline, target: Target) -> Engine {
        Engine {
            pipeline,
            target,
            cache: CompileCache::new(),
            cache_enabled: true,
            telemetry: Telemetry::disabled(),
            threads: cpus(),
            intra_threads: 1,
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

    /// Sets the intra-compile worker knob for the synthesis pass: `1` (the
    /// default) keeps synthesis sequential, `0` asks for one worker per
    /// available CPU; [`Engine::intra_budget`] clamps it to the machine.
    /// Purely a wall-clock knob — the artifact is bit-identical for every
    /// setting, so it is excluded from cache keys and cached artifacts
    /// stay shareable across settings. Builder-style.
    pub fn with_intra_threads(mut self, intra_threads: usize) -> Engine {
        self.intra_threads = intra_threads;
        self
    }

    /// The synthesis worker budget each compile gets while `workers`
    /// compiles run side by side: the intra-compile knob (`0` resolved to
    /// the CPU count) clamped to `max(1, cpus / workers)`, so concurrent
    /// compiles never oversubscribe the machine. A direct
    /// [`Engine::compile_with`] counts as one worker, a batch as the
    /// workers it spawns, the compile service as [`Engine::threads`].
    pub fn intra_budget(&self, workers: usize) -> usize {
        let cpus = cpus();
        let requested = match self.intra_threads {
            0 => cpus,
            t => t,
        };
        requested.min((cpus / workers.max(1)).max(1))
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
    /// per pass (the pass's name), cache events on the shared cache, and
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

    /// The engine's pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The engine's default target.
    pub fn target(&self) -> &Target {
        &self.target
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
    /// scheduler overrides, using the intra-compile budget of a lone
    /// compile ([`Engine::intra_budget`]`(1)`).
    ///
    /// Concurrent calls with the same request key compile once: one
    /// caller runs the pipeline while the rest wait and share its `Arc`
    /// (counted in [`CacheStats::coalesced`]).
    ///
    /// Panic-isolating: a panicking pass (or a bug anywhere under the
    /// compile path) is returned as [`CompileError::Panicked`] instead of
    /// unwinding into the caller, so one bad job cannot tear down a batch
    /// or service worker. The single-flight cache treats a leader's
    /// unwind as a retryable failure, so coalesced waiters are unaffected.
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
        self.compile_budgeted(ir, target, scheduler, self.intra_budget(1))
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

    /// The one compile implementation: [`Engine::compile_with`] with an
    /// explicit intra-compile worker budget, already resolved by
    /// [`Engine::intra_budget`] for the caller's worker count.
    pub(crate) fn compile_budgeted(
        &self,
        ir: &PauliIR,
        target: Option<&Target>,
        scheduler: Option<Scheduler>,
        intra_budget: usize,
    ) -> Result<EngineOutput, CompileError> {
        // `&Engine` + `&PauliIR` are only conditionally unwind-safe, but
        // the shared state they reach (the cache) is designed for it: its
        // critical sections swap complete values and its locks recover
        // from poisoning, so observing post-panic state is sound.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // The worker fault seam sits at the very top of the compile
            // path: an injected panic unwinds exactly like an organic pass
            // bug would, and an injected delay models a slow compile
            // without touching the passes.
            match self.fault.worker() {
                WorkerFault::Panic => panic!("injected fault: worker panic"),
                WorkerFault::Delay(d) => std::thread::sleep(d),
                WorkerFault::None => {}
            }
            // The request span both traces the compile and is its timer:
            // its wall time becomes `CompileReport::total`.
            let span = self.telemetry.span("compile");
            let target = target.unwrap_or(&self.target);
            validate(ir, &target.as_backend())?;
            let observer = ShardSpans {
                telemetry: &self.telemetry,
            };
            let mut intra = Intra::new(intra_budget);
            if self.telemetry.is_enabled() {
                intra = intra.with_observer(&observer);
            }
            let ctx = PassContext {
                target,
                scheduler_override: scheduler,
                intra,
            };
            // No cache ⇒ no reason to pay IR fingerprinting on every
            // request; benchmark flows measure pure compile time.
            let (entry, cache_hit) = if self.cache_enabled {
                let key = self.request_key(ir, &ctx);
                let (entry, outcome) = self
                    .cache
                    .get_or_compute(key, || self.execute(ir, &ctx, key))?;
                (entry, outcome != CacheOutcome::Compiled)
            } else {
                (self.execute(ir, &ctx, 0)?, false)
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

    /// Runs the pipeline over a fresh unit (the cache-miss path).
    fn execute(
        &self,
        ir: &PauliIR,
        ctx: &PassContext<'_>,
        key: u64,
    ) -> Result<CacheEntry, CompileError> {
        let span = self.telemetry.span("pipeline");
        let mut unit = CompileUnit::new(ir.clone());
        let mut records: Vec<PassRecord> = Vec::with_capacity(self.pipeline.passes().len());
        for pass in self.pipeline.passes() {
            let before = unit.stats();
            // The pass span is also the pass timer (a failing pass still
            // records its end event when the guard drops).
            let pass_span = self.telemetry.span(pass.name());
            let note = pass.run(&mut unit, ctx)?;
            let wall = pass_span.finish();
            self.telemetry
                .record_duration(&format!("pass.{}_ns", pass.name()), wall);
            records.push(PassRecord {
                name: pass.name().to_string(),
                wall,
                before,
                after: unit.stats(),
                note,
            });
        }
        Ok(CacheEntry {
            compiled: Arc::new(unit.into_compiled()),
            report: CompileReport {
                passes: records,
                total: span.finish(),
                cache_hit: false,
                key,
            },
        })
    }

    /// The content-addressed key of a request: canonical hashes of the IR,
    /// the pipeline signature (with overrides applied), and the target.
    fn request_key(&self, ir: &PauliIR, ctx: &PassContext<'_>) -> u64 {
        let mut h = Fingerprint::new();
        fingerprint_ir(ir, &mut h);
        h.write_str(&self.pipeline.signature(ctx));
        ctx.target.fingerprint(&mut h);
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
