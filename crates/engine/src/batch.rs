//! The multi-threaded batch driver, [`Engine::compile_all`].
//!
//! A plain `std::thread` worker pool (the build environment has no
//! registry access, so no rayon): jobs are pulled off a shared atomic
//! counter and results land in their original slots, so output order is
//! deterministic regardless of interleaving. Workers share the engine's
//! compilation cache, so duplicate jobs inside one batch are compiled
//! once. Each job compiles sequentially on its worker's thread, so this
//! pool is all the parallelism a batch has.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use paulihedral::ir::PauliIR;
use paulihedral::{CompileError, Scheduler};

use crate::engine::{Engine, EngineOutput};
use crate::target::Target;

/// One unit of batch work.
#[derive(Clone, Debug)]
pub struct CompileJob {
    /// Label carried into the result (file name, benchmark name, …).
    pub name: String,
    /// The program.
    pub ir: PauliIR,
    /// Target override; `None` uses the engine's default target.
    pub target: Option<Target>,
    /// Scheduler override; `None` uses the pipeline's configured pass.
    pub scheduler: Option<Scheduler>,
}

impl CompileJob {
    /// A job against the engine's default target and pipeline scheduler.
    pub fn named(name: impl Into<String>, ir: PauliIR) -> CompileJob {
        CompileJob {
            name: name.into(),
            ir,
            target: None,
            scheduler: None,
        }
    }

    /// Sets a per-job target.
    pub fn on_target(mut self, target: Target) -> CompileJob {
        self.target = Some(target);
        self
    }

    /// Sets a per-job scheduler.
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> CompileJob {
        self.scheduler = Some(scheduler);
        self
    }
}

/// One job's outcome, in the batch's original order.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// The job's label.
    pub name: String,
    /// The compiled artifact and report, or why the job was rejected.
    pub outcome: Result<EngineOutput, CompileError>,
    /// Wall time this job spent inside a worker (queue wait excluded).
    pub wall: Duration,
    /// How long the job sat in the queue before a worker picked it up
    /// (time from batch start to job start).
    pub queue_wait: Duration,
}

impl Engine {
    /// Compiles every job on up to [`Engine::threads`] scoped workers,
    /// one job per worker at a time. Results come back in job order; per-job failures are values, not batch
    /// failures — including panics, which are caught per job
    /// ([`CompileError::Panicked`]) so one bad job can neither kill its
    /// worker thread nor abort the rest of the batch.
    pub fn compile_all(&self, jobs: Vec<CompileJob>) -> Vec<BatchResult> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let workers = self.worker_count(jobs.len());
        let telemetry = self.telemetry();
        let batch_span = telemetry.span_with(
            "batch",
            vec![("jobs", jobs.len().into()), ("workers", workers.into())],
        );
        let batch_start = Instant::now();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<BatchResult>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();

        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    // Time spent queued: from batch start until a worker
                    // picked the job up (invisible to the in-worker wall).
                    let queue_wait = batch_start.elapsed();
                    let job_span = telemetry.span_with(
                        format!("job:{}", job.name),
                        vec![(
                            "queue_wait_us",
                            u64::try_from(queue_wait.as_micros())
                                .unwrap_or(u64::MAX)
                                .into(),
                        )],
                    );
                    let outcome = self.compile_with(&job.ir, job.target.as_ref(), job.scheduler);
                    let wall = job_span.finish();
                    telemetry.record_duration("batch.job_wall_ns", wall);
                    telemetry.record_duration("batch.queue_wait_ns", queue_wait);
                    *slots[i].lock().expect("batch slot poisoned") = Some(BatchResult {
                        name: job.name.clone(),
                        outcome,
                        wall,
                        queue_wait,
                    });
                });
            }
        });
        drop(batch_span);

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("batch slot poisoned")
                    .expect("every job slot filled before scope exit")
            })
            .collect()
    }
}
