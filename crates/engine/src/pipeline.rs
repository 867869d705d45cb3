//! The compile configuration an engine runs and keys its cache on.

use paulihedral::Scheduler;

use crate::proto::scheduler_spec;

/// The stage sequence of [`paulihedral::compile_observed`] — schedule,
/// synthesis, peephole — under a configured scheduler. Reproduces
/// [`paulihedral::compile`] exactly.
#[derive(Clone, Copy, Debug)]
pub struct Pipeline {
    scheduler: Scheduler,
}

impl Pipeline {
    /// The standard pipeline with a fixed scheduler.
    pub fn standard(scheduler: Scheduler) -> Pipeline {
        Pipeline { scheduler }
    }

    /// The standard pipeline with adaptive (§7) scheduler selection.
    pub fn auto() -> Pipeline {
        Pipeline::standard(Scheduler::Auto)
    }

    /// The configured scheduler (a request's override wins over it).
    pub fn scheduler(&self) -> Scheduler {
        self.scheduler
    }

    /// The cache signature of this pipeline under an optional scheduler
    /// override: `schedule:<spec>|synthesis|peephole`. Part of the
    /// content-addressed cache key. `auto` is a sound tag: it resolves as
    /// a pure function of the IR, which the key hashes alongside.
    pub fn signature(&self, scheduler_override: Option<Scheduler>) -> String {
        format!(
            "schedule:{}|synthesis|peephole",
            scheduler_spec(scheduler_override.unwrap_or(self.scheduler))
        )
    }
}
