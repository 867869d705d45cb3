//! Composing passes into pipelines.

use std::sync::Arc;

use paulihedral::Scheduler;

use crate::pass::{Pass, PassContext, PeepholePass, SchedulePass, SynthesisPass};

/// An ordered sequence of [`Pass`]es, shared (cheaply cloned) across batch
/// worker threads.
#[derive(Clone)]
pub struct Pipeline {
    passes: Vec<Arc<dyn Pass>>,
}

impl Pipeline {
    /// The standard three-pass pipeline — schedule, synthesize, peephole —
    /// which reproduces [`paulihedral::compile`] exactly.
    pub fn standard(scheduler: Scheduler) -> Pipeline {
        Pipeline::builder()
            .schedule(scheduler)
            .synthesize()
            .peephole()
            .build()
    }

    /// The standard pipeline with adaptive (§7) scheduler selection.
    pub fn auto() -> Pipeline {
        Pipeline::standard(Scheduler::Auto)
    }

    /// An empty builder for custom pipelines.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder { passes: Vec::new() }
    }

    /// The passes, in execution order.
    pub fn passes(&self) -> &[Arc<dyn Pass>] {
        &self.passes
    }

    /// The cache signature of this pipeline under `ctx`: the `|`-joined
    /// pass signatures. Part of the content-addressed cache key.
    pub fn signature(&self, ctx: &PassContext<'_>) -> String {
        let sigs: Vec<String> = self.passes.iter().map(|p| p.signature(ctx)).collect();
        sigs.join("|")
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.passes.iter().map(|p| p.name()).collect();
        f.debug_struct("Pipeline").field("passes", &names).finish()
    }
}

/// Builds a [`Pipeline`] pass by pass.
pub struct PipelineBuilder {
    passes: Vec<Arc<dyn Pass>>,
}

impl PipelineBuilder {
    /// Appends a scheduling pass.
    pub fn schedule(self, scheduler: Scheduler) -> PipelineBuilder {
        self.pass(SchedulePass { scheduler })
    }

    /// Appends the block-wise synthesis pass.
    pub fn synthesize(self) -> PipelineBuilder {
        self.pass(SynthesisPass)
    }

    /// Appends the commutation-aware peephole clean-up.
    pub fn peephole(self) -> PipelineBuilder {
        self.pass(PeepholePass)
    }

    /// Appends an arbitrary custom pass.
    pub fn pass(mut self, pass: impl Pass + 'static) -> PipelineBuilder {
        self.passes.push(Arc::new(pass));
        self
    }

    /// Finishes the pipeline.
    pub fn build(self) -> Pipeline {
        Pipeline {
            passes: self.passes,
        }
    }
}
