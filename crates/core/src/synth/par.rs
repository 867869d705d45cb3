//! Intra-compile data parallelism: deterministic sharding over scoped
//! `std::thread` workers.
//!
//! One compile job can fan its per-layer/per-block synthesis work across
//! threads without changing the compiled artifact by one bit: work is
//! split into *contiguous chunks in input order*, each chunk computes an
//! independent result, and results are merged back **in chunk order**.
//! Every reduction a caller builds on top must replicate the sequential
//! tie-breaking exactly (first-max scans stay first-max across chunk
//! boundaries, and so on) — the cross-crate property tests assert
//! bit-identity against the sequential path for the whole pipeline.
//!
//! No external runtime: threads are `std::thread::scope` workers, spawned
//! per parallel region and joined before it returns, so borrowing the
//! caller's slices needs no `'static` bounds (rayon is unavailable in the
//! offline build environment by design).

use crate::Observer;

/// Resolved intra-compile parallelism context handed to the synthesis
/// stage: a worker budget plus an optional [`Observer`] that brackets
/// each shard ([`Observer::shard`]).
#[derive(Clone, Copy)]
pub struct Intra<'a> {
    threads: usize,
    observer: Option<&'a dyn Observer>,
}

impl std::fmt::Debug for Intra<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Intra")
            .field("threads", &self.threads)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl<'a> Intra<'a> {
    /// The sequential context: one worker, no observer. All parallel
    /// helpers degrade to plain in-place loops.
    pub fn sequential() -> Intra<'a> {
        Intra {
            threads: 1,
            observer: None,
        }
    }

    /// Resolves an `intra_threads` knob: `0` means one worker per
    /// available CPU, any other value is taken literally (clamped to at
    /// least 1).
    pub fn new(intra_threads: usize) -> Intra<'a> {
        let threads = match intra_threads {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            t => t,
        };
        Intra {
            threads: threads.max(1),
            observer: None,
        }
    }

    /// Attaches an observer that brackets each shard (builder-style).
    pub fn with_observer(mut self, observer: &'a dyn Observer) -> Intra<'a> {
        self.observer = Some(observer);
        self
    }

    /// The resolved worker budget (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many chunks `len` items split into under this budget: at most
    /// `threads`, and no more than one chunk per `grain` items so tiny
    /// inputs never pay thread-spawn overhead.
    fn chunk_count(&self, len: usize, grain: usize) -> usize {
        self.threads.min(len / grain.max(1)).max(1)
    }

    /// Runs `work` over contiguous chunks of `items` on scoped workers and
    /// returns the chunk results **in chunk order**. `work` receives
    /// `(chunk_index, offset_of_chunk_start, chunk)`.
    ///
    /// With one effective chunk (a sequential context, or fewer than
    /// `grain` items per worker) the closure runs inline on the caller's
    /// thread — same result, no spawn.
    pub fn par_chunks<T, R, F>(&self, stage: &str, items: &[T], grain: usize, work: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, usize, &[T]) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let chunks = self.chunk_count(items.len(), grain);
        if chunks <= 1 {
            return vec![work(0, 0, items)];
        }
        let base = items.len() / chunks;
        let extra = items.len() % chunks;
        let mut results: Vec<Option<R>> = Vec::new();
        results.resize_with(chunks, || None);
        std::thread::scope(|scope| {
            let work = &work;
            let mut start = 0usize;
            for (ci, slot) in results.iter_mut().enumerate() {
                let len = base + usize::from(ci < extra);
                let chunk = &items[start..start + len];
                let offset = start;
                start += len;
                let observer = self.observer;
                scope.spawn(move || {
                    let mut run = || *slot = Some(work(ci, offset, chunk));
                    match observer {
                        Some(o) => o.shard(stage, ci, &mut run),
                        None => run(),
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every shard ran"))
            .collect()
    }

    /// Parallel per-item map preserving input order: `f(index, item)` for
    /// every item, results concatenated across chunks.
    pub fn par_map<T, R, F>(&self, stage: &str, items: &[T], grain: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let nested = self.par_chunks(stage, items, grain, |_, offset, chunk| {
            chunk
                .iter()
                .enumerate()
                .map(|(i, item)| f(offset + i, item))
                .collect::<Vec<R>>()
        });
        let mut out = Vec::with_capacity(items.len());
        for chunk in nested {
            out.extend(chunk);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 3, 8] {
            let intra = Intra::new(threads);
            let items: Vec<usize> = (0..103).collect();
            let out = intra.par_map("test", &items, 1, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, (0..103).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_chunks_reports_offsets_and_merges_in_order() {
        let intra = Intra::new(4);
        let items: Vec<usize> = (0..10).collect();
        let out = intra.par_chunks("test", &items, 1, |ci, offset, chunk| {
            assert_eq!(chunk[0], offset);
            (ci, offset, chunk.len())
        });
        assert_eq!(out.len(), 4);
        assert!(out.windows(2).all(|w| w[0].1 < w[1].1), "{out:?}");
        assert_eq!(out.iter().map(|c| c.2).sum::<usize>(), 10);
    }

    #[test]
    fn grain_keeps_small_inputs_inline() {
        // 7 items at grain 8 → one chunk regardless of the budget.
        let intra = Intra::new(16);
        let items: Vec<usize> = (0..7).collect();
        let out = intra.par_chunks("test", &items, 8, |_, _, chunk| chunk.len());
        assert_eq!(out, vec![7]);
        assert!(intra
            .par_chunks("test", &[] as &[u8], 1, |_, _, c| c.len())
            .is_empty());
    }

    #[test]
    fn zero_resolves_to_available_parallelism() {
        assert!(Intra::new(0).threads() >= 1);
        assert_eq!(Intra::new(3).threads(), 3);
        assert_eq!(Intra::sequential().threads(), 1);
    }

    #[test]
    fn observer_sees_every_shard() {
        struct Counter(AtomicUsize);
        impl Observer for Counter {
            fn shard(&self, stage: &str, _shard: usize, work: &mut dyn FnMut()) {
                assert_eq!(stage, "test.stage");
                self.0.fetch_add(1, Ordering::Relaxed);
                work();
            }
        }
        let counter = Counter(AtomicUsize::new(0));
        let intra = Intra::new(4).with_observer(&counter);
        let items: Vec<usize> = (0..8).collect();
        let out = intra.par_map("test.stage", &items, 1, |_, &x| x + 1);
        assert_eq!(out.len(), 8);
        assert_eq!(counter.0.load(Ordering::Relaxed), 4);
    }
}
