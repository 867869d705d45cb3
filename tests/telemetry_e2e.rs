//! End-to-end telemetry acceptance: a batch compile through the full
//! engine stack must produce a trace whose pass spans nest under their job
//! spans (via parent links) and whose cache event counts equal the
//! [`CacheStats`] counters of the same run — the trace and the report are
//! two views of one instrumentation stream, never two bookkeeping systems
//! that can drift.

use std::collections::HashMap;
use std::sync::Arc;

use ph_engine::{Collector, CompileJob, Engine, Pipeline, Target, Telemetry};
use ph_telemetry::{Event, EventKind};
use workloads::suite;

/// Runs a small batch (with one duplicated job for a cache hit) against a
/// live collector and returns the collector plus the engine's counters.
fn run_batch() -> (Arc<Collector>, ph_engine::CacheStats) {
    let ir_a = suite::generate("Ising-1D").ir;
    let ir_b = suite::generate("Heisen-1D").ir;
    let jobs = vec![
        CompileJob::named("a", ir_a.clone()),
        CompileJob::named("b", ir_b),
        CompileJob::named("a-again", ir_a), // identical → cache hit
    ];
    let collector = Arc::new(Collector::new());
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant)
        .with_threads(1) // deterministic hit pattern
        .with_telemetry(Telemetry::attached(Arc::clone(&collector)));
    let results = engine.compile_all(jobs);
    assert!(results.iter().all(|r| r.outcome.is_ok()));
    let stats = engine.cache_stats();
    (collector, stats)
}

/// Follows `parent` links from `event` up to a root, returning the span
/// names on the way (nearest ancestor first).
fn ancestry(event: &Event, begins: &HashMap<u64, &Event>) -> Vec<String> {
    let mut chain = Vec::new();
    let mut parent = event.parent;
    while let Some(id) = parent {
        let p = begins
            .get(&id)
            .unwrap_or_else(|| panic!("{}: dangling parent id {id}", event.name));
        chain.push(p.name.to_string());
        parent = p.parent;
    }
    chain
}

#[test]
fn pass_spans_nest_under_their_job_spans() {
    let (collector, _) = run_batch();
    let events = collector.events();
    let begins: HashMap<u64, &Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::Begin)
        .map(|e| (e.id, e))
        .collect();

    // Every pass span sits inside pipeline → compile → job:<name>.
    let mut passes_seen = 0;
    for e in events.iter().filter(|e| e.kind == EventKind::Begin) {
        if !matches!(&*e.name, "schedule" | "synthesis" | "peephole") {
            continue;
        }
        passes_seen += 1;
        let chain = ancestry(e, &begins);
        assert_eq!(chain[0], "pipeline", "{}: {:?}", e.name, chain);
        assert_eq!(chain[1], "compile", "{}: {:?}", e.name, chain);
        assert!(
            chain[2].starts_with("job:"),
            "{}: expected a job span above compile, got {:?}",
            e.name,
            chain
        );
    }
    // Three passes for each of the two real compiles; the cache hit runs
    // no pipeline.
    assert_eq!(passes_seen, 6);

    // Every begin has a matching end, and spans that nest share a thread.
    let mut ends: HashMap<u64, u64> = HashMap::new();
    for e in events.iter().filter(|e| e.kind == EventKind::End) {
        ends.insert(e.id, e.tid);
    }
    for (id, b) in &begins {
        let end_tid = ends
            .get(id)
            .unwrap_or_else(|| panic!("span {} never ended", b.name));
        assert_eq!(*end_tid, b.tid, "{}: span migrated threads", b.name);
        if let Some(pid) = b.parent {
            assert_eq!(
                begins[&pid].tid, b.tid,
                "{}: parent on other thread",
                b.name
            );
        }
    }
}

#[test]
fn cache_event_counts_equal_cache_stats_counters() {
    let (collector, stats) = run_batch();
    let events = collector.events();
    let count = |name: &str| {
        events
            .iter()
            .filter(|e| e.kind == EventKind::Instant && e.name == name)
            .count() as u64
    };

    // The trace's instant events and the engine's counters are the same
    // measurements: one `mark()` per counter bump.
    assert_eq!(count("cache.hit"), stats.hits);
    assert_eq!(count("cache.miss"), stats.misses);
    assert_eq!(count("cache.disk_read"), stats.disk_hits);
    assert_eq!(count("cache.coalesce"), stats.coalesced);
    assert_eq!(count("cache.eviction"), stats.evictions);
    // This run definitely hit and missed.
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 2);

    // The metric counters agree with the instants, too (mark() bumps both
    // in lockstep).
    let metrics = collector.metrics();
    assert_eq!(metrics.counter("cache.hit"), stats.hits);
    assert_eq!(metrics.counter("cache.miss"), stats.misses);
}

#[test]
fn chrome_trace_export_is_well_formed_for_a_real_batch() {
    let (collector, _) = run_batch();
    let trace = ph_telemetry::export::chrome_trace(&collector);
    // Structural sanity without a JSON parser: the envelope, balanced
    // B/E phases, and at least one job + pass span by name.
    assert!(trace.starts_with('{') && trace.trim_end().ends_with('}'));
    assert!(trace.contains("\"traceEvents\""));
    assert_eq!(
        trace.matches("\"ph\": \"B\"").count(),
        trace.matches("\"ph\": \"E\"").count(),
        "unbalanced begin/end events"
    );
    assert!(trace.contains("\"name\": \"job:a\""));
    assert!(trace.contains("\"name\": \"synthesis\""));
    assert!(trace.contains("\"name\": \"cache.hit\""));
}
