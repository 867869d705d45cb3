//! `ph_telemetry` — dependency-free tracing and metrics for the
//! Paulihedral compile path.
//!
//! Three pieces:
//!
//! 1. **Spans** ([`Telemetry::span`]): RAII begin/end event pairs with a
//!    monotonic timestamp (relative to the collector's epoch), a small
//!    integer thread id, and a parent link maintained by a thread-local
//!    span stack — so pass spans nest under job spans automatically.
//! 2. **Metrics** ([`metrics`]): named counters, gauges, and log-bucketed
//!    histograms with p50/p90/p99 summaries ([`MetricsSnapshot`]).
//! 3. **Exporters** ([`export`]): a JSONL event stream and Chrome
//!    `trace_event` JSON loadable in `chrome://tracing` / Perfetto, both
//!    built on the shared [`json`] writer.
//!
//! # Cost model
//!
//! A [`Telemetry`] handle is either *attached* to a [`Collector`] or
//! *disabled* (the default no-op sink). Every recording
//! method starts with an `Option` check, so the disabled hot path does no
//! locking, no allocation, and no timestamping beyond the one
//! `Instant::now` a span needs anyway to return its duration — verified
//! at effectively zero cost by the `telemetry` criterion bench.
//!
//! ```
//! use ph_telemetry::{Collector, Telemetry};
//! use std::sync::Arc;
//!
//! let collector = Arc::new(Collector::new());
//! let tel = Telemetry::attached(Arc::clone(&collector));
//! {
//!     let _job = tel.span("job:demo");
//!     let pass = tel.span("schedule"); // nests under job:demo
//!     tel.mark("cache.hit", &[("bytes", 128u64.into())]);
//!     let wall = pass.finish();
//!     tel.record_duration("pass.schedule_ns", wall);
//! }
//! let events = collector.events();
//! assert_eq!(events.len(), 5); // 2 begins, 1 instant, 2 ends
//! let trace = ph_telemetry::export::chrome_trace(&collector);
//! assert!(trace.contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod metrics;

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

pub use metrics::{Histogram, HistogramSummary, MetricsSnapshot};

/// Recovers a poisoned lock: telemetry critical sections only append
/// complete values, so a panicking instrumented thread must never disable
/// observability for everyone else.
pub(crate) fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A span/instant attribute value.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer (counts, byte sizes, microseconds).
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> ArgValue {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

/// What kind of event a record is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Begin,
    /// A span closed.
    End,
    /// A point-in-time event (cache hits, evictions, …).
    Instant,
}

/// One telemetry record.
#[derive(Clone, Debug)]
pub struct Event {
    /// Span or event name (`schedule`, `job:UCCSD-8`, `cache.hit`, …).
    pub name: Cow<'static, str>,
    /// Begin / end / instant.
    pub kind: EventKind,
    /// Monotonic time since the collector's epoch.
    pub ts: Duration,
    /// Small integer thread id (process-wide, first-use order).
    pub tid: u64,
    /// Span id (`Begin`/`End` pairs share it; 0 for instants).
    pub id: u64,
    /// Enclosing span on the same thread at record time, if any.
    pub parent: Option<u64>,
    /// Attributes (`bytes`, `queue_wait_us`, …).
    pub args: Vec<(&'static str, ArgValue)>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// The stack of open span ids on this thread (parent links).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// This thread's small integer id (assigned on first use).
pub fn thread_id() -> u64 {
    TID.with(|t| *t)
}

fn current_parent() -> Option<u64> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

/// An in-memory event buffer plus a metrics registry. Shared behind an
/// `Arc`: every [`Telemetry`] handle attached to it appends to the same
/// stream, and the exporters read it back out.
#[derive(Debug)]
pub struct Collector {
    epoch: Instant,
    events: Mutex<Vec<Event>>,
    next_span: AtomicU64,
    registry: metrics::Registry,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// An empty collector; its epoch (timestamp zero) is now.
    pub fn new() -> Collector {
        Collector {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            next_span: AtomicU64::new(1),
            registry: metrics::Registry::default(),
        }
    }

    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn push(&self, event: Event) {
        relock(&self.events).push(event);
    }

    /// A copy of every event recorded so far, in record order.
    pub fn events(&self) -> Vec<Event> {
        relock(&self.events).clone()
    }

    /// Number of events recorded so far.
    pub fn event_count(&self) -> usize {
        relock(&self.events).len()
    }

    /// A point-in-time copy of every metric.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// A cheap, cloneable recording handle: either attached to a
/// [`Collector`] or disabled (a no-op sink).
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    collector: Option<Arc<Collector>>,
}

impl Telemetry {
    /// The no-op handle — every recording method returns immediately.
    pub fn disabled() -> Telemetry {
        Telemetry { collector: None }
    }

    /// A handle that records into `collector`.
    pub fn attached(collector: Arc<Collector>) -> Telemetry {
        Telemetry {
            collector: Some(collector),
        }
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.collector.is_some()
    }

    /// The attached collector, if any.
    pub fn collector(&self) -> Option<&Arc<Collector>> {
        self.collector.as_ref()
    }

    /// Opens a span. The returned guard records the end event when dropped
    /// (or via [`Span::finish`], which also returns the duration). Close
    /// spans on the thread that opened them — parent links come from a
    /// thread-local stack.
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> Span {
        self.span_with(name, Vec::new())
    }

    /// Opens a span with attributes on its begin event.
    pub fn span_with(
        &self,
        name: impl Into<Cow<'static, str>>,
        args: Vec<(&'static str, ArgValue)>,
    ) -> Span {
        let start = Instant::now();
        let Some(collector) = &self.collector else {
            return Span { inner: None, start };
        };
        let name = name.into();
        let id = collector.next_span.fetch_add(1, Ordering::Relaxed);
        collector.push(Event {
            name: name.clone(),
            kind: EventKind::Begin,
            ts: collector.now(),
            tid: thread_id(),
            id,
            parent: current_parent(),
            args,
        });
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        Span {
            inner: Some(SpanInner {
                collector: Arc::clone(collector),
                name,
                id,
            }),
            start,
        }
    }

    /// Records a point-in-time event.
    pub fn instant(&self, name: &'static str, args: &[(&'static str, ArgValue)]) {
        let Some(collector) = &self.collector else {
            return;
        };
        collector.push(Event {
            name: Cow::Borrowed(name),
            kind: EventKind::Instant,
            ts: collector.now(),
            tid: thread_id(),
            id: 0,
            parent: current_parent(),
            args: args.to_vec(),
        });
    }

    /// Records an instant event *and* bumps the same-named counter by one
    /// — the shape cache events use, so trace event counts and metric
    /// counters agree by construction.
    pub fn mark(&self, name: &'static str, args: &[(&'static str, ArgValue)]) {
        if self.collector.is_none() {
            return;
        }
        self.instant(name, args);
        self.counter(name, 1);
    }

    /// Adds `delta` to a named counter.
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(collector) = &self.collector {
            collector.registry.add(name, delta);
        }
    }

    /// Sets a named gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(collector) = &self.collector {
            collector.registry.set_gauge(name, value);
        }
    }

    /// Records a sample into a named histogram.
    pub fn record(&self, name: &str, value: u64) {
        if let Some(collector) = &self.collector {
            collector.registry.record(name, value);
        }
    }

    /// Records a duration (as nanoseconds, saturating) into a histogram.
    pub fn record_duration(&self, name: &str, d: Duration) {
        if self.collector.is_some() {
            self.record(name, u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

#[derive(Debug)]
struct SpanInner {
    collector: Arc<Collector>,
    name: Cow<'static, str>,
    id: u64,
}

/// An open span. Ends (recording the end event) on drop; [`Span::finish`]
/// ends it explicitly and returns the measured wall time — so callers that
/// already needed an `Instant` pair get it from the span instead.
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
    start: Instant,
}

impl Span {
    /// Time since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Ends the span and returns its wall time. (Dropping the span ends it
    /// too; `finish` just hands the duration back.)
    pub fn finish(mut self) -> Duration {
        let wall = self.start.elapsed();
        self.end();
        wall
    }

    fn end(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        // Pop by id, not blindly: a span moved across threads (or dropped
        // out of order) must not corrupt another span's parent links.
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == inner.id) {
                stack.remove(pos);
            }
        });
        inner.collector.push(Event {
            name: inner.name,
            kind: EventKind::End,
            ts: inner.collector.now(),
            tid: thread_id(),
            id: inner.id,
            parent: None,
            args: Vec::new(),
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_but_still_times() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        let span = tel.span("x");
        std::thread::sleep(Duration::from_millis(1));
        let wall = span.finish();
        assert!(wall >= Duration::from_millis(1));
        tel.mark("cache.hit", &[]);
        tel.record_duration("h_ns", Duration::from_micros(5));
        // Nothing observable: no collector exists to hold anything.
        assert!(tel.collector().is_none());
    }

    #[test]
    fn spans_nest_via_the_thread_local_stack() {
        let collector = Arc::new(Collector::new());
        let tel = Telemetry::attached(Arc::clone(&collector));
        let outer = tel.span("outer");
        let inner = tel.span("inner");
        tel.instant("point", &[]);
        drop(inner);
        drop(outer);
        let events = collector.events();
        assert_eq!(events.len(), 5);
        let begin = |name: &str| {
            events
                .iter()
                .find(|e| e.name == name && e.kind == EventKind::Begin)
                .unwrap()
        };
        assert_eq!(begin("outer").parent, None);
        assert_eq!(begin("inner").parent, Some(begin("outer").id));
        let point = events
            .iter()
            .find(|e| e.kind == EventKind::Instant)
            .unwrap();
        assert_eq!(point.parent, Some(begin("inner").id));
        // Ends arrive innermost-first, timestamps monotone.
        let ends: Vec<&Event> = events.iter().filter(|e| e.kind == EventKind::End).collect();
        assert_eq!(ends[0].name, "inner");
        assert_eq!(ends[1].name, "outer");
        assert!(events.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn finish_returns_wall_time_and_ends_once() {
        let collector = Arc::new(Collector::new());
        let tel = Telemetry::attached(Arc::clone(&collector));
        let span = tel.span("s");
        let wall = span.finish();
        assert!(wall < Duration::from_secs(1));
        // finish() consumed the span; exactly one end event exists.
        let ends = collector
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::End)
            .count();
        assert_eq!(ends, 1);
    }

    #[test]
    fn mark_keeps_events_and_counters_in_lockstep() {
        let collector = Arc::new(Collector::new());
        let tel = Telemetry::attached(Arc::clone(&collector));
        for _ in 0..3 {
            tel.mark("cache.hit", &[("bytes", 64u64.into())]);
        }
        tel.mark("cache.miss", &[]);
        let events = collector.events();
        let hits = events.iter().filter(|e| e.name == "cache.hit").count();
        let snap = collector.metrics();
        assert_eq!(hits as u64, snap.counter("cache.hit"));
        assert_eq!(snap.counter("cache.miss"), 1);
    }

    #[test]
    fn threads_get_distinct_small_ids() {
        let a = thread_id();
        let b = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(a, b);
        assert_eq!(a, thread_id(), "id is stable within a thread");
    }

    #[test]
    fn spans_on_different_threads_do_not_share_parents() {
        let collector = Arc::new(Collector::new());
        let tel = Telemetry::attached(Arc::clone(&collector));
        let _outer = tel.span("outer");
        let tel2 = tel.clone();
        std::thread::spawn(move || {
            let s = tel2.span("worker");
            drop(s);
        })
        .join()
        .unwrap();
        let events = collector.events();
        let worker = events
            .iter()
            .find(|e| e.name == "worker" && e.kind == EventKind::Begin)
            .unwrap();
        assert_eq!(worker.parent, None, "other thread's stack must be empty");
    }
}
