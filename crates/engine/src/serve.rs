//! `ph_serve`: a TCP compile service over an [`Engine`].
//!
//! One [`Server`] owns an [`Engine`]: a listener thread accepts
//! connections, one reader thread per connection parses newline-delimited
//! JSON requests ([`crate::proto`]) into a bounded work queue, and
//! [`Engine::threads`] workers pull jobs off the queue, compile them
//! through the shared single-flight cache, and **stream each report back
//! the moment it finishes** — no batch barrier, and results from different
//! connections interleave freely. Each compile runs on its one worker
//! thread, so the service never uses more than [`Engine::threads`] CPUs
//! for compiles.
//!
//! Robustness properties, all tested end-to-end (and under injected
//! faults by the chaos suite):
//!
//! * **Backpressure.** The queue is bounded ([`ServeConfig::queue_depth`]);
//!   a compile request arriving while it is full is answered immediately
//!   with an `overloaded` report instead of buffering without limit.
//! * **Deadlines.** A per-request (or server-default) deadline expires
//!   jobs still queued when it passes (`deadline_exceeded`), so a slow
//!   queue cannot serve stale work.
//! * **Errors as values.** Compiler rejections, panics inside a pass
//!   ([`Engine::compile_with`]), malformed requests, and
//!   oversized lines are all wire responses; none of them kill the
//!   connection, the worker, or the server.
//! * **Dead connections don't waste workers.** A client that vanishes
//!   mid-stream is detected at the first failed response write; that
//!   connection's still-queued jobs are cancelled instead of compiled
//!   ([`ServeStats::cancelled`], `serve.cancelled` telemetry).
//! * **Watchdog.** With [`ServeConfig::watchdog`] set, a job stuck in a
//!   worker past the threshold is force-answered with a typed
//!   `watchdog_timeout` report and a replacement worker is spawned, so
//!   one wedged compile can neither hold its client hostage nor wedge
//!   the drain. Each job is answered exactly once — a stuck compile that
//!   eventually finishes is discarded.
//! * **Graceful drain.** A `shutdown` request (or [`ServerHandle::shutdown`])
//!   stops accepting connections and new work, but every job already
//!   accepted is answered (compiled, cancelled, or timed out) before
//!   [`Server::run`] returns.
//!
//! Telemetry: each connection runs under a `conn` span, each job under a
//! `request` span (with `id`/`conn`/`queue_wait_us` args)
//! that the engine's `compile` span nests inside, plus `serve.request` /
//! `serve.reject` / `serve.deadline_miss` / `serve.cancelled` /
//! `serve.watchdog_timeout` instants and `serve.queue_wait_ns` /
//! `serve.request_ns` histograms.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use paulihedral::ir::PauliIR;
use paulihedral::parse::parse_program;
use ph_telemetry::json::Json;

use crate::cache::{relock, CacheEntry};
use crate::engine::Engine;
use crate::fault::{ConnFault, Fault};
use crate::persist;
use crate::proto::{self, CompileRequest, Request};
use crate::target::Target;

/// Tunables of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum jobs waiting for a worker before new compile requests are
    /// rejected with `overloaded`.
    pub queue_depth: usize,
    /// Deadline applied to requests that do not carry their own
    /// `deadline_ms` (`None` = no default deadline).
    pub default_deadline: Option<Duration>,
    /// Longest accepted request line in bytes; longer lines are answered
    /// with `request_too_large` and the connection is closed.
    pub max_line_bytes: usize,
    /// Stuck-job threshold: a job inside a worker longer than this is
    /// force-answered with a `watchdog_timeout` report and its worker is
    /// written off and replaced (`None` = no watchdog).
    pub watchdog: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_depth: 256,
            default_deadline: None,
            max_line_bytes: 16 * 1024 * 1024,
            watchdog: None,
        }
    }
}

/// Service counters, returned by [`Server::run`] and
/// [`ServerHandle::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: u64,
    /// Compile requests received (accepted or rejected).
    pub requests: u64,
    /// Compile requests answered with a compiled (or compiler-rejected)
    /// report.
    pub completed: u64,
    /// Compile requests rejected by the service itself (bad request,
    /// overloaded, draining).
    pub rejected: u64,
    /// Jobs whose deadline expired before a worker picked them up.
    pub deadline_misses: u64,
    /// Queued jobs skipped because their connection was already dead.
    pub cancelled: u64,
    /// Jobs force-answered by the watchdog after exceeding the
    /// stuck-threshold.
    pub watchdog_timeouts: u64,
    /// Replacement workers spawned for written-off stuck ones.
    pub workers_replaced: u64,
}

/// One accepted compile request's answer slot: which connection to write
/// to and the exactly-once latch both the worker and the watchdog race
/// for. Whoever swaps `answered` first writes the report; the loser's
/// result is discarded.
struct Ticket {
    conn: Arc<Conn>,
    id: u64,
    name: String,
    answered: AtomicBool,
}

/// One queued compile job, carrying everything the worker needs.
struct Job {
    ticket: Arc<Ticket>,
    req: CompileRequest,
    ir: PauliIR,
    target: Option<Target>,
    enqueued: Instant,
    deadline: Option<Instant>,
}

/// The writer half of one connection, shared between its reader thread
/// and every worker holding one of its jobs.
struct Conn {
    id: u64,
    writer: Mutex<TcpStream>,
    /// Jobs accepted from this connection and not yet answered.
    pending: Mutex<u64>,
    idle: Condvar,
    /// Report lines (success, failure, or reject) written so far.
    served: AtomicU64,
    closed: AtomicBool,
    /// Set on the first failed (or fault-injected) response write: the
    /// client is gone, so this connection's remaining queued jobs are
    /// cancelled instead of compiled.
    dead: AtomicBool,
    fault: Fault,
}

impl Conn {
    /// Writes one response line. A failed write marks the connection dead
    /// — the jobs already compiled stay compiled (and warm the shared
    /// cache), but queued ones will be cancelled rather than compiled for
    /// a client that can no longer receive them.
    fn write_line(&self, json: &Json) {
        if self.is_dead() {
            return;
        }
        let mut line = json.to_compact();
        line.push('\n');
        match self.fault.conn_write() {
            ConnFault::Drop => {
                self.dead.store(true, Ordering::SeqCst);
                self.close();
                return;
            }
            ConnFault::Truncate => {
                let cut = line.len() / 2;
                {
                    let mut stream = relock(&self.writer);
                    let _ = stream.write_all(&line.as_bytes()[..cut]);
                    let _ = stream.flush();
                }
                self.dead.store(true, Ordering::SeqCst);
                self.close();
                return;
            }
            ConnFault::Stall(d) => self.fault.sleep(d),
            ConnFault::None => {}
        }
        let mut stream = relock(&self.writer);
        let ok = stream.write_all(line.as_bytes()).is_ok() && stream.flush().is_ok();
        if !ok {
            self.dead.store(true, Ordering::SeqCst);
        }
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn add_pending(&self) {
        *relock(&self.pending) += 1;
    }

    /// Counts one report line (success, failure, or reject) toward the
    /// `bye` tally.
    fn count_report(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one accepted job as answered, waking `wait_idle` at zero.
    fn complete(&self) {
        let mut pending = relock(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.idle.notify_all();
        }
    }

    /// Blocks until every accepted job of this connection is answered.
    fn wait_idle(&self) {
        let mut pending = relock(&self.pending);
        while *pending > 0 {
            pending = self
                .idle
                .wait(pending)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Closes the socket (both halves), once.
    fn close(&self) {
        if !self.closed.swap(true, Ordering::SeqCst) {
            let _ = relock(&self.writer).shutdown(Shutdown::Both);
        }
    }
}

/// Why [`Inner::push`] refused a job.
enum PushError {
    Full,
    Draining,
}

struct Inner {
    engine: Engine,
    config: ServeConfig,
    addr: SocketAddr,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    draining: AtomicBool,
    /// Set once the drain has finished; stops the watchdog thread.
    done: AtomicBool,
    conns: Mutex<Vec<Arc<Conn>>>,
    /// Accepted compile requests not yet answered (the drain barrier:
    /// [`Server::run`] returns once draining is set and this hits zero).
    outstanding: Mutex<u64>,
    drained: Condvar,
    /// Jobs currently inside a worker, with their start instants — what
    /// the watchdog scans.
    running: Mutex<Vec<(Arc<Ticket>, Instant)>>,
    connections: AtomicU64,
    requests: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    deadline_misses: AtomicU64,
    cancelled: AtomicU64,
    watchdog_timeouts: AtomicU64,
    workers_replaced: AtomicU64,
}

impl Inner {
    fn stats(&self) -> ServeStats {
        ServeStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            watchdog_timeouts: self.watchdog_timeouts.load(Ordering::Relaxed),
            workers_replaced: self.workers_replaced.load(Ordering::Relaxed),
        }
    }

    fn queued(&self) -> usize {
        relock(&self.queue).len()
    }

    /// Enqueues a job; on refusal the (boxed, to keep the `Err` small)
    /// job is handed back so the caller can answer it.
    fn push(&self, job: Box<Job>) -> Result<(), (Box<Job>, PushError)> {
        let mut queue = relock(&self.queue);
        // Checked under the queue lock so a drain begun concurrently can
        // never strand a job the workers already stopped watching for.
        if self.draining.load(Ordering::SeqCst) {
            return Err((job, PushError::Draining));
        }
        if queue.len() >= self.config.queue_depth {
            return Err((job, PushError::Full));
        }
        queue.push_back(*job);
        self.queue_cv.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once draining and empty — the
    /// worker's signal to exit with every accepted job answered.
    fn pop(&self) -> Option<Job> {
        let mut queue = relock(&self.queue);
        loop {
            if let Some(job) = queue.pop_front() {
                return Some(job);
            }
            if self.draining.load(Ordering::SeqCst) {
                return None;
            }
            queue = self
                .queue_cv
                .wait(queue)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Starts the graceful drain: no new connections or jobs, all queued
    /// work still runs to completion.
    fn begin_drain(&self) {
        {
            let _queue = relock(&self.queue);
            self.draining.store(true, Ordering::SeqCst);
        }
        self.queue_cv.notify_all();
        // The drain barrier may already hold (nothing outstanding).
        self.drained.notify_all();
        // Unblock the accept loop: it re-checks `draining` per connection,
        // so one throwaway local connect is enough to let it exit.
        let _ = TcpStream::connect(self.addr);
    }

    /// Blocks until draining is requested and every accepted job has been
    /// answered.
    fn wait_drained(&self) {
        let mut outstanding = relock(&self.outstanding);
        while *outstanding > 0 {
            outstanding = self
                .drained
                .wait(outstanding)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Claims one outstanding-answer slot for a just-accepted job.
    fn accept_one(&self, conn: &Conn) {
        conn.add_pending();
        *relock(&self.outstanding) += 1;
    }

    /// Answers one accepted job exactly once: writes the report line (if
    /// any — cancelled jobs write nothing), releases the connection's
    /// pending slot, and decrements the drain barrier. Returns `false`
    /// when someone else (worker vs. watchdog) answered first. The
    /// winner's outcome counter is bumped *before* the write, so a client
    /// that reads its report and immediately asks for `stats` sees it
    /// counted.
    fn answer(&self, ticket: &Ticket, line: Option<&Json>, counter: &AtomicU64) -> bool {
        if ticket.answered.swap(true, Ordering::SeqCst) {
            return false;
        }
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(line) = line {
            ticket.conn.write_line(line);
            ticket.conn.count_report();
        }
        ticket.conn.complete();
        let mut outstanding = relock(&self.outstanding);
        *outstanding -= 1;
        if *outstanding == 0 {
            self.drained.notify_all();
        }
        true
    }

    /// The `stats` response line.
    fn stats_json(&self) -> Json {
        let s = self.stats();
        Json::obj([
            ("type", Json::str("stats")),
            (
                "serve",
                Json::obj([
                    ("connections", Json::U64(s.connections)),
                    ("requests", Json::U64(s.requests)),
                    ("completed", Json::U64(s.completed)),
                    ("rejected", Json::U64(s.rejected)),
                    ("deadline_misses", Json::U64(s.deadline_misses)),
                    ("cancelled", Json::U64(s.cancelled)),
                    ("watchdog_timeouts", Json::U64(s.watchdog_timeouts)),
                    ("workers_replaced", Json::U64(s.workers_replaced)),
                    ("queued", Json::U64(self.queued() as u64)),
                ]),
            ),
            ("cache", proto::cache_json(&self.engine.cache_stats())),
        ])
    }

    /// The `health` response line: queue depth, worker liveness, and
    /// cache tier status, cheap enough for load-balancer probes.
    fn health_json(&self) -> Json {
        let s = self.stats();
        let cache = self.engine.cache_stats();
        let draining = self.draining.load(Ordering::SeqCst);
        let disk_tier = if self.engine.cache_config().disk_dir.is_none() {
            "none"
        } else if cache.disk_disabled {
            "disabled"
        } else {
            "ok"
        };
        let status = if draining {
            "draining"
        } else if cache.disk_disabled || s.workers_replaced > 0 {
            "degraded"
        } else {
            "ok"
        };
        Json::obj([
            ("type", Json::str("health")),
            ("status", Json::str(status)),
            ("draining", Json::Bool(draining)),
            ("queued", Json::U64(self.queued() as u64)),
            ("queue_depth", Json::U64(self.config.queue_depth as u64)),
            ("workers", Json::U64(self.engine.threads() as u64)),
            ("workers_replaced", Json::U64(s.workers_replaced)),
            ("running", Json::U64(relock(&self.running).len() as u64)),
            ("watchdog_timeouts", Json::U64(s.watchdog_timeouts)),
            ("disk_tier", Json::str(disk_tier)),
            ("cache", proto::cache_json(&cache)),
        ])
    }

    /// Answers one compile request with a service-side rejection (before
    /// it was ever accepted — parse and validation failures).
    fn reject(&self, conn: &Conn, req: &CompileRequest, kind: &str, message: &str) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.engine.telemetry().mark("serve.reject", &[]);
        conn.write_line(&proto::reject_json(
            req.id,
            &req.display_name(),
            kind,
            message,
        ));
        conn.count_report();
    }

    /// Validates and enqueues one compile request; every exit path writes
    /// exactly one report line (now, or later from a worker).
    fn submit(&self, conn: &Arc<Conn>, req: CompileRequest) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.engine.telemetry().mark("serve.request", &[]);
        let ir = match parse_program(&req.ir) {
            Ok(ir) => ir,
            Err(e) => {
                self.reject(conn, &req, "bad_request", &format!("ir parse error: {e}"));
                return;
            }
        };
        let target = match &req.backend {
            None => None,
            Some(spec) => match Target::parse_spec(spec, ir.num_qubits()) {
                Ok(t) => Some(t),
                Err(msg) => {
                    self.reject(conn, &req, "bad_request", &msg);
                    return;
                }
            },
        };
        let deadline = req
            .deadline_ms
            .map(Duration::from_millis)
            .or(self.config.default_deadline)
            .map(|d| Instant::now() + d);
        self.accept_one(conn);
        let ticket = Arc::new(Ticket {
            conn: Arc::clone(conn),
            id: req.id,
            name: req.display_name(),
            answered: AtomicBool::new(false),
        });
        let job = Job {
            ticket,
            req,
            ir,
            target,
            enqueued: Instant::now(),
            deadline,
        };
        if let Err((job, kind)) = self.push(Box::new(job)) {
            let (tag, message) = match kind {
                PushError::Full => (
                    "overloaded",
                    format!(
                        "work queue is full ({} jobs); retry later",
                        self.config.queue_depth
                    ),
                ),
                PushError::Draining => ("draining", "server is shutting down".to_string()),
            };
            self.engine.telemetry().mark("serve.reject", &[]);
            let line = proto::reject_json(job.req.id, &job.ticket.name, tag, &message);
            self.answer(&job.ticket, Some(&line), &self.rejected);
        }
    }

    /// One worker: pull → liveness/deadline check → compile → stream the
    /// report (unless the watchdog already answered for us).
    fn worker(self: &Arc<Inner>) {
        let telemetry = self.engine.telemetry().clone();
        while let Some(job) = self.pop() {
            let queue_wait = job.enqueued.elapsed();
            let span = telemetry.span_with(
                "request",
                vec![
                    ("id", job.req.id.into()),
                    ("conn", job.ticket.conn.id.into()),
                    (
                        "queue_wait_us",
                        u64::try_from(queue_wait.as_micros())
                            .unwrap_or(u64::MAX)
                            .into(),
                    ),
                ],
            );
            if job.ticket.conn.is_dead() {
                // The client vanished mid-stream; skip the compile rather
                // than burn a worker on a report nobody can receive.
                telemetry.mark("serve.cancelled", &[("conn", job.ticket.conn.id.into())]);
                self.answer(&job.ticket, None, &self.cancelled);
            } else if job.deadline.is_some_and(|d| Instant::now() > d) {
                telemetry.mark("serve.deadline_miss", &[]);
                let line = proto::reject_json(
                    job.req.id,
                    &job.ticket.name,
                    "deadline_exceeded",
                    "deadline expired before a worker picked the job up",
                );
                self.answer(&job.ticket, Some(&line), &self.deadline_misses);
            } else {
                relock(&self.running).push((Arc::clone(&job.ticket), Instant::now()));
                let t0 = Instant::now();
                let outcome =
                    self.engine
                        .compile_with(&job.ir, job.target.as_ref(), job.req.scheduler);
                let wall = t0.elapsed();
                relock(&self.running).retain(|(t, _)| !Arc::ptr_eq(t, &job.ticket));
                let artifact = match (&outcome, job.req.artifact) {
                    (Ok(o), true) => {
                        let entry = CacheEntry {
                            compiled: Arc::clone(&o.compiled),
                            report: o.report.clone(),
                        };
                        Some(proto::hex_encode(&persist::encode_entry(&entry)))
                    }
                    _ => None,
                };
                let line = proto::report_json(
                    job.req.id,
                    proto::job_json(&job.ticket.name, &outcome, wall, queue_wait),
                    artifact,
                );
                if !self.answer(&job.ticket, Some(&line), &self.completed) {
                    // The watchdog wrote this job off while we computed;
                    // the (late) result is discarded.
                    telemetry.mark("serve.late_result", &[("id", job.req.id.into())]);
                }
            }
            let wall = span.finish();
            telemetry.record_duration("serve.request_ns", wall);
            telemetry.record_duration("serve.queue_wait_ns", queue_wait);
        }
    }

    /// The watchdog loop: scan running jobs every quarter-threshold,
    /// force-answer any stuck past the threshold with `watchdog_timeout`,
    /// and spawn a replacement for each written-off worker (bounded, so a
    /// pathological workload cannot spawn threads without limit).
    fn watchdog(self: &Arc<Inner>, threshold: Duration) {
        let replacement_cap = (self.engine.threads() as u64) * 4;
        let tick = (threshold / 4).max(Duration::from_millis(1));
        let telemetry = self.engine.telemetry().clone();
        while !self.done.load(Ordering::SeqCst) {
            thread::sleep(tick);
            let stuck: Vec<Arc<Ticket>> = {
                let mut running = relock(&self.running);
                let mut out = Vec::new();
                running.retain(|(ticket, started)| {
                    if started.elapsed() > threshold {
                        out.push(Arc::clone(ticket));
                        false
                    } else {
                        true
                    }
                });
                out
            };
            for ticket in stuck {
                let line = proto::reject_json(
                    ticket.id,
                    &ticket.name,
                    "watchdog_timeout",
                    &format!(
                        "job exceeded the {} ms stuck-job threshold",
                        threshold.as_millis()
                    ),
                );
                if !self.answer(&ticket, Some(&line), &self.watchdog_timeouts) {
                    // The worker finished in the gap between the scan and
                    // here — not stuck after all, nothing to replace.
                    continue;
                }
                telemetry.mark("serve.watchdog_timeout", &[("id", ticket.id.into())]);
                // The worker underneath is presumed wedged. Replace it so
                // queued jobs keep flowing; the wedged thread's eventual
                // result (if any) loses the answer race and is discarded.
                let replaced = self.workers_replaced.fetch_add(1, Ordering::SeqCst) + 1;
                if replaced <= replacement_cap {
                    let inner = Arc::clone(self);
                    thread::spawn(move || inner.worker());
                } else {
                    self.workers_replaced.fetch_sub(1, Ordering::SeqCst);
                }
            }
            // Safety valve once the replacement budget is spent: expire
            // queued jobs past the threshold directly so the drain still
            // terminates even if every worker is wedged.
            if self.workers_replaced.load(Ordering::SeqCst) >= replacement_cap {
                let expired: Vec<Arc<Ticket>> = {
                    let mut queue = relock(&self.queue);
                    let mut out = Vec::new();
                    queue.retain(|job| {
                        if job.enqueued.elapsed() > threshold {
                            out.push(Arc::clone(&job.ticket));
                            false
                        } else {
                            true
                        }
                    });
                    out
                };
                for ticket in expired {
                    telemetry.mark("serve.watchdog_timeout", &[("id", ticket.id.into())]);
                    let line = proto::reject_json(
                        ticket.id,
                        &ticket.name,
                        "watchdog_timeout",
                        "all workers wedged; job expired in queue",
                    );
                    self.answer(&ticket, Some(&line), &self.watchdog_timeouts);
                }
            }
        }
    }

    /// One connection's reader loop: parse lines, dispatch requests,
    /// answer control messages inline, and on EOF wait for this
    /// connection's in-flight jobs before saying goodbye.
    fn handle_conn(self: &Arc<Inner>, conn: Arc<Conn>, stream: TcpStream) {
        let telemetry = self.engine.telemetry().clone();
        let span = telemetry.span_with("conn", vec![("conn", conn.id.into())]);
        let mut reader = BufReader::new(stream);
        loop {
            match read_line(&mut reader, self.config.max_line_bytes) {
                Line::Eof => break,
                Line::TooLong => {
                    conn.write_line(&proto::error_json(
                        "request_too_large",
                        &format!("request line exceeds {} bytes", self.config.max_line_bytes),
                    ));
                    break;
                }
                Line::BadUtf8 => {
                    conn.write_line(&proto::error_json(
                        "bad_request",
                        "request line is not valid UTF-8",
                    ));
                    continue;
                }
                Line::Text(line) => {
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    match Request::from_line(line) {
                        Err(message) => {
                            conn.write_line(&proto::error_json("bad_request", &message));
                        }
                        Ok(Request::Ping) => {
                            conn.write_line(&Json::obj([("type", Json::str("pong"))]));
                        }
                        Ok(Request::Stats) => conn.write_line(&self.stats_json()),
                        Ok(Request::Health) => conn.write_line(&self.health_json()),
                        Ok(Request::Shutdown) => {
                            conn.write_line(&Json::obj([
                                ("type", Json::str("shutdown_ack")),
                                ("pending", Json::U64(self.queued() as u64)),
                            ]));
                            self.begin_drain();
                        }
                        Ok(Request::Compile(req)) => self.submit(&conn, req),
                    }
                }
            }
        }
        // Half-close or disconnect: every accepted job still gets its
        // report (the writer half outlives the reader), then `bye` closes
        // the stream so a well-behaved client can count its reports.
        conn.wait_idle();
        conn.write_line(&Json::obj([
            ("type", Json::str("bye")),
            ("served", Json::U64(conn.served.load(Ordering::Relaxed))),
        ]));
        conn.close();
        drop(span);
    }
}

/// One request line, bounded.
enum Line {
    Text(String),
    Eof,
    TooLong,
    BadUtf8,
}

/// Reads one `\n`-terminated line of at most `max` bytes. The limit is
/// enforced *during* the read (`Take`), so an adversarial client cannot
/// make the server buffer an unbounded line.
fn read_line(reader: &mut BufReader<TcpStream>, max: usize) -> Line {
    let mut buf = Vec::new();
    let mut limited = reader.by_ref().take(max as u64 + 1);
    match limited.read_until(b'\n', &mut buf) {
        Ok(0) => Line::Eof,
        Ok(_) if buf.len() > max => Line::TooLong,
        Ok(_) => {
            if buf.last() == Some(&b'\n') {
                buf.pop();
            }
            match String::from_utf8(buf) {
                Ok(s) => Line::Text(s),
                Err(_) => Line::BadUtf8,
            }
        }
        Err(_) => Line::Eof,
    }
}

/// A running compile service bound to a TCP address.
///
/// `bind` then [`Server::run`]; `run` blocks until a drain completes (a
/// `shutdown` request on any connection, or [`ServerHandle::shutdown`]
/// from another thread) and returns the final [`ServeStats`].
pub struct Server {
    listener: TcpListener,
    inner: Arc<Inner>,
}

impl Server {
    /// Binds the service (use port 0 for an ephemeral port, then
    /// [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Any [`TcpListener::bind`] failure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Engine,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            inner: Arc::new(Inner {
                engine,
                config,
                addr,
                queue: Mutex::new(VecDeque::new()),
                queue_cv: Condvar::new(),
                draining: AtomicBool::new(false),
                done: AtomicBool::new(false),
                conns: Mutex::new(Vec::new()),
                outstanding: Mutex::new(0),
                drained: Condvar::new(),
                running: Mutex::new(Vec::new()),
                connections: AtomicU64::new(0),
                requests: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                deadline_misses: AtomicU64::new(0),
                cancelled: AtomicU64::new(0),
                watchdog_timeouts: AtomicU64::new(0),
                workers_replaced: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// A handle for controlling and observing the server from another
    /// thread while [`Server::run`] blocks.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Serves until drained: accepts connections, streams reports, and on
    /// shutdown answers every accepted job before returning the final
    /// counters.
    ///
    /// Workers are detached rather than joined: the drain barrier counts
    /// *answers*, not worker exits, so a worker wedged on a stuck compile
    /// (written off by the watchdog) cannot wedge the drain with it.
    pub fn run(self) -> ServeStats {
        let inner = self.inner;
        for _ in 0..inner.engine.threads() {
            let inner = Arc::clone(&inner);
            thread::spawn(move || inner.worker());
        }
        let watchdog = inner.config.watchdog.map(|threshold| {
            let inner = Arc::clone(&inner);
            thread::spawn(move || inner.watchdog(threshold))
        });

        let mut conn_threads = Vec::new();
        for stream in self.listener.incoming() {
            if inner.draining.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let Ok(writer) = stream.try_clone() else {
                continue;
            };
            let id = inner.connections.fetch_add(1, Ordering::Relaxed) + 1;
            let conn = Arc::new(Conn {
                id,
                writer: Mutex::new(writer),
                pending: Mutex::new(0),
                idle: Condvar::new(),
                served: AtomicU64::new(0),
                closed: AtomicBool::new(false),
                dead: AtomicBool::new(false),
                fault: inner.engine.fault().clone(),
            });
            relock(&inner.conns).push(Arc::clone(&conn));
            let inner = Arc::clone(&inner);
            conn_threads.push(thread::spawn(move || inner.handle_conn(conn, stream)));
        }
        drop(self.listener);

        // Drain: every accepted job answered (compiled, cancelled, timed
        // out, or rejected) — not "every worker exited".
        inner.wait_drained();
        inner.done.store(true, Ordering::SeqCst);
        // Readers may still be blocked on clients that never hang up;
        // closing the sockets gives them EOF and lets them finish their
        // own goodbye path.
        for conn in relock(&inner.conns).iter() {
            conn.close();
        }
        for t in conn_threads {
            let _ = t.join();
        }
        if let Some(w) = watchdog {
            let _ = w.join();
        }
        inner.stats()
    }
}

/// Controls a running [`Server`] from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// Begins the graceful drain (idempotent).
    pub fn shutdown(&self) {
        self.inner.begin_drain();
    }

    /// Current service counters.
    pub fn stats(&self) -> ServeStats {
        self.inner.stats()
    }

    /// Jobs currently waiting for a worker.
    pub fn queued(&self) -> usize {
        self.inner.queued()
    }
}
