//! `phc` — the Paulihedral command-line compiler, driven by the
//! `ph_engine` engine.
//!
//! Single-program mode (prints cost metrics, optionally OpenQASM 2.0):
//!
//! ```text
//! phc INPUT.pauli [--backend ft|manhattan|melbourne|linear:N|grid:RxC]
//!                 [--scheduler auto|gco|do] [--qasm OUT.qasm] [--report]
//!                 [--trace-out TRACE.json] [--metrics-out METRICS.jsonl]
//! ```
//!
//! Any `INPUT` may be a `workload:NAME` pseudo-input instead of a file:
//! the 31 Table 1 benchmark names (`workload:UCCSD-16`) or the scale
//! lattices (`workload:Heisen-1000`, `workload:Ising-32x32`) generate
//! their program in-process. `--report` adds the per-pass table and, on
//! an SC backend, the initial and final layouts.
//!
//! Batch mode (compiles many programs across a worker pool and emits a
//! JSON report with per-pass instrumentation, cache counters, and latency
//! histogram percentiles):
//!
//! ```text
//! phc batch INPUT1.pauli INPUT2.pauli … [--backend …] [--scheduler …]
//!           [--threads N] [--json REPORT.json]
//!           [--cache-dir DIR] [--cache-entries N] [--cache-bytes N]
//!           [--trace-out TRACE.json] [--metrics-out METRICS.jsonl]
//! ```
//!
//! `--cache-dir` enables the persistent cache tier: a second run over the
//! same inputs and configuration is served from `DIR` instead of
//! recompiling. `--cache-entries`/`--cache-bytes` bound the in-memory tier
//! (LRU eviction; see the `cache` object of the JSON report for counters).
//!
//! Service mode (a TCP compile server speaking newline-delimited JSON,
//! and a client that streams reports back as they finish):
//!
//! ```text
//! phc serve [--listen 127.0.0.1:7878] [--backend …] [--scheduler …]
//!           [--threads N] [--queue N] [--deadline-ms N] [--watchdog-ms N]
//!           [--cache-dir DIR] [--cache-entries N] [--cache-bytes N]
//!           [--fault-plan SPEC]
//!           [--trace-out TRACE.json] [--metrics-out METRICS.jsonl]
//! phc submit ADDR INPUT1.pauli … [--backend …] [--scheduler …]
//!            [--deadline-ms N] [--artifact] [--retries N]
//!            [--connect-timeout-ms N] [--read-timeout-ms N]
//!            [--retry-seed N] [--stats] [--health] [--shutdown]
//! ```
//!
//! `phc submit` rides the resilient [`ph_engine::client::Client`]:
//! transport faults (connect failures, dropped or truncated connections,
//! read timeouts) are absorbed by up to `--retries N` reconnect +
//! re-submit rounds with jittered exponential backoff, and retryable job
//! errors (`panicked`, `overloaded`, `watchdog_timeout`) are re-submitted
//! per job. Its exit code distinguishes what ultimately went wrong:
//!
//! | exit | meaning |
//! |------|---------|
//! | 0    | every job compiled (or was served from cache) |
//! | 1    | usage or local error (bad flags, unreadable input) |
//! | 2    | server answered, but a job failed for a non-transient reason (compiler rejection, `bad_request`) |
//! | 3    | capacity/deadline: `overloaded`, `draining`, `deadline_exceeded`, or `watchdog_timeout` survived the retry budget |
//! | 4    | transport: the retry budget ran out without an answer |
//!
//! When several apply, the highest code wins (transport trumps capacity
//! trumps job errors). The final stdout line is a `{"type": "client"}`
//! object with the retry counters, so scripts can assert on resilience
//! behavior.
//!
//! `--watchdog-ms N` arms the server's stuck-job watchdog; `--fault-plan
//! SPEC` (e.g. `seed=7,disk.read=0.2,worker.panic=0.1,conn.drop=0.1`)
//! enables deterministic fault injection for chaos testing — see
//! [`ph_engine::fault::FaultPlan::parse`] for the key vocabulary. The
//! plan also works on `phc batch` and single-program runs (the disk and
//! worker seams; the connection seam only matters under `serve`).
//!
//! `phc serve` prints one `{"type": "listening", "addr": …}` line to
//! stdout (machine-parseable; with `--listen …:0` this is how scripts
//! learn the ephemeral port) and blocks until a client sends `shutdown`.
//! Two `phc` processes pointed at one `--cache-dir` share compiled
//! artifacts through the persistent cache tier, so a `phc submit` against
//! a warm server reports `cache_hit: true` without recompiling. See the
//! README "Compile service" section for the wire protocol.
//!
//! `--trace-out` writes a Chrome `trace_event` file — open it at
//! `chrome://tracing` or <https://ui.perfetto.dev> to see per-worker job
//! spans with the pass spans nested inside them and cache events on the
//! timeline. `--metrics-out` writes the same stream as JSONL (one JSON
//! object per line: every span/instant event, then final
//! counter/gauge/histogram values). In serve and single modes these two
//! flags are what turn recording on: without them no events are kept, so
//! a long-running server does not grow with its request count. Batch mode
//! always records, because its JSON report carries latency percentiles.
//!
//! Example input file:
//!
//! ```text
//! {(IIXY, 0.5), (IIYX, -0.5), theta1};
//! {(ZZII, 0.134), 0.5};
//! ```
//!
//! (This binary lives in the engine crate rather than `crates/core`
//! because it drives the engine, and the engine depends on the core
//! library — the reverse dependency would be a package cycle.)

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use paulihedral::parse::parse_program;
use paulihedral::Scheduler;
use ph_engine::json::Json;
use ph_engine::proto::{self, CompileRequest, Request};
use ph_engine::{
    BatchResult, CacheConfig, Client, ClientConfig, ClientError, Collector, CompileJob, Engine,
    Fault, FaultPlan, MetricsSnapshot, Pipeline, ServeConfig, Server, Target, Telemetry,
};
use ph_telemetry::export;
use qcircuit::qasm::{to_qasm, QasmOptions};

/// The single flag table both the parser and the positional filter derive
/// from: every `--flag` the CLI understands, and whether it consumes the
/// next argument as its value. Adding a flag here is the *only* step —
/// `positionals()` and unknown-flag rejection follow automatically.
const FLAGS: &[(&str, bool)] = &[
    ("--backend", true),
    ("--scheduler", true),
    ("--qasm", true),
    ("--threads", true),
    ("--json", true),
    ("--cache-dir", true),
    ("--cache-entries", true),
    ("--cache-bytes", true),
    ("--trace-out", true),
    ("--metrics-out", true),
    ("--listen", true),
    ("--queue", true),
    ("--deadline-ms", true),
    ("--watchdog-ms", true),
    ("--fault-plan", true),
    ("--retries", true),
    ("--connect-timeout-ms", true),
    ("--read-timeout-ms", true),
    ("--retry-seed", true),
    ("--report", false),
    ("--artifact", false),
    ("--stats", false),
    ("--health", false),
    ("--shutdown", false),
];

fn flag_takes_value(flag: &str) -> Option<bool> {
    FLAGS.iter().find(|(f, _)| *f == flag).map(|&(_, v)| v)
}

/// Splits `args` into positionals, validating every flag against the
/// table: unknown `--flags` and value flags missing their value are hard
/// errors, never silently treated as input files.
fn positionals(args: &[String]) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match flag_takes_value(a) {
            Some(true) => {
                if iter.next().is_none() {
                    return Err(format!("{a} requires a value"));
                }
            }
            Some(false) => {}
            None if a.starts_with("--") => {
                return Err(format!("unknown flag `{a}` (see phc --help in the docs)"));
            }
            None => out.push(a.clone()),
        }
    }
    Ok(out)
}

fn value_of(args: &[String], flag: &str) -> Option<String> {
    debug_assert_eq!(flag_takes_value(flag), Some(true), "{flag} not in table");
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag_present(args: &[String], flag: &str) -> bool {
    debug_assert_eq!(flag_takes_value(flag), Some(false), "{flag} not in table");
    args.iter().any(|a| a == flag)
}

fn parse_scheduler(args: &[String]) -> Result<Scheduler, String> {
    match value_of(args, "--scheduler") {
        None => Ok(Scheduler::Auto),
        Some(spec) => proto::parse_scheduler_spec(&spec),
    }
}

/// Resolves one positional input: `workload:NAME` generates a named
/// program (the 31 Table 1 benchmarks plus the `scale` lattices, e.g.
/// `workload:Heisen-1000`); anything else is read as a `.pauli` file.
fn load_input(spec: &str) -> Result<paulihedral::ir::PauliIR, String> {
    if let Some(name) = spec.strip_prefix("workload:") {
        if let Some(ir) = workloads::scale::named_scale_ir(name) {
            return Ok(ir);
        }
        if let Some(b) = workloads::suite::try_generate(name) {
            return Ok(b.ir);
        }
        return Err(format!(
            "unknown workload `{name}` (Table 1 names, or Ising-N/Heisen-N/Ising-RxC/Heisen-RxC)"
        ));
    }
    let text = std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))?;
    parse_program(&text).map_err(|e| format!("{spec}: {e}"))
}

/// The latency histograms of the metrics snapshot, percentiles in
/// milliseconds (names keep their `_ns` suffix; values here are rescaled).
fn metrics_json(snapshot: &MetricsSnapshot) -> Json {
    let ms = |ns: u64| Json::f64_rounded(ns as f64 / 1e6, 3);
    Json::obj([
        (
            "counters",
            Json::obj(
                snapshot
                    .counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::U64(v))),
            ),
        ),
        (
            "histograms_ms",
            Json::obj(snapshot.histograms.iter().map(|(k, h)| {
                (
                    k.trim_end_matches("_ns").to_string(),
                    Json::obj([
                        ("count", Json::U64(h.count)),
                        ("min", ms(h.min)),
                        ("max", ms(h.max)),
                        ("mean", ms(h.mean)),
                        ("p50", ms(h.p50)),
                        ("p90", ms(h.p90)),
                        ("p99", ms(h.p99)),
                    ]),
                )
            })),
        ),
    ])
}

fn json_report(results: &[BatchResult], engine: &Engine, snapshot: &MetricsSnapshot) -> String {
    let report = Json::obj([
        ("threads", Json::U64(engine.threads() as u64)),
        (
            "jobs",
            Json::Arr(results.iter().map(proto::batch_result_json).collect()),
        ),
        ("cache", proto::cache_json(&engine.cache_stats())),
        ("metrics", metrics_json(snapshot)),
    ]);
    let mut out = report.to_pretty();
    out.push('\n');
    out
}

/// `--fault-plan SPEC`: a seeded fault-injection plan, or the zero-cost
/// disabled handle when absent.
fn parse_fault(args: &[String]) -> Result<Fault, String> {
    match value_of(args, "--fault-plan") {
        None => Ok(Fault::disabled()),
        Some(spec) => Ok(Fault::seeded(FaultPlan::parse(&spec)?)),
    }
}

/// Telemetry that records only when `--trace-out` or `--metrics-out` will
/// export it; otherwise the disabled handle, which keeps nothing.
fn export_telemetry(args: &[String]) -> Telemetry {
    let export = |flag| value_of(args, flag).is_some();
    if export("--trace-out") || export("--metrics-out") {
        Telemetry::attached(Arc::new(Collector::new()))
    } else {
        Telemetry::disabled()
    }
}

/// The engine batch and serve modes run: `--cache-*`, `--fault-plan` and
/// `--threads` applied.
fn pool_engine(
    args: &[String],
    scheduler: Scheduler,
    target: Target,
    telemetry: Telemetry,
) -> Result<Engine, String> {
    let mut engine = Engine::new(Pipeline::standard(scheduler), target)
        .with_cache_config(parse_cache_config(args)?)
        .with_fault(parse_fault(args)?)
        .with_telemetry(telemetry);
    if let Some(t) = value_of(args, "--threads") {
        let t: usize = t.parse().map_err(|_| format!("bad thread count `{t}`"))?;
        engine = engine.with_threads(t);
    }
    Ok(engine)
}

/// Builds the batch cache configuration from `--cache-dir`,
/// `--cache-entries`, and `--cache-bytes`.
fn parse_cache_config(args: &[String]) -> Result<CacheConfig, String> {
    let mut config = CacheConfig::default();
    if let Some(dir) = value_of(args, "--cache-dir") {
        config.disk_dir = Some(dir.into());
    }
    if let Some(n) = value_of(args, "--cache-entries") {
        config.max_entries = Some(
            n.parse()
                .map_err(|_| format!("bad --cache-entries `{n}`"))?,
        );
    }
    if let Some(n) = value_of(args, "--cache-bytes") {
        config.max_bytes = Some(n.parse().map_err(|_| format!("bad --cache-bytes `{n}`"))?);
    }
    Ok(config)
}

/// Writes the `--trace-out` / `--metrics-out` exports, if requested.
fn write_exports(args: &[String], telemetry: &Telemetry) -> Result<(), String> {
    let Some(collector) = telemetry.collector() else {
        return Ok(());
    };
    if let Some(path) = value_of(args, "--trace-out") {
        std::fs::write(&path, export::chrome_trace(collector))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path} (open in chrome://tracing or ui.perfetto.dev)");
    }
    if let Some(path) = value_of(args, "--metrics-out") {
        std::fs::write(&path, export::jsonl(collector))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn run_batch(args: &[String]) -> Result<(), String> {
    let files = positionals(args)?;
    if files.is_empty() {
        return Err(
            "usage: phc batch INPUT1.pauli INPUT2.pauli … [--backend B] [--scheduler S] \
             [--threads N] [--json OUT.json] [--cache-dir DIR] [--cache-entries N] \
             [--cache-bytes N] [--trace-out TRACE.json] [--metrics-out METRICS.jsonl] \
             (INPUT may be workload:NAME)"
                .into(),
        );
    }
    let scheduler = parse_scheduler(args)?;
    let mut jobs = Vec::new();
    let mut max_qubits = 0;
    for f in &files {
        let ir = load_input(f)?;
        max_qubits = max_qubits.max(ir.num_qubits());
        jobs.push(CompileJob::named(f.clone(), ir));
    }
    let target = Target::parse_spec(
        value_of(args, "--backend").as_deref().unwrap_or("ft"),
        max_qubits,
    )?;

    // Batch runs always collect: the report's percentiles come from it.
    let collector = Arc::new(Collector::new());
    let telemetry = Telemetry::attached(Arc::clone(&collector));
    let engine = pool_engine(args, scheduler, target, telemetry)?;
    let results = engine.compile_all(jobs);

    let mut failures = 0;
    for r in &results {
        match &r.outcome {
            Ok(o) => {
                let stats = o.report.final_stats();
                eprintln!(
                    "{}: CNOT {}, single {}, depth {}{}",
                    r.name,
                    stats.cnot,
                    stats.single,
                    stats.depth,
                    if o.report.cache_hit {
                        " (cache hit)"
                    } else {
                        ""
                    }
                );
            }
            Err(e) => {
                failures += 1;
                eprintln!("{}: error: {e}", r.name);
            }
        }
    }
    let cs = engine.cache_stats();
    eprintln!(
        "{} jobs on {} threads: {} cache hits, {} disk hits, {} coalesced, {} misses, \
         {} evictions",
        results.len(),
        engine.threads(),
        cs.hits,
        cs.disk_hits,
        cs.coalesced,
        cs.misses,
        cs.evictions
    );
    let snapshot = collector.metrics();
    if let Some(h) = snapshot.histogram("batch.job_wall_ns") {
        eprintln!(
            "job wall: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms (n={})",
            h.p50 as f64 / 1e6,
            h.p90 as f64 / 1e6,
            h.p99 as f64 / 1e6,
            h.count
        );
    }

    let json = json_report(&results, &engine, &snapshot);
    match value_of(args, "--json") {
        Some(path) if path != "-" => {
            std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        _ => print!("{json}"),
    }
    write_exports(args, engine.telemetry())?;
    if failures > 0 {
        return Err(format!("{failures} job(s) failed"));
    }
    Ok(())
}

/// `phc serve`: bind the compile service and block until a client drains
/// it with a `shutdown` request.
fn run_serve(args: &[String]) -> Result<(), String> {
    if !positionals(args)?.is_empty() {
        return Err(
            "usage: phc serve [--listen ADDR] [--backend B] [--scheduler S] [--threads N] \
             [--queue N] [--deadline-ms N] [--watchdog-ms N] \
             [--cache-dir DIR] [--cache-entries N] [--cache-bytes N] [--fault-plan SPEC] \
             [--trace-out TRACE.json] [--metrics-out METRICS.jsonl]"
                .into(),
        );
    }
    let scheduler = parse_scheduler(args)?;
    // The server's default target; per-request `backend` specs override it.
    let target = Target::parse_spec(value_of(args, "--backend").as_deref().unwrap_or("ft"), 0)?;

    let telemetry = export_telemetry(args);
    let engine = pool_engine(args, scheduler, target, telemetry.clone())?;

    let mut config = ServeConfig::default();
    if let Some(q) = value_of(args, "--queue") {
        config.queue_depth = q.parse().map_err(|_| format!("bad --queue `{q}`"))?;
    }
    if let Some(ms) = value_of(args, "--deadline-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("bad --deadline-ms `{ms}`"))?;
        config.default_deadline = Some(Duration::from_millis(ms));
    }
    if let Some(ms) = value_of(args, "--watchdog-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("bad --watchdog-ms `{ms}`"))?;
        config.watchdog = Some(Duration::from_millis(ms));
    }

    let listen = value_of(args, "--listen").unwrap_or_else(|| "127.0.0.1:0".into());
    let server =
        Server::bind(&*listen, engine, config).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    // Machine-parseable: scripts read this line to learn the ephemeral port.
    println!(
        "{}",
        Json::obj([
            ("type", Json::str("listening")),
            ("addr", Json::str(server.local_addr().to_string())),
        ])
        .to_compact()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let stats = server.run();
    eprintln!(
        "drained: {} connections, {} requests ({} completed, {} rejected, {} deadline misses, \
         {} cancelled, {} watchdog timeouts)",
        stats.connections,
        stats.requests,
        stats.completed,
        stats.rejected,
        stats.deadline_misses,
        stats.cancelled,
        stats.watchdog_timeouts
    );
    write_exports(args, &telemetry)?;
    Ok(())
}

/// `phc submit` exit codes (see the module docs for the full taxonomy):
/// usage/local error, non-transient job failure, capacity/deadline, and
/// transport failure. `EXIT_OK` is implicit.
const EXIT_USAGE: u8 = 1;
const EXIT_JOB_FAILED: u8 = 2;
const EXIT_CAPACITY: u8 = 3;
const EXIT_TRANSPORT: u8 = 4;

/// Job-error kinds that mean "the server was out of capacity or time",
/// not "this request is wrong" — exit 3, distinct from exit 2.
const CAPACITY_KINDS: [&str; 4] = [
    "overloaded",
    "draining",
    "deadline_exceeded",
    "watchdog_timeout",
];

/// `phc submit`: send compile requests to a running server through the
/// resilient client (bounded reconnects + re-submission), print each
/// final report (in id order) plus a closing `client` counters line, and
/// exit with the taxonomy code for the worst thing that happened.
fn run_submit(args: &[String]) -> Result<(), (u8, String)> {
    let usage = "usage: phc submit ADDR INPUT1.pauli … [--backend B] [--scheduler S] \
                 [--deadline-ms N] [--artifact] [--retries N] [--connect-timeout-ms N] \
                 [--read-timeout-ms N] [--retry-seed N] [--stats] [--health] [--shutdown]";
    let local = |m: String| (EXIT_USAGE, m);
    let transport = |e: ClientError| (EXIT_TRANSPORT, e.to_string());
    let pos = positionals(args).map_err(local)?;
    let Some((addr, files)) = pos.split_first() else {
        return Err(local(usage.into()));
    };
    let want_stats = flag_present(args, "--stats");
    let want_health = flag_present(args, "--health");
    let want_shutdown = flag_present(args, "--shutdown");
    if files.is_empty() && !want_stats && !want_health && !want_shutdown {
        return Err(local(usage.into()));
    }
    let scheduler = match value_of(args, "--scheduler") {
        None => None,
        Some(spec) => Some(proto::parse_scheduler_spec(&spec).map_err(local)?),
    };
    let backend = value_of(args, "--backend");
    let deadline_ms = match value_of(args, "--deadline-ms") {
        None => None,
        Some(ms) => Some(
            ms.parse()
                .map_err(|_| local(format!("bad --deadline-ms `{ms}`")))?,
        ),
    };

    let mut config = ClientConfig::default();
    if let Some(n) = value_of(args, "--retries") {
        config.max_retries = n
            .parse()
            .map_err(|_| local(format!("bad --retries `{n}`")))?;
    }
    if let Some(ms) = value_of(args, "--connect-timeout-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| local(format!("bad --connect-timeout-ms `{ms}`")))?;
        config.connect_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = value_of(args, "--read-timeout-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| local(format!("bad --read-timeout-ms `{ms}`")))?;
        config.read_timeout = (ms > 0).then(|| Duration::from_millis(ms));
    }
    if let Some(n) = value_of(args, "--retry-seed") {
        config.seed = n
            .parse()
            .map_err(|_| local(format!("bad --retry-seed `{n}`")))?;
    }

    let mut reqs = Vec::new();
    for (i, f) in files.iter().enumerate() {
        let ir = std::fs::read_to_string(f).map_err(|e| local(format!("cannot read {f}: {e}")))?;
        reqs.push(CompileRequest {
            id: i as u64 + 1,
            name: Some(f.clone()),
            ir,
            backend: backend.clone(),
            scheduler,
            deadline_ms,
            artifact: flag_present(args, "--artifact"),
        });
    }

    let mut client =
        Client::new(&**addr, config).map_err(|e| local(format!("cannot resolve {addr}: {e}")))?;
    let results = client.submit_all(reqs).map_err(transport)?;

    let mut job_failures = 0u64;
    let mut capacity_failures = 0u64;
    for report in results.values() {
        println!("{}", report.to_compact());
        if report.get("ok").and_then(Json::as_bool) != Some(true) {
            let kind = report
                .get("error_kind")
                .and_then(Json::as_str)
                .unwrap_or_default();
            if CAPACITY_KINDS.contains(&kind) {
                capacity_failures += 1;
            } else {
                job_failures += 1;
            }
        }
    }

    if want_stats {
        if let Some(line) = client.control(&Request::Stats).map_err(transport)? {
            println!("{}", line.to_compact());
        }
    }
    if want_health {
        if let Some(line) = client.control(&Request::Health).map_err(transport)? {
            println!("{}", line.to_compact());
        }
    }
    if want_shutdown {
        if let Some(line) = client.control(&Request::Shutdown).map_err(transport)? {
            println!("{}", line.to_compact());
        }
    }

    // The closing counters line: how hard the client had to work. Scripts
    // (and the CI chaos smoke) assert on these.
    let cs = client.stats();
    println!(
        "{}",
        Json::obj([
            ("type", Json::str("client")),
            ("connects", Json::U64(cs.connects)),
            ("retries", Json::U64(cs.retries)),
            ("job_retries", Json::U64(cs.job_retries)),
        ])
        .to_compact()
    );

    if capacity_failures > 0 {
        return Err((
            EXIT_CAPACITY,
            format!("{capacity_failures} job(s) rejected for capacity or deadline"),
        ));
    }
    if job_failures > 0 {
        return Err((EXIT_JOB_FAILED, format!("{job_failures} job(s) failed")));
    }
    Ok(())
}

fn run_single(args: &[String]) -> Result<(), String> {
    let input = positionals(args)?.into_iter().next().ok_or(
        "usage: phc INPUT.pauli [--backend ft|manhattan|melbourne|linear:N|grid:RxC] \
         [--scheduler auto|gco|do] [--qasm OUT.qasm] [--report] \
         [--trace-out TRACE.json] [--metrics-out METRICS.jsonl] (INPUT may be workload:NAME)\n\
         \x20      phc batch INPUT… [--threads N] [--json OUT.json]",
    )?;
    let ir = load_input(&input)?;
    eprintln!(
        "parsed {}: {} blocks, {} strings, {} qubits",
        input,
        ir.num_blocks(),
        ir.total_strings(),
        ir.num_qubits()
    );

    let scheduler = parse_scheduler(args)?;
    let target = Target::parse_spec(
        value_of(args, "--backend").as_deref().unwrap_or("ft"),
        ir.num_qubits(),
    )?;

    let engine = Engine::new(Pipeline::standard(scheduler), target)
        .with_telemetry(export_telemetry(args))
        .with_fault(parse_fault(args)?);
    let out = engine
        .compile_with(&ir, None, None)
        .map_err(|e| e.to_string())?;
    let stats = out.report.final_stats();
    println!(
        // `Auto` resolves per program — print the scheduler that actually ran.
        "scheduler={:?} backend={} : CNOT {}, single {}, total {}, depth {}",
        scheduler.resolve(&ir),
        value_of(args, "--backend").unwrap_or_else(|| "ft".into()),
        stats.cnot,
        stats.single,
        stats.total,
        stats.depth
    );
    if flag_present(args, "--report") {
        print!("{}", out.report.table());
        if let (Some(init), Some(fin)) = (&out.compiled.initial_l2p, &out.compiled.final_l2p) {
            println!("initial layout: {init:?}");
            println!("final   layout: {fin:?}");
        }
    }
    if let Some(path) = value_of(args, "--qasm") {
        let qasm = to_qasm(
            &out.compiled.circuit.decompose_swaps(),
            QasmOptions::default(),
        );
        std::fs::write(&path, qasm).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    write_exports(args, engine.telemetry())?;
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Only `submit` has a typed exit-code taxonomy; everything else maps
    // failure to the conventional 1.
    let result = match args.first().map(String::as_str) {
        Some("batch") => run_batch(&args[1..]).map_err(|m| (EXIT_USAGE, m)),
        Some("serve") => run_serve(&args[1..]).map_err(|m| (EXIT_USAGE, m)),
        Some("submit") => run_submit(&args[1..]),
        _ => run_single(&args).map_err(|m| (EXIT_USAGE, m)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => {
            eprintln!("phc: {msg}");
            ExitCode::from(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positionals_skip_flag_values_from_the_table() {
        let args = argv(&[
            "a.pauli",
            "--scheduler",
            "do",
            "b.pauli",
            "--trace-out",
            "t.json",
            "--report",
            "c.pauli",
        ]);
        assert_eq!(
            positionals(&args).unwrap(),
            ["a.pauli", "b.pauli", "c.pauli"]
        );
    }

    #[test]
    fn unknown_flags_are_hard_errors_not_inputs() {
        let err = positionals(&argv(&["a.pauli", "--trace_out", "t.json"])).unwrap_err();
        assert!(err.contains("unknown flag `--trace_out`"), "{err}");
    }

    #[test]
    fn value_flag_without_value_is_an_error() {
        let err = positionals(&argv(&["a.pauli", "--json"])).unwrap_err();
        assert!(err.contains("--json requires a value"), "{err}");
    }

    #[test]
    fn every_flag_in_the_table_is_unique() {
        for (i, (a, _)) in FLAGS.iter().enumerate() {
            assert!(
                FLAGS.iter().skip(i + 1).all(|(b, _)| a != b),
                "duplicate flag {a}"
            );
        }
    }
}
