//! Chaos tests: the compile path driven through seeded fault plans.
//!
//! Every test pins its fault seed, so a failure replays exactly. The
//! properties under test are the robustness contracts, not any specific
//! fault outcome:
//!
//! * **Total termination** — whatever the plan injects, every submitted
//!   job gets exactly one final answer and the server drains.
//! * **Bit-identity** — a job that reports `ok` carries an artifact
//!   byte-identical to a fault-free in-process compile of the same
//!   program. Faults may slow or fail work; they may never corrupt it.
//! * **Typed failures** — a job that reports `!ok` carries an
//!   `error_kind` from the documented taxonomy, never a wedge or a
//!   mystery disconnect.
//! * **Degrade, then heal** — a failing disk tier flips the cache to
//!   memory-only after the error threshold and is re-probed back to
//!   health once reads succeed again.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use paulihedral::parse::{parse_program, print_program};
use ph_engine::json::Json;
use ph_engine::proto::{self, CompileRequest, Request};
use ph_engine::{
    CacheConfig, Client, ClientConfig, Connection, Engine, Fault, FaultPlan, Pipeline, ServeConfig,
    Server, Target,
};
use workloads::suite::{self, BackendClass};

const TINY_IR: &str = "{(ZZY, 0.5), 1.0};\n{(XXI, 0.3), 1.0};\n";

/// A scratch directory unique to one test, cleaned before use.
fn scratch(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("chaos_{label}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A distinct two-block program per index (so jobs neither coalesce nor
/// hit each other's cache entries).
fn distinct_ir(i: usize) -> String {
    format!("{{(ZZY, 0.5), {}.0}};\n{{(XXI, 0.3), 1.0}};\n", i + 1)
}

fn spawn_server(
    engine: Engine,
    config: ServeConfig,
) -> (
    std::net::SocketAddr,
    ph_engine::ServerHandle,
    thread::JoinHandle<ph_engine::ServeStats>,
) {
    let server = Server::bind("127.0.0.1:0", engine, config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = thread::spawn(move || server.run());
    (addr, handle, runner)
}

fn compile_req(id: u64, ir: &str) -> CompileRequest {
    CompileRequest {
        id,
        name: None,
        ir: ir.to_string(),
        backend: None,
        scheduler: None,
        deadline_ms: None,
        artifact: false,
    }
}

/// A fault plan that holds every compile in a minute-long injected delay
/// until the test calls [`Fault::pause`] — the stuck-job lever for the
/// watchdog and dead-connection tests. A compile has entered the gate
/// once `worker_delays` counts it.
fn gate() -> Fault {
    Fault::seeded(FaultPlan::parse("seed=1,worker.delay=1.0,worker.delay_ms=60000").unwrap())
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(2));
    }
}

/// Disk-tier graceful degradation: with every disk read and write
/// failing, the cache flips to memory-only after the configured error
/// threshold — and once the disk recovers, a re-probe heals it.
#[test]
fn disk_faults_degrade_to_memory_only_then_heal() {
    let dir = scratch("degrade_heal");
    let fault = Fault::seeded(FaultPlan::parse("seed=42,disk.read=1.0,disk.write=1.0").unwrap());
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant)
        .with_cache_config(CacheConfig {
            disk_dir: Some(dir.clone()),
            disk_error_threshold: 3,
            disk_reprobe: Duration::from_millis(50),
            ..CacheConfig::default()
        })
        .with_fault(fault.clone());

    // Distinct programs: each one is a memory miss, so each one touches
    // the (failing) disk tier on both the probe and the write-back.
    for i in 0..4 {
        let ir = parse_program(&distinct_ir(i)).expect("parse");
        engine
            .compile_with(&ir, None, None)
            .expect("faulty disk never fails compiles");
    }
    let stats = engine.cache_stats();
    assert!(
        stats.disk_disabled,
        "3 consecutive I/O errors must disable the disk tier: {stats:?}"
    );
    assert!(stats.disk_errors >= 3, "errors counted: {stats:?}");
    assert_eq!(stats.disk_heals, 0);
    // Every compile still succeeded — degradation is invisible to callers.
    assert_eq!(stats.misses, 4);

    // While disabled (and before the re-probe window), the disk is not
    // touched at all: no new errors accumulate.
    let errors_when_disabled = stats.disk_errors;
    let ir = parse_program(&distinct_ir(100)).expect("parse");
    engine.compile_with(&ir, None, None).expect("compile");
    assert_eq!(engine.cache_stats().disk_errors, errors_when_disabled);

    // The disk recovers (faults off); after the re-probe window one
    // probing operation is let through, succeeds, and heals the tier.
    fault.pause();
    thread::sleep(Duration::from_millis(60));
    let ir = parse_program(&distinct_ir(101)).expect("parse");
    engine.compile_with(&ir, None, None).expect("compile");
    let healed = engine.cache_stats();
    assert!(!healed.disk_disabled, "re-probe must heal: {healed:?}");
    assert!(healed.disk_heals >= 1, "heal counted: {healed:?}");

    // And the healed tier actually persists again: a fresh engine over
    // the same directory disk-hits the post-heal entry.
    let fresh =
        Engine::new(Pipeline::auto(), Target::FaultTolerant).with_cache_config(CacheConfig {
            disk_dir: Some(dir),
            ..CacheConfig::default()
        });
    let ir = parse_program(&distinct_ir(101)).expect("parse");
    fresh.compile_with(&ir, None, None).expect("compile");
    assert_eq!(fresh.cache_stats().disk_hits, 1);
}

/// The tentpole chaos property: the full 31-benchmark suite submitted
/// through a server running a multi-seam fault plan (failing disk,
/// panicking and slow workers, dropped connections) — every job
/// terminates with exactly one answer, every success is bit-identical to
/// a fault-free compile, every failure is typed, and the server drains.
#[test]
fn chaos_suite_terminates_and_successes_are_bit_identical() {
    let dir = scratch("suite");
    let plan = FaultPlan::parse(
        "seed=1234,disk.read=0.15,disk.write=0.15,disk.short=0.1,disk.flip=0.1,\
         worker.panic=0.12,worker.delay=0.1,worker.delay_ms=2,conn.drop=0.1",
    )
    .unwrap();
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant)
        .with_cache_config(CacheConfig {
            disk_dir: Some(dir),
            ..CacheConfig::default()
        })
        .with_fault(Fault::seeded(plan));
    let (addr, _handle, runner) = spawn_server(engine, ServeConfig::default());

    let names = suite::all_names();
    let mut programs = Vec::new();
    let mut reqs = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let bench = suite::generate(name);
        let backend = match bench.class {
            BackendClass::Superconducting => "manhattan",
            BackendClass::FaultTolerant => "ft",
        };
        let ir_text = print_program(&bench.ir);
        reqs.push(CompileRequest {
            id: i as u64 + 1,
            name: Some(bench.name.clone()),
            ir: ir_text.clone(),
            backend: Some(backend.to_string()),
            scheduler: None,
            deadline_ms: None,
            artifact: true,
        });
        programs.push((ir_text, backend));
    }

    let mut client = Client::new(
        addr,
        ClientConfig {
            max_retries: 60,
            job_retries: 12,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            seed: 7,
            ..ClientConfig::default()
        },
    )
    .expect("resolve");
    let results = client
        .submit_all(reqs)
        .expect("chaos plan must stay within the retry budget");

    // Total termination: one final answer per id.
    assert_eq!(results.len(), names.len());
    let reference = Engine::new(Pipeline::auto(), Target::FaultTolerant);
    let allowed_failures = ["panicked", "overloaded", "watchdog_timeout"];
    for (id, report) in &results {
        let i = *id as usize - 1;
        if report.get("ok").and_then(Json::as_bool) == Some(true) {
            let (ir_text, backend) = &programs[i];
            let ir = parse_program(ir_text).expect("printed IR reparses");
            let target = Target::parse_spec(backend, ir.num_qubits()).expect("backend spec");
            let expected = reference
                .compile_with(&ir, Some(&target), None)
                .expect("in-process compile");
            let hex = report
                .get("artifact")
                .and_then(Json::as_str)
                .expect("ok report carries the artifact");
            let bytes = proto::hex_decode(hex).expect("artifact is valid hex");
            let entry = ph_engine::persist::decode_entry(&bytes).expect("artifact decodes");
            assert_eq!(
                entry.compiled.circuit, expected.compiled.circuit,
                "{}: circuit compiled under faults differs from fault-free",
                names[i]
            );
            assert_eq!(entry.compiled.emitted, expected.compiled.emitted);
            assert_eq!(entry.compiled.initial_l2p, expected.compiled.initial_l2p);
            assert_eq!(entry.compiled.final_l2p, expected.compiled.final_l2p);
        } else {
            // With a 12-per-job retry budget failures are rare, but when
            // the budget does run out the answer must still be typed.
            let kind = report
                .get("error_kind")
                .and_then(Json::as_str)
                .unwrap_or_default();
            assert!(
                allowed_failures.contains(&kind),
                "{}: unexpected failure kind {kind:?}: {}",
                names[i],
                report.to_compact()
            );
        }
    }

    client.control(&Request::Shutdown).expect("shutdown");
    let stats = runner.join().expect("server drains under chaos");
    assert_eq!(stats.deadline_misses, 0);
    assert!(stats.requests >= names.len() as u64);
}

/// The resilient client survives a connection-dropping server: every job
/// still gets an `ok` answer, and the retry counters show it worked for
/// them. Seed 9 injects drops into the first connection's report writes
/// (verified by the retries assertion — a different seed constant would
/// need re-verification).
#[test]
fn client_retries_through_dropped_connections() {
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant)
        .with_threads(1)
        .with_fault(Fault::seeded(
            FaultPlan::parse("seed=9,conn.drop=0.25").unwrap(),
        ));
    let (addr, _handle, runner) = spawn_server(engine, ServeConfig::default());

    let reqs: Vec<CompileRequest> = (0..10)
        .map(|i| compile_req(i as u64 + 1, &distinct_ir(i)))
        .collect();
    let mut client = Client::new(
        addr,
        ClientConfig {
            max_retries: 60,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            seed: 3,
            ..ClientConfig::default()
        },
    )
    .expect("resolve");
    let results = client.submit_all(reqs).expect("within retry budget");

    assert_eq!(results.len(), 10);
    for (id, report) in &results {
        assert_eq!(
            report.get("ok").and_then(Json::as_bool),
            Some(true),
            "job {id} failed: {}",
            report.to_compact()
        );
    }
    let cs = client.stats();
    assert!(
        cs.retries >= 1,
        "the drop plan must have forced at least one reconnect: {cs:?}"
    );
    // Every transport retry reconnects exactly once (the shutdown's own
    // connection comes later).
    assert_eq!(cs.connects, cs.retries + 1);

    client.control(&Request::Shutdown).expect("shutdown");
    runner.join().expect("server drains");
}

/// The watchdog converts stuck workers into typed `watchdog_timeout`
/// answers and replacement workers, and the server still drains with
/// every worker wedged.
#[test]
fn watchdog_times_out_stuck_jobs_and_drain_still_completes() {
    let gate = gate();
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant)
        .without_cache()
        .with_threads(1)
        .with_fault(gate.clone());
    let config = ServeConfig {
        watchdog: Some(Duration::from_millis(100)),
        ..ServeConfig::default()
    };
    let (addr, handle, runner) = spawn_server(engine, config);

    let mut client = Connection::connect(addr).expect("connect");
    for i in 0..2u64 {
        client
            .send(&Request::Compile(compile_req(
                i + 1,
                &distinct_ir(i as usize),
            )))
            .expect("send");
    }

    // Both jobs must be answered — with watchdog timeouts, since nothing
    // ever opens the gate for the workers chewing on them.
    let mut kinds = Vec::new();
    for _ in 0..2 {
        let report = client
            .recv()
            .expect("read")
            .expect("watchdog must answer; never wedge the client");
        assert_eq!(report.get("type").and_then(Json::as_str), Some("report"));
        assert_eq!(report.get("ok").and_then(Json::as_bool), Some(false));
        kinds.push(
            report
                .get("error_kind")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        );
    }
    assert_eq!(kinds, ["watchdog_timeout", "watchdog_timeout"]);

    let stats = handle.stats();
    assert_eq!(stats.watchdog_timeouts, 2);
    assert!(
        stats.workers_replaced >= 1,
        "a replacement worker must have been spawned: {stats:?}"
    );

    // Drain completes even though the original worker (and possibly its
    // replacement) are still wedged inside the gate.
    client.finish().expect("half-close");
    handle.shutdown();
    let final_stats = runner
        .join()
        .expect("drain must not wait for wedged workers");
    assert_eq!(final_stats.watchdog_timeouts, 2);
    assert_eq!(final_stats.completed, 0);

    // Unwedge the blocked threads so they exit before the process does.
    gate.pause();
}

/// A client that disconnects mid-stream gets its still-queued jobs
/// cancelled instead of compiled for nobody: the server detects the dead
/// connection at the first failed write and skips the rest.
#[test]
fn dead_connection_cancels_queued_jobs() {
    let gate = gate();
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant)
        .without_cache()
        .with_threads(1)
        .with_fault(gate.clone());
    let (addr, handle, runner) = spawn_server(engine, ServeConfig::default());

    let mut client = Connection::connect(addr).expect("connect");
    const JOBS: u64 = 8;
    for i in 0..JOBS {
        client
            .send(&Request::Compile(compile_req(
                i + 1,
                &distinct_ir(i as usize),
            )))
            .expect("send");
    }
    // First job inside the (blocked) worker, the rest queued behind it.
    wait_for(
        || gate.counters().worker_delays >= 1,
        "first job to enter the worker",
    );
    wait_for(
        || handle.queued() as u64 == JOBS - 1,
        "remaining jobs to queue",
    );

    // The client vanishes. Give the RST a moment to land, then let the
    // worker run: its report writes start failing, which marks the
    // connection dead and cancels the queued jobs after it.
    drop(client);
    thread::sleep(Duration::from_millis(50));
    gate.pause();

    handle.shutdown();
    let stats = runner.join().expect("server drains");
    assert_eq!(
        stats.completed + stats.cancelled,
        JOBS,
        "every accepted job answered exactly once: {stats:?}"
    );
    // TCP may swallow the first write or two after the peer closes (the
    // RST races the write), so the exact completed/cancelled split is
    // platform-dependent — but most of the queue must have been skipped.
    assert!(
        stats.cancelled >= JOBS / 2,
        "queued jobs for the dead connection must be cancelled: {stats:?}"
    );
}

/// A client still sending when the server drops its connection finishes
/// writing and reads EOF promptly. The reader is stalled (an injected
/// 2 s stall on its `pong`) while the client fills the socket buffers,
/// and the job's report write drops the connection meanwhile; the server
/// must keep the receive window open afterwards rather than leave the
/// client blocked until a kernel timeout.
#[test]
fn dropped_connection_lets_a_sending_client_finish() {
    // Seed 3 draws a stall for the first response write (the pong) and a
    // drop for the second (the report, held back by the worker delay).
    let plan = "seed=3,conn.drop=0.5,conn.stall=1.0,conn.stall_ms=2000,\
                worker.delay=1.0,worker.delay_ms=500";
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant)
        .without_cache()
        .with_threads(1)
        .with_fault(Fault::seeded(FaultPlan::parse(plan).unwrap()));
    let (addr, handle, runner) = spawn_server(engine, ServeConfig::default());

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_write_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let stalled =
        |e: &std::io::Error| matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut);
    let start = Instant::now();
    let compile = Request::Compile(compile_req(1, TINY_IR)).to_json();
    let head = format!("{}\n{{\"type\": \"ping\"}}\n", compile.to_compact());
    stream.write_all(head.as_bytes()).expect("send requests");
    // 30 MB of blank lines, far more than the socket buffers hold.
    let padding = " ".repeat(100_000) + "\n";
    for _ in 0..300 {
        if let Err(e) = stream.write_all(padding.as_bytes()) {
            // A reset also tells the client promptly; a timeout is a stall.
            assert!(!stalled(&e), "write stalled: {e}");
            break;
        }
    }
    if let Err(e) = stream.read_to_end(&mut Vec::new()) {
        assert!(!stalled(&e), "read stalled: {e}");
    }
    assert!(
        start.elapsed() < Duration::from_secs(15),
        "the client took {:?} to learn of the drop",
        start.elapsed()
    );
    drop(stream);
    handle.shutdown();
    runner.join().expect("server drains");
}

/// The `health` request reports degradation: a failing disk tier flips
/// `disk_tier` to `disabled` and the overall status to `degraded`, while
/// a healthy server reports `ok`.
#[test]
fn health_reports_disk_degradation() {
    // Healthy server, no disk tier.
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant);
    let (addr, _handle, runner) = spawn_server(engine, ServeConfig::default());
    let mut client = Connection::connect(addr).expect("connect");
    client.send(&Request::Health).expect("send");
    let health = client.recv().expect("read").expect("health answer");
    assert_eq!(health.get("type").and_then(Json::as_str), Some("health"));
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("disk_tier").and_then(Json::as_str), Some("none"));
    client.send(&Request::Shutdown).expect("send");
    runner.join().expect("drain");

    // Degraded server: every disk op fails, threshold 1.
    let dir = scratch("health");
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant)
        .with_cache_config(CacheConfig {
            disk_dir: Some(dir),
            disk_error_threshold: 1,
            disk_reprobe: Duration::from_secs(3600),
            ..CacheConfig::default()
        })
        .with_fault(Fault::seeded(
            FaultPlan::parse("seed=5,disk.read=1.0,disk.write=1.0").unwrap(),
        ));
    let (addr, _handle, runner) = spawn_server(engine, ServeConfig::default());
    let mut client = Connection::connect(addr).expect("connect");
    client
        .send(&Request::Compile(compile_req(1, TINY_IR)))
        .expect("send");
    let report = client.recv().expect("read").expect("report");
    assert_eq!(
        report.get("ok").and_then(Json::as_bool),
        Some(true),
        "disk faults must not fail the compile: {}",
        report.to_compact()
    );
    client.send(&Request::Health).expect("send");
    let health = client.recv().expect("read").expect("health answer");
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("degraded"),
        "{}",
        health.to_compact()
    );
    assert_eq!(
        health.get("disk_tier").and_then(Json::as_str),
        Some("disabled")
    );
    let cache = health.get("cache").expect("cache object");
    assert_eq!(
        cache.get("disk_disabled").and_then(Json::as_bool),
        Some(true)
    );
    client.send(&Request::Shutdown).expect("send");
    runner.join().expect("drain");
}
