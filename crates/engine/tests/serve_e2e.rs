//! End-to-end tests of the compile service: wire-level bit-identity with
//! in-process compilation over the full Table 1 suite, incremental report
//! streaming, backpressure, deadlines, graceful drain, and errors (including
//! panics) delivered as values without killing the server.

use std::net::{SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use paulihedral::parse::{parse_program, print_program};
use paulihedral::CompileError;
use ph_engine::json::Json;
use ph_engine::proto::{self, CompileRequest, Request};
use ph_engine::{
    CompileJob, Connection, Engine, Fault, FaultPlan, Pipeline, ServeConfig, ServeStats, Server,
    ServerHandle, Target,
};
use workloads::suite::{self, BackendClass};

const TINY_IR: &str = "{(ZZY, 0.5), 1.0};\n{(XXI, 0.3), 1.0};\n";

/// Binds an ephemeral-port server, runs it on a background thread, and
/// returns everything a test needs to drive and drain it.
fn spawn_server(
    engine: Engine,
    config: ServeConfig,
) -> (SocketAddr, ServerHandle, JoinHandle<ServeStats>) {
    let server = Server::bind("127.0.0.1:0", engine, config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = thread::spawn(move || server.run());
    (addr, handle, runner)
}

fn compile_req(id: u64, ir: &str) -> Request {
    Request::Compile(CompileRequest {
        id,
        name: None,
        ir: ir.to_string(),
        backend: None,
        scheduler: None,
        deadline_ms: None,
        artifact: false,
    })
}

fn recv(client: &mut Connection) -> Json {
    client
        .recv()
        .expect("socket read")
        .expect("connection closed mid-test")
}

fn field_str<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string field `{key}` in {}", v.to_compact()))
}

fn field_u64(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing numeric field `{key}` in {}", v.to_compact()))
}

fn is_ok_report(v: &Json) -> bool {
    field_str(v, "type") == "report" && v.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Polls `cond` for up to ~5 s — the tests gate on observable server state
/// instead of sleeping fixed amounts.
fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(2));
    }
}

/// A fault plan that holds every compile in a minute-long injected delay
/// until the test calls [`Fault::pause`] — the lever behind the
/// backpressure and deadline tests. A compile has entered the gate once
/// `worker_delays` counts it.
fn gate() -> Fault {
    Fault::seeded(FaultPlan::parse("seed=1,worker.delay=1.0,worker.delay_ms=60000").unwrap())
}

/// A fault plan that panics every compile — the server must convert
/// this to a `panicked` report, not die.
fn panicking() -> Fault {
    Fault::seeded(FaultPlan::parse("seed=1,worker.panic=1.0").unwrap())
}

/// The panic message of [`panicking`] compiles.
const INJECTED_PANIC: &str = "injected fault: worker panic";

/// The tentpole acceptance test: every Table 1 benchmark compiled over the
/// socket (with the artifact attached) is bit-identical to an in-process
/// compile of the same program, and reports arrive incrementally — the
/// first one lands while the server is still working on the rest.
#[test]
fn streamed_suite_reports_are_bit_identical_to_in_process_compiles() {
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant);
    let (addr, handle, runner) = spawn_server(engine, ServeConfig::default());
    let mut client = Connection::connect(addr).expect("connect");

    // Submit all 31 benchmarks up front; the wire carries the printed IR,
    // so the in-process reference compiles the *same* text.
    let names = suite::all_names();
    let mut programs = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let bench = suite::generate(name);
        let backend = match bench.class {
            BackendClass::Superconducting => "manhattan",
            BackendClass::FaultTolerant => "ft",
        };
        let ir_text = print_program(&bench.ir);
        client
            .send(&Request::Compile(CompileRequest {
                id: i as u64 + 1,
                name: Some(bench.name.clone()),
                ir: ir_text.clone(),
                backend: Some(backend.to_string()),
                scheduler: None,
                deadline_ms: None,
                artifact: true,
            }))
            .expect("send");
        programs.push((ir_text, backend));
    }

    let reference = Engine::new(Pipeline::auto(), Target::FaultTolerant);
    let mut seen = vec![false; names.len()];
    for received in 0..names.len() {
        let report = recv(&mut client);
        if received == 0 {
            // Incremental streaming: the first report arrives while most of
            // the suite is still queued or compiling.
            assert!(
                handle.stats().completed < names.len() as u64,
                "first report should precede batch completion"
            );
        }
        assert_eq!(field_str(&report, "type"), "report");
        let id = field_u64(&report, "id") as usize;
        assert!(!seen[id - 1], "duplicate report for id {id}");
        seen[id - 1] = true;
        assert!(
            is_ok_report(&report),
            "benchmark {} failed: {}",
            names[id - 1],
            report.to_compact()
        );

        let (ir_text, backend) = &programs[id - 1];
        let ir = parse_program(ir_text).expect("printed IR reparses");
        let target = Target::parse_spec(backend, ir.num_qubits()).expect("backend spec");
        let expected = reference
            .compile_with(&ir, Some(&target), None)
            .expect("in-process compile");

        let hex = field_str(&report, "artifact");
        let bytes = proto::hex_decode(hex).expect("artifact is valid hex");
        let entry = ph_engine::persist::decode_entry(&bytes).expect("artifact decodes");
        assert_eq!(
            entry.compiled.circuit,
            expected.compiled.circuit,
            "{}: circuit over the wire differs from in-process",
            names[id - 1]
        );
        assert_eq!(entry.compiled.emitted, expected.compiled.emitted);
        assert_eq!(entry.compiled.initial_l2p, expected.compiled.initial_l2p);
        assert_eq!(entry.compiled.final_l2p, expected.compiled.final_l2p);
        let stats = expected.compiled.circuit.mapped_stats();
        assert_eq!(field_u64(&report, "cnot"), stats.cnot as u64);
        assert_eq!(field_u64(&report, "depth"), stats.depth as u64);
    }
    assert!(seen.iter().all(|&s| s), "every benchmark reported");

    client.finish().expect("half-close");
    let bye = recv(&mut client);
    assert_eq!(field_str(&bye, "type"), "bye");
    assert_eq!(field_u64(&bye, "served"), names.len() as u64);

    handle.shutdown();
    let stats = runner.join().expect("server thread");
    assert_eq!(stats.completed, names.len() as u64);
    assert_eq!(stats.rejected, 0);
}

/// Reports stream per request — a client can submit, read the report, and
/// submit again on the same connection with no batch barrier in between.
#[test]
fn reports_stream_interactively_without_a_batch_barrier() {
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant).with_threads(1);
    let (addr, handle, runner) = spawn_server(engine, ServeConfig::default());
    let mut client = Connection::connect(addr).expect("connect");

    client.send(&compile_req(1, TINY_IR)).expect("send");
    let first = recv(&mut client);
    assert!(is_ok_report(&first));
    assert_eq!(field_u64(&first, "id"), 1);

    // The first report is already in hand; only now does the second
    // request exist at all.
    client.send(&compile_req(2, TINY_IR)).expect("send");
    let second = recv(&mut client);
    assert!(is_ok_report(&second));
    assert_eq!(field_u64(&second, "id"), 2);
    assert_eq!(second.get("cache_hit").and_then(Json::as_bool), Some(true));

    client.send(&Request::Ping).expect("send");
    assert_eq!(field_str(&recv(&mut client), "type"), "pong");

    client.finish().expect("half-close");
    let bye = recv(&mut client);
    assert_eq!(field_u64(&bye, "served"), 2);
    handle.shutdown();
    runner.join().expect("server thread");
}

/// `shutdown` drains: every job accepted before the request still gets its
/// report before `run` returns, and the listener is gone afterwards.
#[test]
fn shutdown_drains_accepted_jobs_before_exiting() {
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant).with_threads(1);
    let (addr, _handle, runner) = spawn_server(engine, ServeConfig::default());
    let mut client = Connection::connect(addr).expect("connect");

    for id in 1..=3 {
        client.send(&compile_req(id, TINY_IR)).expect("send");
    }
    client.send(&Request::Shutdown).expect("send");

    // Reports and the ack interleave freely; collect until the server
    // closes the connection.
    let mut reports = 0;
    let mut acked = false;
    while let Some(line) = client.recv_line().expect("read") {
        let v = Json::parse(&line).expect("response is JSON");
        match field_str(&v, "type") {
            "report" => {
                assert!(is_ok_report(&v), "drained job failed: {line}");
                reports += 1;
            }
            "shutdown_ack" => acked = true,
            "bye" => {}
            other => panic!("unexpected response type `{other}`"),
        }
    }
    assert!(acked, "shutdown was acknowledged");
    assert_eq!(reports, 3, "every accepted job reported during drain");

    let stats = runner.join().expect("server thread");
    assert_eq!(stats.completed, 3);
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be gone after drain"
    );
}

/// A full queue answers immediately with `overloaded` instead of buffering
/// without bound, and the queued work still completes.
#[test]
fn full_queue_rejects_with_overloaded() {
    let gate = gate();
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant)
        .with_threads(1)
        .with_fault(gate.clone());
    let config = ServeConfig {
        queue_depth: 1,
        ..ServeConfig::default()
    };
    let (addr, handle, runner) = spawn_server(engine, config);
    let mut client = Connection::connect(addr).expect("connect");

    // Job 1 occupies the worker (blocked inside the gate), job 2 fills the
    // queue, job 3 must bounce.
    client.send(&compile_req(1, TINY_IR)).expect("send");
    wait_for(
        || gate.counters().worker_delays >= 1,
        "worker to enter the gated compile",
    );
    client.send(&compile_req(2, TINY_IR)).expect("send");
    wait_for(|| handle.queued() == 1, "job 2 to be queued");
    client.send(&compile_req(3, TINY_IR)).expect("send");

    let reject = recv(&mut client);
    assert_eq!(field_u64(&reject, "id"), 3);
    assert_eq!(reject.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(field_str(&reject, "error_kind"), "overloaded");

    gate.pause();
    for expected_id in [1, 2] {
        let report = recv(&mut client);
        assert_eq!(field_u64(&report, "id"), expected_id);
        assert!(is_ok_report(&report));
    }
    assert_eq!(handle.stats().rejected, 1);

    handle.shutdown();
    runner.join().expect("server thread");
}

/// A job whose deadline passes while it waits in the queue is answered
/// with `deadline_exceeded` instead of compiling stale work.
#[test]
fn queued_jobs_past_their_deadline_are_expired() {
    let gate = gate();
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant)
        .with_threads(1)
        .with_fault(gate.clone());
    let (addr, handle, runner) = spawn_server(engine, ServeConfig::default());
    let mut client = Connection::connect(addr).expect("connect");

    client.send(&compile_req(1, TINY_IR)).expect("send");
    wait_for(
        || gate.counters().worker_delays >= 1,
        "worker to enter the gated compile",
    );
    client
        .send(&Request::Compile(CompileRequest {
            id: 2,
            name: None,
            ir: TINY_IR.to_string(),
            backend: None,
            scheduler: None,
            deadline_ms: Some(1),
            artifact: false,
        }))
        .expect("send");
    wait_for(|| handle.queued() == 1, "job 2 to be queued");
    thread::sleep(Duration::from_millis(30)); // let the 1 ms deadline lapse
    gate.pause();

    let first = recv(&mut client);
    assert_eq!(field_u64(&first, "id"), 1);
    assert!(is_ok_report(&first));
    let expired = recv(&mut client);
    assert_eq!(field_u64(&expired, "id"), 2);
    assert_eq!(field_str(&expired, "error_kind"), "deadline_exceeded");
    assert_eq!(handle.stats().deadline_misses, 1);

    handle.shutdown();
    runner.join().expect("server thread");
}

/// Malformed lines, unparseable IR, impossible targets, and bad backend
/// specs are all answered on the wire — the connection stays usable
/// through every one of them.
#[test]
fn errors_are_values_and_the_connection_survives_them() {
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant).with_threads(2);
    let (addr, handle, runner) = spawn_server(engine, ServeConfig::default());
    let mut client = Connection::connect(addr).expect("connect");

    client.send_raw("this is not json").expect("send");
    let err = recv(&mut client);
    assert_eq!(field_str(&err, "type"), "error");
    assert_eq!(field_str(&err, "error_kind"), "bad_request");

    client
        .send(&compile_req(1, "not a pauli program"))
        .expect("send");
    let bad_ir = recv(&mut client);
    assert_eq!(field_u64(&bad_ir, "id"), 1);
    assert_eq!(field_str(&bad_ir, "error_kind"), "bad_request");

    // 20 qubits onto the 16-qubit Melbourne ladder: a compiler-side error.
    let wide = format!("{{({}, 1.0), 1.0}};", "Z".repeat(20));
    client
        .send(&Request::Compile(CompileRequest {
            id: 2,
            name: None,
            ir: wide,
            backend: Some("melbourne".into()),
            scheduler: None,
            deadline_ms: None,
            artifact: false,
        }))
        .expect("send");
    let too_small = recv(&mut client);
    assert_eq!(field_u64(&too_small, "id"), 2);
    assert_eq!(field_str(&too_small, "error_kind"), "device_too_small");

    client
        .send(&Request::Compile(CompileRequest {
            id: 3,
            name: None,
            ir: TINY_IR.to_string(),
            backend: Some("bogus-device".into()),
            scheduler: None,
            deadline_ms: None,
            artifact: false,
        }))
        .expect("send");
    let bad_backend = recv(&mut client);
    assert_eq!(field_u64(&bad_backend, "id"), 3);
    assert_eq!(field_str(&bad_backend, "error_kind"), "bad_request");

    // After all of that, a normal compile still works on the same socket.
    client.send(&compile_req(4, TINY_IR)).expect("send");
    let good = recv(&mut client);
    assert_eq!(field_u64(&good, "id"), 4);
    assert!(is_ok_report(&good));

    client.finish().expect("half-close");
    let bye = recv(&mut client);
    assert_eq!(field_u64(&bye, "served"), 4);
    handle.shutdown();
    runner.join().expect("server thread");
}

/// A zero-size grid is a request error, answered like any other: a
/// `bad_request` report and then `bye`, with no thread lost.
#[test]
fn a_zero_size_grid_is_a_bad_request_not_a_dead_connection() {
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant);
    let (addr, handle, runner) = spawn_server(engine, ServeConfig::default());
    let mut client = Connection::connect(addr).expect("connect");
    client
        .send_raw(r#"{"type":"compile","id":7,"ir":"{(ZZ, 0.5), 1.0};","backend":"grid:0x4"}"#)
        .expect("send");
    let report = recv(&mut client);
    assert_eq!(field_str(&report, "type"), "report");
    assert_eq!(field_u64(&report, "id"), 7);
    assert_eq!(field_str(&report, "error_kind"), "bad_request");

    client.finish().expect("half-close");
    let bye = recv(&mut client);
    assert_eq!(field_str(&bye, "type"), "bye");
    handle.shutdown();
    runner.join().expect("server thread");
}

/// A panic inside a compile becomes a `panicked` report for that job only;
/// the worker, the connection, and the server all survive.
#[test]
fn a_panicking_pass_is_reported_not_fatal() {
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant)
        .with_threads(1)
        .with_fault(panicking());
    let (addr, handle, runner) = spawn_server(engine, ServeConfig::default());
    let mut client = Connection::connect(addr).expect("connect");

    client.send(&compile_req(1, TINY_IR)).expect("send");
    let report = recv(&mut client);
    assert_eq!(field_str(&report, "error_kind"), "panicked");
    assert!(
        field_str(&report, "error").contains(INJECTED_PANIC),
        "panic message survives to the wire: {}",
        report.to_compact()
    );

    // The same worker thread is still alive and serving.
    client.send(&Request::Ping).expect("send");
    assert_eq!(field_str(&recv(&mut client), "type"), "pong");
    client.send(&compile_req(2, TINY_IR)).expect("send");
    assert_eq!(field_str(&recv(&mut client), "error_kind"), "panicked");

    assert_eq!(handle.stats().completed, 2);
    handle.shutdown();
    runner.join().expect("server thread");
}

/// The batch driver gives panics the same treatment: per-job
/// [`CompileError::Panicked`] values, with the rest of the batch intact.
#[test]
fn batch_jobs_that_panic_become_per_job_errors() {
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant)
        .without_cache()
        .with_threads(2)
        .with_fault(panicking());
    let ir = parse_program(TINY_IR).expect("parse");
    let results = engine.compile_all(vec![
        CompileJob::named("a", ir.clone()),
        CompileJob::named("b", ir),
    ]);
    assert_eq!(results.len(), 2);
    for r in &results {
        match &r.outcome {
            Err(CompileError::Panicked(msg)) => assert!(msg.contains(INJECTED_PANIC)),
            other => panic!("{}: expected Panicked, got {other:?}", r.name),
        }
    }
}

/// `stats` over the wire reflects both service counters and the shared
/// cache.
#[test]
fn wire_stats_expose_service_and_cache_counters() {
    let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant).with_threads(1);
    let (addr, handle, runner) = spawn_server(engine, ServeConfig::default());
    let mut client = Connection::connect(addr).expect("connect");

    client.send(&compile_req(1, TINY_IR)).expect("send");
    assert!(is_ok_report(&recv(&mut client)));
    client.send(&compile_req(2, TINY_IR)).expect("send");
    assert!(is_ok_report(&recv(&mut client)));

    client.send(&Request::Stats).expect("send");
    let stats = recv(&mut client);
    assert_eq!(field_str(&stats, "type"), "stats");
    let serve = stats.get("serve").expect("serve object");
    assert_eq!(field_u64(serve, "requests"), 2);
    assert_eq!(field_u64(serve, "completed"), 2);
    let cache = stats.get("cache").expect("cache object");
    assert_eq!(field_u64(cache, "misses"), 1);
    assert_eq!(field_u64(cache, "hits"), 1);

    handle.shutdown();
    runner.join().expect("server thread");
}
