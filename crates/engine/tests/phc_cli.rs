//! Process-level tests of the `phc` binary: SC layout printing, batch exit
//! codes, two processes sharing one `--cache-dir` through the
//! serve/submit pair, and a server whose memory and open files stay flat
//! under connection churn and repeated cache hits.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ph_engine::json::Json;

const PHC: &str = env!("CARGO_BIN_EXE_phc");

/// A scratch directory unique to one test (process id + label), cleaned
/// before use so reruns start fresh.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("phc_cli_{label}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write_program(dir: &std::path::Path, name: &str, text: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write program");
    path.to_string_lossy().into_owned()
}

/// Waits for a child with a hard timeout so a wedged server fails the test
/// instead of hanging the suite.
fn wait_with_timeout(child: &mut Child, timeout: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("child process did not exit within {timeout:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Spawns `phc serve` on an ephemeral port with `extra` flags; returns the
/// child and the address from its `listening` line.
fn spawn_serve(extra: &[&str]) -> (Child, String) {
    let mut serve = Command::new(PHC)
        .args(["serve", "--listen", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn phc serve");
    let mut listening = String::new();
    BufReader::new(serve.stdout.take().expect("serve stdout"))
        .read_line(&mut listening)
        .expect("read listening line");
    let listening = Json::parse(listening.trim()).expect("listening line is JSON");
    assert_eq!(
        listening.get("type").and_then(Json::as_str),
        Some("listening")
    );
    let addr = listening
        .get("addr")
        .and_then(Json::as_str)
        .expect("addr field")
        .to_string();
    (serve, addr)
}

/// Drains a server with `phc submit --shutdown` and requires a clean exit.
fn shut_down(serve: &mut Child, addr: &str) {
    let submit = Command::new(PHC)
        .args(["submit", addr, "--shutdown"])
        .output()
        .expect("run phc submit");
    assert!(submit.status.success(), "shutdown submit failed");
    let status = wait_with_timeout(serve, Duration::from_secs(30));
    assert!(status.success(), "serve must exit zero after drain");
}

/// Reads one response line as JSON.
fn read_json(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response line");
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"))
}

fn type_of(line: &Json) -> &str {
    line.get("type").and_then(Json::as_str).unwrap_or_default()
}

/// A `/proc/<pid>/status` field in kB (Linux only).
fn status_kb(pid: u32, field: &str) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no {field} in status"))
}

/// An SC run prints its initial and final layouts only under `--report`.
#[test]
fn sc_layouts_print_only_under_report() {
    let dir = scratch("layouts");
    let prog = write_program(&dir, "prog.pauli", "{(ZZZZ, 0.5), 1.0};\n");
    let run = |extra: &[&str]| {
        let out = Command::new(PHC)
            .args([prog.as_str(), "--backend", "linear:4"])
            .args(extra)
            .output()
            .expect("run phc");
        assert!(out.status.success(), "phc failed");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let layout_lines = |stdout: &str| {
        stdout
            .lines()
            .filter(|l| l.contains("layout:"))
            .map(|l| l.split(':').next().unwrap().to_string())
            .collect::<Vec<_>>()
    };
    assert!(layout_lines(&run(&[])).is_empty());
    assert_eq!(
        layout_lines(&run(&["--report"])),
        ["initial layout", "final   layout"]
    );
}

#[test]
fn batch_exits_nonzero_when_any_job_fails() {
    let dir = scratch("batch_fail");
    let good = write_program(&dir, "good.pauli", "{(ZZY, 0.5), 1.0};\n");
    // 20 qubits cannot fit the 16-qubit Melbourne ladder.
    let bad = write_program(
        &dir,
        "bad.pauli",
        &format!("{{({}, 1.0), 1.0}};\n", "Z".repeat(20)),
    );

    let failing = Command::new(PHC)
        .args(["batch", &good, &bad, "--backend", "melbourne"])
        .output()
        .expect("run phc batch");
    assert!(
        !failing.status.success(),
        "batch with a failing job must exit nonzero"
    );
    let report = Json::parse(&String::from_utf8_lossy(&failing.stdout))
        .expect("batch report is JSON even on failure");
    let jobs = report
        .get("jobs")
        .and_then(Json::as_arr)
        .expect("jobs array");
    let oks: Vec<_> = jobs
        .iter()
        .map(|j| j.get("ok").and_then(Json::as_bool).unwrap())
        .collect();
    assert_eq!(oks, [true, false], "only the oversized job fails");

    // Control: the same invocation minus the bad job exits cleanly.
    let passing = Command::new(PHC)
        .args(["batch", &good, "--backend", "melbourne"])
        .output()
        .expect("run phc batch");
    assert!(passing.status.success(), "all-good batch must exit zero");
}

/// The ISSUE's two-process scenario: a `phc batch` warms a `--cache-dir`,
/// a separate `phc serve` process opens the same directory, and a `phc
/// submit` against it is served from the disk tier (`cache_hit: true`,
/// `disk_hits >= 1`) before a clean shutdown.
#[test]
fn serve_and_submit_share_a_cache_dir_across_processes() {
    let dir = scratch("shared_cache");
    let cache_dir = dir.join("cache").to_string_lossy().into_owned();
    let prog = write_program(
        &dir,
        "prog.pauli",
        "{(ZZY, 0.5), 1.0};\n{(XXI, 0.3), 1.0};\n",
    );

    // Process 1: warm the disk tier.
    let warm = Command::new(PHC)
        .args(["batch", &prog, "--cache-dir", &cache_dir])
        .output()
        .expect("run phc batch");
    assert!(warm.status.success(), "warmup batch failed");

    // Process 2: a server over the same directory, on an ephemeral port.
    let (mut serve, addr) = spawn_serve(&["--cache-dir", &cache_dir]);

    // Process 3: submit the same program, then stats, then shutdown.
    let submit = Command::new(PHC)
        .args(["submit", &addr, &prog, "--stats", "--shutdown"])
        .output()
        .expect("run phc submit");
    assert!(
        submit.status.success(),
        "submit failed: {}",
        String::from_utf8_lossy(&submit.stderr)
    );
    let stdout = String::from_utf8_lossy(&submit.stdout);
    let lines: Vec<Json> = stdout
        .lines()
        .map(|l| Json::parse(l).expect("every submit output line is JSON"))
        .collect();

    let report = lines
        .iter()
        .find(|l| l.get("type").and_then(Json::as_str) == Some("report"))
        .expect("a report line");
    assert_eq!(report.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        report.get("cache_hit").and_then(Json::as_bool),
        Some(true),
        "fresh server process must hit the shared disk tier"
    );

    let stats = lines
        .iter()
        .find(|l| l.get("type").and_then(Json::as_str) == Some("stats"))
        .expect("a stats line");
    let disk_hits = stats
        .get("cache")
        .and_then(|c| c.get("disk_hits"))
        .and_then(Json::as_u64)
        .expect("disk_hits counter");
    assert!(
        disk_hits >= 1,
        "expected a disk hit, stats: {}",
        stats.to_compact()
    );

    // The shutdown request drains the server to a clean exit.
    let status = wait_with_timeout(&mut serve, Duration::from_secs(30));
    assert!(status.success(), "serve must exit zero after drain");
}

/// A closed connection keeps nothing open in the server: after 200
/// sequential ping connections (each half-closed and read to its `bye`),
/// the server holds at most 16 file descriptors, not one or two per
/// connection until drain.
#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_sockets() {
    let (mut serve, addr) = spawn_serve(&["--threads", "1"]);
    for _ in 0..200 {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(b"{\"type\": \"ping\"}\n")
            .expect("send ping");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut reader = BufReader::new(stream);
        assert_eq!(type_of(&read_json(&mut reader)), "pong");
        assert_eq!(type_of(&read_json(&mut reader)), "bye");
    }
    let fds = || {
        std::fs::read_dir(format!("/proc/{}/fd", serve.id()))
            .expect("list fds")
            .count()
    };
    // The last reader may still be finishing its goodbye.
    let deadline = Instant::now() + Duration::from_secs(5);
    while fds() > 16 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let open = fds();
    assert!(open <= 16, "{open} fds open after 200 closed connections");
    shut_down(&mut serve, &addr);
}

/// Sends `n` compile requests of one program on `conn` in rounds of 100
/// (inside the default queue depth) and checks every report is ok.
fn compile_repeatedly(conn: &mut BufReader<TcpStream>, first_id: u64, n: u64) {
    let program = "{(ZZY, 0.5), 1.0};";
    let mut id = first_id;
    while id < first_id + n {
        let round = (first_id + n - id).min(100);
        let mut lines = String::new();
        for i in id..id + round {
            let req = format!(r#"{{"type": "compile", "id": {i}, "ir": "{program}"}}"#);
            lines.push_str(&req);
            lines.push('\n');
        }
        conn.get_mut().write_all(lines.as_bytes()).expect("send");
        for _ in 0..round {
            let report = read_json(conn);
            assert_eq!(type_of(&report), "report", "{}", report.to_compact());
            assert_eq!(report.get("ok").and_then(Json::as_bool), Some(true));
        }
        id += round;
    }
}

/// Without `--trace-out`/`--metrics-out` nothing reads the server's
/// telemetry, so none is kept: 10k cache hits grow its RSS by less than
/// 2 MB. With `--metrics-out` it still records every request.
#[cfg(target_os = "linux")]
#[test]
fn serve_records_telemetry_only_when_exporting() {
    let (mut serve, addr) = spawn_serve(&["--threads", "1"]);
    let mut conn = BufReader::new(TcpStream::connect(&addr).expect("connect"));
    compile_repeatedly(&mut conn, 1, 1_000);
    let before = status_kb(serve.id(), "VmRSS:");
    compile_repeatedly(&mut conn, 1_001, 10_000);
    let grown = status_kb(serve.id(), "VmRSS:").saturating_sub(before);
    assert!(grown < 2048, "RSS grew {grown} kB over 10k cache hits");
    drop(conn);
    shut_down(&mut serve, &addr);

    let dir = scratch("metrics_out");
    let metrics = dir.join("metrics.jsonl").to_string_lossy().into_owned();
    let (mut serve, addr) = spawn_serve(&["--threads", "1", "--metrics-out", &metrics]);
    let mut conn = BufReader::new(TcpStream::connect(&addr).expect("connect"));
    compile_repeatedly(&mut conn, 1, 250);
    drop(conn);
    shut_down(&mut serve, &addr);
    let text = std::fs::read_to_string(&metrics).expect("read metrics");
    let requests = text
        .lines()
        .map(|l| Json::parse(l).expect("JSONL line"))
        .find(|l| {
            type_of(l) == "counter" && l.get("name").and_then(Json::as_str) == Some("serve.request")
        })
        .and_then(|l| l.get("value").and_then(Json::as_u64));
    assert_eq!(requests, Some(250));
}
