//! Process-level tests of the `phc` binary: SC layout printing, batch exit
//! codes, and two processes sharing one `--cache-dir` through the
//! serve/submit pair.

use std::io::{BufRead, BufReader};
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
    let mut serve = Command::new(PHC)
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--cache-dir",
            &cache_dir,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn phc serve");
    let mut serve_stdout = BufReader::new(serve.stdout.take().expect("serve stdout"));
    let mut listening = String::new();
    serve_stdout
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
