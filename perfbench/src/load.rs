//! The load generator: closed loops over two connections. One process, at
//! most two threads.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ph_engine::json::Json;

use crate::gen::Unit;
use crate::server::{Server, READ_TIMEOUT};

/// The fields of one `report` line the benchmark uses.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Echoed request id.
    pub id: u64,
    /// `ok: true`.
    pub ok: bool,
    /// The server's `cache_hit` flag.
    pub cache_hit: bool,
    /// Cache key (hex).
    pub key: String,
    /// Mapped CNOT, single-qubit, total gate counts and depth.
    pub counts: [u64; 4],
    /// Server-side compile time (`wall_ms`).
    pub wall_ms: f64,
    /// Time queued before a worker took the job (`queue_wait_ms`).
    pub queue_wait_ms: f64,
    /// Hex artifact, when requested.
    pub artifact: Option<String>,
    /// `error_kind` of a failed report.
    pub error: Option<String>,
}

impl Report {
    /// Reads a response line; anything but a `report` is an error.
    pub fn from_json(j: &Json) -> Result<Report, String> {
        if j.get("type").and_then(Json::as_str) != Some("report") {
            return Err(format!("expected a report, got {}", j.to_compact()));
        }
        let u = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
        let f = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        Ok(Report {
            id: j
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("report without id")?,
            ok: j.get("ok").and_then(Json::as_bool) == Some(true),
            cache_hit: j.get("cache_hit").and_then(Json::as_bool) == Some(true),
            key: j
                .get("key")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            counts: [u("cnot"), u("single"), u("total"), u("depth")],
            wall_ms: f("wall_ms"),
            queue_wait_ms: f("queue_wait_ms"),
            artifact: j.get("artifact").and_then(Json::as_str).map(String::from),
            error: j.get("error_kind").and_then(Json::as_str).map(String::from),
        })
    }
}

fn parse(line: &str) -> Result<Json, String> {
    Json::parse(line.trim_end()).map_err(|e| format!("bad response line: {e}"))
}

/// A load connection with `TCP_NODELAY` set, so each pre-encoded line
/// leaves in one write and never waits for an ACK. (Control requests use
/// `client::Connection`; its `send_raw` writes a line and its newline
/// separately, and without `TCP_NODELAY` the newline waits for the
/// server's delayed ACK, about 40 ms.)
struct LoadConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LoadConn {
    fn open(server: &Server) -> Result<LoadConn, String> {
        let io = |e: std::io::Error| format!("connect {}: {e}", server.addr);
        let stream = TcpStream::connect(server.addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(io)?;
        Ok(LoadConn {
            writer: stream.try_clone().map_err(io)?,
            reader: BufReader::new(stream),
        })
    }

    fn recv_line(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Half-closes and reads until the server's `bye`.
    fn finish(mut self) -> Result<(), String> {
        self.writer
            .shutdown(Shutdown::Write)
            .map_err(|e| format!("shutdown: {e}"))?;
        while LoadConn::recv_line(&mut self.reader).is_ok_and(|l| !l.contains("\"bye\"")) {}
        Ok(())
    }
}

/// One answered request.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index into the phase's request lines.
    pub idx: usize,
    /// Client latency in ms, from send to report.
    pub latency_ms: f64,
    /// The report.
    pub report: Report,
}

/// The outcome of one load phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Answered requests, in completion order.
    pub samples: Vec<Sample>,
    /// First send to last answer.
    pub elapsed: Duration,
}

/// Which unit the next idle connection takes.
struct Dispatch<'a> {
    rounds: &'a [Vec<Unit>],
    round: usize,
    unit: usize,
}

impl Dispatch<'_> {
    /// The next unit, or `None` once a whole round ends with the clock
    /// past `seconds` and at least `min_rounds` done (or rounds run out).
    fn take(&mut self, started: Instant, seconds: f64, min_rounds: usize) -> Option<Unit> {
        if self.unit == 0 {
            let done = self.round >= self.rounds.len()
                || (self.round >= min_rounds && started.elapsed().as_secs_f64() >= seconds);
            if done {
                return None;
            }
        }
        let unit = self.rounds[self.round][self.unit].clone();
        self.unit += 1;
        if self.unit == self.rounds[self.round].len() {
            self.round += 1;
            self.unit = 0;
        }
        Some(unit)
    }
}

/// Closed loop over two connections: each sends a request, waits for its
/// report, and sends the next; units are taken whole, rounds run whole.
/// `ids[i]` is the wire id of `lines[i]`.
pub fn closed_loop(
    server: &Server,
    lines: &[Arc<str>],
    ids: &[u64],
    rounds: &[Vec<Unit>],
    min_rounds: usize,
    seconds: f64,
) -> Result<Phase, String> {
    let mut conns = [LoadConn::open(server)?, LoadConn::open(server)?];
    let dispatch = Mutex::new(Dispatch {
        rounds,
        round: 0,
        unit: 0,
    });
    let started = Instant::now();
    let drive = |conn: &mut LoadConn| -> Result<Vec<Sample>, String> {
        let mut out = Vec::new();
        loop {
            let unit = dispatch
                .lock()
                .expect("dispatch lock is never held across a panic")
                .take(started, seconds, min_rounds);
            let Some(unit) = unit else { return Ok(out) };
            for idx in unit {
                let t0 = Instant::now();
                conn.writer
                    .write_all(lines[idx].as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
                let line = LoadConn::recv_line(&mut conn.reader)?;
                let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                let report = Report::from_json(&parse(&line)?)?;
                if report.id != ids[idx] {
                    return Err(format!("report id {} for request {}", report.id, ids[idx]));
                }
                out.push(Sample {
                    idx,
                    latency_ms,
                    report,
                });
            }
        }
    };
    let [c0, c1] = &mut conns;
    let (a, b) = thread::scope(|s| {
        let other = s.spawn(|| drive(c1));
        let mine = drive(c0);
        (mine, other.join().expect("load thread panicked"))
    });
    let elapsed = started.elapsed();
    let mut samples = a?;
    samples.extend(b?);
    for c in conns {
        c.finish()?;
    }
    Ok(Phase { samples, elapsed })
}
