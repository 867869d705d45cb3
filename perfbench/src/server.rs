//! The spawned `phc serve` process: start-up, connections, `/proc`
//! readings, and the draining shutdown.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use ph_engine::client::Connection;
use ph_engine::json::Json;
use ph_engine::Request;

/// No answer takes a minute; a wedged server fails the run instead of
/// hanging it.
pub const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Receives and parses one response line.
fn recv(conn: &mut Connection) -> Result<Json, String> {
    conn.recv()
        .map_err(|e| format!("recv: {e}"))?
        .ok_or_else(|| "server closed the connection".to_string())
}

/// Sends a control request and returns its reply.
pub fn control(conn: &mut Connection, req: &Request) -> Result<Json, String> {
    conn.send(req).map_err(|e| format!("send: {e}"))?;
    recv(conn)
}

/// Half-closes the connection and reads until the server's `bye`.
pub fn finish(mut conn: Connection) -> Result<(), String> {
    conn.finish().map_err(|e| format!("shutdown: {e}"))?;
    while let Ok(Some(line)) = conn.recv_line() {
        if line.contains("\"bye\"") {
            break;
        }
    }
    Ok(())
}

/// A running `phc serve --threads 2`.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// The listening address.
    pub addr: SocketAddr,
    /// Spawn to first `pong`.
    pub start: Duration,
    spawned: Instant,
    cache_dir: Option<PathBuf>,
}

impl Server {
    /// Spawns the server and waits for its first `pong`. The memory tier
    /// holds at most `entries` entries; `disk` adds a disk tier in that
    /// directory, emptied first.
    pub fn spawn(phc: &Path, entries: usize, disk: Option<PathBuf>) -> Result<Server, String> {
        let mut cmd = Command::new(phc);
        cmd.args(["serve", "--threads", "2", "--listen", "127.0.0.1:0"]);
        cmd.args(["--cache-entries", &entries.to_string()]);
        if let Some(dir) = &disk {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            cmd.arg("--cache-dir").arg(dir);
        }
        let cache_dir = disk;
        cmd.stdin(Stdio::null()).stdout(Stdio::piped());
        let spawned = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", phc.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => Json::parse(line.trim_end())
                .ok()
                .and_then(|j| j.get("addr").and_then(Json::as_str).map(String::from))
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("phc serve did not announce an address: {line:?}"));
        };
        let mut server = Server {
            child,
            _stdout: stdout,
            addr,
            start: Duration::ZERO,
            spawned,
            cache_dir,
        };
        let mut conn = server.connect()?;
        let pong = control(&mut conn, &Request::Ping)?;
        if pong.get("type").and_then(Json::as_str) != Some("pong") {
            return Err(format!("expected pong, got {}", pong.to_compact()));
        }
        server.start = spawned.elapsed();
        finish(conn)?;
        Ok(server)
    }

    /// Opens a connection.
    pub fn connect(&self) -> Result<Connection, String> {
        Connection::connect_timeout(self.addr, Duration::from_secs(5), Some(READ_TIMEOUT))
            .map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Time since spawn.
    pub fn age(&self) -> Duration {
        self.spawned.elapsed()
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    /// User plus system CPU time consumed so far, in seconds (`/proc` ticks
    /// are 1/100 s on Linux).
    pub fn cpu_s(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| format!("{path}: malformed"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| format!("{path}: malformed"))
        };
        Ok((tick(11)? + tick(12)?) / 100.0)
    }

    /// Drains the server with `shutdown` and fails unless it exits 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let result = self.drain();
        if result.is_err() {
            let _ = self.child.kill();
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if let Some(dir) = &self.cache_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        result?;
        if !status.success() {
            return Err(format!("phc serve exited with {status}"));
        }
        Ok(())
    }

    fn drain(&mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        let ack = control(&mut conn, &Request::Shutdown)?;
        if ack.get("type").and_then(Json::as_str) != Some("shutdown_ack") {
            return Err(format!("expected shutdown_ack, got {}", ack.to_compact()));
        }
        finish(conn)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on an error path before `shutdown`: never leave the
        // server running.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(dir) = &self.cache_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
