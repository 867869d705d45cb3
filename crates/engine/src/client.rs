//! Clients for the compile service: a thin blocking [`Connection`] and a
//! resilient [`Client`] built on top of it.
//!
//! [`Connection`] is the raw wire — one socket, send a line, receive a
//! line. The integration tests use it to poke the server's edges
//! (malformed lines, half-closes, abrupt disconnects).
//!
//! [`Client`] is what `phc submit` uses and what survives a flaky
//! network or a degraded server. It resolves faults at two levels:
//!
//! * **Transport faults** — connect failures, read timeouts, dropped or
//!   truncated connections, EOF with jobs still unanswered. The client
//!   reconnects and re-submits every unanswered job, sleeping between
//!   attempts with exponential backoff and decorrelated jitter (each
//!   sleep is drawn uniformly from `[base, 3 × previous]`, capped) so a
//!   thundering herd of retrying clients spreads out. Bounded by
//!   [`ClientConfig::max_retries`]; exhaustion is
//!   [`ClientError::Transport`].
//! * **Retryable job errors** — reports with `error_kind` in
//!   {`panicked`, `overloaded`, `watchdog_timeout`} are re-submitted
//!   (bounded per id by [`ClientConfig::job_retries`]) instead of being
//!   surfaced. Anything else (compiler rejections, `deadline_exceeded`,
//!   `draining`) is a real answer and is returned as-is.
//!
//! Re-submission is **idempotent by construction**: requests are keyed
//! by their client-chosen `id` (the answer map holds one slot per id,
//! so a duplicate report from a retry races harmlessly), and the
//! server's compiles are content-addressed through its single-flight
//! cache — re-submitting work that already succeeded is a cache hit,
//! not a recompute.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use ph_telemetry::json::Json;

use crate::fault::Stream;
use crate::proto::{CompileRequest, Request};

/// A minimal blocking connection speaking the wire protocol
/// ([`crate::proto`]) — one socket, no retries.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Any [`TcpStream::connect`] failure.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        Connection::from_stream(stream)
    }

    /// Connects with a connect timeout and an optional per-read timeout
    /// (`None` = block forever on reads).
    ///
    /// # Errors
    ///
    /// Address resolution failures, connect failures or timeout, or a
    /// failure to set the read timeout.
    pub fn connect_timeout(
        addr: SocketAddr,
        connect: Duration,
        read: Option<Duration>,
    ) -> std::io::Result<Connection> {
        let stream = TcpStream::connect_timeout(&addr, connect)?;
        stream.set_read_timeout(read)?;
        Connection::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> std::io::Result<Connection> {
        let writer = stream.try_clone()?;
        Ok(Connection {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Any socket write failure.
    pub fn send(&mut self, req: &Request) -> std::io::Result<()> {
        self.writer.write_all(req.to_line().as_bytes())?;
        self.writer.flush()
    }

    /// Sends one raw line (appends the newline).
    ///
    /// # Errors
    ///
    /// Any socket write failure.
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Receives one response line (`None` on EOF), trimmed.
    ///
    /// # Errors
    ///
    /// Any socket read failure.
    pub fn recv_line(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        Ok(Some(line.trim_end().to_string()))
    }

    /// Receives and parses one response (`None` on EOF).
    ///
    /// # Errors
    ///
    /// Socket read failures, or a response line that is not valid JSON
    /// (mapped to [`std::io::ErrorKind::InvalidData`]) — which is how a
    /// server-side truncated write surfaces on this end.
    pub fn recv(&mut self) -> std::io::Result<Option<Json>> {
        match self.recv_line()? {
            None => Ok(None),
            Some(line) => Json::parse(&line)
                .map(Some)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())),
        }
    }

    /// Half-closes the write side: the server sees EOF, finishes this
    /// connection's in-flight jobs, sends `bye`, and closes. Remaining
    /// responses stay readable via [`Connection::recv`].
    ///
    /// # Errors
    ///
    /// Any socket shutdown failure.
    pub fn finish(&mut self) -> std::io::Result<()> {
        self.writer.shutdown(Shutdown::Write)
    }
}

/// Tunables of the resilient [`Client`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Per-read socket timeout; also the stall detector — a server that
    /// stops answering for this long counts as a transport fault and
    /// triggers a reconnect (`None` = wait forever).
    pub read_timeout: Option<Duration>,
    /// Transport-fault budget: how many times the client will reconnect
    /// and re-submit after a connect failure, read error, or premature
    /// EOF before giving up with [`ClientError::Transport`].
    pub max_retries: u32,
    /// Per-id re-submission budget for retryable job errors (`panicked`,
    /// `overloaded`, `watchdog_timeout`).
    pub job_retries: u32,
    /// Backoff floor (first sleep, and the minimum of every jittered
    /// draw).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Jitter seed; same seed + same fault sequence = same sleeps, so
    /// chaos tests stay reproducible.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Some(Duration::from_secs(30)),
            max_retries: 5,
            job_retries: 2,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(2),
            seed: 0,
        }
    }
}

/// What the client did to get the answers it returned.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Successful connects (1 for a fault-free run).
    pub connects: u64,
    /// Transport faults survived (reconnect + re-submit rounds).
    pub retries: u64,
    /// Individual jobs re-submitted after a retryable error report.
    pub job_retries: u64,
}

/// Why the client gave up.
#[derive(Clone, Debug)]
pub enum ClientError {
    /// The transport-fault budget ran out.
    Transport {
        /// Faults absorbed before the one that exhausted the budget.
        attempts: u64,
        /// The last underlying failure, human-readable.
        last: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport { attempts, last } => write!(
                f,
                "transport failure after {attempts} retr{}: {last}",
                if *attempts == 1 { "y" } else { "ies" }
            ),
        }
    }
}

impl std::error::Error for ClientError {}

/// Job-error kinds worth re-submitting: transient server conditions, not
/// properties of the request itself.
const RETRYABLE_KINDS: [&str; 3] = ["panicked", "overloaded", "watchdog_timeout"];

/// A resilient compile-service client: bounded reconnects with jittered
/// backoff, idempotent re-submission of unanswered jobs, and bounded
/// re-submission of retryably-failed ones. See the module docs for the
/// fault model.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    stats: ClientStats,
    rng: Stream,
    budget: u32,
    prev_backoff: Duration,
}

impl Client {
    /// A client for the server at `addr` (resolved once, here).
    ///
    /// # Errors
    ///
    /// Address resolution failure (no connection is attempted yet).
    pub fn new(addr: impl ToSocketAddrs, config: ClientConfig) -> std::io::Result<Client> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        })?;
        let budget = config.max_retries;
        let prev_backoff = config.backoff_base;
        let rng = Stream(config.seed ^ 0x9e37_79b9_7f4a_7c15);
        Ok(Client {
            addr,
            config,
            stats: ClientStats::default(),
            rng,
            budget,
            prev_backoff,
        })
    }

    /// What happened so far (connects, retries).
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Absorbs one transport fault: spend budget, sleep with decorrelated
    /// jitter, or give up.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] once the budget is spent.
    fn transport_fault(&mut self, last: &str) -> Result<(), ClientError> {
        if self.budget == 0 {
            return Err(ClientError::Transport {
                attempts: self.stats.retries,
                last: last.to_string(),
            });
        }
        self.budget -= 1;
        self.stats.retries += 1;
        // Decorrelated jitter: uniform in [base, 3 × previous], capped.
        let base = self.config.backoff_base.as_millis() as u64;
        let hi = (self.prev_backoff.as_millis() as u64)
            .saturating_mul(3)
            .max(base + 1);
        let sleep_ms = base + self.rng.next_u64() % (hi - base);
        let sleep = Duration::from_millis(sleep_ms).min(self.config.backoff_cap);
        self.prev_backoff = sleep;
        std::thread::sleep(sleep);
        Ok(())
    }

    fn connect(&mut self) -> Result<Connection, ClientError> {
        loop {
            match Connection::connect_timeout(
                self.addr,
                self.config.connect_timeout,
                self.config.read_timeout,
            ) {
                Ok(conn) => {
                    self.stats.connects += 1;
                    return Ok(conn);
                }
                Err(e) => self.transport_fault(&format!("connect: {e}"))?,
            }
        }
    }

    /// Submits every request and blocks until each has exactly one final
    /// report, surviving transport faults and retryable job errors along
    /// the way. Returns the reports keyed by request id (so iteration
    /// order is id order, deterministic regardless of completion order).
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] when the retry budget runs out with
    /// jobs still unanswered. Job failures are *not* errors — they come
    /// back as `ok: false` reports in the map.
    pub fn submit_all(
        &mut self,
        reqs: Vec<CompileRequest>,
    ) -> Result<BTreeMap<u64, Json>, ClientError> {
        let mut pending: BTreeMap<u64, CompileRequest> =
            reqs.into_iter().map(|r| (r.id, r)).collect();
        let mut job_budget: BTreeMap<u64, u32> = pending
            .keys()
            .map(|&id| (id, self.config.job_retries))
            .collect();
        let mut results = BTreeMap::new();

        'reconnect: while !pending.is_empty() {
            let mut conn = self.connect()?;
            for req in pending.values() {
                if let Err(e) = conn.send(&Request::Compile(req.clone())) {
                    self.transport_fault(&format!("submit: {e}"))?;
                    continue 'reconnect;
                }
            }
            while !pending.is_empty() {
                let json = match conn.recv() {
                    Ok(Some(json)) => json,
                    Ok(None) => {
                        self.transport_fault("connection closed with jobs unanswered")?;
                        continue 'reconnect;
                    }
                    Err(e) => {
                        self.transport_fault(&format!("read: {e}"))?;
                        continue 'reconnect;
                    }
                };
                if json.get("type").and_then(Json::as_str) != Some("report") {
                    // pong/stats/bye/error lines are not answers to a
                    // compile id; skip them.
                    continue;
                }
                let Some(id) = json.get("id").and_then(Json::as_u64) else {
                    continue;
                };
                if !pending.contains_key(&id) {
                    // A duplicate answer from a superseded submission of
                    // an id that already resolved; idempotent, drop it.
                    continue;
                }
                let ok = json.get("ok").and_then(Json::as_bool).unwrap_or(false);
                let kind = json
                    .get("error_kind")
                    .and_then(Json::as_str)
                    .unwrap_or_default();
                if !ok && RETRYABLE_KINDS.contains(&kind) {
                    let budget = job_budget.entry(id).or_default();
                    if *budget > 0 {
                        *budget -= 1;
                        self.stats.job_retries += 1;
                        let req = pending[&id].clone();
                        if let Err(e) = conn.send(&Request::Compile(req)) {
                            self.transport_fault(&format!("re-submit: {e}"))?;
                            continue 'reconnect;
                        }
                        continue;
                    }
                }
                results.insert(id, json);
                pending.remove(&id);
            }
        }
        Ok(results)
    }

    /// Sends one control request (`ping`/`stats`/`health`/`shutdown`) on
    /// a fresh connection and returns its answer, with the same transport
    /// retry discipline as [`Client::submit_all`]. For `shutdown`, EOF
    /// instead of an ack still counts as delivered (`Ok(None)`) — the
    /// server may win the race between acking and closing.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] when the retry budget runs out.
    pub fn control(&mut self, req: &Request) -> Result<Option<Json>, ClientError> {
        loop {
            let mut conn = self.connect()?;
            if let Err(e) = conn.send(req) {
                self.transport_fault(&format!("send: {e}"))?;
                continue;
            }
            match conn.recv() {
                Ok(answer) => return Ok(answer),
                Err(e) => {
                    if matches!(req, Request::Shutdown) {
                        return Ok(None);
                    }
                    self.transport_fault(&format!("read: {e}"))?;
                }
            }
        }
    }
}
