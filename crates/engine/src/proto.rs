//! The compile-service wire protocol: newline-delimited JSON.
//!
//! One request or response per line, every line a complete JSON object
//! with a `type` field. Requests (client → server):
//!
//! ```text
//! {"type": "compile", "id": 1, "ir": "{(ZZ, 1.0), 1.0};",
//!  "name": "job-a", "backend": "ft", "scheduler": "auto",
//!  "deadline_ms": 5000, "artifact": true}
//! {"type": "ping"}
//! {"type": "stats"}
//! {"type": "health"}
//! {"type": "shutdown"}
//! ```
//!
//! Responses (server → client): `report` (one per compile request, as it
//! finishes — success and failure are both values carrying the request
//! `id`), `pong`, `stats`, `health` (queue depth, worker liveness, cache
//! tier status), `shutdown_ack`, `bye` (end of connection), and `error`
//! (a line the server could not attribute to a request).
//!
//! Error taxonomy on `ok: false` reports (`error_kind`): the compiler's
//! own rejections (`empty_program`, `device_too_small`,
//! `device_disconnected`, `panicked`) plus the service's
//! (`bad_request`, `overloaded`, `draining`, `deadline_exceeded`,
//! `request_too_large`, `watchdog_timeout`). Every accepted compile
//! request gets exactly one report; a client can therefore count reports
//! against submissions. `panicked`, `overloaded`, and `watchdog_timeout`
//! are *retryable*: re-submitting the same id is safe (compiles are
//! content-addressed and cached, so a duplicate submission of work that
//! already succeeded is a cache hit, not a recompute) — this is what
//! [`crate::client::Client`] automates.
//!
//! This module owns the JSON shapes shared by the server ([`crate::serve`]),
//! the `phc submit` client, and the `phc batch` report, so the wire format
//! and the report file can never drift apart.

use std::time::Duration;

use paulihedral::{CompileError, Scheduler};
use ph_telemetry::json::Json;

use crate::batch::BatchResult;
use crate::cache::CacheStats;
use crate::engine::EngineOutput;

/// One parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Compile one program; answered by exactly one `report` line.
    Compile(CompileRequest),
    /// Liveness probe; answered by `pong`.
    Ping,
    /// Server + cache counters; answered by `stats`.
    Stats,
    /// Queue depth, worker liveness, and cache tier status; answered by
    /// `health`. Cheap enough for load-balancer probes.
    Health,
    /// Begin graceful drain; answered by `shutdown_ack`.
    Shutdown,
}

/// The payload of a `compile` request.
#[derive(Clone, Debug, PartialEq)]
pub struct CompileRequest {
    /// Client-chosen correlation id, echoed on the report. Reports stream
    /// back in completion order, not submission order — the id is how a
    /// client matches them up.
    pub id: u64,
    /// Optional display name (defaults to `job-<id>` in reports).
    pub name: Option<String>,
    /// The program, in the `.pauli` text format ([`paulihedral::parse`]).
    pub ir: String,
    /// Backend spec (see [`crate::Target::parse_spec`]); `None` uses the
    /// server's default target.
    pub backend: Option<String>,
    /// Scheduler override; `None` uses the server pipeline's scheduler.
    pub scheduler: Option<Scheduler>,
    /// Per-request deadline in milliseconds, measured from acceptance. A
    /// job still queued when it expires is answered with a
    /// `deadline_exceeded` report instead of compiling.
    pub deadline_ms: Option<u64>,
    /// When `true`, the report carries the full compiled artifact
    /// (hex-encoded [`crate::persist`] bytes) in an `artifact` field.
    pub artifact: bool,
}

impl CompileRequest {
    /// The name shown in reports: the client's, or `job-<id>`.
    pub fn display_name(&self) -> String {
        self.name
            .clone()
            .unwrap_or_else(|| format!("job-{}", self.id))
    }
}

/// Parses a scheduler spec (`auto`, `gco`, `do`) — the one vocabulary
/// shared by the CLI flags and the wire protocol.
///
/// # Errors
///
/// Returns a human-readable message for anything else.
pub fn parse_scheduler_spec(spec: &str) -> Result<Scheduler, String> {
    match spec {
        "auto" => Ok(Scheduler::Auto),
        "gco" => Ok(Scheduler::GateCount),
        "do" => Ok(Scheduler::Depth),
        other => Err(format!("unknown scheduler `{other}` (auto|gco|do)")),
    }
}

/// The spec string [`parse_scheduler_spec`] reads back (`auto`, `gco`,
/// `do`); also the scheduler's tag in pass signatures and notes.
pub(crate) fn scheduler_spec(s: Scheduler) -> &'static str {
    match s {
        Scheduler::Auto => "auto",
        Scheduler::GateCount => "gco",
        Scheduler::Depth => "do",
    }
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns the `bad_request` message to send back: malformed JSON, a
    /// missing/unknown `type`, or a `compile` payload missing `id`/`ir`.
    pub fn from_line(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("missing `type` field")?;
        match ty {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            "compile" => {
                let id = v
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or("compile request needs a numeric `id`")?;
                let ir = v
                    .get("ir")
                    .and_then(Json::as_str)
                    .ok_or("compile request needs an `ir` string")?
                    .to_string();
                let scheduler = match v.get("scheduler").and_then(Json::as_str) {
                    None => None,
                    Some(s) => Some(parse_scheduler_spec(s)?),
                };
                Ok(Request::Compile(CompileRequest {
                    id,
                    name: v.get("name").and_then(Json::as_str).map(String::from),
                    ir,
                    backend: v.get("backend").and_then(Json::as_str).map(String::from),
                    scheduler,
                    deadline_ms: v.get("deadline_ms").and_then(Json::as_u64),
                    artifact: v.get("artifact").and_then(Json::as_bool).unwrap_or(false),
                }))
            }
            other => Err(format!("unknown request type `{other}`")),
        }
    }

    /// Renders the request as a JSON value (the client side of
    /// [`Request::from_line`]).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => Json::obj([("type", Json::str("ping"))]),
            Request::Stats => Json::obj([("type", Json::str("stats"))]),
            Request::Health => Json::obj([("type", Json::str("health"))]),
            Request::Shutdown => Json::obj([("type", Json::str("shutdown"))]),
            Request::Compile(c) => {
                let mut fields = vec![
                    ("type".to_string(), Json::str("compile")),
                    ("id".to_string(), Json::U64(c.id)),
                ];
                if let Some(name) = &c.name {
                    fields.push(("name".to_string(), Json::str(name)));
                }
                fields.push(("ir".to_string(), Json::str(&c.ir)));
                if let Some(backend) = &c.backend {
                    fields.push(("backend".to_string(), Json::str(backend)));
                }
                if let Some(s) = c.scheduler {
                    fields.push(("scheduler".to_string(), Json::str(scheduler_spec(s))));
                }
                if let Some(ms) = c.deadline_ms {
                    fields.push(("deadline_ms".to_string(), Json::U64(ms)));
                }
                if c.artifact {
                    fields.push(("artifact".to_string(), Json::Bool(true)));
                }
                Json::Obj(fields)
            }
        }
    }

    /// The request as one wire line (compact JSON + newline).
    pub fn to_line(&self) -> String {
        let mut line = self.to_json().to_compact();
        line.push('\n');
        line
    }
}

/// The wire tag of a compiler-side error.
pub fn compile_error_kind(e: &CompileError) -> &'static str {
    match e {
        CompileError::EmptyProgram => "empty_program",
        CompileError::DeviceTooSmall { .. } => "device_too_small",
        CompileError::DeviceDisconnected => "device_disconnected",
        CompileError::Panicked(_) => "panicked",
    }
}

/// One job's result as a JSON object — the shape shared verbatim by the
/// `phc batch` report's `jobs` array and the service's `report` lines
/// (which prepend `type`/`id`). Success carries circuit metrics and the
/// per-pass table; failure carries `error` (message) and `error_kind`.
pub fn job_json(
    name: &str,
    outcome: &Result<EngineOutput, CompileError>,
    wall: Duration,
    queue_wait: Duration,
) -> Json {
    match outcome {
        Ok(o) => {
            let stats = o.report.final_stats();
            let passes: Vec<Json> = o
                .report
                .passes
                .iter()
                .map(|p| {
                    Json::obj([
                        ("name", Json::str(&p.name)),
                        ("wall_ms", Json::f64_rounded(p.wall.as_secs_f64() * 1e3, 3)),
                        ("cnot_delta", Json::I64(p.cnot_delta())),
                        ("single_delta", Json::I64(p.single_delta())),
                        ("depth_delta", Json::I64(p.depth_delta())),
                        ("note", Json::str(&p.note)),
                    ])
                })
                .collect();
            Json::obj([
                ("name", Json::str(name)),
                ("ok", Json::Bool(true)),
                ("cache_hit", Json::Bool(o.report.cache_hit)),
                ("key", Json::str(format!("{:016x}", o.report.key))),
                ("cnot", Json::U64(stats.cnot as u64)),
                ("single", Json::U64(stats.single as u64)),
                ("total", Json::U64(stats.total as u64)),
                ("depth", Json::U64(stats.depth as u64)),
                ("wall_ms", Json::f64_rounded(wall.as_secs_f64() * 1e3, 3)),
                (
                    "queue_wait_ms",
                    Json::f64_rounded(queue_wait.as_secs_f64() * 1e3, 3),
                ),
                ("passes", Json::Arr(passes)),
            ])
        }
        Err(e) => Json::obj([
            ("name", Json::str(name)),
            ("ok", Json::Bool(false)),
            ("error", Json::str(e.to_string())),
            ("error_kind", Json::str(compile_error_kind(e))),
        ]),
    }
}

/// [`job_json`] over a [`BatchResult`] (the `phc batch` report form).
pub fn batch_result_json(r: &BatchResult) -> Json {
    job_json(&r.name, &r.outcome, r.wall, r.queue_wait)
}

/// Wraps a [`job_json`] object into a `report` response line, optionally
/// attaching the hex-encoded compiled artifact.
pub fn report_json(id: u64, job: Json, artifact_hex: Option<String>) -> Json {
    let mut fields = vec![
        ("type".to_string(), Json::str("report")),
        ("id".to_string(), Json::U64(id)),
    ];
    if let Json::Obj(job_fields) = job {
        fields.extend(job_fields);
    }
    if let Some(hex) = artifact_hex {
        fields.push(("artifact".to_string(), Json::Str(hex)));
    }
    Json::Obj(fields)
}

/// A service-side rejection of one compile request, as a `report` line
/// (`ok: false`) so the per-request invariant — one report per accepted
/// id — holds for rejections too.
pub fn reject_json(id: u64, name: &str, kind: &str, message: &str) -> Json {
    Json::obj([
        ("type", Json::str("report")),
        ("id", Json::U64(id)),
        ("name", Json::str(name)),
        ("ok", Json::Bool(false)),
        ("error", Json::str(message)),
        ("error_kind", Json::str(kind)),
    ])
}

/// A connection-level `error` line for input the server could not
/// attribute to a request id (malformed JSON, oversized line, …).
pub fn error_json(kind: &str, message: &str) -> Json {
    Json::obj([
        ("type", Json::str("error")),
        ("error_kind", Json::str(kind)),
        ("error", Json::str(message)),
    ])
}

/// [`CacheStats`] as a JSON object — shared by the `phc batch` report's
/// `cache` object and the service's `stats` response.
pub fn cache_json(cs: &CacheStats) -> Json {
    Json::obj([
        ("hits", Json::U64(cs.hits)),
        ("misses", Json::U64(cs.misses)),
        ("disk_hits", Json::U64(cs.disk_hits)),
        ("coalesced", Json::U64(cs.coalesced)),
        ("evictions", Json::U64(cs.evictions)),
        ("tmp_swept", Json::U64(cs.tmp_swept)),
        ("entries", Json::U64(cs.entries as u64)),
        ("resident_bytes", Json::U64(cs.resident_bytes as u64)),
        ("disk_errors", Json::U64(cs.disk_errors)),
        ("disk_heals", Json::U64(cs.disk_heals)),
        ("disk_disabled", Json::Bool(cs.disk_disabled)),
    ])
}

/// Lowercase hex encoding (artifact transport).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Inverse of [`hex_encode`]; `None` on odd length or non-hex digits.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digit = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push(digit(pair[0])? * 16 + digit(pair[1])?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_request_round_trips_through_the_wire_form() {
        let req = Request::Compile(CompileRequest {
            id: 7,
            name: Some("bh_10".into()),
            ir: "{(ZZ, 1.0), 1.0};".into(),
            backend: Some("manhattan".into()),
            scheduler: Some(Scheduler::Depth),
            deadline_ms: Some(2500),
            artifact: true,
        });
        let line = req.to_line();
        assert!(line.ends_with('\n'));
        assert_eq!(Request::from_line(line.trim_end()).unwrap(), req);
    }

    #[test]
    fn minimal_compile_request_defaults_the_options() {
        let req = Request::from_line(r#"{"type":"compile","id":1,"ir":"x"}"#).unwrap();
        let Request::Compile(c) = req else {
            panic!("expected compile");
        };
        assert_eq!(c.display_name(), "job-1");
        assert_eq!(
            (c.backend, c.scheduler, c.deadline_ms, c.artifact),
            (None, None, None, false)
        );
    }

    #[test]
    fn control_requests_round_trip() {
        for req in [
            Request::Ping,
            Request::Stats,
            Request::Health,
            Request::Shutdown,
        ] {
            assert_eq!(Request::from_line(req.to_line().trim_end()).unwrap(), req);
        }
    }

    #[test]
    fn bad_request_lines_return_messages_not_panics() {
        for (line, needle) in [
            ("not json", "malformed JSON"),
            ("{}", "missing `type`"),
            (r#"{"type":"frobnicate"}"#, "unknown request type"),
            (r#"{"type":"compile","ir":"x"}"#, "numeric `id`"),
            (r#"{"type":"compile","id":1}"#, "`ir` string"),
            (
                r#"{"type":"compile","id":1,"ir":"x","scheduler":"bogus"}"#,
                "unknown scheduler",
            ),
        ] {
            let err = Request::from_line(line).unwrap_err();
            assert!(err.contains(needle), "line {line:?} gave {err:?}");
        }
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert_eq!(hex_encode(&[0x0f, 0xa0]), "0fa0");
        assert_eq!(hex_decode("abc"), None, "odd length");
        assert_eq!(hex_decode("zz"), None, "non-hex digit");
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn every_compile_error_has_a_wire_kind() {
        assert_eq!(
            compile_error_kind(&CompileError::EmptyProgram),
            "empty_program"
        );
        assert_eq!(
            compile_error_kind(&CompileError::DeviceTooSmall {
                device: 5,
                program: 9
            }),
            "device_too_small"
        );
        assert_eq!(
            compile_error_kind(&CompileError::DeviceDisconnected),
            "device_disconnected"
        );
        assert_eq!(
            compile_error_kind(&CompileError::Panicked("boom".into())),
            "panicked"
        );
    }
}
