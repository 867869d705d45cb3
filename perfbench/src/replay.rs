//! The traced replay: in-process and on one thread, each distinct program
//! goes through the server's own calls — `Request::from_line`,
//! `parse_program`, the engine the server runs (`Engine::compile_caught`,
//! which emits `compile`/`pipeline`/pass spans), and `job_json` +
//! `to_compact` — once as a miss and, where the workload has hits, once
//! more as a hit. Spans go to an in-memory `Collector`; self times are
//! summed per layer, and the spans are written out as a Chrome trace.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use paulihedral::parse::parse_program;
use paulihedral::Scheduler;
use ph_engine::cache::CacheEntry;
use ph_engine::{
    persist, proto, CacheConfig, Collector, Engine, Pipeline, Request, Target, Telemetry,
};
use ph_telemetry::{export, Event, EventKind};

use crate::gen::Program;

/// What one replayed request produced.
pub struct Replayed {
    /// The `request` span's wall time.
    pub request: Duration,
    /// Gates of the final circuit.
    pub gates: usize,
    /// Peephole rounds (misses only; a hit runs no passes).
    pub rounds: usize,
}

/// The engine, its telemetry, and the per-layer self times so far.
pub struct Replay {
    collector: Arc<Collector>,
    tel: Telemetry,
    engine: Engine,
    disk: Option<PathBuf>,
    /// Self time per layer, summed over the replayed programs. The engine's
    /// `synthesis` span is split into `synthesis.ft` and `synthesis.sc` by
    /// the program's target.
    pub self_times: BTreeMap<String, Duration>,
}

impl Replay {
    /// An engine configured like `phc serve` (standard pipeline, `ft`
    /// default target, sequential synthesis). With `disk`, the cache has a
    /// disk tier there and a memory tier of zero entries, so the hit is a
    /// disk hit, as most `kernels` hits are.
    pub fn new(disk: Option<PathBuf>) -> Result<Replay, String> {
        let collector = Arc::new(Collector::new());
        let tel = Telemetry::attached(Arc::clone(&collector));
        if let Some(dir) = &disk {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let cache = CacheConfig {
            max_entries: disk.as_ref().map(|_| 0),
            disk_dir: disk.clone(),
            ..CacheConfig::default()
        };
        let engine = Engine::new(Pipeline::standard(Scheduler::Auto), Target::FaultTolerant)
            .with_telemetry(tel.clone())
            .with_cache_config(cache)
            .with_intra_threads(1);
        Ok(Replay {
            collector,
            tel,
            engine,
            disk,
            self_times: BTreeMap::new(),
        })
    }

    /// Replays `line` (a compile request for `program`, wire id `id`): the
    /// miss and, with `hit`, the hit. Then, outside the request spans, it
    /// times on their own the calls that run inside a coarser span:
    /// `mapped_stats` (inside `job_json`) and `persist::{encode,decode}_entry`
    /// (inside the disk tier's fill and probe).
    pub fn program(
        &mut self,
        id: u64,
        program: &Program,
        line: &str,
        hit: bool,
    ) -> Result<Vec<Replayed>, String> {
        let seen = self.collector.event_count();
        let classes: &[bool] = if hit { &[false, true] } else { &[false] };
        let mut out = Vec::new();
        let mut last = None;
        for &cached in classes {
            let span = self.tel.span_with(
                "request",
                vec![
                    ("id", id.into()),
                    ("program", program.label.as_str().into()),
                    ("class", if cached { "hit" } else { "miss" }.into()),
                ],
            );
            let req = {
                let _s = self.tel.span("proto.decode");
                Request::from_line(line.trim_end())
            };
            let Request::Compile(req) = req? else {
                return Err(format!("{}: not a compile request", program.label));
            };
            let ir = {
                let _s = self.tel.span("parse.program");
                parse_program(&req.ir)
            }
            .map_err(|e| format!("{}: {e}", program.label))?;
            let target = req
                .backend
                .as_deref()
                .map(|spec| Target::parse_spec(spec, ir.num_qubits()))
                .transpose()?;
            let outcome = self
                .engine
                .compile_caught(&ir, target.as_ref(), req.scheduler);
            let report = {
                let _s = self.tel.span("proto.encode");
                let job = proto::job_json(
                    &req.display_name(),
                    &outcome,
                    Duration::ZERO,
                    Duration::ZERO,
                );
                proto::report_json(req.id, job, None).to_compact()
            };
            let request = span.finish();
            std::hint::black_box(report);
            let output = outcome.map_err(|e| format!("{}: replay failed: {e}", program.label))?;
            if output.report.cache_hit != cached {
                return Err(format!(
                    "{}: replayed {} came back with cache_hit {}",
                    program.label,
                    if cached { "hit" } else { "miss" },
                    output.report.cache_hit
                ));
            }
            out.push(Replayed {
                request,
                gates: output.compiled.circuit.len(),
                rounds: peephole_rounds(&output.report.passes),
            });
            last = Some(output);
        }

        let output = last.expect("at least the miss ran");
        {
            let _detail = self.tel.span("detail");
            let stats = {
                let _s = self.tel.span("stats.mapped");
                output.compiled.circuit.mapped_stats()
            };
            std::hint::black_box(stats);
            let entry = CacheEntry {
                compiled: output.compiled,
                report: output.report,
            };
            let bytes = {
                let _s = self.tel.span("persist.encode");
                persist::encode_entry(&entry)
            };
            let decoded = {
                let _s = self.tel.span("persist.decode");
                persist::decode_entry(&bytes)
            };
            decoded.map_err(|e| format!("{}: entry does not decode: {e:?}", program.label))?;
        }

        let events = self.collector.events();
        let ft = program.backend == "ft";
        for (name, d) in self_times(&events[seen..]) {
            let name = match name.as_str() {
                "synthesis" if ft => "synthesis.ft".to_string(),
                "synthesis" => "synthesis.sc".to_string(),
                _ => name,
            };
            *self.self_times.entry(name).or_default() += d;
        }
        Ok(out)
    }

    /// Summed self time of `layer`, in ms (0 when it never ran).
    pub fn ms(&self, layer: &str) -> f64 {
        self.self_times
            .get(layer)
            .map_or(0.0, |d| d.as_secs_f64() * 1e3)
    }

    /// Every span and cache event as Chrome trace-event JSON.
    pub fn chrome_trace(&self) -> String {
        export::chrome_trace(&self.collector)
    }
}

impl Drop for Replay {
    fn drop(&mut self) {
        if let Some(dir) = &self.disk {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The peephole pass's round count, from its report note
/// (`"…, N rounds"`).
fn peephole_rounds(passes: &[ph_engine::PassRecord]) -> usize {
    passes
        .iter()
        .find(|p| p.name == "peephole")
        .and_then(|p| p.note.rsplit(", ").next())
        .and_then(|last| last.strip_suffix(" rounds"))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Self time per span name over one thread's `events`: each span's wall
/// time less the wall time of the spans directly inside it, summed.
pub fn self_times(events: &[Event]) -> BTreeMap<String, Duration> {
    let mut begins: HashMap<u64, (&str, Duration, Option<u64>)> = HashMap::new();
    let mut walls: Vec<(u64, Duration)> = Vec::new();
    for e in events {
        match e.kind {
            EventKind::Begin => {
                begins.insert(e.id, (e.name.as_ref(), e.ts, e.parent));
            }
            EventKind::End => {
                if let Some(&(_, start, _)) = begins.get(&e.id) {
                    walls.push((e.id, e.ts.saturating_sub(start)));
                }
            }
            EventKind::Instant => {}
        }
    }
    let mut own: HashMap<u64, Duration> = walls.iter().copied().collect();
    for &(id, wall) in &walls {
        if let Some(parent) = begins[&id].2 {
            if let Some(p) = own.get_mut(&parent) {
                *p = p.saturating_sub(wall);
            }
        }
    }
    let mut out = BTreeMap::new();
    for (id, d) in own {
        *out.entry(begins[&id].0.to_string()).or_default() += d;
    }
    out
}
