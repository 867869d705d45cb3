//! `perfbench --phc PATH --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints one line per metric (value, unit, sample count) and, last, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run is repeated by a traced in-process replay and the metrics are the
//! per-layer ones.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use perfbench::check::{check_artifact, decode_artifact, Consistency};
use perfbench::gen::{self, Class, Encoded, Program, Req, Stream, Workload};
use perfbench::load::{closed_loop, Phase, Report};
use perfbench::replay::Replay;
use perfbench::server::{self, Server};
use perfbench::stats::{percentile, quantile};
use perfbench::{END_TO_END, PER_LAYER};
use ph_engine::json::Json;
use ph_engine::Request;

/// Wire ids of the warm-up requests start here (program index added).
const WARM_ID_BASE: u64 = 0;
/// Wire ids of the artifact fetches start here.
const CHECK_ID_BASE: u64 = 500_000;

struct Args {
    phc: PathBuf,
    out: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| value(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?;
    Ok(Args {
        phc: PathBuf::from(need("--phc")?),
        out: PathBuf::from(value("--out").unwrap_or(".bench_out")),
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}` (table1|scale|kernels)"))?,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed takes an integer".to_string())?,
        seconds: need("--seconds")?
            .parse()
            .map_err(|_| "--seconds takes a number".to_string())?,
        trace: match value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
    })
}

fn main() {
    let result = parse_args().and_then(|args| {
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
        run(&args)
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// One reported metric.
struct Metric {
    value: f64,
    unit: &'static str,
    samples: usize,
    note: String,
}

#[derive(Default)]
struct Metrics(BTreeMap<&'static str, Metric>);

impl Metrics {
    fn put(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: &str,
    ) {
        self.0.insert(
            name,
            Metric {
                value,
                unit,
                samples,
                note: note.to_string(),
            },
        );
    }

    /// Every reading with its unit, sample count and what it covers.
    fn json(&self) -> Json {
        Json::obj(self.0.iter().map(|(name, m)| {
            let fields = Json::obj([
                ("value", Json::F64(m.value)),
                ("unit", Json::str(m.unit)),
                ("samples", Json::U64(m.samples as u64)),
                ("what", Json::str(&m.note)),
            ]);
            (*name, fields)
        }))
    }

    /// The named metrics, each only by value and unit, as the result line
    /// carries them; a name the run did not measure is an error.
    fn select(&self, names: &[&str]) -> Result<Json, String> {
        let mut fields = Vec::new();
        for name in names {
            let m = self
                .0
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            let value = Json::obj([("value", Json::F64(m.value)), ("unit", Json::str(m.unit))]);
            fields.push((name.to_string(), value));
        }
        Ok(Json::Obj(fields))
    }

    fn print(&self, workload: &str) {
        for (name, m) in &self.0 {
            println!(
                "{workload:8} {name:28} {:>14.6} {:6} n={:<6} {}",
                m.value, m.unit, m.samples, m.note
            );
        }
    }
}

/// Set-ups per run; `setup_s` is their median. A `kernels` set-up takes
/// about 0.2 s, so it affords more of them against the host's jitter.
fn setup_reps(w: Workload) -> usize {
    match w {
        Workload::Table1 | Workload::Scale => 3,
        Workload::Kernels => 9,
    }
}

fn spawn(args: &Args, k: usize) -> Result<Server, String> {
    let w = args.workload;
    let disk = (w == Workload::Kernels)
        .then(|| args.out.join(format!("cache-{}-{k}", std::process::id())));
    Server::spawn(&args.phc, w.cache_entries(), disk)
}

/// Sends each `(program, text)` once over two connections: the warm-up
/// (base texts) and, with `artifact`, the artifact fetch. Request `i`
/// has wire id `id_base + i`; sample `idx` is `i`.
fn send_each(
    server: &Server,
    programs: &[Program],
    texts: &[String],
    items: &[(usize, usize)],
    id_base: u64,
    artifact: bool,
) -> Result<Phase, String> {
    let lines: Vec<std::sync::Arc<str>> = items
        .iter()
        .enumerate()
        .map(|(i, &(p, t))| {
            programs[p]
                .line(id_base + i as u64, &texts[t], artifact)
                .into()
        })
        .collect();
    let ids: Vec<u64> = (0..items.len() as u64).map(|i| id_base + i).collect();
    let round: Vec<Vec<usize>> = (0..items.len()).map(|i| vec![i]).collect();
    closed_loop(server, &lines, &ids, &[round], 1, 0.0)
}

fn cache_counters(server: &Server) -> Result<Json, String> {
    let mut conn = server.connect()?;
    let stats = server::control(&mut conn, &Request::Stats)?;
    server::finish(conn)?;
    stats
        .get("cache")
        .cloned()
        .ok_or_else(|| format!("stats reply without cache: {}", stats.to_compact()))
}

fn counter_delta(before: &Json, after: &Json, key: &str) -> f64 {
    let get = |j: &Json| j.get(key).and_then(Json::as_u64).unwrap_or(0) as f64;
    get(after) - get(before)
}

/// The output check of one timed report: consistent with every earlier
/// report of its text, served from cache exactly when it repeats a text
/// the server has compiled, and with its program's counts (a
/// fresh-parameter variant does the same compile work as its base).
fn check_timed(
    consistency: &mut Consistency,
    req: &Req,
    report: &Report,
    base: &[Report],
) -> Result<(), String> {
    consistency.check(req.text, report)?;
    let hit = req.class == Class::Hit;
    if report.cache_hit != hit {
        return Err(format!(
            "request {}: cache_hit {} for a {}",
            report.id,
            report.cache_hit,
            if hit {
                "repeat"
            } else {
                "fresh-parameter variant"
            }
        ));
    }
    if report.counts != base[req.program].counts {
        return Err(format!(
            "request {}: counts {:?}, but its program's base text gave {:?}",
            report.id, report.counts, base[req.program].counts
        ));
    }
    Ok(())
}

/// Passed and made checks, and the messages of the failed ones.
#[derive(Default)]
struct Checks {
    made: usize,
    passed: usize,
    failures: Vec<String>,
}

impl Checks {
    fn record(&mut self, result: Result<(), String>) {
        self.made += 1;
        match result {
            Ok(()) => self.passed += 1,
            Err(e) => self.failures.push(e),
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let programs = w.programs();
    let stream = Stream::generate(w, &programs, args.seed);
    let Encoded { lines, ids } = stream.encode(&programs);
    let config = gen::config_json(w, &programs, args.seed, args.seconds);
    println!("# config {}", config.to_compact());
    let base_items: Vec<(usize, usize)> = (0..programs.len()).map(|p| (p, p)).collect();

    // Set-up, several times: spawn → first pong → every program compiled.
    let mut consistency = Consistency::default();
    let mut setup_s = Vec::new();
    let mut start_ms = Vec::new();
    let mut warm = Phase::default();
    let mut server = None;
    for k in 0..setup_reps(w) {
        if let Some(previous) = server.take() {
            Server::shutdown(previous)?;
        }
        let s = spawn(args, k)?;
        warm = send_each(
            &s,
            &programs,
            &stream.texts,
            &base_items,
            WARM_ID_BASE,
            false,
        )?;
        setup_s.push(s.age().as_secs_f64());
        start_ms.push(s.start.as_secs_f64() * 1e3);
        for sample in &warm.samples {
            consistency.check(sample.idx, &sample.report)?;
        }
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let base: Vec<Report> = {
        let mut v: Vec<Option<Report>> = vec![None; programs.len()];
        for s in &warm.samples {
            v[s.idx] = Some(s.report.clone());
        }
        v.into_iter()
            .map(|r| r.ok_or("a warm-up request went unanswered"))
            .collect::<Result<_, _>>()?
    };

    // Timed phase.
    let cache_before = cache_counters(&server)?;
    let cpu_before = server.cpu_s()?;
    let timed = closed_loop(
        &server,
        &lines,
        &ids,
        &stream.rounds,
        w.min_rounds(),
        args.seconds,
    )?;
    let cpu_s = server.cpu_s()? - cpu_before;
    let cache_after = cache_counters(&server)?;
    let peak_rss_mb = server.peak_rss_mb()?;

    // Output check, outside the clock.
    let mut checks = Checks::default();
    let mut failed = 0usize;
    // Per program, the first and the last timed fresh-parameter variant
    // by request index, with its sample index: the first carries the
    // quality totals, the last is fetched as an artifact.
    let mut first: Vec<Option<(usize, usize)>> = vec![None; programs.len()];
    let mut last: Vec<Option<(usize, usize)>> = vec![None; programs.len()];
    for (i, s) in timed.samples.iter().enumerate() {
        let req = &stream.reqs[s.idx];
        failed += usize::from(!s.report.ok);
        checks.record(check_timed(&mut consistency, req, &s.report, &base));
        if req.class == Class::Miss {
            let seen = Some((s.idx, i));
            first[req.program] = first[req.program].min(seen).or(seen);
            last[req.program] = last[req.program].max(seen);
        }
    }
    let first: Vec<&Report> = first
        .iter()
        .zip(&programs)
        .map(|(j, p)| {
            j.map(|(_, i)| &timed.samples[i].report)
                .ok_or_else(|| format!("{}: no timed fresh-parameter variant", p.label))
        })
        .collect::<Result<_, _>>()?;
    // One artifact per distinct program, and one per program's last timed
    // variant, each checked against the counts its text was reported with.
    let mut fetch = base_items.clone();
    let mut fetch_counts: Vec<[u64; 4]> = base.iter().map(|r| r.counts).collect();
    for (p, j) in last.iter().enumerate() {
        if let Some((_, i)) = *j {
            let s = &timed.samples[i];
            fetch.push((p, stream.reqs[s.idx].text));
            fetch_counts.push(s.report.counts);
        }
    }
    let fetched = send_each(
        &server,
        &programs,
        &stream.texts,
        &fetch,
        CHECK_ID_BASE,
        true,
    )?;
    let mut dense_checked = 0usize;
    for s in &fetched.samples {
        let (p, text) = fetch[s.idx];
        let program = &programs[p];
        let result = consistency
            .check(text, &s.report)
            .and_then(|()| decode_artifact(&s.report))
            .and_then(|entry| {
                check_artifact(program, &stream.texts[text], &entry, fetch_counts[s.idx])
            });
        checks.record(result.map(|dense| dense_checked += usize::from(dense)));
    }
    Server::shutdown(server)?;

    let mut layers = Metrics::default();
    untraced_layers(
        &mut layers,
        &timed,
        &cache_before,
        &cache_after,
        cpu_s,
        &start_ms,
    )?;
    // The workload's predictions are checks too: a key collision that let
    // a variant hit, or a disk tier that quietly stopped, fails the run.
    let reading = |name: &str| layers.0.get(name).map_or(f64::NAN, |m| m.value);
    let predictions = match w {
        Workload::Table1 => vec![("cache.hit_ratio = 0", reading("cache.hit_ratio") == 0.0)],
        Workload::Scale => Vec::new(),
        Workload::Kernels => vec![
            ("cache.disk_hits > 0", reading("cache.disk_hits") > 0.0),
            ("cache.evictions > 0", reading("cache.evictions") > 0.0),
        ],
    };
    for (prediction, holds) in predictions {
        checks.record(if holds {
            Ok(())
        } else {
            Err(format!("prediction `{prediction}` does not hold"))
        });
    }
    for f in checks.failures.iter().take(5) {
        eprintln!("check failed: {f}");
    }
    let correct_ratio = checks.passed as f64 / checks.made as f64;

    let mut e2e = Metrics::default();
    end_to_end(
        &mut e2e,
        &timed,
        &setup_s,
        &first,
        peak_rss_mb,
        correct_ratio,
        checks.made,
    )?;
    if args.trace {
        traced_layers(&mut layers, args, &programs, &timed, &stream)?;
    }

    let tag = format!("{}-seed{}", w.name(), args.seed);
    let record = Json::obj([
        ("config", config),
        ("end_to_end", e2e.json()),
        ("per_layer", layers.json()),
        ("timed_requests", Json::U64(timed.samples.len() as u64)),
        ("checks", Json::U64(checks.made as u64)),
        ("checks_passed", Json::U64(checks.passed as u64)),
        ("dense_checked", Json::U64(dense_checked as u64)),
    ]);
    write(
        &args.out.join(format!("{tag}.metrics.json")),
        &record.to_pretty(),
    )?;
    let mut csv = String::from("id,program,cache_hit,latency_ms,wall_ms,queue_wait_ms\n");
    for s in &timed.samples {
        let (r, req) = (&s.report, &stream.reqs[s.idx]);
        csv.push_str(&format!(
            "{},{},{},{:.4},{},{}\n",
            r.id,
            programs[req.program].label,
            r.cache_hit,
            s.latency_ms,
            r.wall_ms,
            r.queue_wait_ms
        ));
    }
    write(&args.out.join(format!("{tag}.samples.csv")), &csv)?;

    e2e.print(w.name());
    layers.print(w.name());
    // The result line carries the manifest's metrics; the workload-only
    // readings above stay in the lines and in metrics.json.
    let shown = if args.trace {
        layers.select(&PER_LAYER)?
    } else {
        e2e.select(&END_TO_END)?
    };
    let result = Json::obj([
        ("correct", Json::Bool(checks.passed == checks.made)),
        ("attempted", Json::U64(timed.samples.len() as u64)),
        ("failed", Json::U64(failed as u64)),
        ("metrics", shown),
    ]);
    println!("{}", result.to_compact());
    Ok(())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[allow(clippy::too_many_arguments)]
fn end_to_end(
    m: &mut Metrics,
    timed: &Phase,
    setup_s: &[f64],
    variants: &[&Report],
    peak_rss_mb: f64,
    correct_ratio: f64,
    checks: usize,
) -> Result<(), String> {
    let n = timed.samples.len();
    let lat: Vec<f64> = timed.samples.iter().map(|s| s.latency_ms).collect();
    m.put(
        "setup_s",
        quantile(setup_s, 0.5),
        "s",
        setup_s.len(),
        "median set-up: spawn, first pong, every program compiled once",
    );
    m.put(
        "req_per_s",
        n as f64 / timed.elapsed.as_secs_f64(),
        "1/s",
        n,
        "timed requests / timed wall time",
    );
    m.put(
        "latency_p50_ms",
        percentile(&lat, 0.5)?,
        "ms",
        n,
        "all timed requests",
    );
    class_median(m, timed, "miss_p50_ms", false)?;
    if timed.samples.iter().any(|s| s.report.cache_hit) {
        // Not on `table1`, which never hits: a reading, not a manifest metric.
        class_median(m, timed, "hit_p50_ms", true)?;
    }
    // Each program's first timed variant: seeded parameters, and (checked)
    // the same counts as every other variant and the base text.
    let total = |i: usize| variants.iter().map(|r| r.counts[i]).sum::<u64>() as f64;
    m.put(
        "cnot_total",
        total(0),
        "count",
        variants.len(),
        "mapped CNOTs of each program's first timed variant, summed",
    );
    m.put(
        "single_total",
        total(1),
        "count",
        variants.len(),
        "single-qubit gates of each program's first timed variant, summed",
    );
    m.put(
        "depth_total",
        total(3),
        "count",
        variants.len(),
        "depth of each program's first timed variant, summed",
    );
    m.put(
        "peak_rss_mb",
        peak_rss_mb,
        "MB",
        1,
        "server VmHWM after the timed phase",
    );
    m.put(
        "correct_ratio",
        correct_ratio,
        "ratio",
        checks,
        "timed reports consistent, artifacts and predictions checked",
    );
    Ok(())
}

/// The client latency median of the requests the server answered from
/// cache (`hit`) or compiled, under `name`.
fn class_median(
    m: &mut Metrics,
    timed: &Phase,
    name: &'static str,
    hit: bool,
) -> Result<(), String> {
    let lat: Vec<f64> = timed
        .samples
        .iter()
        .filter(|s| s.report.cache_hit == hit)
        .map(|s| s.latency_ms)
        .collect();
    let what = if hit {
        "requests the server answered from cache"
    } else {
        "requests the server compiled"
    };
    m.put(name, percentile(&lat, 0.5)?, "ms", lat.len(), what);
    Ok(())
}

fn untraced_layers(
    m: &mut Metrics,
    timed: &Phase,
    before: &Json,
    after: &Json,
    cpu_s: f64,
    start_ms: &[f64],
) -> Result<(), String> {
    let samples = &timed.samples;
    let misses: Vec<f64> = samples
        .iter()
        .filter(|s| !s.report.cache_hit)
        .map(|s| s.report.wall_ms)
        .collect();
    m.put(
        "serve.miss_wall_p50_ms",
        percentile(&misses, 0.5)?,
        "ms",
        misses.len(),
        "report wall_ms on misses",
    );
    let overhead: Vec<f64> = samples
        .iter()
        .map(|s| s.latency_ms - s.report.wall_ms - s.report.queue_wait_ms)
        .collect();
    m.put(
        "serve.overhead_p50_ms",
        percentile(&overhead, 0.5)?,
        "ms",
        overhead.len(),
        "client latency - wall_ms - queue_wait_ms",
    );
    let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    m.put(
        "latency_p90_ms",
        percentile(&lat, 0.9)?,
        "ms",
        lat.len(),
        "all timed requests",
    );
    let waits: Vec<f64> = samples.iter().map(|s| s.report.queue_wait_ms).collect();
    m.put(
        "serve.queue_wait_p50_ms",
        percentile(&waits, 0.5)?,
        "ms",
        waits.len(),
        "report queue_wait_ms",
    );
    m.put(
        "serve.queue_wait_p90_ms",
        percentile(&waits, 0.9)?,
        "ms",
        waits.len(),
        "report queue_wait_ms",
    );
    let d = |k: &str| counter_delta(before, after, k);
    let served = d("hits") + d("disk_hits") + d("coalesced");
    let probes = served + d("misses");
    m.put(
        "cache.hit_ratio",
        if probes > 0.0 { served / probes } else { 0.0 },
        "ratio",
        probes as usize,
        "stats reply, timed phase",
    );
    m.put(
        "cache.disk_hits",
        d("disk_hits"),
        "count",
        1,
        "stats reply, timed phase",
    );
    m.put(
        "cache.evictions",
        d("evictions"),
        "count",
        1,
        "stats reply, timed phase",
    );
    m.put(
        "cache.coalesced",
        d("coalesced"),
        "count",
        1,
        "stats reply, timed phase",
    );
    m.put(
        "server.cpu_s",
        cpu_s,
        "s",
        1,
        "/proc utime+stime over the timed phase",
    );
    m.put(
        "server.start_ms",
        quantile(start_ms, 0.5),
        "ms",
        start_ms.len(),
        "median spawn to first pong",
    );
    Ok(())
}

fn traced_layers(
    m: &mut Metrics,
    args: &Args,
    programs: &[Program],
    timed: &Phase,
    stream: &Stream,
) -> Result<(), String> {
    let w = args.workload;
    let hits = w != Workload::Table1;
    let disk = (w == Workload::Kernels).then(|| {
        args.out
            .join(format!("replay-cache-{}", std::process::id()))
    });
    let mut replay = Replay::new(disk)?;
    let mut accounted = 0.0;
    let mut untraced = 0.0;
    let (mut gates, mut rounds, mut strings, mut text_bytes) = (0, 0, 0, 0);
    for (i, p) in programs.iter().enumerate() {
        let line = p.line(i as u64, &p.text, false);
        let out = replay.program(i as u64, p, &line, hits)?;
        gates += out[0].gates;
        rounds += out[0].rounds;
        strings += p.ir.total_strings();
        text_bytes += p.text.len();
        for (r, hit) in out.iter().zip([false, true]) {
            let lat: Vec<f64> = timed
                .samples
                .iter()
                .filter(|s| stream.reqs[s.idx].program == i && s.report.cache_hit == hit)
                .map(|s| s.latency_ms)
                .collect();
            if !lat.is_empty() {
                accounted += r.request.as_secs_f64() * 1e3;
                untraced += quantile(&lat, 0.5);
            }
        }
    }
    let n = programs.len() * if hits { 2 } else { 1 };
    let what = "replay self time, summed over the distinct programs";
    for (metric, layer) in [
        ("proto.decode_ms", "proto.decode"),
        ("parse.program_ms", "parse.program"),
        ("compile.self_ms", "compile"),
        ("schedule.run_ms", "schedule"),
        ("synth.ft_ms", "synthesis.ft"),
        ("synth.sc_ms", "synthesis.sc"),
        ("peephole.optimize_ms", "peephole"),
        ("proto.encode_ms", "proto.encode"),
    ] {
        m.put(metric, replay.ms(layer), "ms", n, what);
    }
    let alone = "timed alone, outside the request spans, summed over the distinct programs";
    m.put(
        "stats.mapped_ms",
        replay.ms("stats.mapped"),
        "ms",
        programs.len(),
        alone,
    );
    m.put(
        "persist.encode_ms",
        replay.ms("persist.encode"),
        "ms",
        programs.len(),
        alone,
    );
    m.put(
        "persist.decode_ms",
        replay.ms("persist.decode"),
        "ms",
        programs.len(),
        alone,
    );
    m.put(
        "ir.strings",
        strings as f64,
        "count",
        programs.len(),
        "Pauli strings over the distinct programs",
    );
    m.put(
        "ir.text_mb",
        text_bytes as f64 / 1e6,
        "MB",
        programs.len(),
        "program text over the distinct programs",
    );
    m.put(
        "circuit.gates",
        gates as f64,
        "count",
        programs.len(),
        "final gates over the distinct programs",
    );
    m.put(
        "peephole.rounds",
        rounds as f64,
        "count",
        programs.len(),
        "peephole rounds over the distinct programs",
    );
    m.put(
        "trace.accounted_ratio",
        accounted / untraced,
        "ratio",
        n,
        "replay request span / median untraced client latency, same programs and classes",
    );
    let path = args
        .out
        .join(format!("{}-seed{}.trace.json", w.name(), args.seed));
    write(&path, &replay.chrome_trace())?;
    Ok(())
}
