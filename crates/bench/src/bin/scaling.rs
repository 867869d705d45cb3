//! Writes `BENCH_scaling.json`: how each compile stage grows with the
//! program, measured in-process on the scale lattices.
//!
//! Rows are `Heisen`/`Ising` chains at 1000, 2000, 4000 and 8000 sites on
//! the FT backend, and `Heisen-{16x16,32x32,45x45}` on their own
//! `grid:RxC` devices (SC). Each row records the median of 3 compiles per
//! stage (`schedule`, `synthesis`, `peephole`) and in total, plus the
//! compiled counts. Per chain model and stage, `slopes` is the
//! least-squares slope of `ln(ms)` over `ln(qubits)` across the chain
//! sizes: 1 is linear, 2 quadratic. `peak_rss_mb` is the process's peak
//! resident set. The service end to end is `perfbench/`'s job, not this.
//!
//! ```text
//! cargo run -p ph_bench --release --bin scaling [-- --quick] [--out PATH]
//! ```
//!
//! `--quick` keeps only the chains at 1000 and 2000 sites (the CI
//! profile); `--out` defaults to `BENCH_scaling.json`.

use std::cell::RefCell;
use std::time::Instant;

use paulihedral::{compile_observed, Backend, CompileOptions, Observer, Scheduler};
use ph_bench::{arg_flag, arg_value};
use ph_engine::json::Json;
use qdevice::devices;
use workloads::scale::named_scale_ir;

/// Compiles per row; each stage reports its median.
const RUNS: usize = 3;

/// The stages [`compile_observed`] runs, in order.
const STAGES: [&str; 3] = ["schedule", "synthesis", "peephole"];

/// Records each stage's wall time in milliseconds.
#[derive(Default)]
struct StageTimes(RefCell<Vec<(&'static str, f64)>>);

impl Observer for StageTimes {
    fn stage(&self, name: &'static str, run: &mut dyn FnMut()) {
        let t = Instant::now();
        run();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.0.borrow_mut().push((name, ms));
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Least-squares slope of `ln y` over `ln x`.
fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let k = pts.len() as f64;
    let (mx, my) = (
        pts.iter().map(|p| p.0).sum::<f64>() / k,
        pts.iter().map(|p| p.1).sum::<f64>() / k,
    );
    let sxy: f64 = pts.iter().map(|&(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = pts.iter().map(|&(x, _)| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

/// This process's peak resident set (`VmHWM`) in MB, if the OS reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// One measured row: the stage medians and the compiled counts.
struct Row {
    model: String,
    qubits: usize,
    stage_ms: Vec<f64>,
    json: Json,
}

/// Compiles `name` [`RUNS`] times on the FT backend (`grid = None`) or on
/// a `rows × cols` grid.
fn measure(name: &str, grid: Option<(usize, usize)>) -> Row {
    let ir = named_scale_ir(name).expect("preset scale name");
    let device = grid.map(|(r, c)| devices::grid(r, c));
    let backend = match &device {
        None => Backend::FaultTolerant,
        Some(device) => Backend::Superconducting {
            device,
            noise: None,
        },
    };
    let options = CompileOptions::new(Scheduler::Auto, backend);
    let mut per_stage = vec![Vec::new(); STAGES.len()];
    let mut totals = Vec::new();
    let mut stats = None;
    for _ in 0..RUNS {
        let times = StageTimes::default();
        let t = Instant::now();
        let compiled = compile_observed(&ir, &options, Some(&times)).expect("scale rows compile");
        totals.push(t.elapsed().as_secs_f64() * 1e3);
        for (name, ms) in times.0.into_inner() {
            let k = STAGES.iter().position(|&s| s == name).expect("known stage");
            per_stage[k].push(ms);
        }
        stats = Some(compiled.circuit.mapped_stats());
    }
    let stats = stats.expect("at least one run");
    let stage_ms: Vec<f64> = per_stage.into_iter().map(median).collect();
    let total_ms = median(totals);
    let backend_spec = grid.map_or("ft".to_string(), |(r, c)| format!("grid:{r}x{c}"));
    eprintln!(
        "{name:>14} {backend_spec:>12}: schedule {:8.1}  synthesis {:8.1}  peephole {:8.1}  total {total_ms:8.1} ms",
        stage_ms[0], stage_ms[1], stage_ms[2]
    );
    let ms = |v: f64| Json::f64_rounded(v, 3);
    let json = Json::obj([
        ("name", Json::str(name)),
        ("backend", Json::str(backend_spec)),
        ("qubits", Json::U64(ir.num_qubits() as u64)),
        ("strings", Json::U64(ir.total_strings() as u64)),
        (
            "median_ms",
            Json::obj(
                STAGES
                    .iter()
                    .zip(&stage_ms)
                    .map(|(s, &v)| (*s, ms(v)))
                    .chain([("total", ms(total_ms))]),
            ),
        ),
        ("cnot", Json::U64(stats.cnot as u64)),
        ("single", Json::U64(stats.single as u64)),
        ("depth", Json::U64(stats.depth as u64)),
    ]);
    Row {
        model: name.split('-').next().unwrap_or_default().to_string(),
        qubits: ir.num_qubits(),
        stage_ms: stage_ms.into_iter().chain([total_ms]).collect(),
        json,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = arg_flag(&args, "--quick");
    let out = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_scaling.json".to_string());
    let sizes: &[usize] = if quick {
        &[1000, 2000]
    } else {
        &[1000, 2000, 4000, 8000]
    };
    let grids: &[usize] = if quick { &[] } else { &[16, 32, 45] };

    let mut chains = Vec::new();
    for model in ["Heisen", "Ising"] {
        for &n in sizes {
            chains.push(measure(&format!("{model}-{n}"), None));
        }
    }
    let grid_rows: Vec<Row> = grids
        .iter()
        .map(|&s| measure(&format!("Heisen-{s}x{s}"), Some((s, s))))
        .collect();

    let stage_names = STAGES.iter().copied().chain(["total"]);
    let slopes = Json::obj(["Heisen", "Ising"].map(|model| {
        let rows: Vec<&Row> = chains.iter().filter(|r| r.model == model).collect();
        let per_stage = stage_names.clone().enumerate().map(|(k, stage)| {
            let pts: Vec<(f64, f64)> = rows
                .iter()
                .map(|r| (r.qubits as f64, r.stage_ms[k]))
                .collect();
            (stage, Json::f64_rounded(log_log_slope(&pts), 3))
        });
        (model, Json::obj(per_stage))
    }));
    let doc = Json::obj([
        ("profile", Json::str(if quick { "quick" } else { "full" })),
        ("runs", Json::U64(RUNS as u64)),
        (
            "chain_sizes",
            Json::Arr(sizes.iter().map(|&n| Json::U64(n as u64)).collect()),
        ),
        (
            "rows",
            Json::Arr(
                chains
                    .into_iter()
                    .chain(grid_rows)
                    .map(|r| r.json)
                    .collect(),
            ),
        ),
        ("slopes", slopes),
        (
            "peak_rss_mb",
            peak_rss_mb().map_or(Json::Null, |mb| Json::f64_rounded(mb, 1)),
        ),
    ]);
    std::fs::write(&out, doc.to_pretty() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("wrote {out}");
}
