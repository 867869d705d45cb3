//! End-to-end and per-layer benchmark of the `phc serve` compile service.
//!
//! `run.sh` builds `phc` and this crate, then runs one workload: it
//! spawns `phc serve --threads 2`, drives it over TCP from this process,
//! checks every output, and prints the metrics. See README.md for the
//! workloads, the metrics, and the rules they follow.

#![forbid(unsafe_code)]

pub mod check;
pub mod gen;
pub mod load;
pub mod replay;
pub mod server;
pub mod stats;

/// The end-to-end metrics of the result line (`--trace 0`), as
/// `BENCHMARK.json` lists them. Every workload reports every one.
pub const END_TO_END: [&str; 9] = [
    "setup_s",
    "req_per_s",
    "latency_p50_ms",
    "miss_p50_ms",
    "cnot_total",
    "single_total",
    "depth_total",
    "peak_rss_mb",
    "correct_ratio",
];

/// The per-layer metrics of the result line (`--trace 1`), as
/// `BENCHMARK.json` lists them. Every workload reports every one.
pub const PER_LAYER: [&str; 27] = [
    "proto.decode_ms",
    "parse.program_ms",
    "compile.self_ms",
    "schedule.run_ms",
    "synth.ft_ms",
    "synth.sc_ms",
    "peephole.optimize_ms",
    "stats.mapped_ms",
    "persist.encode_ms",
    "persist.decode_ms",
    "proto.encode_ms",
    "ir.strings",
    "ir.text_mb",
    "circuit.gates",
    "peephole.rounds",
    "trace.accounted_ratio",
    "latency_p90_ms",
    "serve.queue_wait_p50_ms",
    "serve.queue_wait_p90_ms",
    "serve.miss_wall_p50_ms",
    "serve.overhead_p50_ms",
    "cache.hit_ratio",
    "cache.disk_hits",
    "cache.evictions",
    "cache.coalesced",
    "server.cpu_s",
    "server.start_ms",
];
