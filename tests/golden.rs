//! Golden artifacts: every compiled circuit of the Table-1 service set
//! (Table 1 without NaCl and Rand-40…80) under both schedulers, plus four
//! scale lattices, must match the checked-in table bit for bit.
//!
//! Each row records an FNV-1a hash of the artifact (gates, the emitted
//! `(string, θ)` sequence, both layouts) and its mapped CNOT, single-qubit
//! and depth counts. Refactors and performance changes must leave the
//! table unchanged; the report (whose wall times vary) is not covered.
//! On a mismatch the test prints the whole actual table.
//!
//! The same compiles also pin two properties of the reports: their
//! circuit metrics are the mapped (SWAP-decomposed) metrics of the
//! artifact, and their request keys are unchanged byte for byte.

use std::sync::OnceLock;

use paulihedral::{Compiled, Scheduler};
use ph_engine::cache::Fingerprint;
use ph_engine::{proto, BatchResult, CompileJob, Engine, Pipeline, Target};
use qcircuit::Gate;
use workloads::suite::{self, BackendClass};

const GOLDEN: &str = include_str!("golden_artifacts.txt");

/// Table 1 minus the six slowest FT programs (NaCl, Rand-40…80).
const EXCLUDED: [&str; 6] = [
    "NaCl", "Rand-40", "Rand-50", "Rand-60", "Rand-70", "Rand-80",
];

/// One job per table row, in row order, named by its row label.
fn jobs() -> Vec<CompileJob> {
    let mut jobs = Vec::new();
    for name in suite::all_names() {
        if EXCLUDED.contains(&name) {
            continue;
        }
        let b = suite::generate(name);
        let spec = match b.class {
            BackendClass::Superconducting => "manhattan",
            BackendClass::FaultTolerant => "ft",
        };
        let target = Target::parse_spec(spec, b.ir.num_qubits()).expect("known backend");
        for tag in ["gco", "do"] {
            jobs.push(
                CompileJob::named(format!("{name} {spec} {tag}"), b.ir.clone())
                    .on_target(target.clone())
                    .with_scheduler(proto::parse_scheduler_spec(tag).expect("known scheduler")),
            );
        }
    }
    for (name, spec) in [
        ("Heisen-1000", "ft"),
        ("Heisen-16x16", "grid:16x16"),
        ("Heisen-32x32", "grid:32x32"),
        ("Ising-32x32", "grid:32x32"),
    ] {
        let ir = workloads::scale::named_scale_ir(name).expect("scale workload");
        let target = Target::parse_spec(spec, ir.num_qubits()).expect("known backend");
        jobs.push(
            CompileJob::named(format!("{name} {spec} auto"), ir)
                .on_target(target)
                .with_scheduler(Scheduler::Auto),
        );
    }
    jobs
}

fn artifact_hash(c: &Compiled) -> u64 {
    let mut h = Fingerprint::new();
    h.write_usize(c.circuit.len());
    for gate in c.circuit.gates() {
        let (name, angle) = match *gate {
            Gate::H(_) => ("h", None),
            Gate::X(_) => ("x", None),
            Gate::S(_) => ("s", None),
            Gate::Sdg(_) => ("sdg", None),
            Gate::Rz(_, t) => ("rz", Some(t)),
            Gate::Rx(_, t) => ("rx", Some(t)),
            Gate::Ry(_, t) => ("ry", Some(t)),
            Gate::Cx(..) => ("cx", None),
            Gate::Swap(..) => ("swap", None),
        };
        h.write_str(name);
        let (a, b) = gate.qubits();
        h.write_usize(a);
        if let Some(b) = b {
            h.write_usize(b);
        }
        if let Some(t) = angle {
            h.write_f64(t);
        }
    }
    h.write_usize(c.emitted.len());
    for (string, theta) in &c.emitted {
        h.write_str(&string.to_string());
        h.write_f64(*theta);
    }
    for layout in [&c.initial_l2p, &c.final_l2p] {
        match layout {
            Some(l2p) => {
                h.write_usize(l2p.len());
                for &p in l2p {
                    h.write_usize(p);
                }
            }
            None => h.write_str("none"),
        }
    }
    h.finish()
}

/// Every row compiled once per test binary, shared by the tests below.
fn compiled() -> &'static [BatchResult] {
    static RESULTS: OnceLock<Vec<BatchResult>> = OnceLock::new();
    RESULTS.get_or_init(|| Engine::new(Pipeline::auto(), Target::FaultTolerant).compile_all(jobs()))
}

/// The compiled row labelled `name`.
fn row(name: &str) -> &'static BatchResult {
    compiled()
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("no golden row `{name}`"))
}

#[test]
fn compiled_artifacts_match_the_golden_table() {
    let mut actual = String::from("# program target scheduler hash cnot single depth\n");
    for r in compiled() {
        let out = r
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{} failed: {e}", r.name));
        let s = out.compiled.circuit.mapped_stats();
        actual.push_str(&format!(
            "{} {:016x} {} {} {}\n",
            r.name,
            artifact_hash(&out.compiled),
            s.cnot,
            s.single,
            s.depth
        ));
    }
    assert!(
        actual == GOLDEN,
        "compiled artifacts differ from tests/golden_artifacts.txt; actual table:\n{actual}"
    );
}

/// A report's final stats (the per-pass table's total line, the wire
/// report, the `phc` headline) count the mapped circuit: on SC targets a
/// SWAP is three CNOTs there too.
#[test]
fn report_stats_are_the_mapped_stats_on_every_sc_row() {
    let mut checked = 0;
    for r in compiled() {
        if r.name.contains(" ft ") {
            continue;
        }
        let out = r.outcome.as_ref().expect("golden rows compile");
        assert_eq!(
            out.report.final_stats(),
            out.compiled.circuit.mapped_stats(),
            "{}",
            r.name
        );
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} SC rows");
}

/// Request keys hash the IR, the pipeline signature
/// (`schedule:<spec>|synthesis|peephole`) and the target. Stored disk
/// entries and client retries depend on them, so they are pinned here.
#[test]
fn request_keys_are_pinned() {
    for (name, key) in [
        ("N2 ft gco", 0xc1ab_7c95_da72_3957_u64),
        ("UCCSD-8 manhattan gco", 0x0b95_911d_1078_692b),
    ] {
        let out = row(name).outcome.as_ref().expect("golden rows compile");
        assert_eq!(out.report.key, key, "{name}: {:016x}", out.report.key);
    }
}
