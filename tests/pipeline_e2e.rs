//! Cross-crate end-to-end tests: benchmark generators → Paulihedral →
//! generic pipelines → device-conformant circuits, with the invariants
//! every stage must uphold.

use baselines::generic::{self, Mapping};
use baselines::{naive, tk};
use paulihedral::{compile, Backend, CompileOptions, Scheduler};
use qdevice::devices;
use workloads::suite;

#[test]
fn every_sc_benchmark_compiles_conformant_on_manhattan() {
    let device = devices::manhattan_65();
    for name in ["UCCSD-8", "REG-20-4", "Rand-20-0.1", "TSP-4"] {
        let b = suite::generate(name);
        let out = compile(
            &b.ir,
            &CompileOptions {
                scheduler: Scheduler::Depth,
                backend: Backend::Superconducting {
                    device: &device,
                    noise: None,
                },
            },
        );
        assert!(
            out.circuit
                .respects_connectivity(|a, b| device.has_edge(a, b)),
            "{name} violates coupling constraints"
        );
        assert_eq!(
            out.emitted.len(),
            b.ir.blocks()
                .iter()
                .flat_map(|bl| &bl.terms)
                .filter(|t| !t.string.is_identity())
                .count(),
            "{name} lost strings"
        );
        // The generic stage must keep conformance (it never routes an
        // already-mapped circuit through non-edges).
        let cleaned = generic::qiskit_l3_like(&out.circuit, Mapping::AlreadyMapped);
        assert!(cleaned
            .circuit
            .respects_connectivity(|a, b| device.has_edge(a, b)));
    }
}

#[test]
fn ph_beats_naive_plus_router_on_every_small_sc_benchmark() {
    // The paper's core claim, in miniature: block-wise synthesis beats the
    // generic decompose-then-route flow on CNOT count.
    let device = devices::manhattan_65();
    for name in ["UCCSD-8", "REG-20-4", "Rand-20-0.3", "TSP-4"] {
        let b = suite::generate(name);
        let ph = compile(
            &b.ir,
            &CompileOptions {
                scheduler: Scheduler::Depth,
                backend: Backend::Superconducting {
                    device: &device,
                    noise: None,
                },
            },
        );
        let ph_final = generic::qiskit_l3_like(&ph.circuit, Mapping::AlreadyMapped);
        let nv = naive::synthesize(&b.ir);
        let routed = generic::qiskit_l3_like(&nv.circuit, Mapping::Route(&device));
        assert!(
            ph_final.circuit.stats().cnot < routed.circuit.stats().cnot,
            "{name}: PH {} vs naive+route {}",
            ph_final.circuit.stats().cnot,
            routed.circuit.stats().cnot
        );
    }
}

#[test]
fn ph_beats_tk_on_uccsd_when_mapped() {
    // Table 2's headline on the SC backend: TK must pay generic routing,
    // Paulihedral co-optimizes synthesis and mapping.
    let device = devices::manhattan_65();
    let b = suite::generate("UCCSD-8");
    let ph = compile(
        &b.ir,
        &CompileOptions {
            scheduler: Scheduler::Depth,
            backend: Backend::Superconducting {
                device: &device,
                noise: None,
            },
        },
    );
    let ph_final = generic::qiskit_l3_like(&ph.circuit, Mapping::AlreadyMapped);
    let tkr = tk::compile_tk(&b.ir);
    let tk_final = generic::qiskit_l3_like(&tkr.circuit, Mapping::Route(&device));
    assert!(
        ph_final.circuit.stats().cnot < tk_final.circuit.stats().cnot,
        "PH {} vs TK {}",
        ph_final.circuit.stats().cnot,
        tk_final.circuit.stats().cnot
    );
}

#[test]
fn do_scheduling_crushes_depth_on_spin_chains() {
    // Table 4's Ising-1D row: DO reduces depth by ~10x vs GCO.
    let b = suite::generate("Ising-1D");
    let gco = compile(
        &b.ir,
        &CompileOptions {
            scheduler: Scheduler::GateCount,
            backend: Backend::FaultTolerant,
        },
    );
    let do_ = compile(
        &b.ir,
        &CompileOptions {
            scheduler: Scheduler::Depth,
            backend: Backend::FaultTolerant,
        },
    );
    assert_eq!(gco.circuit.stats().cnot, do_.circuit.stats().cnot);
    assert!(
        do_.circuit.stats().depth * 4 < gco.circuit.stats().depth,
        "DO {} vs GCO {}",
        do_.circuit.stats().depth,
        gco.circuit.stats().depth
    );
}

#[test]
fn compiled_gate_counts_never_exceed_naive() {
    for name in ["Ising-2D", "Heisen-1D", "Rand-20-0.1"] {
        let b = suite::generate(name);
        let (naive_cnot, naive_single) = naive::naive_counts(&b.ir);
        let out = compile(
            &b.ir,
            &CompileOptions {
                scheduler: Scheduler::GateCount,
                backend: Backend::FaultTolerant,
            },
        );
        let s = out.circuit.stats();
        assert!(s.cnot <= naive_cnot, "{name}: {} > {naive_cnot}", s.cnot);
        assert!(
            s.single <= naive_single,
            "{name}: {} > {naive_single}",
            s.single
        );
    }
}

#[test]
fn tk_never_loses_strings_and_clusters_are_sound() {
    for name in ["Heisen-1D", "Rand-20-0.1", "UCCSD-8"] {
        let b = suite::generate(name);
        let r = tk::compile_tk(&b.ir);
        let expected =
            b.ir.blocks()
                .iter()
                .flat_map(|bl| &bl.terms)
                .filter(|t| !t.string.is_identity())
                .count();
        assert_eq!(r.emitted.len(), expected, "{name}");
        assert!(r.num_clusters >= 1);
    }
}
