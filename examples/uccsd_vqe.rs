//! Compiling a VQE UCCSD ansatz for a superconducting device: Paulihedral
//! vs naive synthesis + routing, with the gate-count breakdown the paper's
//! Table 2 reports.
//!
//! ```text
//! cargo run --release --example uccsd_vqe
//! ```

use baselines::generic::{self, Mapping};
use baselines::naive;
use paulihedral::{compile, Backend, CompileOptions, Scheduler};
use qcircuit::qasm::{to_qasm, QasmOptions};
use qdevice::devices;
use workloads::uccsd;

fn main() {
    let device = devices::manhattan_65();
    let ir = uccsd::uccsd_ir(12, 1);
    println!(
        "UCCSD-12 ansatz: {} excitation blocks, {} Pauli strings on {} qubits",
        ir.num_blocks(),
        ir.total_strings(),
        ir.num_qubits()
    );

    // Paulihedral: depth-oriented scheduling + SC block-wise synthesis.
    let ph = compile(
        &ir,
        &CompileOptions {
            scheduler: Scheduler::Depth,
            backend: Backend::Superconducting {
                device: &device,
                noise: None,
            },
        },
    );
    let ph_final = generic::qiskit_l3_like(&ph.circuit, Mapping::AlreadyMapped);
    let s = ph_final.circuit.stats();
    println!(
        "Paulihedral   : {:6} CNOT {:6} single, depth {:6}",
        s.cnot, s.single, s.depth
    );

    // Baseline: naive gadget synthesis + SABRE routing + the same cleanup.
    let nv = naive::synthesize(&ir);
    let routed = generic::qiskit_l3_like(&nv.circuit, Mapping::Route(&device));
    let s = routed.circuit.stats();
    println!(
        "naive + SABRE : {:6} CNOT {:6} single, depth {:6}",
        s.cnot, s.single, s.depth
    );

    // Export the compiled kernel for an OpenQASM consumer.
    let qasm = to_qasm(&ph_final.circuit, QasmOptions::default());
    let path = std::env::temp_dir().join("uccsd12_paulihedral.qasm");
    if std::fs::write(&path, &qasm).is_ok() {
        println!(
            "wrote {} lines of OpenQASM to {}",
            qasm.lines().count(),
            path.display()
        );
    }
}
