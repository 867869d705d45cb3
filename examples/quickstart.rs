//! Quickstart: write a simulation kernel in the Pauli IR surface syntax,
//! compile it for both backends, and export OpenQASM.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use paulihedral::parse::parse_program;
use paulihedral::{compile, Backend, CompileOptions, Scheduler};
use qcircuit::qasm::{to_qasm, QasmOptions};
use qdevice::devices;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A toy UCCSD-style kernel: two excitation blocks (strings inside a
    // block share a parameter and stay together) plus two Ising terms.
    let ir = parse_program(
        "
        # excitation blocks (Fig. 6(b) style)
        {(IIXY, 0.5), (IIYX, -0.5), theta1};
        {(XYII, -0.5), (YXII, 0.5), theta2};
        # bare Ising couplings
        {(ZZII, 0.134), 0.5};
        {(IZZI, 0.186), 0.5};
        ",
    )?;
    println!(
        "input: {} blocks, {} strings on {} qubits\n",
        ir.num_blocks(),
        ir.total_strings(),
        ir.num_qubits()
    );

    // Fault-tolerant backend: gate-count-oriented scheduling.
    let ft = compile(
        &ir,
        &CompileOptions {
            scheduler: Scheduler::GateCount,
            backend: Backend::FaultTolerant,
        },
    );
    let s = ft.circuit.stats();
    println!(
        "FT backend : {} CNOT, {} single, depth {}",
        s.cnot, s.single, s.depth
    );

    // Superconducting backend: depth-oriented scheduling on a 2x3 grid.
    let device = devices::grid(2, 3);
    let sc = compile(
        &ir,
        &CompileOptions {
            scheduler: Scheduler::Depth,
            backend: Backend::Superconducting {
                device: &device,
                noise: None,
            },
        },
    );
    let s = sc.circuit.mapped_stats();
    println!(
        "SC backend : {} CNOT, {} single, depth {} (layout {:?} -> {:?})",
        s.cnot,
        s.single,
        s.depth,
        sc.initial_l2p.as_ref().unwrap(),
        sc.final_l2p.as_ref().unwrap()
    );

    println!("\nOpenQASM 2.0 of the FT circuit:\n");
    print!("{}", to_qasm(&ft.circuit, QasmOptions::default()));
    Ok(())
}
