//! Hamiltonian simulation of a Heisenberg chain: compile one Trotter step
//! with both schedulers, verify against the exact operator on a small
//! chain, and show the depth difference the paper's Table 4 reports (DO
//! crushes depth on 2-local spin models).
//!
//! ```text
//! cargo run --release --example heisenberg_sim
//! ```

use paulihedral::{compile, Backend, CompileOptions, Scheduler};
use qsim::trotter::exp_product;
use qsim::unitary::{circuit_unitary, equal_up_to_phase};
use workloads::spin;

fn main() {
    // Small chain: verifiable exactly on the simulator.
    let small = spin::heisenberg_ir(&[6], 1.0, 0.05);
    let out = compile(
        &small,
        &CompileOptions {
            scheduler: Scheduler::Depth,
            backend: Backend::FaultTolerant,
        },
    );
    let expected = exp_product(6, out.emitted.iter().map(|(s, t)| (s, *t)));
    let ok = equal_up_to_phase(&circuit_unitary(&out.circuit), &expected, 1e-8);
    println!(
        "6-site chain: compiled circuit {} the exact Trotter-step operator",
        if ok { "matches" } else { "DOES NOT match" }
    );
    assert!(ok);

    // The paper-size chain: depth-oriented vs gate-count-oriented.
    let chain = spin::heisenberg_ir(&[30], 1.0, 0.1);
    for (label, scheduler) in [("GCO", Scheduler::GateCount), ("DO ", Scheduler::Depth)] {
        let out = compile(
            &chain,
            &CompileOptions {
                scheduler,
                backend: Backend::FaultTolerant,
            },
        );
        let s = out.circuit.stats();
        println!(
            "Heisen-1D (30 sites), {label}: {:4} CNOT {:4} single, depth {:4}",
            s.cnot, s.single, s.depth
        );
    }
}
