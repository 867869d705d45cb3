//! QAOA MaxCut end to end: generate a random regular graph, compile its
//! cost kernel with Paulihedral and with the algorithm-specific QAOA
//! compiler, then check on the simulator that both mapped circuits
//! implement the same ansatz and estimate their success probabilities
//! under noise.
//!
//! ```text
//! cargo run --release --example qaoa_maxcut
//! ```

use baselines::{generic, qaoa_compiler};
use paulihedral::{compile, Backend, CompileOptions, Scheduler};
use qcircuit::{Circuit, Gate};
use qdevice::{devices, NoiseModel};
use qsim::State;
use workloads::{graphs, qaoa};

fn main() {
    let n = 8;
    let graph = graphs::random_regular(n, 4, 7);
    let device = devices::melbourne_16();
    let noise = NoiseModel::synthetic(&device, 3);

    // Optimize (gamma, beta) on the ideal simulator.
    let (gamma, beta, expectation) = qsim::qaoa::optimize_p1(n, &graph.edges, 16);
    let (best_cut, optimal) = qsim::qaoa::max_cut(n, &graph.edges);
    println!("{n}-node 4-regular graph: max cut {best_cut}, QAOA p=1 expectation {expectation:.3}");

    // Our gadgets implement exp(i·theta·ZZ); the ansatz phase separator is
    // exp(-i*gamma*w*ZZ), so the block parameter is -gamma.
    let ir = qaoa::maxcut_ir(&graph, -gamma);

    // Paulihedral SC flow.
    let ph = compile(
        &ir,
        &CompileOptions {
            scheduler: Scheduler::Depth,
            backend: Backend::Superconducting {
                device: &device,
                noise: Some(&noise),
            },
        },
    );
    let ph_clean = generic::qiskit_l3_like(&ph.circuit, generic::Mapping::AlreadyMapped);

    // QAOA-compiler baseline.
    let qc = qaoa_compiler::compile_qaoa(&ir, &device);
    let qc_clean = generic::qiskit_l3_like(&qc.circuit, generic::Mapping::AlreadyMapped);

    let compose = |cost: &Circuit, initial: &[usize], final_: &[usize]| -> (Circuit, Vec<usize>) {
        let mut full = Circuit::new(device.num_qubits());
        for &p in initial {
            full.push(Gate::H(p));
        }
        full.append_circuit(cost);
        for &p in final_ {
            full.push(Gate::Rx(p, 2.0 * beta));
        }
        (full, final_.to_vec())
    };
    let (ph_full, ph_meas) = compose(
        &ph_clean.circuit,
        ph.initial_l2p.as_ref().unwrap(),
        ph.final_l2p.as_ref().unwrap(),
    );
    let (qc_full, qc_meas) = compose(&qc_clean.circuit, &qc.initial_l2p, &qc.final_l2p);

    for (name, full, meas) in [
        ("Paulihedral", &ph_full, &ph_meas),
        ("QAOA compiler", &qc_full, &qc_meas),
    ] {
        let stats = full.stats();
        // Ideal success probability: mass on basis states whose measured
        // bits form an optimal cut (must match the logical ansatz).
        let mut s = State::zero(device.num_qubits());
        s.apply_circuit(full);
        let probs = s.probabilities();
        let mut success = 0.0;
        for (i, pr) in probs.iter().enumerate() {
            let mut logical = 0u64;
            for (l, &p) in meas.iter().enumerate() {
                logical |= (((i >> p) & 1) as u64) << l;
            }
            if optimal.contains(&logical) {
                success += pr;
            }
        }
        println!(
            "{name:14}: {:4} CNOT, depth {:4}, ESP {:.4}, ideal success {:.3}",
            stats.cnot,
            stats.depth,
            noise.esp(full, meas),
            success
        );
    }
}
