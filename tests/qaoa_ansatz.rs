//! The Fig. 11 pipeline's correctness core: a compiled physical QAOA
//! ansatz (H layer at initial positions, compiled cost kernel, mixer at
//! final positions) must produce *exactly* the same outcome distribution
//! as the logical ansatz, for any compiler. Fidelity differences in the
//! study must come from noise alone.

use baselines::generic::{self, Mapping};
use baselines::qaoa_compiler;
use paulihedral::{compile, Backend, CompileOptions, Scheduler};
use qcircuit::{Circuit, Gate};
use qdevice::devices;
use qsim::State;
use workloads::{graphs, qaoa};

fn physical_success(
    device_n: usize,
    cost: &Circuit,
    initial: &[usize],
    final_: &[usize],
    beta: f64,
    optimal: &[u64],
) -> f64 {
    let mut full = Circuit::new(device_n);
    for &p in initial {
        full.push(Gate::H(p));
    }
    full.append_circuit(cost);
    for &p in final_ {
        full.push(Gate::Rx(p, 2.0 * beta));
    }
    let mut s = State::zero(device_n);
    s.apply_circuit(&full);
    let probs = s.probabilities();
    let mut success = 0.0;
    for (i, pr) in probs.iter().enumerate() {
        let mut logical = 0u64;
        for (l, &p) in final_.iter().enumerate() {
            logical |= (((i >> p) & 1) as u64) << l;
        }
        if optimal.contains(&logical) {
            success += pr;
        }
    }
    success
}

#[test]
fn compiled_ansatz_matches_logical_success_probability() {
    let n = 6;
    let graph = graphs::random_regular(n, 4, 11);
    let device = devices::grid(2, 4);
    let (gamma, beta) = (0.41, 0.77);
    let (_, optimal) = qsim::qaoa::max_cut(n, &graph.edges);

    // Logical reference.
    let mut s = State::zero(n);
    s.apply_circuit(&qsim::qaoa::ansatz_p1(n, &graph.edges, gamma, beta));
    let reference = qsim::qaoa::success_probability(&s, &optimal);

    let ir = qaoa::maxcut_ir(&graph, -gamma);

    // Paulihedral SC flow (+ cleanup).
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
    let cleaned = generic::qiskit_l3_like(&ph.circuit, Mapping::AlreadyMapped);
    let got = physical_success(
        device.num_qubits(),
        &cleaned.circuit,
        ph.initial_l2p.as_ref().unwrap(),
        ph.final_l2p.as_ref().unwrap(),
        beta,
        &optimal,
    );
    assert!(
        (got - reference).abs() < 1e-9,
        "PH ansatz success {got} != logical {reference}"
    );

    // QAOA-compiler flow.
    let qc = qaoa_compiler::compile_qaoa(&ir, &device);
    let got = physical_success(
        device.num_qubits(),
        &qc.circuit.decompose_swaps(),
        &qc.initial_l2p,
        &qc.final_l2p,
        beta,
        &optimal,
    );
    assert!(
        (got - reference).abs() < 1e-9,
        "QAOAC ansatz success {got} != logical {reference}"
    );
}

#[test]
fn baseline_naive_route_flow_matches_logical_too() {
    let n = 5;
    let graph = graphs::erdos_renyi(n, 0.6, 21);
    let device = devices::linear(7);
    let (gamma, beta) = (0.3, 0.55);
    let (_, optimal) = qsim::qaoa::max_cut(n, &graph.edges);
    let mut s = State::zero(n);
    s.apply_circuit(&qsim::qaoa::ansatz_p1(n, &graph.edges, gamma, beta));
    let reference = qsim::qaoa::success_probability(&s, &optimal);

    let ir = qaoa::maxcut_ir(&graph, -gamma);
    let nv = baselines::naive::synthesize(&ir);
    let routed = generic::qiskit_l3_like(&nv.circuit, Mapping::Route(&device));
    let got = physical_success(
        device.num_qubits(),
        &routed.circuit,
        routed.initial_l2p.as_ref().unwrap(),
        routed.final_l2p.as_ref().unwrap(),
        beta,
        &optimal,
    );
    assert!(
        (got - reference).abs() < 1e-9,
        "baseline ansatz success {got} != logical {reference}"
    );
}
