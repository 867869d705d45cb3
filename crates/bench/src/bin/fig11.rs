//! Regenerates **Figure 11**: ESP and RSP improvement of Paulihedral over
//! the baseline Qiskit-default flow for 8 one-level QAOA MaxCut programs
//! on the 16-qubit Melbourne model.
//!
//! The real chip is replaced by Monte-Carlo Pauli-noise simulation with a
//! synthetic Melbourne calibration (DESIGN.md, substitution 2):
//!
//! 1. `(γ*, β*)` are grid-optimized on the ideal simulator,
//! 2. the cost kernel is compiled by (a) naive adjacency order + SABRE
//!    routing + L3 clean-up (the Qiskit-default baseline) and (b) the
//!    Paulihedral SC pass + L3 clean-up,
//! 3. ESP is the analytic per-gate success product, RSP the fraction of
//!    noisy shots hitting an optimal cut.
//!
//! ```text
//! cargo run -p ph-bench --release --bin fig11 [-- --shots 4096] [--grid 16]
//! ```

use baselines::generic::{self, Mapping};
use baselines::naive;
use pauli::{Pauli, PauliString, PauliTerm};
use paulihedral::ir::{Parameter, PauliIR};
use paulihedral::{compile, Backend, CompileOptions, Scheduler};
use ph_bench::{arg_value, print_row};
use qcircuit::{Circuit, Gate};
use qdevice::{devices, NoiseModel};
use qsim::noise::{sample_noisy_rates, success_fraction};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::graphs::{self, Graph};

/// Builds the full physical 1-level QAOA ansatz around a compiled cost
/// kernel: `H` on initial positions, the kernel, `Rx(2β)` on final
/// positions.
fn full_ansatz(cost: &Circuit, initial: &[usize], final_: &[usize], beta: f64) -> Circuit {
    let mut full = Circuit::new(cost.num_qubits());
    for &p in initial {
        full.push(Gate::H(p));
    }
    full.append_circuit(cost);
    for &p in final_ {
        full.push(Gate::Rx(p, 2.0 * beta));
    }
    full
}

/// Compacts a circuit to its touched qubits; returns the compacted circuit,
/// the per-gate error rates (from the original indices), and the remapped
/// measured list.
fn compact(
    circuit: &Circuit,
    noise: &NoiseModel,
    measured: &[usize],
) -> (Circuit, Vec<f64>, Vec<usize>, Vec<f64>) {
    let mut used: Vec<usize> = Vec::new();
    let mark = |q: usize, used: &mut Vec<usize>| {
        if !used.contains(&q) {
            used.push(q);
        }
    };
    for g in circuit.gates() {
        let (a, b) = g.qubits();
        mark(a, &mut used);
        if let Some(b) = b {
            mark(b, &mut used);
        }
    }
    for &m in measured {
        mark(m, &mut used);
    }
    used.sort_unstable();
    let map = |q: usize| used.binary_search(&q).expect("marked");
    let gate_errors: Vec<f64> = circuit
        .gates()
        .iter()
        .map(|g| noise.gate_error(g))
        .collect();
    let compacted = circuit.map_qubits(used.len(), map);
    let measured_c: Vec<usize> = measured.iter().map(|&m| map(m)).collect();
    let readout: Vec<f64> = measured.iter().map(|&m| noise.readout_error(m)).collect();
    (compacted, gate_errors, measured_c, readout)
}

fn adjacency_order_ir(g: &Graph, gamma: f64) -> PauliIR {
    // Qiskit default: strings ordered by iterating over the adjacency
    // matrix (row-major), one block (shared γ).
    let mut edges = g.edges.clone();
    edges.sort_by_key(|&(u, v, _)| (u, v));
    let terms: Vec<PauliTerm> = edges
        .iter()
        .map(|&(u, v, w)| {
            let mut s = PauliString::identity(g.n);
            s.set(u, Pauli::Z);
            s.set(v, Pauli::Z);
            PauliTerm::new(s, w)
        })
        .collect();
    PauliIR::single_block(g.n, terms, Parameter::named("gamma", gamma))
}

fn geomean(vals: &[f64]) -> f64 {
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let shots: usize = arg_value(&args, "--shots")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2048);
    let grid: usize = arg_value(&args, "--grid")
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let device = devices::melbourne_16();
    let noise = NoiseModel::synthetic(&device, 1606);
    let mut rng = StdRng::seed_from_u64(42);

    let benches: Vec<(String, Graph)> = (7..=10)
        .map(|n| {
            (
                format!("REG-n{n}-d4"),
                graphs::random_regular(n, 4, 400 + n as u64),
            )
        })
        .chain((7..=10).map(|n| {
            (
                format!("RD-n{n}-p0.5"),
                graphs::erdos_renyi(n, 0.5, 500 + n as u64),
            )
        }))
        .collect();

    println!("Figure 11: QAOA success probability improvement on the Melbourne model");
    println!("({shots} noisy shots per circuit, {grid}x{grid} parameter grid)");
    let widths = [13usize, 9, 9, 9, 9, 9, 9];
    print_row(
        &widths,
        &[
            "Bench", "CNOT(bl)", "CNOT(PH)", "ESP(bl)", "ESP(PH)", "ESPx", "RSPx",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>(),
    );

    let mut esp_ratios = Vec::new();
    let mut rsp_ratios = Vec::new();
    for (name, g) in &benches {
        let edges = &g.edges;
        let (gamma, beta, _) = qsim::qaoa::optimize_p1(g.n, edges, grid);
        let (_, optimal) = qsim::qaoa::max_cut(g.n, edges);
        // Our gadget for θ = w·param implements exp(iθZZ); the ansatz uses
        // exp(−iγwZZ), so the block parameter is −γ*.
        let param = -gamma;

        // Baseline: adjacency order, naive synthesis, SABRE route, L3.
        let base_ir = adjacency_order_ir(g, param);
        let base_naive = naive::synthesize(&base_ir);
        let base = generic::qiskit_l3_like(&base_naive.circuit, Mapping::Route(&device));
        let base_initial = base.initial_l2p.expect("routed");
        let base_final = base.final_l2p.expect("routed");
        let base_full = full_ansatz(&base.circuit, &base_initial, &base_final, beta);

        // Paulihedral: SC pass (noise-aware), L3 clean-up.
        let ph_ir = adjacency_order_ir(g, param);
        let compiled = compile(
            &ph_ir,
            &CompileOptions {
                scheduler: Scheduler::Depth,
                backend: Backend::Superconducting {
                    device: &device,
                    noise: Some(&noise),
                },
            },
        );
        let cleaned = generic::qiskit_l3_like(&compiled.circuit, Mapping::AlreadyMapped);
        let ph_initial = compiled.initial_l2p.expect("sc backend");
        let ph_final = compiled.final_l2p.expect("sc backend");
        let ph_full = full_ansatz(&cleaned.circuit, &ph_initial, &ph_final, beta);

        // ESP (with readout on measured qubits).
        let esp_base = noise.esp(&base_full, &base_final);
        let esp_ph = noise.esp(&ph_full, &ph_final);
        // RSP via Monte-Carlo on the compacted register.
        let mut rsp = |full: &Circuit, measured: &[usize]| -> f64 {
            let (c, errs, meas_c, readout) = compact(full, &noise, measured);
            let samples = sample_noisy_rates(&c, &errs, &readout, &meas_c, shots, &mut rng);
            success_fraction(&samples, &optimal)
        };
        let rsp_base = rsp(&base_full, &base_final);
        let rsp_ph = rsp(&ph_full, &ph_final);

        let esp_x = esp_ph / esp_base;
        let rsp_x = if rsp_base > 0.0 {
            rsp_ph / rsp_base
        } else {
            f64::NAN
        };
        esp_ratios.push(esp_x);
        if rsp_x.is_finite() {
            rsp_ratios.push(rsp_x);
        }
        print_row(
            &widths,
            &[
                name.clone(),
                base_full.stats().cnot.to_string(),
                ph_full.stats().cnot.to_string(),
                format!("{esp_base:.4}"),
                format!("{esp_ph:.4}"),
                format!("{esp_x:.2}"),
                format!("{rsp_x:.2}"),
            ],
        );
    }
    println!(
        "geomean: ESP improvement {:.2}x, RSP improvement {:.2}x",
        geomean(&esp_ratios),
        geomean(&rsp_ratios)
    );
}
