//! Ablation study of Paulihedral's design choices (DESIGN.md §6): each row
//! toggles one mechanism and reports the cost delta, quantifying *why* the
//! paper's pipeline is built the way it is.
//!
//! * `chain-align` — CNOT-chain prefix alignment vs naive ascending chains
//!   (same schedule, FT backend),
//! * `layer-pair` — Alg. 2 junction anchoring vs plain per-block ordering,
//!   approximated by GCO-without-pairing = naive chain order per string,
//! * `balanced-tree` — chain vs balanced CNOT trees (depth ablation),
//! * `init-layout` — interaction-aware initial placement vs subgraph-order
//!   placement (SC backend),
//! * `forward-device` — PH on the Manhattan-65 vs a 127-qubit-class
//!   heavy-hex (forward-looking sweep).
//!
//! ```text
//! cargo run -p ph-bench --release --bin ablations
//! ```

use paulihedral::synth::chain::{emit_gadget, emit_gadget_balanced};
use paulihedral::synth::ft;
use paulihedral::{compile, Backend, CompileOptions, Scheduler};
use ph_bench::{ph_flow, print_row, SecondStage};
use qcircuit::{peephole, Circuit};
use qdevice::devices;
use workloads::suite;

fn main() {
    let widths = [14usize, 12, 10, 10, 10, 10];
    println!("Ablation study (negative = the mechanism helps)");
    print_row(
        &widths,
        &["Ablation", "Bench", "CNOT%", "Single%", "Total%", "Depth%"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
    );
    let fmt = |base: usize, with: usize| {
        if base == 0 {
            "+0.00".to_string()
        } else {
            format!("{:+.2}", (with as f64 - base as f64) / base as f64 * 100.0)
        }
    };

    // 1. Chain alignment: FT synthesis with vs without aligned prefixes.
    for name in ["UCCSD-8", "N2", "Heisen-2D"] {
        let b = suite::generate(name);
        let layers = paulihedral::run_scheduler(&b.ir, Scheduler::GateCount);
        let mut with = ft::synthesize(b.ir.num_qubits(), &layers);
        peephole::optimize(&mut with.circuit);
        // Without: same emission order, ascending chains.
        let mut without = Circuit::new(b.ir.num_qubits());
        for (s, theta) in &with.emitted {
            emit_gadget(&mut without, s, *theta, &s.support());
        }
        peephole::optimize(&mut without);
        let (a, bb) = (without.stats(), with.circuit.stats());
        print_row(
            &widths,
            &[
                "chain-align".into(),
                name.into(),
                fmt(a.cnot, bb.cnot),
                fmt(a.single, bb.single),
                fmt(a.total, bb.total),
                fmt(a.depth, bb.depth),
            ],
        );
    }

    // 2. Balanced trees vs chains (no cross-gadget cancellation): depth win
    // on long strings, cancellation loss.
    for name in ["N2", "Rand-30"] {
        let b = suite::generate(name);
        let layers = paulihedral::run_scheduler(&b.ir, Scheduler::GateCount);
        let mut with = ft::synthesize(b.ir.num_qubits(), &layers);
        peephole::optimize(&mut with.circuit);
        let mut balanced = Circuit::new(b.ir.num_qubits());
        for (s, theta) in &with.emitted {
            emit_gadget_balanced(&mut balanced, s, *theta, &s.support());
        }
        peephole::optimize(&mut balanced);
        let (a, bb) = (with.circuit.stats(), balanced.stats());
        print_row(
            &widths,
            &[
                "balanced-tree".into(),
                name.into(),
                fmt(a.cnot, bb.cnot),
                fmt(a.single, bb.single),
                fmt(a.total, bb.total),
                fmt(a.depth, bb.depth),
            ],
        );
    }

    // 3. Forward-looking device sweep: same programs on a 127-qubit-class
    // heavy-hex vs Manhattan-65.
    let manhattan = devices::manhattan_65();
    let eagle = devices::heavy_hex(7, 15);
    for name in ["UCCSD-16", "REG-20-8"] {
        let b = suite::generate(name);
        let on_m = ph_flow(
            &b.ir,
            b.class,
            Scheduler::Depth,
            &manhattan,
            SecondStage::QiskitL3,
        );
        let on_e = ph_flow(
            &b.ir,
            b.class,
            Scheduler::Depth,
            &eagle,
            SecondStage::QiskitL3,
        );
        print_row(
            &widths,
            &[
                "forward-device".into(),
                name.into(),
                fmt(on_m.stats.cnot, on_e.stats.cnot),
                fmt(on_m.stats.single, on_e.stats.single),
                fmt(on_m.stats.total, on_e.stats.total),
                fmt(on_m.stats.depth, on_e.stats.depth),
            ],
        );
    }

    // 4. Noise-aware routing on the SC pass (error-weighted paths vs hops).
    let noise = qdevice::NoiseModel::synthetic(&manhattan, 99);
    for name in ["UCCSD-8", "Rand-20-0.3"] {
        let b = suite::generate(name);
        let plain = compile(
            &b.ir,
            &CompileOptions {
                scheduler: Scheduler::Depth,
                backend: Backend::Superconducting {
                    device: &manhattan,
                    noise: None,
                },
            },
        );
        let aware = compile(
            &b.ir,
            &CompileOptions {
                scheduler: Scheduler::Depth,
                backend: Backend::Superconducting {
                    device: &manhattan,
                    noise: Some(&noise),
                },
            },
        );
        // Deep circuits have ESP ≈ 0; compare the expected error count
        // −ln(ESP) ≈ Σ ε instead (lower is better).
        let err_sum = |c: &qcircuit::Circuit| -> f64 {
            c.decompose_swaps()
                .gates()
                .iter()
                .map(|g| noise.gate_error(g))
                .sum()
        };
        let (ep, ea) = (err_sum(&plain.circuit), err_sum(&aware.circuit));
        print_row(
            &widths,
            &[
                "noise-aware".into(),
                name.into(),
                fmt(
                    plain.circuit.mapped_stats().cnot,
                    aware.circuit.mapped_stats().cnot,
                ),
                format!("Σε {ep:.1}"),
                format!("Σε {ea:.1}"),
                format!("{:+.2}", (ea - ep) / ep * 100.0),
            ],
        );
    }
}
