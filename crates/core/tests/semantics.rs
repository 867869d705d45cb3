//! Semantics preservation: every compiled circuit must implement the exact
//! operator `Π exp(iθ_j P_j)` in its emission order (up to a global phase,
//! and up to the tracked layout permutation on the SC backend).
//!
//! This is the formal guarantee the Pauli IR gives (paper §3.2): all
//! reorderings the compiler performs are justified by commutative matrix
//! addition, so correctness reduces to "the circuit matches the product in
//! the order the compiler chose".

use pauli::{Pauli, PauliString, PauliTerm};
use paulihedral::ir::{Parameter, PauliBlock, PauliIR};
use paulihedral::{compile, Backend, CompileOptions, Scheduler};
use qdevice::devices;
use qsim::trotter::exp_product;
use qsim::unitary::{circuit_unitary, equal_up_to_phase, routed_circuit_implements};

fn random_program(seed: u64, n: usize, blocks: usize, max_strings: usize) -> PauliIR {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut ir = PauliIR::new(n);
    for b in 0..blocks {
        let k = 1 + (next() as usize) % max_strings;
        let mut terms = Vec::new();
        for _ in 0..k {
            let mut s = PauliString::identity(n);
            let mut any = false;
            for q in 0..n {
                match next() % 5 {
                    0 => {}
                    1 => {}
                    2 => {
                        s.set(q, Pauli::X);
                        any = true;
                    }
                    3 => {
                        s.set(q, Pauli::Y);
                        any = true;
                    }
                    _ => {
                        s.set(q, Pauli::Z);
                        any = true;
                    }
                }
            }
            if !any {
                s.set((next() as usize) % n, Pauli::Z);
            }
            let w = ((next() % 200) as f64 - 100.0) / 100.0;
            terms.push(PauliTerm::new(s, if w == 0.0 { 0.5 } else { w }));
        }
        let param = if b % 2 == 0 {
            Parameter::time(0.3)
        } else {
            Parameter::named(format!("t{b}"), 0.17 + 0.1 * b as f64)
        };
        ir.push_block(PauliBlock::new(terms, param));
    }
    ir
}

fn expected_unitary(ir: &PauliIR, emitted: &[(PauliString, f64)]) -> qsim::unitary::Columns {
    // Check the emission covers exactly the program's non-identity strings.
    let want: usize = ir
        .blocks()
        .iter()
        .flat_map(|b| &b.terms)
        .filter(|t| !t.string.is_identity())
        .count();
    assert_eq!(emitted.len(), want, "emission must cover all strings");
    exp_product(ir.num_qubits(), emitted.iter().map(|(s, t)| (s, *t)))
}

#[test]
fn ft_backend_preserves_semantics_gco() {
    for seed in 0..12 {
        let ir = random_program(seed, 4, 4, 3);
        let out = compile(
            &ir,
            &CompileOptions {
                scheduler: Scheduler::GateCount,
                backend: Backend::FaultTolerant,
            },
        );
        let expected = expected_unitary(&ir, &out.emitted);
        let got = circuit_unitary(&out.circuit);
        assert!(
            equal_up_to_phase(&got, &expected, 1e-8),
            "seed {seed}: FT/GCO circuit deviates from exp-product"
        );
    }
}

#[test]
fn ft_backend_preserves_semantics_depth() {
    for seed in 100..112 {
        let ir = random_program(seed, 5, 5, 2);
        let out = compile(
            &ir,
            &CompileOptions {
                scheduler: Scheduler::Depth,
                backend: Backend::FaultTolerant,
            },
        );
        let expected = expected_unitary(&ir, &out.emitted);
        let got = circuit_unitary(&out.circuit);
        assert!(
            equal_up_to_phase(&got, &expected, 1e-8),
            "seed {seed}: FT/DO circuit deviates from exp-product"
        );
    }
}

#[test]
fn sc_backend_preserves_semantics_on_linear_device() {
    let device = devices::linear(6);
    for seed in 200..210 {
        let ir = random_program(seed, 4, 3, 2);
        let out = compile(
            &ir,
            &CompileOptions {
                scheduler: Scheduler::Depth,
                backend: Backend::Superconducting {
                    device: &device,
                    noise: None,
                },
            },
        );
        assert!(out
            .circuit
            .respects_connectivity(|a, b| device.has_edge(a, b)));
        let expected = expected_unitary(&ir, &out.emitted);
        assert!(
            routed_circuit_implements(
                &out.circuit,
                &expected,
                out.initial_l2p.as_ref().unwrap(),
                out.final_l2p.as_ref().unwrap(),
                1e-8,
            ),
            "seed {seed}: SC circuit deviates from exp-product"
        );
    }
}

#[test]
fn sc_backend_preserves_semantics_on_grid_device() {
    let device = devices::grid(2, 3);
    for seed in 300..308 {
        let ir = random_program(seed, 5, 4, 2);
        let out = compile(
            &ir,
            &CompileOptions {
                scheduler: Scheduler::GateCount,
                backend: Backend::Superconducting {
                    device: &device,
                    noise: None,
                },
            },
        );
        assert!(out
            .circuit
            .respects_connectivity(|a, b| device.has_edge(a, b)));
        let expected = expected_unitary(&ir, &out.emitted);
        assert!(
            routed_circuit_implements(
                &out.circuit,
                &expected,
                out.initial_l2p.as_ref().unwrap(),
                out.final_l2p.as_ref().unwrap(),
                1e-8,
            ),
            "seed {seed}: SC circuit deviates from exp-product"
        );
    }
}

#[test]
fn balanced_gadget_matches_exponential() {
    use paulihedral::synth::chain::emit_gadget_balanced;
    for s in ["ZZZZ", "XYZX", "ZIYX", "YYYY"] {
        let p: PauliString = s.parse().unwrap();
        let mut c = qcircuit::Circuit::new(4);
        emit_gadget_balanced(&mut c, &p, 0.37, &p.support());
        let expected = exp_product(4, [(&p, 0.37)]);
        assert!(
            equal_up_to_phase(&circuit_unitary(&c), &expected, 1e-10),
            "balanced gadget for {s} deviates"
        );
    }
}

#[test]
fn single_gadget_matches_exponential_for_all_operators() {
    // Exhaustive 2-qubit check over all 15 non-identity strings.
    for a in [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z] {
        for b in [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z] {
            if a == Pauli::I && b == Pauli::I {
                continue;
            }
            let mut s = PauliString::identity(2);
            s.set(0, a);
            s.set(1, b);
            let mut ir = PauliIR::new(2);
            ir.push_block(PauliBlock::single(s.clone(), 0.7, Parameter::time(0.9)));
            let out = compile(
                &ir,
                &CompileOptions {
                    scheduler: Scheduler::GateCount,
                    backend: Backend::FaultTolerant,
                },
            );
            let expected = exp_product(2, [(&s, 0.7 * 0.9)]);
            assert!(
                equal_up_to_phase(&circuit_unitary(&out.circuit), &expected, 1e-10),
                "gadget for {s} deviates"
            );
        }
    }
}
