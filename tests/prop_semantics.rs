//! Property-based semantics tests: for *arbitrary* random Pauli IR
//! programs, every compilation path must implement the exact operator
//! product of its emission order. These are the strongest correctness
//! guarantees in the repository — they exercise scheduling, chain
//! alignment, SC routing, layout tracking, the peephole optimizer, fusion,
//! and the TK tableau signs all at once.

use baselines::generic::{self, Mapping};
use baselines::tk;
use pauli::{Pauli, PauliString, PauliTerm};
use paulihedral::ir::{Parameter, PauliBlock, PauliIR};
use paulihedral::{compile, Backend, CompileOptions, Scheduler};
use proptest::prelude::*;
use qdevice::devices;
use qsim::trotter::exp_product;
use qsim::unitary::{circuit_unitary, equal_up_to_phase, routed_circuit_implements};

const N: usize = 4;

fn arb_string() -> impl Strategy<Value = PauliString> {
    proptest::collection::vec(0u8..4, N).prop_map(|ops| {
        let mut s = PauliString::identity(N);
        let mut any = false;
        for (q, &o) in ops.iter().enumerate() {
            let p = match o {
                1 => Pauli::X,
                2 => Pauli::Y,
                3 => Pauli::Z,
                _ => Pauli::I,
            };
            if p != Pauli::I {
                any = true;
            }
            s.set(q, p);
        }
        if !any {
            s.set(0, Pauli::Z);
        }
        s
    })
}

fn arb_block() -> impl Strategy<Value = PauliBlock> {
    (
        proptest::collection::vec((arb_string(), -1.0f64..1.0), 1..4),
        -0.8f64..0.8,
    )
        .prop_map(|(terms, param)| {
            let terms = terms
                .into_iter()
                .map(|(s, w)| PauliTerm::new(s, if w == 0.0 { 0.25 } else { w }))
                .collect();
            PauliBlock::new(
                terms,
                Parameter::time(if param == 0.0 { 0.3 } else { param }),
            )
        })
}

fn arb_program() -> impl Strategy<Value = PauliIR> {
    proptest::collection::vec(arb_block(), 1..5).prop_map(|blocks| {
        let mut ir = PauliIR::new(N);
        for b in blocks {
            ir.push_block(b);
        }
        ir
    })
}

fn expected(ir: &PauliIR, emitted: &[(PauliString, f64)]) -> qsim::unitary::Columns {
    let want = ir
        .blocks()
        .iter()
        .flat_map(|b| &b.terms)
        .filter(|t| !t.string.is_identity())
        .count();
    assert_eq!(emitted.len(), want);
    exp_product(N, emitted.iter().map(|(s, t)| (s, *t)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ft_compilation_is_exact(ir in arb_program(), depth_sched in any::<bool>()) {
        let scheduler = if depth_sched { Scheduler::Depth } else { Scheduler::GateCount };
        let out = compile(&ir, &CompileOptions { scheduler, backend: Backend::FaultTolerant });
        let exp = expected(&ir, &out.emitted);
        prop_assert!(equal_up_to_phase(&circuit_unitary(&out.circuit), &exp, 1e-8));
    }

    #[test]
    fn ft_plus_generic_cleanup_is_exact(ir in arb_program()) {
        let out = compile(
            &ir,
            &CompileOptions { scheduler: Scheduler::GateCount, backend: Backend::FaultTolerant },
        );
        let exp = expected(&ir, &out.emitted);
        let l3 = generic::qiskit_l3_like(&out.circuit, Mapping::None);
        prop_assert!(equal_up_to_phase(&circuit_unitary(&l3.circuit), &exp, 1e-8));
        let o2 = generic::tket_o2_like(&out.circuit, Mapping::None);
        prop_assert!(equal_up_to_phase(&circuit_unitary(&o2.circuit), &exp, 1e-8));
    }

    #[test]
    fn sc_compilation_is_exact_on_a_line(ir in arb_program()) {
        let device = devices::linear(5);
        let out = compile(
            &ir,
            &CompileOptions {
                scheduler: Scheduler::Depth,
                backend: Backend::Superconducting { device: &device, noise: None },
            },
        );
        prop_assert!(out.circuit.respects_connectivity(|a, b| device.has_edge(a, b)));
        let exp = expected(&ir, &out.emitted);
        prop_assert!(routed_circuit_implements(
            &out.circuit,
            &exp,
            out.initial_l2p.as_ref().unwrap(),
            out.final_l2p.as_ref().unwrap(),
            1e-8,
        ));
    }

    #[test]
    fn tk_baseline_is_exact(ir in arb_program()) {
        let r = tk::compile_tk(&ir);
        let exp = expected(&ir, &r.emitted);
        prop_assert!(equal_up_to_phase(&circuit_unitary(&r.circuit), &exp, 1e-8));
    }
}
