//! Pauli-gadget emission with adaptive CNOT-chain ordering.
//!
//! `exp(iθP)` is synthesized as the classic gadget (paper Fig. 2): basis
//! changes (`H` for X, `Rx(π/2)` for Y), a CNOT chain accumulating the
//! parity onto a root qubit, `Rz(−2θ)` on the root, and the mirrored chain.
//! The chain over the support can be ordered freely — that freedom is
//! exactly the "algorithmic flexibility in synthesis" Paulihedral exploits:
//! [`aligned_order`] starts each string's chain with the longest
//! operator-compatible prefix of the previous string's chain, so the
//! peephole pass can cancel the facing CNOTs and basis gates.

use pauli::{Pauli, PauliString};
use qcircuit::{Circuit, Gate};

/// The basis-change gate entering the Z basis for `p` on qubit `q`.
///
/// Returns `None` for `I`/`Z` (no change needed).
pub fn basis_in(q: usize, p: Pauli) -> Option<Gate> {
    match p {
        Pauli::X => Some(Gate::H(q)),
        Pauli::Y => Some(Gate::Rx(q, std::f64::consts::FRAC_PI_2)),
        Pauli::I | Pauli::Z => None,
    }
}

/// The inverse basis change; see [`basis_in`].
pub fn basis_out(q: usize, p: Pauli) -> Option<Gate> {
    match p {
        Pauli::X => Some(Gate::H(q)),
        Pauli::Y => Some(Gate::Rx(q, -std::f64::consts::FRAC_PI_2)),
        Pauli::I | Pauli::Z => None,
    }
}

/// Emits the gadget for `exp(iθ·P)` with the CNOT chain following `order`
/// (the last element is the root carrying the `Rz`).
///
/// # Panics
///
/// Panics if `order` is not exactly the support of `string`.
pub fn emit_gadget(circuit: &mut Circuit, string: &PauliString, theta: f64, order: &[usize]) {
    let support = string.support();
    assert_eq!(order.len(), support.len(), "order must cover the support");
    debug_assert!(
        {
            let mut sorted = order.to_vec();
            sorted.sort_unstable();
            sorted == support
        },
        "order must be a permutation of the support"
    );
    if order.is_empty() {
        return; // identity string: global phase only
    }
    for &q in order {
        if let Some(g) = basis_in(q, string.get(q)) {
            circuit.push(g);
        }
    }
    for w in order.windows(2) {
        circuit.push(Gate::Cx(w[0], w[1]));
    }
    let root = *order.last().expect("non-empty order");
    circuit.push(Gate::Rz(root, -2.0 * theta));
    for w in order.windows(2).rev() {
        circuit.push(Gate::Cx(w[0], w[1]));
    }
    for &q in order {
        if let Some(g) = basis_out(q, string.get(q)) {
            circuit.push(g);
        }
    }
}

/// Emits the gadget for `exp(iθ·P)` with a **balanced** CNOT tree over the
/// support instead of a chain: parity is folded pairwise
/// (`log₂` depth per layer), trading the chain's cancellation-friendliness
/// for per-gadget depth — the other end of the synthesis-flexibility
/// spectrum of Fig. 2.
///
/// # Panics
///
/// Panics if `order` is not exactly the support of `string`.
pub fn emit_gadget_balanced(
    circuit: &mut Circuit,
    string: &PauliString,
    theta: f64,
    order: &[usize],
) {
    let support = string.support();
    assert_eq!(order.len(), support.len(), "order must cover the support");
    if order.is_empty() {
        return;
    }
    for &q in order {
        if let Some(g) = basis_in(q, string.get(q)) {
            circuit.push(g);
        }
    }
    // Pairwise folding: each round CNOTs element 2i into 2i+1.
    let mut cnots: Vec<(usize, usize)> = Vec::new();
    let mut alive: Vec<usize> = order.to_vec();
    while alive.len() > 1 {
        let mut next = Vec::with_capacity(alive.len().div_ceil(2));
        for pair in alive.chunks(2) {
            if pair.len() == 2 {
                cnots.push((pair[0], pair[1]));
                next.push(pair[1]);
            } else {
                next.push(pair[0]);
            }
        }
        alive = next;
    }
    for &(a, b) in &cnots {
        circuit.push(Gate::Cx(a, b));
    }
    circuit.push(Gate::Rz(alive[0], -2.0 * theta));
    for &(a, b) in cnots.iter().rev() {
        circuit.push(Gate::Cx(a, b));
    }
    for &q in order {
        if let Some(g) = basis_out(q, string.get(q)) {
            circuit.push(g);
        }
    }
}

/// Chooses a chain order for `string` that maximizes cancellation with its
/// neighbors.
///
/// The order starts with the longest prefix of `prev_order` on which both
/// strings carry the *same non-identity* operator — those CNOTs and basis
/// gates face their mirror images across the junction and cancel. The
/// remaining support is ordered with one-step lookahead: qubits sharing
/// their operator with the *next* string come first, so they are available
/// as the next string's cancellable prefix (this is the "alternative
/// synthesis" of Fig. 4(a): `ZZY` chained as `[z, z, y]` instead of
/// root-last `y` ordering).
pub fn aligned_order(
    string: &PauliString,
    prev: Option<(&PauliString, &[usize])>,
    next: Option<&PauliString>,
) -> Vec<usize> {
    let support = string.support();
    let mut order: Vec<usize> = Vec::with_capacity(support.len());
    if let Some((prev_string, prev_order)) = prev {
        for &q in prev_order {
            if string.is_active(q) && string.get(q) == prev_string.get(q) {
                order.push(q);
            } else {
                break;
            }
        }
    }
    let shares_next =
        |q: usize| next.is_some_and(|nx| nx.is_active(q) && nx.get(q) == string.get(q));
    let mut rest: Vec<usize> = support
        .iter()
        .copied()
        .filter(|q| !order.contains(q))
        .collect();
    rest.sort_by_key(|&q| (!shares_next(q), q));
    order.extend(rest);
    order
}

/// Synthesizes a sequence of `(string, θ)` gadgets with chain alignment
/// (no peephole pass — callers run it once at the end). Each gadget's
/// CNOT order starts from the previous string's order, so gadgets are
/// planned and emitted one at a time, in sequence order.
pub fn synthesize_sequence(n: usize, seq: &[(PauliString, f64)]) -> Circuit {
    let mut circuit = Circuit::new(n);
    let mut prev: Option<(&PauliString, Vec<usize>)> = None;
    for (i, (string, theta)) in seq.iter().enumerate() {
        if string.is_identity() {
            continue;
        }
        let next = seq[i + 1..]
            .iter()
            .map(|(s, _)| s)
            .find(|s| !s.is_identity());
        let order = aligned_order(string, prev.as_ref().map(|(s, o)| (*s, o.as_slice())), next);
        emit_gadget(&mut circuit, string, *theta, &order);
        prev = Some((string, order));
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::peephole;

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn gadget_structure_for_zz() {
        let mut c = Circuit::new(2);
        emit_gadget(&mut c, &ps("ZZ"), 0.3, &[0, 1]);
        assert_eq!(
            c.gates(),
            &[Gate::Cx(0, 1), Gate::Rz(1, -0.6), Gate::Cx(0, 1)]
        );
    }

    #[test]
    fn gadget_adds_basis_changes_for_x_and_y() {
        let mut c = Circuit::new(2);
        emit_gadget(&mut c, &ps("YX"), 0.5, &[0, 1]);
        let s = c.stats();
        assert_eq!(s.cnot, 2);
        // H/H on qubit 0 (X), Rx(±π/2) on qubit 1 (Y), plus the Rz.
        assert_eq!(s.single, 5);
        assert!(matches!(c.gates()[0], Gate::H(0)));
    }

    #[test]
    fn identity_string_emits_nothing() {
        let mut c = Circuit::new(3);
        emit_gadget(&mut c, &PauliString::identity(3), 1.0, &[]);
        assert!(c.is_empty());
    }

    #[test]
    fn aligned_order_reuses_compatible_prefix() {
        // ZZY chained [1, 2, 0] (the shared Z-pair first); ZZI then reuses
        // the [1, 2] prefix and cancels those CNOTs.
        let prev = ps("ZZY");
        let prev_order = vec![1, 2, 0];
        let next = ps("ZZI");
        let order = aligned_order(&next, Some((&prev, prev_order.as_slice())), None);
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn aligned_order_stops_at_first_mismatch() {
        let prev = ps("ZXZ"); // q2:Z q1:X q0:Z
        let prev_order = vec![0, 1, 2];
        let next = ps("ZZZ");
        // q0 matches (Z), q1 differs (X vs Z) → prefix [0], rest ascending.
        let order = aligned_order(&next, Some((&prev, prev_order.as_slice())), None);
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(&order[..1], &[0]);
    }

    #[test]
    fn aligned_order_lookahead_fronts_shared_qubits() {
        // No previous string: the chain of ZZY starts with the qubits it
        // shares with the upcoming ZZI (Fig. 4(a) alternative synthesis).
        let s = ps("ZZY");
        let next = ps("ZZI");
        let order = aligned_order(&s, None, Some(&next));
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn fig4a_alternative_synthesis_cancels_cnots() {
        // The paper's Fig. 4(a): ZZY then ZZI. Naive synthesis cancels
        // nothing; aligned synthesis cancels two CNOTs.
        let seq = vec![(ps("ZZY"), 0.3), (ps("ZZI"), 0.4)];
        // Naive: both chains in ascending order.
        let mut naive = Circuit::new(3);
        emit_gadget(&mut naive, &seq[0].0, seq[0].1, &[0, 1, 2]);
        emit_gadget(&mut naive, &seq[1].0, seq[1].1, &[1, 2]);
        peephole::optimize(&mut naive);
        // Aligned.
        let mut aligned = synthesize_sequence(3, &seq);
        peephole::optimize(&mut aligned);
        assert!(
            aligned.stats().cnot < naive.stats().cnot,
            "aligned {} vs naive {}",
            aligned.stats().cnot,
            naive.stats().cnot
        );
        assert_eq!(aligned.stats().cnot, 4); // 6 CNOTs − 2 cancelled
    }

    #[test]
    fn identical_strings_collapse_to_one_gadget() {
        let seq = vec![(ps("XZX"), 0.2), (ps("XZX"), 0.3)];
        let mut c = synthesize_sequence(3, &seq);
        peephole::optimize(&mut c);
        let s = c.stats();
        assert_eq!(s.cnot, 4);
        // Basis gates fully shared; the two Rz merge into one.
        assert_eq!(
            s.single,
            4 + 1,
            "expected shared basis gates and a merged rotation: {c}"
        );
    }

    #[test]
    #[should_panic(expected = "cover the support")]
    fn emit_gadget_validates_order() {
        let mut c = Circuit::new(2);
        emit_gadget(&mut c, &ps("ZZ"), 0.1, &[0]);
    }

    #[test]
    fn balanced_tree_has_log_depth() {
        let s = ps("ZZZZZZZZ");
        let order = s.support();
        let mut chain = Circuit::new(8);
        emit_gadget(&mut chain, &s, 0.2, &order);
        let mut balanced = Circuit::new(8);
        emit_gadget_balanced(&mut balanced, &s, 0.2, &order);
        // Same gate counts, very different depth: 2·7+1 vs 2·3+1.
        assert_eq!(chain.stats().cnot, balanced.stats().cnot);
        assert_eq!(chain.stats().depth, 15);
        assert_eq!(balanced.stats().depth, 7);
    }

    #[test]
    fn balanced_tree_on_two_qubits_matches_chain() {
        let s = ps("ZZ");
        let mut a = Circuit::new(2);
        emit_gadget(&mut a, &s, 0.4, &[0, 1]);
        let mut b = Circuit::new(2);
        emit_gadget_balanced(&mut b, &s, 0.4, &[0, 1]);
        assert_eq!(a, b);
    }
}
