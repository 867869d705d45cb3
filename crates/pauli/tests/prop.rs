//! Property tests for the Pauli algebra substrate.

use std::cmp::Ordering;

use pauli::{Pauli, PauliString, Tableau};
use proptest::prelude::*;

fn arb_pauli() -> impl Strategy<Value = Pauli> {
    prop_oneof![
        Just(Pauli::I),
        Just(Pauli::X),
        Just(Pauli::Y),
        Just(Pauli::Z),
    ]
}

fn arb_string(n: usize) -> impl Strategy<Value = PauliString> {
    proptest::collection::vec(arb_pauli(), n).prop_map(|ops| PauliString::from_ops(&ops))
}

proptest! {
    #[test]
    fn parse_display_round_trip(s in arb_string(9)) {
        let text = s.to_string();
        let parsed: PauliString = text.parse().unwrap();
        prop_assert_eq!(parsed, s);
    }

    #[test]
    fn commutation_is_symmetric(a in arb_string(7), b in arb_string(7)) {
        prop_assert_eq!(a.commutes_with(&b), b.commutes_with(&a));
    }

    #[test]
    fn commutation_matches_anticommuting_site_parity(a in arb_string(6), b in arb_string(6)) {
        let sites = (0..6)
            .filter(|&q| !a.get(q).commutes_with(b.get(q)))
            .count();
        prop_assert_eq!(a.commutes_with(&b), sites % 2 == 0);
    }

    #[test]
    fn overlap_is_symmetric_and_bounded(a in arb_string(8), b in arb_string(8)) {
        prop_assert_eq!(a.overlap(&b), b.overlap(&a));
        prop_assert!(a.overlap(&b) <= a.weight().min(b.weight()));
        prop_assert!(a.overlap(&b) <= a.shared_support(&b));
        prop_assert_eq!(a.overlap(&a), a.weight());
    }

    #[test]
    fn lex_cmp_is_a_total_order(a in arb_string(6), b in arb_string(6), c in arb_string(6)) {
        // Antisymmetry.
        prop_assert_eq!(a.lex_cmp(&b), b.lex_cmp(&a).reverse());
        // Transitivity (on the ≤ relation).
        if a.lex_cmp(&b) != Ordering::Greater && b.lex_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.lex_cmp(&c), Ordering::Greater);
        }
        // Reflexivity / consistency with equality.
        prop_assert_eq!(a.lex_cmp(&b) == Ordering::Equal, a == b);
    }

    #[test]
    fn product_squares_to_identity_phasewise(a in arb_string(6)) {
        let (p, k) = a.mul(&a);
        prop_assert!(p.is_identity());
        prop_assert_eq!(k, 0);
    }

    #[test]
    fn product_phases_invert(a in arb_string(6), b in arb_string(6)) {
        // (a·b)·(b·a) = a·b²·a = a² = I, so the phases must cancel.
        let (_, k1) = a.mul(&b);
        let (_, k2) = b.mul(&a);
        if a.commutes_with(&b) {
            prop_assert_eq!(k1, k2);
        } else {
            prop_assert_eq!((k1 + k2) % 4, 0);
        }
    }

    #[test]
    fn support_weight_consistency(a in arb_string(10)) {
        prop_assert_eq!(a.support().len(), a.weight());
        for q in a.support() {
            prop_assert!(a.is_active(q));
            prop_assert_ne!(a.get(q), Pauli::I);
        }
    }

    #[test]
    fn support_matches_the_per_qubit_scan_across_words(
        a in (0usize..4).prop_flat_map(|i| arb_string([63, 64, 65, 130][i])),
    ) {
        let scan: Vec<usize> = (0..a.num_qubits()).filter(|&q| a.is_active(q)).collect();
        prop_assert_eq!(a.support(), scan);
    }

    #[test]
    fn tableau_conjugation_preserves_commutation(
        rows in proptest::collection::vec(arb_string(5), 2..5),
        gates in proptest::collection::vec((0u8..4, 0usize..5, 0usize..5), 0..20),
    ) {
        let mut t = Tableau::from_strings(&rows);
        for (kind, a, b) in gates {
            let b = if a == b { (b + 1) % 5 } else { b };
            match kind {
                0 => t.h(a),
                1 => t.s(a),
                2 => t.sdg(a),
                _ => t.cx(a, b),
            }
        }
        for i in 0..rows.len() {
            for j in i + 1..rows.len() {
                prop_assert_eq!(
                    rows[i].commutes_with(&rows[j]),
                    t.row(i).commutes_with(t.row(j)),
                    "conjugation changed commutation structure"
                );
            }
        }
    }

    #[test]
    fn diagonalization_succeeds_on_commuting_sets(
        zs in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 5), 1..5),
        gates in proptest::collection::vec((0u8..4, 0usize..5, 0usize..5), 0..25),
    ) {
        // Start diagonal (mutually commuting), scramble by Cliffords,
        // then diagonalize the scrambled set.
        let rows: Vec<PauliString> = zs
            .iter()
            .map(|bits| {
                let mut s = PauliString::identity(5);
                for (q, &b) in bits.iter().enumerate() {
                    if b {
                        s.set(q, Pauli::Z);
                    }
                }
                s
            })
            .collect();
        let mut t = Tableau::from_strings(&rows);
        for (kind, a, b) in gates {
            let b = if a == b { (b + 1) % 5 } else { b };
            match kind {
                0 => t.h(a),
                1 => t.s(a),
                2 => t.sdg(a),
                _ => t.cx(a, b),
            }
        }
        let scrambled: Vec<PauliString> = (0..rows.len()).map(|r| t.row(r).clone()).collect();
        let mut t2 = Tableau::from_strings(&scrambled);
        prop_assert!(t2.diagonalize().is_ok());
        prop_assert!(t2.is_diagonal());
    }
}
