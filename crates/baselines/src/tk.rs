//! The simultaneous-diagonalization baseline ("TK").
//!
//! Emulates the quantum-simulation optimization strategy of t|ket⟩
//! [11, 15–17] from the cited literature: Pauli strings are greedily
//! partitioned into mutually commuting clusters; each cluster is conjugated
//! by a Clifford circuit that diagonalizes every string simultaneously
//! (symplectic Gaussian elimination, see [`pauli::Tableau`]); the
//! diagonalized strings become plain Z-ladder rotations; and the Clifford
//! is undone. The diagonalization Cliffords are pure overhead for clusters
//! that were already diagonal-friendly — the effect behind the paper's
//! Ising-1D observation ("even more gates after TK").
//!
//! Block constraints are relaxed (strings are clustered individually),
//! exactly as the paper does for its TK configuration ("this relaxation
//! allows a larger optimization space").

use pauli::{CliffordGate, PauliString, Tableau};
use paulihedral::ir::PauliIR;
use paulihedral::synth::chain::synthesize_sequence;
use qcircuit::{Circuit, Gate};

/// Upper bound on cluster size: keeps tableau elimination quadratic-in-k
/// work bounded on the 30k+-string benchmarks (commercial implementations
/// cap partition sizes similarly).
const MAX_CLUSTER: usize = 1000;

/// Result of the TK baseline.
#[derive(Clone, Debug)]
pub struct TkResult {
    /// The synthesized logical circuit (unoptimized; feed it to a
    /// [`crate::generic`] pipeline, as the paper's "TK+Qiskit_L3/tket_O2").
    pub circuit: Circuit,
    /// The `(string, θ)` sequence in the (cluster-reordered) emission
    /// order; the circuit implements `Π exp(iθP)` in this order.
    pub emitted: Vec<(PauliString, f64)>,
    /// Number of commuting clusters formed.
    pub num_clusters: usize,
}

fn clifford_to_gate(g: CliffordGate) -> Gate {
    match g {
        CliffordGate::H(q) => Gate::H(q),
        CliffordGate::S(q) => Gate::S(q),
        CliffordGate::Sdg(q) => Gate::Sdg(q),
        CliffordGate::Cx(c, t) => Gate::Cx(c, t),
    }
}

/// Greedy first-fit partition into mutually commuting clusters.
fn cluster(terms: &[(PauliString, f64)]) -> Vec<Vec<usize>> {
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for (i, (s, _)) in terms.iter().enumerate() {
        let mut placed = false;
        for c in clusters.iter_mut() {
            if c.len() >= MAX_CLUSTER {
                continue;
            }
            if c.iter().all(|&j| terms[j].0.commutes_with(s)) {
                c.push(i);
                placed = true;
                break;
            }
        }
        if !placed {
            clusters.push(vec![i]);
        }
    }
    clusters
}

/// Compiles a program with the simultaneous-diagonalization strategy.
///
/// # Panics
///
/// Panics if tableau diagonalization fails, which cannot happen for the
/// mutually commuting clusters produced here.
pub fn compile_tk(ir: &PauliIR) -> TkResult {
    let n = ir.num_qubits();
    let terms: Vec<(PauliString, f64)> = ir
        .blocks()
        .iter()
        .flat_map(|b| {
            b.terms
                .iter()
                .enumerate()
                .map(move |(i, t)| (t.string.clone(), b.theta(i)))
        })
        .filter(|(s, _)| !s.is_identity())
        .collect();
    let clusters = cluster(&terms);
    let mut circuit = Circuit::new(n);
    let mut emitted = Vec::new();
    for cluster in &clusters {
        let strings: Vec<PauliString> = cluster.iter().map(|&i| terms[i].0.clone()).collect();
        let all_diagonal = strings.iter().all(|s| s.x_words().iter().all(|&w| w == 0));
        let (diag_seq, clifford): (Vec<(PauliString, f64)>, Vec<CliffordGate>) = if all_diagonal {
            // Already Z-only: no Clifford overhead.
            (
                cluster.iter().map(|&i| terms[i].clone()).collect(),
                Vec::new(),
            )
        } else {
            let mut tableau = Tableau::from_strings(&strings);
            tableau
                .diagonalize()
                .expect("clusters are mutually commuting by construction");
            let seq = cluster
                .iter()
                .enumerate()
                .map(|(r, &i)| {
                    let theta = if tableau.sign(r) {
                        -terms[i].1
                    } else {
                        terms[i].1
                    };
                    (tableau.row(r).clone(), theta)
                })
                .collect();
            (seq, tableau.gates().to_vec())
        };
        // exp(iθP) = G† exp(±iθ Z_S) G  ⇒  circuit: G, ladders, G†.
        for &g in &clifford {
            circuit.push(clifford_to_gate(g));
        }
        let ladders = synthesize_sequence(n, &diag_seq);
        circuit.append_circuit(&ladders);
        for &g in clifford.iter().rev() {
            circuit.push(clifford_to_gate(g.inverse()));
        }
        emitted.extend(cluster.iter().map(|&i| terms[i].clone()));
    }
    TkResult {
        circuit,
        emitted,
        num_clusters: clusters.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pauli::PauliTerm;
    use paulihedral::ir::{Parameter, PauliBlock};

    fn ir_of(strings: &[(&str, f64)]) -> PauliIR {
        let n = strings[0].0.len();
        let mut ir = PauliIR::new(n);
        for (s, w) in strings {
            ir.push_block(PauliBlock::new(
                vec![PauliTerm::new(s.parse().unwrap(), *w)],
                Parameter::time(1.0),
            ));
        }
        ir
    }

    #[test]
    fn commuting_strings_share_a_cluster() {
        let ir = ir_of(&[("ZZI", 0.5), ("IZZ", 0.5), ("XXX", 0.5)]);
        let r = compile_tk(&ir);
        // ZZI and IZZ commute; XXX commutes with neither? It commutes with
        // both actually (two overlaps each)... verify only the count here.
        assert!(r.num_clusters <= 2);
        assert_eq!(r.emitted.len(), 3);
    }

    #[test]
    fn anticommuting_strings_split_clusters() {
        let ir = ir_of(&[("ZI", 1.0), ("XI", 1.0)]);
        let r = compile_tk(&ir);
        assert_eq!(r.num_clusters, 2);
    }

    #[test]
    fn diagonal_clusters_have_no_clifford_overhead() {
        // An Ising-style all-Z program: TK emits only ladders.
        let ir = ir_of(&[("ZZI", 1.0), ("IZZ", 1.0)]);
        let r = compile_tk(&ir);
        let s = r.circuit.stats();
        assert_eq!(s.cnot, 4);
        assert_eq!(s.single, 2);
    }

    #[test]
    fn non_diagonal_clusters_pay_clifford_overhead() {
        // The same Ising chain plus one X-type string forces a Clifford
        // conjugation for its cluster.
        let ir = ir_of(&[("XXI", 1.0), ("IXX", 1.0)]);
        let r = compile_tk(&ir);
        // Strings diagonalize to Z-ladders but H-layer overhead appears.
        assert!(r.circuit.stats().single > 0);
        assert!(r.circuit.stats().cnot >= 4);
    }

    #[test]
    fn emitted_covers_all_strings_in_cluster_order() {
        let ir = ir_of(&[("ZZ", 0.1), ("XX", 0.2), ("YY", 0.3)]);
        let r = compile_tk(&ir);
        assert_eq!(r.emitted.len(), 3);
        // All three mutually commute → single cluster, program order kept.
        assert_eq!(r.num_clusters, 1);
        assert_eq!(r.emitted[0].0.to_string(), "ZZ");
    }
}
