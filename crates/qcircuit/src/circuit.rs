//! The circuit container and its cost metrics.

use std::fmt;

use crate::Gate;

/// Gate-count and depth metrics of a circuit.
///
/// These are the four quantities every table in the paper's evaluation
/// reports: CNOT count, single-qubit gate count, total gate count, and
/// circuit depth (§6.1). Mapped circuits are compared by their
/// [`Circuit::mapped_stats`] (SWAPs decomposed into CNOTs), matching how
/// the paper counts routed circuits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CircuitStats {
    /// Number of CNOT gates.
    pub cnot: usize,
    /// Number of single-qubit gates.
    pub single: usize,
    /// Number of SWAP gates (0 after decomposition).
    pub swap: usize,
    /// Total gate count (`cnot + single + swap`).
    pub total: usize,
    /// Circuit depth (all gates count one time step).
    pub depth: usize,
}

/// An ordered sequence of gates on `n` qubits.
///
/// # Example
///
/// ```
/// use qcircuit::{Circuit, Gate};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::H(0));
/// c.push(Gate::Cx(0, 1));
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.stats().depth, 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Circuit {
    n: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// An empty circuit on `n` qubits.
    pub fn new(n: usize) -> Circuit {
        Circuit {
            n,
            gates: Vec::new(),
        }
    }

    /// The number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The number of gates.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit has no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate references a qubit `>= num_qubits()`.
    pub fn push(&mut self, gate: Gate) {
        let (a, b) = gate.qubits();
        assert!(a < self.n, "gate {gate} out of range for {} qubits", self.n);
        if let Some(b) = b {
            assert!(b < self.n, "gate {gate} out of range for {} qubits", self.n);
            assert_ne!(a, b, "two-qubit gate {gate} on a single qubit");
        }
        self.gates.push(gate);
    }

    /// Appends all gates of `other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` has more qubits than `self`.
    pub fn append_circuit(&mut self, other: &Circuit) {
        assert!(other.n <= self.n, "cannot append a wider circuit");
        for &g in &other.gates {
            self.push(g);
        }
    }

    /// The gates, in order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Iterates over the gates.
    pub fn iter(&self) -> std::slice::Iter<'_, Gate> {
        self.gates.iter()
    }

    /// Replaces the gate list (used by optimization passes).
    pub fn set_gates(&mut self, gates: Vec<Gate>) {
        self.gates.clear();
        for g in gates {
            self.push(g);
        }
    }

    /// Returns the circuit with every `SWAP` decomposed into 3 CNOTs.
    pub fn decompose_swaps(&self) -> Circuit {
        let mut out = Circuit::new(self.n);
        for &g in &self.gates {
            match g {
                Gate::Swap(a, b) => {
                    out.push(Gate::Cx(a, b));
                    out.push(Gate::Cx(b, a));
                    out.push(Gate::Cx(a, b));
                }
                g => out.push(g),
            }
        }
        out
    }

    /// Gate-count and depth metrics of the circuit as-is (SWAPs counted as
    /// SWAPs; see [`Self::mapped_stats`] for mapped circuits).
    pub fn stats(&self) -> CircuitStats {
        self.measure(false)
    }

    /// Metrics after SWAP decomposition — the numbers the paper reports for
    /// mapped (SC-backend) circuits. Equal to
    /// `self.decompose_swaps().stats()` without building that circuit: a
    /// SWAP counts three CNOTs and three levels of depth.
    pub fn mapped_stats(&self) -> CircuitStats {
        self.measure(true)
    }

    /// One pass over the gates; `decompose` prices each SWAP as its
    /// three-CNOT decomposition.
    fn measure(&self, decompose: bool) -> CircuitStats {
        let mut s = CircuitStats::default();
        let mut level = vec![0usize; self.n];
        for g in &self.gates {
            let mut steps = 1;
            match g {
                Gate::Cx(..) => s.cnot += 1,
                Gate::Swap(..) if decompose => {
                    s.cnot += 3;
                    steps = 3;
                }
                Gate::Swap(..) => s.swap += 1,
                _ => s.single += 1,
            }
            let (a, b) = g.qubits();
            let l = match b {
                Some(b) => level[a].max(level[b]) + steps,
                None => level[a] + steps,
            };
            level[a] = l;
            if let Some(b) = b {
                level[b] = l;
            }
            s.depth = s.depth.max(l);
        }
        s.total = s.cnot + s.single + s.swap;
        s
    }

    /// The inverse circuit (gates inverted, order reversed).
    pub fn inverse(&self) -> Circuit {
        let mut out = Circuit::new(self.n);
        for g in self.gates.iter().rev() {
            out.push(g.inverse());
        }
        out
    }

    /// Remaps all qubit indices through `f`, producing a circuit on
    /// `new_n` qubits.
    pub fn map_qubits(&self, new_n: usize, mut f: impl FnMut(usize) -> usize) -> Circuit {
        let mut out = Circuit::new(new_n);
        for g in &self.gates {
            out.push(g.map_qubits(&mut f));
        }
        out
    }

    /// Checks that every two-qubit gate acts on a pair allowed by
    /// `allowed(a, b)` (symmetric check left to the caller's closure).
    pub fn respects_connectivity(&self, mut allowed: impl FnMut(usize, usize) -> bool) -> bool {
        self.gates.iter().all(|g| {
            let (a, b) = g.qubits();
            match b {
                Some(b) => allowed(a, b),
                None => true,
            }
        })
    }
}

impl Extend<Gate> for Circuit {
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        for g in iter {
            self.push(g);
        }
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;
    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit on {} qubits:", self.n)?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_count_gate_families() {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Rz(1, 0.3));
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Swap(1, 2));
        let s = c.stats();
        assert_eq!((s.cnot, s.single, s.swap, s.total), (2, 2, 1, 5));
    }

    #[test]
    fn depth_tracks_parallelism() {
        let mut c = Circuit::new(4);
        // Two disjoint CNOTs run in parallel: depth 1.
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Cx(2, 3));
        assert_eq!(c.stats().depth, 1);
        // A gate bridging the halves serializes: depth 2.
        c.push(Gate::Cx(1, 2));
        assert_eq!(c.stats().depth, 2);
    }

    #[test]
    fn swap_decomposition() {
        let mut c = Circuit::new(2);
        c.push(Gate::Swap(0, 1));
        let d = c.decompose_swaps();
        assert_eq!(d.len(), 3);
        assert_eq!(d.stats().cnot, 3);
        assert_eq!(c.mapped_stats().cnot, 3);
        assert_eq!(c.mapped_stats().swap, 0);
    }

    #[test]
    fn mapped_stats_equal_the_stats_of_the_decomposed_circuit() {
        // Deterministic pseudo-random circuits over every gate family,
        // SWAPs included, so depth interleavings are exercised too.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % m) as usize
        };
        for n in 2..6 {
            for _ in 0..50 {
                let mut c = Circuit::new(n);
                for _ in 0..next(40) {
                    let a = next(n as u64);
                    let b = (a + 1 + next(n as u64 - 1)) % n;
                    c.push(match next(5) {
                        0 => Gate::H(a),
                        1 => Gate::Rz(a, 0.25),
                        2 => Gate::Cx(a, b),
                        _ => Gate::Swap(a, b),
                    });
                }
                assert_eq!(c.mapped_stats(), c.decompose_swaps().stats(), "{c}");
            }
        }
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.push(Gate::S(0));
        c.push(Gate::Cx(0, 1));
        let inv = c.inverse();
        assert_eq!(inv.gates(), &[Gate::Cx(0, 1), Gate::Sdg(0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_validates_qubits() {
        Circuit::new(2).push(Gate::H(2));
    }

    #[test]
    #[should_panic(expected = "single qubit")]
    fn push_rejects_degenerate_two_qubit_gate() {
        Circuit::new(2).push(Gate::Cx(1, 1));
    }

    #[test]
    fn connectivity_check() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Cx(1, 2));
        assert!(c.respects_connectivity(|a, b| a.abs_diff(b) == 1));
        c.push(Gate::Cx(0, 2));
        assert!(!c.respects_connectivity(|a, b| a.abs_diff(b) == 1));
    }

    #[test]
    fn map_qubits_embeds() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx(0, 1));
        let m = c.map_qubits(5, |q| q + 3);
        assert_eq!(m.gates(), &[Gate::Cx(3, 4)]);
        assert_eq!(m.num_qubits(), 5);
    }
}
