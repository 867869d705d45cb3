//! Symplectic Clifford tableau for simultaneous diagonalization.
//!
//! The t|ket⟩-style baseline ("TK" in the paper's evaluation) optimizes
//! simulation kernels by partitioning Pauli strings into mutually commuting
//! clusters and *simultaneously diagonalizing* each cluster with a Clifford
//! circuit [14–17]. This module provides the symplectic-representation
//! machinery for that: a set of Pauli strings (rows) is conjugated by
//! H/S/CNOT gates, with Aaronson–Gottesman sign tracking, until every row is
//! a (signed) Z-only string.

use std::fmt;

use crate::{Pauli, PauliString};

/// A Clifford gate recorded while transforming a [`Tableau`].
///
/// The gate sequence `g_1, …, g_k` (in emission order) defines the Clifford
/// `G = g_k ⋯ g_1`; the tableau rows hold `G P G†` for each input string
/// `P`. Consumers translate these into their own circuit gate set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CliffordGate {
    /// Hadamard on a qubit.
    H(usize),
    /// Phase gate S on a qubit.
    S(usize),
    /// Inverse phase gate S† on a qubit.
    Sdg(usize),
    /// CNOT with `(control, target)`.
    Cx(usize, usize),
}

impl CliffordGate {
    /// The inverse gate (CNOT and H are self-inverse; S ↔ S†).
    pub fn inverse(self) -> CliffordGate {
        match self {
            CliffordGate::S(q) => CliffordGate::Sdg(q),
            CliffordGate::Sdg(q) => CliffordGate::S(q),
            g => g,
        }
    }
}

/// Error returned by [`Tableau::diagonalize`] when the rows cannot be
/// simultaneously diagonalized (i.e. they do not mutually commute).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiagonalizeError {
    /// A row that still carries an X/Y operator after elimination.
    pub row: usize,
}

impl fmt::Display for DiagonalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "row {} could not be diagonalized; the input strings do not mutually commute",
            self.row
        )
    }
}

impl std::error::Error for DiagonalizeError {}

/// A set of Pauli strings under Clifford conjugation.
///
/// # Example
///
/// ```
/// use pauli::{PauliString, Tableau};
///
/// let rows: Vec<PauliString> = ["XX", "ZZ"].iter().map(|s| s.parse().unwrap()).collect();
/// let mut t = Tableau::from_strings(&rows);
/// t.diagonalize().unwrap();
/// assert!(t.is_diagonal());
/// // The recorded gates conjugate the original strings to the final rows.
/// assert!(!t.gates().is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct Tableau {
    n: usize,
    rows: Vec<PauliString>,
    /// `true` = the row carries a −1 sign.
    signs: Vec<bool>,
    gates: Vec<CliffordGate>,
}

impl Tableau {
    /// Builds a tableau whose rows are the given strings (all signs `+`).
    ///
    /// # Panics
    ///
    /// Panics if `strings` is empty or the strings disagree on qubit count.
    pub fn from_strings(strings: &[PauliString]) -> Tableau {
        assert!(!strings.is_empty(), "tableau needs at least one row");
        let n = strings[0].num_qubits();
        assert!(
            strings.iter().all(|s| s.num_qubits() == n),
            "all rows must have the same qubit count"
        );
        Tableau {
            n,
            rows: strings.to_vec(),
            signs: vec![false; strings.len()],
            gates: Vec::new(),
        }
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The current (conjugated) form of row `r`.
    pub fn row(&self, r: usize) -> &PauliString {
        &self.rows[r]
    }

    /// Whether row `r` currently carries a −1 sign.
    pub fn sign(&self, r: usize) -> bool {
        self.signs[r]
    }

    /// The Clifford gates applied so far, in application order.
    pub fn gates(&self) -> &[CliffordGate] {
        &self.gates
    }

    /// Whether every row is a (possibly signed) Z-only string.
    pub fn is_diagonal(&self) -> bool {
        self.rows
            .iter()
            .all(|row| row.x_words().iter().all(|&w| w == 0))
    }

    /// Applies (and records) a Clifford gate, conjugating every row.
    pub fn apply(&mut self, gate: CliffordGate) {
        match gate {
            CliffordGate::H(q) => self.conj_h(q),
            CliffordGate::S(q) => self.conj_s(q),
            CliffordGate::Sdg(q) => self.conj_sdg(q),
            CliffordGate::Cx(c, t) => self.conj_cx(c, t),
        }
        self.gates.push(gate);
    }

    /// Applies H on qubit `q`.
    pub fn h(&mut self, q: usize) {
        self.apply(CliffordGate::H(q));
    }

    /// Applies S on qubit `q`.
    pub fn s(&mut self, q: usize) {
        self.apply(CliffordGate::S(q));
    }

    /// Applies S† on qubit `q`.
    pub fn sdg(&mut self, q: usize) {
        self.apply(CliffordGate::Sdg(q));
    }

    /// Applies CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: usize, t: usize) {
        self.apply(CliffordGate::Cx(c, t));
    }

    /// Applies CZ between `a` and `b` as the composite `H(b)·CX(a,b)·H(b)`.
    pub fn cz(&mut self, a: usize, b: usize) {
        self.h(b);
        self.cx(a, b);
        self.h(b);
    }

    fn conj_h(&mut self, q: usize) {
        for r in 0..self.rows.len() {
            let p = self.rows[r].get(q);
            let (x, z) = p.bits();
            // H: X ↔ Z, Y → −Y.
            self.signs[r] ^= x & z;
            self.rows[r].set(q, Pauli::from_bits(z, x));
        }
    }

    fn conj_s(&mut self, q: usize) {
        for r in 0..self.rows.len() {
            let (x, z) = self.rows[r].get(q).bits();
            // S: X → Y, Y → −X, Z → Z.
            self.signs[r] ^= x & z;
            self.rows[r].set(q, Pauli::from_bits(x, z ^ x));
        }
    }

    fn conj_sdg(&mut self, q: usize) {
        for r in 0..self.rows.len() {
            let (x, z) = self.rows[r].get(q).bits();
            // S†: X → −Y, Y → X, Z → Z.
            self.signs[r] ^= x & !z;
            self.rows[r].set(q, Pauli::from_bits(x, z ^ x));
        }
    }

    fn conj_cx(&mut self, c: usize, t: usize) {
        assert_ne!(c, t, "CNOT control and target must differ");
        for r in 0..self.rows.len() {
            let (xc, zc) = self.rows[r].get(c).bits();
            let (xt, zt) = self.rows[r].get(t).bits();
            // Aaronson–Gottesman sign rule.
            self.signs[r] ^= xc & zt & !(xt ^ zc);
            self.rows[r].set(t, Pauli::from_bits(xt ^ xc, zt));
            self.rows[r].set(c, Pauli::from_bits(xc, zc ^ zt));
        }
    }

    /// Reduces every row to a signed Z-only string by applying Clifford
    /// gates, recording them in [`Self::gates`].
    ///
    /// This is the simultaneous-diagonalization step of the TK baseline:
    /// given mutually commuting rows it always succeeds, and the recorded
    /// circuit `G` satisfies `G · P_r · G† = ±Z_S(r)` for every row.
    ///
    /// # Errors
    ///
    /// Returns [`DiagonalizeError`] if the rows do not mutually commute
    /// (detected when a row cannot be cleared).
    pub fn diagonalize(&mut self) -> Result<(), DiagonalizeError> {
        for r in 0..self.rows.len() {
            self.clear_row(r);
        }
        // A non-commuting input manifests as a row that H(q) re-excited.
        for (r, row) in self.rows.iter().enumerate() {
            if row.x_words().iter().any(|&w| w != 0) {
                return Err(DiagonalizeError { row: r });
            }
        }
        Ok(())
    }

    /// Makes row `r` Z-only (best effort; see [`Self::diagonalize`]).
    fn clear_row(&mut self, r: usize) {
        let x_support = |row: &PauliString| -> Vec<usize> {
            row.support()
                .into_iter()
                .filter(|&q| matches!(row.get(q), Pauli::X | Pauli::Y))
                .collect()
        };
        let xs = x_support(&self.rows[r]);
        let Some(&q) = xs.first() else {
            return; // already diagonal
        };
        // Clear X components on all other qubits of this row: CX(q, j)
        // flips x_j by x_q, which is 1 for row r.
        for &j in &xs[1..] {
            self.cx(q, j);
        }
        // Clear a Y on the pivot into an X.
        if matches!(self.rows[r].get(q), Pauli::Y) {
            self.s(q);
        }
        // Clear remaining Z components on other qubits: CZ(q, j) maps
        // X_q Z_j → X_q (the X on the pivot absorbs the Z).
        let zs: Vec<usize> = self.rows[r]
            .support()
            .into_iter()
            .filter(|&j| j != q && matches!(self.rows[r].get(j), Pauli::Z))
            .collect();
        for j in zs {
            self.cz(q, j);
        }
        // Row r is now ±X_q; rotate it onto Z_q.
        if matches!(self.rows[r].get(q), Pauli::X) {
            self.h(q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    fn single(s: &str) -> Tableau {
        Tableau::from_strings(&[ps(s)])
    }

    #[test]
    fn h_conjugation_table() {
        // H X H = Z, H Z H = X, H Y H = −Y.
        let mut t = single("X");
        t.h(0);
        assert_eq!((t.row(0).clone(), t.sign(0)), (ps("Z"), false));
        let mut t = single("Z");
        t.h(0);
        assert_eq!((t.row(0).clone(), t.sign(0)), (ps("X"), false));
        let mut t = single("Y");
        t.h(0);
        assert_eq!((t.row(0).clone(), t.sign(0)), (ps("Y"), true));
    }

    #[test]
    fn s_conjugation_table() {
        // S X S† = Y, S Y S† = −X, S Z S† = Z.
        let mut t = single("X");
        t.s(0);
        assert_eq!((t.row(0).clone(), t.sign(0)), (ps("Y"), false));
        let mut t = single("Y");
        t.s(0);
        assert_eq!((t.row(0).clone(), t.sign(0)), (ps("X"), true));
        let mut t = single("Z");
        t.s(0);
        assert_eq!((t.row(0).clone(), t.sign(0)), (ps("Z"), false));
    }

    #[test]
    fn sdg_is_inverse_of_s() {
        for s in ["X", "Y", "Z"] {
            let mut t = single(s);
            t.s(0);
            t.sdg(0);
            assert_eq!((t.row(0).clone(), t.sign(0)), (ps(s), false));
        }
    }

    #[test]
    fn cx_conjugation_table() {
        // Qubit 1 = control, qubit 0 = target in "ct"-style strings below
        // (remember: leftmost char is the highest qubit).
        let cases = [
            ("XI", "XX", false), // X_c → X_c X_t
            ("IZ", "ZZ", false), // Z_t → Z_c Z_t
            ("IX", "IX", false),
            ("ZI", "ZI", false),
            ("XZ", "YY", true), // X_c Z_t → −Y_c Y_t
        ];
        for (input, want, sign) in cases {
            let mut t = single(input);
            t.cx(1, 0);
            assert_eq!(
                (t.row(0).clone(), t.sign(0)),
                (ps(want), sign),
                "CX conjugation of {input}"
            );
        }
    }

    #[test]
    fn cz_preserves_diagonal_strings() {
        let mut t = Tableau::from_strings(&[ps("ZI"), ps("IZ"), ps("ZZ")]);
        t.cz(1, 0);
        for r in 0..3 {
            assert!(matches!(t.row(r).get(0), Pauli::I | Pauli::Z));
            assert!(matches!(t.row(r).get(1), Pauli::I | Pauli::Z));
            assert!(!t.sign(r));
        }
    }

    #[test]
    fn diagonalize_bell_pair_stabilizers() {
        let mut t = Tableau::from_strings(&[ps("XX"), ps("ZZ")]);
        t.diagonalize().unwrap();
        assert!(t.is_diagonal());
        assert!(!t.row(0).is_identity());
        assert!(!t.row(1).is_identity());
    }

    #[test]
    fn diagonalize_leaves_z_strings_untouched() {
        let mut t = Tableau::from_strings(&[ps("ZZI"), ps("IZZ")]);
        t.diagonalize().unwrap();
        assert!(t.gates().is_empty());
        assert_eq!(t.row(0), &ps("ZZI"));
    }

    #[test]
    fn diagonalize_rejects_anticommuting_rows() {
        let mut t = Tableau::from_strings(&[ps("X"), ps("Z")]);
        assert!(t.diagonalize().is_err());
    }

    #[test]
    fn diagonalize_random_commuting_sets() {
        // Build a commuting set by Clifford-conjugating diagonal strings,
        // then check diagonalization succeeds and commutation is preserved.
        let seeds: [(u64, usize, usize); 4] = [(1, 4, 3), (2, 6, 5), (3, 8, 8), (4, 5, 2)];
        for (seed, n, k) in seeds {
            let mut state = seed;
            let mut next = || {
                // xorshift64
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut rows = Vec::new();
            for _ in 0..k {
                let mut p = PauliString::identity(n);
                for q in 0..n {
                    if next() % 2 == 0 {
                        p.set(q, Pauli::Z);
                    }
                }
                rows.push(p);
            }
            let mut t = Tableau::from_strings(&rows);
            // Scramble with random Cliffords (conjugation preserves commutation).
            for _ in 0..40 {
                match next() % 3 {
                    0 => t.h((next() % n as u64) as usize),
                    1 => t.s((next() % n as u64) as usize),
                    _ => {
                        let c = (next() % n as u64) as usize;
                        let mut tq = (next() % n as u64) as usize;
                        if tq == c {
                            tq = (tq + 1) % n;
                        }
                        t.cx(c, tq);
                    }
                }
            }
            let scrambled: Vec<PauliString> = (0..k).map(|r| t.row(r).clone()).collect();
            for a in 0..k {
                for b in a + 1..k {
                    assert!(scrambled[a].commutes_with(&scrambled[b]));
                }
            }
            let mut t2 = Tableau::from_strings(&scrambled);
            t2.diagonalize().unwrap();
            assert!(t2.is_diagonal(), "seed {seed}");
        }
    }

    #[test]
    fn inverse_gates() {
        assert_eq!(CliffordGate::S(3).inverse(), CliffordGate::Sdg(3));
        assert_eq!(CliffordGate::Sdg(3).inverse(), CliffordGate::S(3));
        assert_eq!(CliffordGate::H(1).inverse(), CliffordGate::H(1));
        assert_eq!(CliffordGate::Cx(0, 1).inverse(), CliffordGate::Cx(0, 1));
    }
}
