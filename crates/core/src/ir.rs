//! The Pauli IR: blocks, programs, and their structural queries.
//!
//! Syntax (paper Fig. 5): a *program* is a list of *pauli_blocks*; each
//! block is a list of weighted Pauli strings sharing one real parameter.
//! Semantics (Fig. 7) is the Hermitian operator
//! `Σ_blocks parameter · Σ_strings weight · P` — commutative matrix
//! addition, which licenses every reordering the scheduler performs while
//! keeping strings of one block together.

use std::fmt;

use pauli::{PauliString, PauliTerm};

/// The real-valued parameter shared by all strings of a block: a Trotter
/// step `Δt` or a variational parameter (`θ`, `γ`, …).
#[derive(Clone, Debug, PartialEq)]
pub struct Parameter {
    /// Display name (`None` for anonymous time steps).
    pub name: Option<String>,
    /// The numeric value used when lowering to rotation angles.
    pub value: f64,
}

impl Parameter {
    /// An anonymous numeric parameter (e.g. a Trotter `Δt`).
    pub fn time(value: f64) -> Parameter {
        Parameter { name: None, value }
    }

    /// A named variational parameter with its current value.
    pub fn named(name: impl Into<String>, value: f64) -> Parameter {
        Parameter {
            name: Some(name.into()),
            value,
        }
    }
}

impl fmt::Display for Parameter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.name {
            Some(n) => write!(f, "{n}"),
            None => write!(f, "{}", self.value),
        }
    }
}

/// One `pauli_block`: weighted Pauli strings that must stay together
/// (parameter sharing, symmetry preservation, error suppression — §3.2),
/// plus the shared parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct PauliBlock {
    /// The weighted strings of the block.
    pub terms: Vec<PauliTerm>,
    /// The shared parameter.
    pub parameter: Parameter,
}

impl PauliBlock {
    /// Creates a block.
    ///
    /// # Panics
    ///
    /// Panics if `terms` is empty or the strings disagree on qubit count.
    pub fn new(terms: Vec<PauliTerm>, parameter: Parameter) -> PauliBlock {
        assert!(!terms.is_empty(), "a pauli_block needs at least one string");
        let n = terms[0].num_qubits();
        assert!(
            terms.iter().all(|t| t.num_qubits() == n),
            "all strings in a block must have the same qubit count"
        );
        PauliBlock { terms, parameter }
    }

    /// A block holding a single weighted string.
    pub fn single(string: PauliString, weight: f64, parameter: Parameter) -> PauliBlock {
        PauliBlock::new(vec![PauliTerm::new(string, weight)], parameter)
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.terms[0].num_qubits()
    }

    /// Qubits with a non-identity operator in **at least one** string
    /// ("active qubits", §5.2), ascending.
    pub fn active_qubits(&self) -> Vec<usize> {
        pauli::set_bits(self.active_mask())
    }

    /// The *active length*: the number of active qubits (Alg. 1's block
    /// size measure). Word-parallel — a popcount over the active mask
    /// rather than a per-qubit scan.
    pub fn active_len(&self) -> usize {
        self.active_mask()
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Qubits with a non-identity operator in **every** string (the "core
    /// qubit list" of Alg. 3).
    pub fn core_qubits(&self) -> Vec<usize> {
        let mut mask = vec![u64::MAX; self.num_qubits().div_ceil(64)];
        for t in &self.terms {
            let (x, z) = (t.string.x_words(), t.string.z_words());
            for (w, m) in mask.iter_mut().enumerate() {
                *m &= x[w] | z[w];
            }
        }
        pauli::set_bits(mask)
    }

    /// Whether this block's active qubits are disjoint from another's.
    pub fn disjoint_with(&self, other: &PauliBlock) -> bool {
        let mine = self.active_mask();
        let theirs = other.active_mask();
        mine.iter().zip(&theirs).all(|(a, b)| a & b == 0)
    }

    /// Word-packed mask of active qubits.
    pub fn active_mask(&self) -> Vec<u64> {
        let words = self.num_qubits().div_ceil(64);
        let mut mask = vec![0u64; words];
        for t in &self.terms {
            for (w, m) in mask.iter_mut().enumerate() {
                *m |= t.string.x_words()[w] | t.string.z_words()[w];
            }
        }
        mask
    }

    /// Sorts the strings of the block into the paper's lexicographic order
    /// (`X < Y < Z < I` from the top qubit down, §4.1).
    pub fn sort_terms_lex(&mut self) {
        self.terms.sort_by(|a, b| a.string.lex_cmp(&b.string));
    }

    /// The representative string (the first one; callers sort first when
    /// the representative must be the lexicographic minimum).
    pub fn representative(&self) -> &PauliString {
        &self.terms[0].string
    }

    /// Chain-synthesis depth estimate: `Σ_strings (2·(support−1) + 1)`,
    /// skipping identity strings. Used by the padding budget of Alg. 1.
    pub fn depth_estimate(&self) -> usize {
        self.terms
            .iter()
            .map(|t| {
                let w = t.string.weight();
                if w == 0 {
                    0
                } else {
                    2 * (w - 1) + 1
                }
            })
            .sum()
    }

    /// The rotation exponent `θ = weight · parameter` of term `i`: the
    /// compiled gadget implements `exp(iθP)`.
    pub fn theta(&self, i: usize) -> f64 {
        self.terms[i].weight * self.parameter.value
    }
}

impl fmt::Display for PauliBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for t in &self.terms {
            write!(f, "{t}, ")?;
        }
        write!(f, "{}}}", self.parameter)
    }
}

/// A Pauli IR *program*: an ordered list of blocks on `n` qubits.
///
/// # Example
///
/// ```
/// use paulihedral::ir::{Parameter, PauliBlock, PauliIR};
/// use pauli::PauliTerm;
///
/// let mut prog = PauliIR::new(3);
/// prog.push_block(PauliBlock::new(
///     vec![PauliTerm::new("IZZ".parse()?, 1.0)],
///     Parameter::named("gamma", 0.4),
/// ));
/// assert_eq!(prog.num_blocks(), 1);
/// assert_eq!(prog.total_strings(), 1);
/// # Ok::<(), pauli::ParsePauliError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PauliIR {
    n: usize,
    blocks: Vec<PauliBlock>,
}

impl PauliIR {
    /// An empty program on `n` qubits.
    pub fn new(n: usize) -> PauliIR {
        PauliIR {
            n,
            blocks: Vec::new(),
        }
    }

    /// Builds the Hamiltonian-simulation form: every term becomes its own
    /// single-string block sharing the Trotter step `dt` (Fig. 6(a)).
    pub fn from_hamiltonian(n: usize, terms: Vec<PauliTerm>, dt: f64) -> PauliIR {
        let mut ir = PauliIR::new(n);
        for t in terms {
            ir.push_block(PauliBlock::new(vec![t], Parameter::time(dt)));
        }
        ir
    }

    /// Builds the one-block form used by QAOA cost Hamiltonians: all terms
    /// share a single parameter (Fig. 6(c)).
    pub fn single_block(n: usize, terms: Vec<PauliTerm>, parameter: Parameter) -> PauliIR {
        let mut ir = PauliIR::new(n);
        ir.push_block(PauliBlock::new(terms, parameter));
        ir
    }

    /// Appends a block.
    ///
    /// # Panics
    ///
    /// Panics if the block's qubit count differs from the program's.
    pub fn push_block(&mut self, block: PauliBlock) {
        assert_eq!(block.num_qubits(), self.n, "block qubit count mismatch");
        self.blocks.push(block);
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The blocks, in program order.
    pub fn blocks(&self) -> &[PauliBlock] {
        &self.blocks
    }

    /// The number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The total number of Pauli strings across blocks (the paper's
    /// "Pauli #").
    pub fn total_strings(&self) -> usize {
        self.blocks.iter().map(|b| b.terms.len()).sum()
    }
}

impl fmt::Display for PauliIR {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.blocks {
            writeln!(f, "{b};")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(s: &str, w: f64) -> PauliTerm {
        PauliTerm::new(s.parse().unwrap(), w)
    }

    #[test]
    fn active_and_core_qubits() {
        let b = PauliBlock::new(
            vec![term("IIXY", 0.5), term("IXYI", -0.5)],
            Parameter::named("t1", 1.0),
        );
        assert_eq!(b.active_qubits(), vec![0, 1, 2]);
        assert_eq!(b.active_len(), 3);
        assert_eq!(b.core_qubits(), vec![1]);
    }

    #[test]
    fn active_and_core_qubits_match_per_qubit_scans_across_three_words() {
        // 150 qubits span three words; the strings share qubits on either
        // side of both word boundaries.
        let n = 150;
        let ops = |qs: &[usize], p| PauliTerm::new(PauliString::with_ops(n, qs, p), 1.0);
        let b = PauliBlock::new(
            vec![
                ops(&[0, 5, 63, 64, 127, 128, 149], pauli::Pauli::Z),
                ops(&[5, 63, 64, 100, 128, 149], pauli::Pauli::X),
                ops(&[1, 5, 63, 64, 128, 140, 149], pauli::Pauli::Y),
            ],
            Parameter::time(0.1),
        );
        let active: Vec<usize> = (0..n)
            .filter(|&q| b.terms.iter().any(|t| t.string.is_active(q)))
            .collect();
        let core: Vec<usize> = (0..n)
            .filter(|&q| b.terms.iter().all(|t| t.string.is_active(q)))
            .collect();
        assert_eq!(b.active_qubits(), active);
        assert_eq!(b.core_qubits(), core);
        assert_eq!(core, vec![5, 63, 64, 128, 149]);
    }

    #[test]
    fn disjointness() {
        let a = PauliBlock::single("XXII".parse().unwrap(), 1.0, Parameter::time(1.0));
        let b = PauliBlock::single("IIZZ".parse().unwrap(), 1.0, Parameter::time(1.0));
        let c = PauliBlock::single("IZZI".parse().unwrap(), 1.0, Parameter::time(1.0));
        assert!(a.disjoint_with(&b));
        assert!(!b.disjoint_with(&c));
    }

    #[test]
    fn lex_sort_within_block() {
        let mut b = PauliBlock::new(
            vec![term("ZZII", 1.0), term("XYII", 1.0), term("YXII", 1.0)],
            Parameter::time(1.0),
        );
        b.sort_terms_lex();
        let order: Vec<String> = b.terms.iter().map(|t| t.string.to_string()).collect();
        assert_eq!(order, vec!["XYII", "YXII", "ZZII"]);
        assert_eq!(b.representative().to_string(), "XYII");
    }

    #[test]
    fn depth_estimate_matches_chain_synthesis() {
        // support 3 → 2·2+1 = 5; support 1 → 1.
        let b = PauliBlock::new(
            vec![term("ZZZ", 1.0), term("IIX", 1.0)],
            Parameter::time(1.0),
        );
        assert_eq!(b.depth_estimate(), 6);
    }

    #[test]
    fn theta_combines_weight_and_parameter() {
        let b = PauliBlock::new(vec![term("ZZ", 0.25)], Parameter::named("g", 2.0));
        assert_eq!(b.theta(0), 0.5);
    }

    #[test]
    fn program_construction_forms() {
        let h = PauliIR::from_hamiltonian(2, vec![term("ZZ", 1.0), term("XI", 0.5)], 0.1);
        assert_eq!(h.num_blocks(), 2);
        let q = PauliIR::single_block(
            2,
            vec![term("ZZ", 1.0), term("XI", 0.5)],
            Parameter::named("gamma", 0.3),
        );
        assert_eq!(q.num_blocks(), 1);
        assert_eq!(q.total_strings(), 2);
    }

    #[test]
    #[should_panic(expected = "qubit count mismatch")]
    fn rejects_mismatched_blocks() {
        let mut ir = PauliIR::new(3);
        ir.push_block(PauliBlock::single(
            "ZZ".parse().unwrap(),
            1.0,
            Parameter::time(1.0),
        ));
    }

    #[test]
    #[should_panic(expected = "at least one string")]
    fn rejects_empty_blocks() {
        PauliBlock::new(vec![], Parameter::time(1.0));
    }
}
