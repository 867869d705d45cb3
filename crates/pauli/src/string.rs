//! Bit-packed n-qubit Pauli strings.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

use crate::Pauli;

/// An n-qubit Pauli string stored as two bit planes (`x`, `z`) of `u64`
/// words, one bit per qubit.
///
/// Word-parallel popcount queries make the Paulihedral passes scalable: the
/// scheduling and synthesis algorithms only ever ask set-style questions
/// (commutation, operator overlap, shared/disjoint support), all of which
/// are a handful of AND/XOR/popcount operations here.
///
/// # Example
///
/// ```
/// use pauli::{Pauli, PauliString};
///
/// let mut p = PauliString::identity(5);
/// p.set(4, Pauli::Y);
/// p.set(3, Pauli::Z);
/// p.set(1, Pauli::X);
/// p.set(0, Pauli::Z);
/// assert_eq!(p.to_string(), "YZIXZ");
/// assert_eq!(p.support(), vec![0, 1, 3, 4]);
/// assert_eq!(p.weight(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PauliString {
    n: usize,
    x: Vec<u64>,
    z: Vec<u64>,
}

/// Error returned when parsing a [`PauliString`] from text fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsePauliError {
    /// The offending character, if any (`None` for an empty string).
    pub bad_char: Option<char>,
}

impl fmt::Display for ParsePauliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.bad_char {
            Some(c) => write!(f, "invalid pauli character `{c}` (expected I, X, Y or Z)"),
            None => write!(f, "empty pauli string"),
        }
    }
}

impl std::error::Error for ParsePauliError {}

const fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// The indices of the set bits of a word-packed bit set (bit `b` of word
/// `w` is index `64·w + b`), ascending. One step per set bit, not per
/// index.
///
/// ```
/// assert_eq!(pauli::set_bits([0b1010, 0, 1]), vec![1, 3, 128]);
/// ```
pub fn set_bits(words: impl IntoIterator<Item = u64>) -> Vec<usize> {
    let mut out = Vec::new();
    for (w, mut m) in words.into_iter().enumerate() {
        while m != 0 {
            out.push(64 * w + m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
    out
}

impl PauliString {
    /// The all-identity string on `n` qubits.
    pub fn identity(n: usize) -> PauliString {
        PauliString {
            n,
            x: vec![0; words_for(n)],
            z: vec![0; words_for(n)],
        }
    }

    /// Builds a string that is `p` on every qubit of `support` and identity
    /// elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if any qubit in `support` is `>= n`.
    pub fn with_ops(n: usize, support: &[usize], p: Pauli) -> PauliString {
        let mut s = PauliString::identity(n);
        for &q in support {
            s.set(q, p);
        }
        s
    }

    /// Builds a string from explicit per-qubit operators; `ops[i]` is the
    /// operator on qubit `i`.
    pub fn from_ops(ops: &[Pauli]) -> PauliString {
        let mut s = PauliString::identity(ops.len());
        for (q, &p) in ops.iter().enumerate() {
            s.set(q, p);
        }
        s
    }

    /// Reassembles a string from its raw bit planes (the inverse of
    /// [`Self::x_words`]/[`Self::z_words`] — used when deserializing
    /// persisted compilation artifacts).
    ///
    /// Returns `None` instead of panicking when the planes are not a valid
    /// encoding — wrong word count, or stray bits above qubit `n - 1` —
    /// because callers feed this untrusted bytes.
    pub fn from_bit_planes(n: usize, x: Vec<u64>, z: Vec<u64>) -> Option<PauliString> {
        let words = words_for(n);
        if x.len() != words || z.len() != words {
            return None;
        }
        if !n.is_multiple_of(64) && words > 0 {
            let tail_mask = !0u64 << (n % 64);
            if x[words - 1] & tail_mask != 0 || z[words - 1] & tail_mask != 0 {
                return None;
            }
        }
        Some(PauliString { n, x, z })
    }

    /// The number of qubits `n`.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The operator on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= self.num_qubits()`.
    #[inline]
    pub fn get(&self, q: usize) -> Pauli {
        assert!(
            q < self.n,
            "qubit {q} out of range for {}-qubit string",
            self.n
        );
        let (w, b) = (q / 64, q % 64);
        Pauli::from_bits((self.x[w] >> b) & 1 == 1, (self.z[w] >> b) & 1 == 1)
    }

    /// Sets the operator on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= self.num_qubits()`.
    #[inline]
    pub fn set(&mut self, q: usize, p: Pauli) {
        assert!(
            q < self.n,
            "qubit {q} out of range for {}-qubit string",
            self.n
        );
        let (w, b) = (q / 64, q % 64);
        let (xb, zb) = p.bits();
        self.x[w] = (self.x[w] & !(1 << b)) | ((xb as u64) << b);
        self.z[w] = (self.z[w] & !(1 << b)) | ((zb as u64) << b);
    }

    /// Whether every qubit carries the identity.
    pub fn is_identity(&self) -> bool {
        self.x.iter().all(|&w| w == 0) && self.z.iter().all(|&w| w == 0)
    }

    /// The qubits carrying a non-identity operator, ascending.
    pub fn support(&self) -> Vec<usize> {
        set_bits(self.x.iter().zip(&self.z).map(|(&x, &z)| x | z))
    }

    /// The number of non-identity operators (a.k.a. the Pauli weight).
    #[inline]
    pub fn weight(&self) -> usize {
        self.x
            .iter()
            .zip(&self.z)
            .map(|(&x, &z)| (x | z).count_ones() as usize)
            .sum()
    }

    /// Whether qubit `q` carries a non-identity operator.
    #[inline]
    pub fn is_active(&self, q: usize) -> bool {
        let (w, b) = (q / 64, q % 64);
        ((self.x[w] | self.z[w]) >> b) & 1 == 1
    }

    /// Whether `self` and `other` commute as Hermitian operators.
    ///
    /// Two Pauli strings commute iff they anticommute on an even number of
    /// qubits, i.e. the symplectic form `Σ x_a·z_b ⊕ z_a·x_b` vanishes.
    ///
    /// # Panics
    ///
    /// Panics if the strings have different qubit counts.
    pub fn commutes_with(&self, other: &PauliString) -> bool {
        self.assert_same_n(other);
        let mut parity = 0u32;
        for w in 0..self.x.len() {
            parity ^= (self.x[w] & other.z[w]).count_ones() & 1;
            parity ^= (self.z[w] & other.x[w]).count_ones() & 1;
        }
        parity == 0
    }

    /// The number of qubits where `self` and `other` carry the **same
    /// non-identity** operator.
    ///
    /// This is the paper's operator-overlap measure driving block scheduling
    /// (Alg. 1 line 5) and layer pairing (Alg. 2 line 3): gates between two
    /// adjacent simulation circuits can only cancel on qubits where the
    /// operators (and hence basis-change gates) coincide.
    pub fn overlap(&self, other: &PauliString) -> usize {
        self.assert_same_n(other);
        let mut count = 0usize;
        for w in 0..self.x.len() {
            let eq_x = !(self.x[w] ^ other.x[w]);
            let eq_z = !(self.z[w] ^ other.z[w]);
            let non_i = self.x[w] | self.z[w];
            count += (eq_x & eq_z & non_i).count_ones() as usize;
        }
        count
    }

    /// The number of qubits active (non-identity) in **both** strings,
    /// regardless of which operator they carry.
    pub fn shared_support(&self, other: &PauliString) -> usize {
        self.assert_same_n(other);
        self.x
            .iter()
            .zip(&self.z)
            .zip(other.x.iter().zip(&other.z))
            .map(|((&xa, &za), (&xb, &zb))| ((xa | za) & (xb | zb)).count_ones() as usize)
            .sum()
    }

    /// Whether the active-qubit sets of the two strings are disjoint.
    pub fn disjoint_support(&self, other: &PauliString) -> bool {
        self.shared_support(other) == 0
    }

    /// Operator product `self · other = i^k · p`; returns `(p, k)` with
    /// `k ∈ {0,1,2,3}` the exponent of the global phase `i^k`.
    pub fn mul(&self, other: &PauliString) -> (PauliString, u8) {
        self.assert_same_n(other);
        let mut out = PauliString::identity(self.n);
        let mut phase = 0u8;
        for q in 0..self.n {
            let (p, k) = self.get(q).mul(other.get(q));
            out.set(q, p);
            phase = (phase + k) % 4;
        }
        (out, phase)
    }

    /// The paper's lexicographic order: `X < Y < Z < I`, compared from qubit
    /// `n−1` down to qubit `0` (§4.1).
    ///
    /// # Panics
    ///
    /// Panics if the strings have different qubit counts.
    pub fn lex_cmp(&self, other: &PauliString) -> Ordering {
        self.assert_same_n(other);
        // Word-parallel: in the X < Y < Z < I order a qubit's rank is the
        // 2-bit value (bit1 = !x, bit0 = !(x ^ z)), so two qubits compare
        // equal iff their (x, z) bit pairs are equal. The deciding qubit is
        // therefore the top set bit of the per-word diff mask, scanned from
        // the high word down — one AND/XOR pass instead of n `get` calls.
        for w in (0..self.x.len()).rev() {
            let diff = (self.x[w] ^ other.x[w]) | (self.z[w] ^ other.z[w]);
            if diff != 0 {
                let b = 63 - diff.leading_zeros();
                let rank = |x: u64, z: u64| ((!x >> b & 1) << 1) | (!(x ^ z) >> b & 1);
                return rank(self.x[w], self.z[w]).cmp(&rank(other.x[w], other.z[w]));
            }
        }
        Ordering::Equal
    }

    /// Iterates over the per-qubit operators, qubit `0` first.
    pub fn iter(&self) -> impl Iterator<Item = Pauli> + '_ {
        (0..self.n).map(move |q| self.get(q))
    }

    /// The `x` bit plane (one bit per qubit, qubit `q` at bit `q % 64` of
    /// word `q / 64`).
    pub fn x_words(&self) -> &[u64] {
        &self.x
    }

    /// The `z` bit plane; see [`Self::x_words`].
    pub fn z_words(&self) -> &[u64] {
        &self.z
    }

    /// Merges `other` into `self` on qubits where `self` is identity.
    ///
    /// Used to build layer *signatures*: the blocks in a scheduled layer
    /// have disjoint active qubits, so merging their boundary strings gives
    /// the layer's effective front/back Pauli pattern.
    ///
    /// # Panics
    ///
    /// Panics if the strings have different qubit counts, or in debug builds
    /// if the supports overlap (signatures are only meaningful for disjoint
    /// blocks).
    pub fn merge_disjoint(&mut self, other: &PauliString) {
        self.assert_same_n(other);
        debug_assert!(
            self.disjoint_support(other),
            "merge of overlapping supports"
        );
        for w in 0..self.x.len() {
            self.x[w] |= other.x[w];
            self.z[w] |= other.z[w];
        }
    }

    /// Merges `other` into `self` on qubits where `self` is identity,
    /// keeping `self`'s operator everywhere it is already non-identity
    /// (first-written wins).
    ///
    /// This is the overlap-tolerant cousin of [`Self::merge_disjoint`]:
    /// layer signatures accumulate boundary strings in block order, and a
    /// later block must never overwrite a qubit an earlier block claimed.
    /// Word-parallel over the two bit planes — the free qubits of `self`
    /// are `!(x | z)` per word.
    ///
    /// # Panics
    ///
    /// Panics if the strings have different qubit counts.
    pub fn merge_keep_first(&mut self, other: &PauliString) {
        self.assert_same_n(other);
        for w in 0..self.x.len() {
            let free = !(self.x[w] | self.z[w]);
            self.x[w] |= other.x[w] & free;
            self.z[w] |= other.z[w] & free;
        }
    }

    fn assert_same_n(&self, other: &PauliString) {
        assert_eq!(
            self.n, other.n,
            "pauli strings on different qubit counts ({} vs {})",
            self.n, other.n
        );
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for q in (0..self.n).rev() {
            write!(f, "{}", self.get(q))?;
        }
        Ok(())
    }
}

impl fmt::Debug for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PauliString(\"{self}\")")
    }
}

impl FromStr for PauliString {
    type Err = ParsePauliError;

    /// Parses a string such as `"YZIXZ"`, leftmost character = qubit `n−1`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(ParsePauliError { bad_char: None });
        }
        let n = s.chars().count();
        let mut out = PauliString::identity(n);
        for (i, c) in s.chars().enumerate() {
            let p = Pauli::from_char(c).ok_or(ParsePauliError { bad_char: Some(c) })?;
            out.set(n - 1 - i, p);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn bit_planes_round_trip() {
        for s in ["I", "XYZI", "YZIXZ", &"XZIY".repeat(40)] {
            let p = ps(s);
            let rebuilt = PauliString::from_bit_planes(
                p.num_qubits(),
                p.x_words().to_vec(),
                p.z_words().to_vec(),
            )
            .expect("planes from a real string are valid");
            assert_eq!(rebuilt, p);
        }
    }

    #[test]
    fn bit_planes_reject_malformed_encodings() {
        // Wrong word count.
        assert!(PauliString::from_bit_planes(5, vec![0, 0], vec![0]).is_none());
        assert!(PauliString::from_bit_planes(70, vec![0], vec![0]).is_none());
        // Stray bits above qubit n-1.
        assert!(PauliString::from_bit_planes(5, vec![1 << 5], vec![0]).is_none());
        assert!(PauliString::from_bit_planes(5, vec![0], vec![1 << 63]).is_none());
        // The same bit in range is fine.
        assert!(PauliString::from_bit_planes(6, vec![1 << 5], vec![0]).is_some());
    }

    #[test]
    fn parse_display_round_trip() {
        for s in [
            "I",
            "XYZI",
            "YZIXZ",
            "ZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZ",
        ] {
            assert_eq!(ps(s).to_string(), s);
        }
    }

    #[test]
    fn parse_errors() {
        assert!("".parse::<PauliString>().is_err());
        assert_eq!(
            "XQZ".parse::<PauliString>(),
            Err(ParsePauliError {
                bad_char: Some('Q')
            })
        );
    }

    #[test]
    fn endianness_matches_paper() {
        // P = σ_{n-1} … σ_0: the leftmost character sits on the highest qubit.
        let p = ps("YZIXZ");
        assert_eq!(p.get(4), Pauli::Y);
        assert_eq!(p.get(3), Pauli::Z);
        assert_eq!(p.get(2), Pauli::I);
        assert_eq!(p.get(1), Pauli::X);
        assert_eq!(p.get(0), Pauli::Z);
    }

    #[test]
    fn support_and_weight() {
        let p = ps("YZIXZ");
        assert_eq!(p.support(), vec![0, 1, 3, 4]);
        assert_eq!(p.weight(), 4);
        assert!(p.is_active(0));
        assert!(!p.is_active(2));
        assert!(PauliString::identity(7).is_identity());
    }

    #[test]
    fn commutation_examples() {
        // ZZ and XX commute (anticommute on two qubits); ZI and XI do not.
        assert!(ps("ZZ").commutes_with(&ps("XX")));
        assert!(!ps("ZI").commutes_with(&ps("XI")));
        assert!(ps("ZI").commutes_with(&ps("IX")));
        // The Fig. 4(c) pair: ZZI and ZXI anticommute.
        assert!(!ps("ZZI").commutes_with(&ps("ZXI")));
    }

    #[test]
    fn commutation_across_word_boundary() {
        let mut a = PauliString::identity(130);
        let mut b = PauliString::identity(130);
        a.set(0, Pauli::X);
        b.set(0, Pauli::Z);
        a.set(129, Pauli::X);
        b.set(129, Pauli::Z);
        assert!(a.commutes_with(&b)); // two anticommuting sites → commute
        b.set(129, Pauli::I);
        assert!(!a.commutes_with(&b));
    }

    #[test]
    fn overlap_counts_equal_non_identity_ops() {
        // Fig. 4(a): ZZY and ZZI share Z on two qubits.
        assert_eq!(ps("ZZY").overlap(&ps("ZZI")), 2);
        assert_eq!(ps("ZZY").overlap(&ps("ZZY")), 3);
        assert_eq!(ps("XYZ").overlap(&ps("ZYX")), 1);
        assert_eq!(ps("III").overlap(&ps("III")), 0);
    }

    #[test]
    fn shared_and_disjoint_support() {
        assert_eq!(ps("XXI").shared_support(&ps("IZZ")), 1);
        assert!(ps("XII").disjoint_support(&ps("IIZ")));
        assert!(!ps("XII").disjoint_support(&ps("ZII")));
    }

    #[test]
    fn lex_order_matches_paper_example() {
        // §4.1: X < Y < Z < I compared from the top qubit downward.
        assert_eq!(ps("XX").lex_cmp(&ps("XY")), Ordering::Less);
        assert_eq!(ps("YI").lex_cmp(&ps("XZ")), Ordering::Greater);
        assert_eq!(ps("IX").lex_cmp(&ps("XI")), Ordering::Greater);
        assert_eq!(ps("ZZZ").lex_cmp(&ps("ZZZ")), Ordering::Equal);
    }

    #[test]
    fn string_product_tracks_phase() {
        let (p, k) = ps("XI").mul(&ps("YI"));
        assert_eq!(p, ps("ZI"));
        assert_eq!(k, 1);
        let (p, k) = ps("XY").mul(&ps("YX"));
        assert_eq!(p, ps("ZZ"));
        assert_eq!(k, 0); // i · (−i) = 1
        let (p, k) = ps("ZZ").mul(&ps("ZZ"));
        assert!(p.is_identity());
        assert_eq!(k, 0);
    }

    #[test]
    fn merge_disjoint_builds_signature() {
        let mut a = ps("XXII");
        a.merge_disjoint(&ps("IIZY"));
        assert_eq!(a, ps("XXZY"));
    }

    #[test]
    fn merge_keep_first_preserves_earlier_operators() {
        // Full overlap: nothing changes.
        let mut a = ps("ZZII");
        a.merge_keep_first(&ps("XYII"));
        assert_eq!(a, ps("ZZII"));
        // Partial overlap: only the free qubits are filled in.
        let mut a = ps("IZZI");
        a.merge_keep_first(&ps("XXYZ"));
        assert_eq!(a, ps("XZZZ"));
        // Y = (x=1, z=1) must not leak a plane bit onto a qubit where the
        // earlier string holds a single-plane operator.
        let mut a = ps("XZ");
        a.merge_keep_first(&ps("YY"));
        assert_eq!(a, ps("XZ"));
    }

    #[test]
    fn merge_keep_first_across_word_boundary() {
        let mut a = PauliString::identity(130);
        a.set(64, Pauli::Z);
        let mut b = PauliString::identity(130);
        b.set(64, Pauli::X);
        b.set(63, Pauli::Y);
        b.set(129, Pauli::Z);
        a.merge_keep_first(&b);
        assert_eq!(a.get(64), Pauli::Z);
        assert_eq!(a.get(63), Pauli::Y);
        assert_eq!(a.get(129), Pauli::Z);
        assert_eq!(a.weight(), 3);
    }

    #[test]
    fn lex_cmp_matches_per_qubit_scan() {
        // The word-parallel comparison must agree with the definitional
        // per-qubit scan, including across word boundaries and on long
        // shared prefixes.
        let per_qubit = |a: &PauliString, b: &PauliString| {
            for q in (0..a.num_qubits()).rev() {
                let ord = a.get(q).cmp(&b.get(q));
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        };
        let base = "XZIY".repeat(33); // 132 qubits
        let mut cases: Vec<(PauliString, PauliString)> = Vec::new();
        for q in [0, 1, 63, 64, 65, 127, 128, 131] {
            for p in [Pauli::X, Pauli::Y, Pauli::Z, Pauli::I] {
                let a = ps(&base);
                let mut b = ps(&base);
                b.set(q, p);
                cases.push((a, b));
            }
        }
        cases.push((ps(&base), ps(&base)));
        // Differences on two qubits in different words: the higher decides.
        let mut lo = ps(&base);
        lo.set(2, Pauli::Z);
        let mut hi = ps(&base);
        hi.set(130, Pauli::X);
        cases.push((lo, hi));
        for (a, b) in &cases {
            assert_eq!(a.lex_cmp(b), per_qubit(a, b), "{a} vs {b}");
            assert_eq!(b.lex_cmp(a), per_qubit(b, a));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        ps("XX").get(2);
    }

    #[test]
    fn with_ops_constructor() {
        let p = PauliString::with_ops(5, &[0, 2], Pauli::Z);
        assert_eq!(p.to_string(), "IIZIZ");
    }
}
