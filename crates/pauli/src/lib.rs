//! Pauli algebra substrate for the Paulihedral reproduction.
//!
//! Everything in the Paulihedral compiler is defined over *Pauli strings*
//! `P = σ_{n-1} σ_{n-2} … σ_0` with `σ_i ∈ {I, X, Y, Z}` (paper §2.1). This
//! crate provides:
//!
//! * [`Pauli`] — the single-qubit operator alphabet,
//! * [`PauliString`] — a bit-packed n-qubit Pauli string with word-parallel
//!   commutation/overlap queries (the scalability workhorse of the compiler),
//! * [`PauliTerm`] — a weighted Pauli string (one `⟨pauli_str, weight⟩` of
//!   the Pauli IR grammar in Fig. 5),
//! * [`Tableau`] — a symplectic Clifford tableau used by the
//!   simultaneous-diagonalization ("TK") baseline.
//!
//! # Conventions
//!
//! Qubit `0` is the rightmost character of the textual form, matching the
//! paper's `P = σ_{n-1} … σ_0` notation: `"YZIXZ"` has `Y` on qubit 4 and
//! `Z` on qubit 0.
//!
//! The lexicographic order used by the gate-count-oriented scheduler (§4.1)
//! is `X < Y < Z < I`, compared from qubit `n−1` down to qubit `0`; it is
//! exposed as [`PauliString::lex_cmp`].
//!
//! # Example
//!
//! ```
//! use pauli::{Pauli, PauliString};
//!
//! let a: PauliString = "ZZY".parse()?;
//! let b: PauliString = "ZZI".parse()?;
//! assert_eq!(a.get(0), Pauli::Y);
//! assert_eq!(a.overlap(&b), 2);          // shared Z on qubits 1 and 2
//! assert!(a.commutes_with(&a));
//! # Ok::<(), pauli::ParsePauliError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pauli_op;
mod string;
mod tableau;
mod term;

pub use pauli_op::Pauli;
pub use string::{set_bits, ParsePauliError, PauliString};
pub use tableau::{CliffordGate, DiagonalizeError, Tableau};
pub use term::PauliTerm;
