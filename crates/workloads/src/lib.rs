//! The 31 evaluation workloads of the Paulihedral paper (Table 1).
//!
//! * [`jw`] — Jordan–Wigner transformation of fermionic operators into
//!   Pauli sums (the machinery behind UCCSD and the molecule-like
//!   Hamiltonians),
//! * [`uccsd`] — VQE UCCSD ansatzes (SC backend benchmarks),
//! * [`qaoa`] — QAOA MaxCut on regular/random graphs and TSP programs,
//! * [`spin`] — Ising and Heisenberg models on 1D/2D/3D lattices,
//! * [`molecule`] — synthetic molecule-like Hamiltonians standing in for
//!   the paper's PySCF-generated N2/H2S/MgO/CO2/NaCl (see DESIGN.md,
//!   substitution 1),
//! * [`random`] — the paper's random-Hamiltonian recipe (5n² strings),
//! * [`graphs`] — seeded random graph generators,
//! * [`suite`] — the named benchmark table tying it all together,
//! * [`scale`] — beyond-Table-1 lattices at 100–1000+ qubits for the
//!   scaling benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graphs;
pub mod jw;
pub mod molecule;
pub mod qaoa;
pub mod random;
pub mod scale;
pub mod spin;
pub mod suite;
pub mod uccsd;
