//! Technology-dependent block-wise optimization passes (paper §5).
//!
//! * [`chain`] — Pauli-gadget emission with adaptive CNOT-chain ordering
//!   (the shared synthesis machinery),
//! * [`ft`] — the fault-tolerant backend pass (Alg. 2): maximize gate
//!   cancellation, mapping is free,
//! * [`sc`] — the superconducting backend pass (Alg. 3): tree embedding in
//!   the coupling map, SWAP-aware synthesis, layout tracking.
//!
//! Both passes are block-sequential — Alg. 2 chains each string off the
//! one before it and Alg. 3 carries the layout from block to block — so
//! each runs on the calling thread. Parallelism lives across compile
//! requests, not inside one.

pub mod chain;
pub mod ft;
pub mod sc;
