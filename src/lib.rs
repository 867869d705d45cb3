//! Facade crate for the Paulihedral reproduction.
//!
//! Re-exports the workspace crates under one roof so the examples and
//! integration tests read naturally. Library users should depend on the
//! individual crates:
//!
//! * [`paulihedral`] — the compiler framework (Pauli IR, scheduling,
//!   FT/SC block-wise synthesis),
//! * [`ph_engine`] — the compilation engine (per-stage instrumentation,
//!   compilation cache, multi-threaded batch driver),
//! * [`ph_telemetry`] — spans, metrics, and JSONL/Chrome-trace export for
//!   the whole compile path,
//! * [`pauli`] — Pauli algebra substrate,
//! * [`qcircuit`] — circuit IR, peephole optimizer, QASM,
//! * [`qdevice`] — coupling maps, layouts, noise models,
//! * [`qsim`] — state-vector simulation and equivalence checking,
//! * [`baselines`] — naive/TK/QAOA-compiler/generic-pipeline baselines,
//! * [`workloads`] — the 31 evaluation benchmarks.
//!
//! # Quickstart
//!
//! ```
//! use paulihedral::parse::parse_program;
//! use paulihedral::{compile, Backend, CompileOptions, Scheduler};
//!
//! let ir = parse_program("{(ZZY, 0.5), 1.0}; {(ZZI, 0.3), 1.0};")?;
//! let out = compile(&ir, &CompileOptions::new(Scheduler::GateCount, Backend::FaultTolerant));
//! println!("{}", qcircuit::qasm::to_qasm(&out.circuit, Default::default()));
//! # Ok::<(), paulihedral::parse::ParseError>(())
//! ```

#![forbid(unsafe_code)]

pub use baselines;
pub use pauli;
pub use paulihedral;
pub use ph_engine;
pub use ph_telemetry;
pub use qcircuit;
pub use qdevice;
pub use qsim;
pub use workloads;
