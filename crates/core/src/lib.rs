//! Paulihedral: a block-wise compiler optimization framework for quantum
//! simulation kernels (reproduction of Li et al., ASPLOS 2022).
//!
//! A *quantum simulation kernel* implements `exp(iHt)` for a Hamiltonian
//! expanded in the Pauli basis. Paulihedral keeps such kernels in a
//! dedicated [Pauli IR](ir) — lists of [`ir::PauliBlock`]s whose semantics
//! is commutative matrix addition — and optimizes them *before* lowering to
//! gates:
//!
//! 1. **Instruction scheduling** (technology-independent, [`schedule`]):
//!    gate-count-oriented lexicographic ordering or depth-oriented layer
//!    packing (Alg. 1).
//! 2. **Block-wise synthesis** (technology-dependent, [`synth`]): the
//!    fault-tolerant backend maximizes gate cancellation via adaptive CNOT
//!    chains (Alg. 2); the superconducting backend embeds CNOT trees into
//!    the device coupling map to co-optimize synthesis and qubit routing
//!    (Alg. 3).
//!
//! The one-call entry point is [`compile`]:
//!
//! ```
//! use paulihedral::{compile, Backend, CompileOptions, Scheduler};
//! use paulihedral::parse::parse_program;
//!
//! let ir = parse_program("{(ZZY, 0.5), 1.0}; {(ZZI, 0.3), 1.0};")?;
//! let out = compile(&ir, &CompileOptions::new(Scheduler::GateCount, Backend::FaultTolerant));
//! assert!(out.circuit.stats().cnot <= 8);
//! # Ok::<(), paulihedral::parse::ParseError>(())
//! ```
//!
//! [`compile_observed`] is the one place the stages run; [`compile`] and
//! [`try_compile`] call it without an [`Observer`], and the `ph_engine`
//! cache and telemetry call it with one that times and records each stage.
//! A compile runs on the calling thread: both synthesis passes are
//! block-sequential, so callers parallelize across programs instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod ir;
pub mod parse;
pub mod schedule;
pub mod synth;
pub mod trotter;

use pauli::PauliString;
use qcircuit::peephole::{self, PeepholeReport};
use qcircuit::Circuit;
use qdevice::{CouplingMap, NoiseModel};

use ir::PauliIR;
use schedule::Layer;

/// Which technology-independent scheduling pass to run (paper §4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduler {
    /// Gate-count-oriented lexicographic scheduling (§4.1, "GCO").
    GateCount,
    /// Depth-oriented layer packing (Alg. 1, "DO").
    Depth,
    /// Adaptive pass management (§7): pick GCO or DO per program via
    /// [`choose_scheduler`].
    Auto,
}

impl Scheduler {
    /// Resolves [`Scheduler::Auto`] against a concrete program; the two
    /// concrete variants return themselves.
    pub fn resolve(self, ir: &PauliIR) -> Scheduler {
        match self {
            Scheduler::Auto => choose_scheduler(ir),
            concrete => concrete,
        }
    }
}

/// Which technology-dependent backend pass to run (paper §5).
#[derive(Clone, Copy, Debug)]
pub enum Backend<'a> {
    /// Fault-tolerant backend: mapping is free, maximize cancellation.
    FaultTolerant,
    /// Near-term superconducting backend: coupling-constrained synthesis.
    Superconducting {
        /// The device coupling map.
        device: &'a CouplingMap,
        /// Optional calibration for error-aware routing decisions.
        noise: Option<&'a NoiseModel>,
    },
}

/// Options for [`compile`].
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions<'a> {
    /// Scheduling pass.
    pub scheduler: Scheduler,
    /// Backend pass.
    pub backend: Backend<'a>,
}

impl<'a> CompileOptions<'a> {
    /// Options with the given passes.
    pub fn new(scheduler: Scheduler, backend: Backend<'a>) -> CompileOptions<'a> {
        CompileOptions { scheduler, backend }
    }
}

/// Why a compilation request was rejected up front.
///
/// Produced by [`compile_observed`] and [`try_compile`] — and so by every
/// `ph_engine` compile, which runs [`compile_observed`] — instead of the
/// panics [`compile`] raises.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The program has no blocks — there is nothing to schedule.
    EmptyProgram,
    /// The SC device has fewer physical qubits than the program needs.
    DeviceTooSmall {
        /// Physical qubits on the device.
        device: usize,
        /// Logical qubits the program needs.
        program: usize,
    },
    /// The SC device coupling map is disconnected, so qubits cannot be
    /// routed together.
    DeviceDisconnected,
    /// The compilation panicked. Produced by callers that isolate
    /// panics (the batch driver, the compile service) so one bad job
    /// cannot tear down its worker; carries the panic payload text.
    Panicked(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::EmptyProgram => write!(f, "program has no pauli blocks"),
            CompileError::DeviceTooSmall { device, program } => write!(
                f,
                "program needs {program} qubits, device has only {device}"
            ),
            CompileError::DeviceDisconnected => {
                write!(f, "device coupling map is disconnected")
            }
            CompileError::Panicked(msg) => write!(f, "compilation panicked: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// A compiled simulation kernel.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The output circuit: logical for the FT backend, physical (device
    /// width, connectivity-conformant) for the SC backend.
    pub circuit: Circuit,
    /// The `(string, θ)` sequence in emission order; the circuit implements
    /// `Π exp(iθP)` in exactly this order (the Pauli IR semantics licenses
    /// the reordering).
    pub emitted: Vec<(PauliString, f64)>,
    /// Initial logical→physical layout (SC backend only).
    pub initial_l2p: Option<Vec<usize>>,
    /// Final logical→physical layout (SC backend only).
    pub final_l2p: Option<Vec<usize>>,
}

/// Runs the selected scheduling pass ([`Scheduler::Auto`] resolves through
/// [`choose_scheduler`] first).
pub fn run_scheduler(ir: &PauliIR, scheduler: Scheduler) -> Vec<Layer> {
    match scheduler.resolve(ir) {
        Scheduler::GateCount => schedule::schedule_gco(ir),
        Scheduler::Depth => schedule::schedule_depth(ir),
        Scheduler::Auto => unreachable!("resolve() returns a concrete scheduler"),
    }
}

/// Picks a scheduler from the program's Pauli-string pattern — the
/// adaptive pass management the paper sketches in §7, based on its own
/// §6.3 analysis:
///
/// * *second-category* kernels (every string at most 2-local — Ising,
///   Heisenberg, QAOA) benefit hugely from depth-oriented layer packing
///   and lose nothing on gate count → [`Scheduler::Depth`];
/// * *first-category* kernels (molecules, UCCSD, random Hamiltonians with
///   long strings) cancel more gates under lexicographic ordering →
///   [`Scheduler::GateCount`].
pub fn choose_scheduler(ir: &PauliIR) -> Scheduler {
    let two_local = ir
        .blocks()
        .iter()
        .flat_map(|b| &b.terms)
        .all(|t| t.string.weight() <= 2);
    if two_local {
        Scheduler::Depth
    } else {
        Scheduler::GateCount
    }
}

/// Checks a compilation request without running it: non-empty program,
/// and (for the SC backend) a connected device at least as wide as the
/// program.
///
/// # Errors
///
/// Returns the [`CompileError`] that [`try_compile`] would return.
pub fn validate(ir: &PauliIR, backend: &Backend<'_>) -> Result<(), CompileError> {
    if ir.num_blocks() == 0 {
        return Err(CompileError::EmptyProgram);
    }
    if let Backend::Superconducting { device, .. } = backend {
        if device.num_qubits() < ir.num_qubits() {
            return Err(CompileError::DeviceTooSmall {
                device: device.num_qubits(),
                program: ir.num_qubits(),
            });
        }
        if !device.is_connected() {
            return Err(CompileError::DeviceDisconnected);
        }
    }
    Ok(())
}

/// What a stage of [`compile_observed`] produced, handed to
/// [`Observer::after_stage`].
#[derive(Clone, Copy, Debug)]
pub enum StageOutput<'a> {
    /// `schedule` ran this scheduler ([`Scheduler::Auto`] resolved) and
    /// produced this many layers.
    Scheduled(Scheduler, usize),
    /// `synthesis` emitted this many `(string, θ)` rotations into the
    /// circuit.
    Synthesized(usize, &'a Circuit),
    /// `peephole` cleaned the circuit up as the report says.
    Optimized(PeepholeReport, &'a Circuit),
}

/// Watches a compilation from outside, so an embedding layer (the
/// `ph_engine` cache and telemetry) can time and record it without
/// `paulihedral` knowing about either. Every method defaults to a
/// pass-through.
pub trait Observer {
    /// Runs the stage `name` (`schedule`, `synthesis` or `peephole`),
    /// optionally bracketed by instrumentation. Implementations must call
    /// `run` exactly once, on the calling thread.
    fn stage(&self, _name: &'static str, run: &mut dyn FnMut()) {
        run();
    }

    /// Receives what the stage just run by [`Observer::stage`] produced.
    fn after_stage(&self, _output: StageOutput<'_>) {}
}

/// The observer of an unobserved compile.
struct Unobserved;

impl Observer for Unobserved {}

/// Compiles a Pauli IR program — validation, then the stages `schedule`,
/// block-wise backend `synthesis` and `peephole` clean-up — reporting each
/// stage to `observer`.
///
/// # Errors
///
/// Returns a [`CompileError`] for an empty program or for an SC device
/// that is disconnected or smaller than the program.
pub fn compile_observed(
    ir: &PauliIR,
    options: &CompileOptions<'_>,
    observer: Option<&dyn Observer>,
) -> Result<Compiled, CompileError> {
    validate(ir, &options.backend)?;
    let observer = observer.unwrap_or(&Unobserved);

    let mut scheduler = options.scheduler;
    let mut layers = Vec::new();
    observer.stage("schedule", &mut || {
        scheduler = scheduler.resolve(ir);
        layers = run_scheduler(ir, scheduler);
    });
    observer.after_stage(StageOutput::Scheduled(scheduler, layers.len()));

    let n = ir.num_qubits();
    let mut synthesized = None;
    observer.stage("synthesis", &mut || {
        synthesized = Some(match options.backend {
            Backend::FaultTolerant => {
                let r = synth::ft::synthesize(n, &layers);
                Compiled {
                    circuit: r.circuit,
                    emitted: r.emitted,
                    initial_l2p: None,
                    final_l2p: None,
                }
            }
            Backend::Superconducting { device, noise } => {
                let r = synth::sc::synthesize(n, &layers, device, noise);
                Compiled {
                    circuit: r.circuit,
                    emitted: r.emitted,
                    initial_l2p: Some(r.initial_l2p),
                    final_l2p: Some(r.final_l2p),
                }
            }
        });
    });
    let mut compiled = synthesized.expect("the synthesis stage ran");
    observer.after_stage(StageOutput::Synthesized(
        compiled.emitted.len(),
        &compiled.circuit,
    ));

    let mut report = PeepholeReport::default();
    observer.stage("peephole", &mut || {
        report = peephole::optimize(&mut compiled.circuit);
    });
    observer.after_stage(StageOutput::Optimized(report, &compiled.circuit));
    Ok(compiled)
}

/// Compiles a Pauli IR program: [`compile_observed`] with no observer.
///
/// # Errors
///
/// Returns a [`CompileError`] for an empty program or for an SC device
/// that is disconnected or smaller than the program.
pub fn try_compile(ir: &PauliIR, options: &CompileOptions<'_>) -> Result<Compiled, CompileError> {
    compile_observed(ir, options, None)
}

/// Compiles a Pauli IR program, panicking on invalid input. Thin wrapper
/// over [`try_compile`] for callers that treat bad input as a bug.
///
/// # Panics
///
/// Panics on an empty program or if the SC device is disconnected or
/// smaller than the program.
pub fn compile(ir: &PauliIR, options: &CompileOptions<'_>) -> Compiled {
    match try_compile(ir, options) {
        Ok(compiled) => compiled,
        Err(e) => panic!("compile: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::{Parameter, PauliBlock};
    use pauli::PauliTerm;
    use qdevice::devices;

    fn small_ir() -> PauliIR {
        let mut prog = PauliIR::new(3);
        for (s, w) in [("ZZI", 0.5), ("IZZ", 0.25), ("XXI", -0.5)] {
            prog.push_block(PauliBlock::new(
                vec![PauliTerm::new(s.parse().unwrap(), w)],
                Parameter::time(0.2),
            ));
        }
        prog
    }

    #[test]
    fn ft_compile_produces_logical_circuit() {
        let out = compile(
            &small_ir(),
            &CompileOptions {
                scheduler: Scheduler::GateCount,
                backend: Backend::FaultTolerant,
            },
        );
        assert_eq!(out.circuit.num_qubits(), 3);
        assert!(out.initial_l2p.is_none());
        assert_eq!(out.emitted.len(), 3);
    }

    #[test]
    fn sc_compile_produces_conformant_physical_circuit() {
        let device = devices::linear(5);
        let out = compile(
            &small_ir(),
            &CompileOptions {
                scheduler: Scheduler::Depth,
                backend: Backend::Superconducting {
                    device: &device,
                    noise: None,
                },
            },
        );
        assert_eq!(out.circuit.num_qubits(), 5);
        assert!(out
            .circuit
            .respects_connectivity(|a, b| device.has_edge(a, b)));
        assert_eq!(out.initial_l2p.as_ref().unwrap().len(), 3);
    }

    #[test]
    fn both_schedulers_emit_every_string() {
        for s in [Scheduler::GateCount, Scheduler::Depth] {
            let out = compile(
                &small_ir(),
                &CompileOptions {
                    scheduler: s,
                    backend: Backend::FaultTolerant,
                },
            );
            assert_eq!(out.emitted.len(), 3);
        }
    }

    #[test]
    fn try_compile_rejects_empty_programs() {
        let empty = PauliIR::new(3);
        let err = try_compile(
            &empty,
            &CompileOptions {
                scheduler: Scheduler::Auto,
                backend: Backend::FaultTolerant,
            },
        )
        .unwrap_err();
        assert_eq!(err, CompileError::EmptyProgram);
    }

    #[test]
    fn try_compile_rejects_undersized_devices() {
        let device = devices::linear(2);
        let err = try_compile(
            &small_ir(),
            &CompileOptions {
                scheduler: Scheduler::Depth,
                backend: Backend::Superconducting {
                    device: &device,
                    noise: None,
                },
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            CompileError::DeviceTooSmall {
                device: 2,
                program: 3
            }
        );
    }

    #[test]
    fn try_compile_rejects_disconnected_devices() {
        let device = qdevice::CouplingMap::new(4, &[(0, 1), (2, 3)]);
        let err = try_compile(
            &small_ir(),
            &CompileOptions {
                scheduler: Scheduler::Depth,
                backend: Backend::Superconducting {
                    device: &device,
                    noise: None,
                },
            },
        )
        .unwrap_err();
        assert_eq!(err, CompileError::DeviceDisconnected);
    }

    #[test]
    #[should_panic(expected = "program has no pauli blocks")]
    fn compile_panics_where_try_compile_errors() {
        compile(
            &PauliIR::new(2),
            &CompileOptions {
                scheduler: Scheduler::GateCount,
                backend: Backend::FaultTolerant,
            },
        );
    }

    #[test]
    fn auto_scheduler_matches_the_resolved_choice() {
        // small_ir is 2-local → Auto resolves to Depth.
        assert_eq!(Scheduler::Auto.resolve(&small_ir()), Scheduler::Depth);
        let auto = compile(
            &small_ir(),
            &CompileOptions {
                scheduler: Scheduler::Auto,
                backend: Backend::FaultTolerant,
            },
        );
        let manual = compile(
            &small_ir(),
            &CompileOptions {
                scheduler: Scheduler::Depth,
                backend: Backend::FaultTolerant,
            },
        );
        assert_eq!(auto.circuit, manual.circuit);
        assert_eq!(auto.emitted, manual.emitted);
    }

    #[test]
    fn scheduler_choice_follows_string_pattern() {
        // 2-local program → Depth.
        assert_eq!(choose_scheduler(&small_ir()), Scheduler::Depth);
        // One long string flips it to GateCount.
        let mut ir = small_ir();
        ir.push_block(PauliBlock::single(
            "ZZZ".parse().unwrap(),
            1.0,
            Parameter::time(0.1),
        ));
        assert_eq!(choose_scheduler(&ir), Scheduler::GateCount);
    }
}
