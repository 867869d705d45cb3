//! The output check, independent of the server's own bookkeeping: a
//! fetched artifact must decode, match the timed reports, emit exactly
//! the generator's strings, respect the device, and (for programs of at
//! most 10 qubits) implement the product of its rotations as a dense
//! unitary.

use std::collections::HashMap;

use pauli::PauliString;
use paulihedral::parse::parse_program;
use ph_engine::cache::CacheEntry;
use ph_engine::{persist, proto, Target};
use qsim::trotter::exp_product;
use qsim::unitary::{circuit_unitary, equal_up_to_phase, routed_circuit_implements};

use crate::gen::Program;
use crate::load::Report;

/// Reports of one program text must agree on key and counts: a hit must
/// equal the miss that filled it. Keyed by text index.
#[derive(Default)]
pub struct Consistency {
    first: HashMap<usize, (String, [u64; 4])>,
}

impl Consistency {
    /// Records `report` for text `text`; `Err` when it disagrees with an
    /// earlier report of the same text, or failed.
    pub fn check(&mut self, text: usize, report: &Report) -> Result<(), String> {
        if !report.ok {
            return Err(format!(
                "request {} failed: {}",
                report.id,
                report.error.as_deref().unwrap_or("?")
            ));
        }
        let seen = self
            .first
            .entry(text)
            .or_insert_with(|| (report.key.clone(), report.counts));
        if seen.0 != report.key || seen.1 != report.counts {
            return Err(format!(
                "request {}: key {} counts {:?}, but the same text earlier gave key {} counts {:?}",
                report.id, report.key, report.counts, seen.0, seen.1
            ));
        }
        Ok(())
    }
}

/// Decodes the artifact carried by `report`.
pub fn decode_artifact(report: &Report) -> Result<CacheEntry, String> {
    let hex = report
        .artifact
        .as_deref()
        .ok_or("report carries no artifact")?;
    let bytes = proto::hex_decode(hex).ok_or("artifact is not hex")?;
    persist::decode_entry(&bytes).map_err(|e| format!("artifact does not decode: {e:?}"))
}

/// Circuits of at most this many qubits also get the dense check.
pub const DENSE_MAX_QUBITS: usize = 10;

/// Checks a decoded artifact of `program` compiled from `text` against
/// the report counts the timed phase saw for that text. Returns whether
/// the dense check ran.
pub fn check_artifact(
    program: &Program,
    text: &str,
    entry: &CacheEntry,
    counts: [u64; 4],
) -> Result<bool, String> {
    let compiled = &entry.compiled;
    let s = compiled.circuit.mapped_stats();
    let got = [s.cnot, s.single, s.total, s.depth].map(|c| c as u64);
    if got != counts {
        return Err(format!(
            "{}: artifact counts {got:?} differ from the reports' {counts:?}",
            program.label
        ));
    }

    // Emitted strings are exactly the generator's non-identity strings.
    let mut want: Vec<String> = program
        .ir
        .blocks()
        .iter()
        .flat_map(|b| &b.terms)
        .filter(|t| !t.string.is_identity())
        .map(|t| t.string.to_string())
        .collect();
    let mut emitted: Vec<String> = compiled
        .emitted
        .iter()
        .map(|(p, _)| p.to_string())
        .collect();
    want.sort_unstable();
    emitted.sort_unstable();
    if want != emitted {
        return Err(format!(
            "{}: emitted strings differ from the generator's ({} vs {})",
            program.label,
            emitted.len(),
            want.len()
        ));
    }

    // Each rotation angle is weight × parameter of the text that was sent.
    let sent = parse_program(text).map_err(|e| format!("{}: {e}", program.label))?;
    let mut want_theta: Vec<(String, u64)> = Vec::new();
    for b in sent.blocks() {
        for (i, t) in b.terms.iter().enumerate() {
            if !t.string.is_identity() {
                want_theta.push((t.string.to_string(), b.theta(i).to_bits()));
            }
        }
    }
    let mut got_theta: Vec<(String, u64)> = compiled
        .emitted
        .iter()
        .map(|(p, theta)| (p.to_string(), theta.to_bits()))
        .collect();
    want_theta.sort_unstable();
    got_theta.sort_unstable();
    if want_theta != got_theta {
        return Err(format!(
            "{}: emitted rotation angles differ from the program's",
            program.label
        ));
    }

    let n = program.ir.num_qubits();
    let target = Target::parse_spec(program.backend, n)?;
    if let Target::Superconducting { device, .. } = &target {
        if !compiled
            .circuit
            .respects_connectivity(|a, b| device.has_edge(a, b))
        {
            return Err(format!(
                "{}: a 2-qubit gate is off the device",
                program.label
            ));
        }
    }
    let dense = compiled.circuit.num_qubits() <= DENSE_MAX_QUBITS;
    if dense {
        dense_check(program, entry, &target)?;
    }
    Ok(dense)
}

/// The dense check of `crates/core/tests/semantics.rs`: the circuit's
/// unitary equals `Π exp(iθ P)` over its emission order, up to a global
/// phase and (on SC targets) the tracked layout permutation.
fn dense_check(program: &Program, entry: &CacheEntry, target: &Target) -> Result<(), String> {
    let compiled = &entry.compiled;
    let n = program.ir.num_qubits();
    let expected = exp_product(
        n,
        compiled
            .emitted
            .iter()
            .map(|(p, theta): &(PauliString, f64)| (p, *theta)),
    );
    let ok = match target {
        Target::FaultTolerant => {
            equal_up_to_phase(&circuit_unitary(&compiled.circuit), &expected, 1e-8)
        }
        Target::Superconducting { .. } => {
            let (Some(initial), Some(final_)) = (&compiled.initial_l2p, &compiled.final_l2p) else {
                return Err(format!("{}: SC artifact without layouts", program.label));
            };
            routed_circuit_implements(&compiled.circuit, &expected, initial, final_, 1e-8)
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: circuit unitary deviates from its rotations",
            program.label
        ))
    }
}
