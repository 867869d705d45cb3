//! Commutation-aware peephole cancellation.
//!
//! The Paulihedral scheduling and synthesis passes *create* cancellation
//! opportunities (matching CNOT-tree prefixes, matching basis-change gates
//! between adjacent Pauli gadgets); this pass *realizes* them. It is also
//! the core of the emulated generic compilers' `CommutativeCancellation` /
//! `CXCancellation` stages.
//!
//! The pass works on the circuit's wire DAG. Every live gate keeps a
//! `next`/`prev` link per wire it touches, built once per [`optimize`] call
//! and kept across rounds: a cancelled, merged-away or zero-angle gate is
//! unlinked, and a merge keeps its qubit, so its links stand. Each round
//! visits the gates in index order and scans each one forward along its one
//! or two wires at once, in increasing gate index (a later gate on both
//! wires is visited once). Gates that commute with the scanned gate (by
//! conservative structural rules) are slid past, and the first
//! non-commuting blocker stops the scan. A reachable inverse partner
//! cancels; a reachable same-axis rotation merges. Rounds repeat until one
//! changes nothing. A scan costs the gates it passes on its own wires, not
//! the gates in between on other wires.

use std::f64::consts::TAU;

use crate::{Circuit, Gate};

/// Summary of what one [`optimize`] run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeepholeReport {
    /// Gates removed by pairwise cancellation.
    pub cancelled: usize,
    /// Rotation gates merged into a predecessor.
    pub merged: usize,
    /// Rotations removed because their angle was ≡ 0 (mod 2π).
    pub zero_rotations: usize,
    /// Fixpoint iterations executed.
    pub rounds: usize,
}

/// Whether `a` and `b` commute, by conservative structural rules.
///
/// Only sound rules are used (shared-control / shared-target CNOTs,
/// Z-diagonal gates through controls, X-diagonal gates through targets,
/// same-axis single-qubit gates); `false` is always safe.
pub fn commutes(a: &Gate, b: &Gate) -> bool {
    let (a0, a1) = a.qubits();
    let (b0, b1) = b.qubits();
    let overlap = [Some(a0), a1]
        .into_iter()
        .flatten()
        .any(|q| q == b0 || Some(q) == b1);
    if !overlap {
        return true;
    }
    match (a, b) {
        (Gate::Swap(..), _) | (_, Gate::Swap(..)) => false,
        (Gate::Cx(c1, t1), Gate::Cx(c2, t2)) => {
            // Share a control or share a target: commute. A control hitting
            // the other's target (or vice versa): not in general.
            (c1 == c2 && t1 == t2) || ((c1 == c2 || t1 == t2) && t1 != c2 && c1 != t2)
        }
        (g, Gate::Cx(c, t)) | (Gate::Cx(c, t), g) => {
            let q = g.qubits().0;
            (q == *c && g.is_z_diagonal()) || (q == *t && g.is_x_diagonal())
        }
        (g1, g2) => {
            // Single-qubit gates on the same wire.
            (g1.is_z_diagonal() && g2.is_z_diagonal()) || (g1.is_x_diagonal() && g2.is_x_diagonal())
        }
    }
}

/// Whether a rotation angle is ≡ 0 (mod 2π), i.e. the gate is the identity
/// up to a global phase.
fn is_zero_angle(theta: f64) -> bool {
    let r = theta.rem_euclid(TAU);
    r < 1e-12 || TAU - r < 1e-12
}

/// The end of a wire: no gate.
const NIL: u32 = u32::MAX;

/// A live gate's neighbours on its wires. Slot 0 is the gate's first qubit,
/// slot 1 its second (unused for single-qubit gates).
#[derive(Clone, Copy)]
struct Link {
    next: [u32; 2],
    prev: [u32; 2],
}

/// Which of `g`'s link slots belongs to wire `q`.
#[inline]
fn slot(g: &Gate, q: usize) -> usize {
    usize::from(g.qubits().0 != q)
}

/// The wire qubits of `g`, by slot.
#[inline]
fn wires(g: &Gate) -> impl Iterator<Item = (usize, usize)> {
    let (a, b) = g.qubits();
    [Some(a), b].into_iter().flatten().enumerate()
}

/// Links every gate to its neighbours along each of its wires.
fn link(n: usize, gates: &[Option<Gate>]) -> Vec<Link> {
    assert!(
        gates.len() < NIL as usize,
        "peephole indexes gates with u32, got {} gates",
        gates.len()
    );
    let mut links = vec![
        Link {
            next: [NIL; 2],
            prev: [NIL; 2],
        };
        gates.len()
    ];
    let mut last = vec![NIL; n];
    for (i, g) in gates.iter().enumerate() {
        let g = g
            .as_ref()
            .expect("every gate is live before the first round");
        for (s, q) in wires(g) {
            let p = last[q];
            links[i].prev[s] = p;
            if p != NIL {
                let pg = gates[p as usize].as_ref().expect("linked gates are live");
                links[p as usize].next[slot(pg, q)] = i as u32;
            }
            last[q] = i as u32;
        }
    }
    links
}

/// Removes live gate `i` from its wires. Its neighbours must still be live.
fn unlink(gates: &[Option<Gate>], links: &mut [Link], i: usize) {
    let g = gates[i].as_ref().expect("only a live gate is unlinked");
    for (s, q) in wires(g) {
        let Link { next, prev } = links[i];
        let (p, nx) = (prev[s], next[s]);
        if p != NIL {
            let pg = gates[p as usize].as_ref().expect("linked gates are live");
            links[p as usize].next[slot(pg, q)] = nx;
        }
        if nx != NIL {
            let ng = gates[nx as usize].as_ref().expect("linked gates are live");
            links[nx as usize].prev[slot(ng, q)] = p;
        }
    }
}

/// One scan round over the wire links. Returns `(cancelled, merged,
/// zeroed)`.
fn round(gates: &mut [Option<Gate>], links: &mut [Link]) -> (usize, usize, usize) {
    let (mut cancelled, mut merged, mut zeroed) = (0usize, 0usize, 0usize);
    for i in 0..gates.len() {
        let Some(gi) = gates[i] else { continue };
        // Drop identity rotations outright.
        if let Gate::Rz(_, t) | Gate::Rx(_, t) | Gate::Ry(_, t) = gi {
            if is_zero_angle(t) {
                unlink(gates, links, i);
                gates[i] = None;
                zeroed += 1;
                continue;
            }
        }
        let (a0, a1) = gi.qubits();
        // One cursor per wire of `gi`; the next gate to visit is the lower.
        let mut cursor = [links[i].next[0], a1.map_or(NIL, |_| links[i].next[1])];
        loop {
            let j = cursor[0].min(cursor[1]);
            if j == NIL {
                break;
            }
            let j = j as usize;
            let gj = gates[j].expect("linked gates are live");
            if cursor[0] == j as u32 {
                cursor[0] = links[j].next[slot(&gj, a0)];
            }
            if let Some(q) = a1.filter(|_| cursor[1] == j as u32) {
                cursor[1] = links[j].next[slot(&gj, q)];
            }
            if gi.cancels_with(&gj) {
                unlink(gates, links, i);
                unlink(gates, links, j);
                gates[i] = None;
                gates[j] = None;
                cancelled += 2;
                break;
            }
            let merged_gate = match (gi, gj) {
                (Gate::Rz(q1, t1), Gate::Rz(q2, t2)) if q1 == q2 => Some(Gate::Rz(q1, t1 + t2)),
                (Gate::Rx(q1, t1), Gate::Rx(q2, t2)) if q1 == q2 => Some(Gate::Rx(q1, t1 + t2)),
                (Gate::Ry(q1, t1), Gate::Ry(q2, t2)) if q1 == q2 => Some(Gate::Ry(q1, t1 + t2)),
                _ => None,
            };
            if let Some(g) = merged_gate {
                // Same qubit, so `i`'s links stand.
                unlink(gates, links, j);
                gates[i] = Some(g);
                gates[j] = None;
                merged += 1;
                break;
            }
            if !commutes(&gi, &gj) {
                break;
            }
        }
    }
    (cancelled, merged, zeroed)
}

/// Runs cancellation/merging to a fixpoint, in place.
///
/// # Example
///
/// ```
/// use qcircuit::{Circuit, Gate};
/// use qcircuit::peephole::optimize;
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::Cx(0, 1));
/// c.push(Gate::Rz(0, 0.5)); // commutes through the control
/// c.push(Gate::Cx(0, 1));
/// let report = optimize(&mut c);
/// assert_eq!(report.cancelled, 2);
/// assert_eq!(c.len(), 1); // only the Rz survives
/// ```
pub fn optimize(circuit: &mut Circuit) -> PeepholeReport {
    // The gate list is taken, not copied: with the links it costs 24 + 16
    // bytes per gate, and both conversions below reuse its allocation.
    let mut gates: Vec<Option<Gate>> = std::mem::take(circuit.gates_mut())
        .into_iter()
        .map(Some)
        .collect();
    let mut links = link(circuit.num_qubits(), &gates);
    let mut report = PeepholeReport::default();
    loop {
        let (c, m, z) = round(&mut gates, &mut links);
        report.rounds += 1;
        report.cancelled += c;
        report.merged += m;
        report.zero_rotations += z;
        if c + m + z == 0 {
            break;
        }
    }
    drop(links);
    // `filter_map` collects in place; `flatten` would allocate a new list.
    #[allow(clippy::filter_map_identity)]
    let live = gates.into_iter().filter_map(|g| g).collect();
    *circuit.gates_mut() = live;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scan as it stood before the wire links: every later gate is
    /// visited, and those on other wires are skipped. Kept as the oracle
    /// that pins [`optimize`] to it gate for gate.
    fn optimize_reference(circuit: &mut Circuit) -> PeepholeReport {
        fn round(gates: &mut [Option<Gate>]) -> (usize, usize, usize) {
            let (mut cancelled, mut merged, mut zeroed) = (0usize, 0usize, 0usize);
            for i in 0..gates.len() {
                let Some(gi) = gates[i] else { continue };
                if let Gate::Rz(_, t) | Gate::Rx(_, t) | Gate::Ry(_, t) = gi {
                    if is_zero_angle(t) {
                        gates[i] = None;
                        zeroed += 1;
                        continue;
                    }
                }
                let (a0, a1) = gi.qubits();
                for j in i + 1..gates.len() {
                    let Some(gj) = gates[j] else { continue };
                    let (b0, b1) = gj.qubits();
                    let overlap = [Some(a0), a1]
                        .into_iter()
                        .flatten()
                        .any(|q| q == b0 || Some(q) == b1);
                    if !overlap {
                        continue;
                    }
                    if gi.cancels_with(&gj) {
                        gates[i] = None;
                        gates[j] = None;
                        cancelled += 2;
                        break;
                    }
                    let merged_gate = match (gi, gj) {
                        (Gate::Rz(q1, t1), Gate::Rz(q2, t2)) if q1 == q2 => {
                            Some(Gate::Rz(q1, t1 + t2))
                        }
                        (Gate::Rx(q1, t1), Gate::Rx(q2, t2)) if q1 == q2 => {
                            Some(Gate::Rx(q1, t1 + t2))
                        }
                        (Gate::Ry(q1, t1), Gate::Ry(q2, t2)) if q1 == q2 => {
                            Some(Gate::Ry(q1, t1 + t2))
                        }
                        _ => None,
                    };
                    if let Some(g) = merged_gate {
                        gates[i] = Some(g);
                        gates[j] = None;
                        merged += 1;
                        break;
                    }
                    if !commutes(&gi, &gj) {
                        break;
                    }
                }
            }
            (cancelled, merged, zeroed)
        }

        let mut gates: Vec<Option<Gate>> = circuit.gates().iter().copied().map(Some).collect();
        let mut report = PeepholeReport::default();
        loop {
            let (c, m, z) = round(&mut gates);
            report.rounds += 1;
            report.cancelled += c;
            report.merged += m;
            report.zero_rotations += z;
            if c + m + z == 0 {
                break;
            }
        }
        circuit.set_gates(gates.into_iter().flatten().collect());
        report
    }

    /// A circuit on `n` qubits from `(kind, qubit, other, angle)` codes:
    /// all nine gate kinds, rotations by one of `{0, ±theta, ±π}`, so
    /// cancellations, merges, zero drops and multi-round fixpoints occur.
    fn coded_circuit(n: usize, codes: &[(u8, u8, u8, u8)], theta: f64) -> Circuit {
        let angles = [
            0.0,
            theta,
            -theta,
            std::f64::consts::PI,
            -std::f64::consts::PI,
        ];
        let mut c = Circuit::new(n);
        for &(kind, q, other, angle) in codes {
            let a = q as usize % n;
            let t = angles[angle as usize % angles.len()];
            let gate = match (kind % 9, n) {
                (7 | 8, 1) | (0, _) => Gate::H(a),
                (1, _) => Gate::X(a),
                (2, _) => Gate::S(a),
                (3, _) => Gate::Sdg(a),
                (4, _) => Gate::Rz(a, t),
                (5, _) => Gate::Rx(a, t),
                (6, _) => Gate::Ry(a, t),
                (k, _) => {
                    let b = (a + 1 + other as usize % (n - 1)) % n;
                    if k == 7 {
                        Gate::Cx(a, b)
                    } else {
                        Gate::Swap(a, b)
                    }
                }
            };
            c.push(gate);
        }
        c
    }

    fn assert_matches_reference(c: &Circuit) -> PeepholeReport {
        let (mut fast, mut slow) = (c.clone(), c.clone());
        let report = optimize(&mut fast);
        assert_eq!(report, optimize_reference(&mut slow), "report of {c:?}");
        assert_eq!(fast, slow, "gates of {c:?}");
        report
    }

    proptest! {
        #[test]
        fn optimize_matches_the_reference_scan(
            n in 1usize..7,
            codes in proptest::collection::vec(
                (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
                0..80,
            ),
            theta in 0.1f64..3.0,
        ) {
            assert_matches_reference(&coded_circuit(n, &codes, theta));
        }
    }

    #[test]
    fn reference_cases_exercise_every_rule() {
        // The generator above must reach every rule the oracle pins: a
        // fixed xorshift stream over the same codes, on few qubits so
        // gates collide often.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut total = PeepholeReport::default();
        let mut multi_round = 0;
        for _ in 0..300 {
            let n = 1 + (next() % 3) as usize;
            let len = (next() % 80) as usize;
            let codes: Vec<(u8, u8, u8, u8)> = (0..len)
                .map(|_| {
                    let r = next().to_le_bytes();
                    (r[0], r[1], r[2], r[3])
                })
                .collect();
            let r = assert_matches_reference(&coded_circuit(n, &codes, 0.7));
            total.cancelled += r.cancelled;
            total.merged += r.merged;
            total.zero_rotations += r.zero_rotations;
            multi_round += usize::from(r.rounds > 2);
        }
        assert!(total.cancelled > 0 && total.merged > 0 && total.zero_rotations > 0);
        assert!(multi_round > 0, "no case needed more than two rounds");
    }

    #[test]
    fn adjacent_inverse_pairs_cancel() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::H(0));
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Cx(0, 1));
        let r = optimize(&mut c);
        assert_eq!(r.cancelled, 4);
        assert!(c.is_empty());
    }

    #[test]
    fn cancellation_through_commuting_gates() {
        // Rz on the control sits between two identical CNOTs: they cancel.
        let mut c = Circuit::new(2);
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Rz(0, 0.7));
        c.push(Gate::Cx(0, 1));
        optimize(&mut c);
        assert_eq!(c.gates(), &[Gate::Rz(0, 0.7)]);
    }

    #[test]
    fn rx_commutes_through_target() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Rx(1, 0.7));
        c.push(Gate::Cx(0, 1));
        optimize(&mut c);
        assert_eq!(c.gates(), &[Gate::Rx(1, 0.7)]);
    }

    #[test]
    fn h_blocks_cancellation() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx(0, 1));
        c.push(Gate::H(0));
        c.push(Gate::Cx(0, 1));
        optimize(&mut c);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn rz_through_shared_control_chain() {
        // CNOTs sharing a control commute, so the outer pair cancels.
        let mut c = Circuit::new(3);
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Cx(0, 2));
        c.push(Gate::Cx(0, 1));
        optimize(&mut c);
        assert_eq!(c.gates(), &[Gate::Cx(0, 2)]);
    }

    #[test]
    fn shared_target_cnots_commute() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cx(0, 2));
        c.push(Gate::Cx(1, 2));
        c.push(Gate::Cx(0, 2));
        optimize(&mut c);
        assert_eq!(c.gates(), &[Gate::Cx(1, 2)]);
    }

    #[test]
    fn control_target_collision_blocks() {
        // CX(0,1) then CX(1,2): 1 is target of the first, control of the
        // second — they do not commute, nothing cancels.
        let mut c = Circuit::new(3);
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Cx(1, 2));
        c.push(Gate::Cx(0, 1));
        optimize(&mut c);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn rotations_merge_and_vanish() {
        let mut c = Circuit::new(1);
        c.push(Gate::Rz(0, 0.5));
        c.push(Gate::Rz(0, -0.5));
        let r = optimize(&mut c);
        assert!(c.is_empty());
        assert_eq!(r.merged, 1);
        assert_eq!(r.zero_rotations, 1);
    }

    #[test]
    fn rotations_merge_across_commuting_cnot() {
        let mut c = Circuit::new(2);
        c.push(Gate::Rz(0, 0.25));
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Rz(0, 0.5));
        optimize(&mut c);
        assert_eq!(c.gates(), &[Gate::Rz(0, 0.75), Gate::Cx(0, 1)]);
    }

    #[test]
    fn s_sdg_pair_cancels() {
        let mut c = Circuit::new(1);
        c.push(Gate::S(0));
        c.push(Gate::Sdg(0));
        optimize(&mut c);
        assert!(c.is_empty());
    }

    #[test]
    fn swap_blocks_everything() {
        let mut c = Circuit::new(2);
        c.push(Gate::Rz(0, 0.5));
        c.push(Gate::Swap(0, 1));
        c.push(Gate::Rz(0, 0.5));
        optimize(&mut c);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn full_gadget_junction_cancels() {
        // Two adjacent ZZ gadgets exp(iθZZ) on the same pair collapse into
        // one gadget with merged rotation — the Fig. 4(a)-style win.
        let mut c = Circuit::new(2);
        for theta in [0.3, 0.4] {
            c.push(Gate::Cx(0, 1));
            c.push(Gate::Rz(1, theta));
            c.push(Gate::Cx(0, 1));
        }
        optimize(&mut c);
        assert_eq!(c.stats().cnot, 2);
        assert_eq!(c.stats().single, 1);
    }

    #[test]
    fn commutes_is_symmetric_on_rules() {
        let pairs = [
            (Gate::Rz(0, 0.1), Gate::Cx(0, 1)),
            (Gate::Rx(1, 0.1), Gate::Cx(0, 1)),
            (Gate::H(0), Gate::Cx(0, 1)),
            (Gate::Cx(0, 1), Gate::Cx(0, 2)),
            (Gate::Cx(0, 1), Gate::Cx(2, 1)),
            (Gate::Cx(0, 1), Gate::Cx(1, 2)),
        ];
        for (a, b) in pairs {
            assert_eq!(commutes(&a, &b), commutes(&b, &a), "{a} vs {b}");
        }
    }
}
