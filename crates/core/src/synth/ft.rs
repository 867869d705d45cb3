//! Block-wise optimization for the fault-tolerant backend (paper Alg. 2).
//!
//! On the FT backend mapping is free (quantum error correction absorbs
//! routing), so the pass maximizes gate cancellation: consecutive layer
//! pairs with the most operator overlap are selected greedily, the
//! junction strings of each pair are placed face to face, strings inside
//! every block are chained by `most_overlap_sort`, and the whole sequence
//! is synthesized with aligned CNOT chains (callers run one peephole pass
//! over the result).
//!
//! One deliberate simplification versus the pseudocode: paired layers are
//! *emitted in their scheduled order* (pairing only decides which junctions
//! get anchor strings). Re-emitting pairs in pairing order would destroy
//! the depth structure the DO scheduler created; keeping schedule order
//! preserves it while the junction anchors still realize the cancellation
//! the pairing found.

use pauli::PauliString;
use qcircuit::Circuit;

use crate::schedule::Layer;
use crate::synth::chain;

/// Result of FT-backend synthesis.
#[derive(Clone, Debug)]
pub struct FtResult {
    /// The logical circuit, before the peephole clean-up.
    pub circuit: Circuit,
    /// The `(string, θ)` sequence actually synthesized, in emission order —
    /// the compiled circuit implements `Π exp(iθP)` in exactly this order.
    pub emitted: Vec<(PauliString, f64)>,
}

/// Greedy pairing of adjacent layers by junction overlap (Alg. 2 lines
/// 1–5). Returns for each layer index the index it is paired with (self if
/// unpaired).
fn pair_layers(n: usize, layers: &[Layer]) -> Vec<usize> {
    let mut partner: Vec<usize> = (0..layers.len()).collect();
    if layers.len() < 2 {
        return partner;
    }
    let sigs: Vec<(PauliString, PauliString)> = layers
        .iter()
        .map(|l| (l.front_signature(n), l.back_signature(n)))
        .collect();
    let mut overlaps: Vec<(usize, usize)> = (0..layers.len() - 1)
        .map(|i| (sigs[i].1.overlap(&sigs[i + 1].0), i))
        .collect();
    overlaps.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut taken = vec![false; layers.len()];
    for (_, i) in overlaps {
        if !taken[i] && !taken[i + 1] {
            taken[i] = true;
            taken[i + 1] = true;
            partner[i] = i + 1;
            partner[i + 1] = i;
        }
    }
    partner
}

/// Greedy `most_overlap_sort`: orders `items` as a chain where each next
/// string maximizes overlap with the previous; the chain starts from the
/// item overlapping `seed` most (or the lexicographic first without a
/// seed).
fn most_overlap_chain(
    mut items: Vec<(PauliString, f64)>,
    seed: Option<&PauliString>,
) -> Vec<(PauliString, f64)> {
    let mut out = Vec::with_capacity(items.len());
    let mut current: Option<PauliString> = seed.cloned();
    while !items.is_empty() {
        let idx = match &current {
            Some(c) => (0..items.len())
                .max_by_key(|&i| items[i].0.overlap(c))
                .expect("non-empty"),
            None => 0,
        };
        let item = items.remove(idx);
        current = Some(item.0.clone());
        out.push(item);
    }
    out
}

/// Orders all strings of the scheduled layers for synthesis (Alg. 2).
pub fn order_strings(n: usize, layers: &[Layer]) -> Vec<(PauliString, f64)> {
    let partner = pair_layers(n, layers);
    // Junction anchors: for a pair (i, i+1), the string pair with maximal
    // overlap across the junction (Alg. 2 lines 7–9), first maximum wins.
    // This quadratic string × string sweep dominates FT synthesis on
    // large lattices.
    let mut start_anchor: Vec<Option<&PauliString>> = vec![None; layers.len()];
    let mut end_anchor: Vec<Option<&PauliString>> = vec![None; layers.len()];
    for i in (0..layers.len()).filter(|&i| partner[i] == i + 1) {
        let mut best: Option<(usize, &PauliString, &PauliString)> = None;
        for ta in layers[i].blocks.iter().flat_map(|bl| &bl.terms) {
            for tb in layers[i + 1].blocks.iter().flat_map(|bl| &bl.terms) {
                let ov = ta.string.overlap(&tb.string);
                if best.is_none_or(|(bo, _, _)| ov > bo) {
                    best = Some((ov, &ta.string, &tb.string));
                }
            }
        }
        if let Some((_, sa, sb)) = best {
            end_anchor[i] = Some(sa);
            start_anchor[i + 1] = Some(sb);
        }
    }

    let mut out: Vec<(PauliString, f64)> = Vec::new();
    for (li, layer) in layers.iter().enumerate() {
        // Order blocks: a block containing the start anchor goes first, one
        // containing the end anchor goes last; others keep schedule order.
        let contains = |bl: &crate::ir::PauliBlock, s: Option<&PauliString>| {
            s.is_some_and(|s| bl.terms.iter().any(|t| &t.string == s))
        };
        let mut firsts = Vec::new();
        let mut mids = Vec::new();
        let mut lasts = Vec::new();
        for bl in &layer.blocks {
            if contains(bl, start_anchor[li]) && !contains(bl, end_anchor[li]) {
                firsts.push(bl);
            } else if contains(bl, end_anchor[li]) && !contains(bl, start_anchor[li]) {
                lasts.push(bl);
            } else {
                mids.push(bl);
            }
        }
        for (kind, bl) in firsts
            .into_iter()
            .map(|b| (0u8, b))
            .chain(mids.into_iter().map(|b| (1, b)))
            .chain(lasts.into_iter().map(|b| (2, b)))
        {
            let items: Vec<(PauliString, f64)> = bl
                .terms
                .iter()
                .enumerate()
                .map(|(i, t)| (t.string.clone(), bl.theta(i)))
                .collect();
            let chained = match kind {
                0 => most_overlap_chain(items, start_anchor[li]),
                2 => {
                    // Chain built from the end anchor, then reversed so the
                    // anchor faces the next layer.
                    let mut rev = most_overlap_chain(items, end_anchor[li]);
                    rev.reverse();
                    rev
                }
                _ => {
                    let seed = out.last().map(|(s, _)| s.clone());
                    most_overlap_chain(items, seed.as_ref())
                }
            };
            out.extend(chained);
        }
    }
    out.retain(|(s, _)| !s.is_identity());
    out
}

/// Synthesizes scheduled layers for the FT backend, without the final
/// peephole clean-up ([`crate::compile_observed`] runs it as its own
/// stage).
pub fn synthesize(n: usize, layers: &[Layer]) -> FtResult {
    let emitted = order_strings(n, layers);
    let circuit = chain::synthesize_sequence(n, &emitted);
    FtResult { circuit, emitted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Parameter, PauliBlock, PauliIR};
    use crate::schedule;
    use pauli::PauliTerm;
    use qcircuit::peephole;

    /// Synthesis plus the peephole clean-up a full compile runs.
    fn optimized(n: usize, layers: &[Layer]) -> FtResult {
        let mut r = synthesize(n, layers);
        peephole::optimize(&mut r.circuit);
        r
    }

    fn ir_of(blocks: Vec<Vec<&str>>) -> PauliIR {
        let n = blocks[0][0].len();
        let mut ir = PauliIR::new(n);
        for strings in blocks {
            ir.push_block(PauliBlock::new(
                strings
                    .iter()
                    .map(|s| PauliTerm::new(s.parse().unwrap(), 1.0))
                    .collect(),
                Parameter::time(0.1),
            ));
        }
        ir
    }

    #[test]
    fn emitted_order_covers_all_strings() {
        let ir = ir_of(vec![vec!["ZZII", "XYII"], vec!["IIZZ"], vec!["IXXI"]]);
        let layers = schedule::schedule_gco(&ir);
        let r = optimized(4, &layers);
        assert_eq!(r.emitted.len(), 4);
    }

    #[test]
    fn ft_beats_naive_on_overlapping_strings() {
        // Strings sharing Z-prefixes: scheduling + aligned chains must
        // cancel CNOTs relative to independent naive gadgets.
        let strings = ["ZZZI", "ZZII", "ZZZZ", "ZIII", "ZZIZ"];
        let ir = ir_of(strings.iter().map(|s| vec![*s]).collect());
        let layers = schedule::schedule_gco(&ir);
        let r = optimized(4, &layers);
        let naive_cnot: usize = strings
            .iter()
            .map(|s| 2 * (s.chars().filter(|&c| c != 'I').count() - 1))
            .sum();
        assert!(
            r.circuit.stats().cnot < naive_cnot,
            "{} vs naive {}",
            r.circuit.stats().cnot,
            naive_cnot
        );
    }

    #[test]
    fn pairing_prefers_high_overlap_junctions() {
        let ir = ir_of(vec![vec!["XXXX"], vec!["XXXY"], vec!["ZZZZ"]]);
        // GCO order: XXXX, XXXY, ZZZZ. Junction overlaps: (0,1)=3, (1,2)=0.
        let layers = schedule::schedule_gco(&ir);
        let partner = pair_layers(4, &layers);
        assert_eq!(partner[0], 1);
        assert_eq!(partner[1], 0);
        assert_eq!(partner[2], 2);
    }

    #[test]
    fn most_overlap_chain_orders_by_similarity() {
        let items: Vec<(PauliString, f64)> = ["XXII", "ZZZZ", "XXXI"]
            .iter()
            .map(|s| (s.parse().unwrap(), 0.1))
            .collect();
        let seed: PauliString = "XXXX".parse().unwrap();
        let chained = most_overlap_chain(items, Some(&seed));
        let order: Vec<String> = chained.iter().map(|(s, _)| s.to_string()).collect();
        assert_eq!(order[0], "XXXI"); // overlap 3 with seed
        assert_eq!(order[1], "XXII"); // overlap 2 with XXXI
    }

    #[test]
    fn depth_scheduled_disjoint_blocks_parallelize() {
        // Two disjoint 2-qubit blocks under DO land in one layer and their
        // gadgets overlap in time.
        let ir = ir_of(vec![vec!["ZZIIII"], vec!["IIZZII"], vec!["IIIIZZ"]]);
        let layers = schedule::schedule_depth(&ir);
        let r = optimized(6, &layers);
        let single_gadget_depth = 3; // CX, Rz, CX
        assert!(
            r.circuit.stats().depth <= 2 * single_gadget_depth,
            "depth {} should show parallelism",
            r.circuit.stats().depth
        );
    }

    #[test]
    fn block_strings_stay_contiguous() {
        let ir = ir_of(vec![vec!["IIXY", "IIYX"], vec!["XYII", "YXII"]]);
        let layers = schedule::schedule_gco(&ir);
        let r = optimized(4, &layers);
        // The two low-qubit strings must be adjacent in emission order.
        let pos: Vec<usize> = r
            .emitted
            .iter()
            .enumerate()
            .filter(|(_, (s, _))| !s.is_active(3) && !s.is_active(2))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(pos.len(), 2);
        assert_eq!(pos[1] - pos[0], 1);
    }
}
