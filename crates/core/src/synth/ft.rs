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

/// A layer's strings in emission-candidate order: blocks in order, terms
/// in order.
fn layer_strings(layer: &Layer) -> impl Iterator<Item = &PauliString> {
    layer
        .blocks
        .iter()
        .flat_map(|bl| &bl.terms)
        .map(|t| &t.string)
}

/// The non-zero words of `s`'s support bit set, as `(word, bits)`.
fn support_words(s: &PauliString) -> impl Iterator<Item = (usize, u64)> + '_ {
    s.x_words()
        .iter()
        .zip(s.z_words())
        .map(|(&x, &z)| x | z)
        .enumerate()
        .filter(|&(_, m)| m != 0)
}

/// One optional anchor string per layer.
type Anchors<'a> = Vec<Option<&'a PauliString>>;

/// Junction anchors (Alg. 2 lines 7–9): for each paired junction
/// `(i, i + 1)`, the string pair with maximal overlap across it, the first
/// maximum in `(layer i index, layer i + 1 index)` order; a junction whose
/// every overlap is 0 anchors its two first strings. Returns
/// `(end_anchor, start_anchor)` per layer.
///
/// Only strings that share support can overlap, so each string of layer
/// `i` scores just the strings of layer `i + 1` that share a qubit with
/// it. They are found in an index of layer `i + 1` by 64-qubit support
/// word, and one word test drops those that only share the word. Word
/// rows (rather than qubit rows) keep the index O(words) per string, so
/// dense strings on few words cost no more than one `overlap`. The rows
/// are reused across junctions and only the touched ones reset.
fn junction_anchors<'a>(
    n: usize,
    layers: &'a [Layer],
    partner: &[usize],
) -> (Anchors<'a>, Anchors<'a>) {
    let mut end_anchor: Anchors = vec![None; layers.len()];
    let mut start_anchor: Anchors = vec![None; layers.len()];
    // `on_word[w]`: indices into `next` of the strings active in word `w`.
    let mut on_word: Vec<Vec<usize>> = vec![Vec::new(); n.div_ceil(64)];
    let mut touched: Vec<usize> = Vec::new();
    let mut next: Vec<&PauliString> = Vec::new();
    // `scored[k]`: the last string of layer `i` that scored `next[k]`.
    let mut scored: Vec<usize> = Vec::new();
    for i in (0..layers.len()).filter(|&i| partner[i] == i + 1) {
        next.clear();
        next.extend(layer_strings(&layers[i + 1]));
        let (Some(a0), Some(&b0)) = (layer_strings(&layers[i]).next(), next.first()) else {
            continue;
        };
        for (k, b) in next.iter().enumerate() {
            for (w, _) in support_words(b) {
                if on_word[w].is_empty() {
                    touched.push(w);
                }
                on_word[w].push(k);
            }
        }
        scored.clear();
        scored.resize(next.len(), usize::MAX);
        // The best pair with a positive overlap, replaced only on `>`.
        let mut best: Option<(usize, &PauliString, &PauliString)> = None;
        for (ai, a) in layer_strings(&layers[i]).enumerate() {
            // This string's best partner: the maximum, lowest index first.
            let mut local: Option<(usize, usize)> = None;
            for (w, bits) in support_words(a) {
                for &k in &on_word[w] {
                    let b = next[k];
                    if (b.x_words()[w] | b.z_words()[w]) & bits == 0 || scored[k] == ai {
                        continue;
                    }
                    scored[k] = ai;
                    let ov = a.overlap(b);
                    if local.is_none_or(|(bo, bk)| ov > bo || (ov == bo && k < bk)) {
                        local = Some((ov, k));
                    }
                }
            }
            if let Some((ov, k)) = local.filter(|&(ov, _)| ov > best.map_or(0, |b| b.0)) {
                best = Some((ov, a, next[k]));
            }
        }
        for w in touched.drain(..) {
            on_word[w].clear();
        }
        let (sa, sb) = best.map_or((a0, b0), |(_, sa, sb)| (sa, sb));
        end_anchor[i] = Some(sa);
        start_anchor[i + 1] = Some(sb);
    }
    (end_anchor, start_anchor)
}

/// Orders all strings of the scheduled layers for synthesis (Alg. 2).
pub fn order_strings(n: usize, layers: &[Layer]) -> Vec<(PauliString, f64)> {
    let partner = pair_layers(n, layers);
    let (end_anchor, start_anchor) = junction_anchors(n, layers, &partner);

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
    use pauli::{Pauli, PauliTerm};
    use proptest::prelude::*;
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

    /// The junction sweep as it stood before the support index: every
    /// string of one layer against every string of the next, first
    /// maximum wins. Kept as the oracle that pins [`junction_anchors`].
    fn junction_anchors_reference<'a>(
        layers: &'a [Layer],
        partner: &[usize],
    ) -> (Anchors<'a>, Anchors<'a>) {
        let mut end_anchor: Anchors = vec![None; layers.len()];
        let mut start_anchor: Anchors = vec![None; layers.len()];
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
        (end_anchor, start_anchor)
    }

    /// A string on `n` qubits from `seed`: a qubit is active with
    /// probability `1 / sparsity`, with an operator from `alphabet` (0: any,
    /// 1: X only, 2: Z only). Sparse strings are often the identity.
    fn seeded_string(n: usize, seed: u64, sparsity: u64, alphabet: u8) -> PauliString {
        let mut s = PauliString::identity(n);
        for q in 0..n {
            let mut h = seed ^ (q as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h = (h ^ (h >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 29;
            if !h.is_multiple_of(sparsity) {
                continue;
            }
            let p = match alphabet {
                1 => Pauli::X,
                2 => Pauli::Z,
                _ => [Pauli::X, Pauli::Y, Pauli::Z][(h >> 8) as usize % 3],
            };
            s.set(q, p);
        }
        s
    }

    fn assert_anchors_match_reference(layers: &[Layer], partner: &[usize]) {
        let ptrs = |v: Anchors| -> Vec<Option<*const PauliString>> {
            v.into_iter().map(|a| a.map(|s| s as *const _)).collect()
        };
        let n = layers
            .iter()
            .flat_map(|l| &l.blocks)
            .map(|b| b.terms[0].num_qubits())
            .next()
            .unwrap_or(0);
        let (end, start) = junction_anchors(n, layers, partner);
        let (end_ref, start_ref) = junction_anchors_reference(layers, partner);
        assert_eq!(ptrs(end), ptrs(end_ref), "end anchors");
        assert_eq!(ptrs(start), ptrs(start_ref), "start anchors");
    }

    proptest! {
        #[test]
        fn junction_anchors_match_the_reference_sweep(
            n in 1usize..140,
            sparsity in 1u64..12,
            layers in proptest::collection::vec(
                (0u8..3, proptest::collection::vec(
                    proptest::collection::vec(any::<u64>(), 1..4),
                    0..5,
                )),
                0..7,
            ),
            fixed_pairs in any::<bool>(),
        ) {
            let layers: Vec<Layer> = layers
                .into_iter()
                .map(|(alphabet, blocks)| Layer {
                    blocks: blocks
                        .into_iter()
                        .map(|seeds| {
                            let terms = seeds
                                .into_iter()
                                .map(|seed| {
                                    PauliTerm::new(seeded_string(n, seed, sparsity, alphabet), 1.0)
                                })
                                .collect();
                            PauliBlock::new(terms, Parameter::time(0.1))
                        })
                        .collect(),
                })
                .collect();
            // Greedy pairing as synthesis runs it, or the fixed pairing
            // (0, 1), (2, 3), … that also pairs low-overlap junctions.
            let partner: Vec<usize> = if fixed_pairs {
                (0..layers.len())
                    .map(|i| match i % 2 {
                        0 if i + 1 < layers.len() => i + 1,
                        0 => i,
                        _ => i - 1,
                    })
                    .collect()
            } else {
                pair_layers(n, &layers)
            };
            assert_anchors_match_reference(&layers, &partner);
        }
    }

    #[test]
    fn all_zero_junction_anchors_on_the_first_pair() {
        // X-only strings face Z-only strings on the same qubits: every
        // overlap is 0, and the first pair is still the anchor.
        let layer = |strings: &[&str]| Layer {
            blocks: strings
                .iter()
                .map(|s| {
                    PauliBlock::new(
                        vec![PauliTerm::new(s.parse().unwrap(), 1.0)],
                        Parameter::time(0.1),
                    )
                })
                .collect(),
        };
        let layers = [layer(&["XXI", "IXX"]), layer(&["ZZI", "IIZ"])];
        let (end, start) = junction_anchors(3, &layers, &[1, 0]);
        assert!(std::ptr::eq(
            end[0].unwrap(),
            &layers[0].blocks[0].terms[0].string
        ));
        assert!(std::ptr::eq(
            start[1].unwrap(),
            &layers[1].blocks[0].terms[0].string
        ));
        assert_anchors_match_reference(&layers, &[1, 0]);
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
