//! Block-wise instruction scheduling (paper §4).
//!
//! Two technology-independent passes order the blocks of a Pauli IR
//! program, both justified by the commutative-addition semantics of the IR:
//!
//! * [`schedule_gco`] — gate-count-oriented: lexicographic ordering of
//!   blocks by their (lexicographically sorted) first string, maximizing
//!   shared operators between consecutive strings (§4.1);
//! * [`schedule_depth`] — depth-oriented (Alg. 1): blocks sorted by
//!   decreasing active length are packed into *layers* of
//!   disjoint-support blocks so independent simulation circuits execute in
//!   parallel (§4.2).

use pauli::PauliString;

use crate::ir::{PauliBlock, PauliIR};

/// One scheduled layer: blocks intended to execute concurrently. The first
/// block is the layer's *anchor* (the large block on the critical path);
/// padding blocks are disjoint from it.
#[derive(Clone, Debug, PartialEq)]
pub struct Layer {
    /// Blocks of the layer; index 0 is the anchor.
    pub blocks: Vec<PauliBlock>,
}

impl Layer {
    /// The merged first strings of the layer's blocks — the Pauli pattern
    /// facing the *previous* layer. Overlapping supports (only possible for
    /// padding blocks stacked on the same qubits) keep the first-written
    /// operator.
    pub fn front_signature(&self, n: usize) -> PauliString {
        merge_strings(n, self.blocks.iter().map(|b| &b.terms[0].string))
    }

    /// The merged last strings — the pattern facing the *next* layer.
    pub fn back_signature(&self, n: usize) -> PauliString {
        merge_strings(
            n,
            self.blocks
                .iter()
                .map(|b| &b.terms[b.terms.len() - 1].string),
        )
    }

    /// Total strings in the layer.
    pub fn num_strings(&self) -> usize {
        self.blocks.iter().map(|b| b.terms.len()).sum()
    }
}

fn merge_strings<'a>(n: usize, strings: impl Iterator<Item = &'a PauliString>) -> PauliString {
    // Word-parallel first-written-wins accumulation over the two bit
    // planes; earlier blocks keep every qubit they claimed.
    let mut sig = PauliString::identity(n);
    for s in strings {
        sig.merge_keep_first(s);
    }
    sig
}

/// Gate-count-oriented scheduling (§4.1): sort each block's strings
/// lexicographically, then sort blocks by their first string; one block per
/// layer.
pub fn schedule_gco(ir: &PauliIR) -> Vec<Layer> {
    let mut blocks: Vec<PauliBlock> = ir.blocks().to_vec();
    for b in &mut blocks {
        b.sort_terms_lex();
    }
    blocks.sort_by(|a, b| a.representative().lex_cmp(b.representative()));
    blocks
        .into_iter()
        .map(|b| Layer { blocks: vec![b] })
        .collect()
}

/// Depth-oriented scheduling (Alg. 1).
///
/// Blocks are sorted by decreasing active length (ties: lexicographic).
/// Each layer starts from the remaining block with the most operator
/// overlap with the previous layer's back signature, then is padded with
/// blocks disjoint from the anchor whose accumulated depth estimate stays
/// within the anchor's depth.
pub fn schedule_depth(ir: &PauliIR) -> Vec<Layer> {
    /// Cap on how many remaining blocks the per-layer anchor argmax scans.
    /// Remaining blocks are kept sorted, so the candidates scanned are the
    /// largest ones (where the overlap decision matters); the cap keeps the
    /// pass near-linear on 60k+-block programs.
    const ANCHOR_SCAN_CAP: usize = 4096;

    let n = ir.num_qubits();
    let mut blocks: Vec<PauliBlock> = ir.blocks().to_vec();
    for b in &mut blocks {
        b.sort_terms_lex();
    }
    // Alg. 1 line 1, decorate-sort-undecorate: `active_len` is O(n) per
    // call, so hoist it out of the comparator. Sorting indices with the
    // same stable comparator yields the identical permutation.
    let lens: Vec<usize> = blocks.iter().map(PauliBlock::active_len).collect();
    let mut order: Vec<usize> = (0..blocks.len()).collect();
    order.sort_by(|&i, &j| {
        lens[j].cmp(&lens[i]).then_with(|| {
            blocks[i]
                .representative()
                .lex_cmp(blocks[j].representative())
        })
    });
    let mut slots: Vec<Option<PauliBlock>> = blocks.into_iter().map(Some).collect();
    let blocks: Vec<PauliBlock> = order
        .iter()
        .map(|&i| slots[i].take().expect("permutation index"))
        .collect();

    // Precomputed per-block metadata keeps the layer loops allocation-free.
    let masks: Vec<Vec<u64>> = blocks.iter().map(PauliBlock::active_mask).collect();
    let depths: Vec<usize> = blocks.iter().map(PauliBlock::depth_estimate).collect();

    // Support index over the active masks. Blocks touch a handful of words
    // even on 1000+-qubit programs, so each block's mask is flattened to
    // its occupied `(word, bits)` entries plus a one-word occupancy
    // summary (bit `g` set iff the block occupies a word in group `g`).
    // The padding scan then decides disjointness by intersecting the two
    // summaries — O(1) for the common all-free case — and falls back to
    // the candidate's occupied words only, never the full ⌈n/64⌉-word
    // mask re-test of every surviving block.
    let words = n.div_ceil(64);
    let group = words.div_ceil(64).max(1); // mask words per summary bit
    let mut occ_entries: Vec<(u32, u64)> = Vec::new();
    let mut occ_ranges: Vec<(u32, u32)> = Vec::with_capacity(masks.len());
    let mut summaries: Vec<u64> = Vec::with_capacity(masks.len());
    for mask in &masks {
        let start = occ_entries.len() as u32;
        let mut summary = 0u64;
        for (w, &bits) in mask.iter().enumerate() {
            if bits != 0 {
                occ_entries.push((w as u32, bits));
                summary |= 1 << (w / group);
            }
        }
        occ_ranges.push((start, occ_entries.len() as u32));
        summaries.push(summary);
    }
    let occ_of = |i: usize| {
        let (s, e) = occ_ranges[i];
        &occ_entries[s as usize..e as usize]
    };

    let mut remaining: Vec<Option<PauliBlock>> = blocks.into_iter().map(Some).collect();
    let mut left = remaining.len();
    // Skip pointers: `skip[i]` is a monotone hint for the first alive slot
    // at or after `i`, path-compressed as slots are consumed, so neither
    // the anchor argmax nor the padding scan ever re-walks a dead run (the
    // old code compacted only the leading anchor prefix and re-tested
    // every interior taken slot on every layer).
    let mut skip: Vec<u32> = (0..remaining.len() as u32).collect();
    let mut next_alive = 0usize;
    let mut layers: Vec<Layer> = Vec::new();

    while left > 0 {
        next_alive = first_alive(&mut skip, &remaining, next_alive);
        // Anchor selection: the first sorted block for the first layer;
        // afterwards the block overlapping the previous layer most (Alg. 1
        // line 5), ties resolved by sorted position.
        let anchor_idx = match layers.last() {
            None => next_alive,
            Some(prev) => {
                let back = prev.back_signature(n);
                let mut best = (0usize, usize::MAX);
                let mut scanned = 0usize;
                let mut i = next_alive;
                while i < remaining.len() {
                    let b = remaining[i].as_ref().expect("alive slot");
                    let ov = back.overlap(&b.terms[0].string);
                    if best.1 == usize::MAX || ov > best.0 {
                        best = (ov, i);
                    }
                    scanned += 1;
                    if scanned >= ANCHOR_SCAN_CAP {
                        break;
                    }
                    i = first_alive(&mut skip, &remaining, i + 1);
                }
                best.1
            }
        };
        let anchor = remaining[anchor_idx].take().expect("anchor exists");
        left -= 1;
        let budget = depths[anchor_idx];
        let mut layer_mask = masks[anchor_idx].clone();
        let mut layer_summary = summaries[anchor_idx];
        let mut layer = Layer {
            blocks: vec![anchor],
        };
        // Padding (Alg. 1 lines 7–10): small blocks disjoint from every
        // block already in the layer, so they execute in parallel. Since
        // pads are pairwise disjoint their depths do not stack — each pad
        // only has to fit under the anchor's depth individually.
        let mut i = first_alive(&mut skip, &remaining, next_alive);
        next_alive = i;
        while i < remaining.len() {
            if depths[i] <= budget
                && (summaries[i] & layer_summary == 0
                    || occ_of(i)
                        .iter()
                        .all(|&(w, bits)| layer_mask[w as usize] & bits == 0))
            {
                for &(w, bits) in occ_of(i) {
                    layer_mask[w as usize] |= bits;
                }
                layer_summary |= summaries[i];
                layer
                    .blocks
                    .push(remaining[i].take().expect("candidate exists"));
                left -= 1;
            }
            i = first_alive(&mut skip, &remaining, i + 1);
        }
        layers.push(layer);
    }
    layers
}

/// The first alive slot at or after `from` (or `remaining.len()`),
/// path-compressing the skip pointers so consumed runs are crossed in
/// amortized O(1) on later visits.
fn first_alive(skip: &mut [u32], remaining: &[Option<PauliBlock>], from: usize) -> usize {
    let mut i = from;
    while i < remaining.len() && remaining[i].is_none() {
        i = (skip[i] as usize).max(i + 1);
    }
    let mut j = from;
    while j < i {
        let hop = (skip[j] as usize).max(j + 1);
        skip[j] = i as u32;
        j = hop;
    }
    i
}

/// Flattens layers back to a block list (program order of execution).
pub fn flatten(layers: &[Layer]) -> Vec<&PauliBlock> {
    layers.iter().flat_map(|l| l.blocks.iter()).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ir::Parameter;
    use pauli::PauliTerm;

    fn block(strings: &[&str]) -> PauliBlock {
        PauliBlock::new(
            strings
                .iter()
                .map(|s| PauliTerm::new(s.parse().unwrap(), 1.0))
                .collect(),
            Parameter::time(1.0),
        )
    }

    fn ir_of(blocks: Vec<PauliBlock>) -> PauliIR {
        let n = blocks[0].num_qubits();
        let mut ir = PauliIR::new(n);
        for b in blocks {
            ir.push_block(b);
        }
        ir
    }

    #[test]
    fn gco_orders_blocks_lexicographically() {
        let ir = ir_of(vec![block(&["ZZII"]), block(&["XXII"]), block(&["YIII"])]);
        let layers = schedule_gco(&ir);
        let reps: Vec<String> = layers
            .iter()
            .map(|l| l.blocks[0].representative().to_string())
            .collect();
        assert_eq!(reps, vec!["XXII", "YIII", "ZZII"]);
        assert!(layers.iter().all(|l| l.blocks.len() == 1));
    }

    #[test]
    fn gco_sorts_strings_within_blocks() {
        let ir = ir_of(vec![block(&["ZZII", "XYII"])]);
        let layers = schedule_gco(&ir);
        assert_eq!(layers[0].blocks[0].representative().to_string(), "XYII");
    }

    #[test]
    fn depth_sorts_by_active_length_first() {
        let ir = ir_of(vec![block(&["XIII"]), block(&["ZZZZ"]), block(&["XXII"])]);
        let layers = schedule_depth(&ir);
        // Largest block (4 active) anchors the first layer.
        assert_eq!(layers[0].blocks[0].representative().to_string(), "ZZZZ");
    }

    #[test]
    fn depth_packs_disjoint_blocks_in_one_layer() {
        // A 4-qubit anchor (depth 7) plus two disjoint 2-qubit blocks
        // (depth 3 each → 6 ≤ 7): all fit one layer.
        let ir = ir_of(vec![
            block(&["IIIIXX"]),
            block(&["ZZZZII"]),
            block(&["IIIIZZ"]),
        ]);
        let layers = schedule_depth(&ir);
        assert_eq!(layers.len(), 2, "{layers:?}");
        assert_eq!(layers[0].blocks.len(), 2);
        assert!(layers[0].blocks[0].disjoint_with(&layers[0].blocks[1]));
    }

    #[test]
    fn depth_padding_packs_all_parallel_blocks() {
        // Three pairwise-disjoint equal-depth blocks run in parallel: one
        // layer. (Pads are pairwise disjoint, so depths do not stack.)
        let ir = ir_of(vec![
            block(&["ZZIIII"]),
            block(&["IIZZII"]),
            block(&["IIIIZZ"]),
        ]);
        let layers = schedule_depth(&ir);
        assert_eq!(layers.len(), 1);
        assert_eq!(layers[0].blocks.len(), 3);
    }

    #[test]
    fn depth_padding_rejects_deeper_blocks() {
        // The anchor is the deepest block; a disjoint but *deeper* block
        // cannot pad a shallower anchor's layer — but here the deepest
        // block anchors first, so the shallow one pads it.
        let ir = ir_of(vec![block(&["ZZZZII"]), block(&["IIIIZZ"])]);
        let layers = schedule_depth(&ir);
        assert_eq!(layers.len(), 1);
        // Reversed case: anchor shallow (after the deep one is consumed),
        // nothing deeper can join.
        let ir = ir_of(vec![
            block(&["ZZIIIIII"]),
            block(&["IIZZZZZZ"]),
            block(&["ZZIIIIII"]),
        ]);
        let layers = schedule_depth(&ir);
        // Deep block anchors layer 1 and one ZZ pads it; the second ZZ
        // anchors its own layer.
        assert_eq!(layers.len(), 2);
    }

    #[test]
    fn depth_never_packs_overlapping_blocks() {
        let ir = ir_of(vec![block(&["ZZZI"]), block(&["IIZZ"])]);
        let layers = schedule_depth(&ir);
        assert_eq!(layers.len(), 2);
    }

    #[test]
    fn anchor_follows_overlap_with_previous_layer() {
        // After anchor ZZZZ, the next anchor should be the block sharing
        // more operators with it: ZZII (overlap 2) over XXII (overlap 0).
        let ir = ir_of(vec![block(&["ZZZZ"]), block(&["XXII"]), block(&["ZZII"])]);
        let layers = schedule_depth(&ir);
        assert_eq!(layers[1].blocks[0].representative().to_string(), "ZZII");
    }

    #[test]
    fn signatures_merge_disjoint_blocks() {
        let l = Layer {
            blocks: vec![block(&["ZZII"]), block(&["IIXY"])],
        };
        assert_eq!(l.front_signature(4).to_string(), "ZZXY");
        assert_eq!(l.back_signature(4).to_string(), "ZZXY");
        assert_eq!(l.num_strings(), 2);
    }

    #[test]
    fn signatures_keep_first_written_operator_on_overlap() {
        // Padding blocks stacked on the same qubits (possible when a layer
        // is built from blocks whose *boundary* strings overlap even though
        // their active masks were disjoint at scheduling time — e.g. after
        // hand-construction or future relaxations): the earlier block's
        // operator must win on every contested qubit.
        let l = Layer {
            blocks: vec![block(&["ZZII"]), block(&["XYII"]), block(&["IIXX"])],
        };
        // Qubits 2,3 are claimed by ZZ first; XY must not overwrite them.
        assert_eq!(l.front_signature(4).to_string(), "ZZXX");
        assert_eq!(l.back_signature(4).to_string(), "ZZXX");

        // Partial overlap: the second block is identity on qubit 2 but
        // active on 1; only the free qubit is filled in.
        let l = Layer {
            blocks: vec![block(&["IZZI"]), block(&["IXYZ"])],
        };
        assert_eq!(l.front_signature(4).to_string(), "IZZZ");

        // Cross-word overlap: same first-written-wins semantics above
        // qubit 63.
        let wide_a = format!("ZZ{}", "I".repeat(68)); // Z on qubits 68,69
        let wide_b = format!("XYX{}", "I".repeat(67)); // X,Y,X on 67,68,69
        let l = Layer {
            blocks: vec![block(&[&wide_a]), block(&[&wide_b])],
        };
        let sig = l.front_signature(70);
        assert_eq!(sig.get(69), pauli::Pauli::Z);
        assert_eq!(sig.get(68), pauli::Pauli::Z);
        assert_eq!(sig.get(67), pauli::Pauli::X);
        assert_eq!(sig.weight(), 3);
    }

    /// The depth scheduler exactly as it shipped before the support-indexed
    /// rewrite (full `remaining` scan, per-word mask re-tests, `next_alive`
    /// compacted only on the leading anchor path). The stress test below
    /// pins the rewrite to this reference bit-for-bit.
    fn schedule_depth_reference(ir: &PauliIR) -> Vec<Layer> {
        const ANCHOR_SCAN_CAP: usize = 4096;
        let n = ir.num_qubits();
        let mut blocks: Vec<PauliBlock> = ir.blocks().to_vec();
        for b in &mut blocks {
            b.sort_terms_lex();
        }
        blocks.sort_by(|a, b| {
            b.active_len()
                .cmp(&a.active_len())
                .then_with(|| a.representative().lex_cmp(b.representative()))
        });
        let masks: Vec<Vec<u64>> = blocks.iter().map(PauliBlock::active_mask).collect();
        let depths: Vec<usize> = blocks.iter().map(PauliBlock::depth_estimate).collect();
        let disjoint = |a: &[u64], b: &[u64]| a.iter().zip(b).all(|(x, y)| x & y == 0);
        let mut remaining: Vec<Option<PauliBlock>> = blocks.into_iter().map(Some).collect();
        let mut left = remaining.len();
        let mut next_alive = 0usize;
        let mut layers: Vec<Layer> = Vec::new();
        while left > 0 {
            while remaining[next_alive].is_none() {
                next_alive += 1;
            }
            let anchor_idx = match layers.last() {
                None => next_alive,
                Some(prev) => {
                    let back = prev.back_signature(n);
                    let mut best = (0usize, usize::MAX);
                    let mut scanned = 0usize;
                    for (i, slot) in remaining.iter().enumerate().skip(next_alive) {
                        if let Some(b) = slot {
                            let ov = back.overlap(&b.terms[0].string);
                            if best.1 == usize::MAX || ov > best.0 {
                                best = (ov, i);
                            }
                            scanned += 1;
                            if scanned >= ANCHOR_SCAN_CAP {
                                break;
                            }
                        }
                    }
                    best.1
                }
            };
            let anchor = remaining[anchor_idx].take().expect("anchor exists");
            left -= 1;
            let budget = depths[anchor_idx];
            let mut layer_mask = masks[anchor_idx].clone();
            let mut layer = Layer {
                blocks: vec![anchor],
            };
            for i in next_alive..remaining.len() {
                if remaining[i].is_none() {
                    continue;
                }
                if depths[i] <= budget && disjoint(&masks[i], &layer_mask) {
                    for (m, w) in layer_mask.iter_mut().zip(&masks[i]) {
                        *m |= w;
                    }
                    layer
                        .blocks
                        .push(remaining[i].take().expect("candidate exists"));
                    left -= 1;
                }
            }
            layers.push(layer);
        }
        layers
    }

    /// Deterministic many-blocks IR: mixed support sizes and multi-string
    /// blocks scattered over enough qubits to cross word boundaries.
    pub(crate) fn stress_ir(n: usize, num_blocks: usize, seed: u64) -> PauliIR {
        let mut state = seed;
        let mut rng = move |m: usize| {
            // LCG (Numerical Recipes constants); high bits for quality.
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m
        };
        let paulis = [pauli::Pauli::X, pauli::Pauli::Y, pauli::Pauli::Z];
        let mut ir = PauliIR::new(n);
        for _ in 0..num_blocks {
            let num_terms = 1 + rng(3);
            let mut terms = Vec::with_capacity(num_terms);
            for _ in 0..num_terms {
                let mut s = PauliString::identity(n);
                let weight = 1 + rng(6);
                for _ in 0..weight {
                    s.set(rng(n), paulis[rng(3)]);
                }
                terms.push(PauliTerm::new(s, 1.0));
            }
            ir.push_block(PauliBlock::new(terms, Parameter::time(0.1)));
        }
        ir
    }

    #[test]
    fn depth_rewrite_is_bit_identical_to_reference_on_many_blocks() {
        // Dense small program, a two-word program, and a sparse wide one
        // (many fully-disjoint pads per layer, long dead runs to skip).
        for (n, num_blocks, seed) in [(12, 120, 7), (96, 300, 11), (150, 400, 23)] {
            let ir = stress_ir(n, num_blocks, seed);
            let new = schedule_depth(&ir);
            let reference = schedule_depth_reference(&ir);
            assert_eq!(new.len(), reference.len(), "layer count n={n}");
            assert_eq!(new, reference, "layers diverged for n={n}");
        }
    }

    #[test]
    fn scheduling_preserves_multiset_of_strings() {
        let ir = ir_of(vec![
            block(&["ZZII", "XYII"]),
            block(&["IIZZ"]),
            block(&["IXXI"]),
        ]);
        for layers in [schedule_gco(&ir), schedule_depth(&ir)] {
            let total: usize = layers.iter().map(Layer::num_strings).sum();
            assert_eq!(total, ir.total_strings());
            // Block atomicity: the two-string block stays together.
            let found = layers
                .iter()
                .flat_map(|l| &l.blocks)
                .any(|b| b.terms.len() == 2);
            assert!(found);
        }
    }
}
