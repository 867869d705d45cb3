//! Block-wise optimization for the superconducting backend (paper Alg. 3).
//!
//! The SC pass is mapping-aware. It first seats the logical qubits on the
//! device's most connected subgraph (line 1) with an incremental greedy
//! over sparse interaction lists, O(n) per placed qubit. It then embeds the
//! CNOT tree of each Pauli string directly in the device coupling map so
//! the gadget ladders need no per-CNOT routing. Per layer it processes the
//! largest block first (critical path): the block's active qubits are
//! pulled together through lowest-error shortest paths (persistent SWAPs —
//! the embedded-tree transformations of Fig. 10(d)), each string is
//! synthesized as a BFS tree fold over its active nodes, and strings are
//! emitted cheapest-routing-first (already-adjacent gadgets are free),
//! tie-broken by operator overlap for cancellation. Small blocks whose
//! active regions avoid the anchor's run in parallel; conflicting ones are
//! deferred to `remain_layers` and compiled at the end ordered by
//! cumulative active-qubit distance (Alg. 3 lines 18–23).

use pauli::PauliString;
use qcircuit::{Circuit, Gate};
use qdevice::{CouplingMap, Layout, NoiseModel};

use crate::ir::PauliBlock;
use crate::schedule::Layer;
use crate::synth::chain::{basis_in, basis_out};

/// Result of SC-backend synthesis: a hardware-conformant physical circuit
/// plus the layout bookkeeping needed to interpret it.
#[derive(Clone, Debug)]
pub struct ScResult {
    /// The physical circuit (only coupled CNOT/SWAP pairs are used),
    /// before the peephole clean-up.
    pub circuit: Circuit,
    /// Initial physical position of every logical qubit.
    pub initial_l2p: Vec<usize>,
    /// Final physical position of every logical qubit.
    pub final_l2p: Vec<usize>,
    /// The `(string, θ)` sequence in emission order.
    pub emitted: Vec<(PauliString, f64)>,
}

/// Why a small block could not be processed in parallel with its layer's
/// anchor.
struct Deferred;

/// Picks the initial layout (Alg. 3 line 1): logical qubits go to the most
/// connected subgraph of the device, assigned greedily so strongly
/// interacting logical qubits (co-active in many strings) sit close
/// together.
///
/// One placement scans the unplaced qubits once and the free seats once:
/// every unplaced qubit's link into the placed set is kept up to date
/// from the sparse partner lists, and a seat is scored over the new
/// qubit's placed partners only (the skipped terms all have weight 0).
fn choose_initial_layout(n_logical: usize, layers: &[Layer], device: &CouplingMap) -> Vec<usize> {
    let subgraph = device.most_connected_subgraph(n_logical);
    let (partners, total) = interaction_partners(n_logical, layers);
    // Seed: the busiest logical qubit (last maximum) on the first subgraph
    // node of maximal in-subgraph degree.
    let seed = (0..n_logical).max_by_key(|&l| total[l]).unwrap_or(0);
    let mut in_subgraph = vec![false; device.num_qubits()];
    for &p in &subgraph {
        in_subgraph[p] = true;
    }
    let mut free = subgraph;
    let inner_degree = |p: usize| {
        device
            .neighbors(p)
            .iter()
            .filter(|&&q| in_subgraph[q])
            .count()
    };
    let max_degree = free.iter().map(|&p| inner_degree(p)).max().unwrap_or(0);
    let seat = free
        .iter()
        .position(|&p| inner_degree(p) == max_degree)
        .unwrap_or(0);
    let mut l2p = vec![usize::MAX; n_logical];
    // `link[l]`: total interaction weight between `l` and the placed set.
    let mut link = vec![0u64; n_logical];
    let mut placed_partners: Vec<(usize, u64)> = Vec::new();
    let (mut next, mut seat) = (seed, seat);
    for placed in 1..=n_logical {
        l2p[next] = free.remove(seat);
        for &(q, w) in &partners[next] {
            link[q] += w;
        }
        if placed == n_logical {
            break;
        }
        // Next logical: strongest link into the placed set, then busiest;
        // the last maximum wins.
        next = (0..n_logical)
            .filter(|&l| l2p[l] == usize::MAX)
            .max_by_key(|&l| (link[l], total[l]))
            .expect("unplaced logical exists");
        // Seat minimizing weighted distance to its placed partners; the
        // first minimum wins. Distances are symmetric, and reading them
        // from the partner's row keeps those few rows in cache across the
        // scan.
        placed_partners.clear();
        placed_partners.extend(
            partners[next]
                .iter()
                .filter(|&&(q, _)| l2p[q] != usize::MAX)
                .map(|&(q, w)| (l2p[q], w)),
        );
        seat = (0..free.len())
            .min_by_key(|&k| {
                placed_partners
                    .iter()
                    .map(|&(p, w)| w * u64::from(device.distance(p, free[k])))
                    .sum::<u64>()
            })
            .expect("free seat exists");
    }
    l2p
}

/// Sparse interaction weights: `partners[a]` lists every `(b, w)` with
/// `w > 0` strings active on both `a` and `b`, and `total[a]` is the sum
/// of those weights. Rows are accumulated one qubit at a time over the
/// strings active on it, so the work is the number of co-active pairs and
/// no n × n matrix is allocated.
fn interaction_partners(n: usize, layers: &[Layer]) -> (Vec<Vec<(usize, u64)>>, Vec<u64>) {
    let mut supports: Vec<usize> = Vec::new();
    let mut bounds = vec![0];
    let mut strings_on: Vec<Vec<usize>> = vec![Vec::new(); n];
    for term in layers.iter().flat_map(|l| &l.blocks).flat_map(|b| &b.terms) {
        let id = bounds.len() - 1;
        for q in term.string.support() {
            strings_on[q].push(id);
            supports.push(q);
        }
        bounds.push(supports.len());
    }
    let mut partners = Vec::with_capacity(n);
    let mut total = vec![0u64; n];
    let mut weight = vec![0u64; n];
    let mut seen: Vec<usize> = Vec::new();
    for (a, ids) in strings_on.iter().enumerate() {
        for &id in ids {
            for &b in &supports[bounds[id]..bounds[id + 1]] {
                if b != a {
                    if weight[b] == 0 {
                        seen.push(b);
                    }
                    weight[b] += 1;
                }
            }
        }
        let row: Vec<(usize, u64)> = seen
            .drain(..)
            .map(|b| (b, std::mem::take(&mut weight[b])))
            .collect();
        total[a] = row.iter().map(|&(_, w)| w).sum();
        partners.push(row);
    }
    (partners, total)
}

/// Connects the current positions of `logicals` into one component of the
/// coupling graph by persistent SWAPs along lowest-cost paths.
///
/// In constrained mode (`allowed = Some`) every path node must be allowed;
/// otherwise the caller's block is deferred. Touched nodes are recorded in
/// `touched`.
fn connect_positions(
    logicals: &[usize],
    device: &CouplingMap,
    noise: Option<&NoiseModel>,
    layout: &mut Layout,
    circuit: &mut Circuit,
    allowed: Option<&[bool]>,
    touched: &mut [bool],
) -> Result<(), Deferred> {
    let ok = |p: usize| allowed.is_none_or(|m| m[p]);
    let cost = |u: usize, v: usize| -> f64 {
        if !ok(u) || !ok(v) {
            return 1e18;
        }
        match noise {
            Some(nm) => nm.cx_error(u, v),
            None => 1.0,
        }
    };
    if !logicals.iter().all(|&l| ok(layout.phys(l))) {
        return Err(Deferred);
    }
    loop {
        let positions: Vec<usize> = logicals.iter().map(|&l| layout.phys(l)).collect();
        for &p in &positions {
            touched[p] = true;
        }
        let comps = device.components_within(&positions);
        if comps.len() <= 1 {
            return Ok(());
        }
        // Merge the component closest to the largest one into it.
        let main = comps
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| c.len())
            .expect("non-empty")
            .0;
        let mut in_main = vec![false; device.num_qubits()];
        for &p in &comps[main] {
            in_main[p] = true;
        }
        let mut best: Option<Vec<usize>> = None;
        for (ci, comp) in comps.iter().enumerate() {
            if ci == main {
                continue;
            }
            for &p in comp {
                let path = device.shortest_path_to_set(p, &in_main, cost);
                if path.is_empty() {
                    continue;
                }
                if best.as_ref().is_none_or(|b| path.len() < b.len()) {
                    best = Some(path);
                }
            }
        }
        let Some(path) = best else {
            return Err(Deferred);
        };
        if path.iter().any(|&p| !ok(p)) {
            return Err(Deferred);
        }
        // Swap the component's qubit up to the node adjacent to main.
        for w in path[..path.len() - 1].windows(2) {
            circuit.push(Gate::Swap(w[0], w[1]));
            layout.swap_physical(w[0], w[1]);
            touched[w[0]] = true;
            touched[w[1]] = true;
        }
    }
}

/// Synthesizes one Pauli string whose active positions are already
/// connected: BFS-tree fold (deepest first) into a root, `Rz`, mirror.
fn synth_connected_string(
    string: &PauliString,
    theta: f64,
    root_logical: usize,
    device: &CouplingMap,
    layout: &Layout,
    circuit: &mut Circuit,
) {
    let support = string.support();
    for &l in &support {
        if let Some(g) = basis_in(layout.phys(l), string.get(l)) {
            circuit.push(g);
        }
    }
    if support.len() == 1 {
        circuit.push(Gate::Rz(layout.phys(support[0]), -2.0 * theta));
    } else {
        let root = layout.phys(root_logical);
        let positions: Vec<usize> = support.iter().map(|&l| layout.phys(l)).collect();
        let mut in_set = vec![false; device.num_qubits()];
        for &p in &positions {
            in_set[p] = true;
        }
        // BFS tree over the active positions from the root.
        let mut parent = vec![usize::MAX; device.num_qubits()];
        let mut depth = vec![usize::MAX; device.num_qubits()];
        let mut queue = std::collections::VecDeque::from([root]);
        depth[root] = 0;
        while let Some(u) = queue.pop_front() {
            for &v in device.neighbors(u) {
                if in_set[v] && depth[v] == usize::MAX {
                    depth[v] = depth[u] + 1;
                    parent[v] = u;
                    queue.push_back(v);
                }
            }
        }
        debug_assert!(
            positions.iter().all(|&p| depth[p] != usize::MAX),
            "active positions must be connected before synthesis"
        );
        let mut order: Vec<usize> = positions.iter().copied().filter(|&p| p != root).collect();
        order.sort_by(|&a, &b| depth[b].cmp(&depth[a]));
        for &node in &order {
            circuit.push(Gate::Cx(node, parent[node]));
        }
        circuit.push(Gate::Rz(root, -2.0 * theta));
        for &node in order.iter().rev() {
            circuit.push(Gate::Cx(node, parent[node]));
        }
    }
    for &l in &support {
        if let Some(g) = basis_out(layout.phys(l), string.get(l)) {
            circuit.push(g);
        }
    }
}

/// Current routing cost of a string: SWAPs needed to connect its active
/// positions (lower bound: components − 1 path segments).
fn routing_cost(string: &PauliString, device: &CouplingMap, layout: &Layout) -> u64 {
    let positions: Vec<usize> = string.support().iter().map(|&l| layout.phys(l)).collect();
    if positions.len() <= 1 {
        return 0;
    }
    let comps = device.components_within(&positions);
    if comps.len() <= 1 {
        return 0;
    }
    // Sum of nearest-neighbor distances between components (greedy chain).
    let mut cost = 0u64;
    for (ci, comp) in comps.iter().enumerate() {
        if ci == 0 {
            continue;
        }
        let d = comp
            .iter()
            .flat_map(|&p| comps[0].iter().map(move |&q| device.distance(p, q)))
            .min()
            .unwrap_or(0);
        cost += u64::from(d.saturating_sub(1));
    }
    cost
}

/// Compiles one block onto the device (Alg. 3 lines 3–17). Returns the
/// physical nodes it touched (for the parallel small-block bookkeeping).
#[allow(clippy::too_many_arguments)]
fn process_block(
    block: &PauliBlock,
    device: &CouplingMap,
    noise: Option<&NoiseModel>,
    layout: &mut Layout,
    circuit: &mut Circuit,
    emitted: &mut Vec<(PauliString, f64)>,
    prev_string: &mut Option<PauliString>,
    allowed: Option<&[bool]>,
) -> Result<Vec<usize>, Deferred> {
    let n_phys = device.num_qubits();
    let mut touched = vec![false; n_phys];
    let active = block.active_qubits();
    if active.is_empty() {
        return Ok(Vec::new());
    }
    // In constrained mode, bail out early on a conflicting region; then
    // pull the block's qubits together (the block-level embedded tree).
    connect_positions(
        &active,
        device,
        noise,
        layout,
        circuit,
        allowed,
        &mut touched,
    )?;

    // Root preference: core qubits (active in every string, Alg. 3 line 4).
    let core = {
        let c = block.core_qubits();
        if c.is_empty() {
            active.clone()
        } else {
            c
        }
    };

    // Emit strings cheapest-routing-first (already-connected gadgets are
    // free), tie-broken by operator overlap with the previous string. When
    // nothing is free, pick the SWAP with the best *block-scope* score —
    // this is the "much larger search scope" of §6.2: the swap is judged
    // against every pending string of the block, not one gadget.
    let ok = |p: usize| allowed.is_none_or(|m| m[p]);
    let mut items: Vec<(PauliString, f64)> = block
        .terms
        .iter()
        .enumerate()
        .map(|(i, t)| (t.string.clone(), block.theta(i)))
        .filter(|(s, _)| !s.is_identity())
        .collect();
    while !items.is_empty() {
        // First minimum of (cost, MAX − overlap, index).
        let idx = items
            .iter()
            .enumerate()
            .map(|(k, (s, _))| {
                let cost = routing_cost(s, device, layout);
                let overlap = prev_string.as_ref().map_or(0, |p| s.overlap(p));
                (cost, usize::MAX - overlap, k)
            })
            .min()
            .expect("non-empty")
            .2;
        if routing_cost(&items[idx].0, device, layout) > 0 {
            // Block-scope greedy SWAP search.
            let total = |layout: &Layout| -> u64 {
                items
                    .iter()
                    .map(|(s, _)| routing_cost(s, device, layout))
                    .sum()
            };
            let base_free = items
                .iter()
                .filter(|(s, _)| routing_cost(s, device, layout) == 0)
                .count();
            let base_total = total(layout);
            let mut cands: Vec<(usize, usize)> = Vec::new();
            for (s, _) in &items {
                for &l in &s.support() {
                    let p = layout.phys(l);
                    for &q in device.neighbors(p) {
                        let e = (p.min(q), p.max(q));
                        if ok(p) && ok(q) && !cands.contains(&e) {
                            cands.push(e);
                        }
                    }
                }
            }
            // Most strings made free, then lowest total cost; `max_by`
            // keeps the last maximum.
            let scored = cands
                .iter()
                .map(|&(a, b)| {
                    let mut l = layout.clone();
                    l.swap_physical(a, b);
                    let free = items
                        .iter()
                        .filter(|(s, _)| routing_cost(s, device, &l) == 0)
                        .count();
                    (free, total(&l), (a, b))
                })
                .max_by(|x, y| x.0.cmp(&y.0).then(y.1.cmp(&x.1)));
            match scored {
                Some((free, t, (a, b))) if free > base_free || t < base_total => {
                    circuit.push(Gate::Swap(a, b));
                    layout.swap_physical(a, b);
                    touched[a] = true;
                    touched[b] = true;
                    continue; // re-evaluate which string is now cheapest
                }
                _ => {
                    // Local minimum: route the chosen string directly.
                    connect_positions(
                        &items[idx].0.support(),
                        device,
                        noise,
                        layout,
                        circuit,
                        allowed,
                        &mut touched,
                    )?;
                }
            }
        }
        let (string, theta) = items.remove(idx);
        connect_positions(
            &string.support(),
            device,
            noise,
            layout,
            circuit,
            allowed,
            &mut touched,
        )?;
        let root_logical = *string
            .support()
            .iter()
            .find(|l| core.contains(l))
            .unwrap_or(&string.support()[0]);
        synth_connected_string(&string, theta, root_logical, device, layout, circuit);
        for &l in &string.support() {
            touched[layout.phys(l)] = true;
        }
        *prev_string = Some(string.clone());
        emitted.push((string, theta));
    }
    Ok((0..n_phys).filter(|&p| touched[p]).collect())
}

/// Compiles scheduled layers onto a superconducting device (Alg. 3),
/// without the final peephole clean-up ([`crate::compile_observed`] runs
/// it as its own stage).
///
/// Blocks are emitted in sequence, the layout carried from block to
/// block. The initial layout is one greedy pass, O(n) per placed qubit.
///
/// # Panics
///
/// Panics if the device is disconnected or has fewer qubits than the
/// program.
pub fn synthesize(
    n_logical: usize,
    layers: &[Layer],
    device: &CouplingMap,
    noise: Option<&NoiseModel>,
) -> ScResult {
    assert!(
        device.is_connected(),
        "device coupling map must be connected"
    );
    assert!(
        n_logical <= device.num_qubits(),
        "program needs {n_logical} qubits, device has {}",
        device.num_qubits()
    );
    // Initial layout on the most connected subgraph (line 1).
    let initial = choose_initial_layout(n_logical, layers, device);
    let mut layout = Layout::from_l2p(device.num_qubits(), initial.clone());
    let mut circuit = Circuit::new(device.num_qubits());
    let mut emitted: Vec<(PauliString, f64)> = Vec::new();
    let mut prev_string: Option<PauliString> = None;
    let mut remain: Vec<PauliBlock> = Vec::new();

    for layer in layers {
        let mut used = vec![false; device.num_qubits()];
        for (i, block) in layer.blocks.iter().enumerate() {
            if i == 0 {
                // The layer's anchor (largest block, critical path).
                let nodes = process_block(
                    block,
                    device,
                    noise,
                    &mut layout,
                    &mut circuit,
                    &mut emitted,
                    &mut prev_string,
                    None,
                )
                .unwrap_or_else(|_| unreachable!("unconstrained blocks never defer"));
                for p in nodes {
                    used[p] = true;
                }
            } else {
                let free: Vec<bool> = used.iter().map(|&u| !u).collect();
                match process_block(
                    block,
                    device,
                    noise,
                    &mut layout,
                    &mut circuit,
                    &mut emitted,
                    &mut prev_string,
                    Some(&free),
                ) {
                    Ok(nodes) => {
                        for p in nodes {
                            used[p] = true;
                        }
                    }
                    Err(Deferred) => remain.push(block.clone()),
                }
            }
        }
    }

    // Deferred blocks, cheapest (closest active qubits) first (lines 21–23).
    while !remain.is_empty() {
        let idx = (0..remain.len())
            .min_by_key(|&i| {
                let pos: Vec<usize> = remain[i]
                    .active_qubits()
                    .iter()
                    .map(|&l| layout.phys(l))
                    .collect();
                let mut d = 0u64;
                for (k, &a) in pos.iter().enumerate() {
                    for &b in &pos[k + 1..] {
                        d += u64::from(device.distance(a, b));
                    }
                }
                d
            })
            .expect("remain non-empty");
        let block = remain.swap_remove(idx);
        let _ = process_block(
            &block,
            device,
            noise,
            &mut layout,
            &mut circuit,
            &mut emitted,
            &mut prev_string,
            None,
        )
        .map_err(|_| unreachable!("unconstrained blocks never defer"));
    }

    ScResult {
        circuit,
        initial_l2p: initial,
        final_l2p: layout.l2p().to_vec(),
        emitted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Parameter, PauliBlock, PauliIR};
    use crate::schedule;
    use pauli::PauliTerm;
    use proptest::prelude::*;
    use qcircuit::peephole;
    use qdevice::devices;

    /// The initial-layout greedy as it stood before the incremental
    /// rewrite: dense weights, every score re-summed over the whole placed
    /// set. Kept as the oracle that pins `choose_initial_layout` to it bit
    /// for bit.
    fn choose_initial_layout_reference(
        n_logical: usize,
        layers: &[Layer],
        device: &CouplingMap,
    ) -> Vec<usize> {
        let subgraph = device.most_connected_subgraph(n_logical);
        // Interaction weights: co-activity counts over all strings.
        let mut weight = vec![vec![0u64; n_logical]; n_logical];
        let mut total = vec![0u64; n_logical];
        for layer in layers {
            for block in &layer.blocks {
                for term in &block.terms {
                    let sup = term.string.support();
                    for (i, &a) in sup.iter().enumerate() {
                        for &b in &sup[i + 1..] {
                            weight[a][b] += 1;
                            weight[b][a] += 1;
                            total[a] += 1;
                            total[b] += 1;
                        }
                    }
                }
            }
        }
        let mut l2p = vec![usize::MAX; n_logical];
        let mut free: Vec<usize> = subgraph.clone();
        let mut placed: Vec<usize> = Vec::new();
        // Seed: the busiest logical qubit on the best-connected subgraph node.
        let seed = (0..n_logical).max_by_key(|&l| total[l]).unwrap_or(0);
        let seat = free
            .iter()
            .position(|&p| {
                device
                    .neighbors(p)
                    .iter()
                    .filter(|&&q| subgraph.contains(&q))
                    .count()
                    == free
                        .iter()
                        .map(|&x| {
                            device
                                .neighbors(x)
                                .iter()
                                .filter(|&&q| subgraph.contains(&q))
                                .count()
                        })
                        .max()
                        .unwrap_or(0)
            })
            .unwrap_or(0);
        l2p[seed] = free.remove(seat);
        placed.push(seed);
        // The two argbest scans below are O(candidates × placed) each and run
        // once per placement: `next` keeps the *last* maximum (`>=`), the
        // seat the *first* minimum (`<`).
        while placed.len() < n_logical {
            // Next logical: strongest link into the placed set.
            let unplaced: Vec<usize> = (0..n_logical).filter(|&l| l2p[l] == usize::MAX).collect();
            let next = {
                let mut best: Option<(u64, u64, usize)> = None;
                for &l in &unplaced {
                    let w = placed.iter().map(|&p| weight[l][p]).sum::<u64>();
                    if best.is_none_or(|(bw, bt, _)| (w, total[l]) >= (bw, bt)) {
                        best = Some((w, total[l], l));
                    }
                }
                best.expect("unplaced logical exists").2
            };
            // Seat minimizing weighted distance to its placed partners.
            let fi = {
                let mut best: Option<(u64, usize)> = None;
                for (k, &cand) in free.iter().enumerate() {
                    let c = placed
                        .iter()
                        .map(|&p| weight[next][p] * u64::from(device.distance(cand, l2p[p])))
                        .sum::<u64>();
                    if best.is_none_or(|(bc, _)| c < bc) {
                        best = Some((c, k));
                    }
                }
                best.expect("free seat exists").1
            };
            l2p[next] = free.remove(fi);
            placed.push(next);
        }
        l2p
    }

    /// A random spanning tree plus random extra edges: always connected.
    fn random_connected_map(n: usize, extra: &[(u32, u32)]) -> CouplingMap {
        let mut edges: Vec<(usize, usize)> = (1..n).map(|v| (v / 2, v)).collect();
        for &(a, b) in extra {
            let (a, b) = (a as usize % n, b as usize % n);
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        CouplingMap::new(n, &edges)
    }

    fn assert_layout_matches_reference(n: usize, layers: &[Layer], device: &CouplingMap) {
        assert_eq!(
            choose_initial_layout(n, layers, device),
            choose_initial_layout_reference(n, layers, device),
            "{n} logical qubits on {} physical",
            device.num_qubits()
        );
    }

    proptest! {
        #[test]
        fn layout_matches_the_reference_on_random_programs(
            kind in 0usize..4,
            size in (2usize..9, 2usize..9),
            program in (1usize..60, any::<u64>()),
            extra in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..16),
            gco in any::<bool>(),
        ) {
            let device = match kind {
                0 => devices::linear(size.0 * size.1),
                1 => devices::grid(size.0, size.1),
                2 => devices::manhattan_65(),
                _ => random_connected_map(size.0 * size.1, &extra),
            };
            let n = 1 + (program.1 as usize) % device.num_qubits();
            let ir = schedule::tests::stress_ir(n, program.0, program.1);
            let layers = if gco {
                schedule::schedule_gco(&ir)
            } else {
                schedule::schedule_depth(&ir)
            };
            assert_layout_matches_reference(n, &layers, &device);
        }
    }

    #[test]
    fn layout_matches_the_reference_under_forced_ties() {
        // Every pair interacts equally (one all-to-all ZZ block), or no
        // pair interacts at all (weight-1 strings only): every choice of
        // next qubit and most seat choices are ties.
        for n in [2, 5, 9, 16] {
            let mut all_to_all = Vec::new();
            let mut singles = Vec::new();
            for a in 0..n {
                for b in a + 1..n {
                    let s = PauliString::with_ops(n, &[a, b], pauli::Pauli::Z);
                    all_to_all.push(PauliTerm::new(s, 1.0));
                }
                let s = PauliString::with_ops(n, &[a], pauli::Pauli::X);
                singles.push(PauliTerm::new(s, 1.0));
            }
            for terms in [all_to_all, singles] {
                let ir = PauliIR::single_block(n, terms, Parameter::named("g", 0.3));
                let layers = schedule::schedule_gco(&ir);
                for device in [
                    devices::linear(n),
                    devices::grid(4, 4),
                    devices::manhattan_65(),
                    devices::fully_connected(n),
                ] {
                    assert_layout_matches_reference(n, &layers, &device);
                }
            }
        }
    }

    /// Synthesis plus the peephole clean-up a full compile runs.
    fn optimized(
        n: usize,
        layers: &[Layer],
        device: &CouplingMap,
        noise: Option<&NoiseModel>,
    ) -> ScResult {
        let mut r = synthesize(n, layers, device, noise);
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

    fn check_conformant(r: &ScResult, device: &CouplingMap) {
        assert!(r
            .circuit
            .respects_connectivity(|a, b| device.has_edge(a, b)));
    }

    #[test]
    fn zz_chain_on_linear_device() {
        let device = devices::linear(4);
        let ir = ir_of(vec![vec!["IIZZ"], vec!["IZZI"], vec!["ZZII"]]);
        let layers = schedule::schedule_gco(&ir);
        let r = optimized(4, &layers, &device, None);
        check_conformant(&r, &device);
        assert_eq!(r.emitted.len(), 3);
        // Adjacent ZZ pairs need no SWAPs on a line if the layout is the
        // natural one.
        assert_eq!(r.circuit.stats().swap, 0, "{}", r.circuit);
    }

    #[test]
    fn ring_on_a_line_requires_routing() {
        // A 5-cycle of ZZ blocks cannot embed in a path: at least one pair
        // is distant under any layout, so routing CNOTs must appear.
        let device = devices::linear(5);
        let ir = ir_of(vec![
            vec!["IIIZZ"],
            vec!["IIZZI"],
            vec!["IZZII"],
            vec!["ZZIII"],
            vec!["ZIIIZ"],
        ]);
        let layers = schedule::schedule_gco(&ir);
        let r = optimized(5, &layers, &device, None);
        check_conformant(&r, &device);
        assert!(
            r.circuit.mapped_stats().cnot > 10,
            "expected routing overhead beyond the 10 gadget CNOTs, got {}",
            r.circuit.mapped_stats().cnot
        );
    }

    #[test]
    fn fig4b_case_no_swap_needed_with_good_root() {
        // ZZZ on a linear 3-qubit device: the embedded-tree synthesis uses
        // the middle qubit as meeting point, so no SWAP is required
        // (Fig. 4(b) "no swap required in alternative synthesis").
        let device = devices::linear(3);
        let ir = ir_of(vec![vec!["ZZZ"]]);
        let layers = schedule::schedule_gco(&ir);
        let r = optimized(3, &layers, &device, None);
        check_conformant(&r, &device);
        assert_eq!(r.circuit.stats().swap, 0, "{}", r.circuit);
        assert_eq!(r.circuit.stats().cnot, 4);
    }

    #[test]
    fn disjoint_blocks_share_a_layer_without_interference() {
        let device = devices::grid(2, 3);
        let ir = ir_of(vec![vec!["IIIIZZ"], vec!["ZZIIII"]]);
        let layers = schedule::schedule_depth(&ir);
        let r = optimized(6, &layers, &device, None);
        check_conformant(&r, &device);
        assert_eq!(r.emitted.len(), 2);
    }

    #[test]
    fn multi_string_block_reuses_tree() {
        let device = devices::linear(4);
        let ir = ir_of(vec![vec!["IXXY", "IYYX"]]);
        let layers = schedule::schedule_gco(&ir);
        let r = optimized(4, &layers, &device, None);
        check_conformant(&r, &device);
        assert_eq!(r.emitted.len(), 2);
    }

    #[test]
    fn weight_one_strings_are_local() {
        let device = devices::linear(3);
        let ir = ir_of(vec![vec!["IIX"], vec!["IZI"]]);
        let layers = schedule::schedule_gco(&ir);
        let r = optimized(3, &layers, &device, None);
        check_conformant(&r, &device);
        assert_eq!(r.circuit.stats().cnot, 0);
        assert_eq!(r.circuit.stats().swap, 0);
    }

    #[test]
    fn qaoa_style_single_block_compiles_on_manhattan() {
        // A ring of ZZ terms in one block on the 65-qubit device.
        let n = 8;
        let mut terms = Vec::new();
        for i in 0..n {
            let mut s = PauliString::identity(n);
            s.set(i, pauli::Pauli::Z);
            s.set((i + 1) % n, pauli::Pauli::Z);
            terms.push(PauliTerm::new(s, 1.0));
        }
        let ir = PauliIR::single_block(n, terms, Parameter::named("gamma", 0.3));
        let device = devices::manhattan_65();
        let layers = schedule::schedule_depth(&ir);
        let r = optimized(n, &layers, &device, None);
        check_conformant(&r, &device);
        assert_eq!(r.emitted.len(), n);
    }

    use pauli::PauliString;

    #[test]
    fn final_layout_is_a_permutation() {
        let device = devices::grid(2, 4);
        let ir = ir_of(vec![vec!["ZIIIIIIZ"], vec!["IZZIIIII"], vec!["XIIXIIII"]]);
        let layers = schedule::schedule_depth(&ir);
        let r = optimized(8, &layers, &device, None);
        let mut seen = vec![false; device.num_qubits()];
        for &p in &r.final_l2p {
            assert!(!seen[p], "physical qubit {p} assigned twice");
            seen[p] = true;
        }
    }

    #[test]
    fn noise_aware_routing_is_conformant_and_complete() {
        use qdevice::NoiseModel;
        let device = devices::grid(2, 3);
        let noise = NoiseModel::synthetic(&device, 5);
        let ir = ir_of(vec![vec!["ZIIIIZ"], vec!["IXXIII"], vec!["ZZZZZZ"]]);
        let layers = schedule::schedule_gco(&ir);
        let r = optimized(6, &layers, &device, Some(&noise));
        check_conformant(&r, &device);
        assert_eq!(r.emitted.len(), 3);
    }

    #[test]
    fn star_block_on_a_line_routes_all_gadgets() {
        // A star (0-1, 0-2, 0-3) cannot be all-adjacent on a path: the
        // block-scope swap search must still emit all three gadgets with
        // bounded routing overhead.
        let device = devices::linear(4);
        let mut terms = Vec::new();
        for (a, b) in [(0usize, 1usize), (0, 2), (0, 3)] {
            let mut s = PauliString::identity(4);
            s.set(a, pauli::Pauli::Z);
            s.set(b, pauli::Pauli::Z);
            terms.push(PauliTerm::new(s, 1.0));
        }
        let ir = PauliIR::single_block(4, terms, Parameter::named("g", 0.2));
        let layers = schedule::schedule_gco(&ir);
        let r = optimized(4, &layers, &device, None);
        check_conformant(&r, &device);
        assert_eq!(r.emitted.len(), 3);
        let s = r.circuit.mapped_stats();
        assert!(s.cnot >= 6, "three gadgets need at least 6 CNOTs");
        assert!(
            s.cnot <= 6 + 9,
            "routing should cost at most ~3 SWAPs, got {}",
            s.cnot
        );
    }
}
