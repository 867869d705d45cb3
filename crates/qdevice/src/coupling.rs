//! Device coupling graphs.

use std::collections::VecDeque;

/// An undirected qubit-connectivity graph with precomputed all-pairs
/// hop distances.
///
/// # Example
///
/// ```
/// use qdevice::CouplingMap;
///
/// let line = CouplingMap::new(4, &[(0, 1), (1, 2), (2, 3)]);
/// assert_eq!(line.distance(0, 3), 3);
/// assert!(line.has_edge(2, 1));
/// assert_eq!(line.shortest_path(0, 2, |_, _| 1.0), vec![0, 1, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct CouplingMap {
    n: usize,
    adj: Vec<Vec<usize>>,
    edges: Vec<(usize, usize)>,
    /// Row-major `n × n` hop distances.
    dist: Vec<u32>,
}

impl CouplingMap {
    /// Builds a coupling map from an undirected edge list.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a qubit `>= n` or is a self-loop.
    pub fn new(n: usize, edges: &[(usize, usize)]) -> CouplingMap {
        let mut adj = vec![Vec::new(); n];
        let mut dedup = Vec::new();
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range for {n} qubits");
            assert_ne!(a, b, "self-loop on qubit {a}");
            if !adj[a].contains(&b) {
                adj[a].push(b);
                adj[b].push(a);
                dedup.push((a.min(b), a.max(b)));
            }
        }
        let dist = all_pairs_bfs(n, &adj);
        CouplingMap {
            n,
            adj,
            edges: dedup,
            dist,
        }
    }

    /// The number of physical qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The undirected edges `(min, max)`.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// The neighbors of physical qubit `p`.
    pub fn neighbors(&self, p: usize) -> &[usize] {
        &self.adj[p]
    }

    /// Whether `a` and `b` are directly coupled.
    #[inline]
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].contains(&b)
    }

    /// Hop distance between two physical qubits (`u32::MAX` if disconnected).
    #[inline]
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        assert!(b < self.n, "qubit {b} out of range for {} qubits", self.n);
        self.dist[a * self.n + b]
    }

    /// The degree of physical qubit `p`.
    pub fn degree(&self, p: usize) -> usize {
        self.adj[p].len()
    }

    /// Lowest-cost path from `a` to `b` under a per-edge cost function
    /// (Dijkstra). Used by Alg. 3 line 6 ("shortest path (lowest error
    /// rate)"). Returns the node sequence including both endpoints; empty if
    /// unreachable.
    pub fn shortest_path(
        &self,
        a: usize,
        b: usize,
        mut cost: impl FnMut(usize, usize) -> f64,
    ) -> Vec<usize> {
        if a == b {
            return vec![a];
        }
        let mut best = vec![f64::INFINITY; self.n];
        let mut prev = vec![usize::MAX; self.n];
        let mut done = vec![false; self.n];
        best[a] = 0.0;
        loop {
            // Linear-scan extract-min: device graphs are small (≤ a few
            // hundred qubits), so this beats a binary heap in practice.
            let mut u = usize::MAX;
            let mut ub = f64::INFINITY;
            for v in 0..self.n {
                if !done[v] && best[v] < ub {
                    ub = best[v];
                    u = v;
                }
            }
            if u == usize::MAX {
                return Vec::new();
            }
            if u == b {
                break;
            }
            done[u] = true;
            for &v in &self.adj[u] {
                let c = best[u] + cost(u, v).max(1e-12);
                if c < best[v] {
                    best[v] = c;
                    prev[v] = u;
                }
            }
        }
        let mut path = vec![b];
        let mut cur = b;
        while cur != a {
            cur = prev[cur];
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// Lowest-cost path from `from` to *any* member of `targets`; used when
    /// attaching an active qubit to a growing embedded tree.
    pub fn shortest_path_to_set(
        &self,
        from: usize,
        targets: &[bool],
        mut cost: impl FnMut(usize, usize) -> f64,
    ) -> Vec<usize> {
        if targets[from] {
            return vec![from];
        }
        let mut best = vec![f64::INFINITY; self.n];
        let mut prev = vec![usize::MAX; self.n];
        let mut done = vec![false; self.n];
        best[from] = 0.0;
        let goal = loop {
            let mut u = usize::MAX;
            let mut ub = f64::INFINITY;
            for v in 0..self.n {
                if !done[v] && best[v] < ub {
                    ub = best[v];
                    u = v;
                }
            }
            if u == usize::MAX {
                return Vec::new();
            }
            if targets[u] {
                break u;
            }
            done[u] = true;
            for &v in &self.adj[u] {
                let c = best[u] + cost(u, v).max(1e-12);
                if c < best[v] {
                    best[v] = c;
                    prev[v] = u;
                }
            }
        };
        let mut path = vec![goal];
        let mut cur = goal;
        while cur != from {
            cur = prev[cur];
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// A greedy approximation of the most connected `k`-node subgraph:
    /// start from the highest-degree node and repeatedly add the outside
    /// node with the most edges into the current set (ties: higher total
    /// degree). This seeds the initial layout of Alg. 3 line 1.
    ///
    /// # Panics
    ///
    /// Panics if `k > num_qubits()`.
    pub fn most_connected_subgraph(&self, k: usize) -> Vec<usize> {
        assert!(
            k <= self.n,
            "requested {k} nodes from a {}-qubit device",
            self.n
        );
        if k == 0 {
            return Vec::new();
        }
        let seed = (0..self.n).max_by_key(|&p| self.adj[p].len()).unwrap_or(0);
        let mut chosen = vec![false; self.n];
        let mut set = vec![seed];
        chosen[seed] = true;
        while set.len() < k {
            let next = (0..self.n)
                .filter(|&p| !chosen[p])
                .max_by_key(|&p| {
                    let inside = self.adj[p].iter().filter(|&&q| chosen[q]).count();
                    (inside, self.adj[p].len())
                })
                .expect("k <= n guarantees a candidate");
            chosen[next] = true;
            set.push(next);
        }
        set
    }

    /// Connected components of the subgraph induced by `nodes`.
    pub fn components_within(&self, nodes: &[usize]) -> Vec<Vec<usize>> {
        let mut in_set = vec![false; self.n];
        for &p in nodes {
            in_set[p] = true;
        }
        let mut seen = vec![false; self.n];
        let mut comps = Vec::new();
        for &start in nodes {
            if seen[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut queue = VecDeque::from([start]);
            seen[start] = true;
            while let Some(u) = queue.pop_front() {
                comp.push(u);
                for &v in &self.adj[u] {
                    if in_set[v] && !seen[v] {
                        seen[v] = true;
                        queue.push_back(v);
                    }
                }
            }
            comps.push(comp);
        }
        comps
    }

    /// Whether the whole device graph is connected.
    pub fn is_connected(&self) -> bool {
        self.n == 0
            || self
                .components_within(&(0..self.n).collect::<Vec<_>>())
                .len()
                == 1
    }
}

/// Hop distances from every source by BFS, as one row-major `n × n`
/// table. One queue buffer serves every source.
fn all_pairs_bfs(n: usize, adj: &[Vec<usize>]) -> Vec<u32> {
    let mut dist = vec![u32::MAX; n * n];
    let mut queue = Vec::with_capacity(n);
    for (s, row) in dist.chunks_exact_mut(n.max(1)).enumerate() {
        row[s] = 0;
        queue.clear();
        queue.push(s);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            for &v in &adj[u] {
                if row[v] == u32::MAX {
                    row[v] = row[u] + 1;
                    queue.push(v);
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> CouplingMap {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        CouplingMap::new(n, &edges)
    }

    #[test]
    fn distances_on_a_line() {
        let m = line(5);
        assert_eq!(m.distance(0, 4), 4);
        assert_eq!(m.distance(2, 2), 0);
        assert_eq!(m.distance(3, 1), 2);
    }

    #[test]
    fn duplicate_edges_are_deduped() {
        let m = CouplingMap::new(3, &[(0, 1), (1, 0), (1, 2)]);
        assert_eq!(m.edges().len(), 2);
        assert_eq!(m.degree(1), 2);
    }

    #[test]
    fn shortest_path_prefers_low_cost() {
        // Square 0-1-2-3-0; make edge (0,1) expensive.
        let m = CouplingMap::new(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let path = m.shortest_path(0, 2, |a, b| {
            if (a.min(b), a.max(b)) == (0, 1) {
                10.0
            } else {
                1.0
            }
        });
        assert_eq!(path, vec![0, 3, 2]);
    }

    #[test]
    fn shortest_path_to_set_finds_nearest_target() {
        let m = line(6);
        let mut targets = vec![false; 6];
        targets[0] = true;
        targets[4] = true;
        let path = m.shortest_path_to_set(3, &targets, |_, _| 1.0);
        assert_eq!(path, vec![3, 4]);
    }

    #[test]
    fn most_connected_subgraph_is_connected_and_dense() {
        // A 3x3 grid: the best 4-node subgraph contains the center.
        let mut edges = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                let i = r * 3 + c;
                if c + 1 < 3 {
                    edges.push((i, i + 1));
                }
                if r + 1 < 3 {
                    edges.push((i, i + 3));
                }
            }
        }
        let m = CouplingMap::new(9, &edges);
        let set = m.most_connected_subgraph(4);
        assert_eq!(set.len(), 4);
        assert_eq!(m.components_within(&set).len(), 1);
        assert!(
            set.contains(&4),
            "center of the grid should be picked: {set:?}"
        );
    }

    #[test]
    fn components_within_subsets() {
        let m = line(6);
        let comps = m.components_within(&[0, 1, 3, 4, 5]);
        assert_eq!(comps.len(), 2);
        assert!(m.is_connected());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edges() {
        CouplingMap::new(2, &[(0, 2)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        CouplingMap::new(2, &[(1, 1)]);
    }
}
