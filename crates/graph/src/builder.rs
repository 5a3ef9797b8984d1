use crate::generators::MAX_EDGES;
use crate::{Graph, GraphError, ProcId};

/// Incremental builder for [`Graph`] values.
///
/// Collects undirected edges and validates the whole topology at
/// [`GraphBuilder::build`] time: endpoints in range, no self-loops,
/// connectivity. Duplicate edges (in either orientation) are collapsed.
///
/// # Examples
///
/// ```
/// use pif_graph::{GraphBuilder, ProcId};
///
/// # fn main() -> Result<(), pif_graph::GraphError> {
/// let mut b = GraphBuilder::new(4);
/// b.edge(ProcId(0), ProcId(1))
///     .edge(ProcId(1), ProcId(2))
///     .edge(ProcId(2), ProcId(3));
/// let g = b.name("path").build()?;
/// assert_eq!(g.name(), "path");
/// assert_eq!(g.edge_count(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    /// Every added link as its `(min, max)` pair, duplicates included;
    /// [`GraphBuilder::build`] collapses them.
    edges: Vec<(ProcId, ProcId)>,
    name: String,
}

impl GraphBuilder {
    /// Starts building a graph over `n` processors (identified `0..n`).
    pub fn new(n: usize) -> Self {
        Self::with_capacity(n, 0)
    }

    /// Starts building a graph over `n` processors with room for `links`
    /// links, so adding that many reallocates nothing. The reservation is
    /// capped at [`MAX_EDGES`], the most links a generated topology has.
    pub fn with_capacity(n: usize, links: usize) -> Self {
        GraphBuilder { n, edges: Vec::with_capacity(links.min(MAX_EDGES)), name: String::new() }
    }

    /// Adds the undirected link `{u, v}`. Order of endpoints is irrelevant;
    /// duplicates are ignored. Validation happens at [`GraphBuilder::build`].
    pub fn edge(&mut self, u: ProcId, v: ProcId) -> &mut Self {
        self.edges.push(if u <= v { (u, v) } else { (v, u) });
        self
    }

    /// Adds a batch of undirected links given as index pairs.
    pub fn edges<I>(&mut self, iter: I) -> &mut Self
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        for (u, v) in iter {
            self.edge(ProcId(u), ProcId(v));
        }
        self
    }

    /// Sets the display name recorded on the built graph.
    pub fn name(&mut self, name: impl Into<String>) -> &mut Self {
        self.name = name.into();
        self
    }

    /// Number of distinct edges currently collected (counted on a sorted
    /// copy of the collected pairs).
    pub fn edge_count(&self) -> usize {
        let mut distinct = self.edges.clone();
        distinct.sort_unstable();
        distinct.dedup();
        distinct.len()
    }

    /// Validates the collected topology and produces the immutable [`Graph`].
    ///
    /// The neighbor lists are laid out by a counting sort: degrees are
    /// counted from the raw pairs, each neighbor is written into its
    /// processor's slot range, and each range is then sorted, deduplicated
    /// and compacted. `O(n + m)` plus the per-list sorts, with a fixed
    /// handful of allocations whatever the edge count.
    ///
    /// # Errors
    ///
    /// * [`GraphError::Empty`] if `n == 0`;
    /// * [`GraphError::SelfLoop`] if any edge `{p, p}` was added;
    /// * [`GraphError::NodeOutOfRange`] if an endpoint is `>= n`;
    /// * [`GraphError::Disconnected`] if some processor is unreachable from
    ///   processor `0`.
    ///
    /// Of several invalid edges, the smallest `(min, max)` pair is
    /// reported; for a self-loop past the range, the loop.
    pub fn build(&self) -> Result<Graph, GraphError> {
        let n = self.n;
        if n == 0 {
            return Err(GraphError::Empty);
        }
        // A pair is `(min, max)`, so it is out of range iff its max is.
        let invalid = self.edges.iter().filter(|&&(u, v)| u == v || v.index() >= n).min();
        if let Some(&(u, v)) = invalid {
            return Err(if u == v {
                GraphError::SelfLoop { node: u }
            } else if u.index() >= n {
                GraphError::NodeOutOfRange { node: u, n }
            } else {
                GraphError::NodeOutOfRange { node: v, n }
            });
        }

        // Counting sort. `offsets[p]` first counts p's endpoints, then
        // holds the end of its slot range and is decremented per neighbor
        // written, so it ends up at the range's start. Every pair takes two
        // slots before deduplication, and offsets are `u32`.
        assert!(self.edges.len() <= (u32::MAX / 2) as usize, "too many links for u32 offsets");
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in &self.edges {
            offsets[u.index()] += 1;
            offsets[v.index()] += 1;
        }
        let mut total = 0u32;
        for slot in &mut offsets[..n] {
            total += *slot;
            *slot = total;
        }
        offsets[n] = total;
        let mut adjacency = vec![ProcId(0); total as usize];
        for &(u, v) in &self.edges {
            offsets[u.index()] -= 1;
            adjacency[offsets[u.index()] as usize] = v;
            offsets[v.index()] -= 1;
            adjacency[offsets[v.index()] as usize] = u;
        }
        // Sort and deduplicate each range, compacting the lists leftwards
        // (`kept` never passes the entry being read).
        let mut kept = 0usize;
        for p in 0..n {
            let (start, end) = (offsets[p] as usize, offsets[p + 1] as usize);
            adjacency[start..end].sort_unstable();
            offsets[p] = kept as u32;
            let first = kept;
            for i in start..end {
                let q = adjacency[i];
                if kept == first || adjacency[kept - 1] != q {
                    adjacency[kept] = q;
                    kept += 1;
                }
            }
        }
        offsets[n] = kept as u32;
        adjacency.truncate(kept);
        adjacency.shrink_to_fit();

        let graph = Graph::from_csr(offsets, adjacency, self.name.clone());

        // Connectivity: BFS from processor 0.
        let mut seen = vec![false; n];
        let mut queue = Vec::with_capacity(n);
        seen[0] = true;
        queue.push(ProcId(0));
        let mut head = 0;
        while let Some(&p) = queue.get(head) {
            head += 1;
            for q in graph.neighbors(p) {
                if !seen[q.index()] {
                    seen[q.index()] = true;
                    queue.push(q);
                }
            }
        }
        if let Some(i) = seen.iter().position(|&s| !s) {
            return Err(GraphError::Disconnected { witness: ProcId::from_index(i) });
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, VecDeque};

    use proptest::prelude::*;

    use super::*;

    /// The builder before its counting sort, kept as the oracle: an
    /// ordered set of `(min, max)` pairs, validated in set order, filled
    /// into CSR and sorted per processor. Returns the distinct edge count
    /// and the build result.
    fn ordered_set_build(
        n: usize,
        pairs: &[(u32, u32)],
        name: &str,
    ) -> (usize, Result<Graph, GraphError>) {
        let edges: BTreeSet<(ProcId, ProcId)> =
            pairs.iter().map(|&(u, v)| (ProcId(u.min(v)), ProcId(u.max(v)))).collect();
        let build = || {
            if n == 0 {
                return Err(GraphError::Empty);
            }
            for &(u, v) in &edges {
                if u == v {
                    return Err(GraphError::SelfLoop { node: u });
                }
                if u.index() >= n {
                    return Err(GraphError::NodeOutOfRange { node: u, n });
                }
                if v.index() >= n {
                    return Err(GraphError::NodeOutOfRange { node: v, n });
                }
            }
            let mut degree = vec![0u32; n];
            for &(u, v) in &edges {
                degree[u.index()] += 1;
                degree[v.index()] += 1;
            }
            let mut offsets = vec![0u32];
            for d in &degree {
                offsets.push(offsets.last().unwrap() + d);
            }
            let mut cursor: Vec<u32> = offsets[..n].to_vec();
            let mut adjacency = vec![ProcId(0); 2 * edges.len()];
            for &(u, v) in &edges {
                adjacency[cursor[u.index()] as usize] = v;
                cursor[u.index()] += 1;
                adjacency[cursor[v.index()] as usize] = u;
                cursor[v.index()] += 1;
            }
            for p in 0..n {
                adjacency[offsets[p] as usize..offsets[p + 1] as usize].sort_unstable();
            }
            let graph = Graph::from_csr(offsets, adjacency, name.to_string());
            let mut seen = vec![false; n];
            let mut queue = VecDeque::from([ProcId(0)]);
            seen[0] = true;
            while let Some(p) = queue.pop_front() {
                for q in graph.neighbors(p) {
                    if !seen[q.index()] {
                        seen[q.index()] = true;
                        queue.push_back(q);
                    }
                }
            }
            match seen.iter().position(|&s| !s) {
                Some(i) => Err(GraphError::Disconnected { witness: ProcId::from_index(i) }),
                None => Ok(graph),
            }
        };
        (edges.len(), build())
    }

    /// A pair list over `n` processors drawn from `seed`: optionally a
    /// random spanning tree (so many lists are connected), `extra` random
    /// links, about a quarter of all pairs repeated in either orientation,
    /// then `loops` self-loops (some past the range) and `strays` links
    /// with an endpoint in `n..n + 3`, each spliced in at a random place.
    fn pair_list(
        n: usize,
        seed: u64,
        spine: bool,
        extra: usize,
        loops: usize,
        strays: usize,
    ) -> Vec<(u32, u32)> {
        let mut state = seed;
        let mut below = move |bound: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound.max(1) as u64) as u32
        };
        let n32 = n as u32;
        let mut pairs = Vec::new();
        if spine {
            for i in 1..n32 {
                let j = below(i as usize);
                pairs.push(if below(2) == 0 { (i, j) } else { (j, i) });
            }
        }
        for _ in 0..extra {
            let (u, v) = (below(n), below(n));
            if u != v {
                pairs.push((u, v));
            }
        }
        for _ in 0..pairs.len() / 4 {
            let (u, v) = pairs[below(pairs.len()) as usize];
            pairs.push(if below(2) == 0 { (u, v) } else { (v, u) });
        }
        for _ in 0..loops {
            let p = below(n + 2);
            pairs.insert(below(pairs.len() + 1) as usize, (p, p));
        }
        for _ in 0..strays {
            let (p, q) = (below(n), n32 + below(3));
            let pair = if below(2) == 0 { (p, q) } else { (q, p) };
            pairs.insert(below(pairs.len() + 1) as usize, pair);
        }
        pairs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The counting sort builds exactly what the ordered set built:
        /// equal offsets, adjacency and name (`Graph`'s equality compares
        /// all three), equal distinct edge counts and equal errors.
        #[test]
        fn counting_sort_matches_the_ordered_set_builder(
            n in 0usize..20,
            seed in any::<u64>(),
            spine in any::<bool>(),
            extra in 0usize..48,
            loops in 0usize..6,
            strays in 0usize..6,
        ) {
            // Two thirds of the lists get no self-loop, two thirds no stray.
            let (loops, strays) = (loops.saturating_sub(3), strays.saturating_sub(3));
            let pairs = pair_list(n, seed, spine, extra, loops, strays);
            let name = format!("g{seed}");
            let mut b = GraphBuilder::new(n);
            b.edges(pairs.iter().copied()).name(name.clone());
            let (count, expected) = ordered_set_build(n, &pairs, &name);
            prop_assert_eq!(b.edge_count(), count);
            let built = b.build();
            if let Ok(g) = &built {
                prop_assert_eq!(g.edge_count(), count);
            }
            prop_assert_eq!(built, expected);
        }
    }

    #[test]
    fn builder_collapses_duplicates() {
        let mut b = GraphBuilder::new(3);
        b.edge(ProcId(0), ProcId(1));
        b.edge(ProcId(1), ProcId(0));
        b.edge(ProcId(1), ProcId(2));
        assert_eq!(b.edge_count(), 2);
        assert_eq!(b.build().unwrap().edge_count(), 2);
    }

    #[test]
    fn builder_validates_lazily() {
        // Adding a bad edge does not error until build().
        let mut b = GraphBuilder::new(2);
        b.edge(ProcId(0), ProcId(0));
        assert!(b.build().is_err());
    }

    #[test]
    fn csr_neighbor_lists_are_sorted() {
        let mut b = GraphBuilder::new(5);
        b.edges([(0, 4), (0, 2), (0, 1), (0, 3), (1, 2), (2, 3), (3, 4)]);
        let g = b.build().unwrap();
        for p in g.procs() {
            let ns = g.neighbor_slice(p);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "unsorted at {p}");
        }
    }

    #[test]
    fn batch_edges_helper() {
        let g = GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build().unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn disconnected_witness_is_reported() {
        let mut b = GraphBuilder::new(3);
        b.edge(ProcId(0), ProcId(1));
        match b.build().unwrap_err() {
            GraphError::Disconnected { witness } => assert_eq!(witness, ProcId(2)),
            e => panic!("unexpected error {e:?}"),
        }
    }
}
