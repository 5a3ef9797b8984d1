use std::fmt;

use crate::{GraphBuilder, GraphError, ProcId};

/// An immutable, connected, undirected network topology.
///
/// This is the paper's "arbitrary network": `N` processors connected by
/// bidirectional links. Neighbor lists are stored in compressed sparse row
/// form and kept sorted by ascending [`ProcId`], which doubles as the paper's
/// local order `≻_p` on the labels in `Neig_p`.
///
/// A `Graph` is always valid by construction: non-empty, loop-free,
/// duplicate-free and connected. Build one with [`GraphBuilder`], the
/// generators in [`crate::generators`], or [`Graph::from_edges`].
///
/// # Examples
///
/// ```
/// use pif_graph::{Graph, ProcId};
///
/// # fn main() -> Result<(), pif_graph::GraphError> {
/// // A triangle.
/// let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)])?;
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.degree(ProcId(1)), 2);
/// assert!(g.has_edge(ProcId(0), ProcId(2)));
/// let neighbors: Vec<_> = g.neighbors(ProcId(0)).collect();
/// assert_eq!(neighbors, vec![ProcId(1), ProcId(2)]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR offsets: neighbors of `p` live in `adjacency[offsets[p]..offsets[p + 1]]`.
    offsets: Vec<u32>,
    /// Concatenated, per-processor-sorted neighbor lists.
    adjacency: Vec<ProcId>,
    /// Optional human-readable name (set by generators, e.g. `"ring(8)"`).
    name: String,
}

impl Graph {
    /// Builds a graph over `n` processors from an edge list.
    ///
    /// Edges are undirected; duplicates and both orientations of the same
    /// edge are tolerated and collapsed. This is a convenience wrapper around
    /// [`GraphBuilder`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if `n == 0`, an endpoint is out of range, a
    /// self-loop is present, or the resulting graph is disconnected.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.edge(ProcId(u), ProcId(v));
        }
        b.build()
    }

    /// Internal constructor used by [`GraphBuilder`]; inputs must already be
    /// validated and `adjacency` sorted per processor.
    pub(crate) fn from_csr(offsets: Vec<u32>, adjacency: Vec<ProcId>, name: String) -> Self {
        Graph { offsets, adjacency, name }
    }

    /// Number of processors `N` in the network.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the network has no processors. Always `false` for a
    /// constructed `Graph` (construction rejects empty graphs), but provided
    /// for API completeness alongside [`Graph::len`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected links in the network.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// The generator-assigned name of this topology, or `""` for ad-hoc
    /// graphs.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns a copy of this graph carrying the given display name.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Degree (number of neighbors) of processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn degree(&self, p: ProcId) -> usize {
        let i = p.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The neighbor set `Neig_p`, in ascending [`ProcId`] order (the paper's
    /// local order `≻_p`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn neighbors(&self, p: ProcId) -> Neighbors<'_> {
        Neighbors { inner: self.neighbor_slice(p).iter() }
    }

    /// The neighbor set `Neig_p` as a sorted slice.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn neighbor_slice(&self, p: ProcId) -> &[ProcId] {
        let i = p.index();
        &self.adjacency[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Whether processors `u` and `v` are connected by a link.
    ///
    /// Runs in `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: ProcId, v: ProcId) -> bool {
        self.neighbor_slice(u).binary_search(&v).is_ok()
    }

    /// Iterator over every undirected edge `(u, v)` with `u < v`.
    pub fn edges(&self) -> Edges<'_> {
        Edges { graph: self, p: 0, i: 0 }
    }

    /// Iterator over all processor identifiers `0..N`.
    pub fn procs(&self) -> impl DoubleEndedIterator<Item = ProcId> + ExactSizeIterator + Clone {
        (0..self.len() as u32).map(ProcId)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("name", &self.name)
            .field("n", &self.len())
            .field("m", &self.edge_count())
            .finish_non_exhaustive()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.name.is_empty() {
            write!(f, "graph(n={}, m={})", self.len(), self.edge_count())
        } else {
            write!(f, "{}", self.name)
        }
    }
}

/// Iterator over the neighbors of one processor, produced by
/// [`Graph::neighbors`].
#[derive(Clone, Debug)]
pub struct Neighbors<'a> {
    inner: std::slice::Iter<'a, ProcId>,
}

impl Iterator for Neighbors<'_> {
    type Item = ProcId;

    #[inline]
    fn next(&mut self) -> Option<ProcId> {
        self.inner.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Neighbors<'_> {}
impl DoubleEndedIterator for Neighbors<'_> {
    fn next_back(&mut self) -> Option<ProcId> {
        self.inner.next_back().copied()
    }
}

/// Iterator over all undirected edges, produced by [`Graph::edges`].
/// Each edge is yielded once, as `(u, v)` with `u < v`.
#[derive(Clone, Debug)]
pub struct Edges<'a> {
    graph: &'a Graph,
    p: u32,
    i: usize,
}

impl Iterator for Edges<'_> {
    type Item = (ProcId, ProcId);

    fn next(&mut self) -> Option<(ProcId, ProcId)> {
        while (self.p as usize) < self.graph.len() {
            let u = ProcId(self.p);
            let neigh = self.graph.neighbor_slice(u);
            while self.i < neigh.len() {
                let v = neigh[self.i];
                self.i += 1;
                if u < v {
                    return Some((u, v));
                }
            }
            self.p += 1;
            self.i = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn from_edges_builds_sorted_neighbors() {
        let g = Graph::from_edges(4, [(0, 3), (0, 1), (0, 2), (1, 2), (2, 3)]).unwrap();
        let n0: Vec<_> = g.neighbors(ProcId(0)).collect();
        assert_eq!(n0, vec![ProcId(1), ProcId(2), ProcId(3)]);
    }

    #[test]
    fn duplicate_and_reversed_edges_collapse() {
        let g = Graph::from_edges(2, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(ProcId(0)), 1);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = triangle();
        for (u, v) in g.edges() {
            assert!(g.has_edge(u, v));
            assert!(g.has_edge(v, u));
        }
        assert!(!g.has_edge(ProcId(0), ProcId(0)));
    }

    #[test]
    fn edges_are_each_reported_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn rejects_disconnected() {
        let err = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap_err();
        assert!(matches!(err, GraphError::Disconnected { .. }));
    }

    #[test]
    fn rejects_self_loop() {
        let err = Graph::from_edges(2, [(0, 0), (0, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: ProcId(0) });
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Graph::from_edges(2, [(0, 5)]).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { .. }));
    }

    #[test]
    fn rejects_empty() {
        let err = Graph::from_edges(0, []).unwrap_err();
        assert_eq!(err, GraphError::Empty);
    }

    #[test]
    fn singleton_graph_is_valid() {
        let g = Graph::from_edges(1, []).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.degree(ProcId(0)), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn display_uses_name_when_present() {
        let g = triangle().with_name("triangle");
        assert_eq!(g.to_string(), "triangle");
        let g2 = triangle();
        assert_eq!(g2.to_string(), "graph(n=3, m=3)");
    }

    #[test]
    fn procs_enumerates_all() {
        let g = triangle();
        let ids: Vec<_> = g.procs().collect();
        assert_eq!(ids, vec![ProcId(0), ProcId(1), ProcId(2)]);
    }

    #[test]
    fn graph_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Graph>();
    }
}
