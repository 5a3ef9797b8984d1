//! The register-sync layer: neighbor-state caches with staleness
//! accounting.
//!
//! The paper's model lets a guard read the neighbors' registers
//! atomically. Over messages, each processor instead evaluates guards
//! against a **cache** of each neighbor's last received register
//! snapshot (Katz–Perry / Varghese state dissemination). This module
//! owns those caches and measures their *staleness*: the gap, in
//! scheduler events, between two refreshes of the same cache entry.
//!
//! The staleness is what the heartbeat cadence bounds: with cadence `H`
//! on an `n`-processor system, every processor re-broadcasts its state
//! every `n · H` events ([`crate::NetSim::resend_period`]), so a cache
//! entry's refresh gap under a lossless schedule is bounded by the
//! resend period plus the channel's queueing delay. Under lossy plans
//! the observed maximum ([`crate::NetStats::staleness_max`]) quantifies
//! how far reality strays from that bound.

use pif_graph::{Graph, ProcId};

/// Cached neighbor registers for every processor, with refresh stamps.
///
/// Entry `(p, k)` is processor `p`'s copy of its `k`-th neighbor's state
/// (`k` indexes `graph.neighbor_slice(p)`), exactly the layout of the
/// receiving side of the link array. Entries are stored flat, `p`'s row
/// starting at `base[p]`.
#[derive(Clone, Debug)]
pub struct RegisterSync<S> {
    base: Vec<usize>,
    cache: Vec<S>,
    last_refresh: Vec<u64>,
    staleness_max: u64,
    refreshes: u64,
}

impl<S: Clone> RegisterSync<S> {
    /// Builds consistent caches from the initial configuration.
    pub fn new(graph: &Graph, init: &[S]) -> Self {
        let mut base = Vec::with_capacity(graph.len() + 1);
        base.push(0);
        let mut cache = Vec::new();
        for p in graph.procs() {
            cache.extend(graph.neighbors(p).map(|q| init[q.index()].clone()));
            base.push(cache.len());
        }
        let last_refresh = vec![0u64; cache.len()];
        RegisterSync { base, cache, last_refresh, staleness_max: 0, refreshes: 0 }
    }

    /// Processor `p`'s cached copy of its `k`-th neighbor's state.
    pub fn cached(&self, p: ProcId, k: usize) -> &S {
        &self.cache[self.base[p.index()] + k]
    }

    /// Largest refresh gap observed so far, in events.
    pub fn staleness_max(&self) -> u64 {
        self.staleness_max
    }

    /// Total cache refreshes performed.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Writes into `buf` the local view processor `p` acts on, touching
    /// only `p`'s closed neighborhood: slot `p` gets `own` (its true
    /// state) and each neighbor's slot gets `p`'s cache of it. `buf`
    /// must hold one slot per processor; every other slot keeps whatever
    /// an earlier call left there. The model lets a guard read only the
    /// closed neighborhood, so protocols never see those leftovers, and
    /// one buffer serves every processor at O(degree) per call.
    pub fn local_view_into(&self, graph: &Graph, own: &S, p: ProcId, buf: &mut [S]) {
        buf[p.index()] = own.clone();
        let row = &self.cache[self.base[p.index()]..self.base[p.index() + 1]];
        for (q, cached) in graph.neighbors(p).zip(row) {
            buf[q.index()] = cached.clone();
        }
    }
}

impl<S: Clone + PartialEq> RegisterSync<S> {
    /// Refreshes `p`'s cache of its `k`-th neighbor at event `now`,
    /// recording the refresh gap in the staleness ledger. Returns whether
    /// the cached state changed: a re-delivered snapshot refreshes the
    /// stamp but leaves `p`'s view, and so its guards, as they were.
    pub fn refresh(&mut self, p: ProcId, k: usize, state: S, now: u64) -> bool {
        let at = self.base[p.index()] + k;
        let stamp = &mut self.last_refresh[at];
        let gap = now.saturating_sub(*stamp);
        if gap > self.staleness_max {
            self.staleness_max = gap;
        }
        *stamp = now;
        self.refreshes += 1;
        let entry = &mut self.cache[at];
        if *entry == state {
            false
        } else {
            *entry = state;
            true
        }
    }

    /// Whether every cache entry agrees with the true configuration —
    /// the settlement condition of [`crate::Transport::is_settled`].
    pub fn consistent_with(&self, graph: &Graph, states: &[S]) -> bool {
        graph.procs().all(|p| {
            let row = &self.cache[self.base[p.index()]..self.base[p.index() + 1]];
            graph.neighbors(p).zip(row).all(|(q, cached)| *cached == states[q.index()])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_graph::generators;

    #[test]
    fn staleness_tracks_refresh_gaps() {
        let g = generators::chain(3).unwrap();
        let mut sync = RegisterSync::new(&g, &[0i32, 1, 2]);
        assert!(sync.consistent_with(&g, &[0, 1, 2]));
        sync.refresh(ProcId(0), 0, 5, 10);
        assert_eq!(sync.staleness_max(), 10);
        assert_eq!(*sync.cached(ProcId(0), 0), 5);
        assert!(!sync.consistent_with(&g, &[0, 1, 2]));
        sync.refresh(ProcId(0), 0, 1, 12);
        assert_eq!(sync.staleness_max(), 10, "gap of 2 does not raise the max");
        assert_eq!(sync.refreshes(), 2);
        assert!(sync.consistent_with(&g, &[0, 1, 2]));
    }

    #[test]
    fn local_view_overlays_caches_on_own_state() {
        let g = generators::chain(3).unwrap();
        let mut sync = RegisterSync::new(&g, &[10i32, 20, 30]);
        sync.refresh(ProcId(1), 0, 99, 1); // p1's cache of p0
        let mut buf = vec![0; 3];
        sync.local_view_into(&g, &20, ProcId(1), &mut buf);
        assert_eq!(buf, vec![99, 20, 30]);
    }

    #[test]
    fn local_view_rewrites_only_the_closed_neighborhood() {
        let g = generators::chain(4).unwrap();
        let sync = RegisterSync::new(&g, &[10i32, 20, 30, 40]);
        let mut buf = vec![-1; 4];
        sync.local_view_into(&g, &11, ProcId(0), &mut buf);
        assert_eq!(buf, vec![11, 20, -1, -1], "p0 sees itself and p1 only");
        sync.local_view_into(&g, &33, ProcId(2), &mut buf);
        assert_eq!(buf, vec![11, 20, 33, 40], "slot 0 is p0's leftover");
    }

    #[test]
    fn refresh_reports_whether_the_cache_changed() {
        let g = generators::chain(2).unwrap();
        let mut sync = RegisterSync::new(&g, &[1i32, 2]);
        assert!(!sync.refresh(ProcId(0), 0, 2, 5), "re-delivery of the cached state");
        assert!(sync.refresh(ProcId(0), 0, 7, 9));
        assert_eq!(sync.refreshes(), 2);
        assert_eq!(sync.staleness_max(), 5);
    }
}
