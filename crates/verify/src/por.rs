//! Interference-guided partial-order reduction (`DESIGN.md` §16).
//!
//! The product searches branch over *every* daemon choice: each
//! non-empty subset of enabled processors, times an enabled action per
//! selected processor. Most of that branching is redundant. The
//! `pif-analyze` `InterferenceGraph` — the proven-complete 7×7 action
//! interference relation for PIF — contains only *own-register* and
//! *across-one-link* edges: every guard and every effect of a processor
//! reads at most its distance-1 neighborhood, so moves of processors at
//! graph distance ≥ 2 neither disable, enable, nor change the effect of
//! one another. (The workspace test `reduction_soundness.rs` pins this
//! premise to the analyzer's actual interference matrix.)
//!
//! A composite daemon selection whose selected-processor set is
//! *disconnected* in the network graph therefore decomposes: executing
//! its connected components one component-step at a time (root's
//! component last, when one contains the root) passes through
//! intermediate configurations the search also reaches, and ends in the
//! same configuration with the same overlay — the interleaving is
//! observationally equivalent to a sequence of retained transitions. So
//! the reduction keeps exactly the selections whose selected set is
//! connected and drops the rest:
//!
//! * **No action is lost** — every singleton selection is connected and
//!   always retained, so each enabled action of each processor is
//!   explored at every state. This discharges the usual ample-set
//!   condition C1 (and the cycle proviso C3: no state defers an enabled
//!   action forever, because no state defers any enabled action at
//!   all).
//! * **Snap-safety signatures are preserved exactly** — the delivery
//!   overlay (`has`/`ack` bitmaps) of a composite move only reads
//!   parent-side bits, and a processor's parent is always inside its
//!   own component, so the decomposition reproduces the overlay
//!   bit-for-bit, including the wave-closure inspection at the root.
//! * **Round-bound verdicts are preserved** — a decomposed path's
//!   pending set is always a subset of the composite path's at aligned
//!   configurations, so it completes rounds no faster; any Theorem 1
//!   violation reachable through a composite selection is reachable
//!   through connected ones (see §16 for the monotonicity argument).
//!
//! The check itself is branch-free bit algebra on precomputed adjacency
//! masks — a handful of cycles per daemon combo.

use pif_graph::Graph;

/// Precomputed adjacency bitmasks for the connected-selection test.
pub(crate) struct PorCtx {
    /// `adj[i]` = processors within the interference radius of `i`
    /// (self bit excluded).
    adj: [u16; 16],
}

impl PorCtx {
    /// Builds the context for a declared interference radius: two
    /// processors count as adjacent (their joint selection is *not*
    /// decomposable) when their graph distance is ≤ `max(radius, 1)`.
    ///
    /// The radius comes from the machine-derived interference graph
    /// (`por_premise_radius`); a radius of 0 — own-register interference
    /// only — is clamped to 1 rather than exploited, so the reduction
    /// never keys soundness on a premise stronger than the spec
    /// language itself can express.
    pub(crate) fn with_radius(graph: &Graph, radius: usize) -> Self {
        let radius = radius.max(1);
        let mut adj = [0u16; 16];
        for p in graph.procs() {
            // Bounded BFS from `p`: everything within `radius` links.
            let mut dist = [usize::MAX; 16];
            dist[p.index()] = 0;
            let mut queue = vec![p];
            let mut head = 0;
            while head < queue.len() {
                let q = queue[head];
                head += 1;
                if dist[q.index()] == radius {
                    continue;
                }
                for w in graph.neighbors(q) {
                    if dist[w.index()] == usize::MAX {
                        dist[w.index()] = dist[q.index()] + 1;
                        queue.push(w);
                        adj[p.index()] |= 1 << w.index();
                    }
                }
            }
        }
        PorCtx { adj }
    }

    /// Whether the selected-processor set `sel` induces a connected
    /// subgraph of the network (singletons trivially do). Bitset flood
    /// fill from the lowest selected processor.
    #[inline]
    pub(crate) fn connected(&self, sel: u16) -> bool {
        debug_assert_ne!(sel, 0, "daemon selections are non-empty");
        let mut reach = sel & sel.wrapping_neg(); // lowest set bit
        loop {
            let mut frontier = reach;
            let mut next = reach;
            while frontier != 0 {
                let i = frontier.trailing_zeros() as usize;
                frontier &= frontier - 1;
                next |= self.adj[i] & sel;
            }
            if next == reach {
                return reach == sel;
            }
            reach = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_graph::generators;

    #[test]
    fn chain_connectivity_matches_interval_structure() {
        // On a chain, a selection is connected iff it is a contiguous
        // interval of processors.
        let ctx = PorCtx::with_radius(&generators::chain(5).unwrap(), 1);
        for sel in 1u16..(1 << 5) {
            let lo = sel.trailing_zeros();
            let hi = sel.ilog2();
            let interval = sel.count_ones() == hi - lo + 1;
            assert_eq!(ctx.connected(sel), interval, "sel {sel:#07b}");
        }
    }

    #[test]
    fn singletons_and_full_sets_are_always_connected() {
        for g in [
            generators::chain(4).unwrap(),
            generators::ring(5).unwrap(),
            generators::grid(3, 2).unwrap(),
        ] {
            let ctx = PorCtx::with_radius(&g, 1);
            for i in 0..g.len() {
                assert!(ctx.connected(1 << i));
            }
            // The graph itself is connected by construction.
            assert!(ctx.connected((1 << g.len()) - 1));
        }
    }

    #[test]
    fn radius_two_closes_over_one_gap() {
        // With a declared radius of 2, {0, 2} on a chain is an
        // interfering (non-decomposable) selection; {0, 3} still is not.
        let g = generators::chain(5).unwrap();
        let r1 = PorCtx::with_radius(&g, 1);
        let r2 = PorCtx::with_radius(&g, 2);
        assert!(!r1.connected(0b00101));
        assert!(r2.connected(0b00101));
        assert!(!r2.connected(0b01001));
        // Radius 0 is clamped to 1: identical adjacency.
        let r0 = PorCtx::with_radius(&g, 0);
        for sel in 1u16..(1 << 5) {
            assert_eq!(r0.connected(sel), r1.connected(sel), "sel {sel:#07b}");
        }
    }

    #[test]
    fn ring_antipodal_pairs_are_disconnected() {
        let ctx = PorCtx::with_radius(&generators::ring(6).unwrap(), 1);
        assert!(!ctx.connected((1 << 0) | (1 << 3)));
        assert!(ctx.connected((1 << 0) | (1 << 1)));
        // Two arcs joined through vertex 0 wrap around the ring.
        assert!(ctx.connected((1 << 5) | (1 << 0) | (1 << 1)));
        assert!(!ctx.connected((1 << 5) | (1 << 1)));
    }
}
