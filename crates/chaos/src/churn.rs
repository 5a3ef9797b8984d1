//! Dynamic topologies: seeded churn plans applied through a [`DynGraph`]
//! wrapper over the static `pif-graph` instance.
//!
//! The paper's model is a **static** arbitrary network: every theorem
//! quantifies over executions on one fixed graph. Churn is therefore
//! modeled as a sequence of *reconfigurations*, each producing a new
//! static instance the algorithm then runs on — snap-stabilization is
//! exactly the property that makes this composition meaningful, because
//! every post-reconfiguration cycle is correct regardless of the register
//! garbage the previous instance left behind (Theorem 1/4 applied to the
//! new instance's arbitrary initial configuration).
//!
//! A [`DynGraph`] tracks which base processors are active and which base
//! links are administratively failed. Events that would disconnect the
//! surviving network are **refused** (recorded as
//! [`ChurnOutcome::Skipped`], never silently dropped): the paper requires
//! a connected network, so a disconnecting event would change the model,
//! not stress it. [`DynGraph::snapshot`] compacts the surviving
//! processors into a fresh valid [`Graph`] (ids `0..n_active`) plus the
//! compact → base id mapping the serving layer uses to carry per-replica
//! register state across the rebuild.

use std::collections::BTreeSet;

use pif_graph::{metrics, Graph, ProcId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One churn event's action, in base-graph ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnAction {
    /// Administratively fail one base link (frames on it are lost; see
    /// `pif_net::NetSim::set_link_down` for the transport mapping).
    FailLink(ProcId, ProcId),
    /// Recover a previously failed base link.
    RecoverLink(ProcId, ProcId),
    /// Deactivate a processor (it leaves the network with its links).
    Leave(ProcId),
    /// Reactivate a previously departed processor with its base links
    /// (minus any still-failed ones).
    Join(ProcId),
}

impl ChurnAction {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ChurnAction::FailLink(..) => "fail-link",
            ChurnAction::RecoverLink(..) => "recover-link",
            ChurnAction::Leave(..) => "leave",
            ChurnAction::Join(..) => "join",
        }
    }
}

/// One scheduled churn event: `action` fires at the boundary entering
/// `epoch` (epoch 0 is the pristine base instance, so plans never
/// schedule anything there).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Campaign epoch the event fires in (≥ 1).
    pub epoch: u32,
    /// What happens.
    pub action: ChurnAction,
}

/// A replayable churn schedule. Either scripted explicitly or generated
/// from a seed — both are pure data, so a recorded `(seed, epochs,
/// events_per_epoch)` triple regenerates the identical plan and a soak
/// campaign replays bit-identically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Events, grouped by ascending epoch.
    pub events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// A plan with no events (the clean-soak control cell).
    pub fn none() -> Self {
        ChurnPlan::default()
    }

    /// An explicitly scripted plan. Events are sorted by epoch (stable,
    /// so same-epoch order is preserved).
    pub fn scheduled(mut events: Vec<ChurnEvent>) -> Self {
        events.sort_by_key(|e| e.epoch);
        ChurnPlan { events }
    }

    /// A seeded plan over `base`: `events_per_epoch` events in each of
    /// epochs `1..=churn_epochs`, drawn deterministically from `seed`.
    /// Draws mix link failures/recoveries with node leaves/joins; the
    /// plan is generated blind (it may name already-failed links or
    /// departed nodes — [`DynGraph::apply`] skips those honestly).
    pub fn seeded(base: &Graph, churn_epochs: u32, events_per_epoch: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<(ProcId, ProcId)> = base.edges().collect();
        let n = base.len();
        let mut events = Vec::new();
        for epoch in 1..=churn_epochs {
            for _ in 0..events_per_epoch {
                let kind = rng.random_range(0..4u32);
                let action = match kind {
                    0 | 1 => {
                        let (u, v) = edges[rng.random_range(0..edges.len())];
                        if kind == 0 {
                            ChurnAction::FailLink(u, v)
                        } else {
                            ChurnAction::RecoverLink(u, v)
                        }
                    }
                    2 => ChurnAction::Leave(ProcId(rng.random_range(0..n as u32))),
                    _ => ChurnAction::Join(ProcId(rng.random_range(0..n as u32))),
                };
                events.push(ChurnEvent { epoch, action });
            }
        }
        ChurnPlan { events }
    }

    /// The events scheduled for `epoch`, in plan order.
    pub fn events_at(&self, epoch: u32) -> impl Iterator<Item = &ChurnEvent> {
        self.events.iter().filter(move |e| e.epoch == epoch)
    }

    /// The largest epoch with a scheduled event (0 for an empty plan).
    pub fn last_epoch(&self) -> u32 {
        self.events.iter().map(|e| e.epoch).max().unwrap_or(0)
    }
}

/// What [`DynGraph::apply`] did with an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnOutcome {
    /// The event took effect.
    Applied,
    /// The event was refused; the reason is recorded, never hidden.
    Skipped(&'static str),
}

/// A dynamic view over a static base [`Graph`]: active processors plus
/// administratively failed links. See the module docs for the model.
#[derive(Clone, Debug)]
pub struct DynGraph {
    base: Graph,
    active: Vec<bool>,
    /// Failed base links, normalized `u < v`.
    down: BTreeSet<(ProcId, ProcId)>,
    applied: u64,
    skipped: u64,
}

fn norm(u: ProcId, v: ProcId) -> (ProcId, ProcId) {
    if u < v { (u, v) } else { (v, u) }
}

impl DynGraph {
    /// Starts with every base processor active and every link up.
    pub fn new(base: Graph) -> Self {
        let n = base.len();
        DynGraph { base, active: vec![true; n], down: BTreeSet::new(), applied: 0, skipped: 0 }
    }

    /// The static base instance.
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// Events applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Events refused so far.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Currently active processors, ascending by base id.
    pub fn active_nodes(&self) -> Vec<ProcId> {
        self.base.procs().filter(|&p| self.active[p.index()]).collect()
    }

    /// Whether the link `{u, v}` is currently usable: a base link, both
    /// endpoints active, not failed.
    pub fn link_up(&self, u: ProcId, v: ProcId) -> bool {
        self.base.has_edge(u, v)
            && self.active[u.index()]
            && self.active[v.index()]
            && !self.down.contains(&norm(u, v))
    }

    /// Whether the surviving network (active nodes over usable links) is
    /// connected and non-empty.
    fn survivors_connected(&self, extra_down: Option<(ProcId, ProcId)>, without: Option<ProcId>) -> bool {
        let alive = |p: ProcId| self.active[p.index()] && Some(p) != without;
        let Some(start) = self.base.procs().find(|&p| alive(p)) else {
            return false;
        };
        let mut seen = vec![false; self.base.len()];
        let mut stack = vec![start];
        seen[start.index()] = true;
        let mut count = 1usize;
        while let Some(p) = stack.pop() {
            for q in self.base.neighbors(p) {
                if seen[q.index()] || !alive(q) {
                    continue;
                }
                let e = norm(p, q);
                if self.down.contains(&e) || extra_down == Some(e) {
                    continue;
                }
                seen[q.index()] = true;
                count += 1;
                stack.push(q);
            }
        }
        count == self.base.procs().filter(|&p| alive(p)).count()
    }

    /// Applies one event, refusing anything that would disconnect the
    /// surviving network or is a no-op (already failed, already departed,
    /// …). Both paths are counted; nothing is silently dropped.
    pub fn apply(&mut self, action: ChurnAction) -> ChurnOutcome {
        let outcome = match action {
            ChurnAction::FailLink(u, v) => {
                let e = norm(u, v);
                if !self.base.has_edge(u, v) {
                    ChurnOutcome::Skipped("not a base link")
                } else if self.down.contains(&e) {
                    ChurnOutcome::Skipped("already failed")
                } else if !self.survivors_connected(Some(e), None) {
                    ChurnOutcome::Skipped("would disconnect")
                } else {
                    self.down.insert(e);
                    ChurnOutcome::Applied
                }
            }
            ChurnAction::RecoverLink(u, v) => {
                let e = norm(u, v);
                if self.down.remove(&e) {
                    ChurnOutcome::Applied
                } else {
                    ChurnOutcome::Skipped("not failed")
                }
            }
            ChurnAction::Leave(p) => {
                if p.index() >= self.base.len() || !self.active[p.index()] {
                    ChurnOutcome::Skipped("not active")
                } else if self.active.iter().filter(|&&a| a).count() == 1 {
                    ChurnOutcome::Skipped("last processor")
                } else if !self.survivors_connected(None, Some(p)) {
                    ChurnOutcome::Skipped("would disconnect")
                } else {
                    self.active[p.index()] = false;
                    ChurnOutcome::Applied
                }
            }
            ChurnAction::Join(p) => {
                if p.index() >= self.base.len() {
                    ChurnOutcome::Skipped("not active")
                } else if self.active[p.index()] {
                    ChurnOutcome::Skipped("already active")
                } else {
                    self.active[p.index()] = true;
                    if self.survivors_connected(None, None) {
                        ChurnOutcome::Applied
                    } else {
                        // Re-joining with every usable link failed would
                        // strand the node; refuse and roll back.
                        self.active[p.index()] = false;
                        ChurnOutcome::Skipped("would disconnect")
                    }
                }
            }
        };
        match outcome {
            ChurnOutcome::Applied => self.applied += 1,
            ChurnOutcome::Skipped(_) => self.skipped += 1,
        }
        outcome
    }

    /// Compacts the surviving network into a fresh static [`Graph`]
    /// (processors renumbered `0..n_active` in ascending base-id order)
    /// plus the compact-index → base-id mapping. The result is always a
    /// valid connected instance — the apply-time guard maintains that
    /// invariant — so the serving layer can rebuild lanes on it directly.
    ///
    /// # Panics
    ///
    /// Panics if the survivors are disconnected, which the apply-time
    /// guard makes unreachable.
    pub fn snapshot(&self) -> (Graph, Vec<ProcId>) {
        let map = self.active_nodes();
        let mut inverse = vec![u32::MAX; self.base.len()];
        for (i, &p) in map.iter().enumerate() {
            inverse[p.index()] = i as u32;
        }
        let mut edges = Vec::new();
        for (u, v) in self.base.edges() {
            if self.link_up(u, v) {
                edges.push((inverse[u.index()], inverse[v.index()]));
            }
        }
        let name = format!(
            "churn({}, n={}, links_down={})",
            self.base.name(),
            map.len(),
            self.down.len()
        );
        let g = Graph::from_edges(map.len(), edges)
            .expect("apply-time guard keeps survivors connected")
            .with_name(name);
        debug_assert!(metrics::is_connected(&g));
        (g, map)
    }
}

/// Maps a link-level churn action onto a live `pif_net::NetSim`'s fault
/// channels: failures flush and close the link pair (frames lost, counted
/// in `down_lost`), recoveries reopen it. Returns whether the action was
/// representable — `Leave`/`Join` are **not** (the framed transport has a
/// fixed membership; node churn requires the rebuild path), and neither
/// are links outside the transport's topology.
pub fn apply_to_net<P>(action: ChurnAction, net: &mut pif_net::NetSim<P>) -> bool
where
    P: pif_daemon::Protocol,
    P::State: pif_net::WireState,
{
    match action {
        ChurnAction::FailLink(u, v) => net.set_link_down(u, v, true),
        ChurnAction::RecoverLink(u, v) => net.set_link_down(u, v, false),
        ChurnAction::Leave(_) | ChurnAction::Join(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_graph::generators;

    fn ring6() -> Graph {
        generators::ring(6).unwrap()
    }

    #[test]
    fn seeded_plans_replay_bit_identically() {
        let g = ring6();
        let a = ChurnPlan::seeded(&g, 3, 4, 42);
        let b = ChurnPlan::seeded(&g, 3, 4, 42);
        let c = ChurnPlan::seeded(&g, 3, 4, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.events.len(), 12);
        assert_eq!(a.last_epoch(), 3);
        assert!(a.events_at(2).all(|e| e.epoch == 2));
    }

    #[test]
    fn disconnecting_events_are_refused() {
        let mut d = DynGraph::new(ring6());
        // A ring survives one link failure but not two disjoint ones
        // isolating an arc... fail one link, then the failure that would
        // cut the remaining chain is refused.
        assert_eq!(d.apply(ChurnAction::FailLink(ProcId(0), ProcId(1))), ChurnOutcome::Applied);
        assert_eq!(
            d.apply(ChurnAction::FailLink(ProcId(3), ProcId(4))),
            ChurnOutcome::Skipped("would disconnect")
        );
        // Interior node of the surviving chain cannot leave...
        assert_eq!(
            d.apply(ChurnAction::Leave(ProcId(3))),
            ChurnOutcome::Skipped("would disconnect")
        );
        // ...but a chain endpoint can.
        assert_eq!(d.apply(ChurnAction::Leave(ProcId(0))), ChurnOutcome::Applied);
        assert_eq!(d.applied(), 2);
        assert_eq!(d.skipped(), 2);
        let (g, map) = d.snapshot();
        assert_eq!(g.len(), 5);
        assert_eq!(map, vec![ProcId(1), ProcId(2), ProcId(3), ProcId(4), ProcId(5)]);
        assert!(metrics::is_connected(&g));
    }

    #[test]
    fn leave_then_join_restores_the_instance() {
        let mut d = DynGraph::new(ring6());
        assert_eq!(d.apply(ChurnAction::Leave(ProcId(2))), ChurnOutcome::Applied);
        assert_eq!(d.apply(ChurnAction::Leave(ProcId(2))), ChurnOutcome::Skipped("not active"));
        let (g, _) = d.snapshot();
        assert_eq!(g.len(), 5);
        assert_eq!(d.apply(ChurnAction::Join(ProcId(2))), ChurnOutcome::Applied);
        assert_eq!(d.apply(ChurnAction::Join(ProcId(2))), ChurnOutcome::Skipped("already active"));
        let (g, map) = d.snapshot();
        assert_eq!(g.len(), 6);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(map, ring6().procs().collect::<Vec<_>>());
    }

    #[test]
    fn join_with_all_links_failed_is_refused() {
        // star(4): center 0, leaves 1..3. Fail 0-3, then 3 can leave; its
        // only link back is still down, so re-joining would strand it.
        let mut d = DynGraph::new(generators::star(4).unwrap());
        assert_eq!(d.apply(ChurnAction::Leave(ProcId(3))), ChurnOutcome::Applied);
        assert_eq!(d.apply(ChurnAction::FailLink(ProcId(0), ProcId(3))), ChurnOutcome::Applied);
        assert_eq!(
            d.apply(ChurnAction::Join(ProcId(3))),
            ChurnOutcome::Skipped("would disconnect")
        );
        assert_eq!(d.apply(ChurnAction::RecoverLink(ProcId(0), ProcId(3))), ChurnOutcome::Applied);
        assert_eq!(d.apply(ChurnAction::Join(ProcId(3))), ChurnOutcome::Applied);
        assert_eq!(d.snapshot().0.len(), 4);
    }

    #[test]
    fn snapshot_remaps_ids_compactly() {
        let mut d = DynGraph::new(ring6());
        d.apply(ChurnAction::Leave(ProcId(0)));
        let (g, map) = d.snapshot();
        // Survivors 1..5 renumbered 0..4; the surviving chain's links are
        // exactly the base links among them.
        assert_eq!(map, vec![ProcId(1), ProcId(2), ProcId(3), ProcId(4), ProcId(5)]);
        assert_eq!(g.edge_count(), 4);
        assert!(g.has_edge(ProcId(0), ProcId(1))); // base 1-2
        assert!(!g.has_edge(ProcId(0), ProcId(4))); // base 1-5 never existed
    }

    #[test]
    fn net_mapping_covers_exactly_the_link_events() {
        let g = ring6();
        let mut net =
            pif_net::NetBuilder::new(g.clone(), pif_core::PifProtocol::new(ProcId(0), &g))
                .states(pif_core::initial::normal_starting(&g))
                .seed(7)
                .build()
                .unwrap();
        assert!(apply_to_net(ChurnAction::FailLink(ProcId(1), ProcId(2)), &mut net));
        assert_eq!(net.link_down(ProcId(1), ProcId(2)), Some(true));
        assert!(apply_to_net(ChurnAction::RecoverLink(ProcId(1), ProcId(2)), &mut net));
        assert_eq!(net.link_down(ProcId(1), ProcId(2)), Some(false));
        assert!(!apply_to_net(ChurnAction::Leave(ProcId(1)), &mut net));
        assert!(!apply_to_net(ChurnAction::FailLink(ProcId(0), ProcId(3)), &mut net));
    }
}
