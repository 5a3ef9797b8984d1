//! A snap-stabilizing PIF for **tree networks**, in the spirit of Bui,
//! Datta, Petit, Villain [7, 9].
//!
//! The tree is part of the program (each processor knows its static parent
//! and children), so a single three-valued phase register per processor
//! suffices. The guards enforce the same discipline as the paper's
//! arbitrary-network algorithm enforces dynamically: a processor may join
//! a broadcast only when its *entire* old subtree state has drained
//! (children clean), and stale broadcast states collapse through a local
//! correction. This gives snap-stabilization on trees at minimal cost —
//! and is exactly what does **not** generalize to arbitrary graphs without
//! the ICDCS 2002 machinery (dynamic parents, levels, counting, `Fok`).

use pif_daemon::{
    ActionId, ActionSet, ActionSpec, Applicability, Daemon, PhaseTag, Protocol, RegAccess,
    RunLimits, Simulator, View,
};
use pif_graph::{Graph, ProcId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{drive_first_wave, FirstWave, WaveVerdict};

/// `B-action`.
pub const TREE_B: ActionId = ActionId(0);
/// `F-action`.
pub const TREE_F: ActionId = ActionId(1);
/// `C-action`.
pub const TREE_C: ActionId = ActionId(2);
/// Correction: stale broadcast over a non-broadcasting parent.
pub const TREE_CORRECT: ActionId = ActionId(3);

/// Phase of a tree-PIF processor.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TreePhase {
    /// Broadcasting.
    B,
    /// Feeding back.
    F,
    /// Clean.
    #[default]
    C,
}

/// Register state of one tree-PIF processor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TreeState {
    /// Current phase.
    pub phase: TreePhase,
    /// Value register carrying the broadcast message.
    pub val: u64,
}

/// The tree-PIF program: phases over a statically known spanning tree.
#[derive(Clone, Debug)]
pub struct TreePifProtocol {
    root: ProcId,
    /// Static parent of each processor (`parent[root] = root`).
    parent: Vec<ProcId>,
    broadcast_val: u64,
}

impl TreePifProtocol {
    /// Creates the program for `graph` rooted at `root`, using the graph
    /// itself as the tree.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is not a tree (`M ≠ N − 1`).
    pub fn on_tree(graph: &Graph, root: ProcId, broadcast_val: u64) -> Self {
        assert_eq!(
            graph.edge_count(),
            graph.len() - 1,
            "tree-PIF requires a tree topology"
        );
        let parents = pif_graph::metrics::bfs_parents(graph, root);
        let parent = graph
            .procs()
            .map(|p| parents[p.index()].unwrap_or(p))
            .collect();
        TreePifProtocol { root, parent, broadcast_val }
    }

    /// The root processor.
    #[inline]
    pub fn root(&self) -> ProcId {
        self.root
    }

    /// The clean starting configuration.
    pub fn clean_config(n: usize) -> Vec<TreeState> {
        vec![TreeState { phase: TreePhase::C, val: 0 }; n]
    }

    /// A configuration with registers drawn uniformly from their domains.
    pub fn random_config(n: usize, seed: u64) -> Vec<TreeState> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| TreeState {
                phase: [TreePhase::B, TreePhase::F, TreePhase::C][rng.random_range(0..3)],
                val: rng.random_range(0..1000),
            })
            .collect()
    }

    fn children<'a>(
        &'a self,
        view: View<'a, TreeState>,
    ) -> impl Iterator<Item = (ProcId, &'a TreeState)> + 'a {
        view.neighbor_states()
            .filter(move |(q, _)| *q != self.root && self.parent[q.index()] == view.pid())
    }

    fn children_all(&self, view: View<'_, TreeState>, phase: TreePhase) -> bool {
        self.children(view).all(|(_, s)| s.phase == phase)
    }
}

impl Protocol for TreePifProtocol {
    type State = TreeState;

    fn action_names(&self) -> &'static [&'static str] {
        &["B-action", "F-action", "C-action", "Correction"]
    }

    fn enabled_actions(&self, view: View<'_, TreeState>) -> ActionSet {
        let me = view.me();
        let is_root = view.pid() == self.root;
        let par_phase = if is_root {
            TreePhase::B // dummy, unused for the root
        } else {
            view.state(self.parent[view.pid().index()]).phase
        };
        let action = match me.phase {
            TreePhase::C => {
                let parent_ok = is_root || par_phase == TreePhase::B;
                (parent_ok && self.children_all(view, TreePhase::C)).then_some(TREE_B)
            }
            TreePhase::B if !is_root && par_phase != TreePhase::B => Some(TREE_CORRECT),
            TreePhase::B => self.children_all(view, TreePhase::F).then_some(TREE_F),
            TreePhase::F => {
                let can_c = if is_root {
                    self.children_all(view, TreePhase::C)
                } else {
                    par_phase != TreePhase::B
                };
                can_c.then_some(TREE_C)
            }
        };
        action.into_iter().collect()
    }

    fn execute(&self, view: View<'_, TreeState>, action: ActionId) -> TreeState {
        let mut s = *view.me();
        match action {
            TREE_B => {
                s.val = if view.pid() == self.root {
                    self.broadcast_val
                } else {
                    view.state(self.parent[view.pid().index()]).val
                };
                s.phase = TreePhase::B;
            }
            TREE_F => s.phase = TreePhase::F,
            TREE_C | TREE_CORRECT => s.phase = TreePhase::C,
            other => panic!("unknown tree-pif action {other}"),
        }
        s
    }

    fn classify(&self, action: ActionId) -> PhaseTag {
        match action {
            TREE_B => PhaseTag::Broadcast,
            TREE_F => PhaseTag::Feedback,
            TREE_C => PhaseTag::Cleaning,
            TREE_CORRECT => PhaseTag::Correction,
            _ => PhaseTag::Other,
        }
    }

    fn action_spec(&self, action: ActionId) -> ActionSpec {
        // The parent/child relation is program text (the static tree), not
        // a register, so the only registers in play are `phase` and `val`.
        // B/F/C are disjoint on the own phase; the correction (class 0)
        // shares phase B with F-action but F's guard requires the parent
        // to still broadcast while the correction requires it not to.
        const READS_B: &[RegAccess] = &[
            RegAccess::own("phase"),
            RegAccess::neighbor("phase"),
            RegAccess::neighbor("val"),
        ];
        const READS_PHASE: &[RegAccess] =
            &[RegAccess::own("phase"), RegAccess::neighbor("phase")];
        const WRITES_B: &[RegAccess] = &[RegAccess::own("phase"), RegAccess::own("val")];
        const WRITES_PHASE: &[RegAccess] = &[RegAccess::own("phase")];
        let (priority, applicability, reads, writes) = match action {
            TREE_B => (1, Applicability::Both, READS_B, WRITES_B),
            TREE_F => (1, Applicability::Both, READS_PHASE, WRITES_PHASE),
            TREE_C => (1, Applicability::Both, READS_PHASE, WRITES_PHASE),
            TREE_CORRECT => (0, Applicability::NonRootOnly, READS_PHASE, WRITES_PHASE),
            other => panic!("unknown tree-pif action {other}"),
        };
        ActionSpec { phase: self.classify(action), priority, applicability, reads, writes }
    }

    fn has_action_specs(&self) -> bool {
        true
    }

    fn register_names(&self) -> &'static [&'static str] {
        &["phase", "val"]
    }

    fn locally_normal(&self, view: View<'_, TreeState>) -> bool {
        // Abnormal exactly when the correction guard's phase pattern holds:
        // a non-root broadcasts over a parent that no longer does.
        view.pid() == self.root
            || view.me().phase != TreePhase::B
            || view.state(self.parent[view.pid().index()]).phase == TreePhase::B
    }
}

/// Sentinel broadcast value used by the [`FirstWave`] harness.
pub const SENTINEL: u64 = 0x7EEE_F001;

/// The tree-restricted snap-stabilizing PIF as a [`FirstWave`] contestant.
/// Only valid on tree topologies.
#[derive(Clone, Copy, Debug, Default)]
pub struct TreePifBaseline;

impl FirstWave for TreePifBaseline {
    fn name(&self) -> &'static str {
        "tree snap-PIF [7,9]"
    }

    fn first_wave(
        &self,
        graph: &Graph,
        root: ProcId,
        seed: Option<u64>,
        limits: RunLimits,
    ) -> WaveVerdict {
        let protocol = TreePifProtocol::on_tree(graph, root, SENTINEL);
        let init = match seed {
            None => TreePifProtocol::clean_config(graph.len()),
            Some(s) => TreePifProtocol::random_config(graph.len(), s),
        };
        let mut daemon: Box<dyn Daemon<TreeState>> =
            Box::new(pif_daemon::daemons::CentralRandom::new(seed.unwrap_or(0)));
        let sim = Simulator::new(graph.clone(), protocol, init);
        drive_first_wave(sim, daemon.as_mut(), limits, root, TREE_B, TREE_F, |s| s.val, SENTINEL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_graph::generators;

    fn tree_suite() -> Vec<Graph> {
        vec![
            generators::chain(9).unwrap(),
            generators::star(9).unwrap(),
            generators::kary_tree(15, 2).unwrap(),
            generators::random_tree(12, 5).unwrap(),
            generators::caterpillar(4, 2).unwrap(),
        ]
    }

    #[test]
    fn tree_pif_is_correct_from_clean_start() {
        for g in tree_suite() {
            let verdict = TreePifBaseline.first_wave(&g, ProcId(0), None, RunLimits::default());
            assert!(verdict.holds(), "failed on {g}: {verdict:?}");
        }
    }

    #[test]
    fn tree_pif_is_snap_on_fuzzed_configurations() {
        for g in tree_suite() {
            for seed in 0..40 {
                let verdict = TreePifBaseline.first_wave(
                    &g,
                    ProcId(0),
                    Some(seed),
                    RunLimits::default(),
                );
                assert!(verdict.holds(), "tree snap violated on {g} seed {seed}: {verdict:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "tree topology")]
    fn rejects_non_tree_graphs() {
        let g = generators::ring(5).unwrap();
        let _ = TreePifProtocol::on_tree(&g, ProcId(0), 0);
    }

    #[test]
    fn stale_subtree_drains_before_joining() {
        // p1 clean, its child p2 stale-B: p1 must not broadcast until p2
        // corrected (children_all C in the B guard).
        let g = generators::chain(3).unwrap();
        let protocol = TreePifProtocol::on_tree(&g, ProcId(0), SENTINEL);
        let mut init = TreePifProtocol::clean_config(3);
        init[2] = TreeState { phase: TreePhase::B, val: 77 };
        let mut sim = Simulator::new(g, protocol, init);
        let mut d = pif_daemon::daemons::FixedSchedule::new([vec![ProcId(0)]]);
        sim.step(&mut d).unwrap(); // root broadcasts
        assert!(
            !sim.enabled_actions(ProcId(1)).contains(TREE_B),
            "p1 must wait for its stale child"
        );
        assert!(sim.enabled_actions(ProcId(2)).contains(TREE_CORRECT));
    }
}
