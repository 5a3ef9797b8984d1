//! A **self-stabilizing (but not snap-stabilizing)** PIF for arbitrary
//! rooted networks — the behavioural stand-in for Cournier, Datta, Petit,
//! Villain, ICDCS 2001 \[12\] (see DESIGN.md, "Substitutions").
//!
//! Structure: a self-stabilizing BFS spanning-tree layer (`dist`/`par`
//! corrections) plus echo-style phase waves over the current tree, with
//! *local phase corrections* (a broadcast-phase processor whose parent is
//! clean resets itself). The composition converges: once the BFS tree and
//! the phases have stabilized — `O(diameter)` rounds — every subsequent
//! wave is a correct PIF cycle. But convergence is all it offers: the
//! *first* wave initiated from a corrupted configuration can terminate
//! while stale-phase processors never received the broadcast value. The
//! paper's Contribution section singles out exactly this drawback; the
//! delivery-contrast experiment (E5) measures it.

use pif_daemon::{
    ActionId, ActionSet, ActionSpec, Applicability, Daemon, PhaseTag, Protocol, RegAccess,
    RunLimits, Simulator, View,
};
use pif_graph::{Graph, ProcId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{drive_first_wave, FirstWave, WaveVerdict};

/// `B-action`.
pub const SS_B: ActionId = ActionId(0);
/// `F-action`.
pub const SS_F: ActionId = ActionId(1);
/// `C-action`.
pub const SS_C: ActionId = ActionId(2);
/// BFS distance/parent correction.
pub const SS_DIST: ActionId = ActionId(3);
/// Phase correction (broadcast over a clean parent).
pub const SS_RESET: ActionId = ActionId(4);

/// Phase of an ss-PIF processor.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SsPhase {
    /// Broadcasting.
    B,
    /// Feeding back.
    F,
    /// Clean.
    #[default]
    C,
}

/// Register state of one ss-PIF processor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SsState {
    /// Current phase.
    pub phase: SsPhase,
    /// BFS parent pointer (ignored at the root).
    pub par: ProcId,
    /// BFS distance estimate (`0` constant at the root).
    pub dist: u16,
    /// Value register carrying the broadcast message.
    pub val: u64,
}

/// The self-stabilizing PIF program.
#[derive(Clone, Debug)]
pub struct SsPifProtocol {
    root: ProcId,
    broadcast_val: u64,
    dist_max: u16,
}

impl SsPifProtocol {
    /// Creates the program rooted at `root` for a network of `n`
    /// processors.
    pub fn new(root: ProcId, n: usize, broadcast_val: u64) -> Self {
        SsPifProtocol {
            root,
            broadcast_val,
            dist_max: u16::try_from(n.max(2)).unwrap_or(u16::MAX),
        }
    }

    /// The clean starting configuration: correct BFS tree, all phases `C`.
    pub fn clean_config(graph: &Graph, root: ProcId) -> Vec<SsState> {
        let dist = pif_graph::metrics::bfs_distances(graph, root);
        let parents = pif_graph::metrics::bfs_parents(graph, root);
        graph
            .procs()
            .map(|p| SsState {
                phase: SsPhase::C,
                par: parents[p.index()].unwrap_or(p),
                dist: u16::try_from(dist[p.index()]).unwrap_or(u16::MAX),
                val: 0,
            })
            .collect()
    }

    /// A configuration with registers drawn uniformly from their domains.
    pub fn random_config(graph: &Graph, root: ProcId, n: usize, seed: u64) -> Vec<SsState> {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist_max = n.max(2) as u16;
        graph
            .procs()
            .map(|p| {
                let ns = graph.neighbor_slice(p);
                SsState {
                    phase: [SsPhase::B, SsPhase::F, SsPhase::C][rng.random_range(0..3)],
                    par: if ns.is_empty() || p == root {
                        p
                    } else {
                        ns[rng.random_range(0..ns.len())]
                    },
                    dist: if p == root { 0 } else { rng.random_range(1..=dist_max) },
                    val: rng.random_range(0..1000),
                }
            })
            .collect()
    }

    /// The root processor.
    #[inline]
    pub fn root(&self) -> ProcId {
        self.root
    }

    /// The upper bound of the `dist` register domain.
    #[inline]
    pub fn dist_max(&self) -> u16 {
        self.dist_max
    }

    fn dist_of(&self, q: ProcId, s: &SsState) -> u16 {
        if q == self.root {
            0
        } else {
            s.dist
        }
    }

    /// The correct BFS distance estimate for `p` given its neighbors.
    fn bfs_target(&self, view: View<'_, SsState>) -> (u16, ProcId) {
        let (q, d) = view
            .neighbor_states()
            .map(|(q, s)| (q, self.dist_of(q, s)))
            .min_by_key(|&(q, d)| (d, q))
            .expect("connected graph: every non-root has a neighbor");
        (d.saturating_add(1).min(self.dist_max), q)
    }

    fn bfs_consistent(&self, view: View<'_, SsState>) -> bool {
        if view.pid() == self.root {
            return true;
        }
        let me = view.me();
        let (target, _) = self.bfs_target(view);
        me.dist == target && self.dist_of(me.par, view.state(me.par)) + 1 == me.dist
    }

    /// Every current tree child of `p` is in `phase`.
    fn children_all(&self, view: View<'_, SsState>, phase: SsPhase) -> bool {
        view.neighbor_states()
            .all(|(q, s)| q == self.root || s.par != view.pid() || s.phase == phase)
    }
}

impl Protocol for SsPifProtocol {
    type State = SsState;

    fn action_names(&self) -> &'static [&'static str] {
        &["B-action", "F-action", "C-action", "Dist-action", "Reset-action"]
    }

    fn enabled_actions(&self, view: View<'_, SsState>) -> ActionSet {
        let me = view.me();
        let is_root = view.pid() == self.root;

        // BFS layer stabilizes independently of the wave layer.
        if !is_root && !self.bfs_consistent(view) {
            return ActionSet::of(SS_DIST);
        }
        // Wave layer: tree-PIF-style phases over the *current* parent
        // pointers. Broadcast only descends into fully cleaned subtrees,
        // which makes consecutive waves overlap-free (a broadcast can
        // never overtake the previous wave's cleaning).
        let action = match me.phase {
            SsPhase::C => {
                let can_b = if is_root {
                    self.children_all(view, SsPhase::C)
                } else {
                    view.state(me.par).phase == SsPhase::B
                        && self.children_all(view, SsPhase::C)
                };
                can_b.then_some(SS_B)
            }
            SsPhase::B if !is_root && view.state(me.par).phase != SsPhase::B => Some(SS_RESET),
            SsPhase::B => self.children_all(view, SsPhase::F).then_some(SS_F),
            SsPhase::F => {
                let can_c = if is_root {
                    self.children_all(view, SsPhase::C)
                } else {
                    view.state(me.par).phase != SsPhase::B
                };
                can_c.then_some(SS_C)
            }
        };
        action.into_iter().collect()
    }

    fn execute(&self, view: View<'_, SsState>, action: ActionId) -> SsState {
        let mut s = *view.me();
        match action {
            SS_B => {
                if view.pid() == self.root {
                    s.val = self.broadcast_val;
                } else {
                    s.val = view.state(s.par).val;
                }
                s.phase = SsPhase::B;
            }
            SS_F => s.phase = SsPhase::F,
            SS_C => s.phase = SsPhase::C,
            SS_DIST => {
                let (dist, par) = self.bfs_target(view);
                s.dist = dist;
                s.par = par;
                // The tree moved under the wave: conservatively reset.
                s.phase = SsPhase::C;
            }
            SS_RESET => s.phase = SsPhase::C,
            other => panic!("unknown ss-pif action {other}"),
        }
        s
    }

    fn classify(&self, action: ActionId) -> PhaseTag {
        match action {
            SS_B => PhaseTag::Broadcast,
            SS_F => PhaseTag::Feedback,
            SS_C => PhaseTag::Cleaning,
            SS_DIST | SS_RESET => PhaseTag::Correction,
            _ => PhaseTag::Other,
        }
    }

    fn action_spec(&self, action: ActionId) -> ActionSpec {
        // Every action's guard is gated on the BFS layer (`Dist-action`
        // preempts the wave layer via an early return), so all wave guards
        // read own `dist`/`par` and neighbor `dist` in addition to the
        // phase registers. The two corrections share class 0 (disjoint:
        // `Dist` requires BFS-inconsistency, `Reset` consistency); B/F/C
        // share class 1 (disjoint on the own phase).
        const READS_DIST: &[RegAccess] = &[
            RegAccess::own("dist"),
            RegAccess::own("par"),
            RegAccess::neighbor("dist"),
        ];
        const READS_WAVE: &[RegAccess] = &[
            RegAccess::own("phase"),
            RegAccess::own("dist"),
            RegAccess::own("par"),
            RegAccess::neighbor("phase"),
            RegAccess::neighbor("par"),
            RegAccess::neighbor("dist"),
        ];
        const READS_B: &[RegAccess] = &[
            RegAccess::own("phase"),
            RegAccess::own("dist"),
            RegAccess::own("par"),
            RegAccess::neighbor("phase"),
            RegAccess::neighbor("par"),
            RegAccess::neighbor("dist"),
            RegAccess::neighbor("val"),
        ];
        const WRITES_B: &[RegAccess] = &[RegAccess::own("phase"), RegAccess::own("val")];
        const WRITES_PHASE: &[RegAccess] = &[RegAccess::own("phase")];
        const WRITES_DIST: &[RegAccess] =
            &[RegAccess::own("dist"), RegAccess::own("par"), RegAccess::own("phase")];
        let (priority, applicability, reads, writes) = match action {
            SS_B => (1, Applicability::Both, READS_B, WRITES_B),
            SS_F => (1, Applicability::Both, READS_WAVE, WRITES_PHASE),
            SS_C => (1, Applicability::Both, READS_WAVE, WRITES_PHASE),
            SS_DIST => (0, Applicability::NonRootOnly, READS_DIST, WRITES_DIST),
            SS_RESET => (0, Applicability::NonRootOnly, READS_WAVE, WRITES_PHASE),
            other => panic!("unknown ss-pif action {other}"),
        };
        ActionSpec { phase: self.classify(action), priority, applicability, reads, writes }
    }

    fn has_action_specs(&self) -> bool {
        true
    }

    fn register_names(&self) -> &'static [&'static str] {
        &["phase", "par", "dist", "val"]
    }

    fn locally_normal(&self, view: View<'_, SsState>) -> bool {
        // Normal = neither correction can fire: BFS-consistent, and not a
        // broadcast stranded over a non-broadcasting parent.
        if view.pid() == self.root {
            return true;
        }
        self.bfs_consistent(view)
            && (view.me().phase != SsPhase::B
                || view.state(view.me().par).phase == SsPhase::B)
    }
}

/// Sentinel broadcast value used by the [`FirstWave`] harness.
pub const SENTINEL: u64 = 0x55B1_F001;

/// The self-stabilizing PIF baseline as a [`FirstWave`] contestant.
#[derive(Clone, Copy, Debug, Default)]
pub struct SsPifBaseline;

impl FirstWave for SsPifBaseline {
    fn name(&self) -> &'static str {
        "self-stabilizing PIF [12]"
    }

    fn first_wave(
        &self,
        graph: &Graph,
        root: ProcId,
        seed: Option<u64>,
        limits: RunLimits,
    ) -> WaveVerdict {
        let protocol = SsPifProtocol::new(root, graph.len(), SENTINEL);
        let init = match seed {
            None => SsPifProtocol::clean_config(graph, root),
            Some(s) => SsPifProtocol::random_config(graph, root, graph.len(), s),
        };
        let mut daemon: Box<dyn Daemon<SsState>> =
            Box::new(pif_daemon::daemons::CentralRandom::new(seed.unwrap_or(0)));
        let sim = Simulator::new(graph.clone(), protocol, init);
        drive_first_wave(sim, daemon.as_mut(), limits, root, SS_B, SS_F, |s| s.val, SENTINEL)
    }
}

/// Runs `cycles` consecutive waves from a fuzzed configuration and reports
/// each wave's delivery verdict — the instrument showing *self*- (but not
/// *snap*-) stabilization: early waves may fail, later waves succeed.
pub fn consecutive_waves(
    graph: &Graph,
    root: ProcId,
    seed: u64,
    cycles: usize,
    limits: RunLimits,
) -> Vec<bool> {
    let protocol = SsPifProtocol::new(root, graph.len(), SENTINEL);
    let init = SsPifProtocol::random_config(graph, root, graph.len(), seed);
    let mut daemon = pif_daemon::daemons::CentralRandom::new(seed);
    let mut sim = Simulator::new(graph.clone(), protocol, init);
    let mut results = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        // Wait for the root's next B-action, then its next F-action.
        let mut initiated = false;
        let mut completed = false;
        let budget = sim.steps() + limits.max_steps;
        while sim.steps() < budget && !sim.is_terminal() {
            if sim.step(&mut daemon).is_err() {
                break;
            }
            for &(p, a) in sim.last_executed() {
                if p == root && a == SS_B {
                    initiated = true;
                }
                if p == root && a == SS_F && initiated {
                    completed = true;
                }
            }
            if completed {
                break;
            }
        }
        let delivered = completed && sim.graph().procs().all(|p| sim.state(p).val == SENTINEL);
        results.push(delivered);
        if !completed {
            break;
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_graph::generators;

    #[test]
    fn ss_pif_is_correct_from_clean_start() {
        for t in pif_graph::Topology::standard_suite() {
            let g = t.build().unwrap();
            let verdict = SsPifBaseline.first_wave(&g, ProcId(0), None, RunLimits::default());
            assert!(verdict.holds(), "ss-pif failed on {t:?}: {verdict:?}");
        }
    }

    #[test]
    fn ss_pif_first_wave_fails_from_some_corrupted_start() {
        let g = generators::random_connected(10, 0.2, 3).unwrap();
        let mut failures = 0;
        for seed in 0..60 {
            let verdict = SsPifBaseline.first_wave(
                &g,
                ProcId(0),
                Some(seed),
                RunLimits::new(100_000, 20_000),
            );
            if !verdict.holds() {
                failures += 1;
            }
        }
        assert!(failures > 0, "first waves should fail under corruption (not snap)");
    }

    #[test]
    fn ss_pif_eventually_stabilizes() {
        // Self-stabilization: among consecutive waves from a corrupted
        // start, a suffix must succeed.
        let g = generators::torus(3, 3).unwrap();
        let mut stabilized = 0;
        for seed in 0..20 {
            let waves = consecutive_waves(&g, ProcId(0), seed, 6, RunLimits::new(200_000, 50_000));
            if waves.last() == Some(&true) {
                stabilized += 1;
            }
        }
        assert!(
            stabilized >= 15,
            "most corrupted starts must converge to correct waves, got {stabilized}/20"
        );
    }

    #[test]
    fn bfs_layer_converges() {
        let g = generators::grid(4, 3).unwrap();
        let protocol = SsPifProtocol::new(ProcId(0), g.len(), SENTINEL);
        let init = SsPifProtocol::random_config(&g, ProcId(0), g.len(), 7);
        let mut sim = Simulator::new(g.clone(), protocol, init);
        let mut d = pif_daemon::daemons::CentralSequential::new();
        // Run long enough; then distances must equal BFS distances.
        for _ in 0..5_000 {
            if sim.is_terminal() {
                break;
            }
            sim.step(&mut d).unwrap();
        }
        let truth = pif_graph::metrics::bfs_distances(&g, ProcId(0));
        for p in g.procs() {
            if p != ProcId(0) {
                assert_eq!(
                    u32::from(sim.state(p).dist),
                    truth[p.index()],
                    "dist at {p} did not converge"
                );
            }
        }
    }
}
