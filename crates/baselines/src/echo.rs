//! The Chang–Segall *echo* algorithm (propagation of information with
//! feedback), adapted to the locally shared memory model.
//!
//! This is the classical, **non-fault-tolerant** PIF: three phases
//! (`C`lean, `B`roadcast, `F`eedback) over a dynamically chosen parent,
//! with no levels, no counting, no `Fok` wave, no `Leaf` guard and — the
//! crucial difference — **no correction actions**. From a clean starting
//! configuration it performs perfect PIF cycles; from a corrupted
//! configuration it can deadlock, or complete a wave that skipped the
//! processors whose registers were pre-set, without ever recovering.

use pif_daemon::{
    ActionId, ActionSet, ActionSpec, Applicability, Daemon, PhaseTag, Protocol, RegAccess,
    RunLimits, Simulator, View,
};
use pif_graph::{Graph, ProcId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{drive_first_wave, FirstWave, WaveVerdict};

/// `B-action` of the echo protocol.
pub const ECHO_B: ActionId = ActionId(0);
/// `F-action` of the echo protocol.
pub const ECHO_F: ActionId = ActionId(1);
/// `C-action` of the echo protocol.
pub const ECHO_C: ActionId = ActionId(2);

/// Phase of an echo processor.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EchoPhase {
    /// Broadcasting.
    B,
    /// Feeding back.
    F,
    /// Clean.
    #[default]
    C,
}

/// Register state of one echo processor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EchoState {
    /// Current phase.
    pub phase: EchoPhase,
    /// Parent in the wave (ignored at the root).
    pub par: ProcId,
    /// The value register carrying the broadcast message.
    pub val: u64,
}

/// The echo protocol program.
#[derive(Clone, Debug)]
pub struct EchoProtocol {
    root: ProcId,
    broadcast_val: u64,
}

impl EchoProtocol {
    /// Creates the program rooted at `root`; the root writes
    /// `broadcast_val` into its value register when it initiates.
    pub fn new(root: ProcId, broadcast_val: u64) -> Self {
        EchoProtocol { root, broadcast_val }
    }

    /// The clean starting configuration.
    pub fn clean_config(graph: &Graph) -> Vec<EchoState> {
        graph
            .procs()
            .map(|p| EchoState {
                phase: EchoPhase::C,
                par: graph.neighbors(p).next().unwrap_or(p),
                val: 0,
            })
            .collect()
    }

    /// A configuration with registers drawn uniformly from their domains.
    pub fn random_config(graph: &Graph, seed: u64) -> Vec<EchoState> {
        let mut rng = StdRng::seed_from_u64(seed);
        graph
            .procs()
            .map(|p| {
                let ns = graph.neighbor_slice(p);
                EchoState {
                    phase: [EchoPhase::B, EchoPhase::F, EchoPhase::C][rng.random_range(0..3)],
                    par: if ns.is_empty() { p } else { ns[rng.random_range(0..ns.len())] },
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

    fn children_all_f(&self, view: View<'_, EchoState>) -> bool {
        view.neighbor_states().all(|(q, s)| {
            q == self.root || s.par != view.pid() || s.phase == EchoPhase::F
        })
    }
}

impl Protocol for EchoProtocol {
    type State = EchoState;

    fn action_names(&self) -> &'static [&'static str] {
        &["B-action", "F-action", "C-action"]
    }

    fn enabled_actions(&self, view: View<'_, EchoState>) -> ActionSet {
        let me = view.me();
        let is_root = view.pid() == self.root;
        let action = match me.phase {
            EchoPhase::C => {
                let can_b = if is_root {
                    view.neighbor_states().all(|(_, s)| s.phase == EchoPhase::C)
                } else {
                    view.neighbor_states().any(|(_, s)| s.phase == EchoPhase::B)
                };
                can_b.then_some(ECHO_B)
            }
            EchoPhase::B => {
                // Feedback once every neighbor is engaged and every child
                // has echoed.
                let engaged = view.neighbor_states().all(|(_, s)| s.phase != EchoPhase::C);
                (engaged && self.children_all_f(view)).then_some(ECHO_F)
            }
            EchoPhase::F => {
                // Cleaning must wait until no neighbor broadcasts (the
                // analogue of the paper's BFree), otherwise a cleaned
                // processor deadlocks a still-broadcasting neighbor on
                // cyclic topologies.
                let can_c = if is_root {
                    view.neighbor_states().all(|(_, s)| s.phase == EchoPhase::C)
                } else {
                    view.neighbor_states().all(|(_, s)| s.phase != EchoPhase::B)
                };
                can_c.then_some(ECHO_C)
            }
        };
        action.into_iter().collect()
    }

    fn execute(&self, view: View<'_, EchoState>, action: ActionId) -> EchoState {
        let mut s = *view.me();
        match action {
            ECHO_B => {
                if view.pid() == self.root {
                    s.val = self.broadcast_val;
                } else {
                    let par = view
                        .neighbor_states()
                        .filter(|(_, st)| st.phase == EchoPhase::B)
                        .map(|(q, _)| q)
                        .min()
                        .expect("B-action requires a broadcasting neighbor");
                    s.par = par;
                    s.val = view.state(par).val;
                }
                s.phase = EchoPhase::B;
            }
            ECHO_F => s.phase = EchoPhase::F,
            ECHO_C => s.phase = EchoPhase::C,
            other => panic!("unknown echo action {other}"),
        }
        s
    }

    fn classify(&self, action: ActionId) -> PhaseTag {
        match action {
            ECHO_B => PhaseTag::Broadcast,
            ECHO_F => PhaseTag::Feedback,
            ECHO_C => PhaseTag::Cleaning,
            _ => PhaseTag::Other,
        }
    }

    fn action_spec(&self, action: ActionId) -> ActionSpec {
        // All three guards are disjoint on the own phase register, so the
        // whole protocol is a single priority class. No corrections exist
        // (echo is not fault-tolerant), so `locally_normal` stays at its
        // everywhere-true default.
        const READS_B: &[RegAccess] = &[
            RegAccess::own("phase"),
            RegAccess::neighbor("phase"),
            RegAccess::neighbor("val"),
        ];
        const READS_F: &[RegAccess] = &[
            RegAccess::own("phase"),
            RegAccess::neighbor("phase"),
            RegAccess::neighbor("par"),
        ];
        const READS_C: &[RegAccess] = &[RegAccess::own("phase"), RegAccess::neighbor("phase")];
        const WRITES_B: &[RegAccess] =
            &[RegAccess::own("phase"), RegAccess::own("par"), RegAccess::own("val")];
        const WRITES_PHASE: &[RegAccess] = &[RegAccess::own("phase")];
        let (reads, writes) = match action {
            ECHO_B => (READS_B, WRITES_B),
            ECHO_F => (READS_F, WRITES_PHASE),
            ECHO_C => (READS_C, WRITES_PHASE),
            other => panic!("unknown echo action {other}"),
        };
        ActionSpec {
            phase: self.classify(action),
            priority: 1,
            applicability: Applicability::Both,
            reads,
            writes,
        }
    }

    fn has_action_specs(&self) -> bool {
        true
    }

    fn register_names(&self) -> &'static [&'static str] {
        &["phase", "par", "val"]
    }
}

/// Sentinel broadcast value used by the [`FirstWave`] harness.
pub const SENTINEL: u64 = 0xEC40_0001;

/// The echo baseline as a [`FirstWave`] contestant.
#[derive(Clone, Copy, Debug, Default)]
pub struct EchoBaseline;

impl FirstWave for EchoBaseline {
    fn name(&self) -> &'static str {
        "echo (Chang-Segall)"
    }

    fn first_wave(
        &self,
        graph: &Graph,
        root: ProcId,
        seed: Option<u64>,
        limits: RunLimits,
    ) -> WaveVerdict {
        let protocol = EchoProtocol::new(root, SENTINEL);
        let init = match seed {
            None => EchoProtocol::clean_config(graph),
            Some(s) => EchoProtocol::random_config(graph, s),
        };
        let mut daemon: Box<dyn Daemon<EchoState>> =
            Box::new(pif_daemon::daemons::CentralRandom::new(seed.unwrap_or(0)));
        let sim = Simulator::new(graph.clone(), protocol, init);
        drive_first_wave(sim, daemon.as_mut(), limits, root, ECHO_B, ECHO_F, |s| s.val, SENTINEL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_graph::generators;

    #[test]
    fn echo_is_correct_from_clean_start() {
        for t in pif_graph::Topology::standard_suite() {
            let g = t.build().unwrap();
            let verdict =
                EchoBaseline.first_wave(&g, ProcId(0), None, RunLimits::default());
            assert!(verdict.holds(), "echo failed on {t:?}: {verdict:?}");
        }
    }

    #[test]
    fn echo_fails_from_some_corrupted_start() {
        let g = generators::ring(8).unwrap();
        let mut failures = 0;
        for seed in 0..50 {
            let verdict = EchoBaseline.first_wave(
                &g,
                ProcId(0),
                Some(seed),
                RunLimits::new(50_000, 10_000),
            );
            if !verdict.holds() {
                failures += 1;
            }
        }
        assert!(failures > 0, "echo should not survive arbitrary corruption");
    }

    #[test]
    fn echo_can_deadlock_from_corruption() {
        // A single stale B neighbor of the root blocks the root forever
        // (no correction actions exist).
        let g = generators::chain(3).unwrap();
        let protocol = EchoProtocol::new(ProcId(0), SENTINEL);
        let mut init = EchoProtocol::clean_config(&g);
        init[1] = EchoState { phase: EchoPhase::B, par: ProcId(2), val: 99 };
        let mut sim = Simulator::new(g, protocol, init);
        let mut d = pif_daemon::daemons::Synchronous::first_action();
        // p2 receives the stale broadcast; p1 echoes; p1 cannot clean
        // (par = p2 is F, fine it can)... run to fixpoint and observe the
        // root never initiated.
        let stats = sim
            .run(
                &mut d,
                &mut pif_daemon::NoOpObserver,
                pif_daemon::StopPolicy::Limits(RunLimits::new(10_000, 10_000)),
            )
            .unwrap();
        assert!(stats.terminal || stats.steps == 10_000);
        assert_eq!(sim.state(ProcId(0)).val, 0, "root never broadcast the sentinel");
    }

    #[test]
    fn echo_copies_values_along_the_tree() {
        let g = generators::star(6).unwrap();
        let verdict = EchoBaseline.first_wave(&g, ProcId(0), None, RunLimits::default());
        assert!(verdict.holds());
        assert!(verdict.missed.is_empty());
    }
}
