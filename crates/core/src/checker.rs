//! The snap-stabilization checker.
//!
//! Definition 1 of the paper: a protocol is snap-stabilizing iff *every*
//! execution — from *every* initial configuration — satisfies the
//! specification. For the PIF scheme the specification is: whenever the
//! root broadcasts a message `m`, every processor receives `m` (\[PIF1\])
//! and the root receives an acknowledgment of the receipt from every
//! processor (\[PIF2\]).
//!
//! [`check_first_wave`] operationalizes that: start from an arbitrary (e.g.
//! fuzzed or adversarial) configuration, let the protocol run under any
//! daemon until the root *actually* initiates a wave carrying a known
//! value, and verify both conditions for that very first wave. Exhaustive
//! quantification is impossible; the experiment harness samples thousands
//! of configurations and daemons, and the contrast experiment (E5) shows
//! the self-stabilizing baseline failing the same test.

use pif_daemon::{Daemon, RunLimits, SimError};
use pif_graph::{Graph, ProcId};

use crate::protocol::PifProtocol;
use crate::state::PifState;
use crate::wave::{CycleOutcome, UnitAggregate, WaveRunner};

/// The verdict for one initial configuration.
#[derive(Clone, Debug)]
pub struct SnapReport {
    /// The first wave's outcome (message delivery, acknowledgments,
    /// timings). `initiated == false` means the root never broadcast
    /// within the budget — itself a liveness violation worth reporting.
    pub outcome: CycleOutcome<()>,
    /// Processors that did **not** hold the broadcast value at the end of
    /// the first cycle (witnesses of a \[PIF1\] violation).
    pub missed: Vec<ProcId>,
}

impl SnapReport {
    /// The report of one wave, naming the processors it missed.
    fn of(outcome: CycleOutcome<()>) -> Self {
        let missed = outcome
            .received
            .iter()
            .enumerate()
            .filter(|&(_, &r)| !r)
            .map(|(i, _)| ProcId::from_index(i))
            .collect();
        SnapReport { outcome, missed }
    }

    /// Whether the first wave satisfied the snap-stabilization contract.
    pub fn holds(&self) -> bool {
        self.outcome.satisfies_spec()
    }
}

/// Verifies the snap-stabilization contract for one initial configuration
/// under one daemon.
///
/// The checker broadcasts a sentinel value unknown to the (possibly
/// corrupted) initial overlay state, so any stale delivery is caught.
///
/// # Errors
///
/// Propagates daemon-contract violations from the simulator; budget
/// exhaustion is folded into the report (`initiated == false` or
/// incomplete outcome).
pub fn check_first_wave(
    graph: Graph,
    protocol: PifProtocol,
    initial: Vec<PifState>,
    daemon: &mut dyn Daemon<PifState>,
    limits: RunLimits,
) -> Result<SnapReport, SimError> {
    let mut runner = WaveRunner::with_states(graph, protocol, UnitAggregate, initial);
    let outcome = runner.run_cycle_limited(0xD15EA5Eu64, daemon, limits)?;
    Ok(SnapReport::of(outcome))
}

/// Verifies `cycles` consecutive waves from one initial configuration —
/// the full *PIF scheme* (Specification 1: an infinite sequence of PIF
/// cycles), truncated to a finite prefix.
///
/// # Errors
///
/// Propagates daemon-contract violations.
pub fn check_waves(
    graph: Graph,
    protocol: PifProtocol,
    initial: Vec<PifState>,
    daemon: &mut dyn Daemon<PifState>,
    limits: RunLimits,
    cycles: usize,
) -> Result<Vec<SnapReport>, SimError> {
    let mut runner = WaveRunner::with_states(graph, protocol, UnitAggregate, initial);
    let mut reports = Vec::with_capacity(cycles);
    for i in 0..cycles {
        let outcome = runner.run_cycle_limited(0xBEEF_0000u64 + i as u64, daemon, limits)?;
        reports.push(SnapReport::of(outcome));
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initial;
    use pif_daemon::daemons::{AdversarialLifo, CentralRandom, Synchronous};
    use pif_graph::generators;

    #[test]
    fn snap_holds_from_normal_start() {
        let g = generators::torus(3, 3).unwrap();
        let p = PifProtocol::new(ProcId(0), &g);
        let init = initial::normal_starting(&g);
        let report = check_first_wave(
            g,
            p,
            init,
            &mut Synchronous::first_action(),
            RunLimits::default(),
        )
        .unwrap();
        assert!(report.holds());
        assert!(report.missed.is_empty());
        assert!(
            report.outcome.rounds_to_broadcast <= 1,
            "root starts immediately (its B-action closes at most one round)"
        );
    }

    #[test]
    fn snap_holds_from_fuzzed_configurations() {
        let g = generators::random_connected(9, 0.25, 11).unwrap();
        let p = PifProtocol::new(ProcId(0), &g);
        for seed in 0..60 {
            let init = initial::random_config(&g, &p, seed);
            let report = check_first_wave(
                g.clone(),
                p.clone(),
                init,
                &mut CentralRandom::new(seed),
                RunLimits::default(),
            )
            .unwrap();
            assert!(report.holds(), "seed {seed}: {:?}", report.outcome);
        }
    }

    #[test]
    fn snap_holds_from_adversarial_configurations_under_adversarial_daemon() {
        let g = generators::lollipop(5, 5).unwrap();
        let p = PifProtocol::new(ProcId(0), &g);
        for seed in 0..20 {
            let fake_root = ProcId(1 + (seed as u32 % 9));
            let init = initial::adversarial_config(&g, &p, fake_root, seed);
            let mut daemon = AdversarialLifo::new(4 * g.len() as u64, seed);
            let report =
                check_first_wave(g.clone(), p.clone(), init, &mut daemon, RunLimits::default())
                    .unwrap();
            assert!(report.holds(), "seed {seed}: missed {:?}", report.missed);
        }
    }

    #[test]
    fn consecutive_waves_all_hold() {
        let g = generators::wheel(7).unwrap();
        let p = PifProtocol::new(ProcId(0), &g);
        let init = initial::random_config(&g, &p, 99);
        let reports = check_waves(
            g,
            p,
            init,
            &mut CentralRandom::new(5),
            RunLimits::default(),
            4,
        )
        .unwrap();
        assert_eq!(reports.len(), 4);
        for (i, r) in reports.iter().enumerate() {
            assert!(r.holds(), "cycle {i}");
        }
    }

    #[test]
    fn leaf_guard_ablation_breaks_snap() {
        // The grafted zombie chain: without the Leaf guard, p1 broadcasts
        // over the stale claim of p2, the level-consistent zombie chain is
        // counted, and the cycle completes while p2..p5 never received the
        // message.
        let g = generators::chain(6).unwrap();
        let p = PifProtocol::new(ProcId(0), &g).with_features(crate::Features {
            leaf_guard: false,
            ..crate::Features::default()
        });
        let init = initial::grafted_zombie_chain(&g, &p);
        // Schedule the root and then p1 before any zombie correction.
        let mut daemon = pif_daemon::daemons::FixedSchedule::new([
            vec![ProcId(0)],
            vec![ProcId(1)],
        ]);
        let report = check_first_wave(
            g.clone(),
            p,
            init.clone(),
            &mut daemon,
            RunLimits::new(200_000, 50_000),
        )
        .unwrap();
        assert!(
            !report.holds(),
            "expected a snap violation without the Leaf guard: {:?}",
            report.outcome
        );
        assert!(!report.missed.is_empty());

        // Control: the full algorithm survives the identical attack.
        let p_full = PifProtocol::new(ProcId(0), &g);
        let init = initial::grafted_zombie_chain(&g, &p_full);
        let mut daemon = pif_daemon::daemons::FixedSchedule::new([
            vec![ProcId(0)],
            vec![ProcId(1)],
        ]);
        let report =
            check_first_wave(g, p_full, init, &mut daemon, RunLimits::new(200_000, 50_000))
                .unwrap();
        assert!(report.holds(), "the paper's algorithm must survive: {:?}", report.missed);
    }
}
