//! Distributed reset on top of the snap-stabilizing PIF.
//!
//! Reset protocols are "the most general method to repair the system after
//! a transient fault" (paper, Related Work) and are themselves PIF-based.
//! Here the coordinator broadcasts an epoch-tagged reset command; each
//! processor adopts the new epoch and a fresh application state when the
//! command reaches it, and the feedback wave doubles as the collective
//! acknowledgment. Because the substrate is *snap*-stabilizing, the very
//! first reset issued after arbitrary corruption is guaranteed to reach
//! every processor and to be confirmed — no stabilization delay, which is
//! exactly the property reset protocols want.

use pif_core::wave::{UnitAggregate, WaveRunner};
use pif_core::{PifProtocol, PifState};
use pif_daemon::{Daemon, RunLimits, SimError};
use pif_graph::{Graph, ProcId};

/// The broadcast reset command.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResetCommand {
    /// Monotone epoch number of the reset.
    pub epoch: u64,
    /// The application state every processor must adopt.
    pub fresh_state: u32,
}

/// Outcome of one reset wave.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResetReport {
    /// The command that was distributed.
    pub command: ResetCommand,
    /// Whether every processor received and acknowledged the command.
    pub confirmed: bool,
    /// Rounds the reset wave took.
    pub rounds: u64,
    /// Application states after the reset (all equal to
    /// `command.fresh_state` when `confirmed`).
    pub app_states: Vec<u32>,
}

/// Error from a reset attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResetError {
    /// The underlying simulator reported an error.
    Sim(SimError),
}

impl std::fmt::Display for ResetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResetError::Sim(e) => write!(f, "reset simulation failed: {e}"),
        }
    }
}

impl std::error::Error for ResetError {}

impl From<SimError> for ResetError {
    fn from(e: SimError) -> Self {
        ResetError::Sim(e)
    }
}

/// The reset coordinator: owns the (simulated) application states of all
/// processors and issues reset waves.
///
/// # Examples
///
/// ```
/// use pif_apps::reset::ResetCoordinator;
/// use pif_daemon::daemons::Synchronous;
/// use pif_graph::{generators, ProcId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::ring(5)?;
/// // Application states are scrambled...
/// let mut coord = ResetCoordinator::new(g, ProcId(0), vec![9, 8, 7, 6, 5]);
/// // ...one reset wave later, everyone runs epoch 1 / state 0.
/// let report = coord.reset(0, &mut Synchronous::first_action())?;
/// assert!(report.confirmed);
/// assert!(report.app_states.iter().all(|&s| s == 0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ResetCoordinator {
    runner: WaveRunner<ResetCommand, UnitAggregate>,
    app_states: Vec<u32>,
    epoch: u64,
    limits: RunLimits,
}

impl ResetCoordinator {
    /// Creates the coordinator over the current (possibly corrupted)
    /// application states, with a clean protocol substrate.
    pub fn new(graph: Graph, root: ProcId, app_states: Vec<u32>) -> Self {
        assert_eq!(graph.len(), app_states.len(), "one application state per processor");
        let protocol = PifProtocol::new(root, &graph);
        let runner = WaveRunner::new(graph, protocol, UnitAggregate);
        ResetCoordinator { runner, app_states, epoch: 0, limits: RunLimits::default() }
    }

    /// Creates the coordinator with a corrupted *protocol* substrate too —
    /// the full transient-fault scenario the snap property addresses.
    pub fn with_protocol_states(
        graph: Graph,
        root: ProcId,
        app_states: Vec<u32>,
        states: Vec<PifState>,
    ) -> Self {
        assert_eq!(graph.len(), app_states.len(), "one application state per processor");
        let protocol = PifProtocol::new(root, &graph);
        let runner = WaveRunner::with_states(graph, protocol, UnitAggregate, states);
        ResetCoordinator { runner, app_states, epoch: 0, limits: RunLimits::default() }
    }

    /// Current application states.
    pub fn app_states(&self) -> &[u32] {
        &self.app_states
    }

    /// Issues one reset wave distributing `fresh_state`.
    ///
    /// # Errors
    ///
    /// [`ResetError`] if the simulation fails; an unconfirmed reset (wave
    /// incomplete within budget) is reported via
    /// [`ResetReport::confirmed`].
    pub fn reset(
        &mut self,
        fresh_state: u32,
        daemon: &mut dyn Daemon<PifState>,
    ) -> Result<ResetReport, ResetError> {
        self.epoch += 1;
        let command = ResetCommand { epoch: self.epoch, fresh_state };
        let outcome = self.runner.run_cycle_limited(command, daemon, self.limits)?;
        let confirmed = outcome.satisfies_spec();
        // Apply the command at every processor whose message register
        // received it (all of them, when confirmed).
        for (i, received) in outcome.received.iter().enumerate() {
            if *received {
                self.app_states[i] = fresh_state;
            }
        }
        Ok(ResetReport {
            command,
            confirmed,
            rounds: outcome.cycle_rounds,
            app_states: self.app_states.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_core::initial;
    use pif_daemon::daemons::{AdversarialLifo, Synchronous};
    use pif_graph::generators;

    #[test]
    fn reset_reaches_everyone() {
        let g = generators::grid(4, 4).unwrap();
        let scrambled: Vec<u32> = (0..16).map(|i| i * 7 + 1).collect();
        let mut coord = ResetCoordinator::new(g, ProcId(0), scrambled);
        let report = coord.reset(0, &mut Synchronous::first_action()).unwrap();
        assert!(report.confirmed);
        assert!(report.app_states.iter().all(|&s| s == 0));
        assert_eq!(report.command.epoch, 1);
    }

    #[test]
    fn consecutive_resets_bump_epochs() {
        let g = generators::star(6).unwrap();
        let mut coord = ResetCoordinator::new(g, ProcId(0), vec![1; 6]);
        let mut d = Synchronous::first_action();
        let r1 = coord.reset(10, &mut d).unwrap();
        let r2 = coord.reset(20, &mut d).unwrap();
        assert_eq!(r1.command.epoch, 1);
        assert_eq!(r2.command.epoch, 2);
        assert!(coord.app_states().iter().all(|&s| s == 20));
    }

    #[test]
    fn first_reset_after_total_corruption_is_confirmed() {
        // Both the application AND the protocol substrate are corrupted:
        // the snap property still confirms the very first reset wave.
        let g = generators::lollipop(4, 4).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g);
        for seed in 0..15 {
            let protocol_states = initial::adversarial_config(
                &g,
                &proto,
                ProcId(1 + (seed as u32 % 7)),
                seed,
            );
            let app_states: Vec<u32> = (0..8).map(|i| 1000 + i).collect();
            let mut coord = ResetCoordinator::with_protocol_states(
                g.clone(),
                ProcId(0),
                app_states,
                protocol_states,
            );
            let mut daemon = AdversarialLifo::new(4 * g.len() as u64, seed);
            let report = coord.reset(0, &mut daemon).unwrap();
            assert!(report.confirmed, "seed {seed}");
            assert!(report.app_states.iter().all(|&s| s == 0), "seed {seed}");
        }
    }
}
