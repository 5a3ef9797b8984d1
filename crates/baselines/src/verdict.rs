use pif_daemon::RunLimits;
use pif_graph::{Graph, ProcId};

/// The verdict for one protocol's first wave out of one initial
/// configuration — the unit of the delivery-contrast experiment (E5).
// Four independent observations of one wave: E5 reports each of the 16
// combinations on its own, so plain bools model the verdict exactly.
#[allow(clippy::struct_excessive_bools)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaveVerdict {
    /// Whether the root initiated a broadcast within the budget.
    pub initiated: bool,
    /// Whether the wave terminated (feedback reached the root) within the
    /// budget.
    pub completed: bool,
    /// \[PIF1\] — every processor received the broadcast value before the
    /// wave terminated.
    pub pif1: bool,
    /// \[PIF2\] — the root's termination was backed by acknowledgments from
    /// processors that actually held the broadcast value.
    pub pif2: bool,
    /// Processors that never received the broadcast value.
    pub missed: Vec<ProcId>,
    /// Rounds from start to wave termination (or budget).
    pub rounds: u64,
}

impl WaveVerdict {
    /// Whether the first wave satisfied the full PIF-cycle specification.
    pub fn holds(&self) -> bool {
        self.initiated && self.completed && self.pif1 && self.pif2
    }
}

/// Harness interface: a PIF-style protocol that can run its first wave
/// from a seeded arbitrary configuration and report the verdict.
///
/// `seed = None` requests the protocol's clean starting configuration;
/// `Some(s)` requests a uniformly fuzzed configuration over the protocol's
/// register domains.
pub trait FirstWave {
    /// Short display name for experiment tables.
    fn name(&self) -> &'static str;

    /// Runs the first wave from the described configuration under the
    /// protocol's reference daemon (a seeded random central daemon, the
    /// same for every implementation).
    fn first_wave(
        &self,
        graph: &Graph,
        root: ProcId,
        seed: Option<u64>,
        limits: RunLimits,
    ) -> WaveVerdict;
}

/// Shared first-wave driver used by the three baseline implementations:
/// runs `sim` until the root executes `broadcast_action`, then until it
/// executes `feedback_action`, and judges delivery by comparing every
/// processor's value register against `sentinel`.
#[allow(clippy::too_many_arguments)] // internal driver shared by three baselines
pub(crate) fn drive_first_wave<P>(
    mut sim: pif_daemon::Simulator<P>,
    daemon: &mut dyn pif_daemon::Daemon<P::State>,
    limits: RunLimits,
    root: ProcId,
    broadcast_action: pif_daemon::ActionId,
    feedback_action: pif_daemon::ActionId,
    val_of: impl Fn(&P::State) -> u64,
    sentinel: u64,
) -> WaveVerdict
where
    P: pif_daemon::Protocol,
{
    let mut initiated = false;
    let mut completed = false;
    let start_rounds = sim.rounds();
    loop {
        if sim.is_terminal()
            || sim.steps() >= limits.max_steps
            || sim.rounds() - start_rounds >= limits.max_rounds
        {
            break;
        }
        if sim.step(daemon).is_err() {
            break;
        }
        for &(p, a) in sim.last_executed() {
            if p == root && a == broadcast_action {
                initiated = true;
            }
            if p == root && a == feedback_action && initiated {
                completed = true;
            }
        }
        if completed {
            break;
        }
    }
    let missed: Vec<ProcId> = sim
        .graph()
        .procs()
        .filter(|&p| val_of(sim.state(p)) != sentinel)
        .collect();
    let pif1 = completed && missed.is_empty();
    WaveVerdict {
        initiated,
        completed,
        pif1,
        pif2: pif1,
        missed,
        rounds: sim.rounds() - start_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_holds_requires_all_conditions() {
        let mut v = WaveVerdict {
            initiated: true,
            completed: true,
            pif1: true,
            pif2: true,
            missed: vec![],
            rounds: 10,
        };
        assert!(v.holds());
        v.pif1 = false;
        assert!(!v.holds());
    }
}
