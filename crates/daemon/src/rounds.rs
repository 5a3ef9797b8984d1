//! Round accounting per the Dolev-Israeli-Moran definition used by the paper.
//!
//! Given a computation `e`, the **first round** of `e` is the minimal prefix
//! `e'` containing the execution of one action — a protocol action *or the
//! disable action* — of every processor that is continuously enabled from the
//! first configuration of `e`. The second round is the first round of the
//! remaining suffix, and so on.
//!
//! [`RoundCounter`] tracks this online: at the start of each round it
//! snapshots the enabled processors; a processor leaves the pending set when
//! it executes an action or becomes disabled (the disable action). When the
//! pending set empties, the round is complete.
//!
//! The counter is fed *changes*, not full configurations: each step reports
//! the executed processors plus the processors whose enabled status flipped.
//! That keeps the per-step cost proportional to the step's footprint
//! (executed processors and their neighborhood) rather than the network
//! size; the only O(n)-ish work is an `n/64`-word bitset copy when a round
//! closes.

use pif_graph::ProcId;

use crate::bits::BitSet;

/// Online round counter for one simulation run. Create it with the initial
/// enabled set and feed it every computation step.
///
/// # Examples
///
/// ```
/// use pif_daemon::rounds::RoundCounter;
/// use pif_graph::ProcId;
///
/// // Processors 0 and 1 enabled initially.
/// let mut rc = RoundCounter::new([true, true, false].iter().copied());
/// assert_eq!(rc.completed(), 0);
/// // p0 executes; no enabled flag flips; p1 still pending: round not over.
/// let done = rc.observe_step([ProcId(0)].iter().copied(), std::iter::empty());
/// assert!(!done);
/// // p1 becomes disabled by a neighbor's move: disable action, round over.
/// let done = rc.observe_step([ProcId(0)].iter().copied(), [(ProcId(1), false)].iter().copied());
/// assert!(done);
/// assert_eq!(rc.completed(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct RoundCounter {
    /// Processors continuously enabled since the start of the current round
    /// that have not yet executed (or been disabled).
    pending: BitSet,
    /// Mirror of the currently enabled processors, maintained from the
    /// reported changes; seeds `pending` when a round closes.
    enabled: BitSet,
    completed: u64,
}

impl RoundCounter {
    /// Starts counting with the processors enabled in the initial
    /// configuration.
    pub fn new<I>(enabled: I) -> Self
    where
        I: IntoIterator<Item = bool>,
    {
        let flags: Vec<bool> = enabled.into_iter().collect();
        let mut rc = RoundCounter::none_enabled(flags.len());
        rc.restart(flags);
        rc
    }

    /// A counter over `n` processors, none of them enabled, for
    /// [`RoundCounter::restart`] to seed.
    pub(crate) fn none_enabled(n: usize) -> Self {
        RoundCounter { pending: BitSet::new(n), enabled: BitSet::new(n), completed: 0 }
    }

    /// Starts counting afresh, as [`RoundCounter::new`] would, from a new
    /// configuration's enabled flags (one per processor, as many as at
    /// construction), reusing this counter's storage: no allocation.
    pub(crate) fn restart<I>(&mut self, enabled: I)
    where
        I: IntoIterator<Item = bool>,
    {
        self.enabled.clear();
        for (i, en) in enabled.into_iter().enumerate() {
            if en {
                self.enabled.insert(i);
            }
        }
        self.pending.copy_from(&self.enabled);
        self.completed = 0;
    }

    /// Number of fully completed rounds so far.
    #[inline]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Processors still owed an action in the current round.
    pub fn pending(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.pending.iter().map(ProcId::from_index)
    }

    /// Records one computation step: `executed` lists the processors that
    /// executed a protocol action; `enabled_changes` lists every processor
    /// whose enabled status flipped this step, with its *new* status
    /// (`true` = became enabled, `false` = became disabled — the latter is
    /// the disable action). Unchanged processors must not be reported.
    /// Returns `true` when this step completed a round (with an empty
    /// network of pending processors, each step completes a round
    /// trivially).
    pub fn observe_step<E, C>(&mut self, executed: E, enabled_changes: C) -> bool
    where
        E: IntoIterator<Item = ProcId>,
        C: IntoIterator<Item = (ProcId, bool)>,
    {
        for p in executed {
            self.pending.remove(p.index());
        }
        for (p, en) in enabled_changes {
            if en {
                self.enabled.insert(p.index());
            } else {
                self.enabled.remove(p.index());
                // Disable action: the processor is no longer owed a move.
                self.pending.remove(p.index());
            }
        }
        if self.pending.count() == 0 {
            self.completed += 1;
            self.pending.copy_from(&self.enabled);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn changes(v: &[(u32, bool)]) -> Vec<(ProcId, bool)> {
        v.iter().map(|&(i, b)| (ProcId(i), b)).collect()
    }

    #[test]
    fn synchronous_execution_is_one_round_per_step() {
        // Everyone enabled, everyone executes each step, everyone stays
        // enabled (no flips to report).
        let mut rc = RoundCounter::new([true, true, true]);
        for step in 1..=5u64 {
            let done = rc.observe_step((0..3).map(ProcId), std::iter::empty());
            assert!(done);
            assert_eq!(rc.completed(), step);
        }
    }

    #[test]
    fn central_daemon_round_needs_every_pending_proc() {
        let mut rc = RoundCounter::new([true, true, true]);
        assert!(!rc.observe_step([ProcId(0)], std::iter::empty()));
        assert!(!rc.observe_step([ProcId(1)], std::iter::empty()));
        assert!(rc.observe_step([ProcId(2)], std::iter::empty()));
        assert_eq!(rc.completed(), 1);
    }

    #[test]
    fn disable_action_counts() {
        let mut rc = RoundCounter::new([true, true]);
        // p0 executes, and its move disables both: all accounted, round done.
        assert!(rc.observe_step([ProcId(0)], changes(&[(0, false), (1, false)])));
        assert_eq!(rc.completed(), 1);
    }

    #[test]
    fn newly_enabled_mid_round_not_owed() {
        // p2 becomes enabled mid-round; the round only waits for p0 and p1.
        let mut rc = RoundCounter::new([true, true, false]);
        assert!(!rc.observe_step([ProcId(0)], changes(&[(2, true)])));
        assert!(rc.observe_step([ProcId(1)], std::iter::empty()));
        assert_eq!(rc.completed(), 1);
        // Next round owes all three.
        let pending: Vec<_> = rc.pending().collect();
        assert_eq!(pending.len(), 3);
    }

    #[test]
    fn terminal_configuration_rounds_are_trivial() {
        let mut rc = RoundCounter::new([false, false]);
        // No one pending: every observation closes a (vacuous) round.
        assert!(rc.observe_step(std::iter::empty(), std::iter::empty()));
        assert_eq!(rc.completed(), 1);
    }

    #[test]
    fn restart_equals_a_fresh_counter() {
        let mut rc = RoundCounter::new([true, true, false, true]);
        assert!(!rc.observe_step([ProcId(0)], changes(&[(2, true)])));
        assert!(rc.observe_step([ProcId(1), ProcId(3)], std::iter::empty()));
        rc.restart([false, true, true, false]);
        let fresh = RoundCounter::new([false, true, true, false]);
        assert_eq!(rc.completed(), 0);
        assert_eq!(rc.pending, fresh.pending);
        assert_eq!(rc.enabled, fresh.enabled);
        assert!(!rc.observe_step([ProcId(1)], std::iter::empty()));
        assert!(rc.observe_step([ProcId(2)], std::iter::empty()));
        assert_eq!(rc.completed(), 1);
    }

    #[test]
    fn re_enabled_processor_is_not_owed_until_next_round() {
        let mut rc = RoundCounter::new([true, true, true]);
        // p1 gets disabled (leaves pending via the disable action), then
        // re-enabled: the current round must not wait for it again, only
        // for p2.
        assert!(!rc.observe_step([ProcId(0)], changes(&[(1, false)])));
        assert!(!rc.observe_step([ProcId(0)], changes(&[(1, true)])));
        let pending: Vec<_> = rc.pending().collect();
        assert_eq!(pending, vec![ProcId(2)]);
        assert!(rc.observe_step([ProcId(2)], std::iter::empty()));
        assert_eq!(rc.completed(), 1);
    }
}
