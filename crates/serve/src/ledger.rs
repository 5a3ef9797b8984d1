//! The delivery ledger: per-request \[PIF1\]/\[PIF2\] verdicts and the
//! operational snap-stabilization assertion.
//!
//! The ledger is what makes the service *honest*: every request gets a
//! record stating whether its cycle really delivered the payload
//! everywhere (\[PIF1\]), whether the root really collected every
//! acknowledgment (\[PIF2\]), which fault epoch its wave was initiated
//! in, and its per-phase latency in deterministic units (steps/rounds).
//!
//! **What the ledger claims under faults** (Definition 1, operationally):
//! every request whose wave was initiated after the last corruption
//! campaign — [`RequestRecord::initiated_epoch`] equal to the epoch at
//! completion — must satisfy \[PIF1\] ∧ \[PIF2\]. **What it does not
//! claim:** requests in flight *at* the fault may be lost or delivered
//! wrongly; the ledger counts them separately as casualties instead of
//! hiding them.

use pif_graph::ProcId;

use crate::record_log::RecordLog;
use crate::request::AggregateKind;
use crate::{RequestId, ServeError};

/// Why a shed request never ran.
///
/// Shedding is *admission control*, not a delivery failure — but the two
/// causes have different SLO meanings. A `Displaced` request lost a queue
/// slot to load; a `Retired` one lost its initiator to topology churn.
/// Keeping them distinguishable (instead of one opaque `Shed`) is what
/// lets availability denominators stay honest: neither is a fault
/// casualty, and neither is silently dropped from the ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedCause {
    /// Evicted from a full queue under [`crate::ShedPolicy::DropOldest`]
    /// (or rejected at submission under [`crate::ShedPolicy::Reject`]).
    Displaced,
    /// Its initiator's lane was retired (e.g. the processor left the
    /// topology mid-campaign) with the request still queued or armed.
    Retired,
}

impl ShedCause {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ShedCause::Displaced => "displaced",
            ShedCause::Retired => "retired",
        }
    }
}

/// Terminal status of one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The root's `F-action` closed the cycle; the verdicts say whether it
    /// was a *correct* cycle.
    Completed {
        /// Every processor's message register held the payload when the
        /// feedback reached the root.
        pif1: bool,
        /// \[PIF1\] plus: every non-root processor acknowledged.
        pif2: bool,
        /// The aggregated feedback the root collected.
        feedback: Option<i64>,
    },
    /// Never ran: evicted by admission control or lane retirement.
    Shed {
        /// What evicted it.
        cause: ShedCause,
    },
    /// The per-request step budget expired before the root's `F-action`.
    TimedOut,
}

/// The ledger entry of one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestRecord {
    /// Submission-order id.
    pub id: RequestId,
    /// The request's initiator (the root of its cycle).
    pub initiator: ProcId,
    /// Shard that served it.
    pub shard: usize,
    /// Requested fold.
    pub aggregate: AggregateKind,
    /// Terminal status and verdicts.
    pub outcome: RequestOutcome,
    /// Fault epoch (number of corruption campaigns applied to its lane) in
    /// which the wave's *last* root `B-action` executed. `0` = before any
    /// fault.
    pub initiated_epoch: u32,
    /// Fault epoch when the record was written. A record with
    /// `initiated_epoch < completed_epoch` was in flight when a fault hit.
    pub completed_epoch: u32,
    /// Steps from the root's `B-action` to the last processor's delivery
    /// (the broadcast phase).
    pub broadcast_steps: u64,
    /// Steps from the last delivery to the root's `F-action` (the feedback
    /// phase).
    pub feedback_steps: u64,
    /// Steps from the root's `B-action` to its `F-action` (the paper's PIF
    /// cycle).
    pub cycle_steps: u64,
    /// Rounds from the root's `B-action` to its `F-action`.
    pub cycle_rounds: u64,
    /// Steps from arming to completion — includes the pipelining wait for
    /// the root's own cleaning from the previous cycle.
    pub turnaround_steps: u64,
    /// Height of the broadcast tree the cycle constructed.
    pub height: u32,
}

impl RequestRecord {
    /// Whether the cycle satisfied the full PIF specification.
    pub fn is_correct(&self) -> bool {
        matches!(self.outcome, RequestOutcome::Completed { pif1: true, pif2: true, .. })
    }

    /// Whether the wave ran in a single fault epoch (no corruption hit it
    /// mid-flight).
    pub fn single_epoch(&self) -> bool {
        self.initiated_epoch == self.completed_epoch
    }

    /// Whether the operational snap claim covers this record: its wave was
    /// initiated after at least one fault and no later fault hit it.
    pub fn covered_by_snap_claim(&self) -> bool {
        self.initiated_epoch > 0
            && self.single_epoch()
            && !matches!(self.outcome, RequestOutcome::Shed { .. })
    }

    /// Whether a fault cost this request: it was in flight when a
    /// campaign hit (or starved past its budget *after* a fault) and did
    /// not complete correctly.
    ///
    /// Shed requests are never casualties — they were evicted by
    /// admission control or lane retirement before a wave ran for them
    /// (see [`ShedCause`]). A timeout in a ledger that never saw a fault
    /// (`completed_epoch == 0`) is starvation or a misconfigured step
    /// budget, not a fault casualty; it still fails
    /// [`LedgerSummary::is_clean`], just under the honest label.
    pub fn is_casualty(&self) -> bool {
        match self.outcome {
            RequestOutcome::Shed { .. } => false,
            RequestOutcome::TimedOut => self.completed_epoch > 0,
            RequestOutcome::Completed { .. } => !self.single_epoch() && !self.is_correct(),
        }
    }
}

/// Aggregated ledger verdicts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LedgerSummary {
    /// Records written (completed + shed + timed out).
    pub total: u64,
    /// Requests that completed with \[PIF1\] ∧ \[PIF2\].
    pub completed_ok: u64,
    /// Requests that completed but violated \[PIF1\] or \[PIF2\].
    pub completed_bad: u64,
    /// Requests evicted by the shed policy.
    pub shed: u64,
    /// Requests that exhausted their step budget.
    pub timed_out: u64,
    /// In-flight requests a fault cost (failed and spanning a fault, or
    /// timed out).
    pub casualties: u64,
    /// Requests covered by the snap claim (initiated after a fault, no
    /// fault mid-wave).
    pub post_fault_total: u64,
    /// Of those, the ones that completed correctly — the snap claim is
    /// `post_fault_ok == post_fault_total`.
    pub post_fault_ok: u64,
}

impl LedgerSummary {
    /// Whether every non-shed request completed correctly (the expectation
    /// for fault-free service).
    pub fn is_clean(&self) -> bool {
        self.completed_bad == 0 && self.timed_out == 0 && self.completed_ok + self.shed == self.total
    }

    /// The operational snap-stabilization claim over this ledger.
    pub fn snap_holds(&self) -> bool {
        self.post_fault_ok == self.post_fault_total
    }
}

/// Append-only request ledger for one service.
///
/// Records are stored packed, in about a quarter of their in-memory
/// size, and unpacked as they are read: the ledger is the one part of a
/// long-lived service that grows with the requests it serves.
#[derive(Clone, Debug, Default)]
pub struct DeliveryLedger {
    log: RecordLog,
}

impl DeliveryLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        DeliveryLedger::default()
    }

    /// Appends one record.
    pub fn push(&mut self, record: &RequestRecord) {
        self.log.push(record);
    }

    /// Appends every record of `other`, in order.
    pub(crate) fn append(&mut self, other: &DeliveryLedger) {
        self.log.append(&other.log);
    }

    /// All records, in completion order per shard (merged by shard order),
    /// unpacked one at a time.
    pub fn records(&self) -> impl Iterator<Item = RequestRecord> + '_ {
        self.log.iter()
    }

    /// Computes the aggregate verdicts.
    pub fn summary(&self) -> LedgerSummary {
        let mut s = LedgerSummary::default();
        for r in self.records() {
            s.total += 1;
            match &r.outcome {
                RequestOutcome::Completed { pif1: true, pif2: true, .. } => s.completed_ok += 1,
                RequestOutcome::Completed { .. } => s.completed_bad += 1,
                RequestOutcome::Shed { .. } => s.shed += 1,
                RequestOutcome::TimedOut => s.timed_out += 1,
            }
            if r.is_casualty() {
                s.casualties += 1;
            }
            if r.covered_by_snap_claim() {
                s.post_fault_total += 1;
                if r.is_correct() {
                    s.post_fault_ok += 1;
                }
            }
        }
        s
    }

    /// Counts shed records by cause, without touching the (report-stable)
    /// [`LedgerSummary`] field set.
    pub fn shed_by_cause(&self, cause: ShedCause) -> u64 {
        self.records().filter(|r| r.outcome == RequestOutcome::Shed { cause }).count() as u64
    }

    /// Asserts the operational snap-stabilization claim: every request
    /// initiated after the last fault (and not hit by a later one)
    /// completed correctly.
    ///
    /// # Errors
    ///
    /// [`ServeError::SnapViolation`] naming the first offending request.
    pub fn assert_snap(&self) -> Result<(), ServeError> {
        for r in self.records() {
            if r.covered_by_snap_claim() && !r.is_correct() {
                return Err(ServeError::SnapViolation { request: r.id, initiator: r.initiator });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, outcome: RequestOutcome, initiated: u32, completed: u32) -> RequestRecord {
        RequestRecord {
            id: RequestId(id),
            initiator: ProcId(0),
            shard: 0,
            aggregate: AggregateKind::Ack,
            outcome,
            initiated_epoch: initiated,
            completed_epoch: completed,
            broadcast_steps: 1,
            feedback_steps: 1,
            cycle_steps: 2,
            cycle_rounds: 2,
            turnaround_steps: 3,
            height: 1,
        }
    }

    fn ok() -> RequestOutcome {
        RequestOutcome::Completed { pif1: true, pif2: true, feedback: Some(4) }
    }

    fn bad() -> RequestOutcome {
        RequestOutcome::Completed { pif1: false, pif2: false, feedback: None }
    }

    #[test]
    fn clean_ledger_summary() {
        let mut l = DeliveryLedger::new();
        l.push(&record(0, ok(), 0, 0));
        l.push(&record(1, ok(), 0, 0));
        let s = l.summary();
        assert!(s.is_clean());
        assert!(s.snap_holds());
        assert_eq!(s.completed_ok, 2);
        assert_eq!(s.casualties, 0);
        assert!(l.assert_snap().is_ok());
    }

    #[test]
    fn in_flight_failure_is_a_casualty_not_a_snap_violation() {
        let mut l = DeliveryLedger::new();
        l.push(&record(0, bad(), 0, 1)); // in flight when the fault hit
        l.push(&record(1, ok(), 1, 1)); // initiated after the fault
        let s = l.summary();
        assert_eq!(s.casualties, 1);
        assert_eq!(s.post_fault_total, 1);
        assert_eq!(s.post_fault_ok, 1);
        assert!(s.snap_holds());
        assert!(l.assert_snap().is_ok());
        assert!(!s.is_clean(), "a failed completion is never clean");
    }

    #[test]
    fn post_fault_failure_violates_snap() {
        let mut l = DeliveryLedger::new();
        l.push(&record(0, bad(), 1, 1));
        assert!(!l.summary().snap_holds());
        assert!(matches!(
            l.assert_snap(),
            Err(ServeError::SnapViolation { request: RequestId(0), .. })
        ));
    }

    #[test]
    fn shed_records_do_not_break_cleanliness() {
        let mut l = DeliveryLedger::new();
        l.push(&record(0, ok(), 0, 0));
        l.push(&record(1, RequestOutcome::Shed { cause: ShedCause::Displaced }, 0, 0));
        l.push(&record(2, RequestOutcome::Shed { cause: ShedCause::Retired }, 0, 0));
        let s = l.summary();
        assert_eq!(s.shed, 2);
        assert_eq!(l.shed_by_cause(ShedCause::Displaced), 1);
        assert_eq!(l.shed_by_cause(ShedCause::Retired), 1);
        assert_eq!(s.casualties, 0, "shedding is admission control, not a fault");
        assert!(s.is_clean());
    }

    #[test]
    fn timeout_after_a_fault_counts_as_casualty() {
        let mut l = DeliveryLedger::new();
        l.push(&record(0, RequestOutcome::TimedOut, 0, 1));
        let s = l.summary();
        assert_eq!(s.timed_out, 1);
        assert_eq!(s.casualties, 1);
        assert!(!s.is_clean());
    }

    #[test]
    fn fault_free_timeout_is_starvation_not_a_casualty() {
        // No corruption campaign ever ran (both epochs 0): the timeout
        // still dirties the ledger, but it must not be booked against
        // faults — that would inflate every SLO denominator downstream.
        let mut l = DeliveryLedger::new();
        l.push(&record(0, RequestOutcome::TimedOut, 0, 0));
        let s = l.summary();
        assert_eq!(s.timed_out, 1);
        assert_eq!(s.casualties, 0);
        assert!(!s.is_clean());
    }
}
