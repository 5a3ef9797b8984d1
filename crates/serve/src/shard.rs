//! A shard: a share-nothing worker owning a group of lanes.
//!
//! Each shard holds full topology replicas (one simulator per lane), its
//! own seeded RNG for interleaving, its own fault schedule, and its own
//! slice of the ledger. Shards never touch shared state while running, so
//! [`Shard::run`] is freely executable on any worker thread — outcomes
//! are a pure function of the shard's seed and its submitted requests,
//! bit-identical regardless of OS scheduling.

use std::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::lane::Lane;
use crate::ledger::{DeliveryLedger, ShedCause};
use crate::request::{Request, RequestId};
use crate::service::{FaultSpec, ShedPolicy};
use crate::ServeError;

/// Splitmix64 finalizer: the deterministic hash behind shard assignment
/// and per-lane seed derivation.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub(crate) struct Shard<M> {
    index: usize,
    lanes: Vec<Lane<M>>,
    rng: StdRng,
    /// Pending campaigns, sorted by descending trigger (popped from the
    /// end as the completion count crosses each threshold).
    pending_faults: Vec<FaultSpec>,
    completed: u64,
    records: DeliveryLedger,
    error: Option<ServeError>,
}

impl<M: Clone + PartialEq + fmt::Debug> Shard<M> {
    pub(crate) fn new(index: usize, lanes: Vec<Lane<M>>, seed: u64) -> Self {
        Shard {
            index,
            lanes,
            rng: StdRng::seed_from_u64(mix(seed ^ (index as u64).wrapping_mul(0x9E37))),
            pending_faults: Vec::new(),
            completed: 0,
            records: DeliveryLedger::new(),
            error: None,
        }
    }

    pub(crate) fn lanes(&self) -> &[Lane<M>] {
        &self.lanes
    }

    pub(crate) fn records(&self) -> &DeliveryLedger {
        &self.records
    }

    /// Moves the first error out of the shard (the service reports it).
    pub(crate) fn take_error(&mut self) -> Option<ServeError> {
        self.error.take()
    }

    /// Registers a corruption campaign firing once this shard's completed
    /// count reaches the spec's threshold.
    pub(crate) fn schedule_fault(&mut self, spec: FaultSpec) {
        self.pending_faults.push(spec);
        self.pending_faults.sort_by_key(|f| std::cmp::Reverse(f.after_completions));
    }

    /// Routes a request to lane `lane_idx`, applying the queue bound.
    ///
    /// Returns the shed initiator and capacity on rejection.
    pub(crate) fn submit(
        &mut self,
        lane_idx: usize,
        id: RequestId,
        req: Request<M>,
        capacity: usize,
        policy: ShedPolicy,
    ) -> Result<(), (pif_graph::ProcId, usize)> {
        let lane = &mut self.lanes[lane_idx];
        if lane.queue_len() >= capacity {
            match policy {
                ShedPolicy::Reject => return Err((lane.initiator(), capacity)),
                ShedPolicy::DropOldest => {
                    if let Some((old_id, old_req)) = lane.pop_oldest() {
                        let record = self.lanes[lane_idx].shed_record(
                            old_id,
                            old_req.aggregate,
                            ShedCause::Displaced,
                            0,
                        );
                        self.records.push(&record);
                    }
                }
            }
        }
        self.lanes[lane_idx].enqueue(id, req);
        Ok(())
    }

    /// Retires lane `lane_idx` (its initiator left the topology): all its
    /// queued and in-flight work is shed with [`ShedCause::Retired`] into
    /// this shard's ledger slice. Returns the number of requests shed.
    pub(crate) fn retire_lane(&mut self, lane_idx: usize) -> u64 {
        let records = self.lanes[lane_idx].retire();
        let shed = records.len() as u64;
        for record in &records {
            self.records.push(record);
        }
        shed
    }

    /// Drains every lane: repeatedly picks a uniformly random live lane
    /// and ticks it once, firing fault campaigns as completion thresholds
    /// are crossed. Terminates when no lane has queued or in-flight work.
    pub(crate) fn run(&mut self) {
        loop {
            self.fire_due_faults();
            let live = self.lanes.iter().filter(|l| l.is_live()).count();
            if live == 0 {
                return;
            }
            let pick = self.rng.random_range(0..live);
            let lane_idx = self
                .lanes
                .iter()
                .enumerate()
                .filter(|(_, l)| l.is_live())
                .nth(pick)
                .map(|(i, _)| i)
                .expect("live lane index");
            match self.lanes[lane_idx].tick() {
                Ok(Some(record)) => {
                    self.completed += 1;
                    self.records.push(&record);
                }
                Ok(None) => {}
                Err(e) => {
                    self.error = Some(e);
                    return;
                }
            }
        }
    }

    fn fire_due_faults(&mut self) {
        while let Some(spec) = self.pending_faults.last() {
            if spec.after_completions > self.completed {
                return;
            }
            let spec = self.pending_faults.pop().expect("pending fault");
            for (li, lane) in self.lanes.iter_mut().enumerate() {
                let seed = mix(spec.seed ^ ((self.index as u64) << 32 | li as u64));
                lane.apply_fault(spec.registers_per_lane, seed);
            }
        }
    }
}

impl<M: fmt::Debug> fmt::Debug for Shard<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shard")
            .field("index", &self.index)
            .field("lanes", &self.lanes)
            .field("completed", &self.completed)
            .finish_non_exhaustive()
    }
}
