//! A lane: one initiator's PIF instance, pipelining back-to-back cycles.
//!
//! Each lane owns a full simulator replica (graph + protocol rooted at its
//! initiator + register states), a [`WaveOverlay`] carrying the payload,
//! and a [`MetricsObserver`] — the two observers are fanned out so every
//! step updates both in lockstep. The lane's job is the *pipelining*: the
//! next request is armed the moment the previous cycle's root `F-action`
//! is observed, **not** after the network globally returns to the normal
//! starting configuration. The root's own `C-action` then re-enables its
//! `B-action` while distant processors are still cleaning — exactly the
//! overlap the protocol's questioning mechanism is built to tolerate.
//!
//! Fault epochs: [`Lane::apply_fault`] corrupts `k` registers in place
//! (one [`pif_daemon::Simulator::corrupt_many`]-style batch) and bumps the
//! epoch counter.
//! The in-flight request's `initiated_epoch` is refreshed whenever the
//! overlay's broadcast marker changes — a corrupted wave that *restarts*
//! (fresh root `B-action`) rebroadcasts the same armed payload and counts
//! as initiated in the new epoch, which is precisely the wave the snap
//! claim covers.

use std::collections::VecDeque;
use std::fmt;

use pif_core::initial;
use pif_core::wave::WaveOverlay;
use pif_core::{PifProtocol, PifState};
use pif_daemon::{Daemon, Fanout, MetricsObserver, Observer, PhaseReport};
use pif_graph::{Graph, ProcId};
use pif_net::{NetSim, Transport};
use pif_soa::{Engine, EngineSim};

use crate::ledger::{RequestOutcome, RequestRecord, ShedCause};
use crate::request::{KindAggregate, Request, RequestId};
use crate::service::NetLaneConfig;
use crate::ServeError;

/// Ticks of the net transport one lane step may burn while waiting for
/// an execution before reporting a dry step (heartbeats and deliveries
/// keep flowing inside the burst; only executions advance the overlay).
const NET_BURST: u32 = 4096;

/// Consecutive dry net steps (zero executions in a whole burst) before a
/// lane declares the in-flight request stuck and times it out.
const NET_DRY_LIMIT: u64 = 64;

/// One lane's step engine: the shared-memory backends behind
/// [`EngineSim`], or the lossy message-passing transport. The lane code
/// is engine-agnostic — both variants expose the same states/observer
/// surface; the net variant replaces the daemon with the transport's own
/// seeded scheduler.
#[allow(clippy::large_enum_variant)] // mirrors EngineSim; one LaneSim per lane
pub(crate) enum LaneSim {
    /// Shared-memory engine (`AoS` or `SoA`), driven by the lane's daemon.
    Mem(EngineSim),
    /// Message-passing transport with its seeded internal scheduler.
    Net(Box<NetSim<PifProtocol>>),
}

impl LaneSim {
    fn graph(&self) -> &Graph {
        match self {
            LaneSim::Mem(s) => s.graph(),
            LaneSim::Net(s) => s.graph(),
        }
    }

    fn protocol(&self) -> &PifProtocol {
        match self {
            LaneSim::Mem(s) => s.protocol(),
            LaneSim::Net(s) => s.protocol(),
        }
    }

    fn states(&self) -> &[PifState] {
        match self {
            LaneSim::Mem(s) => s.states(),
            LaneSim::Net(s) => s.states(),
        }
    }

    /// Completed rounds. The net engine has no round notion (there is no
    /// global schedule to partition); it reports executions divided by
    /// the network size — a proxy on the same scale, documented in the
    /// report schema.
    fn rounds(&self) -> u64 {
        match self {
            LaneSim::Mem(s) => s.rounds(),
            LaneSim::Net(s) => s.executions() / s.graph().len() as u64,
        }
    }

    fn corrupt_many(&mut self, corruptions: &[(ProcId, PifState)]) {
        match self {
            LaneSim::Mem(s) => s.corrupt_many(corruptions),
            LaneSim::Net(s) => s.corrupt_many(corruptions),
        }
    }

    /// One lane step: exactly one observed execution on the mem engines;
    /// on the net engine, ticks (deliveries, heartbeats, rejections)
    /// until one execution lands or the burst budget is spent. Returns
    /// whether an execution was observed.
    fn step_observed(
        &mut self,
        daemon: &mut dyn Daemon<PifState>,
        observer: &mut dyn Observer<PifProtocol>,
    ) -> Result<bool, ServeError> {
        match self {
            LaneSim::Mem(s) => {
                s.step_observed(daemon, observer)?;
                Ok(true)
            }
            LaneSim::Net(s) => {
                for _ in 0..NET_BURST {
                    let outcome = s.tick_observed(observer);
                    if matches!(outcome, pif_net::TickOutcome::Executed { .. }) {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }
}

/// Bookkeeping for the request currently occupying the lane's wave.
#[derive(Clone, Debug)]
struct InFlight<M> {
    id: RequestId,
    payload: M,
    aggregate: crate::request::AggregateKind,
    /// Overlay step count at arming (turnaround baseline).
    armed_at: u64,
    /// Fault epoch of the wave's last root `B-action`.
    initiated_epoch: u32,
    /// Last observed broadcast marker (to detect wave (re)starts).
    broadcast_step: Option<u64>,
    /// Simulator round count at the last root `B-action`.
    rounds_at_broadcast: u64,
}

/// One initiator's serving state: simulator replica, overlay, metrics,
/// daemon, and the bounded request queue.
pub(crate) struct Lane<M> {
    initiator: ProcId,
    shard: usize,
    sim: LaneSim,
    overlay: WaveOverlay<M, KindAggregate>,
    metrics: MetricsObserver,
    daemon: Box<dyn Daemon<PifState> + Send>,
    queue: VecDeque<(RequestId, Request<M>)>,
    current: Option<InFlight<M>>,
    fault_epoch: u32,
    step_limit: u64,
    /// Consecutive dry net steps (see [`NET_DRY_LIMIT`]); always 0 on
    /// the mem engines.
    dry_steps: u64,
    /// Retired lanes never step again (their initiator left the
    /// topology); see [`Lane::retire`].
    retired: bool,
}

impl<M: Clone + PartialEq + fmt::Debug> Lane<M> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        graph: Graph,
        initiator: ProcId,
        shard: usize,
        contributions: Vec<i64>,
        daemon: Box<dyn Daemon<PifState> + Send>,
        step_limit: u64,
        engine: Engine,
        net: Option<(&NetLaneConfig, u64)>,
        init_states: Option<Vec<PifState>>,
    ) -> Result<Self, ServeError> {
        let n = graph.len();
        let protocol = PifProtocol::new(initiator, &graph);
        // Churn rebuilds carry the surviving replicas' registers over so
        // the new lane starts mid-stream (an *arbitrary* configuration —
        // exactly what snap-stabilization covers); fresh lanes start from
        // the normal starting configuration.
        let init = init_states.unwrap_or_else(|| initial::normal_starting(&graph));
        let metrics = MetricsObserver::for_protocol(&protocol, n);
        let sim = match net {
            None => LaneSim::Mem(
                EngineSim::builder(engine, graph, protocol).states(init).try_build()?,
            ),
            Some((cfg, lane_seed)) => LaneSim::Net(Box::new(
                NetSim::builder(graph, protocol)
                    .states(init)
                    .fault_plan(cfg.plan)
                    .capacity(cfg.capacity)
                    .heartbeat_every(cfg.heartbeat_every)
                    .delivery_bias(cfg.delivery_bias)
                    .seed(lane_seed)
                    .build()?,
            )),
        };
        Ok(Lane {
            initiator,
            shard,
            sim,
            overlay: WaveOverlay::new(n, initiator, KindAggregate::new(contributions)),
            metrics,
            daemon,
            queue: VecDeque::new(),
            current: None,
            fault_epoch: 0,
            step_limit,
            dry_steps: 0,
            retired: false,
        })
    }

    pub(crate) fn initiator(&self) -> ProcId {
        self.initiator
    }

    /// The lane replica's current register states, indexed by processor.
    pub(crate) fn states(&self) -> &[PifState] {
        self.sim.states()
    }

    /// The lane's current fault epoch (corruption campaigns applied).
    pub(crate) fn fault_epoch(&self) -> u32 {
        self.fault_epoch
    }

    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn enqueue(&mut self, id: RequestId, req: Request<M>) {
        self.queue.push_back((id, req));
    }

    pub(crate) fn pop_oldest(&mut self) -> Option<(RequestId, Request<M>)> {
        self.queue.pop_front()
    }

    /// A ledger record for a request evicted before ever being armed.
    pub(crate) fn shed_record(
        &self,
        id: RequestId,
        aggregate: crate::request::AggregateKind,
        cause: ShedCause,
        turnaround_steps: u64,
    ) -> RequestRecord {
        RequestRecord {
            id,
            initiator: self.initiator,
            shard: self.shard,
            aggregate,
            outcome: RequestOutcome::Shed { cause },
            initiated_epoch: self.fault_epoch,
            completed_epoch: self.fault_epoch,
            broadcast_steps: 0,
            feedback_steps: 0,
            cycle_steps: 0,
            cycle_rounds: 0,
            turnaround_steps,
            height: 0,
        }
    }

    /// Retires the lane: its initiator is leaving the topology. Every
    /// queued request — and the armed in-flight one, if any — is shed
    /// with [`ShedCause::Retired`] so churn losses stay distinguishable
    /// from fault casualties in the ledger. The lane never steps again.
    pub(crate) fn retire(&mut self) -> Vec<RequestRecord> {
        self.retired = true;
        let mut records = Vec::new();
        if let Some(cur) = self.current.take() {
            let waited = self.overlay.observed_steps().saturating_sub(cur.armed_at);
            records.push(self.shed_record(cur.id, cur.aggregate, ShedCause::Retired, waited));
        }
        while let Some((id, req)) = self.queue.pop_front() {
            records.push(self.shed_record(id, req.aggregate, ShedCause::Retired, 0));
        }
        records
    }

    /// Whether the lane still has work: a wave in flight or queued
    /// requests. Idle lanes are simply not stepped (the simulator keeps
    /// whatever cleaning-phase residue the last cycle left — the next
    /// cycle's wave is built to start from exactly such configurations).
    /// Retired lanes are never live.
    pub(crate) fn is_live(&self) -> bool {
        !self.retired && (self.current.is_some() || !self.queue.is_empty())
    }

    /// Deterministic per-phase metrics accumulated by this lane.
    pub(crate) fn phase_report(&self) -> PhaseReport {
        self.metrics.report()
    }

    /// Corrupts `k` uniformly chosen registers of this lane's replica in
    /// one batch (a transient fault), and opens a new fault epoch.
    pub(crate) fn apply_fault(&mut self, k: usize, seed: u64) {
        let corruptions: Vec<(ProcId, PifState)> = {
            let mut copy = self.sim.states().to_vec();
            initial::corrupt_registers(&mut copy, self.sim.graph(), self.sim.protocol(), k, seed);
            self.sim
                .graph()
                .procs()
                .filter(|p| copy[p.index()] != self.sim.states()[p.index()])
                .map(|p| (p, copy[p.index()]))
                .collect()
        };
        self.sim.corrupt_many(&corruptions);
        self.fault_epoch += 1;
    }

    /// Executes one computation step of this lane, arming the next queued
    /// request first if the lane is idle. Returns a record when the step
    /// closed a request (root `F-action` observed, or budget exhausted).
    pub(crate) fn tick(&mut self) -> Result<Option<RequestRecord>, ServeError> {
        if self.current.is_none() {
            let Some((id, req)) = self.queue.pop_front() else {
                return Ok(None);
            };
            self.dry_steps = 0;
            // Arm immediately — this is the pipelining: the previous
            // cycle's cleaning wave may still be draining through the
            // network, and the root will re-broadcast as soon as its own
            // registers are clean.
            self.overlay.aggregate_mut().set_kind(req.aggregate);
            self.overlay.arm(req.payload.clone());
            self.current = Some(InFlight {
                id,
                payload: req.payload,
                aggregate: req.aggregate,
                armed_at: self.overlay.observed_steps(),
                initiated_epoch: self.fault_epoch,
                broadcast_step: None,
                rounds_at_broadcast: 0,
            });
        }

        let mut fanout = Fanout::new(&mut self.overlay, &mut self.metrics);
        let progressed = self.sim.step_observed(&mut *self.daemon, &mut fanout)?;
        if progressed {
            self.dry_steps = 0;
        } else {
            self.dry_steps += 1;
        }

        let mut cur = self.current.take().expect("in-flight request");

        // A changed broadcast marker means the root (re-)executed its
        // B-action: the wave now in the network was initiated in the
        // current fault epoch (a post-fault restart rebroadcasts the same
        // armed payload — `arm` is not consumed by the B-action).
        if self.overlay.broadcast_step() != cur.broadcast_step {
            cur.broadcast_step = self.overlay.broadcast_step();
            if cur.broadcast_step.is_some() {
                cur.initiated_epoch = self.fault_epoch;
                cur.rounds_at_broadcast = self.sim.rounds();
            }
        }

        // Completion requires both markers: a feedback marker without a
        // broadcast marker is a corruption-induced spurious root F-action,
        // not a cycle (the real B-action will clear it).
        if let (Some(bstep), Some(fstep)) = (cur.broadcast_step, self.overlay.feedback_step()) {
            self.dry_steps = 0;
            return Ok(Some(self.complete(&cur, bstep, fstep)));
        }

        if self.overlay.observed_steps().saturating_sub(cur.armed_at) >= self.step_limit
            || self.dry_steps >= NET_DRY_LIMIT
        {
            self.dry_steps = 0;
            return Ok(Some(RequestRecord {
                id: cur.id,
                initiator: self.initiator,
                shard: self.shard,
                aggregate: cur.aggregate,
                outcome: RequestOutcome::TimedOut,
                initiated_epoch: cur.initiated_epoch,
                completed_epoch: self.fault_epoch,
                broadcast_steps: 0,
                feedback_steps: 0,
                cycle_steps: 0,
                cycle_rounds: 0,
                turnaround_steps: self.overlay.observed_steps().saturating_sub(cur.armed_at),
                height: 0,
            }));
        }

        self.current = Some(cur);
        Ok(None)
    }

    fn complete(&self, cur: &InFlight<M>, bstep: u64, fstep: u64) -> RequestRecord {
        let pif1 = self.overlay.all_received(&cur.payload);
        let pif2 = pif1 && self.overlay.all_acknowledged();
        let feedback = self.overlay.root_feedback().copied();
        let max_delivered = self
            .sim
            .graph()
            .procs()
            .filter_map(|p| self.overlay.delivered_step(p))
            .max()
            .unwrap_or(bstep);
        RequestRecord {
            id: cur.id,
            initiator: self.initiator,
            shard: self.shard,
            aggregate: cur.aggregate,
            outcome: RequestOutcome::Completed { pif1, pif2, feedback },
            initiated_epoch: cur.initiated_epoch,
            completed_epoch: self.fault_epoch,
            broadcast_steps: max_delivered.saturating_sub(bstep),
            feedback_steps: fstep.saturating_sub(max_delivered),
            cycle_steps: fstep.saturating_sub(bstep),
            cycle_rounds: self.sim.rounds().saturating_sub(cur.rounds_at_broadcast),
            turnaround_steps: self.overlay.observed_steps().saturating_sub(cur.armed_at),
            height: self.overlay.observed_height(self.sim.states()),
        }
    }
}

impl<M: fmt::Debug> fmt::Debug for Lane<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lane")
            .field("initiator", &self.initiator)
            .field("shard", &self.shard)
            .field("queued", &self.queue.len())
            .field("in_flight", &self.current.is_some())
            .field("fault_epoch", &self.fault_epoch)
            .finish_non_exhaustive()
    }
}
