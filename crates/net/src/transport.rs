//! The transport: a seeded event loop tying frames, links and register
//! sync together behind the [`Transport`] trait.
//!
//! [`NetSim`] is the message-passing analogue of `pif_daemon::Simulator`:
//! the same protocol, the same observer contract (sparse [`StepDelta`]s
//! carrying executed `(processor, action)` pairs and pre-step states),
//! but guards are judged on **register caches** and state flows over
//! faulty links as CRC-framed snapshots. One scheduler event is either
//! an action execution, a frame delivery (or checksum rejection), a
//! cadence heartbeat, or an idle skip — each drawn from one seeded
//! `SplitMix64` stream, so whole runs replay bit-identically.
//!
//! Construction goes through [`NetBuilder`], mirroring
//! `pif_daemon::SimBuilder`'s fluent pattern with typed [`NetError`]s
//! instead of panics.

use pif_daemon::bits::BitSet;
use pif_daemon::{
    splitmix64, ActionId, EnabledIndex, NoOpObserver, Observer, Protocol, StepDelta, View,
};
use pif_graph::{Graph, ProcId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::error::NetError;
use crate::frame::{decode_frame, encode_frame, FrameHeader, FrameKind, WireState};
use crate::link::{FaultPlan, FramePool, Link};
use crate::stats::{LinkStats, NetStats};
use crate::sync::RegisterSync;

/// What one scheduler event did — the typed replacement for the legacy
/// bool-ish `Effect::happened`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TickOutcome {
    /// A processor executed an action (judged on its caches).
    Executed {
        /// The executing processor.
        proc: ProcId,
        /// The action it took.
        action: ActionId,
    },
    /// A frame was delivered and applied to the receiver's cache.
    Delivered {
        /// The sending endpoint.
        from: ProcId,
        /// The receiving endpoint.
        to: ProcId,
    },
    /// A frame came off the link but the decoder rejected it (checksum
    /// or structure) — the CRC gate in action. Nothing was applied.
    Rejected {
        /// The sending endpoint.
        from: ProcId,
        /// The receiving endpoint.
        to: ProcId,
    },
    /// The cadence fired: a processor re-broadcast its unchanged state.
    Heartbeat {
        /// The broadcasting processor.
        proc: ProcId,
    },
    /// Nothing was possible (no enabled action, no frame in flight).
    Idle,
}

impl TickOutcome {
    /// Whether the event moved the system (execution or delivery).
    pub fn is_progress(self) -> bool {
        matches!(self, TickOutcome::Executed { .. } | TickOutcome::Delivered { .. })
    }
}

/// The engine-agnostic surface of a message-passing transport.
///
/// This is the typed replacement for the legacy `NetSimulator` API:
/// construction is fluent and fallible ([`NetBuilder`]), one event is
/// one [`TickOutcome`] (not a bool-ish effect), and observers receive
/// the exact [`StepDelta`] contract `pif_daemon::Simulator` emits, so
/// `MetricsObserver`, `WaveOverlay` and the trace layer work unchanged
/// over the network engine.
pub trait Transport<P: Protocol> {
    /// The network.
    fn graph(&self) -> &Graph;
    /// The true register configuration.
    fn states(&self) -> &[P::State];
    /// Aggregated run statistics (bit-identical under replay).
    fn stats(&self) -> NetStats;
    /// Counters of the directed link `from → to`, if it exists.
    fn link_stats(&self, from: ProcId, to: ProcId) -> Option<&LinkStats>;
    /// Scheduler events consumed so far (the virtual clock).
    fn events(&self) -> u64;
    /// Action executions so far.
    fn executions(&self) -> u64;
    /// Whether the system can never change again without new input: no
    /// enabled action, empty channels, caches consistent with the true
    /// configuration (heartbeats then merely re-deliver known states).
    fn is_settled(&self) -> bool;
    /// Applies one scheduler event.
    fn tick(&mut self) -> TickOutcome {
        self.tick_observed(&mut NoOpObserver)
    }
    /// Applies one scheduler event, notifying `observer` of executions.
    fn tick_observed(&mut self, observer: &mut dyn Observer<P>) -> TickOutcome;
    /// Overwrites every register cache through the wire format: each
    /// entry is re-derived from an encoded, CRC-checked frame carrying
    /// `f(owner, neighbor)`, and counted as a forged frame plus a cache
    /// corruption in the stats. Channels are not bypassed silently —
    /// this is the campaign entry point the fault plan's
    /// [`FaultPlan::scramble`] uses.
    fn scramble_caches_with(&mut self, f: &mut dyn FnMut(ProcId, ProcId) -> P::State);

    /// Ticks until settled or `budget` events, returning the stats.
    fn run(&mut self, budget: u64) -> NetStats {
        for _ in 0..budget {
            if self.is_settled() {
                break;
            }
            self.tick();
        }
        self.stats()
    }

    /// Ticks until `target` holds on the true configuration (checked
    /// before every event).
    ///
    /// # Errors
    ///
    /// [`NetError::BudgetExhausted`] if `budget` events pass first.
    fn run_until(
        &mut self,
        budget: u64,
        target: &mut dyn FnMut(&[P::State]) -> bool,
    ) -> Result<NetStats, NetError> {
        self.run_until_observed(budget, target, &mut NoOpObserver)
    }

    /// [`Transport::run_until`] with an observer attached.
    ///
    /// # Errors
    ///
    /// [`NetError::BudgetExhausted`] if `budget` events pass first.
    fn run_until_observed(
        &mut self,
        budget: u64,
        target: &mut dyn FnMut(&[P::State]) -> bool,
        observer: &mut dyn Observer<P>,
    ) -> Result<NetStats, NetError> {
        for _ in 0..budget {
            if target(self.states()) {
                return Ok(self.stats());
            }
            self.tick_observed(observer);
        }
        if target(self.states()) {
            return Ok(self.stats());
        }
        let s = self.stats();
        Err(NetError::BudgetExhausted { events: s.events, executions: s.executions })
    }
}

/// Fluent, fallible constructor for [`NetSim`] — the net engine's
/// mirror of `pif_daemon::SimBuilder`.
pub struct NetBuilder<P: Protocol>
where
    P::State: WireState,
{
    graph: Graph,
    protocol: P,
    states: Option<Vec<P::State>>,
    plan: FaultPlan,
    capacity: usize,
    heartbeat_every: u64,
    delivery_bias: f64,
    seed: u64,
}

impl<P: Protocol> NetBuilder<P>
where
    P::State: WireState,
{
    /// Starts a builder with the defaults: fault-free plan, capacity 64
    /// frames per link, heartbeat cadence 16, delivery bias 0.5, seed 0.
    pub fn new(graph: Graph, protocol: P) -> Self {
        NetBuilder {
            graph,
            protocol,
            states: None,
            plan: FaultPlan::fault_free(),
            capacity: 64,
            heartbeat_every: 16,
            delivery_bias: 0.5,
            seed: 0,
        }
    }

    /// Sets the initial configuration (required; one state per processor).
    #[must_use]
    pub fn states(mut self, states: Vec<P::State>) -> Self {
        self.states = Some(states);
        self
    }

    /// Builds the initial configuration from a per-processor closure.
    #[must_use]
    pub fn states_with(mut self, mut f: impl FnMut(ProcId) -> P::State) -> Self {
        self.states = Some(self.graph.procs().map(&mut f).collect());
        self
    }

    /// Sets the per-link fault plan (rates validated at build time).
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Sets the bounded channel capacity, in frames per directed link.
    #[must_use]
    pub fn capacity(mut self, frames: usize) -> Self {
        self.capacity = frames;
        self
    }

    /// Sets the heartbeat cadence: every `every`-th scheduler event is a
    /// heartbeat broadcast, rotating round-robin over processors, so
    /// each processor re-sends every `n · every` events. `0` disables
    /// heartbeats (the naive send-on-change transform — corrupted
    /// caches can then deadlock the system forever).
    #[must_use]
    pub fn heartbeat_every(mut self, every: u64) -> Self {
        self.heartbeat_every = every;
        self
    }

    /// Sets the probability of preferring a delivery over an execution
    /// when both are possible; must be in the open interval `(0, 1)`.
    /// Low values starve the caches (high asynchrony).
    #[must_use]
    pub fn delivery_bias(mut self, bias: f64) -> Self {
        self.delivery_bias = bias;
        self
    }

    /// Seeds the scheduler and every per-link fault stream.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the configuration and builds the transport.
    ///
    /// # Errors
    ///
    /// [`NetError::RateOutOfRange`] for a fault rate outside `[0, 1)`,
    /// [`NetError::BiasOutOfRange`] for a delivery bias outside `(0, 1)`,
    /// [`NetError::ZeroCapacity`] for zero-frame channels,
    /// [`NetError::MissingStates`] / [`NetError::StateCountMismatch`]
    /// when the initial configuration is absent or the wrong size.
    pub fn build(self) -> Result<NetSim<P>, NetError> {
        self.plan.validate()?;
        if !(self.delivery_bias > 0.0 && self.delivery_bias < 1.0) {
            return Err(NetError::BiasOutOfRange { value: self.delivery_bias });
        }
        if self.capacity == 0 {
            return Err(NetError::ZeroCapacity);
        }
        let states = self.states.ok_or(NetError::MissingStates)?;
        if states.len() != self.graph.len() {
            return Err(NetError::StateCountMismatch {
                expected: self.graph.len(),
                got: states.len(),
            });
        }
        let graph = self.graph;
        let n = graph.len();
        let sync = RegisterSync::new(&graph, &states);
        let mut link_base = Vec::with_capacity(n + 1);
        link_base.push(0);
        for p in graph.procs() {
            link_base.push(link_base[p.index()] + graph.degree(p));
        }
        let m = link_base[n];
        // Flat link ids run in (receiver, slot) order, the order the
        // per-link fault streams have always been seeded in.
        let links: Vec<Link> = (0..m)
            .map(|l| Link::new(self.capacity, splitmix64(self.seed ^ (0x6C69 << 48) ^ l as u64)))
            .collect();
        let link_to = graph
            .procs()
            .flat_map(|p| std::iter::repeat_n(p, graph.degree(p)))
            .collect();
        let fanout = graph
            .procs()
            .flat_map(|p| {
                let (graph, link_base) = (&graph, &link_base);
                graph.neighbors(p).map(move |q| {
                    let slot =
                        graph.neighbor_slice(q).binary_search(&p).expect("p is q's neighbor");
                    link_base[q.index()] + slot
                })
            })
            .collect();
        let view = states.clone();
        let mut net = NetSim {
            graph,
            protocol: self.protocol,
            states,
            sync,
            links,
            link_base,
            link_to,
            fanout,
            plan: self.plan,
            heartbeat_every: self.heartbeat_every,
            delivery_bias: self.delivery_bias,
            rng: StdRng::seed_from_u64(splitmix64(self.seed ^ 0x7363_6865_6421)),
            seqs: vec![0u32; n],
            applied_seq: vec![None; m],
            events: 0,
            executions: 0,
            deliveries: 0,
            heartbeats: 0,
            cache_corruptions: 0,
            in_flight: 0,
            nonempty: BitSet::new(m),
            enabled: EnabledIndex::new(n, std::iter::empty()),
            pool: FramePool::default(),
            view,
            payload_scratch: Vec::new(),
            frame_scratch: Vec::new(),
            before_scratch: Vec::new(),
        };
        for p in net.graph.procs() {
            net.recompute_enabled(p);
        }
        if let Some(scramble_seed) = net.plan.scramble_seed {
            let mut srng = StdRng::seed_from_u64(splitmix64(scramble_seed ^ 0x5343_5241_4D42));
            net.scramble_caches_with(&mut |_, q| P::State::scrambled(&mut srng, q));
        }
        Ok(net)
    }
}

/// The message-passing engine: true registers, cached neighbor
/// registers, and CRC-framed state snapshots over seeded faulty links.
///
/// # Examples
///
/// Run the snap-stabilizing PIF over lossy message passing:
///
/// ```
/// use pif_core::{initial, Phase, PifProtocol};
/// use pif_graph::{generators, ProcId};
/// use pif_net::{FaultPlan, NetBuilder, Transport};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::ring(5)?;
/// let protocol = PifProtocol::new(ProcId(0), &g);
/// let mut net = NetBuilder::new(g.clone(), protocol)
///     .states(initial::normal_starting(&g))
///     .fault_plan(FaultPlan::fault_free().drop_rate(0.1).corrupt_rate(0.05))
///     .seed(7)
///     .build()?;
/// let stats = net.run_until(500_000, &mut |s| s[0].phase == Phase::F)?;
/// assert_eq!(stats.corrupt_applied, 0); // the CRC gate held
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct NetSim<P: Protocol>
where
    P::State: WireState,
{
    graph: Graph,
    protocol: P,
    states: Vec<P::State>,
    sync: RegisterSync<P::State>,
    /// `links[link_base[p] + k]` carries frames from `p`'s `k`-th
    /// neighbor *to* `p` (flat link ids in (receiver, slot) order).
    links: Vec<Link>,
    link_base: Vec<usize>,
    /// `link_to[l]`: the receiving processor of link `l`.
    link_to: Vec<ProcId>,
    /// `fanout[link_base[p] + k]`: the link carrying `p`'s frames to its
    /// `k`-th neighbor.
    fanout: Vec<usize>,
    plan: FaultPlan,
    heartbeat_every: u64,
    delivery_bias: f64,
    rng: StdRng,
    seqs: Vec<u32>,
    /// `applied_seq[l]`: sequence number of the last frame off link `l`
    /// that was applied to the receiver's cache — the per-link freshness
    /// gate. Reordered or duplicated old snapshots are rejected instead
    /// of regressing the cache, so each cache entry advances
    /// monotonically through the sender's actual history.
    applied_seq: Vec<Option<u32>>,
    events: u64,
    executions: u64,
    deliveries: u64,
    heartbeats: u64,
    cache_corruptions: u64,
    in_flight: u64,
    /// The links holding at least one frame, by flat link id; the
    /// delivery draw picks a rank among them.
    nonempty: BitSet,
    /// The processors whose cached view enables an action; the
    /// execution draw picks a rank among them, in ascending id order.
    enabled: EnabledIndex,
    pool: FramePool,
    /// The one view buffer every guard evaluation reads. Only the
    /// evaluated processor's closed neighborhood is current; see
    /// [`RegisterSync::local_view_into`].
    view: Vec<P::State>,
    // Scratch buffers reused across events (contents meaningless between
    // calls); the byte buffers are taken while in use to satisfy the
    // borrow checker.
    payload_scratch: Vec<u8>,
    frame_scratch: Vec<u8>,
    before_scratch: Vec<P::State>,
}

impl<P: Protocol> NetSim<P>
where
    P::State: WireState,
{
    /// Starts a fluent builder (same shape as `Simulator::builder`).
    pub fn builder(graph: Graph, protocol: P) -> NetBuilder<P> {
        NetBuilder::new(graph, protocol)
    }

    /// The protocol under execution.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The network.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The true register configuration.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Scheduler events consumed (the virtual clock; idle skips count).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Action executions so far.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Whether `p` currently believes some action is enabled (judged on
    /// its caches, maintained incrementally).
    pub fn enabled(&self, p: ProcId) -> bool {
        self.enabled.contains(p)
    }

    /// Events between two heartbeat re-broadcasts of the same processor
    /// (`n · cadence`) — the staleness bound the sync layer documents;
    /// `None` when heartbeats are disabled.
    pub fn resend_period(&self) -> Option<u64> {
        (self.heartbeat_every > 0).then(|| self.heartbeat_every * self.graph.len() as u64)
    }

    /// Overwrites the true registers of the listed processors in one
    /// batch — a transient register fault. No frames are sent (a fault
    /// is not a broadcast); neighbors' caches stay stale until the
    /// heartbeat cadence re-disseminates the truth.
    pub fn corrupt_many(&mut self, corruptions: &[(ProcId, P::State)]) {
        for (p, s) in corruptions {
            self.states[p.index()] = s.clone();
        }
        for &(p, _) in corruptions {
            self.recompute_enabled(p);
        }
    }

    /// Aggregated statistics (bit-identical under same-seed replay).
    pub fn stats(&self) -> NetStats {
        let mut stats = NetStats {
            events: self.events,
            executions: self.executions,
            deliveries: self.deliveries,
            heartbeats: self.heartbeats,
            cache_corruptions: self.cache_corruptions,
            in_flight: self.in_flight,
            staleness_max: self.sync.staleness_max(),
            refreshes: self.sync.refreshes(),
            ..NetStats::default()
        };
        for link in &self.links {
            stats.absorb_link(&link.stats);
        }
        stats
    }

    /// Counters of the directed link `from → to`, if those processors
    /// are neighbors.
    pub fn link_stats(&self, from: ProcId, to: ProcId) -> Option<&LinkStats> {
        let k = self.graph.neighbor_slice(to).binary_search(&from).ok()?;
        Some(&self.links[self.link_base[to.index()] + k].stats)
    }

    /// Fails (`down = true`) or recovers (`down = false`) the undirected
    /// link `{u, v}` — the topology-churn hook. Both directed channels
    /// drop every subsequent frame *before* any fault draw, so the
    /// seeded fault streams stay aligned and recovery replays
    /// bit-identically; failing also flushes whatever was in flight.
    /// Register caches are untouched: each endpoint keeps serving its
    /// last snapshot of the other until recovery plus heartbeats refresh
    /// it — link failure is just sustained staleness, which is exactly
    /// the adversity the sync layer already documents and bounds.
    ///
    /// Returns `false` (doing nothing) when `u` and `v` are not
    /// neighbors in the underlying graph.
    pub fn set_link_down(&mut self, u: ProcId, v: ProcId, down: bool) -> bool {
        if !self.graph.has_edge(u, v) {
            return false;
        }
        for (to, from) in [(u, v), (v, u)] {
            let k = self
                .graph
                .neighbor_slice(to)
                .binary_search(&from)
                .expect("has_edge checked");
            let l = self.link_base[to.index()] + k;
            let link = &mut self.links[l];
            let was_nonempty = !link.is_empty();
            let lost = link.set_down(down, &mut self.pool);
            self.in_flight -= lost as u64;
            if was_nonempty && link.is_empty() {
                self.nonempty.remove(l);
            }
        }
        true
    }

    /// Whether the undirected link `{u, v}` is currently failed; `None`
    /// when the processors are not neighbors.
    pub fn link_down(&self, u: ProcId, v: ProcId) -> Option<bool> {
        let k = self.graph.neighbor_slice(u).binary_search(&v).ok()?;
        Some(self.links[self.link_base[u.index()] + k].is_down())
    }

    /// Re-evaluates `p`'s guards on its cached view. Callers skip it when
    /// neither `p`'s own state nor any of its caches changed: guards are a
    /// pure function of that view, so the enabled status would not move.
    fn recompute_enabled(&mut self, p: ProcId) {
        self.sync.local_view_into(&self.graph, &self.states[p.index()], p, &mut self.view);
        let now = !self.protocol.enabled_actions(View::new(&self.graph, &self.view, p)).is_empty();
        if now != self.enabled.contains(p) {
            self.enabled.apply(&[(p, now)]);
        }
    }

    /// Encodes `p`'s current state once and offers the frame to every
    /// incident link (per-link faults apply independently).
    fn broadcast_state(&mut self, p: ProcId, kind: FrameKind) {
        let mut payload = std::mem::take(&mut self.payload_scratch);
        let mut frame = std::mem::take(&mut self.frame_scratch);
        payload.clear();
        self.states[p.index()].encode_wire(&mut payload);
        let seq = self.seqs[p.index()];
        self.seqs[p.index()] = seq.wrapping_add(1);
        let header = FrameHeader { kind, sender: p, seq };
        encode_frame(header, &payload, &mut frame).expect("register snapshots fit one frame");
        let base = self.link_base[p.index()];
        for &l in &self.fanout[base..base + self.graph.degree(p)] {
            let link = &mut self.links[l];
            let before = link.len();
            link.send(&frame, &self.plan, &mut self.pool);
            self.in_flight += (link.len() - before) as u64;
            if before == 0 && !link.is_empty() {
                self.nonempty.insert(l);
            }
        }
        self.payload_scratch = payload;
        self.frame_scratch = frame;
    }

    fn execute_one(&mut self, observer: &mut dyn Observer<P>) -> TickOutcome {
        // Pick the idx-th enabled processor in ascending id order.
        let idx = self.rng.random_range(0..self.enabled.len());
        let p = self.enabled.select(idx);
        self.sync.local_view_into(&self.graph, &self.states[p.index()], p, &mut self.view);
        let action = self
            .protocol
            .enabled_actions(View::new(&self.graph, &self.view, p))
            .first()
            .expect("enabled index implies an enabled action");
        let next = self.protocol.execute(View::new(&self.graph, &self.view, p), action);

        let old = self.states[p.index()].clone();
        let changed = next != old;
        let needs_before = observer.needs_full_before();
        if needs_before {
            self.before_scratch.clear();
            self.before_scratch.extend(self.states.iter().cloned());
        }
        self.states[p.index()] = next;
        let step_index = self.executions;
        self.executions += 1;
        let executed = [(p, action)];
        let old_states = [old];
        let delta = StepDelta::new(
            &executed,
            &old_states,
            needs_before.then_some(&self.before_scratch[..]),
            step_index,
            // The net engine measures time in events, not rounds; see
            // the module docs.
            false,
        );
        observer.step(&self.graph, &delta, &self.states);
        if changed {
            self.broadcast_state(p, FrameKind::StateUpdate);
            self.recompute_enabled(p);
        }
        TickOutcome::Executed { proc: p, action }
    }

    fn deliver_one(&mut self) -> TickOutcome {
        // Pick the idx-th nonempty link in flat (receiver, slot) order.
        let idx = self.rng.random_range(0..self.nonempty.count());
        let l = self.nonempty.select(idx);
        let p = self.link_to[l];
        let k = l - self.link_base[p.index()];
        let q = self.graph.neighbor_slice(p)[k];
        let frame = self.links[l].recv().expect("picked among nonempty links");
        self.in_flight -= 1;
        if self.links[l].is_empty() {
            self.nonempty.remove(l);
        }
        let decoded = decode_frame(&frame.bytes)
            .ok()
            .and_then(|(header, payload)| P::State::decode_wire(payload).map(|s| (header.seq, s)));
        let (corrupted, forged) = (frame.corrupted, frame.forged);
        self.pool.put(frame.bytes);
        match decoded {
            None => {
                // The checksum gate: the frame is dropped, loudly.
                self.links[l].stats.corrupt_rejected += 1;
                TickOutcome::Rejected { from: q, to: p }
            }
            Some((seq, state)) => {
                // The freshness gate: only apply a snapshot strictly
                // newer (in wrapping order) than the last applied one —
                // reordered and duplicated old frames must not regress
                // the cache.
                let fresh = match self.applied_seq[l] {
                    None => true,
                    Some(last) => {
                        let ahead = seq.wrapping_sub(last);
                        ahead != 0 && ahead < u32::MAX / 2
                    }
                };
                if !fresh {
                    self.links[l].stats.stale_rejected += 1;
                    return TickOutcome::Rejected { from: q, to: p };
                }
                self.applied_seq[l] = Some(seq);
                let link = &mut self.links[l];
                if corrupted {
                    // A damaged frame slipped past CRC32 — impossible
                    // for single-bit flips; the ledger would expose it.
                    link.stats.corrupt_applied += 1;
                } else {
                    link.stats.delivered += 1;
                }
                if forged {
                    self.cache_corruptions += 1;
                }
                let now = self.events;
                self.deliveries += 1;
                // A snapshot equal to the cached one (a heartbeat, or a
                // state the sender returned to) leaves p's view as it
                // was, so its enabled status cannot have changed.
                if self.sync.refresh(p, k, state, now) {
                    self.recompute_enabled(p);
                }
                TickOutcome::Delivered { from: q, to: p }
            }
        }
    }
}

impl<P: Protocol> Transport<P> for NetSim<P>
where
    P::State: WireState,
{
    fn graph(&self) -> &Graph {
        NetSim::graph(self)
    }

    fn states(&self) -> &[P::State] {
        NetSim::states(self)
    }

    fn stats(&self) -> NetStats {
        NetSim::stats(self)
    }

    fn link_stats(&self, from: ProcId, to: ProcId) -> Option<&LinkStats> {
        NetSim::link_stats(self, from, to)
    }

    fn events(&self) -> u64 {
        NetSim::events(self)
    }

    fn executions(&self) -> u64 {
        NetSim::executions(self)
    }

    fn is_settled(&self) -> bool {
        self.enabled.is_empty()
            && self.in_flight == 0
            && self.sync.consistent_with(&self.graph, &self.states)
    }

    fn tick_observed(&mut self, observer: &mut dyn Observer<P>) -> TickOutcome {
        let now = self.events;
        if self.heartbeat_every > 0 && now.is_multiple_of(self.heartbeat_every) {
            self.events = now + 1;
            let n = self.graph.len() as u64;
            let p = ProcId::from_index(((now / self.heartbeat_every) % n) as usize);
            self.heartbeats += 1;
            self.broadcast_state(p, FrameKind::Heartbeat);
            return TickOutcome::Heartbeat { proc: p };
        }
        if self.enabled.is_empty() && self.nonempty.is_empty() {
            // Nothing to do: skip the clock ahead to the next heartbeat
            // slot (idle gaps cost one tick, not `cadence` ticks).
            self.events = if self.heartbeat_every > 0 {
                now + (self.heartbeat_every - now % self.heartbeat_every)
            } else {
                now + 1
            };
            return TickOutcome::Idle;
        }
        self.events = now + 1;
        let deliver = !self.nonempty.is_empty()
            && (self.enabled.is_empty() || self.rng.random_bool(self.delivery_bias));
        if deliver {
            self.deliver_one()
        } else {
            self.execute_one(observer)
        }
    }

    fn scramble_caches_with(&mut self, f: &mut dyn FnMut(ProcId, ProcId) -> P::State) {
        let mut payload = std::mem::take(&mut self.payload_scratch);
        let mut frame = std::mem::take(&mut self.frame_scratch);
        let now = self.events;
        for p in 0..self.graph.len() {
            let p = ProcId::from_index(p);
            for k in 0..self.graph.degree(p) {
                let q = self.graph.neighbor_slice(p)[k];
                let state = f(p, q);
                payload.clear();
                state.encode_wire(&mut payload);
                let header = FrameHeader { kind: FrameKind::StateUpdate, sender: q, seq: u32::MAX };
                encode_frame(header, &payload, &mut frame)
                    .expect("register snapshots fit one frame");
                // The forgery rides the wire format end to end: it only
                // lands in the cache if the framed bytes decode.
                let link = &mut self.links[self.link_base[p.index()] + k];
                link.stats.forged += 1;
                match decode_frame(&frame)
                    .ok()
                    .and_then(|(_, body)| P::State::decode_wire(body))
                {
                    Some(decoded) => {
                        self.cache_corruptions += 1;
                        self.sync.refresh(p, k, decoded, now);
                    }
                    None => {
                        link.stats.corrupt_rejected += 1;
                    }
                }
            }
        }
        self.payload_scratch = payload;
        self.frame_scratch = frame;
        for p in self.graph.procs() {
            self.recompute_enabled(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_core::{initial, Phase, PifProtocol, PifState};
    use pif_daemon::daemons::Synchronous;
    use pif_daemon::{ActionSet, RunLimits, Simulator};
    use pif_graph::generators;

    fn pif_builder(n: usize) -> NetBuilder<PifProtocol> {
        let g = generators::ring(n).unwrap();
        let protocol = PifProtocol::new(ProcId(0), &g);
        let init = initial::normal_starting(&g);
        NetBuilder::new(g, protocol).states(init)
    }

    #[test]
    fn builder_rejects_bad_configuration() {
        let g = generators::ring(4).unwrap();
        let p = PifProtocol::new(ProcId(0), &g);
        assert_eq!(
            NetBuilder::new(g.clone(), p.clone()).build().err(),
            Some(NetError::MissingStates)
        );
        assert_eq!(
            NetBuilder::new(g.clone(), p.clone()).states(vec![]).build().err(),
            Some(NetError::StateCountMismatch { expected: 4, got: 0 })
        );
        assert_eq!(
            pif_builder(4).capacity(0).build().err(),
            Some(NetError::ZeroCapacity)
        );
        assert_eq!(
            pif_builder(4).delivery_bias(1.0).build().err(),
            Some(NetError::BiasOutOfRange { value: 1.0 })
        );
        assert_eq!(
            pif_builder(4).fault_plan(FaultPlan::fault_free().drop_rate(2.0)).build().err(),
            Some(NetError::RateOutOfRange { rate: "drop", value: 2.0 })
        );
    }

    #[test]
    fn failed_link_maps_onto_drop_channel_and_recovery_completes_the_wave() {
        let mut net = pif_builder(6).seed(11).build().unwrap();
        assert!(!net.set_link_down(ProcId(0), ProcId(3), true), "not adjacent on the ring");
        assert!(net.set_link_down(ProcId(1), ProcId(2), true));
        assert_eq!(net.link_down(ProcId(1), ProcId(2)), Some(true));
        assert_eq!(net.link_down(ProcId(2), ProcId(1)), Some(true));
        assert_eq!(net.link_down(ProcId(0), ProcId(3)), None);
        // Let traffic hit the failed link; the wave may or may not finish
        // on the redundant path, but every frame offered to {1,2} must be
        // charged to the churn counter (and to `dropped`), not applied.
        let _ = net.run_until(50_000, &mut |s: &[PifState]| s[0].phase == Phase::F);
        let mid = net.stats();
        assert!(mid.down_lost > 0, "ring traffic must have crossed the failed link");
        assert!(mid.dropped >= mid.down_lost);
        // Recover: the seeded fault stream was never consulted while the
        // link was down, so the remainder of the run is the same as if
        // the dropped frames had simply been lost to the drop channel.
        assert!(net.set_link_down(ProcId(1), ProcId(2), false));
        assert_eq!(net.link_down(ProcId(1), ProcId(2)), Some(false));
        net.run_until(2_000_000, &mut |s: &[PifState]| s[0].phase == Phase::F)
            .expect("wave completes after link recovery");
        let end = net.stats();
        assert_eq!(end.corrupt_applied, 0);
        assert!(end.down_lost >= mid.down_lost);
    }

    #[test]
    fn failing_a_link_flushes_its_in_flight_frames() {
        let mut net = pif_builder(5).seed(3).delivery_bias(0.05).build().unwrap();
        // Run a while with deliveries de-prioritized so frames pile up.
        let _ = net.run_until(2_000, &mut |_: &[PifState]| false);
        let before = net.stats();
        assert!(before.in_flight > 0, "need queued frames for the flush to matter");
        for (u, v) in [(ProcId(0), ProcId(1)), (ProcId(1), ProcId(2))] {
            net.set_link_down(u, v, true);
        }
        let after = net.stats();
        assert!(after.in_flight <= before.in_flight);
        assert_eq!(
            before.in_flight - after.in_flight,
            after.down_lost,
            "every flushed frame is charged to down_lost"
        );
        // The transport's internal queue accounting survived the flush:
        // ticking further must not underflow or wedge.
        let _ = net.run_until(10_000, &mut |_: &[PifState]| false);
    }

    #[test]
    fn fault_free_wave_completes_and_cleans() {
        for seed in 0..5 {
            let mut net = pif_builder(6).seed(seed).build().unwrap();
            net.run_until(500_000, &mut |s: &[PifState]| s[0].phase == Phase::F)
                .expect("EF reached");
            net.run_until(500_000, &mut |s: &[PifState]| {
                s.iter().all(|st| st.phase == Phase::C)
            })
            .expect("cleaned");
            let stats = net.stats();
            assert_eq!(stats.dropped + stats.corrupted + stats.duplicated, 0);
            assert_eq!(stats.corrupt_applied, 0);
        }
    }

    #[test]
    fn lossy_wave_still_completes_with_zero_corrupt_applied() {
        let plan = FaultPlan::fault_free()
            .drop_rate(0.2)
            .duplicate_rate(0.1)
            .reorder_rate(0.3)
            .corrupt_rate(0.05);
        for seed in 0..5 {
            let mut net = pif_builder(6).fault_plan(plan).seed(seed).build().unwrap();
            let stats = net
                .run_until(2_000_000, &mut |s: &[PifState]| s[0].phase == Phase::F)
                .expect("wave must survive the lossy plan");
            assert!(stats.dropped > 0 && stats.corrupted > 0, "plan did nothing: {stats:?}");
            assert_eq!(stats.corrupt_applied, 0, "CRC gate failed");
            assert!(
                stats.corrupt_rejected + stats.in_flight >= stats.corrupted,
                "every damaged frame is rejected or still queued: {stats:?}"
            );
        }
    }

    #[test]
    fn replay_is_bit_identical() {
        let plan = FaultPlan::fault_free().drop_rate(0.15).duplicate_rate(0.1).corrupt_rate(0.1);
        let run = |seed: u64| {
            let mut net = pif_builder(7).fault_plan(plan).seed(seed).build().unwrap();
            for _ in 0..60_000 {
                net.tick();
            }
            (net.stats(), net.states().to_vec())
        };
        let (s1, c1) = run(13);
        let (s2, c2) = run(13);
        assert_eq!(s1, s2, "same seed must replay bit-identically");
        assert_eq!(c1, c2);
        let (s3, _) = run(14);
        assert_ne!(s1, s3, "different seeds should diverge");
    }

    #[test]
    fn heartbeat_cadence_is_deterministic_round_robin() {
        let mut net = pif_builder(4).heartbeat_every(8).build().unwrap();
        let mut beats = Vec::new();
        for _ in 0..40 {
            if let TickOutcome::Heartbeat { proc } = net.tick() {
                beats.push((net.events() - 1, proc));
            }
        }
        assert!(!beats.is_empty());
        for (event, proc) in beats {
            assert_eq!(event % 8, 0);
            assert_eq!(proc.index() as u64, (event / 8) % 4);
        }
    }

    #[test]
    fn blocking_scramble_deadlocks_without_heartbeats_and_recovers_with() {
        // The canonical argument for heartbeats in the state-dissemination
        // transform, now expressed through the campaign API: every cache
        // claims the neighbor broadcasts with Fok set, which blocks every
        // guard; a silent system never repairs that.
        fn blocking(_: ProcId, q: ProcId) -> PifState {
            PifState { phase: Phase::B, par: q, level: 1, count: 1, fok: true }
        }
        let g = generators::chain(4).unwrap();
        let protocol = PifProtocol::new(ProcId(0), &g);
        let init = initial::normal_starting(&g);

        let mut silent = NetBuilder::new(g.clone(), protocol.clone())
            .states(init.clone())
            .heartbeat_every(0)
            .seed(9)
            .build()
            .unwrap();
        silent.scramble_caches_with(&mut blocking);
        let stats = silent.run(1_000_000);
        assert_eq!(stats.executions, 0, "nothing can ever execute");
        assert_eq!(silent.states()[0].phase, Phase::C, "the wave never starts");
        assert_eq!(stats.cache_corruptions, stats.forged_frames);

        let mut beating = NetBuilder::new(g, protocol)
            .states(init)
            .heartbeat_every(16)
            .seed(9)
            .build()
            .unwrap();
        beating.scramble_caches_with(&mut blocking);
        beating
            .run_until(1_000_000, &mut |s: &[PifState]| s[0].phase == Phase::F)
            .expect("heartbeat re-dissemination must repair the caches");
    }

    #[test]
    fn fault_plan_scramble_campaign_counts_in_stats() {
        let directed_links: usize = {
            let g = generators::ring(5).unwrap();
            g.procs().map(|p| g.degree(p)).sum()
        };
        let net = pif_builder(5)
            .fault_plan(FaultPlan::fault_free().scramble(77))
            .build()
            .unwrap();
        let stats = net.stats();
        assert_eq!(stats.forged_frames, directed_links as u64);
        assert_eq!(stats.cache_corruptions, directed_links as u64);
        // PIF recovers from the scrambled caches (heartbeats on).
        let mut net = net;
        net.run_until(2_000_000, &mut |s: &[PifState]| s[0].phase == Phase::F)
            .expect("recovery from a seeded scramble campaign");
    }

    /// Max-propagation toy protocol: adopt the largest neighbor value.
    /// Unlike PIF it terminates, with a schedule-independent fixpoint
    /// (everyone holds the global maximum) — the differential target.
    #[derive(Clone)]
    struct MaxProto;

    impl Protocol for MaxProto {
        type State = u64;
        fn action_names(&self) -> &'static [&'static str] {
            &["adopt"]
        }
        fn enabled_actions(&self, view: View<'_, u64>) -> ActionSet {
            let adopt = view.neighbor_states().any(|(_, &s)| s > *view.me());
            if adopt { ActionSet::of(ActionId(0)) } else { ActionSet::EMPTY }
        }
        fn execute(&self, view: View<'_, u64>, _: ActionId) -> u64 {
            view.neighbor_states().map(|(_, &s)| s).max().unwrap_or(0).max(*view.me())
        }
    }

    #[test]
    fn fault_free_run_settles_to_the_shared_memory_fixpoint() {
        let g = generators::torus(3, 3).unwrap();
        let init: Vec<u64> = (0..9u64).map(|i| splitmix64(i ^ 0xABCD)).collect();

        let mut shm = Simulator::new(g.clone(), MaxProto, init.clone());
        shm.run_to_fixpoint(&mut Synchronous::first_action(), RunLimits::default()).unwrap();

        let mut net = NetBuilder::new(g, MaxProto).states(init).seed(3).build().unwrap();
        let stats = net.run(1_000_000);
        assert!(net.is_settled(), "fault-free max-propagation must settle: {stats:?}");
        assert_eq!(net.states(), shm.states(), "terminal configurations must agree");
    }

    #[test]
    fn observer_sees_one_delta_per_execution() {
        struct Counter {
            steps: u64,
            last: Option<u64>,
        }
        impl Observer<PifProtocol> for Counter {
            fn step(
                &mut self,
                _: &Graph,
                delta: &StepDelta<'_, PifProtocol>,
                after: &[PifState],
            ) {
                assert_eq!(delta.executed().len(), 1);
                let (p, _, _old) = delta.iter().next().unwrap();
                assert!(p.index() < after.len());
                self.last = Some(delta.step());
                self.steps += 1;
            }
        }
        let mut net = pif_builder(5).seed(2).build().unwrap();
        let mut counter = Counter { steps: 0, last: None };
        for _ in 0..20_000 {
            net.tick_observed(&mut counter);
        }
        assert_eq!(counter.steps, net.executions());
        assert_eq!(counter.last, Some(net.executions() - 1));
    }

    #[test]
    fn corrupt_many_is_a_silent_register_fault() {
        let mut net = pif_builder(5).build().unwrap();
        let bad = PifState { phase: Phase::B, par: ProcId(2), level: 3, count: 1, fok: false };
        let before_in_flight = net.stats().in_flight;
        net.corrupt_many(&[(ProcId(2), bad)]);
        assert_eq!(net.states()[2], bad);
        assert_eq!(net.stats().in_flight, before_in_flight, "faults must not broadcast");
    }
}
