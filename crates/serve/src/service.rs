//! The service: configuration, routing, backpressure, and the sharded run
//! loop.

use std::fmt;
use std::time::Instant;

use pif_core::{PifProtocol, PifState};
use pif_daemon::daemons::{CentralRandom, DistributedRandom, Synchronous};
use pif_daemon::{splitmix64, Daemon, PhaseReport, PhaseTag};
use pif_graph::{Graph, ProcId, Topology};
use pif_net::FaultPlan;
use pif_soa::Engine;

use crate::ledger::DeliveryLedger;
use crate::request::{Request, RequestId};
use crate::shard::Shard;
use crate::ServeError;

/// What to do when a per-initiator queue is full at submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Refuse the new request with [`ServeError::QueueFull`] — the
    /// caller's backpressure signal.
    #[default]
    Reject,
    /// Evict the oldest queued request (recorded in the ledger as
    /// [`crate::RequestOutcome::Shed`]) and accept the new one.
    DropOldest,
}

/// Daemon strategy each lane runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ServeDaemon {
    /// Every enabled processor steps every time (fastest drain; fully
    /// deterministic without a seed).
    #[default]
    Synchronous,
    /// One uniformly random enabled processor per step (seeded per lane).
    CentralRandom,
    /// Each enabled processor steps with probability ½ (seeded per lane).
    DistributedRandom,
}

impl ServeDaemon {
    /// Stable name used in reports.
    pub const fn name(self) -> &'static str {
        match self {
            ServeDaemon::Synchronous => "synchronous",
            ServeDaemon::CentralRandom => "central-random",
            ServeDaemon::DistributedRandom => "distributed-random",
        }
    }

    /// Parses a report/CLI daemon name.
    ///
    /// # Errors
    ///
    /// [`ServeError::Report`] on an unknown name.
    pub fn parse(name: &str) -> Result<Self, ServeError> {
        match name {
            "synchronous" => Ok(ServeDaemon::Synchronous),
            "central-random" => Ok(ServeDaemon::CentralRandom),
            "distributed-random" => Ok(ServeDaemon::DistributedRandom),
            other => Err(ServeError::Report(format!("unknown daemon {other:?}"))),
        }
    }

    fn build(self, seed: u64) -> Box<dyn Daemon<PifState> + Send> {
        match self {
            ServeDaemon::Synchronous => Box::new(Synchronous::first_action()),
            ServeDaemon::CentralRandom => Box::new(CentralRandom::new(seed)),
            ServeDaemon::DistributedRandom => Box::new(DistributedRandom::new(0.5, seed)),
        }
    }
}

/// A register-corruption campaign: once a shard's completed-request count
/// reaches `after_completions`, every lane of that shard gets
/// `registers_per_lane` uniformly chosen registers redrawn in one
/// [`pif_daemon::Simulator::corrupt_many`] batch.
///
/// Thresholds are **per shard** (each shard counts its own completions),
/// which keeps fault timing deterministic — a global trigger would depend
/// on cross-thread interleaving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Completed requests (in the shard) before the campaign fires.
    pub after_completions: u64,
    /// Registers corrupted in each lane's replica.
    pub registers_per_lane: usize,
    /// Seed for the corruption draw (mixed with shard and lane indices).
    pub seed: u64,
}

/// Configuration of the optional per-lane message-passing transport:
/// when set on [`ServeConfig::net_transport`], every lane runs its PIF
/// instance over a `pif_net::NetSim` (framed snapshots on seeded faulty
/// links) instead of a shared-memory engine. Lane seeds derive from the
/// service seed and the initiator, so runs stay bit-replayable.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetLaneConfig {
    /// Per-link fault rates (validated at lane construction).
    pub plan: FaultPlan,
    /// Bounded channel capacity, frames per directed link.
    pub capacity: usize,
    /// Heartbeat cadence in scheduler events (0 disables heartbeats).
    pub heartbeat_every: u64,
    /// Probability of preferring a delivery over an execution.
    pub delivery_bias: f64,
}

impl Default for NetLaneConfig {
    fn default() -> Self {
        NetLaneConfig {
            plan: FaultPlan::fault_free(),
            capacity: 64,
            heartbeat_every: 16,
            delivery_bias: 0.5,
        }
    }
}

/// Builder-style configuration of a [`WaveService`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Network family and size.
    pub topology: Topology,
    /// Processors allowed to initiate broadcasts (one lane each).
    pub initiators: Vec<ProcId>,
    /// Worker shards (initiators are hashed across them). At most one
    /// shard per initiator is built; reports record the value as set.
    pub shards: usize,
    /// Master seed: drives shard assignment, lane daemons, and shard
    /// interleaving.
    pub seed: u64,
    /// Per-initiator queue bound.
    pub queue_capacity: usize,
    /// Overload behavior at a full queue.
    pub shed_policy: ShedPolicy,
    /// Daemon strategy of every lane.
    pub daemon: ServeDaemon,
    /// Per-request step budget before the lane gives up
    /// ([`crate::RequestOutcome::TimedOut`]).
    pub step_limit: u64,
    /// Step backend every lane runs on (the engines are observably
    /// equivalent, so this changes throughput, never outcomes; defaults
    /// to [`Engine::default`]).
    pub engine: Engine,
    /// Optional message-passing transport: when set, lanes run over
    /// lossy links instead of the shared-memory `engine`.
    pub net: Option<NetLaneConfig>,
    /// Optional explicit network instance. [`Topology`] covers the named
    /// generator families only; churned topologies (arbitrary connected
    /// edge sets produced by `pif-chaos`'s `DynGraph`) are injected here
    /// and take precedence over `topology` at construction. `topology`
    /// is kept for reporting (it names the *base* family).
    pub graph: Option<Graph>,
    /// Optional per-initiator initial register states (length must equal
    /// the instantiated network size). Lanes without an entry start from
    /// the normal starting configuration. This is how churn rebuilds
    /// carry surviving replicas' registers across a topology change.
    pub lane_states: Option<Vec<(ProcId, Vec<PifState>)>>,
}

impl ServeConfig {
    /// A configuration with defaults: 1 shard, seed 0, queue capacity
    /// 1024, [`ShedPolicy::Reject`], [`ServeDaemon::Synchronous`], and a
    /// 100 000-step per-request budget.
    pub fn new(topology: Topology) -> Self {
        ServeConfig {
            topology,
            initiators: Vec::new(),
            shards: 1,
            seed: 0,
            queue_capacity: 1024,
            shed_policy: ShedPolicy::Reject,
            daemon: ServeDaemon::Synchronous,
            step_limit: 100_000,
            engine: Engine::default(),
            net: None,
            graph: None,
            lane_states: None,
        }
    }

    /// Sets the initiator set (one lane per entry).
    #[must_use]
    pub fn initiators(mut self, initiators: Vec<ProcId>) -> Self {
        self.initiators = initiators;
        self
    }

    /// Sets the shard count (clamped to ≥ 1).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-initiator queue bound (clamped to ≥ 1).
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the overload policy.
    #[must_use]
    pub fn shed_policy(mut self, policy: ShedPolicy) -> Self {
        self.shed_policy = policy;
        self
    }

    /// Sets the lane daemon strategy.
    #[must_use]
    pub fn daemon(mut self, daemon: ServeDaemon) -> Self {
        self.daemon = daemon;
        self
    }

    /// Sets the per-request step budget.
    #[must_use]
    pub fn step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit.max(1);
        self
    }

    /// Selects the step backend every lane runs on.
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Runs every lane over the message-passing transport (overrides the
    /// shared-memory `engine` choice).
    #[must_use]
    pub fn net_transport(mut self, net: NetLaneConfig) -> Self {
        self.net = Some(net);
        self
    }

    /// Serves an explicit (possibly churned) network instance instead of
    /// building one from `topology`.
    #[must_use]
    pub fn graph_override(mut self, graph: Graph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Seeds specific initiators' replicas with explicit register states
    /// (see [`ServeConfig::lane_states`]).
    #[must_use]
    pub fn lane_states(mut self, states: Vec<(ProcId, Vec<PifState>)>) -> Self {
        self.lane_states = Some(states);
        self
    }
}

/// The long-lived wave service: accepts a stream of broadcast requests and
/// serves them over sharded, pipelined per-initiator PIF instances.
///
/// See the [crate docs](crate) for the full model and an example.
pub struct WaveService<M> {
    config: ServeConfig,
    graph: Graph,
    shards: Vec<Shard<M>>,
    /// Initiator → (shard index, lane index within the shard).
    route: Vec<(ProcId, usize, usize)>,
    next_id: u64,
    run_seconds: f64,
}

impl<M: Clone + PartialEq + fmt::Debug + Send> WaveService<M> {
    /// Builds the service: instantiates the topology, validates the
    /// initiator set, and deterministically assigns each initiator to a
    /// shard (initiators ordered by `splitmix(seed ^ initiator)`, then
    /// dealt round-robin across shards — seeded, but balanced by
    /// construction).
    ///
    /// # Errors
    ///
    /// [`ServeError::NoInitiators`], [`ServeError::DuplicateInitiator`],
    /// [`ServeError::UnknownInitiator`] (initiator outside the network),
    /// [`ServeError::Graph`], or [`ServeError::NetworkTooLarge`] (more
    /// processors than the level register spans, judged before the
    /// topology is built) — all before any lane is built.
    ///
    /// # Panics
    ///
    /// Panics if an entry of [`ServeConfig::lane_states`] does not cover
    /// the whole network.
    pub fn new(config: ServeConfig) -> Result<Self, ServeError> {
        if config.initiators.is_empty() {
            return Err(ServeError::NoInitiators);
        }
        // A topology spec is size-checked on its processor count, before
        // its graph is built.
        let procs = match &config.graph {
            Some(g) => Some(g.len()),
            None => config.topology.processors(),
        };
        if let Some(procs) = procs {
            PifProtocol::check_size(procs)
                .map_err(|e| ServeError::NetworkTooLarge { procs: e.procs, max: e.max })?;
        }
        let graph = match &config.graph {
            Some(g) => g.clone(),
            None => config.topology.build()?,
        };
        let n = graph.len();
        if let Some(ls) = &config.lane_states {
            for (p, states) in ls {
                assert_eq!(
                    states.len(),
                    n,
                    "lane_states for {p:?} must cover the whole network"
                );
            }
        }
        let mut seen = vec![false; n];
        for &p in &config.initiators {
            if p.index() >= n {
                return Err(ServeError::UnknownInitiator { initiator: p });
            }
            if seen[p.index()] {
                return Err(ServeError::DuplicateInitiator { initiator: p });
            }
            seen[p.index()] = true;
        }
        // Every processor contributes `index + 1` to the feedback fold.
        let contributions: Vec<i64> = (0..n).map(|i| (i + 1) as i64).collect();

        // The deal below places initiator `pos` on shard `pos % shards`,
        // so shards past the initiator count would only ever stay empty:
        // they are not built.
        let shard_count = config.shards.clamp(1, config.initiators.len());
        // Seeded deterministic assignment, balanced by construction:
        // initiators are ordered by a splitmix key and dealt round-robin,
        // so no seed can collapse every lane onto one shard.
        let mut order: Vec<usize> = (0..config.initiators.len()).collect();
        order.sort_by_key(|&i| splitmix64(config.seed ^ u64::from(config.initiators[i].0)));
        let mut shard_of = vec![0usize; config.initiators.len()];
        for (pos, &i) in order.iter().enumerate() {
            shard_of[i] = pos % shard_count;
        }
        let mut lanes: Vec<Vec<crate::lane::Lane<M>>> =
            (0..shard_count).map(|_| Vec::new()).collect();
        let mut route = Vec::with_capacity(config.initiators.len());
        for (i, &p) in config.initiators.iter().enumerate() {
            let shard = shard_of[i];
            let daemon = config.daemon.build(splitmix64(config.seed ^ (u64::from(p.0) << 17)));
            let net = config
                .net
                .as_ref()
                .map(|cfg| (cfg, splitmix64(config.seed ^ (u64::from(p.0) << 29) ^ 0x6E65_7421)));
            let init = config
                .lane_states
                .as_ref()
                .and_then(|ls| ls.iter().find(|(q, _)| *q == p))
                .map(|(_, s)| s.clone());
            let lane = crate::lane::Lane::new(
                graph.clone(),
                p,
                shard,
                contributions.clone(),
                daemon,
                config.step_limit,
                config.engine,
                net,
                init,
            )?;
            route.push((p, shard, lanes[shard].len()));
            lanes[shard].push(lane);
        }
        let shards = lanes
            .into_iter()
            .enumerate()
            .map(|(i, ls)| Shard::new(i, ls, config.seed))
            .collect();
        Ok(WaveService { config, graph, shards, route, next_id: 0, run_seconds: 0.0 })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The instantiated network.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Requests submitted so far (accepted or shed; not rejected ones).
    pub fn submitted(&self) -> u64 {
        self.next_id
    }

    /// Wall-clock seconds spent inside [`WaveService::run`] so far.
    pub fn run_seconds(&self) -> f64 {
        self.run_seconds
    }

    /// Enqueues a request on its initiator's lane.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownInitiator`] for an unconfigured initiator;
    /// [`ServeError::QueueFull`] when the lane's queue is at capacity
    /// under [`ShedPolicy::Reject`].
    pub fn submit(&mut self, req: Request<M>) -> Result<RequestId, ServeError> {
        let &(_, shard, lane) = self
            .route
            .iter()
            .find(|&&(p, _, _)| p == req.initiator)
            .ok_or(ServeError::UnknownInitiator { initiator: req.initiator })?;
        let id = RequestId(self.next_id);
        self.shards[shard]
            .submit(lane, id, req, self.config.queue_capacity, self.config.shed_policy)
            .map_err(|(initiator, capacity)| ServeError::QueueFull { initiator, capacity })?;
        self.next_id += 1;
        Ok(id)
    }

    /// Registers a corruption campaign on every shard (per-shard
    /// completion thresholds; see [`FaultSpec`]).
    pub fn schedule_fault(&mut self, spec: FaultSpec) {
        for shard in &mut self.shards {
            shard.schedule_fault(spec);
        }
    }

    /// Drains every queue, each shard interleaving its live lanes under
    /// its seeded RNG. The calling thread is one of the workers: it runs
    /// the idle shards (firing their due campaigns) and the first busy
    /// shard, and every further busy shard runs concurrently on its own
    /// scoped thread ([`pif_par::fan_out`]). A call with one busy shard,
    /// such as a closed-loop request, spawns nothing. Outcomes are
    /// deterministic in the configuration seed — shards share nothing,
    /// so which thread runs a shard cannot change anything observable.
    ///
    /// # Errors
    ///
    /// The first [`ServeError::Sim`] any shard hit, if any.
    pub fn run(&mut self) -> Result<(), ServeError> {
        let start = Instant::now();
        for shard in self.shards.iter_mut().filter(|s| !s.is_busy()) {
            shard.run();
        }
        pif_par::fan_out(self.shards.iter_mut().filter(|s| s.is_busy()), Shard::run);
        self.run_seconds += start.elapsed().as_secs_f64();
        for shard in &mut self.shards {
            if let Some(e) = shard.take_error() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// The merged delivery ledger (records grouped by shard, in shard
    /// order; within a shard, completion order).
    pub fn ledger(&self) -> DeliveryLedger {
        let mut ledger = DeliveryLedger::new();
        for shard in &self.shards {
            ledger.append(shard.records());
        }
        ledger
    }

    /// Per-phase metrics summed over every lane (deterministic fields
    /// only; per-phase rounds cover each lane's completed rounds).
    pub fn phase_report(&self) -> PhaseReport {
        let mut total = PhaseReport::default();
        for shard in &self.shards {
            for lane in shard.lanes() {
                let r = lane.phase_report();
                for i in 0..PhaseTag::COUNT {
                    total.moves[i] += r.moves[i];
                    total.steps[i] += r.steps[i];
                    total.rounds[i] += r.rounds[i];
                }
                total.total_steps += r.total_steps;
                total.total_rounds += r.total_rounds;
                total.total_moves += r.total_moves;
                total.abnormal_procs += r.abnormal_procs;
            }
        }
        total
    }

    /// The shard index each configured initiator was assigned to.
    pub fn assignment(&self) -> Vec<(ProcId, usize)> {
        self.route.iter().map(|&(p, s, _)| (p, s)).collect()
    }

    /// Every live lane's current register states, keyed by initiator and
    /// in configuration order. This is the churn carry-over surface: a
    /// rebuild after a topology change feeds these (remapped to the new
    /// processor ids) back in via [`ServeConfig::lane_states`], so
    /// surviving replicas resume from their mid-stream configurations
    /// instead of a clean slate.
    pub fn lane_states(&self) -> Vec<(ProcId, Vec<PifState>)> {
        self.route
            .iter()
            .map(|&(p, s, l)| (p, self.shards[s].lanes()[l].states().to_vec()))
            .collect()
    }

    /// Retires an initiator's lane mid-campaign (its processor is leaving
    /// the topology): every queued and in-flight request on that lane is
    /// shed into the ledger with [`crate::ShedCause::Retired`], and the
    /// initiator stops routing (later [`WaveService::submit`] calls for
    /// it return [`ServeError::UnknownInitiator`]). Returns the number of
    /// requests shed.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownInitiator`] if `p` is not (or no longer) a
    /// configured initiator.
    pub fn retire_initiator(&mut self, p: ProcId) -> Result<u64, ServeError> {
        let pos = self
            .route
            .iter()
            .position(|&(q, _, _)| q == p)
            .ok_or(ServeError::UnknownInitiator { initiator: p })?;
        let (_, shard, lane) = self.route.remove(pos);
        Ok(self.shards[shard].retire_lane(lane))
    }
}

impl<M: fmt::Debug> fmt::Debug for WaveService<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WaveService")
            .field("shards", &self.shards)
            .field("submitted", &self.next_id)
            .finish_non_exhaustive()
    }
}

/// `k` initiators spread evenly over a network of `n` processors
/// (`⌊i·n/k⌋` for `i < k`, deduplicated) — the canonical initiator set of
/// the CLI and the benchmark experiment.
pub fn spread_initiators(n: usize, k: usize) -> Vec<ProcId> {
    let k = k.clamp(1, n.max(1));
    let mut out: Vec<ProcId> = Vec::with_capacity(k);
    for i in 0..k {
        let p = ProcId::from_index(i * n / k);
        if out.last() != Some(&p) {
            out.push(p);
        }
    }
    out
}

/// A fully deterministic serving scenario: configuration plus a canonical
/// workload (round-robin initiators, payload = request id, aggregate
/// kinds cycling through [`crate::AggregateKind::ALL`]) and an optional
/// fault campaign. The shared vocabulary of the `pif-serve` CLI, the E15
/// benchmark, and `pif-serve check` replay — a scenario reconstructed
/// from a recorded report re-runs to bit-identical deterministic fields.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Network family and size.
    pub topology: Topology,
    /// Lane roots.
    pub initiators: Vec<ProcId>,
    /// Worker shards.
    pub shards: usize,
    /// Master seed.
    pub seed: u64,
    /// Lane daemon strategy.
    pub daemon: ServeDaemon,
    /// Requests to submit.
    pub requests: u64,
    /// Optional corruption campaign
    /// `(after_completions, registers_per_lane, seed)`.
    pub fault: Option<(u64, usize, u64)>,
}

/// Runs a [`Scenario`] end to end and returns the served service (ledger
/// and metrics intact, ready for [`crate::ServiceReport::capture`]).
///
/// The queue capacity is sized to the full workload so nothing is shed —
/// scenario runs measure serving behavior, not admission control.
///
/// # Errors
///
/// Propagates service construction and run errors.
pub fn run_scenario(scenario: &Scenario) -> Result<WaveService<u64>, ServeError> {
    run_scenario_on(scenario, Engine::default())
}

/// [`run_scenario`] with an explicit step backend. Scenarios are
/// engine-agnostic (the engines produce identical executions, so recorded
/// envelopes replay on either); the engine is a run-time choice, not part
/// of the scenario.
///
/// # Errors
///
/// Propagates service construction and run errors.
pub fn run_scenario_on(
    scenario: &Scenario,
    engine: Engine,
) -> Result<WaveService<u64>, ServeError> {
    run_scenario_with(scenario, engine, None)
}

/// [`run_scenario`] over the message-passing transport: every lane runs
/// its PIF instance on a `pif_net::NetSim` configured by `net`, with
/// per-lane seeds derived from the scenario seed. The canonical workload
/// is unchanged, so mem and net runs of one scenario are directly
/// comparable in the ledger.
///
/// # Errors
///
/// Propagates service construction (including fault-plan validation) and
/// run errors.
pub fn run_scenario_net(
    scenario: &Scenario,
    net: NetLaneConfig,
) -> Result<WaveService<u64>, ServeError> {
    run_scenario_with(scenario, Engine::default(), Some(net))
}

fn run_scenario_with(
    scenario: &Scenario,
    engine: Engine,
    net: Option<NetLaneConfig>,
) -> Result<WaveService<u64>, ServeError> {
    let mut config = ServeConfig::new(scenario.topology.clone())
        .initiators(scenario.initiators.clone())
        .shards(scenario.shards)
        .seed(scenario.seed)
        .daemon(scenario.daemon)
        .engine(engine)
        .queue_capacity(scenario.requests.max(1) as usize);
    if let Some(n) = net {
        config = config.net_transport(n);
    }
    let mut service = WaveService::new(config)?;
    if let Some((after, k, seed)) = scenario.fault {
        service.schedule_fault(FaultSpec {
            after_completions: after,
            registers_per_lane: k,
            seed,
        });
    }
    let kinds = crate::AggregateKind::ALL;
    for i in 0..scenario.requests {
        let initiator = scenario.initiators[(i as usize) % scenario.initiators.len()];
        service.submit(Request::new(initiator, i, kinds[(i as usize) % kinds.len()]))?;
    }
    service.run()?;
    Ok(service)
}
