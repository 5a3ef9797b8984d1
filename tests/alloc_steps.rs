//! Steady-state allocation audit for the simulator hot loop.
//!
//! The perf contract of `Simulator::step_observed` is that, on the
//! `NoOpObserver` path, a step performs **zero heap allocation** once the
//! scratch buffers have warmed up: selection, old-state, dirty-marking and
//! round-accounting storage are all reused across steps. This test pins
//! that contract with a counting `#[global_allocator]` — it wraps
//! `std::alloc::System`, counts every `alloc`/`realloc`/`alloc_zeroed`,
//! and asserts the counter does not move across a long post-warmup run.
//!
//! Counting is gated on a thread-local flag, and the count is
//! thread-local too, so only allocations made by the thread driving the
//! simulator are charged — the libtest harness's main thread waits
//! alongside the test thread and occasionally allocates on its own
//! schedule, and tests running in parallel each count their own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pif_chaos::ScriptedAdversary;
use pif_core::{initial, PifProtocol, PifState};
use pif_daemon::daemons::{AdversarialLifo, CentralRandom};
use pif_daemon::fairness::FairnessAuditor;
use pif_daemon::{
    ActionId, ActionSet, Daemon, MetricsObserver, Protocol, RegisterStore, Simulator, View,
};
use pif_graph::{generators, ProcId, Topology};
use pif_net::{FaultPlan, NetBuilder, Transport};
use pif_serve::{
    spread_initiators, AggregateKind, NetLaneConfig, Request, ServeConfig, ServeDaemon,
    ServeError, WaveService,
};
use pif_soa::{Packed, SoaSimulator};

struct CountingAlloc;

std::thread_local! {
    // `const`-initialized so reading them never allocates (no lazy
    // init), which keeps the global allocator re-entrancy-safe.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_if_tracking() {
    // `try_with` tolerates allocator calls during thread teardown, after
    // the TLS slots are gone.
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

/// Allocations counted on this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_tracking();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_tracking();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_tracking();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Dijkstra's K-state token ring: the token circulates forever, so the
/// measured loop never reaches a terminal configuration (which would
/// legitimately allocate while re-seeding the bookkeeping). States are
/// `Copy`, so applying them moves no heap memory.
struct TokenRing {
    k: u32,
    n: usize,
}

impl TokenRing {
    fn predecessor(&self, p: ProcId) -> ProcId {
        ProcId::from_index((p.index() + self.n - 1) % self.n)
    }
}

impl Protocol for TokenRing {
    type State = u32;

    fn action_names(&self) -> &'static [&'static str] {
        &["advance"]
    }

    fn enabled_actions(&self, v: View<'_, u32>) -> ActionSet {
        let prev = *v.state(self.predecessor(v.pid()));
        let holds_token =
            if v.pid().index() == 0 { *v.me() == prev } else { *v.me() != prev };
        if holds_token { ActionSet::of(ActionId(0)) } else { ActionSet::EMPTY }
    }

    fn execute(&self, v: View<'_, u32>, _a: ActionId) -> u32 {
        let prev = *v.state(self.predecessor(v.pid()));
        if v.pid().index() == 0 {
            (*v.me() + 1) % self.k
        } else {
            prev
        }
    }
}

#[test]
fn steady_state_steps_do_not_allocate() {
    let n = 64;
    let g = generators::ring(n).unwrap();
    let protocol = TokenRing { k: n as u32 + 1, n };
    // A deliberately perturbed start: stabilization churns the enabled set
    // during warmup, growing every scratch buffer to its high-water mark.
    let init: Vec<u32> = (0..n as u32).map(|i| (i * 7) % (n as u32 + 1)).collect();
    let mut sim = Simulator::new(g, protocol, init);
    sim.set_validation(true); // the validation path must also be alloc-free
    let mut daemon = CentralRandom::new(0xA110C);

    for _ in 0..2_000 {
        let rep = sim.step(&mut daemon).unwrap();
        assert!(!rep.terminal, "token ring must never terminate");
    }

    let before = allocations();
    TRACKING.with(|t| t.set(true));
    for _ in 0..10_000 {
        sim.step(&mut daemon).unwrap();
    }
    TRACKING.with(|t| t.set(false));
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "simulator hot loop allocated {} time(s) across 10k steady-state steps",
        after - before
    );
    assert!(sim.rounds() > 0, "round accounting must still advance");
}

/// The allocations `build` makes on this thread; what it builds is
/// dropped uncounted.
fn allocations_of<T>(build: impl FnOnce() -> T) -> u64 {
    let before = allocations();
    TRACKING.with(|t| t.set(true));
    let built = build();
    TRACKING.with(|t| t.set(false));
    let after = allocations();
    drop(built);
    after - before
}

#[test]
fn construction_allocates_the_same_however_many_processors_are_enabled() {
    // Enabled actions are one set per processor, held inline: building a
    // simulator from a configuration with one enabled processor and from
    // one with hundreds costs the same allocations, on either store.
    let g = generators::torus(32, 32).unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g);
    // (enabled processors, generic-store allocations, SoA allocations)
    let build = |init: Vec<PifState>| {
        let (g1, p1, s1) = (g.clone(), protocol.clone(), init.clone());
        let mut enabled = 0;
        let aos = allocations_of(|| {
            let sim = Simulator::new(g1, p1, s1);
            enabled = sim.enabled_procs().len();
            sim
        });
        let (g2, p2) = (g.clone(), protocol.clone());
        let soa = allocations_of(|| SoaSimulator::with_store(g2, p2, Packed::new(init)));
        (enabled, aos, soa)
    };
    let quiet = build(initial::normal_starting(&g));
    let busy = build(initial::random_config(&g, &protocol, 0xB05));
    assert_eq!(quiet.0, 1, "the normal starting configuration enables only the root");
    assert!(busy.0 >= 100, "a random configuration enables hundreds: {}", busy.0);
    assert_eq!(busy.1, quiet.1, "generic store");
    assert_eq!(busy.2, quiet.2, "SoA store");
}

#[test]
fn fairness_auditing_steady_state_steps_do_not_allocate() {
    // The auditor re-evaluates every processor's guards against the
    // configuration the daemon chose from, each step; the sets it reads
    // are values, so auditing moves no heap memory.
    let g = generators::torus(8, 8).unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g);
    let init = initial::random_config(&g, &protocol, 0xFA1);
    let mut auditor = FairnessAuditor::new(protocol.clone());
    let mut sim = Simulator::new(g, protocol, init);
    let mut daemon = CentralRandom::new(0xFA1);

    for _ in 0..2_000 {
        let rep = sim.step_observed(&mut daemon, &mut auditor).unwrap();
        assert!(!rep.terminal, "PIF waves must keep cycling");
    }

    let before = allocations();
    TRACKING.with(|t| t.set(true));
    for _ in 0..10_000 {
        sim.step_observed(&mut daemon, &mut auditor).unwrap();
    }
    TRACKING.with(|t| t.set(false));
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "fairness-audited hot loop allocated {} time(s) across 10k steady-state steps",
        after - before
    );
    assert_eq!(auditor.steps(), 12_000);
    assert!(auditor.max_streak() > 0, "a central daemon starves someone for a step");
}

#[test]
fn steady_state_metrics_observation_does_not_allocate() {
    // Same contract with the phase-metrics observer attached: classifying
    // actions, bumping per-phase counters and per-processor correction
    // tallies must all run out of storage precomputed in
    // `MetricsObserver::for_protocol`.
    let n = 64;
    let g = generators::ring(n).unwrap();
    let protocol = TokenRing { k: n as u32 + 1, n };
    let mut metrics = MetricsObserver::for_protocol(&protocol, n);
    let init: Vec<u32> = (0..n as u32).map(|i| (i * 7) % (n as u32 + 1)).collect();
    let mut sim = Simulator::new(g, protocol, init);
    sim.set_validation(true);
    let mut daemon = CentralRandom::new(0xA110C);

    for _ in 0..2_000 {
        let rep = sim.step_observed(&mut daemon, &mut metrics).unwrap();
        assert!(!rep.terminal, "token ring must never terminate");
    }

    let before = allocations();
    TRACKING.with(|t| t.set(true));
    for _ in 0..10_000 {
        sim.step_observed(&mut daemon, &mut metrics).unwrap();
    }
    TRACKING.with(|t| t.set(false));
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "metrics-observed hot loop allocated {} time(s) across 10k steady-state steps",
        after - before
    );
    let report = metrics.report();
    assert_eq!(report.total_steps, 12_000);
    assert!(report.total_rounds > 0, "phase round accounting must advance");
}

/// A PIF simulator on a torus: waves cycle forever (the root re-broadcasts
/// after cleaning), so long measured loops never hit the terminal path,
/// which legitimately reallocates when callers re-seed the configuration.
fn soa_pif_sim(seed: u64) -> SoaSimulator {
    let g = generators::torus(8, 8).unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g);
    let init = initial::random_config(&g, &protocol, seed);
    SoaSimulator::with_store(g, protocol, Packed::new(init))
}

#[test]
fn soa_steady_state_steps_do_not_allocate() {
    // The SoA engine inherits the AoS zero-allocation contract on the
    // daemon-driven step path: snapshot, selection validation, execution,
    // dirty-set mask recompute and round accounting all reuse scratch.
    let mut sim = soa_pif_sim(0xA110C);
    sim.set_validation(true);
    let mut daemon = CentralRandom::new(0xA110C);

    for _ in 0..2_000 {
        let rep = sim.step(&mut daemon).unwrap();
        assert!(!rep.terminal, "PIF waves must keep cycling");
    }

    let before = allocations();
    TRACKING.with(|t| t.set(true));
    for _ in 0..10_000 {
        sim.step(&mut daemon).unwrap();
    }
    TRACKING.with(|t| t.set(false));
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "SoA step path allocated {} time(s) across 10k steady-state steps",
        after - before
    );
    assert!(sim.rounds() > 0, "round accounting must still advance");
}

#[test]
fn pif_steady_state_steps_do_not_allocate() {
    // The AoS engine running the paper's protocol, not the toy ring: a
    // non-root B-action picks its parent by scanning Pre_Potential in
    // place, so guard evaluation and execution move no heap memory.
    let g = generators::torus(8, 8).unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g);
    let init = initial::random_config(&g, &protocol, 0xA110C);
    let mut sim = Simulator::new(g, protocol, init);
    sim.set_validation(true);
    let mut daemon = CentralRandom::new(0xA110C);

    for _ in 0..2_000 {
        let rep = sim.step(&mut daemon).unwrap();
        assert!(!rep.terminal, "PIF waves must keep cycling");
    }

    let before = allocations();
    TRACKING.with(|t| t.set(true));
    for _ in 0..10_000 {
        sim.step(&mut daemon).unwrap();
    }
    TRACKING.with(|t| t.set(false));
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "PIF step path allocated {} time(s) across 10k steady-state steps",
        after - before
    );
    assert!(sim.rounds() > 0, "round accounting must still advance");
}

/// Warms `sim`'s synchronous fast path up, then asserts that 10,000 more
/// whole-network steps move no heap memory.
fn assert_sync_steps_do_not_allocate<S: RegisterStore<PifProtocol>>(
    sim: &mut Simulator<PifProtocol, S>,
    store: &str,
) {
    for _ in 0..2_000 {
        let rep = sim.step_sync();
        assert!(!rep.terminal, "PIF waves must keep cycling");
    }

    let before = allocations();
    TRACKING.with(|t| t.set(true));
    for _ in 0..10_000 {
        sim.step_sync();
    }
    TRACKING.with(|t| t.set(false));
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "{store} sync path allocated {} time(s) across 10k steady-state steps",
        after - before
    );
    assert!(sim.rounds() > 0, "round accounting must still advance");
}

#[test]
fn soa_sync_and_batch_stepping_do_not_allocate() {
    assert_sync_steps_do_not_allocate(&mut soa_pif_sim(0x50A), "SoA");
}

#[test]
fn generic_store_sync_steps_do_not_allocate() {
    // `step_sync` is the shared loop's, so the generic `Vec` store runs
    // it too.
    let g = generators::torus(8, 8).unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g);
    let init = initial::random_config(&g, &protocol, 0x50A);
    assert_sync_steps_do_not_allocate(&mut Simulator::new(g, protocol, init), "generic-store");
}

/// Warms `sim` up, then asserts that register-corruption batches, each
/// followed by a few steps, move no heap memory: the bookkeeping reset
/// (whole-network guard refresh, enabled index, round counter) reuses its
/// storage.
fn assert_corrupt_many_does_not_allocate<S: RegisterStore<PifProtocol>>(
    sim: &mut Simulator<PifProtocol, S>,
    store: &str,
) {
    let donor = initial::random_config(sim.graph(), sim.protocol(), 0xC0FF);
    let corruptions: Vec<(ProcId, PifState)> = (0..8)
        .map(|i| {
            let p = ProcId::from_index(i * 7 % donor.len());
            (p, donor[p.index()])
        })
        .collect();
    let mut daemon = CentralRandom::new(0xC0FF);
    for _ in 0..2_000 {
        sim.step(&mut daemon).unwrap();
    }
    sim.corrupt_many(&corruptions);

    let allocated = allocations_of(|| {
        for _ in 0..200 {
            sim.corrupt_many(&corruptions);
            for _ in 0..20 {
                sim.step(&mut daemon).unwrap();
            }
        }
    });
    assert_eq!(allocated, 0, "{store} corrupt_many allocated {allocated} time(s) over 200 batches");
    for _ in 0..2_000 {
        sim.step(&mut daemon).unwrap();
    }
    assert!(sim.rounds() > 0, "round accounting must still advance");
    sim.corrupt_many(&corruptions);
    assert_eq!(sim.rounds(), 0, "a corruption batch restarts round accounting");
}

#[test]
fn corrupt_many_on_a_warmed_simulator_does_not_allocate() {
    assert_corrupt_many_does_not_allocate(&mut soa_pif_sim(0xC0A), "SoA");
    let g = generators::torus(8, 8).unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g);
    let init = initial::random_config(&g, &protocol, 0xC0A);
    assert_corrupt_many_does_not_allocate(&mut Simulator::new(g, protocol, init), "generic-store");
}

#[test]
fn topology_builds_allocate_a_small_constant() {
    // The generator reserves its 2,048 links up front and the builder lays
    // the neighbor lists out by counting sort: one allocation each for the
    // link vector, the name and the graph's copy of it, the CSR offsets
    // and adjacency, and the connectivity check's seen flags and queue.
    let allocated = allocations_of(|| Topology::Torus { w: 32, h: 32 }.build().unwrap());
    assert!(allocated <= 7, "torus:32x32 took {allocated} allocations to build");
}

#[test]
fn oversize_topologies_are_refused_before_they_are_built() {
    // hypercube:17 is within the graph generators' limits but past the
    // level register's: `WaveService::new` refuses it from the spec's
    // processor count, without building its 131,072-processor graph.
    let config = ServeConfig::new(Topology::Hypercube { d: 17 }).initiators(vec![ProcId(0)]);
    let allocated = allocations_of(|| {
        let refused = WaveService::<u64>::new(config);
        assert!(
            matches!(refused, Err(ServeError::NetworkTooLarge { procs: 131_072, max: 65_536 })),
            "hypercube:17 must be refused as too large"
        );
    });
    assert!(allocated <= 4, "refusing hypercube:17 took {allocated} allocations");
}

#[test]
fn shards_past_the_initiator_count_are_not_built() {
    // The deal places the initiator at position `pos` on shard
    // `pos % shards`, so shards past the initiator count would never hold
    // a lane: a configured count of two million builds no more than one
    // shard per initiator.
    let build = |shards: usize| {
        let config = ServeConfig::new(Topology::Torus { w: 4, h: 4 })
            .initiators(spread_initiators(16, 4))
            .shards(shards)
            .seed(0x5E7);
        allocations_of(|| WaveService::<u64>::new(config).unwrap())
    };
    let per_initiator = build(4);
    let huge = build(2_000_000);
    assert!(
        huge <= per_initiator,
        "2,000,000 shards took {huge} allocations, one per initiator {per_initiator}"
    );
}

#[test]
fn adversarial_daemons_select_without_allocating() {
    // The weakly fair adversaries keep continuous-enablement ages; after
    // warm-up, aging, forced selections and fallback picks must reuse
    // their storage. The fairness bound (24 < n = 64) forces selections.
    let masks: Vec<u64> = (1..=8u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let daemons: [Box<dyn Daemon<PifState>>; 2] = [
        Box::new(AdversarialLifo::new(24, 0xA110C)),
        Box::new(ScriptedAdversary::new(masks, 64, 24)),
    ];
    for mut daemon in daemons {
        let mut sim = soa_pif_sim(0xADF);
        for _ in 0..2_000 {
            let rep = sim.step(&mut *daemon).unwrap();
            assert!(!rep.terminal, "PIF waves must keep cycling");
        }

        let before = allocations();
        TRACKING.with(|t| t.set(true));
        for _ in 0..10_000 {
            sim.step(&mut *daemon).unwrap();
        }
        TRACKING.with(|t| t.set(false));
        let after = allocations();

        assert_eq!(
            after - before,
            0,
            "{} allocated {} time(s) across 10k steady-state selections",
            daemon.name(),
            after - before
        );
    }
}

/// The lossy-link plan of [`lossy_transport_ticks_do_not_allocate`]:
/// every fault at once.
fn lossy_plan() -> FaultPlan {
    FaultPlan::fault_free()
        .drop_rate(0.2)
        .duplicate_rate(0.1)
        .reorder_rate(0.3)
        .corrupt_rate(0.05)
}

#[test]
fn lossy_transport_ticks_do_not_allocate() {
    // The message-passing engine under every fault at once: sends copy
    // frames into pooled buffers (duplicates too), receives and overflow
    // evictions hand them back, and guard evaluation reuses one view
    // buffer, so after warm-up a tick moves no heap memory. Small
    // channels and a fast heartbeat cadence keep the links near full, so
    // the warm-up reaches the in-flight peak and overflow evictions run.
    let n = 8;
    let g = generators::ring(n).unwrap();
    let protocol = TokenRing { k: n as u32 + 1, n };
    let init: Vec<u32> = (0..n as u32).map(|i| (i * 7) % (n as u32 + 1)).collect();
    let mut net = NetBuilder::new(g, protocol)
        .states(init)
        .fault_plan(lossy_plan())
        .capacity(4)
        .heartbeat_every(3)
        .seed(0xA110C)
        .build()
        .unwrap();

    for _ in 0..20_000 {
        net.tick();
    }

    let before = allocations();
    TRACKING.with(|t| t.set(true));
    for _ in 0..100_000 {
        net.tick();
    }
    TRACKING.with(|t| t.set(false));
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "net transport allocated {} time(s) across 100k steady-state ticks",
        after - before
    );
    let stats = net.stats();
    assert!(stats.executions > 1_000, "the token must keep circulating: {stats:?}");
    assert!(
        stats.dropped > 0
            && stats.duplicated > 0
            && stats.reordered > 0
            && stats.corrupt_rejected > 0
            && stats.overflow_dropped > 0,
        "every fault path must have run: {stats:?}"
    );
    assert_eq!(stats.corrupt_applied, 0);
}

#[test]
fn pif_lossy_transport_ticks_do_not_allocate() {
    // The same lossy plan with the paper's protocol on a torus: PIF
    // guard evaluation and execution over the cached neighbour views
    // must be as allocation-free as the toy ring's.
    let g = generators::torus(8, 8).unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g);
    let init = initial::random_config(&g, &protocol, 0xA110C);
    let mut net = NetBuilder::new(g, protocol)
        .states(init)
        .fault_plan(lossy_plan())
        .capacity(4)
        .heartbeat_every(3)
        .seed(0xA110C)
        .build()
        .unwrap();

    for _ in 0..20_000 {
        net.tick();
    }

    let before = allocations();
    TRACKING.with(|t| t.set(true));
    for _ in 0..100_000 {
        net.tick();
    }
    TRACKING.with(|t| t.set(false));
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "PIF over the net transport allocated {} time(s) across 100k steady-state ticks",
        after - before
    );
    let stats = net.stats();
    assert!(stats.executions > 1_000, "PIF waves must keep cycling: {stats:?}");
    assert_eq!(stats.corrupt_applied, 0);
}

/// A four-initiator, two-shard service on torus:4x4 under the central
/// random daemon: on `SoA` lanes, or on net lanes over the lossy plan.
/// A net lane's frame pool grows to the most frames ever in flight at
/// once, at most links × capacity. A heartbeat every tick keeps the
/// links near full, so warm-up reaches that peak (no pool grew over
/// 6,000 requests); at a heartbeat every third tick the pools still
/// reached new peaks hundreds of requests later.
fn small_service(net: bool) -> WaveService<u64> {
    let mut config = ServeConfig::new(Topology::Torus { w: 4, h: 4 })
        .initiators(spread_initiators(16, 4))
        .shards(2)
        .seed(0x5E7)
        .daemon(ServeDaemon::CentralRandom);
    if net {
        config = config.net_transport(NetLaneConfig {
            plan: lossy_plan(),
            capacity: 4,
            heartbeat_every: 1,
            ..NetLaneConfig::default()
        });
    }
    WaveService::new(config).unwrap()
}

/// Serves request `i` in a closed loop: one `submit`, one `run`.
fn serve_one(svc: &mut WaveService<u64>, i: u64) {
    let initiators = &svc.config().initiators;
    let initiator = initiators[i as usize % initiators.len()];
    let kind = AggregateKind::ALL[i as usize % AggregateKind::ALL.len()];
    svc.submit(Request::new(initiator, i, kind)).unwrap();
    svc.run().unwrap();
}

#[test]
fn closed_loop_requests_do_not_allocate() {
    // A closed-loop request has one busy shard, which runs on the caller
    // with the idle one: no thread is spawned, and lane queues, engines,
    // overlays and the shard's ledger chunk all reuse their storage. A
    // ledger chunk holds 16 KiB of packed records (about 24 bytes each),
    // so the requests below stay within each shard's first chunk.
    for net in [false, true] {
        let mut svc = small_service(net);
        for i in 0..65 {
            serve_one(&mut svc, i);
        }

        let allocated = allocations_of(|| {
            for i in 65..165 {
                serve_one(&mut svc, i);
            }
        });
        assert_eq!(allocated, 0, "net lanes {net}: 100 requests allocated {allocated} time(s)");
        let summary = svc.ledger().summary();
        assert_eq!(summary.total, 165, "net lanes {net}");
        assert!(summary.snap_holds(), "net lanes {net}: {summary:?}");
    }
}
