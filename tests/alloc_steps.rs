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
//! Counting is gated on a thread-local flag so only allocations made by
//! the thread driving the simulator are charged — the libtest harness's
//! main thread waits alongside the test thread and occasionally
//! allocates on its own schedule, which is not the simulator's doing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use pif_chaos::ScriptedAdversary;
use pif_core::{initial, PifProtocol, PifState};
use pif_daemon::daemons::{AdversarialLifo, CentralRandom};
use pif_daemon::{ActionId, Daemon, MetricsObserver, Protocol, Simulator, View};
use pif_graph::{generators, ProcId};
use pif_soa::{step_batch_into, BatchStats, SoaSimulator};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    // `const`-initialized so reading it never allocates (no lazy init),
    // which keeps the global allocator re-entrancy-safe.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

fn count_if_tracking() {
    // `try_with` tolerates allocator calls during thread teardown, after
    // the TLS slot is gone.
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
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

    fn enabled_actions(&self, v: View<'_, u32>, out: &mut Vec<ActionId>) {
        let prev = *v.state(self.predecessor(v.pid()));
        let holds_token =
            if v.pid().index() == 0 { *v.me() == prev } else { *v.me() != prev };
        if holds_token {
            out.push(ActionId(0));
        }
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

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    TRACKING.with(|t| t.set(true));
    for _ in 0..10_000 {
        sim.step(&mut daemon).unwrap();
    }
    TRACKING.with(|t| t.set(false));
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "simulator hot loop allocated {} time(s) across 10k steady-state steps",
        after - before
    );
    assert!(sim.rounds() > 0, "round accounting must still advance");
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

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    TRACKING.with(|t| t.set(true));
    for _ in 0..10_000 {
        sim.step_observed(&mut daemon, &mut metrics).unwrap();
    }
    TRACKING.with(|t| t.set(false));
    let after = ALLOCATIONS.load(Ordering::SeqCst);

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
    SoaSimulator::new(g, protocol, init)
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

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    TRACKING.with(|t| t.set(true));
    for _ in 0..10_000 {
        sim.step(&mut daemon).unwrap();
    }
    TRACKING.with(|t| t.set(false));
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "SoA step path allocated {} time(s) across 10k steady-state steps",
        after - before
    );
    assert!(sim.rounds() > 0, "round accounting must still advance");
}

#[test]
fn soa_sync_and_batch_stepping_do_not_allocate() {
    // The synchronous fast path and the inline (single-worker) batch
    // driver share the contract: after warm-up, whole-network steps move
    // no heap memory.
    let mut sim = soa_pif_sim(0x50A);
    for _ in 0..2_000 {
        let rep = sim.step_sync();
        assert!(!rep.terminal, "PIF waves must keep cycling");
    }

    let mut shard = [sim];
    let mut stats: Vec<BatchStats> = Vec::with_capacity(shard.len());

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    TRACKING.with(|t| t.set(true));
    for _ in 0..10_000 {
        shard[0].step_sync();
    }
    step_batch_into(&mut shard, 5_000, 1, &mut stats);
    TRACKING.with(|t| t.set(false));
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "SoA sync/batch path allocated {} time(s) across 15k steady-state steps",
        after - before
    );
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].steps, 5_000);
    assert!(!stats[0].terminal);
    assert!(stats[0].moves >= stats[0].steps);
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

        let before = ALLOCATIONS.load(Ordering::SeqCst);
        TRACKING.with(|t| t.set(true));
        for _ in 0..10_000 {
            sim.step(&mut *daemon).unwrap();
        }
        TRACKING.with(|t| t.set(false));
        let after = ALLOCATIONS.load(Ordering::SeqCst);

        assert_eq!(
            after - before,
            0,
            "{} allocated {} time(s) across 10k steady-state selections",
            daemon.name(),
            after - before
        );
    }
}
