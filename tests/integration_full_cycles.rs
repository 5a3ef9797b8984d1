//! Cross-crate integration: complete message-carrying PIF cycles on every
//! standard topology under every daemon strategy, with payload delivery
//! and feedback aggregation verified end to end.

use pif_core::protocol::{B_ACTION, COUNT_ACTION};
use pif_core::wave::{SumAggregate, WaveRunner};
use pif_core::{initial, PifProtocol};
use pif_daemon::{RunLimits, Simulator};
use pif_graph::{ProcId, Topology};

fn daemons(n: usize) -> Vec<Box<dyn pif_daemon::Daemon<pif_core::PifState>>> {
    pif_bench::workloads::DaemonKind::ALL
        .into_iter()
        .map(|k| k.build(n, 0xACE))
        .collect()
}

#[test]
fn every_topology_under_every_daemon_completes_cycles() {
    for t in Topology::standard_suite() {
        let g = t.build().unwrap();
        for mut d in daemons(g.len()) {
            let proto = PifProtocol::new(ProcId(0), &g);
            let contributions = vec![1i64; g.len()];
            let mut runner =
                WaveRunner::new(g.clone(), proto, SumAggregate::new(contributions));
            for m in 0..3u64 {
                let out = runner
                    .run_cycle_limited(m, d.as_mut(), RunLimits::new(5_000_000, 1_000_000))
                    .unwrap();
                assert!(out.satisfies_spec(), "{t:?} / {} cycle {m}", d.name());
                assert_eq!(
                    out.feedback,
                    Some(g.len() as i64),
                    "{t:?} / {} cycle {m}: wrong aggregate",
                    d.name()
                );
            }
        }
    }
}

#[test]
fn every_processor_can_be_the_root() {
    let g = Topology::Random { n: 10, p: 0.25, seed: 77 }.build().unwrap();
    for root in g.procs() {
        let proto = PifProtocol::new(root, &g);
        let mut runner =
            WaveRunner::new(g.clone(), proto, SumAggregate::new(vec![1; g.len()]));
        let out = runner
            .run_cycle(9, &mut pif_daemon::daemons::Synchronous::first_action())
            .unwrap();
        assert!(out.satisfies_spec(), "root {root}");
        assert_eq!(out.feedback, Some(10));
    }
}

#[test]
fn cycles_return_to_the_normal_starting_configuration() {
    let g = Topology::Torus { w: 4, h: 4 }.build().unwrap();
    let proto = PifProtocol::new(ProcId(0), &g);
    let init = initial::normal_starting(&g);
    let mut sim = Simulator::new(g, proto, init);
    let mut d = pif_daemon::daemons::CentralRandom::new(4);
    for cycle in 0..2 {
        let floor = sim.steps();
        let mut cycled = move |s: &Simulator<PifProtocol>| {
            s.steps() > floor && initial::is_normal_starting(s.states())
        };
        let stats = sim
            .run(
                &mut d,
                &mut pif_daemon::NoOpObserver,
                pif_daemon::StopPolicy::Predicate(RunLimits::default(), &mut cycled),
            )
            .unwrap();
        assert!(stats.steps > 0, "cycle {cycle} made no progress");
        assert!(initial::is_normal_starting(sim.states()));
    }
}

#[test]
fn the_wave_spans_exactly_the_network() {
    // Count each processor once via a sum of distinct powers of two: the
    // feedback must be exactly 2^N - 1 (each processor contributes its own
    // bit exactly once — no double counting, no omissions).
    let g = Topology::Wheel { n: 10 }.build().unwrap();
    let proto = PifProtocol::new(ProcId(0), &g);
    let contributions: Vec<i64> = (0..10).map(|i| 1i64 << i).collect();
    let mut runner = WaveRunner::new(g, proto, SumAggregate::new(contributions));
    let out = runner
        .run_cycle(1u8, &mut pif_daemon::daemons::Synchronous::first_action())
        .unwrap();
    assert_eq!(out.feedback, Some((1i64 << 10) - 1));
}

#[test]
fn all_panel_daemons_are_weakly_fair_on_pif_workloads() {
    // Audit every daemon in the panel against the real protocol: no
    // processor may be starved beyond a daemon-specific bound while
    // continuously enabled.
    use pif_daemon::fairness::FairnessAuditor;
    let g = Topology::Torus { w: 3, h: 3 }.build().unwrap();
    let n = g.len();
    for kind in pif_bench::workloads::DaemonKind::ALL {
        let proto = PifProtocol::new(ProcId(0), &g);
        let init = initial::normal_starting(&g);
        let mut sim = Simulator::new(g.clone(), proto.clone(), init);
        let mut auditor = FairnessAuditor::new(proto);
        let mut daemon = kind.build(n, 5);
        let mut cycles = 0;
        let mut target = move |s: &Simulator<PifProtocol>| {
            if s.steps() > 0 && initial::is_normal_starting(s.states()) {
                cycles += 1;
            }
            cycles >= 2
        };
        sim.run(
            daemon.as_mut(),
            &mut auditor,
            pif_daemon::StopPolicy::Predicate(RunLimits::default(), &mut target),
        )
        .unwrap();
        // AdversarialLifo promises 4N; everything else is far fairer.
        let bound = 4 * n as u64 + 1;
        assert!(
            auditor.is_fair_within(bound),
            "{}: starvation streak {} exceeds {}",
            kind.name(),
            auditor.max_streak(),
            bound
        );
    }
}

#[test]
fn big_sparse_network_cycle() {
    let g = Topology::Random { n: 200, p: 0.02, seed: 13 }.build().unwrap();
    let proto = PifProtocol::new(ProcId(0), &g);
    let mut runner =
        WaveRunner::new(g.clone(), proto, SumAggregate::new(vec![1; g.len()]));
    let out = runner
        .run_cycle(1u8, &mut pif_daemon::daemons::Synchronous::first_action())
        .unwrap();
    assert!(out.satisfies_spec());
    assert_eq!(out.feedback, Some(200));
    let h = u64::from(out.height);
    assert!(out.cycle_rounds <= 5 * h + 5, "Theorem 4 at scale");
}

/// Moves per action over one full cycle: from the root's B-action to its
/// next one.
struct PerAction {
    root: ProcId,
    root_b: u32,
    moves: [u64; 7],
}

impl pif_daemon::Observer<PifProtocol> for PerAction {
    fn step(
        &mut self,
        _: &pif_graph::Graph,
        delta: &pif_daemon::StepDelta<'_, PifProtocol>,
        _: &[pif_core::PifState],
    ) {
        for &(p, a) in delta.executed() {
            if p == self.root && a == B_ACTION {
                self.root_b += 1;
            }
            if self.root_b == 1 {
                self.moves[a.0] += 1;
            }
        }
    }
}

fn chain_cycle_moves(n: usize, root: usize) -> [u64; 7] {
    let g = pif_graph::generators::chain(n).unwrap();
    let root = ProcId::from_index(root);
    let init = initial::normal_starting(&g);
    let mut sim = Simulator::new(g.clone(), PifProtocol::new(root, &g), init);
    let mut daemon = pif_daemon::daemons::Synchronous::first_action();
    let mut count = PerAction { root, root_b: 0, moves: [0; 7] };
    while count.root_b < 2 {
        sim.step_observed(&mut daemon, &mut count).unwrap();
    }
    count.moves
}

#[test]
fn count_refreshes_carry_the_broadcast_share_on_a_chain() {
    // EXPERIMENTS.md E15: `classify` charges both B_ACTION and
    // COUNT_ACTION to Broadcast, and on a chain the Count refreshes are
    // nearly all of it. From the chain's end, every processor at depth d
    // refreshes its Count once per processor joining below it, n - 1 - d
    // times: n(n - 1)/2 refreshes against n B-actions.
    let n = 64;
    let end = chain_cycle_moves(n, 0);
    assert_eq!(end[B_ACTION.0], n as u64);
    assert_eq!(end[COUNT_ACTION.0], (n * (n - 1) / 2) as u64);
    // From inside the chain the refreshes stay Θ(n·h), between n·h/4 and
    // n·h/2 with h the root's eccentricity, and over 90% of Broadcast.
    for root in [n / 4, n / 2] {
        let moves = chain_cycle_moves(n, root);
        let h = root.max(n - 1 - root) as u64;
        let count = moves[COUNT_ACTION.0];
        assert_eq!(moves[B_ACTION.0], n as u64);
        assert!(4 * count >= n as u64 * h && 2 * count <= n as u64 * h, "root {root}: {count}");
        assert!(count * 10 >= 9 * (count + moves[B_ACTION.0]), "root {root}: {moves:?}");
    }
}
