//! Criterion timing benches (B1–B6 in DESIGN.md): simulator step
//! throughput, full-cycle latency per topology, error-correction latency,
//! analysis/classifier overhead, graph generation, and chordless-path
//! search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pif_core::wave::{UnitAggregate, WaveRunner};
use pif_core::{analysis, initial, PifProtocol};
use pif_daemon::daemons::{CentralRandom, Synchronous};
use pif_daemon::{RunLimits, Simulator};
use pif_graph::{chordless, generators, ProcId, Topology};

/// B1 — raw simulator step throughput mid-broadcast on a torus.
fn bench_step_throughput(c: &mut Criterion) {
    let g = generators::torus(8, 8).unwrap();
    c.bench_function("step_throughput/torus(8x8)", |b| {
        b.iter(|| {
            let proto = PifProtocol::new(ProcId(0), &g);
            let init = initial::normal_starting(&g);
            let mut sim = Simulator::new(g.clone(), proto, init);
            let mut d = Synchronous::first_action();
            for _ in 0..50 {
                if sim.is_terminal() {
                    break;
                }
                sim.step(&mut d).unwrap();
            }
            black_box(sim.steps())
        });
    });
}

/// B2 — full PIF cycle latency per topology at N ≈ 64.
fn bench_cycle_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("cycle_latency");
    for t in [
        Topology::Chain { n: 64 },
        Topology::Star { n: 64 },
        Topology::Torus { w: 8, h: 8 },
        Topology::Random { n: 64, p: 0.08, seed: 5 },
    ] {
        let g = t.build().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(&t), &g, |b, g| {
            b.iter(|| {
                let proto = PifProtocol::new(ProcId(0), g);
                let mut runner = WaveRunner::new(g.clone(), proto, UnitAggregate);
                let out = runner
                    .run_cycle_limited(
                        1u8,
                        &mut Synchronous::first_action(),
                        RunLimits::default(),
                    )
                    .unwrap();
                assert!(out.satisfies_spec());
                black_box(out.cycle_rounds)
            });
        });
    }
    group.finish();
}

/// B3 — error-correction latency from an adversarial configuration.
fn bench_correction(c: &mut Criterion) {
    let g = generators::random_connected(48, 0.1, 9).unwrap();
    let proto = PifProtocol::new(ProcId(0), &g);
    c.bench_function("correction/random(48)", |b| {
        b.iter(|| {
            let init = initial::adversarial_config(&g, &proto, ProcId(17), 3);
            let mut sim = Simulator::new(g.clone(), proto.clone(), init);
            let mut d = Synchronous::first_action();
            let proto2 = proto.clone();
            let g2 = g.clone();
            let mut recovered = move |s: &Simulator<PifProtocol>| {
                analysis::abnormal_procs(&proto2, &g2, s.states()).is_empty()
            };
            let stats = sim
                .run(
                    &mut d,
                    &mut pif_daemon::NoOpObserver,
                    pif_daemon::StopPolicy::Predicate(RunLimits::default(), &mut recovered),
                )
                .unwrap();
            black_box(stats.rounds)
        });
    });
}

/// B4 — classifier/analysis overhead on a mid-size configuration.
fn bench_analysis(c: &mut Criterion) {
    let g = generators::torus(12, 12).unwrap();
    let proto = PifProtocol::new(ProcId(0), &g);
    let states = initial::adversarial_config(&g, &proto, ProcId(100), 7);
    c.bench_function("analysis/classify/torus(12x12)", |b| {
        b.iter(|| black_box(analysis::classify(&proto, &g, &states)));
    });
    c.bench_function("analysis/legal_tree/torus(12x12)", |b| {
        b.iter(|| black_box(analysis::legal_tree(&proto, &g, &states).legal_size()));
    });
}

/// B5 — graph generator cost.
fn bench_graphgen(c: &mut Criterion) {
    let mut group = c.benchmark_group("graphgen");
    group.bench_function("random_connected(256,0.05)", |b| {
        b.iter(|| black_box(generators::random_connected(256, 0.05, 1).unwrap().edge_count()));
    });
    group.bench_function("torus(16x16)", |b| {
        b.iter(|| black_box(generators::torus(16, 16).unwrap().edge_count()));
    });
    group.bench_function("random_tree(256)", |b| {
        b.iter(|| black_box(generators::random_tree(256, 1).unwrap().edge_count()));
    });
    group.finish();
}

/// B6 — chordless-path search cost.
fn bench_chordless(c: &mut Criterion) {
    let mut group = c.benchmark_group("chordless");
    for t in [Topology::Torus { w: 4, h: 4 }, Topology::Hypercube { d: 4 }] {
        let g = t.build().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(&t), &g, |b, g| {
            b.iter(|| black_box(chordless::longest(g, 500_000).length()));
        });
    }
    group.finish();
}

/// B7 — daemon overhead comparison on identical work.
fn bench_daemons(c: &mut Criterion) {
    let g = generators::grid(8, 8).unwrap();
    let mut group = c.benchmark_group("daemon_overhead");
    group.bench_function("synchronous", |b| {
        b.iter(|| {
            let proto = PifProtocol::new(ProcId(0), &g);
            let mut runner = WaveRunner::new(g.clone(), proto, UnitAggregate);
            black_box(
                runner
                    .run_cycle_limited(1u8, &mut Synchronous::first_action(), RunLimits::default())
                    .unwrap()
                    .cycle_steps,
            )
        });
    });
    group.bench_function("central_random", |b| {
        b.iter(|| {
            let proto = PifProtocol::new(ProcId(0), &g);
            let mut runner = WaveRunner::new(g.clone(), proto, UnitAggregate);
            black_box(
                runner
                    .run_cycle_limited(1u8, &mut CentralRandom::new(1), RunLimits::default())
                    .unwrap()
                    .cycle_steps,
            )
        });
    });
    group.finish();
}

/// B8 — message-passing overhead: the same cycle over the `pif-net`
/// transport vs shared memory.
fn bench_netsim(c: &mut Criterion) {
    use pif_net::Transport;
    let g = generators::ring(16).unwrap();
    c.bench_function("net/cycle/ring(16)", |b| {
        b.iter(|| {
            let proto = PifProtocol::new(ProcId(0), &g);
            let mut net = pif_net::NetSim::builder(g.clone(), proto)
                .states(initial::normal_starting(&g))
                .seed(1)
                .build()
                .unwrap();
            let stats = net
                .run_until(2_000_000, &mut |s: &[pif_core::PifState]| {
                    s[0].phase == pif_core::Phase::F
                })
                .expect("fault-free cycle completes");
            black_box(stats.deliveries)
        });
    });
}

/// B9 — exhaustive verification cost on the smallest instance.
fn bench_verify(c: &mut Criterion) {
    c.bench_function("verify/snap_safety/chain(2)", |b| {
        b.iter(|| {
            let g = generators::chain(2).unwrap();
            let proto = PifProtocol::new(ProcId(0), &g);
            let space = pif_verify::StateSpace::new(g.clone(), proto);
            let report = pif_verify::Checker::auto().check_snap_safety(&space, true);
            assert!(report.verified());
            black_box(report.states_explored)
        });
    });
}

criterion_group!(
    benches,
    bench_step_throughput,
    bench_cycle_latency,
    bench_correction,
    bench_analysis,
    bench_graphgen,
    bench_chordless,
    bench_daemons,
    bench_netsim,
    bench_verify
);
criterion_main!(benches);
