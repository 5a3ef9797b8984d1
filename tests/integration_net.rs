//! Message-passing integration: the unchanged PIF protocol over the
//! `pif-net` transport — framed snapshots on seeded lossy channels —
//! across topologies, fault-rate cells, and corruption modes, plus the
//! serving layer running over the same transport.

use pif_bench::experiments::e13_message_passing::{cells, trial, FaultCell};
use pif_core::{initial, Phase, PifProtocol, PifState};
use pif_graph::{generators, ProcId, Topology};
use pif_net::{FaultPlan, NetSim, TickOutcome, Transport, WireState};
use pif_serve::{run_scenario_net, spread_initiators, NetLaneConfig, Scenario, ServeDaemon};

fn cell_named(name: &str) -> FaultCell {
    cells().into_iter().find(|c| c.name == name).expect("known cell")
}

#[test]
fn clean_waves_complete_across_topologies() {
    for t in [
        Topology::Chain { n: 6 },
        Topology::Ring { n: 6 },
        Topology::Star { n: 6 },
        Topology::Complete { n: 5 },
        Topology::Grid { w: 3, h: 2 },
    ] {
        let cell = cell_named("lossless");
        for seed in 0..4 {
            let o = trial(&t, &cell, seed, 3);
            assert_eq!(o.completed, 3, "{t:?} seed {seed}: {o:?}");
            assert_eq!(o.pif2_ok, 3, "{t:?} seed {seed}: [PIF2] violated");
        }
    }
}

#[test]
fn lossy_waves_certify_across_topologies() {
    // The adversarial cell — drop 0.2, dup 0.1, reorder 0.3, corrupt
    // 0.05 on every link — from post-fault starts: all requests must
    // complete [PIF1]/[PIF2] n/n with zero corrupt frames applied.
    let cell = cell_named("adversarial");
    for t in [Topology::Chain { n: 6 }, Topology::Ring { n: 6 }, Topology::Grid { w: 3, h: 2 }] {
        for seed in 0..3 {
            let o = trial(&t, &cell, seed, 3);
            assert_eq!(o.completed, 3, "{t:?} seed {seed}: {o:?}");
            assert_eq!(o.pif1_ok, 3, "{t:?} seed {seed}: [PIF1] violated");
            assert_eq!(o.pif2_ok, 3, "{t:?} seed {seed}: [PIF2] violated");
            assert_eq!(o.stats.corrupt_applied, 0, "{t:?} seed {seed}: CRC gate failed");
            assert!(o.stats.corrupted > 0, "{t:?} seed {seed}: plan did nothing");
        }
    }
}

#[test]
fn consecutive_waves_keep_flowing_over_messages() {
    // Count three full broadcast/feedback/cleaning cycles in one run:
    // the scheme cycles without per-wave resets.
    let g = generators::ring(5).unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g);
    let mut net = NetSim::builder(g.clone(), protocol)
        .states(initial::normal_starting(&g))
        .seed(5)
        .build()
        .unwrap();
    for round in 0..3 {
        net.run_until(500_000, &mut |s: &[pif_core::PifState]| s[0].phase == Phase::F)
            .unwrap_or_else(|e| panic!("wave {round} never completed: {e}"));
        net.run_until(500_000, &mut |s: &[pif_core::PifState]| {
            s.iter().all(|st| st.phase == Phase::C)
        })
        .unwrap_or_else(|e| panic!("wave {round} never cleaned: {e}"));
    }
}

#[test]
fn heartbeats_separate_recovery_from_deadlock() {
    for t in [Topology::Chain { n: 5 }, Topology::Ring { n: 5 }] {
        let stuck = trial(&t, &cell_named("scrambled caches (no heartbeat)"), 0, 1);
        assert_eq!(stuck.completed, 0, "{t:?} without heartbeats: {stuck:?}");
        let rescued = trial(&t, &cell_named("scrambled caches (+heartbeat)"), 0, 1);
        assert_eq!(rescued.completed, 1, "{t:?} with heartbeats: {rescued:?}");
    }
}

#[test]
fn scramble_through_the_fault_plan_is_counted_and_recovered() {
    // The plan-armed campaign: forged frames are counted in NetStats
    // and the heartbeat cadence flushes them.
    let g = generators::ring(5).unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g);
    let mut net = NetSim::builder(g.clone(), protocol)
        .states(initial::normal_starting(&g))
        .fault_plan(FaultPlan::fault_free().scramble(99))
        .seed(3)
        .build()
        .unwrap();
    let stats = net.stats();
    assert_eq!(stats.forged_frames, 2 * g.edges().count() as u64);
    assert_eq!(stats.forged_frames, stats.cache_corruptions + stats.corrupt_rejected);
    net.run_until(500_000, &mut |s: &[pif_core::PifState]| s[0].phase == Phase::F)
        .expect("heartbeats flush the forged caches");
}

#[test]
fn serve_over_net_certifies_post_fault_requests() {
    // End-to-end: the wave service with every lane on the lossy
    // transport, a mid-flight register-corruption campaign, and the
    // ledger's snap assertion over the post-fault population.
    let plan = FaultPlan::fault_free().drop_rate(0.1).reorder_rate(0.2).corrupt_rate(0.02);
    let scenario = Scenario {
        topology: Topology::Torus { w: 3, h: 3 },
        initiators: spread_initiators(9, 3),
        shards: 2,
        seed: 61,
        daemon: ServeDaemon::CentralRandom,
        requests: 45,
        fault: Some((10, 6, 0xE2E)),
    };
    let net = NetLaneConfig { plan, ..NetLaneConfig::default() };
    let service = run_scenario_net(&scenario, net).unwrap();
    let summary = service.ledger().summary();
    assert_eq!(summary.total, 45);
    assert!(summary.post_fault_total > 0, "campaign never fired");
    service.ledger().assert_snap().unwrap();
}

/// FNV-1a 64 over a run's observable history: every scheduler outcome in
/// order, the final `NetStats` ledger and the final registers.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn outcome(&mut self, o: TickOutcome) {
        match o {
            TickOutcome::Executed { proc, action } => {
                self.bytes(&[0]);
                self.u64(u64::from(proc.0));
                self.u64(action.0 as u64);
            }
            TickOutcome::Delivered { from, to } => {
                self.bytes(&[1]);
                self.u64(u64::from(from.0));
                self.u64(u64::from(to.0));
            }
            TickOutcome::Rejected { from, to } => {
                self.bytes(&[2]);
                self.u64(u64::from(from.0));
                self.u64(u64::from(to.0));
            }
            TickOutcome::Heartbeat { proc } => {
                self.bytes(&[3]);
                self.u64(u64::from(proc.0));
            }
            TickOutcome::Idle => self.bytes(&[4]),
        }
    }

    fn finish(mut self, net: &NetSim<PifProtocol>) -> u64 {
        let s = net.stats();
        for v in [
            s.events,
            s.executions,
            s.deliveries,
            s.heartbeats,
            s.frames_sent,
            s.dropped,
            s.duplicated,
            s.reordered,
            s.corrupted,
            s.corrupt_rejected,
            s.corrupt_applied,
            s.stale_rejected,
            s.overflow_dropped,
            s.forged_frames,
            s.down_lost,
            s.cache_corruptions,
            s.in_flight,
            s.staleness_max,
            s.refreshes,
        ] {
            self.u64(v);
        }
        let mut wire = Vec::new();
        for st in net.states() {
            wire.clear();
            st.encode_wire(&mut wire);
            self.bytes(&wire);
        }
        self.0
    }
}

#[test]
fn schedule_pin_torus_adversarial_with_campaign_and_link_churn() {
    // The serve-net-lossy plan on torus 8x8, plus the two paths the
    // BENCH points never take: a register-corruption campaign and a
    // link failure with recovery, all mid-run. The digest was recorded
    // before the transport's selection and view indices were rewritten;
    // any change to a seeded draw or a selection order moves it.
    let g = generators::torus(8, 8).unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g);
    let plan = FaultPlan::fault_free()
        .drop_rate(0.2)
        .duplicate_rate(0.1)
        .reorder_rate(0.3)
        .corrupt_rate(0.05);
    let mut net = NetSim::builder(g.clone(), protocol.clone())
        .states(initial::normal_starting(&g))
        .fault_plan(plan)
        .seed(0x5EED)
        .build()
        .unwrap();
    let mut digest = Digest::new();
    for tick in 0..60_000u32 {
        match tick {
            20_000 => {
                let mut copy = net.states().to_vec();
                initial::corrupt_registers(&mut copy, &g, &protocol, 12, 0xC0FFEE);
                let changes: Vec<(ProcId, PifState)> = copy
                    .iter()
                    .enumerate()
                    .filter(|(i, s)| **s != net.states()[*i])
                    .map(|(i, s)| (ProcId::from_index(i), *s))
                    .collect();
                assert!(!changes.is_empty());
                net.corrupt_many(&changes);
            }
            30_000 => assert!(net.set_link_down(ProcId(9), ProcId(10), true)),
            40_000 => assert!(net.set_link_down(ProcId(9), ProcId(10), false)),
            _ => {}
        }
        digest.outcome(net.tick());
    }
    let stats = net.stats();
    assert!(stats.down_lost > 0 && stats.corrupt_rejected > 0 && stats.stale_rejected > 0);
    assert_eq!(stats.corrupt_applied, 0);
    assert_eq!(digest.finish(&net), 8_114_597_582_531_806_798);
}

#[test]
fn schedule_pin_ring_scramble_campaign() {
    // A ring recovering from the plan's construction-time cache scramble
    // (forged frames through the channel layer), pinned like the torus.
    let g = generators::ring(9).unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g);
    let mut net = NetSim::builder(g.clone(), protocol)
        .states(initial::normal_starting(&g))
        .fault_plan(FaultPlan::fault_free().drop_rate(0.1).scramble(0x5C4A))
        .seed(17)
        .build()
        .unwrap();
    let mut digest = Digest::new();
    for _ in 0..40_000 {
        digest.outcome(net.tick());
    }
    assert!(net.stats().cache_corruptions > 0);
    assert_eq!(digest.finish(&net), 1_007_446_159_247_605_662);
}
