//! Bounded soak and fault-campaign tests for the wave service.
//!
//! The headline acceptance checks of the serving layer:
//!
//! * a clean soak of ≥ 10 000 requests across ≥ 4 initiators and ≥ 2
//!   shards finishes with a spotless ledger and correct feedback values
//!   for every aggregate kind;
//! * under mid-flight register-corruption campaigns, every request whose
//!   wave was initiated after a fault completes correctly (operational
//!   snap-stabilization), with in-flight casualties counted separately;
//! * backpressure: a full queue rejects (or sheds, per policy) with the
//!   ledger keeping the books;
//! * determinism: same seed ⇒ bit-identical deterministic report fields,
//!   regardless of worker scheduling.

use pif_graph::{ProcId, Topology};
use pif_net::FaultPlan;
use pif_serve::{
    run_scenario, run_scenario_net, run_scenario_on, spread_initiators, AggregateKind, Engine,
    FaultSpec, NetLaneConfig, Request, RequestRecord, Scenario, ServeDaemon, ServeConfig,
    ServeError, ServiceReport, ShedPolicy, WaveService,
};

/// 10 000 requests, 4 initiators, 2 shards, pipelined back-to-back: the
/// ledger must be spotless and every feedback value exact.
#[test]
fn clean_soak_ten_thousand_requests() {
    let topology = Topology::Torus { w: 4, h: 4 };
    let n = 16usize;
    let initiators = spread_initiators(n, 4);
    assert_eq!(initiators.len(), 4);
    let config = ServeConfig::new(topology)
        .initiators(initiators.clone())
        .shards(2)
        .seed(11)
        .queue_capacity(10_000);
    let mut service: WaveService<u64> = WaveService::new(config).unwrap();
    let kinds = AggregateKind::ALL;
    for i in 0..10_000u64 {
        let initiator = initiators[(i as usize) % initiators.len()];
        service
            .submit(Request::new(initiator, i, kinds[(i as usize) % kinds.len()]))
            .unwrap();
    }
    service.run().unwrap();

    let ledger = service.ledger();
    let summary = ledger.summary();
    assert_eq!(summary.total, 10_000);
    assert_eq!(summary.completed_ok, 10_000);
    assert!(summary.is_clean(), "{summary:?}");
    assert_eq!(summary.casualties, 0);

    // Spot-check feedback correctness for every kind (contributions
    // default to index + 1).
    let contributions: Vec<i64> = (0..n).map(|i| (i + 1) as i64).collect();
    for record in ledger.records() {
        let pif_serve::RequestOutcome::Completed { feedback, .. } = &record.outcome else {
            panic!("non-completed record in clean soak: {record:?}");
        };
        assert_eq!(
            *feedback,
            Some(record.aggregate.expected(&contributions)),
            "wrong feedback for {record:?}"
        );
    }

    // Both shards actually served work.
    let mut shards_used: Vec<usize> = ledger.records().map(|r| r.shard).collect();
    shards_used.sort_unstable();
    shards_used.dedup();
    assert!(shards_used.len() >= 2, "initiators all hashed to one shard");
}

/// Mid-flight corruption campaigns: the snap claim must hold for every
/// post-fault wave, and nothing may be silently dropped.
#[test]
fn corruption_campaigns_preserve_snap_for_post_fault_requests() {
    for seed in [3u64, 17, 40] {
        let scenario = Scenario {
            topology: Topology::Torus { w: 3, h: 3 },
            initiators: spread_initiators(9, 3),
            shards: 2,
            seed,
            daemon: ServeDaemon::CentralRandom,
            requests: 120,
            fault: Some((20, 10, seed ^ 0xBEEF)),
        };
        let service = run_scenario(&scenario).unwrap();
        let ledger = service.ledger();
        let summary = ledger.summary();
        assert_eq!(summary.total, 120, "seed {seed}");
        assert_eq!(summary.shed, 0);
        // Every record is accounted: ok + bad + timeouts = total.
        assert_eq!(
            summary.completed_ok + summary.completed_bad + summary.timed_out,
            summary.total
        );
        // The operational snap-stabilization claim (Definition 1): every
        // wave initiated after the campaign completed correctly.
        assert!(summary.post_fault_total > 0, "seed {seed}: campaign never fired");
        ledger.assert_snap().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // Casualties are possible but bounded by the in-flight population
        // (at most one wave per lane spans the fault, plus timeouts).
        assert!(
            summary.casualties <= 6,
            "seed {seed}: implausibly many casualties ({summary:?})"
        );
    }
}

/// Repeated campaigns (every 15 completions) still leave the post-fault
/// requests of *each* epoch correct.
#[test]
fn repeated_faults_each_epoch_stays_snap() {
    let mut scenario = Scenario {
        topology: Topology::Random { n: 12, p: 0.2, seed: 5 },
        initiators: vec![ProcId(0), ProcId(6)],
        shards: 1,
        seed: 23,
        daemon: ServeDaemon::CentralRandom,
        requests: 90,
        fault: None,
    };
    let config = ServeConfig::new(scenario.topology.clone())
        .initiators(scenario.initiators.clone())
        .shards(scenario.shards)
        .seed(scenario.seed)
        .daemon(scenario.daemon)
        .queue_capacity(100);
    let mut service: WaveService<u64> = WaveService::new(config).unwrap();
    for trigger in [15u64, 30, 45, 60] {
        service.schedule_fault(FaultSpec {
            after_completions: trigger,
            registers_per_lane: 6,
            seed: trigger ^ 0xF00D,
        });
    }
    for i in 0..scenario.requests {
        let to = scenario.initiators[(i as usize) % 2];
        service.submit(Request::new(to, i, AggregateKind::Sum)).unwrap();
    }
    service.run().unwrap();
    scenario.fault = Some((15, 6, 0));
    let ledger = service.ledger();
    ledger.assert_snap().unwrap();
    let summary = ledger.summary();
    assert_eq!(summary.total, 90);
    assert!(summary.post_fault_total > 0);
}

/// Reject policy: the queue bound is a hard backpressure signal.
#[test]
fn full_queue_rejects_with_typed_error() {
    let config = ServeConfig::new(Topology::Chain { n: 4 })
        .initiators(vec![ProcId(0)])
        .queue_capacity(3);
    let mut service: WaveService<u64> = WaveService::new(config).unwrap();
    for i in 0..3 {
        service.submit(Request::new(ProcId(0), i, AggregateKind::Ack)).unwrap();
    }
    match service.submit(Request::new(ProcId(0), 99, AggregateKind::Ack)) {
        Err(ServeError::QueueFull { initiator, capacity }) => {
            assert_eq!(initiator, ProcId(0));
            assert_eq!(capacity, 3);
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // The three accepted requests still serve fine.
    service.run().unwrap();
    assert_eq!(service.ledger().summary().completed_ok, 3);
}

/// `DropOldest` policy: evictions are recorded as shed, newest work wins.
#[test]
fn drop_oldest_sheds_into_the_ledger() {
    let config = ServeConfig::new(Topology::Chain { n: 4 })
        .initiators(vec![ProcId(0)])
        .queue_capacity(2)
        .shed_policy(ShedPolicy::DropOldest);
    let mut service: WaveService<u64> = WaveService::new(config).unwrap();
    for i in 0..5 {
        service.submit(Request::new(ProcId(0), i, AggregateKind::Ack)).unwrap();
    }
    service.run().unwrap();
    let summary = service.ledger().summary();
    assert_eq!(summary.total, 5);
    assert_eq!(summary.shed, 3);
    assert_eq!(summary.completed_ok, 2);
    assert!(summary.is_clean());
    // The survivors are the two newest submissions.
    let survivors: Vec<u64> = service
        .ledger()
        .records()
        .filter(RequestRecord::is_correct)
        .map(|r| r.id.0)
        .collect();
    assert_eq!(survivors, vec![3, 4]);
}

/// Unknown and duplicate initiators are rejected at the right layer.
#[test]
fn config_validation_errors() {
    let base = || ServeConfig::new(Topology::Chain { n: 4 });
    assert!(matches!(
        WaveService::<u64>::new(base()),
        Err(ServeError::NoInitiators)
    ));
    assert!(matches!(
        WaveService::<u64>::new(base().initiators(vec![ProcId(1), ProcId(1)])),
        Err(ServeError::DuplicateInitiator { initiator: ProcId(1) })
    ));
    assert!(matches!(
        WaveService::<u64>::new(base().initiators(vec![ProcId(9)])),
        Err(ServeError::UnknownInitiator { initiator: ProcId(9) })
    ));
    let mut svc = WaveService::<u64>::new(base().initiators(vec![ProcId(0)])).unwrap();
    assert!(matches!(
        svc.submit(Request::new(ProcId(2), 0, AggregateKind::Ack)),
        Err(ServeError::UnknownInitiator { initiator: ProcId(2) })
    ));
}

/// A topology the 16-bit level register cannot span (`L_max ≥ N − 1`) is
/// a typed error from `WaveService::new`; the largest admitted one builds.
#[test]
fn topologies_beyond_the_level_register_are_rejected() {
    let spec = |s: &str| ServeConfig::new(Topology::parse(s).unwrap()).initiators(vec![ProcId(0)]);
    assert!(matches!(
        WaveService::<u64>::new(spec("chain:65537")),
        Err(ServeError::NetworkTooLarge { procs: 65_537, max: 65_536 })
    ));
    let svc = WaveService::<u64>::new(spec("chain:65536")).unwrap();
    assert_eq!(svc.graph().len(), 65_536);
}

/// Same seed ⇒ bit-identical deterministic report fields; different seed
/// ⇒ (with randomized daemons) different trajectories. One shard runs
/// the whole service on the calling thread; two run one shard there and
/// one on a spawned thread; four, one more than the initiators, build
/// three, since the deal would leave the fourth without a lane.
#[test]
fn reports_replay_deterministically_from_their_seed() {
    for shards in [1, 2, 4] {
        let scenario = |seed: u64| Scenario {
            topology: Topology::Torus { w: 3, h: 3 },
            initiators: spread_initiators(9, 3),
            shards,
            seed,
            daemon: ServeDaemon::CentralRandom,
            requests: 60,
            fault: Some((12, 6, seed)),
        };
        let run = |s: &Scenario| ServiceReport::capture(&run_scenario(s).unwrap(), s.fault);
        let a = run(&scenario(7));
        let b = run(&scenario(7));
        assert!(a.deterministic_eq(&b), "{shards} shards");
        assert!(a.summary.post_fault_total > 0, "{shards} shards: the campaign never fired");
        // Round-trip through the recorded envelope, then replay from the
        // reconstructed scenario — the `pif-serve check` path.
        let text = pif_serve::report::envelope(7, std::slice::from_ref(&a));
        let (_, parsed) = pif_serve::report::parse_envelope(&text).unwrap();
        let replayed = run(&parsed[0].scenario().unwrap());
        assert!(replayed.deterministic_eq(&a), "{shards} shards");
        let c = run(&scenario(8));
        assert!(!c.deterministic_eq(&a), "{shards} shards: different seeds should diverge");
    }
}

/// A closed loop (submit one request, run, repeat) has one busy shard
/// per call, which runs on the calling thread with the idle ones. Two
/// closed-loop runs of one seed, with campaigns scheduled between
/// requests, serve identically.
#[test]
fn closed_loop_runs_replay_deterministically() {
    let initiators = spread_initiators(9, 3);
    let serve = |shards: usize| {
        let config = ServeConfig::new(Topology::Torus { w: 3, h: 3 })
            .initiators(initiators.clone())
            .shards(shards)
            .seed(23)
            .daemon(ServeDaemon::CentralRandom);
        let mut svc = WaveService::<u64>::new(config).unwrap();
        for i in 0..60u64 {
            if i % 10 == 5 {
                svc.schedule_fault(FaultSpec {
                    after_completions: 0,
                    registers_per_lane: 4,
                    seed: 0xC105_ED00 ^ i,
                });
            }
            let k = i as usize;
            svc.submit(Request::new(initiators[k % 3], i, AggregateKind::ALL[k % 4])).unwrap();
            svc.run().unwrap();
        }
        svc
    };
    for shards in [1, 2, 4] {
        let (a, b) = (serve(shards), serve(shards));
        let (ra, rb) = (ServiceReport::capture(&a, None), ServiceReport::capture(&b, None));
        assert!(ra.deterministic_eq(&rb), "{shards} shards\na: {ra:?}\nb: {rb:?}");
        assert_eq!(a.phase_report(), b.phase_report(), "{shards} shards");
        let records = |s: &WaveService<u64>| s.ledger().records().collect::<Vec<_>>();
        assert_eq!(records(&a), records(&b), "{shards} shards");
        assert_eq!(ra.summary.total, 60, "{shards} shards");
        assert!(ra.summary.post_fault_total > 0, "{shards} shards: no campaign fired");
        a.ledger().assert_snap().unwrap();
    }
}

/// Both step engines serve the same scenario bit-identically: the `SoA`
/// backend must be observably indistinguishable from the `AoS` one all the
/// way up through lanes, shards, the ledger, and fault campaigns —
/// including on instances wider than one 64-bit word (chain:130, 12×12
/// torus), where the enabled index spans several words.
#[test]
fn soa_engine_serves_identically_to_aos() {
    for (topology, daemon, requests, fault) in [
        (Topology::Torus { w: 3, h: 3 }, ServeDaemon::Synchronous, 60, None),
        (
            Topology::Torus { w: 3, h: 3 },
            ServeDaemon::CentralRandom,
            60,
            Some((12u64, 6usize, 0x5EED_u64)),
        ),
        (Topology::Torus { w: 3, h: 3 }, ServeDaemon::DistributedRandom, 60, None),
        (Topology::Chain { n: 130 }, ServeDaemon::Synchronous, 24, None),
        (Topology::Torus { w: 12, h: 12 }, ServeDaemon::CentralRandom, 48, Some((12, 8, 0xC0FFEE))),
    ] {
        let n = topology.build().unwrap().len();
        let scenario = Scenario {
            topology,
            initiators: spread_initiators(n, 3),
            shards: 2,
            seed: 19,
            daemon,
            requests,
            fault,
        };
        let aos = run_scenario_on(&scenario, Engine::Aos).unwrap();
        let soa = run_scenario_on(&scenario, Engine::Soa).unwrap();
        let ra = ServiceReport::capture(&aos, scenario.fault);
        let rs = ServiceReport::capture(&soa, scenario.fault);
        let label = format!("{} {daemon:?}", scenario.topology);
        assert!(ra.deterministic_eq(&rs), "{label}: engines diverged\naos: {ra:?}\nsoa: {rs:?}");
        let records = |s: &WaveService<u64>| s.ledger().records().collect::<Vec<_>>();
        assert_eq!(records(&aos), records(&soa), "{label}");
        assert_eq!(aos.phase_report(), soa.phase_report(), "{label}");
        soa.ledger().assert_snap().unwrap();
        if fault.is_some() {
            assert!(rs.summary.post_fault_total > 0, "{label}: the campaign never fired");
        }
    }
}

/// Fault-free net transport: the serving contract is unchanged when
/// every lane runs over `pif_net::NetSim` instead of shared memory.
#[test]
fn net_transport_serves_cleanly_fault_free() {
    let scenario = Scenario {
        topology: Topology::Torus { w: 3, h: 3 },
        initiators: spread_initiators(9, 3),
        shards: 2,
        seed: 41,
        daemon: ServeDaemon::CentralRandom,
        requests: 60,
        fault: None,
    };
    let service = run_scenario_net(&scenario, NetLaneConfig::default()).unwrap();
    let summary = service.ledger().summary();
    assert_eq!(summary.total, 60);
    assert_eq!(summary.completed_ok, 60);
    assert!(summary.is_clean(), "{summary:?}");
}

/// Lossy net transport: drops, duplicates, reorders, and corrupt frames
/// on every link — every request must still complete correctly (the
/// heartbeat resend masks losses; CRC masks corruption), and same seed
/// must replay bit-identically.
#[test]
fn net_transport_serves_under_lossy_links_and_replays() {
    let plan = FaultPlan::fault_free()
        .drop_rate(0.10)
        .duplicate_rate(0.05)
        .reorder_rate(0.20)
        .corrupt_rate(0.02);
    let net = NetLaneConfig { plan, ..NetLaneConfig::default() };
    let scenario = Scenario {
        topology: Topology::Torus { w: 3, h: 3 },
        initiators: spread_initiators(9, 3),
        shards: 2,
        seed: 43,
        daemon: ServeDaemon::CentralRandom,
        requests: 40,
        fault: None,
    };
    let run = || ServiceReport::capture(&run_scenario_net(&scenario, net).unwrap(), None);
    let a = run();
    assert_eq!(a.summary.completed_ok, 40, "{:?}", a.summary);
    assert!(a.summary.is_clean(), "{:?}", a.summary);
    let b = run();
    assert!(a.deterministic_eq(&b), "lossy net runs must replay from the seed");
}

/// Register-corruption campaigns over the lossy transport: the snap
/// claim still holds for every post-fault wave.
#[test]
fn net_transport_register_faults_stay_snap() {
    let plan = FaultPlan::fault_free().drop_rate(0.05).reorder_rate(0.10);
    let net = NetLaneConfig { plan, ..NetLaneConfig::default() };
    let scenario = Scenario {
        topology: Topology::Torus { w: 3, h: 3 },
        initiators: spread_initiators(9, 3),
        shards: 2,
        seed: 47,
        daemon: ServeDaemon::CentralRandom,
        requests: 60,
        fault: Some((12, 8, 0xD00D)),
    };
    let service = run_scenario_net(&scenario, net).unwrap();
    let ledger = service.ledger();
    let summary = ledger.summary();
    assert_eq!(summary.total, 60);
    assert!(summary.post_fault_total > 0, "campaign never fired");
    ledger.assert_snap().unwrap();
}

/// An invalid fault plan surfaces as a typed `ServeError::Net` at
/// construction instead of a panic inside a worker.
#[test]
fn net_transport_invalid_plan_is_a_typed_error() {
    let net = NetLaneConfig {
        plan: FaultPlan::fault_free().drop_rate(1.5),
        ..NetLaneConfig::default()
    };
    let scenario = Scenario {
        topology: Topology::Chain { n: 4 },
        initiators: vec![ProcId(0)],
        shards: 1,
        seed: 1,
        daemon: ServeDaemon::CentralRandom,
        requests: 1,
        fault: None,
    };
    match run_scenario_net(&scenario, net) {
        Err(ServeError::Net(e)) => {
            assert!(e.to_string().contains("drop"), "unexpected net error: {e}");
        }
        other => panic!("expected ServeError::Net, got {other:?}"),
    }
}

/// The distributed-random daemon (a true distributed schedule) also
/// serves correctly.
#[test]
fn distributed_daemon_serves_correctly() {
    let scenario = Scenario {
        topology: Topology::Ring { n: 8 },
        initiators: vec![ProcId(0), ProcId(4)],
        shards: 2,
        seed: 31,
        daemon: ServeDaemon::DistributedRandom,
        requests: 40,
        fault: None,
    };
    let service = run_scenario(&scenario).unwrap();
    let summary = service.ledger().summary();
    assert_eq!(summary.completed_ok, 40);
    assert!(summary.is_clean());
}

/// The paper's concurrent-initiator setting at its extreme: every
/// processor of a ring initiates at once, one lane each on one shard,
/// and every wave satisfies the PIF specification on its own.
#[test]
fn every_processor_as_a_concurrent_initiator() {
    let initiators: Vec<ProcId> = (0..6).map(ProcId).collect();
    let config = ServeConfig::new(Topology::Ring { n: 6 })
        .initiators(initiators.clone())
        .daemon(ServeDaemon::CentralRandom)
        .seed(11);
    let mut svc = WaveService::new(config).unwrap();
    for &r in &initiators {
        svc.submit(Request::new(r, u64::from(r.0), AggregateKind::Ack)).unwrap();
    }
    svc.run().unwrap();
    let summary = svc.ledger().summary();
    assert_eq!(summary.completed_ok, 6);
    assert!(summary.is_clean());
}

/// Lanes own their register sets and daemons, so a lane's trajectory is
/// the same whether it runs alone or interleaved with other lanes on its
/// shard: interleaving must not leak across initiators.
#[test]
fn lanes_are_isolated_from_each_other() {
    let initiators = [ProcId(0), ProcId(5), ProcId(11)];
    let serve = |lanes: &[ProcId]| {
        let config = ServeConfig::new(Topology::Grid { w: 4, h: 3 })
            .initiators(lanes.to_vec())
            .daemon(ServeDaemon::CentralRandom)
            .seed(9);
        let mut svc = WaveService::new(config).unwrap();
        for &r in lanes {
            for i in 0..3 {
                svc.submit(Request::new(r, i, AggregateKind::Sum)).unwrap();
            }
        }
        svc.run().unwrap();
        let trajectory = |rec: &RequestRecord| {
            let outcome = format!("{:?}", rec.outcome);
            (rec.initiator, outcome, rec.cycle_steps, rec.cycle_rounds, rec.turnaround_steps)
        };
        svc.ledger().records().map(|rec| trajectory(&rec)).collect::<Vec<_>>()
    };
    let concurrent = serve(&initiators);
    assert_eq!(concurrent.len(), 9);
    for r in initiators {
        let alone = serve(&[r]);
        let mixed: Vec<_> = concurrent.iter().filter(|t| t.0 == r).cloned().collect();
        assert_eq!(mixed, alone, "initiator {r}: interleaving must not leak across lanes");
    }
}
