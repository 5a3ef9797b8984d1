//! Property-based tests of the protocol: the snap contract, the theorem
//! bounds, and the structural invariants — over random topologies, random
//! corruptions, and random schedules.

use pif_core::checker::check_first_wave;
use pif_core::protocol::{
    B_ACTION, B_CORRECTION, C_ACTION, COUNT_ACTION, FOK_ACTION, F_ACTION, F_CORRECTION,
};
use pif_core::wave::{UnitAggregate, WaveRunner};
use pif_core::{analysis, initial, Features, Phase, PifProtocol, PifState};
use pif_daemon::daemons::{CentralRandom, DistributedRandom, Synchronous};
use pif_daemon::{
    ActionId, ActionSet, Daemon, Observer, Protocol, Readers, RunLimits, Simulator, StepDelta, View,
};
use pif_graph::{generators, Graph, ProcId};
use pif_soa::kernel::ACTION_BITS;
use pif_soa::{GuardKernel, Packed, SoaConfig, SoaSimulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn limits() -> RunLimits {
    RunLimits::new(2_000_000, 400_000)
}

/// One recorded step: `(step index, round flag, executed moves with their
/// displaced old states, full pre-step configuration)`.
type RecordedDelta = (u64, bool, Vec<(ProcId, ActionId, PifState)>, Vec<PifState>);

/// Observer recording every [`StepDelta`] in full (executed pairs, the
/// displaced old states, the pre-step configuration, step index and round
/// flag) so two engines' delta streams can be compared verbatim.
#[derive(Default)]
struct RecordingObserver {
    deltas: Vec<RecordedDelta>,
}

impl Observer<PifProtocol> for RecordingObserver {
    fn needs_full_before(&self) -> bool {
        true // exercise the before-copy path on both engines
    }

    fn step(&mut self, _: &Graph, delta: &StepDelta<'_, PifProtocol>, _: &[PifState]) {
        let moves = delta.iter().map(|(p, a, s)| (p, a, *s)).collect();
        let before = delta.before().expect("needs_full_before was requested").to_vec();
        self.deltas.push((delta.step(), delta.round_completed(), moves, before));
    }
}

/// The seven guards composed literally from the public per-guard
/// functions, in guard order, with `fok_wave` gating `Fok-action` — the
/// oracle for the fused neighbor scan behind `enabled_actions`.
fn composed_guards(proto: &PifProtocol, view: View<'_, PifState>) -> ActionSet {
    [
        (B_ACTION, proto.broadcast_guard(view)),
        (FOK_ACTION, proto.features().fok_wave && proto.change_fok_guard(view)),
        (F_ACTION, proto.feedback_guard(view)),
        (C_ACTION, proto.cleaning_guard(view)),
        (COUNT_ACTION, proto.new_count_guard(view)),
        (B_CORRECTION, proto.b_correction_guard(view)),
        (F_CORRECTION, proto.f_correction_guard(view)),
    ]
    .into_iter()
    .filter_map(|(a, on)| on.then_some(a))
    .collect()
}

/// The ablation [`Features`] encoded by the low four bits of `bits`.
fn features_of(bits: u8) -> Features {
    Features {
        leaf_guard: bits & 1 != 0,
        fok_wave: bits & 2 != 0,
        chordless_potential: bits & 4 != 0,
        level_guard: bits & 8 != 0,
    }
}

/// A configuration with `phase`, `level`, `count` and `fok` drawn from
/// their register domains and `par` drawn from every processor —
/// non-neighbors and the processor itself included.
fn wild_config(proto: &PifProtocol, n: usize, rng: &mut StdRng) -> Vec<PifState> {
    (0..n)
        .map(|_| PifState {
            phase: Phase::ALL[rng.random_range(0..3usize)],
            par: ProcId::from_index(rng.random_range(0..n)),
            level: rng.random_range(1..=proto.l_max()),
            count: rng.random_range(1..=proto.n_prime()),
            fok: rng.random_bool(0.5),
        })
        .collect()
}

/// Compares, at every processor of `states`, the fused `enabled_actions`
/// with the per-guard composition and with `GuardKernel::mask`; tallies
/// each enabled action in `seen[is_root][action]`.
fn fused_guards_agree(
    proto: &PifProtocol,
    g: &Graph,
    states: &[PifState],
    seen: &mut [[u64; ACTION_BITS]; 2],
) -> Result<(), String> {
    let mut cfg = SoaConfig::new(g.len());
    cfg.load(states);
    let kernel = GuardKernel::new(proto, g);
    for p in g.procs() {
        let view = View::new(g, states, p);
        let fused = proto.enabled_actions(view);
        let composed = composed_guards(proto, view);
        let soa = ActionSet::from_bits(kernel.mask(&cfg, p.index()).into());
        if fused != composed || fused != soa {
            return Err(format!(
                "{p} under {:?}: fused {fused:?}, composed {composed:?}, kernel {soa:?} \
                 in {states:?}",
                proto.features()
            ));
        }
        for a in fused {
            seen[usize::from(p == proto.root())][a.index()] += 1;
        }
    }
    Ok(())
}

/// Draws `configs` wild configurations per topology and feature set — all
/// sixteen [`Features`] combinations on chain, ring, star, complete,
/// torus and random graphs — and checks the three guard evaluations
/// agree everywhere.
fn fused_guard_sweep(
    n: usize,
    root: usize,
    gseed: u64,
    cseed: u64,
    configs: usize,
    seen: &mut [[u64; ACTION_BITS]; 2],
) -> Result<(), String> {
    let graphs = [
        generators::chain(n).unwrap(),
        generators::ring(n.max(3)).unwrap(),
        generators::star(n).unwrap(),
        generators::complete(n).unwrap(),
        generators::torus(3, n.clamp(3, 4)).unwrap(),
        generators::random_connected(n, 0.35, gseed).unwrap(),
    ];
    let mut rng = StdRng::seed_from_u64(cseed);
    for g in &graphs {
        let root = ProcId::from_index(root % g.len());
        for bits in 0..16u8 {
            let proto = PifProtocol::new(root, g).with_features(features_of(bits));
            for _ in 0..configs {
                let states = wild_config(&proto, g.len(), &mut rng);
                fused_guards_agree(&proto, g, &states, seen)?;
            }
        }
    }
    Ok(())
}

/// The sweep reaches every action at the processor classes that can
/// enable it, so the oracle property below compares non-trivial masks.
#[test]
fn fused_guard_sweep_enables_every_action() {
    let mut seen = [[0u64; ACTION_BITS]; 2];
    for seed in 0..8u64 {
        fused_guard_sweep(2 + seed as usize % 6, seed as usize, seed, seed, 8, &mut seen).unwrap();
    }
    for a in [B_ACTION, F_ACTION, C_ACTION, COUNT_ACTION, B_CORRECTION] {
        assert!(seen[1][a.index()] > 0, "root never enabled {a}: {seen:?}");
    }
    for a in [B_ACTION, FOK_ACTION, F_ACTION, C_ACTION, COUNT_ACTION, B_CORRECTION, F_CORRECTION] {
        assert!(seen[0][a.index()] > 0, "non-root never enabled {a}: {seen:?}");
    }
}

/// A configuration shaped like a broadcast in progress: every non-root
/// processor names its BFS parent at a consistent level, most are in `B`
/// without `Fok`, and counters are small. `Count-action` is enabled at
/// many processors, next to the wave and correction actions of the rest.
fn broadcast_config(proto: &PifProtocol, g: &Graph, rng: &mut StdRng) -> Vec<PifState> {
    let root = proto.root();
    let mut par = vec![root; g.len()];
    let mut depth = vec![usize::MAX; g.len()];
    depth[root.index()] = 0;
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(q) = queue.pop_front() {
        for &r in g.neighbor_slice(q) {
            if depth[r.index()] == usize::MAX {
                depth[r.index()] = depth[q.index()] + 1;
                par[r.index()] = q;
                queue.push_back(r);
            }
        }
    }
    g.procs()
        .map(|p| PifState {
            phase: if rng.random_bool(0.8) { Phase::B } else { Phase::ALL[rng.random_range(0..3)] },
            par: par[p.index()],
            level: u16::try_from(depth[p.index()].max(1)).unwrap(),
            count: rng.random_range(1..=proto.n_prime().min(3)),
            fok: rng.random_bool(0.15),
        })
        .collect()
}

/// Executes every enabled action of every processor of `states`, one at
/// a time, and checks that each neighbor outside the readers
/// `PifProtocol::readers` names keeps its enabled set. Returns how many
/// narrowed moves it checked, and at how many the named reader's
/// enabled set did change.
fn readers_cover_changed_guards(
    proto: &PifProtocol,
    g: &Graph,
    states: &[PifState],
) -> Result<(u64, u64), String> {
    let enabled = |cfg: &[PifState], q: ProcId| proto.enabled_actions(View::new(g, cfg, q));
    let (mut narrowed, mut reader_changed) = (0, 0);
    let mut after = states.to_vec();
    for p in g.procs() {
        let view = View::new(g, states, p);
        for a in proto.enabled_actions(view) {
            let Readers::Only(reader) = proto.readers(p, &states[p.index()], a) else {
                continue;
            };
            narrowed += 1;
            after[p.index()] = proto.execute(view, a);
            for &q in g.neighbor_slice(p) {
                let (was, now) = (enabled(states, q), enabled(&after, q));
                if q == reader {
                    reader_changed += u64::from(was != now);
                } else if was != now {
                    return Err(format!(
                        "{a} at {p} (readers: {reader}) moved {q} from {was:?} to {now:?} \
                         under {:?} in {states:?}",
                        proto.features()
                    ));
                }
            }
            after[p.index()] = states[p.index()];
        }
    }
    Ok((narrowed, reader_changed))
}

/// Runs [`readers_cover_changed_guards`] on chain, ring, torus, complete
/// and random graphs under all sixteen [`Features`] combinations, over
/// `configs` wild and `configs` broadcast-shaped configurations each.
fn readers_sweep(
    n: usize,
    root: usize,
    gseed: u64,
    cseed: u64,
    configs: usize,
) -> Result<(u64, u64), String> {
    let graphs = [
        generators::chain(n).unwrap(),
        generators::ring(n.max(3)).unwrap(),
        generators::torus(3, n.clamp(3, 5)).unwrap(),
        generators::complete(n).unwrap(),
        generators::random_connected(n, 0.35, gseed).unwrap(),
    ];
    let mut rng = StdRng::seed_from_u64(cseed);
    let mut total = (0, 0);
    for g in &graphs {
        let root = ProcId::from_index(root % g.len());
        for bits in 0..16u8 {
            let proto = PifProtocol::new(root, g).with_features(features_of(bits));
            for _ in 0..configs {
                for states in
                    [wild_config(&proto, g.len(), &mut rng), broadcast_config(&proto, g, &mut rng)]
                {
                    let (narrowed, changed) = readers_cover_changed_guards(&proto, g, &states)?;
                    total.0 += narrowed;
                    total.1 += changed;
                }
            }
        }
    }
    Ok(total)
}

/// The sweep checks narrowed moves, and at some of them the one reader
/// the protocol names does change its enabled set, so a narrowing that
/// dropped it would be caught.
#[test]
fn readers_sweep_checks_moves_whose_reader_changes() {
    let (mut narrowed, mut changed) = (0, 0);
    for seed in 0..6u64 {
        let (a, b) = readers_sweep(3 + seed as usize % 6, seed as usize, seed, seed, 4).unwrap();
        narrowed += a;
        changed += b;
    }
    assert!(narrowed > 1_000, "only {narrowed} narrowed moves checked");
    assert!(changed > 100, "the named reader changed at only {changed} of {narrowed} moves");
}

/// `PifProtocol` counting its guard evaluations, with `readers` either
/// its own or the trait default.
struct Counted {
    inner: PifProtocol,
    narrow: bool,
    evaluations: std::cell::Cell<u64>,
}

impl Protocol for Counted {
    type State = PifState;

    fn action_names(&self) -> &'static [&'static str] {
        self.inner.action_names()
    }

    fn enabled_actions(&self, view: View<'_, PifState>) -> ActionSet {
        self.evaluations.set(self.evaluations.get() + 1);
        self.inner.enabled_actions(view)
    }

    fn execute(&self, view: View<'_, PifState>, action: ActionId) -> PifState {
        self.inner.execute(view, action)
    }

    fn readers(&self, p: ProcId, before: &PifState, action: ActionId) -> Readers {
        if self.narrow {
            self.inner.readers(p, before, action)
        } else {
            Readers::Neighbors
        }
    }
}

/// On torus:32x32 under the central random daemon, with a corruption of
/// eight processors halfway, the narrowed dirty set runs the same
/// execution as the full neighborhood and evaluates fewer guards per
/// step. Prints both counts (run with `--nocapture`).
#[test]
fn narrowed_readers_run_the_same_execution_with_fewer_guard_evaluations() {
    let g = generators::torus(32, 32).unwrap();
    let inner = PifProtocol::new(ProcId(0), &g);
    let mut rng = StdRng::seed_from_u64(0xC0FF);
    let corruption: Vec<(ProcId, PifState)> = (0..8)
        .map(|_| {
            let p = ProcId::from_index(rng.random_range(1..g.len()));
            (p, initial::random_config(&g, &inner, rng.random_range(0..u64::MAX))[p.index()])
        })
        .collect();
    let run = |narrow: bool| {
        let protocol = Counted { inner: inner.clone(), narrow, evaluations: 0.into() };
        let mut sim = Simulator::new(g.clone(), protocol, initial::normal_starting(&g));
        let mut daemon = CentralRandom::new(0xD1E);
        let (mut evaluations, mut steps, mut executed) = (0u64, 0u64, Vec::new());
        for half in 0..2 {
            if half == 1 {
                sim.corrupt_many(&corruption);
            }
            for _ in 0..10_000 {
                let before = sim.protocol().evaluations.get();
                steps += sim.step(&mut daemon).unwrap().executed as u64;
                evaluations += sim.protocol().evaluations.get() - before;
                executed.extend_from_slice(sim.last_executed());
            }
        }
        (evaluations as f64 / steps as f64, executed, sim.states().to_vec())
    };
    let (full, full_moves, full_end) = run(false);
    let (narrowed, narrowed_moves, narrowed_end) = run(true);
    assert_eq!(narrowed_moves, full_moves, "the executions diverge");
    assert_eq!(narrowed_end, full_end);
    eprintln!("guard evaluations per torus:32x32 step: {full:.2} -> {narrowed:.2}");
    assert!((full - 5.0).abs() < 1e-9, "a central step on a torus evaluates 1 + 4 guards");
    assert!(narrowed < 4.5, "narrowed readers evaluated {narrowed:.2} guards a step");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `PifProtocol::readers` names every neighbor a move can disable or
    /// enable: executing any enabled action of any processor leaves the
    /// enabled set of every other neighbor unchanged, on chain, ring,
    /// torus, complete and random graphs, under all sixteen ablation
    /// [`Features`] combinations, from wild and broadcast-shaped
    /// configurations.
    #[test]
    fn narrowed_readers_cover_every_guard_a_move_changes(
        n in 3usize..10,
        root in 0usize..10,
        gseed in any::<u64>(),
        cseed in any::<u64>(),
    ) {
        let res = readers_sweep(n, root, gseed, cseed, 2);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }

    /// The fused one-pass `enabled_actions` equals the literal
    /// composition of the per-guard functions and the SoA kernel's mask,
    /// at root and non-root processors, on arbitrary configurations
    /// (`par` ranging over non-neighbors and the processor itself), under
    /// all sixteen ablation [`Features`] combinations.
    #[test]
    fn fused_guards_match_composition_and_kernel(
        n in 2usize..10,
        root in 0usize..10,
        gseed in any::<u64>(),
        cseed in any::<u64>(),
    ) {
        let mut seen = [[0u64; ACTION_BITS]; 2];
        let res = fused_guard_sweep(n, root, gseed, cseed, 4, &mut seen);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }

    /// THE property: from any configuration, under a random daemon, the
    /// first wave satisfies the PIF specification.
    #[test]
    fn snap_stabilization_holds(
        n in 2usize..14,
        p in 0.0f64..0.4,
        gseed in any::<u64>(),
        cseed in any::<u64>(),
        dseed in any::<u64>(),
        root in 0usize..14,
    ) {
        let g = generators::random_connected(n, p, gseed).unwrap();
        let root = ProcId((root % n) as u32);
        let protocol = PifProtocol::new(root, &g);
        let init = initial::random_config(&g, &protocol, cseed);
        let mut daemon = CentralRandom::new(dseed);
        let report = check_first_wave(g, protocol, init, &mut daemon, limits()).unwrap();
        prop_assert!(report.holds(), "missed: {:?}", report.missed);
    }

    /// Theorem 4: cycle rounds from SBN within 5h + 5, any random daemon.
    #[test]
    fn cycle_bound_holds(
        n in 2usize..16,
        p in 0.0f64..0.4,
        gseed in any::<u64>(),
        dseed in any::<u64>(),
        prob in 0.1f64..1.0,
    ) {
        let g = generators::random_connected(n, p, gseed).unwrap();
        let protocol = PifProtocol::new(ProcId(0), &g);
        let mut runner = WaveRunner::new(g, protocol, UnitAggregate);
        let mut daemon = DistributedRandom::new(prob, dseed);
        let out = runner.run_cycle_limited(1u8, &mut daemon, limits()).unwrap();
        prop_assert!(out.satisfies_spec());
        let h = u64::from(out.height);
        prop_assert!(out.cycle_rounds <= 5 * h + 5, "{} > {}", out.cycle_rounds, 5 * h + 5);
    }

    /// Theorem 1: all processors normal within 3·Lmax + 3 rounds.
    #[test]
    fn recovery_bound_holds(
        n in 2usize..12,
        p in 0.0f64..0.4,
        gseed in any::<u64>(),
        cseed in any::<u64>(),
    ) {
        let g = generators::random_connected(n, p, gseed).unwrap();
        let protocol = PifProtocol::new(ProcId(0), &g);
        let init = initial::random_config(&g, &protocol, cseed);
        let mut sim = Simulator::new(g.clone(), protocol.clone(), init);
        let proto = protocol.clone();
        let graph = g.clone();
        let mut recovered = move |s: &Simulator<PifProtocol>| {
            analysis::abnormal_procs(&proto, &graph, s.states()).is_empty()
        };
        let stats = sim
            .run(
                &mut Synchronous::first_action(),
                &mut pif_daemon::NoOpObserver,
                pif_daemon::StopPolicy::Predicate(limits(), &mut recovered),
            )
            .unwrap();
        let bound = 3 * u64::from(protocol.l_max()) + 3;
        prop_assert!(stats.rounds <= bound, "{} > {}", stats.rounds, bound);
    }

    /// Property 1 holds in every configuration reachable OR arbitrary.
    #[test]
    fn property1_is_universal(
        n in 2usize..12,
        p in 0.0f64..0.4,
        gseed in any::<u64>(),
        cseed in any::<u64>(),
        steps in 0usize..60,
        dseed in any::<u64>(),
    ) {
        let g = generators::random_connected(n, p, gseed).unwrap();
        let protocol = PifProtocol::new(ProcId(0), &g);
        let init = initial::random_config(&g, &protocol, cseed);
        let mut sim = Simulator::new(g.clone(), protocol.clone(), init);
        let mut daemon = CentralRandom::new(dseed);
        for _ in 0..steps {
            if sim.is_terminal() {
                break;
            }
            sim.step(&mut daemon).unwrap();
            prop_assert!(analysis::property1_holds(&protocol, &g, sim.states()));
        }
    }

    /// Cleaning always returns the system to the normal starting
    /// configuration, and the classifier agrees.
    #[test]
    fn cleaning_restores_sbn(
        n in 2usize..12,
        p in 0.0f64..0.4,
        gseed in any::<u64>(),
        dseed in any::<u64>(),
    ) {
        let g = generators::random_connected(n, p, gseed).unwrap();
        let protocol = PifProtocol::new(ProcId(0), &g);
        let init = initial::normal_starting(&g);
        let mut sim = Simulator::new(g.clone(), protocol.clone(), init);
        let mut daemon = CentralRandom::new(dseed);
        let mut cycled = |s: &Simulator<PifProtocol>| {
            s.steps() > 0 && initial::is_normal_starting(s.states())
        };
        let stats = sim
            .run(
                &mut daemon,
                &mut pif_daemon::NoOpObserver,
                pif_daemon::StopPolicy::Predicate(limits(), &mut cycled),
            )
            .unwrap();
        prop_assert!(stats.steps > 0);
        let summary = analysis::classify(&protocol, &g, sim.states());
        prop_assert!(summary.is(analysis::ConfigClass::StartBroadcastNormal));
    }

    /// The simulator's incremental enabled-set bookkeeping (dirty-set
    /// recompute over executed processors and their neighborhoods, plus
    /// the sparse change feed driving round accounting) is observationally
    /// equivalent to recomputing everything from scratch: after every
    /// step, a fresh `Simulator` built from the current configuration
    /// must agree on the enabled processors and their enabled actions,
    /// and a naive full-scan round counter must agree on completed
    /// rounds.
    #[test]
    fn incremental_enabled_bookkeeping_matches_full_recompute(
        n in 2usize..12,
        p in 0.0f64..0.4,
        gseed in any::<u64>(),
        cseed in any::<u64>(),
        dseed in any::<u64>(),
        prob in 0.1f64..1.0,
        steps in 1usize..80,
    ) {
        let g = generators::random_connected(n, p, gseed).unwrap();
        let protocol = PifProtocol::new(ProcId(0), &g);
        let init = initial::random_config(&g, &protocol, cseed);
        let mut sim = Simulator::new(g.clone(), protocol.clone(), init);
        let mut daemon = DistributedRandom::new(prob, dseed);

        // Naive reference for Dolev-Israeli-Moran rounds: full enabled
        // scan per step, no sparse changes.
        let mut ref_pending: std::collections::HashSet<ProcId> =
            sim.enabled_procs().collect();
        let mut ref_rounds = 0u64;

        for _ in 0..steps {
            if sim.is_terminal() {
                break;
            }
            sim.step(&mut daemon).unwrap();

            // Enabled-set equivalence against a from-scratch simulator.
            let fresh = Simulator::new(g.clone(), protocol.clone(), sim.states().to_vec());
            prop_assert_eq!(
                sim.enabled_procs().collect::<Vec<_>>(),
                fresh.enabled_procs().collect::<Vec<_>>()
            );
            for q in g.procs() {
                prop_assert_eq!(
                    sim.enabled_actions(q),
                    fresh.enabled_actions(q),
                    "enabled actions diverge at {}",
                    q
                );
            }

            // Round equivalence: a processor leaves the pending set by
            // executing or by becoming disabled (the disable action).
            let now_enabled: std::collections::HashSet<ProcId> =
                sim.enabled_procs().collect();
            for &(q, _) in sim.last_executed() {
                ref_pending.remove(&q);
            }
            ref_pending.retain(|q| now_enabled.contains(q));
            if ref_pending.is_empty() {
                ref_rounds += 1;
                ref_pending = now_enabled;
            }
            prop_assert_eq!(sim.rounds(), ref_rounds);
        }
    }

    /// The SoA engine is observationally equivalent to the AoS engine:
    /// stepping both under identical daemons from the same arbitrary
    /// configuration yields the same step reports, the same [`StepDelta`]
    /// stream (moves, displaced states, pre-step configurations, round
    /// flags), the same final configuration, enabled sets and round count
    /// — across chain/torus/random topologies at n ∈ {16, 64, 256} and
    /// all three daemon families.
    #[test]
    fn soa_engine_matches_aos_engine(
        topo in 0usize..3,
        size_sel in 0usize..3,
        cseed in any::<u64>(),
        dseed in any::<u64>(),
        daemon_kind in 0usize..3,
        prob in 0.1f64..1.0,
        steps in 1usize..120,
    ) {
        let n = [16usize, 64, 256][size_sel];
        let g = match topo {
            0 => generators::chain(n).unwrap(),
            1 => {
                let side = [4usize, 8, 16][size_sel];
                generators::torus(side, side).unwrap()
            }
            _ => generators::random_connected(n, 0.05, cseed ^ 0x6EAF).unwrap(),
        };
        let protocol = PifProtocol::new(ProcId(0), &g);
        let init = initial::random_config(&g, &protocol, cseed);
        let mut aos = Simulator::new(g.clone(), protocol.clone(), init.clone());
        let mut soa = SoaSimulator::with_store(g.clone(), protocol, Packed::new(init));
        aos.set_validation(true);
        soa.set_validation(true);
        let mk = || -> Box<dyn Daemon<PifState>> {
            match daemon_kind {
                0 => Box::new(Synchronous::first_action()),
                1 => Box::new(CentralRandom::new(dseed)),
                _ => Box::new(DistributedRandom::new(prob, dseed)),
            }
        };
        let (mut d_aos, mut d_soa) = (mk(), mk());
        let mut o_aos = RecordingObserver::default();
        let mut o_soa = RecordingObserver::default();
        for _ in 0..steps {
            if aos.is_terminal() {
                prop_assert!(soa.is_terminal());
                break;
            }
            let ra = aos.step_observed(&mut *d_aos, &mut o_aos).unwrap();
            let rs = soa.step_observed(&mut *d_soa, &mut o_soa).unwrap();
            prop_assert_eq!(ra, rs);
        }
        prop_assert_eq!(aos.states(), soa.states());
        prop_assert_eq!(
            aos.enabled_procs().collect::<Vec<_>>(),
            soa.enabled_procs().collect::<Vec<_>>()
        );
        for q in g.procs() {
            prop_assert_eq!(aos.enabled_actions(q), soa.enabled_actions(q));
        }
        prop_assert_eq!(aos.steps(), soa.steps());
        prop_assert_eq!(aos.rounds(), soa.rounds());
        prop_assert_eq!(aos.last_executed(), soa.last_executed());
        prop_assert_eq!(o_aos.deltas.len(), o_soa.deltas.len());
        for (da, ds) in o_aos.deltas.iter().zip(&o_soa.deltas) {
            prop_assert_eq!(da, ds);
        }
    }

    /// `Simulator::step_sync` on the generic store equals one step under
    /// `Synchronous::first_action`, step after step, from arbitrary
    /// configurations of the paper's protocol.
    #[test]
    fn step_sync_equals_a_synchronous_first_action_step(
        n in 2usize..24,
        p in 0.0f64..0.4,
        gseed in any::<u64>(),
        cseed in any::<u64>(),
        steps in 1usize..150,
    ) {
        let g = generators::random_connected(n, p, gseed).unwrap();
        let protocol = PifProtocol::new(ProcId(0), &g);
        let init = initial::random_config(&g, &protocol, cseed);
        let mut by_daemon = Simulator::new(g.clone(), protocol.clone(), init.clone());
        let mut fast = Simulator::new(g, protocol, init);
        let mut daemon = Synchronous::first_action();
        for _ in 0..steps {
            if by_daemon.is_terminal() {
                break;
            }
            let want = by_daemon.step(&mut daemon).unwrap();
            prop_assert_eq!(fast.step_sync(), want);
            prop_assert_eq!(fast.last_executed(), by_daemon.last_executed());
            prop_assert_eq!(fast.states(), by_daemon.states());
            prop_assert_eq!(
                fast.enabled_procs().collect::<Vec<_>>(),
                by_daemon.enabled_procs().collect::<Vec<_>>()
            );
            prop_assert_eq!(fast.rounds(), by_daemon.rounds());
        }
    }

    /// The feedback value aggregated over the dynamic tree is independent
    /// of daemon, seed and tree shape.
    #[test]
    fn aggregation_is_schedule_independent(
        n in 2usize..12,
        p in 0.0f64..0.4,
        gseed in any::<u64>(),
        dseed in any::<u64>(),
    ) {
        let g = generators::random_connected(n, p, gseed).unwrap();
        let protocol = PifProtocol::new(ProcId(0), &g);
        let values: Vec<i64> = (0..n as i64).map(|i| i * 3 - 7).collect();
        let expected: i64 = values.iter().sum();
        let mut runner = WaveRunner::new(
            g,
            protocol,
            pif_core::wave::SumAggregate::new(values),
        );
        let mut daemon = CentralRandom::new(dseed);
        let out = runner.run_cycle_limited(1u8, &mut daemon, limits()).unwrap();
        prop_assert_eq!(out.feedback, Some(expected));
    }
}
