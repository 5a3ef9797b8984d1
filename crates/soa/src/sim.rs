//! The `SoA` register store: PIF's registers packed into bit planes,
//! stepped by the one simulator loop in `pif_daemon` ([`SoaSimulator`] is
//! `Simulator<PifProtocol, Packed>`).
//!
//! Guard bookkeeping is two-tier:
//!
//! * **Whole-network evaluation** (construction, `set_states`,
//!   `corrupt_many`) runs word-parallel: two scatter passes build
//!   `claimed` and `pre-potential` planes, then plain word algebra
//!   (`pre_pot & !claimed & !b & !f`) settles every clean processor's mask
//!   64 at a time — a clean non-root processor can only ever enable
//!   `B-action`, and is unconditionally `Normal`, so one AND/OR chain *is*
//!   its guard evaluation. Only participating processors (`Pif ∈ {B, F}`)
//!   and the root fall back to the scalar kernel; the per-spreader
//!   `L_q < L_max` test is the one scalar comparison in the scatter pass.
//! * **Per-step evaluation** re-runs the scalar kernel only over the dirty
//!   set the simulator hands over (executed processors and their
//!   neighbors), building one [`GuardKernel`] per step.
//!
//! Either way a mask is written straight into the simulator's
//! [`ActionSet`] of the processor: the store keeps no copy of its own.

use pif_core::{PifProtocol, PifState};
use pif_daemon::{ActionId, ActionSet, RegisterStore, Simulator};
use pif_graph::{Graph, ProcId};

use crate::config::SoaConfig;
use crate::kernel::GuardKernel;

/// The PIF simulator over the packed store, built with
/// [`Simulator::with_store`] and [`Packed::new`]. Its executions equal
/// `Simulator<PifProtocol>`'s as long as [`Packed`] evaluates guards and
/// actions exactly as [`PifProtocol`] does (the differential tests pin
/// that).
pub type SoaSimulator = Simulator<PifProtocol, Packed>;

/// PIF's registers in packed planes.
#[derive(Clone, Debug)]
pub struct Packed {
    /// The packed configuration (source of truth for guard evaluation).
    cfg: SoaConfig,
    /// Array-of-structs mirror, kept in lockstep per written processor so
    /// [`RegisterStore::states`] and the daemon snapshot are zero-cost.
    mirror: Vec<PifState>,
    /// Scatter plane: some participating non-root neighbor claims `p` as
    /// parent (violates `Leaf(p)`).
    plane_claimed: Vec<u64>,
    /// Scatter plane: `Pre_Potential_p ≠ ∅`.
    plane_prepot: Vec<u64>,
}

impl Packed {
    /// Packs an initial configuration. The guards are evaluated when a
    /// simulator is built over the store.
    pub fn new(init: Vec<PifState>) -> Self {
        let n = init.len();
        let words = crate::config::word_count(n);
        let mut cfg = SoaConfig::new(n);
        cfg.load(&init);
        Packed {
            cfg,
            mirror: init,
            plane_claimed: vec![0; words],
            plane_prepot: vec![0; words],
        }
    }

    /// The packed configuration planes.
    #[inline]
    pub fn config(&self) -> &SoaConfig {
        &self.cfg
    }
}

impl RegisterStore<PifProtocol> for Packed {
    #[inline]
    fn states(&self) -> &[PifState] {
        &self.mirror
    }

    fn load(&mut self, states: Vec<PifState>) {
        self.cfg.load(&states);
        self.mirror = states;
    }

    #[inline]
    fn replace(&mut self, p: ProcId, state: PifState) -> PifState {
        self.cfg.set_state_tags(p.index(), &state);
        std::mem::replace(&mut self.mirror[p.index()], state)
    }

    fn execute(
        &self,
        graph: &Graph,
        protocol: &PifProtocol,
        selection: &[(ProcId, ActionId)],
        out: &mut Vec<PifState>,
    ) {
        let kernel = GuardKernel::new(protocol, graph);
        for &(p, a) in selection {
            out.push(kernel.execute(&self.cfg, p.index(), a));
        }
    }

    fn refresh(
        &mut self,
        graph: &Graph,
        protocol: &PifProtocol,
        dirty: &[ProcId],
        enabled: &mut [ActionSet],
        changes: &mut Vec<(ProcId, bool)>,
    ) {
        let kernel = GuardKernel::new(protocol, graph);
        for &p in dirty {
            let now = ActionSet::from_bits(kernel.mask(&self.cfg, p.index()).into());
            if std::mem::replace(&mut enabled[p.index()], now).is_empty() != now.is_empty() {
                changes.push((p, !now.is_empty()));
            }
        }
    }

    /// Whole-network guard evaluation, word-parallel (see the module docs):
    /// scatter `claimed` and `pre-potential` planes, settle every clean
    /// non-root processor with word algebra, run the scalar kernel over
    /// participants and the root only.
    fn refresh_all(&mut self, graph: &Graph, protocol: &PifProtocol, enabled: &mut [ActionSet]) {
        let Packed { cfg, plane_claimed, plane_prepot, .. } = self;
        cfg.sync_planes();
        let kernel = GuardKernel::new(protocol, graph);
        let n = graph.len();
        let root = kernel.root_index();
        let l_max = kernel.l_max();
        let leaf_guard = kernel.features().leaf_guard;
        plane_claimed.fill(0);
        plane_prepot.fill(0);

        // Scatter pass over participating processors. The `L_q < L_max`
        // spreader test and the adjacency check on the claim (a corrupted
        // `Par` naming a non-neighbor is invisible to neighbor-scanning
        // guards, so it must be invisible here too) are the scalar
        // fallbacks; everything downstream is word algebra.
        for q in 0..n {
            let qb = cfg.is_b(q);
            if !qb && !cfg.is_f(q) {
                continue;
            }
            let par = cfg.par(q);
            if q != root
                && par < n
                && graph.has_edge(ProcId::from_index(q), ProcId::from_index(par))
            {
                plane_claimed[par / 64] |= 1 << (par % 64);
            }
            if qb && !cfg.is_fok(q) && kernel.level_of(cfg, q) < l_max {
                for &r in graph.neighbor_slice(ProcId::from_index(q)) {
                    let ri = r.index();
                    if !(par == ri && q != root) {
                        plane_prepot[ri / 64] |= 1 << (ri % 64);
                    }
                }
            }
        }

        // Word algebra: a clean non-root processor is unconditionally
        // Normal and can only enable B-action, whose guard is
        // Leaf ∧ Pre_Potential ≠ ∅ — pure plane arithmetic. Participants
        // and the root take the scalar kernel.
        let b_words = cfg.b_words();
        let f_words = cfg.f_words();
        for wi in 0..plane_claimed.len() {
            let lo = wi * 64;
            let valid = if n - lo >= 64 { !0u64 } else { (1u64 << (n - lo)) - 1 };
            let mut scalar = (b_words[wi] | f_words[wi]) & valid;
            if root / 64 == wi {
                scalar |= 1 << (root % 64);
            }
            let leaf_ok = if leaf_guard { !plane_claimed[wi] } else { !0u64 };
            let b_enable = plane_prepot[wi] & leaf_ok & valid & !scalar;

            let mut quiet = valid & !scalar;
            while quiet != 0 {
                let bit = quiet.trailing_zeros() as usize;
                enabled[lo + bit] = ActionSet::from_bits((b_enable >> bit & 1) as u32);
                quiet &= quiet - 1;
            }
            let mut hard = scalar;
            while hard != 0 {
                let bit = hard.trailing_zeros() as usize;
                enabled[lo + bit] = ActionSet::from_bits(kernel.mask(cfg, lo + bit).into());
                hard &= hard - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_core::initial;
    use pif_daemon::daemons::{AdversarialLifo, CentralRandom, DistributedRandom, Synchronous};
    use pif_daemon::{Daemon, EnabledSet, SimError};
    use pif_graph::generators;

    fn both(g: &Graph, seed: u64) -> (Simulator<PifProtocol>, SoaSimulator) {
        let proto = PifProtocol::new(ProcId(0), g);
        let init = initial::random_config(g, &proto, seed);
        (
            Simulator::new(g.clone(), proto.clone(), init.clone()),
            SoaSimulator::with_store(g.clone(), proto, Packed::new(init)),
        )
    }

    fn assert_agree(aos: &Simulator<PifProtocol>, soa: &SoaSimulator) {
        assert_eq!(aos.states(), soa.states());
        assert_eq!(
            aos.enabled_procs().collect::<Vec<_>>(),
            soa.enabled_procs().collect::<Vec<_>>()
        );
        for p in aos.graph().procs() {
            assert_eq!(aos.enabled_actions(p), soa.enabled_actions(p), "actions diverge at {p}");
        }
        assert_eq!(aos.steps(), soa.steps());
        assert_eq!(aos.rounds(), soa.rounds());
        assert_eq!(aos.is_terminal(), soa.is_terminal());
        assert_eq!(aos.last_executed(), soa.last_executed());
    }

    #[test]
    fn full_recompute_matches_aos_bookkeeping() {
        for seed in 0..60u64 {
            let g = generators::random_connected(12, 0.3, seed).unwrap();
            let (aos, soa) = both(&g, seed ^ 0xABCD);
            assert_agree(&aos, &soa);
        }
    }

    #[test]
    fn word_algebra_matches_scalar_kernel_mask_for_mask() {
        // The word-parallel whole-network evaluation must equal per-
        // processor kernel evaluation — including partial last words.
        for n in [63, 64, 65, 70] {
            let g = generators::ring(n).unwrap();
            let proto = PifProtocol::new(ProcId(0), &g);
            for seed in 0..20u64 {
                let init = initial::random_config(&g, &proto, seed);
                let soa = SoaSimulator::with_store(g.clone(), proto.clone(), Packed::new(init));
                let kernel = GuardKernel::new(&proto, &g);
                for p in 0..n {
                    assert_eq!(
                        soa.enabled_actions(ProcId::from_index(p)),
                        ActionSet::from_bits(kernel.mask(soa.store().config(), p).into()),
                        "mask diverges at p{p} (n={n}, seed={seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn central_random_runs_in_lockstep_with_aos() {
        let g = generators::torus(4, 4).unwrap();
        let (mut aos, mut soa) = both(&g, 99);
        let mut d_aos = CentralRandom::new(7);
        let mut d_soa = CentralRandom::new(7);
        aos.set_validation(true);
        soa.set_validation(true);
        for _ in 0..400 {
            if aos.is_terminal() {
                break;
            }
            let ra = aos.step(&mut d_aos).unwrap();
            let rs = soa.step(&mut d_soa).unwrap();
            assert_eq!(ra, rs);
            assert_agree(&aos, &soa);
        }
    }

    /// Asserts that `sim`'s enabled list, count, rank select and
    /// per-processor enabled sets equal those of `fresh`.
    fn matches_fresh<S: RegisterStore<PifProtocol>>(
        sim: &Simulator<PifProtocol, S>,
        fresh: &Simulator<PifProtocol, S>,
        at: &str,
    ) {
        let procs: Vec<ProcId> = sim.enabled_procs().collect();
        assert_eq!(procs, fresh.enabled_procs().collect::<Vec<_>>(), "{at}: enabled list");
        assert_eq!(sim.enabled_count(), procs.len(), "{at}: count");
        for (rank, &p) in procs.iter().enumerate() {
            assert_eq!(sim.nth_enabled(rank), p, "{at}: rank {rank}");
        }
        for p in sim.graph().procs() {
            assert_eq!(sim.enabled_actions(p), fresh.enabled_actions(p), "{at}: {p}");
        }
    }

    #[test]
    fn multi_word_enabled_lists_match_a_full_rebuild_every_step() {
        // torus:24x24 spans nine bitset words and two 512-processor blocks
        // of the enabled index. After every step, each store's enabled
        // list, count, rank select and per-processor enabled sets must
        // equal those of a simulator freshly built on the same store from
        // the current configuration: a dirty set that missed a processor
        // whose guards changed shows up here, on both stores at once
        // (the AoS/SoA lockstep alone cannot see it, since both engines
        // run the same step loop).
        let g = generators::torus(24, 24).unwrap();
        let daemon = |name: &str| -> Box<dyn Daemon<PifState>> {
            match name {
                "synchronous" => Box::new(Synchronous::first_action()),
                "central-random" => Box::new(CentralRandom::new(12)),
                "distributed-random" => Box::new(DistributedRandom::new(0.3, 12)),
                _ => Box::new(AdversarialLifo::new(4 * 576, 12)),
            }
        };
        for name in ["synchronous", "central-random", "distributed-random", "adversarial-lifo"] {
            let (mut d_aos, mut d_soa) = (daemon(name), daemon(name));
            let (mut aos, mut soa) = both(&g, 0x12);
            for step in 0..1_500 {
                if aos.is_terminal() {
                    break;
                }
                assert_eq!(aos.step(&mut *d_aos).unwrap(), soa.step(&mut *d_soa).unwrap());
                assert_agree(&aos, &soa);
                let at = format!("{name}, step {step}");
                let protocol = aos.protocol().clone();
                let fresh = Simulator::new(g.clone(), protocol.clone(), aos.states().to_vec());
                matches_fresh(&aos, &fresh, &format!("{at}, generic store"));
                let fresh = SoaSimulator::with_store(
                    g.clone(),
                    protocol,
                    Packed::new(soa.states().to_vec()),
                );
                matches_fresh(&soa, &fresh, &format!("{at}, SoA store"));
            }
        }
    }

    #[test]
    fn step_sync_equals_synchronous_first_action() {
        let g = generators::torus(3, 3).unwrap();
        let (mut aos, mut soa) = both(&g, 4242);
        let mut d = Synchronous::first_action();
        for _ in 0..200 {
            if aos.is_terminal() {
                break;
            }
            let ra = aos.step(&mut d).unwrap();
            let rs = soa.step_sync();
            assert_eq!(ra, rs);
            assert_agree(&aos, &soa);
        }
    }

    #[test]
    fn corrupt_many_matches_aos_reset() {
        let g = generators::chain(8).unwrap();
        let (mut aos, mut soa) = both(&g, 5);
        let mut d = Synchronous::first_action();
        for _ in 0..10 {
            aos.step(&mut d).unwrap();
            soa.step_sync();
        }
        let proto = aos.protocol().clone();
        let mut copy = aos.states().to_vec();
        initial::corrupt_registers(&mut copy, &g, &proto, 4, 0xFEED);
        let corruptions: Vec<(ProcId, PifState)> = g
            .procs()
            .filter(|p| copy[p.index()] != aos.states()[p.index()])
            .map(|p| (p, copy[p.index()]))
            .collect();
        aos.corrupt_many(&corruptions);
        soa.corrupt_many(&corruptions);
        // Steps differ is fine (both kept their counters); bookkeeping and
        // round restart must agree.
        assert_eq!(aos.states(), soa.states());
        assert_eq!(
            aos.enabled_procs().collect::<Vec<_>>(),
            soa.enabled_procs().collect::<Vec<_>>()
        );
        assert_eq!(aos.rounds(), soa.rounds());
    }

    #[test]
    fn terminal_step_is_noop() {
        // Wrong root N stalls the wave into a terminal configuration.
        let g = generators::chain(3).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g).with_n_prime(5).with_root_n(5);
        let init = initial::normal_starting(&g);
        let mut soa = SoaSimulator::with_store(g, proto, Packed::new(init));
        while !soa.is_terminal() {
            soa.step_sync();
        }
        let steps = soa.steps();
        let rep = soa.step_sync();
        assert!(rep.terminal);
        assert_eq!(rep.executed, 0);
        assert_eq!(soa.steps(), steps);
        assert!(soa.last_executed().is_empty());
    }

    #[test]
    fn validation_rejects_bad_selections() {
        struct Dup;
        impl Daemon<PifState> for Dup {
            fn select(
                &mut self,
                snap: &EnabledSet<'_, PifState>,
                out: &mut Vec<(ProcId, ActionId)>,
            ) {
                let p = snap.nth_enabled(0);
                let a = snap.actions_of(p).first().unwrap();
                out.push((p, a));
                out.push((p, a));
            }
        }
        let g = generators::chain(3).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g);
        let init = initial::normal_starting(&g);
        let mut soa = SoaSimulator::with_store(g, proto, Packed::new(init));
        soa.set_validation(true);
        assert!(matches!(soa.step(&mut Dup), Err(SimError::InvalidSelection { .. })));
    }
}
