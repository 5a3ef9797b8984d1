//! The `SoA` step engine: a drop-in peer of `pif_daemon::Simulator`
//! specialized to [`PifProtocol`], stepping the packed configuration.
//!
//! [`SoaSimulator`] honors the exact `Simulator` observable contract —
//! same [`EnabledSet`] handed to daemons, same [`StepDelta`] handed to
//! observers, same round accounting ([`RoundCounter`] is shared code),
//! same validation and error behavior — so any daemon/observer pair runs
//! unmodified on either engine and produces identical executions. On top
//! it adds [`SoaSimulator::step_sync`], a daemon-free synchronous fast
//! path equivalent to stepping under `Synchronous::first_action` but with
//! no snapshot construction, daemon dispatch, or observer plumbing.
//!
//! Guard bookkeeping is two-tier:
//!
//! * **Whole-network evaluation** (construction, [`SoaSimulator::set_states`],
//!   [`SoaSimulator::corrupt_many`]) runs word-parallel: two scatter passes
//!   build `claimed` and `pre-potential` planes, then plain word algebra
//!   (`pre_pot & !claimed & !b & !f`) settles every clean processor's mask
//!   64 at a time — a clean non-root processor can only ever enable
//!   `B-action`, and is unconditionally `Normal`, so one AND/OR chain *is*
//!   its guard evaluation. Only participating processors (`Pif ∈ {B, F}`)
//!   and the root fall back to the scalar kernel; the per-spreader
//!   `L_q < L_max` test is the one scalar comparison in the scatter pass.
//! * **Per-step evaluation** re-runs the scalar kernel only over the dirty
//!   set (executed processors and their neighbors), exactly like the
//!   `AoS` simulator's incremental bookkeeping.

use pif_core::{PifProtocol, PifState};
use pif_daemon::rounds::RoundCounter;
use pif_daemon::{
    ActionId, Daemon, EnabledIndex, EnabledSet, NoOpObserver, Observer, SimError, StepDelta,
    StepReport,
};
use pif_graph::{Graph, ProcId};

use crate::config::SoaConfig;
use crate::kernel::GuardKernel;

/// Simulator for the PIF protocol over the packed structure-of-arrays
/// configuration.
///
/// Observationally equivalent to `pif_daemon::Simulator<PifProtocol>` (the
/// differential property tests pin step-for-step equality of executions,
/// enabled sets, rounds and deltas); built for throughput: guard masks are
/// 7-bit words, enabled membership is a bit plane, and the synchronous
/// fast path [`SoaSimulator::step_sync`] turns mask bit-scans directly
/// into moves.
#[derive(Clone, Debug)]
pub struct SoaSimulator {
    graph: Graph,
    protocol: PifProtocol,
    /// The packed configuration (source of truth for guard evaluation).
    cfg: SoaConfig,
    /// Array-of-structs mirror, kept in lockstep per executed processor so
    /// [`SoaSimulator::states`] and the daemon snapshot are zero-cost.
    mirror: Vec<PifState>,
    /// Per-processor guard masks (bit `k` ⇔ `ActionId(k)` enabled).
    masks: Vec<u8>,
    /// Enabled actions per processor, materialized for the
    /// [`EnabledSet`] daemon contract; rewritten only when a mask changes.
    enabled: Vec<Vec<ActionId>>,
    /// Processors with a non-zero mask.
    index: EnabledIndex,
    steps: u64,
    rounds: RoundCounter,
    validate: bool,
    // --- Reused scratch (no steady-state allocation) ---
    selection: Vec<(ProcId, ActionId)>,
    old_states: Vec<PifState>,
    new_states: Vec<PifState>,
    before_scratch: Vec<PifState>,
    stamp: Vec<u64>,
    epoch: u64,
    dirty: Vec<u32>,
    changes: Vec<(ProcId, bool)>,
    /// Scatter plane: some participating non-root neighbor claims `p` as
    /// parent (violates `Leaf(p)`).
    plane_claimed: Vec<u64>,
    /// Scatter plane: `Pre_Potential_p ≠ ∅`.
    plane_prepot: Vec<u64>,
}

impl SoaSimulator {
    /// Creates a simulator in the given initial configuration.
    ///
    /// # Panics
    ///
    /// Panics if `init.len() != graph.len()`.
    pub fn new(graph: Graph, protocol: PifProtocol, init: Vec<PifState>) -> Self {
        assert_eq!(graph.len(), init.len(), "initial configuration must cover every processor");
        let n = graph.len();
        let words = crate::config::word_count(n);
        let mut cfg = SoaConfig::new(n);
        cfg.load(&init);
        let mut sim = SoaSimulator {
            graph,
            protocol,
            cfg,
            mirror: init,
            masks: vec![0; n],
            // Action lists and step scratch grow on first use, as in the
            // `AoS` simulator: no allocation per processor up front.
            enabled: vec![Vec::new(); n],
            index: EnabledIndex::new(n, std::iter::empty()),
            steps: 0,
            rounds: RoundCounter::new(std::iter::repeat_n(false, n)),
            validate: cfg!(debug_assertions),
            selection: Vec::new(),
            old_states: Vec::new(),
            new_states: Vec::new(),
            before_scratch: Vec::new(),
            stamp: vec![0; n],
            epoch: 0,
            dirty: Vec::with_capacity(n),
            changes: Vec::with_capacity(n),
            plane_claimed: vec![0; words],
            plane_prepot: vec![0; words],
        };
        sim.recompute_all();
        sim
    }

    /// The network topology.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The protocol under simulation.
    #[inline]
    pub fn protocol(&self) -> &PifProtocol {
        &self.protocol
    }

    /// The current configuration (array-of-structs mirror of the planes).
    #[inline]
    pub fn states(&self) -> &[PifState] {
        &self.mirror
    }

    /// The current state of one processor.
    #[inline]
    pub fn state(&self, p: ProcId) -> &PifState {
        &self.mirror[p.index()]
    }

    /// The packed configuration planes.
    #[inline]
    pub fn config(&self) -> &SoaConfig {
        &self.cfg
    }

    /// Computation steps executed so far.
    #[inline]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Rounds completed so far (Dolev-Israeli-Moran definition; same
    /// [`RoundCounter`] as the `AoS` simulator).
    #[inline]
    pub fn rounds(&self) -> u64 {
        self.rounds.completed()
    }

    /// Whether the current configuration is terminal.
    #[inline]
    pub fn is_terminal(&self) -> bool {
        self.index.is_empty()
    }

    /// Processors currently enabled, ascending.
    #[inline]
    pub fn enabled_procs(&self) -> &[ProcId] {
        self.index.procs()
    }

    /// Enabled actions of processor `p` in the current configuration.
    #[inline]
    pub fn enabled_actions(&self, p: ProcId) -> &[ActionId] {
        &self.enabled[p.index()]
    }

    /// The guard mask of processor `p` (bit `k` ⇔ `ActionId(k)` enabled).
    #[inline]
    pub fn mask_of(&self, p: ProcId) -> u8 {
        self.masks[p.index()]
    }

    /// The `(processor, action)` pairs executed by the most recent step.
    #[inline]
    pub fn last_executed(&self) -> &[(ProcId, ActionId)] {
        &self.selection
    }

    /// Enables or disables daemon-selection validation (same contract and
    /// defaults as the `AoS` simulator: on in debug builds, off in release).
    pub fn set_validation(&mut self, on: bool) {
        self.validate = on;
    }

    /// Whether daemon-selection validation is currently enabled.
    #[inline]
    pub fn validation(&self) -> bool {
        self.validate
    }

    /// Overwrites the configuration and recomputes the enabled set
    /// word-parallel; round accounting restarts.
    pub fn set_states(&mut self, states: Vec<PifState>) {
        assert_eq!(self.graph.len(), states.len());
        self.cfg.load(&states);
        self.mirror = states;
        self.recompute_all();
    }

    /// Overwrites a single processor's state (fault injection); bookkeeping
    /// recomputed, round accounting restarted.
    pub fn corrupt(&mut self, p: ProcId, state: PifState) {
        self.mirror[p.index()] = state;
        self.cfg.set_state(p.index(), &state);
        self.recompute_all();
    }

    /// Applies a batch of corruptions atomically, recomputing bookkeeping
    /// and restarting round accounting once (matching
    /// `Simulator::corrupt_many`). An empty batch is a no-op.
    pub fn corrupt_many(&mut self, corruptions: &[(ProcId, PifState)]) {
        if corruptions.is_empty() {
            return;
        }
        for &(p, state) in corruptions {
            self.mirror[p.index()] = state;
            self.cfg.set_state(p.index(), &state);
        }
        self.recompute_all();
    }

    /// Executes one computation step under `daemon`. Terminal
    /// configurations are a no-op returning an empty report.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidSelection`] exactly as the `AoS` simulator reports
    /// it.
    pub fn step(&mut self, daemon: &mut dyn Daemon<PifState>) -> Result<StepReport, SimError> {
        self.step_observed(daemon, &mut NoOpObserver)
    }

    /// Like [`SoaSimulator::step`], additionally notifying `observer` with
    /// the same [`StepDelta`] the `AoS` simulator would produce.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidSelection`] if the daemon's selection violates
    /// the model contract (empty, out of range, duplicated, or naming a
    /// disabled action), exactly as the `AoS` simulator reports it.
    pub fn step_observed(
        &mut self,
        daemon: &mut dyn Daemon<PifState>,
        observer: &mut dyn Observer<PifProtocol>,
    ) -> Result<StepReport, SimError> {
        if self.is_terminal() {
            self.selection.clear();
            return Ok(StepReport { executed: 0, round_completed: false, terminal: true });
        }
        let mut selection = std::mem::take(&mut self.selection);
        selection.clear();
        {
            let snapshot = EnabledSet::new(
                &self.graph,
                &self.mirror,
                &self.enabled,
                self.index.procs(),
                self.steps,
            );
            daemon.select(&snapshot, &mut selection);
        }
        if selection.is_empty() {
            self.selection = selection;
            return Err(SimError::InvalidSelection {
                reason: "empty selection while processors are enabled".into(),
                proc: None,
                action: None,
            });
        }
        if self.validate {
            if let Err(e) = self.validate_selection(&selection) {
                self.selection = selection;
                return Err(e);
            }
        }

        let needs_before = observer.needs_full_before();
        if needs_before {
            self.before_scratch.clone_from(&self.mirror);
        }

        // Evaluate all selected actions against the OLD configuration, then
        // apply simultaneously (composite atomicity).
        let mut new_states = std::mem::take(&mut self.new_states);
        new_states.clear();
        {
            let kernel = GuardKernel::new(&self.protocol, &self.graph);
            for &(p, a) in &selection {
                new_states.push(kernel.execute(&self.cfg, p.index(), a));
            }
        }
        let mut old_states = std::mem::take(&mut self.old_states);
        old_states.clear();
        for (&(p, _), new) in selection.iter().zip(new_states.drain(..)) {
            old_states.push(self.mirror[p.index()]);
            self.mirror[p.index()] = new;
            self.cfg.set_state_tags(p.index(), &new);
        }
        let step_index = self.steps;
        self.steps += 1;
        self.recompute_dirty(&selection);

        let round_completed = self
            .rounds
            .observe_step(selection.iter().map(|&(p, _)| p), self.changes.iter().copied());

        let delta = StepDelta::new(
            &selection,
            &old_states,
            needs_before.then_some(self.before_scratch.as_slice()),
            step_index,
            round_completed,
        );
        observer.step(&self.graph, &delta, &self.mirror);

        let executed = selection.len();
        self.selection = selection;
        self.old_states = old_states;
        self.new_states = new_states;
        Ok(StepReport { executed, round_completed, terminal: self.is_terminal() })
    }

    /// The synchronous fast path: every enabled processor executes its
    /// first enabled action (the lowest set mask bit), equivalent to one
    /// [`SoaSimulator::step`] under `Synchronous::first_action` but with no
    /// daemon dispatch, snapshot, validation, or observer plumbing.
    /// Terminal configurations are a no-op returning an empty report.
    pub fn step_sync(&mut self) -> StepReport {
        if self.index.is_empty() {
            self.selection.clear();
            return StepReport { executed: 0, round_completed: false, terminal: true };
        }
        // Selection and evaluation fused in one pass over the enabled
        // list: every evaluation reads only the (unmodified) old
        // configuration, so composite atomicity is preserved — writes
        // happen in the separate apply pass below.
        let mut selection = std::mem::take(&mut self.selection);
        let mut new_states = std::mem::take(&mut self.new_states);
        selection.clear();
        new_states.clear();
        {
            let kernel = GuardKernel::new(&self.protocol, &self.graph);
            for &p in self.index.procs() {
                let a = ActionId(self.masks[p.index()].trailing_zeros() as usize);
                new_states.push(kernel.execute(&self.cfg, p.index(), a));
                selection.push((p, a));
            }
        }
        let mut old_states = std::mem::take(&mut self.old_states);
        old_states.clear();
        for (&(p, _), new) in selection.iter().zip(new_states.drain(..)) {
            old_states.push(self.mirror[p.index()]);
            self.mirror[p.index()] = new;
            self.cfg.set_state_tags(p.index(), &new);
        }
        self.steps += 1;
        self.recompute_dirty(&selection);
        let round_completed = self
            .rounds
            .observe_step(selection.iter().map(|&(p, _)| p), self.changes.iter().copied());
        let executed = selection.len();
        self.selection = selection;
        self.old_states = old_states;
        self.new_states = new_states;
        StepReport { executed, round_completed, terminal: self.index.is_empty() }
    }

    /// Validates the model contract on a daemon selection (same checks and
    /// messages as the `AoS` simulator, with the mask bit standing in for the
    /// action-list membership test).
    fn validate_selection(&mut self, selection: &[(ProcId, ActionId)]) -> Result<(), SimError> {
        self.epoch += 1;
        let epoch = self.epoch;
        for &(p, a) in selection {
            if p.index() >= self.graph.len() {
                return Err(SimError::InvalidSelection {
                    reason: "processor out of range".into(),
                    proc: Some(p),
                    action: Some(a),
                });
            }
            if self.stamp[p.index()] == epoch {
                return Err(SimError::InvalidSelection {
                    reason: "processor selected twice".into(),
                    proc: Some(p),
                    action: Some(a),
                });
            }
            self.stamp[p.index()] = epoch;
            if a.0 >= crate::kernel::ACTION_BITS || self.masks[p.index()] >> a.0 & 1 == 0 {
                return Err(SimError::InvalidSelection {
                    reason: "action not enabled for processor".into(),
                    proc: Some(p),
                    action: Some(a),
                });
            }
        }
        Ok(())
    }

    /// Incremental post-step bookkeeping: re-evaluates the kernel only for
    /// executed processors and their neighbors, maintaining masks, action
    /// lists, the enabled index and the sparse change feed for round
    /// accounting — the same dirty-set discipline as the `AoS` simulator.
    fn recompute_dirty(&mut self, executed: &[(ProcId, ActionId)]) {
        let SoaSimulator {
            graph,
            protocol,
            cfg,
            masks,
            enabled,
            index,
            stamp,
            epoch,
            dirty,
            changes,
            ..
        } = self;
        *epoch += 1;
        let ep = *epoch;
        dirty.clear();
        for &(p, _) in executed {
            let pi = p.index();
            if stamp[pi] != ep {
                stamp[pi] = ep;
                dirty.push(pi as u32);
            }
            for &q in graph.neighbor_slice(p) {
                let qi = q.index();
                if stamp[qi] != ep {
                    stamp[qi] = ep;
                    dirty.push(qi as u32);
                }
            }
        }
        changes.clear();
        let kernel = GuardKernel::new(protocol, graph);
        for &pi in dirty.iter() {
            let pi = pi as usize;
            let old = masks[pi];
            let new = kernel.mask(cfg, pi);
            if old == new {
                continue;
            }
            masks[pi] = new;
            let acts = &mut enabled[pi];
            acts.clear();
            let mut bits = new;
            while bits != 0 {
                acts.push(ActionId(bits.trailing_zeros() as usize));
                bits &= bits - 1;
            }
            if (old != 0) != (new != 0) {
                changes.push((ProcId::from_index(pi), new != 0));
            }
        }
        index.apply(changes);
    }

    /// Whole-network guard evaluation, word-parallel (see the module docs):
    /// scatter `claimed` and `pre-potential` planes, settle every clean
    /// non-root processor with word algebra, run the scalar kernel over
    /// participants and the root only. Restarts round accounting — used on
    /// construction and configuration overwrites, never per step.
    fn recompute_all(&mut self) {
        let SoaSimulator {
            graph,
            protocol,
            cfg,
            masks,
            enabled,
            index,
            selection,
            plane_claimed,
            plane_prepot,
            ..
        } = self;
        cfg.sync_planes();
        let kernel = GuardKernel::new(protocol, graph);
        let n = graph.len();
        let root = kernel.root_index();
        let l_max = kernel.l_max();
        let leaf_guard = kernel.features().leaf_guard;
        for w in plane_claimed.iter_mut() {
            *w = 0;
        }
        for w in plane_prepot.iter_mut() {
            *w = 0;
        }

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
                masks[lo + bit] = (b_enable >> bit & 1) as u8;
                quiet &= quiet - 1;
            }
            let mut hard = scalar;
            while hard != 0 {
                let bit = hard.trailing_zeros() as usize;
                masks[lo + bit] = kernel.mask(cfg, lo + bit);
                hard &= hard - 1;
            }

            let mut all = valid;
            while all != 0 {
                let p = lo + all.trailing_zeros() as usize;
                let acts = &mut enabled[p];
                acts.clear();
                let mut bits = masks[p];
                while bits != 0 {
                    acts.push(ActionId(bits.trailing_zeros() as usize));
                    bits &= bits - 1;
                }
                all &= all - 1;
            }
        }
        index.reset(masks.iter().map(|&m| m != 0));
        selection.clear();
        self.rounds = RoundCounter::new(masks.iter().map(|&m| m != 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_core::initial;
    use pif_daemon::daemons::{CentralRandom, Synchronous};
    use pif_daemon::Simulator;
    use pif_graph::generators;

    fn both(g: &Graph, seed: u64) -> (Simulator<PifProtocol>, SoaSimulator) {
        let proto = PifProtocol::new(ProcId(0), g);
        let init = initial::random_config(g, &proto, seed);
        (
            Simulator::new(g.clone(), proto.clone(), init.clone()),
            SoaSimulator::new(g.clone(), proto, init),
        )
    }

    fn assert_agree(aos: &Simulator<PifProtocol>, soa: &SoaSimulator) {
        assert_eq!(aos.states(), soa.states());
        assert_eq!(aos.enabled_procs(), soa.enabled_procs());
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
                let soa = SoaSimulator::new(g.clone(), proto.clone(), init);
                let kernel = GuardKernel::new(&proto, &g);
                for p in 0..n {
                    assert_eq!(
                        soa.mask_of(ProcId::from_index(p)),
                        kernel.mask(soa.config(), p),
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

    #[test]
    fn multi_word_enabled_lists_match_a_full_rebuild_every_step() {
        // n = 144 spans three bitset words. The enabled index applies a
        // step's k flips in place while k·(32 + m/48) ≤ 16 + n/32 + m for
        // m enabled processors: here one flip goes in place once 12 are
        // enabled, and 20 flips are always a rebuild. A central move flips
        // the mover and at most its 4 neighbors; a synchronous step from a
        // random configuration can flip 20 or more.
        let g = generators::torus(12, 12).unwrap();
        let daemon = |name: &str| -> Box<dyn Daemon<PifState>> {
            if name == "synchronous" {
                Box::new(Synchronous::first_action())
            } else {
                Box::new(CentralRandom::new(12))
            }
        };
        for name in ["central-random", "synchronous"] {
            let (mut d_aos, mut d_soa) = (daemon(name), daemon(name));
            let (mut aos, mut soa) = both(&g, 0x12);
            let (mut in_place, mut rebuilt) = (false, false);
            for step in 0..1_500 {
                if aos.is_terminal() {
                    break;
                }
                let mut was = vec![false; g.len()];
                for &p in soa.enabled_procs() {
                    was[p.index()] = true;
                }
                let enabled_before = soa.enabled_procs().len();
                assert_eq!(aos.step(&mut *d_aos).unwrap(), soa.step(&mut *d_soa).unwrap());
                assert_agree(&aos, &soa);
                let fresh = Simulator::new(g.clone(), soa.protocol().clone(), soa.states().to_vec());
                assert_eq!(soa.enabled_procs(), fresh.enabled_procs(), "{name}, step {step}");
                let flips = g.procs().filter(|&p| was[p.index()] != (soa.mask_of(p) != 0)).count();
                in_place |= flips == 1 && enabled_before >= 12;
                rebuilt |= flips >= 20;
            }
            let covered = if name == "synchronous" { rebuilt } else { in_place };
            assert!(covered, "{name}: never took the branch it is meant to exercise");
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
        assert_eq!(aos.enabled_procs(), soa.enabled_procs());
        assert_eq!(aos.rounds(), soa.rounds());
    }

    #[test]
    fn terminal_step_is_noop() {
        // Wrong root N stalls the wave into a terminal configuration.
        let g = generators::chain(3).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g).with_n_prime(5).with_root_n(5);
        let init = initial::normal_starting(&g);
        let mut soa = SoaSimulator::new(g, proto, init);
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
                let p = snap.enabled_procs()[0];
                let a = snap.actions_of(p)[0];
                out.push((p, a));
                out.push((p, a));
            }
        }
        let g = generators::chain(3).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g);
        let init = initial::normal_starting(&g);
        let mut soa = SoaSimulator::new(g, proto, init);
        soa.set_validation(true);
        assert!(matches!(soa.step(&mut Dup), Err(SimError::InvalidSelection { .. })));
    }
}
