//! Scalar guard/action kernel over the packed configuration.
//!
//! [`GuardKernel::mask`] evaluates all seven guards of one processor in a
//! **single ascending pass** over its CSR neighbor list, returning a 7-bit
//! mask (bit *k* set ⇔ `ActionId(k)` enabled, the bits of an
//! `ActionSet`). It is the packed-register twin of the array-of-structs
//! fused scan in `PifProtocol::enabled_actions`: the same dispatch on
//! `Pif_p`, reading one tag byte per neighbor where the `AoS` scan reads
//! a `PifState` through a `View`. [`GuardKernel::execute`] is the matching
//! allocation-free action semantics.
//!
//! Equivalence with [`pif_core::PifProtocol`] is bit-for-bit — including
//! the three published-text resolutions the `AoS` code documents (root
//! `GoodFok` over `Count`, the `Sum` clamp to `N'`, and the `Pif_q ≠ C`
//! qualifier in `BLeaf`) and all four ablation [`Features`] switches. The
//! differential property tests in `tests/prop_protocol.rs` pin this.

use pif_core::protocol::{
    B_ACTION, B_CORRECTION, C_ACTION, COUNT_ACTION, FOK_ACTION, F_ACTION, F_CORRECTION,
};
use pif_core::{Features, Phase, PifProtocol, PifState};
use pif_graph::{Graph, ProcId};
use pif_daemon::ActionId;

use crate::config::{SoaConfig, TAG_B, TAG_F, TAG_FOK};

/// Bit positions of the seven actions in a guard mask, in guard-evaluation
/// order (ascending `ActionId`): the lowest set bit of a mask is exactly
/// the action `Synchronous::first_action` would select.
pub const ACTION_BITS: usize = 7;

/// The guard/action kernel: protocol parameters flattened next to a CSR
/// graph reference, evaluating guards against a [`SoaConfig`].
#[derive(Clone, Copy, Debug)]
pub struct GuardKernel<'a> {
    graph: &'a Graph,
    root: usize,
    n: u32,
    l_max: u32,
    n_prime: u32,
    feats: Features,
}

impl<'a> GuardKernel<'a> {
    /// Builds the kernel for `protocol` over `graph`.
    pub fn new(protocol: &PifProtocol, graph: &'a Graph) -> Self {
        GuardKernel {
            graph,
            root: protocol.root().index(),
            n: protocol.n(),
            l_max: u32::from(protocol.l_max()),
            n_prime: protocol.n_prime(),
            feats: protocol.features(),
        }
    }

    /// The root's flat index.
    #[inline]
    pub fn root_index(&self) -> usize {
        self.root
    }

    /// The level bound `L_max`.
    #[inline]
    pub(crate) fn l_max(&self) -> u32 {
        self.l_max
    }

    /// The active ablation features.
    #[inline]
    pub(crate) fn features(&self) -> Features {
        self.feats
    }

    /// The *level* of processor `q` as read by neighbors: the stored
    /// register for non-roots, the constant `0` for the root.
    #[inline(always)]
    pub(crate) fn level_of(&self, cfg: &SoaConfig, q: usize) -> u32 {
        if q == self.root {
            0
        } else {
            u32::from(cfg.level(q))
        }
    }

    /// Evaluates all seven guards of processor `p`, returning the enabled
    /// mask (bit `k` ⇔ `ActionId(k)`), in one pass over `p`'s neighbors.
    ///
    /// Dispatches on `p`'s own phase first: each phase enables a disjoint
    /// action subset whose guards consult a strict subset of the
    /// accumulators, so the specialized per-phase scans track only what
    /// their guards read and exit the moment the outcome is settled. The
    /// generic all-accumulator scan survives only for the root (one
    /// processor, three-way phase split not worth it).
    pub fn mask(&self, cfg: &SoaConfig, p: usize) -> u8 {
        if p == self.root {
            return self.root_mask(cfg, p);
        }
        let my_tag = cfg.tag(p);
        if my_tag & TAG_B != 0 {
            self.broadcast_mask(cfg, p, my_tag)
        } else if my_tag & TAG_F != 0 {
            self.feedback_mask(cfg, p)
        } else {
            self.clean_mask(cfg, p)
        }
    }

    /// Algorithm 1 (the root): needs `all_c`, `BFree` and `Sum`; `Leaf`,
    /// `BLeaf` and `Pre_Potential` never appear in root guards.
    fn root_mask(&self, cfg: &SoaConfig, p: usize) -> u8 {
        let my_tag = cfg.tag(p);
        let me_b = my_tag & TAG_B != 0;
        let me_f = my_tag & TAG_F != 0;
        let my_fok = my_tag & TAG_FOK != 0;
        let my_count = cfg.count(p);
        let mut all_c = true;
        let mut bfree = true;
        let mut sum_raw: u64 = 1;
        for &q in self.graph.neighbor_slice(ProcId::from_index(p)) {
            let qi = q.index();
            let tq = cfg.tag(qi);
            if tq & (TAG_B | TAG_F) == 0 {
                continue; // clean neighbor: contributes to no accumulator
            }
            all_c = false;
            if tq & TAG_B != 0 {
                bfree = false;
                // Sum_Set: ¬Fok_r ∧ Par_q = r ∧ L_q = L_r + 1 = 1 (q ≠ root
                // holds for every neighbor of the root).
                if !my_fok && cfg.par(qi) == p && u32::from(cfg.level(qi)) == 1 {
                    sum_raw += u64::from(cfg.count(qi));
                }
            }
        }
        let sum = sum_raw.min(u64::from(self.n_prime));
        // Root Normal(r) = GoodFok(r) ∧ GoodCount(r).
        let good_fok_root = !me_b || (my_fok == (my_count == self.n));
        let good_count = !me_b || my_fok || u64::from(my_count) <= sum;
        let normal = good_fok_root && good_count;
        let fok_ok = !self.feats.fok_wave || my_fok;
        let mut m = 0u8;
        if !me_b && !me_f && all_c {
            m |= 1 << B_ACTION.0;
        }
        if me_b && normal && fok_ok && bfree {
            m |= 1 << F_ACTION.0;
        }
        if me_f && all_c {
            m |= 1 << C_ACTION.0;
        }
        if me_b && normal && !my_fok && u64::from(my_count) < sum {
            m |= 1 << COUNT_ACTION.0;
        }
        if !normal {
            m |= 1 << B_CORRECTION.0;
        }
        m
    }

    /// `Pif_p = C`, `p ≠ r`: unconditionally `Normal`, so only `B-action`
    /// can fire — `(¬leaf_guard ∨ Leaf(p)) ∧ Pre_Potential_p ≠ ∅`. A
    /// claimer settles the mask to `0` under the leaf guard; without it,
    /// the first spreader settles it to the `B-action` bit.
    fn clean_mask(&self, cfg: &SoaConfig, p: usize) -> u8 {
        let leaf_guard = self.feats.leaf_guard;
        let mut pre_exists = false;
        for &q in self.graph.neighbor_slice(ProcId::from_index(p)) {
            let qi = q.index();
            let tq = cfg.tag(qi);
            if tq & (TAG_B | TAG_F) == 0 {
                continue;
            }
            if qi != self.root && cfg.par(qi) == p {
                // A participating claimer (B or F) violates Leaf(p).
                if leaf_guard {
                    return 0;
                }
            } else if tq & (TAG_B | TAG_FOK) == TAG_B && self.level_of(cfg, qi) < self.l_max {
                // Pre_Potential: Pif_q = B ∧ ¬(Par_q = p ∧ q ≠ r) ∧
                // L_q < L_max ∧ ¬Fok_q.
                pre_exists = true;
                if !leaf_guard {
                    break;
                }
            }
        }
        if pre_exists {
            1 << B_ACTION.0
        } else {
            0
        }
    }

    /// `Pif_p = B`, `p ≠ r`: guards read the parent registers, `BLeaf` and
    /// `Sum` — only broadcasting claimers matter, every other neighbor is
    /// skipped on its tag load. Under `Fok_p` the sum is irrelevant
    /// (`GoodCount` and the count guard hold vacuously), so the scan stops
    /// at the first claimer.
    fn broadcast_mask(&self, cfg: &SoaConfig, p: usize, my_tag: u8) -> u8 {
        let my_fok = my_tag & TAG_FOK != 0;
        let my_level = u32::from(cfg.level(p));
        let mut bleaf_ok = true;
        let mut sum_raw: u64 = 1;
        for &q in self.graph.neighbor_slice(ProcId::from_index(p)) {
            let qi = q.index();
            if cfg.tag(qi) & TAG_B == 0 || qi == self.root || cfg.par(qi) != p {
                continue;
            }
            bleaf_ok = false;
            if my_fok {
                break;
            }
            // Sum_Set: ¬Fok_p ∧ Par_q = p ∧ L_q = L_p + 1.
            if u32::from(cfg.level(qi)) == my_level + 1 {
                sum_raw += u64::from(cfg.count(qi));
            }
        }
        let sum = sum_raw.min(u64::from(self.n_prime));
        // Parent reads (the root's stored par/level are never consulted:
        // level_of applies the constants).
        let par = cfg.par(p);
        let par_tag = cfg.tag(par);
        let par_fok = par_tag & TAG_FOK != 0;
        // With Pif_p = B: GoodPif ⇔ Pif_par = B, GoodFok ⇔ ¬Fok_p ∨ Fok_par.
        let good_pif = par_tag & TAG_B != 0;
        let good_level =
            !self.feats.level_guard || my_level == self.level_of(cfg, par) + 1;
        let good_fok = !my_fok || par_fok;
        let good_count = my_fok || u64::from(cfg.count(p)) <= sum;
        if !(good_pif && good_level && good_fok && good_count) {
            return 1 << B_CORRECTION.0;
        }
        let mut m = 0u8;
        if self.feats.fok_wave && my_fok != par_fok {
            m |= 1 << FOK_ACTION.0;
        }
        if (!self.feats.fok_wave || my_fok) && bleaf_ok {
            m |= 1 << F_ACTION.0;
        }
        if !my_fok && u64::from(cfg.count(p)) < sum {
            m |= 1 << COUNT_ACTION.0;
        }
        m
    }

    /// `Pif_p = F`, `p ≠ r`: guards read the parent registers, `Leaf` and
    /// `BFree`; the scan stops once both are violated (the C-action is then
    /// settled and the correction bit depends on the parent only).
    fn feedback_mask(&self, cfg: &SoaConfig, p: usize) -> u8 {
        let mut leaf = true;
        let mut bfree = true;
        for &q in self.graph.neighbor_slice(ProcId::from_index(p)) {
            let qi = q.index();
            let tq = cfg.tag(qi);
            if tq & (TAG_B | TAG_F) == 0 {
                continue;
            }
            if tq & TAG_B != 0 {
                bfree = false;
            }
            if qi != self.root && cfg.par(qi) == p {
                leaf = false;
            }
            if !bfree && !leaf {
                break;
            }
        }
        let par = cfg.par(p);
        let par_tag = cfg.tag(par);
        let par_b = par_tag & TAG_B != 0;
        // With Pif_p = F: GoodPif ⇔ Pif_par ≠ C, GoodFok ⇔ Pif_par = B →
        // Fok_par, GoodCount holds vacuously.
        let good_pif = par_b || par_tag & TAG_F != 0;
        let good_level = !self.feats.level_guard
            || u32::from(cfg.level(p)) == self.level_of(cfg, par) + 1;
        let good_fok = !par_b || par_tag & TAG_FOK != 0;
        if !(good_pif && good_level && good_fok) {
            1 << F_CORRECTION.0
        } else if leaf && bfree {
            1 << C_ACTION.0
        } else {
            0
        }
    }

    /// `Sum_p` — the counter refresh value, clamped to `[1, N']`.
    fn sum(&self, cfg: &SoaConfig, p: usize) -> u32 {
        let my_fok = cfg.is_fok(p);
        let my_level = self.level_of(cfg, p);
        let mut raw: u64 = 1;
        if !my_fok {
            for &q in self.graph.neighbor_slice(ProcId::from_index(p)) {
                let qi = q.index();
                if qi != self.root
                    && cfg.tag(qi) & TAG_B != 0
                    && cfg.par(qi) == p
                    && u32::from(cfg.level(qi)) == my_level + 1
                {
                    raw += u64::from(cfg.count(qi));
                }
            }
        }
        raw.min(u64::from(self.n_prime)) as u32
    }

    /// Executes `action` for processor `p` against `cfg`, returning the new
    /// state. Allocation-free: the `B-action` parent choice
    /// (`min_{≻p} Potential_p`) is tracked inline during the neighbor scan
    /// instead of materializing the candidate set.
    ///
    /// # Panics
    ///
    /// Panics on an unknown action, or a `B-action` with empty
    /// `Potential_p` (the guard guarantees non-emptiness).
    pub fn execute(&self, cfg: &SoaConfig, p: usize, action: ActionId) -> PifState {
        let mut s = cfg.state(p);
        let is_root = p == self.root;
        match action {
            B_ACTION => {
                if is_root {
                    // Pif := B; Count := 1; Fok := (1 = N).
                    s.phase = Phase::B;
                    s.count = 1;
                    s.fok = self.n == 1;
                } else {
                    // Par := min_{≻p}(Potential_p); L := L_Par + 1;
                    // Count := 1; Fok := false; Pif := B. The ascending
                    // neighbor order makes "first seen at the minimal
                    // level" the id-minimum of the minimal-level subset
                    // (or of all of Pre_Potential under the
                    // chordless_potential ablation).
                    let mut best: Option<(u32, usize)> = None;
                    for &q in self.graph.neighbor_slice(ProcId::from_index(p)) {
                        let qi = q.index();
                        if cfg.tag(qi) & (TAG_B | TAG_FOK) != TAG_B {
                            continue;
                        }
                        if qi != self.root && cfg.par(qi) == p {
                            continue;
                        }
                        let lq = self.level_of(cfg, qi);
                        if lq >= self.l_max {
                            continue;
                        }
                        match best {
                            None => best = Some((lq, qi)),
                            Some((bl, _)) if self.feats.chordless_potential && lq < bl => {
                                best = Some((lq, qi));
                            }
                            Some(_) => {}
                        }
                    }
                    let (par_level, par) =
                        best.expect("B-action executed with empty Potential");
                    s.par = ProcId::from_index(par);
                    s.level = u16::try_from(par_level + 1).expect("level bounded by L_max");
                    s.count = 1;
                    s.fok = false;
                    s.phase = Phase::B;
                }
            }
            FOK_ACTION => {
                s.fok = true;
            }
            F_ACTION => {
                s.phase = Phase::F;
            }
            C_ACTION => {
                s.phase = Phase::C;
            }
            COUNT_ACTION => {
                let sum = self.sum(cfg, p);
                s.count = sum;
                if is_root {
                    // Fok := (Sum = N).
                    s.fok = sum == self.n;
                }
            }
            B_CORRECTION => {
                // Root: Pif := C. Non-root: Pif := F.
                s.phase = if is_root { Phase::C } else { Phase::F };
            }
            F_CORRECTION => {
                s.phase = Phase::C;
            }
            other => panic!("unknown action {other} for PIF protocol"),
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_core::initial;
    use pif_daemon::{ActionSet, Protocol, View};
    use pif_graph::generators;

    fn assert_masks_match(proto: &PifProtocol, graph: &Graph, states: &[PifState]) {
        let mut cfg = SoaConfig::new(graph.len());
        cfg.load(states);
        let kernel = GuardKernel::new(proto, graph);
        for p in graph.procs() {
            assert_eq!(
                ActionSet::from_bits(kernel.mask(&cfg, p.index()).into()),
                proto.enabled_actions(View::new(graph, states, p)),
                "guard mask diverges at {p} in {states:?}"
            );
        }
    }

    #[test]
    fn masks_match_aos_on_random_configurations() {
        for (gi, g) in [
            generators::chain(6).unwrap(),
            generators::ring(8).unwrap(),
            generators::torus(3, 3).unwrap(),
            generators::complete(5).unwrap(),
            generators::star(6).unwrap(),
            generators::random_connected(10, 0.3, 42).unwrap(),
        ]
        .into_iter()
        .enumerate()
        {
            let proto = PifProtocol::new(ProcId(0), &g);
            for seed in 0..40u64 {
                let states = initial::random_config(&g, &proto, seed ^ (gi as u64) << 32);
                assert_masks_match(&proto, &g, &states);
            }
        }
    }

    #[test]
    fn masks_match_aos_under_every_ablation() {
        let g = generators::torus(3, 3).unwrap();
        for bits in 0..16u8 {
            let feats = Features {
                leaf_guard: bits & 1 != 0,
                fok_wave: bits & 2 != 0,
                chordless_potential: bits & 4 != 0,
                level_guard: bits & 8 != 0,
            };
            let proto = PifProtocol::new(ProcId(0), &g).with_features(feats);
            for seed in 0..20u64 {
                let states = initial::random_config(&g, &proto, seed);
                assert_masks_match(&proto, &g, &states);
            }
        }
    }

    #[test]
    fn execute_matches_aos_on_every_enabled_action() {
        let g = generators::random_connected(9, 0.35, 7).unwrap();
        let proto = PifProtocol::new(ProcId(2), &g);
        let kernel = GuardKernel::new(&proto, &g);
        let mut cfg = SoaConfig::new(g.len());
        for seed in 0..80u64 {
            let states = initial::random_config(&g, &proto, seed);
            cfg.load(&states);
            for p in g.procs() {
                for a in ActionSet::from_bits(kernel.mask(&cfg, p.index()).into()) {
                    let aos = proto.execute(View::new(&g, &states, p), a);
                    let soa = kernel.execute(&cfg, p.index(), a);
                    assert_eq!(soa, aos, "execute diverges: {p} action {a}");
                }
            }
        }
    }

    #[test]
    fn execute_matches_aos_without_chordless_potential() {
        let g = generators::complete(6).unwrap();
        let feats = Features { chordless_potential: false, ..Features::default() };
        let proto = PifProtocol::new(ProcId(0), &g).with_features(feats);
        let kernel = GuardKernel::new(&proto, &g);
        let mut cfg = SoaConfig::new(g.len());
        for seed in 0..40u64 {
            let states = initial::random_config(&g, &proto, seed);
            cfg.load(&states);
            for p in g.procs() {
                if kernel.mask(&cfg, p.index()) & 1 != 0 {
                    let aos = proto.execute(View::new(&g, &states, p), B_ACTION);
                    let soa = kernel.execute(&cfg, p.index(), B_ACTION);
                    assert_eq!(soa, aos, "B-action parent choice diverges at {p}");
                }
            }
        }
    }
}
