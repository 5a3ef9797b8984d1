//! The snap-stabilizing PIF protocol — Algorithms 1 (root) and 2 (others)
//! of the paper, transliterated guard by guard.
//!
//! Every macro (`Sum_Set`, `Sum`, `Pre_Potential`, `Potential`), predicate
//! (`GoodFok`, `GoodPif`, `GoodLevel`, `GoodCount`, `Normal`, `Leaf`,
//! `BLeaf`, `BFree`, `Broadcast`, `ChangeFok`, `Feedback`, `Cleaning`,
//! `NewCount`, `AbnormalB`, `AbnormalF`) and action (`B-action`,
//! `Fok-action`, `F-action`, `C-action`, `Count-action`, `B-correction`,
//! `F-correction`) appears here under its paper name.
//!
//! ## Guard evaluation
//!
//! The per-guard functions ([`PifProtocol::broadcast_guard`] …
//! [`PifProtocol::f_correction_guard`]) are the literal transliteration:
//! each composes the macros and predicates above, so evaluating all seven
//! walks the neighborhood five to eight times. [`Protocol::enabled_actions`]
//! instead evaluates them in one pass: it dispatches on the root and on
//! `Pif_p`, decides the parent conjuncts of `Normal(p)` first, and stops
//! the neighbor scan as soon as the enabled set is settled — the same
//! phase split as the `SoA` `GuardKernel::mask`. The simulators, the
//! lossy transport, the analyzer and the exhaustive checks of
//! `pif-verify` all read that one scan. The property tests in
//! `tests/prop_protocol.rs` check it against the per-guard composition
//! and against the kernel on arbitrary configurations under every
//! [`Features`] ablation.
//!
//! ## Transliteration notes
//!
//! Two spots in the published text are internally inconsistent as printed
//! and are resolved here (documented for reviewers):
//!
//! 1. **Root `GoodFok`.** The text prints
//!    `GoodFok(r) ≡ (Pif_r = B) ⇒ (Fok_r = (Sum_r = N))`. Taken literally
//!    this makes the root *abnormal* the moment its `Fok` wave starts
//!    (children leave `Sum_Set_r` as they switch to `F`, so `Sum_r`
//!    shrinks below `N` while `Fok_r` stays true), which would fire
//!    `B-correction` mid-cycle and contradict the paper's own Theorem 2.
//!    The consistent reading — and the one every root action actually
//!    maintains (`B-action` writes `Count := 1, Fok := (1 = N)`,
//!    `Count-action` writes `Count := Sum, Fok := (Sum = N)` atomically) —
//!    is `Fok_r = (Count_r = N)`. That is what we implement.
//!
//! 2. **`Sum` overflow.** `Count_p ∈ [1, N']`, but a corrupted
//!    configuration can make the *computed* `Sum_p` exceed `N'` (several
//!    children all claiming huge counts). Assigning it verbatim would leave
//!    the register domain; leaving `NewCount` enabled forever would
//!    livelock. We clamp the macro to `Sum_p = min(1 + Σ Count_q, N')`.
//!    For every value in `[1, N']` the predicates are unchanged
//!    (`Count ≤ min(Sum, N') ⇔ Count ≤ Sum` whenever `Count ≤ N'`), so
//!    the clamping is invisible in the model and merely keeps corrupted
//!    executions finite.

use pif_daemon::{
    ActionId, ActionSet, ActionSpec, Applicability, PhaseTag, Protocol, Readers, RegAccess, View,
};
use pif_graph::{Graph, ProcId};

use crate::state::{Phase, PifState};

/// `B-action` — join (or, at the root, initiate) the broadcast phase.
pub const B_ACTION: ActionId = ActionId(0);
/// `Fok-action` — adopt the parent's `Fok = true` (non-root only).
pub const FOK_ACTION: ActionId = ActionId(1);
/// `F-action` — switch to the feedback phase.
pub const F_ACTION: ActionId = ActionId(2);
/// `C-action` — clean up, returning to `Pif = C`.
pub const C_ACTION: ActionId = ActionId(3);
/// `Count-action` — recompute `Count_p` from the children's counters.
pub const COUNT_ACTION: ActionId = ActionId(4);
/// `B-correction` — error correction for an abnormal broadcast-phase
/// processor (root: reset to `C`; non-root: demote to `F`).
pub const B_CORRECTION: ActionId = ActionId(5);
/// `F-correction` — error correction for an abnormal feedback-phase
/// processor (non-root only).
pub const F_CORRECTION: ActionId = ActionId(6);

const ACTION_NAMES: &[&str] = &[
    "B-action",
    "Fok-action",
    "F-action",
    "C-action",
    "Count-action",
    "B-correction",
    "F-correction",
];

// ----------------------------------------------------------------------
// Static action metadata (DESIGN.md §12). Guard-priority classes encode
// which guards are pairwise disjoint by construction:
//
//   0  corrections  — require ¬Normal(p); disjoint from each other by the
//                     Pif_p = B / Pif_p = F split, and from every other
//                     action (those require Normal(p) or Pif_p = C, and a
//                     clean processor is always normal);
//   1  B/F/C wave   — disjoint by Pif_p ∈ {C, B, F} respectively;
//   2  Fok wave     — may be co-enabled with F-action or Count-action
//                     (different class, resolved by class order);
//   3  Count        — may be co-enabled with Fok-action at ¬Fok_p
//                     processors whose parent just raised Fok.
//
// Read-sets describe the guards as the paper states them: every guard
// except Broadcast(p) conjoins Normal(p), which reads the full local view,
// so only B-action gets a narrow declaration. The fused scan behind
// enabled_actions reads a subset of each declaration — it skips what a
// settled outcome no longer needs — and never a register outside it.
// ----------------------------------------------------------------------

const READS_B: &[RegAccess] = &[
    RegAccess::own("phase"),
    RegAccess::neighbor("phase"),
    RegAccess::neighbor("par"),
    RegAccess::neighbor("level"),
    RegAccess::neighbor("fok"),
];
const WRITES_B: &[RegAccess] = &[
    RegAccess::own("phase"),
    RegAccess::own("par"),
    RegAccess::own("level"),
    RegAccess::own("count"),
    RegAccess::own("fok"),
];
const WRITES_FOK: &[RegAccess] = &[RegAccess::own("fok")];
const WRITES_PHASE: &[RegAccess] = &[RegAccess::own("phase")];
const WRITES_COUNT: &[RegAccess] = &[RegAccess::own("count"), RegAccess::own("fok")];

/// Feature switches for the ablation experiments (E10 in DESIGN.md).
///
/// The paper's algorithm corresponds to [`Features::default`] — everything
/// on. Each switch removes one mechanism whose necessity DESIGN.md calls
/// out; the ablation benches measure what breaks.
// Four independent on/off switches, one per mechanism: every one of the 16
// combinations is a valid ablation experiment, so plain bools model the
// space exactly — an enum would have to list 16 variants.
#[allow(clippy::struct_excessive_bools)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Features {
    /// Keep the `Leaf(p)` conjunct in the non-root `Broadcast(p)` guard.
    /// This is the linchpin of snap-stabilization: without it, stale
    /// subtrees left over from a corrupted initial configuration can melt
    /// into the legal tree without ever receiving the message.
    pub leaf_guard: bool,
    /// Keep the `Fok` wave: leaves may only start the feedback phase after
    /// the root has counted all `N` processors. Without it, feedback can
    /// complete before the broadcast has covered the network.
    pub fok_wave: bool,
    /// Keep the minimal-level restriction in `Potential_p`. This is what
    /// makes parent paths chordless and bounds the tree height `h` by the
    /// longest chordless path (Theorem 4).
    pub chordless_potential: bool,
    /// Keep `GoodLevel(p)` in `Normal(p)`. Without it, corrupted parent
    /// pointers can form cycles that are never detected.
    pub level_guard: bool,
}

impl Default for Features {
    fn default() -> Self {
        Features { leaf_guard: true, fok_wave: true, chordless_potential: true, level_guard: true }
    }
}

impl Features {
    /// The full algorithm exactly as published.
    pub fn paper() -> Self {
        Self::default()
    }
}

/// The snap-stabilizing PIF protocol for arbitrary networks.
///
/// One instance describes the *program* run by every processor: the root
/// `r` executes Algorithm 1, everyone else Algorithm 2. The exact network
/// size `N` is an input at the root (this knowledge is what guarantees
/// snap-stabilization); `L_max ≥ N − 1` bounds the level register and `N'
/// ≥ N` bounds the counter register.
///
/// # Examples
///
/// Run one complete PIF cycle from the normal starting configuration:
///
/// ```
/// use pif_core::{initial, PifProtocol};
/// use pif_daemon::{daemons::Synchronous, NoOpObserver, RunLimits, Simulator, StopPolicy};
/// use pif_graph::{generators, ProcId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::ring(6)?;
/// let proto = PifProtocol::new(ProcId(0), &g);
/// let init = initial::normal_starting(&g);
/// let mut sim = Simulator::new(g, proto, init);
/// // The system returns to the normal starting configuration after the
/// // cycle (root's C-action); stop once the first full cycle completed.
/// let mut cycled = |s: &Simulator<PifProtocol>| {
///     s.steps() > 0 && initial::is_normal_starting(s.states())
/// };
/// let stats = sim.run(
///     &mut Synchronous::first_action(),
///     &mut NoOpObserver,
///     StopPolicy::Predicate(RunLimits::default(), &mut cycled),
/// )?;
/// assert!(stats.steps > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PifProtocol {
    root: ProcId,
    n: u32,
    l_max: u16,
    n_prime: u32,
    features: Features,
}

/// A network with more processors than the level register spans
/// (`L_max ≥ N − 1` must fit 16 bits), reported by
/// [`PifProtocol::check_size`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetworkTooLarge {
    /// Processors in the rejected network.
    pub procs: usize,
    /// The largest network admitted, [`PifProtocol::MAX_PROCS`].
    pub max: usize,
}

impl std::fmt::Display for NetworkTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let NetworkTooLarge { procs, max } = self;
        write!(f, "network of {procs} processors exceeds the {max} that L_max >= N - 1 admits")
    }
}

impl std::error::Error for NetworkTooLarge {}

impl PifProtocol {
    /// The largest network the protocol runs on: the level register `L`
    /// is 16 bits wide, and the paper requires `L_max ≥ N − 1`.
    pub const MAX_PROCS: usize = u16::MAX as usize + 1;

    /// The size check every boundary runs before [`PifProtocol::new`], so
    /// an oversize network is a typed error there instead of a panic here.
    ///
    /// # Errors
    ///
    /// [`NetworkTooLarge`] when `procs` exceeds [`PifProtocol::MAX_PROCS`].
    pub fn check_size(procs: usize) -> Result<(), NetworkTooLarge> {
        if procs > Self::MAX_PROCS {
            return Err(NetworkTooLarge { procs, max: Self::MAX_PROCS });
        }
        Ok(())
    }

    /// Creates the protocol for network `graph` rooted at `root`, with the
    /// canonical parameters `N = graph.len()`, `L_max = max(N − 1, 1)` and
    /// `N' = N`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range for `graph`, or if `graph` has
    /// more than [`PifProtocol::MAX_PROCS`] processors (`N − 1` would not
    /// fit the level register, voiding `L_max ≥ N − 1`).
    pub fn new(root: ProcId, graph: &Graph) -> Self {
        assert!(root.index() < graph.len(), "root out of range");
        if let Err(e) = Self::check_size(graph.len()) {
            panic!("{e}");
        }
        let n = graph.len() as u32;
        PifProtocol {
            root,
            n,
            l_max: u16::try_from((n - 1).max(1)).expect("N - 1 fits the level register"),
            n_prime: n,
            features: Features::default(),
        }
    }

    /// Overrides the counter bound `N'` (an upper bound of `N`).
    ///
    /// # Panics
    ///
    /// Panics if `n_prime < N`.
    #[must_use]
    pub fn with_n_prime(mut self, n_prime: u32) -> Self {
        assert!(n_prime >= self.n, "N' must be an upper bound of N");
        self.n_prime = n_prime;
        self
    }

    /// Overrides the input `N` given to the root. The paper assumes this is
    /// the exact network size; passing a wrong value demonstrates how the
    /// snap guarantee depends on it.
    #[must_use]
    pub fn with_root_n(mut self, n: u32) -> Self {
        self.n = n;
        self
    }

    /// Selects ablation [`Features`].
    #[must_use]
    pub fn with_features(mut self, features: Features) -> Self {
        self.features = features;
        self
    }

    /// The root processor `r`.
    #[inline]
    pub fn root(&self) -> ProcId {
        self.root
    }

    /// The network size `N` input at the root.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The level bound `L_max`.
    #[inline]
    pub fn l_max(&self) -> u16 {
        self.l_max
    }

    /// The counter bound `N'`.
    #[inline]
    pub fn n_prime(&self) -> u32 {
        self.n_prime
    }

    /// The active ablation features.
    #[inline]
    pub fn features(&self) -> Features {
        self.features
    }

    // ------------------------------------------------------------------
    // Macros (Algorithms 1 & 2). All take the processor's local view.
    // ------------------------------------------------------------------

    /// The *level* of a processor as read by its neighbors: the stored
    /// register for non-roots, the constant `0` for the root.
    #[inline]
    fn level_of(&self, q: ProcId, s: &PifState) -> u32 {
        if q == self.root {
            0
        } else {
            u32::from(s.level)
        }
    }

    /// `Sum_Set_p = {q ∈ Neig_p :: (Pif_q = B) ∧ (Par_q = p) ∧
    /// (L_q = L_p + 1) ∧ ¬Fok_p}` — the children currently counted by `p`.
    pub fn sum_set<'a>(
        &'a self,
        view: View<'a, PifState>,
    ) -> impl Iterator<Item = (ProcId, &'a PifState)> + 'a {
        let me = view.me();
        let my_level = self.level_of(view.pid(), me);
        let my_fok = me.fok;
        view.neighbor_states().filter(move |(q, s)| {
            !my_fok
                && *q != self.root // the root's Par is the constant ⊥
                && s.phase == Phase::B
                && s.par == view.pid()
                && self.level_of(*q, s) == my_level + 1
        })
    }

    /// `Sum_p = 1 + Σ_{q ∈ Sum_Set_p} Count_q`, clamped to the counter
    /// domain `[1, N']` (see the module notes on overflow).
    pub fn sum(&self, view: View<'_, PifState>) -> u32 {
        let raw: u64 = 1 + self.sum_set(view).map(|(_, s)| u64::from(s.count)).sum::<u64>();
        raw.min(u64::from(self.n_prime)) as u32
    }

    /// `Pre_Potential_p = {q ∈ Neig_p :: (Pif_q = B) ∧ (Par_q ≠ p) ∧
    /// (L_q < L_max) ∧ ¬Fok_q}` — the neighbors `p` could receive the
    /// broadcast from.
    pub fn pre_potential<'a>(
        &'a self,
        view: View<'a, PifState>,
    ) -> impl Iterator<Item = (ProcId, &'a PifState)> + 'a {
        view.neighbor_states().filter(move |(q, s)| {
            s.phase == Phase::B
                && !(s.par == view.pid() && *q != self.root)
                && self.level_of(*q, s) < u32::from(self.l_max)
                && !s.fok
        })
    }

    /// `Potential_p` — the minimal-level subset of `Pre_Potential_p`
    /// (or all of it under the `chordless_potential` ablation).
    pub fn potential(&self, view: View<'_, PifState>) -> Vec<ProcId> {
        let pre: Vec<(ProcId, u32)> = self
            .pre_potential(view)
            .map(|(q, s)| (q, self.level_of(q, s)))
            .collect();
        if !self.features.chordless_potential {
            return pre.into_iter().map(|(q, _)| q).collect();
        }
        let Some(min) = pre.iter().map(|&(_, l)| l).min() else {
            return Vec::new();
        };
        pre.into_iter().filter(|&(_, l)| l == min).map(|(q, _)| q).collect()
    }

    // ------------------------------------------------------------------
    // Predicates.
    // ------------------------------------------------------------------

    /// `GoodPif(p)` — phase consistency with the parent (non-root).
    pub fn good_pif(&self, view: View<'_, PifState>) -> bool {
        debug_assert_ne!(view.pid(), self.root);
        let me = view.me();
        if me.phase == Phase::C {
            return true;
        }
        let par = view.state(me.par);
        par.phase == me.phase || par.phase == Phase::B
    }

    /// `GoodLevel(p)` — `L_p = L_{Par_p} + 1` whenever `p` participates
    /// (non-root). Always `true` under the `level_guard` ablation.
    pub fn good_level(&self, view: View<'_, PifState>) -> bool {
        debug_assert_ne!(view.pid(), self.root);
        if !self.features.level_guard {
            return true;
        }
        let me = view.me();
        if me.phase == Phase::C {
            return true;
        }
        let par = view.state(me.par);
        u32::from(me.level) == self.level_of(me.par, par) + 1
    }

    /// `GoodFok(p)` — the `Fok` wave flows parent-to-child (non-root).
    pub fn good_fok(&self, view: View<'_, PifState>) -> bool {
        debug_assert_ne!(view.pid(), self.root);
        let me = view.me();
        let par = view.state(me.par);
        let clause_b = me.phase != Phase::B || me.fok == par.fok || !me.fok;
        let clause_f = me.phase != Phase::F || par.phase != Phase::B || par.fok;
        clause_b && clause_f
    }

    /// Root `GoodFok(r)` — `(Pif_r = B) ⇒ (Fok_r = (Count_r = N))`
    /// (see the module notes on the `Sum`/`Count` misprint).
    pub fn good_fok_root(&self, view: View<'_, PifState>) -> bool {
        debug_assert_eq!(view.pid(), self.root);
        let me = view.me();
        me.phase != Phase::B || (me.fok == (me.count == self.n))
    }

    /// `GoodCount(p)` — `(Pif_p = B ∧ ¬Fok_p) ⇒ Count_p ≤ Sum_p`
    /// (root and non-root alike).
    pub fn good_count(&self, view: View<'_, PifState>) -> bool {
        let me = view.me();
        me.phase != Phase::B || me.fok || me.count <= self.sum(view)
    }

    /// `Normal(p)` — the processor's registers are consistent with its
    /// parent's (Section 3.2). Root: `GoodFok ∧ GoodCount`; non-root:
    /// `GoodPif ∧ GoodLevel ∧ GoodFok ∧ GoodCount`.
    pub fn normal(&self, view: View<'_, PifState>) -> bool {
        if view.pid() == self.root {
            self.good_fok_root(view) && self.good_count(view)
        } else {
            self.good_pif(view)
                && self.good_level(view)
                && self.good_fok(view)
                && self.good_count(view)
        }
    }

    /// `Leaf(p)` — no participating neighbor claims `p` as its parent.
    pub fn leaf(&self, view: View<'_, PifState>) -> bool {
        view.neighbor_states()
            .all(|(q, s)| s.phase == Phase::C || !(s.par == view.pid() && q != self.root))
    }

    /// `BLeaf(p)` — every *participating* neighbor that claims `p` as
    /// parent has already fed back (vacuously true when `Pif_p ≠ B`).
    ///
    /// The published text prints `(Par_q = p) ⇒ (Pif_q = F)` without the
    /// `Pif_q ≠ C` qualifier that `Leaf(p)` carries explicitly. Taken
    /// literally that deadlocks the protocol from corrupted states: a
    /// clean (`C`) processor's parent register is a don't-care leftover,
    /// and if its only broadcasting neighbor already carries `Fok` (so
    /// `Pre_Potential` rejects it), neither can ever move — contradicting
    /// the paper's own Theorem 2 (case 2). Since `Par` is only meaningful
    /// for participating processors, we apply the same `Pif_q ≠ C`
    /// qualifier here, which restores the theorem and is a no-op in every
    /// legal flow (when the `Fok` wave runs, no processor is `C`).
    pub fn bleaf(&self, view: View<'_, PifState>) -> bool {
        view.me().phase != Phase::B
            || view.neighbor_states().all(|(q, s)| {
                s.phase == Phase::C
                    || !(s.par == view.pid() && q != self.root)
                    || s.phase == Phase::F
            })
    }

    /// `BFree(p)` — no neighbor is in the broadcast phase.
    pub fn bfree(&self, view: View<'_, PifState>) -> bool {
        view.neighbor_states().all(|(_, s)| s.phase != Phase::B)
    }

    // ------------------------------------------------------------------
    // Guards.
    // ------------------------------------------------------------------

    /// `Broadcast(p)`. Root: `Pif_r = C ∧ ∀q: Pif_q = C`. Non-root:
    /// `Pif_p = C ∧ Leaf(p) ∧ Potential_p ≠ ∅`.
    pub fn broadcast_guard(&self, view: View<'_, PifState>) -> bool {
        let me = view.me();
        if me.phase != Phase::C {
            return false;
        }
        if view.pid() == self.root {
            view.neighbor_states().all(|(_, s)| s.phase == Phase::C)
        } else {
            (!self.features.leaf_guard || self.leaf(view))
                && self.pre_potential(view).next().is_some()
        }
    }

    /// `ChangeFok(p)` (non-root) —
    /// `Pif_p = B ∧ Normal(p) ∧ Fok_p ≠ Fok_{Par_p}`.
    pub fn change_fok_guard(&self, view: View<'_, PifState>) -> bool {
        if view.pid() == self.root {
            return false;
        }
        let me = view.me();
        me.phase == Phase::B && self.normal(view) && me.fok != view.state(me.par).fok
    }

    /// `Feedback(p)`. Root: `Pif_r = B ∧ Normal(r) ∧ (∀q: Pif_q ≠ B) ∧
    /// Fok_r`. Non-root: `Pif_p = B ∧ Normal(p) ∧ BLeaf(p) ∧ Fok_p`.
    pub fn feedback_guard(&self, view: View<'_, PifState>) -> bool {
        let me = view.me();
        if me.phase != Phase::B || !self.normal(view) {
            return false;
        }
        let fok_ok = !self.features.fok_wave || me.fok;
        if view.pid() == self.root {
            fok_ok && self.bfree(view)
        } else {
            fok_ok && self.bleaf(view)
        }
    }

    /// `Cleaning(p)`. Root: `Pif_r = F ∧ ∀q: Pif_q = C`. Non-root:
    /// `Pif_p = F ∧ Normal(p) ∧ Leaf(p) ∧ BFree(p)`.
    pub fn cleaning_guard(&self, view: View<'_, PifState>) -> bool {
        let me = view.me();
        if me.phase != Phase::F {
            return false;
        }
        if view.pid() == self.root {
            view.neighbor_states().all(|(_, s)| s.phase == Phase::C)
        } else {
            self.normal(view) && self.leaf(view) && self.bfree(view)
        }
    }

    /// `NewCount(p)` —
    /// `Pif_p = B ∧ Normal(p) ∧ Count_p < Sum_p ∧ ¬Fok_p`.
    pub fn new_count_guard(&self, view: View<'_, PifState>) -> bool {
        let me = view.me();
        me.phase == Phase::B && self.normal(view) && !me.fok && me.count < self.sum(view)
    }

    /// `AbnormalB(p)` / root `B-correction` guard.
    pub fn b_correction_guard(&self, view: View<'_, PifState>) -> bool {
        if view.pid() == self.root {
            !self.normal(view)
        } else {
            !self.normal(view) && view.me().phase == Phase::B
        }
    }

    /// `AbnormalF(p)` (non-root only).
    pub fn f_correction_guard(&self, view: View<'_, PifState>) -> bool {
        view.pid() != self.root && !self.normal(view) && view.me().phase == Phase::F
    }

    // ------------------------------------------------------------------
    // Fused guard evaluation: the phase scans behind `enabled_actions`
    // (module docs, "Guard evaluation"). Each phase enables a disjoint
    // action subset, so each scan below tracks only what its guards read.
    // A scan returns an `ActionSet`, bit k ⇔ ActionId(k), the encoding of
    // the SoA `GuardKernel::mask`, and reads registers only through the
    // `View`, so the analyzer's spy probe observes every read. The scans
    // are `#[inline]` like `enabled_actions`: an inlinable function
    // exports its private callees, and LLVM then calls them out of line
    // instead of fusing them into the trait method.
    // ------------------------------------------------------------------

    /// Algorithm 1. `B-action` and `C-action` need every neighbor clean;
    /// under `Pif_r = B` the guards read `BFree(r)` and `Sum_r`.
    #[inline]
    fn root_scan(&self, view: View<'_, PifState>, me: &PifState) -> ActionSet {
        if me.phase != Phase::B {
            // Normal(r) holds vacuously outside B.
            if !view.neighbor_states().all(|(_, s)| s.phase == Phase::C) {
                return ActionSet::EMPTY;
            }
            return ActionSet::of(if me.phase == Phase::C { B_ACTION } else { C_ACTION });
        }
        // GoodFok(r): Fok_r = (Count_r = N).
        if me.fok != (me.count == self.n) {
            return ActionSet::of(B_CORRECTION);
        }
        if me.fok {
            // GoodCount(r) holds and Count-action is off: only BFree(r)
            // is left to decide F-action.
            return if self.bfree(view) { ActionSet::of(F_ACTION) } else { ActionSet::EMPTY };
        }
        let mut bfree = true;
        let mut sum_raw: u64 = 1;
        for (q, s) in view.neighbor_states() {
            if s.phase == Phase::B {
                bfree = false;
                // Sum_Set_r: Par_q = r ∧ L_q = L_r + 1 = 1.
                if s.par == view.pid() && q != self.root && s.level == 1 {
                    sum_raw += u64::from(s.count);
                }
            }
        }
        let sum = sum_raw.min(u64::from(self.n_prime));
        let count = u64::from(me.count);
        if count > sum {
            return ActionSet::of(B_CORRECTION); // ¬GoodCount(r)
        }
        let mut m = ActionSet::EMPTY;
        if !self.features.fok_wave && bfree {
            m.insert(F_ACTION);
        }
        if count < sum {
            m.insert(COUNT_ACTION);
        }
        m
    }

    /// `Pif_p = C`, `p ≠ r`: `Normal(p)` holds, so only `B-action` can
    /// fire — `(¬leaf_guard ∨ Leaf(p)) ∧ Pre_Potential_p ≠ ∅`. Under the
    /// leaf guard a claimer settles the set to empty; without it, the
    /// first `Pre_Potential_p` member settles it to `B-action`.
    #[inline]
    fn clean_scan(&self, view: View<'_, PifState>) -> ActionSet {
        let leaf_guard = self.features.leaf_guard;
        let mut pre_potential = false;
        for (q, s) in view.neighbor_states() {
            if s.phase == Phase::C {
                continue;
            }
            if s.par == view.pid() && q != self.root {
                // A participating claimer violates Leaf(p) and is outside
                // Pre_Potential_p.
                if leaf_guard {
                    return ActionSet::EMPTY;
                }
            } else if s.phase == Phase::B && !s.fok && self.level_of(q, s) < u32::from(self.l_max) {
                pre_potential = true;
                if !leaf_guard {
                    break;
                }
            }
        }
        if pre_potential {
            ActionSet::of(B_ACTION)
        } else {
            ActionSet::EMPTY
        }
    }

    /// `Pif_p = B`, `p ≠ r`: the parent decides `GoodPif`, `GoodLevel` and
    /// `GoodFok`; one pass over the broadcasting claimers decides `BLeaf(p)`
    /// and `Sum_p`. Under `Fok_p`, `Sum_Set_p` is empty, so the first
    /// claimer settles the pass.
    #[inline]
    fn broadcast_scan(&self, view: View<'_, PifState>, me: &PifState) -> ActionSet {
        let par = view.state(me.par);
        // With Pif_p = B: GoodPif ⇔ Pif_Par = B; GoodFok ⇔ (Fok_p ⇒ Fok_Par).
        let good_level = !self.features.level_guard
            || u32::from(me.level) == self.level_of(me.par, par) + 1;
        if par.phase != Phase::B || !good_level || (me.fok && !par.fok) {
            return ActionSet::of(B_CORRECTION);
        }
        let mut bleaf = true;
        let mut sum_raw: u64 = 1;
        for (q, s) in view.neighbor_states() {
            if s.phase != Phase::B || s.par != view.pid() || q == self.root {
                continue;
            }
            bleaf = false;
            if me.fok {
                break;
            }
            // Sum_Set_p: ¬Fok_p ∧ Par_q = p ∧ L_q = L_p + 1.
            if u32::from(s.level) == u32::from(me.level) + 1 {
                sum_raw += u64::from(s.count);
            }
        }
        let sum = sum_raw.min(u64::from(self.n_prime));
        let count = u64::from(me.count);
        if !me.fok && count > sum {
            return ActionSet::of(B_CORRECTION); // ¬GoodCount(p)
        }
        let mut m = ActionSet::EMPTY;
        if self.features.fok_wave && me.fok != par.fok {
            m.insert(FOK_ACTION);
        }
        if (!self.features.fok_wave || me.fok) && bleaf {
            m.insert(F_ACTION);
        }
        if !me.fok && count < sum {
            m.insert(COUNT_ACTION);
        }
        m
    }

    /// `Pif_p = F`, `p ≠ r`: the parent alone decides `Normal(p)`
    /// (`GoodCount` holds vacuously); then `Leaf(p) ∧ BFree(p)` fails at
    /// the first neighbor that broadcasts or is a participating claimer.
    #[inline]
    fn feedback_scan(&self, view: View<'_, PifState>, me: &PifState) -> ActionSet {
        let par = view.state(me.par);
        // With Pif_p = F: GoodPif ⇔ Pif_Par ≠ C; GoodFok ⇔ (Pif_Par = B ⇒
        // Fok_Par).
        let good_level = !self.features.level_guard
            || u32::from(me.level) == self.level_of(me.par, par) + 1;
        if par.phase == Phase::C || !good_level || (par.phase == Phase::B && !par.fok) {
            return ActionSet::of(F_CORRECTION);
        }
        let cleaning = view.neighbor_states().all(|(q, s)| {
            s.phase == Phase::C
                || (s.phase == Phase::F && !(s.par == view.pid() && q != self.root))
        });
        if cleaning {
            ActionSet::of(C_ACTION)
        } else {
            ActionSet::EMPTY
        }
    }
}

impl Protocol for PifProtocol {
    type State = PifState;

    fn action_names(&self) -> &'static [&'static str] {
        ACTION_NAMES
    }

    /// All seven guards evaluated in one neighborhood pass (module docs,
    /// "Guard evaluation"). Bit k ⇔ `ActionId(k)`, the order of the guard
    /// list: a first-action daemon runs the lowest.
    #[inline]
    fn enabled_actions(&self, view: View<'_, PifState>) -> ActionSet {
        let me = view.me();
        if view.pid() == self.root {
            self.root_scan(view, me)
        } else {
            match me.phase {
                Phase::C => self.clean_scan(view),
                Phase::B => self.broadcast_scan(view, me),
                Phase::F => self.feedback_scan(view, me),
            }
        }
    }

    fn execute(&self, view: View<'_, PifState>, action: ActionId) -> PifState {
        let mut s = *view.me();
        let is_root = view.pid() == self.root;
        match action {
            B_ACTION => {
                if is_root {
                    // Pif := B; Count := 1; Fok := (1 = N).
                    s.phase = Phase::B;
                    s.count = 1;
                    s.fok = self.n == 1;
                } else {
                    // Par := min_{≻p}(Potential_p); L := L_Par + 1;
                    // Count := 1; Fok := false; Pif := B. Potential_p is
                    // the minimal-level subset of Pre_Potential_p, so its
                    // minimum id is the minimum (level, id) — taken over
                    // Pre_Potential_p directly, without collecting either
                    // set.
                    let chordless = self.features.chordless_potential;
                    let par = self
                        .pre_potential(view)
                        .map(|(q, st)| (if chordless { self.level_of(q, st) } else { 0 }, q))
                        .min()
                        .expect("B-action executed with empty Potential")
                        .1;
                    s.par = par;
                    let par_level = self.level_of(par, view.state(par));
                    s.level = u16::try_from(par_level + 1).expect("level bounded by L_max");
                    s.count = 1;
                    s.fok = false;
                    s.phase = Phase::B;
                }
            }
            FOK_ACTION => {
                // Fok := true.
                s.fok = true;
            }
            F_ACTION => {
                s.phase = Phase::F;
            }
            C_ACTION => {
                s.phase = Phase::C;
            }
            COUNT_ACTION => {
                let sum = self.sum(view);
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

    fn classify(&self, action: ActionId) -> PhaseTag {
        match action {
            // The counter refresh is part of servicing the broadcast wave's
            // questioning mechanism, so it is charged to the broadcast phase.
            B_ACTION | COUNT_ACTION => PhaseTag::Broadcast,
            FOK_ACTION => PhaseTag::Fok,
            F_ACTION => PhaseTag::Feedback,
            C_ACTION => PhaseTag::Cleaning,
            B_CORRECTION | F_CORRECTION => PhaseTag::Correction,
            _ => PhaseTag::Other,
        }
    }

    fn action_spec(&self, action: ActionId) -> ActionSpec {
        let (priority, applicability, reads, writes) = match action {
            B_ACTION => (1, Applicability::Both, READS_B, WRITES_B),
            FOK_ACTION => (2, Applicability::NonRootOnly, ActionSpec::LOCAL_READS, WRITES_FOK),
            F_ACTION => (1, Applicability::Both, ActionSpec::LOCAL_READS, WRITES_PHASE),
            C_ACTION => (1, Applicability::Both, ActionSpec::LOCAL_READS, WRITES_PHASE),
            COUNT_ACTION => (3, Applicability::Both, ActionSpec::LOCAL_READS, WRITES_COUNT),
            B_CORRECTION => (0, Applicability::Both, ActionSpec::LOCAL_READS, WRITES_PHASE),
            F_CORRECTION => (0, Applicability::NonRootOnly, ActionSpec::LOCAL_READS, WRITES_PHASE),
            other => panic!("unknown action {other} for PIF protocol"),
        };
        ActionSpec { phase: self.classify(action), priority, applicability, reads, writes }
    }

    fn has_action_specs(&self) -> bool {
        true
    }

    fn register_names(&self) -> &'static [&'static str] {
        &["phase", "par", "level", "count", "fok"]
    }

    fn locally_normal(&self, view: View<'_, PifState>) -> bool {
        self.normal(view)
    }

    /// A non-root `Count-action` writes only `Count_p`, and the only guards
    /// that read a neighbor's `Count` are its parent's: `Sum_Set_q` counts
    /// the `Count` of the neighbors whose `Par` is `q`. So the action's one
    /// reader is `Par_p`, unchanged by the move. The root's `Count-action`
    /// also writes `Fok_r`, which every child reads, and every other
    /// action writes a register its neighbors read: those keep the
    /// default.
    #[inline]
    fn readers(&self, p: ProcId, before: &PifState, action: ActionId) -> Readers {
        if action == COUNT_ACTION && p != self.root {
            Readers::Only(before.par)
        } else {
            Readers::Neighbors
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initial;
    use pif_daemon::Simulator;
    use pif_graph::generators;

    fn sim_on(g: Graph) -> Simulator<PifProtocol> {
        let proto = PifProtocol::new(ProcId(0), &g);
        let init = initial::normal_starting(&g);
        Simulator::new(g, proto, init)
    }

    #[test]
    fn only_root_enabled_in_normal_starting_configuration() {
        let sim = sim_on(generators::ring(5).unwrap());
        assert_eq!(sim.enabled_procs().collect::<Vec<_>>(), [ProcId(0)]);
        assert_eq!(sim.enabled_actions(ProcId(0)), ActionSet::of(B_ACTION));
    }

    #[test]
    fn root_b_action_initializes_registers() {
        let mut sim = sim_on(generators::ring(5).unwrap());
        let mut d = pif_daemon::daemons::Synchronous::first_action();
        sim.step(&mut d).unwrap();
        let r = sim.state(ProcId(0));
        assert_eq!(r.phase, Phase::B);
        assert_eq!(r.count, 1);
        assert!(!r.fok);
    }

    #[test]
    fn neighbors_join_after_root_broadcasts() {
        let mut sim = sim_on(generators::chain(3).unwrap());
        let mut d = pif_daemon::daemons::Synchronous::first_action();
        sim.step(&mut d).unwrap(); // root B-action
        assert_eq!(sim.enabled_actions(ProcId(1)), ActionSet::of(B_ACTION));
        sim.step(&mut d).unwrap(); // p1 joins
        let s1 = sim.state(ProcId(1));
        assert_eq!(s1.phase, Phase::B);
        assert_eq!(s1.par, ProcId(0));
        assert_eq!(s1.level, 1);
        assert_eq!(s1.count, 1);
        assert!(!s1.fok);
    }

    #[test]
    fn potential_prefers_minimal_level() {
        // Triangle rooted at 0: after 0 and 1 are in B, processor 2 sees
        // both; it must pick the root (level 0) rather than p1 (level 1).
        let g = generators::complete(3).unwrap();
        let mut sim = sim_on(g);
        let mut d = pif_daemon::daemons::FixedSchedule::new([vec![ProcId(0)], vec![ProcId(1)]]);
        sim.step(&mut d).unwrap();
        sim.step(&mut d).unwrap();
        let proto = sim.protocol().clone();
        let pot = proto.potential(sim.view(ProcId(2)));
        assert_eq!(pot, vec![ProcId(0)]);
    }

    #[test]
    fn potential_without_chordless_feature_keeps_all() {
        let g = generators::complete(3).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g).with_features(Features {
            chordless_potential: false,
            ..Features::default()
        });
        let init = initial::normal_starting(&g);
        let mut sim = Simulator::new(g, proto, init);
        let mut d = pif_daemon::daemons::FixedSchedule::new([vec![ProcId(0)], vec![ProcId(1)]]);
        sim.step(&mut d).unwrap();
        sim.step(&mut d).unwrap();
        let proto = sim.protocol().clone();
        let pot = proto.potential(sim.view(ProcId(2)));
        assert_eq!(pot, vec![ProcId(0), ProcId(1)]);
    }

    #[test]
    fn b_action_parent_is_the_minimum_of_potential() {
        // The B-action takes min (level, id) over Pre_Potential directly;
        // on every view it must pick min(Potential), with and without
        // the chordless-potential feature.
        let g = generators::complete(4).unwrap();
        for chordless_potential in [true, false] {
            let proto = PifProtocol::new(ProcId(0), &g)
                .with_features(Features { chordless_potential, ..Features::paper() });
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let mut draw = |m: u64| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                (x >> 33) % m
            };
            let mut checked = 0;
            for _ in 0..20_000 {
                let states: Vec<PifState> = (0..4)
                    .map(|_| PifState {
                        phase: Phase::ALL[draw(3) as usize],
                        par: ProcId(draw(4) as u32),
                        level: 1 + draw(u64::from(proto.l_max())) as u16,
                        count: 1 + draw(4) as u32,
                        fok: draw(2) == 1,
                    })
                    .collect();
                for p in 1..4 {
                    let view = View::new(&g, &states, ProcId(p));
                    if let Some(&min) = proto.potential(view).iter().min() {
                        assert_eq!(proto.execute(view, B_ACTION).par, min, "{states:?} p{p}");
                        checked += 1;
                    }
                }
            }
            assert!(checked > 1_000, "only {checked} views had a non-empty Potential");
        }
    }

    #[test]
    fn full_cycle_on_chain_returns_to_start() {
        let g = generators::chain(4).unwrap();
        let mut sim = sim_on(g);
        let mut d = pif_daemon::daemons::Synchronous::first_action();
        let mut cycled = |s: &Simulator<PifProtocol>| {
            s.steps() > 0 && initial::is_normal_starting(s.states())
        };
        let stats = sim
            .run(
                &mut d,
                &mut pif_daemon::NoOpObserver,
                pif_daemon::StopPolicy::Predicate(pif_daemon::RunLimits::default(), &mut cycled),
            )
            .unwrap();
        assert!(stats.steps > 0, "cycle must progress");
        assert!(initial::is_normal_starting(sim.states()));
    }

    #[test]
    fn full_cycle_on_every_standard_topology() {
        for t in pif_graph::Topology::standard_suite() {
            let g = t.build().unwrap();
            let mut sim = sim_on(g);
            let mut d = pif_daemon::daemons::Synchronous::first_action();
            let mut cycled = |s: &Simulator<PifProtocol>| {
                s.steps() > 0 && initial::is_normal_starting(s.states())
            };
            let res = sim.run(
                &mut d,
                &mut pif_daemon::NoOpObserver,
                pif_daemon::StopPolicy::Predicate(pif_daemon::RunLimits::default(), &mut cycled),
            );
            assert!(res.is_ok(), "cycle did not complete on {t:?}: {res:?}");
        }
    }

    #[test]
    fn count_reaches_n_at_root_before_fok() {
        let g = generators::kary_tree(7, 2).unwrap();
        let mut sim = sim_on(g);
        let mut d = pif_daemon::daemons::Synchronous::first_action();
        let mut root_fok = |s: &Simulator<PifProtocol>| s.state(ProcId(0)).fok;
        let stats = sim
            .run(
                &mut d,
                &mut pif_daemon::NoOpObserver,
                pif_daemon::StopPolicy::Predicate(pif_daemon::RunLimits::default(), &mut root_fok),
            )
            .unwrap();
        assert!(stats.steps > 0);
        assert_eq!(sim.state(ProcId(0)).count, 7);
    }

    #[test]
    fn singleton_network_cycles() {
        let g = generators::singleton();
        let mut sim = sim_on(g);
        let mut d = pif_daemon::daemons::Synchronous::first_action();
        // B-action with N = 1 sets Fok immediately; F and C follow.
        sim.step(&mut d).unwrap();
        assert_eq!(sim.state(ProcId(0)).phase, Phase::B);
        assert!(sim.state(ProcId(0)).fok);
        sim.step(&mut d).unwrap();
        assert_eq!(sim.state(ProcId(0)).phase, Phase::F);
        sim.step(&mut d).unwrap();
        assert_eq!(sim.state(ProcId(0)).phase, Phase::C);
    }

    #[test]
    fn corrupted_root_is_corrected() {
        let g = generators::chain(3).unwrap();
        let mut sim = sim_on(g);
        // Root claims B with a full count but Fok = false: violates
        // GoodFok(r), so B-correction must be enabled.
        sim.corrupt(
            ProcId(0),
            PifState { phase: Phase::B, par: ProcId(0), level: 1, count: 3, fok: false },
        );
        assert!(sim.enabled_actions(ProcId(0)).contains(B_CORRECTION));
        let mut d = pif_daemon::daemons::CentralSequential::new();
        sim.step(&mut d).unwrap();
        assert_eq!(sim.state(ProcId(0)).phase, Phase::C);
    }

    #[test]
    fn orphaned_b_processor_is_abnormal() {
        let g = generators::chain(3).unwrap();
        let mut sim = sim_on(g);
        // p2 claims broadcast with parent p1 while p1 is still C.
        sim.corrupt(
            ProcId(2),
            PifState { phase: Phase::B, par: ProcId(1), level: 2, count: 1, fok: false },
        );
        assert!(sim.enabled_actions(ProcId(2)).contains(B_CORRECTION));
        // B-correction demotes to F, F-correction then cleans.
        let mut d = pif_daemon::daemons::FixedSchedule::new([vec![ProcId(2)], vec![ProcId(2)]]);
        sim.step(&mut d).unwrap();
        assert_eq!(sim.state(ProcId(2)).phase, Phase::F);
        assert!(sim.enabled_actions(ProcId(2)).contains(F_CORRECTION));
        sim.step(&mut d).unwrap();
        assert_eq!(sim.state(ProcId(2)).phase, Phase::C);
    }

    #[test]
    fn stale_pointer_blocks_broadcast_via_leaf_guard() {
        // p2 points at p1 with phase B; Leaf(p1) is false so p1 cannot
        // join the legal wave until p2 dissolves.
        let g = generators::chain(3).unwrap();
        let mut sim = sim_on(g);
        sim.corrupt(
            ProcId(2),
            PifState { phase: Phase::B, par: ProcId(1), level: 2, count: 1, fok: false },
        );
        let mut d = pif_daemon::daemons::FixedSchedule::new([vec![ProcId(0)]]);
        sim.step(&mut d).unwrap(); // root broadcasts
        assert!(
            !sim.enabled_actions(ProcId(1)).contains(B_ACTION),
            "Leaf guard must block p1 while p2 claims it as parent"
        );
    }

    #[test]
    fn leaf_guard_ablation_allows_blocked_broadcast() {
        let g = generators::chain(3).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g)
            .with_features(Features { leaf_guard: false, ..Features::default() });
        let mut init = initial::normal_starting(&g);
        init[2] = PifState { phase: Phase::B, par: ProcId(1), level: 2, count: 1, fok: false };
        let mut sim = Simulator::new(g, proto, init);
        let mut d = pif_daemon::daemons::FixedSchedule::new([vec![ProcId(0)]]);
        sim.step(&mut d).unwrap();
        assert!(
            sim.enabled_actions(ProcId(1)).contains(B_ACTION),
            "without the Leaf guard p1 may broadcast over the stale claim"
        );
    }

    #[test]
    fn wrong_root_n_stalls_the_wave() {
        // Root told N = 5 on a 3-processor chain: Count never reaches 5,
        // Fok never set, feedback never starts.
        let g = generators::chain(3).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g).with_n_prime(5).with_root_n(5);
        let init = initial::normal_starting(&g);
        let mut sim = Simulator::new(g, proto, init);
        let mut d = pif_daemon::daemons::Synchronous::first_action();
        let stats = sim
            .run(
                &mut d,
                &mut pif_daemon::NoOpObserver,
                pif_daemon::StopPolicy::Fixpoint(pif_daemon::RunLimits::new(10_000, 10_000)),
            )
            .unwrap();
        assert!(stats.terminal);
        assert_eq!(sim.state(ProcId(0)).phase, Phase::B);
        assert!(!sim.state(ProcId(0)).fok, "feedback must never start");
    }

    #[test]
    fn sum_is_clamped_to_n_prime() {
        let g = generators::star(4).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g);
        // Root in B, all leaves claim par = root, level 1, inflated counts.
        let mut states = initial::normal_starting(&g);
        states[0] = PifState { phase: Phase::B, par: ProcId(0), level: 1, count: 1, fok: false };
        #[allow(clippy::needless_range_loop)]
        for i in 1..4 {
            states[i] =
                PifState { phase: Phase::B, par: ProcId(0), level: 1, count: 4, fok: false };
        }
        let sim = Simulator::new(g, proto.clone(), states);
        // Raw sum = 1 + 3·4 = 13, clamped to N' = 4.
        assert_eq!(proto.sum(sim.view(ProcId(0))), 4);
    }

    #[test]
    fn stale_clean_pointer_does_not_deadlock_feedback() {
        // Regression for the BLeaf transliteration note: chain r - p - q
        // with r and p corrupted into a fully-counted Fok'd wave and q
        // clean but with its don't-care parent register pointing at p.
        // With the literal (unqualified) BLeaf the system is terminal
        // here — contradicting Theorem 2 case 2. With the qualified
        // BLeaf, p's F-action is enabled and the wave drains.
        let g = generators::chain(3).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g);
        let init = vec![
            PifState { phase: Phase::B, par: ProcId(0), level: 1, count: 3, fok: true },
            PifState { phase: Phase::B, par: ProcId(0), level: 1, count: 2, fok: true },
            PifState { phase: Phase::C, par: ProcId(1), level: 2, count: 1, fok: false },
        ];
        let mut sim = Simulator::new(g, proto, init);
        assert!(!sim.is_terminal(), "the corrupted wave must be able to drain");
        assert!(sim.enabled_actions(ProcId(1)).contains(F_ACTION));
        // And it drains all the way to the normal starting configuration.
        let mut d = pif_daemon::daemons::CentralSequential::new();
        let mut drained = |s: &Simulator<PifProtocol>| initial::is_normal_starting(s.states());
        sim.run(
            &mut d,
            &mut pif_daemon::NoOpObserver,
            pif_daemon::StopPolicy::Predicate(pif_daemon::RunLimits::new(10_000, 10_000), &mut drained),
        )
        .unwrap();
        assert!(initial::is_normal_starting(sim.states()));
    }

    #[test]
    #[should_panic(expected = "root out of range")]
    fn rejects_bad_root() {
        let g = generators::chain(2).unwrap();
        let _ = PifProtocol::new(ProcId(9), &g);
    }

    #[test]
    fn l_max_covers_the_largest_admitted_network() {
        let g = pif_graph::Topology::parse("chain:65536").unwrap().build().unwrap();
        assert_eq!(PifProtocol::new(ProcId(0), &g).l_max(), 65_535);
    }

    #[test]
    #[should_panic(expected = "exceeds the 65536 that L_max >= N - 1 admits")]
    fn rejects_networks_the_level_register_cannot_span() {
        let g = pif_graph::Topology::parse("chain:65537").unwrap().build().unwrap();
        let _ = PifProtocol::new(ProcId(0), &g);
    }
}
