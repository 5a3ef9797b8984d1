//! Deliberately broken protocol variants used to prove the analyzer's
//! checks have teeth.
//!
//! Each mutant wraps a correct protocol and re-introduces a bug class the
//! paper's design rules out: a widened guard that destroys priority
//! determinism ([`WidenedCorrectionPif`] → `AN002`), a declared write to a
//! neighbor register that escapes the locally shared memory model
//! ([`NeighborWriteSpecPif`] → `AN001`), an action spec that hides a
//! real read dependence ([`UnderReadEcho`] → `AN003`), a cleaning that
//! re-broadcasts ([`SkipCleaningPif`] → `AN008`), a correction that
//! livelocks ([`CyclicCorrectionPif`] → `AN009`), a hand premise claiming
//! interference the specs cannot support ([`OverclaimedInterferencePif`]
//! → `AN010`), and a guard that can never fire ([`DisabledFokPif`] →
//! `AN011`). Each mutant is constructed to trip *only* its own check —
//! the exclusivity the `mutant_protocols` integration tests pin down.

use pif_baselines::echo::{EchoProtocol, EchoState, ECHO_B};
use pif_core::protocol::{B_CORRECTION, C_ACTION, COUNT_ACTION, FOK_ACTION, F_CORRECTION};
use pif_core::{Phase, PifProtocol, PifState};
use pif_daemon::{ActionId, ActionSet, ActionSpec, PhaseTag, Protocol, RegAccess, View};
use pif_graph::{Graph, ProcId};

use crate::DomainModel;

/// Delegates the constructor and the [`DomainModel`] surface to an inner
/// [`PifProtocol`], keeping the PIF-based mutants below down to their
/// actual deviation.
macro_rules! delegate_pif_mutant {
    ($name:ident) => {
        impl $name {
            /// Wraps the correct protocol for `graph` rooted at `root`.
            pub fn new(root: ProcId, graph: &Graph) -> Self {
                $name { inner: PifProtocol::new(root, graph) }
            }
        }

        impl DomainModel for $name {
            fn registers(&self) -> &'static [&'static str] {
                self.inner.registers()
            }

            fn domain(&self, graph: &Graph, p: ProcId) -> Vec<PifState> {
                self.inner.domain(graph, p)
            }

            fn project(&self, s: &PifState) -> Vec<u64> {
                self.inner.project(s)
            }

            fn analysis_root(&self) -> Option<ProcId> {
                self.inner.analysis_root()
            }
        }
    };
}

/// A PIF variant whose `F-correction` guard drops the paper's
/// `Pif_p = F` precondition: the correction fires from *any* abnormal
/// non-root phase. An abnormal broadcast-phase processor is then
/// simultaneously `B-correction`- and `F-correction`-enabled — both
/// priority class 0 — so the prioritized-guard determinism argument
/// (Lemma "at most one action per class per processor") collapses. The
/// widened edge itself stays phase-legal (`B → C` is a permitted
/// correction target, and the extra exit only shortens correction
/// paths), so the analyzer must flag `AN002` and nothing else.
#[derive(Clone, Debug)]
pub struct WidenedCorrectionPif {
    inner: PifProtocol,
}

delegate_pif_mutant!(WidenedCorrectionPif);

impl Protocol for WidenedCorrectionPif {
    type State = PifState;

    fn action_names(&self) -> &'static [&'static str] {
        self.inner.action_names()
    }

    fn enabled_actions(&self, view: View<'_, PifState>) -> ActionSet {
        let mut set = self.inner.enabled_actions(view);
        // The mutation: `Pif_p = F` dropped from the F-correction guard —
        // it now also fires from an abnormal broadcast phase.
        if view.pid() != self.inner.root()
            && !self.inner.normal(view)
            && view.me().phase == Phase::B
        {
            set.insert(F_CORRECTION);
        }
        set
    }

    fn execute(&self, view: View<'_, PifState>, action: ActionId) -> PifState {
        self.inner.execute(view, action)
    }

    fn classify(&self, action: ActionId) -> PhaseTag {
        self.inner.classify(action)
    }

    fn action_spec(&self, action: ActionId) -> ActionSpec {
        self.inner.action_spec(action)
    }

    fn has_action_specs(&self) -> bool {
        true
    }

    fn locally_normal(&self, view: View<'_, PifState>) -> bool {
        self.inner.locally_normal(view)
    }
}

/// A PIF variant whose `Count`-action spec *declares* a write to the
/// neighbors' `count` registers — the kind of shared-variable shortcut
/// the locally shared memory model forbids (a processor may read
/// neighbor registers but write only its own). The behavior is
/// unchanged (the simulator cannot even express a neighbor write); the
/// analyzer must reject the declaration statically with `AN001`.
#[derive(Clone, Debug)]
pub struct NeighborWriteSpecPif {
    inner: PifProtocol,
}

impl NeighborWriteSpecPif {
    /// Wraps the correct protocol for `graph` rooted at `root`.
    pub fn new(root: ProcId, graph: &Graph) -> Self {
        NeighborWriteSpecPif { inner: PifProtocol::new(root, graph) }
    }
}

impl Protocol for NeighborWriteSpecPif {
    type State = PifState;

    fn action_names(&self) -> &'static [&'static str] {
        self.inner.action_names()
    }

    fn enabled_actions(&self, view: View<'_, PifState>) -> ActionSet {
        self.inner.enabled_actions(view)
    }

    fn execute(&self, view: View<'_, PifState>, action: ActionId) -> PifState {
        self.inner.execute(view, action)
    }

    fn classify(&self, action: ActionId) -> PhaseTag {
        self.inner.classify(action)
    }

    fn action_spec(&self, action: ActionId) -> ActionSpec {
        const WRITES_BAD: &[RegAccess] = &[
            RegAccess::own("count"),
            RegAccess::own("fok"),
            RegAccess::neighbor("count"),
        ];
        let spec = self.inner.action_spec(action);
        if action == COUNT_ACTION {
            ActionSpec { writes: WRITES_BAD, ..spec }
        } else {
            spec
        }
    }

    fn has_action_specs(&self) -> bool {
        true
    }

    fn locally_normal(&self, view: View<'_, PifState>) -> bool {
        self.inner.locally_normal(view)
    }
}

impl DomainModel for NeighborWriteSpecPif {
    fn registers(&self) -> &'static [&'static str] {
        self.inner.registers()
    }

    fn domain(&self, graph: &Graph, p: ProcId) -> Vec<PifState> {
        self.inner.domain(graph, p)
    }

    fn project(&self, s: &PifState) -> Vec<u64> {
        self.inner.project(s)
    }

    fn analysis_root(&self) -> Option<ProcId> {
        self.inner.analysis_root()
    }
}

/// An echo variant whose `B-action` spec omits the `neighbor.val` read —
/// but the statement still copies the broadcasting parent's value
/// register. The declared read-set under-approximates the observed one,
/// so the interference graph built from it would silently miss a real
/// write→read edge. Differential probing must catch it: `AN003`.
#[derive(Clone, Debug)]
pub struct UnderReadEcho {
    inner: EchoProtocol,
}

impl UnderReadEcho {
    /// Wraps the correct echo protocol rooted at `root`.
    pub fn new(root: ProcId, broadcast_val: u64) -> Self {
        UnderReadEcho { inner: EchoProtocol::new(root, broadcast_val) }
    }
}

impl Protocol for UnderReadEcho {
    type State = EchoState;

    fn action_names(&self) -> &'static [&'static str] {
        self.inner.action_names()
    }

    fn enabled_actions(&self, view: View<'_, EchoState>) -> ActionSet {
        self.inner.enabled_actions(view)
    }

    fn execute(&self, view: View<'_, EchoState>, action: ActionId) -> EchoState {
        self.inner.execute(view, action)
    }

    fn classify(&self, action: ActionId) -> PhaseTag {
        self.inner.classify(action)
    }

    fn action_spec(&self, action: ActionId) -> ActionSpec {
        const READS_HIDDEN: &[RegAccess] =
            &[RegAccess::own("phase"), RegAccess::neighbor("phase")];
        let spec = self.inner.action_spec(action);
        if action == ECHO_B {
            ActionSpec { reads: READS_HIDDEN, ..spec }
        } else {
            spec
        }
    }

    fn has_action_specs(&self) -> bool {
        true
    }
}

impl DomainModel for UnderReadEcho {
    fn registers(&self) -> &'static [&'static str] {
        self.inner.registers()
    }

    fn domain(&self, graph: &Graph, p: ProcId) -> Vec<EchoState> {
        self.inner.domain(graph, p)
    }

    fn project(&self, s: &EchoState) -> Vec<u64> {
        self.inner.project(s)
    }

    fn analysis_root(&self) -> Option<ProcId> {
        self.inner.analysis_root()
    }
}

/// A PIF variant whose `C-action` *statement* re-broadcasts: cleaning
/// sets `Pif := B` instead of `C`. The guard, spec, and declared write
/// set are untouched (`phase` is still the only register written), so
/// the static and differential checks stay silent — but the abstract
/// phase machine now carries a `Cleaning`-tagged edge `F → B`, broadcast
/// is re-entered without ever passing the clean phase, and the B→F→C
/// cycle discipline of Section 3 is gone. The analyzer must flag
/// `AN008`.
#[derive(Clone, Debug)]
pub struct SkipCleaningPif {
    inner: PifProtocol,
}

delegate_pif_mutant!(SkipCleaningPif);

impl Protocol for SkipCleaningPif {
    type State = PifState;

    fn action_names(&self) -> &'static [&'static str] {
        self.inner.action_names()
    }

    fn enabled_actions(&self, view: View<'_, PifState>) -> ActionSet {
        self.inner.enabled_actions(view)
    }

    fn execute(&self, view: View<'_, PifState>, action: ActionId) -> PifState {
        let mut s = self.inner.execute(view, action);
        if action == C_ACTION {
            // The mutation: cleaning re-enters the broadcast phase.
            s.phase = Phase::B;
        }
        s
    }

    fn classify(&self, action: ActionId) -> PhaseTag {
        self.inner.classify(action)
    }

    fn action_spec(&self, action: ActionId) -> ActionSpec {
        self.inner.action_spec(action)
    }

    fn has_action_specs(&self) -> bool {
        true
    }

    fn locally_normal(&self, view: View<'_, PifState>) -> bool {
        self.inner.locally_normal(view)
    }
}

/// A PIF variant whose non-root `B-correction` no longer demotes the
/// phase: it flips the `Fok` flag and *stays in `B`*. The correction
/// edge `B → B` keeps the phase-order rules happy (corrections may stay
/// outside `B`-entry), the flipped register is declared in the write
/// set, and guards are untouched — but an abnormal broadcast state now
/// corrects into another abnormal broadcast state and back, a correction
/// livelock. No ranking function exists and the Theorem 1 window is
/// unreachable: the analyzer must flag `AN009`.
#[derive(Clone, Debug)]
pub struct CyclicCorrectionPif {
    inner: PifProtocol,
}

delegate_pif_mutant!(CyclicCorrectionPif);

impl Protocol for CyclicCorrectionPif {
    type State = PifState;

    fn action_names(&self) -> &'static [&'static str] {
        self.inner.action_names()
    }

    fn enabled_actions(&self, view: View<'_, PifState>) -> ActionSet {
        self.inner.enabled_actions(view)
    }

    fn execute(&self, view: View<'_, PifState>, action: ActionId) -> PifState {
        if action == B_CORRECTION && view.pid() != self.inner.root() {
            // The mutation: flip `Fok`, keep broadcasting.
            let mut s = *view.me();
            s.fok = !s.fok;
            return s;
        }
        self.inner.execute(view, action)
    }

    fn classify(&self, action: ActionId) -> PhaseTag {
        self.inner.classify(action)
    }

    fn action_spec(&self, action: ActionId) -> ActionSpec {
        // The flipped flag is declared, so write-set conformance (AN001)
        // holds; over-declaring `phase` for the root's unchanged branch
        // is the safe direction AN003 permits.
        const WRITES_CYCLE: &[RegAccess] =
            &[RegAccess::own("phase"), RegAccess::own("fok")];
        let spec = self.inner.action_spec(action);
        if action == B_CORRECTION {
            ActionSpec { writes: WRITES_CYCLE, ..spec }
        } else {
            spec
        }
    }

    fn has_action_specs(&self) -> bool {
        true
    }

    fn locally_normal(&self, view: View<'_, PifState>) -> bool {
        self.inner.locally_normal(view)
    }
}

/// A behaviorally *correct* PIF whose hand-declared interference premise
/// over-claims: it advertises an own-processor `Fok-action → B-action`
/// edge, but `Fok-action` writes only `fok` and `B-action`'s own-scope
/// reads are limited to `phase` — the spec-derived graph has no such
/// edge, so the machine derivation cannot account for the claim. The
/// derived-vs-advertised containment check must flag `AN010` (and
/// nothing else: the runnable protocol is the unmodified PIF).
#[derive(Clone, Debug)]
pub struct OverclaimedInterferencePif {
    inner: PifProtocol,
}

impl OverclaimedInterferencePif {
    /// Wraps the correct protocol for `graph` rooted at `root`.
    pub fn new(root: ProcId, graph: &Graph) -> Self {
        OverclaimedInterferencePif { inner: PifProtocol::new(root, graph) }
    }
}

impl DomainModel for OverclaimedInterferencePif {
    fn registers(&self) -> &'static [&'static str] {
        self.inner.registers()
    }

    fn domain(&self, graph: &Graph, p: ProcId) -> Vec<PifState> {
        self.inner.domain(graph, p)
    }

    fn project(&self, s: &PifState) -> Vec<u64> {
        self.inner.project(s)
    }

    fn analysis_root(&self) -> Option<ProcId> {
        self.inner.analysis_root()
    }

    fn advertised_interference(&self) -> crate::InterferenceGraph {
        // The mutation lives here, not in the transition system: one
        // own-scope edge the declared read/write sets cannot produce.
        let mut g = crate::InterferenceGraph::from_protocol(self, self.registers());
        g.edges.push(crate::InterferenceEdge {
            src: "Fok-action".to_string(),
            dst: "B-action".to_string(),
            across_link: false,
            registers: Vec::new(),
        });
        g
    }
}

impl Protocol for OverclaimedInterferencePif {
    type State = PifState;

    fn action_names(&self) -> &'static [&'static str] {
        self.inner.action_names()
    }

    fn enabled_actions(&self, view: View<'_, PifState>) -> ActionSet {
        self.inner.enabled_actions(view)
    }

    fn execute(&self, view: View<'_, PifState>, action: ActionId) -> PifState {
        self.inner.execute(view, action)
    }

    fn classify(&self, action: ActionId) -> PhaseTag {
        self.inner.classify(action)
    }

    fn action_spec(&self, action: ActionId) -> ActionSpec {
        self.inner.action_spec(action)
    }

    fn has_action_specs(&self) -> bool {
        true
    }

    fn locally_normal(&self, view: View<'_, PifState>) -> bool {
        self.inner.locally_normal(view)
    }
}

/// A PIF variant whose `Fok-action` guard is pinned false: the action is
/// still named, classified, and fully spec'd, but no view ever enables
/// it. Nothing dynamic can go wrong with an action that never fires —
/// every other check stays silent — yet the abstract machine proves the
/// action unreachable in *any* configuration, which is exactly the
/// dead-code finding `AN011` exists for.
#[derive(Clone, Debug)]
pub struct DisabledFokPif {
    inner: PifProtocol,
}

delegate_pif_mutant!(DisabledFokPif);

impl Protocol for DisabledFokPif {
    type State = PifState;

    fn action_names(&self) -> &'static [&'static str] {
        self.inner.action_names()
    }

    fn enabled_actions(&self, view: View<'_, PifState>) -> ActionSet {
        // The mutation: the Fok guard never holds.
        self.inner.enabled_actions(view).into_iter().filter(|&a| a != FOK_ACTION).collect()
    }

    fn execute(&self, view: View<'_, PifState>, action: ActionId) -> PifState {
        self.inner.execute(view, action)
    }

    fn classify(&self, action: ActionId) -> PhaseTag {
        self.inner.classify(action)
    }

    fn action_spec(&self, action: ActionId) -> ActionSpec {
        self.inner.action_spec(action)
    }

    fn has_action_specs(&self) -> bool {
        true
    }

    fn locally_normal(&self, view: View<'_, PifState>) -> bool {
        self.inner.locally_normal(view)
    }
}
