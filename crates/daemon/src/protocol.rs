use std::cell::Cell;
use std::fmt;

use pif_graph::{Graph, ProcId};

use crate::{EnabledIndex, EnabledProcs};

/// Index of an action in a protocol's guarded-action list.
///
/// Actions are identified by their position in [`Protocol::action_names`];
/// the paper's `B-action`, `F-action`, … become `ActionId(0)`, `ActionId(1)`,
/// ….
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActionId(pub usize);

impl ActionId {
    /// The action's position in the protocol's action list.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ActionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// A set of a protocol's actions, one bit each: bit k ⇔ `ActionId(k)`.
///
/// [`Protocol::enabled_actions`] reports a processor's enabled actions as
/// one, and the simulator, the daemons and the lossy transport pass it
/// around by value. Iteration is ascending, so the *first* enabled action
/// is the lowest [`ActionId`]. A protocol has at most
/// [`ActionSet::CAPACITY`] actions; adding a higher id panics.
///
/// ```
/// use pif_daemon::{ActionId, ActionSet};
///
/// let set: ActionSet = [ActionId(4), ActionId(1)].into_iter().collect();
/// assert_eq!(set.first(), Some(ActionId(1)));
/// assert_eq!(set.nth(1), Some(ActionId(4)));
/// assert_eq!(set.len(), 2);
/// assert!(set.contains(ActionId(4)) && !set.contains(ActionId(0)));
/// assert_eq!(set.into_iter().collect::<Vec<_>>(), [ActionId(1), ActionId(4)]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ActionSet(u32);

impl ActionSet {
    /// Most actions a protocol may have.
    pub const CAPACITY: usize = u32::BITS as usize;

    /// The empty set: no action enabled.
    pub const EMPTY: ActionSet = ActionSet(0);

    /// The set whose bit k is `bits`' bit k.
    #[inline]
    pub const fn from_bits(bits: u32) -> Self {
        ActionSet(bits)
    }

    /// The set as bits, bit k ⇔ `ActionId(k)`.
    #[inline]
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// The set holding `action` alone.
    #[inline]
    pub const fn of(action: ActionId) -> Self {
        assert!(action.0 < Self::CAPACITY, "action id beyond the set's capacity");
        ActionSet(1 << action.0)
    }

    /// Adds `action`.
    #[inline]
    pub fn insert(&mut self, action: ActionId) {
        self.0 |= Self::of(action).0;
    }

    /// Whether `action` is in the set.
    #[inline]
    pub const fn contains(self, action: ActionId) -> bool {
        action.0 < Self::CAPACITY && self.0 >> action.0 & 1 != 0
    }

    /// Whether the set is empty (the processor is disabled).
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of actions in the set.
    #[inline]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The lowest action, `None` if the set is empty.
    #[inline]
    pub fn first(self) -> Option<ActionId> {
        (self.0 != 0).then(|| ActionId(self.0.trailing_zeros() as usize))
    }

    /// The `n`-th lowest action, counting from 0; `None` past the last.
    #[inline]
    pub fn nth(self, n: usize) -> Option<ActionId> {
        self.into_iter().nth(n)
    }
}

impl fmt::Debug for ActionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(*self).finish()
    }
}

impl FromIterator<ActionId> for ActionSet {
    fn from_iter<I: IntoIterator<Item = ActionId>>(iter: I) -> Self {
        let mut set = ActionSet::EMPTY;
        iter.into_iter().for_each(|a| set.insert(a));
        set
    }
}

impl IntoIterator for ActionSet {
    type Item = ActionId;
    type IntoIter = ActionSetIter;

    #[inline]
    fn into_iter(self) -> ActionSetIter {
        ActionSetIter(self.0)
    }
}

/// The actions of an [`ActionSet`], ascending.
#[derive(Clone, Debug)]
pub struct ActionSetIter(u32);

impl Iterator for ActionSetIter {
    type Item = ActionId;

    #[inline]
    fn next(&mut self) -> Option<ActionId> {
        let first = ActionSet(self.0).first()?;
        self.0 &= self.0 - 1;
        Some(first)
    }
}

/// Phase of the paper's PIF wave that an action belongs to.
///
/// The PIF cycle is built from a broadcast wave (`B`), the normality
/// feedback wave (`Fok`), the feedback wave proper (`F`), and the cleaning
/// wave (`C`); the snap-stabilization proof additionally distinguishes the
/// correction actions that erase abnormal trees. Protocols map their
/// [`ActionId`]s onto these phases via [`Protocol::classify`] so that
/// observers (e.g. `MetricsObserver`) can attribute cost to the phase a
/// theorem actually bounds. Protocols outside the PIF family leave the
/// default implementation, which classifies everything as
/// [`PhaseTag::Other`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PhaseTag {
    /// Broadcast-wave actions (the paper's `B-action`, plus auxiliary
    /// broadcast bookkeeping such as the questioning counter).
    Broadcast,
    /// The normality-question wave (`Fok-action`).
    Fok,
    /// Feedback-wave actions (`F-action`).
    Feedback,
    /// Cleaning-wave actions (`C-action`).
    Cleaning,
    /// Correction actions erasing abnormal trees (`B-correction`,
    /// `F-correction`).
    Correction,
    /// Anything the protocol does not attribute to a PIF phase.
    Other,
}

impl PhaseTag {
    /// All tags, in [`PhaseTag::index`] order.
    pub const ALL: [PhaseTag; 6] = [
        PhaseTag::Broadcast,
        PhaseTag::Fok,
        PhaseTag::Feedback,
        PhaseTag::Cleaning,
        PhaseTag::Correction,
        PhaseTag::Other,
    ];

    /// Number of distinct tags (the size of per-phase counter arrays).
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index of this tag, suitable for array-backed counters.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short lowercase name (`"broadcast"`, `"fok"`, …), stable across
    /// releases — used in trace files and bench reports.
    pub const fn name(self) -> &'static str {
        match self {
            PhaseTag::Broadcast => "broadcast",
            PhaseTag::Fok => "fok",
            PhaseTag::Feedback => "feedback",
            PhaseTag::Cleaning => "cleaning",
            PhaseTag::Correction => "correction",
            PhaseTag::Other => "other",
        }
    }
}

impl fmt::Display for PhaseTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whose copy of a register an action accesses, in the locally shared
/// memory model: a processor may read its own registers and its
/// neighbors', and write **only its own**. [`ActionSpec`] declarations
/// range over these two scopes; a declared [`Scope::Neighbor`] *write*
/// is a model violation (`pif-analyze` diagnostic `AN001`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Scope {
    /// The acting processor's own register.
    Own,
    /// A register of some neighbor of the acting processor.
    Neighbor,
}

impl Scope {
    /// Short lowercase name (`"own"` / `"neighbor"`), stable for reports.
    pub const fn name(self) -> &'static str {
        match self {
            Scope::Own => "own",
            Scope::Neighbor => "neighbor",
        }
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One register access (a scope plus a register name) in an
/// [`ActionSpec`] read- or write-set. Register names are
/// protocol-defined (e.g. `"phase"`, `"par"`, `"count"`); the wildcard
/// [`ActionSpec::WILDCARD`] matches every register of the scope.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegAccess {
    /// Whose register.
    pub scope: Scope,
    /// Which register (or [`ActionSpec::WILDCARD`]).
    pub reg: &'static str,
}

impl RegAccess {
    /// An access to the acting processor's own register `reg`.
    pub const fn own(reg: &'static str) -> Self {
        RegAccess { scope: Scope::Own, reg }
    }

    /// An access to a neighbor's register `reg`.
    pub const fn neighbor(reg: &'static str) -> Self {
        RegAccess { scope: Scope::Neighbor, reg }
    }

    /// Whether this declaration covers an access to `(scope, reg)`.
    pub fn covers(&self, scope: Scope, reg: &str) -> bool {
        self.scope == scope && (self.reg == ActionSpec::WILDCARD || self.reg == reg)
    }
}

impl fmt::Display for RegAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.scope, self.reg)
    }
}

/// Which processor class an action's guard can hold for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Applicability {
    /// Root and non-root processors alike.
    Both,
    /// Only the root's program (Algorithm 1) contains the action.
    RootOnly,
    /// Only non-root programs (Algorithm 2) contain the action.
    NonRootOnly,
}

impl Applicability {
    /// Whether the action may be enabled at a processor of this class.
    pub const fn covers(self, is_root: bool) -> bool {
        match self {
            Applicability::Both => true,
            Applicability::RootOnly => is_root,
            Applicability::NonRootOnly => !is_root,
        }
    }

    /// Short stable name for reports.
    pub const fn name(self) -> &'static str {
        match self {
            Applicability::Both => "both",
            Applicability::RootOnly => "root-only",
            Applicability::NonRootOnly => "non-root-only",
        }
    }
}

/// Static metadata one action declares about itself: the structural
/// facts the paper's correctness argument rests on, made checkable.
///
/// * `reads` — every register (own and neighbors') the action's guard
///   *or* statement may depend on. The contract is **declared ⊇
///   observed**: `pif-analyze` cross-checks the declaration against an
///   instrumented view and against differential probing over the
///   register domains, so an under-declaration is caught, while
///   over-declaration merely loses precision.
/// * `writes` — every register the statement may assign. The locally
///   shared memory model restricts writes to [`Scope::Own`]; declaring a
///   neighbor write is rejected statically.
/// * `priority` — the action's guard-priority class. Two actions in the
///   same class must never be simultaneously enabled at one processor
///   (their guards are disjoint by construction); simultaneously enabled
///   actions of *different* classes are resolved by the class order
///   (smaller = higher priority). This is what "at most one action class
///   fires per processor" means statically.
/// * `phase` — the PIF phase the action implements; must agree with
///   [`Protocol::classify`]. Actions tagged [`PhaseTag::Correction`]
///   must be disabled in every view satisfying
///   [`Protocol::locally_normal`] (correction quiescence).
/// * `applicability` — whether the action belongs to the root's program,
///   the non-root program, or both.
#[derive(Clone, Copy, Debug)]
pub struct ActionSpec {
    /// The PIF phase this action implements.
    pub phase: PhaseTag,
    /// Guard-priority class (smaller = higher priority). Guards within
    /// one class must be pairwise disjoint.
    pub priority: u8,
    /// Which processor class the action applies to.
    pub applicability: Applicability,
    /// Declared read-set (own + neighbor registers), guard and statement
    /// combined. Must over-approximate the observed reads.
    pub reads: &'static [RegAccess],
    /// Declared write-set. Must be [`Scope::Own`] only.
    pub writes: &'static [RegAccess],
}

impl ActionSpec {
    /// Register name matching every register of its scope.
    pub const WILDCARD: &'static str = "*";

    /// The maximally conservative read declaration: everything in the
    /// local view (own registers plus all neighbors').
    pub const LOCAL_READS: &'static [RegAccess] =
        &[RegAccess::own(Self::WILDCARD), RegAccess::neighbor(Self::WILDCARD)];

    /// The maximally conservative *legal* write declaration: all own
    /// registers (the model forbids more).
    pub const OWN_WRITES: &'static [RegAccess] = &[RegAccess::own(Self::WILDCARD)];

    /// Whether the declared read-set covers a read of `(scope, reg)`.
    pub fn reads_reg(&self, scope: Scope, reg: &str) -> bool {
        self.reads.iter().any(|a| a.covers(scope, reg))
    }

    /// Whether the declared write-set covers a write of `(scope, reg)`.
    pub fn writes_reg(&self, scope: Scope, reg: &str) -> bool {
        self.writes.iter().any(|a| a.covers(scope, reg))
    }
}

/// Records which processors' registers a [`View`] actually read, for the
/// analyzer's spy-view cross-check (declared read-set ⊇ observed reads).
///
/// The probe works at *processor* granularity — a set bit means "some
/// register of that processor was read". Register-granular dependencies
/// are recovered separately by differential probing over the register
/// domains; the probe's role is to catch reads of processors outside the
/// local window (own + neighbors), which no declaration can legalize.
///
/// Uses a `u64` bitmask, so spied views are limited to networks of at
/// most 64 processors — far above anything the small-domain enumeration
/// visits.
#[derive(Debug, Default)]
pub struct ReadProbe {
    mask: Cell<u64>,
}

impl ReadProbe {
    /// Creates an empty probe.
    pub fn new() -> Self {
        ReadProbe::default()
    }

    /// Clears all recorded reads (reuse between evaluations).
    #[inline]
    pub fn clear(&self) {
        self.mask.set(0);
    }

    /// Marks processor `q` as read.
    #[inline]
    pub fn mark(&self, q: ProcId) {
        debug_assert!(q.index() < 64, "ReadProbe supports at most 64 processors");
        self.mask.set(self.mask.get() | 1u64 << q.index());
    }

    /// Whether any register of processor `q` was read.
    #[inline]
    pub fn was_read(&self, q: ProcId) -> bool {
        self.mask.get() & (1u64 << q.index()) != 0
    }

    /// The raw bitmask of processors read (bit `i` ⇔ processor `i`).
    #[inline]
    pub fn mask(&self) -> u64 {
        self.mask.get()
    }
}

/// A guarded-action protocol in the locally shared memory model.
///
/// A protocol is evaluated per processor: given a read-only [`View`] of the
/// processor's own state and its neighbors' states, [`enabled_actions`]
/// reports which guards hold, and [`execute`] computes the processor's next
/// state for one chosen action. Guard evaluation and execution against the
/// same configuration form one atomic step, exactly as in the paper's model.
/// A protocol has at most [`ActionSet::CAPACITY`] actions.
///
/// Implementations must be *pure*: the same view must always produce the
/// same enabled set and the same successor state. The simulator relies on
/// this to evaluate all selected processors against the old configuration.
///
/// [`enabled_actions`]: Protocol::enabled_actions
/// [`execute`]: Protocol::execute
pub trait Protocol {
    /// Per-processor register state.
    type State: Clone + PartialEq + fmt::Debug;

    /// Names of the protocol's actions, indexed by [`ActionId`].
    fn action_names(&self) -> &'static [&'static str];

    /// The actions whose guards hold for the viewed processor. A daemon
    /// that runs a processor's *first* enabled action runs the lowest
    /// [`ActionId`] in the set.
    fn enabled_actions(&self, view: View<'_, Self::State>) -> ActionSet;

    /// Computes the viewed processor's next state under `action`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `action`'s guard does not hold in
    /// `view`; the simulator only calls this for actions it was told are
    /// enabled.
    fn execute(&self, view: View<'_, Self::State>, action: ActionId) -> Self::State;

    /// Human-readable name of an action (falls back to the raw id).
    fn action_name(&self, action: ActionId) -> &'static str {
        self.action_names().get(action.index()).copied().unwrap_or("?")
    }

    /// Maps an action onto the PIF phase it implements, for phase-resolved
    /// observability. The default classifies every action as
    /// [`PhaseTag::Other`]; PIF-family protocols override this. Must be
    /// pure and total — observers precompute a per-action lookup table from
    /// it, so it is never called on the step path.
    fn classify(&self, action: ActionId) -> PhaseTag {
        let _ = action;
        PhaseTag::Other
    }

    /// Static metadata for one action: declared read/write sets, priority
    /// class, phase, and root/non-root applicability. See [`ActionSpec`]
    /// for the contract the analyzer enforces.
    ///
    /// The default is the maximally conservative declaration (reads the
    /// whole local view, writes all own registers, every action in its own
    /// priority class, phase from [`Protocol::classify`]) — always sound,
    /// but too coarse for the interference analysis to say anything
    /// useful. Protocols opting into static analysis override this *and*
    /// [`Protocol::has_action_specs`].
    fn action_spec(&self, action: ActionId) -> ActionSpec {
        ActionSpec {
            phase: self.classify(action),
            priority: action.index().min(u8::MAX as usize) as u8,
            applicability: Applicability::Both,
            reads: ActionSpec::LOCAL_READS,
            writes: ActionSpec::OWN_WRITES,
        }
    }

    /// Whether [`Protocol::action_spec`] returns real per-action
    /// declarations rather than the conservative default. The analyzer
    /// refuses to certify a protocol that has not opted in.
    fn has_action_specs(&self) -> bool {
        false
    }

    /// Names of the per-processor registers the action specs refer to,
    /// in a stable order. Protocols opting into static analysis override
    /// this alongside [`Protocol::action_spec`]; consumers treat the
    /// default (empty) as "spec surface unavailable" — e.g. `pif-verify`
    /// falls back to the conservative radius-1 interference premise
    /// instead of deriving one from an empty
    /// [`InterferenceGraph`](crate::InterferenceGraph).
    fn register_names(&self) -> &'static [&'static str] {
        &[]
    }

    /// Whether the viewed processor is *locally normal*: no correction
    /// action should be enabled for it. The analyzer checks correction
    /// quiescence against this predicate — every view satisfying it must
    /// have all [`PhaseTag::Correction`] actions disabled. The default
    /// (`true` everywhere) is only appropriate for protocols without
    /// correction actions.
    fn locally_normal(&self, view: View<'_, Self::State>) -> bool {
        let _ = view;
        true
    }

    /// The processors other than `p` whose guards can read a register
    /// that `p` writes by executing `action` from its state `before`: the
    /// simulator re-evaluates only `p` and these after the move.
    ///
    /// The contract: every processor whose enabled set can change because
    /// of the move is `p` itself or among the returned readers. Naming a
    /// processor whose guards read nothing the move wrote only costs a
    /// re-evaluation. The default, every neighbor of `p`, holds for any
    /// protocol, since guards read only the local neighborhood.
    fn readers(&self, p: ProcId, before: &Self::State, action: ActionId) -> Readers {
        let _ = (p, before, action);
        Readers::Neighbors
    }
}

/// Whose guards can read what one move wrote, from
/// [`Protocol::readers`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Readers {
    /// Every neighbor of the mover.
    Neighbors,
    /// One processor only; one outside the network names nobody.
    Only(ProcId),
}

/// A processor's read-only window onto a configuration: its own state, its
/// neighbors' states, and the topology. This is the entire set of registers
/// the locally-shared-memory model lets a processor read.
pub struct View<'a, S> {
    pid: ProcId,
    graph: &'a Graph,
    states: &'a [S],
    /// When set, every state access is recorded (analyzer spy views only;
    /// `None` on the simulator/checker hot paths).
    probe: Option<&'a ReadProbe>,
}

// Manual impls: a view only holds references, so it is copyable even when
// `S` itself is not (the derive would demand `S: Copy`).
impl<S> Clone for View<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for View<'_, S> {}

impl<'a, S> View<'a, S> {
    /// Builds a view of processor `pid` over `states`.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the graph size or `pid` is out
    /// of range.
    pub fn new(graph: &'a Graph, states: &'a [S], pid: ProcId) -> Self {
        assert_eq!(graph.len(), states.len(), "state vector must match graph size");
        assert!(pid.index() < graph.len(), "processor out of range");
        View { pid, graph, states, probe: None }
    }

    /// Builds a view whose state accesses are recorded in `probe`, for the
    /// analyzer's observed-read cross-check. Protocol code cannot tell a
    /// spied view from a plain one.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`View::new`], and additionally
    /// if the network exceeds the probe's 64-processor capacity.
    pub fn spied(graph: &'a Graph, states: &'a [S], pid: ProcId, probe: &'a ReadProbe) -> Self {
        assert!(graph.len() <= 64, "spied views support at most 64 processors");
        let mut v = View::new(graph, states, pid);
        v.probe = Some(probe);
        v
    }

    /// The viewed processor's identifier.
    #[inline]
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// The network topology.
    #[inline]
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// The viewed processor's own state.
    #[inline]
    pub fn me(&self) -> &'a S {
        if let Some(probe) = self.probe {
            probe.mark(self.pid);
        }
        &self.states[self.pid.index()]
    }

    /// The state of a specific processor.
    ///
    /// The model only permits reading neighbors (and oneself); callers in
    /// protocol code should restrict themselves accordingly. Analysis and
    /// checker code (which is outside the model) may read any processor.
    #[inline]
    pub fn state(&self, q: ProcId) -> &'a S {
        if let Some(probe) = self.probe {
            probe.mark(q);
        }
        &self.states[q.index()]
    }

    /// The viewed processor's neighbor identifiers, in the local order
    /// `≻_p` (ascending [`ProcId`]).
    #[inline]
    pub fn neighbors(&self) -> pif_graph::Neighbors<'a> {
        self.graph.neighbors(self.pid)
    }

    /// The neighbors together with their states, in local order.
    ///
    /// Takes `self` by value (`View` is `Copy`) so the iterator borrows
    /// only the underlying configuration, not the view handle.
    pub fn neighbor_states(self) -> impl Iterator<Item = (ProcId, &'a S)> {
        let states = self.states;
        let probe = self.probe;
        self.graph.neighbors(self.pid).map(move |q| {
            if let Some(probe) = probe {
                probe.mark(q);
            }
            (q, &states[q.index()])
        })
    }

    /// Degree of the viewed processor.
    #[inline]
    pub fn degree(&self) -> usize {
        self.graph.degree(self.pid)
    }

    /// Number of processors in the network (the paper's `N`, an input to
    /// the root's program).
    #[inline]
    pub fn network_size(&self) -> usize {
        self.graph.len()
    }
}

impl<S: fmt::Debug> fmt::Debug for View<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("View").field("pid", &self.pid).field("state", self.me()).finish()
    }
}

/// The per-step enabled-set snapshot handed to a [`crate::Daemon`].
///
/// Exposes which processors are enabled (their count, the `rank`-th of
/// them and all of them in ascending id order), which of their actions
/// are enabled (an [`ActionSet`] each, whose first action is the lowest
/// [`ActionId`]), and (for state-aware adversarial daemons) the full
/// configuration.
pub struct EnabledSet<'a, S> {
    graph: &'a Graph,
    states: &'a [S],
    /// `actions[p]` holds the enabled actions of processor `p` (possibly none).
    actions: &'a [ActionSet],
    /// Processors with at least one enabled action.
    index: &'a EnabledIndex,
    /// Zero-based index of the step about to be executed.
    step: u64,
}

impl<'a, S> EnabledSet<'a, S> {
    /// Builds the snapshot [`crate::Simulator`] hands its daemon, over any
    /// register store. `actions` must have one (possibly empty) entry per
    /// processor, and `index` must hold exactly the processors with a
    /// non-empty entry.
    pub(crate) fn new(
        graph: &'a Graph,
        states: &'a [S],
        actions: &'a [ActionSet],
        index: &'a EnabledIndex,
        step: u64,
    ) -> Self {
        EnabledSet { graph, states, actions, index, step }
    }

    /// Processors with at least one enabled action, in ascending id order.
    #[inline]
    pub fn enabled_procs(&self) -> EnabledProcs<'a> {
        self.index.iter()
    }

    /// How many processors have at least one enabled action.
    #[inline]
    pub fn enabled_count(&self) -> usize {
        self.index.len()
    }

    /// The `rank`-th enabled processor in ascending id order: the
    /// processor a daemon indexing [`EnabledSet::enabled_procs`] at
    /// `rank` would pick.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is not below [`EnabledSet::enabled_count`].
    #[inline]
    pub fn nth_enabled(&self, rank: usize) -> ProcId {
        self.index.select(rank)
    }

    /// The enabled actions of processor `p` (empty if `p` is disabled).
    #[inline]
    pub fn actions_of(&self, p: ProcId) -> ActionSet {
        self.actions[p.index()]
    }

    /// Whether no processor is enabled.
    #[inline]
    pub fn is_terminal(&self) -> bool {
        self.index.is_empty()
    }

    /// The configuration the step will be evaluated against.
    #[inline]
    pub fn states(&self) -> &'a [S] {
        self.states
    }

    /// The network topology.
    #[inline]
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// Zero-based index of the computation step about to execute.
    #[inline]
    pub fn step(&self) -> u64 {
        self.step
    }
}

impl<S> fmt::Debug for EnabledSet<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Procs<'a>(&'a EnabledIndex);
        impl fmt::Debug for Procs<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("EnabledSet")
            .field("step", &self.step)
            .field("enabled", &Procs(self.index))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_graph::generators;

    #[test]
    fn view_exposes_local_window() {
        let g = generators::chain(3).unwrap();
        let states = vec![10, 20, 30];
        let v = View::new(&g, &states, ProcId(1));
        assert_eq!(*v.me(), 20);
        assert_eq!(v.degree(), 2);
        assert_eq!(v.network_size(), 3);
        let ns: Vec<_> = v.neighbor_states().collect();
        assert_eq!(ns, vec![(ProcId(0), &10), (ProcId(2), &30)]);
    }

    #[test]
    #[should_panic(expected = "state vector must match")]
    fn view_rejects_mismatched_states() {
        let g = generators::chain(3).unwrap();
        let states = vec![1, 2];
        let _ = View::new(&g, &states, ProcId(0));
    }

    #[test]
    fn action_id_display() {
        assert_eq!(ActionId(4).to_string(), "a4");
        assert_eq!(ActionId(4).index(), 4);
    }

    #[test]
    fn action_set_is_an_ascending_bitset() {
        let ids = [ActionId(0), ActionId(3), ActionId(6), ActionId(31)];
        let set: ActionSet = ids.into_iter().collect();
        assert_eq!(set.into_iter().collect::<Vec<_>>(), ids);
        assert_eq!(ids.into_iter().rev().collect::<ActionSet>(), set);
        assert_eq!((set.first(), set.len()), (Some(ActionId(0)), 4));
        for (i, &a) in ids.iter().enumerate() {
            assert_eq!(set.nth(i), Some(a));
        }
        assert_eq!(set.nth(ids.len()), None);
        for k in 0..ActionSet::CAPACITY + 2 {
            assert_eq!(set.contains(ActionId(k)), ids.contains(&ActionId(k)), "a{k}");
        }
        assert_eq!(set.bits(), 1 << 31 | 1 << 6 | 1 << 3 | 1);
        assert!(ActionSet::EMPTY.is_empty() && ActionSet::EMPTY.first().is_none());
    }

    #[test]
    fn phase_tag_indexing_is_dense_and_stable() {
        for (i, tag) in PhaseTag::ALL.iter().enumerate() {
            assert_eq!(tag.index(), i);
        }
        assert_eq!(PhaseTag::COUNT, 6);
        assert_eq!(PhaseTag::Broadcast.to_string(), "broadcast");
        assert_eq!(PhaseTag::Correction.name(), "correction");
    }

    #[test]
    fn reg_access_wildcard_covers_any_register() {
        const WRITES: &[RegAccess] = &[RegAccess::own("phase")];
        let spec = ActionSpec {
            phase: PhaseTag::Broadcast,
            priority: 1,
            applicability: Applicability::Both,
            reads: ActionSpec::LOCAL_READS,
            writes: WRITES,
        };
        assert!(spec.reads_reg(Scope::Own, "phase"));
        assert!(spec.reads_reg(Scope::Neighbor, "anything"));
        assert!(spec.writes_reg(Scope::Own, "phase"));
        assert!(!spec.writes_reg(Scope::Own, "count"));
        assert!(!spec.writes_reg(Scope::Neighbor, "phase"));
        assert_eq!(RegAccess::neighbor("par").to_string(), "neighbor.par");
    }

    #[test]
    fn applicability_covers_processor_classes() {
        assert!(Applicability::Both.covers(true) && Applicability::Both.covers(false));
        assert!(Applicability::RootOnly.covers(true) && !Applicability::RootOnly.covers(false));
        assert!(!Applicability::NonRootOnly.covers(true));
        assert!(Applicability::NonRootOnly.covers(false));
    }

    #[test]
    fn spied_view_records_reads() {
        let g = generators::chain(3).unwrap();
        let states = vec![10, 20, 30];
        let probe = ReadProbe::new();
        let v = View::spied(&g, &states, ProcId(1), &probe);
        assert_eq!(probe.mask(), 0);
        let _ = v.me();
        assert!(probe.was_read(ProcId(1)) && !probe.was_read(ProcId(0)));
        let _: Vec<_> = v.neighbor_states().collect();
        assert!(probe.was_read(ProcId(0)) && probe.was_read(ProcId(2)));
        probe.clear();
        assert_eq!(probe.mask(), 0);
        let _ = v.state(ProcId(2));
        assert_eq!(probe.mask(), 1 << 2);
    }

    #[test]
    fn plain_view_has_no_probe_overhead_path() {
        let g = generators::chain(2).unwrap();
        let states = vec![1, 2];
        let v = View::new(&g, &states, ProcId(0));
        // No probe: accessors work and nothing is recorded anywhere.
        assert_eq!(*v.me(), 1);
        assert_eq!(*v.state(ProcId(1)), 2);
    }
}
