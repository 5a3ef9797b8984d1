//! Exhaustive model checking of the snap-stabilizing PIF on tiny networks.
//!
//! The paper's central claim (Definition 1) quantifies over **every**
//! initial configuration and **every** weakly fair distributed daemon.
//! Simulation-based experiments sample that space; this crate *exhausts*
//! it for small instances:
//!
//! * [`StateSpace`] enumerates the complete configuration space — every
//!   assignment of in-domain values to every register of every processor
//!   (`Pif ∈ {B,F,C}`, `Par ∈ Neig_p`, `L ∈ [1, L_max]`,
//!   `Count ∈ [1, N']`, `Fok ∈ 𝔹`).
//! * [`Checker::check_universal`] evaluates a predicate over *all*
//!   configurations (used for Property 1 and deadlock-freedom).
//! * [`Checker::check_snap_safety`] runs a breadth-first search over
//!   the **product** of the configuration space with the
//!   message-delivery overlay, branching over *every* daemon choice
//!   (every non-empty subset of enabled processors × every enabled action
//!   of each): it verifies that whenever the root's `F-action` closes a
//!   wave the root actually opened, every processor had received the
//!   message (\[PIF1\]) and acknowledged it while holding it (\[PIF2\]).
//!
//! A search that completes with zero violations is a *proof* of
//! snap-stabilization for that instance (up to the faithfulness of the
//! encoding) — and the same search run against the `leaf_guard` ablation
//! *finds* the violation, which doubles as a sensitivity check of the
//! checker itself.
//!
//! # Execution engine
//!
//! Every check runs under a [`Checker`], which drives one search: the
//! owner-partitioned frontier BFS of the `frontier` module
//! (`DESIGN.md` §11). The product states are partitioned among owners by
//! hash, and each owner deduplicates its states in its own single-owner
//! table, with no lock and no atomic per state. Rounds too small to pay
//! for threads run inline and insert every successor straight into its
//! owner's table; larger rounds run one thread per worker, each claiming
//! owners until none is left, and a successor held by another owner
//! travels in a per-owner outbox that moves to its owner at the next
//! barrier. The product searches never store their seeds: level 0
//! scans the configuration ids and expands each seed in place, and a
//! successor that is itself a seed is recognized by an O(1) test on its
//! overlay and dropped, so the tables hold only non-seed states. A snap
//! seed whose root cannot open a wave has only seeds for successors, so
//! it is not expanded at all: its retained daemon selections are counted
//! off its guard masks.
//! [`Checker::with_workers`] picks the worker count; one worker runs the
//! same driver inline on the calling thread, with no spawns and no
//! routing. Reports are **bit-identical across worker counts** — same
//! `states_explored`, same verdicts, same retained violation examples —
//! because the visited-set closure of a breadth-first search is
//! independent of expansion order, of which owner holds a state and of
//! which worker expands it, and violations are canonically sorted.
//! [`Checker::auto`] is the default engine.
//!
//! # Guard evaluation
//!
//! Every check reads guards through one function: `PifProtocol`'s
//! [`Protocol::enabled_actions`], the protocol as the simulators run it
//! and the analyzer certifies it. The product searches share a memo of
//! those sets, one byte per processor, over the whole configuration
//! space when it fits (`DESIGN.md` §11.5); abnormality and the set of
//! round-owing processors are read off the masks, so no second guard
//! evaluation exists.
//!
//! # Reductions
//!
//! [`Checker::with_reduction`] layers up to three state-space reductions
//! over any engine (`DESIGN.md` §16): an interference-guided
//! partial-order reduction (connected daemon selections only — sound
//! because PIF's proven-complete interference relation is
//! neighborhood-local), a symmetry quotient under root-fixing graph
//! automorphisms (canonical orbit representatives before the visited
//! lookup), and the compressed/spillable visited tiers configured
//! through [`Checker::with_spill_budget`]. Reduced runs explore fewer
//! product states but return **bit-identical reports**: a reduced
//! search that finds any violation re-runs the exhaustive reference
//! engine and returns its report verbatim, so verdicts, violation
//! counts and retained examples never depend on the reduction — see
//! [`Reduction`].
//!
//! For instances whose full product space is out of reach (n = 5 and
//! beyond), [`Checker::check_snap_wave`] verifies \[PIF1\]/\[PIF2\]
//! over every daemon interleaving reachable from the paper's *normal
//! starting configuration* — the same safety property restricted to the
//! wave region the protocol actually operates in, which stays tractable
//! where the any-configuration product search does not.
//!
//! # Examples
//!
//! ```
//! use pif_core::PifProtocol;
//! use pif_graph::{generators, ProcId};
//! use pif_verify::{Checker, StateSpace};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::chain(2)?;
//! let protocol = PifProtocol::new(ProcId(0), &g);
//! let space = StateSpace::new(g, protocol);
//! assert_eq!(space.config_count(), 144);
//! let report = Checker::auto().check_snap_safety(&space, true);
//! assert!(report.verified());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frontier;
mod memo;
mod por;
mod symmetry;
pub mod visited;

use std::sync::OnceLock;

use frontier::Search;
use memo::EnabledMemo;
use pif_core::protocol::{B_ACTION, B_CORRECTION, F_ACTION, F_CORRECTION};
use pif_core::{Phase, PifProtocol, PifState};
use pif_daemon::{ActionId, ActionSet, Protocol, View};
use pif_graph::{automorphism, Graph, ProcId};
use por::PorCtx;
use symmetry::Quotient;
use visited::VisitedConfig;

/// Guard-mask bits of the two correction actions. A processor enables a
/// correction action iff it is abnormal (the root's `B-correction` guard
/// is `¬Normal`; a non-root abnormal processor holds phase `B` or `F` and
/// enables `B-correction` or `F-correction` respectively; a non-root
/// processor in phase `C` is always normal), so `mask & CORRECTION_BITS`
/// decides abnormality without a second guard evaluation.
const CORRECTION_BITS: u8 = (1 << B_CORRECTION.0) | (1 << F_CORRECTION.0);

/// What the correction search reads off one configuration's guard masks:
/// `None` when every processor is normal (no mask has a
/// [`CORRECTION_BITS`] bit), else the pending set, the processors with an
/// enabled action.
fn correction_pending(masks: &[u8]) -> Option<u16> {
    let mut abnormal = false;
    let mut pending = 0u16;
    for (i, &mask) in masks.iter().enumerate() {
        abnormal |= mask & CORRECTION_BITS != 0;
        pending |= u16::from(mask != 0) << i;
    }
    abnormal.then_some(pending)
}

/// Error raised when an instance is outside what exhaustive checking can
/// handle, or when a query refers to states outside the register domains.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The network has more processors than the overlay bitmaps support.
    NetworkTooLarge {
        /// Processors in the offending network.
        n: usize,
        /// The checker's hard limit.
        max: usize,
    },
    /// The configuration count exceeds the exhaustive-search budget.
    SpaceTooLarge {
        /// Base-2 logarithm of the configuration-count limit.
        limit_log2: u32,
    },
    /// A queried state lies outside its processor's register domain.
    OutOfDomain {
        /// The processor whose domain is violated.
        proc: ProcId,
        /// The offending state.
        state: PifState,
    },
    /// A queried configuration does not hold one state per processor.
    WrongLength {
        /// States in the queried configuration.
        states: usize,
        /// Processors in the network.
        procs: usize,
    },
    /// A queried configuration id is not below the configuration count.
    IdOutOfRange {
        /// The offending id.
        id: u64,
        /// The number of configurations, the first id out of range.
        configs: u64,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::NetworkTooLarge { n, max } => {
                write!(f, "model checking is for tiny networks: {n} processors exceeds {max}")
            }
            VerifyError::SpaceTooLarge { limit_log2 } => {
                write!(f, "configuration space exceeds 2^{limit_log2}; too large for exhaustive checking")
            }
            VerifyError::OutOfDomain { proc, state } => {
                write!(f, "state {state} out of domain for processor {proc}")
            }
            VerifyError::WrongLength { states, procs } => {
                write!(f, "configuration of {states} states for a network of {procs} processors")
            }
            VerifyError::IdOutOfRange { id, configs } => {
                write!(f, "configuration id {id} out of range for {configs} configurations")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Arithmetic description of one processor's register domain, mirroring
/// the nested enumeration order of `StateSpace::domain_of`: phase
/// (outermost) → parent → level → count → fok (innermost). The one
/// state → domain-index function, O(1) with no hash lookups, for the
/// search hot loops and the fallible [`StateSpace::try_encode`] alike.
#[derive(Clone, Debug)]
struct DomainShape {
    /// Position of each potential parent in the enumeration, by
    /// processor index; `u8::MAX` marks non-neighbors.
    par_pos: [u8; StateSpace::MAX_PROCS],
    par_count: u32,
    level_count: u32,
    count_count: u32,
}

impl DomainShape {
    /// The domain index of `s`, or `None` when `s` is outside the domain:
    /// a parent that is not a potential parent (any index of 16 or more
    /// included), a level outside `1..=level_count` or a count outside
    /// `1..=N'`.
    #[inline]
    fn index_of(&self, s: &PifState) -> Option<u32> {
        let phase = match s.phase {
            Phase::B => 0u32,
            Phase::F => 1,
            Phase::C => 2,
        };
        let par = *self.par_pos.get(s.par.index()).filter(|&&k| k != u8::MAX)?;
        let level = u32::from(s.level).checked_sub(1).filter(|&l| l < self.level_count)?;
        let count = s.count.checked_sub(1).filter(|&c| c < self.count_count)?;
        // Mixed radix, outermost digit first.
        let idx = (phase * self.par_count + u32::from(par)) * self.level_count + level;
        Some((idx * self.count_count + count) * 2 + u32::from(s.fok))
    }
}

/// The complete configuration space of one protocol instance on one
/// (tiny) network.
#[derive(Clone, Debug)]
pub struct StateSpace {
    graph: Graph,
    protocol: PifProtocol,
    /// Per-processor register domains.
    domains: Vec<Vec<PifState>>,
    /// Mixed-radix strides for encoding a configuration as a `u64`.
    strides: Vec<u64>,
    /// Arithmetic state → domain-index functions, one per processor.
    shapes: Vec<DomainShape>,
    total: u64,
    /// Lazily built, shared per-configuration guard-mask memo (`None`
    /// inside once built if the space exceeds the memo budget).
    memo: OnceLock<Option<EnabledMemo>>,
}

/// The result of an exhaustive Theorem 1 round-bound search
/// ([`Checker::check_correction_bound`]).
#[derive(Clone, Debug)]
pub struct CorrectionBoundReport {
    /// The round bound checked (the paper's `3·L_max + 3`).
    pub bound: u32,
    /// Product states explored.
    pub states_explored: u64,
    /// Total number of violating transitions encountered (configurations
    /// still abnormal after `bound` completed rounds). Zero = the
    /// theorem's bound is verified on this instance.
    pub violation_count: u64,
    /// Retained violating configurations: the (at most)
    /// [`Self::MAX_RETAINED_VIOLATIONS`] examples with the smallest
    /// configuration ids, sorted ascending — a canonical, deterministic
    /// sample of [`Self::violation_count`] total violations.
    pub violations: Vec<Vec<PifState>>,
}

impl CorrectionBoundReport {
    /// Maximum number of violating configurations retained as examples;
    /// [`Self::violation_count`] reports the true total.
    pub const MAX_RETAINED_VIOLATIONS: usize = 8;

    /// Whether the bound held on every path from every configuration.
    pub fn verified(&self) -> bool {
        self.violation_count == 0
    }
}

/// A violation found by [`Checker::check_snap_safety`].
#[derive(Clone, Debug)]
pub struct SnapViolation {
    /// The configuration in which the root's `F-action` closed the wave.
    pub configuration: Vec<PifState>,
    /// Which processors had not received the message.
    pub not_received: Vec<ProcId>,
    /// Which processors had not acknowledged while holding it.
    pub not_acked: Vec<ProcId>,
}

/// The result of an exhaustive snap-safety search.
#[derive(Clone, Debug)]
pub struct SnapSafetyReport {
    /// Product states explored.
    pub states_explored: u64,
    /// Transitions taken.
    pub transitions: u64,
    /// Total number of wave closures that violated \[PIF1\]/\[PIF2\].
    /// Zero = verified.
    pub violation_count: u64,
    /// Retained violations: the (at most)
    /// [`Self::MAX_RETAINED_VIOLATIONS`] examples with the smallest
    /// (configuration, overlay) keys, sorted ascending — a canonical,
    /// deterministic sample of [`Self::violation_count`] total.
    pub violations: Vec<SnapViolation>,
    /// Whether acknowledgments (\[PIF2\]) were tracked in addition to
    /// deliveries (\[PIF1\]).
    pub acks_tracked: bool,
}

impl SnapSafetyReport {
    /// Maximum number of violations retained as examples;
    /// [`Self::violation_count`] reports the true total.
    pub const MAX_RETAINED_VIOLATIONS: usize = 8;

    /// Whether the instance was verified snap-safe.
    pub fn verified(&self) -> bool {
        self.violation_count == 0
    }
}

impl StateSpace {
    /// Hard processor-count limit (the search overlays are `u16`
    /// bitmaps).
    const MAX_PROCS: usize = 16;

    /// Builds the state space.
    ///
    /// # Panics
    ///
    /// Panics if the configuration count exceeds `2^50` or the network
    /// has more than 16 processors (the overlay bitmaps are `u16`).
    /// [`StateSpace::try_new`] reports the same conditions as a
    /// [`VerifyError`] instead.
    pub fn new(graph: Graph, protocol: PifProtocol) -> Self {
        Self::try_new(graph, protocol).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the state space, reporting an oversized instance as a typed
    /// error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`VerifyError::NetworkTooLarge`] for more than 16 processors (the
    /// search overlays are `u16` bitmaps), [`VerifyError::SpaceTooLarge`]
    /// when the configuration count would exceed `2^50` — a bound the
    /// *product* searches cannot exhaust, but the reachable-region wave
    /// search ([`Checker::check_snap_wave`]) and the universal scans
    /// do not need to; the packed search keys still fit `u128` with
    /// room to spare (`50 + 33` bits).
    pub fn try_new(graph: Graph, protocol: PifProtocol) -> Result<Self, VerifyError> {
        const LIMIT_LOG2: u32 = 50;
        if graph.len() > Self::MAX_PROCS {
            return Err(VerifyError::NetworkTooLarge { n: graph.len(), max: Self::MAX_PROCS });
        }
        let mut domains = Vec::with_capacity(graph.len());
        let mut shapes = Vec::with_capacity(graph.len());
        for p in graph.procs() {
            let (domain, shape) = Self::domain_of(&graph, &protocol, p);
            domains.push(domain);
            shapes.push(shape);
        }
        let mut strides = vec![0u64; graph.len()];
        let mut total = 1u64;
        for (i, d) in domains.iter().enumerate() {
            strides[i] = total;
            total = total
                .checked_mul(d.len() as u64)
                .filter(|&t| t < (1 << LIMIT_LOG2))
                .ok_or(VerifyError::SpaceTooLarge { limit_log2: LIMIT_LOG2 })?;
        }
        Ok(StateSpace {
            graph,
            protocol,
            domains,
            strides,
            shapes,
            total,
            memo: OnceLock::new(),
        })
    }

    /// All in-domain register states of processor `p`, plus the
    /// arithmetic shape of that enumeration.
    fn domain_of(graph: &Graph, protocol: &PifProtocol, p: ProcId) -> (Vec<PifState>, DomainShape) {
        let mut out = Vec::new();
        let is_root = p == protocol.root();
        let pars: Vec<ProcId> = if is_root {
            // Par_r and L_r are program constants; one canonical value.
            vec![graph.neighbors(p).next().unwrap_or(p)]
        } else {
            graph.neighbors(p).collect()
        };
        let levels: Vec<u16> = if is_root { vec![1] } else { (1..=protocol.l_max()).collect() };
        for phase in Phase::ALL {
            for &par in &pars {
                for &level in &levels {
                    for count in 1..=protocol.n_prime() {
                        for fok in [false, true] {
                            out.push(PifState { phase, par, level, count, fok });
                        }
                    }
                }
            }
        }
        let mut par_pos = [u8::MAX; Self::MAX_PROCS];
        for (k, par) in pars.iter().enumerate() {
            par_pos[par.index()] = k as u8;
        }
        let shape = DomainShape {
            par_pos,
            par_count: pars.len() as u32,
            level_count: levels.len() as u32,
            count_count: protocol.n_prime(),
        };
        (out, shape)
    }

    /// Number of distinct configurations.
    pub fn config_count(&self) -> u64 {
        self.total
    }

    /// The network under verification.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The protocol instance under verification.
    pub fn protocol(&self) -> &PifProtocol {
        &self.protocol
    }

    /// All in-domain register states of processor `p`, in enumeration
    /// order. `pif-analyze` iterates these to build its small-domain view
    /// enumeration, so the analyzer and the exhaustive checker agree on
    /// what "the domain" is by construction.
    pub fn proc_domain(&self, p: ProcId) -> &[PifState] {
        &self.domains[p.index()]
    }

    /// Decodes a configuration id into register states.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not below [`StateSpace::config_count`];
    /// [`StateSpace::try_decode`] reports that as a typed error instead.
    pub fn decode(&self, id: u64) -> Vec<PifState> {
        self.try_decode(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Decodes a configuration id into register states, reporting an id
    /// outside the space as a typed error.
    ///
    /// # Errors
    ///
    /// [`VerifyError::IdOutOfRange`] unless `id` is below
    /// [`StateSpace::config_count`].
    pub fn try_decode(&self, id: u64) -> Result<Vec<PifState>, VerifyError> {
        if id >= self.total {
            return Err(VerifyError::IdOutOfRange { id, configs: self.total });
        }
        let mut out = Vec::with_capacity(self.domains.len());
        self.decode_into(id, &mut out);
        Ok(out)
    }

    /// Decodes into a caller-owned buffer — the search loops decode one
    /// configuration per dequeued product state, and reusing the buffer
    /// keeps them allocation-free after warmup. Unchecked: their ids are
    /// below the configuration count by construction.
    fn decode_into(&self, mut id: u64, out: &mut Vec<PifState>) {
        out.clear();
        for d in &self.domains {
            let i = (id % d.len() as u64) as usize;
            id /= d.len() as u64;
            out.push(d[i]);
        }
    }

    /// Decodes into caller-owned state *and* domain-index buffers; the
    /// per-processor indices feed the incremental successor encoding in
    /// the search hot loops.
    fn decode_indices_into(&self, mut id: u64, out: &mut Vec<PifState>, idxs: &mut Vec<u32>) {
        out.clear();
        idxs.clear();
        for d in &self.domains {
            let i = (id % d.len() as u64) as usize;
            id /= d.len() as u64;
            out.push(d[i]);
            idxs.push(i as u32);
        }
    }

    /// Encodes register states into a configuration id.
    ///
    /// # Panics
    ///
    /// Panics if any state is outside its processor's domain;
    /// [`StateSpace::try_encode`] reports that as a typed error instead.
    pub fn encode(&self, states: &[PifState]) -> u64 {
        self.try_encode(states).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Encodes register states into a configuration id, reporting
    /// out-of-domain states as a typed error.
    ///
    /// # Errors
    ///
    /// [`VerifyError::WrongLength`] unless `states` holds one state per
    /// processor, else [`VerifyError::OutOfDomain`] naming the first
    /// offending processor.
    pub fn try_encode(&self, states: &[PifState]) -> Result<u64, VerifyError> {
        if states.len() != self.shapes.len() {
            return Err(VerifyError::WrongLength { states: states.len(), procs: self.shapes.len() });
        }
        let mut id = 0u64;
        for (i, (s, shape)) in states.iter().zip(&self.shapes).enumerate() {
            let di = shape
                .index_of(s)
                .ok_or(VerifyError::OutOfDomain { proc: ProcId::from_index(i), state: *s })?;
            id += u64::from(di) * self.strides[i];
        }
        Ok(id)
    }

    /// [`Protocol::enabled_actions`] of every processor of `states`, in
    /// processor order, narrowed to the memo's byte: PIF's seven actions
    /// fit in one.
    fn guard_masks<'s>(&'s self, states: &'s [PifState]) -> impl Iterator<Item = u8> + 's {
        self.graph.procs().map(move |p| {
            self.protocol.enabled_actions(View::new(&self.graph, states, p)).bits() as u8
        })
    }

    /// The shared guard-mask memo, built on first use by `workers`
    /// threads (`None` when the space exceeds the memo budget).
    fn memo(&self, workers: usize) -> Option<&EnabledMemo> {
        self.memo
            .get_or_init(|| {
                let n = self.graph.len();
                let mut memo = EnabledMemo::allocate(self.total, n)?;
                pif_par::par_map_workers(memo.fill_chunks(), workers, |(base, masks)| {
                    let mut states = Vec::with_capacity(n);
                    for (cfg, row) in (base..).zip(masks.chunks_exact_mut(n)) {
                        self.decode_into(cfg, &mut states);
                        for (slot, mask) in row.iter_mut().zip(self.guard_masks(&states)) {
                            *slot = mask;
                        }
                    }
                });
                Some(memo)
            })
            .as_ref()
    }
}

/// Which state-space reductions a [`Checker`] applies (`DESIGN.md` §16).
///
/// Every variant is *verdict- and report-exact*: reductions only change
/// how many product states the search visits (`states_explored`,
/// `transitions`), never what it reports. Verification outcomes are
/// preserved by construction — the partial-order reduction keeps every
/// single-processor move and only drops composite daemon selections
/// whose decomposition it retains, and the symmetry quotient identifies
/// states with provably identical futures. Violation *reports* are
/// preserved by a two-phase contract: a reduced search that finds any
/// violation discards its partial sample, re-runs the exhaustive
/// reference engine, and returns that report verbatim — so violation
/// counts and retained minimal examples are bit-identical to
/// [`Reduction::None`] on every instance, verified or not.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Reduction {
    /// Exhaustive reference: every daemon selection, no quotient.
    None,
    /// Interference-guided partial-order reduction: only daemon
    /// selections whose selected processors induce a connected subgraph
    /// (non-adjacent processors never interfere — the premise pinned to
    /// `pif-analyze`'s interference matrix by `reduction_soundness.rs`).
    Por,
    /// Symmetry quotient: canonicalize every product state under the
    /// network's root-fixing automorphism group before the visited
    /// lookup. The identity reduction on asymmetric instances.
    Symmetry,
    /// Both reductions composed.
    Full,
}

impl Reduction {
    /// All variants, reference first — the differential harness iterates
    /// these.
    pub const ALL: [Reduction; 4] = [Reduction::None, Reduction::Por, Reduction::Symmetry, Reduction::Full];

    fn por(self) -> bool {
        matches!(self, Reduction::Por | Reduction::Full)
    }

    fn symmetry(self) -> bool {
        matches!(self, Reduction::Symmetry | Reduction::Full)
    }
}

impl std::fmt::Display for Reduction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Reduction::None => "none",
            Reduction::Por => "por",
            Reduction::Symmetry => "symmetry",
            Reduction::Full => "full",
        })
    }
}

/// One representative PIF root per orbit of the vertex set under the
/// group generated by `symmetries`, with the orbit size as the measured
/// sweep-reduction factor.
///
/// This is the *cross-instance* complement of the root-fixing symmetry
/// quotient ([`Reduction::Symmetry`]): a fixed-point-free automorphism
/// (every non-identity torus translation, for example) can never enter
/// a root-fixing quotient, but it still carries the instance rooted at
/// `r` onto the instance rooted at `σ(r)` — PIF is anonymous except for
/// the root, so the two instances are relabelings of each other with
/// identical behaviour (same verdicts, same round counts, same explored
/// spaces). A sweep over all roots of a `w × h` torus therefore only
/// needs **one** representative instance instead of `w·h`: pass
/// `pif_graph::automorphism::torus_translations(w, h)` as the group.
/// `tests/torus_symmetry.rs` machine-checks both halves of that claim —
/// the 9× factor on torus(3×3) and the step-for-step behavioural
/// equality of translated roots.
///
/// Generators that are not automorphisms of `graph` are ignored (a
/// smaller group is always sound — it only yields more representatives
/// than strictly necessary, never a wrong one).
pub fn representative_roots(
    graph: &Graph,
    symmetries: &[automorphism::Permutation],
) -> Vec<(ProcId, usize)> {
    let sound: Vec<automorphism::Permutation> = symmetries
        .iter()
        .filter(|s| automorphism::is_automorphism(graph, s))
        .cloned()
        .collect();
    automorphism::orbit_representatives(graph.len(), &sound)
}

/// The interference-radius premise the partial-order reduction runs
/// under, recomputed from the protocol's *own declared specs* rather
/// than assumed: the maximum link distance across which any declared
/// action pair interferes, per the machine-derived
/// [`pif_daemon::InterferenceGraph`] (the same derivation `pif-analyze`
/// certifies against hand declarations and differential probing, AN010).
///
/// Protocols without action specs or without a declared register-name
/// universe get the conservative fallback of `1` — the structural bound
/// of the spec language itself (own-scope and neighbor-scope reads
/// only). The internal `PorCtx` clamps `0` to `1` for the same reason,
/// so the reduction never keys soundness on a premise the language
/// cannot even express a violation of.
pub fn por_premise_radius<P: Protocol>(protocol: &P) -> usize {
    let registers = protocol.register_names();
    if protocol.has_action_specs() && !registers.is_empty() {
        pif_daemon::InterferenceGraph::from_protocol(protocol, registers).interference_radius()
    } else {
        1
    }
}

/// An execution engine for the exhaustive checks: the owner-partitioned
/// frontier BFS (see `DESIGN.md` §11) with a worker count, a
/// [`Reduction`] and an optional visited-table spill budget.
///
/// Each worker owns the states whose hash selects it and keeps them in
/// its own lock-free table; with one worker the search runs inline on
/// the calling thread. Every worker count returns the same report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checker {
    workers: usize,
    reduction: Reduction,
    /// Live-table byte budget for the visited set's spill tier.
    spill_budget: Option<usize>,
}

impl Checker {
    /// The engine with an explicit worker count (clamped to at least 1).
    pub fn with_workers(workers: usize) -> Self {
        Checker { workers: workers.max(1), reduction: Reduction::None, spill_budget: None }
    }

    /// The default engine: one worker per available core, as reported by
    /// `pif_par::available_workers` (which honors the `PIF_WORKERS`
    /// override).
    pub fn auto() -> Self {
        Self::with_workers(pif_par::available_workers())
    }

    /// The same engine with a [`Reduction`] layered over it.
    #[must_use]
    pub fn with_reduction(self, reduction: Reduction) -> Self {
        Checker { reduction, ..self }
    }

    /// The same engine with a visited-table spill budget: live in-memory
    /// tables are bounded to roughly `bytes` in total (each owner's
    /// table gets an equal share) and overflow freezes into sorted
    /// on-disk runs (see [`visited`]). Verdicts and reports are
    /// unaffected; peak RSS is.
    #[must_use]
    pub fn with_spill_budget(self, bytes: usize) -> Self {
        Checker { spill_budget: Some(bytes), ..self }
    }

    /// The reduction this checker applies.
    pub fn reduction(&self) -> Reduction {
        self.reduction
    }

    /// Number of worker threads this checker runs with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Builds the shared search context for `space` under this checker's
    /// reduction settings. `memoized` is false for the wave search,
    /// whose reachable region is far smaller than the full configuration
    /// space the memo would be sized for.
    fn ctx<'a>(&self, space: &'a StateSpace, memoized: bool) -> SearchCtx<'a> {
        SearchCtx {
            space,
            memo: if memoized { space.memo(self.workers) } else { None },
            por: self
                .reduction
                .por()
                .then(|| PorCtx::with_radius(&space.graph, por_premise_radius(&space.protocol))),
            sym: if self.reduction.symmetry() { Quotient::build(space) } else { None },
            spill_budget: self.spill_budget,
        }
    }

    /// Evaluates `predicate` over **every** configuration of `space`, in
    /// parallel over disjoint id ranges, returning the violating
    /// configuration with the smallest id (decoded) if any — the same
    /// configuration a sequential scan would report first.
    pub fn check_universal<F>(&self, space: &StateSpace, predicate: F) -> Option<Vec<PifState>>
    where
        F: Fn(&PifProtocol, &Graph, &[PifState]) -> bool + Sync,
    {
        let n = space.graph.len();
        frontier::find_min_violation(
            self.workers,
            space.total,
            || Vec::with_capacity(n),
            |states, id| {
                space.decode_into(id, states);
                !predicate(&space.protocol, &space.graph, states)
            },
        )
        .map(|id| space.decode(id))
    }

    /// Verifies that **no** configuration of `space` is terminal,
    /// scanning id ranges in parallel; returns the deadlocked
    /// configuration with the smallest id if one exists.
    pub fn check_no_deadlock(&self, space: &StateSpace) -> Option<Vec<PifState>> {
        let n = space.graph.len();
        frontier::find_min_violation(
            self.workers,
            space.total,
            || Vec::with_capacity(n),
            |states, id| {
                space.decode_into(id, states);
                space.guard_masks(states).all(|mask| mask == 0)
            },
        )
        .map(|id| space.decode(id))
    }

    /// Exhaustively verifies Theorem 1's round bound: from **every**
    /// configuration, under **every** daemon choice, all processors are
    /// normal within `bound` rounds (Dolev-Israeli-Moran accounting,
    /// tracked per path via the pending set of round-owing processors).
    ///
    /// Executions that stall rounds forever (unfair daemons) never
    /// complete rounds and therefore cannot witness a violation — which
    /// matches the theorem's quantification over weakly fair daemons: any
    /// *fair* execution exceeding the bound has a finite prefix that this
    /// search reaches.
    ///
    /// # Panics
    ///
    /// Panics if `bound >= 128` (the packed product encoding reserves 7
    /// bits for the round counter).
    pub fn check_correction_bound(&self, space: &StateSpace, bound: u32) -> CorrectionBoundReport {
        assert!(bound < 128, "round bound must fit the packed encoding");
        self.correction_report(space, bound, self.ctx(space, true).correction(bound, self.workers))
    }

    /// Assembles a correction-bound report from a finished search,
    /// re-running the reference engine first when a reduced pass found
    /// violations.
    fn correction_report(
        &self,
        space: &StateSpace,
        bound: u32,
        search: Search<Scratch>,
    ) -> CorrectionBoundReport {
        let states_explored = search.states();
        let scratches = search.into_scratches();
        let violation_count: u64 = scratches.iter().map(|s| s.violation_count).sum();
        if violation_count != 0 && self.reduction != Reduction::None {
            // Two-phase contract (see `Reduction`): the reduced pass
            // settled the verdict; the reference pass reconstructs the
            // canonical violation report.
            return self.with_reduction(Reduction::None).check_correction_bound(space, bound);
        }
        let violations = merge_retained(
            scratches.into_iter().flat_map(|s| s.corr_violations),
            CorrectionBoundReport::MAX_RETAINED_VIOLATIONS,
        );
        CorrectionBoundReport { bound, states_explored, violation_count, violations }
    }

    /// Exhaustive snap-safety search over the product of the
    /// configuration space with the delivery overlay, branching over
    /// every daemon choice. See the crate docs.
    pub fn check_snap_safety(&self, space: &StateSpace, track_acks: bool) -> SnapSafetyReport {
        let search = self.ctx(space, true).snap(track_acks, self.workers);
        self.snap_report(space, track_acks, search, false)
    }

    /// Snap-safety search over the *wave region*: the product states
    /// reachable from the paper's normal starting configuration (every
    /// processor cleared to phase `C`) under every daemon interleaving.
    /// Same \[PIF1\]/\[PIF2\] inspection as [`Self::check_snap_safety`],
    /// restricted to the reachable region — which stays tractable on
    /// instances (n ≥ 5) whose any-configuration product space does
    /// not. See the crate docs.
    pub fn check_snap_wave(&self, space: &StateSpace, track_acks: bool) -> SnapSafetyReport {
        let search = self.ctx(space, false).snap_wave(track_acks, self.workers);
        self.snap_report(space, track_acks, search, true)
    }

    /// Assembles a snap report from a finished search, re-running the
    /// reference engine first when a reduced pass found violations.
    fn snap_report(
        &self,
        space: &StateSpace,
        track_acks: bool,
        search: Search<Scratch>,
        wave: bool,
    ) -> SnapSafetyReport {
        let states_explored = search.states();
        let scratches = search.into_scratches();
        let violation_count: u64 = scratches.iter().map(|s| s.violation_count).sum();
        if violation_count != 0 && self.reduction != Reduction::None {
            let reference = self.with_reduction(Reduction::None);
            return if wave {
                reference.check_snap_wave(space, track_acks)
            } else {
                reference.check_snap_safety(space, track_acks)
            };
        }
        let transitions = scratches.iter().map(|s| s.transitions).sum();
        let violations = merge_retained(
            scratches.into_iter().flat_map(|s| s.snap_violations),
            SnapSafetyReport::MAX_RETAINED_VIOLATIONS,
        );
        SnapSafetyReport {
            states_explored,
            transitions,
            violation_count,
            violations,
            acks_tracked: track_acks,
        }
    }
}

/// Merges per-worker retained-violation buffers (each already sorted by
/// key and capped) into the canonical global sample: the `cap` smallest
/// keys, ascending. Per-worker retention of the `cap` locally smallest
/// keys suffices to reconstruct the globally smallest `cap` exactly.
fn merge_retained<K: Ord + Copy, V>(buffers: impl Iterator<Item = (K, V)>, cap: usize) -> Vec<V> {
    let mut all: Vec<(K, V)> = buffers.collect();
    all.sort_by_key(|(k, _)| *k);
    all.truncate(cap);
    all.into_iter().map(|(_, v)| v).collect()
}

/// Inserts `(key, make())` into a buffer kept sorted by key and capped
/// at `cap` entries, retaining the smallest keys. `make` is only called
/// when the entry is actually admitted, so rejected violations cost no
/// clone.
fn retain_smallest<K: Ord + Copy, V>(
    buf: &mut Vec<(K, V)>,
    cap: usize,
    key: K,
    make: impl FnOnce() -> V,
) {
    let pos = buf.partition_point(|(k, _)| *k <= key);
    if buf.len() < cap {
        buf.insert(pos, (key, make()));
    } else if pos < cap {
        buf.insert(pos, (key, make()));
        buf.truncate(cap);
    }
}

/// Product-state item of the correction-bound search:
/// `(configuration, pending round-owing processors, completed rounds)`.
type CorrItem = (u64, u16, u32);
/// Product-state item of the snap-safety search:
/// `(configuration, delivered bitmap, acked bitmap, wave-open flag)`.
type SnapItem = (u64, u16, u16, bool);

/// Overlay width of a packed correction key (pending mask + rounds).
const CORR_OVERLAY_BITS: u32 = 23;
/// Overlay width of a packed snap key (has + ack bitmaps + active flag).
const SNAP_OVERLAY_BITS: u32 = 33;

/// Expected stored (non-seed) states per table shard; small searches get
/// fewer shards, so a spill budget bites on them too.
const SHARD_KEYS: usize = 4096;
/// The snap product search stores only states with an open wave, a small
/// fraction of the configuration count (1.9% on chain3): its tables are
/// pre-sized for `config_count / SNAP_STORED_FRACTION` states.
const SNAP_STORED_FRACTION: u64 = 16;
/// Pre-sizing of the wave search's tables; its reachable slice (45 to
/// 1,319 states on the published instances) grows them as needed.
const WAVE_EXPECTED: u64 = 1 << 10;

#[inline]
fn pack_corr(cfg: u64, pending: u16, rounds: u32) -> u128 {
    (u128::from(cfg) << CORR_OVERLAY_BITS) | (u128::from(pending) << 7) | u128::from(rounds)
}

#[inline]
fn pack_snap(cfg: u64, has: u16, ack: u16, active: bool) -> u128 {
    (u128::from(cfg) << SNAP_OVERLAY_BITS)
        | (u128::from(has) << 17)
        | (u128::from(ack) << 1)
        | u128::from(active)
}

#[inline]
fn unpack_corr(key: u128) -> CorrItem {
    ((key >> CORR_OVERLAY_BITS) as u64, (key >> 7) as u16, (key & 0x7f) as u32)
}

#[inline]
fn unpack_snap(key: u128) -> SnapItem {
    ((key >> SNAP_OVERLAY_BITS) as u64, (key >> 17) as u16, (key >> 1) as u16, key & 1 == 1)
}

/// One enabled (processor, action) pair of the configuration being
/// expanded, executed once against it. Every processor of a daemon
/// selection reads the old configuration, so a selection's successor
/// just combines its moves.
#[derive(Clone, Copy)]
struct Move {
    proc: usize,
    action: ActionId,
    /// The processor's state after the action.
    state: PifState,
    /// `state`'s domain index.
    idx: u32,
    /// What the move adds to the configuration id.
    delta: i64,
}

/// Per-worker scratch: every buffer the expansion core needs, reused
/// across all expansions so the steady-state search is allocation-free.
struct Scratch {
    states: Vec<PifState>,
    idxs: Vec<u32>,
    /// Successor domain indices, maintained only under the symmetry
    /// quotient (the canonicalizer maps indices, not states).
    idxs2: Vec<u32>,
    next: Vec<PifState>,
    /// Guard masks of the configuration at hand when there is no memo:
    /// the expanded one until its moves are listed, then each successor.
    masks: Vec<u8>,
    /// Every enabled move, grouped by processor (actions ascending).
    moves: Vec<Move>,
    /// Per enabled processor: its moves plus "skip".
    counts: Vec<usize>,
    selection: Vec<Move>,
    transitions: u64,
    violation_count: u64,
    corr_violations: Vec<(u64, Vec<PifState>)>,
    snap_violations: Vec<(u128, SnapViolation)>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            states: Vec::with_capacity(n),
            idxs: Vec::with_capacity(n),
            idxs2: Vec::with_capacity(n),
            next: Vec::with_capacity(n),
            masks: Vec::with_capacity(n),
            moves: Vec::new(),
            counts: Vec::with_capacity(n),
            selection: Vec::with_capacity(n),
            transitions: 0,
            violation_count: 0,
            corr_violations: Vec::new(),
            snap_violations: Vec::new(),
        }
    }
}

/// Shared, read-only context of one search: the space, the optional
/// guard memo, and the active reductions.
struct SearchCtx<'a> {
    space: &'a StateSpace,
    memo: Option<&'a EnabledMemo>,
    /// Partial-order reduction: skip disconnected daemon selections.
    por: Option<PorCtx>,
    /// Symmetry quotient: canonicalize keys before the visited lookup.
    sym: Option<Quotient>,
    /// Spill budget handed to the visited tables.
    spill_budget: Option<usize>,
}

impl SearchCtx<'_> {
    /// A search with `workers` fresh scratches, over visited tables
    /// pre-sized for `expected` stored states (capped so huge spaces
    /// don't pre-allocate) with one shard per [`SHARD_KEYS`] of them (at
    /// most [`visited::SHARD_COUNT`]), and a key width derived from the
    /// largest packable key (`overlay_bits` above the configuration id).
    fn search(&self, workers: usize, overlay_bits: u32, expected: u64) -> Search<Scratch> {
        let n = self.space.graph.len();
        let expected = usize::try_from(expected.min(1 << 24)).unwrap_or(usize::MAX);
        let config = VisitedConfig {
            expected,
            max_key: (u128::from(self.space.total) << overlay_bits) - 1,
            shard_count: (expected / SHARD_KEYS).next_power_of_two().min(visited::SHARD_COUNT),
            spill_budget: self.spill_budget,
        };
        Search::new((0..workers).map(|_| Scratch::new(n)).collect(), &config)
    }

    /// Whether `cfg` is its orbit's representative under the symmetry
    /// quotient (every configuration is, without one). The product
    /// searches' canonical seed keys are exactly those of the
    /// representatives: a seed's overlay is a function of its
    /// configuration, so the orbit-minimum key has the orbit-minimum id.
    fn is_representative(&self, sc: &mut Scratch, cfg: u64) -> bool {
        let Some(sym) = &self.sym else {
            return true;
        };
        self.space.decode_indices_into(cfg, &mut sc.states, &mut sc.idxs);
        sym.is_representative(&sc.idxs, cfg)
    }
}

impl SearchCtx<'_> {
    /// The per-processor guard masks of configuration `cfg`, whose
    /// decoded states are `states`: the memo's row, or without a memo the
    /// masks computed into `buf`.
    fn masks<'s>(&'s self, cfg: u64, states: &[PifState], buf: &'s mut Vec<u8>) -> &'s [u8] {
        if let Some(m) = self.memo {
            return m.masks_of(cfg);
        }
        buf.clear();
        buf.extend(self.space.guard_masks(states));
        buf
    }

    /// The guard masks of configuration `cfg` at the level-0 scan, before
    /// anything decoded it: the memo's row by id, or without a memo `cfg`
    /// decoded into `sc.states` and its masks computed into `sc.masks`.
    fn seed_masks<'s>(&'s self, sc: &'s mut Scratch, cfg: u64) -> &'s [u8] {
        if self.memo.is_none() {
            self.space.decode_into(cfg, &mut sc.states);
        }
        self.masks(cfg, &sc.states, &mut sc.masks)
    }

    /// How many of the daemon combos of a configuration with guard masks
    /// `masks` `select` retains, counted without listing them. Without
    /// the partial-order reduction every combo but the all-skip is kept:
    /// `Π(|actions_i| + 1) − 1`. Under it, each retained selected set (a
    /// connected one; a single processor is) contributes `Π|actions_i|`
    /// over its processors.
    fn retained_selections(&self, masks: &[u8]) -> u64 {
        let moves = |i: usize| u64::from(masks[i].count_ones());
        let Some(por) = &self.por else {
            return (0..masks.len()).map(|i| moves(i) + 1).product::<u64>() - 1;
        };
        let enabled = (0..masks.len()).fold(0u16, |set, i| set | u16::from(masks[i] != 0) << i);
        let mut retained = 0;
        // Every non-empty subset of the enabled processors.
        let mut sel = enabled;
        while sel != 0 {
            if por.connected(sel) {
                let (mut product, mut rest) = (1, sel);
                while rest != 0 {
                    product *= moves(rest.trailing_zeros() as usize);
                    rest &= rest - 1;
                }
                retained += product;
            }
            sel = (sel - 1) & enabled;
        }
        retained
    }

    /// Decodes `cfg` into `sc` and executes every enabled action of
    /// every processor once, filling `sc.moves` and `sc.counts`. Returns
    /// the number of daemon combos — each enabled processor
    /// independently skips or makes one of its moves — counting combo 0,
    /// the all-skip the daemon never picks. A terminal configuration
    /// (reported by `check_no_deadlock`) has only that one.
    fn moves(&self, sc: &mut Scratch, cfg: u64) -> usize {
        let space = self.space;
        space.decode_indices_into(cfg, &mut sc.states, &mut sc.idxs);
        let Scratch { states, idxs, masks, moves, counts, .. } = sc;
        let masks = self.masks(cfg, states, masks);
        moves.clear();
        counts.clear();
        for (i, &mask) in masks.iter().enumerate().filter(|&(_, &mask)| mask != 0) {
            let view = View::new(&space.graph, states, ProcId::from_index(i));
            let actions = ActionSet::from_bits(mask.into());
            for action in actions {
                let state = space.protocol.execute(view, action);
                let idx = space.shapes[i].index_of(&state);
                let idx = idx.expect("actions keep registers in their domains");
                let delta = (i64::from(idx) - i64::from(idxs[i])) * space.strides[i] as i64;
                moves.push(Move { proc: i, action, state, idx, delta });
            }
            counts.push(actions.len() + 1);
        }
        counts.iter().product()
    }

    /// Selects daemon combo `combo` of the moves in `sc` into
    /// `sc.selection`. Returns false when the partial-order reduction
    /// drops the selection (a disconnected selection decomposes into
    /// retained connected-component steps with the same endpoint, see
    /// `por`).
    fn select(&self, sc: &mut Scratch, combo: usize) -> bool {
        let Scratch { moves, counts, selection, .. } = sc;
        let (mut c, mut first, mut sel_mask) = (combo, 0, 0u16);
        selection.clear();
        for &count in counts.iter() {
            let choice = c % count;
            c /= count;
            if choice > 0 {
                let m = moves[first + choice - 1];
                sel_mask |= 1 << m.proc;
                selection.push(m);
            }
            first += count - 1;
        }
        self.por.as_ref().is_none_or(|por| selection.len() <= 1 || por.connected(sel_mask))
    }

    /// Applies `sc.selection` to `cfg` simultaneously, against the old
    /// configuration: fills the successor states `sc.next` and, under
    /// the symmetry quotient, their domain indices `sc.idxs2`, and
    /// returns the successor's id, encoded incrementally from the moves'
    /// index deltas.
    fn apply(&self, sc: &mut Scratch, cfg: u64) -> u64 {
        let Scratch { states, idxs, idxs2, next, selection, .. } = sc;
        next.clone_from(states);
        if self.sym.is_some() {
            idxs2.clone_from(idxs);
        }
        let mut cfg2 = cfg as i64;
        for m in selection.iter() {
            next[m.proc] = m.state;
            if self.sym.is_some() {
                idxs2[m.proc] = m.idx;
            }
            cfg2 += m.delta;
        }
        let cfg2 = cfg2 as u64;
        debug_assert_eq!(cfg2, self.space.encode(next), "incremental encode diverged");
        cfg2
    }

    /// Expands one product state of the correction-bound search, calling
    /// `emit(packed_key)` for every successor that stays in the search
    /// and is not a seed (the caller deduplicates and enqueues).
    /// Violations and counters accumulate in `sc`.
    fn expand_correction(
        &self,
        sc: &mut Scratch,
        item: CorrItem,
        bound: u32,
        mut emit: impl FnMut(u128),
    ) {
        let (cfg, pending, rounds) = item;
        for combo in 1..self.moves(sc, cfg) {
            if !self.select(sc, combo) {
                continue;
            }
            let cfg2 = self.apply(sc, cfg);
            let Scratch { idxs2, next, masks, selection, violation_count, corr_violations, .. } = sc;
            let Some(next_enabled) = correction_pending(self.masks(cfg2, next, masks)) else {
                continue; // goal reached on this branch
            };
            // Round accounting: executed and now-disabled processors
            // leave the pending set.
            let mut pending2 = pending;
            for m in selection.iter() {
                pending2 &= !(1 << m.proc);
            }
            pending2 &= next_enabled;
            let mut rounds2 = rounds;
            if pending2 == 0 {
                rounds2 += 1;
                if rounds2 >= bound {
                    // `bound` rounds completed with abnormal processors
                    // remaining: Theorem 1 violated here.
                    *violation_count += 1;
                    let example = &*next;
                    retain_smallest(
                        corr_violations,
                        CorrectionBoundReport::MAX_RETAINED_VIOLATIONS,
                        cfg2,
                        || example.clone(),
                    );
                    continue;
                }
                pending2 = next_enabled;
            }
            if rounds2 == 0 && pending2 == next_enabled {
                // The seed of `cfg2`, which the level-0 scan expands:
                // dropped before canonicalization and hashing.
                continue;
            }
            emit(match &self.sym {
                Some(sym) => sym.canon_corr(idxs2, (cfg2, pending2, rounds2)),
                None => pack_corr(cfg2, pending2, rounds2),
            });
        }
    }

    /// The pending set of configuration `cfg`'s correction seed, if it
    /// has one: every *abnormal* configuration starts a search path with
    /// zero completed rounds and every enabled processor owing one.
    fn correction_seed(&self, sc: &mut Scratch, cfg: u64) -> Option<u16> {
        correction_pending(self.seed_masks(sc, cfg))
    }

    /// Correction-bound search: level 0 scans every configuration and
    /// expands each abnormal orbit representative in place as a seed;
    /// the levels after it store and expand only non-seed states.
    fn correction(&self, bound: u32, workers: usize) -> Search<Scratch> {
        let mut search = self.search(workers, CORR_OVERLAY_BITS, self.space.total);
        search.scan(self.space.total, |sc, cfg, router| {
            let Some(pending) = self.correction_seed(sc, cfg) else {
                return false;
            };
            if !self.is_representative(sc, cfg) {
                return false;
            }
            self.expand_correction(sc, (cfg, pending, 0), bound, |key| router.route(key));
            true
        });
        search.run(|sc, key, router| {
            self.expand_correction(sc, unpack_corr(key), bound, |key| router.route(key));
        });
        search
    }

    /// Expands one product state of the snap-safety search, calling
    /// `emit(packed_key)` for every successor — except, when
    /// `drop_seeds` is set, successors with an empty overlay, which are
    /// the product search's seeds. Violations and counters accumulate
    /// in `sc`.
    fn expand_snap(
        &self,
        sc: &mut Scratch,
        item: SnapItem,
        track_acks: bool,
        drop_seeds: bool,
        mut emit: impl FnMut(u128),
    ) {
        let (cfg, has, ack, active) = item;
        let n = self.space.graph.len();
        let root = self.space.protocol.root().index();
        if drop_seeds && !active {
            // A seed whose root cannot open a wave has only seeds for
            // successors: its retained selections are counted as
            // transitions, with nothing decoded, executed or listed.
            let masks = self.seed_masks(sc, cfg);
            if !ActionSet::from_bits(masks[root].into()).contains(B_ACTION) {
                let transitions = self.retained_selections(masks);
                sc.transitions += transitions;
                return;
            }
        }
        for combo in 1..self.moves(sc, cfg) {
            // Only combos the partial-order reduction retains count as
            // explored transitions.
            if !self.select(sc, combo) {
                continue;
            }
            sc.transitions += 1;
            let opens = sc.selection.iter().any(|m| m.proc == root && m.action == B_ACTION);
            if drop_seeds && !active && !opens {
                // Without an open wave the overlay stays empty: a seed's
                // successor is a seed unless the root opens one.
                continue;
            }
            let cfg2 = self.apply(sc, cfg);
            let Scratch { states, idxs2, selection, violation_count, snap_violations, .. } = sc;

            // Overlay update (same semantics as pif_core::wave).
            let mut has2 = has;
            let mut ack2 = ack;
            let mut active2 = active;
            if opens {
                has2 = 1 << root;
                ack2 = 0;
                active2 = true;
            }
            for m in selection.iter().filter(|m| m.proc != root) {
                let i = m.proc;
                match m.action {
                    B_ACTION => {
                        if has2 & (1 << m.state.par.index()) != 0 {
                            has2 |= 1 << i;
                        } else {
                            has2 &= !(1 << i);
                        }
                        ack2 &= !(1 << i);
                    }
                    F_ACTION if has2 & (1 << i) != 0 => {
                        ack2 |= 1 << i;
                    }
                    _ => {}
                }
            }
            if active2 && selection.iter().any(|m| m.proc == root && m.action == F_ACTION) {
                let all = (1u16 << n) - 1;
                let all_have = has2 == all;
                let all_acked = !track_acks || (ack2 | (1 << root)) == all;
                if !(all_have && all_acked) {
                    *violation_count += 1;
                    let (states, has2, ack2) = (&*states, has2, ack2);
                    retain_smallest(
                        snap_violations,
                        SnapSafetyReport::MAX_RETAINED_VIOLATIONS,
                        pack_snap(cfg, has2, ack2, true),
                        || SnapViolation {
                            configuration: states.clone(),
                            not_received: (0..n)
                                .filter(|&i| has2 & (1 << i) == 0)
                                .map(ProcId::from_index)
                                .collect(),
                            not_acked: (0..n)
                                .filter(|&i| i != root && ack2 & (1 << i) == 0)
                                .map(ProcId::from_index)
                                .collect(),
                        },
                    );
                }
                active2 = false;
                has2 = 0;
                ack2 = 0;
            }

            if !track_acks {
                ack2 = 0;
            }
            if drop_seeds && !active2 && has2 == 0 && ack2 == 0 {
                // The seed of `cfg2`, which the level-0 scan expands:
                // dropped before canonicalization and hashing.
                continue;
            }
            emit(match &self.sym {
                Some(sym) => sym.canon_snap(idxs2, (cfg2, has2, ack2, active2)),
                None => pack_snap(cfg2, has2, ack2, active2),
            });
        }
    }

    /// Snap-safety product search: every configuration is a legitimate
    /// starting point with an empty overlay (no wave opened yet). Level 0
    /// scans every configuration and expands each orbit representative
    /// in place as a seed; only non-seed states are stored.
    fn snap(&self, track_acks: bool, workers: usize) -> Search<Scratch> {
        let mut search = self.search(workers, SNAP_OVERLAY_BITS, self.space.total / SNAP_STORED_FRACTION);
        search.scan(self.space.total, |sc, cfg, router| {
            if !self.is_representative(sc, cfg) {
                return false;
            }
            self.expand_snap(sc, (cfg, 0, 0, false), track_acks, true, |key| router.route(key));
            true
        });
        search.run(|sc, key, router| {
            self.expand_snap(sc, unpack_snap(key), track_acks, true, |key| router.route(key));
        });
        search
    }

    /// Reachable-wave search: the snap transition system restricted to
    /// what is reachable from the single clean starting configuration
    /// (`pif_core::initial::normal_starting`), instead of seeding every
    /// configuration. The reachable slice is minuscule compared to the
    /// product space, which is what lets n = 5 instances complete. The
    /// one seed is stored like any other state, and empty overlays are
    /// ordinary states here.
    fn snap_wave(&self, track_acks: bool, workers: usize) -> Search<Scratch> {
        let space = self.space;
        let mut search = self.search(workers, SNAP_OVERLAY_BITS, WAVE_EXPECTED);
        let start = pif_core::initial::normal_starting(&space.graph);
        let cfg0 = space.encode(&start);
        search.seed(match &self.sym {
            Some(sym) => {
                let (mut states, mut idxs) = (Vec::new(), Vec::new());
                space.decode_indices_into(cfg0, &mut states, &mut idxs);
                sym.canon_snap(&idxs, (cfg0, 0, 0, false))
            }
            None => pack_snap(cfg0, 0, 0, false),
        });
        search.run(|sc, key, router| {
            self.expand_snap(sc, unpack_snap(key), track_acks, false, |key| router.route(key));
        });
        search
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_core::Features;
    use pif_graph::generators;

    fn space(n: usize) -> StateSpace {
        let g = generators::chain(n).unwrap();
        let p = PifProtocol::new(ProcId(0), &g);
        StateSpace::new(g, p)
    }

    #[test]
    fn domain_sizes_are_exact() {
        let s = space(3);
        // root: 3 phases × 3 counts × 2 fok = 18;
        // p1: 3 × 2 par × 2 levels × 3 counts × 2 = 72;
        // p2: 3 × 1 par × 2 levels × 3 counts × 2 = 36.
        assert_eq!(s.config_count(), 18 * 72 * 36);
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = space(3);
        for id in [0u64, 1, 17, 999, s.config_count() - 1] {
            let states = s.decode(id);
            assert_eq!(s.encode(&states), id);
        }
    }

    #[test]
    fn decode_rejects_ids_past_the_configuration_count() {
        let s = space(3);
        let configs = s.config_count();
        for id in [configs, configs + 5] {
            assert_eq!(s.try_decode(id), Err(VerifyError::IdOutOfRange { id, configs }));
        }
        let last = s.try_decode(configs - 1).unwrap();
        assert_eq!(s.encode(&last), configs - 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decode_panics_instead_of_aliasing_id_0() {
        let s = space(3);
        let _ = s.decode(s.config_count());
    }

    #[test]
    fn domain_shapes_match_the_enumeration() {
        // The arithmetic state → index function used by the search hot
        // loops must agree with the enumerated domain on every state of
        // every processor, including a non-tree instance.
        for s in [space(3), {
            let g = generators::complete(3).unwrap();
            let p = PifProtocol::new(ProcId(0), &g);
            StateSpace::new(g, p)
        }] {
            for (p, domain) in s.domains.iter().enumerate() {
                for (i, st) in domain.iter().enumerate() {
                    assert_eq!(s.shapes[p].index_of(st), Some(i as u32), "proc {p} state {st:?}");
                }
            }
        }
    }

    #[test]
    fn oversized_instances_are_typed_errors() {
        let g = generators::ring(20).unwrap();
        let p = PifProtocol::new(ProcId(0), &g);
        let err = StateSpace::try_new(g, p).unwrap_err();
        assert_eq!(err, VerifyError::NetworkTooLarge { n: 20, max: 16 });
        // Within the processor cap but over the configuration budget.
        let g = generators::complete(12).unwrap();
        let p = PifProtocol::new(ProcId(0), &g);
        let err = StateSpace::try_new(g, p).unwrap_err();
        assert!(matches!(err, VerifyError::SpaceTooLarge { .. }), "{err}");
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn out_of_domain_encode_is_a_typed_error() {
        // chain(3) rooted at 0: N' = 3, L_max = 2; p1's potential parents
        // are 0 and 2, p2's only 1.
        // chain(3) rooted at 0: N' = 3, L_max = 2, the root's level is the
        // constant 1; p1's potential parents are 0 and 2, p2's only 1.
        let s = space(3);
        let st = |proc: usize| s.decode(0)[proc];
        for (proc, state) in [
            (1, PifState { par: ProcId(16), ..st(1) }),
            (1, PifState { par: ProcId(1), ..st(1) }),
            (2, PifState { par: ProcId(0), ..st(2) }),
            (1, PifState { level: 0, ..st(1) }),
            (2, PifState { level: 3, ..st(2) }),
            (0, PifState { level: 2, ..st(0) }),
            (2, PifState { count: 0, ..st(2) }),
            (1, PifState { count: 4, ..st(1) }),
        ] {
            let mut states = s.decode(0);
            states[proc] = state;
            let err = VerifyError::OutOfDomain { proc: ProcId::from_index(proc), state };
            assert_eq!(s.try_encode(&states), Err(err));
        }
    }

    #[test]
    fn wrong_length_encode_is_a_typed_error() {
        let s = space(3);
        let mut states = s.decode(0);
        states.push(states[0]);
        assert_eq!(s.try_encode(&states), Err(VerifyError::WrongLength { states: 4, procs: 3 }));
        states.truncate(2);
        let err = s.try_encode(&states).unwrap_err();
        assert_eq!(err, VerifyError::WrongLength { states: 2, procs: 3 });
        assert!(!err.to_string().is_empty());
    }

    /// The premise of reading abnormality off the guard masks, checked on
    /// every configuration of chain(3) from both roots and of the
    /// triangle, under the paper's protocol and each single-mechanism
    /// ablation: some processor is abnormal iff some mask has a
    /// [`CORRECTION_BITS`] bit, and every mask is the per-guard
    /// composition.
    #[test]
    fn guard_masks_match_the_per_guard_composition_everywhere() {
        fn composed(proto: &PifProtocol, view: View<'_, PifState>) -> u8 {
            [
                proto.broadcast_guard(view),
                proto.features().fok_wave && proto.change_fok_guard(view),
                proto.feedback_guard(view),
                proto.cleaning_guard(view),
                proto.new_count_guard(view),
                proto.b_correction_guard(view),
                proto.f_correction_guard(view),
            ]
            .into_iter()
            .enumerate()
            .fold(0, |mask, (k, on)| mask | u8::from(on) << k)
        }
        let paper = Features::paper();
        let ablations = [
            paper,
            Features { leaf_guard: false, ..paper },
            Features { fok_wave: false, ..paper },
            Features { chordless_potential: false, ..paper },
            Features { level_guard: false, ..paper },
        ];
        let instances = [
            (generators::chain(3).unwrap(), ProcId(0)),
            (generators::chain(3).unwrap(), ProcId(1)),
            (generators::complete(3).unwrap(), ProcId(0)),
        ];
        for (g, root) in instances {
            for features in ablations {
                let s = StateSpace::new(g.clone(), PifProtocol::new(root, &g).with_features(features));
                let witness = Checker::auto().check_universal(&s, |proto, g, states| {
                    let masks: Vec<u8> = s.guard_masks(states).collect();
                    let abnormal = g.procs().any(|p| !proto.normal(View::new(g, states, p)));
                    abnormal == correction_pending(&masks).is_some()
                        && g.procs().all(|p| masks[p.index()] == composed(proto, View::new(g, states, p)))
                });
                assert_eq!(witness, None, "{} rooted at {root} under {features:?}", g.name());
            }
        }
    }

    #[test]
    fn no_configuration_deadlocks_chain3() {
        let s = space(3);
        assert_eq!(Checker::auto().check_no_deadlock(&s), None, "found a terminal configuration");
    }

    #[test]
    fn property1_universal_chain3() {
        let s = space(3);
        let witness = Checker::auto().check_universal(&s, pif_core::analysis::property1_holds);
        assert_eq!(witness, None);
    }

    #[test]
    fn universal_scan_returns_the_smallest_witness() {
        // A predicate failing on known ids must report the smallest one,
        // for every worker count.
        let s = space(3);
        let bad = s.decode(12345);
        for checker in [Checker::with_workers(1), Checker::with_workers(4)] {
            let witness = checker.check_universal(&s, |_, _, states| {
                s.encode(states) < 12345 || s.encode(states) > 20000
            });
            assert_eq!(witness.as_deref(), Some(&bad[..]), "{checker:?}");
        }
    }

    #[test]
    fn snap_safety_exhaustive_chain2() {
        let s = space(2);
        let report = Checker::auto().check_snap_safety(&s, true);
        assert!(report.verified(), "violations: {:#?}", report.violations);
        assert!(report.states_explored >= s.config_count());
        assert!(report.acks_tracked);
    }

    #[test]
    fn checker_finds_the_leaf_guard_bug() {
        // Sensitivity: the same exhaustive search against the leaf-guard
        // ablation must FIND a snap violation on chain(3).
        let g = generators::chain(3).unwrap();
        let p = PifProtocol::new(ProcId(0), &g)
            .with_features(Features { leaf_guard: false, ..Features::paper() });
        let s = StateSpace::new(g, p);
        let report = Checker::auto().check_snap_safety(&s, false);
        assert!(!report.verified(), "the ablated protocol must have a reachable violation");
        assert!(!report.violations[0].not_received.is_empty());
        assert!(report.violation_count >= report.violations.len() as u64);
    }

    #[test]
    fn theorem1_bound_exhaustive_chain2() {
        let s = space(2);
        // L_max = 1 → bound 6.
        let report = Checker::auto().check_correction_bound(&s, 6);
        assert!(report.verified(), "violations: {:#?}", report.violations);
        assert!(report.states_explored > 0);
    }

    #[test]
    fn theorem1_impossible_bound_is_refuted() {
        // Sensitivity: a bound of 0 rounds must be refuted (corrupted
        // configurations need at least one round to correct).
        let s = space(2);
        let report = Checker::auto().check_correction_bound(&s, 0);
        assert!(!report.verified(), "a zero-round bound cannot hold");
    }

    #[test]
    fn violation_truncation_reports_the_true_count() {
        // bound 0 violates on (nearly) every branch: the retained sample
        // must stay capped while the true count keeps counting, and the
        // sample must be canonically sorted by configuration id.
        let s = space(2);
        for checker in [Checker::with_workers(1), Checker::with_workers(3)] {
            let report = checker.check_correction_bound(&s, 0);
            assert!(
                report.violation_count > CorrectionBoundReport::MAX_RETAINED_VIOLATIONS as u64,
                "expected a flood of violations, got {}",
                report.violation_count
            );
            assert_eq!(report.violations.len(), CorrectionBoundReport::MAX_RETAINED_VIOLATIONS);
            let keys: Vec<u64> = report.violations.iter().map(|v| s.encode(v)).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(keys, sorted, "retained examples must be sorted by configuration id");
        }
    }

    #[test]
    #[ignore = "full product space of chain(3); run with --ignored in release"]
    fn theorem1_bound_exhaustive_chain3() {
        let s = space(3);
        // L_max = 2 → bound 9.
        let report = Checker::auto().check_correction_bound(&s, 9);
        assert!(report.verified(), "violations: {:#?}", report.violations);
    }

    #[test]
    #[ignore = "full product space of chain(3); run with --ignored in release"]
    fn snap_safety_exhaustive_chain3() {
        let s = space(3);
        let report = Checker::auto().check_snap_safety(&s, true);
        assert!(report.verified(), "violations: {:#?}", report.violations);
    }

    #[test]
    fn reductions_preserve_verdicts_chain2() {
        let s = space(2);
        for red in Reduction::ALL {
            let c = Checker::with_workers(1).with_reduction(red);
            assert!(c.check_correction_bound(&s, 6).verified(), "{red}");
            assert!(c.check_snap_safety(&s, true).verified(), "{red}");
        }
    }

    #[test]
    fn symmetry_quotient_shrinks_the_middle_root_chain() {
        // chain(3) rooted at the middle has the reflection symmetry; the
        // quotient must explore strictly fewer product states while
        // reaching the same verdict.
        let g = generators::chain(3).unwrap();
        let p = PifProtocol::new(ProcId(1), &g);
        let s = StateSpace::new(g, p);
        let full = Checker::with_workers(1).check_snap_safety(&s, false);
        let sym = Checker::with_workers(1)
            .with_reduction(Reduction::Symmetry)
            .check_snap_safety(&s, false);
        assert!(full.verified() && sym.verified());
        assert!(
            sym.states_explored < full.states_explored,
            "quotient must shrink the space: {} vs {}",
            sym.states_explored,
            full.states_explored
        );
    }

    #[test]
    fn por_prunes_transitions_without_changing_the_verdict() {
        // chain(3): the {0, 2} daemon selections are disconnected, so the
        // POR engine must take strictly fewer transitions.
        let s = space(3);
        let full = Checker::with_workers(1).check_snap_wave(&s, true);
        let por = Checker::with_workers(1)
            .with_reduction(Reduction::Por)
            .check_snap_wave(&s, true);
        assert!(full.verified() && por.verified());
        assert!(
            por.transitions < full.transitions,
            "POR must prune composite selections: {} vs {}",
            por.transitions,
            full.transitions
        );
    }

    #[test]
    fn counted_selections_match_the_retained_combos() {
        // A snap seed whose root cannot open a wave is settled by counting
        // its retained daemon selections instead of listing them. On every
        // configuration of chain(3) (whose {0, 2} selections POR drops)
        // and the triangle, with and without POR and with masks from the
        // memo or from guard evaluation, the count must be what `select`
        // keeps.
        for g in [generators::chain(3).unwrap(), generators::complete(3).unwrap()] {
            let s = StateSpace::new(g.clone(), PifProtocol::new(ProcId(0), &g));
            for red in [Reduction::None, Reduction::Por] {
                for memoized in [true, false] {
                    let ctx = Checker::with_workers(1).with_reduction(red).ctx(&s, memoized);
                    let mut sc = Scratch::new(g.len());
                    for cfg in 0..s.config_count() {
                        // Counted first, as the level-0 scan does: nothing
                        // has decoded `cfg` yet.
                        let counted = ctx.retained_selections(ctx.seed_masks(&mut sc, cfg));
                        let combos = ctx.moves(&mut sc, cfg);
                        let kept = (1..combos).filter(|&combo| ctx.select(&mut sc, combo)).count();
                        assert_eq!(counted, kept as u64, "{} {red} memo {memoized} cfg {cfg}", g.name());
                    }
                }
            }
        }
    }

    #[test]
    fn wave_check_is_a_tiny_slice_of_the_product() {
        let s = space(4);
        let report = Checker::auto().check_snap_wave(&s, true);
        assert!(report.verified(), "violations: {:#?}", report.violations);
        assert!(report.acks_tracked);
        assert!(
            report.states_explored < s.config_count() / 1000,
            "the reachable wave slice must be minuscule: {} of {}",
            report.states_explored,
            s.config_count()
        );
    }

    #[test]
    fn wave_check_finds_the_fok_wave_bug() {
        // Sensitivity: ablating the Fok wave lets feedback outrun the
        // broadcast *from the clean start* — the wave slice must catch
        // it. (The leaf-guard bug, by contrast, needs a corrupted start
        // and is out of the wave check's scope by design; the full
        // product search covers it.)
        let g = generators::chain(3).unwrap();
        let p = PifProtocol::new(ProcId(0), &g)
            .with_features(Features { fok_wave: false, ..Features::paper() });
        let s = StateSpace::new(g, p);
        let report = Checker::auto().check_snap_wave(&s, true);
        assert!(!report.verified(), "the ablated protocol must violate on the wave slice");
    }

    #[test]
    fn spill_budget_preserves_product_reports() {
        // Each worker's table gets its share of the budget. Budgets small
        // enough to freeze runs in the correction and snap tables, at one
        // worker and at two, must not change a single reported number.
        let s = space(3);
        let corr = format!("{:?}", Checker::with_workers(1).check_correction_bound(&s, 9));
        let snap = format!("{:?}", Checker::with_workers(1).check_snap_safety(&s, true));
        for workers in [1, 2] {
            let spill = Checker::with_workers(workers).with_spill_budget(1 << 16);
            let search = spill.ctx(&s, true).correction(9, workers);
            assert!(search.spilled_keys() > 0, "w={workers}: the correction budget must freeze runs");
            assert_eq!(format!("{:?}", spill.correction_report(&s, 9, search)), corr, "w={workers}");
            let spill = Checker::with_workers(workers).with_spill_budget(1 << 12);
            let search = spill.ctx(&s, true).snap(true, workers);
            assert!(search.spilled_keys() > 0, "w={workers}: the snap budget must freeze runs");
            assert_eq!(format!("{:?}", spill.snap_report(&s, true, search, false)), snap, "w={workers}");
        }
    }

    #[test]
    fn spill_budget_preserves_wave_reports() {
        // A spill budget small enough to force frozen runs must not
        // change a single reported number.
        let s = space(3);
        let plain = Checker::with_workers(1).check_snap_wave(&s, true);
        let spilled = Checker::with_workers(1).with_spill_budget(1 << 14).check_snap_wave(&s, true);
        assert_eq!(plain.states_explored, spilled.states_explored);
        assert_eq!(plain.transitions, spilled.transitions);
        assert_eq!(plain.violation_count, spilled.violation_count);
    }
}
