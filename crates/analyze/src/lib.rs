//! Static action-interference and model-conformance analyzer for
//! guarded-action protocols (`pif-analyze`).
//!
//! The paper's correctness argument rests on structural facts about
//! Algorithms 1 & 2 that the simulator and checker only witness
//! dynamically: actions write *only their own* registers (the locally
//! shared memory model), guards are prioritized so at most one action
//! class fires per processor, every action belongs to exactly one PIF
//! phase, and correction actions are disabled in normal configurations.
//! This crate checks those facts against the per-action metadata a
//! protocol declares via [`pif_daemon::Protocol::action_spec`]:
//!
//! * **AN001 write-locality / write-set conformance** — no declared
//!   neighbor-register write (model conformance), and no *observed* write
//!   outside the declared write-set;
//! * **AN002 guard determinism** — enumerating all small-domain views
//!   (reusing `pif-verify`'s per-processor register domains), two actions
//!   of the same declared priority class are never simultaneously
//!   enabled;
//! * **AN003 read-set soundness** — the declared read-set
//!   over-approximates the *observed* reads, established by differential
//!   probing: flip one register of one processor in the closed
//!   neighborhood and watch whether the enabled set or any written value
//!   changes;
//! * **AN004 classify conformance** — `action_spec().phase` agrees with
//!   [`pif_daemon::Protocol::classify`] and no annotated action is
//!   [`PhaseTag::Other`];
//! * **AN005 correction quiescence** — in every view satisfying
//!   [`pif_daemon::Protocol::locally_normal`], all
//!   [`PhaseTag::Correction`] actions are disabled;
//! * **AN006 read locality** — an instrumented spy [`View`] records which
//!   processors' registers guard evaluation and execution actually touch;
//!   touching anything outside the closed neighborhood breaks the model;
//! * **AN007 applicability** — actions declared root-only (or
//!   non-root-only) are never enabled at the wrong processor class.
//!
//! On top of the per-view checks, an abstract-interpretation layer
//! ([`abstraction`]) extracts a finite abstract transition system per
//! processor role (root / internal / leaf) over (phase × small-domain
//! predicate registers × local normality) and checks:
//!
//! * **AN008 phase-order conformance** — every abstract wave transition
//!   follows the paper's B→F→C cycle, and phase B is never re-entered
//!   except from C (broadcast never restarts without passing cleaning);
//! * **AN009 correction convergence** — every abnormal abstract state
//!   outside the clean phase has a correction exit, the correction
//!   relation is cycle-free, and a synthesized lexicographic ranking
//!   function ([`ranking`]) bounds every correction path by the
//!   Theorem 1 window (one correction per non-clean phase);
//! * **AN010 derived-interference completeness** — the interference
//!   graph compiled from the specs contains the hand-declared paper
//!   premise *and* everything differential pairwise probing observes
//!   ([`mod@derive`]), so the `interference_radius` that `pif-verify`'s
//!   partial-order reduction consumes is machine-checked end-to-end;
//! * **AN011 dead-action detection** — every action is enabled in at
//!   least one reachable abstract state.
//!
//! The analyzer also derives the **action-interference graph** (which
//! actions' writes can change which actions' guards, at the writer's own
//! processor and across one link) — the static justification for the
//! simulator's incremental enabled-set bookkeeping and the guard memo's
//! locality assumption in `pif-verify` (a move at `p` can only change
//! enabled sets inside `p ∪ N(p)`).
//!
//! ## Soundness of the dynamic stages
//!
//! The view enumeration is exhaustive over the closed neighborhood's
//! register domains (the rest of the network pinned to a base state), so
//! for guards that read only the local view — which AN006 independently
//! enforces — the witness search is complete on the analyzed topology:
//! a clean AN002/AN005 verdict is a proof for that instance, not a
//! sample. Observed reads under-approximate true data dependence
//! (flipping a register can leave a dependent guard coincidentally
//! unchanged), which is the safe direction: AN003 never reports a false
//! under-declaration, and declared ⊇ observed is exactly the contract
//! the interference graph needs to be an over-approximation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::collections::HashSet;
use std::fmt;

use pif_daemon::{ActionId, PhaseTag, Protocol, ReadProbe, Scope, View};
use pif_graph::{Graph, ProcId};

// The file is named after the concept (the issue tracker and DESIGN.md
// call it the abstract layer); `abstract` is a reserved word, so the
// module takes the pronounceable name.
#[path = "abstract.rs"]
pub mod abstraction;
pub mod derive;
pub mod domains;
pub mod mutants;
pub mod ranking;
pub mod report;

pub use pif_daemon::{InterferenceEdge, InterferenceGraph};

use abstraction::RoleSummary;
use derive::DerivedSummary;
use ranking::RankingCertificate;

/// A protocol whose per-processor register state ranges over a small
/// enumerable domain, making exhaustive view enumeration possible.
///
/// Implementations must keep [`DomainModel::registers`] consistent with
/// the register names used in the protocol's
/// [`pif_daemon::ActionSpec`] declarations, and
/// [`DomainModel::project`] must map a state to one `u64` per register
/// in that order (two states are "equal on register `r`" iff their
/// projections agree at `r`'s index).
pub trait DomainModel: Protocol {
    /// Register names, in projection order. The default delegates to
    /// [`Protocol::register_names`], so protocols that declare their
    /// spec surface once need not repeat it here.
    fn registers(&self) -> &'static [&'static str] {
        Protocol::register_names(self)
    }

    /// All in-domain register states of processor `p` on `graph`.
    /// Value-carrying registers may be collapsed to two representative
    /// values: the analyzer only needs to *distinguish* values, never to
    /// cover them.
    fn domain(&self, graph: &Graph, p: ProcId) -> Vec<Self::State>;

    /// Projects a state to one `u64` per register of
    /// [`DomainModel::registers`].
    fn project(&self, s: &Self::State) -> Vec<u64>;

    /// The distinguished root processor, if the protocol has one (used
    /// by the AN007 applicability check).
    fn analysis_root(&self) -> Option<ProcId> {
        None
    }

    /// The interference premise the protocol *advertises* to consumers —
    /// the hand-declared shape the partial-order reduction's soundness
    /// argument cites (for PIF, the paper's 7×7 neighbor-complete
    /// matrix). AN010 checks the spec-derived graph contains every
    /// advertised edge, so an advertised premise can never claim more
    /// than the machine derivation supports. The default advertises
    /// exactly the derived graph, which is trivially consistent.
    fn advertised_interference(&self) -> InterferenceGraph
    where
        Self: Sized,
    {
        InterferenceGraph::from_protocol(self, self.registers())
    }
}

/// Diagnostic codes emitted by the analyzer. Stable strings (`AN001`…)
/// are part of the JSON report format.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Code {
    /// Write-locality / write-set conformance violation.
    AN001,
    /// Guard nondeterminism: two same-priority actions co-enabled.
    AN002,
    /// Declared read-set under-approximates observed reads.
    AN003,
    /// `action_spec().phase` disagrees with `classify`, or is `Other`.
    AN004,
    /// A correction action is enabled in a locally normal view.
    AN005,
    /// Guard or statement read a processor outside the closed
    /// neighborhood.
    AN006,
    /// Action enabled at a processor class it does not apply to.
    AN007,
    /// Abstract transition violates the B→F→C phase order.
    AN008,
    /// Correction relation does not converge (cycle, stuck abnormal
    /// state, or path longer than the Theorem 1 window).
    AN009,
    /// Derived interference graph misses an advertised or observed
    /// dependence (the POR premise would be unsound).
    AN010,
    /// Action never enabled in any reachable abstract state.
    AN011,
}

impl Code {
    /// The stable code string (`"AN001"`…).
    pub const fn as_str(self) -> &'static str {
        match self {
            Code::AN001 => "AN001",
            Code::AN002 => "AN002",
            Code::AN003 => "AN003",
            Code::AN004 => "AN004",
            Code::AN005 => "AN005",
            Code::AN006 => "AN006",
            Code::AN007 => "AN007",
            Code::AN008 => "AN008",
            Code::AN009 => "AN009",
            Code::AN010 => "AN010",
            Code::AN011 => "AN011",
        }
    }

    /// Short human-readable title.
    pub const fn title(self) -> &'static str {
        match self {
            Code::AN001 => "write-locality violation",
            Code::AN002 => "guard nondeterminism",
            Code::AN003 => "under-declared read-set",
            Code::AN004 => "classify/spec phase mismatch",
            Code::AN005 => "correction enabled in normal view",
            Code::AN006 => "non-local read",
            Code::AN007 => "applicability violation",
            Code::AN008 => "phase-order violation",
            Code::AN009 => "correction non-convergence",
            Code::AN010 => "incomplete derived interference",
            Code::AN011 => "dead action",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analyzer finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// The diagnostic code.
    pub code: Code,
    /// Name of the offending action.
    pub action: String,
    /// The second action of a conflicting pair (AN002).
    pub other_action: Option<String>,
    /// The processor at which the finding was witnessed.
    pub proc: ProcId,
    /// `"root"` or `"non-root"` — the processor class of the witness.
    pub processor_class: &'static str,
    /// The register involved, as `scope.name` (AN001/AN003).
    pub register: Option<String>,
    /// Debug-formatted closed-neighborhood states of the witness view.
    pub witness: Option<String>,
    /// Human-readable explanation.
    pub message: String,
}

/// The result of analyzing one protocol instance on one topology.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Protocol name (report key).
    pub protocol: String,
    /// Topology name (report key).
    pub topology: String,
    /// Network size.
    pub processors: usize,
    /// Action names, by [`ActionId`] index.
    pub actions: Vec<String>,
    /// Local views exhaustively enumerated.
    pub views_checked: u64,
    /// Differential register flips evaluated.
    pub probes: u64,
    /// Findings (empty = certified on this instance).
    pub diagnostics: Vec<Diagnostic>,
    /// The spec-derived action-interference graph.
    pub interference: InterferenceGraph,
    /// Per-role abstract machine sizes (AN008/AN009/AN011 substrate).
    pub abstract_roles: Vec<RoleSummary>,
    /// The synthesized correction-convergence certificate (AN009).
    pub ranking: RankingCertificate,
    /// Derived-vs-observed interference summary (AN010).
    pub derived: DerivedSummary,
}

impl Analysis {
    /// Whether the protocol passed every check on this instance.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Deduplication key so each distinct finding is reported once per
/// processor class rather than once per witnessing view.
type DiagKey = (Code, usize, usize, bool, usize);

struct Ctx<'a, P: DomainModel> {
    protocol: &'a P,
    graph: &'a Graph,
    registers: &'static [&'static str],
    specs: Vec<pif_daemon::ActionSpec>,
    names: &'static [&'static str],
    root: Option<ProcId>,
    diagnostics: Vec<Diagnostic>,
    seen: HashSet<DiagKey>,
    views_checked: u64,
    probes: u64,
}

/// Debug-formats the closed-neighborhood slice of a witness view.
fn witness_of<S: std::fmt::Debug>(nbhd: &[ProcId], states: &[S]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for &q in nbhd {
        if !out.is_empty() {
            out.push_str("; ");
        }
        let _ = write!(out, "{q}={:?}", states[q.index()]);
    }
    out
}

impl<P: DomainModel> Ctx<'_, P> {
    // One call site per diagnostic code; a parameter struct would only
    // re-spell the Diagnostic fields.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        code: Code,
        action: usize,
        other: Option<usize>,
        p: ProcId,
        register: Option<(Scope, usize)>,
        witness: Option<String>,
        message: String,
    ) {
        let is_root = self.root == Some(p);
        let key: DiagKey = (
            code,
            action,
            other.unwrap_or(usize::MAX),
            is_root,
            register.map_or(usize::MAX, |(s, r)| r * 2 + usize::from(s == Scope::Neighbor)),
        );
        if !self.seen.insert(key) {
            return;
        }
        self.diagnostics.push(Diagnostic {
            code,
            action: self.names.get(action).copied().unwrap_or("?").to_string(),
            other_action: other.map(|o| self.names.get(o).copied().unwrap_or("?").to_string()),
            proc: p,
            processor_class: if is_root { "root" } else { "non-root" },
            register: register.map(|(s, r)| format!("{s}.{}", self.registers[r])),
            witness,
            message,
        });
    }

    /// Static checks that need no view enumeration.
    fn check_static(&mut self) {
        for (ai, _) in self.names.iter().enumerate() {
            let spec = self.specs[ai];
            for w in spec.writes {
                if w.scope == Scope::Neighbor {
                    let reg_idx = self
                        .registers
                        .iter()
                        .position(|r| *r == w.reg)
                        .unwrap_or(usize::MAX - 1);
                    self.emit(
                        Code::AN001,
                        ai,
                        None,
                        self.root.unwrap_or(ProcId(0)),
                        Some((Scope::Neighbor, reg_idx.min(self.registers.len() - 1))),
                        None,
                        format!(
                            "action declares a write to neighbor register `{}`: the locally \
                             shared memory model only permits writing own registers",
                            w.reg
                        ),
                    );
                }
            }
            let tag = self.protocol.classify(ActionId(ai));
            if spec.phase != tag {
                self.emit(
                    Code::AN004,
                    ai,
                    None,
                    self.root.unwrap_or(ProcId(0)),
                    None,
                    None,
                    format!(
                        "action_spec().phase is {} but classify() says {tag}",
                        spec.phase
                    ),
                );
            } else if tag == PhaseTag::Other {
                self.emit(
                    Code::AN004,
                    ai,
                    None,
                    self.root.unwrap_or(ProcId(0)),
                    None,
                    None,
                    "annotated protocols must attribute every action to a PIF phase \
                     (classify() returned `other`)"
                        .to_string(),
                );
            }
        }
    }

    /// Exhaustive per-processor dynamic checks.
    fn check_proc(&mut self, p: ProcId) {
        let nbhd: Vec<ProcId> =
            std::iter::once(p).chain(self.graph.neighbors(p)).collect();
        let nbhd_mask: u64 = nbhd.iter().map(|q| 1u64 << q.index()).sum();
        let is_root = self.root == Some(p);

        // Base configuration: everything pinned to its first domain state.
        let mut states: Vec<P::State> = self
            .graph
            .procs()
            .map(|q| self.protocol.domain(self.graph, q).swap_remove(0))
            .collect();

        let domains: Vec<Vec<P::State>> =
            nbhd.iter().map(|&q| self.protocol.domain(self.graph, q)).collect();
        let projections: Vec<Vec<Vec<u64>>> = domains
            .iter()
            .map(|d| d.iter().map(|s| self.protocol.project(s)).collect())
            .collect();

        // variants[i][reg][di] = domain indices differing from di only at
        // `reg` — the flip targets of the differential read probe.
        let variants: Vec<Vec<Vec<Vec<u32>>>> = projections
            .iter()
            .map(|projs| {
                (0..self.registers.len())
                    .map(|reg| {
                        let mut groups: HashMap<Vec<u64>, Vec<u32>> = HashMap::new();
                        for (di, proj) in projs.iter().enumerate() {
                            let mut key = proj.clone();
                            key[reg] = 0;
                            groups.entry(key).or_default().push(di as u32);
                        }
                        projs
                            .iter()
                            .enumerate()
                            .map(|(di, proj)| {
                                let mut key = proj.clone();
                                key[reg] = 0;
                                groups[&key]
                                    .iter()
                                    .copied()
                                    .filter(|&dj| dj as usize != di)
                                    .collect()
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();

        // Actions whose declaration does NOT cover (scope, reg): the only
        // ones the differential probe needs to watch for that flip.
        let narrow: Vec<Vec<Vec<usize>>> = [Scope::Own, Scope::Neighbor]
            .iter()
            .map(|&scope| {
                (0..self.registers.len())
                    .map(|reg| {
                        (0..self.names.len())
                            .filter(|&ai| {
                                !self.specs[ai].reads_reg(scope, self.registers[reg])
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();

        let probe = ReadProbe::new();
        let correction_actions: Vec<usize> = (0..self.names.len())
            .filter(|&ai| self.specs[ai].phase == PhaseTag::Correction)
            .collect();

        let mut idx = vec![0usize; nbhd.len()];
        loop {
            for (i, &q) in nbhd.iter().enumerate() {
                states[q.index()] = domains[i][idx[i]].clone();
            }
            self.views_checked += 1;

            probe.clear();
            let view = View::spied(self.graph, &states, p, &probe);
            let enabled = self.protocol.enabled_actions(view);

            // AN002: two co-enabled actions in the same priority class.
            for (k, a) in enabled.into_iter().enumerate() {
                for b in enabled.into_iter().skip(k + 1) {
                    if self.specs[a.index()].priority == self.specs[b.index()].priority {
                        let w = witness_of(&nbhd, &states);
                        self.emit(
                            Code::AN002,
                            a.index(),
                            Some(b.index()),
                            p,
                            None,
                            Some(w),
                            format!(
                                "actions `{}` and `{}` share priority class {} but are \
                                 simultaneously enabled — same-class guards must be disjoint",
                                self.names[a.index()],
                                self.names[b.index()],
                                self.specs[a.index()].priority
                            ),
                        );
                    }
                }
            }

            // AN007: enabled at a processor class the spec excludes.
            for a in enabled {
                if !self.specs[a.index()].applicability.covers(is_root) {
                    let w = witness_of(&nbhd, &states);
                    self.emit(
                        Code::AN007,
                        a.index(),
                        None,
                        p,
                        None,
                        Some(w),
                        format!(
                            "action declared {} but enabled at a {} processor",
                            self.specs[a.index()].applicability.name(),
                            if is_root { "root" } else { "non-root" }
                        ),
                    );
                }
            }

            // AN005: correction quiescence.
            if self.protocol.locally_normal(view) {
                for &ai in &correction_actions {
                    if enabled.contains(ActionId(ai)) {
                        let w = witness_of(&nbhd, &states);
                        self.emit(
                            Code::AN005,
                            ai,
                            None,
                            p,
                            None,
                            Some(w),
                            "correction action enabled in a locally normal view — \
                             corrections must be statically unreachable from normal states"
                                .to_string(),
                        );
                    }
                }
            }

            // AN001 (dynamic): observed writes outside the declared set.
            let me_proj = self.protocol.project(view.me());
            let mut results: Vec<Option<Vec<u64>>> = vec![None; self.names.len()];
            for a in enabled {
                let out = self.protocol.execute(view, a);
                let proj = self.protocol.project(&out);
                for (ri, reg) in self.registers.iter().enumerate() {
                    if proj[ri] != me_proj[ri]
                        && !self.specs[a.index()].writes_reg(Scope::Own, reg)
                    {
                        let w = witness_of(&nbhd, &states);
                        self.emit(
                            Code::AN001,
                            a.index(),
                            None,
                            p,
                            Some((Scope::Own, ri)),
                            Some(w),
                            format!(
                                "execution modified register `{reg}` which the action \
                                 does not declare in its write-set"
                            ),
                        );
                    }
                }
                results[a.index()] = Some(proj);
            }

            // AN006: any register read outside the closed neighborhood.
            if probe.mask() & !nbhd_mask != 0 {
                let w = witness_of(&nbhd, &states);
                let a = enabled.first().map_or(0, ActionId::index);
                self.emit(
                    Code::AN006,
                    a,
                    None,
                    p,
                    None,
                    Some(w),
                    "guard evaluation or execution read a processor outside the \
                     closed neighborhood — not expressible in the locally shared \
                     memory model"
                        .to_string(),
                );
            }

            // AN003: differential probing for undeclared read dependence.
            for (i, &q) in nbhd.iter().enumerate() {
                let scope_idx = usize::from(q != p);
                let scope = if q == p { Scope::Own } else { Scope::Neighbor };
                for ri in 0..self.registers.len() {
                    if narrow[scope_idx][ri].is_empty() {
                        continue;
                    }
                    let flips = variants[i][ri][idx[i]].clone();
                    for dj in flips {
                        let saved = states[q.index()].clone();
                        states[q.index()] = domains[i][dj as usize].clone();
                        self.probes += 1;
                        let view2 = View::new(self.graph, &states, p);
                        let enabled2 = self.protocol.enabled_actions(view2);
                        let me2_proj = self.protocol.project(view2.me());
                        for &ai in &narrow[scope_idx][ri] {
                            let a = ActionId(ai);
                            let in1 = results[ai].is_some();
                            let in2 = enabled2.contains(a);
                            let mut depends = in1 != in2;
                            if in1 && in2 {
                                let proj2 = self.protocol.project(&self.protocol.execute(view2, a));
                                let proj1 = results[ai].as_ref().unwrap();
                                for f in 0..self.registers.len() {
                                    // A field only counts as a *write*
                                    // when it departs from the processor's
                                    // current value; copied-through
                                    // registers are non-writes, not reads.
                                    let wrote1 = proj1[f] != me_proj[f];
                                    let wrote2 = proj2[f] != me2_proj[f];
                                    if (wrote1 || wrote2) && proj1[f] != proj2[f] {
                                        depends = true;
                                    }
                                }
                            }
                            if depends {
                                let w = witness_of(&nbhd, &states);
                                self.emit(
                                    Code::AN003,
                                    ai,
                                    None,
                                    p,
                                    Some((scope, ri)),
                                    Some(w),
                                    format!(
                                        "guard or statement observably depends on {scope} \
                                         register `{}` which the action does not declare \
                                         in its read-set",
                                        self.registers[ri]
                                    ),
                                );
                            }
                        }
                        states[q.index()] = saved;
                    }
                }
            }

            // Mixed-radix increment over the neighborhood domains.
            let mut carry = 0;
            loop {
                if carry == nbhd.len() {
                    return;
                }
                idx[carry] += 1;
                if idx[carry] < domains[carry].len() {
                    break;
                }
                idx[carry] = 0;
                carry += 1;
            }
        }
    }
}

/// Analyzes `protocol` on `graph`, running every static and dynamic
/// check, and returns the findings plus the derived interference graph.
///
/// # Panics
///
/// Panics if the protocol has not opted into static analysis
/// ([`Protocol::has_action_specs`] is `false`) — the conservative default
/// specs would make every verdict vacuous — or if the network exceeds 64
/// processors (the spy view's probe capacity).
pub fn analyze<P: DomainModel>(
    protocol: &P,
    graph: &Graph,
    protocol_name: &str,
    topology: &str,
) -> Analysis {
    assert!(
        protocol.has_action_specs(),
        "protocol `{protocol_name}` has no action specs; the analyzer refuses to certify \
         the conservative defaults"
    );
    let names = protocol.action_names();
    let specs: Vec<_> = (0..names.len()).map(|i| protocol.action_spec(ActionId(i))).collect();
    let mut ctx = Ctx {
        protocol,
        graph,
        registers: protocol.registers(),
        specs,
        names,
        root: protocol.analysis_root(),
        diagnostics: Vec::new(),
        seen: HashSet::new(),
        views_checked: 0,
        probes: 0,
    };
    ctx.check_static();
    for p in graph.procs() {
        ctx.check_proc(p);
    }
    let mut diagnostics = ctx.diagnostics;

    // Abstract-interpretation layer: phase machine per processor role.
    let machine = abstraction::build(protocol, graph);
    let (abstract_roles, ranking) = match &machine {
        Some(m) => {
            abstraction::check_phase_order(m, protocol, &mut diagnostics);
            abstraction::check_dead_actions(m, protocol, &mut diagnostics);
            let cert = ranking::check_convergence(m, protocol, &mut diagnostics);
            (m.summaries(), cert)
        }
        None => (Vec::new(), RankingCertificate::unavailable()),
    };

    // Derived interference: specs vs advertised premise vs probing.
    let interference = InterferenceGraph::from_protocol(protocol, protocol.registers());
    let derived = derive::derive_and_check(protocol, graph, &interference, &mut diagnostics);

    Analysis {
        protocol: protocol_name.to_string(),
        topology: topology.to_string(),
        processors: graph.len(),
        actions: names.iter().map(std::string::ToString::to_string).collect(),
        views_checked: ctx.views_checked,
        probes: ctx.probes,
        diagnostics,
        interference,
        abstract_roles,
        ranking,
        derived,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_core::PifProtocol;
    use pif_daemon::ActionSet;
    use pif_graph::generators;

    #[test]
    fn pif_is_clean_on_chain2() {
        let g = generators::chain(2).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g);
        let a = analyze(&proto, &g, "pif", "chain2");
        assert!(a.clean(), "diagnostics: {:#?}", a.diagnostics);
        assert!(a.views_checked > 0 && a.probes > 0);
    }

    #[test]
    fn pif_interference_graph_is_neighbor_complete() {
        let g = generators::chain(2).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g);
        let a = analyze(&proto, &g, "pif", "chain2");
        // Every guard but Broadcast evaluates Normal(p) over the full
        // neighbor state, and every action writes a register some guard
        // reads: all 7 x 7 ordered pairs interfere across a link.
        assert!(a.interference.neighbor_complete(7));
        // But not at the writer's own processor: Fok-action writes only
        // `fok`, which B-action's own-scope reads (just `phase`) miss.
        assert!(!a.interference.has_edge("Fok-action", "B-action", false));
        assert!(a.interference.has_edge("Fok-action", "B-action", true));
    }

    #[test]
    #[should_panic(expected = "no action specs")]
    fn refuses_unannotated_protocols() {
        struct Bare;
        impl Protocol for Bare {
            type State = u8;
            fn action_names(&self) -> &'static [&'static str] {
                &["noop"]
            }
            fn enabled_actions(&self, _: View<'_, u8>) -> ActionSet {
                ActionSet::EMPTY
            }
            fn execute(&self, v: View<'_, u8>, _: ActionId) -> u8 {
                *v.me()
            }
        }
        impl DomainModel for Bare {
            fn registers(&self) -> &'static [&'static str] {
                &["x"]
            }
            fn domain(&self, _: &Graph, _: ProcId) -> Vec<u8> {
                vec![0]
            }
            fn project(&self, s: &u8) -> Vec<u64> {
                vec![u64::from(*s)]
            }
        }
        let g = generators::chain(2).unwrap();
        let _ = analyze(&Bare, &g, "bare", "chain2");
    }
}
