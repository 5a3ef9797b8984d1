//! Abstract phase-machine extraction (the substrate of AN008, AN009 and
//! AN011).
//!
//! For each processor role — root, internal (degree ≥ 2), leaf
//! (degree 1) — the builder enumerates every closed-neighborhood view
//! over the declared register domains (the same "any initial
//! configuration" quantification the per-view checks use) and collapses
//! each local state to a finite **abstract state**:
//!
//! * the projected `phase` register (the B→F→C wave position),
//! * the values of every *small-domain* register (at most two distinct
//!   projected values across all processors — boolean predicates like
//!   PIF's `Fok` flag; value-carrying registers are abstracted away),
//! * the [`locally_normal`](pif_daemon::Protocol::locally_normal) bit of
//!   the witnessing view (a relational predicate: the same local state
//!   can be normal in one environment and abnormal in another — the
//!   abstraction keeps both).
//!
//! Every enabled action contributes an abstract transition labeled with
//! its [`ActionId`]; the result is an existential (may) abstraction:
//! every concrete transition of the analyzed instance has an abstract
//! counterpart, so a property checked over **all** abstract edges holds
//! of all concrete ones. The two checks here consume exactly that
//! direction: AN008 constrains every wave edge to the paper's phase
//! cycle, and AN011 flags actions labeling no edge at all (never
//! enabled in any reachable abstract state). AN009 lives in
//! [`crate::ranking`], which walks the correction-labeled edges.

use std::collections::HashMap;
use std::collections::HashSet;

use pif_daemon::{ActionId, PhaseTag, View};
use pif_graph::{Graph, ProcId};

use crate::{Code, Diagnostic, DomainModel};

/// Projected phase values, fixed by the [`DomainModel::project`]
/// convention all analyzable protocols share: `phase` maps B→0, F→1,
/// C→2.
pub const PHASE_B: u64 = 0;
/// Feedback phase projection value.
pub const PHASE_F: u64 = 1;
/// Cleaning (clean) phase projection value.
pub const PHASE_C: u64 = 2;

/// Human-readable name of a projected phase value.
pub fn phase_name(v: u64) -> &'static str {
    match v {
        PHASE_B => "B",
        PHASE_F => "F",
        PHASE_C => "C",
        _ => "?",
    }
}

/// A processor role; the abstract machine is extracted once per role
/// actually present on the analyzed topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Role {
    /// The distinguished root processor.
    Root,
    /// A non-root processor of degree ≥ 2.
    Internal,
    /// A non-root processor of degree 1.
    Leaf,
}

impl Role {
    /// Stable lowercase name for reports.
    pub const fn name(self) -> &'static str {
        match self {
            Role::Root => "root",
            Role::Internal => "internal",
            Role::Leaf => "leaf",
        }
    }
}

/// One abstract state: phase × small-domain registers × normality.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AbsState {
    /// Projected `phase` value ([`PHASE_B`]/[`PHASE_F`]/[`PHASE_C`]).
    pub phase: u64,
    /// Values of the retained small-domain registers, in
    /// [`AbstractMachine::kept`] order.
    pub regs: Vec<u64>,
    /// Whether `locally_normal` held in the witnessing view.
    pub normal: bool,
}

/// One abstract transition, labeled by the concrete action.
#[derive(Clone, Debug)]
pub struct AbsEdge {
    /// Source abstract state (index into [`RoleMachine::states`]).
    pub from: usize,
    /// Target abstract state (index into [`RoleMachine::states`]).
    pub to: usize,
    /// The action whose execution witnessed the transition.
    pub action: ActionId,
    /// A processor at which the transition was witnessed.
    pub witness_proc: ProcId,
}

/// The abstract transition system of one processor role.
#[derive(Clone, Debug)]
pub struct RoleMachine {
    /// The role this machine abstracts.
    pub role: Role,
    /// Abstract states, in first-witnessed order (deterministic).
    pub states: Vec<AbsState>,
    /// Abstract transitions (deduplicated on `(from, action, to)`).
    pub edges: Vec<AbsEdge>,
}

/// Per-role machine sizes for the JSON report.
#[derive(Clone, Debug)]
pub struct RoleSummary {
    /// The role.
    pub role: Role,
    /// Number of abstract states.
    pub states: usize,
    /// Number of abstract transitions.
    pub edges: usize,
}

/// The full abstraction of one protocol instance: one machine per role
/// present on the topology, plus the liveness ledger for AN011.
#[derive(Clone, Debug)]
pub struct AbstractMachine {
    /// Machines in role order (root, internal, leaf; absent roles
    /// omitted).
    pub machines: Vec<RoleMachine>,
    /// Indices (into `registers()`) of the retained small-domain
    /// registers, excluding `phase`.
    pub kept: Vec<usize>,
    /// Index of the `phase` register in the projection.
    pub phase_reg: usize,
    /// `live[a]` — action `a` was enabled in at least one enumerated
    /// view at some processor.
    pub live: Vec<bool>,
    /// Total concrete views enumerated while building.
    pub views: u64,
}

impl AbstractMachine {
    /// Per-role size summaries, in machine order.
    pub fn summaries(&self) -> Vec<RoleSummary> {
        self.machines
            .iter()
            .map(|m| RoleSummary { role: m.role, states: m.states.len(), edges: m.edges.len() })
            .collect()
    }

    /// The machine for `role`, if that role exists on the topology.
    pub fn machine(&self, role: Role) -> Option<&RoleMachine> {
        self.machines.iter().find(|m| m.role == role)
    }
}

/// Extracts the abstract machine, or `None` when the protocol's
/// projection has no `phase` register (the abstraction is only defined
/// for wave protocols).
pub fn build<P: DomainModel>(protocol: &P, graph: &Graph) -> Option<AbstractMachine> {
    struct Builder {
        role: Role,
        index: HashMap<AbsState, usize>,
        states: Vec<AbsState>,
        edge_set: HashSet<(usize, usize, usize)>,
        edges: Vec<AbsEdge>,
    }
    impl Builder {
        fn intern(&mut self, s: AbsState) -> usize {
            if let Some(&id) = self.index.get(&s) {
                return id;
            }
            let id = self.states.len();
            self.states.push(s.clone());
            self.index.insert(s, id);
            id
        }
    }

    let registers = protocol.registers();
    let phase_reg = registers.iter().position(|r| *r == "phase")?;

    let domains: Vec<Vec<P::State>> =
        graph.procs().map(|p| protocol.domain(graph, p)).collect();
    let projections: Vec<Vec<Vec<u64>>> = domains
        .iter()
        .map(|d| d.iter().map(|s| protocol.project(s)).collect())
        .collect();

    // Small-domain predicate registers: ≤ 2 distinct projected values
    // across every processor's domain. Wider registers carry values the
    // phase argument does not depend on; collapsing them keeps the
    // machine finite and small.
    let kept: Vec<usize> = (0..registers.len())
        .filter(|&ri| {
            if ri == phase_reg {
                return false;
            }
            let mut values: HashSet<u64> = HashSet::new();
            for projs in &projections {
                for proj in projs {
                    values.insert(proj[ri]);
                    if values.len() > 2 {
                        return false;
                    }
                }
            }
            true
        })
        .collect();

    let root = protocol.analysis_root();
    let mut live = vec![false; protocol.action_names().len()];
    let mut views = 0u64;

    let mut builders: Vec<Builder> = Vec::new();
    let mut builder_of: Vec<usize> = Vec::new();
    for p in graph.procs() {
        let role = if root == Some(p) {
            Role::Root
        } else if graph.neighbor_slice(p).len() == 1 {
            Role::Leaf
        } else {
            Role::Internal
        };
        let bi = builders.iter().position(|b| b.role == role).unwrap_or_else(|| {
            builders.push(Builder {
                role,
                index: HashMap::new(),
                states: Vec::new(),
                edge_set: HashSet::new(),
                edges: Vec::new(),
            });
            builders.len() - 1
        });
        builder_of.push(bi);
    }

    let abs_of = |proj: &[u64], normal: bool| AbsState {
        phase: proj[phase_reg],
        regs: kept.iter().map(|&ri| proj[ri]).collect(),
        normal,
    };

    let mut states: Vec<P::State> = domains.iter().map(|d| d[0].clone()).collect();
    for p in graph.procs() {
        let bi = builder_of[p.index()];
        let nbhd: Vec<ProcId> = std::iter::once(p).chain(graph.neighbors(p)).collect();
        let mut idx = vec![0usize; nbhd.len()];
        loop {
            for (i, &q) in nbhd.iter().enumerate() {
                states[q.index()] = domains[q.index()][idx[i]].clone();
            }
            views += 1;

            let normal = protocol.locally_normal(View::new(graph, &states, p));
            let from = builders[bi].intern(abs_of(&projections[p.index()][idx[0]], normal));

            for a in protocol.enabled_actions(View::new(graph, &states, p)) {
                live[a.index()] = true;
                let succ = protocol.execute(View::new(graph, &states, p), a);
                let proj2 = protocol.project(&succ);
                // The successor's normality is evaluated in the *same*
                // environment: only p moved.
                let saved = std::mem::replace(&mut states[p.index()], succ);
                let normal2 = protocol.locally_normal(View::new(graph, &states, p));
                states[p.index()] = saved;
                let to = builders[bi].intern(abs_of(&proj2, normal2));
                let b = &mut builders[bi];
                if b.edge_set.insert((from, a.index(), to)) {
                    b.edges.push(AbsEdge { from, to, action: a, witness_proc: p });
                }
            }

            // Mixed-radix increment over the neighborhood domains.
            let mut carry = 0;
            loop {
                if carry == nbhd.len() {
                    // restore base states for the next processor
                    for &q in &nbhd {
                        states[q.index()] = domains[q.index()][0].clone();
                    }
                    break;
                }
                idx[carry] += 1;
                if idx[carry] < domains[nbhd[carry].index()].len() {
                    break;
                }
                idx[carry] = 0;
                carry += 1;
            }
            if idx.iter().all(|&i| i == 0) {
                break;
            }
        }
    }

    // Stable role order for reports: root, internal, leaf.
    let order = |r: Role| match r {
        Role::Root => 0,
        Role::Internal => 1,
        Role::Leaf => 2,
    };
    builders.sort_by_key(|b| order(b.role));
    let machines = builders
        .into_iter()
        .map(|b| RoleMachine { role: b.role, states: b.states, edges: b.edges })
        .collect();
    Some(AbstractMachine { machines, kept, phase_reg, live, views })
}

fn class_of(root: Option<ProcId>, p: ProcId) -> &'static str {
    if root == Some(p) {
        "root"
    } else {
        "non-root"
    }
}

/// **AN008** — phase-order conformance. Every abstract edge of a wave
/// action must follow the paper's cycle: broadcast enters B only from C
/// (or refreshes within B, like PIF's `Count`-action), the Fok wave
/// stays within B, feedback moves B→F, cleaning moves F→C. Correction
/// edges may move freely *toward* C but must never (re-)enter B — the
/// "broadcast is never re-entered without passing cleaning" half of the
/// property.
pub fn check_phase_order<P: DomainModel>(
    machine: &AbstractMachine,
    protocol: &P,
    out: &mut Vec<Diagnostic>,
) {
    let names = protocol.action_names();
    let root = protocol.analysis_root();
    let mut seen: HashSet<(usize, u64, u64, Role)> = HashSet::new();
    for m in &machine.machines {
        for e in &m.edges {
            let from = m.states[e.from].phase;
            let to = m.states[e.to].phase;
            let tag = protocol.classify(e.action);
            let ok = match tag {
                PhaseTag::Broadcast => (from, to) == (PHASE_C, PHASE_B) || (from, to) == (PHASE_B, PHASE_B),
                PhaseTag::Fok => (from, to) == (PHASE_B, PHASE_B),
                PhaseTag::Feedback => (from, to) == (PHASE_B, PHASE_F),
                PhaseTag::Cleaning => (from, to) == (PHASE_F, PHASE_C),
                PhaseTag::Correction => to != PHASE_B || from == PHASE_B,
                PhaseTag::Other => true,
            };
            if !ok && seen.insert((e.action.index(), from, to, m.role)) {
                out.push(Diagnostic {
                    code: Code::AN008,
                    action: names.get(e.action.index()).copied().unwrap_or("?").to_string(),
                    other_action: None,
                    proc: e.witness_proc,
                    processor_class: class_of(root, e.witness_proc),
                    register: None,
                    witness: Some(format!(
                        "{}: {:?} -> {:?}",
                        m.role.name(),
                        m.states[e.from],
                        m.states[e.to]
                    )),
                    message: format!(
                        "abstract {tag} transition moves phase {} -> {} , violating the \
                         B→F→C cycle (phase B is only entered from C via a broadcast action)",
                        phase_name(from),
                        phase_name(to)
                    ),
                });
            }
        }
    }
}

/// **AN011** — dead-action detection: an action enabled in no
/// enumerated view of any processor labels no abstract edge and can
/// never fire on this instance.
pub fn check_dead_actions<P: DomainModel>(
    machine: &AbstractMachine,
    protocol: &P,
    out: &mut Vec<Diagnostic>,
) {
    let names = protocol.action_names();
    let root = protocol.analysis_root();
    for (ai, &alive) in machine.live.iter().enumerate() {
        if !alive {
            let p = root.unwrap_or(ProcId(0));
            out.push(Diagnostic {
                code: Code::AN011,
                action: names.get(ai).copied().unwrap_or("?").to_string(),
                other_action: None,
                proc: p,
                processor_class: class_of(root, p),
                register: None,
                witness: None,
                message: "action is enabled in no reachable abstract state of any \
                          processor role — dead code on this instance"
                    .to_string(),
            });
        }
    }
}
