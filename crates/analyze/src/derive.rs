//! Machine-derived interference (AN010): the spec-compiled graph,
//! cross-checked against the hand-declared premise and against
//! differential pairwise probing.
//!
//! Three interference graphs are in play:
//!
//! * **derived** — compiled from the declared read/write sets by
//!   [`InterferenceGraph::from_protocol`]; this is the graph whose
//!   [`interference_radius`](InterferenceGraph::interference_radius)
//!   `pif-verify`'s partial-order reduction consumes
//!   (`por_premise_radius`);
//! * **advertised** — the hand-declared premise
//!   ([`DomainModel::advertised_interference`]; for PIF, the paper's
//!   7×7 neighbor-complete matrix). AN010 requires derived ⊇
//!   advertised, so the documented premise never claims interference
//!   the machine derivation cannot account for;
//! * **observed** — what differential probing actually sees: for every
//!   ordered processor pair `(w, p)` at graph distance ≤ 2, enumerate
//!   (or deterministically sample, past a budget) the joint register
//!   domain of `N[w] ∪ N[p]`, execute each enabled action at `w`, and
//!   watch whether any action's guard verdict or written effect at `p`
//!   changes. AN010 requires derived ⊇ observed — the soundness
//!   direction: the reduction premise must over-approximate the real
//!   dependence — and in particular flags any observed interference at
//!   distance 2, which would break the radius bound itself.
//!
//! Effect changes use the same write discipline as AN003: a register
//! counts as written only when it departs from the processor's current
//! value, so copied-through registers are non-writes (otherwise every
//! action would appear to depend on every register it copies).
//!
//! The observed-coverage direction presupposes declaration soundness:
//! derived ⊇ observed holds *because* declared reads over-approximate
//! observed reads (AN003) and declared writes the observed ones (AN001).
//! When those checks have already fired, the derived graph is known-bad
//! for the same root cause, so the observed comparison still runs (and
//! is reported in the summary) but emits no AN010 — one defect, one
//! code.

use std::collections::HashSet;

use pif_daemon::{ActionId, View};
use pif_graph::{Graph, ProcId};

use crate::{Code, Diagnostic, DomainModel, InterferenceGraph};

/// Probing budget per ordered processor pair: joint domains up to this
/// size are enumerated exhaustively; larger ones are sampled with this
/// many deterministic (seeded) draws and the run is marked `sampled`.
pub const PAIR_BUDGET: u64 = 50_000;

/// One observed interference: executing `src` at a writer changed
/// `dst`'s guard verdict or effect at a processor `distance` links away.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObservedEdge {
    /// Writer action name.
    pub src: String,
    /// Affected action name.
    pub dst: String,
    /// Graph distance from writer to affected processor (0 = same).
    pub distance: usize,
}

/// Summary of the derived-vs-advertised-vs-observed comparison.
#[derive(Clone, Debug)]
pub struct DerivedSummary {
    /// Edge count of the spec-derived graph.
    pub derived_edges: usize,
    /// Radius of the spec-derived graph (the POR premise).
    pub derived_radius: usize,
    /// Edge count of the advertised (hand-declared) premise.
    pub advertised_edges: usize,
    /// Distinct observed interferences, sorted.
    pub observed: Vec<ObservedEdge>,
    /// Maximum distance over observed interferences (0 when none).
    pub observed_radius: usize,
    /// Number of (assignment × source-action) probes executed.
    pub pair_probes: u64,
    /// Whether any pair's joint domain exceeded [`PAIR_BUDGET`] and was
    /// sampled rather than enumerated.
    pub sampled: bool,
}

/// The `SplitMix64` stream: each draw is `splitmix64` of the state, which
/// then advances by the same golden-ratio increment.
fn splitmix(x: &mut u64) -> u64 {
    let out = pif_daemon::splitmix64(*x);
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    out
}

/// BFS distances from `start` (`usize::MAX` = unreachable).
fn distances(graph: &Graph, start: ProcId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; graph.len()];
    dist[start.index()] = 0;
    let mut queue = vec![start];
    let mut head = 0;
    while head < queue.len() {
        let q = queue[head];
        head += 1;
        for w in graph.neighbors(q) {
            if dist[w.index()] == usize::MAX {
                dist[w.index()] = dist[q.index()] + 1;
                queue.push(w);
            }
        }
    }
    dist
}

/// **AN010** — derives, compares and probes; emits diagnostics into
/// `out` and returns the report summary. `derived` is the
/// already-compiled spec graph (shared with the `Analysis` field).
pub fn derive_and_check<P: DomainModel>(
    protocol: &P,
    graph: &Graph,
    derived: &InterferenceGraph,
    out: &mut Vec<Diagnostic>,
) -> DerivedSummary {
    let names = protocol.action_names();
    let root = protocol.analysis_root();
    let class = |p: ProcId| if root == Some(p) { "root" } else { "non-root" };
    // See the module docs: observed-coverage AN010 only means "derived
    // graph misses real dependence" when the declarations themselves are
    // sound; otherwise AN001/AN003 already name the root cause.
    let declarations_sound =
        !out.iter().any(|d| matches!(d.code, Code::AN001 | Code::AN003));

    // Advertised premise: derived must contain it.
    let advertised = protocol.advertised_interference();
    for e in &advertised.edges {
        if !derived.has_edge(&e.src, &e.dst, e.across_link) {
            out.push(Diagnostic {
                code: Code::AN010,
                action: e.src.clone(),
                other_action: Some(e.dst.clone()),
                proc: root.unwrap_or(ProcId(0)),
                processor_class: class(root.unwrap_or(ProcId(0))),
                register: None,
                witness: None,
                message: format!(
                    "advertised interference premise claims `{}` -> `{}` ({}) but the \
                     spec-derived graph has no such edge — the hand declaration \
                     over-claims what the machine derivation supports",
                    e.src,
                    e.dst,
                    if e.across_link { "across a link" } else { "own processor" }
                ),
            });
        }
    }

    // Differential pairwise probing.
    let domains: Vec<Vec<P::State>> =
        graph.procs().map(|p| protocol.domain(graph, p)).collect();
    let base: Vec<P::State> = domains.iter().map(|d| d[0].clone()).collect();
    let all_dist: Vec<Vec<usize>> = graph.procs().map(|p| distances(graph, p)).collect();

    let mut observed: HashSet<(usize, usize, usize)> = HashSet::new();
    let mut pair_probes = 0u64;
    let mut sampled = false;
    let mut states = base.clone();

    for w in graph.procs() {
        for p in graph.procs() {
            let d = all_dist[w.index()][p.index()];
            if d > 2 {
                continue;
            }
            // Joint support: both closed neighborhoods (guards and
            // effects at w and p read nothing else, per AN006).
            let mut support: Vec<ProcId> = std::iter::once(w)
                .chain(graph.neighbors(w))
                .chain(std::iter::once(p))
                .chain(graph.neighbors(p))
                .collect();
            support.sort_unstable();
            support.dedup();
            let sizes: Vec<u64> =
                support.iter().map(|q| domains[q.index()].len() as u64).collect();
            let product: u64 = sizes.iter().product();
            let exhaustive = product <= PAIR_BUDGET;
            sampled |= !exhaustive;
            let draws = product.min(PAIR_BUDGET);
            let mut rng = 0xA11C_E000u64
                ^ ((w.index() as u64) << 32)
                ^ ((p.index() as u64) << 16);

            for draw in 0..draws {
                let mut assignment = if exhaustive { draw } else { splitmix(&mut rng) % product };
                for (k, &q) in support.iter().enumerate() {
                    let di = (assignment % sizes[k]) as usize;
                    assignment /= sizes[k];
                    states[q.index()] = domains[q.index()][di].clone();
                }

                let enabled_w = protocol.enabled_actions(View::new(graph, &states, w));
                let enabled_p1 = protocol.enabled_actions(View::new(graph, &states, p));
                let me_proj1 = protocol.project(&states[p.index()]);
                let results1: Vec<Option<Vec<u64>>> = (0..names.len())
                    .map(|ai| {
                        enabled_p1.contains(ActionId(ai)).then(|| {
                            protocol
                                .project(&protocol.execute(View::new(graph, &states, p), ActionId(ai)))
                        })
                    })
                    .collect();

                for src in enabled_w {
                    let succ = protocol.execute(View::new(graph, &states, w), src);
                    if succ == states[w.index()] {
                        continue; // no-op move: nothing to observe
                    }
                    pair_probes += 1;
                    let saved = std::mem::replace(&mut states[w.index()], succ);
                    let enabled_p2 = protocol.enabled_actions(View::new(graph, &states, p));
                    let me_proj2 = protocol.project(&states[p.index()]);
                    for (ai, r1) in results1.iter().enumerate() {
                        let in1 = r1.is_some();
                        let in2 = enabled_p2.contains(ActionId(ai));
                        let mut depends = in1 != in2;
                        if in1 && in2 {
                            let proj1 = r1.as_ref().unwrap();
                            let proj2 = protocol
                                .project(&protocol.execute(View::new(graph, &states, p), ActionId(ai)));
                            for f in 0..proj1.len() {
                                let wrote1 = proj1[f] != me_proj1[f];
                                let wrote2 = proj2[f] != me_proj2[f];
                                if (wrote1 || wrote2) && proj1[f] != proj2[f] {
                                    depends = true;
                                }
                            }
                        }
                        if depends {
                            observed.insert((src.index(), ai, d));
                        }
                    }
                    states[w.index()] = saved;
                }
            }
            // Restore the support slice to base for the next pair.
            for &q in &support {
                states[q.index()] = base[q.index()].clone();
            }
        }
    }

    let mut observed: Vec<ObservedEdge> = observed
        .into_iter()
        .map(|(si, di, d)| ObservedEdge {
            src: names[si].to_string(),
            dst: names[di].to_string(),
            distance: d,
        })
        .collect();
    observed.sort();
    let observed_radius = observed.iter().map(|e| e.distance).max().unwrap_or(0);

    for e in observed.iter().filter(|_| declarations_sound) {
        let covered = match e.distance {
            0 => derived.has_edge(&e.src, &e.dst, false),
            1 => derived.has_edge(&e.src, &e.dst, true),
            _ => false,
        };
        if !covered {
            out.push(Diagnostic {
                code: Code::AN010,
                action: e.src.clone(),
                other_action: Some(e.dst.clone()),
                proc: root.unwrap_or(ProcId(0)),
                processor_class: class(root.unwrap_or(ProcId(0))),
                register: None,
                witness: None,
                message: if e.distance > 1 {
                    format!(
                        "probing observed `{}` -> `{}` interference at distance {} — \
                         beyond the structural radius bound the partial-order \
                         reduction's soundness rests on",
                        e.src, e.dst, e.distance
                    )
                } else {
                    format!(
                        "probing observed `{}` -> `{}` interference ({}) that the \
                         spec-derived graph misses — the derived POR premise would \
                         under-approximate real dependence",
                        e.src,
                        e.dst,
                        if e.distance == 1 { "across a link" } else { "own processor" }
                    )
                },
            });
        }
    }

    DerivedSummary {
        derived_edges: derived.edges.len(),
        derived_radius: derived.interference_radius(),
        advertised_edges: advertised.edges.len(),
        observed,
        observed_radius,
        pair_probes,
        sampled,
    }
}
