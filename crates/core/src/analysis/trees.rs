//! Parent paths, trees, the legal tree, sources and abnormal processors
//! (Definitions 3–7, 15–16 of the paper).

use std::fmt::Write as _;

use pif_daemon::View;
use pif_graph::{Graph, ProcId};

use crate::protocol::PifProtocol;
use crate::state::{Phase, PifState};

/// How a [`ParentPath`] terminates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathEnd {
    /// The path reached the root `r`: its owner belongs to the `LegalTree`
    /// (Definition 6).
    Root,
    /// The path reached an abnormal processor (the extremity of an
    /// *abnormal tree*).
    Abnormal(ProcId),
    /// The parent pointers loop without reaching the root or an abnormal
    /// processor. Impossible when `GoodLevel` is enforced (levels strictly
    /// decrease towards the parent); reachable only under the
    /// `level_guard` ablation.
    Cycle,
}

/// The `ParentPath(p)` of Definition 4: the maximal chain
/// `p = p_0, p_1 = Par_{p_0}, …` of normal processors, ending at the root
/// or at the first abnormal processor (the *extremity*).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParentPath {
    /// The nodes of the path, starting at its owner.
    pub nodes: Vec<ProcId>,
    /// How the path terminated.
    pub end: PathEnd,
}

impl ParentPath {
    /// The extremity `p_k` of the path (meaningless for [`PathEnd::Cycle`]).
    pub fn extremity(&self) -> ProcId {
        *self.nodes.last().expect("paths are never empty")
    }

    /// Length of the path in edges.
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Whether the path is the trivial single-node path.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }
}

/// Computes `ParentPath(p)` in the given configuration.
///
/// Only meaningful for `Pif_p ≠ C` (the paper defines the path only
/// there); for a `C` processor the trivial single-node path is returned
/// with the end it would have.
pub fn parent_path(
    protocol: &PifProtocol,
    graph: &Graph,
    states: &[PifState],
    p: ProcId,
) -> ParentPath {
    let mut nodes = vec![p];
    let mut on_path = vec![false; graph.len()];
    on_path[p.index()] = true;
    let mut cur = p;
    loop {
        if cur == protocol.root() {
            return ParentPath { nodes, end: PathEnd::Root };
        }
        let view = View::new(graph, states, cur);
        if !protocol.normal(view) {
            return ParentPath { nodes, end: PathEnd::Abnormal(cur) };
        }
        let next = states[cur.index()].par;
        if on_path[next.index()] {
            return ParentPath { nodes, end: PathEnd::Cycle };
        }
        on_path[next.index()] = true;
        nodes.push(next);
        cur = next;
    }
}

/// The decomposition of a configuration into the `LegalTree` and the
/// abnormal trees (Definitions 5–7).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeDecomposition {
    /// `in_legal[p]` — whether `p ∈ LegalTree`.
    pub in_legal: Vec<bool>,
    /// Members of the legal tree (participating processors whose parent
    /// path reaches the root).
    pub legal_members: Vec<ProcId>,
    /// The abnormal processors (extremities of abnormal trees), ascending.
    pub abnormal: Vec<ProcId>,
    /// Processors on a parent-pointer cycle (only under ablations).
    pub cyclic: Vec<ProcId>,
    /// Depth of each legal-tree member along its parent path (`None`
    /// outside the tree). The height of the legal tree is the maximum.
    pub depth: Vec<Option<u32>>,
}

impl TreeDecomposition {
    /// Height of the legal tree (0 when it is empty or only the root).
    pub fn legal_height(&self) -> u32 {
        self.depth.iter().flatten().copied().max().unwrap_or(0)
    }

    /// Number of legal tree members.
    pub fn legal_size(&self) -> usize {
        self.legal_members.len()
    }

    /// The *sources* of the legal tree (Definition 7): members no other
    /// member names as parent — the leaves of the tree structure.
    pub fn legal_sources(&self, states: &[PifState], root: ProcId) -> Vec<ProcId> {
        let mut has_child = vec![false; self.in_legal.len()];
        for &p in &self.legal_members {
            if p != root {
                has_child[states[p.index()].par.index()] = true;
            }
        }
        self.legal_members
            .iter()
            .copied()
            .filter(|p| !has_child[p.index()])
            .collect()
    }
}

/// Computes the full tree decomposition of a configuration.
///
/// Per Definition 4 the legal tree contains the participating processors
/// (`Pif_p ≠ C`) whose parent path reaches the root, plus the root itself
/// whenever it participates.
pub fn legal_tree(
    protocol: &PifProtocol,
    graph: &Graph,
    states: &[PifState],
) -> TreeDecomposition {
    let n = graph.len();
    let mut in_legal = vec![false; n];
    let mut legal_members = Vec::new();
    let mut abnormal = Vec::new();
    let mut cyclic = Vec::new();
    let mut depth = vec![None; n];
    for p in graph.procs() {
        let view = View::new(graph, states, p);
        if !protocol.normal(view) {
            abnormal.push(p);
        }
        if states[p.index()].phase == Phase::C {
            continue;
        }
        let path = parent_path(protocol, graph, states, p);
        match path.end {
            PathEnd::Root => {
                in_legal[p.index()] = true;
                legal_members.push(p);
                depth[p.index()] = Some(path.len() as u32);
            }
            PathEnd::Abnormal(_) => {}
            PathEnd::Cycle => cyclic.push(p),
        }
    }
    TreeDecomposition { in_legal, legal_members, abnormal, cyclic, depth }
}

/// The abnormal processors of a configuration (`¬Normal(p)`), ascending.
pub fn abnormal_procs(
    protocol: &PifProtocol,
    graph: &Graph,
    states: &[PifState],
) -> Vec<ProcId> {
    graph
        .procs()
        .filter(|&p| !protocol.normal(View::new(graph, states, p)))
        .collect()
}

/// Definition 15 — *Good Configuration*: every participating processor
/// outside the legal tree whose parent *is* in the legal tree satisfies
/// `GoodCount`. (In a good configuration the legal tree is the
/// `GoodLegalTree`, Definition 16, and the root's counter can only reach
/// `N` once the tree spans the network.)
pub fn good_configuration(
    protocol: &PifProtocol,
    graph: &Graph,
    states: &[PifState],
) -> bool {
    let decomp = legal_tree(protocol, graph, states);
    graph.procs().all(|p| {
        if decomp.in_legal[p.index()] || p == protocol.root() {
            return true;
        }
        let s = &states[p.index()];
        if s.phase == Phase::C || !decomp.in_legal[s.par.index()] {
            return true;
        }
        protocol.good_count(View::new(graph, states, p))
    })
}

/// Renders the configuration's parent-pointer structure as a Graphviz DOT
/// digraph: one node per processor labelled with its registers, one arrow
/// per participating parent pointer, legal-tree members drawn solid and
/// others dashed.
pub fn dot_export(protocol: &PifProtocol, graph: &Graph, states: &[PifState]) -> String {
    let decomp = legal_tree(protocol, graph, states);
    let mut out = String::from("digraph pif {\n  rankdir=BT;\n");
    for p in graph.procs() {
        let s = &states[p.index()];
        let color = match s.phase {
            Phase::B => "lightblue",
            Phase::F => "lightgreen",
            Phase::C => "white",
        };
        let shape = if p == protocol.root() { "doublecircle" } else { "circle" };
        let _ = writeln!(
            out,
            "  n{} [label=\"{}\\n{}\", style=filled, fillcolor={color}, shape={shape}];",
            p.0, p, s
        );
    }
    for p in graph.procs() {
        if p == protocol.root() {
            continue;
        }
        let s = &states[p.index()];
        if s.phase != Phase::C {
            let style = if decomp.in_legal[p.index()] { "solid" } else { "dashed" };
            let _ = writeln!(out, "  n{} -> n{} [style={style}];", p.0, s.par.0);
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initial;
    use pif_graph::generators;

    /// Configuration: root B; p1 B child of root; p2 B orphaned (parent C).
    fn mixed_config() -> (Graph, PifProtocol, Vec<PifState>) {
        let g = generators::chain(4).unwrap();
        let p = PifProtocol::new(ProcId(0), &g);
        let mut s = initial::normal_starting(&g);
        s[0] = PifState { phase: Phase::B, par: ProcId(0), level: 1, count: 2, fok: false };
        s[1] = PifState { phase: Phase::B, par: ProcId(0), level: 1, count: 1, fok: false };
        // p3 participates but its parent p2 is clean: abnormal (GoodPif).
        s[3] = PifState { phase: Phase::B, par: ProcId(2), level: 2, count: 1, fok: false };
        (g, p, s)
    }

    #[test]
    fn parent_path_reaches_root() {
        let (g, p, s) = mixed_config();
        let path = parent_path(&p, &g, &s, ProcId(1));
        assert_eq!(path.end, PathEnd::Root);
        assert_eq!(path.nodes, vec![ProcId(1), ProcId(0)]);
        assert_eq!(path.len(), 1);
    }

    #[test]
    fn parent_path_stops_at_abnormal() {
        let (g, p, s) = mixed_config();
        let path = parent_path(&p, &g, &s, ProcId(3));
        assert_eq!(path.end, PathEnd::Abnormal(ProcId(3)));
        assert!(path.is_empty(), "p3 itself is the abnormal extremity");
    }

    #[test]
    fn legal_tree_membership() {
        let (g, p, s) = mixed_config();
        let d = legal_tree(&p, &g, &s);
        assert!(d.in_legal[0] && d.in_legal[1]);
        assert!(!d.in_legal[2] && !d.in_legal[3]);
        assert_eq!(d.legal_size(), 2);
        assert_eq!(d.legal_height(), 1);
        assert_eq!(d.abnormal, vec![ProcId(3)]);
        assert!(d.cyclic.is_empty());
    }

    #[test]
    fn sources_are_childless_members() {
        let (g, p, s) = mixed_config();
        let d = legal_tree(&p, &g, &s);
        assert_eq!(d.legal_sources(&s, p.root()), vec![ProcId(1)]);
    }

    #[test]
    fn empty_legal_tree_when_root_clean() {
        let g = generators::ring(4).unwrap();
        let p = PifProtocol::new(ProcId(0), &g);
        let s = initial::normal_starting(&g);
        let d = legal_tree(&p, &g, &s);
        assert_eq!(d.legal_size(), 0);
        assert_eq!(d.legal_height(), 0);
    }

    #[test]
    fn cycle_detection_under_level_ablation() {
        let g = generators::ring(4).unwrap();
        let p = PifProtocol::new(ProcId(0), &g).with_features(crate::Features {
            level_guard: false,
            ..crate::Features::default()
        });
        let mut s = initial::normal_starting(&g);
        // 1 -> 2 -> 3 -> 1 parent cycle, all in B with "consistent" fok.
        s[1] = PifState { phase: Phase::B, par: ProcId(2), level: 1, count: 1, fok: false };
        s[2] = PifState { phase: Phase::B, par: ProcId(3), level: 1, count: 1, fok: false };
        s[3] = PifState { phase: Phase::B, par: ProcId(1), level: 1, count: 1, fok: false };
        let path = parent_path(&p, &g, &s, ProcId(1));
        assert_eq!(path.end, PathEnd::Cycle);
        let d = legal_tree(&p, &g, &s);
        assert_eq!(d.cyclic.len(), 3);
    }

    #[test]
    fn with_level_guard_cycles_are_classified_abnormal_instead() {
        let g = generators::ring(4).unwrap();
        let p = PifProtocol::new(ProcId(0), &g);
        let mut s = initial::normal_starting(&g);
        s[1] = PifState { phase: Phase::B, par: ProcId(2), level: 1, count: 1, fok: false };
        s[2] = PifState { phase: Phase::B, par: ProcId(3), level: 1, count: 1, fok: false };
        s[3] = PifState { phase: Phase::B, par: ProcId(1), level: 1, count: 1, fok: false };
        // Equal levels violate GoodLevel, so the walk hits an abnormal
        // processor before cycling.
        let path = parent_path(&p, &g, &s, ProcId(1));
        assert!(matches!(path.end, PathEnd::Abnormal(_)));
    }

    #[test]
    fn good_configuration_on_clean_and_mixed() {
        let (g, p, s) = mixed_config();
        assert!(good_configuration(&p, &g, &s));
        // Give p3 a parent in the legal tree and an inflated count: no
        // longer a good configuration.
        let mut bad = s.clone();
        bad[2] = PifState { phase: Phase::B, par: ProcId(1), level: 2, count: 4, fok: false };
        assert!(!good_configuration(&p, &g, &bad));
    }

    #[test]
    fn dot_export_mentions_every_processor() {
        let (g, p, s) = mixed_config();
        let dot = dot_export(&p, &g, &s);
        for q in g.procs() {
            assert!(dot.contains(&format!("n{}", q.0)));
        }
        assert!(dot.contains("->"));
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn abnormal_procs_matches_decomposition() {
        let (g, p, s) = mixed_config();
        assert_eq!(abnormal_procs(&p, &g, &s), legal_tree(&p, &g, &s).abnormal);
    }
}
