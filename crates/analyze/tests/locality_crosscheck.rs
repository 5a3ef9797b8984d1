//! Cross-checks between the *declared* interference graph and the
//! *dynamic* locality the rest of the workspace relies on.
//!
//! Two consumers bake the same assumption into their hot paths: the
//! simulator's incremental enabled-set bookkeeping (re-evaluating only
//! `p ∪ N(p)` after `p` moves) and the exhaustive checker's guard memo
//! (`pif-verify`'s `EnabledMemo` keys guard verdicts by configuration
//! and fills successors incrementally). Both are sound exactly when a
//! move at `p` cannot change any enabled set outside `p`'s closed
//! neighborhood — which is the graph-theoretic content of the
//! interference graph having only self and one-link edges. Here we (a)
//! pin the declared graph's shape and (b) hammer the dynamic invariant
//! directly over fuzzed configurations.

use pif_analyze::{analyze, DomainModel, InterferenceGraph};
use pif_core::{initial, protocol as pif_actions, PifProtocol};
use pif_daemon::{ActionId, Protocol, View};
use pif_graph::{generators, Graph, ProcId};

#[test]
fn pif_interference_graph_has_the_paper_shape() {
    let g = generators::chain(2).unwrap();
    let proto = PifProtocol::new(ProcId(0), &g);
    let graph = InterferenceGraph::from_protocol(&proto, proto.registers());

    // Every guard except B-action's evaluates Normal(p) over the entire
    // neighbor state (declared as the wildcard read), and every action
    // writes at least one register some neighbor guard reads: all 7 × 7
    // ordered action pairs interfere across a link.
    assert!(graph.neighbor_complete(7));

    // Own-processor interference is sparser and pins the guard
    // structure: Fok-action writes only `fok`, which B-action's own
    // reads (just `phase`) do not include...
    assert!(!graph.has_edge("Fok-action", "B-action", false));
    // ...while every phase-writing action feeds every guard that
    // dispatches on the own phase.
    for writer in ["B-action", "F-action", "C-action", "B-correction"] {
        assert!(
            graph.has_edge(writer, "B-action", false),
            "{writer} writes `phase`, which B-action's guard reads"
        );
    }
    // Count-action writes count+fok: no own edge into B-action either.
    assert!(!graph.has_edge("Count-action", "B-action", false));
}

/// Asserts that executing `action` at `p` leaves the enabled sets of all
/// processors outside `p ∪ N(p)` untouched.
fn assert_move_is_local(
    graph: &Graph,
    proto: &PifProtocol,
    states: &mut [pif_core::PifState],
    p: ProcId,
    action: ActionId,
) {
    let enabled_of =
        |states: &[pif_core::PifState], q: ProcId| proto.enabled_actions(View::new(graph, states, q));
    let before: Vec<_> = graph.procs().map(|q| enabled_of(states, q)).collect();
    let new_state = proto.execute(View::new(graph, states, p), action);
    let old_state = std::mem::replace(&mut states[p.index()], new_state);
    for q in graph.procs() {
        let in_nbhd = q == p || graph.neighbor_slice(p).contains(&q);
        if !in_nbhd {
            assert_eq!(
                before[q.index()],
                enabled_of(states, q),
                "move {action} at {p} changed the enabled set of {q}, which is \
                 outside the closed neighborhood — the simulator's incremental \
                 bookkeeping and the verify memo would both be unsound"
            );
        }
    }
    states[p.index()] = old_state;
}

#[test]
fn moves_only_disturb_the_closed_neighborhood() {
    // chain(4) and ring(4) both have processors at distance 2, so a
    // locality violation has somewhere to show up.
    for g in [generators::chain(4).unwrap(), generators::ring(4).unwrap()] {
        let proto = PifProtocol::new(ProcId(0), &g);
        let mut checked = 0u32;
        for seed in 0..200 {
            let mut states = initial::random_config(&g, &proto, seed);
            for p in g.procs() {
                for action in proto.enabled_actions(View::new(&g, &states, p)) {
                    assert_move_is_local(&g, &proto, &mut states, p, action);
                    checked += 1;
                }
            }
        }
        assert!(checked > 100, "fuzz must actually exercise moves on {g}");
    }
}

#[test]
fn declared_graph_predicts_the_dynamic_locality_radius() {
    // The dynamic invariant above is implied by the declared graph as
    // long as AN003/AN006 hold (declared ⊇ observed, reads are local).
    // Analyze certifies those premises on the same protocol family, so
    // the two tests together close the loop: spec shape → memo safety.
    let g = generators::chain(2).unwrap();
    let proto = PifProtocol::new(ProcId(0), &g);
    let a = analyze(&proto, &g, "pif", "chain2");
    assert!(a.clean(), "premises for the locality argument: {:#?}", a.diagnostics);
    assert!(a.interference.edges.iter().all(|e| {
        // Only self-edges and one-link edges exist by construction; the
        // claim with content is that nothing forced us to add more.
        !e.registers.is_empty()
    }));
}

#[test]
fn correction_actions_feed_the_wave_restart_guards() {
    // The paper's error-correction argument needs corrections to
    // *unblock* the wave: both corrections write `phase`, which every
    // wave guard reads at the neighbor scope. Pin those edges.
    let g = generators::chain(2).unwrap();
    let proto = PifProtocol::new(ProcId(0), &g);
    let graph = InterferenceGraph::from_protocol(&proto, proto.registers());
    let b_correction = proto.action_names()[pif_actions::B_CORRECTION.index()];
    let f_correction = proto.action_names()[pif_actions::F_CORRECTION.index()];
    for correction in [b_correction, f_correction] {
        for wave in ["B-action", "F-action", "C-action"] {
            assert!(
                graph.has_edge(correction, wave, true),
                "{correction} must interfere with {wave} across a link"
            );
        }
    }
}
