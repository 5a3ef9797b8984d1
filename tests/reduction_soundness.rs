//! Pins the premise of the exhaustive checker's partial-order reduction
//! (`pif-verify`'s connected-selection rule) to the analyzer's actual
//! interference matrix, and machine-checks its operational consequence.
//!
//! The reduction drops composite daemon selections whose selected
//! processors are disconnected in the network graph. Its soundness rests
//! on one claim: **interference has radius 1** — a processor's move can
//! only disable, enable, or change the effect of moves at graph distance
//! ≤ 1. Two tests pin that claim from both sides:
//!
//! 1. the declared read/write specs, as compiled by `pif-analyze` into
//!    the interference graph, have radius exactly 1 (some edge crosses a
//!    link; the spec language cannot express farther reads); and
//! 2. operationally, on sampled configurations of chain(4), moves of
//!    processors at distance ≥ 2 commute: the enabled-action sets are
//!    preserved, effects are unchanged, and both execution orders meet
//!    the simultaneous endpoint (the "diamond").

use pif_suite::analyze::{DomainModel, InterferenceGraph};
use pif_suite::core::PifProtocol;
use pif_suite::daemon::{ActionId, ActionSet, Protocol, View};
use pif_suite::graph::{generators, ProcId};
use pif_suite::verify::StateSpace;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn pif_interference_radius_is_one() {
    let g = generators::chain(4).unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g);
    let registers = DomainModel::registers(&protocol);
    let graph = InterferenceGraph::from_protocol(&protocol, registers);
    assert_eq!(
        graph.interference_radius(),
        1,
        "PIF guards read neighbor registers: the radius must be exactly 1"
    );
    // Beyond the radius, every ordered action pair is independent — this
    // is the exact premise the connected-selection reduction consumes.
    for src in protocol.action_names() {
        for dst in protocol.action_names() {
            for distance in 2..=4 {
                assert!(
                    graph.independent_at(src, dst, distance),
                    "{src} -> {dst} must be independent at distance {distance}"
                );
            }
        }
    }
}

#[test]
fn por_consumes_the_machine_derived_radius() {
    // The verifier no longer hard-codes radius 1: `por_premise_radius`
    // recompiles the interference graph from the protocol's declared
    // specs and hands its radius to the connected-selection rule. For
    // PIF that derivation must land on exactly 1 — so the reduction
    // behaves bit-identically to the hand-declared premise it replaced —
    // and for a spec-less protocol the premise must fall back to the
    // conservative radius 1 rather than claiming independence it cannot
    // derive.
    let g = generators::chain(4).unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g);
    assert_eq!(pif_suite::verify::por_premise_radius(&protocol), 1);

    struct NoSpecs(PifProtocol);
    impl Protocol for NoSpecs {
        type State = <PifProtocol as Protocol>::State;
        fn enabled_actions(&self, view: View<'_, Self::State>) -> ActionSet {
            self.0.enabled_actions(view)
        }
        fn execute(&self, view: View<'_, Self::State>, action: ActionId) -> Self::State {
            self.0.execute(view, action)
        }
        fn action_names(&self) -> &'static [&'static str] {
            self.0.action_names()
        }
        // No `action_spec`, no `register_names`: the defaults advertise
        // nothing, so the premise must not sharpen past radius 1.
    }
    let bare = NoSpecs(PifProtocol::new(ProcId(0), &g));
    assert_eq!(pif_suite::verify::por_premise_radius(&bare), 1);
}

#[test]
fn distant_moves_commute_on_sampled_configurations() {
    // chain(4): processor pairs at graph distance >= 2.
    let g = generators::chain(4).unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g);
    let space = StateSpace::new(g.clone(), protocol);
    let pairs: [(usize, usize); 3] = [(0, 2), (0, 3), (1, 3)];
    let mut rng = 0xDEC0DEu64;
    let mut checked = 0u32;
    for _ in 0..2000 {
        let cfg = splitmix(&mut rng) % space.config_count();
        let states = space.decode(cfg);
        for &(i, j) in &pairs {
            let p = space.protocol();
            let acts_i = p.enabled_actions(View::new(&g, &states, ProcId::from_index(i)));
            let acts_j = p.enabled_actions(View::new(&g, &states, ProcId::from_index(j)));
            for ai in acts_i {
                let si = p.execute(View::new(&g, &states, ProcId::from_index(i)), ai);
                let mut after_i = states.clone();
                after_i[i] = si;
                // Enabledness preservation: i's move must not change j's
                // enabled set.
                let acts_j2 = p.enabled_actions(View::new(&g, &after_i, ProcId::from_index(j)));
                assert_eq!(acts_j, acts_j2, "cfg {cfg}: move of {i} changed {j}'s guards");
                for aj in acts_j {
                    // Effect preservation: j's successor is the same
                    // before and after i's move.
                    let sj_before = p.execute(View::new(&g, &states, ProcId::from_index(j)), aj);
                    let sj_after = p.execute(View::new(&g, &after_i, ProcId::from_index(j)), aj);
                    assert_eq!(
                        sj_before, sj_after,
                        "cfg {cfg}: move of {i} changed {j}'s effect"
                    );
                    // Diamond: both orders meet the simultaneous endpoint.
                    let mut simultaneous = states.clone();
                    simultaneous[i] = si;
                    simultaneous[j] = sj_before;
                    let mut i_then_j = after_i.clone();
                    i_then_j[j] = sj_after;
                    let mut j_then_i = states.clone();
                    j_then_i[j] = sj_before;
                    j_then_i[i] =
                        p.execute(View::new(&g, &j_then_i, ProcId::from_index(i)), ai);
                    assert_eq!(i_then_j, simultaneous, "cfg {cfg}: i-then-j diverged");
                    assert_eq!(j_then_i, simultaneous, "cfg {cfg}: j-then-i diverged");
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 1000, "sampling must actually exercise enabled distant pairs");
}
