//! The paper's theorems, asserted as integration tests on scaled-down
//! instances (the full sweeps live in the `exp_*` binaries; these tests
//! keep the bounds regression-checked on every `cargo test`).

use pif_bench::experiments::*;
use pif_graph::Topology;

fn small_suite() -> Vec<Topology> {
    vec![
        Topology::Chain { n: 8 },
        Topology::Ring { n: 8 },
        Topology::Star { n: 8 },
        Topology::Complete { n: 6 },
        Topology::Grid { w: 3, h: 3 },
        Topology::Lollipop { clique: 4, tail: 4 },
    ]
}

#[test]
fn theorem4_cycle_bounds() {
    for t in small_suite() {
        let row = e1_cycle_bounds::measure(&t, 2);
        assert!(row.bound_ok, "{t:?}: {} rounds > 5h+5 = {}", row.rounds_max, row.bound_at_worst);
        assert!(row.h_ok || !row.lcp_exact, "{t:?}: h {} > lcp {}", row.h_max, row.lcp);
    }
}

#[test]
fn theorem1_error_correction_bound() {
    for t in small_suite() {
        let row = e2_error_correction::measure(&t, 8);
        assert!(
            row.ok,
            "{t:?}: recovery took {} rounds, bound {}",
            row.stats.max, row.bound
        );
    }
}

#[test]
fn theorem3_glt_bound() {
    for t in [Topology::Ring { n: 7 }, Topology::Grid { w: 3, h: 2 }] {
        let row = e3_glt_formation::measure(&t, 6);
        assert!(row.ok, "{t:?}: {} rounds > bound {}", row.stats.max, row.bound);
    }
}

#[test]
fn theorem2_phase_bounds() {
    use pif_chaos::Goal;
    use pif_daemon::PhaseTag;
    for t in [Topology::Chain { n: 7 }, Topology::Star { n: 7 }] {
        for case in Goal::ALL {
            let row = e4_phase_bounds::measure(&t, case, 5);
            assert!(
                row.ok,
                "{t:?} {}: {} rounds > bound {}",
                e4_phase_bounds::label(case),
                row.stats.max,
                row.bound
            );
            // Per-phase round counts: no single phase can exceed the case
            // bound, corrections obey the Theorem 1 window `3·L_max + 3`,
            // and the attribution is live (some phase saw a round).
            for tag in PhaseTag::ALL {
                assert!(
                    row.phase_rounds_of(tag) <= row.bound,
                    "{t:?} {}: {tag} rounds {} > bound {}",
                    e4_phase_bounds::label(case),
                    row.phase_rounds_of(tag),
                    row.bound
                );
            }
            assert!(
                row.phase_rounds_of(PhaseTag::Correction) <= row.corr_bound,
                "{t:?} {}: correction rounds {} > 3·L_max+3 = {}",
                e4_phase_bounds::label(case),
                row.phase_rounds_of(PhaseTag::Correction),
                row.corr_bound
            );
            assert!(PhaseTag::ALL.iter().any(|&tag| row.phase_rounds_of(tag) > 0));
            assert_eq!(row.phase_rounds_of(PhaseTag::Other), 0, "every PIF action has a phase");
        }
    }
}

#[test]
fn chordless_lemma_and_height_range() {
    for t in [
        Topology::Complete { n: 7 },
        Topology::Wheel { n: 9 },
        Topology::Torus { w: 3, h: 3 },
    ] {
        let row = e6_chordless::measure(&t, 2);
        assert!(row.chordless_ok, "{t:?}");
        assert!(row.range_ok, "{t:?}");
    }
}

#[test]
fn ablations_separate() {
    assert!(e10_ablations::ablate_fok_wave(7).separation);
    assert!(e10_ablations::ablate_leaf_guard(7).separation);
    assert!(e10_ablations::ablate_chordless(7).separation);
    assert!(e10_ablations::ablate_level_guard().separation);
}

#[test]
fn invariants_never_violated() {
    let row = e8_invariants::measure(&Topology::Lollipop { clique: 4, tail: 3 }, 6);
    assert!(row.steps_checked > 100);
    assert_eq!(row.p1_violations + row.p2_violations + row.chordless_violations, 0);
}

#[test]
fn space_is_logarithmic() {
    let s64 = e9_space::measure(&Topology::Ring { n: 64 });
    let s512 = e9_space::measure(&Topology::Ring { n: 512 });
    assert!(s512.max_bits <= s64.max_bits + 8, "space must grow logarithmically");
}
