//! Differential tests of the exhaustive checker across worker counts:
//! the frontier driver with several workers (owner-partitioned tables,
//! per-worker scratch, concurrent expansion) must return reports
//! **bit-identical** to the same search run inline on one worker — same
//! `states_explored`, same transition counts, same verdicts, same
//! violation counts, and the same canonically-sorted retained violation
//! examples — on every instance small enough to run in the tier-1
//! suite: chain(2), chain(3) and the triangle (the first non-tree
//! instance, exercising the arbitrary-network B/F-correction paths the
//! paper exists for). The one-worker reference is itself pinned to the
//! published `states_explored` of `BENCH_verify_throughput.json`, and
//! on the symmetric instances the exact counts under every reduction
//! are pinned at one, two and four workers.

use pif_suite::core::{Features, PifProtocol};
use pif_suite::graph::{generators, Graph, ProcId};
use pif_suite::verify::{Checker, Reduction, StateSpace};

/// Worker counts to pit against the one-worker reference. Deliberately
/// includes more workers than this instance has frontier blocks on
/// small levels.
const WORKER_COUNTS: [usize; 2] = [2, 4];

/// The reference engine every other configuration is compared against.
fn reference() -> Checker {
    Checker::with_workers(1)
}

/// Tier-1 instances with their known answers: the `states_explored` of
/// the `3·L_max + 3` correction-bound search and of the acked
/// snap-safety search, as published in `BENCH_verify_throughput.json`
/// (EXPERIMENTS.md E11).
fn instances() -> Vec<(&'static str, Graph, ProcId, u64, u64)> {
    vec![
        ("chain2", generators::chain(2).unwrap(), ProcId(0), 111, 152),
        ("chain3-root-end", generators::chain(3).unwrap(), ProcId(0), 87_453, 47_554),
        ("chain3-root-middle", generators::chain(3).unwrap(), ProcId(1), 39_492, 23_531),
        ("triangle", generators::complete(3).unwrap(), ProcId(0), 154_404, 93_995),
    ]
}

#[test]
fn correction_bound_reports_are_identical() {
    for (name, g, root, corr_states, _) in instances() {
        let protocol = PifProtocol::new(root, &g);
        let space = StateSpace::new(g, protocol);
        let bound = 3 * u32::from(space.protocol().l_max()) + 3;
        let base = reference().check_correction_bound(&space, bound);
        assert_eq!(base.states_explored, corr_states, "{name}: published state count");
        for workers in WORKER_COUNTS {
            let par = Checker::with_workers(workers).check_correction_bound(&space, bound);
            assert_eq!(base.bound, par.bound, "{name} w={workers}");
            assert_eq!(base.states_explored, par.states_explored, "{name} w={workers}");
            assert_eq!(base.violation_count, par.violation_count, "{name} w={workers}");
            assert_eq!(base.violations, par.violations, "{name} w={workers}");
            assert!(base.verified(), "{name}: Theorem 1 must hold");
        }
    }
}

#[test]
fn snap_safety_reports_are_identical() {
    for (name, g, root, _, snap_states) in instances() {
        let protocol = PifProtocol::new(root, &g);
        let space = StateSpace::new(g, protocol);
        for track_acks in [false, true] {
            let base = reference().check_snap_safety(&space, track_acks);
            if track_acks {
                assert_eq!(base.states_explored, snap_states, "{name}: published state count");
            }
            for workers in WORKER_COUNTS {
                let par = Checker::with_workers(workers).check_snap_safety(&space, track_acks);
                assert_eq!(base.states_explored, par.states_explored, "{name} w={workers}");
                assert_eq!(base.transitions, par.transitions, "{name} w={workers}");
                assert_eq!(base.violation_count, par.violation_count, "{name} w={workers}");
                assert_eq!(
                    format!("{:?}", base.violations),
                    format!("{:?}", par.violations),
                    "{name} w={workers}"
                );
                assert_eq!(base.acks_tracked, par.acks_tracked, "{name} w={workers}");
                assert!(base.verified(), "{name}: snap safety must hold");
            }
        }
    }
}

#[test]
fn violating_instance_reports_are_identical() {
    // Worker counts must agree when there ARE violations, too — and the
    // retained examples must be the same canonical sample. The
    // leaf-guard ablation on chain(3) is the known-violating instance.
    let g = generators::chain(3).unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g)
        .with_features(Features { leaf_guard: false, ..Features::paper() });
    let space = StateSpace::new(g, protocol);
    let base = reference().check_snap_safety(&space, false);
    assert!(!base.verified(), "ablation must violate");
    assert!(
        base.violation_count >= base.violations.len() as u64,
        "true count must cover the retained sample"
    );
    for workers in WORKER_COUNTS {
        let par = Checker::with_workers(workers).check_snap_safety(&space, false);
        assert_eq!(base.states_explored, par.states_explored, "w={workers}");
        assert_eq!(base.transitions, par.transitions, "w={workers}");
        assert_eq!(base.violation_count, par.violation_count, "w={workers}");
        assert_eq!(
            format!("{:?}", base.violations),
            format!("{:?}", par.violations),
            "w={workers}"
        );
    }
}

#[test]
fn reduced_engines_reach_the_same_verdicts() {
    // Every reduction, on every tier-1 instance, on one worker and on
    // two: the verdict, the violation count, and the retained violation
    // examples must be bit-identical to the exhaustive one-worker
    // reference. (`states_explored` may legitimately shrink —
    // that is the point of the reductions — but never grow.)
    for (name, g, root, ..) in instances() {
        let protocol = PifProtocol::new(root, &g);
        let space = StateSpace::new(g, protocol);
        let bound = 3 * u32::from(space.protocol().l_max()) + 3;
        let ref_corr = reference().check_correction_bound(&space, bound);
        let ref_snap = reference().check_snap_safety(&space, true);
        for red in Reduction::ALL {
            for checker in [
                reference().with_reduction(red),
                Checker::with_workers(2).with_reduction(red),
            ] {
                let corr = checker.check_correction_bound(&space, bound);
                assert_eq!(ref_corr.violation_count, corr.violation_count, "{name} {red}");
                assert_eq!(ref_corr.violations, corr.violations, "{name} {red}");
                assert!(
                    corr.states_explored <= ref_corr.states_explored,
                    "{name} {red}: a reduction must never grow the space"
                );
                let snap = checker.check_snap_safety(&space, true);
                assert_eq!(ref_snap.violation_count, snap.violation_count, "{name} {red}");
                assert_eq!(
                    format!("{:?}", ref_snap.violations),
                    format!("{:?}", snap.violations),
                    "{name} {red}"
                );
                assert!(snap.states_explored <= ref_snap.states_explored, "{name} {red}");
                assert!(ref_corr.verified() && ref_snap.verified(), "{name}");
            }
        }
    }
}

/// Which check a pinned count belongs to.
#[derive(Clone, Copy, Debug)]
enum Check {
    /// `check_correction_bound(3·L_max + 3)`.
    Correction,
    /// `check_snap_safety(true)`.
    Snap,
    /// `check_snap_wave(true)`.
    Wave,
}

/// Exact `states_explored` (and, where pinned, `transitions`) under
/// each reduction, in `Reduction::ALL` order (None, Por, Symmetry,
/// Full), on the instances where the reductions bite: the symmetric
/// ones, and chain3, whose {0, 2} selections POR drops. The snap
/// transitions include those counted at seeds whose root cannot open a
/// wave, which are never listed.
#[allow(clippy::type_complexity)]
fn reduced_pins() -> Vec<(&'static str, Graph, ProcId, Check, [u64; 4], Option<[u64; 4]>)> {
    let chain3 = || generators::chain(3).unwrap();
    let triangle = || generators::complete(3).unwrap();
    vec![
        (
            "chain3",
            chain3(),
            ProcId(0),
            Check::Snap,
            [47_554; 4],
            Some([126_363, 111_508, 126_363, 111_508]),
        ),
        ("chain3-mid", chain3(), ProcId(1), Check::Correction, [39_492, 39_489, 20_061, 20_059], None),
        (
            "chain3-mid",
            chain3(),
            ProcId(1),
            Check::Snap,
            [23_531, 23_531, 12_098, 12_098],
            Some([63_913, 52_206, 32_984, 26_900]),
        ),
        ("triangle", triangle(), ProcId(0), Check::Correction, [154_404, 154_404, 77_877, 77_877], None),
        (
            "triangle",
            triangle(),
            ProcId(0),
            Check::Snap,
            [93_995, 93_995, 47_660, 47_660],
            Some([240_795, 240_795, 122_499, 122_499]),
        ),
        ("ring5", generators::ring(5).unwrap(), ProcId(0), Check::Wave, [398, 398, 226, 226], None),
        ("grid3x2", generators::grid(3, 2).unwrap(), ProcId(1), Check::Wave, [1_319, 1_319, 739, 739], None),
    ]
}

#[test]
fn reduced_state_counts_are_pinned() {
    // A reduction may only shrink the space, but by exactly how much is
    // a property of the instance: a search that stored too few states
    // (a wrong seed or orbit-representative filter, say) would still
    // reach the same verdicts, so the counts are pinned per reduction
    // and worker count.
    for (name, g, root, check, states, transitions) in reduced_pins() {
        let protocol = PifProtocol::new(root, &g);
        let space = StateSpace::new(g, protocol);
        let bound = 3 * u32::from(space.protocol().l_max()) + 3;
        for (k, red) in Reduction::ALL.into_iter().enumerate() {
            for workers in [1, 2, 4] {
                let checker = Checker::with_workers(workers).with_reduction(red);
                let (got_states, got_transitions, verified) = match check {
                    Check::Correction => {
                        let r = checker.check_correction_bound(&space, bound);
                        (r.states_explored, None, r.verified())
                    }
                    Check::Snap | Check::Wave => {
                        let r = if matches!(check, Check::Wave) {
                            checker.check_snap_wave(&space, true)
                        } else {
                            checker.check_snap_safety(&space, true)
                        };
                        (r.states_explored, Some(r.transitions), r.verified())
                    }
                };
                let at = format!("{name} {check:?} {red} w={workers}");
                assert!(verified, "{at}");
                assert_eq!(got_states, states[k], "{at}: states");
                if let Some(t) = transitions {
                    assert_eq!(got_transitions, Some(t[k]), "{at}: transitions");
                }
            }
        }
    }
}

#[test]
fn symmetry_is_bit_identical_on_rigid_instances() {
    // chain(3) rooted at an end has only the trivial root-fixing
    // automorphism: the Symmetry engine must not merely agree — it must
    // explore the exact same states and transitions as None.
    let g = generators::chain(3).unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g);
    let space = StateSpace::new(g, protocol);
    let none = reference().check_snap_safety(&space, true);
    let sym = reference()
        .with_reduction(Reduction::Symmetry)
        .check_snap_safety(&space, true);
    assert_eq!(none.states_explored, sym.states_explored);
    assert_eq!(none.transitions, sym.transitions);
    assert_eq!(none.violation_count, sym.violation_count);
}

#[test]
fn reduced_engines_flag_the_ablated_protocol() {
    // When there ARE violations the two-phase fallback reruns the
    // exhaustive engine, so every reduction must return the reference
    // report verbatim — counts, retained examples, even the exploration
    // numbers.
    let g = generators::chain(3).unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g)
        .with_features(Features { leaf_guard: false, ..Features::paper() });
    let space = StateSpace::new(g, protocol);
    let base = reference().check_snap_safety(&space, false);
    assert!(!base.verified(), "ablation must violate");
    for red in Reduction::ALL {
        let r = reference().with_reduction(red).check_snap_safety(&space, false);
        assert!(!r.verified(), "{red}: reduction must not hide the bug");
        assert_eq!(base.states_explored, r.states_explored, "{red}");
        assert_eq!(base.transitions, r.transitions, "{red}");
        assert_eq!(base.violation_count, r.violation_count, "{red}");
        assert_eq!(
            format!("{:?}", base.violations),
            format!("{:?}", r.violations),
            "{red}"
        );
    }
}

#[test]
fn wave_reports_are_identical_across_engines() {
    // The reachable-wave check: every worker count must be
    // bit-identical, and every reduction must preserve the verdict.
    for (name, g, root, ..) in instances() {
        let protocol = PifProtocol::new(root, &g);
        let space = StateSpace::new(g, protocol);
        let base = reference().check_snap_wave(&space, true);
        assert!(base.verified(), "{name}: clean-start waves must be safe");
        for workers in WORKER_COUNTS {
            let par = Checker::with_workers(workers).check_snap_wave(&space, true);
            assert_eq!(base.states_explored, par.states_explored, "{name} w={workers}");
            assert_eq!(base.transitions, par.transitions, "{name} w={workers}");
            assert_eq!(base.violation_count, par.violation_count, "{name} w={workers}");
        }
        for red in Reduction::ALL {
            let r = reference().with_reduction(red).check_snap_wave(&space, true);
            assert_eq!(base.violation_count, r.violation_count, "{name} {red}");
            assert!(r.states_explored <= base.states_explored, "{name} {red}");
        }
    }
}

#[test]
fn universal_scans_are_identical() {
    for (name, g, root, ..) in instances() {
        let protocol = PifProtocol::new(root, &g);
        let space = StateSpace::new(g, protocol);
        let base_deadlock = reference().check_no_deadlock(&space);
        let base_p1 =
            reference().check_universal(&space, pif_suite::core::analysis::property1_holds);
        for workers in WORKER_COUNTS {
            let c = Checker::with_workers(workers);
            assert_eq!(base_deadlock, c.check_no_deadlock(&space), "{name} w={workers}");
            assert_eq!(
                base_p1,
                c.check_universal(&space, pif_suite::core::analysis::property1_holds),
                "{name} w={workers}"
            );
        }
    }
}
