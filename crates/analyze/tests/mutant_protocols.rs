//! Negative tests: the analyzer must flag each mutant protocol with the
//! diagnostic code matching its injected bug class — and with *only*
//! findings attributable to that bug, so a diagnostic is evidence, not
//! noise. One mutant per check: AN001–AN003 for the per-view stage,
//! AN008–AN011 for the abstract/derived stage.

use pif_analyze::mutants::{
    CyclicCorrectionPif, DisabledFokPif, NeighborWriteSpecPif, OverclaimedInterferencePif,
    SkipCleaningPif, UnderReadEcho, WidenedCorrectionPif,
};
use pif_analyze::{analyze, report, Code};
use pif_daemon::json::Json;
use pif_graph::{generators, ProcId};

#[test]
fn widened_correction_breaks_priority_determinism() {
    let g = generators::chain(2).unwrap();
    let mutant = WidenedCorrectionPif::new(ProcId(0), &g);
    let a = analyze(&mutant, &g, "pif-widened-correction", "chain2");
    let an002: Vec<_> =
        a.diagnostics.iter().filter(|d| d.code == Code::AN002).collect();
    assert!(
        !an002.is_empty(),
        "widened F-correction guard must be caught as guard nondeterminism: {:#?}",
        a.diagnostics
    );
    // The witness pair is the broadened F-correction against the
    // same-class (priority 0) B-correction.
    for d in &an002 {
        let pair = (d.action.as_str(), d.other_action.as_deref());
        assert!(
            pair.0 == "F-correction" || pair.1 == Some("F-correction"),
            "unexpected AN002 pair: {pair:?}"
        );
        assert!(d.witness.is_some(), "AN002 must carry a witness view");
    }
    // The mutation widens one guard; it does not misdeclare writes or
    // reads, and the extra correction edge B → C is phase-legal and only
    // shortens correction paths, so no other code may fire.
    assert!(
        a.diagnostics.iter().all(|d| d.code == Code::AN002),
        "only AN002 expected: {:#?}",
        a.diagnostics
    );
}

#[test]
fn neighbor_write_spec_violates_write_locality() {
    let g = generators::chain(2).unwrap();
    let mutant = NeighborWriteSpecPif::new(ProcId(0), &g);
    let a = analyze(&mutant, &g, "pif-neighbor-write-spec", "chain2");
    let an001: Vec<_> =
        a.diagnostics.iter().filter(|d| d.code == Code::AN001).collect();
    assert_eq!(an001.len(), 1, "diagnostics: {:#?}", a.diagnostics);
    let d = an001[0];
    assert_eq!(d.action, "Count-action");
    assert_eq!(d.register.as_deref(), Some("neighbor.count"));
    // The check is static: the mutant's behavior is identical to the
    // correct protocol, so nothing dynamic may fire.
    assert!(a.diagnostics.iter().all(|d| d.code == Code::AN001));
}

#[test]
fn under_read_echo_is_caught_by_differential_probing() {
    let g = generators::chain(2).unwrap();
    let mutant = UnderReadEcho::new(ProcId(0), 7);
    let a = analyze(&mutant, &g, "echo-under-read", "chain2");
    let an003: Vec<_> =
        a.diagnostics.iter().filter(|d| d.code == Code::AN003).collect();
    assert!(!an003.is_empty(), "diagnostics: {:#?}", a.diagnostics);
    for d in &an003 {
        assert_eq!(d.action, "B-action");
        assert_eq!(
            d.register.as_deref(),
            Some("neighbor.val"),
            "the hidden read is the parent's value register"
        );
    }
    // AN010's observed-coverage stage must NOT echo the same root cause:
    // once AN003 establishes the declarations are unsound, the derived
    // graph is known-bad for that same reason and stays un-reported.
    assert!(
        a.diagnostics.iter().all(|d| d.code == Code::AN003),
        "only AN003 expected: {:#?}",
        a.diagnostics
    );
}

#[test]
fn hidden_read_shrinks_the_declared_interference_graph() {
    // The point of AN003: an under-declared read-set makes the static
    // interference graph lose a real write→read edge. Demonstrate the
    // lost edge so the soundness direction (declared ⊇ observed) is
    // visibly load-bearing.
    use pif_analyze::InterferenceGraph;
    use pif_baselines::echo::EchoProtocol;

    let honest = EchoProtocol::new(ProcId(0), 7);
    let lying = UnderReadEcho::new(ProcId(0), 7);
    let regs = ["phase", "par", "val"];
    let honest_graph = InterferenceGraph::from_protocol(&honest, &regs);
    let lying_graph = InterferenceGraph::from_protocol(&lying, &regs);
    let carries_val = |g: &InterferenceGraph| {
        g.edges.iter().any(|e| {
            e.src == "B-action"
                && e.dst == "B-action"
                && e.across_link
                && e.registers.iter().any(|r| r == "val")
        })
    };
    assert!(carries_val(&honest_graph));
    assert!(
        !carries_val(&lying_graph),
        "the under-declared spec must lose the val-carrying dependence \
         (the edge survives only through `phase`)"
    );
}

#[test]
fn skip_cleaning_breaks_phase_order() {
    let g = generators::chain(2).unwrap();
    let mutant = SkipCleaningPif::new(ProcId(0), &g);
    let a = analyze(&mutant, &g, "pif-skip-cleaning", "chain2");
    let an008: Vec<_> =
        a.diagnostics.iter().filter(|d| d.code == Code::AN008).collect();
    assert!(
        !an008.is_empty(),
        "re-broadcasting C-action must violate the B→F→C order: {:#?}",
        a.diagnostics
    );
    for d in &an008 {
        assert_eq!(d.action, "C-action");
        assert!(d.witness.is_some(), "AN008 must carry the abstract edge");
    }
    // Only the statement changed — guards, specs and corrections are the
    // paper's, so no other code may fire.
    assert!(
        a.diagnostics.iter().all(|d| d.code == Code::AN008),
        "only AN008 expected: {:#?}",
        a.diagnostics
    );
}

#[test]
fn cyclic_correction_defeats_the_ranking_certificate() {
    let g = generators::chain(2).unwrap();
    let mutant = CyclicCorrectionPif::new(ProcId(0), &g);
    let a = analyze(&mutant, &g, "pif-cyclic-correction", "chain2");
    let an009: Vec<_> =
        a.diagnostics.iter().filter(|d| d.code == Code::AN009).collect();
    assert!(
        !an009.is_empty(),
        "fok-flipping correction must be caught as a correction livelock: {:#?}",
        a.diagnostics
    );
    assert!(
        an009.iter().any(|d| d.message.contains("cycle")),
        "the finding must name the cycle: {an009:#?}"
    );
    // The flipped register is declared, the B → B edge is phase-legal
    // for a correction, and guards are untouched: only AN009 may fire.
    assert!(
        a.diagnostics.iter().all(|d| d.code == Code::AN009),
        "only AN009 expected: {:#?}",
        a.diagnostics
    );
    assert!(!a.ranking.certified, "no ranking certificate may be synthesized");
}

#[test]
fn overclaimed_premise_fails_derived_containment() {
    let g = generators::chain(2).unwrap();
    let mutant = OverclaimedInterferencePif::new(ProcId(0), &g);
    let a = analyze(&mutant, &g, "pif-overclaimed-interference", "chain2");
    let an010: Vec<_> =
        a.diagnostics.iter().filter(|d| d.code == Code::AN010).collect();
    assert_eq!(an010.len(), 1, "diagnostics: {:#?}", a.diagnostics);
    let d = an010[0];
    assert_eq!(d.action, "Fok-action");
    assert_eq!(d.other_action.as_deref(), Some("B-action"));
    // The runnable protocol is the unmodified PIF — the lie lives purely
    // in the advertised premise, so nothing else may fire.
    assert!(a.diagnostics.iter().all(|d| d.code == Code::AN010));
}

#[test]
fn disabled_fok_is_reported_as_dead_action() {
    let g = generators::chain(2).unwrap();
    let mutant = DisabledFokPif::new(ProcId(0), &g);
    let a = analyze(&mutant, &g, "pif-disabled-fok", "chain2");
    let an011: Vec<_> =
        a.diagnostics.iter().filter(|d| d.code == Code::AN011).collect();
    assert_eq!(an011.len(), 1, "diagnostics: {:#?}", a.diagnostics);
    assert_eq!(an011[0].action, "Fok-action");
    // An action that never fires cannot trip any dynamic check: only
    // AN011 may fire.
    assert!(a.diagnostics.iter().all(|d| d.code == Code::AN011));
}

#[test]
fn mutant_report_carries_codes_and_exit_contract() {
    // The gate consumes this exact shape: every mutant run must carry at
    // least one diagnostic, with its code string in the report.
    let g = generators::chain(2).unwrap();
    let runs = vec![
        analyze(
            &WidenedCorrectionPif::new(ProcId(0), &g),
            &g,
            "pif-widened-correction",
            "chain2",
        ),
        analyze(
            &NeighborWriteSpecPif::new(ProcId(0), &g),
            &g,
            "pif-neighbor-write-spec",
            "chain2",
        ),
        analyze(&UnderReadEcho::new(ProcId(0), 7), &g, "echo-under-read", "chain2"),
        analyze(&SkipCleaningPif::new(ProcId(0), &g), &g, "pif-skip-cleaning", "chain2"),
        analyze(
            &CyclicCorrectionPif::new(ProcId(0), &g),
            &g,
            "pif-cyclic-correction",
            "chain2",
        ),
        analyze(
            &OverclaimedInterferencePif::new(ProcId(0), &g),
            &g,
            "pif-overclaimed-interference",
            "chain2",
        ),
        analyze(&DisabledFokPif::new(ProcId(0), &g), &g, "pif-disabled-fok", "chain2"),
    ];
    let text = report::render(&runs);
    let doc = pif_daemon::json::parse(&text).unwrap();
    assert!(doc.field::<u64>("total_diagnostics").unwrap() >= 7);
    let expected = ["AN002", "AN001", "AN003", "AN008", "AN009", "AN010", "AN011"];
    let parsed_runs: &[Json] = doc.field("runs").unwrap();
    assert_eq!(parsed_runs.len(), 7);
    for (run, code) in parsed_runs.iter().zip(expected) {
        let diags: &[Json] = run.field("diagnostics").unwrap();
        assert!(
            diags.iter().any(|d| d.field("code") == Ok(code)),
            "run {:?} missing {code}",
            run.get("protocol")
        );
    }
}
