//! Machine-readable JSON report for analyzer runs.
//!
//! [`render`] builds the document as a [`pif_daemon::json::Json`] value
//! and writes it in that codec's compact form (the codec the trace files
//! use); [`pif_daemon::json::parse`] reads it back, which is how the gate
//! script and the round-trip test validate the shape.
//!
//! Top-level shape:
//!
//! ```json
//! {
//!   "analyzer": "pif-analyze",
//!   "version": 1,
//!   "total_diagnostics": 0,
//!   "runs": [
//!     {
//!       "protocol": "pif", "topology": "chain2", "processors": 2,
//!       "actions": ["B-action", ...],
//!       "views_checked": 288, "probes": 1930,
//!       "diagnostics": [
//!         {"code": "AN002", "title": "...", "action": "...",
//!          "other_action": "...", "proc": 1,
//!          "processor_class": "non-root", "register": null,
//!          "witness": "...", "message": "..."}
//!       ],
//!       "interference": {"edges": [
//!         {"src": "B-action", "dst": "F-action",
//!          "across_link": true, "registers": ["phase"]}
//!       ]},
//!       "abstract": [
//!         {"role": "root", "states": 12, "edges": 30}
//!       ],
//!       "ranking": {"components": ["phase-order"], "max_depth": 1,
//!                   "abnormal_states": 4, "window": 2,
//!                   "certified": true},
//!       "derived": {"derived_edges": 77, "derived_radius": 1,
//!                   "advertised_edges": 49, "observed_edges": 40,
//!                   "observed_radius": 1, "pair_probes": 120000,
//!                   "sampled": false}
//!     }
//!   ]
//! }
//! ```
//!
//! Version history: v1 carried `diagnostics` + `interference`; v2 (this
//! PR) adds the `abstract`, `ranking` and `derived` sections for the
//! AN008–AN011 checks.

use pif_daemon::json::Json;

use crate::{Analysis, Diagnostic, InterferenceEdge};

/// Report format version, bumped on any shape change.
pub const REPORT_VERSION: u64 = 2;

fn diagnostic(d: &Diagnostic) -> Json {
    Json::obj([
        ("code", d.code.as_str().into()),
        ("title", d.code.title().into()),
        ("action", (&d.action).into()),
        ("other_action", d.other_action.as_deref().into()),
        ("proc", d.proc.index().into()),
        ("processor_class", d.processor_class.into()),
        ("register", d.register.as_deref().into()),
        ("witness", d.witness.as_deref().into()),
        ("message", (&d.message).into()),
    ])
}

fn edge(e: &InterferenceEdge) -> Json {
    Json::obj([
        ("src", (&e.src).into()),
        ("dst", (&e.dst).into()),
        ("across_link", e.across_link.into()),
        ("registers", e.registers.iter().collect()),
    ])
}

fn run(a: &Analysis) -> Json {
    let roles = a.abstract_roles.iter().map(|r| {
        let role = r.role.name().into();
        Json::obj([("role", role), ("states", r.states.into()), ("edges", r.edges.into())])
    });
    let ranking = &a.ranking;
    let derived = &a.derived;
    Json::obj([
        ("protocol", (&a.protocol).into()),
        ("topology", (&a.topology).into()),
        ("processors", a.processors.into()),
        ("actions", a.actions.iter().collect()),
        ("views_checked", a.views_checked.into()),
        ("probes", a.probes.into()),
        ("diagnostics", a.diagnostics.iter().map(diagnostic).collect()),
        ("interference", Json::obj([("edges", a.interference.edges.iter().map(edge).collect())])),
        ("abstract", roles.collect()),
        (
            "ranking",
            Json::obj([
                ("components", ranking.components.iter().copied().collect()),
                ("max_depth", ranking.max_depth.into()),
                ("abnormal_states", ranking.abnormal_states.into()),
                ("window", ranking.window.into()),
                ("certified", ranking.certified.into()),
            ]),
        ),
        (
            "derived",
            Json::obj([
                ("derived_edges", derived.derived_edges.into()),
                ("derived_radius", derived.derived_radius.into()),
                ("advertised_edges", derived.advertised_edges.into()),
                ("observed_edges", derived.observed.len().into()),
                ("observed_radius", derived.observed_radius.into()),
                ("pair_probes", derived.pair_probes.into()),
                ("sampled", derived.sampled.into()),
            ]),
        ),
    ])
}

/// Renders the full report document for a batch of analyses.
pub fn render(analyses: &[Analysis]) -> String {
    let total: usize = analyses.iter().map(|a| a.diagnostics.len()).sum();
    Json::obj([
        ("analyzer", "pif-analyze".into()),
        ("version", REPORT_VERSION.into()),
        ("total_diagnostics", total.into()),
        ("runs", analyses.iter().map(run).collect()),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use pif_daemon::json;
    use pif_core::PifProtocol;
    use pif_graph::{generators, ProcId};

    #[test]
    fn report_round_trips_through_daemon_json_parser() {
        let g = generators::chain(2).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g);
        let a = analyze(&proto, &g, "pif", "chain2");
        let text = render(std::slice::from_ref(&a));
        let doc = json::parse(&text).expect("report must be valid JSON");
        assert_eq!(doc.field("analyzer"), Ok("pif-analyze"));
        assert_eq!(doc.field("version"), Ok(REPORT_VERSION));
        assert_eq!(doc.field("total_diagnostics"), Ok(0u64));
        let runs: &[Json] = doc.field("runs").unwrap();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(run.field("protocol"), Ok("pif"));
        assert_eq!(run.field("processors"), Ok(2u64));
        assert_eq!(run.field::<Vec<&str>>("actions").map(|a| a.len()), Ok(7));
        let edges: &[Json] = run.field::<&Json>("interference").unwrap().field("edges").unwrap();
        assert!(!edges.is_empty());
        for e in edges {
            assert!(e.field::<&str>("src").is_ok());
            assert!(e.field::<&str>("dst").is_ok());
            assert!(e.field::<bool>("across_link").is_ok());
        }
        let roles: &[Json] = run.field("abstract").unwrap();
        assert!(!roles.is_empty(), "PIF must yield at least the root role machine");
        for r in roles {
            assert!(r.field::<&str>("role").is_ok());
            assert!(r.field::<u64>("states").unwrap() > 0);
        }
        let ranking: &Json = run.field("ranking").unwrap();
        assert_eq!(ranking.field("certified"), Ok(true));
        assert!(!ranking.field::<&[Json]>("components").unwrap().is_empty());
        let derived: &Json = run.field("derived").unwrap();
        assert_eq!(derived.field("derived_radius"), Ok(1u64));
        assert!(derived.field::<u64>("pair_probes").unwrap() > 0);
    }

    #[test]
    fn witness_strings_are_escaped() {
        // Witness strings come from Debug formatting and contain quotes
        // in pathological cases; the writer must keep the document
        // parseable. Build a synthetic diagnostic to exercise escaping.
        let mut a = analyze(
            &PifProtocol::new(ProcId(0), &generators::chain(2).unwrap()),
            &generators::chain(2).unwrap(),
            "pif\"quoted",
            "chain\\2",
        );
        a.protocol = "pif\"quoted".to_string();
        let text = render(std::slice::from_ref(&a));
        let doc = json::parse(&text).unwrap();
        let runs: &[Json] = doc.field("runs").unwrap();
        assert_eq!(runs[0].field("protocol"), Ok("pif\"quoted"));
    }
}
