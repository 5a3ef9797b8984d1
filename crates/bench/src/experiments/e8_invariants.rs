//! **E8 — Properties 1 and 2.** The paper's invariants hold in every
//! configuration along every execution: Property 1 in all configurations,
//! Property 2 in all *normal* configurations (it is stated for those).
//!
//! Attach the invariant monitor to (a) clean cycles on every topology ×
//! daemon (with the chordless check, which is sound from clean starts)
//! and (b) recovery executions from fuzzed configurations (without it),
//! and count checked steps and violations. Expected: zero violations over
//! hundreds of thousands of checked configurations.

use pif_core::analysis::InvariantMonitor;
use pif_core::{initial, PifProtocol};
use pif_daemon::{RunLimits, Simulator};
use pif_graph::{ProcId, Topology};
use pif_par::par_map;

use crate::report::Table;
use crate::workloads::{recovery_suite, DaemonKind};

/// One topology's monitoring totals.
#[derive(Clone, Debug)]
pub struct InvariantRow {
    /// The topology instance.
    pub topology: Topology,
    /// Steps whose post-configuration was checked.
    pub steps_checked: u64,
    /// Violations of Property 1.
    pub p1_violations: usize,
    /// Violations of Property 2.
    pub p2_violations: usize,
    /// Violations of chordless parent paths (clean runs only).
    pub chordless_violations: usize,
}

/// Runs E8 over the full recovery suite.
pub fn run() -> Table {
    run_on(recovery_suite(), 20)
}

/// Scaled-down entry point.
pub fn run_on(topologies: Vec<Topology>, seeds: u64) -> Table {
    let rows = par_map(topologies, |t| measure(&t, seeds));
    let mut table = Table::new(
        "E8 / Properties 1-2 — invariant monitoring (expect zero violations)",
        &["topology", "steps_checked", "P1_viol", "P2_viol", "chordless_viol"],
    );
    for r in &rows {
        table.row_owned(vec![
            r.topology.to_string(),
            r.steps_checked.to_string(),
            r.p1_violations.to_string(),
            r.p2_violations.to_string(),
            r.chordless_violations.to_string(),
        ]);
    }
    table
}

/// Measures one topology.
pub fn measure(topology: &Topology, seeds: u64) -> InvariantRow {
    let g = topology.build().expect("suite topologies are valid");
    let root = ProcId(0);
    let protocol = PifProtocol::new(root, &g);
    let mut steps_checked = 0u64;
    let mut p1 = 0usize;
    let mut p2 = 0usize;
    let mut ch = 0usize;

    let mut absorb = |monitor: &InvariantMonitor| {
        steps_checked += monitor.steps_seen();
        for v in monitor.violations() {
            match v.invariant {
                "Property 1" => p1 += 1,
                "Property 2" => p2 += 1,
                _ => ch += 1,
            }
        }
    };

    // (a) Clean cycles, chordless check on.
    for kind in DaemonKind::ALL {
        let mut d = kind.build(g.len(), 1);
        let init = initial::normal_starting(&g);
        let mut sim = Simulator::new(g.clone(), protocol.clone(), init);
        let mut monitor = InvariantMonitor::new(protocol.clone()).with_chordless_check();
        let mut target = |s: &Simulator<PifProtocol>| {
            s.steps() > 0 && initial::is_normal_starting(s.states())
        };
        sim.run(
            d.as_mut(),
            &mut monitor,
            pif_daemon::StopPolicy::Predicate(RunLimits::new(2_000_000, 500_000), &mut target),
        )
        .expect("clean cycle failed");
        absorb(&monitor);
    }

    // (b) Recovery runs from fuzzed configurations, chordless check off
    // (corrupted trees may legitimately contain chords until corrected).
    for seed in 0..seeds {
        for kind in [DaemonKind::Synchronous, DaemonKind::CentralRandom] {
            let mut d = kind.build(g.len(), seed);
            let init = initial::random_config(&g, &protocol, seed);
            let mut sim = Simulator::new(g.clone(), protocol.clone(), init);
            let mut monitor = InvariantMonitor::new(protocol.clone());
            // Run through recovery and one subsequent full cycle.
            let proto = protocol.clone();
            let graph = g.clone();
            let mut seen_clean = false;
            let mut target = move |s: &Simulator<PifProtocol>| {
                if initial::is_normal_starting(s.states()) {
                    seen_clean = true;
                }
                seen_clean
                    && pif_core::analysis::abnormal_procs(&proto, &graph, s.states()).is_empty()
            };
            sim.run(
                d.as_mut(),
                &mut monitor,
                pif_daemon::StopPolicy::Predicate(RunLimits::new(2_000_000, 500_000), &mut target),
            )
            .expect("recovery run failed");
            absorb(&monitor);
        }
    }

    InvariantRow {
        topology: topology.clone(),
        steps_checked,
        p1_violations: p1,
        p2_violations: p2,
        chordless_violations: ch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_violations_on_small_suite() {
        for t in [Topology::Ring { n: 6 }, Topology::Grid { w: 3, h: 2 }] {
            let row = measure(&t, 5);
            assert!(row.steps_checked > 0);
            assert_eq!(row.p1_violations, 0, "{t:?}");
            assert_eq!(row.p2_violations, 0, "{t:?}");
            assert_eq!(row.chordless_violations, 0, "{t:?}");
        }
    }
}
