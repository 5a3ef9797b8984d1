//! **E6 — the chordless-path lemma of Theorem 4.** The `Potential_p`
//! macro only ever creates chordless parent paths, hence the height `h`
//! of the constructed tree is bounded by the longest elementary chordless
//! path; `h` is also at least the root's eccentricity (so `h ∈
//! Ω(diameter)`).
//!
//! For every topology: run cycles from SBN under the daemon panel,
//! checking *every* intermediate configuration for chordless parent
//! paths, and compare the observed `h` range against eccentricity and the
//! longest chordless path.

use pif_core::analysis::InvariantMonitor;
use pif_core::wave::{UnitAggregate, WaveRunner};
use pif_core::{initial, PifProtocol};
use pif_daemon::{RunLimits, Simulator};
use pif_graph::{chordless, metrics, ProcId, Topology};
use pif_par::par_map;

use crate::report::Table;
use crate::workloads::{DaemonKind};

/// One topology's E6 measurements.
#[derive(Clone, Debug)]
pub struct ChordlessRow {
    /// The topology instance.
    pub topology: Topology,
    /// Eccentricity of the root (lower bound on `h`).
    pub root_ecc: u32,
    /// Longest chordless path length.
    pub lcp: usize,
    /// Whether the lcp search was exact.
    pub lcp_exact: bool,
    /// Minimum observed height across the panel.
    pub h_min: u32,
    /// Maximum observed height across the panel.
    pub h_max: u32,
    /// Whether every intermediate configuration had only chordless parent
    /// paths.
    pub chordless_ok: bool,
    /// Whether `ecc(root) ≤ h ≤ lcp` held in every run (lcp side judged
    /// only when exact).
    pub range_ok: bool,
}

/// The default topology list: emphasizes graphs where chords exist.
pub fn default_suite() -> Vec<Topology> {
    vec![
        Topology::Ring { n: 16 },
        Topology::Complete { n: 10 },
        Topology::Wheel { n: 12 },
        Topology::Lollipop { clique: 6, tail: 8 },
        Topology::Torus { w: 4, h: 4 },
        Topology::Hypercube { d: 4 },
        Topology::Grid { w: 5, h: 4 },
        Topology::Random { n: 16, p: 0.25, seed: 3 },
        Topology::Chain { n: 16 },
    ]
}

/// Runs E6 over the default suite.
pub fn run() -> Table {
    run_on(default_suite(), 4)
}

/// Scaled-down entry point.
pub fn run_on(topologies: Vec<Topology>, seeds: u64) -> Table {
    let rows = par_map(topologies, |t| measure(&t, seeds));
    let mut table = Table::new(
        "E6 / Theorem 4 lemma — parent paths are chordless; ecc(r) <= h <= lcp",
        &["topology", "ecc(r)", "lcp", "h_min", "h_max", "paths_chordless", "range_ok"],
    );
    for r in &rows {
        table.row_owned(vec![
            r.topology.to_string(),
            r.root_ecc.to_string(),
            if r.lcp_exact { r.lcp.to_string() } else { format!(">={}", r.lcp) },
            r.h_min.to_string(),
            r.h_max.to_string(),
            if r.chordless_ok { "yes" } else { "VIOLATED" }.to_string(),
            if r.range_ok { "yes" } else { "VIOLATED" }.to_string(),
        ]);
    }
    table
}

/// Measures one topology.
pub fn measure(topology: &Topology, seeds: u64) -> ChordlessRow {
    let g = topology.build().expect("suite topologies are valid");
    let root = ProcId(0);
    let root_ecc = metrics::eccentricity(&g, root);
    let lcp = chordless::longest(&g, 2_000_000);

    let mut h_min = u32::MAX;
    let mut h_max = 0u32;
    let mut chordless_ok = true;
    let mut range_ok = true;

    let mut daemons: Vec<Box<dyn pif_daemon::Daemon<pif_core::PifState>>> = vec![
        DaemonKind::Synchronous.build(g.len(), 0),
        DaemonKind::CentralSeq.build(g.len(), 0),
        DaemonKind::Adversarial.build(g.len(), 1),
    ];
    for s in 0..seeds {
        daemons.push(DaemonKind::CentralRandom.build(g.len(), s));
    }

    for mut d in daemons {
        // Invariant-monitored cycle: chordlessness checked at every step.
        let protocol = PifProtocol::new(root, &g);
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
        .expect("cycle failed");
        if !monitor.violations().is_empty() {
            chordless_ok = false;
        }

        // Height-measured cycle via the wave runner (fresh daemon state is
        // fine: all panel daemons are memoryless across cycles).
        let protocol = PifProtocol::new(root, &g);
        let mut runner = WaveRunner::new(g.clone(), protocol, UnitAggregate);
        let outcome = runner
            .run_cycle_limited(1u8, d.as_mut(), RunLimits::new(2_000_000, 500_000))
            .expect("cycle failed");
        assert!(outcome.satisfies_spec());
        h_min = h_min.min(outcome.height);
        h_max = h_max.max(outcome.height);
        if outcome.height < root_ecc {
            range_ok = false;
        }
        if lcp.exact && outcome.height as usize > lcp.length().max(1) {
            range_ok = false;
        }
    }

    ChordlessRow {
        topology: topology.clone(),
        root_ecc,
        lcp: lcp.length(),
        lcp_exact: lcp.exact,
        h_min,
        h_max,
        chordless_ok,
        range_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chordless_lemma_holds_on_chorded_graphs() {
        for t in [
            Topology::Complete { n: 6 },
            Topology::Wheel { n: 8 },
            Topology::Ring { n: 8 },
        ] {
            let row = measure(&t, 2);
            assert!(row.chordless_ok, "{t:?}");
            assert!(row.range_ok, "{t:?}: h in [{}, {}]", row.h_min, row.h_max);
        }
    }

    #[test]
    fn complete_graph_height_is_one() {
        let row = measure(&Topology::Complete { n: 8 }, 2);
        assert_eq!(row.h_max, 1, "minimal-level Potential forces a star");
    }
}
