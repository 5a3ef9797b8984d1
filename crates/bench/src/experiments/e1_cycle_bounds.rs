//! **E1 — Theorem 4.** Starting from the normal starting (SBN)
//! configuration, a PIF cycle completes in at most `5h + 5` rounds, where
//! `h` is the height of the tree constructed during the cycle; `h` is
//! bounded by the longest elementary chordless path and is `Ω(diameter)`.
//!
//! For every topology in the size sweep and every daemon in the panel, run
//! one full cycle from SBN and compare the measured rounds against the
//! bound computed from the *measured* `h` of that same run.

use pif_core::wave::{UnitAggregate, WaveRunner};
use pif_core::PifProtocol;
use pif_daemon::RunLimits;
use pif_graph::{chordless, metrics, ProcId, Topology};
use pif_par::par_map;

use crate::report::Table;
use crate::workloads::{size_sweep, DaemonKind};

/// One topology's measurements.
#[derive(Clone, Debug)]
pub struct CycleRow {
    /// The topology instance.
    pub topology: Topology,
    /// Network size.
    pub n: usize,
    /// Graph diameter.
    pub diameter: u32,
    /// Longest chordless path length (lower bound if search was budgeted).
    pub lcp: usize,
    /// Whether the chordless-path search was exact.
    pub lcp_exact: bool,
    /// Worst (max) observed tree height across the daemon panel.
    pub h_max: u32,
    /// Worst (max) observed cycle rounds across the daemon panel.
    pub rounds_max: u64,
    /// The bound `5·h + 5` evaluated at the `h` of the worst run.
    pub bound_at_worst: u64,
    /// Whether every run respected its own `5h + 5` bound.
    pub bound_ok: bool,
    /// Whether every run's `h` respected `h ≤ lcp` (only judged when the
    /// lcp search was exact).
    pub h_ok: bool,
}

/// Runs E1 over the full size sweep.
pub fn run() -> Table {
    run_on(size_sweep(), 3)
}

/// Runs E1 over the given topologies with `seeds` random-daemon seeds per
/// point (scaled-down entry point for tests).
pub fn run_on(topologies: Vec<Topology>, seeds: u64) -> Table {
    let rows = par_map(topologies, |t| measure(&t, seeds));
    let mut table = Table::new(
        "E1 / Theorem 4 — PIF cycle from SBN takes at most 5h+5 rounds",
        &[
            "topology", "N", "diam", "lcp", "h_max", "rounds_max", "5h+5", "rounds<=bound",
            "h<=lcp",
        ],
    );
    for r in &rows {
        table.row_owned(vec![
            r.topology.to_string(),
            r.n.to_string(),
            r.diameter.to_string(),
            if r.lcp_exact { r.lcp.to_string() } else { format!(">={}", r.lcp) },
            r.h_max.to_string(),
            r.rounds_max.to_string(),
            r.bound_at_worst.to_string(),
            if r.bound_ok { "yes" } else { "VIOLATED" }.to_string(),
            if !r.lcp_exact {
                "n/a".to_string()
            } else if r.h_ok {
                "yes".to_string()
            } else {
                "VIOLATED".to_string()
            },
        ]);
    }
    table
}

/// Measures one topology across the daemon panel.
pub fn measure(topology: &Topology, seeds: u64) -> CycleRow {
    let g = topology.build().expect("sweep topologies are valid");
    let n = g.len();
    let diameter = metrics::diameter(&g);
    let lcp_search = chordless::longest(&g, 2_000_000);
    let root = ProcId(0);

    let mut h_max = 0u32;
    let mut rounds_max = 0u64;
    let mut bound_at_worst = 5;
    let mut bound_ok = true;
    let mut h_ok = true;

    let mut daemons: Vec<Box<dyn pif_daemon::Daemon<pif_core::PifState>>> = Vec::new();
    daemons.push(DaemonKind::Synchronous.build(n, 0));
    daemons.push(DaemonKind::CentralSeq.build(n, 0));
    daemons.push(DaemonKind::Adversarial.build(n, 7));
    for s in 0..seeds {
        daemons.push(DaemonKind::CentralRandom.build(n, s));
        daemons.push(DaemonKind::DistributedHalf.build(n, s));
    }

    for mut d in daemons {
        let protocol = PifProtocol::new(root, &g);
        let mut runner = WaveRunner::new(g.clone(), protocol, UnitAggregate);
        let outcome = runner
            .run_cycle_limited(1u8, d.as_mut(), RunLimits::new(5_000_000, 1_000_000))
            .expect("cycle run failed");
        assert!(outcome.satisfies_spec(), "PIF spec violated on {topology:?}");
        let h = u64::from(outcome.height);
        let bound = 5 * h + 5;
        if outcome.cycle_rounds > bound {
            bound_ok = false;
        }
        if lcp_search.exact && outcome.height as usize > lcp_search.length().max(1) {
            h_ok = false;
        }
        if outcome.cycle_rounds > rounds_max {
            rounds_max = outcome.cycle_rounds;
            bound_at_worst = bound;
        }
        h_max = h_max.max(outcome.height);
    }

    CycleRow {
        topology: topology.clone(),
        n,
        diameter,
        lcp: lcp_search.length(),
        lcp_exact: lcp_search.exact,
        h_max,
        rounds_max,
        bound_at_worst,
        bound_ok,
        h_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_hold_on_small_suite() {
        let table = run_on(
            vec![
                Topology::Chain { n: 8 },
                Topology::Ring { n: 8 },
                Topology::Star { n: 8 },
                Topology::Complete { n: 6 },
                Topology::Grid { w: 3, h: 3 },
            ],
            2,
        );
        let rendered = table.render();
        assert!(!rendered.contains("VIOLATED"), "{rendered}");
    }

    #[test]
    fn chain_height_equals_n_minus_1() {
        let row = measure(&Topology::Chain { n: 10 }, 1);
        assert_eq!(row.h_max, 9);
        assert!(row.bound_ok);
        assert!(row.h_ok);
    }
}
