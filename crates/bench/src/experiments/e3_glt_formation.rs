//! **E3 — Theorem 3.** Starting from any configuration, the protocol
//! creates the `GoodLegalTree` within `8·L_max + 7` rounds.
//!
//! Operationally: measure the rounds until the configuration is a *Good
//! Configuration* (Definition 15 — at which point the legal tree is, by
//! Definition 16, the GLT) **and** stays one for the remainder of a
//! sampled window. The companion measurement records the rounds until the
//! legal tree spans all processors for the first time (the root's counter
//! can only reach `N` after this).

use pif_core::{analysis, initial, PifProtocol, PifState};
use pif_daemon::{RunLimits, Simulator};
use pif_graph::{ProcId, Topology};
use pif_par::par_map;

use crate::report::{Stats, Table};
use crate::workloads::{recovery_suite, DaemonKind};

/// Measures rounds until a stable Good Configuration for one start.
///
/// "Stable" is sampled: after the first GC configuration, the next
/// `check_window` steps must remain GC (they do — GC-ness can only break
/// through abnormal processors, which are gone by then).
pub fn glt_rounds(
    g: &pif_graph::Graph,
    protocol: &PifProtocol,
    init: Vec<PifState>,
    daemon: &mut dyn pif_daemon::Daemon<PifState>,
) -> (u64, bool) {
    let mut sim = Simulator::new(g.clone(), protocol.clone(), init);
    let proto = protocol.clone();
    let graph = g.clone();
    // First: all processors normal AND the configuration good. Normality
    // ensures we are past the transient; a GC without normality can still
    // be destroyed by a later correction.
    let mut glt_formed = move |s: &Simulator<PifProtocol>| {
        analysis::abnormal_procs(&proto, &graph, s.states()).is_empty()
            && analysis::good_configuration(&proto, &graph, s.states())
    };
    let stats = sim
        .run(
            daemon,
            &mut pif_daemon::NoOpObserver,
            pif_daemon::StopPolicy::Predicate(RunLimits::new(2_000_000, 200_000), &mut glt_formed),
        )
        .expect("GLT run exceeded its budget");
    // Sampled stability check.
    let mut stable = true;
    for _ in 0..50 {
        if sim.is_terminal() {
            break;
        }
        sim.step(daemon).expect("step failed");
        if !analysis::good_configuration(protocol, g, sim.states()) {
            stable = false;
            break;
        }
    }
    (stats.rounds, stable)
}

/// One topology's E3 measurements.
#[derive(Clone, Debug)]
pub struct GltRow {
    /// The topology instance.
    pub topology: Topology,
    /// The paper's bound `8·L_max + 7`.
    pub bound: u64,
    /// Statistics of rounds-to-stable-GC.
    pub stats: Stats,
    /// Whether the bound held for every sample and GC remained stable.
    pub ok: bool,
}

/// Runs E3 over the full recovery suite.
pub fn run() -> Table {
    run_on(recovery_suite(), 30)
}

/// Scaled-down entry point.
pub fn run_on(topologies: Vec<Topology>, seeds: u64) -> Table {
    let rows = par_map(topologies, |t| measure(&t, seeds));
    let mut table = Table::new(
        "E3 / Theorem 3 — GoodLegalTree within 8*Lmax+7 rounds",
        &["topology", "bound", "samples", "rounds_mean", "rounds_max", "within_bound"],
    );
    for r in &rows {
        table.row_owned(vec![
            r.topology.to_string(),
            r.bound.to_string(),
            r.stats.n.to_string(),
            format!("{:.1}", r.stats.mean),
            r.stats.max.to_string(),
            if r.ok { "yes" } else { "VIOLATED" }.to_string(),
        ]);
    }
    table
}

/// Measures one topology.
pub fn measure(topology: &Topology, seeds: u64) -> GltRow {
    let g = topology.build().expect("suite topologies are valid");
    let protocol = PifProtocol::new(ProcId(0), &g);
    let bound = 8 * u64::from(protocol.l_max()) + 7;
    let mut samples = Vec::new();
    let mut all_stable = true;
    for seed in 0..seeds {
        for kind in [DaemonKind::Synchronous, DaemonKind::CentralRandom] {
            let init = initial::random_config(&g, &protocol, seed);
            let mut d = kind.build(g.len(), seed);
            let (rounds, stable) = glt_rounds(&g, &protocol, init, d.as_mut());
            samples.push(rounds);
            all_stable &= stable;
        }
    }
    let stats = Stats::of(&samples);
    GltRow {
        topology: topology.clone(),
        bound,
        ok: stats.max <= bound && all_stable,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem3_bound_holds_on_small_suite() {
        for t in [Topology::Ring { n: 6 }, Topology::Star { n: 6 }] {
            let row = measure(&t, 8);
            assert!(row.ok, "{t:?}: max {} > bound {}", row.stats.max, row.bound);
        }
    }
}
