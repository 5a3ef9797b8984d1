//! **E2 — Theorem 1 (with Property 3 and Corollary 2).** Starting from an
//! arbitrary configuration, every processor becomes normal within
//! `3·L_max + 3` rounds.
//!
//! For every topology in the recovery suite, fuzz many initial
//! configurations (uniform register fuzzing and the adversarial
//! consistent-fake-tree construction) and measure the number of rounds
//! until no abnormal processor remains, under several daemons. The paper's
//! bound must dominate the worst observation.

use pif_core::{analysis, initial, PifProtocol, PifState};
use pif_daemon::{RunLimits, Simulator};
use pif_graph::{ProcId, Topology};
use pif_par::par_map;

use crate::report::{Stats, Table};
use crate::workloads::{recovery_suite, DaemonKind};

/// Rounds until all-normal, for one topology under fuzzing.
#[derive(Clone, Debug)]
pub struct RecoveryRow {
    /// The topology instance.
    pub topology: Topology,
    /// `L_max` used by the protocol (`N − 1`).
    pub l_max: u16,
    /// The paper's bound `3·L_max + 3`.
    pub bound: u64,
    /// Statistics of the measured recovery rounds.
    pub stats: Stats,
    /// Whether the bound held for every sample.
    pub ok: bool,
}

/// Measures rounds-to-all-normal for one initial configuration.
pub fn recovery_rounds(
    g: &pif_graph::Graph,
    protocol: &PifProtocol,
    init: Vec<PifState>,
    daemon: &mut dyn pif_daemon::Daemon<PifState>,
) -> u64 {
    let mut sim = Simulator::new(g.clone(), protocol.clone(), init);
    let proto = protocol.clone();
    let graph = g.clone();
    let mut recovered = move |s: &Simulator<PifProtocol>| {
        analysis::abnormal_procs(&proto, &graph, s.states()).is_empty()
    };
    let stats = sim
        .run(
            daemon,
            &mut pif_daemon::NoOpObserver,
            pif_daemon::StopPolicy::Predicate(RunLimits::new(2_000_000, 200_000), &mut recovered),
        )
        .expect("recovery run exceeded its budget");
    stats.rounds
}

/// Runs E2 over the full recovery suite with `seeds` fuzzed configurations
/// per topology.
pub fn run() -> Table {
    run_on(recovery_suite(), 40)
}

/// Scaled-down entry point.
pub fn run_on(topologies: Vec<Topology>, seeds: u64) -> Table {
    let rows = par_map(topologies, |t| measure(&t, seeds));
    let mut table = Table::new(
        "E2 / Theorem 1 — all processors normal within 3*Lmax+3 rounds",
        &["topology", "Lmax", "bound", "samples", "rounds_mean", "rounds_max", "within_bound"],
    );
    for r in &rows {
        table.row_owned(vec![
            r.topology.to_string(),
            r.l_max.to_string(),
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
pub fn measure(topology: &Topology, seeds: u64) -> RecoveryRow {
    let g = topology.build().expect("suite topologies are valid");
    let protocol = PifProtocol::new(ProcId(0), &g);
    let l_max = protocol.l_max();
    let bound = 3 * u64::from(l_max) + 3;

    let mut samples = Vec::new();
    for seed in 0..seeds {
        // Uniform fuzzing under three daemons.
        for kind in [DaemonKind::Synchronous, DaemonKind::CentralRandom, DaemonKind::Adversarial]
        {
            let init = initial::random_config(&g, &protocol, seed);
            let mut d = kind.build(g.len(), seed);
            samples.push(recovery_rounds(&g, &protocol, init, d.as_mut()));
        }
        // Adversarial fake trees under the synchronous daemon.
        if g.len() > 1 {
            let fake_root = ProcId(1 + (seed as u32 % (g.len() as u32 - 1)));
            let init = initial::adversarial_config(&g, &protocol, fake_root, seed);
            let mut d = DaemonKind::Synchronous.build(g.len(), seed);
            samples.push(recovery_rounds(&g, &protocol, init, d.as_mut()));
        }
    }
    let stats = Stats::of(&samples);
    RecoveryRow { topology: topology.clone(), l_max, bound, ok: stats.max <= bound, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_bound_holds_on_small_suite() {
        for t in [Topology::Chain { n: 7 }, Topology::Ring { n: 7 }, Topology::Complete { n: 6 }]
        {
            let row = measure(&t, 10);
            assert!(
                row.ok,
                "{t:?}: max {} rounds exceeds bound {}",
                row.stats.max, row.bound
            );
        }
    }
}
