//! **E12 — fault-severity sweep (beyond the paper).** Corrupt exactly `k`
//! registers of the normal starting configuration and measure, as a
//! function of `k`: the first-wave success rate (the snap property
//! predicts a flat 100% — severity must not matter) and the rounds until
//! every processor is normal again (expected to grow with `k` but stay
//! under Theorem 1's bound).

use pif_core::{analysis, checker, initial, PifProtocol};
use pif_daemon::{RunLimits, Simulator};
use pif_graph::{ProcId, Topology};
use pif_par::par_map;

use crate::report::{Stats, Table};
use crate::workloads::DaemonKind;

/// One (topology × k) row.
#[derive(Clone, Debug)]
pub struct SeverityRow {
    /// The topology instance.
    pub topology: Topology,
    /// Number of corrupted registers.
    pub k: usize,
    /// First waves that satisfied the PIF specification.
    pub snap_ok: usize,
    /// Trials.
    pub trials: usize,
    /// Recovery-round statistics.
    pub recovery: Stats,
    /// Theorem 1 bound.
    pub bound: u64,
}

/// Runs E12 with the default parameters.
pub fn run() -> Table {
    run_on(
        vec![
            Topology::Ring { n: 12 },
            Topology::Grid { w: 4, h: 3 },
            Topology::Random { n: 12, p: 0.2, seed: 9 },
        ],
        &[0, 1, 2, 4, 8, 16, 32],
        40,
    )
}

/// Parameterized entry point.
pub fn run_on(topologies: Vec<Topology>, ks: &[usize], trials: u64) -> Table {
    let jobs: Vec<(Topology, usize)> = topologies
        .into_iter()
        .flat_map(|t| ks.iter().map(move |&k| (t.clone(), k)))
        .collect();
    let rows = par_map(jobs, |(t, k)| measure(&t, k, trials));
    let mut table = Table::new(
        "E12 — fault severity: k corrupted registers vs first-wave success and recovery",
        &["topology", "k", "snap_ok", "trials", "recovery_mean", "recovery_max", "3Lmax+3"],
    );
    for r in &rows {
        table.row_owned(vec![
            r.topology.to_string(),
            r.k.to_string(),
            r.snap_ok.to_string(),
            r.trials.to_string(),
            format!("{:.1}", r.recovery.mean),
            r.recovery.max.to_string(),
            r.bound.to_string(),
        ]);
    }
    table
}

/// Measures one (topology, k) point.
pub fn measure(topology: &Topology, k: usize, trials: u64) -> SeverityRow {
    let g = topology.build().expect("suite topologies are valid");
    let protocol = PifProtocol::new(ProcId(0), &g);
    let bound = 3 * u64::from(protocol.l_max()) + 3;
    let mut snap_ok = 0usize;
    let mut recovery = Vec::new();
    for seed in 0..trials {
        let mut init = initial::normal_starting(&g);
        initial::corrupt_registers(&mut init, &g, &protocol, k, seed);

        // First-wave verdict.
        let mut d = DaemonKind::CentralRandom.build(g.len(), seed);
        let report = checker::check_first_wave(
            g.clone(),
            protocol.clone(),
            init.clone(),
            d.as_mut(),
            RunLimits::new(500_000, 100_000),
        )
        .expect("checker run failed");
        if report.holds() {
            snap_ok += 1;
        }

        // Recovery rounds under the synchronous daemon.
        let mut sim = Simulator::new(g.clone(), protocol.clone(), init);
        let proto = protocol.clone();
        let graph = g.clone();
        let mut recovered =
            move |s: &Simulator<pif_core::PifProtocol>| {
                analysis::abnormal_procs(&proto, &graph, s.states()).is_empty()
            };
        let stats = sim
            .run(
                DaemonKind::Synchronous.build(g.len(), seed).as_mut(),
                &mut pif_daemon::NoOpObserver,
                pif_daemon::StopPolicy::Predicate(RunLimits::new(500_000, 100_000), &mut recovered),
            )
            .expect("recovery run failed");
        recovery.push(stats.rounds);
    }
    SeverityRow {
        topology: topology.clone(),
        k,
        snap_ok,
        trials: trials as usize,
        recovery: Stats::of(&recovery),
        bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_rate_is_flat_at_100_percent() {
        for k in [0usize, 2, 6, 20] {
            let row = measure(&Topology::Ring { n: 8 }, k, 12);
            assert_eq!(row.snap_ok, row.trials, "k = {k}");
            assert!(row.recovery.max <= row.bound, "k = {k}");
        }
    }

    #[test]
    fn zero_corruption_needs_zero_recovery() {
        let row = measure(&Topology::Grid { w: 3, h: 2 }, 0, 5);
        assert_eq!(row.recovery.max, 0);
    }
}
