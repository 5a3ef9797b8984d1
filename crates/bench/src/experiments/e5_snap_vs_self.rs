//! **E5 — the Contribution claim (Definition 1).** The snap-stabilizing
//! PIF's *first* wave out of an arbitrary configuration always satisfies
//! \[PIF1\]/\[PIF2\]; the self-stabilizing baseline only guarantees *eventual*
//! correctness, and the non-stabilizing echo guarantees nothing.
//!
//! For every topology in the recovery suite, race the three contestants
//! (plus the tree-restricted snap PIF on trees) over the same seeds:
//! fuzzed initial configurations, seeded random central daemon. Report
//! first-wave delivery rates. Expected shape: snap PIF = 100%, tree
//! snap-PIF = 100% on trees, ss-PIF well below 100%, echo lowest (it also
//! deadlocks).

use pif_baselines::echo::EchoBaseline;
use pif_baselines::ss_pif::SsPifBaseline;
use pif_baselines::tree_pif::TreePifBaseline;
use pif_baselines::FirstWave;
use pif_daemon::RunLimits;
use pif_graph::{ProcId, Topology};
use pif_par::par_map;

use crate::contestants::SnapPifContestant;
use crate::report::Table;
use crate::workloads::recovery_suite;

/// First-wave success counts for one contestant on one topology.
#[derive(Clone, Debug)]
pub struct ContrastRow {
    /// The topology instance.
    pub topology: Topology,
    /// Contestant name.
    pub contestant: &'static str,
    /// Successes from fuzzed starts.
    pub fuzzed_ok: usize,
    /// Fuzzed trials.
    pub fuzzed_total: usize,
    /// Whether the clean-start wave succeeded.
    pub clean_ok: bool,
}

impl ContrastRow {
    /// Success rate over fuzzed starts, in percent.
    pub fn rate(&self) -> f64 {
        if self.fuzzed_total == 0 {
            0.0
        } else {
            100.0 * self.fuzzed_ok as f64 / self.fuzzed_total as f64
        }
    }
}

/// Runs E5 over the full recovery suite.
pub fn run() -> Table {
    run_on(recovery_suite(), 100)
}

/// Scaled-down entry point.
pub fn run_on(topologies: Vec<Topology>, seeds: u64) -> Table {
    let rows: Vec<Vec<ContrastRow>> = par_map(topologies, |t| measure(&t, seeds));
    let mut table = Table::new(
        "E5 — first-wave delivery: snap vs self-stabilizing vs echo",
        &["topology", "contestant", "clean_start", "fuzzed_ok", "fuzzed_total", "rate_%"],
    );
    for group in &rows {
        for r in group {
            table.row_owned(vec![
                r.topology.to_string(),
                r.contestant.to_string(),
                if r.clean_ok { "ok" } else { "FAIL" }.to_string(),
                r.fuzzed_ok.to_string(),
                r.fuzzed_total.to_string(),
                format!("{:.1}", r.rate()),
            ]);
        }
    }
    table
}

/// Measures all contestants on one topology.
pub fn measure(topology: &Topology, seeds: u64) -> Vec<ContrastRow> {
    let g = topology.build().expect("suite topologies are valid");
    let root = ProcId(0);
    let limits = RunLimits::new(500_000, 100_000);
    let is_tree = g.edge_count() == g.len() - 1;

    let mut contestants: Vec<Box<dyn FirstWave + Send + Sync>> = vec![
        Box::new(SnapPifContestant),
        Box::new(SsPifBaseline),
        Box::new(EchoBaseline),
    ];
    if is_tree {
        contestants.push(Box::new(TreePifBaseline));
    }

    contestants
        .into_iter()
        .map(|c| {
            let clean_ok = c.first_wave(&g, root, None, limits).holds();
            let fuzzed_ok = (0..seeds)
                .filter(|&s| c.first_wave(&g, root, Some(s), limits).holds())
                .count();
            ContrastRow {
                topology: topology.clone(),
                contestant: c.name(),
                fuzzed_ok,
                fuzzed_total: seeds as usize,
                clean_ok,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_dominates_on_a_ring() {
        let rows = measure(&Topology::Ring { n: 8 }, 30);
        let snap = rows.iter().find(|r| r.contestant.starts_with("snap")).unwrap();
        let ss = rows.iter().find(|r| r.contestant.contains("self-stabilizing")).unwrap();
        let echo = rows.iter().find(|r| r.contestant.starts_with("echo")).unwrap();
        assert_eq!(snap.fuzzed_ok, snap.fuzzed_total, "snap must be perfect");
        assert!(snap.clean_ok && ss.clean_ok && echo.clean_ok);
        assert!(ss.fuzzed_ok < ss.fuzzed_total, "ss-PIF must fail sometimes");
        assert!(echo.fuzzed_ok < echo.fuzzed_total, "echo must fail sometimes");
    }

    #[test]
    fn tree_contestant_appears_only_on_trees() {
        let tree_rows = measure(&Topology::Chain { n: 6 }, 5);
        assert_eq!(tree_rows.len(), 4);
        let ring_rows = measure(&Topology::Ring { n: 6 }, 5);
        assert_eq!(ring_rows.len(), 3);
    }
}
