//! **E4 — Theorem 2.** With a non-empty legal tree, classified starting
//! configurations reach their landmark configurations within the stated
//! round bounds:
//!
//! 1. `Pif_r = F` → a Start Broadcast (SB) configuration within
//!    `4·L_max + 4` rounds;
//! 2. `Pif_r = B ∧ Fok_r` → an End Feedback (EF) configuration within
//!    `5·L_max + 4` rounds;
//! 3. `Pif_r = B ∧ ¬Fok_r` → an End Broadcast Normal (EBN) configuration
//!    within `5·L_max + 4` rounds.
//!
//! Starting configurations are the adversarial fake-tree corruption with
//! the root's registers forced into each case (kept locally normal, as the
//! theorem's hypotheses require a live legal tree).

use pif_chaos::{correction_bound, run_goal, Goal};
use pif_core::PifProtocol;
use pif_daemon::PhaseTag;
use pif_graph::{ProcId, Topology};
use pif_par::par_map;

use crate::report::{Stats, Table};
use crate::workloads::{recovery_suite, DaemonKind};

/// The report label of one case of Theorem 2.
pub fn label(case: Goal) -> &'static str {
    match case {
        Goal::RootF => "1: Pif_r=F -> SB",
        Goal::RootBFok => "2: Pif_r=B&Fok -> EF",
        Goal::RootBNoFok => "3: Pif_r=B&!Fok -> EBN",
    }
}

/// One (topology × case) row.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// The topology instance.
    pub topology: Topology,
    /// Which case of Theorem 2.
    pub case: Goal,
    /// The paper's bound.
    pub bound: u64,
    /// The Theorem 1 bound `3·L_max + 3` on correction-phase rounds.
    pub corr_bound: u64,
    /// Measured statistics.
    pub stats: Stats,
    /// Maximum rounds attributed to each [`PhaseTag`] across all samples,
    /// indexed by [`PhaseTag::index`].
    pub phase_rounds_max: [u64; PhaseTag::COUNT],
    /// Whether every sample respected both the case bound and the
    /// correction bound.
    pub ok: bool,
}

impl PhaseRow {
    /// Maximum rounds attributed to `tag` across the row's samples.
    pub fn phase_rounds_of(&self, tag: PhaseTag) -> u64 {
        self.phase_rounds_max[tag.index()]
    }
}

/// Runs E4 over the full recovery suite.
pub fn run() -> Table {
    run_on(recovery_suite(), 25)
}

/// Scaled-down entry point.
pub fn run_on(topologies: Vec<Topology>, seeds: u64) -> Table {
    let jobs: Vec<(Topology, Goal)> = topologies
        .into_iter()
        .flat_map(|t| Goal::ALL.into_iter().map(move |c| (t.clone(), c)))
        .collect();
    let rows = par_map(jobs, |(t, c)| measure(&t, c, seeds));
    let mut table = Table::new(
        "E4 / Theorem 2 — classified starts reach their landmarks in bounded rounds",
        &[
            "topology",
            "case",
            "bound",
            "samples",
            "rounds_mean",
            "rounds_max",
            "bcast_r",
            "fok_r",
            "fback_r",
            "clean_r",
            "corr_r",
            "corr_bound",
            "within_bound",
        ],
    );
    for r in &rows {
        table.row_owned(vec![
            r.topology.to_string(),
            label(r.case).to_string(),
            r.bound.to_string(),
            r.stats.n.to_string(),
            format!("{:.1}", r.stats.mean),
            r.stats.max.to_string(),
            r.phase_rounds_of(PhaseTag::Broadcast).to_string(),
            r.phase_rounds_of(PhaseTag::Fok).to_string(),
            r.phase_rounds_of(PhaseTag::Feedback).to_string(),
            r.phase_rounds_of(PhaseTag::Cleaning).to_string(),
            r.phase_rounds_of(PhaseTag::Correction).to_string(),
            r.corr_bound.to_string(),
            if r.ok { "yes" } else { "VIOLATED" }.to_string(),
        ]);
    }
    table
}

/// Measures one topology × case.
pub fn measure(topology: &Topology, case: Goal, seeds: u64) -> PhaseRow {
    let g = topology.build().expect("suite topologies are valid");
    let protocol = PifProtocol::new(ProcId(0), &g);
    let bound = case.bound(protocol.l_max());
    let corr_bound = correction_bound(protocol.l_max());
    let mut samples = Vec::new();
    let mut phase_rounds_max = [0u64; PhaseTag::COUNT];
    for seed in 0..seeds {
        for kind in [DaemonKind::Synchronous, DaemonKind::CentralRandom] {
            let mut d = kind.build(g.len(), seed);
            let (rounds, phases) = run_goal(case, &g, &protocol, seed, d.as_mut());
            samples.push(rounds);
            for tag in PhaseTag::ALL {
                let r = &mut phase_rounds_max[tag.index()];
                *r = (*r).max(phases.rounds_of(tag));
            }
        }
    }
    let stats = Stats::of(&samples);
    let ok = stats.max <= bound && phase_rounds_max[PhaseTag::Correction.index()] <= corr_bound;
    PhaseRow {
        topology: topology.clone(),
        case,
        bound,
        corr_bound,
        stats,
        phase_rounds_max,
        ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem2_bounds_hold_on_small_suite() {
        for t in [Topology::Chain { n: 6 }, Topology::Ring { n: 6 }] {
            for case in Goal::ALL {
                let row = measure(&t, case, 6);
                assert!(
                    row.ok,
                    "{t:?} {}: max {} > bound {} (or correction rounds {} > {})",
                    label(case),
                    row.stats.max,
                    row.bound,
                    row.phase_rounds_of(PhaseTag::Correction),
                    row.corr_bound,
                );
                // The run did attributable work: at least one phase saw a
                // completed round, and no single phase exceeds the bound.
                assert!(PhaseTag::ALL.iter().any(|t| row.phase_rounds_of(*t) > 0));
                for tag in PhaseTag::ALL {
                    assert!(row.phase_rounds_of(tag) <= row.bound);
                }
            }
        }
    }
}
