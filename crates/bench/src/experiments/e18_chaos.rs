//! **E18 — chaos: churn, adversarial schedules, SLO soaks (beyond the
//! paper).** Two measurements from `pif-chaos`:
//!
//! 1. **SLO-graded soak grid**: campaigns over {clean, churn,
//!    churn+corruption} per topology, graded by post-disturbance
//!    availability — the fraction of requests completing a correct cycle
//!    within `slo_k · diameter` rounds. The operational snap claim
//!    predicts steady-state availability `n/n` on every connected
//!    topology, *including across topology reconfigurations*.
//! 2. **Adversarial schedule search**: the seeded beam search over
//!    weakly fair schedules, reported against the fixed-daemon panel
//!    (E4's spectrum plus the LIFO adversary) and Theorems 1/2's round
//!    windows. The claims: the search matches or beats the panel's worst
//!    case on at least one instance, and *no* searched schedule ever
//!    exceeds a theorem window.
//!
//! The full matrix with wall-clock figures is the `pif-chaos bench`
//! binary (committed as `BENCH_chaos_slo.json`); this experiment keeps
//! the deterministic slice the integration tests assert on.

use pif_chaos::{
    run_campaign, search, CampaignConfig, ChurnSpec, Goal, SearchConfig, SearchReport,
};
use pif_graph::{generators, ProcId, Topology};
use pif_par::par_map;
use pif_serve::Engine;

use crate::report::Table;

/// The soak grid: per topology, a clean control, a churned campaign, and
/// a churned + corrupted one (the corrupted cell runs on the non-default
/// `AoS` engine so the grid also exercises the rebuild path of both
/// backends).
pub fn campaign_grid() -> Vec<CampaignConfig> {
    let families =
        [Topology::Ring { n: 8 }, Topology::Grid { w: 3, h: 3 }, Topology::Torus { w: 3, h: 3 }];
    let mut cells = Vec::new();
    for (i, topology) in families.into_iter().enumerate() {
        let base = CampaignConfig::new(topology, 18 + i as u64);
        cells.push(base.clone());
        let mut churned = base.clone();
        churned.churn = Some(ChurnSpec { epochs: 2, per_epoch: 2, seed: 0xE18 + i as u64 });
        cells.push(churned.clone());
        let mut stormy = churned;
        stormy.corrupt_registers = 3;
        stormy.engine = Engine::Aos;
        cells.push(stormy);
    }
    cells
}

/// Runs the soak half of E18.
pub fn run() -> Table {
    let cells = par_map(campaign_grid(), |cfg| {
        let cell = run_campaign(&cfg).expect("campaign failed");
        assert!(cell.snap_ok, "{}: snap violated under chaos", cell.topology);
        cell
    });
    let mut table = Table::new(
        "E18 — chaos soaks: availability under churn and corruption (steady column must be n/n)",
        &[
            "topology",
            "engine",
            "churn app/ref",
            "corrupt_k",
            "requests",
            "ok",
            "retired",
            "post_slo",
            "steady_slo",
            "p50/p99 steps",
        ],
    );
    for c in &cells {
        table.row_owned(vec![
            c.topology.clone(),
            c.engine.clone(),
            format!("{}/{}", c.churn_applied, c.churn_skipped),
            c.corrupt_registers.to_string(),
            c.requests_total.to_string(),
            c.completed_ok.to_string(),
            c.shed_retired.to_string(),
            format!("{}/{}", c.post_within_slo, c.post_total),
            format!("{}/{}", c.steady_within_slo, c.steady_total),
            format!("{}/{}", c.p50_turnaround_steps, c.p99_turnaround_steps),
        ]);
    }
    table
}

/// The searched instances: small recovery graphs where a few hundred
/// evaluations already explore a meaningful slice of schedule space.
fn search_jobs() -> Vec<(&'static str, pif_graph::Graph, Goal)> {
    let chain = generators::chain(6).expect("valid");
    let ring = generators::ring(6).expect("valid");
    let mut jobs = Vec::new();
    for goal in Goal::ALL {
        jobs.push(("chain:6", chain.clone(), goal));
        jobs.push(("ring:6", ring.clone(), goal));
    }
    jobs
}

/// Runs the adversarial-search half of E18 and returns the reports with
/// the rendered table (callers assert on the reports).
pub fn run_search_reports() -> (Vec<(&'static str, SearchReport)>, Table) {
    let reports = par_map(search_jobs(), |(name, g, goal)| {
        (name, search(goal, &g, ProcId(0), 0xE18, &SearchConfig::default()))
    });
    let mut table = Table::new(
        "E18 — adversarial schedule search vs the fixed-daemon panel and the theorem windows",
        &[
            "topology",
            "goal",
            "best_rounds",
            "bound",
            "panel_rounds",
            "panel_daemon",
            "corr_rounds",
            "corr_window",
            "evaluations",
            "verdict",
        ],
    );
    for (name, r) in &reports {
        table.row_owned(vec![
            (*name).to_string(),
            r.goal.name().to_string(),
            r.best_rounds.to_string(),
            r.bound.to_string(),
            r.baseline_rounds.to_string(),
            r.baseline_daemon.to_string(),
            r.best_corr_rounds.to_string(),
            r.corr_bound.to_string(),
            r.evaluations.to_string(),
            match (r.all_within_bounds, r.beats_panel()) {
                (false, _) => "BOUND BROKEN".to_string(),
                (true, true) => "ok, ≥ panel".to_string(),
                (true, false) => "ok, < panel".to_string(),
            },
        ]);
    }
    (reports, table)
}

/// Runs the adversarial-search half of E18.
pub fn run_search() -> Table {
    run_search_reports().1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churned_campaigns_grade_steady_availability_n_of_n() {
        let mut cfg = CampaignConfig::new(Topology::Ring { n: 8 }, 18);
        cfg.churn = Some(ChurnSpec { epochs: 2, per_epoch: 2, seed: 0xE18 });
        cfg.corrupt_registers = 2;
        let cell = run_campaign(&cfg).unwrap();
        assert!(cell.snap_ok);
        assert!(cell.steady_total > 0);
        assert_eq!(cell.steady_within_slo, cell.steady_total);
    }

    #[test]
    fn search_beats_the_panel_somewhere_and_never_breaks_a_window() {
        // The acceptance criterion of the chaos searcher, on a scaled-down
        // search budget.
        let small =
            SearchConfig { depth: 24, population: 6, beam: 3, branch: 2, generations: 3, fairness_bound: 0 };
        let g = generators::chain(6).unwrap();
        let mut beats = false;
        for goal in Goal::ALL {
            let r = search(goal, &g, ProcId(0), 0xE18, &small);
            assert!(r.all_within_bounds, "{}: schedule broke a theorem window", goal.name());
            beats |= r.beats_panel();
        }
        assert!(beats, "search never matched the fixed panel's worst case");
    }
}
