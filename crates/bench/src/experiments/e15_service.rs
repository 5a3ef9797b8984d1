//! **E15 — wave-service throughput (beyond the paper).** Serve a fixed
//! request stream through `pif-serve` and measure, as a function of
//! initiators × shards × corruption rate: completed requests, in-flight
//! casualties, the post-fault success rate (the operational snap claim
//! predicts a flat 100%), and per-cycle latency in rounds.
//!
//! The full sweep with wall-clock throughput and per-phase latency
//! histograms is the `pif-serve bench` binary (committed as
//! `BENCH_service_throughput.json`); this experiment keeps the
//! deterministic slice that the integration tests can assert on.

use pif_graph::Topology;
use pif_par::par_map;
use pif_serve::{run_scenario, spread_initiators, Scenario, ServeDaemon, ServiceReport};

use crate::report::{Stats, Table};

/// One (topology × initiators × shards × corruption) cell.
#[derive(Clone, Debug)]
pub struct ServiceRow {
    /// The topology instance.
    pub topology: Topology,
    /// Lanes (initiators).
    pub initiators: usize,
    /// Worker shards.
    pub shards: usize,
    /// Registers corrupted per lane per campaign (0 = fault-free).
    pub corrupt_k: usize,
    /// Requests served.
    pub requests: u64,
    /// Requests completing with \[PIF1\] ∧ \[PIF2\].
    pub completed_ok: u64,
    /// In-flight requests a fault cost.
    pub casualties: u64,
    /// Requests covered by the snap claim.
    pub post_fault_total: u64,
    /// Of those, correct ones (the claim: equal to `post_fault_total`).
    pub post_fault_ok: u64,
    /// Cycle-duration statistics (rounds, root `B` → root `F`).
    pub cycle_rounds: Stats,
}

/// Runs E15 with the default parameters.
pub fn run() -> Table {
    run_on(
        vec![Topology::Torus { w: 4, h: 4 }, Topology::Random { n: 16, p: 0.2, seed: 15 }],
        &[2, 4],
        &[1, 2],
        &[0, 8],
        60,
    )
}

/// Parameterized entry point.
pub fn run_on(
    topologies: Vec<Topology>,
    initiators: &[usize],
    shards: &[usize],
    corrupt_ks: &[usize],
    requests: u64,
) -> Table {
    let jobs: Vec<(Topology, usize, usize, usize)> = topologies
        .into_iter()
        .flat_map(|t| {
            initiators.iter().flat_map(move |&i| {
                let t = t.clone();
                shards.iter().flat_map(move |&s| {
                    let t = t.clone();
                    corrupt_ks.iter().map(move |&k| (t.clone(), i, s, k))
                })
            })
        })
        .collect();
    let rows = par_map(jobs, |(t, i, s, k)| measure(&t, i, s, k, requests));
    let mut table = Table::new(
        "E15 — wave service: throughput and snap under load (initiators x shards x corruption)",
        &[
            "topology",
            "initiators",
            "shards",
            "corrupt_k",
            "requests",
            "ok",
            "casualties",
            "post_fault_ok/total",
            "cycle_rounds_mean",
            "cycle_rounds_max",
        ],
    );
    for r in &rows {
        table.row_owned(vec![
            r.topology.to_string(),
            r.initiators.to_string(),
            r.shards.to_string(),
            r.corrupt_k.to_string(),
            r.requests.to_string(),
            r.completed_ok.to_string(),
            r.casualties.to_string(),
            format!("{}/{}", r.post_fault_ok, r.post_fault_total),
            format!("{:.1}", r.cycle_rounds.mean),
            r.cycle_rounds.max.to_string(),
        ]);
    }
    table
}

/// Measures one sweep cell. Panics on a snap violation — that would be a
/// protocol bug, not a data point.
pub fn measure(
    topology: &Topology,
    initiators: usize,
    shards: usize,
    corrupt_k: usize,
    requests: u64,
) -> ServiceRow {
    let n = topology.build().expect("suite topologies are valid").len();
    let scenario = Scenario {
        topology: topology.clone(),
        initiators: spread_initiators(n, initiators),
        shards,
        seed: 15,
        daemon: ServeDaemon::CentralRandom,
        requests,
        fault: (corrupt_k > 0).then_some((requests / 4, corrupt_k, 0xE15)),
    };
    let service = run_scenario(&scenario).expect("service run failed");
    let ledger = service.ledger();
    ledger.assert_snap().expect("snap violation under service load");
    let summary = ledger.summary();
    let cycle_rounds: Vec<u64> = ledger
        .records()
        .filter(pif_serve::RequestRecord::is_correct)
        .map(|r| r.cycle_rounds)
        .collect();
    let report = ServiceReport::capture(&service, scenario.fault);
    ServiceRow {
        topology: topology.clone(),
        initiators: scenario.initiators.len(),
        shards,
        corrupt_k,
        requests: report.requests,
        completed_ok: summary.completed_ok,
        casualties: summary.casualties,
        post_fault_total: summary.post_fault_total,
        post_fault_ok: summary.post_fault_ok,
        cycle_rounds: Stats::of(&cycle_rounds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_cell_is_perfect() {
        let row = measure(&Topology::Torus { w: 3, h: 3 }, 3, 2, 0, 30);
        assert_eq!(row.completed_ok, 30);
        assert_eq!(row.casualties, 0);
        assert_eq!(row.post_fault_total, 0);
        assert!(row.cycle_rounds.max > 0);
    }

    #[test]
    fn corrupted_cell_keeps_post_fault_requests_correct() {
        let row = measure(&Topology::Torus { w: 3, h: 3 }, 3, 2, 8, 40);
        // measure() already asserts snap; double-check the counters agree.
        assert_eq!(row.post_fault_ok, row.post_fault_total);
        assert!(row.post_fault_total > 0, "campaign never fired");
    }
}
