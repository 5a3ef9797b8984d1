//! **E13 — lossy message-passing certification (beyond the paper).** The
//! paper's model is locally shared memory; real networks pass messages
//! over channels that drop, duplicate, reorder, and corrupt. Running the
//! unchanged algorithm over the `pif-net` transport (cached neighbor
//! registers, CRC-framed snapshots, heartbeat retransmission) measures
//! what survives each adversity level:
//!
//! * under every fault-rate cell — up to the adversarial combination of
//!   drop 0.2, duplicate 0.1, reorder 0.3, corrupt 0.05 — every one of
//!   the `R` requests served from a *post-fault* configuration completes
//!   with \[PIF1\] and \[PIF2\] certified `n/n`, and **zero** corrupt
//!   frames are ever applied to a cache (the CRC32 gate);
//! * with scrambled *caches* and heartbeats on, the forged snapshots are
//!   flushed and the waves complete;
//! * with scrambled caches and heartbeats **off**, the system deadlocks
//!   silently — the classical Katz–Perry / Varghese argument for why
//!   message-passing self-stabilization needs periodic retransmission,
//!   reproduced as a measurement.
//!
//! Completion is judged by the same [`WaveOverlay`] markers the serving
//! layer uses: the root's `B-action` opens the cycle and its `F-action`
//! closes it; \[PIF1\] requires every processor to have received the
//! armed payload, \[PIF2\] additionally requires every acknowledgment
//! back at the root.

use pif_core::wave::{UnitAggregate, WaveOverlay};
use pif_core::{initial, PifProtocol, PifState};
use pif_graph::{ProcId, Topology};
use pif_net::{FaultPlan, NetSim, NetStats, Transport};
use pif_par::par_map;

use crate::report::Table;

/// One adversity level of the study: a named fault plan plus the
/// heartbeat cadence it runs under.
#[derive(Clone, Copy, Debug)]
pub struct FaultCell {
    /// Display name (table row key).
    pub name: &'static str,
    /// Per-link fault rates.
    pub plan: FaultPlan,
    /// Heartbeat cadence in scheduler events (0 disables resends).
    pub heartbeat_every: u64,
    /// Whether to scramble every register cache before serving.
    pub scramble: bool,
}

/// The grid of cells the experiment sweeps, from lossless FIFO links to
/// the adversarial combination, plus the two cache-scramble controls.
pub fn cells() -> Vec<FaultCell> {
    let ff = FaultPlan::fault_free();
    vec![
        FaultCell { name: "lossless", plan: ff, heartbeat_every: 16, scramble: false },
        FaultCell { name: "drop 0.2", plan: ff.drop_rate(0.2), heartbeat_every: 16, scramble: false },
        FaultCell {
            name: "drop 0.2 + dup 0.1",
            plan: ff.drop_rate(0.2).duplicate_rate(0.1),
            heartbeat_every: 16,
            scramble: false,
        },
        FaultCell {
            name: "reorder 0.3",
            plan: ff.reorder_rate(0.3),
            heartbeat_every: 16,
            scramble: false,
        },
        FaultCell {
            name: "corrupt 0.05",
            plan: ff.corrupt_rate(0.05),
            heartbeat_every: 16,
            scramble: false,
        },
        FaultCell {
            name: "adversarial",
            plan: ff.drop_rate(0.2).duplicate_rate(0.1).reorder_rate(0.3).corrupt_rate(0.05),
            heartbeat_every: 16,
            scramble: false,
        },
        FaultCell {
            name: "scrambled caches (+heartbeat)",
            plan: ff,
            heartbeat_every: 16,
            scramble: true,
        },
        FaultCell {
            name: "scrambled caches (no heartbeat)",
            plan: ff,
            heartbeat_every: 0,
            scramble: true,
        },
    ]
}

/// The outcome of serving `requests` waves through one cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellOutcome {
    /// Requests that completed (root `F-action` closed the cycle).
    pub completed: u64,
    /// Completed requests whose payload reached all `n` processors.
    pub pif1_ok: u64,
    /// Completed requests fully acknowledged back at the root.
    pub pif2_ok: u64,
    /// Transport counters at the end of the run.
    pub stats: NetStats,
}

/// A cache state that *blocks*: it looks like a finished broadcast
/// everywhere (`Fok` set, phase `B`), so it suppresses both joining and
/// the root's start — the adversarial scramble of the deadlock study.
fn blocking(_: ProcId, q: ProcId) -> PifState {
    PifState { phase: pif_core::Phase::B, par: q, level: 1, count: 1, fok: true }
}

/// Serves `requests` waves through one `(topology, cell)` trial.
///
/// The initial configuration is a seeded `random_config` — the transient
/// fault has already happened, and every wave this trial serves is
/// initiated after it, which is exactly the population the snap claim
/// covers. `budget` bounds the total scheduler events per request.
pub fn trial(topology: &Topology, cell: &FaultCell, seed: u64, requests: u64) -> CellOutcome {
    const BUDGET_PER_REQUEST: u64 = 400_000;
    let g = topology.build().expect("suite topologies are valid");
    let n = g.len();
    let root = ProcId(0);
    let protocol = PifProtocol::new(root, &g);
    let init = initial::random_config(&g, &protocol, seed);
    let mut net = NetSim::builder(g, protocol)
        .states(init)
        .fault_plan(cell.plan)
        .heartbeat_every(cell.heartbeat_every)
        .seed(seed ^ 0xE13)
        .build()
        .expect("cell plans are valid");
    if cell.scramble {
        net.scramble_caches_with(&mut blocking);
    }

    let mut overlay: WaveOverlay<u64, UnitAggregate> = WaveOverlay::new(n, root, UnitAggregate);
    let mut out = CellOutcome::default();
    for r in 0..requests {
        overlay.arm(r);
        let mut done = false;
        for _ in 0..BUDGET_PER_REQUEST {
            net.tick_observed(&mut overlay);
            if let (Some(_), Some(_)) = (overlay.broadcast_step(), overlay.feedback_step()) {
                done = true;
                break;
            }
        }
        if !done {
            break; // stuck: remaining requests count as incomplete
        }
        out.completed += 1;
        if overlay.all_received(&r) {
            out.pif1_ok += 1;
            if overlay.all_acknowledged() {
                out.pif2_ok += 1;
            }
        }
    }
    out.stats = net.stats();
    out
}

/// Runs E13 with default parameters.
pub fn run() -> Table {
    run_on(
        vec![
            Topology::Chain { n: 8 },
            Topology::Ring { n: 8 },
            Topology::Grid { w: 3, h: 3 },
        ],
        5,
        8,
    )
}

/// Parameterized entry point: `trials` seeds × `requests` waves per
/// `(topology, cell)`.
pub fn run_on(topologies: Vec<Topology>, trials: u64, requests: u64) -> Table {
    let jobs: Vec<(Topology, FaultCell)> = topologies
        .into_iter()
        .flat_map(|t| cells().into_iter().map(move |c| (t.clone(), c)))
        .collect();
    let rows = par_map(jobs, |(t, c)| {
        let mut total = CellOutcome::default();
        for seed in 0..trials {
            let o = trial(&t, &c, seed, requests);
            total.completed += o.completed;
            total.pif1_ok += o.pif1_ok;
            total.pif2_ok += o.pif2_ok;
            total.stats.corrupt_applied += o.stats.corrupt_applied;
            total.stats.corrupt_rejected += o.stats.corrupt_rejected;
            total.stats.stale_rejected += o.stats.stale_rejected;
            total.stats.dropped += o.stats.dropped;
        }
        (t, c, total)
    });
    let mut table = Table::new(
        "E13 — post-fault PIF certification over lossy message passing (pif-net)",
        &[
            "topology",
            "cell",
            "requests",
            "completed",
            "pif1 ok",
            "pif2 ok",
            "corrupt applied",
            "crc rejected",
            "stale rejected",
        ],
    );
    for (t, c, o) in &rows {
        table.row_owned(vec![
            t.to_string(),
            c.name.to_string(),
            (trials * requests).to_string(),
            o.completed.to_string(),
            o.pif1_ok.to_string(),
            o.pif2_ok.to_string(),
            o.stats.corrupt_applied.to_string(),
            o.stats.corrupt_rejected.to_string(),
            o.stats.stale_rejected.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell_named(name: &str) -> FaultCell {
        cells().into_iter().find(|c| c.name == name).expect("known cell")
    }

    #[test]
    fn every_fault_rate_cell_certifies_n_of_n_post_fault() {
        let t = Topology::Ring { n: 6 };
        for cell in cells().iter().filter(|c| !c.scramble) {
            for seed in 0..3 {
                let o = trial(&t, cell, seed, 4);
                assert_eq!(o.completed, 4, "{} seed {seed}: {o:?}", cell.name);
                assert_eq!(o.pif1_ok, 4, "{} seed {seed}: [PIF1] violated", cell.name);
                assert_eq!(o.pif2_ok, 4, "{} seed {seed}: [PIF2] violated", cell.name);
                assert_eq!(
                    o.stats.corrupt_applied, 0,
                    "{} seed {seed}: corrupt frame applied",
                    cell.name
                );
            }
        }
    }

    #[test]
    fn no_heartbeat_scramble_gets_stuck() {
        let o = trial(&Topology::Chain { n: 5 }, &cell_named("scrambled caches (no heartbeat)"), 1, 2);
        assert_eq!(o.completed, 0, "{o:?}");
        assert!(o.stats.forged_frames > 0, "scramble campaign did not run");
    }

    #[test]
    fn heartbeats_rescue_scrambled_caches() {
        let o = trial(&Topology::Chain { n: 5 }, &cell_named("scrambled caches (+heartbeat)"), 1, 2);
        assert_eq!(o.completed, 2, "{o:?}");
        assert_eq!(o.pif2_ok, 2, "{o:?}");
    }

    #[test]
    fn trials_replay_bit_identically() {
        let t = Topology::Grid { w: 3, h: 3 };
        let cell = cell_named("adversarial");
        let a = trial(&t, &cell, 7, 3);
        let b = trial(&t, &cell, 7, 3);
        assert_eq!(a, b, "same seed must replay bit-identically");
        assert_ne!(trial(&t, &cell, 8, 3), a, "different seeds should diverge");
    }
}
