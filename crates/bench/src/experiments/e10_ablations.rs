//! **E10 — ablations.** Remove one mechanism at a time and demonstrate
//! what breaks, justifying each design choice DESIGN.md calls out:
//!
//! * **(a) `Fok` wave** — without it a leaf may feed back before the
//!   broadcast has covered the network; an adversarial schedule makes the
//!   cycle "complete" while most processors never received the message,
//!   *even from the clean starting configuration*.
//! * **(b) `Leaf` guard** — without it a level-consistent stale subtree
//!   melts into the legal tree and gets counted without ever receiving
//!   the message (the grafted-zombie-chain counterexample).
//! * **(c) minimal-level `Potential`** — without it parent paths acquire
//!   chords; on a complete graph an adversarial join order builds a tree
//!   of height `N − 1` where the chordless bound is `1`, voiding
//!   Theorem 4's `5h + 5 ≤ 5·lcp + 5`.
//! * **(d) `GoodLevel` check** — without it a corrupted parent-pointer
//!   cycle is locally silent forever; the root can never start a wave
//!   (liveness lost).

use pif_core::checker::check_first_wave;
use pif_core::wave::{UnitAggregate, WaveRunner};
use pif_core::{initial, Features, Phase, PifProtocol, PifState};
use pif_daemon::daemons::FixedSchedule;
use pif_daemon::{RunLimits, Simulator};
use pif_graph::{generators, ProcId};

use crate::report::Table;

/// The outcome of one ablation scenario.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Which mechanism was removed.
    pub mechanism: &'static str,
    /// The attack scenario.
    pub scenario: String,
    /// What the full algorithm does (expected: survives).
    pub full: String,
    /// What the ablated algorithm does (expected: breaks).
    pub ablated: String,
    /// Whether the experiment showed the expected separation.
    pub separation: bool,
}

/// Runs all four ablations.
pub fn run() -> Table {
    let rows = vec![ablate_fok_wave(8), ablate_leaf_guard(8), ablate_chordless(8), ablate_level_guard()];
    let mut table = Table::new(
        "E10 — ablations: remove one mechanism, observe the failure",
        &["mechanism", "scenario", "full algorithm", "ablated", "separation"],
    );
    for r in &rows {
        table.row_owned(vec![
            r.mechanism.to_string(),
            r.scenario.clone(),
            r.full.clone(),
            r.ablated.clone(),
            if r.separation { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table
}

fn early_feedback_schedule() -> FixedSchedule {
    // Root broadcasts; p1 joins; p1 feeds back immediately; root closes.
    FixedSchedule::new([vec![ProcId(0)], vec![ProcId(1)], vec![ProcId(1)], vec![ProcId(0)]])
}

/// Ablation (a): remove the `Fok` wave.
pub fn ablate_fok_wave(n: usize) -> AblationRow {
    let g = generators::chain(n).expect("chain");
    let scenario = format!("chain({n}), CLEAN start, adversarial schedule delaying p2..");

    let verdict = |features: Features| {
        let protocol = PifProtocol::new(ProcId(0), &g).with_features(features);
        let init = initial::normal_starting(&g);
        check_first_wave(
            g.clone(),
            protocol,
            init,
            &mut early_feedback_schedule(),
            RunLimits::new(100_000, 20_000),
        )
        .expect("run failed")
    };

    let full = verdict(Features::paper());
    let ablated = verdict(Features { fok_wave: false, ..Features::paper() });
    AblationRow {
        mechanism: "Fok wave",
        scenario,
        full: describe(&full),
        ablated: describe(&ablated),
        separation: full.holds() && !ablated.holds(),
    }
}

/// Ablation (b): remove the `Leaf` guard.
pub fn ablate_leaf_guard(n: usize) -> AblationRow {
    let g = generators::chain(n).expect("chain");
    let scenario = format!("chain({n}), grafted zombie chain at p2..p{}", n - 1);

    let verdict = |features: Features| {
        let protocol = PifProtocol::new(ProcId(0), &g).with_features(features);
        let init = initial::grafted_zombie_chain(&g, &protocol);
        let mut daemon = FixedSchedule::new([vec![ProcId(0)], vec![ProcId(1)]]);
        check_first_wave(g.clone(), protocol, init, &mut daemon, RunLimits::new(100_000, 20_000))
            .expect("run failed")
    };

    let full = verdict(Features::paper());
    let ablated = verdict(Features { leaf_guard: false, ..Features::paper() });
    AblationRow {
        mechanism: "Leaf guard",
        scenario,
        full: describe(&full),
        ablated: describe(&ablated),
        separation: full.holds() && !ablated.holds(),
    }
}

/// Ablation (c): remove the minimal-level restriction of `Potential`.
pub fn ablate_chordless(n: usize) -> AblationRow {
    let g = generators::complete(n).expect("complete");
    let root = ProcId((n - 1) as u32);
    let scenario = format!("complete({n}) rooted at p{}, descending join order", n - 1);

    // Adversarial join order: each new processor's minimal-id broadcasting
    // neighbor is the most recently joined one.
    let schedule = || {
        let joins: Vec<Vec<ProcId>> =
            (0..n as u32).rev().map(|i| vec![ProcId(i)]).collect();
        FixedSchedule::new(joins)
    };

    let height = |features: Features| {
        let protocol = PifProtocol::new(root, &g).with_features(features);
        let mut runner = WaveRunner::new(g.clone(), protocol, UnitAggregate);
        let outcome = runner
            .run_cycle_limited(1u8, &mut schedule(), RunLimits::new(500_000, 100_000))
            .expect("cycle failed");
        assert!(outcome.satisfies_spec(), "cycle must still complete");
        outcome.height
    };

    let full_h = height(Features::paper());
    let ablated_h = height(Features { chordless_potential: false, ..Features::paper() });
    let lcp = pif_graph::chordless::longest(&g, 1_000_000).length();
    AblationRow {
        mechanism: "chordless Potential",
        scenario,
        full: format!("h = {full_h} (lcp = {lcp})"),
        ablated: format!("h = {ablated_h} (lcp = {lcp})"),
        separation: full_h as usize <= lcp && ablated_h as usize > lcp,
    }
}

/// Ablation (d): remove the `GoodLevel` check.
pub fn ablate_level_guard() -> AblationRow {
    fn s_root_b(sim: &Simulator<PifProtocol>) -> bool {
        sim.state(ProcId(0)).phase == Phase::B
    }

    let g = generators::complete(4).expect("complete");
    let scenario = "complete(4), parent cycle p1->p2->p3->p1 at equal levels".to_string();

    let initiates = |features: Features| {
        let protocol = PifProtocol::new(ProcId(0), &g).with_features(features);
        let mut init = initial::normal_starting(&g);
        for (p, par) in [(1u32, 2u32), (2, 3), (3, 1)] {
            init[p as usize] = PifState {
                phase: Phase::B,
                par: ProcId(par),
                level: 2,
                count: 1,
                fok: false,
            };
        }
        let mut sim = Simulator::new(g.clone(), protocol, init);
        let mut d = pif_daemon::daemons::CentralSequential::new();
        // Either the corruption drains and the root broadcasts, or the
        // system seizes up.
        let mut root_b = |s: &Simulator<PifProtocol>| s.state(ProcId(0)).phase == Phase::B;
        let result = sim.run(
            &mut d,
            &mut pif_daemon::NoOpObserver,
            pif_daemon::StopPolicy::Predicate(RunLimits::new(50_000, 10_000), &mut root_b),
        );
        matches!(result, Ok(stats) if !stats.terminal || s_root_b(&sim))
    };

    let full = initiates(Features::paper());
    let ablated = initiates(Features { level_guard: false, ..Features::paper() });
    AblationRow {
        mechanism: "GoodLevel check",
        scenario,
        full: if full { "root broadcasts (recovers)" } else { "DEADLOCK" }.to_string(),
        ablated: if ablated { "root broadcasts" } else { "deadlock (liveness lost)" }.to_string(),
        separation: full && !ablated,
    }
}

fn describe(report: &pif_core::checker::SnapReport) -> String {
    if report.holds() {
        "PIF1+PIF2 hold".to_string()
    } else if !report.outcome.pif1 {
        format!("PIF1 VIOLATED ({} never received)", report.missed.len())
    } else {
        "PIF2 VIOLATED (completed without all acks)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ablations_separate() {
        assert!(ablate_fok_wave(6).separation, "fok");
        assert!(ablate_leaf_guard(6).separation, "leaf");
        assert!(ablate_chordless(6).separation, "chordless");
        assert!(ablate_level_guard().separation, "level");
    }
}
