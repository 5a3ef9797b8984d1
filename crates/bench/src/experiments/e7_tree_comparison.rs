//! **E7 — positioning against the tree algorithms [7, 9].** On tree
//! topologies, the arbitrary-network algorithm completes PIF cycles
//! within a constant factor of the tree-specialized snap PIF. The factor
//! is the price of not knowing the tree: the counting (`Count`) and `Fok`
//! sub-waves add two extra traversals.

use pif_baselines::tree_pif::{TreePifProtocol, TREE_B, TREE_F};
use pif_core::wave::{UnitAggregate, WaveRunner};
use pif_core::PifProtocol;
use pif_daemon::daemons::Synchronous;
use pif_daemon::{RunLimits, Simulator};
use pif_graph::{ProcId, Topology};
use pif_par::par_map;

use crate::report::Table;
use crate::workloads::tree_suite;

/// One tree's comparison row.
#[derive(Clone, Debug)]
pub struct TreeCompRow {
    /// The tree topology.
    pub topology: Topology,
    /// Tree height from the root.
    pub height: u32,
    /// Rounds of one cycle of the arbitrary-network snap PIF.
    pub arbitrary_rounds: u64,
    /// Rounds of one cycle of the tree-specialized snap PIF.
    pub tree_rounds: u64,
}

impl TreeCompRow {
    /// Overhead factor of generality.
    pub fn factor(&self) -> f64 {
        self.arbitrary_rounds as f64 / self.tree_rounds.max(1) as f64
    }
}

/// Runs E7 over the tree suite.
pub fn run() -> Table {
    run_on(tree_suite())
}

/// Entry point over explicit topologies.
pub fn run_on(topologies: Vec<Topology>) -> Table {
    let rows = par_map(topologies, |t| measure(&t));
    let mut table = Table::new(
        "E7 — cycle rounds on trees: arbitrary-network vs tree-specialized snap PIF",
        &["tree", "height", "arbitrary(rounds)", "tree[7,9](rounds)", "factor"],
    );
    for r in &rows {
        table.row_owned(vec![
            r.topology.to_string(),
            r.height.to_string(),
            r.arbitrary_rounds.to_string(),
            r.tree_rounds.to_string(),
            format!("{:.2}", r.factor()),
        ]);
    }
    table
}

/// Measures one tree under the synchronous daemon (rounds == steps).
pub fn measure(topology: &Topology) -> TreeCompRow {
    let g = topology.build().expect("tree topologies are valid");
    let root = ProcId(0);
    let height = pif_graph::metrics::eccentricity(&g, root);

    // Arbitrary-network algorithm.
    let protocol = PifProtocol::new(root, &g);
    let mut runner = WaveRunner::new(g.clone(), protocol, UnitAggregate);
    let outcome = runner
        .run_cycle_limited(1u8, &mut Synchronous::first_action(), RunLimits::default())
        .expect("cycle failed");
    assert!(outcome.satisfies_spec());

    // Tree-specialized algorithm: run from clean until the root's
    // F-action under the synchronous daemon.
    let tree_protocol = TreePifProtocol::on_tree(&g, root, 1);
    let init = TreePifProtocol::clean_config(g.len());
    let mut sim = Simulator::new(g.clone(), tree_protocol, init);
    let mut d = Synchronous::first_action();
    let mut initiated = false;
    let mut tree_rounds = 0u64;
    for _ in 0..100_000u64 {
        if sim.is_terminal() {
            break;
        }
        sim.step(&mut d).expect("tree-pif step failed");
        let mut done = false;
        for &(p, a) in sim.last_executed() {
            if p == root && a == TREE_B {
                initiated = true;
                tree_rounds = 0;
            }
            if p == root && a == TREE_F && initiated {
                done = true;
            }
        }
        tree_rounds += 1; // synchronous daemon: one round per step
        if done {
            break;
        }
    }

    TreeCompRow {
        topology: topology.clone(),
        height,
        arbitrary_rounds: outcome.cycle_rounds,
        tree_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_factor_is_bounded() {
        for t in [
            Topology::Chain { n: 9 },
            Topology::Star { n: 9 },
            Topology::KaryTree { n: 15, k: 2 },
        ] {
            let row = measure(&t);
            assert!(row.tree_rounds > 0);
            // The generality overhead: the arbitrary algorithm adds the
            // Count and Fok traversals — bounded by a small constant
            // factor (Theorem 4's 5h+5 vs the tree algorithm's ~2h).
            assert!(
                row.factor() <= 4.0,
                "{t:?}: factor {} too large ({} vs {})",
                row.factor(),
                row.arbitrary_rounds,
                row.tree_rounds
            );
            assert!(row.arbitrary_rounds >= row.tree_rounds, "{t:?}: generality is not free");
        }
    }
}
