//! The standard experiment workloads: topology sweeps and daemon panels.

use pif_core::PifState;
use pif_daemon::Daemon;
use pif_graph::Topology;

/// The topology families swept by the cycle-bound experiment (E1), each
/// instantiated over a size range.
pub fn size_sweep() -> Vec<Topology> {
    let mut out = Vec::new();
    for n in [4usize, 8, 16, 32, 64, 128] {
        out.push(Topology::Chain { n });
        out.push(Topology::Ring { n });
        out.push(Topology::Star { n });
        out.push(Topology::RandomTree { n, seed: 42 });
        out.push(Topology::Random { n, p: 0.15, seed: 42 });
    }
    for d in [2u32, 3, 4, 5, 6] {
        out.push(Topology::Hypercube { d });
    }
    for s in [2usize, 3, 4, 6, 8] {
        out.push(Topology::Grid { w: s, h: s });
        if s >= 3 {
            out.push(Topology::Torus { w: s, h: s });
        }
    }
    for n in [4usize, 8, 16, 24] {
        out.push(Topology::Complete { n });
        out.push(Topology::Wheel { n: n.max(4) });
        out.push(Topology::Lollipop { clique: n / 2 + 2, tail: n / 2 });
    }
    out
}

/// A compact suite for the heavier experiments (recovery sweeps).
pub fn recovery_suite() -> Vec<Topology> {
    vec![
        Topology::Chain { n: 12 },
        Topology::Ring { n: 12 },
        Topology::Star { n: 12 },
        Topology::RandomTree { n: 12, seed: 3 },
        Topology::Grid { w: 4, h: 3 },
        Topology::Torus { w: 4, h: 4 },
        Topology::Hypercube { d: 4 },
        Topology::Complete { n: 10 },
        Topology::Lollipop { clique: 5, tail: 7 },
        Topology::Random { n: 14, p: 0.2, seed: 5 },
    ]
}

/// Tree-only suite for the tree-algorithm comparison (E7).
pub fn tree_suite() -> Vec<Topology> {
    vec![
        Topology::Chain { n: 15 },
        Topology::Star { n: 15 },
        Topology::KaryTree { n: 15, k: 2 },
        Topology::KaryTree { n: 16, k: 3 },
        Topology::RandomTree { n: 15, seed: 1 },
        Topology::RandomTree { n: 15, seed: 2 },
        Topology::Caterpillar { spine: 5, legs: 2 },
    ]
}

/// Identifier of one daemon strategy in the panel, used to instantiate a
/// fresh daemon per run (daemons are stateful).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DaemonKind {
    /// Every enabled processor moves each step.
    Synchronous,
    /// One processor per step, round-robin.
    CentralSeq,
    /// One uniformly random processor per step.
    CentralRandom,
    /// Independent inclusion with probability 0.5.
    DistributedHalf,
    /// Greedy adversarial LIFO with a `4N` fairness bound.
    Adversarial,
}

impl DaemonKind {
    /// The full panel.
    pub const ALL: [DaemonKind; 5] = [
        DaemonKind::Synchronous,
        DaemonKind::CentralSeq,
        DaemonKind::CentralRandom,
        DaemonKind::DistributedHalf,
        DaemonKind::Adversarial,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DaemonKind::Synchronous => "sync",
            DaemonKind::CentralSeq => "central-seq",
            DaemonKind::CentralRandom => "central-rand",
            DaemonKind::DistributedHalf => "dist-0.5",
            DaemonKind::Adversarial => "adversarial",
        }
    }

    /// Parses a daemon from its [`name`](DaemonKind::name) (as used on the
    /// `pif-trace` command line). Returns `None` for an unknown name.
    pub fn parse(name: &str) -> Option<DaemonKind> {
        DaemonKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Instantiates a fresh daemon of this kind for a network of `n`
    /// processors, seeded deterministically.
    pub fn build(self, n: usize, seed: u64) -> Box<dyn Daemon<PifState>> {
        use pif_daemon::daemons::{
            AdversarialLifo, CentralRandom, CentralSequential, DistributedRandom, Synchronous,
        };
        match self {
            DaemonKind::Synchronous => Box::new(Synchronous::first_action()),
            DaemonKind::CentralSeq => Box::new(CentralSequential::new()),
            DaemonKind::CentralRandom => Box::new(CentralRandom::new(seed)),
            DaemonKind::DistributedHalf => Box::new(DistributedRandom::new(0.5, seed)),
            DaemonKind::Adversarial => Box::new(AdversarialLifo::new(4 * n.max(1) as u64, seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sweep_topologies_build() {
        for t in size_sweep().into_iter().chain(recovery_suite()).chain(tree_suite()) {
            assert!(t.build().is_ok(), "{t:?}");
        }
    }

    #[test]
    fn tree_suite_is_all_trees() {
        for t in tree_suite() {
            let g = t.build().unwrap();
            assert_eq!(g.edge_count(), g.len() - 1, "{t:?} is not a tree");
        }
    }

    #[test]
    fn daemon_panel_instantiates() {
        for k in DaemonKind::ALL {
            let _ = k.build(10, 1);
            assert!(!k.name().is_empty());
            assert_eq!(DaemonKind::parse(k.name()), Some(k));
        }
        assert_eq!(DaemonKind::parse("no-such-daemon"), None);
    }
}
