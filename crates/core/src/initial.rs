//! Initial-configuration constructors: the normal starting configuration,
//! uniformly fuzzed configurations, and adversarially crafted corruptions.
//!
//! Snap-stabilization (Definition 1 of the paper) quantifies over *every*
//! initial configuration, i.e. every assignment of in-domain values to the
//! registers. The constructors here produce:
//!
//! * [`normal_starting`] — the paper's *normal starting configuration*
//!   (`∀p: Pif_p = C`), the state a completed cycle returns to;
//! * [`random_config`] — registers drawn uniformly from their domains (the
//!   canonical "arbitrary initial configuration" for stabilization tests);
//! * [`adversarial_config`] — a worst-case-shaped corruption: a consistent
//!   fake broadcast tree occupying part of the network (with *consistent*
//!   levels and counts, so no register is locally refutable) plus a root
//!   that believes its previous wave completed.

use pif_graph::{Graph, ProcId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::protocol::PifProtocol;
use crate::state::{Phase, PifState};

/// The paper's *normal starting configuration*: every processor in phase
/// `C` with in-domain don't-care values in the other registers.
pub fn normal_starting(graph: &Graph) -> Vec<PifState> {
    graph
        .procs()
        .map(|p| {
            let par = graph.neighbors(p).next().unwrap_or(p);
            PifState::clean(par)
        })
        .collect()
}

/// Whether every processor is in phase `C` (the normal starting
/// configuration; the other registers are don't-care there).
pub fn is_normal_starting(states: &[PifState]) -> bool {
    states.iter().all(|s| s.phase == Phase::C)
}

/// A configuration with every register drawn uniformly from its domain:
/// `Pif ∈ {B, F, C}`, `Par ∈ Neig_p`, `L ∈ [1, L_max]`, `Count ∈ [1, N']`,
/// `Fok ∈ {false, true}`. The root's `Par`/`L` are program constants and
/// left at their canonical values.
pub fn random_config(graph: &Graph, protocol: &PifProtocol, seed: u64) -> Vec<PifState> {
    let mut rng = StdRng::seed_from_u64(seed);
    graph
        .procs()
        .map(|p| {
            let neighbors = graph.neighbor_slice(p);
            let par = if p == protocol.root() || neighbors.is_empty() {
                p
            } else {
                neighbors[rng.random_range(0..neighbors.len())]
            };
            PifState {
                phase: Phase::ALL[rng.random_range(0..3)],
                par,
                level: if p == protocol.root() {
                    1
                } else {
                    rng.random_range(1..=protocol.l_max())
                },
                count: rng.random_range(1..=protocol.n_prime()),
                fok: rng.random_bool(0.5),
            }
        })
        .collect()
}

/// An adversarially crafted corruption designed to maximally confuse the
/// protocol:
///
/// * the root believes a wave is in progress and fully counted
///   (`Pif_r = B`, `Count_r = N`, `Fok_r = true` — locally *normal*);
/// * a fake broadcast tree rooted at `fake_root` covers roughly half of the
///   remaining processors, with mutually *consistent* parent pointers,
///   levels (`L_p = L_{Par_p} + 1`, shifted by a base offset) and exact
///   subtree counts, so no register is refutable by its owner alone;
/// * tree members keep `Fok = false`, making them eligible `Sum_Set`
///   members and `Pre_Potential` candidates;
/// * every other processor is clean but its parent pointer aims at a fake
///   tree member, priming `Leaf`-guard contention.
pub fn adversarial_config(
    graph: &Graph,
    protocol: &PifProtocol,
    fake_root: ProcId,
    seed: u64,
) -> Vec<PifState> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = graph.len();
    let mut states = normal_starting(graph);

    // Grow a fake tree from `fake_root` by BFS over at most half the
    // non-root processors.
    let budget = (n / 2).max(1);
    let mut par: Vec<Option<ProcId>> = vec![None; n];
    let mut depth: Vec<u32> = vec![0; n];
    let mut members: Vec<ProcId> = Vec::new();
    if fake_root != protocol.root() {
        let mut queue = std::collections::VecDeque::new();
        let mut seen = vec![false; n];
        seen[fake_root.index()] = true;
        seen[protocol.root().index()] = true;
        queue.push_back(fake_root);
        members.push(fake_root);
        while let Some(p) = queue.pop_front() {
            if members.len() >= budget {
                break;
            }
            for q in graph.neighbors(p) {
                if members.len() >= budget {
                    break;
                }
                if !seen[q.index()] {
                    seen[q.index()] = true;
                    par[q.index()] = Some(p);
                    depth[q.index()] = depth[p.index()] + 1;
                    members.push(q);
                    queue.push_back(q);
                }
            }
        }
    }

    // Exact subtree sizes make every count locally consistent.
    let mut subtree = vec![1u32; n];
    for &p in members.iter().rev() {
        if let Some(q) = par[p.index()] {
            subtree[q.index()] += subtree[p.index()];
        }
    }

    let max_depth = members.iter().map(|p| depth[p.index()]).max().unwrap_or(0);
    let headroom = u32::from(protocol.l_max()).saturating_sub(max_depth + 1);
    let base = 1 + if headroom > 0 { rng.random_range(0..=headroom) } else { 0 };

    for &p in &members {
        let parent = par[p.index()];
        states[p.index()] = PifState {
            phase: Phase::B,
            par: parent.unwrap_or_else(|| {
                // The fake root picks an arbitrary neighbor as its claimed
                // parent; the inconsistency lives only at this single
                // processor, exactly like the paper's "abnormal tree" root.
                graph.neighbors(p).next().unwrap_or(p)
            }),
            level: u16::try_from((base + depth[p.index()]).min(u32::from(protocol.l_max())))
                .unwrap_or(u16::MAX),
            count: subtree[p.index()].min(protocol.n_prime()),
            fok: false,
        };
    }

    // The root believes its wave completed.
    let r = protocol.root().index();
    states[r] = PifState {
        phase: Phase::B,
        par: states[r].par,
        level: states[r].level,
        count: protocol.n(),
        fok: true,
    };

    // Clean processors point at fake-tree members where possible, to
    // exercise the Leaf guard.
    let in_tree: Vec<bool> = {
        let mut v = vec![false; n];
        for &p in &members {
            v[p.index()] = true;
        }
        v
    };
    for p in graph.procs() {
        if p == protocol.root() || in_tree[p.index()] {
            continue;
        }
        if let Some(q) = graph.neighbors(p).find(|q| in_tree[q.index()]) {
            states[p.index()].par = q;
        }
    }
    states
}

/// The *grafted zombie chain*: the precise counterexample showing why the
/// `Leaf(p)` guard in `Broadcast(p)` is indispensable (ablation E10-b).
///
/// Built for a chain topology `p0 - p1 - … - p{n-1}` rooted at `p0`:
/// `p1` is clean, while `p2 … p{n-1}` form a stale broadcast chain whose
/// levels (`2, 3, …`) and counts (exact suffix sizes) are *exactly* what
/// the legal tree would assign them. With the Leaf guard, `p1` cannot
/// broadcast while `p2` claims it as parent, so the chain must dissolve
/// (and later re-join, receiving the message) first. Without the guard,
/// `p1` joins immediately, the stale chain melts into the legal tree, the
/// root counts all `N` processors and completes the cycle — while
/// `p2 … p{n-1}` never received the broadcast value: a \[PIF1\]/\[PIF2\]
/// violation.
///
/// # Panics
///
/// Panics if `graph` is not a chain of at least 3 processors rooted at
/// `p0` (the construction is topology-specific by design).
pub fn grafted_zombie_chain(graph: &Graph, protocol: &PifProtocol) -> Vec<PifState> {
    let n = graph.len();
    assert!(n >= 3, "grafted zombie chain needs at least 3 processors");
    assert_eq!(protocol.root(), ProcId(0), "construction assumes root p0");
    for i in 0..n - 1 {
        assert!(
            graph.has_edge(ProcId::from_index(i), ProcId::from_index(i + 1)),
            "graph must be the chain topology"
        );
    }
    let mut states = normal_starting(graph);
    #[allow(clippy::needless_range_loop)] // index doubles as level/count arithmetic
    for i in 2..n {
        states[i] = PifState {
            phase: Phase::B,
            par: ProcId::from_index(i - 1),
            level: i as u16,
            count: (n - i) as u32,
            fok: false,
        };
    }
    states
}

/// Corrupts exactly `k` uniformly chosen registers of `states` in place
/// (a transient fault of bounded extent), respecting every register's
/// domain. Useful for fault-injection sweeps where the *severity* of the
/// corruption is the independent variable.
pub fn corrupt_registers(
    states: &mut [PifState],
    graph: &Graph,
    protocol: &PifProtocol,
    k: usize,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..k {
        let p = ProcId::from_index(rng.random_range(0..graph.len()));
        let s = &mut states[p.index()];
        let is_root = p == protocol.root();
        // Registers 0..5: phase, par, level, count, fok. The root's par
        // and level are constants; redraw those as phase changes instead.
        match rng.random_range(0..5u8) {
            0 => s.phase = Phase::ALL[rng.random_range(0..3)],
            1 => {
                let ns = graph.neighbor_slice(p);
                if !is_root && !ns.is_empty() {
                    s.par = ns[rng.random_range(0..ns.len())];
                } else {
                    s.phase = Phase::ALL[rng.random_range(0..3)];
                }
            }
            2 => {
                if is_root {
                    s.phase = Phase::ALL[rng.random_range(0..3)];
                } else {
                    s.level = rng.random_range(1..=protocol.l_max());
                }
            }
            3 => s.count = rng.random_range(1..=protocol.n_prime()),
            _ => s.fok = !s.fok,
        }
    }
}

/// Number of processors whose registers differ from the normal starting
/// configuration's phases (a rough corruption measure for reports).
pub fn corruption_size(states: &[PifState]) -> usize {
    states.iter().filter(|s| s.phase != Phase::C).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_graph::generators;

    fn setup(n: usize) -> (Graph, PifProtocol) {
        let g = generators::random_connected(n, 0.2, 5).unwrap();
        let p = PifProtocol::new(ProcId(0), &g);
        (g, p)
    }

    #[test]
    fn normal_starting_is_all_clean() {
        let (g, _) = setup(10);
        let init = normal_starting(&g);
        assert!(is_normal_starting(&init));
        assert_eq!(init.len(), 10);
    }

    #[test]
    fn random_config_respects_domains() {
        let (g, p) = setup(12);
        for seed in 0..50 {
            let cfg = random_config(&g, &p, seed);
            for (i, s) in cfg.iter().enumerate() {
                let pid = ProcId::from_index(i);
                if pid != p.root() {
                    assert!(g.has_edge(pid, s.par), "par must be a neighbor");
                    assert!((1..=p.l_max()).contains(&s.level));
                }
                assert!((1..=p.n_prime()).contains(&s.count));
            }
        }
    }

    #[test]
    fn random_config_is_deterministic() {
        let (g, p) = setup(8);
        assert_eq!(random_config(&g, &p, 3), random_config(&g, &p, 3));
        assert_ne!(random_config(&g, &p, 3), random_config(&g, &p, 4));
    }

    #[test]
    fn adversarial_config_builds_consistent_fake_tree() {
        let (g, p) = setup(14);
        let cfg = adversarial_config(&g, &p, ProcId(7), 1);
        // The root claims a completed wave.
        assert_eq!(cfg[0].phase, Phase::B);
        assert_eq!(cfg[0].count, p.n());
        assert!(cfg[0].fok);
        // Fake tree members have parent-consistent levels.
        #[allow(clippy::needless_range_loop)] // index is also the ProcId under test
        for i in 1..g.len() {
            let s = &cfg[i];
            if s.phase == Phase::B && s.par != ProcId::from_index(i) {
                assert!(g.has_edge(ProcId::from_index(i), s.par));
            }
        }
        // Some corruption beyond the root must exist.
        assert!(corruption_size(&cfg) > 1);
    }

    #[test]
    fn adversarial_fake_tree_members_are_mostly_locally_normal() {
        // Consistency claim: within the fake tree, every non-fake-root
        // member must satisfy GoodLevel and GoodCount.
        let (g, p) = setup(16);
        let cfg = adversarial_config(&g, &p, ProcId(9), 2);
        let sim = pif_daemon::Simulator::new(g.clone(), p.clone(), cfg.clone());
        let mut normal_members = 0;
        for q in g.procs() {
            if q == p.root() || q == ProcId(9) || cfg[q.index()].phase != Phase::B {
                continue;
            }
            if p.good_level(sim.view(q)) && p.good_count(sim.view(q)) {
                normal_members += 1;
            }
        }
        assert!(normal_members > 0, "fake tree should not be trivially refutable");
    }

    #[test]
    fn corruption_size_counts_non_clean() {
        let (g, p) = setup(9);
        assert_eq!(corruption_size(&normal_starting(&g)), 0);
        let cfg = adversarial_config(&g, &p, ProcId(4), 0);
        assert!(corruption_size(&cfg) >= 2);
    }

    #[test]
    fn corrupt_registers_respects_domains() {
        let (g, p) = setup(11);
        for k in [0usize, 1, 5, 50] {
            let mut states = normal_starting(&g);
            corrupt_registers(&mut states, &g, &p, k, 1234 + k as u64);
            for (i, s) in states.iter().enumerate() {
                let pid = ProcId::from_index(i);
                if pid != p.root() {
                    assert!(g.has_edge(pid, s.par) || s.par == pid);
                    assert!((1..=p.l_max()).contains(&s.level));
                }
                assert!((1..=p.n_prime()).contains(&s.count));
            }
        }
        // k = 0 is the identity.
        let mut states = normal_starting(&g);
        corrupt_registers(&mut states, &g, &p, 0, 7);
        assert_eq!(states, normal_starting(&g));
    }

    #[test]
    fn corrupted_starts_still_satisfy_snap() {
        // The whole point: bounded-extent faults never break the first
        // wave either.
        let (g, p) = setup(10);
        for k in [1usize, 3, 8] {
            let mut states = normal_starting(&g);
            corrupt_registers(&mut states, &g, &p, k, 55 + k as u64);
            let report = crate::checker::check_first_wave(
                g.clone(),
                p.clone(),
                states,
                &mut pif_daemon::daemons::CentralRandom::new(k as u64),
                pif_daemon::RunLimits::default(),
            )
            .unwrap();
            assert!(report.holds(), "k = {k}");
        }
    }

    #[test]
    fn adversarial_on_singleton_degenerates_gracefully() {
        let g = generators::singleton();
        let p = PifProtocol::new(ProcId(0), &g);
        let cfg = adversarial_config(&g, &p, ProcId(0), 0);
        assert_eq!(cfg.len(), 1);
    }
}
