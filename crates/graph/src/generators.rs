//! Topology families used throughout the experiment harness.
//!
//! Every generator returns a validated, connected [`Graph`] carrying a
//! descriptive name (e.g. `"torus(4x4)"`). Random families take an explicit
//! seed so workloads are reproducible.
//!
//! The [`Topology`] enum is a serializable description of a family instance,
//! convenient for writing parameter sweeps.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::{Graph, GraphBuilder, GraphError, ProcId};

/// Most processors a generated topology may have: `hypercube:20`'s 2^20.
pub const MAX_NODES: usize = 1 << 20;

/// Most links a generated topology may have: `hypercube:20`'s 20 · 2^19.
/// For `random`, the n(n−1)/2 pair draws count instead, since each one
/// may add a link.
pub const MAX_EDGES: usize = 20 << 19;

/// Accepts a family instance of `(processors, links)` (`None` when a
/// count overflows `usize`) within [`MAX_NODES`] and [`MAX_EDGES`], before
/// anything is allocated.
fn check_size((nodes, edges): (Option<usize>, Option<usize>)) -> Result<(), GraphError> {
    match (nodes, edges) {
        (Some(n), Some(m)) if n <= MAX_NODES && m <= MAX_EDGES => Ok(()),
        _ => Err(GraphError::TooLarge { nodes, edges }),
    }
}

/// The processors and links of `Q_d`: 2^d and d · 2^(d−1).
fn hypercube_size(d: u32) -> (Option<usize>, Option<usize>) {
    let n = 1usize.checked_shl(d);
    (n, n.and_then(|n| (n / 2).checked_mul(d as usize)))
}

/// The links of a clique on `n` processors, n(n−1)/2.
fn pairs(n: usize) -> Option<usize> {
    n.checked_mul(n.saturating_sub(1)).map(|m| m / 2)
}

/// A single processor with no links. The smallest valid network (`N = 1`).
pub fn singleton() -> Graph {
    GraphBuilder::new(1).name("singleton").build().expect("singleton is always valid")
}

/// A chain (path graph) `p0 - p1 - … - p{n-1}`.
///
/// The chain maximizes the diameter for a given `N`, so it exercises the
/// worst case of the paper's `5h + 5` round bound (Theorem 4).
///
/// # Errors
///
/// Returns [`GraphError::Empty`] if `n == 0`.
pub fn chain(n: usize) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::with_capacity(n, Topology::Chain { n }.links());
    for i in 1..n {
        b.edge(ProcId::from_index(i - 1), ProcId::from_index(i));
    }
    b.name(format!("chain({n})")).build()
}

/// A ring (cycle graph) of `n ≥ 3` processors.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 3`.
pub fn ring(n: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::InvalidParameter { reason: format!("ring needs n >= 3, got {n}") });
    }
    let mut b = GraphBuilder::with_capacity(n, Topology::Ring { n }.links());
    for i in 0..n {
        b.edge(ProcId::from_index(i), ProcId::from_index((i + 1) % n));
    }
    b.name(format!("ring({n})")).build()
}

/// A star: processor `0` is the hub, all others are leaves.
///
/// Stars minimize the height of the broadcast tree (`h ≤ 1` when rooted at
/// the hub, `h ≤ 2` otherwise), giving the fastest PIF cycles.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 2`.
pub fn star(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::InvalidParameter { reason: format!("star needs n >= 2, got {n}") });
    }
    let mut b = GraphBuilder::with_capacity(n, Topology::Star { n }.links());
    for i in 1..n {
        b.edge(ProcId(0), ProcId::from_index(i));
    }
    b.name(format!("star({n})")).build()
}

/// The complete graph `K_n`: every pair of processors is linked.
///
/// # Errors
///
/// Returns [`GraphError::Empty`] if `n == 0`.
pub fn complete(n: usize) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::with_capacity(n, Topology::Complete { n }.links());
    for i in 0..n {
        for j in (i + 1)..n {
            b.edge(ProcId::from_index(i), ProcId::from_index(j));
        }
    }
    b.name(format!("complete({n})")).build()
}

/// A complete `k`-ary tree with `n` nodes, rooted at processor `0`
/// (node `i > 0` has parent `(i - 1) / k`).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `k == 0`, or
/// [`GraphError::Empty`] if `n == 0`.
pub fn kary_tree(n: usize, k: usize) -> Result<Graph, GraphError> {
    if k == 0 {
        return Err(GraphError::InvalidParameter { reason: "tree arity k must be >= 1".into() });
    }
    let mut b = GraphBuilder::with_capacity(n, Topology::KaryTree { n, k }.links());
    for i in 1..n {
        b.edge(ProcId::from_index(i), ProcId::from_index((i - 1) / k));
    }
    b.name(format!("{k}ary-tree({n})")).build()
}

/// A uniformly random labelled tree on `n` nodes (random Prüfer sequence).
///
/// # Errors
///
/// Returns [`GraphError::Empty`] if `n == 0`.
pub fn random_tree(n: usize, seed: u64) -> Result<Graph, GraphError> {
    if n <= 2 {
        return chain(n).map(|g| g.with_name(format!("random-tree({n},s{seed})")));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &x in &prufer {
        degree[x] += 1;
    }
    let mut b = GraphBuilder::with_capacity(n, Topology::RandomTree { n, seed }.links());
    // Standard Prüfer decoding: repeatedly join the smallest current leaf to
    // the next sequence element.
    let mut leaves: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&i| degree[i] == 1).map(Reverse).collect();
    for &x in &prufer {
        let Reverse(u) = leaves.pop().expect("a tree always has a leaf");
        b.edge(ProcId::from_index(u), ProcId::from_index(x));
        degree[x] -= 1;
        if degree[x] == 1 {
            leaves.push(Reverse(x));
        }
    }
    // The two remaining leaves form the last edge.
    let mut last = || leaves.pop().expect("two leaves remain").0;
    let (u, v) = (last(), last());
    b.edge(ProcId::from_index(u), ProcId::from_index(v));
    b.name(format!("random-tree({n},s{seed})")).build()
}

/// A `w × h` grid (mesh) with 4-neighborhood.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if either dimension is zero.
pub fn grid(w: usize, h: usize) -> Result<Graph, GraphError> {
    if w == 0 || h == 0 {
        return Err(GraphError::InvalidParameter {
            reason: format!("grid dimensions must be positive, got {w}x{h}"),
        });
    }
    let idx = |x: usize, y: usize| ProcId::from_index(y * w + x);
    let mut b = GraphBuilder::with_capacity(w * h, Topology::Grid { w, h }.links());
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.edge(idx(x, y), idx(x + 1, y));
            }
            if y + 1 < h {
                b.edge(idx(x, y), idx(x, y + 1));
            }
        }
    }
    b.name(format!("grid({w}x{h})")).build()
}

/// A `w × h` torus: a grid with wrap-around links. Requires `w, h ≥ 3` so
/// wrap-around links do not duplicate grid links.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `w < 3` or `h < 3`.
pub fn torus(w: usize, h: usize) -> Result<Graph, GraphError> {
    if w < 3 || h < 3 {
        return Err(GraphError::InvalidParameter {
            reason: format!("torus dimensions must be >= 3, got {w}x{h}"),
        });
    }
    let idx = |x: usize, y: usize| ProcId::from_index(y * w + x);
    let mut b = GraphBuilder::with_capacity(w * h, Topology::Torus { w, h }.links());
    for y in 0..h {
        for x in 0..w {
            b.edge(idx(x, y), idx((x + 1) % w, y));
            b.edge(idx(x, y), idx(x, (y + 1) % h));
        }
    }
    b.name(format!("torus({w}x{h})")).build()
}

/// The `d`-dimensional hypercube `Q_d` on `2^d` processors.
///
/// # Errors
///
/// Returns [`GraphError::TooLarge`] if `d > 20` (guard against accidental
/// enormous graphs). `d = 0` yields the singleton.
pub fn hypercube(d: u32) -> Result<Graph, GraphError> {
    check_size(hypercube_size(d))?;
    let n = 1usize << d;
    let mut b = GraphBuilder::with_capacity(n, Topology::Hypercube { d }.links());
    for i in 0..n {
        for bit in 0..d {
            let j = i ^ (1 << bit);
            if i < j {
                b.edge(ProcId::from_index(i), ProcId::from_index(j));
            }
        }
    }
    b.name(format!("hypercube({d})")).build()
}

/// A lollipop: a clique of `clique` nodes with a path of `tail` extra nodes
/// attached to clique node `0`.
///
/// Lollipops have a long chordless path through a dense region — a stress
/// case for the `Potential` minimal-level parent choice.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `clique < 1`.
pub fn lollipop(clique: usize, tail: usize) -> Result<Graph, GraphError> {
    if clique < 1 {
        return Err(GraphError::InvalidParameter { reason: "lollipop clique must be >= 1".into() });
    }
    let n = clique + tail;
    let mut b = GraphBuilder::with_capacity(n, Topology::Lollipop { clique, tail }.links());
    for i in 0..clique {
        for j in (i + 1)..clique {
            b.edge(ProcId::from_index(i), ProcId::from_index(j));
        }
    }
    for t in 0..tail {
        let prev = if t == 0 { 0 } else { clique + t - 1 };
        b.edge(ProcId::from_index(prev), ProcId::from_index(clique + t));
    }
    b.name(format!("lollipop({clique}+{tail})")).build()
}

/// A caterpillar: a spine chain of `spine` nodes, each with `legs` leaf
/// nodes attached.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Result<Graph, GraphError> {
    if spine == 0 {
        return Err(GraphError::InvalidParameter { reason: "caterpillar spine must be >= 1".into() });
    }
    let n = spine * (1 + legs);
    let mut b = GraphBuilder::with_capacity(n, Topology::Caterpillar { spine, legs }.links());
    for s in 1..spine {
        b.edge(ProcId::from_index(s - 1), ProcId::from_index(s));
    }
    for s in 0..spine {
        for l in 0..legs {
            b.edge(ProcId::from_index(s), ProcId::from_index(spine + s * legs + l));
        }
    }
    b.name(format!("caterpillar({spine}x{legs})")).build()
}

/// A wheel: a ring of `n - 1 ≥ 3` processors plus a hub (processor `0`)
/// linked to every ring processor.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 4`.
pub fn wheel(n: usize) -> Result<Graph, GraphError> {
    if n < 4 {
        return Err(GraphError::InvalidParameter { reason: format!("wheel needs n >= 4, got {n}") });
    }
    let m = n - 1;
    let mut b = GraphBuilder::with_capacity(n, Topology::Wheel { n }.links());
    for i in 0..m {
        b.edge(ProcId::from_index(1 + i), ProcId::from_index(1 + (i + 1) % m));
        b.edge(ProcId(0), ProcId::from_index(1 + i));
    }
    b.name(format!("wheel({n})")).build()
}

/// The complete bipartite graph `K_{a,b}`: processors `0..a` on one side,
/// `a..a+b` on the other, every cross pair linked.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if either side is empty.
pub fn complete_bipartite(a: usize, b: usize) -> Result<Graph, GraphError> {
    if a == 0 || b == 0 {
        return Err(GraphError::InvalidParameter {
            reason: format!("bipartite sides must be non-empty, got {a} and {b}"),
        });
    }
    let mut builder = GraphBuilder::with_capacity(a + b, Topology::Bipartite { a, b }.links());
    for i in 0..a {
        for j in 0..b {
            builder.edge(ProcId::from_index(i), ProcId::from_index(a + j));
        }
    }
    builder.name(format!("bipartite({a}x{b})")).build()
}

/// The Petersen graph: 10 processors, 3-regular, girth 5 — a classical
/// stress topology (vertex-transitive, no short chordless shortcuts).
pub fn petersen() -> Graph {
    let mut b = GraphBuilder::with_capacity(10, Topology::Petersen.links());
    for i in 0..5u32 {
        b.edge(ProcId(i), ProcId((i + 1) % 5)); // outer pentagon
        b.edge(ProcId(5 + i), ProcId(5 + (i + 2) % 5)); // inner pentagram
        b.edge(ProcId(i), ProcId(5 + i)); // spokes
    }
    b.name("petersen").build().expect("petersen is always valid")
}

/// A barbell: two cliques of `clique` processors joined by a path of
/// `bridge` processors. A classical worst case for information flow.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `clique < 2`.
pub fn barbell(clique: usize, bridge: usize) -> Result<Graph, GraphError> {
    if clique < 2 {
        return Err(GraphError::InvalidParameter {
            reason: format!("barbell cliques need >= 2 processors, got {clique}"),
        });
    }
    let n = 2 * clique + bridge;
    let mut b = GraphBuilder::with_capacity(n, Topology::Barbell { clique, bridge }.links());
    let left = |i: usize| ProcId::from_index(i);
    let right = |i: usize| ProcId::from_index(clique + bridge + i);
    for i in 0..clique {
        for j in (i + 1)..clique {
            b.edge(left(i), left(j));
            b.edge(right(i), right(j));
        }
    }
    // Bridge path from left clique node 0 to right clique node 0.
    let mut prev = left(0);
    for k in 0..bridge {
        let node = ProcId::from_index(clique + k);
        b.edge(prev, node);
        prev = node;
    }
    b.edge(prev, right(0));
    b.name(format!("barbell({clique}+{bridge}+{clique})")).build()
}

/// A connected Erdős–Rényi-style random graph: a uniformly random spanning
/// tree (guaranteeing connectivity) plus each remaining pair linked
/// independently with probability `p`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `p` is not in `[0, 1]`, or
/// [`GraphError::Empty`] if `n == 0`.
pub fn random_connected(n: usize, p: f64, seed: u64) -> Result<Graph, GraphError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter {
            reason: format!("edge probability must be in [0,1], got {p}"),
        });
    }
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, Topology::Random { n, p, seed }.links());
    // Random spanning tree: random permutation, attach each node to a random
    // earlier node.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    for i in 1..n {
        let j = rng.random_range(0..i);
        b.edge(ProcId::from_index(order[i]), ProcId::from_index(order[j]));
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.random_bool(p) {
                b.edge(ProcId::from_index(i), ProcId::from_index(j));
            }
        }
    }
    b.name(format!("random({n},p{p},s{seed})")).build()
}

/// Serializable description of a topology-family instance; the unit of
/// parameter sweeps in the experiment harness.
///
/// # Examples
///
/// ```
/// use pif_graph::Topology;
///
/// # fn main() -> Result<(), pif_graph::GraphError> {
/// let g = Topology::Ring { n: 8 }.build()?;
/// assert_eq!(g.len(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Topology {
    /// See [`chain`].
    Chain {
        /// Number of processors.
        n: usize,
    },
    /// See [`ring`].
    Ring {
        /// Number of processors.
        n: usize,
    },
    /// See [`star`].
    Star {
        /// Number of processors.
        n: usize,
    },
    /// See [`complete`].
    Complete {
        /// Number of processors.
        n: usize,
    },
    /// See [`kary_tree`].
    KaryTree {
        /// Number of processors.
        n: usize,
        /// Arity.
        k: usize,
    },
    /// See [`random_tree`].
    RandomTree {
        /// Number of processors.
        n: usize,
        /// RNG seed.
        seed: u64,
    },
    /// See [`grid`].
    Grid {
        /// Width.
        w: usize,
        /// Height.
        h: usize,
    },
    /// See [`torus`].
    Torus {
        /// Width.
        w: usize,
        /// Height.
        h: usize,
    },
    /// See [`hypercube`].
    Hypercube {
        /// Dimension.
        d: u32,
    },
    /// See [`lollipop`].
    Lollipop {
        /// Clique size.
        clique: usize,
        /// Tail length.
        tail: usize,
    },
    /// See [`caterpillar`].
    Caterpillar {
        /// Spine length.
        spine: usize,
        /// Leaves per spine node.
        legs: usize,
    },
    /// See [`wheel`].
    Wheel {
        /// Number of processors (hub included).
        n: usize,
    },
    /// See [`complete_bipartite`].
    Bipartite {
        /// Left side size.
        a: usize,
        /// Right side size.
        b: usize,
    },
    /// See [`petersen`].
    Petersen,
    /// See [`barbell`].
    Barbell {
        /// Clique size.
        clique: usize,
        /// Bridge length.
        bridge: usize,
    },
    /// See [`random_connected`].
    Random {
        /// Number of processors.
        n: usize,
        /// Extra-edge probability.
        p: f64,
        /// RNG seed.
        seed: u64,
    },
}

impl Topology {
    /// Instantiates the described graph.
    ///
    /// # Errors
    ///
    /// [`GraphError::TooLarge`] past [`MAX_NODES`] processors or
    /// [`MAX_EDGES`] links, judged from the parameters before anything is
    /// allocated; otherwise the underlying generator's [`GraphError`].
    pub fn build(&self) -> Result<Graph, GraphError> {
        check_size(self.size())?;
        match *self {
            Topology::Chain { n } => chain(n),
            Topology::Ring { n } => ring(n),
            Topology::Star { n } => star(n),
            Topology::Complete { n } => complete(n),
            Topology::KaryTree { n, k } => kary_tree(n, k),
            Topology::RandomTree { n, seed } => random_tree(n, seed),
            Topology::Grid { w, h } => grid(w, h),
            Topology::Torus { w, h } => torus(w, h),
            Topology::Hypercube { d } => hypercube(d),
            Topology::Lollipop { clique, tail } => lollipop(clique, tail),
            Topology::Caterpillar { spine, legs } => caterpillar(spine, legs),
            Topology::Wheel { n } => wheel(n),
            Topology::Bipartite { a, b } => complete_bipartite(a, b),
            Topology::Petersen => Ok(petersen()),
            Topology::Barbell { clique, bridge } => barbell(clique, bridge),
            Topology::Random { n, p, seed } => random_connected(n, p, seed),
        }
    }

    /// The instance's processor count, computed from its parameters
    /// without building anything (`None` if it overflows `usize`, which
    /// [`Topology::build`] reports as [`GraphError::TooLarge`]). It equals
    /// the built graph's [`Graph::len`], so a size limit can be checked
    /// before the graph is built.
    pub fn processors(&self) -> Option<usize> {
        self.size().0
    }

    /// The links its generator reserves room for: the link count, or for
    /// `random` the spanning tree's n − 1 links plus the expected number
    /// of extra pair draws, saturating where a count overflows.
    fn links(&self) -> usize {
        match *self {
            Topology::Random { n, p, .. } => {
                let extra = pairs(n).map_or(f64::MAX, |m| p * m as f64);
                n.saturating_sub(1).saturating_add(extra as usize)
            }
            _ => self.size().1.unwrap_or(usize::MAX),
        }
    }

    /// The instance's processor and link counts (for `random`, its pair
    /// draws), computed from its parameters; `None` where one overflows.
    fn size(&self) -> (Option<usize>, Option<usize>) {
        match *self {
            Topology::Chain { n }
            | Topology::Star { n }
            | Topology::KaryTree { n, .. }
            | Topology::RandomTree { n, .. } => (Some(n), Some(n.saturating_sub(1))),
            Topology::Ring { n } => (Some(n), Some(n)),
            Topology::Complete { n } | Topology::Random { n, .. } => (Some(n), pairs(n)),
            Topology::Grid { w, h } => (
                w.checked_mul(h),
                w.saturating_sub(1)
                    .checked_mul(h)
                    .zip(h.saturating_sub(1).checked_mul(w))
                    .and_then(|(a, b)| a.checked_add(b)),
            ),
            Topology::Torus { w, h } => {
                let n = w.checked_mul(h);
                (n, n.and_then(|n| n.checked_mul(2)))
            }
            Topology::Hypercube { d } => hypercube_size(d),
            Topology::Lollipop { clique, tail } => {
                (clique.checked_add(tail), pairs(clique).and_then(|m| m.checked_add(tail)))
            }
            Topology::Caterpillar { spine, legs } => (
                legs.checked_add(1).and_then(|l| l.checked_mul(spine)),
                legs.checked_mul(spine).and_then(|m| m.checked_add(spine.saturating_sub(1))),
            ),
            Topology::Wheel { n } => (Some(n), n.saturating_sub(1).checked_mul(2)),
            Topology::Bipartite { a, b } => (a.checked_add(b), a.checked_mul(b)),
            Topology::Petersen => (Some(10), Some(15)),
            Topology::Barbell { clique, bridge } => (
                clique.checked_mul(2).and_then(|c| c.checked_add(bridge)),
                pairs(clique)
                    .and_then(|m| m.checked_mul(2))
                    .and_then(|m| m.checked_add(bridge))
                    .and_then(|m| m.checked_add(1)),
            ),
        }
    }

    /// Parses a compact topology spec of the form `family:params`, the
    /// format accepted by the command-line tools (e.g. `pif-trace`):
    ///
    /// | Spec                  | Topology                                |
    /// |-----------------------|-----------------------------------------|
    /// | `chain:N`             | [`Topology::Chain`]                     |
    /// | `ring:N`              | [`Topology::Ring`]                      |
    /// | `star:N`              | [`Topology::Star`]                      |
    /// | `complete:N`          | [`Topology::Complete`]                  |
    /// | `tree:N:K`            | [`Topology::KaryTree`]                  |
    /// | `randtree:N:SEED`     | [`Topology::RandomTree`]                |
    /// | `grid:WxH`            | [`Topology::Grid`]                      |
    /// | `torus:WxH`           | [`Topology::Torus`]                     |
    /// | `hypercube:D`         | [`Topology::Hypercube`]                 |
    /// | `lollipop:C:T`        | [`Topology::Lollipop`]                  |
    /// | `caterpillar:S:L`     | [`Topology::Caterpillar`]               |
    /// | `wheel:N`             | [`Topology::Wheel`]                     |
    /// | `bipartite:AxB`       | [`Topology::Bipartite`]                 |
    /// | `petersen`            | [`Topology::Petersen`]                  |
    /// | `barbell:C:B`         | [`Topology::Barbell`]                   |
    /// | `random:N:P:SEED`     | [`Topology::Random`]                    |
    ///
    /// Parsing only checks the spec's shape; parameter validity (e.g. a
    /// zero-sized grid) is still reported by [`Topology::build`].
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] naming the malformed spec.
    pub fn parse(spec: &str) -> Result<Topology, GraphError> {
        fn bad(spec: &str) -> GraphError {
            GraphError::InvalidParameter { reason: format!("unrecognized topology spec {spec:?}") }
        }
        fn num<T: std::str::FromStr>(part: &str, spec: &str) -> Result<T, GraphError> {
            part.parse().map_err(|_| bad(spec))
        }
        /// Splits `WxH`-style dimension pairs.
        fn dims(part: &str, spec: &str) -> Result<(usize, usize), GraphError> {
            let (w, h) = part.split_once('x').ok_or_else(|| bad(spec))?;
            Ok((num(w, spec)?, num(h, spec)?))
        }
        let mut parts = spec.split(':');
        let family = parts.next().unwrap_or("");
        let args: Vec<&str> = parts.collect();
        let topo = match (family, args.as_slice()) {
            ("chain", [n]) => Topology::Chain { n: num(n, spec)? },
            ("ring", [n]) => Topology::Ring { n: num(n, spec)? },
            ("star", [n]) => Topology::Star { n: num(n, spec)? },
            ("complete", [n]) => Topology::Complete { n: num(n, spec)? },
            ("tree", [n, k]) => Topology::KaryTree { n: num(n, spec)?, k: num(k, spec)? },
            ("randtree", [n, seed]) => {
                Topology::RandomTree { n: num(n, spec)?, seed: num(seed, spec)? }
            }
            ("grid", [wh]) => {
                let (w, h) = dims(wh, spec)?;
                Topology::Grid { w, h }
            }
            ("torus", [wh]) => {
                let (w, h) = dims(wh, spec)?;
                Topology::Torus { w, h }
            }
            ("hypercube", [d]) => Topology::Hypercube { d: num(d, spec)? },
            ("lollipop", [c, t]) => {
                Topology::Lollipop { clique: num(c, spec)?, tail: num(t, spec)? }
            }
            ("caterpillar", [s, l]) => {
                Topology::Caterpillar { spine: num(s, spec)?, legs: num(l, spec)? }
            }
            ("wheel", [n]) => Topology::Wheel { n: num(n, spec)? },
            ("bipartite", [ab]) => {
                let (a, b) = dims(ab, spec)?;
                Topology::Bipartite { a, b }
            }
            ("petersen", []) => Topology::Petersen,
            ("barbell", [c, b]) => {
                Topology::Barbell { clique: num(c, spec)?, bridge: num(b, spec)? }
            }
            ("random", [n, p, seed]) => Topology::Random {
                n: num(n, spec)?,
                p: num(p, spec)?,
                seed: num(seed, spec)?,
            },
            _ => return Err(bad(spec)),
        };
        Ok(topo)
    }

    /// The instance in the [`Topology::parse`] spec format, which parses
    /// back to an equal value. Reports record topologies this way.
    pub fn spec(&self) -> String {
        match *self {
            Topology::Chain { n } => format!("chain:{n}"),
            Topology::Ring { n } => format!("ring:{n}"),
            Topology::Star { n } => format!("star:{n}"),
            Topology::Complete { n } => format!("complete:{n}"),
            Topology::KaryTree { n, k } => format!("tree:{n}:{k}"),
            Topology::RandomTree { n, seed } => format!("randtree:{n}:{seed}"),
            Topology::Grid { w, h } => format!("grid:{w}x{h}"),
            Topology::Torus { w, h } => format!("torus:{w}x{h}"),
            Topology::Hypercube { d } => format!("hypercube:{d}"),
            Topology::Lollipop { clique, tail } => format!("lollipop:{clique}:{tail}"),
            Topology::Caterpillar { spine, legs } => format!("caterpillar:{spine}:{legs}"),
            Topology::Wheel { n } => format!("wheel:{n}"),
            Topology::Bipartite { a, b } => format!("bipartite:{a}x{b}"),
            Topology::Petersen => "petersen".to_string(),
            Topology::Barbell { clique, bridge } => format!("barbell:{clique}:{bridge}"),
            Topology::Random { n, p, seed } => format!("random:{n}:{p}:{seed}"),
        }
    }

    /// A representative mixed suite of small-to-medium topologies covering
    /// trees, sparse cyclic graphs, dense graphs, and random graphs — the
    /// default workload of the experiment harness.
    pub fn standard_suite() -> Vec<Topology> {
        vec![
            Topology::Chain { n: 16 },
            Topology::Ring { n: 16 },
            Topology::Star { n: 16 },
            Topology::Complete { n: 12 },
            Topology::KaryTree { n: 15, k: 2 },
            Topology::RandomTree { n: 16, seed: 7 },
            Topology::Grid { w: 4, h: 4 },
            Topology::Torus { w: 4, h: 4 },
            Topology::Hypercube { d: 4 },
            Topology::Lollipop { clique: 6, tail: 8 },
            Topology::Caterpillar { spine: 5, legs: 2 },
            Topology::Wheel { n: 12 },
            Topology::Bipartite { a: 4, b: 6 },
            Topology::Petersen,
            Topology::Barbell { clique: 4, bridge: 3 },
            Topology::Random { n: 16, p: 0.2, seed: 11 },
        ]
    }
}

impl std::str::FromStr for Topology {
    type Err = GraphError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Topology::parse(s)
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.build() {
            Ok(g) => write!(f, "{}", g.name()),
            Err(_) => write!(f, "{self:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn chain_shape() {
        let g = chain(5).unwrap();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(ProcId(0)), 1);
        assert_eq!(g.degree(ProcId(2)), 2);
        assert_eq!(metrics::diameter(&g), 4);
    }

    #[test]
    fn ring_shape() {
        let g = ring(7).unwrap();
        assert_eq!(g.edge_count(), 7);
        assert!(g.procs().all(|p| g.degree(p) == 2));
        assert_eq!(metrics::diameter(&g), 3);
        assert!(ring(2).is_err());
    }

    #[test]
    fn star_shape() {
        let g = star(9).unwrap();
        assert_eq!(g.degree(ProcId(0)), 8);
        assert!((1..9).all(|i| g.degree(ProcId(i)) == 1));
        assert!(star(1).is_err());
    }

    #[test]
    fn complete_shape() {
        let g = complete(6).unwrap();
        assert_eq!(g.edge_count(), 15);
        assert_eq!(metrics::diameter(&g), 1);
    }

    #[test]
    fn kary_tree_shape() {
        let g = kary_tree(7, 2).unwrap();
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.degree(ProcId(0)), 2);
        // Leaves 3..7 have degree 1.
        assert!((3..7).all(|i| g.degree(ProcId(i)) == 1));
        assert!(kary_tree(5, 0).is_err());
    }

    #[test]
    fn random_tree_is_a_tree() {
        for seed in 0..20 {
            for n in [1usize, 2, 3, 4, 10, 33] {
                let g = random_tree(n, seed).unwrap();
                assert_eq!(g.len(), n);
                assert_eq!(g.edge_count(), n.saturating_sub(1), "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn random_tree_varies_with_seed() {
        let a = random_tree(12, 1).unwrap();
        let b = random_tree(12, 2).unwrap();
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_ne!(ea, eb, "two seeds produced identical trees (unlikely)");
        // Determinism: same seed, same tree.
        let a2 = random_tree(12, 1).unwrap();
        let ea2: Vec<_> = a2.edges().collect();
        assert_eq!(ea, ea2);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4).unwrap();
        assert_eq!(g.len(), 12);
        assert_eq!(g.edge_count(), 3 * 4 * 2 - 3 - 4);
        assert_eq!(metrics::diameter(&g), 2 + 3);
        assert!(grid(0, 3).is_err());
    }

    #[test]
    fn torus_shape() {
        let g = torus(4, 4).unwrap();
        assert_eq!(g.len(), 16);
        assert!(g.procs().all(|p| g.degree(p) == 4));
        assert_eq!(metrics::diameter(&g), 4);
        assert!(torus(2, 4).is_err());
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4).unwrap();
        assert_eq!(g.len(), 16);
        assert!(g.procs().all(|p| g.degree(p) == 4));
        assert_eq!(metrics::diameter(&g), 4);
        assert_eq!(hypercube(0).unwrap().len(), 1);
        assert!(hypercube(21).is_err());
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(5, 4).unwrap();
        assert_eq!(g.len(), 9);
        // Clique nodes 1..5 have degree 4; node 0 has clique degree 4 + tail 1.
        assert_eq!(g.degree(ProcId(0)), 5);
        assert_eq!(g.degree(ProcId(8)), 1);
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(4, 3).unwrap();
        assert_eq!(g.len(), 16);
        assert_eq!(g.edge_count(), 3 + 12);
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(8).unwrap();
        assert_eq!(g.degree(ProcId(0)), 7);
        assert!((1..8).all(|i| g.degree(ProcId(i)) == 3));
        assert!(wheel(3).is_err());
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 4).unwrap();
        assert_eq!(g.len(), 7);
        assert_eq!(g.edge_count(), 12);
        assert!((0..3).all(|i| g.degree(ProcId(i)) == 4));
        assert!((3..7).all(|i| g.degree(ProcId(i)) == 3));
        // No intra-side edges.
        assert!(!g.has_edge(ProcId(0), ProcId(1)));
        assert!(!g.has_edge(ProcId(3), ProcId(4)));
        assert!(complete_bipartite(0, 3).is_err());
    }

    #[test]
    fn petersen_shape() {
        let g = petersen();
        assert_eq!(g.len(), 10);
        assert_eq!(g.edge_count(), 15);
        assert!(g.procs().all(|p| g.degree(p) == 3));
        assert_eq!(metrics::diameter(&g), 2);
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(4, 2).unwrap();
        assert_eq!(g.len(), 10);
        // Two K4 (6 edges each) + 3 bridge edges.
        assert_eq!(g.edge_count(), 15);
        assert_eq!(metrics::diameter(&g), 5);
        assert!(barbell(1, 0).is_err());
        // Zero bridge: the cliques touch directly.
        let g0 = barbell(3, 0).unwrap();
        assert_eq!(g0.len(), 6);
        assert!(g0.has_edge(ProcId(0), ProcId(3)));
    }

    #[test]
    fn random_connected_is_connected_and_deterministic() {
        for seed in 0..10 {
            let g = random_connected(20, 0.1, seed).unwrap();
            assert_eq!(g.len(), 20);
            let g2 = random_connected(20, 0.1, seed).unwrap();
            assert_eq!(g.edges().collect::<Vec<_>>(), g2.edges().collect::<Vec<_>>());
        }
        assert!(random_connected(5, 1.5, 0).is_err());
    }

    #[test]
    fn standard_suite_all_build() {
        for t in Topology::standard_suite() {
            let g = t.build().unwrap_or_else(|e| panic!("{t:?} failed: {e}"));
            assert!(!g.is_empty());
            assert!(!g.name().is_empty());
        }
    }

    #[test]
    fn topology_display_uses_graph_name() {
        assert_eq!(Topology::Ring { n: 5 }.to_string(), "ring(5)");
    }

    #[test]
    fn topology_specs_parse() {
        let cases = [
            ("chain:16", Topology::Chain { n: 16 }),
            ("ring:7", Topology::Ring { n: 7 }),
            ("star:5", Topology::Star { n: 5 }),
            ("complete:6", Topology::Complete { n: 6 }),
            ("tree:15:2", Topology::KaryTree { n: 15, k: 2 }),
            ("randtree:16:7", Topology::RandomTree { n: 16, seed: 7 }),
            ("grid:4x3", Topology::Grid { w: 4, h: 3 }),
            ("torus:8x8", Topology::Torus { w: 8, h: 8 }),
            ("hypercube:4", Topology::Hypercube { d: 4 }),
            ("lollipop:6:8", Topology::Lollipop { clique: 6, tail: 8 }),
            ("caterpillar:5:2", Topology::Caterpillar { spine: 5, legs: 2 }),
            ("wheel:12", Topology::Wheel { n: 12 }),
            ("bipartite:4x6", Topology::Bipartite { a: 4, b: 6 }),
            ("petersen", Topology::Petersen),
            ("barbell:4:3", Topology::Barbell { clique: 4, bridge: 3 }),
            ("random:16:0.2:11", Topology::Random { n: 16, p: 0.2, seed: 11 }),
        ];
        for (spec, want) in cases {
            let got: Topology = spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(got, want, "{spec}");
            got.build().unwrap_or_else(|e| panic!("{spec} build: {e}"));
        }
    }

    #[test]
    fn sizes_match_the_built_graphs() {
        let mut topologies = Topology::standard_suite();
        topologies.extend([Topology::Hypercube { d: 0 }, Topology::Chain { n: 1 }]);
        for t in topologies {
            let g = t.build().unwrap();
            let (nodes, edges) = t.size();
            assert_eq!(nodes, Some(g.len()), "{t}");
            assert_eq!(t.processors(), Some(g.len()), "{t}");
            if let Topology::Random { n, .. } = t {
                assert_eq!(edges, Some(n * (n - 1) / 2), "{t}");
            } else {
                assert_eq!(edges, Some(g.edge_count()), "{t}");
            }
        }
    }

    #[test]
    fn oversize_specs_are_refused_before_anything_is_built() {
        let overflowing = format!("torus:{0}x{0}", 1usize << (usize::BITS / 2));
        for spec in [
            "complete:1000000",
            "grid:100000x100000",
            &overflowing,
            "random:1000000:0.5:1",
            "hypercube:21",
        ] {
            let err = Topology::parse(spec).unwrap().build().unwrap_err();
            assert!(matches!(err, GraphError::TooLarge { .. }), "{spec}: {err}");
        }
        // The limits are hypercube:20's size, which stays admitted.
        let q20 = Topology::Hypercube { d: 20 }.size();
        assert_eq!(q20, (Some(MAX_NODES), Some(MAX_EDGES)));
        assert_eq!(check_size(q20), Ok(()));
        assert_eq!(check_size(Topology::Chain { n: 65_537 }.size()), Ok(()));
    }

    #[test]
    fn topology_specs_round_trip_through_parse() {
        // The standard suite holds one instance of every family.
        for t in Topology::standard_suite() {
            let spec = t.spec();
            assert_eq!(Topology::parse(&spec).unwrap(), t, "{spec}");
        }
        let fractional = Topology::Random { n: 16, p: 0.1, seed: 3 };
        assert_eq!(Topology::parse(&fractional.spec()).unwrap(), fractional);
    }

    #[test]
    fn malformed_topology_specs_are_typed_errors() {
        for bad in ["", "chain", "chain:x", "torus:4", "torus:4x", "grid:4x4x4", "mobius:5"] {
            let err = Topology::parse(bad).unwrap_err();
            assert!(matches!(err, GraphError::InvalidParameter { .. }), "{bad}: {err}");
        }
    }
}
