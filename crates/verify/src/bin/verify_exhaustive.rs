//! E11 — exhaustive verification of snap-stabilization on tiny networks:
//! every configuration × every daemon choice, machine-checked.
//!
//! ```sh
//! cargo run --release -p pif-verify --bin verify_exhaustive
//! ```
//!
//! By default the fast instance set runs (everything up to the triangle
//! as a full product search, chain(4) scans only). `--tier2` adds the
//! large exhaustive instances gated in CI: chain(4) + ring(4)
//! correction-bound and chain(4) snap-safety product searches. Under
//! `--reduction none` (the default) it also asserts their published
//! state and transition counts.
//! `--workers N` pins the worker count (0 is clamped to 1; one worker
//! runs the search inline on the main thread), `--reduction
//! none|por|symmetry|full` selects the state-space reduction.
//!
//! Two further modes for the tier-2 gate:
//!
//! * `--differential-reductions` — verdict-equality smoke: every
//!   reduction against the exhaustive reference on every tier-1
//!   instance (product searches and the reachable-wave check) plus the
//!   leaf-guard mutant; prints the states-explored ratios and exits
//!   non-zero on any divergence.
//! * `--spill-demo [--rss-ceiling-mb N]` — runs the chain(4)
//!   correction-bound product search with a deliberately small spill
//!   budget for the visited table and reports the process RSS
//!   high-water mark (`VmHWM`), asserting it stays under the ceiling.

use pif_core::{Features, PifProtocol};
use pif_graph::{generators, Graph, ProcId};
use pif_verify::{Checker, Reduction, StateSpace};

struct Opts {
    checker: Checker,
    tier2: bool,
}

fn verify(name: &str, graph: Graph, root: ProcId, product: bool, scans: bool, opts: &Opts) {
    let t0 = std::time::Instant::now();
    let protocol = PifProtocol::new(root, &graph);
    let space = StateSpace::new(graph, protocol);
    let checker = opts.checker;
    print!("{name:<28} root {root}  configs {:>9}  ", space.config_count());
    if scans {
        if let Some(cfg) = checker.check_no_deadlock(&space) {
            println!("DEADLOCK FOUND: {cfg:?}");
            return;
        }
        let p1 = checker.check_universal(&space, pif_core::analysis::property1_holds);
        assert!(p1.is_none(), "Property 1 violated: {p1:?}");
    }
    if product {
        // Theorem 1's round bound, exhaustively.
        let bound = 3 * u32::from(space.protocol().l_max()) + 3;
        let t1 = checker.check_correction_bound(&space, bound);
        assert!(t1.verified(), "Theorem 1 violated: {:#?}", t1.violations);
        print!("T1<= {bound} rounds OK ({} states)  ", t1.states_explored);
    }
    if !product {
        println!(
            "no deadlock, Property 1 universal  (product search skipped)  ({:.1}s)",
            t0.elapsed().as_secs_f64()
        );
        return;
    }
    let report = checker.check_snap_safety(&space, true);
    println!(
        "states {:>10}  transitions {:>11}  {}  ({:.1}s)",
        report.states_explored,
        report.transitions,
        if report.verified() { "VERIFIED" } else { "VIOLATED" },
        t0.elapsed().as_secs_f64(),
    );
    assert!(report.verified(), "violations: {:#?}", report.violations);
}

/// Tier-2 large instances: one size class above the default set. Only
/// the product searches run here (the universal scans already cover
/// chain(4) in the default set; scans over ring(4)'s 7·10^7
/// configurations are cheap and included for completeness).
fn verify_tier2(opts: &Opts) {
    println!("\ntier-2 exhaustive coverage (one size class up):");

    // chain(4): Theorem 1 bound and full snap-safety product search.
    // The counts are EXPERIMENTS.md E11's, on any worker count.
    {
        let g = generators::chain(4).unwrap();
        let protocol = PifProtocol::new(ProcId(0), &g);
        let space = StateSpace::new(g, protocol);
        let bound = 3 * u32::from(space.protocol().l_max()) + 3;
        let t0 = std::time::Instant::now();
        let t1 = opts.checker.check_correction_bound(&space, bound);
        assert!(t1.verified(), "Theorem 1 violated on chain(4): {:#?}", t1.violations);
        println!(
            "chain(4) T1 <= {bound} rounds    states {:>11}  VERIFIED  ({:.1}s)",
            t1.states_explored,
            t0.elapsed().as_secs_f64()
        );
        assert_published(opts, "chain(4) correction states", t1.states_explored, 98_200_935);
        let t0 = std::time::Instant::now();
        let snap = opts.checker.check_snap_safety(&space, true);
        assert!(snap.verified(), "snap safety violated on chain(4): {:#?}", snap.violations);
        println!(
            "chain(4) snap safety        states {:>11}  transitions {:>12}  VERIFIED  ({:.1}s)",
            snap.states_explored,
            snap.transitions,
            t0.elapsed().as_secs_f64()
        );
        assert_published(opts, "chain(4) snap states", snap.states_explored, 36_346_391);
        assert_published(opts, "chain(4) snap transitions", snap.transitions, 195_050_189);
    }

    // ring(4): first tier-2 cyclic instance — exercises the
    // arbitrary-network (non-tree) B/F-correction paths under the
    // Theorem 1 bound.
    {
        let g = generators::ring(4).unwrap();
        let protocol = PifProtocol::new(ProcId(0), &g);
        let space = StateSpace::new(g, protocol);
        let bound = 3 * u32::from(space.protocol().l_max()) + 3;
        let t0 = std::time::Instant::now();
        let t1 = opts.checker.check_correction_bound(&space, bound);
        assert!(t1.verified(), "Theorem 1 violated on ring(4): {:#?}", t1.violations);
        println!(
            "ring(4)  T1 <= {bound} rounds   states {:>11}  VERIFIED  ({:.1}s)",
            t1.states_explored,
            t0.elapsed().as_secs_f64()
        );
        assert_published(opts, "ring(4) correction states", t1.states_explored, 178_657_168);
    }
}

/// Asserts a tier-2 count equals its published value. Only the exhaustive
/// reference is held to it: a reduction explores fewer states by design.
fn assert_published(opts: &Opts, what: &str, got: u64, published: u64) {
    if opts.checker.reduction() == Reduction::None {
        assert_eq!(got, published, "{what} differ from the published count");
    }
}

/// Tier-1 instance set shared by the default run and the differential
/// smoke.
fn tier1_instances() -> Vec<(&'static str, Graph, ProcId)> {
    vec![
        ("chain(2)", generators::chain(2).unwrap(), ProcId(0)),
        ("chain(3), root end", generators::chain(3).unwrap(), ProcId(0)),
        ("chain(3), root middle", generators::chain(3).unwrap(), ProcId(1)),
        ("triangle = complete(3)", generators::complete(3).unwrap(), ProcId(0)),
    ]
}

/// Verdict-equality smoke across all reductions: panics (non-zero exit)
/// on any divergence from the exhaustive reference.
fn differential_reductions(opts: &Opts) {
    println!("reduction differential: verdicts must match the exhaustive reference\n");
    for (name, g, root) in tier1_instances() {
        let protocol = PifProtocol::new(root, &g);
        let space = StateSpace::new(g, protocol);
        let bound = 3 * u32::from(space.protocol().l_max()) + 3;
        let reference = opts.checker.with_reduction(Reduction::None);
        let ref_corr = reference.check_correction_bound(&space, bound);
        let ref_snap = reference.check_snap_safety(&space, true);
        let ref_wave = reference.check_snap_wave(&space, true);
        for red in Reduction::ALL {
            let c = opts.checker.with_reduction(red);
            let corr = c.check_correction_bound(&space, bound);
            let snap = c.check_snap_safety(&space, true);
            let wave = c.check_snap_wave(&space, true);
            assert_eq!(
                (ref_corr.violation_count, &ref_corr.violations),
                (corr.violation_count, &corr.violations),
                "{name}/{red}: correction verdict diverged"
            );
            assert_eq!(
                (ref_snap.violation_count, format!("{:?}", ref_snap.violations)),
                (snap.violation_count, format!("{:?}", snap.violations)),
                "{name}/{red}: snap verdict diverged"
            );
            assert_eq!(
                ref_wave.violation_count, wave.violation_count,
                "{name}/{red}: wave verdict diverged"
            );
            let red = red.to_string();
            println!(
                "{name:<24} {red:<9} corr {:>8} (x{:.2})  snap {:>8} (x{:.2})  wave {:>6} (x{:.2})",
                corr.states_explored,
                ref_corr.states_explored as f64 / corr.states_explored as f64,
                snap.states_explored,
                ref_snap.states_explored as f64 / snap.states_explored as f64,
                wave.states_explored,
                ref_wave.states_explored as f64 / wave.states_explored as f64,
            );
        }
    }
    // The mutant: every reduction must still flag the leaf-guard
    // ablation, with the exact reference report (two-phase fallback).
    let g = generators::chain(3).unwrap();
    let ablated = PifProtocol::new(ProcId(0), &g)
        .with_features(Features { leaf_guard: false, ..Features::paper() });
    let space = StateSpace::new(g, ablated);
    let reference = opts.checker.with_reduction(Reduction::None).check_snap_safety(&space, false);
    assert!(!reference.verified(), "the ablation must violate");
    for red in Reduction::ALL {
        let r = opts.checker.with_reduction(red).check_snap_safety(&space, false);
        assert!(!r.verified(), "{red}: reduction hid the leaf-guard bug");
        assert_eq!(reference.violation_count, r.violation_count, "{red}: mutant count diverged");
        assert_eq!(
            format!("{:?}", reference.violations),
            format!("{:?}", r.violations),
            "{red}: mutant examples diverged"
        );
    }
    println!(
        "\nmutant: leaf-guard ablation flagged by every reduction ({} violations)",
        reference.violation_count
    );
    println!("\nreduction differential OK");
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn vm_hwm_mb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb / 1024)
}

/// The spill-tier demonstration: chain(4) correction-bound product
/// search with a small visited-table budget, asserting the RSS
/// high-water mark stays under the ceiling.
fn spill_demo(opts: &Opts, ceiling_mb: Option<u64>) {
    /// Per-set visited budget: small enough to force frozen runs on
    /// chain(4)'s ~10^8-state search, large enough to keep probe traffic
    /// reasonable.
    const SPILL_BUDGET: usize = 512 << 20;
    let g = generators::chain(4).unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g);
    let space = StateSpace::new(g, protocol);
    let bound = 3 * u32::from(space.protocol().l_max()) + 3;
    let checker = opts.checker.with_spill_budget(SPILL_BUDGET);
    let t0 = std::time::Instant::now();
    let r = checker.check_correction_bound(&space, bound);
    assert!(r.verified(), "Theorem 1 violated on chain(4): {:#?}", r.violations);
    let hwm = vm_hwm_mb();
    println!(
        "chain(4) T1 <= {bound} rounds under a {} MiB visited budget: states {}  VmHWM {hwm} MiB  ({:.1}s)",
        SPILL_BUDGET >> 20,
        r.states_explored,
        t0.elapsed().as_secs_f64()
    );
    if let Some(ceiling) = ceiling_mb {
        assert!(
            hwm <= ceiling,
            "RSS high-water mark {hwm} MiB exceeds the {ceiling} MiB ceiling"
        );
        println!("RSS ceiling OK ({hwm} <= {ceiling} MiB)");
    }
}

fn main() {
    let mut opts = Opts { checker: Checker::auto(), tier2: false };
    let mut differential = false;
    let mut spill = false;
    let mut rss_ceiling_mb: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tier2" => opts.tier2 = true,
            "--differential-reductions" => differential = true,
            "--spill-demo" => spill = true,
            "--rss-ceiling-mb" => {
                rss_ceiling_mb = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--rss-ceiling-mb requires a number"),
                );
            }
            "--workers" => {
                let w: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers requires a number");
                opts.checker = Checker::with_workers(w).with_reduction(opts.checker.reduction());
            }
            "--reduction" => {
                let red = match args.next().as_deref() {
                    Some("none") => Reduction::None,
                    Some("por") => Reduction::Por,
                    Some("symmetry") => Reduction::Symmetry,
                    Some("full") => Reduction::Full,
                    other => panic!("--reduction requires none|por|symmetry|full, got {other:?}"),
                };
                opts.checker = opts.checker.with_reduction(red);
            }
            other => panic!(
                "unknown argument {other}; expected --tier2, --workers N, --reduction R, --differential-reductions, or --spill-demo [--rss-ceiling-mb N]"
            ),
        }
    }
    if differential {
        differential_reductions(&opts);
        return;
    }
    if spill {
        spill_demo(&opts, rss_ceiling_mb);
        return;
    }
    println!(
        "exhaustive snap-stabilization verification (every configuration, every daemon choice; {} worker(s))\n",
        opts.checker.workers(),
    );
    for (name, g, root) in tier1_instances() {
        verify(name, g, root, true, true, &opts);
    }
    verify("chain(4), root end", generators::chain(4).unwrap(), ProcId(0), false, true, &opts);

    // Sensitivity: the checker must FIND the bug in the leaf-guard
    // ablation.
    let g = generators::chain(3).unwrap();
    let ablated = PifProtocol::new(ProcId(0), &g)
        .with_features(Features { leaf_guard: false, ..Features::paper() });
    let space = StateSpace::new(g, ablated);
    let report = opts.checker.check_snap_safety(&space, false);
    assert!(!report.verified(), "checker failed to find the known ablation bug");
    println!(
        "\nsensitivity check: leaf-guard ablation on chain(3) -> {} violation(s) found ({} retained), e.g. processors {:?} never received",
        report.violation_count,
        report.violations.len(),
        report.violations[0].not_received
    );

    if opts.tier2 {
        verify_tier2(&opts);
    }
    println!("\nall instances verified");
}
