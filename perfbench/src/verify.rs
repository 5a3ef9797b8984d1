//! The verifier workload: `Checker::auto()` on the published E11
//! instances, repeated in warm passes.
//!
//! One pass runs eight checks: `check_correction_bound(3·L_max + 3)` and
//! `check_snap_safety(true)` on chain3, chain3-mid and triangle, and
//! `check_snap_wave(true)` on ring5 and grid3x2. A check is correct when
//! its verdict is "verified" and it explored exactly the published number
//! of states. Set-up is a fresh set of state spaces plus one cold pass,
//! which builds each space's shared guard memo: the time to the first
//! complete set of verdicts.

use std::time::Instant;

use pif_core::PifProtocol;
use pif_graph::{generators, Graph, ProcId};
use pif_verify::visited::VisitedSet;
use pif_verify::{Checker, StateSpace};

use crate::stats::{median, mix, quantile};
use crate::trace::{Tracer, ROOT};
use crate::{Metrics, Outcome};

/// The workload's name.
pub const NAME: &str = "verify-tier1";

/// Warm-pass time of one measurement round of the untraced run.
const ROUND_S: f64 = 0.8;

#[derive(Clone, Copy)]
enum Check {
    Correction,
    Snap,
    Wave,
}

/// `(instance, check, published states_explored)`, instance indices into
/// [`instances`].
const CHECKS: [(usize, Check, u64); 8] = [
    (0, Check::Correction, 87_453),
    (1, Check::Correction, 39_492),
    (2, Check::Correction, 154_404),
    (0, Check::Snap, 47_554),
    (1, Check::Snap, 23_531),
    (2, Check::Snap, 93_995),
    (3, Check::Wave, 398),
    (4, Check::Wave, 1_319),
];

const SPAN_NAMES: [&str; 8] = [
    "verify.correction.chain3",
    "verify.correction.chain3-mid",
    "verify.correction.triangle",
    "verify.snap.chain3",
    "verify.snap.chain3-mid",
    "verify.snap.triangle",
    "verify.wave.ring5",
    "verify.wave.grid3x2",
];

/// The E11 instances as `(graph, root)`, in [`CHECKS`] index order:
/// chain3, chain3-mid, triangle, ring5, grid3x2.
fn instances() -> Result<Vec<(Graph, ProcId)>, String> {
    let g = |r: Result<Graph, pif_graph::GraphError>| r.map_err(|e| e.to_string());
    Ok(vec![
        (g(generators::chain(3))?, ProcId(0)),
        (g(generators::chain(3))?, ProcId(1)),
        (g(generators::complete(3))?, ProcId(0)),
        (g(generators::ring(5))?, ProcId(0)),
        (g(generators::grid(3, 2))?, ProcId(1)),
    ])
}

fn spaces() -> Result<Vec<StateSpace>, String> {
    instances()?
        .into_iter()
        .map(|(g, root)| {
            let protocol = PifProtocol::new(root, &g);
            StateSpace::try_new(g, protocol).map_err(|e| e.to_string())
        })
        .collect()
}

/// One check's outcome: states explored, transitions (snap searches
/// only), and whether the verdict is "verified".
struct Verdict {
    states: u64,
    transitions: u64,
    verified: bool,
}

fn check(checker: &Checker, space: &StateSpace, kind: Check) -> Verdict {
    match kind {
        Check::Correction => {
            let bound = 3 * u32::from(space.protocol().l_max()) + 3;
            let r = checker.check_correction_bound(space, bound);
            Verdict {
                states: r.states_explored,
                transitions: 0,
                verified: r.verified(),
            }
        }
        Check::Snap | Check::Wave => {
            let r = if matches!(kind, Check::Wave) {
                checker.check_snap_wave(space, true)
            } else {
                checker.check_snap_safety(space, true)
            };
            Verdict {
                states: r.states_explored,
                transitions: r.transitions,
                verified: r.verified(),
            }
        }
    }
}

/// Per-pass results.
struct Pass {
    check_s: [f64; 8],
    states: u64,
    transitions: u64,
    wrong: Vec<String>,
}

fn pass(checker: &Checker, spaces: &[StateSpace], mut tr: Option<(&mut Tracer, u64)>) -> Pass {
    let top = tr
        .as_mut()
        .map_or(ROOT, |(t, no)| t.open("verify.pass", ROOT, *no));
    let mut p = Pass {
        check_s: [0.0; 8],
        states: 0,
        transitions: 0,
        wrong: Vec::new(),
    };
    for (k, &(inst, kind, expected)) in CHECKS.iter().enumerate() {
        let span = tr
            .as_mut()
            .map_or(ROOT, |(t, no)| t.open(SPAN_NAMES[k], top, *no));
        let t = Instant::now();
        let v = check(checker, &spaces[inst], kind);
        p.check_s[k] = t.elapsed().as_secs_f64();
        if let Some((t, _)) = tr.as_mut() {
            t.close(span);
        }
        p.states += v.states;
        p.transitions += v.transitions;
        if !v.verified || v.states != expected {
            p.wrong.push(format!(
                "{}: verified {} with {} states, expected verified with {expected}",
                SPAN_NAMES[k], v.verified, v.states
            ));
        }
    }
    if let Some((t, _)) = tr {
        t.close(top);
    }
    p
}

/// Runs the verifier workload for `seconds` (untraced or traced).
pub fn run(seconds: f64, traced: bool) -> Result<(Outcome, Option<Tracer>), String> {
    let checker = Checker::auto();
    let mut attempted = 0u64;
    let mut problems = Vec::new();
    let mut tally = |p: &Pass| {
        attempted += CHECKS.len() as u64;
        problems.extend(p.wrong.iter().cloned());
    };

    // Set-up: fresh spaces and a cold pass. The untraced run repeats it in
    // every round, interleaved with warm passes, so set-up and search
    // samples see the same drift of the host's speed.
    let (mut spaces, cold, setup_s) = cold_setup(&checker)?;
    let mut setup = vec![setup_s];
    tally(&cold);

    let start = Instant::now();
    let mut m = Metrics::new();
    let mut tracer = None;
    let mut passes = Vec::new();
    let mut notes = Vec::new();
    if traced {
        m.insert("verify.memo_build_s", memo_build_s(&checker)?);
        let mut tr = Tracer::new(100_000);
        let mut plain = Vec::new();
        let mut spans = Vec::new();
        let mut no = 0u64;
        while start.elapsed().as_secs_f64() < 0.8 * seconds || plain.len() < 2 {
            let t = Instant::now();
            let p = pass(&checker, &spaces, None);
            plain.push(t.elapsed().as_secs_f64());
            tally(&p);
            let t = Instant::now();
            let p = pass(&checker, &spaces, Some((&mut tr, no)));
            spans.push(t.elapsed().as_secs_f64());
            tally(&p);
            passes.push(p);
            no += 1;
        }
        m.insert("trace.overhead_frac", median(&spans) / median(&plain) - 1.0);
        m.insert("verify.pass_s", median(&plain));
        let last = passes.last().expect("at least one pass");
        m.insert("verify.states", last.states as f64);
        m.insert("verify.transitions", last.transitions as f64);
        let (new_ns, dup_ns) = visited_insert_ns()?;
        m.insert("verify.visited_insert_new_ns", new_ns);
        m.insert("verify.visited_insert_dup_ns", dup_ns);
        let (enc, dec) = codec_ns(&spaces[2])?;
        m.insert("verify.encode_ns", enc);
        m.insert("verify.decode_ns", dec);
        let snapshots: Vec<_> = (0..16u64)
            .map(|k| {
                let s = &spaces[2];
                (
                    s.graph().clone(),
                    s.protocol().clone(),
                    s.decode(mix(k) % s.config_count()),
                )
            })
            .collect();
        let (mask_ns, exec_ns) = crate::serve::kernel_ns(&snapshots);
        m.insert("soa.mask_ns", mask_ns);
        m.insert("soa.execute_ns", exec_ns);
        tracer = Some(tr);
    } else {
        while start.elapsed().as_secs_f64() < seconds || passes.len() < 3 {
            if !passes.is_empty() {
                drop(std::mem::take(&mut spaces));
                let (fresh, cold, setup_s) = cold_setup(&checker)?;
                spaces = fresh;
                setup.push(setup_s);
                tally(&cold);
            }
            let round = Instant::now();
            while round.elapsed().as_secs_f64() < ROUND_S {
                let p = pass(&checker, &spaces, None);
                tally(&p);
                passes.push(p);
            }
        }
        let checks_s: Vec<f64> = passes.iter().flat_map(|p| p.check_s).collect();
        let pass_s: Vec<f64> = passes.iter().map(|p| p.check_s.iter().sum()).collect();
        let per_pass = |x: u64| -> Vec<f64> { pass_s.iter().map(|s| x as f64 / s).collect() };
        m.insert("req_per_s", median(&per_pass(CHECKS.len() as u64)));
        m.insert("configs_per_s", median(&per_pass(passes[0].states)));
        m.insert("turnaround_p50_ms", quantile(&checks_s, 0.5) * 1e3);
        notes.push(format!(
            "turnaround_p95_ms = {} ms, turnaround_p99_ms = {} ms (over {} checks)",
            quantile(&checks_s, 0.95) * 1e3,
            quantile(&checks_s, 0.99) * 1e3,
            checks_s.len()
        ));
        m.insert("setup_s", median(&setup));
        notes.push(format!(
            "verify_pass_s = {} s (median warm pass)",
            median(&pass_s)
        ));
    }

    let failed = problems.len() as u64;
    let mut out = Outcome::new(attempted, failed, problems);
    out.gate("failed_frac", failed as f64 / attempted as f64);
    if traced {
        m.insert("ledger.failed_frac", failed as f64 / attempted as f64);
    }
    out.note(format!(
        "{} warm passes of {} checks on {} workers; {} cold set-ups",
        passes.len(),
        CHECKS.len(),
        checker.workers(),
        setup.len()
    ));
    for n in notes {
        out.note(n);
    }
    out.metrics = m;
    Ok((out, tracer))
}

/// Fresh state spaces plus one cold pass, which builds each space's guard
/// memo; returns the spaces, the pass and its wall seconds.
fn cold_setup(checker: &Checker) -> Result<(Vec<StateSpace>, Pass, f64), String> {
    let t = Instant::now();
    let fresh = spaces()?;
    let cold = pass(checker, &fresh, None);
    Ok((fresh, cold, t.elapsed().as_secs_f64()))
}

/// Guard-memo build time summed over the product-search instances: a
/// fresh space's first correction check minus a warm repeat of it.
fn memo_build_s(checker: &Checker) -> Result<f64, String> {
    let mut total = 0.0;
    for (g, root) in instances()?.into_iter().take(3) {
        let space = StateSpace::try_new(g.clone(), PifProtocol::new(root, &g))
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        check(checker, &space, Check::Correction);
        let cold = t.elapsed().as_secs_f64();
        let warm: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                check(checker, &space, Check::Correction);
                t.elapsed().as_secs_f64()
            })
            .collect();
        total += (cold - median(&warm)).max(0.0);
    }
    Ok(total)
}

/// Mean ns per `VisitedSet::insert` of a new key and of a duplicate.
fn visited_insert_ns() -> Result<(f64, f64), String> {
    const KEYS: u64 = 200_000;
    let set = VisitedSet::with_capacity(KEYS as usize);
    let t = Instant::now();
    let fresh = (0..KEYS)
        .filter(|&i| set.insert(u128::from(mix(i))))
        .count() as u64;
    let new_ns = t.elapsed().as_nanos() as f64 / KEYS as f64;
    let t = Instant::now();
    let dups = (0..KEYS)
        .filter(|&i| !set.insert(u128::from(mix(i))))
        .count() as u64;
    let dup_ns = t.elapsed().as_nanos() as f64 / KEYS as f64;
    if fresh != KEYS || dups != KEYS {
        return Err(format!(
            "visited set: {fresh} new and {dups} duplicate inserts of {KEYS} keys"
        ));
    }
    Ok((new_ns, dup_ns))
}

/// Mean ns per `StateSpace::encode` and per `StateSpace::decode`.
fn codec_ns(space: &StateSpace) -> Result<(f64, f64), String> {
    const IDS: u64 = 50_000;
    let ids: Vec<u64> = (0..IDS).map(|i| mix(i) % space.config_count()).collect();
    let t = Instant::now();
    let configs: Vec<_> = ids
        .iter()
        .map(|&id| space.decode(std::hint::black_box(id)))
        .collect();
    let dec = t.elapsed().as_nanos() as f64 / IDS as f64;
    let t = Instant::now();
    let back: Vec<u64> = configs
        .iter()
        .map(|c| space.encode(std::hint::black_box(c)))
        .collect();
    let enc = t.elapsed().as_nanos() as f64 / IDS as f64;
    if back != ids {
        return Err("StateSpace encode(decode(id)) != id".into());
    }
    Ok((enc, dec))
}
