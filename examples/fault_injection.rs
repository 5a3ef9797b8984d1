//! Fault-injection demo: watch the error-correction machinery at work.
//! Corrupt registers between waves, print the configuration
//! classification as the corrections run, and confirm the next wave is
//! already correct (stabilization time 0).
//!
//! ```sh
//! cargo run -p pif-suite --example fault_injection
//! ```

use pif_core::analysis::{self, ConfigClass};
use pif_core::checker::check_first_wave;
use pif_core::{initial, PifProtocol};
use pif_daemon::daemons::{CentralRandom, Synchronous};
use pif_daemon::{RunLimits, Simulator};
use pif_graph::{generators, ProcId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = generators::wheel(10)?;
    let root = ProcId(0);
    let protocol = PifProtocol::new(root, &graph);
    println!("network: {graph}, root {root}, L_max = {}\n", protocol.l_max());

    // Inject an adversarial corruption: a consistent fake broadcast tree.
    let corrupted = initial::adversarial_config(&graph, &protocol, ProcId(5), 7);
    let summary = analysis::classify(&protocol, &graph, &corrupted);
    println!("after fault injection:");
    println!("  abnormal processors: {:?}", summary.abnormal);
    println!("  legal tree size:     {}", summary.legal_size);
    println!("  classes:             {:?}", summary.classes);

    // Watch the corrections: run synchronously, printing the abnormal
    // count each round until the system is normal.
    let mut sim = Simulator::new(graph.clone(), protocol.clone(), corrupted.clone());
    let mut daemon = Synchronous::first_action();
    let bound = 3 * u64::from(protocol.l_max()) + 3;
    println!("\ncorrection progress (Theorem 1 bound: {bound} rounds):");
    let mut round = 0u64;
    loop {
        let abnormal = analysis::abnormal_procs(&protocol, &graph, sim.states());
        println!("  round {round:>2}: {} abnormal {:?}", abnormal.len(), abnormal);
        if abnormal.is_empty() {
            break;
        }
        sim.step(&mut daemon)?; // synchronous: one step == one round
        round += 1;
        assert!(round <= bound, "Theorem 1 violated!");
    }
    println!("  all processors normal after {round} rounds (bound {bound})");

    // Snap-stabilization: we did not need to wait at all — the first wave
    // initiated from the corrupted configuration itself is correct.
    let report = check_first_wave(
        graph,
        protocol,
        corrupted,
        &mut CentralRandom::new(3),
        RunLimits::default(),
    )?;
    println!("\nfirst wave from the corrupted configuration:");
    println!("  PIF1 = {}, PIF2 = {}", report.outcome.pif1, report.outcome.pif2);
    assert!(report.holds());

    // Bonus: the classifier vocabulary on a clean start.
    let g2 = generators::ring(6)?;
    let p2 = PifProtocol::new(ProcId(0), &g2);
    let clean = initial::normal_starting(&g2);
    let s = analysis::classify(&p2, &g2, &clean);
    assert!(s.is(ConfigClass::StartBroadcastNormal));
    println!("\nclean ring(6) classifies as {:?}", s.classes);

    // And the wave itself, as a phase timeline (B/b broadcast, F/f
    // feedback, C/. clean; uppercase = the processor executed that step).
    let mut sim2 = Simulator::new(g2, p2.clone(), clean);
    let mut timeline = analysis::timeline::Timeline::default();
    let mut stop = |s: &Simulator<PifProtocol>| {
        s.steps() > 0 && initial::is_normal_starting(s.states())
    };
    sim2.run(
        &mut Synchronous::first_action(),
        &mut timeline,
        pif_daemon::StopPolicy::Predicate(pif_daemon::RunLimits::default(), &mut stop),
    )?;
    println!("\n{}", analysis::timeline::render(&p2, &timeline));
    Ok(())
}
