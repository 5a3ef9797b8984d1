//! Step-throughput measurement for the simulator hot loops.
//!
//! Shared between the `step_throughput` Criterion group and the
//! `exp_step_throughput` binary that emits `BENCH_step_throughput.json`:
//! both drive the real [`PifProtocol`] and count executed work per second.
//!
//! Two workload shapes:
//!
//! * [`Workload`] — a *central* daemon (one processor per step) on a
//!   selectable engine ([`Engine::Aos`] or [`Engine::Soa`]), so per-step
//!   fixed costs — snapshot construction, daemon dispatch, bookkeeping —
//!   dominate and any O(n) term in the step path shows up as throughput
//!   loss at large `n`. The unit is computation steps (= moves, since the
//!   central daemon executes exactly one move per step).
//! * [`SyncWorkload`] — the daemon-free synchronous fast path
//!   (`Simulator::step_sync`) on the `SoA` store: every enabled processor
//!   moves every step, and the headline unit is **moves per second**
//!   (individual guarded-action executions — the unit the ≥10M/s batch
//!   stepping target is stated in).

use std::time::Instant;

use pif_core::{initial, PifProtocol};
use pif_daemon::daemons::CentralRandom;
use pif_graph::{generators, Graph, ProcId};
use pif_soa::{Engine, EngineSim, Packed, SoaSimulator};

/// The benchmark topology families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// A path graph (diameter n-1, degree ≤ 2).
    Chain,
    /// A square torus (degree 4, small diameter).
    Torus,
    /// A sparse random connected graph.
    Random,
}

impl Topology {
    /// All benchmark families.
    pub const ALL: [Topology; 3] = [Topology::Chain, Topology::Torus, Topology::Random];

    /// Short lowercase label used in benchmark ids and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Topology::Chain => "chain",
            Topology::Torus => "torus",
            Topology::Random => "random",
        }
    }

    /// Builds the graph of this family with exactly `n` processors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a supported size (torus needs a perfect
    /// square, every family needs `n >= 4`).
    pub fn build(self, n: usize) -> Graph {
        match self {
            Topology::Chain => generators::chain(n).expect("chain size"),
            Topology::Torus => {
                let side = (n as f64).sqrt().round() as usize;
                assert_eq!(side * side, n, "torus size must be a perfect square");
                generators::torus(side, side).expect("torus size")
            }
            // Expected degree ~6 independent of n keeps the per-step
            // neighborhood work comparable across sizes.
            Topology::Random => {
                let p = (6.0 / (n as f64 - 1.0)).min(0.5);
                generators::random_connected(n, p, 0xBEEF).expect("random size")
            }
        }
    }
}

/// The standard benchmark sizes (torus requires perfect squares).
pub const SIZES: [usize; 4] = [16, 64, 256, 1024];

/// Extended sizes exercising the `SoA` engine at scale (64² and 128² tori).
pub const EXT_SIZES: [usize; 2] = [4096, 16384];

/// A ready-to-step workload: engine-selected simulator plus central daemon.
pub struct Workload {
    /// The simulator, initialised from a random (fuzzed) configuration so
    /// plenty of guards are enabled from the start.
    pub sim: EngineSim,
    /// The stepping daemon.
    pub daemon: CentralRandom,
    seed: u64,
}

impl Workload {
    /// Builds the standard workload for one topology/size point on the
    /// array-of-structs engine.
    pub fn new(topology: Topology, n: usize) -> Self {
        Workload::on_engine(topology, n, Engine::Aos)
    }

    /// Builds the standard workload on a chosen engine.
    pub fn on_engine(topology: Topology, n: usize, engine: Engine) -> Self {
        let g = topology.build(n);
        let proto = PifProtocol::new(ProcId(0), &g);
        let init = initial::random_config(&g, &proto, 0xC0FFEE);
        Workload {
            sim: EngineSim::new(engine, g, proto, init),
            daemon: CentralRandom::new(7),
            seed: 1,
        }
    }

    /// Runs `steps` computation steps, re-randomising the configuration if
    /// the run reaches a terminal configuration (PIF waves eventually
    /// quiesce once every broadcast has been acknowledged and cleaned).
    ///
    /// Returns the number of steps actually executed (always `steps`).
    pub fn run_steps(&mut self, steps: u64) -> u64 {
        let mut done = 0;
        while done < steps {
            if self.sim.is_terminal() {
                self.seed = self.seed.wrapping_add(1);
                let fresh =
                    initial::random_config(self.sim.graph(), self.sim.protocol(), self.seed);
                self.sim.set_states(fresh);
                continue;
            }
            self.sim.step(&mut self.daemon).expect("daemon selection valid");
            done += 1;
        }
        done
    }
}

/// The synchronous batch-stepping workload on the `SoA` fast path.
pub struct SyncWorkload {
    /// The `SoA` simulator.
    pub sim: SoaSimulator,
    seed: u64,
}

impl SyncWorkload {
    /// Builds the workload for one topology/size point.
    pub fn new(topology: Topology, n: usize) -> Self {
        let g = topology.build(n);
        let proto = PifProtocol::new(ProcId(0), &g);
        let init = initial::random_config(&g, &proto, 0xC0FFEE);
        SyncWorkload { sim: SoaSimulator::with_store(g, proto, Packed::new(init)), seed: 1 }
    }

    /// Runs synchronous steps until at least `moves` processor moves have
    /// executed, re-randomising on terminal configurations. Returns
    /// `(steps, moves)` actually executed.
    pub fn run_moves(&mut self, moves: u64) -> (u64, u64) {
        let mut steps = 0u64;
        let mut done = 0u64;
        while done < moves {
            let rep = self.sim.step_sync();
            if rep.executed == 0 {
                self.seed = self.seed.wrapping_add(1);
                let fresh =
                    initial::random_config(self.sim.graph(), self.sim.protocol(), self.seed);
                self.sim.set_states(fresh);
                continue;
            }
            steps += 1;
            done += rep.executed as u64;
        }
        (steps, done)
    }
}

/// One measured point for the JSON report.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Topology label.
    pub topology: &'static str,
    /// Processor count.
    pub n: usize,
    /// Measured steps per second.
    pub steps_per_sec: f64,
    /// Steps executed during the measurement window.
    pub steps: u64,
}

/// One measured point of the synchronous `SoA` fast path.
#[derive(Clone, Debug)]
pub struct SyncMeasurement {
    /// Topology label.
    pub topology: &'static str,
    /// Processor count.
    pub n: usize,
    /// Processor moves per second (the batch-stepping headline unit).
    pub moves_per_sec: f64,
    /// Synchronous computation steps per second.
    pub steps_per_sec: f64,
    /// Moves executed during the measurement window.
    pub moves: u64,
}

/// Measures central-daemon steps/second for one topology/size point on
/// one engine: warms up, then times batches until `min_duration_secs` of
/// measured time has accumulated.
pub fn measure(topology: Topology, n: usize, min_duration_secs: f64, engine: Engine) -> Measurement {
    let mut w = Workload::on_engine(topology, n, engine);
    w.run_steps(2_000); // warmup: faults corrected, caches hot
    let batch = 5_000;
    let mut steps = 0u64;
    let start = Instant::now();
    loop {
        w.run_steps(batch);
        steps += batch;
        if start.elapsed().as_secs_f64() >= min_duration_secs {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    Measurement { topology: topology.label(), n, steps_per_sec: steps as f64 / secs, steps }
}

/// Measures the `SoA` synchronous fast path in moves/second for one
/// topology/size point.
pub fn measure_sync(topology: Topology, n: usize, min_duration_secs: f64) -> SyncMeasurement {
    let mut w = SyncWorkload::new(topology, n);
    w.run_moves(4 * n as u64); // warmup: faults corrected, caches hot
    let batch = (n as u64 * 16).max(50_000);
    let mut moves = 0u64;
    let mut steps = 0u64;
    let start = Instant::now();
    loop {
        let (s, m) = w.run_moves(batch);
        steps += s;
        moves += m;
        if start.elapsed().as_secs_f64() >= min_duration_secs {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    SyncMeasurement {
        topology: topology.label(),
        n,
        moves_per_sec: moves as f64 / secs,
        steps_per_sec: steps as f64 / secs,
        moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_step_on_every_point() {
        for t in Topology::ALL {
            for engine in Engine::ALL {
                let mut w = Workload::on_engine(t, 16, engine);
                assert_eq!(w.run_steps(200), 200);
                assert!(w.sim.steps() > 0);
            }
        }
    }

    #[test]
    fn sync_workload_counts_moves() {
        let mut w = SyncWorkload::new(Topology::Torus, 16);
        let (steps, moves) = w.run_moves(500);
        assert!(moves >= 500);
        assert!(steps > 0 && steps <= moves);
    }

    #[test]
    fn torus_rejects_non_square() {
        let r = std::panic::catch_unwind(|| Topology::Torus.build(15));
        assert!(r.is_err());
    }
}
