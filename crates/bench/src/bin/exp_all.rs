//! Runs the complete experiment battery (E1-E10) and writes all CSVs.
use pif_bench::experiments::{
    e10_ablations, e12_severity, e13_message_passing, e15_service, e18_chaos, e1_cycle_bounds,
    e2_error_correction, e3_glt_formation, e4_phase_bounds, e5_snap_vs_self, e6_chordless,
    e7_tree_comparison, e8_invariants, e9_space,
};

fn main() {
    let t0 = std::time::Instant::now();
    e1_cycle_bounds::run().emit("e1_cycle_bounds");
    e2_error_correction::run().emit("e2_error_correction");
    e3_glt_formation::run().emit("e3_glt_formation");
    e4_phase_bounds::run().emit("e4_phase_bounds");
    e5_snap_vs_self::run().emit("e5_snap_vs_self");
    e6_chordless::run().emit("e6_chordless");
    e7_tree_comparison::run().emit("e7_tree_comparison");
    e8_invariants::run().emit("e8_invariants");
    e9_space::run().emit("e9_space");
    e10_ablations::run().emit("e10_ablations");
    e12_severity::run().emit("e12_severity");
    e13_message_passing::run().emit("e13_message_passing");
    e15_service::run().emit("e15_service");
    e18_chaos::run().emit("e18_chaos");
    e18_chaos::run_search().emit("e18_chaos_search");
    println!("full battery completed in {:.1}s", t0.elapsed().as_secs_f64());
}
