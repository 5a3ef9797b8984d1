//! Tightness probe for Theorem 1: binary-search (downward scan) the
//! minimal round bound that exhaustively verifies on each tiny instance,
//! against the paper's `3·L_max + 3`.
//!
//! ```sh
//! cargo run --release -p pif-verify --bin verify_tightness
//! ```
use pif_core::PifProtocol;
use pif_graph::{generators, ProcId};
use pif_verify::{Checker, StateSpace};
fn main() {
    let checker = Checker::auto();
    for (name, g, root) in [
        ("chain(2)", generators::chain(2).unwrap(), ProcId(0)),
        ("chain(3)", generators::chain(3).unwrap(), ProcId(0)),
        ("triangle", generators::complete(3).unwrap(), ProcId(0)),
    ] {
        let proto = PifProtocol::new(root, &g);
        let paper = 3 * u32::from(proto.l_max()) + 3;
        let space = StateSpace::new(g, proto);
        let mut minimal = paper;
        for b in (1..=paper).rev() {
            if checker.check_correction_bound(&space, b).verified() {
                minimal = b;
            } else {
                break;
            }
        }
        println!("{name}: paper bound {paper}, minimal verified bound {minimal}");
    }
}
