//! E3 — Theorem 3: `GoodLegalTree` within 8*Lmax+7 rounds.
fn main() {
    pif_bench::experiments::e3_glt_formation::run().emit("e3_glt_formation");
}
