//! Symmetry quotient under root-fixing graph automorphisms
//! (`DESIGN.md` §16).
//!
//! PIF is anonymous except for the distinguished root: relabelling a
//! configuration by any automorphism `σ` of the network that fixes the
//! root yields a configuration with identical behaviour — guards read
//! only the local neighborhood structure that `σ` preserves, and the
//! search overlays (delivery/ack bitmaps, pending round-owing sets)
//! relabel along. Two product states in the same orbit therefore have
//! identical futures, and the search only needs one representative per
//! orbit: every emitted key is canonicalized to the *minimum packed key
//! over the orbit* before the visited lookup, which shrinks the
//! explored space by up to the group order on symmetric instances
//! (ring reflections, grid flips) and leaves asymmetric instances
//! (chains rooted at an end) bit-for-bit untouched — the group is
//! trivial there and [`Quotient::build`] returns `None`.
//!
//! One register needs care: the paper treats the root's `Par` as the
//! constant `⊥`, and the state space gives the root a single canonical
//! parent value. Every guard that dereferences a parent pointer
//! excludes the root explicitly (`pif-core`'s `sum_set`, `pre_potential`,
//! `leaf`, `bleaf` all skip `q == root`; the root's own predicates never
//! read `Par_r`), so the canonicalization keeps the root's `Par` at its
//! canonical value instead of mapping it through `σ` — which keeps the
//! image inside the root's single-parent domain. The commutation tests
//! below machine-check exactly this: guard masks and executed
//! successors commute with every group element on sampled
//! configurations.
//!
//! The group itself comes from `pif_graph::automorphism::stabilizer`;
//! per element, a per-processor table maps a domain index straight to
//! its contribution `strides[σ(p)] · index_of(σ·state)`, so
//! canonicalizing a successor costs `|G| − 1` vector sums of `n` table
//! lookups — no decoding, no re-encoding.

use pif_core::PifState;
use pif_graph::automorphism;

use crate::{pack_corr, pack_snap, CorrItem, SnapItem, StateSpace};

/// One non-identity group element, compiled against a [`StateSpace`].
struct Perm {
    /// `map[i]` = σ(i).
    map: [u8; 16],
    /// `contrib[i][d]` = `strides[σ(i)] · index_of(σ · domains[i][d])`:
    /// the mapped configuration id is the sum over processors.
    contrib: Vec<Vec<u64>>,
}

impl Perm {
    /// Relabels an overlay bitmap along σ.
    #[inline]
    fn map_bits(&self, bits: u16) -> u16 {
        let mut out = 0u16;
        let mut m = bits;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            out |= 1 << self.map[i];
        }
        out
    }

    /// The image configuration id, from the source's domain indices.
    #[inline]
    fn map_cfg(&self, idxs: &[u32]) -> u64 {
        idxs.iter().enumerate().map(|(i, &d)| self.contrib[i][d as usize]).sum()
    }
}

/// The compiled symmetry group of one instance: every non-identity
/// automorphism fixing the root, ready for O(|G|·n) canonicalization.
pub(crate) struct Quotient {
    perms: Vec<Perm>,
}

impl Quotient {
    /// Compiles the quotient for `space`, or `None` when the instance
    /// has no non-trivial root-fixing symmetry (the search then runs
    /// exactly as without the reduction).
    pub(crate) fn build(space: &StateSpace) -> Option<Quotient> {
        let root = space.protocol().root();
        let group = automorphism::stabilizer(space.graph(), root);
        let n = space.graph().len();
        let identity: Vec<usize> = (0..n).collect();
        let perms: Vec<Perm> = group
            .iter()
            .filter(|sigma| sigma.iter().enumerate().any(|(i, q)| q.index() != i))
            .map(|sigma| {
                let mut map = [0u8; 16];
                for (i, q) in sigma.iter().enumerate() {
                    map[i] = q.index() as u8;
                }
                let contrib = identity
                    .iter()
                    .map(|&i| {
                        let ti = sigma[i].index();
                        space
                            .proc_domain(pif_graph::ProcId::from_index(i))
                            .iter()
                            .map(|s| {
                                let mapped = if i == root.index() {
                                    // Par_r is the constant ⊥: keep the
                                    // canonical in-domain value.
                                    *s
                                } else {
                                    PifState { par: sigma[s.par.index()], ..*s }
                                };
                                let idx = space.shapes[ti].index_of(&mapped);
                                let idx = idx.expect("automorphisms map domains onto domains");
                                space.strides[ti] * u64::from(idx)
                            })
                            .collect()
                    })
                    .collect();
                Perm { map, contrib }
            })
            .collect();
        if perms.is_empty() {
            None
        } else {
            Some(Quotient { perms })
        }
    }

    /// Number of group elements, identity included.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn order(&self) -> usize {
        self.perms.len() + 1
    }

    /// Canonicalizes a correction-search product state: the minimum
    /// packed key over its orbit, given the source state's domain
    /// indices. The representative itself is the key unpacked.
    #[inline]
    pub(crate) fn canon_corr(&self, idxs: &[u32], item: CorrItem) -> u128 {
        let (cfg, pending, rounds) = item;
        self.perms
            .iter()
            .map(|perm| pack_corr(perm.map_cfg(idxs), perm.map_bits(pending), rounds))
            .fold(pack_corr(cfg, pending, rounds), u128::min)
    }

    /// Canonicalizes a snap-search product state (configuration plus
    /// delivery overlay), given the source state's domain indices.
    #[inline]
    pub(crate) fn canon_snap(&self, idxs: &[u32], item: SnapItem) -> u128 {
        let (cfg, has, ack, active) = item;
        self.perms
            .iter()
            .map(|perm| {
                pack_snap(perm.map_cfg(idxs), perm.map_bits(has), perm.map_bits(ack), active)
            })
            .fold(pack_snap(cfg, has, ack, active), u128::min)
    }

    /// Whether `cfg` (with domain indices `idxs`) is the minimum id of
    /// its orbit.
    #[inline]
    pub(crate) fn is_representative(&self, idxs: &[u32], cfg: u64) -> bool {
        self.perms.iter().all(|perm| perm.map_cfg(idxs) >= cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{unpack_corr, unpack_snap};
    use pif_core::PifProtocol;
    use pif_daemon::{Protocol, View};
    use pif_graph::{generators, Graph, ProcId};

    fn space_of(g: Graph, root: ProcId) -> StateSpace {
        let p = PifProtocol::new(root, &g);
        StateSpace::new(g, p)
    }

    /// Configuration `cfg` of `s` decoded, with its domain indices.
    fn decoded(s: &StateSpace, cfg: u64) -> (Vec<PifState>, Vec<u32>) {
        let (mut states, mut idxs) = (Vec::new(), Vec::new());
        s.decode_indices_into(cfg, &mut states, &mut idxs);
        (states, idxs)
    }

    /// Symmetric instances used across the tests: (space, group order).
    fn symmetric_instances() -> Vec<(StateSpace, usize)> {
        vec![
            (space_of(generators::chain(3).unwrap(), ProcId(1)), 2),
            (space_of(generators::ring(4).unwrap(), ProcId(0)), 2),
            (space_of(generators::grid(3, 2).unwrap(), ProcId(1)), 2),
            (space_of(generators::complete(3).unwrap(), ProcId(0)), 2),
        ]
    }

    fn splitmix(x: &mut u64) -> u64 {
        let out = pif_daemon::splitmix64(*x);
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    #[test]
    fn asymmetric_instances_have_no_quotient() {
        // chain(4) rooted at an end is rigid: the reduction must be the
        // identity (Quotient::build declines), which is what keeps the
        // Symmetry engine bit-identical to None there.
        let s = space_of(generators::chain(4).unwrap(), ProcId(0));
        assert!(Quotient::build(&s).is_none());
        // chain(3) rooted at an end is likewise rigid (only the middle
        // is fixed by the reflection).
        let s = space_of(generators::chain(3).unwrap(), ProcId(0));
        assert!(Quotient::build(&s).is_none());
    }

    #[test]
    fn quotient_orders_match_the_stabilizers() {
        for (s, order) in symmetric_instances() {
            let q = Quotient::build(&s).expect("instance is symmetric");
            assert_eq!(q.order(), order, "{}", s.graph().name());
        }
    }

    /// The soundness premise, machine-checked: guard masks and executed
    /// successors commute with every group element on sampled
    /// configurations — `mask_i(cfg) == mask_σ(i)(σ·cfg)` and
    /// `σ(execute(cfg, i, a)) == execute(σ·cfg, σ(i), a)`.
    #[test]
    fn enabled_and_execute_commute_with_the_group() {
        for (s, _) in symmetric_instances() {
            let q = Quotient::build(&s).expect("instance is symmetric");
            let n = s.graph().len();
            let root = s.protocol().root();
            let mut rng = 0xC0FFEEu64;
            for _ in 0..300 {
                let cfg = splitmix(&mut rng) % s.config_count();
                let (states, idxs) = decoded(&s, cfg);
                for perm in &q.perms {
                    let mapped_cfg = perm.map_cfg(&idxs);
                    let mapped = s.decode(mapped_cfg);
                    for i in 0..n {
                        let ti = usize::from(perm.map[i]);
                        let view = View::new(s.graph(), &states, ProcId::from_index(i));
                        let actions = s.protocol().enabled_actions(view);
                        let view = View::new(s.graph(), &mapped, ProcId::from_index(ti));
                        let mapped_actions = s.protocol().enabled_actions(view);
                        assert_eq!(actions, mapped_actions, "masks diverge at proc {i} of {}", s.graph().name());
                        for a in actions {
                            let succ = s.protocol().execute(
                                View::new(s.graph(), &states, ProcId::from_index(i)),
                                a,
                            );
                            let succ_mapped = s.protocol().execute(
                                View::new(s.graph(), &mapped, ProcId::from_index(ti)),
                                a,
                            );
                            let expected = if i == root.index() {
                                succ
                            } else {
                                PifState { par: ProcId(u32::from(perm.map[succ.par.index()])), ..succ }
                            };
                            assert_eq!(
                                succ_mapped, expected,
                                "execute diverges at proc {i} action {a:?} of {}",
                                s.graph().name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn canonicalization_is_idempotent_and_orbit_invariant() {
        for (s, _) in symmetric_instances() {
            let q = Quotient::build(&s).expect("instance is symmetric");
            let n = s.graph().len();
            let mut rng = 0xDEAD_BEEFu64;
            for _ in 0..500 {
                let cfg = splitmix(&mut rng) % s.config_count();
                let overlay = splitmix(&mut rng);
                let pending = (overlay as u16) & ((1 << n) - 1);
                let rounds = (overlay >> 16) as u32 % 8;
                let (_, idxs) = decoded(&s, cfg);
                let key = q.canon_corr(&idxs, (cfg, pending, rounds));
                let item = unpack_corr(key);
                assert_eq!(item.2, rounds, "the round counter is σ-invariant");
                // Idempotent: canonicalizing the representative is a
                // fixed point.
                let (_, rep_idxs) = decoded(&s, item.0);
                assert_eq!(q.canon_corr(&rep_idxs, item), key);
                // Orbit-invariant: every image canonicalizes to the
                // same representative.
                for perm in &q.perms {
                    let img = (perm.map_cfg(&idxs), perm.map_bits(pending), rounds);
                    let (_, img_idxs) = decoded(&s, img.0);
                    assert_eq!(q.canon_corr(&img_idxs, img), key);
                }
            }
        }
    }

    #[test]
    fn representatives_are_exactly_the_canonical_seeds() {
        // The product searches scan ids and expand only orbit
        // representatives as seeds: that must pick exactly the
        // configurations whose seed keys — empty snap overlay, or zero
        // rounds with every enabled processor pending — are canonical.
        for (s, _) in symmetric_instances() {
            let q = Quotient::build(&s).expect("instance is symmetric");
            let n = s.graph().len();
            let mut rng = 0x5EED_u64;
            let mut reps = 0;
            for _ in 0..2_000 {
                let cfg = splitmix(&mut rng) % s.config_count();
                let (states, idxs) = decoded(&s, cfg);
                let pending = (0..n).fold(0u16, |pending, i| {
                    let view = View::new(s.graph(), &states, ProcId::from_index(i));
                    pending | u16::from(!s.protocol().enabled_actions(view).is_empty()) << i
                });
                let rep = q.is_representative(&idxs, cfg);
                let snap_seed = (cfg, 0, 0, false);
                assert_eq!(rep, q.canon_snap(&idxs, snap_seed) == pack_snap(cfg, 0, 0, false));
                assert_eq!(rep, q.canon_corr(&idxs, (cfg, pending, 0)) == pack_corr(cfg, pending, 0));
                reps += usize::from(rep);
            }
            assert!(reps > 0 && reps < 2_000, "{}: {reps} representatives", s.graph().name());
        }
    }

    #[test]
    fn snap_canonicalization_tracks_all_three_overlay_fields() {
        let s = space_of(generators::ring(4).unwrap(), ProcId(0));
        let q = Quotient::build(&s).expect("ring is symmetric");
        let n = s.graph().len();
        let mut rng = 7u64;
        for _ in 0..500 {
            let cfg = splitmix(&mut rng) % s.config_count();
            let bits = splitmix(&mut rng);
            let has = (bits as u16) & ((1 << n) - 1);
            let ack = ((bits >> 16) as u16) & ((1 << n) - 1);
            let active = bits >> 32 & 1 == 1;
            let (_, idxs) = decoded(&s, cfg);
            let key = q.canon_snap(&idxs, (cfg, has, ack, active));
            assert!(key <= pack_snap(cfg, has, ack, active));
            assert_eq!(unpack_snap(key).3, active, "the wave flag is σ-invariant");
            for perm in &q.perms {
                let img =
                    (perm.map_cfg(&idxs), perm.map_bits(has), perm.map_bits(ack), active);
                let (_, img_idxs) = decoded(&s, img.0);
                assert_eq!(q.canon_snap(&img_idxs, img), key);
            }
        }
    }
}
