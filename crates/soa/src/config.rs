//! The packed structure-of-arrays configuration.
//!
//! A [`SoaConfig`] holds the same five registers as a `[PifState]` slice,
//! but transposed: the three-valued phase register becomes two bitset
//! planes (`B` and `F` membership; `C` is the implied complement), `Fok`
//! lives only in the per-processor tag byte, and `Par`/`L`/`Count` become
//! flat arrays indexed by processor. Word `w` of a plane covers processors
//! `64·w .. 64·w + 63`, bit `i % 64` within it, so whole-network phase
//! tests reduce to word algebra (`b | f` = participating, `!(b | f)` =
//! clean, ...).

use pif_core::{Phase, PifState};
use pif_graph::ProcId;

/// Tag bit: `Pif_i = B`.
pub const TAG_B: u8 = 1;
/// Tag bit: `Pif_i = F`.
pub const TAG_F: u8 = 2;
/// Tag bit: `Fok_i`.
pub const TAG_FOK: u8 = 4;

/// One network configuration in packed structure-of-arrays form.
///
/// The layout is lossless with respect to [`PifState`]: [`SoaConfig::load`]
/// followed by [`SoaConfig::state`] reproduces every register bit-for-bit,
/// including the root's don't-care `par`/`level` values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoaConfig {
    n: usize,
    /// Broadcast-phase membership plane (`Pif_p = B`).
    b: Vec<u64>,
    /// Feedback-phase membership plane (`Pif_p = F`).
    f: Vec<u64>,
    /// Parent pointers `Par_p`, flat.
    par: Vec<u32>,
    /// Levels `L_p`, flat.
    level: Vec<u16>,
    /// Counters `Count_p`, flat.
    count: Vec<u32>,
    /// Per-processor tag bytes ([`TAG_B`] | [`TAG_F`] | [`TAG_FOK`]): the
    /// scalar kernel reads all three flags of a neighbor in one load, the
    /// word algebra reads the phase planes, which repeat the phase bits.
    tags: Vec<u8>,
    /// Whether the bit planes lag behind `tags` (hot-path writes go
    /// through [`SoaConfig::set_state_tags`], which defers plane
    /// maintenance until the next whole-network word pass needs them).
    planes_dirty: bool,
}

/// Number of 64-bit words covering `n` processors.
#[inline]
pub(crate) fn word_count(n: usize) -> usize {
    n.div_ceil(64)
}

impl SoaConfig {
    /// An all-clean configuration for `n` processors (every register
    /// zeroed; phase `C`).
    pub fn new(n: usize) -> Self {
        let words = word_count(n);
        SoaConfig {
            n,
            b: vec![0; words],
            f: vec![0; words],
            par: vec![0; n],
            level: vec![0; n],
            count: vec![0; n],
            tags: vec![0; n],
            planes_dirty: false,
        }
    }

    /// Number of processors covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the configuration covers zero processors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of 64-bit words per plane.
    #[inline]
    pub fn words(&self) -> usize {
        self.b.len()
    }

    /// Transposes an array-of-structs configuration into the planes.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the configured size.
    pub fn load(&mut self, states: &[PifState]) {
        assert_eq!(states.len(), self.n, "configuration must cover every processor");
        for w in &mut self.b {
            *w = 0;
        }
        for w in &mut self.f {
            *w = 0;
        }
        for (i, s) in states.iter().enumerate() {
            self.set_state(i, s);
        }
        self.planes_dirty = false;
    }

    /// Writes one processor's registers into the planes.
    #[inline]
    pub fn set_state(&mut self, i: usize, s: &PifState) {
        let w = i / 64;
        let bit = 1u64 << (i % 64);
        let mut tag = 0u8;
        match s.phase {
            Phase::B => {
                self.b[w] |= bit;
                self.f[w] &= !bit;
                tag |= TAG_B;
            }
            Phase::F => {
                self.b[w] &= !bit;
                self.f[w] |= bit;
                tag |= TAG_F;
            }
            Phase::C => {
                self.b[w] &= !bit;
                self.f[w] &= !bit;
            }
        }
        if s.fok {
            tag |= TAG_FOK;
        }
        self.tags[i] = tag;
        self.par[i] = s.par.0;
        self.level[i] = s.level;
        self.count[i] = s.count;
    }

    /// Hot-path state write: updates the tag byte and flat registers only,
    /// deferring the two plane read-modify-writes. The planes lag until
    /// the next [`SoaConfig::sync_planes`]; every scalar read
    /// ([`SoaConfig::tag`], [`SoaConfig::is_b`], ..., [`SoaConfig::state`])
    /// stays exact throughout.
    #[inline]
    pub fn set_state_tags(&mut self, i: usize, s: &PifState) {
        let mut tag = match s.phase {
            Phase::B => TAG_B,
            Phase::F => TAG_F,
            Phase::C => 0,
        };
        if s.fok {
            tag |= TAG_FOK;
        }
        self.tags[i] = tag;
        self.par[i] = s.par.0;
        self.level[i] = s.level;
        self.count[i] = s.count;
        self.planes_dirty = true;
    }

    /// Rebuilds the bit planes from the tag bytes if hot-path writes left
    /// them stale. Word-parallel callers ([`SoaConfig::b_words`] et al.)
    /// must run this first after any [`SoaConfig::set_state_tags`].
    pub fn sync_planes(&mut self) {
        if !self.planes_dirty {
            return;
        }
        for (wi, chunk) in self.tags.chunks(64).enumerate() {
            let mut b = 0u64;
            let mut f = 0u64;
            for (bit, &tag) in chunk.iter().enumerate() {
                b |= u64::from(tag & TAG_B) << bit;
                f |= (u64::from(tag & TAG_F) >> 1) << bit;
            }
            self.b[wi] = b;
            self.f[wi] = f;
        }
        self.planes_dirty = false;
    }

    /// Reassembles one processor's registers from the planes.
    #[inline]
    pub fn state(&self, i: usize) -> PifState {
        let tag = self.tags[i];
        let phase = if tag & TAG_B != 0 {
            Phase::B
        } else if tag & TAG_F != 0 {
            Phase::F
        } else {
            Phase::C
        };
        PifState {
            phase,
            par: ProcId(self.par[i]),
            level: self.level[i],
            count: self.count[i],
            fok: tag & TAG_FOK != 0,
        }
    }

    /// The tag byte of processor `i` ([`TAG_B`] | [`TAG_F`] | [`TAG_FOK`]):
    /// all three boolean registers in one load, for neighbor-scan hot
    /// paths.
    #[inline(always)]
    pub fn tag(&self, i: usize) -> u8 {
        self.tags[i]
    }

    /// Writes the whole configuration back into an array-of-structs slice.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the configured size.
    pub fn store_into(&self, out: &mut [PifState]) {
        assert_eq!(out.len(), self.n, "configuration must cover every processor");
        for (i, s) in out.iter_mut().enumerate() {
            *s = self.state(i);
        }
    }

    /// `Pif_i = B`.
    #[inline(always)]
    pub fn is_b(&self, i: usize) -> bool {
        self.tags[i] & TAG_B != 0
    }

    /// `Pif_i = F`.
    #[inline(always)]
    pub fn is_f(&self, i: usize) -> bool {
        self.tags[i] & TAG_F != 0
    }

    /// `Pif_i = C`.
    #[inline(always)]
    pub fn is_c(&self, i: usize) -> bool {
        self.tags[i] & (TAG_B | TAG_F) == 0
    }

    /// `Fok_i`.
    #[inline(always)]
    pub fn is_fok(&self, i: usize) -> bool {
        self.tags[i] & TAG_FOK != 0
    }

    /// `Par_i` as a flat index.
    #[inline(always)]
    pub fn par(&self, i: usize) -> usize {
        self.par[i] as usize
    }

    /// `L_i` (the stored register; callers apply the root's constant `0`).
    #[inline(always)]
    pub fn level(&self, i: usize) -> u16 {
        self.level[i]
    }

    /// `Count_i`.
    #[inline(always)]
    pub fn count(&self, i: usize) -> u32 {
        self.count[i]
    }

    /// The `B`-membership plane.
    #[inline]
    pub fn b_words(&self) -> &[u64] {
        debug_assert!(!self.planes_dirty, "sync_planes before reading planes");
        &self.b
    }

    /// The `F`-membership plane.
    #[inline]
    pub fn f_words(&self) -> &[u64] {
        debug_assert!(!self.planes_dirty, "sync_planes before reading planes");
        &self.f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<PifState> {
        (0..n)
            .map(|i| PifState {
                phase: Phase::ALL[i % 3],
                par: ProcId((i as u32).wrapping_mul(7) % n as u32),
                level: (i % 9) as u16 + 1,
                count: (i % 5) as u32 + 1,
                fok: i % 2 == 0,
            })
            .collect()
    }

    #[test]
    fn load_store_roundtrips_exactly() {
        for n in [1, 3, 63, 64, 65, 130] {
            let states = sample(n);
            let mut cfg = SoaConfig::new(n);
            cfg.load(&states);
            let mut back = vec![PifState::clean(ProcId(0)); n];
            cfg.store_into(&mut back);
            assert_eq!(states, back, "roundtrip mismatch at n={n}");
            for (i, s) in states.iter().enumerate() {
                assert_eq!(cfg.state(i), *s);
            }
        }
    }

    #[test]
    fn set_state_overwrites_all_planes() {
        let mut cfg = SoaConfig::new(70);
        let b = PifState { phase: Phase::B, par: ProcId(3), level: 2, count: 9, fok: true };
        cfg.set_state(69, &b);
        assert!(cfg.is_b(69) && !cfg.is_f(69) && cfg.is_fok(69));
        let c = PifState { phase: Phase::C, par: ProcId(1), level: 1, count: 1, fok: false };
        cfg.set_state(69, &c);
        assert!(cfg.is_c(69) && !cfg.is_fok(69));
        assert_eq!(cfg.state(69), c);
    }

    #[test]
    fn tag_writes_then_sync_rebuild_the_planes_exactly() {
        for n in [5, 63, 64, 65, 130] {
            let states = sample(n);
            let mut eager = SoaConfig::new(n);
            let mut lazy = SoaConfig::new(n);
            eager.load(&states);
            for (i, s) in states.iter().enumerate() {
                lazy.set_state_tags(i, s);
                assert_eq!(lazy.state(i), *s, "scalar reads must not lag");
            }
            lazy.sync_planes();
            assert_eq!(lazy, eager, "planes diverge after sync at n={n}");
        }
    }

    #[test]
    fn word_count_covers_partial_words() {
        assert_eq!(word_count(1), 1);
        assert_eq!(word_count(64), 1);
        assert_eq!(word_count(65), 2);
        assert_eq!(SoaConfig::new(65).words(), 2);
    }
}
