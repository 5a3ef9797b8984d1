//! The enabled-processor index the simulator and the lossy transport
//! keep: which processors have at least one enabled action, with O(1)
//! flips, rank select and ascending iteration.

use pif_graph::ProcId;

use crate::bits::{BitSet, Ones};

/// Bitset words per counted block: 512 processors.
const BLOCK_WORDS: usize = 8;

/// The processors with at least one enabled action: a membership bitset
/// plus a member count per block of 512 processors.
///
/// Daemons see the members in ascending id order, through three
/// operations: the count ([`EnabledIndex::len`]), the `rank`-th member
/// ([`EnabledIndex::select`]; `CentralRandom` draws a rank, a scripted
/// adversary reads mask bits by rank) and an ascending iterator
/// ([`EnabledIndex::iter`]).
///
/// A flip ([`EnabledIndex::apply`]) sets or clears one bit and adjusts
/// one block count: O(1), whatever the network and however many
/// processors are enabled. A select scans the `n/512` block counts, then
/// popcounts at most eight words of one block and selects inside one
/// word. An iteration scans the words up to the last member. Updates
/// never allocate: the bitset and the counts are sized for every
/// processor up front.
#[derive(Clone, Debug)]
pub struct EnabledIndex {
    bits: BitSet,
    /// Members per block of `64 · BLOCK_WORDS` processors.
    blocks: Vec<u32>,
}

impl EnabledIndex {
    /// An index over `n` processors, seeded from one enabled flag per
    /// processor in id order.
    pub fn new(n: usize, enabled: impl IntoIterator<Item = bool>) -> Self {
        let blocks = vec![0; n.div_ceil(64 * BLOCK_WORDS)];
        let mut index = EnabledIndex { bits: BitSet::new(n), blocks };
        index.reset(enabled);
        index
    }

    /// Replaces the whole membership with one flag per processor in id
    /// order (used when a configuration is overwritten, never per step).
    pub fn reset(&mut self, enabled: impl IntoIterator<Item = bool>) {
        self.bits.clear();
        self.blocks.fill(0);
        for (i, en) in enabled.into_iter().enumerate() {
            if en {
                self.bits.insert(i);
                self.blocks[i / (64 * BLOCK_WORDS)] += 1;
            }
        }
    }

    /// Whether `p` is enabled.
    #[inline]
    pub fn contains(&self, p: ProcId) -> bool {
        self.bits.contains(p.index())
    }

    /// How many processors are enabled.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.count()
    }

    /// Whether no processor is enabled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The `rank`-th enabled processor in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is not below [`EnabledIndex::len`].
    #[inline]
    pub fn select(&self, mut rank: usize) -> ProcId {
        for (b, &members) in self.blocks.iter().enumerate() {
            let members = members as usize;
            if rank < members {
                return ProcId::from_index(self.bits.select_from(b * BLOCK_WORDS, rank));
            }
            rank -= members;
        }
        panic!("select past the last enabled processor")
    }

    /// The enabled processors, ascending.
    #[inline]
    pub fn iter(&self) -> EnabledProcs<'_> {
        EnabledProcs { ones: self.bits.iter() }
    }

    /// Applies one step's membership flips, each `(processor, now
    /// enabled)`. A flip that matches the current membership is ignored.
    #[inline]
    pub fn apply(&mut self, flips: &[(ProcId, bool)]) {
        for &(p, now) in flips {
            let i = p.index();
            let block = &mut self.blocks[i / (64 * BLOCK_WORDS)];
            if now {
                if self.bits.insert(i) {
                    *block += 1;
                }
            } else if self.bits.remove(i) {
                *block -= 1;
            }
        }
    }
}

impl<'a> IntoIterator for &'a EnabledIndex {
    type Item = ProcId;
    type IntoIter = EnabledProcs<'a>;

    fn into_iter(self) -> EnabledProcs<'a> {
        self.iter()
    }
}

/// The enabled processors in ascending id order, from
/// [`EnabledIndex::iter`]; it knows how many are left.
#[derive(Clone, Debug)]
pub struct EnabledProcs<'a> {
    ones: Ones<'a>,
}

impl Iterator for EnabledProcs<'_> {
    type Item = ProcId;

    #[inline]
    fn next(&mut self) -> Option<ProcId> {
        self.ones.next().map(ProcId::from_index)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ones.size_hint()
    }
}

impl ExactSizeIterator for EnabledProcs<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn flips(v: &[(u32, bool)]) -> Vec<(ProcId, bool)> {
        v.iter().map(|&(i, b)| (ProcId(i), b)).collect()
    }

    fn ids(index: &EnabledIndex) -> Vec<u32> {
        index.iter().map(|p| p.0).collect()
    }

    /// Checks count, iteration, membership and every rank's select
    /// against a naive scan of `reference`.
    fn agrees_with_a_scan(index: &EnabledIndex, reference: &[bool], at: &str) {
        let want: Vec<u32> =
            (0..reference.len() as u32).filter(|&i| reference[i as usize]).collect();
        assert_eq!(index.len(), want.len(), "{at}: count");
        assert_eq!(index.is_empty(), want.is_empty(), "{at}: emptiness");
        assert_eq!(index.iter().len(), want.len(), "{at}: iterator length");
        assert_eq!(ids(index), want, "{at}: ascending members");
        for (rank, &p) in want.iter().enumerate() {
            assert_eq!(index.select(rank), ProcId(p), "{at}: rank {rank}");
        }
        assert!(
            (0..reference.len()).all(|i| index.contains(ProcId::from_index(i)) == reference[i]),
            "{at}: membership"
        );
    }

    #[test]
    fn flips_keep_count_select_and_order_equal_to_a_scan() {
        // Alternate few-flip and many-flip steps over several blocks.
        let n = 2_000;
        let mut reference: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let mut index = EnabledIndex::new(n, reference.iter().copied());
        let mut x = 0x9E37_79B9u64;
        for step in 0..400 {
            let k = if step % 2 == 0 { 1 + step % 8 } else { 40 + step % 40 };
            let mut batch = Vec::new();
            for _ in 0..k {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let i = (x % n as u64) as usize;
                if batch.iter().any(|&(q, _): &(ProcId, bool)| q.index() == i) {
                    continue;
                }
                reference[i] = !reference[i];
                batch.push((ProcId::from_index(i), reference[i]));
            }
            index.apply(&batch);
            agrees_with_a_scan(&index, &reference, &format!("step {step}, {k} flips"));
        }
    }

    #[test]
    fn rank_select_matches_a_naive_scan_at_block_and_word_edges() {
        for n in [1usize, 63, 64, 65, 511, 512, 513, 16_384] {
            let empty = vec![false; n];
            let index = EnabledIndex::new(n, empty.iter().copied());
            agrees_with_a_scan(&index, &empty, &format!("n={n}, empty"));
            let full = vec![true; n];
            let mut index = EnabledIndex::new(n, full.iter().copied());
            agrees_with_a_scan(&index, &full, &format!("n={n}, full"));
            // Thin the full set to a pattern that leaves whole words and
            // whole blocks empty (1024..1536 holds no member), then refill
            // it by flips.
            let mut sparse = full.clone();
            let mut batch = Vec::new();
            for (i, on) in sparse.iter_mut().enumerate() {
                if i % 1_000 >= 2 && !(520..530).contains(&i) && i + 1 != n {
                    *on = false;
                    batch.push((ProcId::from_index(i), false));
                }
            }
            index.apply(&batch);
            agrees_with_a_scan(&index, &sparse, &format!("n={n}, sparse"));
            let refill: Vec<(ProcId, bool)> = batch.iter().map(|&(p, _)| (p, true)).collect();
            index.apply(&refill);
            agrees_with_a_scan(&index, &full, &format!("n={n}, refilled"));
        }
    }

    #[test]
    #[should_panic(expected = "select past the last enabled processor")]
    fn select_past_the_end_panics() {
        EnabledIndex::new(600, (0..600).map(|i| i == 513)).select(1);
    }

    #[test]
    fn stale_flips_are_ignored() {
        let mut index = EnabledIndex::new(130, (0..130).map(|i| i == 5 || i == 129));
        index.apply(&flips(&[(5, true), (7, false)]));
        assert_eq!(ids(&index), vec![5, 129]);
        index.apply(&flips(&[(129, false), (64, true)]));
        assert_eq!(ids(&index), vec![5, 64]);
        assert_eq!(index.select(1), ProcId(64));
        index.reset([false; 130]);
        assert!(index.is_empty());
    }
}
