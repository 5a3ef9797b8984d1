//! Fixed-capacity bitsets backing the simulator's incremental enabled-set
//! bookkeeping, the round counter's pending set and the lossy
//! transport's nonempty-link set.
//!
//! The hot loops need O(1) membership updates, an O(capacity/64) bulk
//! copy for round re-seeding, iteration proportional to the number of
//! set bits (plus the word scan), and position select — all without
//! allocating after construction.

/// A set of `usize` keys below a fixed capacity, with a tracked count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    count: usize,
}

impl BitSet {
    /// An empty set over keys `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet { words: vec![0; capacity.div_ceil(64)], count: 0 }
    }

    /// Number of elements currently in the set.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether the set has no element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Inserts `i`; true if it was absent.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, m) = (i / 64, 1u64 << (i % 64));
        let absent = self.words[w] & m == 0;
        if absent {
            self.words[w] |= m;
            self.count += 1;
        }
        absent
    }

    /// Removes `i`; true if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        let (w, m) = (i / 64, 1u64 << (i % 64));
        let present = self.words[w] & m != 0;
        if present {
            self.words[w] &= !m;
            self.count -= 1;
        }
        present
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.count = 0;
    }

    /// Makes `self` an exact copy of `other` (same capacity required).
    pub fn copy_from(&mut self, other: &BitSet) {
        debug_assert_eq!(self.words.len(), other.words.len());
        self.words.copy_from_slice(&other.words);
        self.count = other.count;
    }

    /// The elements in ascending order.
    pub fn iter(&self) -> Ones<'_> {
        Ones { words: self.words.iter(), word: 0, base: 0, left: self.count }
    }

    /// The `rank`-th element in ascending order (`rank < count`): a
    /// popcount scan over the words, then a select inside the last one.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is not below [`BitSet::count`].
    #[inline]
    pub fn select(&self, rank: usize) -> usize {
        self.select_from(0, rank)
    }

    /// The `rank`-th element at or after key `64 · word`, in ascending
    /// order: [`BitSet::select`] with the scan started at word `word`,
    /// for callers that keep their own per-block counts.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `rank + 1` elements lie at or after that key.
    #[inline]
    pub fn select_from(&self, word: usize, mut rank: usize) -> usize {
        for (i, &bits) in self.words[word..].iter().enumerate() {
            let ones = bits.count_ones() as usize;
            if rank < ones {
                return (word + i) * 64 + select_in_word(bits, rank as u32);
            }
            rank -= ones;
        }
        panic!("select past the last element of the set")
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Ones<'a>;

    fn into_iter(self) -> Ones<'a> {
        self.iter()
    }
}

/// Position of the `rank`-th set bit of `word` (`rank < popcount`):
/// halve the window six times, keeping the half that holds the target.
#[inline]
fn select_in_word(mut word: u64, mut rank: u32) -> usize {
    let mut pos = 0;
    for half in [32u32, 16, 8, 4, 2, 1] {
        let low = (word & ((1u64 << half) - 1)).count_ones();
        if rank >= low {
            rank -= low;
            word >>= half;
            pos += half;
        }
    }
    pos as usize
}

/// The elements of a [`BitSet`] in ascending order ([`BitSet::iter`]).
/// It knows how many elements are left, so it stops at the last one
/// instead of scanning the trailing empty words.
#[derive(Clone, Debug)]
pub struct Ones<'a> {
    words: std::slice::Iter<'a, u64>,
    /// The unvisited bits of the current word.
    word: u64,
    /// The key of the next word's bit 0 (64 past the current word's).
    base: usize,
    /// Elements not yet returned.
    left: usize,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.left == 0 {
            return None;
        }
        while self.word == 0 {
            self.word = *self.words.next()?;
            self.base += 64;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        self.left -= 1;
        Some(self.base - 64 + b)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Ones<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains_count() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert_eq!(s.count(), 2);
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.count(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn iteration_is_ascending() {
        let mut s = BitSet::new(200);
        for i in [5usize, 64, 63, 199, 128, 0] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 5, 63, 64, 128, 199]);
        let mut it = s.iter();
        assert_eq!(it.len(), 6);
        it.next();
        assert_eq!(it.len(), 5);
        assert_eq!(BitSet::new(0).iter().next(), None);
    }

    #[test]
    fn select_matches_a_scan_of_the_members() {
        let n = 300;
        let mut set = BitSet::new(n);
        let mut members = Vec::new();
        let mut x = 0x9E37_79B9u64;
        for step in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let l = (x % n as u64) as usize;
            match members.binary_search(&l) {
                Ok(at) => {
                    members.remove(at);
                    assert!(set.remove(l));
                }
                Err(at) => {
                    members.insert(at, l);
                    assert!(set.insert(l));
                }
            }
            assert_eq!(set.count(), members.len(), "step {step}");
            for (rank, &want) in members.iter().enumerate() {
                assert_eq!(set.select(rank), want, "step {step}, rank {rank}");
            }
        }
        assert_eq!(select_in_word(u64::MAX, 63), 63);
        assert_eq!(select_in_word(1 << 63, 0), 63);
        assert_eq!(select_in_word(0b1011_0000, 2), 7);
    }

    #[test]
    fn select_from_skips_the_words_before_it() {
        let mut s = BitSet::new(256);
        for i in [3usize, 70, 130, 131, 255] {
            s.insert(i);
        }
        assert_eq!(s.select_from(2, 0), 130);
        assert_eq!(s.select_from(2, 2), 255);
        assert_eq!(s.select_from(1, 0), 70);
    }

    #[test]
    #[should_panic(expected = "select past the last element")]
    fn select_past_the_end_panics() {
        let mut s = BitSet::new(64);
        s.insert(9);
        s.select(1);
    }

    #[test]
    fn copy_from_replicates() {
        let mut a = BitSet::new(100);
        a.insert(3);
        a.insert(77);
        let mut b = BitSet::new(100);
        b.insert(50);
        b.copy_from(&a);
        assert_eq!(b, a);
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::new(10);
        s.insert(4);
        s.clear();
        assert_eq!(s.count(), 0);
        assert!(!s.contains(4));
    }
}
