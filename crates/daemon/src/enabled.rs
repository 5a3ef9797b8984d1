//! The enabled-processor index the simulator and the lossy transport
//! keep: which processors have at least one enabled action, as a bitset
//! and as an ascending list.

use pif_graph::ProcId;

use crate::bits::BitSet;

/// The processors with at least one enabled action: a membership bitset
/// for O(1) tests and the same members as an ascending list, the order
/// daemons index into (`CentralRandom` draws a position in it, a scripted
/// adversary reads mask bits by position).
///
/// [`EnabledIndex::apply`] takes one step's `k` membership flips and
/// applies them the cheaper of two ways, judged from `k`, the list length
/// `m` and the processor count `n`. In place, each flip is a binary
/// search plus a `Vec::insert` or `remove` that shifts about half the
/// list. A rebuild scans the `n/64` bitset words and re-pushes every
/// member. On a shared 2-vCPU Intel Xeon a flip cost about `32 + m/48` ns
/// and a rebuild about `16 + n/32 + m` ns, so the flips go in place while
/// `k·(32 + m/48) ≤ 16 + n/32 + m`. That holds for a central daemon's
/// step (the mover and its neighbors) on networks of hundreds of
/// processors or more, and fails for the many flips of a synchronous step
/// and for networks of a few dozen, where a one-word rebuild costs less
/// than a single flip. Both ways leave the same list. Updates never
/// allocate: the list is sized for every processor up front.
#[derive(Clone, Debug)]
pub struct EnabledIndex {
    n: usize,
    bits: BitSet,
    procs: Vec<ProcId>,
}

impl EnabledIndex {
    /// An index over `n` processors, seeded from one enabled flag per
    /// processor in id order.
    pub fn new(n: usize, enabled: impl IntoIterator<Item = bool>) -> Self {
        let mut index = EnabledIndex { n, bits: BitSet::new(n), procs: Vec::with_capacity(n) };
        index.reset(enabled);
        index
    }

    /// Replaces the whole membership with one flag per processor in id
    /// order (used when a configuration is overwritten, never per step).
    pub fn reset(&mut self, enabled: impl IntoIterator<Item = bool>) {
        self.bits.clear();
        self.procs.clear();
        for (i, en) in enabled.into_iter().enumerate() {
            if en {
                self.bits.insert(i);
                self.procs.push(ProcId::from_index(i));
            }
        }
    }

    /// Whether `p` is enabled.
    #[inline]
    pub fn contains(&self, p: ProcId) -> bool {
        self.bits.contains(p.index())
    }

    /// The enabled processors, ascending.
    #[inline]
    pub fn procs(&self) -> &[ProcId] {
        &self.procs
    }

    /// Whether no processor is enabled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Applies one step's membership flips, each `(processor, now
    /// enabled)`. A flip that matches the current membership is ignored.
    pub fn apply(&mut self, flips: &[(ProcId, bool)]) {
        let m = self.procs.len();
        if flips.len() * (32 + m / 48) <= 16 + self.n / 32 + m {
            for &(p, now) in flips {
                if now {
                    if self.bits.insert(p.index()) {
                        let at = self.procs.partition_point(|&q| q < p);
                        self.procs.insert(at, p);
                    }
                } else if self.bits.remove(p.index()) {
                    let at = self.procs.partition_point(|&q| q < p);
                    self.procs.remove(at);
                }
            }
        } else {
            for &(p, now) in flips {
                if now {
                    self.bits.insert(p.index());
                } else {
                    self.bits.remove(p.index());
                }
            }
            self.procs.clear();
            self.procs.extend(self.bits.iter().map(ProcId::from_index));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flips(v: &[(u32, bool)]) -> Vec<(ProcId, bool)> {
        v.iter().map(|&(i, b)| (ProcId(i), b)).collect()
    }

    fn ids(index: &EnabledIndex) -> Vec<u32> {
        index.procs().iter().map(|p| p.0).collect()
    }

    #[test]
    fn both_branches_keep_the_list_ascending_and_equal_to_the_bitset() {
        // Alternate few-flip and many-flip steps. With n = 2000 and a third
        // to a half of it enabled, up to 8 flips go in place and 40 or
        // more rebuild.
        let n = 2_000;
        let mut index = EnabledIndex::new(n, (0..n).map(|i| i % 3 == 0));
        let mut reference: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
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
            let want: Vec<u32> = (0..n as u32).filter(|&i| reference[i as usize]).collect();
            assert_eq!(ids(&index), want, "step {step}, {k} flips");
            assert!((0..n).all(|i| index.contains(ProcId::from_index(i)) == reference[i]));
        }
    }

    #[test]
    fn stale_flips_are_ignored() {
        let mut index = EnabledIndex::new(130, (0..130).map(|i| i == 5 || i == 129));
        index.apply(&flips(&[(5, true), (7, false)]));
        assert_eq!(ids(&index), vec![5, 129]);
        index.apply(&flips(&[(129, false), (64, true)]));
        assert_eq!(ids(&index), vec![5, 64]);
        index.reset([false; 130]);
        assert!(index.is_empty());
    }
}
