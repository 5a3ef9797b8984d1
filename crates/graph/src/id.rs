use std::fmt;

/// Identifier of a processor in the network.
///
/// Processors are numbered densely from `0` to `N - 1`. The identifier also
/// serves as the paper's arbitrary local order `≻_p` on neighbor labels: a
/// processor's neighbors are totally ordered by ascending `ProcId`, and
/// `min_{≻_p}` in the `B-action` of Algorithm 2 resolves to the smallest
/// `ProcId` among candidates.
///
/// # Examples
///
/// ```
/// use pif_graph::ProcId;
///
/// let p = ProcId(3);
/// assert_eq!(p.index(), 3);
/// assert!(ProcId(1) < ProcId(2));
/// assert_eq!(format!("{p}"), "p3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ProcId(pub u32);

impl ProcId {
    /// Returns the identifier as a `usize` index, suitable for indexing
    /// per-processor state vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an identifier from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        ProcId(u32::try_from(index).expect("processor index exceeds u32::MAX"))
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ProcId {
    fn from(value: u32) -> Self {
        ProcId(value)
    }
}

impl From<ProcId> for u32 {
    fn from(value: ProcId) -> Self {
        value.0
    }
}

impl From<ProcId> for usize {
    fn from(value: ProcId) -> Self {
        value.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        for i in [0usize, 1, 17, 4095] {
            assert_eq!(ProcId::from_index(i).index(), i);
        }
    }

    #[test]
    fn ordering_matches_numeric_order() {
        assert!(ProcId(0) < ProcId(1));
        assert!(ProcId(10) > ProcId(9));
        assert_eq!(ProcId(5), ProcId(5));
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(ProcId(42).to_string(), "p42");
    }

    #[test]
    fn conversions() {
        let p: ProcId = 7u32.into();
        assert_eq!(u32::from(p), 7);
        assert_eq!(usize::from(p), 7);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(ProcId::default(), ProcId(0));
    }
}
