//! Per-configuration memo of guard masks.
//!
//! Both product searches repeatedly ask for the guard masks of a
//! configuration — `PifProtocol`'s `enabled_actions` of every processor,
//! narrowed from its `ActionSet` to a byte — an answer that depends only
//! on the configuration id, not on the search overlay it is paired with. A configuration id recurs many times during
//! a search — once per overlay variant it is reached with, and once per
//! transition that lands on it — so the masks are computed exactly once,
//! in a parallel pass over the id range, and stored flat:
//! `masks[cfg * n + i]` is the mask of processor `i` (bit k ⇔
//! `ActionId(k)`; the protocol has 7 actions, so a `u8` suffices).
//! Abnormality and the pending set are read off the masks.
//!
//! Successor states then pay **no** guard re-evaluation at all: the
//! expansion encodes the successor id incrementally and looks its masks
//! up. The memo is skipped (and the engines fall back to direct guard
//! evaluation) when the space is too large for the flat table — see
//! [`EnabledMemo::BYTE_LIMIT`].

/// Memoized per-configuration guard masks. See the module docs.
#[derive(Clone)]
pub(crate) struct EnabledMemo {
    n: usize,
    masks: Vec<u8>,
}

impl EnabledMemo {
    /// Upper bound on the mask table size; spaces needing more fall back
    /// to unmemoized guard evaluation. 1 GiB covers every instance the
    /// exhaustive tier targets (ring(4) is ~287 MB) with ample margin on
    /// the CI hosts.
    pub const BYTE_LIMIT: u128 = 1 << 30;

    /// Allocates a zeroed table for `total` configurations of `n`
    /// processors, or `None` if it would exceed [`Self::BYTE_LIMIT`].
    pub fn allocate(total: u64, n: usize) -> Option<Self> {
        if u128::from(total) * n as u128 > Self::BYTE_LIMIT {
            return None;
        }
        let total = usize::try_from(total).ok()?;
        Some(EnabledMemo { n, masks: vec![0u8; total * n] })
    }

    /// Number of configurations per parallel fill chunk.
    pub const FILL_CHUNK: usize = 1 << 12;

    /// Splits the table into disjoint mutable chunks of
    /// [`Self::FILL_CHUNK`] configurations for the parallel fill: each
    /// entry is `(first_cfg, masks_chunk)`.
    pub fn fill_chunks(&mut self) -> Vec<(u64, &mut [u8])> {
        (0u64..)
            .step_by(Self::FILL_CHUNK)
            .zip(self.masks.chunks_mut(Self::FILL_CHUNK * self.n))
            .collect()
    }

    /// Guard masks of every processor in configuration `cfg`.
    #[inline]
    pub fn masks_of(&self, cfg: u64) -> &[u8] {
        &self.masks[cfg as usize * self.n..][..self.n]
    }
}

impl std::fmt::Debug for EnabledMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnabledMemo")
            .field("procs", &self.n)
            .field("configs", &(self.masks.len() / self.n.max(1)))
            .finish_non_exhaustive()
    }
}
