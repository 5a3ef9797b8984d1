//! The link layer: bounded channels with seeded per-link faults.
//!
//! A [`Link`] is one directed channel carrying encoded frames. Faults
//! are drawn from a per-link `SplitMix64` stream seeded from the master
//! seed and the link's index, so every run is bit-replayable and the
//! fault pattern on one link is independent of traffic on every other.
//!
//! Fault draws happen at **send** time, in a fixed documented order
//! (drop → overflow → corrupt → enqueue → duplicate → reorder); a rate
//! of zero consumes no randomness, so a fault-free plan leaves the link
//! streams untouched. Corruption flips exactly one uniformly chosen bit
//! of the frame copy in the channel — the CRC32 trailer rejects it at
//! the receiver, which is the whole point: loss is visible in the
//! ledger, never silent.
//!
//! Frame bytes live in buffers drawn from a [`FramePool`] shared by all
//! links of one transport and returned to it when a frame leaves its
//! channel, so steady-state traffic allocates nothing.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::error::NetError;
use crate::stats::LinkStats;

/// Per-link fault rates plus the optional cache-scramble campaign —
/// the complete adversity configuration of a [`crate::NetBuilder`].
///
/// Rates are probabilities in `[0, 1)` applied independently per frame
/// per link. `scramble_seed` arms a construction-time campaign that
/// forges one frame per directed link (drawn from the seed via
/// [`crate::WireState::scrambled`]) and delivers it through the normal
/// receive path, so corrupted caches are reached *through the channel
/// layer* and counted in [`crate::NetStats`], not installed by fiat.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability a sent frame vanishes.
    pub drop: f64,
    /// Probability a sent frame is enqueued twice.
    pub duplicate: f64,
    /// Probability a sent frame is displaced from FIFO order.
    pub reorder: f64,
    /// Probability one bit of a sent frame is flipped in flight.
    pub corrupt: f64,
    /// When set, scramble every register cache at construction by
    /// forging one frame per directed link from this seed.
    pub scramble_seed: Option<u64>,
}

impl FaultPlan {
    /// The all-zero plan: lossless FIFO channels, no campaign.
    pub const fn fault_free() -> Self {
        FaultPlan { drop: 0.0, duplicate: 0.0, reorder: 0.0, corrupt: 0.0, scramble_seed: None }
    }

    /// Sets the drop rate.
    #[must_use]
    pub fn drop_rate(mut self, rate: f64) -> Self {
        self.drop = rate;
        self
    }

    /// Sets the duplication rate.
    #[must_use]
    pub fn duplicate_rate(mut self, rate: f64) -> Self {
        self.duplicate = rate;
        self
    }

    /// Sets the reorder rate.
    #[must_use]
    pub fn reorder_rate(mut self, rate: f64) -> Self {
        self.reorder = rate;
        self
    }

    /// Sets the bit-flip corruption rate.
    #[must_use]
    pub fn corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt = rate;
        self
    }

    /// Arms the construction-time cache-scramble campaign.
    #[must_use]
    pub fn scramble(mut self, seed: u64) -> Self {
        self.scramble_seed = Some(seed);
        self
    }

    /// Whether the plan is the identity (no faults, no campaign).
    pub fn is_fault_free(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.corrupt == 0.0
            && self.scramble_seed.is_none()
    }

    /// Checks every rate is in `[0, 1)`.
    ///
    /// # Errors
    ///
    /// [`NetError::RateOutOfRange`] naming the first offending rate.
    pub fn validate(&self) -> Result<(), NetError> {
        for (name, value) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("corrupt", self.corrupt),
        ] {
            if !(0.0..1.0).contains(&value) {
                return Err(NetError::RateOutOfRange { rate: name, value });
            }
        }
        Ok(())
    }
}

/// One frame sitting in a channel. The flags record what the fault
/// layer did to it, so the receive path can certify that damaged frames
/// never reach a cache (`corrupted`) and that campaign forgeries are
/// counted (`forged`).
#[derive(Clone, Debug)]
pub(crate) struct InFlightFrame {
    pub(crate) bytes: Vec<u8>,
    pub(crate) corrupted: bool,
    pub(crate) forged: bool,
}

/// Spare frame buffers shared by every link of one transport. A buffer
/// leaves the pool when a frame is queued and comes back when the frame
/// is received, evicted or flushed, so once traffic has warmed up no send
/// or receive allocates, and the pool never holds more buffers than were
/// once in flight at the same time.
#[derive(Clone, Debug, Default)]
pub(crate) struct FramePool {
    spare: Vec<Vec<u8>>,
    /// Buffers ever handed out; `spare` always has room for all of them,
    /// so taking buffers back never grows it.
    created: usize,
}

impl FramePool {
    /// A pooled buffer holding a copy of `bytes`.
    fn copy_of(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut buf = self.spare.pop().unwrap_or_else(|| {
            self.created += 1;
            self.spare.reserve(self.created);
            Vec::new()
        });
        buf.clear();
        buf.extend_from_slice(bytes);
        buf
    }

    /// Returns a frame's buffer to the pool.
    pub(crate) fn put(&mut self, buf: Vec<u8>) {
        self.spare.push(buf);
    }
}

/// What [`Link::send`] did with a frame. `Overflow` means the new frame
/// was queued after evicting the oldest one (newest snapshot wins).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SendOutcome {
    Queued,
    Dropped,
    Overflow,
}

/// One directed bounded channel with its fault stream and counters.
#[derive(Clone, Debug)]
pub(crate) struct Link {
    queue: VecDeque<InFlightFrame>,
    capacity: usize,
    rng: StdRng,
    /// Administratively failed (topology churn): every send is dropped
    /// before any fault draw, so the seeded fault stream stays aligned
    /// and recovery replays bit-identically.
    down: bool,
    pub(crate) stats: LinkStats,
}

impl Link {
    pub(crate) fn new(capacity: usize, seed: u64) -> Self {
        Link {
            queue: VecDeque::new(),
            capacity,
            rng: StdRng::seed_from_u64(seed),
            down: false,
            stats: LinkStats::default(),
        }
    }

    /// Marks the link failed or recovered. Failing also flushes whatever
    /// was in flight (a severed cable loses its frames); the flushed
    /// count is returned so the transport can fix its queue accounting.
    pub(crate) fn set_down(&mut self, down: bool, pool: &mut FramePool) -> usize {
        self.down = down;
        if down {
            let lost = self.queue.len();
            self.stats.down_lost += lost as u64;
            self.stats.dropped += lost as u64;
            for frame in self.queue.drain(..) {
                pool.put(frame.bytes);
            }
            lost
        } else {
            0
        }
    }

    pub(crate) fn is_down(&self) -> bool {
        self.down
    }

    /// Offers one encoded frame to the link, applying the fault plan.
    ///
    /// Draw order is fixed (drop, overflow, corrupt, duplicate, reorder)
    /// and zero rates draw nothing, keeping replay bit-identical. A
    /// *down* link drops everything before the first draw — churn maps
    /// onto the drop channel without perturbing the fault stream.
    ///
    /// Overflow evicts the *oldest* queued frame to make room — these
    /// are state-snapshot channels, so the newest snapshot always wins;
    /// dropping fresh frames on overflow would let a saturated link pin
    /// every downstream cache arbitrarily stale.
    ///
    /// Queued copies (and a duplicate's second copy) are drawn from
    /// `pool`; an evicted frame's buffer goes back to it.
    pub(crate) fn send(
        &mut self,
        frame: &[u8],
        plan: &FaultPlan,
        pool: &mut FramePool,
    ) -> SendOutcome {
        self.stats.sent += 1;
        if self.down {
            self.stats.dropped += 1;
            self.stats.down_lost += 1;
            return SendOutcome::Dropped;
        }
        if plan.drop > 0.0 && self.rng.random_bool(plan.drop) {
            self.stats.dropped += 1;
            return SendOutcome::Dropped;
        }
        let mut overflowed = false;
        if self.queue.len() >= self.capacity {
            if let Some(evicted) = self.queue.pop_front() {
                pool.put(evicted.bytes);
            }
            self.stats.overflow_dropped += 1;
            overflowed = true;
        }
        let mut bytes = pool.copy_of(frame);
        let mut corrupted = false;
        if plan.corrupt > 0.0 && self.rng.random_bool(plan.corrupt) {
            let bit = self.rng.random_range(0..bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            corrupted = true;
            self.stats.corrupted += 1;
        }
        self.queue.push_back(InFlightFrame { bytes, corrupted, forged: false });
        if plan.duplicate > 0.0
            && self.queue.len() < self.capacity
            && self.rng.random_bool(plan.duplicate)
        {
            let last = self.queue.back().expect("frame just enqueued");
            let copy = InFlightFrame {
                bytes: pool.copy_of(&last.bytes),
                corrupted: last.corrupted,
                forged: last.forged,
            };
            self.queue.push_back(copy);
            self.stats.duplicated += 1;
        }
        if plan.reorder > 0.0 && self.queue.len() >= 2 && self.rng.random_bool(plan.reorder) {
            let last = self.queue.len() - 1;
            let other = self.rng.random_range(0..last);
            self.queue.swap(other, last);
            self.stats.reordered += 1;
        }
        if overflowed {
            SendOutcome::Overflow
        } else {
            SendOutcome::Queued
        }
    }

    /// Pops the head frame, if any. Decoding (and the delivered /
    /// rejected accounting) happens in the transport's receive path,
    /// which then hands the buffer back to the pool.
    pub(crate) fn recv(&mut self) -> Option<InFlightFrame> {
        self.queue.pop_front()
    }

    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Vec<u8> {
        use crate::frame::{encode_frame, FrameHeader, FrameKind};
        let mut out = Vec::new();
        let header = FrameHeader {
            kind: FrameKind::StateUpdate,
            sender: pif_graph::ProcId(0),
            seq: 1,
        };
        encode_frame(header, &[7, 7, 7], &mut out).unwrap();
        out
    }

    #[test]
    fn fault_free_link_is_lossless_fifo() {
        let mut link = Link::new(4, 1);
        let mut pool = FramePool::default();
        let plan = FaultPlan::fault_free();
        for _ in 0..4 {
            assert_eq!(link.send(&frame(), &plan, &mut pool), SendOutcome::Queued);
        }
        // Overflow evicts the oldest frame; the new frame still lands.
        assert_eq!(link.send(&frame(), &plan, &mut pool), SendOutcome::Overflow);
        assert_eq!(link.stats.sent, 5);
        assert_eq!(link.stats.overflow_dropped, 1);
        assert_eq!(link.len(), 4);
        while let Some(f) = link.recv() {
            assert!(!f.corrupted && !f.forged);
            assert!(crate::frame::decode_frame(&f.bytes).is_ok());
        }
    }

    #[test]
    fn total_drop_rate_delivers_nothing() {
        let mut link = Link::new(4, 2);
        let mut pool = FramePool::default();
        let plan = FaultPlan::fault_free().drop_rate(0.999_999_999);
        for _ in 0..50 {
            link.send(&frame(), &plan, &mut pool);
        }
        assert_eq!(link.stats.dropped, 50);
        assert!(link.is_empty());
    }

    #[test]
    fn corrupted_frames_fail_decode() {
        let mut link = Link::new(64, 3);
        let mut pool = FramePool::default();
        let plan = FaultPlan::fault_free().corrupt_rate(0.999_999_999);
        for _ in 0..20 {
            link.send(&frame(), &plan, &mut pool);
        }
        assert_eq!(link.stats.corrupted, 20);
        while let Some(f) = link.recv() {
            assert!(f.corrupted);
            assert!(crate::frame::decode_frame(&f.bytes).is_err(), "bit flip not caught");
        }
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        let plan = FaultPlan::fault_free().drop_rate(0.3).duplicate_rate(0.2).reorder_rate(0.4);
        let run = |seed| {
            let mut link = Link::new(8, seed);
            let mut pool = FramePool::default();
            for _ in 0..100 {
                link.send(&frame(), &plan, &mut pool);
            }
            link.stats
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn pooled_buffers_are_reused_and_bounded_by_the_in_flight_peak() {
        let mut link = Link::new(4, 4);
        let mut pool = FramePool::default();
        let plan = FaultPlan::fault_free().duplicate_rate(0.5).reorder_rate(0.5);
        let f = frame();
        for round in 0..50 {
            for _ in 0..3 {
                link.send(&f, &plan, &mut pool);
            }
            while let Some(got) = link.recv() {
                assert_eq!(got.bytes, f, "round {round}: pooled copy differs");
                pool.put(got.bytes);
            }
        }
        // Overflow evictions and a flush return their buffers too.
        for _ in 0..10 {
            link.send(&f, &plan, &mut pool);
        }
        let flushed = link.set_down(true, &mut pool);
        assert_eq!(flushed, 4);
        assert!(link.is_empty());
        assert!(pool.spare.len() <= 4, "pool kept {} buffers", pool.spare.len());
    }

    #[test]
    fn plan_validation_rejects_out_of_range_rates() {
        assert!(FaultPlan::fault_free().validate().is_ok());
        assert!(FaultPlan::fault_free().drop_rate(1.0).validate().is_err());
        assert!(FaultPlan::fault_free().corrupt_rate(-0.1).validate().is_err());
        assert!(FaultPlan::fault_free().reorder_rate(f64::NAN).validate().is_err());
    }
}
