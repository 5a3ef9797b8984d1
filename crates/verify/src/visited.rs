//! Visited sets for the state-space searches.
//!
//! The searches key product states as packed `u128`s (configuration id
//! plus the search overlay — delivery bitmaps, round counters). A set is
//! split into shards: a key hashes to one of `shard_count`
//! open-addressing tables, each a linear-probed power-of-two array of
//! raw keys — no buckets, no per-entry allocation. Two front-ends share
//! those shards:
//!
//! * `LocalSet` has one owner and inserts through `&mut self`, with no
//!   lock and no atomic. The searches give each owner of a partition of
//!   the keys its own `LocalSet` and route every key to the one owner
//!   that holds it (the crate's `frontier` module), so no table is ever
//!   shared between threads.
//! * [`VisitedSet`] is the concurrent form: one mutex per shard, so
//!   threads inserting into different shards never contend.
//!
//! Either way an insert is **one probe sequence**: the walk from the
//! key's home slot ends at the key (a duplicate) or at the empty slot the
//! key then takes.
//!
//! Two memory levers sit behind the same interface (`DESIGN.md` §16):
//!
//! * **Key-width compression.** Every search knows an upper bound on the
//!   packed keys it will produce (`configuration count × overlay width`).
//!   When that bound fits in 64 bits — true for every instance up to and
//!   including the chain(4)/ring(4) tier-2 searches — the slot arrays
//!   store `u64`s, halving the table's 16 bytes/state to 8.
//! * **Disk spill.** With a live-table byte budget configured, a shard
//!   that would grow past its share of the budget instead *freezes* its
//!   live table into an immutable sorted run: keys go to an
//!   already-unlinked temporary file (so the OS reclaims the space when
//!   the set drops, even on panic), fronted by a Bloom filter
//!   (~10 bits/key) and in-memory fence keys (one per
//!   [`RUN_BLOCK`]-key block). Membership probes hit the live table
//!   first; only a Bloom-positive key pays one block-sized `pread` plus
//!   a binary search within the block. Inserts always land in the live
//!   table, so the frozen runs stay immutable.
//!
//! Determinism: `insert` returns whether the key was newly inserted,
//! exactly once per key (across all threads, for [`VisitedSet`], whose
//! shard lock serializes insertions of colliding keys). The *set* of
//! visited states of a breadth-first search closure is independent of
//! insertion order, which is what makes the searches bit-identical
//! across worker counts — see `DESIGN.md` §11. Neither the slot width
//! nor the spill tier changes any `insert` verdict, only where the key
//! lives.

// Via pif-par's cfg-switched module: std's mutex normally, the
// loom-instrumented one under `--cfg loom` (see tests/loom_visited.rs).
use pif_par::sync::Mutex;

use std::fs::File;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default number of shards (a power of two). 64 shards keep lock
/// contention on a [`VisitedSet`] negligible, and bound the transient
/// memory of one shard's growth or freeze to a 64th of the table.
pub const SHARD_COUNT: usize = 64;

/// Keys per frozen-run block: fence keys are kept in memory one per
/// block, and a disk probe reads exactly one block.
pub const RUN_BLOCK: usize = 512;

/// Sentinel marking an empty slot. Packed keys never collide with it:
/// [`VisitedConfig::max_key`] must stay below the sentinel of the chosen
/// slot width, which every search satisfies by construction.
const EMPTY: u128 = u128::MAX;
const EMPTY64: u64 = u64::MAX;

/// Growth / initial sizing load factor: grow a shard when it is 3/4 full.
const LOAD_NUM: usize = 3;
const LOAD_DEN: usize = 4;

/// The 64-bit hash every table and the search's owner routing key on.
/// Shards take the top bits and probes the low bits (see
/// `LocalSet::insert_hashed`).
#[inline]
pub(crate) fn hash(key: u128) -> u64 {
    // Fold the halves, then SplitMix64 finalization — cheap and well
    // distributed for the dense, low-entropy packed keys the searches
    // produce.
    let mut x = (key as u64) ^ ((key >> 64) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Construction parameters for a visited set.
#[derive(Clone, Copy, Debug)]
pub struct VisitedConfig {
    /// Expected number of distinct keys: the live tables are pre-sized
    /// for it (spread evenly over the shards) so steady-state inserts
    /// rarely rehash. Pre-sizing is capped at the spill budget when one
    /// is set.
    pub expected: usize,
    /// Inclusive upper bound on every key that will be inserted. Bounds
    /// `< u64::MAX` get 8-byte slots instead of 16.
    pub max_key: u128,
    /// Number of shards; must be a power of two.
    pub shard_count: usize,
    /// Total live-table byte budget across all shards; `None` disables
    /// the spill tier. When a shard's next growth would push the live
    /// tables past the budget, it freezes its contents into a sorted
    /// on-disk run instead.
    pub spill_budget: Option<usize>,
}

impl Default for VisitedConfig {
    fn default() -> Self {
        VisitedConfig {
            expected: 0,
            max_key: EMPTY - 1,
            shard_count: SHARD_COUNT,
            spill_budget: None,
        }
    }
}

/// Slot array in one of the two supported key widths.
enum Slots {
    U64(Vec<u64>),
    U128(Vec<u128>),
}

/// Walks the probe sequence of `key` from its home slot: `Ok` when the
/// key is present, otherwise `Err` with the first empty slot.
#[inline]
fn probe<K: Copy + Eq>(slots: &[K], key: K, empty: K, h: u64) -> Result<(), usize> {
    let mask = slots.len() - 1;
    let mut i = (h as usize) & mask;
    loop {
        let slot = slots[i];
        if slot == key {
            return Ok(());
        }
        if slot == empty {
            return Err(i);
        }
        i = (i + 1) & mask;
    }
}

impl Slots {
    fn with_len(len: usize, wide: bool) -> Self {
        if wide {
            Slots::U128(vec![EMPTY; len])
        } else {
            Slots::U64(vec![EMPTY64; len])
        }
    }

    fn len(&self) -> usize {
        match self {
            Slots::U64(v) => v.len(),
            Slots::U128(v) => v.len(),
        }
    }

    fn key_bytes(&self) -> usize {
        match self {
            Slots::U64(_) => 8,
            Slots::U128(_) => 16,
        }
    }

    /// One probe for `key` (which must fit the slot width).
    #[inline]
    fn find(&self, key: u128, h: u64) -> Result<(), usize> {
        match self {
            Slots::U64(v) => probe(v, key as u64, EMPTY64, h),
            Slots::U128(v) => probe(v, key, EMPTY, h),
        }
    }

    /// Calls `f` with every occupied slot's key.
    fn for_each_key(&self, mut f: impl FnMut(u128)) {
        match self {
            Slots::U64(v) => v.iter().filter(|&&k| k != EMPTY64).for_each(|&k| f(u128::from(k))),
            Slots::U128(v) => v.iter().filter(|&&k| k != EMPTY).for_each(|&k| f(k)),
        }
    }

    #[inline]
    fn set(&mut self, i: usize, key: u128) {
        match self {
            Slots::U64(v) => v[i] = key as u64,
            Slots::U128(v) => v[i] = key,
        }
    }
}

/// Blocked Bloom-free fence index plus filter for one frozen run.
struct Run {
    /// Already-unlinked backing file holding `len` sorted keys.
    file: File,
    len: usize,
    /// Bytes per key in the file (the slot width at freeze time).
    width: usize,
    /// First key of each [`RUN_BLOCK`]-key block, ascending.
    fences: Vec<u128>,
    /// Bloom filter bits (two probes per key), length a power of two.
    bloom: Vec<u64>,
}

impl Run {
    /// Freezes `keys` (sorted, distinct) into an immutable run.
    fn freeze(dir: &std::path::Path, seq: u64, keys: &[u128], width: usize) -> std::io::Result<Run> {
        let bloom_words = (keys.len() * 10).div_ceil(64).next_power_of_two().max(1);
        let mut bloom = vec![0u64; bloom_words];
        let bit_mask = bloom_words * 64 - 1;
        let mut bytes: Vec<u8> = Vec::with_capacity(keys.len() * width);
        let mut fences = Vec::with_capacity(keys.len() / RUN_BLOCK + 1);
        for (i, &k) in keys.iter().enumerate() {
            if i % RUN_BLOCK == 0 {
                fences.push(k);
            }
            bytes.extend_from_slice(&k.to_le_bytes()[..width]);
            let h = hash(k);
            for bit in [h as usize & bit_mask, (h >> 32) as usize & bit_mask] {
                bloom[bit / 64] |= 1 << (bit % 64);
            }
        }
        let path = dir.join(format!("run-{seq}.keys"));
        let mut file = File::options().read(true).write(true).create_new(true).open(&path)?;
        file.write_all(&bytes)?;
        // Unlink immediately: the open handle keeps the data readable,
        // and the filesystem reclaims it when the set drops — even if
        // the process panics mid-search.
        let _ = std::fs::remove_file(&path);
        Ok(Run { file, len: keys.len(), width, fences, bloom })
    }

    #[inline]
    fn bloom_positive(&self, key: u128) -> bool {
        let bit_mask = self.bloom.len() * 64 - 1;
        let h = hash(key);
        [h as usize & bit_mask, (h >> 32) as usize & bit_mask]
            .iter()
            .all(|&bit| self.bloom[bit / 64] & (1 << (bit % 64)) != 0)
    }

    /// Exact membership: fence search in memory, then one block read.
    fn contains(&self, key: u128) -> bool {
        if !self.bloom_positive(key) {
            return false;
        }
        // Block whose fence is the greatest fence <= key.
        let b = match self.fences.partition_point(|&f| f <= key) {
            0 => return false, // below the smallest key
            i => i - 1,
        };
        let start = b * RUN_BLOCK;
        let count = RUN_BLOCK.min(self.len - start);
        let mut buf = vec![0u8; count * self.width];
        if self.read_at(&mut buf, (start * self.width) as u64).is_err() {
            // An unreadable run cannot prove absence; treat the key as
            // absent so the search stays complete (it may re-explore).
            return false;
        }
        let decode = |i: usize| -> u128 {
            let mut raw = [0u8; 16];
            raw[..self.width].copy_from_slice(&buf[i * self.width..(i + 1) * self.width]);
            u128::from_le_bytes(raw)
        };
        let (mut lo, mut hi) = (0usize, count);
        while lo < hi {
            let mid = lo.midpoint(hi);
            match decode(mid).cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        false
    }

    #[cfg(unix)]
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, offset)
    }

    #[cfg(not(unix))]
    fn read_at(&self, _buf: &mut [u8], _offset: u64) -> std::io::Result<()> {
        // Non-unix builds keep runs readable only through the fallback
        // in `Shard::freeze` (runs stay in memory there), so this path
        // is unreachable; returning an error keeps `contains`
        // conservative if it ever is reached.
        Err(std::io::Error::other("positioned reads unsupported"))
    }
}

struct Shard {
    /// Linear-probed slot array; length is a power of two.
    slots: Slots,
    /// Occupied slot count of the live table.
    items: usize,
    /// Immutable sorted spill runs, oldest first.
    runs: Vec<Run>,
    /// Total keys held by `runs`.
    spilled: usize,
}

impl Shard {
    fn with_capacity(expected: usize, wide: bool) -> Self {
        let min_slots = (expected * LOAD_DEN / LOAD_NUM + 1).next_power_of_two().max(16);
        Shard { slots: Slots::with_len(min_slots, wide), items: 0, runs: Vec::new(), spilled: 0 }
    }

    /// Inserts `key` (hash `h`), returning whether it was new. One probe
    /// of the live table decides the common case; frozen runs are only
    /// consulted when the live table misses and runs exist.
    ///
    /// # Panics
    ///
    /// Panics if `key` is the empty-slot sentinel or does not fit a
    /// narrow-slot table.
    #[inline]
    fn insert(&mut self, key: u128, h: u64, spill: Option<&SpillState>) -> bool {
        assert_ne!(key, EMPTY, "u128::MAX is reserved as the empty-slot sentinel");
        if key >= u128::from(EMPTY64) {
            assert!(
                self.slots.key_bytes() == 16,
                "key {key:#x} exceeds the configured max_key bound of a narrow-slot set"
            );
        }
        let Err(mut slot) = self.slots.find(key, h) else {
            return false;
        };
        if self.runs.iter().any(|r| r.contains(key)) {
            return false;
        }
        if (self.items + 1) * LOAD_DEN > self.slots.len() * LOAD_NUM {
            // Freeze instead of growing once doubling would overshoot
            // this shard's share of the live-table budget.
            let over_budget = spill.is_some_and(|s| {
                self.slots.len() * 2 * self.slots.key_bytes() > s.per_shard_budget
            });
            match spill {
                Some(s) if over_budget && self.items > 0 => self.freeze(s),
                _ => self.grow(),
            }
            slot = self.slots.find(key, h).expect_err("key is absent");
        }
        self.slots.set(slot, key);
        self.items += 1;
        true
    }

    fn grow(&mut self) {
        let bigger = Slots::with_len(self.slots.len() * 2, self.slots.key_bytes() == 16);
        let old = std::mem::replace(&mut self.slots, bigger);
        old.for_each_key(|key| {
            let slot = self.slots.find(key, hash(key)).expect_err("keys are distinct");
            self.slots.set(slot, key);
        });
    }

    /// Moves the live table's contents into a new frozen run and resets
    /// the live table to its minimum size.
    fn freeze(&mut self, spill: &SpillState) {
        let mut keys = Vec::with_capacity(self.items);
        self.slots.for_each_key(|key| keys.push(key));
        keys.sort_unstable();
        let width = self.slots.key_bytes();
        let seq = spill.seq.fetch_add(1, Ordering::Relaxed);
        match Run::freeze(&spill.dir, seq, &keys, width) {
            Ok(run) => {
                self.spilled += keys.len();
                self.runs.push(run);
                self.slots = Slots::with_len(16, width == 16);
                self.items = 0;
            }
            Err(_) => {
                // Disk unavailable: keep the keys in memory and grow as
                // if no budget were set — degraded but still correct.
                self.grow();
            }
        }
    }
}

/// Spill configuration: the runs directory plus a run sequence number.
/// Dropping it removes the directory (the run files in it are already
/// unlinked).
struct SpillState {
    dir: std::path::PathBuf,
    per_shard_budget: usize,
    seq: AtomicU64,
}

impl Drop for SpillState {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir(&self.dir);
    }
}

#[inline]
fn shard_of(h: u64, shard_bits: u32) -> usize {
    // Shard on the top bits, probe on the low bits, so the probe
    // position within a shard is independent of shard selection.
    if shard_bits == 0 {
        0
    } else {
        (h >> (64 - shard_bits)) as usize
    }
}

/// A set of packed `u128` product states with a single owner.
///
/// Sharded open addressing with optional key-width compression and a
/// disk-spill tier (see the module docs), mutated through `&mut self`:
/// no lock, no atomic. Built for the write-once access pattern of a BFS
/// visited set — there is no lookup-without-insert and no removal.
pub(crate) struct LocalSet {
    shards: Vec<Shard>,
    shard_bits: u32,
    spill: Option<SpillState>,
}

impl LocalSet {
    /// Creates a set from an explicit [`VisitedConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is not a power of two, or if `max_key`
    /// collides with the empty-slot sentinel of the selected width.
    pub fn with_config(config: VisitedConfig) -> Self {
        assert!(
            config.shard_count.is_power_of_two(),
            "shard count must be a power of two, got {}",
            config.shard_count
        );
        let wide = config.max_key >= u128::from(EMPTY64);
        assert_ne!(config.max_key, EMPTY, "u128::MAX is reserved as the empty-slot sentinel");
        let spill = config.spill_budget.map(|budget| {
            static SET_SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "pif-visited-{}-{}",
                std::process::id(),
                SET_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            // Creation failures surface later as freeze failures, which
            // degrade to growth; no need to fail construction.
            let _ = std::fs::create_dir_all(&dir);
            SpillState {
                dir,
                per_shard_budget: (budget / config.shard_count).max(16 * 16),
                seq: AtomicU64::new(0),
            }
        });
        // Under a spill budget, pre-sizing past the budget would defeat
        // it: cap the initial tables at the budget and let freezing take
        // over from there.
        let mut per_shard = config.expected / config.shard_count;
        if let Some(s) = &spill {
            let width = if wide { 16 } else { 8 };
            per_shard = per_shard.min(s.per_shard_budget / width * LOAD_NUM / LOAD_DEN);
        }
        LocalSet {
            shards: (0..config.shard_count).map(|_| Shard::with_capacity(per_shard, wide)).collect(),
            shard_bits: config.shard_count.trailing_zeros(),
            spill,
        }
    }

    /// Inserts `key`, returning `true` when it was not yet present.
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds the configured `max_key` bound (in the
    /// narrow-slot case, where it would collide with the sentinel).
    #[inline]
    pub fn insert(&mut self, key: u128) -> bool {
        self.insert_hashed(key, hash(key))
    }

    /// [`Self::insert`] with the key's [`hash`] already computed. The
    /// top `log2(shard_count)` bits pick the shard and the low bits the
    /// home slot; bits in between are free for the caller (the search
    /// routes keys to owners on them).
    #[inline]
    pub(crate) fn insert_hashed(&mut self, key: u128, h: u64) -> bool {
        self.shards[shard_of(h, self.shard_bits)].insert(key, h, self.spill.as_ref())
    }

    /// Total number of distinct keys inserted (live + spilled).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.items + s.spilled).sum()
    }

    /// Number of keys currently frozen in on-disk runs (zero without a
    /// spill budget).
    #[cfg(test)]
    pub fn spilled_keys(&self) -> usize {
        self.shards.iter().map(|s| s.spilled).sum()
    }
}

/// A concurrent set of packed `u128` product states.
///
/// The shards of a single-owner set, one mutex each: `insert` takes one
/// shard lock, held only for the probe (plus the occasional freeze).
pub struct VisitedSet {
    shards: Vec<Mutex<Shard>>,
    shard_bits: u32,
    spill: Option<SpillState>,
}

impl VisitedSet {
    /// Creates a set pre-sized for `expected` total keys with the
    /// default configuration: full-width slots, [`SHARD_COUNT`] shards,
    /// no spill tier.
    pub fn with_capacity(expected: usize) -> Self {
        Self::with_config(VisitedConfig { expected, ..VisitedConfig::default() })
    }

    /// Creates a set from an explicit [`VisitedConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is not a power of two, or if `max_key`
    /// collides with the empty-slot sentinel of the selected width.
    pub fn with_config(config: VisitedConfig) -> Self {
        let LocalSet { shards, shard_bits, spill } = LocalSet::with_config(config);
        VisitedSet { shards: shards.into_iter().map(Mutex::new).collect(), shard_bits, spill }
    }

    /// Inserts `key`, returning `true` exactly once per distinct key
    /// across all threads.
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds the configured `max_key` bound (in the
    /// narrow-slot case, where it would collide with the sentinel) or if
    /// a shard lock is poisoned by a panicking worker.
    pub fn insert(&self, key: u128) -> bool {
        let h = hash(key);
        let mut shard = self.shards[shard_of(h, self.shard_bits)].lock().expect("visited shard poisoned");
        shard.insert(key, h, self.spill.as_ref())
    }

    fn sum(&self, f: impl Fn(&Shard) -> usize) -> usize {
        self.shards.iter().map(|s| f(&s.lock().expect("visited shard poisoned"))).sum()
    }

    /// Total number of distinct keys inserted (live + spilled).
    pub fn len(&self) -> usize {
        self.sum(|s| s.items + s.spilled)
    }

    /// Whether no key has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of keys currently frozen in on-disk runs (zero without a
    /// spill budget).
    pub fn spilled_keys(&self) -> usize {
        self.sum(|s| s.spilled)
    }

    /// Number of frozen runs across all shards.
    pub fn run_count(&self) -> usize {
        self.sum(|s| s.runs.len())
    }

    /// Current live-table slot bytes across all shards (the quantity the
    /// spill budget bounds).
    pub fn live_bytes(&self) -> usize {
        self.sum(|s| s.slots.len() * s.slots.key_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_novelty_exactly_once() {
        let set = VisitedSet::with_capacity(0);
        assert!(set.insert(42));
        assert!(!set.insert(42));
        assert!(set.insert(43));
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }

    #[test]
    fn growth_preserves_membership() {
        let set = VisitedSet::with_capacity(0);
        // Far more keys than the initial sizing, forcing many rehashes;
        // adversarially dense keys (sequential ids shifted like the real
        // pack functions).
        for k in 0..100_000u128 {
            assert!(set.insert(k << 23));
        }
        for k in 0..100_000u128 {
            assert!(!set.insert(k << 23));
        }
        assert_eq!(set.len(), 100_000);
    }

    #[test]
    fn narrow_slots_preserve_membership_under_resize_load() {
        // Same adversarial load as above, but through the u64 slot path
        // (max_key fits): half the table bytes, identical verdicts.
        let set = VisitedSet::with_config(VisitedConfig {
            max_key: 100_000u128 << 23,
            ..VisitedConfig::default()
        });
        for k in 0..100_000u128 {
            assert!(set.insert(k << 23));
        }
        for k in 0..100_000u128 {
            assert!(!set.insert(k << 23));
        }
        assert_eq!(set.len(), 100_000);
        let wide = VisitedSet::with_capacity(100_000);
        for k in 0..100_000u128 {
            wide.insert(k << 23);
        }
        assert!(set.live_bytes() < wide.live_bytes());
    }

    #[test]
    fn concurrent_inserts_count_each_key_once() {
        let set = VisitedSet::with_capacity(1 << 12);
        let mut wins = [0usize; 8];
        pif_par::fan_out(wins.iter_mut(), |won| {
            *won = (0..10_000u128).filter(|&k| set.insert(k * 3)).count();
        });
        let winners: usize = wins.iter().sum();
        assert_eq!(winners, 10_000, "each key must be claimed by exactly one worker");
        assert_eq!(set.len(), 10_000);
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn sentinel_key_is_rejected() {
        VisitedSet::with_capacity(0).insert(u128::MAX);
    }

    #[test]
    #[should_panic(expected = "max_key bound")]
    fn key_over_narrow_bound_is_rejected() {
        let set = VisitedSet::with_config(VisitedConfig { max_key: 1 << 40, ..VisitedConfig::default() });
        set.insert(u128::from(u64::MAX));
    }

    #[test]
    fn probe_wraparound_at_the_table_end_is_exact() {
        // Force collisions whose natural slot is the last one of the
        // minimum-sized table, so probing must wrap to slot 0 and keep
        // going; novelty and membership must survive the wraparound.
        let mut shard = Shard::with_capacity(0, false);
        let mask = shard.slots.len() - 1;
        let h = mask as u64; // natural slot = last slot of the table
        for key in 0..12u128 {
            assert!(shard.insert(key, h, None), "key {key} must be novel");
        }
        for key in 0..12u128 {
            assert!(!shard.insert(key, h, None), "lost key {key} across wraparound");
        }
        assert!(shard.slots.find(99, h).is_err());
        assert_eq!(shard.items, 12);
    }

    #[test]
    fn spill_freezes_runs_and_keeps_verdicts_exact() {
        // A tiny budget forces every shard to freeze repeatedly; the
        // spilled set must agree with an in-memory reference on both
        // membership (re-inserts return false) and novelty.
        let set = VisitedSet::with_config(VisitedConfig {
            max_key: 1 << 40,
            shard_count: 4,
            spill_budget: Some(4 * 16 * 16), // minimum per-shard budget
            ..VisitedConfig::default()
        });
        let keys: Vec<u128> = (0..5_000u128).map(|k| (k * k) << 7).collect();
        for (i, &k) in keys.iter().enumerate() {
            assert!(set.insert(k), "key {i} must be novel");
        }
        assert!(set.spilled_keys() > 0, "budget was sized to force spilling");
        assert!(set.run_count() > 0);
        for (i, &k) in keys.iter().enumerate() {
            assert!(!set.insert(k), "key {i} must be remembered across spill");
        }
        assert_eq!(set.len(), keys.len());
        // Novel keys interleaved with spilled ranges still insert once.
        assert!(set.insert((5_001u128 * 5_001) << 7 | 1));
        assert_eq!(set.len(), keys.len() + 1);
    }

    proptest::proptest! {
        /// Insert-then-contains across shard counts {1, 64} and both
        /// front-ends: any key sequence (duplicates included) must
        /// produce the same novelty verdicts and final cardinality as a
        /// reference `HashSet`, whether all keys funnel through one shard
        /// or spread over 64, and regardless of slot width.
        #[test]
        fn insert_then_contains_across_shard_counts(
            raw in proptest::collection::vec(0u64..(1 << 48), 1..400),
            narrow in proptest::any::<bool>(),
        ) {
            let keys: Vec<u128> = raw.iter().map(|&k| u128::from(k)).collect();
            let mut reference = std::collections::HashSet::new();
            let config = |shard_count| VisitedConfig {
                shard_count,
                max_key: if narrow { 1 << 48 } else { u128::MAX - 1 },
                ..VisitedConfig::default()
            };
            let sets: Vec<VisitedSet> =
                [1usize, 64].iter().map(|&shards| VisitedSet::with_config(config(shards))).collect();
            let mut locals: Vec<LocalSet> =
                [1usize, 64].iter().map(|&shards| LocalSet::with_config(config(shards))).collect();
            for &k in &keys {
                let novel = reference.insert(k);
                for set in &sets {
                    proptest::prop_assert_eq!(set.insert(k), novel);
                }
                for set in &mut locals {
                    proptest::prop_assert_eq!(set.insert(k), novel);
                }
            }
            for set in &sets {
                proptest::prop_assert_eq!(set.len(), reference.len());
            }
            for set in &locals {
                proptest::prop_assert_eq!(set.len(), reference.len());
            }
        }
    }

    #[test]
    fn spilled_wide_keys_round_trip() {
        // The u128 run path (width 16) must also freeze and probe
        // exactly: keys straddle the 64-bit boundary.
        let set = VisitedSet::with_config(VisitedConfig {
            shard_count: 1,
            spill_budget: Some(16 * 16),
            ..VisitedConfig::default()
        });
        let keys: Vec<u128> = (0..2_000u128).map(|k| k << 77 | k).collect();
        for &k in &keys {
            assert!(set.insert(k));
        }
        assert!(set.spilled_keys() > 0);
        for &k in &keys {
            assert!(!set.insert(k));
        }
        assert_eq!(set.len(), keys.len());
    }
}
