//! Search drivers: the owner-partitioned breadth-first search behind
//! every product and wave check, and the minimum-witness id scan behind
//! the universal checks.
//!
//! [`Search`] computes a breadth-first closure over packed `u128` keys
//! (an item of a search is a pure function of its key, so the frontier
//! holds keys only). The keys are partitioned among **owners**: owner
//! `o` holds the keys whose hash selects it ([`owner_of`]) in its own
//! [`LocalSet`], which is mutated through `&mut`: no lock and no atomic
//! per key. One worker has one owner; `W > 1` workers share
//! `W ·` [`OWNERS_PER_WORKER`] owners. The search runs in rounds, and in
//! a round every owner takes one turn: it first inserts the keys other
//! owners sent it (its inbox), then expands up to [`ROUND_KEYS`] keys of
//! its current level through a [`Router`].
//!
//! A round with fewer than [`INLINE_LEVEL`] keys of work runs every turn
//! on the calling thread, and its router inserts each successor straight
//! into its owner's table (one probe) and, if new, onto that owner's
//! next level. A larger round runs on every worker, the calling thread
//! being the first and each other worker a scoped thread
//! ([`pif_par::fan_out`]), each claiming the next unclaimed owner until
//! none is left, and ends at a barrier. A worker may touch only the
//! owner whose turn it runs: a successor that owner holds goes straight
//! into its table, and a successor another owner holds goes into that
//! owner's outbox. At the barrier each outbox is swapped with its
//! owner's drained inbox: the filled buffer moves to the owner without
//! copying a key, and the emptied one comes back as the next outbox, so
//! the steady state allocates nothing.
//!
//! Owners outnumber workers so that a threaded round balances itself. A
//! barrier waits for the slowest worker, and on a shared host a CPU is
//! slowed or taken away for milliseconds at a time (by another process,
//! or by the hypervisor on a virtual machine). With one owner per worker
//! every round would take as long as its slowest CPU; with several, a
//! slowed worker claims fewer owners while the others claim more, and
//! the barrier waits for at most one turn.
//!
//! Level 0 is either a stored key ([`Search::seed`], the wave search) or
//! an id scan ([`Search::scan`], the product searches): owners' turns
//! claim blocks of configuration ids and expand each seed configuration
//! in place. Scanned seeds are counted, never stored: a product search
//! recognizes a successor that is itself a seed by an O(1) test and
//! drops it before routing, so its tables hold only non-seed states and
//! [`Search::states`] is `seeds + Σ table.len()`.
//!
//! Determinism: every key has exactly one owner and enters only that
//! owner's table, so it is expanded exactly once whatever the worker
//! count, the owner count and the scheduling. The visited closure is a
//! set, and every count derived from it is independent of all three.
//!
//! [`find_min_violation`] is an embarrassingly parallel predicate scan
//! over `0..total` returning the *smallest* violating id, with an atomic
//! best-so-far bound that lets workers skip ids that can no longer
//! matter. With one worker it runs inline on the calling thread.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::visited::{hash, LocalSet, VisitedConfig};

/// Rounds with fewer keys (or level-0 ids) of work than this run inline
/// on the calling thread: below it, spawning a scoped thread per worker
/// costs more than the expansion work it would share.
pub const INLINE_LEVEL: usize = 1024;

/// Owners per worker when there are several workers (see the module
/// docs): enough that the tail of a threaded round — the last turn still
/// running — is a small share of it.
pub const OWNERS_PER_WORKER: usize = 4;

/// Ids claimed per atomic fetch in the range scans (level 0, universal
/// predicates): one atomic per block, never per id.
const ID_BLOCK: u64 = 4096;

/// Keys (or level-0 ids) one owner's turn expands. Keys for other owners
/// wait in outboxes until the barrier, duplicates included, so this
/// bounds each owner's mail to `ROUND_KEYS` times the successors per key;
/// a level larger than `owners · ROUND_KEYS` takes several rounds.
pub const ROUND_KEYS: usize = 1 << 14;

/// The owner, of `owners`, of a key with hash `h`.
///
/// Uses hash bits 26..58, scaled onto `0..owners` by a multiply-shift.
/// Those bits are disjoint from the shard bits of a [`LocalSet`] (the
/// top six) and from the probe bits of any shard under 2^26 slots, so
/// within one owner's table keys still spread evenly over shards and
/// slots.
#[inline]
pub fn owner_of(h: u64, owners: usize) -> usize {
    ((u64::from((h >> 26) as u32) * owners as u64) >> 32) as usize
}

/// Where one turn sends the successor keys it generates (see the module
/// docs).
pub struct Router<'a>(Route<'a>);

enum Route<'a> {
    /// Inline rounds: into the table of whichever owner holds the key.
    Direct(&'a mut [Owner]),
    /// Threaded rounds: into the table of owner `me`, whose turn it is,
    /// or into the outbox of the owner that holds the key.
    Mail { me: usize, table: &'a mut LocalSet, next: &'a mut Vec<u128>, outbox: &'a mut [Vec<u128>] },
}

impl Router<'_> {
    /// Routes one successor key to its owner.
    #[inline]
    pub fn route(&mut self, key: u128) {
        let h = hash(key);
        match &mut self.0 {
            Route::Direct(owners) => {
                let owner = &mut owners[owner_of(h, owners.len())];
                if owner.table.insert_hashed(key, h) {
                    owner.next.push(key);
                }
            }
            Route::Mail { me, table, next, outbox } => {
                let owner = owner_of(h, outbox.len());
                if owner != *me {
                    outbox[owner].push(key);
                } else if table.insert_hashed(key, h) {
                    next.push(key);
                }
            }
        }
    }
}

/// One owner's private state: table, frontiers and mail.
struct Owner {
    table: LocalSet,
    /// Owned keys of the level being expanded; `frontier[..pos]` are done.
    frontier: Vec<u128>,
    pos: usize,
    /// Owned keys first inserted since the level began: the next level.
    next: Vec<u128>,
    /// Keys for other owners, by owner.
    outbox: Vec<Vec<u128>>,
    /// Keys from other owners, by sender.
    inbox: Vec<Vec<u128>>,
    /// Seeds expanded by the level-0 scan on this owner's turns (never
    /// stored).
    seeds: u64,
}

impl Owner {
    /// Keys this owner still has to insert or expand.
    fn pending(&self) -> usize {
        self.frontier.len() - self.pos + self.next.len() + self.inbox.iter().map(Vec::len).sum::<usize>()
    }

    /// Starts a turn: inserts the keys other owners sent (new ones join
    /// the next level) and, when `level` is set, claims up to
    /// [`ROUND_KEYS`] keys of the current level, starting the next level
    /// once it is done. Returns the frontier, taken out of the owner for
    /// the turn, and the claimed range of it.
    fn start_turn(&mut self, level: bool) -> (Vec<u128>, Range<usize>) {
        for batch in &mut self.inbox {
            for &key in batch.iter() {
                if self.table.insert(key) {
                    self.next.push(key);
                }
            }
            batch.clear();
        }
        if level && self.pos == self.frontier.len() {
            std::mem::swap(&mut self.frontier, &mut self.next);
            self.next.clear();
            self.pos = 0;
        }
        let end = if level { (self.pos + ROUND_KEYS).min(self.frontier.len()) } else { self.pos };
        let keys = self.pos..end;
        self.pos = end;
        (std::mem::take(&mut self.frontier), keys)
    }

    /// Ends a turn: returns the frontier and counts the turn's seeds.
    fn end_turn(&mut self, frontier: Vec<u128>, seeds: u64) {
        self.frontier = frontier;
        self.seeds += seeds;
    }
}

/// An owner-partitioned breadth-first search (see the module docs).
pub struct Search<S> {
    /// One scratch per worker.
    scratches: Vec<S>,
    owners: Vec<Owner>,
}

impl<S: Send> Search<S> {
    /// A search with one worker per scratch. `config` describes the whole
    /// visited set: each owner's table gets an equal share of its
    /// expected size, shards and spill budget.
    ///
    /// # Panics
    ///
    /// Panics if `scratches` is empty.
    pub fn new(scratches: Vec<S>, config: &VisitedConfig) -> Self {
        let w = scratches.len();
        assert!(w > 0, "a search needs at least one worker");
        let n = if w == 1 { 1 } else { w * OWNERS_PER_WORKER };
        let share = VisitedConfig {
            expected: config.expected / n,
            shard_count: (config.shard_count / n).next_power_of_two(),
            spill_budget: config.spill_budget.map(|b| b / n),
            ..*config
        };
        let owners = (0..n)
            .map(|_| Owner {
                table: LocalSet::with_config(share),
                frontier: Vec::new(),
                pos: 0,
                next: Vec::new(),
                outbox: vec![Vec::new(); n],
                inbox: vec![Vec::new(); n],
                seeds: 0,
            })
            .collect();
        Search { scratches, owners }
    }

    /// Stores `key` as a level-0 state, in its owner's table.
    pub fn seed(&mut self, key: u128) {
        Router(Route::Direct(&mut self.owners)).route(key);
    }

    /// Level 0 as a scan of ids `0..total`: `expand(scratch, id, router)`
    /// expands `id` if it is a seed, routing its successors, and returns
    /// whether it was one. Seeds are counted, not stored. Each turn claims
    /// [`ID_BLOCK`]-id blocks from a shared cursor, at most
    /// [`ROUND_KEYS`] ids.
    pub fn scan<F>(&mut self, total: u64, expand: F)
    where
        F: Fn(&mut S, u64, &mut Router<'_>) -> bool + Sync,
    {
        let cursor = AtomicU64::new(0);
        let blocks_per_turn = (ROUND_KEYS as u64).div_ceil(ID_BLOCK);
        loop {
            let left = total.saturating_sub(cursor.load(Ordering::Relaxed));
            if left == 0 {
                return;
            }
            let size = usize::try_from(left).unwrap_or(usize::MAX).saturating_add(self.pending());
            self.round(size, false, |scratch, _, router| {
                let mut seeds = 0;
                for _ in 0..blocks_per_turn {
                    let start = cursor.fetch_add(ID_BLOCK, Ordering::Relaxed);
                    if start >= total {
                        break;
                    }
                    for id in start..(start + ID_BLOCK).min(total) {
                        seeds += u64::from(expand(scratch, id, router));
                    }
                }
                seeds
            });
        }
    }

    /// Runs rounds until no owner has a key left to insert or expand.
    /// `expand(scratch, key, router)` routes every successor of `key`
    /// that stays in the search.
    pub fn run<F>(&mut self, expand: F)
    where
        F: Fn(&mut S, u128, &mut Router<'_>) + Sync,
    {
        loop {
            let size = self.pending();
            if size == 0 {
                return;
            }
            self.round(size, true, |scratch, keys, router| {
                for &key in keys {
                    expand(scratch, key, router);
                }
                0
            });
        }
    }

    fn pending(&self) -> usize {
        self.owners.iter().map(Owner::pending).sum()
    }

    /// One round: every owner takes a turn (see [`Owner::start_turn`]),
    /// in which `turn(scratch, keys, router)` expands the claimed `keys`
    /// and returns the number of seeds it scanned. Inline when there is
    /// one worker or fewer than [`INLINE_LEVEL`] keys of work; otherwise
    /// on every worker, the calling thread first ([`pif_par::fan_out`]),
    /// ending with the barrier's mail exchange.
    fn round<F>(&mut self, size: usize, level: bool, turn: F)
    where
        F: Fn(&mut S, &[u128], &mut Router<'_>) -> u64 + Sync,
    {
        let Search { scratches, owners } = self;
        if scratches.len() <= 1 || size < INLINE_LEVEL {
            let scratch = scratches.first_mut().expect("at least one worker");
            for me in 0..owners.len() {
                let (frontier, keys) = owners[me].start_turn(level);
                let seeds = turn(scratch, &frontier[keys], &mut Router(Route::Direct(owners)));
                owners[me].end_turn(frontier, seeds);
            }
            return;
        }
        // Each worker claims the next unclaimed owner until none is left:
        // one lock per turn, never per key.
        let queue = Mutex::new(owners.iter_mut().enumerate());
        let work = |scratch: &mut S| loop {
            let claimed = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((me, owner)) = claimed else { return };
            let (frontier, keys) = owner.start_turn(level);
            let Owner { table, next, outbox, .. } = &mut *owner;
            let seeds = turn(scratch, &frontier[keys], &mut Router(Route::Mail { me, table, next, outbox }));
            owner.end_turn(frontier, seeds);
        };
        pif_par::fan_out(scratches.iter_mut(), work);
        self.exchange();
    }

    /// The barrier's mail exchange: every outbox swaps with its owner's
    /// (drained) inbox, moving the buffers, not the keys.
    fn exchange(&mut self) {
        let n = self.owners.len();
        for a in 0..n {
            for b in a + 1..n {
                let (lo, hi) = self.owners.split_at_mut(b);
                let (x, y) = (&mut lo[a], &mut hi[0]);
                std::mem::swap(&mut x.outbox[b], &mut y.inbox[a]);
                std::mem::swap(&mut y.outbox[a], &mut x.inbox[b]);
            }
        }
    }

    /// States explored so far: scanned seeds plus every stored key.
    pub fn states(&self) -> u64 {
        self.owners.iter().map(|o| o.seeds + o.table.len() as u64).sum()
    }

    /// Keys frozen into spill runs across all owners' tables.
    #[cfg(test)]
    pub fn spilled_keys(&self) -> usize {
        self.owners.iter().map(|o| o.table.spilled_keys()).sum()
    }

    /// The workers' scratches, in worker order.
    pub fn into_scratches(self) -> Vec<S> {
        self.scratches
    }
}

/// Evaluates `violates` over ids `0..total` with `workers` threads and
/// returns the smallest id for which it holds, or `None`.
///
/// Each worker gets its own scratch from `init`. A shared atomic holds
/// the best (smallest) violating id found so far; ids at or above it are
/// skipped, so the scan short-circuits like a sequential `find` while
/// still returning the deterministic minimum.
pub fn find_min_violation<S, I, F>(workers: usize, total: u64, init: I, violates: F) -> Option<u64>
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> bool + Sync,
{
    let best = AtomicU64::new(u64::MAX);
    let counter = AtomicU64::new(0);
    pif_par::run_workers(workers.max(1), |_| {
        let mut scratch = init();
        loop {
            let start = counter.fetch_add(ID_BLOCK, Ordering::Relaxed);
            // Blocks are claimed in increasing order, so once this
            // worker's block starts at or beyond the best known
            // violation, every id it could still claim is irrelevant.
            if start >= total || start >= best.load(Ordering::Relaxed) {
                break;
            }
            let end = (start + ID_BLOCK).min(total);
            for id in start..end {
                if id >= best.load(Ordering::Relaxed) {
                    break;
                }
                if violates(&mut scratch, id) {
                    best.fetch_min(id, Ordering::Relaxed);
                    break;
                }
            }
        }
    });
    match best.load(Ordering::Relaxed) {
        u64::MAX => None,
        id => Some(id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A visited-set configuration for keys below 2^40.
    fn config() -> VisitedConfig {
        VisitedConfig { max_key: 1 << 40, ..VisitedConfig::default() }
    }

    /// Runs `successors` from key 0 on `workers` workers and checks that
    /// every key below `n` is stored, and expanded, exactly once.
    fn closure(workers: usize, n: u128, successors: impl Fn(u128) -> Vec<u128> + Sync) {
        let mut search = Search::new(vec![Vec::new(); workers], &config());
        search.seed(0);
        search.run(|expanded: &mut Vec<u128>, key, router| {
            expanded.push(key);
            for succ in successors(key) {
                router.route(succ);
            }
        });
        assert_eq!(search.states(), n as u64, "w={workers}");
        let mut all: Vec<u128> = search.into_scratches().concat();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>(), "w={workers}");
    }

    #[test]
    fn search_reaches_the_whole_closure() {
        for workers in [1usize, 2, 3] {
            // Many levels, inline while small and threaded once they
            // pass INLINE_LEVEL: i -> i+1, 2i, 3i below 200,000.
            const N: u128 = 200_000;
            closure(workers, N, |k| [k + 1, k * 2, k * 3].into_iter().filter(|&s| s < N).collect());
            // One level of 16 · ROUND_KEYS keys, each re-routing another
            // member of the level: the level spans several threaded
            // rounds even with 12 owners, with duplicates in every
            // round's mail.
            let n = 16 * ROUND_KEYS as u128 + 1;
            closure(workers, n, |k| {
                if k == 0 {
                    (1..n).collect()
                } else {
                    vec![(k * 7) % (n - 1) + 1]
                }
            });
        }
    }

    #[test]
    fn seed_scan_covers_the_range() {
        // Ids divisible by 3 are seeds, each routing id + 1; non-seeds
        // route nothing. Seeds are counted, never stored, and the scan
        // spans several threaded rounds even with 16 owners.
        const TOTAL: u64 = 40 * ROUND_KEYS as u64;
        for workers in [1usize, 2, 4] {
            let mut search = Search::new(vec![0u64; workers], &config());
            search.scan(TOTAL, |expanded, id, router| {
                if id % 3 != 0 {
                    return false;
                }
                *expanded += 1;
                router.route(u128::from(id) + 1);
                true
            });
            search.run(|_, key, _| assert_eq!(key % 3, 1, "only non-seeds are stored"));
            assert_eq!(search.states(), 2 * TOTAL.div_ceil(3), "w={workers}");
            assert_eq!(search.into_scratches().iter().sum::<u64>(), TOTAL.div_ceil(3));
        }
    }

    #[test]
    fn owners_cover_every_worker() {
        for owners in [1usize, 2, 3, 8] {
            let mut hit = vec![0usize; owners];
            for k in 0..10_000u128 {
                hit[owner_of(hash(k << 23), owners)] += 1;
            }
            assert!(hit.iter().all(|&h| h > 10_000 / owners / 2), "{owners}: {hit:?}");
        }
    }

    #[test]
    fn find_min_violation_is_deterministic() {
        for workers in [1, 2, 8] {
            let got = find_min_violation(workers, 1_000_000, || (), |(), id| id % 7777 == 7000);
            assert_eq!(got, Some(7000));
        }
        assert_eq!(find_min_violation(4, 1_000_000, || (), |(), _| false), None);
    }
}
