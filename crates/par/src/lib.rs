//! Shared parallel-execution primitives built on std's scoped threads.
//!
//! Three consumers with different shapes of parallelism share this crate:
//!
//! * the experiment harness (`pif-bench`) fans thousands of independent
//!   simulations out over the cores with [`par_map`];
//! * the exhaustive checker (`pif-verify`) runs its range-parallel scans
//!   and the threaded rounds of its frontier searches with [`fan_out`];
//! * the wave service (`pif-serve`) runs its busy shards with
//!   [`fan_out`], so a call with one busy shard spawns nothing.
//!
//! [`par_map`] claims items through a shared atomic index (a work-stealing
//! loop) rather than pre-chunking the input, so uneven per-item costs —
//! one slow topology in a sweep, say — no longer idle whole threads: a
//! worker that finishes early simply claims the next unclaimed item.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The concurrency primitives this crate is built on, re-exported so the
/// concurrency model tests exercise the *production* claim protocol
/// rather than a copy.
///
/// A normal build aliases `std::sync`; building with `--cfg loom` (see
/// `tests/loom_model.rs` and `scripts/tier2_gate.sh`) swaps in the
/// loom-instrumented versions, which inject schedule perturbation around
/// every lock and atomic operation.
pub mod sync {
    #[cfg(loom)]
    pub use loom::sync::{atomic, Arc, Mutex};
    #[cfg(not(loom))]
    pub use std::sync::{atomic, Arc, Mutex};
}

use std::fmt;

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::Mutex;

/// Why a set `PIF_WORKERS` value could not be honored.
///
/// A benchmark or CI run that sets the override has pinned the worker
/// count *on purpose* — measurements taken under a silently ignored
/// override report the wrong engine configuration. So an invalid value
/// is a typed error ([`workers_override`]) and, on the infallible
/// [`available_workers`] path, a loud once-per-process warning rather
/// than a quiet fallback.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkersEnvError {
    /// The variable is set but is not valid Unicode.
    NotUnicode,
    /// The variable does not parse as an unsigned integer.
    NotAnInteger(String),
    /// The variable parsed, but zero workers cannot run anything.
    Zero,
}

impl fmt::Display for WorkersEnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkersEnvError::NotUnicode => {
                write!(f, "PIF_WORKERS is set but is not valid Unicode")
            }
            WorkersEnvError::NotAnInteger(v) => {
                write!(f, "PIF_WORKERS={v:?} is not an unsigned integer")
            }
            WorkersEnvError::Zero => write!(f, "PIF_WORKERS=0: at least one worker is required"),
        }
    }
}

impl std::error::Error for WorkersEnvError {}

/// The `PIF_WORKERS` override as a typed result: `Ok(None)` when unset,
/// `Ok(Some(n))` for a positive integer, and a [`WorkersEnvError`] for
/// anything else. Callers that must not run under a misread pin (the
/// benchmark harness) bail on the error; [`available_workers`] warns
/// loudly and falls back.
///
/// # Errors
///
/// Returns a [`WorkersEnvError`] when the variable is set but is not
/// valid Unicode, not an unsigned integer, or zero.
pub fn workers_override() -> Result<Option<usize>, WorkersEnvError> {
    match std::env::var("PIF_WORKERS") {
        Ok(v) => parse_workers(&v).map(Some),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(WorkersEnvError::NotUnicode),
    }
}

fn parse_workers(v: &str) -> Result<usize, WorkersEnvError> {
    match v.trim().parse::<usize>() {
        Ok(0) => Err(WorkersEnvError::Zero),
        Ok(n) => Ok(n),
        Err(_) => Err(WorkersEnvError::NotAnInteger(v.to_string())),
    }
}

/// Number of workers to use by default: the `PIF_WORKERS` environment
/// variable when set to a positive integer, otherwise the machine's
/// available parallelism (falling back to 4 when it cannot be queried).
///
/// The override exists so benchmarks and CI can pin the worker count on
/// machines whose reported parallelism differs from what the experiment
/// wants to measure (e.g. forcing a parallel engine configuration on a
/// single-core container, or vice versa). An *invalid* override is not
/// silently ignored: the first call prints the [`WorkersEnvError`] to
/// stderr (once per process) before falling back to the host
/// parallelism, so a typo'd pin cannot masquerade as a deliberate one.
pub fn available_workers() -> usize {
    match workers_override() {
        Ok(Some(n)) => n,
        Ok(None) => host_parallelism(),
        Err(e) => {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: ignoring invalid worker override ({e}); \
                     using host parallelism instead"
                );
            });
            host_parallelism()
        }
    }
}

/// The machine's available parallelism as reported by the OS (falling
/// back to 4 when it cannot be queried), ignoring any `PIF_WORKERS`
/// override. Benchmarks report this alongside the worker count actually
/// used so the two can be distinguished in the emitted JSON.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

/// Maps `f` over `items` in parallel, preserving input order in the
/// result.
///
/// Items are claimed one at a time through a shared atomic counter, so
/// workers that draw cheap items keep pulling work while a worker stuck
/// on an expensive item finishes it — no thread idles while unclaimed
/// work remains.
///
/// # Panics
///
/// Panics (propagating the worker's panic message) if `f` panics — an
/// experiment should fail loudly, not silently drop samples.
///
/// # Examples
///
/// ```
/// let squares = pif_par::par_map((0u64..100).collect(), |x| x * x);
/// assert_eq!(squares[7], 49);
/// assert_eq!(squares.len(), 100);
/// ```
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_workers(items, available_workers(), f)
}

/// [`par_map`] with an explicit worker count (clamped to at least 1 and
/// at most the item count).
pub fn par_map_workers<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);

    // Each slot is locked exactly twice (once to take the input, once to
    // store the output), so the mutexes are uncontended; they exist only
    // to share the slots across workers without `unsafe`.
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (inputs, outputs, next, f) = (&inputs, &outputs, &next, &f);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = inputs[i]
                        .lock()
                        .expect("input slot poisoned")
                        .take()
                        .expect("item claimed twice");
                    let r = f(item);
                    *outputs[i].lock().expect("output slot poisoned") = Some(r);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("experiment worker panicked");
        }
    });

    outputs
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("output slot poisoned")
                .expect("worker exited without storing a result")
        })
        .collect()
}

/// Runs `f` on every item, with the calling thread as one of the
/// workers: each item after the first gets its own scoped thread, then
/// the first runs on the caller, and the call returns once all are done.
/// With at most one item no scope is entered, so a lone item runs with
/// no spawn and no allocation.
///
/// # Panics
///
/// Propagates a panicking item's panic, with its own payload, once every
/// thread has finished.
///
/// # Examples
///
/// ```
/// let mut cells = [1u64, 2, 3];
/// pif_par::fan_out(cells.iter_mut(), |c| *c *= 10);
/// assert_eq!(cells, [10, 20, 30]);
/// ```
pub fn fan_out<I, F>(items: I, f: F)
where
    I: IntoIterator,
    I::Item: Send,
    F: Fn(I::Item) + Sync,
{
    let mut items = items.into_iter();
    let Some(first) = items.next() else { return };
    let Some(second) = items.next() else { return f(first) };
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> =
            std::iter::once(second).chain(items).map(|item| scope.spawn(move || f(item))).collect();
        f(first);
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = par_map((0..1000).collect::<Vec<i32>>(), |x| x * 2);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as i32) * 2);
        }
    }

    #[test]
    fn preserves_order_with_uneven_costs() {
        // Items late in the input are cheap, early ones expensive; the
        // work-stealing loop must still return results in input order.
        let out = par_map_workers((0..64u64).collect(), 8, |x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(par_map(vec![5], |x: i32| x + 1), vec![6]);
    }

    #[test]
    fn explicit_worker_counts() {
        for workers in [1, 2, 7, 100] {
            let out = par_map_workers((0..50).collect::<Vec<i32>>(), workers, |x| x - 1);
            assert_eq!(out.len(), 50);
            assert_eq!(out[0], -1);
            assert_eq!(out[49], 48);
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panics_propagate() {
        let _ = par_map(vec![1, 2, 3], |x: i32| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn workers_override_parses_and_rejects() {
        assert_eq!(parse_workers("3"), Ok(3));
        assert_eq!(parse_workers("  16 "), Ok(16));
        assert_eq!(parse_workers("0"), Err(WorkersEnvError::Zero));
        assert_eq!(
            parse_workers("four"),
            Err(WorkersEnvError::NotAnInteger("four".to_string()))
        );
        assert_eq!(
            parse_workers("-2"),
            Err(WorkersEnvError::NotAnInteger("-2".to_string()))
        );
        assert_eq!(parse_workers(""), Err(WorkersEnvError::NotAnInteger(String::new())));
        // The error renders the offending value so the warning names the
        // typo rather than just announcing one happened.
        assert!(parse_workers("four").unwrap_err().to_string().contains("four"));
        assert!(parse_workers("0").unwrap_err().to_string().contains("at least one"));
    }

    #[test]
    fn workers_override_reads_the_environment() {
        // This test owns PIF_WORKERS for its duration. Other tests in
        // this binary only *read* the variable (through par_map's
        // available_workers), and none of them asserts a particular
        // worker count, so the brief mutation cannot fail them.
        let saved = std::env::var_os("PIF_WORKERS");
        std::env::set_var("PIF_WORKERS", "3");
        assert_eq!(workers_override(), Ok(Some(3)));
        assert_eq!(available_workers(), 3);
        std::env::set_var("PIF_WORKERS", "0");
        assert_eq!(workers_override(), Err(WorkersEnvError::Zero));
        // The infallible path falls back to the host, never to 0.
        assert!(available_workers() >= 1);
        std::env::set_var("PIF_WORKERS", "six");
        assert_eq!(
            workers_override(),
            Err(WorkersEnvError::NotAnInteger("six".to_string()))
        );
        std::env::remove_var("PIF_WORKERS");
        assert_eq!(workers_override(), Ok(None));
        if let Some(v) = saved {
            std::env::set_var("PIF_WORKERS", v);
        }
    }

    /// The thread each item ran on, in item order.
    fn fan_out_threads(items: usize) -> Vec<std::thread::ThreadId> {
        let ran = std::sync::Mutex::new(vec![None; items]);
        fan_out(0..items, |i| {
            ran.lock().unwrap()[i] = Some(std::thread::current().id());
        });
        ran.into_inner().unwrap().into_iter().map(|t| t.expect("every item runs")).collect()
    }

    #[test]
    fn fan_out_runs_the_first_item_on_the_caller() {
        let me = std::thread::current().id();
        assert_eq!(fan_out_threads(1), vec![me]);
        for items in [2, 3, 5] {
            let threads = fan_out_threads(items);
            assert_eq!(threads[0], me, "{items} items");
            for (i, t) in threads.iter().enumerate().skip(1) {
                assert_ne!(*t, me, "item {i} of {items} ran on the caller");
                assert!(!threads[i + 1..].contains(t), "items share a thread");
            }
        }
        fan_out(std::iter::empty::<usize>(), |_| unreachable!("no items"));
    }

    #[test]
    #[should_panic(expected = "first boom")]
    fn fan_out_propagates_the_callers_panic() {
        fan_out(0..3, |i| assert_ne!(i, 0, "first boom"));
    }

    #[test]
    #[should_panic(expected = "later boom")]
    fn fan_out_propagates_a_threads_panic() {
        fan_out(0..3, |i| assert_ne!(i, 2, "later boom"));
    }
}
