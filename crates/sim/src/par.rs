//! Dependency-free parallel execution for the experiment harness.
//!
//! A tiny scoped-thread work pool with **deterministic, input-ordered
//! result collection**: workers claim items from a shared atomic cursor
//! (so load-balancing is dynamic), but results are delivered to the
//! caller strictly in input order. The contract every caller relies on:
//!
//! > For a pure per-item function `f`, the observable output of
//! > [`par_map`] / [`for_each_ordered`] is **bit-identical** for any
//! > worker count, including 1.
//!
//! Worker count resolution (see [`resolve_jobs`]): an explicit request
//! (e.g. a `--jobs N` flag) wins, then
//! [`std::thread::available_parallelism`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Resolves a worker count: `requested` (a CLI `--jobs N`) wins, then the
/// host's available parallelism. The result is always at least 1.
#[must_use]
pub fn resolve_jobs(requested: Option<usize>) -> usize {
    let n = requested.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    n.max(1)
}

/// Applies `f` to every item on up to `jobs` worker threads and returns
/// the results **in input order**.
///
/// `f` receives `(index, &item)`; the index is the item's position in
/// `items`, which callers typically fold into a per-item RNG seed so
/// results do not depend on which worker ran which item.
///
/// # Examples
///
/// ```
/// use switchless_sim::par::par_map;
///
/// let squares = par_map(4, &[1u64, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
///
/// # Panics
///
/// Propagates a panic from any worker thread.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for_each_ordered(jobs, items, f, |_, r| out.push(r));
    out
}

/// Like [`par_map`], but streams each result to `sink` on the calling
/// thread, strictly in input order, as soon as its ordered prefix is
/// complete.
///
/// This is what lets a parallel harness print experiment output in
/// registry order while later experiments are still running: `sink(i, r)`
/// is called for `i = 0, 1, 2, ...` with no gaps, on the caller's thread.
///
/// With `jobs <= 1` (or fewer than two items) everything runs inline on
/// the calling thread with no threads spawned; the outputs are identical.
///
/// # Panics
///
/// Propagates a panic from any worker thread.
pub fn for_each_ordered<T, R, F, S>(jobs: usize, items: &[T], f: F, mut sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    S: FnMut(usize, R),
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        for (i, item) in items.iter().enumerate() {
            sink(i, f(i, item));
        }
        return;
    }
    let workers = jobs.min(n);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // A send can only fail if the receiver is gone, which
                // only happens when another worker panicked; stop too.
                if tx.send((i, f(i, &items[i]))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut pending: BTreeMap<usize, R> = BTreeMap::new();
        let mut next = 0usize;
        while next < n {
            let (i, r) = rx
                .recv()
                .expect("worker thread died before finishing its items");
            pending.insert(i, r);
            while let Some(r) = pending.remove(&next) {
                sink(next, r);
                next += 1;
            }
        }
    });
}

/// Like [`par_map`], but each worker takes **ownership** of its item —
/// for per-item state that is `Send` but not `Sync`, or that `f` must
/// consume (e.g. a shard worker consuming its per-core staging state).
/// Each item waits in its own slot until the worker that claims its
/// index takes it. Results are returned in input order; with `jobs <= 1`
/// (or fewer than two items) everything runs inline with no threads
/// spawned.
///
/// # Panics
///
/// Propagates a panic from any worker thread.
pub fn par_map_owned<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    par_map(jobs, &slots, |i, slot| {
        let item = slot.lock().expect("item slot poisoned").take();
        f(i, item.expect("each item is claimed once"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let seq = par_map(1, &items, |i, &x| x * 3 + i as u64);
        for jobs in [2, 4, 7, 128] {
            assert_eq!(par_map(jobs, &items, |i, &x| x * 3 + i as u64), seq);
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: [u8; 0] = [];
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[9u8], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn for_each_ordered_sink_sees_contiguous_indices() {
        let items: Vec<usize> = (0..50).collect();
        let mut seen = Vec::new();
        for_each_ordered(8, &items, |i, &x| i + x, |i, r| seen.push((i, r)));
        let expect: Vec<(usize, usize)> = (0..50).map(|i| (i, 2 * i)).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn resolve_jobs_explicit_request_wins_and_is_positive() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert_eq!(resolve_jobs(Some(0)), 1);
        assert!(resolve_jobs(None) >= 1);
    }

    #[test]
    fn par_map_owned_matches_serial_for_any_worker_count() {
        // Items are owned (and not Copy) to exercise the move path.
        let mk = || -> Vec<String> { (0..40).map(|i| format!("item-{i}")).collect() };
        let seq = par_map_owned(1, mk(), |i, s| format!("{s}/{i}"));
        for jobs in [2, 4, 9, 64] {
            assert_eq!(par_map_owned(jobs, mk(), |i, s| format!("{s}/{i}")), seq);
        }
        assert!(par_map_owned(4, Vec::<String>::new(), |_, s| s).is_empty());
    }

    #[test]
    fn uneven_work_still_collects_in_order() {
        // Make early items the slowest so out-of-order completion is likely.
        let items: Vec<u64> = (0..16).collect();
        let out = par_map(8, &items, |_, &x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(out, items);
    }
}
