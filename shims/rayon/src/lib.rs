//! Offline rayon-style stand-in: the minimal data-parallel surface this
//! workspace needs, built on `std::thread::scope`.
//!
//! Real rayon carries a work-stealing deque, splittable parallel
//! iterators, and a global pool. The sweeps in `fastcap-bench` need none
//! of that: every unit of work is an independent, coarse-grained closure
//! over an indexed work list, so a shared atomic cursor over `0..len`
//! plus one OS thread per job slot saturates the hardware just as well.
//! The API is kept rayon-shaped ([`current_num_threads`]) so a future
//! swap to the real crate is mechanical. It is the workspace's only
//! thread machinery: `repro --jobs N` sizes it, and a simulation itself
//! always runs on one thread (DESIGN.md §11).
//!
//! Guarantees relied on by callers:
//!
//! * **Deterministic ordering** — [`par_map_indexed`] returns results
//!   ordered by input index, never by completion order.
//! * **Panic propagation** — a panicking work item aborts the map and the
//!   panic payload resurfaces on the calling thread.
//! * **No detached threads** — all workers are scoped; the call returns
//!   only after every worker has exited.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of threads the default pool would use: the machine's available
/// parallelism (1 when it cannot be queried).
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `0..len` on up to `threads` worker threads and returns
/// the results **ordered by input index**.
///
/// `threads` is clamped to `[1, len]`; with one thread (or `len <= 1`)
/// the map runs inline on the caller with no thread machinery at all, so
/// a serial run is byte-for-byte the plain `for` loop. Work is handed
/// out through a shared atomic cursor: threads grab the next unclaimed
/// index, so long and short items balance without pre-partitioning.
///
/// # Panics
///
/// Re-raises the first observed worker panic on the calling thread.
pub fn par_map_indexed<T, F>(threads: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(len.max(1));
    if threads <= 1 {
        return (0..len).map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cursor = &cursor;
    let mut shards: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break;
                        }
                        mine.push((i, f(i)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    // Merge the per-thread shards back into input order.
    let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
    for shard in &mut shards {
        for (i, v) in shard.drain(..) {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(v);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, v)| v.unwrap_or_else(|| panic!("index {i} never produced")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        for threads in [1, 2, 4, 8] {
            let out = par_map_indexed(threads, 100, |i| {
                // Make late indices finish first so completion order and
                // input order disagree.
                std::thread::sleep(std::time::Duration::from_micros(
                    (100 - i as u64).saturating_mul(10),
                ));
                i * 3
            });
            assert_eq!(
                out,
                (0..100).map(|i| i * 3).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_map_oversubscribed_threads_clamp() {
        assert_eq!(par_map_indexed(64, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn par_map_propagates_panics() {
        let r = std::panic::catch_unwind(|| {
            par_map_indexed(4, 8, |i| {
                if i == 5 {
                    panic!("boom at 5");
                }
                i
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(current_num_threads() >= 1);
    }
}
