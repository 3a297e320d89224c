//! Scoped parallelism over `std::thread::scope`.
//!
//! Replaces `crossbeam::thread::scope`: since Rust 1.63 the standard library
//! provides scoped threads that may borrow from the enclosing stack, which is
//! all the workspace ever used crossbeam for. The helpers here encode the one
//! pattern the embarrassingly-parallel analytics need — shard a slice, run a
//! closure per shard, collect the partial results in shard order.

use std::num::NonZeroUsize;
use std::ops::Range;

/// A sensible worker count: the machine's parallelism, or 4 if unknown.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(4)
}

/// The worker count requested through the `KGM_THREADS` environment
/// variable, falling back to [`default_threads`] when unset. This is the
/// one knob every parallel consumer (the chase engine, the paper harness)
/// reads, so `KGM_THREADS=1 …` forces any pipeline sequential. A malformed
/// or zero value is reported loudly (stderr + `config.env.invalid`
/// counter, see [`crate::env`]) before the fallback applies.
pub fn threads_from_env() -> usize {
    match crate::env::parsed::<usize>("KGM_THREADS", "a worker count >= 1") {
        Some(0) => {
            crate::env::invalid("KGM_THREADS", "0", "a worker count >= 1");
            default_threads()
        }
        Some(n) => n,
        None => default_threads(),
    }
}

/// Split an index range into at most `parts` contiguous sub-ranges of
/// near-equal length, in order. The concatenation of the result is exactly
/// `range`; an empty range yields no parts. This is the sharding schedule
/// [`map_shards`] applies to slices, exposed for callers that shard *index
/// spaces* (e.g. a delta range of a relation) instead of materialized
/// slices.
pub fn split_range(range: Range<usize>, parts: usize) -> Vec<Range<usize>> {
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.max(1).min(len);
    let chunk = len.div_ceil(parts);
    let mut out = Vec::with_capacity(parts);
    let mut start = range.start;
    while start < range.end {
        let end = (start + chunk).min(range.end);
        out.push(start..end);
        start = end;
    }
    out
}

/// Split `items` into at most `threads` contiguous shards and run `f` on
/// each shard in its own scoped thread. Results come back in shard order, so
/// the output is deterministic regardless of scheduling.
///
/// Degenerate inputs are handled without spawning: an empty slice returns an
/// empty vector, and `threads <= 1` (or a single shard) runs inline.
///
/// # Panics
/// Propagates the first worker panic, like `crossbeam::thread::scope`.
pub fn map_shards<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.max(1).min(items.len());
    let chunk = items.len().div_ceil(threads);
    if threads == 1 {
        return vec![f(items)];
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|shard| scope.spawn(move || f(shard)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel shard worker panicked"))
            .collect()
    })
}

/// Parallel map over owned items: `f` runs on each element, sharded across
/// `threads` scoped workers; the output preserves input order.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_shards(items, threads, |shard| {
        shard.iter().map(&f).collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_or_zero_kgm_threads_warns_and_falls_back() {
        let _serial = crate::env::INVALID_COUNTER.lock();
        // One test owns the KGM_THREADS mutations (env vars are
        // process-global; concurrent tests must not race on this key).
        let count = || {
            crate::telemetry::snapshot()
                .counters
                .get("config.env.invalid")
                .copied()
                .unwrap_or(0)
        };
        std::env::set_var("KGM_THREADS", "four");
        let before = count();
        assert_eq!(threads_from_env(), default_threads());
        assert_eq!(count(), before + 1, "malformed value must be reported");
        std::env::set_var("KGM_THREADS", "0");
        assert_eq!(threads_from_env(), default_threads());
        assert_eq!(count(), before + 2, "zero is invalid, not 'default'");
        std::env::set_var("KGM_THREADS", "3");
        assert_eq!(threads_from_env(), 3);
        assert_eq!(count(), before + 2);
        std::env::remove_var("KGM_THREADS");
    }

    #[test]
    fn shards_cover_all_items_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8, 999, 5000] {
            let sums = map_shards(&items, threads, |shard| shard.iter().sum::<u64>());
            assert_eq!(sums.iter().sum::<u64>(), 499_500, "threads={threads}");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<i32> = (0..257).collect();
        let doubled = par_map(&items, 7, |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let out: Vec<u32> = map_shards(&Vec::<u8>::new(), 8, |_| 1u32);
        assert!(out.is_empty());
    }

    #[test]
    fn workers_can_borrow_the_environment() {
        let big = vec![1u64; 10_000];
        let borrowed = &big;
        let counts = map_shards(&[0, 1, 2, 3], 4, |shard| {
            shard.len() + borrowed.len() // borrow proves scoping works
        });
        assert_eq!(counts, vec![10_001; 4]);
    }

    #[test]
    #[should_panic(expected = "shard worker panicked")]
    fn worker_panic_propagates() {
        map_shards(&[1, 2, 3, 4], 4, |shard| {
            if shard[0] == 3 {
                panic!("boom");
            }
            shard[0]
        });
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn split_range_covers_exactly_and_in_order() {
        for (range, parts) in [
            (0..10, 3),
            (5..6, 4),
            (0..0, 8),
            (7..107, 1),
            (3..1000, 16),
            (0..4, 100),
        ] {
            let shards = split_range(range.clone(), parts);
            let flat: Vec<usize> = shards.iter().flat_map(|r| r.clone()).collect();
            let expect: Vec<usize> = range.clone().collect();
            assert_eq!(flat, expect, "range={range:?} parts={parts}");
            assert!(shards.len() <= parts.max(1));
            assert!(shards.iter().all(|r| !r.is_empty()));
        }
    }

    #[test]
    fn split_range_matches_map_shards_schedule() {
        // Sharding indices and sharding the slice must agree, so a range
        // worker sees exactly the tuples a slice worker would.
        let items: Vec<usize> = (0..97).collect();
        for parts in [1, 2, 5, 13] {
            let by_slice = map_shards(&items, parts, |shard| shard.to_vec());
            let by_range: Vec<Vec<usize>> = split_range(0..items.len(), parts)
                .into_iter()
                .map(|r| items[r].to_vec())
                .collect();
            assert_eq!(by_slice, by_range, "parts={parts}");
        }
    }
}
