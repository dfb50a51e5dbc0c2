//! # popqc-exec — the flat parallel map behind every parallel hot path
//!
//! The paper's only parallel primitive is a flat `parmap` over a round's
//! selected fingers, plus flat loops over tree levels and slots
//! (Algorithm 3). This crate is exactly that and nothing more: one
//! order-preserving map over an index range, run by the calling thread
//! and a persistent pool of helpers.
//!
//! * **one map, two spellings** — [`par_map_range`]`(n, min_chunk, f)`
//!   maps `f` over `0..n`; [`par_map_vec`]`(items, f)` is the same thing
//!   over owned items. Neither nests a scheduler inside: no `join`, no
//!   task graph, no detached tasks;
//! * **claim-by-index chunks** — an operation at width `w` is cut into
//!   about `8·w` chunks (never smaller than the call site's `min_chunk`)
//!   and every participant claims the next unclaimed chunk from one
//!   atomic cursor, so when one `search`-oracle call costs orders of
//!   magnitude more than its neighbours the remaining chunks flow to
//!   whoever is free instead of queueing behind it;
//! * **a persistent global worker pool** — created lazily on the first
//!   parallel operation, sized by the documented precedence
//!   `POPQC_NUM_THREADS` > installed width > available parallelism
//!   ([`resolve_threads`]), and grown (never shrunk) toward the widest
//!   parallelism requested, so no call site ever spawns per-call OS
//!   threads;
//! * **nothing shared lives on a stack** — each operation's cursor,
//!   completion count and condvar sit in one heap record that helpers
//!   co-own; the submitter returns only after reading "all chunks
//!   settled" under that record's mutex (the invariant every `unsafe`
//!   block here cites);
//! * **panic capture** — a panic in any chunk, on any thread, is
//!   re-raised on the submitter with its original payload once the other
//!   chunks have settled, and leaves the pool fully operational;
//! * **observability** — [`stats`] snapshots the executor's counters
//!   ([`ExecStats`]), surfaced end to end through `ServiceStats` and
//!   `GET /v1/stats`.
//!
//! Results are deterministic: each result is written at its item's index,
//! so output is bit-identical to sequential execution for every width and
//! schedule. [`with_width`] scopes the width of everything a closure
//! runs, nested operations included.

#![deny(missing_docs)]

mod map;
mod metrics;
mod pool;

pub use map::{par_map_range, par_map_vec};
pub use metrics::describe_metrics;
pub use pool::{current_width, reserve_workers, resolve_threads, with_width};

/// A point-in-time snapshot of the executor's process-wide counters.
///
/// All counters are monotonic over the **process lifetime** — the pool is
/// global and persistent, so a snapshot taken after two jobs holds the
/// cumulative totals of both, never per-job figures. To attribute work to
/// one interval (a job, a request, a benchmark pass), take a snapshot
/// before and after and diff them with
/// [`delta_since`](ExecStats::delta_since); rates come from the same
/// differencing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Worker threads spawned so far (0 until the first parallel
    /// operation; grows toward the widest parallelism requested).
    pub workers: u64,
    /// Always 0: chunk sizes are derived per operation and there is no
    /// grain setting. Kept for v1 wire compatibility.
    pub grain: u64,
    /// Parallel maps that actually went parallel (sequential fast paths
    /// are not counted).
    pub parallel_ops: u64,
    /// Chunks executed, by the submitter or a pool worker.
    pub tasks_executed: u64,
    /// Cut points: for every parallel map, the chunks beyond the first
    /// it was cut into.
    pub splits: u64,
    /// Chunks a pool worker claimed and ran instead of the submitter.
    pub steals: u64,
}

impl ExecStats {
    /// The work done since `baseline` (an earlier [`snapshot`]): the four
    /// monotonic counters are differenced (saturating, so snapshots
    /// passed in the wrong order read as zero instead of wrapping), while
    /// `workers` and `grain` — instantaneous configuration, not work —
    /// carry over from `self`, the later snapshot.
    pub fn delta_since(&self, baseline: &ExecStats) -> ExecStats {
        ExecStats {
            workers: self.workers,
            grain: self.grain,
            parallel_ops: self.parallel_ops.saturating_sub(baseline.parallel_ops),
            tasks_executed: self.tasks_executed.saturating_sub(baseline.tasks_executed),
            splits: self.splits.saturating_sub(baseline.splits),
            steals: self.steals.saturating_sub(baseline.steals),
        }
    }
}

/// Snapshots the executor counters. Never forces the pool (or its worker
/// threads) into existence: before the first parallel operation every
/// counter is zero.
pub fn stats() -> ExecStats {
    use std::sync::atomic::Ordering::Relaxed;
    match pool::global_if_started() {
        None => ExecStats::default(),
        Some(pool) => ExecStats {
            workers: pool.started_workers() as u64,
            grain: 0,
            parallel_ops: pool.parallel_ops.load(Relaxed),
            tasks_executed: pool.tasks_executed.load(Relaxed),
            splits: pool.splits.load(Relaxed),
            steals: pool.steals.load(Relaxed),
        },
    }
}

/// Alias for [`stats`], named for how it should be used: as one end of a
/// [`ExecStats::delta_since`] pair bounding the interval of interest.
pub fn snapshot() -> ExecStats {
    stats()
}

#[cfg(test)]
mod stats_tests {
    use super::*;

    #[test]
    fn delta_since_diffs_counters_and_keeps_gauges() {
        let before = ExecStats {
            workers: 4,
            grain: 0,
            parallel_ops: 10,
            tasks_executed: 100,
            splits: 50,
            steals: 7,
        };
        let after = ExecStats {
            workers: 8, // pool grew between the snapshots
            grain: 16,
            parallel_ops: 12,
            tasks_executed: 180,
            splits: 90,
            steals: 9,
        };
        let delta = after.delta_since(&before);
        assert_eq!(
            delta,
            ExecStats {
                workers: 8,
                grain: 16,
                parallel_ops: 2,
                tasks_executed: 80,
                splits: 40,
                steals: 2,
            }
        );
        // Reversed arguments saturate to zero work, not wrap-around.
        let reversed = before.delta_since(&after);
        assert_eq!(reversed.tasks_executed, 0);
        assert_eq!(reversed.parallel_ops, 0);
    }

    #[test]
    fn snapshot_is_stats() {
        // Both entry points read the same cells; the counters are
        // monotonic so a later snapshot can only be >=.
        let a = snapshot();
        let b = stats();
        assert!(b.tasks_executed >= a.tasks_executed);
        assert_eq!(a.grain, b.grain);
    }
}

/// How the call-site idioms spell on the two map forms.
#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..10_000u64).collect();
        let doubled = with_width(4, || par_map_range(v.len(), 1, |i| v[i] * 2));
        assert!(doubled.iter().enumerate().all(|(i, &x)| x == 2 * i as u64));
    }

    #[test]
    fn chunks_mut_and_install() {
        // `POPQC_NUM_THREADS` deliberately outranks an installed width.
        if std::env::var_os("POPQC_NUM_THREADS").is_none() {
            assert_eq!(with_width(3, current_width), 3);
        }
        // Items may borrow mutably from the caller: the simulator's
        // kernels map over `chunks_mut` blocks exactly like this.
        let mut v = vec![1u32; 4096];
        with_width(3, || {
            par_map_vec(v.chunks_mut(64).enumerate().collect(), |(i, block)| {
                block.fill(i as u32)
            })
        });
        assert_eq!(v[0], 0);
        assert_eq!(v[4095], 63);
    }

    #[test]
    fn filter_map_and_zip() {
        let a = [1u32, 2, 3, 4];
        let b = [10u32, 20, 30, 40];
        // A zip is two slices read at one index…
        let sums = with_width(2, || par_map_range(a.len(), 1, |i| a[i] + b[i]));
        assert_eq!(sums, vec![11, 22, 33, 44]);
        // …and a filter_map is a map to `Option` flattened afterwards.
        let odd: Vec<u32> = with_width(2, || {
            par_map_range(a.len(), 1, |i| (a[i] % 2 == 1).then_some(a[i]))
        })
        .into_iter()
        .flatten()
        .collect();
        assert_eq!(odd, vec![1, 3]);
    }

    /// Consecutive index-form operations reuse the same persistent pool
    /// threads: per-call spawning would mint fresh thread ids every
    /// operation, far exceeding the pool's census.
    #[test]
    fn consecutive_ops_reuse_pool_threads() {
        let seen = Mutex::new(HashSet::new());
        for _ in 0..16 {
            with_width(4, || {
                par_map_range(256, 1, |_| {
                    // Only pool workers count (by their `qexec-N` thread
                    // name): the caller runs chunks too, and its id is
                    // not the pool's.
                    let me = std::thread::current();
                    if me.name().is_some_and(|n| n.starts_with("qexec-")) {
                        seen.lock().unwrap().insert(me.id());
                    }
                })
            });
        }
        let distinct = seen.lock().unwrap().len();
        // Other tests in this process may have grown the pool beyond 4.
        let pool_threads = stats().workers as usize;
        assert!(
            distinct <= pool_threads,
            "expected ids within the {pool_threads}-thread persistent pool, \
             saw {distinct} distinct thread ids"
        );
    }
}
