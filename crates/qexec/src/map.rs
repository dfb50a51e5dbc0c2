//! The two typed forms of the flat parallel map. Both hand
//! [`pool::run_op`](crate::pool::run_op) a chunk closure that reads and
//! writes caller buffers through raw pointers, under the one invariant of
//! the pool's module docs: the submitter does not return until it has
//! read `settled == chunks` under the op's mutex, and a helper touches
//! submitter-frame memory only inside a chunk it claimed.

use crate::pool::{chunk_len, current_width, run_op};
use std::ops::Range;

/// The base of a caller-owned buffer whose elements chunk closures access
/// at the indices of the chunk they claimed, and nowhere else.
struct Elements<T>(*mut T);

// SAFETY: chunks partition the index range, so no element is reached from
// two threads; what crosses threads is the `T` values themselves, hence
// `T: Send`. The buffer outlives every access by the one invariant: its
// owner is the submitter, which does not return until it has read
// `settled == chunks` under the op's mutex.
unsafe impl<T: Send> Sync for Elements<T> {}

impl<T> Elements<T> {
    /// Pointer to element `i`. A method, so that closures capture the
    /// whole (`Sync`) wrapper rather than its raw-pointer field.
    fn at(&self, i: usize) -> *mut T {
        self.0.wrapping_add(i)
    }
}

/// Applies `f` to every index in `0..n` in parallel and returns the
/// results in index order.
///
/// The range is cut into chunks of `n.div_ceil(8·width)` indices — about
/// eight per worker of the calling thread's [`current_width`], so skewed
/// per-index costs rebalance — but never fewer than `min_chunk`: the call
/// site's statement of how many indices are worth a cross-thread hand-off
/// (`1` when every index is an oracle call, thousands when it is a store).
/// The caller and up to `width − 1` pool workers claim chunks from one
/// shared cursor until none are left. With a single chunk, or at width 1,
/// the whole map runs inline on the calling thread with no pool
/// interaction.
///
/// Results land at their index, so the output is identical to
/// `(0..n).map(f).collect()` for every width and schedule. If `f` panics
/// the other chunks still settle, then the panic is re-raised here with
/// its original payload; results already produced are leaked, not
/// dropped, and the pool stays fully operational.
pub fn par_map_range<R, F>(n: usize, min_chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let width = current_width();
    let chunk = chunk_len(n, width, min_chunk);
    if width <= 1 || chunk >= n {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<R> = Vec::with_capacity(n);
    let dst = Elements(out.as_mut_ptr());
    run_op(n, chunk, width, &|range: Range<usize>| {
        for i in range {
            // SAFETY: `i < n` lies in the chunk this thread claimed, so
            // nobody else writes slot `i` of `out`'s `n`-slot allocation,
            // and `out` is alive: it belongs to the submitter, which does
            // not return until it has read `settled == chunks` under the
            // op's mutex.
            unsafe { dst.at(i).write(f(i)) };
        }
    });
    // SAFETY: `run_op` returned without unwinding, so every chunk of
    // `0..n` settled without a panic, i.e. each of the first `n` slots
    // was written exactly once — and the submitter read `settled ==
    // chunks` under the op's mutex, which orders those writes before
    // this.
    unsafe { out.set_len(n) };
    out
}

/// Applies `f` to every item in parallel, preserving order:
/// [`par_map_range`] at `min_chunk` 1 over the items' indices, each item
/// moved into the call that consumes it.
///
/// If `f` panics, items not yet consumed are leaked, not dropped.
pub fn par_map_vec<T, R, F>(mut items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let src = Elements(items.as_mut_ptr());
    // SAFETY: 0 ≤ capacity, and no element is dropped by shortening: from
    // here on `items` owns only the allocation, and each of the `n`
    // values in it is moved out exactly once below (or leaked).
    unsafe { items.set_len(0) };
    par_map_range(n, 1, |i| {
        // SAFETY: `par_map_range` calls this once per index `i < n`, from
        // the thread that claimed `i`'s chunk, so slot `i` still holds
        // its initialized value and nobody else reads it; `items` (the
        // allocation) is alive because it belongs to the submitter, which
        // does not return until it has read `settled == chunks` under the
        // op's mutex.
        f(unsafe { src.at(i).read() })
    })
}
