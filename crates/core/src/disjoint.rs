//! Disjoint parallel writes into a slice.
//!
//! `optimizeSegments` substitutes many index/unit pairs into the slot array
//! in one parallel phase. Lemma 5 guarantees the touched segments are
//! disjoint, so the writes never alias — but Rust's `&mut` discipline cannot
//! express "disjoint at runtime by algorithmic invariant". Following the
//! standard practice for invariant-carrying unsafe code (encapsulate the
//! invariant behind a tiny, heavily-asserted API), this module provides a
//! shared-reference writer whose single `unsafe` method documents exactly
//! what the caller must uphold.

use std::cell::UnsafeCell;
use std::marker::PhantomData;

/// A write-only view of `&mut [T]` that permits concurrent writes to
/// *distinct* indices from multiple threads.
pub struct DisjointWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a UnsafeCell<[T]>>,
}

// SAFETY: sharing the writer across threads is sound because the only
// mutation path is `write`, whose contract requires globally distinct
// indices; distinct indices touch non-overlapping memory.
unsafe impl<T: Send> Sync for DisjointWriter<'_, T> {}
unsafe impl<T: Send> Send for DisjointWriter<'_, T> {}

impl<'a, T> DisjointWriter<'a, T> {
    /// Wraps a mutable slice. The borrow keeps the slice exclusively ours
    /// for the writer's lifetime.
    pub fn new(slice: &'a mut [T]) -> DisjointWriter<'a, T> {
        DisjointWriter {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Assigns `value` to the element at `index`, dropping the element it
    /// replaces (on the calling thread).
    ///
    /// # Safety
    ///
    /// Across the writer's entire lifetime, no two calls (from any threads)
    /// may use the same `index`, and nothing else may read or write the
    /// underlying slice concurrently. Bounds are checked in all builds.
    pub unsafe fn write(&self, index: usize, value: T) {
        assert!(index < self.len, "DisjointWriter index out of bounds");
        // SAFETY: in-bounds by the assert, and the slice came from a
        // `&mut [T]`, so the element is initialised and may be dropped;
        // exclusive by the caller contract.
        unsafe { *self.ptr.add(index) = value };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_disjoint_writes_land() {
        let mut v = vec![0u64; 10_000];
        {
            let w = DisjointWriter::new(&mut v);
            qexec::with_width(4, || {
                qexec::par_map_range(10_000, 1, |i| {
                    // SAFETY: indices are unique by construction.
                    unsafe { w.write(i, i as u64 * 3) };
                })
            });
        }
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_checked() {
        let mut v = vec![0u8; 4];
        let w = DisjointWriter::new(&mut v);
        unsafe { w.write(4, 1) };
    }
}
