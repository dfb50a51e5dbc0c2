//! The sparse circuit: tombstoned slot array + index tree (Algorithm 1).
//!
//! Gates (or layers, in the Section 7.8 mode) live in a fixed slot array;
//! removing a unit replaces it with a tombstone (`None`). The paired
//! [`IndexTree`] locates live units by logical rank in O(lg n), which is what
//! keeps segment extraction cheap as tombstones accumulate.

use crate::disjoint::DisjointWriter;
use crate::index_tree::{IndexTree, PAR_THRESHOLD};

/// A substitution entry: put `unit` (or a tombstone) at slot `slot`.
pub type Update<U> = (usize, Option<U>);

/// The paper's circuit data structure, generic over the unit type
/// (`qcir::Gate` for gate granularity, `qcir::Layer` for layer granularity).
pub struct SparseCircuit<U> {
    slots: Vec<Option<U>>,
    tree: IndexTree,
}

impl<U: Clone + Send + Sync> SparseCircuit<U> {
    /// `create` (Algorithm 1): builds the slot array and its index tree.
    /// O(n) work, O(lg n) span.
    pub fn create(units: Vec<U>) -> SparseCircuit<U> {
        let tree = IndexTree::full(units.len());
        SparseCircuit {
            slots: units.into_iter().map(Some).collect(),
            tree,
        }
    }

    /// Number of slots (live + tombstones).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of live units.
    #[inline]
    pub fn len(&self) -> usize {
        self.tree.total()
    }

    /// `true` iff no live units remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `before` (Algorithm 1): live units strictly before slot `phys`.
    /// `phys == num_slots()` acts as an end sentinel. O(lg n).
    #[inline]
    pub fn before(&self, phys: usize) -> usize {
        self.tree.before(phys)
    }

    /// Slot index of the `rank`-th live unit, or `None` past the end.
    /// This is the root-to-leaf walk backing the paper's `get`. O(lg n).
    #[inline]
    pub fn select(&self, rank: usize) -> Option<usize> {
        self.tree.select(rank)
    }

    /// Appends the slot indices of live units `rank .. rank + len` to
    /// `out`, stopping at the last live unit: `len` consecutive `select`s
    /// for one descent plus a leaf-level walk
    /// ([`IndexTree::select_run`]). O(lg n + len + gaps·lg n).
    #[inline]
    pub fn select_run(&self, rank: usize, len: usize, out: &mut Vec<usize>) {
        self.tree.select_run(rank, len, out)
    }

    /// `get` (Algorithm 1): the `rank`-th live unit, skipping tombstones.
    /// O(lg n).
    pub fn get(&self, rank: usize) -> Option<&U> {
        let slot = self.tree.select(rank)?;
        self.slots[slot].as_ref()
    }

    /// Direct slot access (may be a tombstone).
    #[inline]
    pub fn slot(&self, phys: usize) -> Option<&U> {
        self.slots[phys].as_ref()
    }

    /// `substitute` (Algorithm 1): applies a batch of slot updates and
    /// repairs the index tree. Slots must be distinct and sorted ascending —
    /// guaranteed by the engine because selected fingers are non-interfering
    /// (Lemma 5) — and the batch is checked in every build, because the
    /// parallel write below is only sound for distinct slots.
    /// O(l·lg n) work, O(lg n) span.
    pub fn substitute(&mut self, updates: Vec<Update<U>>) {
        if updates.is_empty() {
            return;
        }
        assert!(
            updates.windows(2).all(|w| w[0].0 < w[1].0),
            "substitute slots must be sorted and distinct"
        );
        let leaf_updates: Vec<(usize, u32)> = updates
            .iter()
            .map(|(s, u)| (*s, u.is_some() as u32))
            .collect();
        {
            let writer = DisjointWriter::new(&mut self.slots);
            qexec::par_map_range(updates.len(), PAR_THRESHOLD, |i| {
                let (slot, unit) = &updates[i];
                // SAFETY: slots are distinct (the `assert!` above, kept in
                // release builds) and the writer exclusively borrows
                // `self.slots`.
                unsafe { writer.write(*slot, unit.clone()) };
            });
        }
        self.tree.update_leaves(&leaf_updates);
    }

    /// `gates` (Algorithm 1): the live units in order, tombstones dropped.
    /// O(n) work, O(lg n) span (parallel filter-collect).
    pub fn to_units(&self) -> Vec<U> {
        if self.collects_in_parallel() {
            qexec::par_map_range(self.slots.len(), PAR_THRESHOLD, |i| self.slots[i].clone())
                .into_iter()
                .flatten()
                .collect()
        } else {
            self.slots.iter().filter_map(|s| s.clone()).collect()
        }
    }

    /// [`to_units`](Self::to_units) for a circuit that is done with: the
    /// sequential arm compacts the slot array in place instead of cloning
    /// every live unit into a second O(n) buffer.
    pub fn into_units(self) -> Vec<U> {
        if self.collects_in_parallel() {
            return self.to_units();
        }
        // Not `.flatten()`: only `filter_map` over `vec::IntoIter` collects
        // into the source allocation.
        #[allow(clippy::filter_map_identity)]
        self.slots.into_iter().filter_map(|s| s).collect()
    }

    fn collects_in_parallel(&self) -> bool {
        self.slots.len() > PAR_THRESHOLD && qexec::current_width() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::Arc;

    #[test]
    fn create_get_before() {
        let c = SparseCircuit::create(vec!['a', 'b', 'c', 'd', 'e']);
        assert_eq!(c.len(), 5);
        assert_eq!(c.get(0), Some(&'a'));
        assert_eq!(c.get(4), Some(&'e'));
        assert_eq!(c.get(5), None);
        assert_eq!(c.before(3), 3);
    }

    #[test]
    fn substitute_with_tombstones() {
        let mut c = SparseCircuit::create(vec![10, 20, 30, 40, 50]);
        c.substitute(vec![(1, None), (3, Some(99))]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.to_units(), vec![10, 30, 99, 50]);
        assert_eq!(c.get(1), Some(&30));
        assert_eq!(c.get(2), Some(&99));
        // before skips the tombstone at slot 1.
        assert_eq!(c.before(3), 2);
        assert_eq!(c.select(2), Some(3));
        let mut phys = Vec::new();
        c.select_run(0, 3, &mut phys);
        assert_eq!(phys, vec![0, 2, 3]);
        assert_eq!(c.into_units(), vec![10, 30, 99, 50]);
    }

    #[test]
    fn repeated_substitutions_drain_circuit() {
        let mut c = SparseCircuit::create((0..100).collect::<Vec<i32>>());
        for i in 0..100 {
            c.substitute(vec![(i, None)]);
            assert_eq!(c.len(), 99 - i);
        }
        assert!(c.is_empty());
        assert!(c.to_units().is_empty());
        assert_eq!(c.select(0), None);
    }

    #[test]
    fn large_parallel_substitute() {
        let n = 1 << 14;
        let mut c = SparseCircuit::create((0..n as u64).collect::<Vec<u64>>());
        // Tombstone every even slot in one batch.
        let ups: Vec<Update<u64>> = (0..n).step_by(2).map(|i| (i, None)).collect();
        c.substitute(ups);
        assert_eq!(c.len(), n / 2);
        let units = c.to_units();
        assert_eq!(units.len(), n / 2);
        assert!(units
            .iter()
            .enumerate()
            .all(|(k, &v)| v == 2 * k as u64 + 1));
    }

    /// A unit that counts its drops.
    #[derive(Clone)]
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Relaxed);
        }
    }

    #[test]
    fn substitute_drops_the_units_it_replaces() {
        let drops = Arc::new(AtomicUsize::new(0));
        let unit = || Counted(drops.clone());
        let mut c = SparseCircuit::create((0..10).map(|_| unit()).collect());
        c.substitute(vec![(1, None), (3, Some(unit())), (5, None)]);
        // The three replaced units, and the batch's own unit (its clone
        // is what went into slot 3).
        assert_eq!(drops.load(Relaxed), 4);
        drop(c);
        // Eight live units were left: 12 made, 12 dropped.
        assert_eq!(drops.load(Relaxed), 12);
    }

    #[test]
    #[should_panic(expected = "sorted and distinct")]
    fn substitute_rejects_a_repeated_slot_in_release_too() {
        let mut c = SparseCircuit::create(vec![1, 2, 3]);
        c.substitute(vec![(1, Some(7)), (1, Some(8))]);
    }

    #[test]
    fn end_sentinel_before() {
        let mut c = SparseCircuit::create(vec![1, 2, 3]);
        c.substitute(vec![(2, None)]);
        assert_eq!(c.before(3), 2);
    }
}
