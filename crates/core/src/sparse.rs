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
    /// `phys` one past the last slot acts as an end sentinel. O(lg n).
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
    /// parallel write below is only sound for distinct slots. Only the
    /// updates that turn a unit into a tombstone or back reach the tree.
    /// O(l + f·lg n) work for `f` such flips, O(lg n) span.
    pub fn substitute(&mut self, updates: Vec<Update<U>>) {
        if updates.is_empty() {
            return;
        }
        assert!(
            updates.windows(2).all(|w| w[0].0 < w[1].0),
            "substitute slots must be sorted and distinct"
        );
        let flips = self.leaf_flips(&updates);
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
        self.tree.update_leaves(&flips);
    }

    /// The leaf updates of a `substitute` batch that change a weight, so
    /// the batch built for the tree holds one entry per flip, not one per
    /// update. An accepted segment rewrites its head in place and
    /// tombstones its tail, so only the tail is here.
    fn leaf_flips(&self, updates: &[Update<U>]) -> Vec<(usize, u32)> {
        updates
            .iter()
            .map(|(slot, unit)| (*slot, unit.is_some() as u32))
            .filter(|&(slot, weight)| self.tree.leaf(slot) != weight)
            .collect()
    }

    /// `gates` (Algorithm 1): the live units in order, tombstones dropped.
    /// O(n) work and span: a sequential filter-collect, not the paper's
    /// O(lg n)-span parallel filter.
    pub fn to_units(&self) -> Vec<U> {
        self.slots.iter().filter_map(|s| s.clone()).collect()
    }

    /// [`to_units`](Self::to_units) for a circuit that is done with: it
    /// compacts the slot array in place instead of cloning every live
    /// unit into a second O(n) buffer, then gives back the capacity the
    /// tombstones held. O(n) work and span.
    pub fn into_units(self) -> Vec<U> {
        // Not `.flatten()`: only `filter_map` over `vec::IntoIter` collects
        // into the source allocation.
        #[allow(clippy::filter_map_identity)]
        let mut units: Vec<U> = self.slots.into_iter().filter_map(|s| s).collect();
        units.shrink_to_fit();
        units
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

    #[test]
    fn accepted_segment_flips_only_its_tail() {
        let mut c = SparseCircuit::create((0..1000).collect::<Vec<u32>>());
        // A segment over slots 100..500 optimized to 200 units: the head
        // is rewritten in place, the tail padded with tombstones.
        let batch: Vec<Update<u32>> = (100..300)
            .map(|s| (s, Some(s as u32 + 7)))
            .chain((300..500).map(|s| (s, None)))
            .collect();
        let flips = c.leaf_flips(&batch);
        assert_eq!(flips, (300..500).map(|s| (s, 0)).collect::<Vec<_>>());
        c.substitute(batch);
        assert_eq!(c.len(), 800);
        assert_eq!(c.get(100), Some(&107));
        assert_eq!(c.get(300), Some(&500));
    }

    #[test]
    fn into_units_returns_a_right_sized_vector() {
        let mut c = SparseCircuit::create((0..10_000).collect::<Vec<u64>>());
        c.substitute((0..10_000).step_by(3).map(|i| (i, None)).collect());
        let units = c.into_units();
        assert_eq!(units.len(), 6_666);
        assert_eq!(units.capacity(), units.len());
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
