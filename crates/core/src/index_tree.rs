//! The index tree (Section 3, Figure 1).
//!
//! A complete binary tree over the circuit's slot array. Each leaf holds
//! weight 1 (a live unit) or 0 (a tombstone); each internal node holds the
//! sum of its children, i.e. the number of live units in its subtree. The
//! tree supports the Algorithm 1 interface within its stated cost bounds:
//!
//! | operation       | work          | span     |
//! |-----------------|---------------|----------|
//! | `new`           | O(n)          | O(lg n)  |
//! | `before`        | O(lg n)       | O(lg n)  |
//! | `select`        | O(lg n)       | O(lg n)  |
//! | `update_leaves` | O(l·lg n)     | O(lg n)  |
//!
//! The tree is stored implicitly (1-indexed heap layout) in a flat vector of
//! `AtomicU32`s. Atomics with relaxed ordering suffice because every mutation
//! phase is separated from reads by the return of a `qexec` parallel map,
//! which provides the necessary happens-before edges; within a phase all
//! writes target disjoint nodes (leaf updates write distinct leaves; level
//! repairs write distinct parents).

use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// Minimum chunk of the cheap per-element phases (a store, a sum, a
/// clone, a root-to-leaf walk): a phase with no more elements than this
/// runs sequentially rather than paying for a cross-thread hand-off.
pub(crate) const PAR_THRESHOLD: usize = 1 << 12;

/// A fixed-capacity weighted index tree over `len` slots.
pub struct IndexTree {
    /// Heap-layout nodes; `w[1]` is the root, leaves at `cap..cap+len`.
    w: Vec<AtomicU32>,
    /// Number of leaves (next power of two ≥ `len`).
    cap: usize,
    /// Number of real slots.
    len: usize,
}

impl IndexTree {
    /// Builds the tree from initial leaf weights (0 or 1 per slot).
    /// O(n) work, O(lg n) span.
    pub fn new(weights: &[u32]) -> IndexTree {
        let len = weights.len();
        let cap = len.next_power_of_two().max(1);
        let mut w = Vec::with_capacity(2 * cap);
        w.resize_with(2 * cap, || AtomicU32::new(0));
        let tree = IndexTree { w, cap, len };
        // Fill leaves.
        qexec::par_map_range(len, PAR_THRESHOLD, |i| {
            tree.w[cap + i].store(weights[i], Relaxed)
        });
        // Build internal levels bottom-up; each level is an independent
        // parallel map over its nodes.
        let mut level_start = cap / 2;
        while level_start >= 1 {
            qexec::par_map_range(level_start, PAR_THRESHOLD, |i| {
                let node = level_start + i;
                let sum = tree.w[2 * node].load(Relaxed) + tree.w[2 * node + 1].load(Relaxed);
                tree.w[node].store(sum, Relaxed);
            });
            level_start /= 2;
        }
        tree
    }

    /// Number of slots (live + tombstoned).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the tree was built over zero slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of live (non-tombstone) units.
    #[inline]
    pub fn total(&self) -> usize {
        if self.cap == 0 {
            0
        } else {
            self.w[1].load(Relaxed) as usize
        }
    }

    /// Weight of one leaf (0 or 1).
    #[inline]
    pub fn leaf(&self, slot: usize) -> u32 {
        self.w[self.cap + slot].load(Relaxed)
    }

    /// The paper's `before`: the number of live units strictly before slot
    /// index `phys`. O(lg n) — walk the leaf-to-root path, summing left
    /// siblings' weights.
    pub fn before(&self, phys: usize) -> usize {
        debug_assert!(phys <= self.len);
        // Allow phys == len as an "end" sentinel meaning "after everything".
        if phys >= self.len {
            return self.total();
        }
        let mut node = self.cap + phys;
        let mut acc = 0usize;
        while node > 1 {
            if node & 1 == 1 {
                acc += self.w[node - 1].load(Relaxed) as usize;
            }
            node /= 2;
        }
        acc
    }

    /// The paper's `get` path: the slot index of the `rank`-th live unit
    /// (0-based, tombstones skipped), or `None` if `rank ≥ total`.
    /// O(lg n) — walk root-to-leaf guided by subtree weights.
    pub fn select(&self, rank: usize) -> Option<usize> {
        if rank >= self.total() {
            return None;
        }
        let mut node = 1usize;
        let mut rank = rank as u32;
        while node < self.cap {
            let left = self.w[2 * node].load(Relaxed);
            if rank < left {
                node *= 2;
            } else {
                rank -= left;
                node = 2 * node + 1;
            }
        }
        Some(node - self.cap)
    }

    /// Applies a batch of leaf updates `(slot, weight)` and repairs all
    /// affected internal nodes. Slots must be distinct and sorted ascending.
    /// O(l·lg n) work, O(lg n) span: leaves in one parallel phase, then one
    /// parallel phase per level over the dedup'd parent set.
    pub fn update_leaves(&self, updates: &[(usize, u32)]) {
        if updates.is_empty() {
            return;
        }
        debug_assert!(
            updates.windows(2).all(|w| w[0].0 < w[1].0),
            "update slots must be sorted and distinct"
        );
        qexec::par_map_range(updates.len(), PAR_THRESHOLD, |i| {
            let (slot, v) = updates[i];
            debug_assert!(slot < self.len);
            self.w[self.cap + slot].store(v, Relaxed);
        });

        // Repair: parent sets per level, dedup'd (sorted input keeps each
        // level's node list sorted, so dedup is a linear scan).
        let mut nodes: Vec<usize> = updates.iter().map(|&(s, _)| (self.cap + s) / 2).collect();
        nodes.dedup();
        while !nodes.is_empty() && nodes[0] >= 1 {
            qexec::par_map_range(nodes.len(), PAR_THRESHOLD, |i| {
                let node = nodes[i];
                let sum = self.w[2 * node].load(Relaxed) + self.w[2 * node + 1].load(Relaxed);
                self.w[node].store(sum, Relaxed);
            });
            if nodes[0] == 1 {
                break;
            }
            for n in &mut nodes {
                *n /= 2;
            }
            nodes.dedup();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference: a plain weight vector.
    struct Naive(Vec<u32>);

    impl Naive {
        fn before(&self, phys: usize) -> usize {
            self.0[..phys.min(self.0.len())]
                .iter()
                .map(|&w| w as usize)
                .sum()
        }
        fn select(&self, rank: usize) -> Option<usize> {
            let mut r = rank;
            for (i, &w) in self.0.iter().enumerate() {
                if w == 1 {
                    if r == 0 {
                        return Some(i);
                    }
                    r -= 1;
                }
            }
            None
        }
    }

    #[test]
    fn build_and_total() {
        let t = IndexTree::new(&[1, 1, 1, 1, 1]);
        assert_eq!(t.total(), 5);
        assert_eq!(t.len(), 5);
        let t = IndexTree::new(&[1, 0, 1, 0]);
        assert_eq!(t.total(), 2);
        let t = IndexTree::new(&[]);
        assert_eq!(t.total(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn figure_1_example() {
        // Paper Figure 1: 5 gates; removing gates at slots 1 and 3 leaves 3.
        let t = IndexTree::new(&[1, 1, 1, 1, 1]);
        // before(CNOT at slot 2) = 2 (red path example).
        assert_eq!(t.before(2), 2);
        t.update_leaves(&[(1, 0), (3, 0)]);
        assert_eq!(t.total(), 3);
        assert_eq!(t.before(2), 1);
        assert_eq!(t.select(0), Some(0));
        assert_eq!(t.select(1), Some(2));
        assert_eq!(t.select(2), Some(4));
        assert_eq!(t.select(3), None);
    }

    #[test]
    fn before_end_sentinel() {
        let t = IndexTree::new(&[1, 0, 1]);
        assert_eq!(t.before(3), 2);
        assert_eq!(t.before(2), 1);
        assert_eq!(t.before(0), 0);
    }

    #[test]
    fn matches_naive_under_random_updates() {
        let n = 257; // force a ragged last level
        let mut weights = vec![1u32; n];
        let t = IndexTree::new(&weights);
        let mut seed = 0xDEADBEEFu64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _round in 0..50 {
            // Random batch of distinct sorted updates.
            let mut ups: Vec<(usize, u32)> = (0..8)
                .map(|_| ((rng() as usize) % n, (rng() % 2) as u32))
                .collect();
            ups.sort();
            ups.dedup_by_key(|u| u.0);
            t.update_leaves(&ups);
            for &(s, v) in &ups {
                weights[s] = v;
            }
            let naive = Naive(weights.clone());
            assert_eq!(
                t.total(),
                naive.0.iter().map(|&w| w as usize).sum::<usize>()
            );
            for probe in [0usize, 1, n / 3, n / 2, n - 1, n] {
                assert_eq!(t.before(probe), naive.before(probe), "before({probe})");
            }
            for rank in [0usize, 1, 5, t.total().saturating_sub(1), t.total()] {
                assert_eq!(t.select(rank), naive.select(rank), "select({rank})");
            }
        }
    }

    #[test]
    fn select_before_are_inverse() {
        let t = IndexTree::new(&[1, 0, 0, 1, 1, 0, 1, 1]);
        for rank in 0..t.total() {
            let phys = t.select(rank).unwrap();
            assert_eq!(t.before(phys), rank);
            assert_eq!(t.leaf(phys), 1);
        }
    }

    #[test]
    fn large_parallel_build() {
        let n = 1 << 15;
        let weights: Vec<u32> = (0..n).map(|i| (i % 3 != 0) as u32).collect();
        let t = IndexTree::new(&weights);
        let expect: usize = weights.iter().map(|&w| w as usize).sum();
        assert_eq!(t.total(), expect);
        assert_eq!(t.before(n), expect);
        // Spot-check select against arithmetic: live slots are those with
        // i % 3 != 0.
        let live: Vec<usize> = (0..n).filter(|i| i % 3 != 0).collect();
        for &r in &[0usize, 1, 100, expect / 2, expect - 1] {
            assert_eq!(t.select(r), Some(live[r]));
        }
    }
}
