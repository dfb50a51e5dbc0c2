//! The index tree (Section 3, Figure 1).
//!
//! A complete binary tree over the circuit's slot array. Each leaf holds
//! weight 1 (a live unit) or 0 (a tombstone); each internal node holds the
//! sum of its children, i.e. the number of live units in its subtree. The
//! tree supports the Algorithm 1 interface within its stated cost bounds:
//!
//! | operation       | work                    | span     |
//! |-----------------|-------------------------|----------|
//! | `new`, `full`   | O(n)                    | O(lg n)  |
//! | `before`        | O(lg n)                 | O(lg n)  |
//! | `select`        | O(lg n)                 | O(lg n)  |
//! | `select_run`    | O(lg n + k + gaps·lg n) | its work |
//! | `update_leaves` | O(l·lg n)               | O(lg n)  |
//!
//! `select_run` reads `k` consecutive ranks with one descent and a walk
//! along the leaf level; `gaps` counts the tombstone stretches the run
//! crosses. It is sequential, like the per-rank `select` loop it replaces
//! inside one segment extraction (`k` = 2Ω + 1 there): a gap costs a
//! climb and a descent of the height it spans, so the worst input (a gap
//! before every unit) stays within twice that loop's k·lg n.
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
        let tree = IndexTree::zeroed(len);
        let cap = tree.cap;
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

    /// The tree [`new`](Self::new) builds over `len` weight-1 leaves,
    /// without the weight vector: node `i` of a level whose nodes span
    /// `s` leaves holds `min(s, len − i·s)`, and nodes past the last live
    /// leaf keep the zero they were allocated with.
    /// O(n) work, O(lg n) span.
    pub fn full(len: usize) -> IndexTree {
        let tree = IndexTree::zeroed(len);
        let cap = tree.cap;
        let mut level_start = cap;
        while level_start >= 1 {
            let span = cap / level_start;
            qexec::par_map_range(len.div_ceil(span), PAR_THRESHOLD, |i| {
                let sum = span.min(len - i * span) as u32;
                tree.w[level_start + i].store(sum, Relaxed);
            });
            level_start /= 2;
        }
        tree
    }

    /// The tree over `len` slots with every node zero.
    fn zeroed(len: usize) -> IndexTree {
        let cap = len.next_power_of_two().max(1);
        let mut w = Vec::with_capacity(2 * cap);
        w.resize_with(2 * cap, || AtomicU32::new(0));
        IndexTree { w, cap, len }
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

    /// Appends to `out` the slot indices of the live units of ranks
    /// `rank .. rank + len`, stopping at the last live unit: exactly what
    /// `(rank..rank + len).filter_map(|r| self.select(r))` yields. One
    /// `select` finds the first slot; every further one is the next leaf
    /// when that is live, and otherwise a climb to the first ancestor
    /// whose right sibling is non-empty followed by a descent to that
    /// sibling's leftmost live leaf. O(lg n + len + gaps·lg n).
    pub fn select_run(&self, rank: usize, len: usize, out: &mut Vec<usize>) {
        let len = len.min(self.total().saturating_sub(rank));
        if len == 0 {
            return;
        }
        let mut node = self.cap + self.select(rank).expect("rank < total");
        out.reserve(len);
        out.push(node - self.cap);
        // `len` stops the walk at the last live leaf, so each step below
        // has a live leaf to its right to find.
        for _ in 1..len {
            node += 1;
            if self.w[node].load(Relaxed) == 0 {
                while node & 1 == 1 || self.w[node + 1].load(Relaxed) == 0 {
                    node /= 2;
                }
                node += 1;
                while node < self.cap {
                    node *= 2;
                    if self.w[node].load(Relaxed) == 0 {
                        node += 1;
                    }
                }
            }
            out.push(node - self.cap);
        }
    }

    /// Applies a batch of leaf updates `(slot, weight)` and repairs all
    /// affected internal nodes. Slots must be distinct, sorted ascending
    /// and below `len()`; checked in every build, because a weight landing
    /// on a padding leaf would corrupt `total()` and every later `select`.
    /// O(l·lg n) work, O(lg n) span: leaves in one parallel phase, then one
    /// parallel phase per level over the dedup'd parent set.
    pub fn update_leaves(&self, updates: &[(usize, u32)]) {
        if updates.is_empty() {
            return;
        }
        assert!(
            updates.windows(2).all(|w| w[0].0 < w[1].0),
            "update slots must be sorted and distinct"
        );
        // Sorted, so the last slot bounds them all.
        assert!(
            updates[updates.len() - 1].0 < self.len,
            "update slot out of range"
        );
        qexec::par_map_range(updates.len(), PAR_THRESHOLD, |i| {
            let (slot, v) = updates[i];
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
            // Every live slot in one run, one rank asked for past the end.
            let mut run = Vec::new();
            t.select_run(0, t.total() + 1, &mut run);
            let live: Vec<usize> = (0..n).filter(|&i| weights[i] == 1).collect();
            assert_eq!(run, live);
        }
    }

    #[test]
    fn full_equals_new_node_for_node() {
        for width in [1, 3] {
            for n in [0usize, 1, 2, 3, 257, 4097] {
                let (full, new) =
                    qexec::with_width(width, || (IndexTree::full(n), IndexTree::new(&vec![1; n])));
                assert_eq!((full.len, full.cap), (new.len, new.cap), "n = {n}");
                let nodes = |t: &IndexTree| t.w.iter().map(|w| w.load(Relaxed)).collect::<Vec<_>>();
                assert_eq!(nodes(&full), nodes(&new), "n = {n}, width {width}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_rejects_a_padding_leaf_in_release_too() {
        // 5 slots, 8 leaves: slot 6 exists in the tree but not the circuit.
        IndexTree::new(&[1; 5]).update_leaves(&[(6, 1)]);
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
