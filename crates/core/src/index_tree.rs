//! The index tree (Section 3, Figure 1).
//!
//! A weighted tree over the circuit's slot array: each slot weighs 1 (a
//! live unit) or 0 (a tombstone), and each node holds the number of live
//! units below it. It supports the Algorithm 1 interface within its
//! stated cost bounds:
//!
//! | operation       | work                    | span     |
//! |-----------------|-------------------------|----------|
//! | `new`, `full`   | O(n)                    | O(lg n)  |
//! | `before`        | O(lg n)                 | O(lg n)  |
//! | `select`        | O(lg n)                 | O(lg n)  |
//! | `select_run`    | O(lg n + k + gaps·lg n) | its work |
//! | `update_leaves` | O(l + f·lg n)           | O(lg n)  |
//!
//! **Layout.** The leaf level is a liveness bitmap, one `u64` word per 64
//! slots. Above it sits a complete binary count tree over those 64-slot
//! blocks, stored implicitly (1-indexed heap layout) in a flat vector of
//! `AtomicU32`s: `w[1]` is the root and `w[cap + b]` the live count of
//! block `b`, with `cap` the next power of two at or above the block
//! count. Per slot that is one bit plus at most a quarter byte of
//! counters (2·`cap` ≤ 4 counters of 4 bytes per 64 slots): 0.26 MB for
//! StateVec-10's 1 046 804 slots. `before` and `select` walk the count
//! tree to a block and finish in its word with a masked popcount or an
//! in-word bit select.
//!
//! `select_run` reads `k` consecutive ranks with one descent and then
//! walks the set bits of the bitmap; `gaps` counts the runs of empty
//! blocks it crosses. A word with no live slot left sends the walk to the
//! next word, and past an empty one it climbs the count tree to the first
//! ancestor whose right sibling is non-empty and descends to that
//! sibling's leftmost non-empty block. It is sequential, like the
//! per-rank `select` loop it replaces inside one segment extraction
//! (`k` = 2Ω + 1 there), and a gap costs a climb and a descent of the
//! height it spans, so the worst input stays within twice that loop's
//! k·lg n.
//!
//! `update_leaves` takes `l` updates of which `f` change a weight. Only
//! those `f` flips touch the structure: a scan groups them by bitmap word,
//! one parallel phase rewrites each touched word and re-counts its block,
//! and one parallel phase per level repairs the dedup'd parents. The scan
//! is a sequential O(l) pass and each dedup a sequential O(f) one; the
//! span column counts the parallel phases.
//!
//! **Word sharing.** Neighbouring slots share a bitmap word, so parallel
//! chunks cut at arbitrary update indices could write one word at once.
//! They never do: the parallel items of the leaf phase are words, not
//! slots, so every word and every block counter has exactly one writer
//! per phase and plain relaxed loads and stores suffice, with no atomic
//! read-modify-write. Relaxed ordering is enough across phases because
//! every mutation phase is separated from reads by the return of a
//! `qexec` parallel map, which provides the happens-before edges; level
//! repairs write distinct parents.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};

/// Minimum chunk of the cheap per-element phases (a store, a sum, a
/// clone, a root-to-leaf walk): a phase with no more elements than this
/// runs sequentially rather than paying for a cross-thread hand-off.
pub(crate) const PAR_THRESHOLD: usize = 1 << 12;

/// Slots per bitmap word, and so per block of the count tree.
const WORD: usize = 64;

/// A fixed-capacity weighted index tree over `len` slots.
pub struct IndexTree {
    /// Liveness bitmap: bit `s % 64` of word `s / 64` is slot `s`'s weight.
    bits: Vec<AtomicU64>,
    /// Heap-layout block counts; `w[1]` is the root, block `b` at `cap + b`.
    w: Vec<AtomicU32>,
    /// Number of count-tree leaves (next power of two ≥ the block count).
    cap: usize,
    /// Number of real slots.
    len: usize,
}

impl IndexTree {
    /// Builds the tree from initial leaf weights (0 or 1 per slot).
    /// O(n) work, O(lg n) span.
    pub fn new(weights: &[u32]) -> IndexTree {
        debug_assert!(weights.iter().all(|&w| w <= 1), "weights are 0 or 1");
        IndexTree::from_words(weights.len(), PAR_THRESHOLD / WORD, |word| {
            let block = &weights[word * WORD..weights.len().min((word + 1) * WORD)];
            block
                .iter()
                .enumerate()
                .fold(0, |bits, (i, &w)| bits | u64::from(w != 0) << i)
        })
    }

    /// The tree [`new`](Self::new) builds over `len` weight-1 leaves,
    /// without the weight vector: every word is all ones but the last,
    /// which holds one bit per remaining slot.
    /// O(n/64) work, O(lg n) span.
    pub fn full(len: usize) -> IndexTree {
        IndexTree::from_words(len, PAR_THRESHOLD, |word| {
            let rest = len - word * WORD;
            if rest >= WORD {
                !0
            } else {
                (1 << rest) - 1
            }
        })
    }

    /// The tree over `len` slots whose bitmap word `i` is `word(i)`:
    /// one parallel phase for the words (at least `min_chunk` per chunk),
    /// one for the block counts, and one per level above them.
    fn from_words(len: usize, min_chunk: usize, word: impl Fn(usize) -> u64 + Sync) -> IndexTree {
        let words = len.div_ceil(WORD);
        let cap = words.next_power_of_two();
        let bits = qexec::par_map_range(words, min_chunk, |i| AtomicU64::new(word(i)));
        let mut w = Vec::with_capacity(2 * cap);
        w.resize_with(2 * cap, || AtomicU32::new(0));
        let tree = IndexTree { bits, w, cap, len };
        qexec::par_map_range(words, PAR_THRESHOLD, |b| {
            let count = tree.bits[b].load(Relaxed).count_ones();
            tree.w[cap + b].store(count, Relaxed);
        });
        // Each level is an independent parallel map over its nodes.
        let mut level_start = cap / 2;
        while level_start >= 1 {
            qexec::par_map_range(level_start, PAR_THRESHOLD, |i| {
                tree.recount(level_start + i)
            });
            level_start /= 2;
        }
        tree
    }

    /// Sets internal node `node` to the sum of its children.
    #[inline]
    fn recount(&self, node: usize) {
        let sum = self.w[2 * node].load(Relaxed) + self.w[2 * node + 1].load(Relaxed);
        self.w[node].store(sum, Relaxed);
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
        self.w[1].load(Relaxed) as usize
    }

    /// Weight of one leaf (0 or 1).
    #[inline]
    pub fn leaf(&self, slot: usize) -> u32 {
        (self.bits[slot / WORD].load(Relaxed) >> (slot % WORD)) as u32 & 1
    }

    /// The paper's `before`: the number of live units strictly before slot
    /// index `phys`. O(lg n) — the live bits below `phys` in its word, plus
    /// the left siblings' counts along its block's path to the root.
    pub fn before(&self, phys: usize) -> usize {
        debug_assert!(phys <= self.len);
        // Allow phys == len as an "end" sentinel meaning "after everything".
        if phys >= self.len {
            return self.total();
        }
        let below = (1u64 << (phys % WORD)) - 1;
        let mut acc = (self.bits[phys / WORD].load(Relaxed) & below).count_ones() as usize;
        let mut node = self.cap + phys / WORD;
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
    /// O(lg n) — walk root-to-block guided by subtree counts, then select
    /// the remaining rank's bit inside the block's word.
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
        let word = node - self.cap;
        Some(word * WORD + select_in_word(self.bits[word].load(Relaxed), rank))
    }

    /// Appends to `out` the slot indices of the live units of ranks
    /// `rank .. rank + len`, stopping at the last live unit: exactly what
    /// `(rank..rank + len).filter_map(|r| self.select(r))` yields. One
    /// `select` finds the first slot; the rest are the set bits that
    /// follow it, word by word, with empty words skipped through the
    /// count tree. O(lg n + len + gaps·lg n).
    pub fn select_run(&self, rank: usize, len: usize, out: &mut Vec<usize>) {
        let len = len.min(self.total().saturating_sub(rank));
        if len == 0 {
            return;
        }
        let first = self.select(rank).expect("rank < total");
        out.reserve(len);
        let mut word = first / WORD;
        // The live bits of `word` not yet reported.
        let mut rest = self.bits[word].load(Relaxed) & (!0 << (first % WORD));
        for _ in 0..len {
            // `len` stops the walk at the last live unit, so an exhausted
            // word always has a live one to its right.
            if rest == 0 {
                word = self.next_live_word(word);
                rest = self.bits[word].load(Relaxed);
            }
            out.push(word * WORD + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }

    /// The first word after `word` holding a live slot; one must exist.
    /// The adjacent word when it is non-empty, otherwise a climb from that
    /// word's block to the first ancestor whose right sibling is non-empty
    /// and a descent to that sibling's leftmost non-empty block.
    fn next_live_word(&self, word: usize) -> usize {
        if self.bits[word + 1].load(Relaxed) != 0 {
            return word + 1;
        }
        let mut node = self.cap + word + 1;
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
        node - self.cap
    }

    /// Applies a batch of leaf updates `(slot, weight)` and repairs all
    /// affected counts. Slots must be distinct, sorted ascending and below
    /// `len()`; checked in every build, because a weight landing past the
    /// last slot would corrupt `total()` and every later `select`. Only
    /// updates that change a weight write anything.
    /// O(l + f·lg n) work for `f` flips, O(lg n) span: the touched words
    /// and their block counts in one parallel phase, then one parallel
    /// phase per level over the dedup'd parent set.
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
        let flips = self.flips(updates);
        qexec::par_map_range(flips.len(), PAR_THRESHOLD, |i| {
            let (word, mask) = flips[i];
            let bits = self.bits[word].load(Relaxed) ^ mask;
            self.bits[word].store(bits, Relaxed);
            self.w[self.cap + word].store(bits.count_ones(), Relaxed);
        });

        // Repair: parent sets per level, dedup'd (ascending words keep each
        // level's node list sorted, so dedup is a linear scan).
        let mut nodes: Vec<usize> = flips
            .iter()
            .map(|&(word, _)| (self.cap + word) / 2)
            .collect();
        nodes.dedup();
        while !nodes.is_empty() && nodes[0] >= 1 {
            qexec::par_map_range(nodes.len(), PAR_THRESHOLD, |i| self.recount(nodes[i]));
            if nodes[0] == 1 {
                break;
            }
            for n in &mut nodes {
                *n /= 2;
            }
            nodes.dedup();
        }
    }

    /// The weight changes of a sorted batch, grouped by bitmap word:
    /// `(word, mask)` pairs, words ascending and distinct, with a mask bit
    /// set for each slot whose weight the batch flips. Updates that leave
    /// a leaf as it is drop out here.
    fn flips(&self, updates: &[(usize, u32)]) -> Vec<(usize, u64)> {
        let mut flips: Vec<(usize, u64)> = Vec::new();
        for &(slot, weight) in updates {
            debug_assert!(weight <= 1, "weights are 0 or 1");
            if self.leaf(slot) != u32::from(weight != 0) {
                let (word, bit) = (slot / WORD, 1 << (slot % WORD));
                match flips.last_mut() {
                    Some((last, mask)) if *last == word => *mask |= bit,
                    _ => flips.push((word, bit)),
                }
            }
        }
        flips
    }
}

/// The position of the `rank`-th set bit of `x` (0-based), which must
/// have more than `rank` set bits. Branch-free broadword select (Vigna,
/// "Broadword implementation of rank/select queries", 2008): the running
/// popcount of every byte at once locates the byte holding the bit, and a
/// table finishes inside that byte. A halving search branches on the
/// rank at every step and mispredicts about half of those branches.
#[inline]
fn select_in_word(x: u64, rank: u32) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    debug_assert!(rank < x.count_ones());
    let mut s = x - ((x >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    s = (s + (s >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    // Byte `i` of `prefix` counts the set bits in bytes `0..=i`. Every
    // count is at most 64, so no byte of `(rank·ONES | HIGHS) − prefix`
    // borrows from the next, and a byte keeps its high bit exactly where
    // its count is at most `rank`: those are the bytes before the bit.
    let prefix = s.wrapping_mul(ONES);
    let byte = ((((u64::from(rank) * ONES) | HIGHS) - prefix) & HIGHS).count_ones() as usize;
    let before = ((prefix << 8) >> (8 * byte)) as u32 & 0xFF;
    let bits = (x >> (8 * byte)) as u8;
    8 * byte + SELECT_IN_BYTE[bits as usize][(rank - before) as usize] as usize
}

/// `SELECT_IN_BYTE[b][r]`: the position of the `r`-th set bit of byte `b`.
static SELECT_IN_BYTE: [[u8; 8]; 256] = {
    let mut table = [[0; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let (mut bit, mut r) = (0, 0);
        while bit < 8 {
            if b >> bit & 1 == 1 {
                table[b][r] = bit as u8;
                r += 1;
            }
            bit += 1;
        }
        b += 1;
    }
    table
};

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
            for n in [0usize, 1, 2, 3, 63, 64, 65, 257, 4097, 64 * 4096 + 5] {
                let (full, new) =
                    qexec::with_width(width, || (IndexTree::full(n), IndexTree::new(&vec![1; n])));
                assert_eq!((full.len, full.cap), (new.len, new.cap), "n = {n}");
                let words =
                    |t: &IndexTree| t.bits.iter().map(|w| w.load(Relaxed)).collect::<Vec<_>>();
                let counts =
                    |t: &IndexTree| t.w.iter().map(|w| w.load(Relaxed)).collect::<Vec<_>>();
                assert_eq!(words(&full), words(&new), "n = {n}, width {width}");
                assert_eq!(counts(&full), counts(&new), "n = {n}, width {width}");
                assert_eq!(full.bits.len(), n.div_ceil(WORD));
            }
        }
    }

    #[test]
    fn footprint_is_a_bit_and_a_quarter_byte_per_slot() {
        // StateVec-10, the largest circuit of the paper corpus.
        let n = 1_046_804;
        let t = IndexTree::full(n);
        let heap = t.bits.capacity() * std::mem::size_of::<AtomicU64>()
            + t.w.capacity() * std::mem::size_of::<AtomicU32>();
        assert_eq!((t.bits.len(), t.w.len()), (16_357, 32_768));
        assert!(heap <= 512 * 1024, "{heap} bytes for {n} slots");
    }

    #[test]
    fn update_flips_only_changed_leaves() {
        // An accepted segment over slots 100..400: its head rewritten in
        // place (weight 1 onto live leaves), its tail tombstoned.
        let t = IndexTree::full(512);
        let (head, tail) = (100..250, 250..400);
        let batch: Vec<(usize, u32)> = head
            .clone()
            .map(|s| (s, 1))
            .chain(tail.clone().map(|s| (s, 0)))
            .collect();
        let flipped: Vec<usize> = t
            .flips(&batch)
            .iter()
            .flat_map(|&(word, mask)| {
                (0..WORD)
                    .filter(move |b| mask >> b & 1 == 1)
                    .map(move |b| word * WORD + b)
            })
            .collect();
        assert_eq!(flipped, tail.clone().collect::<Vec<_>>());
        // Block 1 (slots 64..128) holds only head updates: a wrong count
        // planted there survives, so the batch never re-counts it.
        t.w[t.cap + 1].store(999, Relaxed);
        t.update_leaves(&batch);
        assert_eq!(t.w[t.cap + 1].load(Relaxed), 999);
        t.w[t.cap + 1].store(64, Relaxed);
        let counts: Vec<u32> = (0..8).map(|b| t.w[t.cap + b].load(Relaxed)).collect();
        assert_eq!(counts, [64, 64, 64, 58, 0, 0, 48, 64]);
        assert_eq!(t.total(), 512 - 150);
        // Rewriting the same weights again flips nothing.
        assert!(t.flips(&batch).is_empty());
    }

    #[test]
    fn select_in_word_matches_a_bit_scan() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let fixed = [
            1u64,
            1 << 63,
            !0,
            0xAAAA_5555_0F0F_F0F0,
            0x8000_0001_0000_0001,
        ];
        let random = (0..2000).map(|k| match k % 3 {
            0 => rng(),
            1 => rng() & rng() & rng(),
            _ => rng() | rng(),
        });
        for bits in fixed.into_iter().chain(random).filter(|&b| b != 0) {
            let set: Vec<usize> = (0..WORD).filter(|b| bits >> b & 1 == 1).collect();
            for (rank, &pos) in set.iter().enumerate() {
                assert_eq!(
                    select_in_word(bits, rank as u32),
                    pos,
                    "{bits:#x} rank {rank}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_rejects_a_padding_leaf_in_release_too() {
        // 5 slots, one 64-bit word: slot 6 has a bit in the tree but no
        // slot in the circuit.
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
