//! Finger bookkeeping: `selectFingers` (Algorithm 4) and the sorted merge of
//! finger sets (Algorithm 3 line 18).
//!
//! Fingers are stored as *physical* slot indices. Grouping and interference
//! are defined over *logical* positions (tombstones excluded), obtained via
//! `before`. Keeping physical indices makes fingers stable under
//! substitution: tombstoning units elsewhere never moves a finger.

use crate::index_tree::PAR_THRESHOLD;
use crate::sparse::SparseCircuit;

/// `selectFingers` (Algorithm 4): partitions the sorted finger set into a
/// non-interfering selection and the remainder.
///
/// The circuit is cut into groups of 2Ω live units; the first finger of each
/// even-numbered group forms `F_even`, of each odd-numbered group `F_odd`;
/// the larger set wins. Selected fingers are pairwise ≥ 2Ω apart in logical
/// distance (Lemma 5), and at least a 1/(4Ω) fraction of all fingers is
/// selected (Lemma 1).
pub fn select_fingers<U: Clone + Send + Sync>(
    circuit: &SparseCircuit<U>,
    fingers: &[usize],
    omega: usize,
) -> (Vec<usize>, Vec<usize>) {
    debug_assert!(fingers.windows(2).all(|w| w[0] < w[1]), "fingers sorted");
    if fingers.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let group_width = 2 * omega;
    // O(|F| lg n) work, O(lg n) span: each finger's logical position.
    let groups = qexec::par_map_range(fingers.len(), PAR_THRESHOLD, |i| {
        circuit.before(fingers[i]) / group_width
    });

    let mut even: Vec<usize> = Vec::new();
    let mut odd: Vec<usize> = Vec::new();
    for i in 0..fingers.len() {
        let first_in_group = i == 0 || groups[i] > groups[i - 1];
        if first_in_group {
            if groups[i].is_multiple_of(2) {
                even.push(i);
            } else {
                odd.push(i);
            }
        }
    }
    let chosen = if even.len() > odd.len() { even } else { odd };

    let mut mask = vec![false; fingers.len()];
    for &i in &chosen {
        mask[i] = true;
    }
    let mut selected = Vec::with_capacity(chosen.len());
    let mut remaining = Vec::with_capacity(fingers.len() - chosen.len());
    for (i, &f) in fingers.iter().enumerate() {
        if mask[i] {
            selected.push(f);
        } else {
            remaining.push(f);
        }
    }
    (selected, remaining)
}

/// `mergeAndDeduplicate` (Algorithm 3): merges two sorted finger lists,
/// dropping duplicates. O(|a| + |b|).
pub fn merge_dedup(a: &[usize], b: &[usize]) -> Vec<usize> {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]));
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circuit_of(n: usize) -> SparseCircuit<u32> {
        SparseCircuit::create((0..n as u32).collect())
    }

    #[test]
    fn merge_dedup_basics() {
        assert_eq!(merge_dedup(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(merge_dedup(&[], &[4]), vec![4]);
        assert_eq!(merge_dedup(&[4], &[]), vec![4]);
        assert_eq!(merge_dedup(&[], &[]), Vec::<usize>::new());
    }

    #[test]
    fn selected_fingers_are_non_interfering() {
        let omega = 4;
        let c = circuit_of(100);
        let fingers: Vec<usize> = (0..100).step_by(3).collect();
        let (sel, rem) = select_fingers(&c, &fingers, omega);
        assert_eq!(sel.len() + rem.len(), fingers.len());
        assert!(!sel.is_empty());
        // Lemma 5: pairwise logical distance >= 2Ω.
        for w in sel.windows(2) {
            let d = c.before(w[1]) - c.before(w[0]);
            assert!(d >= 2 * omega, "fingers {w:?} only {d} apart");
        }
        // Lemma 1: at least |F|/(4Ω) selected.
        assert!(sel.len() * 4 * omega >= fingers.len());
    }

    #[test]
    fn selection_respects_tombstones() {
        let omega = 2;
        let mut c = circuit_of(40);
        // Tombstone a band so logical positions compress.
        c.substitute((10..30).map(|i| (i, None)).collect());
        let fingers: Vec<usize> = vec![0, 5, 12, 20, 28, 35, 39];
        let (sel, _rem) = select_fingers(&c, &fingers, omega);
        for w in sel.windows(2) {
            let d = c.before(w[1]) - c.before(w[0]);
            assert!(d >= 2 * omega, "fingers {w:?} only {d} apart (logical)");
        }
    }

    #[test]
    fn singleton_and_empty() {
        let c = circuit_of(10);
        let (sel, rem) = select_fingers(&c, &[], 2);
        assert!(sel.is_empty() && rem.is_empty());
        let (sel, rem) = select_fingers(&c, &[3], 2);
        assert_eq!(sel, vec![3]);
        assert!(rem.is_empty());
    }

    #[test]
    fn partition_is_exact() {
        let c = circuit_of(64);
        let fingers: Vec<usize> = (0..64).step_by(2).collect();
        let (sel, rem) = select_fingers(&c, &fingers, 3);
        let merged = merge_dedup(&sel, &rem);
        assert_eq!(merged, fingers);
    }
}
