//! Property-based model checking of the Section 3 data structures: the
//! index tree and sparse circuit must agree with a naive reference model
//! under arbitrary update sequences.

use popqc_core::{IndexTree, SparseCircuit};
use proptest::prelude::*;

/// Reference model: plain vector of optional values.
#[derive(Clone)]
struct Model(Vec<Option<u32>>);

impl Model {
    fn before(&self, phys: usize) -> usize {
        self.0[..phys.min(self.0.len())]
            .iter()
            .filter(|s| s.is_some())
            .count()
    }
    fn select(&self, rank: usize) -> Option<usize> {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .nth(rank)
            .map(|(i, _)| i)
    }
    fn units(&self) -> Vec<u32> {
        self.0.iter().flatten().copied().collect()
    }
}

/// `select_run` against its definition, `len` single `select`s, at the
/// given probes and at the edges: an empty run, the whole circuit (every
/// tombstone gap there is), runs that end past the last live unit and
/// runs that start at or past it.
fn check_select_run(
    total: usize,
    select: impl Fn(usize) -> Option<usize>,
    select_run: impl Fn(usize, usize, &mut Vec<usize>),
    probes: &[(usize, usize)],
) {
    let edges = [
        (0, 0),
        (total / 2, 0),
        (0, total),
        (0, total + 3),
        (total / 2, total),
        (total.saturating_sub(1), 2),
        (total, 1),
        (total + 5, 4),
    ];
    for &(rank, len) in probes.iter().chain(&edges) {
        // `select_run` appends: what `out` already holds must survive.
        let mut got = vec![usize::MAX];
        select_run(rank, len, &mut got);
        let want: Vec<usize> = (rank..rank + len).filter_map(&select).collect();
        assert_eq!(
            got[0],
            usize::MAX,
            "select_run({rank}, {len}) overwrote out"
        );
        assert_eq!(got[1..], want[..], "select_run({rank}, {len})");
    }
}

/// The batch that tombstones the middle half of `n` slots: for n ≥ 8 a
/// gap longer than a whole subtree, which a run has to climb over.
fn middle_gap(n: usize) -> Vec<(usize, Option<u32>)> {
    (n / 4..3 * n / 4).map(|s| (s, None)).collect()
}

/// A batch of distinct sorted slot updates.
fn arb_updates(n: usize) -> impl Strategy<Value = Vec<(usize, Option<u32>)>> {
    prop::collection::btree_map(0..n, prop::option::of(0u32..1000), 0..n.min(32))
        .prop_map(|m| m.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_circuit_matches_model(
        n in 1usize..300,
        batches in prop::collection::vec(arb_updates(300), 0..8),
        probes in prop::collection::vec((0usize..300, 0usize..300), 4..5),
    ) {
        let initial: Vec<u32> = (0..n as u32).collect();
        let mut sc = SparseCircuit::create(initial.clone());
        let mut model = Model(initial.into_iter().map(Some).collect());

        for batch in batches.into_iter().chain([middle_gap(n)]) {
            let batch: Vec<(usize, Option<u32>)> =
                batch.into_iter().filter(|(s, _)| *s < n).collect();
            sc.substitute(batch.clone());
            for (s, v) in batch {
                model.0[s] = v;
            }
            prop_assert_eq!(sc.len(), model.units().len());
            prop_assert_eq!(sc.to_units(), model.units());
            for probe in [0usize, 1, n / 2, n.saturating_sub(1), n] {
                prop_assert_eq!(sc.before(probe), model.before(probe), "before({})", probe);
            }
            for rank in [0usize, 1, sc.len() / 2, sc.len().saturating_sub(1), sc.len()] {
                prop_assert_eq!(sc.select(rank), model.select(rank), "select({})", rank);
            }
            check_select_run(
                sc.len(),
                |r| model.select(r),
                |rank, len, out| sc.select_run(rank, len, out),
                &probes,
            );
        }
        prop_assert_eq!(sc.into_units(), model.units());
    }

    #[test]
    fn index_tree_select_before_inverse(weights in prop::collection::vec(0u32..2, 1..400)) {
        let t = IndexTree::new(&weights);
        let total: usize = weights.iter().map(|&w| w as usize).sum();
        prop_assert_eq!(t.total(), total);
        for rank in 0..total {
            let phys = t.select(rank).unwrap();
            prop_assert_eq!(t.before(phys), rank);
            prop_assert_eq!(t.leaf(phys), 1);
        }
        prop_assert_eq!(t.select(total), None);
        prop_assert_eq!(t.before(weights.len()), total);
    }

    #[test]
    fn index_tree_updates_match_model(
        // Up to 257, whose last tree level is ragged.
        n in 1usize..258,
        batches in prop::collection::vec(arb_updates(257), 1..6),
        probes in prop::collection::vec((0usize..260, 0usize..260), 4..5),
    ) {
        let mut weights = vec![1u32; n];
        let t = IndexTree::new(&weights);
        for batch in batches.into_iter().chain([middle_gap(n)]) {
            let ups: Vec<(usize, u32)> = batch
                .into_iter()
                .filter(|(s, _)| *s < n)
                .map(|(s, v)| (s, v.is_some() as u32))
                .collect();
            t.update_leaves(&ups);
            for (s, w) in ups {
                weights[s] = w;
            }
            let total: usize = weights.iter().map(|&w| w as usize).sum();
            prop_assert_eq!(t.total(), total);
            // Spot-check a few ranks against the model.
            let live: Vec<usize> =
                (0..n).filter(|&i| weights[i] == 1).collect();
            for k in [0usize, live.len() / 2, live.len().saturating_sub(1)] {
                if k < live.len() {
                    prop_assert_eq!(t.select(k), Some(live[k]));
                }
            }
            check_select_run(
                total,
                |r| live.get(r).copied(),
                |rank, len, out| t.select_run(rank, len, out),
                &probes,
            );
        }
    }
}
