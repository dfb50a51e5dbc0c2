//! Property-based tests (proptest) over the core invariants:
//! oracle monotonicity and semantic preservation, POPQC local optimality,
//! engine determinism, and potential-function bounds on arbitrary circuits.

use popqc::prelude::*;
use proptest::prelude::*;

/// Strategy: arbitrary circuits over `n` qubits with π/8-grid angles.
fn arb_circuit(n: u32, max_len: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec((0u8..4, 0..n, 0..n.max(2), -8i64..8), 0..max_len).prop_map(
        move |specs| {
            let mut c = Circuit::new(n);
            for (kind, q, r, num) in specs {
                match kind {
                    0 => {
                        c.h(q);
                    }
                    1 => {
                        c.x(q);
                    }
                    2 => {
                        c.rz(q, Angle::pi_frac(num, 8));
                    }
                    _ => {
                        let t = if r == q { (r + 1) % n } else { r % n };
                        c.cnot(q, t);
                    }
                }
            }
            c
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn oracle_never_increases_gate_count(c in arb_circuit(4, 120)) {
        let oracle = RuleBasedOptimizer::oracle();
        let out = oracle.optimize(&c.gates, c.num_qubits);
        prop_assert!(out.len() <= c.gates.len());
    }

    #[test]
    fn oracle_preserves_semantics(c in arb_circuit(4, 80)) {
        let oracle = RuleBasedOptimizer::oracle();
        let out = Circuit { num_qubits: c.num_qubits, gates: oracle.optimize(&c.gates, c.num_qubits) };
        prop_assert!(popqc::sim::circuits_equivalent(&c, &out, 2, 0xfeed));
    }

    #[test]
    fn popqc_output_is_locally_optimal_with_well_behaved_oracle(
        c in arb_circuit(4, 150), omega in 4usize..16
    ) {
        // Theorem 7 exactly: with a *well-behaved* oracle (the paper's
        // hypothesis, here enforced constructively), no Ω-window of the
        // output is improvable.
        let oracle = popqc::oracles::WellBehavedOracle::new(
            RuleBasedOptimizer::oracle(), omega);
        let (opt, _) = optimize_circuit(&c, &oracle, &PopqcConfig::with_omega(omega));
        prop_assert_eq!(
            verify_local_optimality(&opt.gates, c.num_qubits, &oracle, omega),
            Ok(())
        );
        prop_assert!(popqc::sim::circuits_equivalent(&c, &opt, 2, 0x9e9e));
    }

    #[test]
    fn popqc_output_is_approximately_locally_optimal_with_fast_oracle(
        c in arb_circuit(4, 400), omega in 8usize..16
    ) {
        // The fast pipeline oracle is only approximately well-behaved (NOT
        // propagation is window-extent-sensitive — see qoracle::well_behaved
        // docs), so Theorem 7 holds approximately. One residual defect (an
        // unluckily parked gate at a segment seam) is visible to up to Ω−1
        // overlapping windows, so the bound is phrased in defects: allow a
        // couple of defects plus a 5% window tail.
        let oracle = RuleBasedOptimizer::oracle();
        let (opt, _) = optimize_circuit(&c, &oracle, &PopqcConfig::with_omega(omega));
        let units = &opt.gates;
        let mut improvable = 0usize;
        let mut windows = 0usize;
        let n_win = units.len().saturating_sub(omega - 1).max(1).min(units.len().max(1));
        for start in 0..n_win {
            let end = (start + omega).min(units.len());
            let w = &units[start..end];
            windows += 1;
            let o = oracle.optimize(w, c.num_qubits);
            if o.len() < w.len() {
                improvable += 1;
            }
        }
        prop_assert!(
            improvable <= 3 * omega + windows / 20,
            "{improvable}/{windows} windows improvable (omega {omega})"
        );
    }

    #[test]
    fn popqc_preserves_semantics_any_omega(c in arb_circuit(5, 120), omega in 1usize..32) {
        let oracle = RuleBasedOptimizer::oracle();
        let (opt, _) = optimize_circuit(&c, &oracle, &PopqcConfig::with_omega(omega));
        prop_assert!(popqc::sim::circuits_equivalent(&c, &opt, 2, 0xabcd));
    }

    #[test]
    fn popqc_call_count_respects_potential_bound(c in arb_circuit(4, 150), omega in 2usize..16) {
        let oracle = RuleBasedOptimizer::oracle();
        let (_, stats) = optimize_circuit(&c, &oracle, &PopqcConfig::with_omega(omega));
        // Lemma 2: L = |F| + 2|C| decreases by >= 1 per oracle call.
        let bound = c.len().div_ceil(omega) + 2 * c.len();
        prop_assert!((stats.oracle_calls as usize) <= bound.max(1));
    }

    #[test]
    fn popqc_deterministic_across_pools(c in arb_circuit(4, 100)) {
        let oracle = RuleBasedOptimizer::oracle();
        let cfg = PopqcConfig::with_omega(12);
        let at = |width| qexec::with_width(width, || optimize_circuit(&c, &oracle, &cfg).0);
        let one = at(1);
        for width in [2, 3, 8] {
            prop_assert_eq!(&one, &at(width), "width {}", width);
        }
    }

    #[test]
    fn oac_matches_popqc_semantics(c in arb_circuit(4, 100)) {
        let oracle = RuleBasedOptimizer::oracle();
        let (oac_out, _) = oac_optimize(&c, &oracle, &OacConfig::with_omega(16));
        prop_assert!(popqc::sim::circuits_equivalent(&c, &oac_out, 2, 0x5151));
    }

    #[test]
    fn justified_orderings_are_equivalent(c in arb_circuit(5, 100)) {
        let left = c.left_justified();
        let right = c.right_justified();
        prop_assert_eq!(left.len(), c.len());
        prop_assert_eq!(right.len(), c.len());
        prop_assert!(popqc::sim::circuits_equivalent(&c, &left, 2, 1));
        prop_assert!(popqc::sim::circuits_equivalent(&c, &right, 2, 2));
    }

    #[test]
    fn layered_round_trip_preserves_depth(c in arb_circuit(5, 120)) {
        let lc = c.layered();
        prop_assert_eq!(lc.depth(), c.depth());
        prop_assert_eq!(lc.gate_count(), c.len());
        prop_assert!(lc.is_well_formed());
        let flat = lc.to_circuit();
        prop_assert_eq!(flat.depth(), c.depth());
    }

    #[test]
    fn qasm_round_trip(c in arb_circuit(5, 80)) {
        let text = popqc::ir::qasm::to_qasm(&c);
        let back = popqc::ir::qasm::parse(&text).unwrap();
        prop_assert_eq!(back, c);
    }
}
