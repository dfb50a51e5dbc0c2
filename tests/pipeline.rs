//! End-to-end pipeline tests: benchmark generation → POPQC → semantic
//! verification, across every family, plus baseline-quality comparisons.

use popqc::prelude::*;

#[test]
fn every_family_optimizes_and_verifies() {
    let oracle = RuleBasedOptimizer::oracle();
    let cfg = PopqcConfig::with_omega(100);
    for family in Family::ALL {
        let q = family.ladder(0)[0];
        let circuit = family.generate(q, 7);
        let (opt, stats) = optimize_circuit(&circuit, &oracle, &cfg);
        assert!(
            opt.len() < circuit.len(),
            "{}: expected some reduction on {} gates",
            family.name(),
            circuit.len()
        );
        assert_eq!(stats.final_units, opt.len());
        assert_eq!(opt.validate(), Ok(()), "{}: invalid output", family.name());
        // Simulator check where feasible.
        if q <= 14 && circuit.len() <= 40_000 {
            assert!(
                popqc::sim::circuits_equivalent(&circuit, &opt, 2, 1234),
                "{}: semantics changed",
                family.name()
            );
        }
    }
}

#[test]
fn popqc_quality_matches_or_beats_single_pass_baseline() {
    // Section 7.4's quality story: POPQC with the fixpoint oracle never
    // loses materially to the whole-circuit single-sequence baseline, and
    // usually wins (convergence effect).
    let oracle = RuleBasedOptimizer::oracle();
    let baseline = RuleBasedOptimizer::voqc_baseline();
    let cfg = PopqcConfig::with_omega(100);
    let mut wins = 0;
    let mut total = 0;
    for family in Family::ALL {
        let q = family.ladder(0)[0];
        let circuit = family.generate(q, 13);
        let base = baseline.optimize_circuit(&circuit);
        let (pq, _) = optimize_circuit(&circuit, &oracle, &cfg);
        total += 1;
        // Allow a small deficit (local optimality is weaker than global
        // passes in odd corners) but track wins.
        assert!(
            (pq.len() as f64) <= base.len() as f64 * 1.05 + 8.0,
            "{}: POPQC {} much worse than baseline {}",
            family.name(),
            pq.len(),
            base.len()
        );
        if pq.len() <= base.len() {
            wins += 1;
        }
    }
    assert!(
        wins * 2 >= total,
        "POPQC should at least tie the baseline on most families ({wins}/{total})"
    );
}

#[test]
fn optimized_circuits_round_trip_through_qasm() {
    let oracle = RuleBasedOptimizer::oracle();
    let circuit = Family::Hhl.generate(8, 5);
    let (opt, _) = optimize_circuit(&circuit, &oracle, &PopqcConfig::with_omega(64));
    let qasm = popqc::ir::qasm::to_qasm(&opt);
    let back = popqc::ir::qasm::parse(&qasm).expect("parse optimized output");
    assert_eq!(back, opt);
}

#[test]
fn oac_and_popqc_agree_on_quality_with_same_oracle() {
    // Table 3 setting: same oracle, same Ω; quality within 0.1%-ish in the
    // paper, we allow a few percent on these small instances.
    let oracle = RuleBasedOptimizer::oracle();
    for family in [Family::Vqe, Family::Grover, Family::Shor] {
        let q = family.ladder(0)[0];
        let circuit = family.generate(q, 3);
        let (oac_out, oac_stats) = oac_optimize(&circuit, &oracle, &OacConfig::with_omega(100));
        let (pq_out, pq_stats) = optimize_circuit(&circuit, &oracle, &PopqcConfig::with_omega(100));
        let a = oac_out.len() as f64;
        let b = pq_out.len() as f64;
        assert!(
            (a - b).abs() / a.max(b) < 0.05,
            "{}: OAC {} vs POPQC {} diverge",
            family.name(),
            a,
            b
        );
        assert!(oac_stats.oracle_calls > 0 && pq_stats.oracle_calls > 0);
    }
}

#[test]
fn layer_mode_on_benchmarks() {
    // Section 7.8 on a real benchmark family: the mixed objective must not
    // regress, and depth should drop on VQE-style circuits.
    let circuit = Family::Vqe.generate(8, 21);
    let layered = circuit.layered();
    let oracle = LayerSearchOracle::new(MixedDepthGates::default(), 200, circuit.num_qubits);
    let (opt, _) = optimize_layered(&layered, &oracle, &PopqcConfig::with_omega(12));
    assert!(opt.mixed_cost() <= layered.mixed_cost());
    assert!(popqc::sim::circuits_equivalent(
        &circuit,
        &opt.to_circuit(),
        2,
        77
    ));
}

#[test]
fn initial_ordering_variants_all_verify() {
    // Table 4 setting: default vs left-justified vs right-justified inputs.
    let oracle = RuleBasedOptimizer::oracle();
    let cfg = PopqcConfig::with_omega(100);
    let circuit = Family::Sqrt.generate(14, 9);
    for (name, variant) in [
        ("default", circuit.clone()),
        ("left", circuit.left_justified()),
        ("right", circuit.right_justified()),
    ] {
        let (opt, _) = optimize_circuit(&variant, &oracle, &cfg);
        assert!(opt.len() < variant.len(), "{name}: no reduction");
        assert!(
            popqc::sim::circuits_equivalent(&circuit, &opt, 2, 31),
            "{name}: semantics changed"
        );
    }
}

/// `Circuit::fingerprint()` of the three optimizer entry points' outputs on
/// `family.generate(family.ladder(0)[0], 7)`, in `Family::ALL` order:
/// `[oracle().optimize_circuit, modern_baseline().optimize_circuit,
/// optimize_circuit(…, Ω = 100)]`. Outputs are persisted (the store keys
/// results by input fingerprint and oracle id), so a pass rewrite must
/// reproduce them bit for bit; a deliberate change of output regenerates
/// this table *and* bumps `SegmentOracle::version()`.
const PINNED: [[&str; 3]; 10] = [
    // BoolSat
    [
        "d6929dc958d5dd7e549e6830fb096435",
        "d6929dc958d5dd7e549e6830fb096435",
        "e98af1a51f9ed54262d9e033ce39416e",
    ],
    // BWT
    [
        "5e5ef525886b42d32026a40a87aeaf04",
        "d5696f52a2f4438096e639c99a40cb3c",
        "6ddc934e9d461ab34483e9fc066eec10",
    ],
    // Grover
    [
        "ef320b53d705e44f6fea6e06784f7906",
        "ef320b53d705e44f6fea6e06784f7906",
        "ef320b53d705e44f6fea6e06784f7906",
    ],
    // HHL
    [
        "c6bb590e11c558330c285e03abbf60f6",
        "c6bb590e11c558330c285e03abbf60f6",
        "d163461d09af8d35f550685cd912cf64",
    ],
    // Shor
    [
        "e557771fc7830854977ce35e37838065",
        "071c1ec4617b68f91e171c285ed193e0",
        "b8b5a2603b1ed694361d2b09ba204889",
    ],
    // Sqrt
    [
        "56b6a8d3af1c1a6cddf8b83b3d698357",
        "56b6a8d3af1c1a6cddf8b83b3d698357",
        "a4b63c576d95336f1ba210bbd41db560",
    ],
    // StateVec
    [
        "bac8534f731d6ecfcbe0b7ef9341b8e9",
        "bac8534f731d6ecfcbe0b7ef9341b8e9",
        "e71ffde8d2367afe0c0a31b24fc40139",
    ],
    // VQE
    [
        "540076ef5eb7195095d1faaa6c5a72cb",
        "540076ef5eb7195095d1faaa6c5a72cb",
        "f4df8236d34be9db21c62140f537193a",
    ],
    // Skewed
    [
        "6863d6270c8a89cca0036657b1e7dfdb",
        "a86d772c23a436b59978e88bc61c2567",
        "6863d6270c8a89cca0036657b1e7dfdb",
    ],
    // Parameterized
    [
        "d3e05a396e81964fea4e2e99d70716c4",
        "d3e05a396e81964fea4e2e99d70716c4",
        "051313ae6c833ab43811ab3c7ba419a7",
    ],
];

#[test]
fn optimizer_outputs_are_pinned() {
    assert_eq!(PINNED.len(), Family::ALL.len());
    let oracle = RuleBasedOptimizer::oracle();
    let single = RuleBasedOptimizer::modern_baseline();
    let cfg = PopqcConfig::with_omega(100);
    for (family, want) in Family::ALL.into_iter().zip(PINNED) {
        let circuit = family.generate(family.ladder(0)[0], 7);
        let got = [
            oracle.optimize_circuit(&circuit),
            single.optimize_circuit(&circuit),
            optimize_circuit(&circuit, &oracle, &cfg).0,
        ]
        .map(|c| c.fingerprint().to_hex());
        assert_eq!(got, want, "{}: optimizer output changed", family.name());
    }
}
