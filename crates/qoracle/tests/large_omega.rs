//! Ω may be as large as the word, and at Ω ≥ n the engine hands the whole
//! circuit to a single oracle call. Every pass of `rule_based` is then run
//! on all n gates at once, so none of them may be quadratic in the length.

use popqc::prelude::{optimize_circuit, Circuit, Gate, PopqcConfig, RuleBasedOptimizer};
use std::time::{Duration, Instant};

/// 2^15 CNOTs on disjoint pairs of a 2^16-wire register: nothing to do.
fn disjoint_pairs() -> Circuit {
    let n = 1u32 << 15;
    Circuit {
        num_qubits: 2 * n,
        gates: (0..n).map(|i| Gate::Cnot(2 * i, 2 * i + 1)).collect(),
    }
}

#[test]
fn one_oracle_call_over_the_whole_circuit_stays_near_linear() {
    let circuit = disjoint_pairs();
    let cfg = PopqcConfig::with_omega(circuit.len());
    let start = Instant::now();
    let (out, stats) = optimize_circuit(&circuit, &RuleBasedOptimizer::oracle(), &cfg);
    let took = start.elapsed();
    assert_eq!(out.gates, circuit.gates);
    assert_eq!(stats.oracle_calls, 1);
    assert!(took < Duration::from_secs(1), "took {took:?}");
}
