//! A register can be declared up to `u32::MAX` wires wide, and the passes
//! size per-call state by the width. The rule-based oracles run a segment
//! at the width of the wires it touches, so a few gates on a huge register
//! cost what they cost on a small one, and give the same answer.

use popqc::prelude::{optimize_circuit, Angle, Circuit, Gate, PopqcConfig, RuleBasedOptimizer};
use std::time::{Duration, Instant};

/// The wires of [`wide`], in order.
const WIRES: [u32; 4] = [3, 7, 1_000, u32::MAX - 1];

/// Six gates on [`WIRES`], with a rotation merge, a trailing X on two
/// wires and a CNOT that has to stay.
fn wide() -> Vec<Gate> {
    let big = WIRES[3];
    vec![
        Gate::X(big),
        Gate::Rz(7, Angle::PI_4),
        Gate::Cnot(7, big),
        Gate::X(3),
        Gate::Rz(7, Angle::PI_4),
        Gate::Cnot(1_000, 3),
    ]
}

/// [`wide`] with each wire renamed to its rank: width 4.
fn narrow() -> Vec<Gate> {
    let rank = |q: u32| WIRES.iter().position(|&w| w == q).expect("a wire") as u32;
    wide().into_iter().map(|g| rename(g, rank)).collect()
}

/// `gates` at width 4 renamed back to [`WIRES`].
fn widen(gates: Vec<Gate>) -> Vec<Gate> {
    gates
        .into_iter()
        .map(|g| rename(g, |r| WIRES[r as usize]))
        .collect()
}

fn rename(g: Gate, f: impl Fn(u32) -> u32) -> Gate {
    match g {
        Gate::H(q) => Gate::H(f(q)),
        Gate::X(q) => Gate::X(f(q)),
        Gate::Rz(q, a) => Gate::Rz(f(q), a),
        Gate::Cnot(c, t) => Gate::Cnot(f(c), f(t)),
    }
}

#[test]
fn rule_oracles_on_a_full_width_register_answer_as_at_width_four() {
    let start = Instant::now();
    for (name, oracle) in [
        ("rule_based", RuleBasedOptimizer::oracle()),
        ("rule_single_pass", RuleBasedOptimizer::modern_baseline()),
    ] {
        let want = widen(oracle.run(&narrow(), 4));
        assert!(
            want.len() < wide().len(),
            "{name}: the input has work to do"
        );
        assert_eq!(oracle.run(&wide(), u32::MAX), want, "{name}, direct");
        let full = Circuit {
            num_qubits: u32::MAX,
            gates: wide(),
        };
        assert_eq!(oracle.optimize_circuit(&full).gates, want, "{name}, whole");

        let cfg = PopqcConfig::with_omega(2);
        let at_four = Circuit {
            num_qubits: 4,
            gates: narrow(),
        };
        let want = widen(optimize_circuit(&at_four, &oracle, &cfg).0.gates);
        let (got, stats) = optimize_circuit(&full, &oracle, &cfg);
        assert!(stats.oracle_calls > 1, "{name}: several segments");
        assert_eq!(got.gates, want, "{name}, via optimize_circuit");
    }
    let took = start.elapsed();
    assert!(took < Duration::from_millis(100), "took {took:?}");
}
