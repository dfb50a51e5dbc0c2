//! The VOQC-style rule-based optimizer: a pipeline of Nam-et-al. passes.
//!
//! Two configurations matter for the paper's experiments:
//!
//! * **baseline** ([`RuleBasedOptimizer::voqc_baseline`]) — one bounded pass
//!   sequence over a whole circuit, mirroring how VOQC executes its pass list
//!   once. Section 7.4 explains why POPQC can *beat* its own oracle's
//!   quality: POPQC re-invokes the oracle on overlapping segments until
//!   nothing improves, effectively running the sequence to convergence.
//! * **oracle** ([`RuleBasedOptimizer::oracle`]) — the same sequence iterated
//!   to fixpoint, used on 2Ω-segments inside POPQC and OAC.

use crate::passes::{
    CancelSingleQubit, CancelTwoQubit, HadamardReduction, NotPropagation, Pass, RotationMerge,
    RotationMergeScan,
};
use crate::SegmentOracle;
use qcir::{Circuit, Gate};
use std::time::Instant;

/// A pipeline of rewrite passes with an iteration bound.
pub struct RuleBasedOptimizer {
    passes: Vec<Box<dyn Pass>>,
    max_rounds: usize,
    /// Stable configuration id; doubles as the optimization service's
    /// cache-key oracle id, so distinct behaviours must carry distinct
    /// labels.
    label: &'static str,
}

impl RuleBasedOptimizer {
    /// The Nam-style pass sequence with the *linear* phase-folding rotation
    /// merge — this reproduction's modernized pipeline: NOT propagation,
    /// Hadamard reduction, single-qubit cancellation, two-qubit
    /// cancellation, rotation merging, then a final cancellation sweep to
    /// clean up what merging exposed.
    fn nam_sequence() -> Vec<Box<dyn Pass>> {
        vec![
            Box::new(NotPropagation),
            Box::new(HadamardReduction),
            Box::new(CancelSingleQubit),
            Box::new(CancelTwoQubit),
            Box::new(RotationMerge),
            Box::new(CancelSingleQubit),
            Box::new(CancelTwoQubit),
        ]
    }

    /// The same sequence with VOQC's *quadratic* per-rotation-scan merge
    /// (see [`RotationMergeScan`]) — the faithful baseline profile.
    fn voqc_sequence(deadline: Option<Instant>) -> Vec<Box<dyn Pass>> {
        vec![
            Box::new(NotPropagation),
            Box::new(HadamardReduction),
            Box::new(CancelSingleQubit),
            Box::new(CancelTwoQubit),
            Box::new(RotationMergeScan { deadline }),
            Box::new(CancelSingleQubit),
            Box::new(CancelTwoQubit),
        ]
    }

    /// Whole-circuit baseline (the "VOQC" column of Tables 1 and 2): one
    /// execution of the pass sequence with VOQC's quadratic rotation-merge
    /// algorithm. `deadline` reproduces the paper's baseline timeout
    /// handling (work is cut off cooperatively once the deadline passes).
    pub fn voqc_baseline_with_deadline(deadline: Option<Instant>) -> RuleBasedOptimizer {
        RuleBasedOptimizer {
            passes: Self::voqc_sequence(deadline),
            max_rounds: 1,
            label: "voqc-baseline",
        }
    }

    /// [`Self::voqc_baseline_with_deadline`] without a deadline.
    pub fn voqc_baseline() -> RuleBasedOptimizer {
        Self::voqc_baseline_with_deadline(None)
    }

    /// A whole-circuit baseline using the modernized linear pipeline — an
    /// ablation showing how much of the Table 1/2 gap is VOQC's pass
    /// asymptotics versus locality/parallelism.
    pub fn modern_baseline() -> RuleBasedOptimizer {
        RuleBasedOptimizer {
            passes: Self::nam_sequence(),
            max_rounds: 1,
            label: "rule-single-pass",
        }
    }

    /// Oracle configuration: iterate the modernized sequence to fixpoint
    /// (bounded at 32 rounds, which no realistic 2Ω-segment approaches).
    pub fn oracle() -> RuleBasedOptimizer {
        RuleBasedOptimizer {
            passes: Self::nam_sequence(),
            max_rounds: 32,
            label: "rule-fixpoint",
        }
    }

    /// Custom iteration bound (ablations).
    pub fn with_rounds(max_rounds: usize) -> RuleBasedOptimizer {
        RuleBasedOptimizer {
            passes: Self::nam_sequence(),
            max_rounds: max_rounds.max(1),
            // Ambiguous across bounds by construction; service users should
            // supply an explicit oracle id for custom-bounded pipelines.
            label: "rule-bounded",
        }
    }

    /// Runs the pipeline on a raw gate sequence. The result never has more
    /// gates than the input.
    ///
    /// When the pipeline converges, the *fixpoint* is returned (rather than
    /// an earlier equal-length intermediate): fixpoints are what makes the
    /// oracle approximately *well-behaved* in the paper's sense — every
    /// sub-segment of a pipeline fixpoint is itself a fixpoint for the
    /// local rewrites, which is what Theorem 7's guarantee leans on.
    pub fn run(&self, gates: &[Gate], num_qubits: u32) -> Vec<Gate> {
        // The shortest sequence seen so far; `None` is the input itself,
        // which is copied only if it is what gets returned.
        let mut best: Option<Vec<Gate>> = None;
        let mut cur = gates.to_vec();
        for round in 1..=self.max_rounds {
            let before = (round > 1).then(|| cur.clone());
            for p in &self.passes {
                cur = p.run(cur, num_qubits);
            }
            let best_len = best.as_deref().unwrap_or(gates).len();
            if cur == before.as_deref().unwrap_or(gates) {
                // Converged. `best` can only tie `cur` here (never beat it,
                // lengths are monotone within the tracked minimum), so
                // prefer the fixpoint.
                if cur.len() <= best_len {
                    return cur;
                }
                break;
            }
            if cur.len() < best_len {
                if round == self.max_rounds {
                    return cur;
                }
                best = Some(cur.clone());
            }
        }
        best.unwrap_or_else(|| gates.to_vec())
    }

    /// Convenience wrapper over [`Circuit`].
    pub fn optimize_circuit(&self, c: &Circuit) -> Circuit {
        Circuit {
            num_qubits: c.num_qubits,
            gates: self.run(&c.gates, c.num_qubits),
        }
    }
}

impl SegmentOracle<Gate> for RuleBasedOptimizer {
    fn optimize(&self, units: &[Gate], num_qubits: u32) -> Vec<Gate> {
        self.run(units, num_qubits)
    }

    fn cost(&self, units: &[Gate]) -> u64 {
        units.len() as u64
    }

    fn name(&self) -> &'static str {
        self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::testutil::random_circuit;
    use qcir::Angle;

    #[test]
    fn pipeline_reduces_redundant_circuit() {
        let mut c = Circuit::new(3);
        // A classic sandwich: X pair split by CNOT, plus an HH pair, plus
        // mergeable rotations.
        c.x(1)
            .cnot(0, 1)
            .x(1)
            .h(2)
            .h(2)
            .rz(0, Angle::PI_4)
            .cnot(0, 2)
            .rz(0, Angle::PI_4);
        let opt = RuleBasedOptimizer::oracle().optimize_circuit(&c);
        assert!(opt.len() <= 3, "expected <= 3 gates, got {:?}", opt.gates);
        assert!(qsim::circuits_equivalent_exact(&c, &opt));
    }

    #[test]
    fn oracle_mode_never_increases_size() {
        for seed in 0..6 {
            let c = random_circuit(5, 120, seed * 31 + 7);
            let opt = RuleBasedOptimizer::oracle().optimize_circuit(&c);
            assert!(opt.len() <= c.len());
            assert!(
                qsim::circuits_equivalent(&c, &opt, 3, seed),
                "seed {seed}: optimizer changed semantics"
            );
        }
    }

    #[test]
    fn fixpoint_beats_single_pass_sometimes() {
        // Aggregate over seeds: fixpoint must never be worse, and must win
        // at least once on redundancy-dense random circuits.
        let mut strictly_better = 0;
        for seed in 0..12 {
            let c = random_circuit(4, 150, seed * 101 + 13);
            let single = RuleBasedOptimizer::modern_baseline().optimize_circuit(&c);
            let fixed = RuleBasedOptimizer::oracle().optimize_circuit(&c);
            assert!(fixed.len() <= single.len(), "fixpoint worse on seed {seed}");
            if fixed.len() < single.len() {
                strictly_better += 1;
            }
        }
        assert!(
            strictly_better > 0,
            "fixpoint never beat single pass on any seed"
        );
    }

    #[test]
    fn idempotent_at_fixpoint() {
        let c = random_circuit(4, 100, 99);
        let o = RuleBasedOptimizer::oracle();
        let once = o.optimize_circuit(&c);
        let twice = o.optimize_circuit(&once);
        assert_eq!(once, twice, "oracle output should be a fixpoint");
    }

    #[test]
    fn run_returns_what_the_copying_loop_returned() {
        // `run` as it was when it cloned `best` and `before` every round.
        fn copying_run(o: &RuleBasedOptimizer, gates: &[Gate], num_qubits: u32) -> Vec<Gate> {
            let mut best = gates.to_vec();
            let mut cur = gates.to_vec();
            for _ in 0..o.max_rounds {
                let before = cur.clone();
                for p in &o.passes {
                    cur = p.run(cur, num_qubits);
                }
                if cur.len() < best.len() {
                    best = cur.clone();
                }
                if cur == before {
                    return if cur.len() <= best.len() { cur } else { best };
                }
            }
            best
        }
        // Bounds 1–3 mostly stop short of the fixpoint (the `max_rounds`
        // exit, with and without a shorter last round), 32 converges.
        for rounds in [1, 2, 3, 32] {
            let o = RuleBasedOptimizer::with_rounds(rounds);
            for seed in 0..8 {
                let c = random_circuit(5, 200, seed * 53 + 1);
                assert_eq!(
                    o.run(&c.gates, 5),
                    copying_run(&o, &c.gates, 5),
                    "bound {rounds}, seed {seed}"
                );
            }
            // Already a fixpoint: the input comes back.
            let fixed = RuleBasedOptimizer::oracle().run(&random_circuit(5, 200, 9).gates, 5);
            assert_eq!(o.run(&fixed, 5), fixed);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let o = RuleBasedOptimizer::oracle();
        assert!(o.run(&[], 4).is_empty());
        assert_eq!(o.run(&[Gate::H(0)], 1), vec![Gate::H(0)]);
    }
}
