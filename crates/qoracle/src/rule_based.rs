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
    /// `kinds[i]` is the first slot whose pass has the same name as pass
    /// `i`'s: same-named passes compute the same function, so a sequence
    /// one of them left unchanged needs no visit from the other.
    kinds: Vec<usize>,
    max_rounds: usize,
    /// Stable configuration id; doubles as the optimization service's
    /// cache-key oracle id, so distinct behaviours must carry distinct
    /// labels.
    label: &'static str,
}

impl RuleBasedOptimizer {
    fn new(passes: Vec<Box<dyn Pass>>, max_rounds: usize, label: &'static str) -> Self {
        let kinds = (0..passes.len())
            .map(|i| {
                (0..i)
                    .find(|&j| passes[j].name() == passes[i].name())
                    .unwrap_or(i)
            })
            .collect();
        RuleBasedOptimizer {
            passes,
            kinds,
            max_rounds,
            label,
        }
    }

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
        Self::new(Self::voqc_sequence(deadline), 1, "voqc-baseline")
    }

    /// [`Self::voqc_baseline_with_deadline`] without a deadline.
    pub fn voqc_baseline() -> RuleBasedOptimizer {
        Self::voqc_baseline_with_deadline(None)
    }

    /// A whole-circuit baseline using the modernized linear pipeline — an
    /// ablation showing how much of the Table 1/2 gap is VOQC's pass
    /// asymptotics versus locality/parallelism.
    pub fn modern_baseline() -> RuleBasedOptimizer {
        Self::new(Self::nam_sequence(), 1, "rule-single-pass")
    }

    /// Oracle configuration: iterate the modernized sequence to fixpoint
    /// (bounded at 32 rounds, which no realistic 2Ω-segment approaches).
    pub fn oracle() -> RuleBasedOptimizer {
        Self::new(Self::nam_sequence(), 32, "rule-fixpoint")
    }

    /// Custom iteration bound (ablations).
    pub fn with_rounds(max_rounds: usize) -> RuleBasedOptimizer {
        // The label is ambiguous across bounds by construction; service
        // users should supply an explicit oracle id for custom-bounded
        // pipelines.
        Self::new(Self::nam_sequence(), max_rounds.max(1), "rule-bounded")
    }

    /// Runs the pipeline on a raw gate sequence. The result never has more
    /// gates than the input.
    ///
    /// When the pipeline converges, the *fixpoint* is returned (rather than
    /// an earlier equal-length intermediate): fixpoints are what makes the
    /// oracle approximately *well-behaved* in the paper's sense — every
    /// sub-segment of a pipeline fixpoint is itself a fixpoint for the
    /// local rewrites, which is what Theorem 7's guarantee leans on.
    ///
    /// Passes are deterministic, so a pass that left a sequence unchanged
    /// would leave it unchanged again. `run` numbers the sequences it
    /// passes through (the version goes up on every change a pass
    /// reports) and skips any pass whose kind already left the current
    /// version unchanged. A round in which no pass reports a change has
    /// converged; after any other round the sequence is compared with the
    /// round's start, so cycles and the round bound behave as if every
    /// pass ran.
    ///
    /// The passes size per-call state by the width. A segment touches at
    /// most two wires per gate, so when `num_qubits` is larger than that
    /// the segment's wires are renamed to their ranks, the pipeline runs
    /// at that compact width, and the output is renamed back. The renaming
    /// keeps wire order, so the output is what the full width gives.
    pub fn run(&self, gates: &[Gate], num_qubits: u32) -> Vec<Gate> {
        if num_qubits as usize <= 2 * gates.len() {
            return self.run_at_width(gates, num_qubits);
        }
        let mut wires: Vec<u32> = gates
            .iter()
            .flat_map(|g| {
                let (a, b) = g.qubits();
                [Some(a), b]
            })
            .flatten()
            .collect();
        wires.sort_unstable();
        wires.dedup();
        let rank = |q: u32| wires.binary_search(&q).expect("a wire of the segment") as u32;
        let narrow: Vec<Gate> = gates.iter().map(|&g| rename(g, rank)).collect();
        self.run_at_width(&narrow, wires.len() as u32)
            .into_iter()
            .map(|g| rename(g, |r| wires[r as usize]))
            .collect()
    }

    /// [`Self::run`] with every wire of `gates` below `num_qubits`.
    fn run_at_width(&self, gates: &[Gate], num_qubits: u32) -> Vec<Gate> {
        // The shortest sequence seen so far; `None` is the input itself,
        // which is copied only if it is what gets returned.
        let mut best: Option<Vec<Gate>> = None;
        let mut cur = gates.to_vec();
        let mut version = 0u64;
        // Per kind, the version it last left unchanged.
        let mut clean = vec![u64::MAX; self.passes.len()];
        for round in 1..=self.max_rounds {
            let before = (round > 1).then(|| cur.clone());
            let start = version;
            for (p, &kind) in self.passes.iter().zip(&self.kinds) {
                if clean[kind] == version {
                    continue;
                }
                let changed;
                (cur, changed) = p.run(cur, num_qubits);
                if changed {
                    version += 1;
                } else {
                    clean[kind] = version;
                }
            }
            let best_len = best.as_deref().unwrap_or(gates).len();
            if version == start || cur == before.as_deref().unwrap_or(gates) {
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

/// `g` with each wire `q` replaced by `f(q)`.
fn rename(g: Gate, f: impl Fn(u32) -> u32) -> Gate {
    match g {
        Gate::H(q) => Gate::H(f(q)),
        Gate::X(q) => Gate::X(f(q)),
        Gate::Rz(q, a) => Gate::Rz(f(q), a),
        Gate::Cnot(c, t) => Gate::Cnot(f(c), f(t)),
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
    use crate::passes::testutil::{family_segments, random_circuit};
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
        // `run` as it was when it ran every pass and cloned `best` and
        // `before` every round.
        fn copying_run(o: &RuleBasedOptimizer, gates: &[Gate], num_qubits: u32) -> Vec<Gate> {
            let mut best = gates.to_vec();
            let mut cur = gates.to_vec();
            for _ in 0..o.max_rounds {
                let before = cur.clone();
                for p in &o.passes {
                    cur = p.run(cur, num_qubits).0;
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
            for (k, (gates, n)) in family_segments().iter().enumerate() {
                assert_eq!(
                    o.run(gates, *n),
                    copying_run(&o, gates, *n),
                    "bound {rounds}, family segment {k}"
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
