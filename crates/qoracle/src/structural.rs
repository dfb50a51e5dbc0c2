//! The structural oracle: a value-blind rewrite pipeline whose decisions
//! depend only on gate *kinds and operand wires*, never on rotation angle
//! values — the honest bearer of the
//! [`SegmentOracle::angle_independent`] capability.
//!
//! Parameterized (VQE/QAOA-style) clients resubmit the same ansatz with
//! fresh angles every iteration. An angle-independent oracle lets the
//! segment cache key those segments by their *angle-abstracted*
//! fingerprint, so every iteration after the first reuses the oracle's
//! rewrite as a template instead of re-deriving it. The full rule
//! pipeline cannot make that promise: rotation merging sums angle values
//! and drops the ones that cancel to zero, and NOT propagation negates
//! them — both are value-dependent rewrites. Even the shared pass plumbing
//! is value-dependent: `passes::compact` silently drops `RZ(0)` identity
//! rotations, so this module carries its own compaction that preserves
//! every rotation verbatim.
//!
//! The one rewrite family that survives the value-blindness requirement is
//! self-inverse pair cancellation (`H·H = X·X = CNOT·CNOT = I`), sliding
//! the left partner past provably commuting gates — [`crate::commutes`]
//! itself only inspects kinds and wires. `RZ` gates are slid past but
//! never sourced, merged, or dropped, so the output carries every input
//! rotation through unchanged (same relative order per wire, same
//! values). That is what makes the template-replay scheme sound:
//! re-running this oracle on the same structure with different angles
//! yields the same gate skeleton with the angles carried through by
//! position.

use crate::passes::Pass;
use crate::{commutes, SegmentOracle};
use qcir::{Circuit, Gate};

/// Value-blind compaction: drops tombstones only. Unlike
/// `passes::compact` it keeps identity rotations (`RZ(0)`) — deleting
/// them would be a decision made by *reading* an angle value. The flag is
/// whether a tombstone was dropped, which for a pass that only cancels
/// pairs is exactly whether the output differs from the input.
fn compact_blind(slots: Vec<Option<Gate>>) -> (Vec<Gate>, bool) {
    let len = slots.len();
    let out: Vec<Gate> = slots.into_iter().flatten().collect();
    let changed = out.len() < len;
    (out, changed)
}

/// Cancellation of adjacent-up-to-commutation self-inverse pairs (`H`,
/// `X`, and `CNOT` — every non-rotation gate in the ISA is its own
/// inverse). A pair cancels only when the partner is the *identical*
/// gate; `RZ` is never sourced.
#[derive(Clone, Copy, Debug, Default)]
pub struct CancelSelfInverse;

impl Pass for CancelSelfInverse {
    fn name(&self) -> &'static str {
        "cancel-self-inverse"
    }

    fn run(&self, gates: Vec<Gate>, _num_qubits: u32) -> (Vec<Gate>, bool) {
        let mut slots: Vec<Option<Gate>> = gates.into_iter().map(Some).collect();
        for i in 0..slots.len() {
            let Some(g) = slots[i] else { continue };
            if matches!(g, Gate::Rz(..)) {
                continue;
            }
            let (a, b) = g.qubits();
            for j in i + 1..slots.len() {
                let Some(h) = slots[j] else { continue };
                if !h.acts_on(a) && !b.is_some_and(|b| h.acts_on(b)) {
                    continue;
                }
                if h == g {
                    slots[i] = None;
                    slots[j] = None;
                    break;
                }
                if commutes(&g, &h) {
                    continue;
                }
                break;
            }
        }
        compact_blind(slots)
    }
}

/// [`CancelSelfInverse`] iterated to fixpoint, as a [`SegmentOracle`]
/// that declares [`angle_independent`](SegmentOracle::angle_independent).
///
/// Weaker than `rule_based` on angle-heavy circuits (it never merges or
/// drops rotations) but every rewrite it performs is decided by structure
/// alone, so a cached rewrite transfers to *every* angle assignment of
/// the same skeleton.
pub struct StructuralOptimizer {
    pass: CancelSelfInverse,
    max_rounds: usize,
}

impl Default for StructuralOptimizer {
    fn default() -> Self {
        StructuralOptimizer::new()
    }
}

impl StructuralOptimizer {
    /// The fixpoint configuration (bounded at 32 rounds, matching the
    /// rule oracle's bound; the pass only deletes gates, so no realistic
    /// 2Ω-segment approaches the bound).
    pub fn new() -> StructuralOptimizer {
        StructuralOptimizer {
            pass: CancelSelfInverse,
            max_rounds: 32,
        }
    }

    /// Runs the pass until it reports no change (or for `max_rounds`).
    pub fn run(&self, gates: &[Gate], num_qubits: u32) -> Vec<Gate> {
        let mut cur = gates.to_vec();
        for _ in 0..self.max_rounds {
            let changed;
            (cur, changed) = self.pass.run(cur, num_qubits);
            if !changed {
                break;
            }
        }
        cur
    }

    /// Convenience wrapper over [`Circuit`].
    pub fn optimize_circuit(&self, c: &Circuit) -> Circuit {
        Circuit {
            num_qubits: c.num_qubits,
            gates: self.run(&c.gates, c.num_qubits),
        }
    }
}

impl SegmentOracle<Gate> for StructuralOptimizer {
    fn optimize(&self, units: &[Gate], num_qubits: u32) -> Vec<Gate> {
        self.run(units, num_qubits)
    }

    fn cost(&self, units: &[Gate]) -> u64 {
        units.len() as u64
    }

    fn name(&self) -> &'static str {
        "structural"
    }

    fn angle_independent(&self) -> bool {
        // The capability this oracle exists to carry honestly: the pass
        // never sources an `RZ`, its compaction keeps `RZ(0)`, and
        // `commutes` inspects kinds/wires only.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::testutil::random_circuit;
    use qcir::Angle;

    #[test]
    fn cancels_hh_xx_and_cnot_pairs() {
        let mut c = Circuit::new(3);
        c.h(0)
            .h(0)
            .x(1)
            .cnot(0, 2)
            .x(1)
            .cnot(0, 2)
            .rz(2, Angle::PI_4);
        let opt = StructuralOptimizer::new().optimize_circuit(&c);
        assert_eq!(opt.gates, vec![Gate::Rz(2, Angle::PI_4)]);
        assert!(qsim::circuits_equivalent_exact(&c, &opt));
    }

    #[test]
    fn rotations_pass_through_untouched() {
        // Even a zero rotation and a mergeable pair survive: the pipeline
        // must never read (or act on) angle values.
        let mut c = Circuit::new(2);
        c.rz(0, Angle::ZERO).rz(0, Angle::PI_4).rz(0, Angle::PI_4);
        let opt = StructuralOptimizer::new().optimize_circuit(&c);
        assert_eq!(opt.gates, c.gates);
    }

    #[test]
    fn slides_past_commuting_gates_to_cancel() {
        // X(1) commutes with CNOT(0, 1) (target side) and with RZ on a
        // disjoint wire, so the X pair cancels across both.
        let mut c = Circuit::new(2);
        c.x(1).cnot(0, 1).rz(0, Angle::PI_2).x(1);
        let opt = StructuralOptimizer::new().optimize_circuit(&c);
        assert_eq!(opt.gates, vec![Gate::Cnot(0, 1), Gate::Rz(0, Angle::PI_2)]);
        assert!(qsim::circuits_equivalent_exact(&c, &opt));
    }

    #[test]
    fn output_skeleton_is_angle_invariant() {
        // The property the segment cache's template replay leans on: for
        // circuits differing only in rotation values, the output is the
        // same skeleton with angles carried through by position.
        let orc = StructuralOptimizer::new();
        for seed in 0..6u64 {
            let base = random_circuit(4, 80, seed * 13 + 3);
            let mut substituted = base.clone();
            let mut k = 0i64;
            for g in &mut substituted.gates {
                if let Gate::Rz(q, _) = *g {
                    k += 1;
                    *g = Gate::Rz(q, Angle::pi_frac(k, 1 + k * 2));
                }
            }
            let out_a = orc.run(&base.gates, 4);
            let out_b = orc.run(&substituted.gates, 4);
            assert_eq!(out_a.len(), out_b.len(), "seed {seed}: skeletons diverged");
            for (a, b) in out_a.iter().zip(&out_b) {
                match (a, b) {
                    (Gate::Rz(qa, _), Gate::Rz(qb, _)) => assert_eq!(qa, qb),
                    (a, b) => assert_eq!(a, b, "seed {seed}: non-rotation gates diverged"),
                }
            }
        }
    }

    #[test]
    fn semantics_preserved_and_never_grows_on_random_circuits() {
        let orc = StructuralOptimizer::new();
        for seed in 0..8u64 {
            let c = random_circuit(4, 100, seed * 31 + 11);
            let opt = orc.optimize_circuit(&c);
            assert!(opt.len() <= c.len());
            assert!(
                qsim::circuits_equivalent(&c, &opt, 3, seed ^ 0xA11CE),
                "seed {seed}: structural oracle changed semantics"
            );
        }
    }

    #[test]
    fn capability_flags_are_honest_by_default() {
        assert!(StructuralOptimizer::new().angle_independent());
        assert!(!crate::RuleBasedOptimizer::oracle().angle_independent());
        assert!(!crate::SearchOptimizer::new(crate::GateCount, 100).angle_independent());
        assert!(crate::IdentityOracle.angle_independent());
    }
}
