//! # qoracle — oracle optimizers for POPQC
//!
//! POPQC (Algorithm 2) is parameterized by an *oracle*: a black-box function
//! `gate array → gate array` that optimizes small segments. The paper uses
//! VOQC (rule-based, fast) as the primary oracle and Quartz (search-based,
//! slow but flexible in its cost function) as a secondary one. This crate
//! provides from-scratch Rust equivalents of both:
//!
//! * [`RuleBasedOptimizer`] — a Nam-et-al.-style pass pipeline (NOT
//!   propagation, Hadamard reduction, single-/two-qubit cancellation with
//!   commutation, phase-polynomial rotation merging). Running the pipeline
//!   once over a whole circuit reproduces the "VOQC baseline"; running it to
//!   fixpoint on 2Ω-segments is the POPQC oracle configuration.
//! * [`SearchOptimizer`] — a bounded best-first search over verified rewrite
//!   rules with a pluggable [`CostFn`], reproducing the Quartz role in the
//!   depth-aware experiments (Section 7.8).
//!
//! Every rewrite used by either optimizer is verified against the `qsim`
//! state-vector simulator in this crate's test suite.
//!
//! The [`SegmentOracle`] trait is the interface the POPQC engine consumes; it
//! is generic over the unit type so the same engine can optimize gate
//! sequences (`Gate`) and layered circuits (`Layer`).

pub mod cost;
pub mod passes;
pub mod rule_based;
pub mod rules;
pub mod search;
pub mod structural;
pub mod well_behaved;

pub use cost::{CostFn, GateCount, MixedDepthGates};
pub use rule_based::RuleBasedOptimizer;
pub use search::{LayerSearchOracle, SearchOptimizer};
pub use structural::StructuralOptimizer;
pub use well_behaved::WellBehavedOracle;

use qcir::Gate;

/// An oracle optimizer over segments of units (gates or layers).
///
/// The engine treats this as the paper's black-box `oracle` function; the
/// only behavioural requirements are the ones the paper states:
///
/// * **determinism** — same input, same output;
/// * **monotonicity** — `cost(optimize(s)) ≤ cost(s)` and
///   `optimize(s).len() ≤ s.len()` (needed by the Lemma 2 potential
///   argument; both built-in oracles enforce it by falling back to their
///   input on non-improvement).
pub trait SegmentOracle<U>: Sync {
    /// Optimizes one segment. `num_qubits` is the width of the enclosing
    /// circuit (segments may mention any wire).
    fn optimize(&self, units: &[U], num_qubits: u32) -> Vec<U>;

    /// The cost the acceptance test compares (Algorithm 3 line 6 uses
    /// `|segment|`; Section 7.8 swaps in `10·depth + gates`).
    fn cost(&self, units: &[U]) -> u64;

    /// Display name for logs and experiment tables.
    fn name(&self) -> &'static str {
        "oracle"
    }

    /// Version tag for *persisted* result caches: an on-disk entry written
    /// under a different version than the running code is invalidated
    /// rather than trusted. The default ties the tag to this crate's
    /// package version plus the oracle's [`name`](Self::name), so bumping
    /// `qoracle` (where the built-in rewrite code lives) retires every
    /// persisted entry; oracles whose behaviour can change independently
    /// of a crate release should override this.
    fn version(&self) -> String {
        format!("{}+{}", env!("CARGO_PKG_VERSION"), self.name())
    }

    /// Declares that this oracle's rewrite decisions depend only on the
    /// *structure* of the segment (gate kinds and operand wires), never on
    /// rotation angle values: for any angle substitution over the input,
    /// the output is the same gate skeleton with the input's angles
    /// carried through positionally. The segment cache uses this
    /// capability to key segments by their angle-abstracted fingerprint
    /// and replay one derived rewrite across a whole parameter sweep;
    /// `false` means the segment cache never serves this oracle (its
    /// jobs run with no cache hook at all).
    ///
    /// Honest-by-default `false` — declaring it wrongly would let the
    /// cache serve a rewrite derived under one angle assignment for a
    /// segment whose correct rewrite differs (e.g. the rule pipeline's
    /// rotation merging drops angles that sum to zero, which is a
    /// value-dependent decision). Only override to `true` if every rewrite
    /// is value-blind, as [`StructuralOptimizer`]'s are.
    fn angle_independent(&self) -> bool {
        false
    }
}

/// A trivial oracle that never changes its input. Useful as a control in
/// tests and ablations (POPQC over `IdentityOracle` must terminate after one
/// sweep with zero accepted optimizations).
pub struct IdentityOracle;

impl SegmentOracle<Gate> for IdentityOracle {
    fn optimize(&self, units: &[Gate], _num_qubits: u32) -> Vec<Gate> {
        units.to_vec()
    }

    fn cost(&self, units: &[Gate]) -> u64 {
        units.len() as u64
    }

    fn name(&self) -> &'static str {
        "identity"
    }

    fn angle_independent(&self) -> bool {
        // Returning the input verbatim is trivially value-blind.
        true
    }
}

/// Exact commutation test for the POPQC gate set, used by the cancellation
/// passes to slide gates past each other. Returns `true` only when the two
/// gates commute as matrices:
///
/// * disjoint qubits;
/// * `RZ` with `RZ` on the same wire;
/// * `RZ(c)` with `CNOT(c, ·)` (diagonal on the control);
/// * `X(t)` with `CNOT(·, t)`;
/// * `CNOT`s sharing a control or sharing a target.
pub fn commutes(a: &Gate, b: &Gate) -> bool {
    if a.independent(b) {
        return true;
    }
    match (*a, *b) {
        (Gate::Rz(q1, _), Gate::Rz(q2, _)) => q1 == q2,
        (Gate::Rz(q, _), Gate::Cnot(c, _)) | (Gate::Cnot(c, _), Gate::Rz(q, _)) => q == c,
        (Gate::X(q), Gate::Cnot(_, t)) | (Gate::Cnot(_, t), Gate::X(q)) => q == t,
        (Gate::X(q1), Gate::X(q2)) => q1 == q2,
        (Gate::H(q1), Gate::H(q2)) => q1 == q2,
        (Gate::Cnot(c1, t1), Gate::Cnot(c2, t2)) => {
            // Overlapping CNOTs commute iff no control hits the other's
            // target; sharing a control or sharing a target is fine.
            c1 != t2 && c2 != t1
        }
        _ => false,
    }
}

#[cfg(test)]
mod commute_tests {
    use super::*;
    use qcir::Angle;

    #[test]
    fn commutation_table() {
        let rz0 = Gate::Rz(0, Angle::PI_4);
        assert!(commutes(&rz0, &Gate::Rz(0, Angle::PI_2)));
        assert!(commutes(&rz0, &Gate::Cnot(0, 1)));
        assert!(!commutes(&rz0, &Gate::Cnot(1, 0)));
        assert!(commutes(&Gate::X(1), &Gate::Cnot(0, 1)));
        assert!(!commutes(&Gate::X(0), &Gate::Cnot(0, 1)));
        assert!(!commutes(&Gate::H(0), &Gate::Cnot(0, 1)));
        assert!(commutes(&Gate::H(0), &Gate::H(0)));
        assert!(!commutes(&Gate::H(0), &Gate::X(0)));
        // CNOTs sharing control / target.
        assert!(commutes(&Gate::Cnot(0, 1), &Gate::Cnot(0, 2)));
        assert!(commutes(&Gate::Cnot(0, 2), &Gate::Cnot(1, 2)));
        assert!(!commutes(&Gate::Cnot(0, 1), &Gate::Cnot(1, 2)));
        assert!(!commutes(&Gate::Cnot(0, 1), &Gate::Cnot(1, 0)));
        assert!(commutes(&Gate::Cnot(0, 1), &Gate::Cnot(2, 3)));
    }
}
