//! The four-gate ISA of the paper: H, X, RZ, CNOT.

use crate::angle::Angle;
use std::fmt;

/// Index of a qubit wire within a circuit.
pub type Qubit = u32;

/// A quantum gate from the VOQC gate set used throughout the paper:
/// Hadamard, Pauli-X, Z-rotation, and controlled-NOT.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Gate {
    /// Hadamard on one qubit.
    H(Qubit),
    /// Pauli-X (NOT) on one qubit.
    X(Qubit),
    /// Z-rotation `RZ(θ) = diag(e^{-iθ/2}, e^{iθ/2})` on one qubit.
    Rz(Qubit, Angle),
    /// Controlled-NOT with `(control, target)`.
    Cnot(Qubit, Qubit),
}

impl Gate {
    /// The qubits this gate acts on, as `(first, second)`;
    /// `second` is `None` for single-qubit gates.
    #[inline]
    pub fn qubits(&self) -> (Qubit, Option<Qubit>) {
        match *self {
            Gate::H(q) | Gate::X(q) | Gate::Rz(q, _) => (q, None),
            Gate::Cnot(c, t) => (c, Some(t)),
        }
    }

    /// `true` iff the gate acts on qubit `q`.
    #[inline]
    pub fn acts_on(&self, q: Qubit) -> bool {
        match *self {
            Gate::H(a) | Gate::X(a) | Gate::Rz(a, _) => a == q,
            Gate::Cnot(c, t) => c == q || t == q,
        }
    }

    /// Largest qubit index mentioned by the gate.
    #[inline]
    pub fn max_qubit(&self) -> Qubit {
        match *self {
            Gate::H(q) | Gate::X(q) | Gate::Rz(q, _) => q,
            Gate::Cnot(c, t) => c.max(t),
        }
    }

    /// Two gates are *independent* (Section 2.2) iff they act on disjoint
    /// qubit sets; independent gates commute and may share a layer.
    #[inline]
    pub fn independent(&self, other: &Gate) -> bool {
        let (a1, a2) = self.qubits();
        !(other.acts_on(a1) || a2.is_some_and(|q| other.acts_on(q)))
    }

    /// `true` iff `self · other = I`, used for adjacent-pair cancellation.
    /// `RZ` pairs cancel when their angles sum to 0 (mod 2π).
    #[inline]
    pub fn is_inverse_of(&self, other: &Gate) -> bool {
        match (*self, *other) {
            (Gate::H(a), Gate::H(b)) | (Gate::X(a), Gate::X(b)) => a == b,
            (Gate::Rz(a, t1), Gate::Rz(b, t2)) => a == b && t2 == -t1,
            (Gate::Cnot(c1, t1), Gate::Cnot(c2, t2)) => c1 == c2 && t1 == t2,
            _ => false,
        }
    }

    /// `true` iff the gate is the identity (only `RZ(0)` qualifies).
    #[inline]
    pub fn is_identity(&self) -> bool {
        matches!(*self, Gate::Rz(_, a) if a.is_zero())
    }

    /// `true` for two-qubit gates (CNOT).
    #[inline]
    pub fn is_two_qubit(&self) -> bool {
        matches!(*self, Gate::Cnot(..))
    }

    /// The gate's own inverse (every gate in this set has one in the set).
    #[inline]
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::Rz(q, a) => Gate::Rz(q, -a),
            g => g,
        }
    }

    /// Short mnemonic used in histograms and QASM output.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::H(_) => "h",
            Gate::X(_) => "x",
            Gate::Rz(..) => "rz",
            Gate::Cnot(..) => "cx",
        }
    }
}

impl fmt::Debug for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::H(q) => write!(f, "H({q})"),
            Gate::X(q) => write!(f, "X({q})"),
            Gate::Rz(q, a) => write!(f, "Rz({q}, {a})"),
            Gate::Cnot(c, t) => write!(f, "Cnot({c}, {t})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubits_and_acts_on() {
        assert_eq!(Gate::H(3).qubits(), (3, None));
        assert_eq!(Gate::Cnot(1, 4).qubits(), (1, Some(4)));
        assert!(Gate::Cnot(1, 4).acts_on(1));
        assert!(Gate::Cnot(1, 4).acts_on(4));
        assert!(!Gate::Cnot(1, 4).acts_on(2));
        assert!(Gate::Rz(0, Angle::PI).acts_on(0));
    }

    #[test]
    fn independence() {
        assert!(Gate::H(0).independent(&Gate::H(1)));
        assert!(!Gate::H(0).independent(&Gate::H(0)));
        assert!(!Gate::Cnot(0, 1).independent(&Gate::X(1)));
        assert!(Gate::Cnot(0, 1).independent(&Gate::Cnot(2, 3)));
        assert!(!Gate::Cnot(0, 1).independent(&Gate::Cnot(1, 2)));
    }

    #[test]
    fn inverses() {
        assert!(Gate::H(2).is_inverse_of(&Gate::H(2)));
        assert!(!Gate::H(2).is_inverse_of(&Gate::H(3)));
        assert!(Gate::X(0).is_inverse_of(&Gate::X(0)));
        assert!(Gate::Cnot(0, 1).is_inverse_of(&Gate::Cnot(0, 1)));
        assert!(!Gate::Cnot(0, 1).is_inverse_of(&Gate::Cnot(1, 0)));
        assert!(Gate::Rz(0, Angle::PI_4).is_inverse_of(&Gate::Rz(0, Angle::SEVEN_PI_4)));
        assert!(!Gate::Rz(0, Angle::PI_4).is_inverse_of(&Gate::Rz(0, Angle::PI_4)));
        for g in [
            Gate::H(1),
            Gate::X(2),
            Gate::Rz(0, Angle::PI_4),
            Gate::Cnot(3, 5),
        ] {
            assert!(g.is_inverse_of(&g.inverse()));
        }
    }

    #[test]
    fn identity_detection() {
        assert!(Gate::Rz(0, Angle::ZERO).is_identity());
        assert!(!Gate::Rz(0, Angle::PI).is_identity());
        assert!(!Gate::H(0).is_identity());
    }
}
