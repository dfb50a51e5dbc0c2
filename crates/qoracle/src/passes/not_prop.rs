//! NOT-gate propagation (Nam et al. §4.1).
//!
//! Pauli-X gates are pushed to the end of the (sub)circuit in a single
//! linear sweep, using the exact propagation identities
//!
//! * `X(q)·H(q)      = H(q)·Z(q)` (Z emitted as `RZ(π)`, a global phase away),
//! * `X(q)·RZ(q,θ)   = RZ(q,−θ)·X(q)`,
//! * `X(t)·CNOT(c,t) = CNOT(c,t)·X(t)`,
//! * `X(c)·CNOT(c,t) = CNOT(c,t)·X(c)·X(t)`,
//!
//! maintaining one pending-X bit per wire. Pairs of X gates annihilate on the
//! fly; surviving bits are emitted at the very end, where the cancellation
//! passes frequently remove them against later segments.

use super::Pass;
use qcir::{Angle, Gate};

/// The NOT propagation pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct NotPropagation;

impl Pass for NotPropagation {
    fn name(&self) -> &'static str {
        "not-propagation"
    }

    fn run(&self, gates: Vec<Gate>, num_qubits: u32) -> (Vec<Gate>, bool) {
        let mut pending = vec![false; num_qubits as usize];
        let mut out = Vec::with_capacity(gates.len());
        // Whether some emitted gate differs from the input gate at its
        // position: with the final length check, exactly "output differs".
        // Trailing X gates that come back in the same order count as
        // unchanged, so a propagated segment is a fixpoint of this pass.
        let mut changed = false;
        let mut emit = |out: &mut Vec<Gate>, g: Gate| {
            changed |= gates.get(out.len()) != Some(&g);
            out.push(g);
        };
        for &g in &gates {
            match g {
                Gate::X(q) => {
                    pending[q as usize] = !pending[q as usize];
                }
                Gate::H(q) => {
                    emit(&mut out, Gate::H(q));
                    if pending[q as usize] {
                        // X then H  =  H then Z.
                        emit(&mut out, Gate::Rz(q, Angle::PI));
                        pending[q as usize] = false;
                    }
                }
                Gate::Rz(q, a) => {
                    if pending[q as usize] {
                        if !a.is_zero() {
                            emit(&mut out, Gate::Rz(q, -a));
                        }
                    } else if !a.is_zero() {
                        emit(&mut out, Gate::Rz(q, a));
                    }
                }
                Gate::Cnot(c, t) => {
                    emit(&mut out, g);
                    // X on the control copies onto the target; X on the
                    // target commutes through.
                    if pending[c as usize] {
                        pending[t as usize] = !pending[t as usize];
                    }
                }
            }
        }
        for (q, p) in pending.into_iter().enumerate() {
            if p {
                emit(&mut out, Gate::X(q as u32));
            }
        }
        let changed = changed || out.len() != gates.len();
        (out, changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::Circuit;

    fn run(c: &Circuit) -> Vec<Gate> {
        NotPropagation.run(c.gates.clone(), c.num_qubits).0
    }

    #[test]
    fn xx_annihilates() {
        let mut c = Circuit::new(1);
        c.x(0).x(0);
        assert!(run(&c).is_empty());
    }

    #[test]
    fn x_through_h_becomes_z() {
        let mut c = Circuit::new(1);
        c.x(0).h(0);
        assert_eq!(run(&c), vec![Gate::H(0), Gate::Rz(0, Angle::PI)]);
    }

    #[test]
    fn x_through_rz_negates_angle() {
        let mut c = Circuit::new(1);
        c.x(0).rz(0, Angle::PI_4).x(0);
        assert_eq!(run(&c), vec![Gate::Rz(0, Angle::SEVEN_PI_4)]);
    }

    #[test]
    fn x_on_control_copies_to_target() {
        let mut c = Circuit::new(2);
        c.x(0).cnot(0, 1);
        let out = run(&c);
        assert_eq!(out[0], Gate::Cnot(0, 1));
        assert_eq!(out.len(), 3);
        assert!(out.contains(&Gate::X(0)));
        assert!(out.contains(&Gate::X(1)));
    }

    #[test]
    fn x_on_target_commutes() {
        let mut c = Circuit::new(2);
        c.x(1).cnot(0, 1);
        assert_eq!(run(&c), vec![Gate::Cnot(0, 1), Gate::X(1)]);
    }

    #[test]
    fn sandwiched_xs_cancel_through_cnots() {
        // X(0) CNOT(0,1) X(0) leaves CNOT(0,1) X(1) after propagation.
        let mut c = Circuit::new(2);
        c.x(0).cnot(0, 1).x(0);
        let out = run(&c);
        assert_eq!(out, vec![Gate::Cnot(0, 1), Gate::X(1)]);
    }

    #[test]
    fn semantics_preserved_on_random_circuits() {
        for seed in 0..10 {
            let c = super::super::testutil::random_circuit(4, 60, seed * 13 + 5);
            let out = Circuit {
                num_qubits: 4,
                gates: run(&c),
            };
            assert!(
                qsim::circuits_equivalent(&c, &out, 3, seed ^ 0x77),
                "seed {seed}: pass changed semantics"
            );
        }
    }
}
