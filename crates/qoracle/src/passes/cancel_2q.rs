//! Two-qubit (CNOT) gate cancellation with commutation (Nam et al. §4.2).
//!
//! For each CNOT, walk forward sliding past provably commuting gates
//! (rotations on the control, X/CNOTs sharing the target, CNOTs sharing the
//! control, disjoint gates) and cancel with an identical CNOT. The pass
//! rewrites its input in place: a cancelled pair is tombstoned
//! (`Tombstones`), and a call that cancels nothing returns its input.

use super::{Pass, Tombstones};
use crate::commutes;
use qcir::Gate;

/// The CNOT cancellation pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct CancelTwoQubit;

impl Pass for CancelTwoQubit {
    fn name(&self) -> &'static str {
        "cancel-2q"
    }

    fn run(&self, gates: Vec<Gate>, _num_qubits: u32) -> (Vec<Gate>, bool) {
        let len = gates.len();
        let mut dead = Tombstones::default();
        let mut identity = false;
        for i in 0..len {
            let g = gates[i];
            let Gate::Cnot(c, t) = g else {
                identity |= g.is_identity();
                continue;
            };
            if dead.is_dead(i) {
                continue;
            }
            for (j, &h) in gates.iter().enumerate().skip(i + 1) {
                if !(h.acts_on(c) || h.acts_on(t)) || dead.is_dead(j) {
                    continue;
                }
                if h == g {
                    dead.kill(i, len);
                    dead.kill(j, len);
                    break;
                }
                if commutes(&g, &h) {
                    continue;
                }
                break;
            }
        }
        dead.compact(gates, identity)
    }
}

#[cfg(test)]
mod tests {
    use super::super::compact;
    use super::super::testutil::{cancellation_inputs, family_segments, hand_cases, random_inputs};
    use super::*;
    use qcir::{Angle, Circuit};

    fn run(c: &Circuit) -> Vec<Gate> {
        CancelTwoQubit.run(c.gates.clone(), c.num_qubits).0
    }

    /// The pass as it stood before the in-place rewrite: the same walks
    /// over a tombstoned copy of the input. The differential tests hold the
    /// pass to this, output for output and flag for flag.
    fn reference_run(gates: &[Gate]) -> (Vec<Gate>, bool) {
        let mut slots: Vec<Option<Gate>> = gates.iter().copied().map(Some).collect();
        for i in 0..slots.len() {
            let Some(g @ Gate::Cnot(c, t)) = slots[i] else {
                continue;
            };
            for j in i + 1..slots.len() {
                let Some(h) = slots[j] else { continue };
                if !(h.acts_on(c) || h.acts_on(t)) {
                    continue;
                }
                if let Gate::Cnot(c2, t2) = h {
                    if c2 == c && t2 == t {
                        slots[i] = None;
                        slots[j] = None;
                        break;
                    }
                }
                if commutes(&g, &h) {
                    continue;
                }
                break;
            }
        }
        compact(slots)
    }

    fn assert_matches_reference(gates: &[Gate], num_qubits: u32) {
        for input in cancellation_inputs(gates, num_qubits) {
            assert_eq!(
                CancelTwoQubit.run(input.clone(), num_qubits),
                reference_run(&input),
                "on {input:?}"
            );
        }
    }

    #[test]
    fn matches_reference_on_random_inputs_and_family_segments() {
        for (gates, n) in random_inputs().iter().chain(family_segments()) {
            assert_matches_reference(gates, *n);
        }
    }

    #[test]
    fn matches_reference_on_hand_cases() {
        for (gates, n) in hand_cases() {
            assert_matches_reference(&gates, n);
        }
    }

    #[test]
    fn adjacent_pair_cancels() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1).cnot(0, 1);
        assert!(run(&c).is_empty());
    }

    #[test]
    fn reversed_pair_does_not_cancel() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1).cnot(1, 0);
        assert_eq!(run(&c).len(), 2);
    }

    #[test]
    fn cancels_across_rz_on_control() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1).rz(0, Angle::PI_4).cnot(0, 1);
        let out = run(&c);
        assert_eq!(out, vec![Gate::Rz(0, Angle::PI_4)]);
    }

    #[test]
    fn cancels_across_x_on_target() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1).x(1).cnot(0, 1);
        assert_eq!(run(&c), vec![Gate::X(1)]);
    }

    #[test]
    fn cancels_across_shared_control_cnot() {
        let mut c = Circuit::new(3);
        c.cnot(0, 1).cnot(0, 2).cnot(0, 1);
        let out = run(&c);
        assert_eq!(out, vec![Gate::Cnot(0, 2)]);
    }

    #[test]
    fn cancels_across_shared_target_cnot() {
        let mut c = Circuit::new(3);
        c.cnot(0, 2).cnot(1, 2).cnot(0, 2);
        let out = run(&c);
        assert_eq!(out, vec![Gate::Cnot(1, 2)]);
    }

    #[test]
    fn blocked_by_h_on_target() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1).h(1).cnot(0, 1);
        assert_eq!(run(&c).len(), 3);
    }

    #[test]
    fn blocked_by_rz_on_target() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1).rz(1, Angle::PI_4).cnot(0, 1);
        assert_eq!(run(&c).len(), 3);
    }

    #[test]
    fn semantics_preserved_on_random_circuits() {
        for seed in 0..8 {
            let c = super::super::testutil::random_circuit(4, 60, seed * 7 + 1);
            let out = Circuit {
                num_qubits: 4,
                gates: run(&c),
            };
            assert!(out.len() <= c.len());
            assert!(
                qsim::circuits_equivalent(&c, &out, 3, seed ^ 0x5a5a),
                "seed {seed}: pass changed semantics"
            );
        }
    }
}
