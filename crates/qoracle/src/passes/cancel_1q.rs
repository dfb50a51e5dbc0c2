//! Single-qubit gate cancellation with commutation (Nam et al. §4.2).
//!
//! For each single-qubit gate, walk forward along its wire, sliding past
//! gates that provably commute with it, and either cancel with an inverse
//! partner (`H·H`, `X·X`, `RZ(a)·RZ(-a)`) or merge rotations
//! (`RZ(a)·RZ(b) → RZ(a+b)`).
//!
//! On a whole circuit the forward walks make this pass superlinear in the
//! worst case — the same asymptotic profile as VOQC's implementation, and
//! one reason whole-circuit oracles lose to POPQC on large inputs.

use super::{compact, Pass};
use crate::commutes;
use qcir::Gate;

/// The single-qubit cancellation/merge pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct CancelSingleQubit;

impl Pass for CancelSingleQubit {
    fn name(&self) -> &'static str {
        "cancel-1q"
    }

    fn run(&self, gates: Vec<Gate>, _num_qubits: u32) -> Vec<Gate> {
        let mut slots: Vec<Option<Gate>> = gates.into_iter().map(Some).collect();
        for i in 0..slots.len() {
            let Some(g) = slots[i] else { continue };
            let q = match g {
                Gate::H(q) | Gate::X(q) | Gate::Rz(q, _) => q,
                Gate::Cnot(..) => continue,
            };
            // Walk forward looking for a partner on wire q.
            for j in i + 1..slots.len() {
                let Some(h) = slots[j] else { continue };
                if !h.acts_on(q) {
                    continue;
                }
                if g.is_inverse_of(&h) {
                    slots[i] = None;
                    slots[j] = None;
                    break;
                }
                if let (Gate::Rz(_, a), Gate::Rz(_, b)) = (g, h) {
                    // Merge into the later site so subsequent merges chain.
                    // A sum with no canonical form leaves both in place.
                    if let Some(sum) = a.checked_add(b) {
                        slots[i] = None;
                        slots[j] = (!sum.is_zero()).then_some(Gate::Rz(q, sum));
                    }
                    break;
                }
                if commutes(&g, &h) {
                    continue;
                }
                break;
            }
        }
        compact(slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::{Angle, Circuit};

    fn run(c: &Circuit) -> Vec<Gate> {
        CancelSingleQubit.run(c.gates.clone(), c.num_qubits)
    }

    #[test]
    fn adjacent_hh_cancels() {
        let mut c = Circuit::new(1);
        c.h(0).h(0);
        assert!(run(&c).is_empty());
    }

    #[test]
    fn rz_merges_across_commuting_cnot_control() {
        let mut c = Circuit::new(2);
        c.rz(0, Angle::PI_4).cnot(0, 1).rz(0, Angle::PI_4);
        let out = run(&c);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&Gate::Rz(0, Angle::PI_2)));
        assert!(out.contains(&Gate::Cnot(0, 1)));
    }

    #[test]
    fn rz_blocked_by_cnot_target() {
        let mut c = Circuit::new(2);
        c.rz(1, Angle::PI_4).cnot(0, 1).rz(1, Angle::PI_4);
        assert_eq!(run(&c).len(), 3);
    }

    #[test]
    fn x_slides_past_cnot_target_and_cancels() {
        let mut c = Circuit::new(2);
        c.x(1).cnot(0, 1).x(1);
        let out = run(&c);
        assert_eq!(out, vec![Gate::Cnot(0, 1)]);
    }

    #[test]
    fn h_blocked_by_anything_on_wire() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).h(0);
        assert_eq!(run(&c).len(), 3);
    }

    #[test]
    fn chain_of_rotations_collapses() {
        let mut c = Circuit::new(1);
        for _ in 0..8 {
            c.rz(0, Angle::PI_4);
        }
        // 8 * pi/4 = 2*pi = identity
        assert!(run(&c).is_empty());
    }

    #[test]
    fn disjoint_wires_untouched() {
        let mut c = Circuit::new(3);
        c.h(0).x(1).rz(2, Angle::PI_4);
        assert_eq!(run(&c), c.gates);
    }

    #[test]
    fn semantics_preserved_on_random_circuits() {
        for seed in 0..8 {
            let c = super::super::testutil::random_circuit(4, 60, seed);
            let out = Circuit {
                num_qubits: 4,
                gates: run(&c),
            };
            assert!(out.len() <= c.len());
            assert!(
                qsim::circuits_equivalent(&c, &out, 3, seed ^ 0xabc),
                "seed {seed}: pass changed semantics"
            );
        }
    }
}
