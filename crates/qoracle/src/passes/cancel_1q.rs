//! Single-qubit gate cancellation with commutation (Nam et al. §4.2).
//!
//! Each single-qubit gate walks forward along its wire, sliding past gates
//! that provably commute with it, and either cancels with an inverse
//! partner (`H·H`, `X·X`, `RZ(a)·RZ(-a)`) or merges rotations
//! (`RZ(a)·RZ(b) → RZ(a+b)`).
//!
//! A walk ends at the next single-qubit gate on its wire at the latest:
//! it pairs with that gate or is blocked by it. So at most one walk is open
//! per wire, and the pass runs all of them in one forward scan, O(n) for n
//! gates. A CNOT closes the open walk on each of its wires unless the
//! walking gate commutes with it. A single-qubit gate meets the open walk
//! on its wire: the two cancel, or merge into a rotation at the later
//! site, which then opens the next walk; otherwise the later gate opens
//! it. Removals are tombstoned in place (`Tombstones`).
//!
//! The whole-circuit baselines run this pass too, so it no longer adds to
//! their superlinear cost: what is left there is VOQC's quadratic rotation
//! merge ([`super::RotationMergeScan`]), kept on purpose.

use super::{Pass, Tombstones, NO_LINK};
use crate::commutes;
use qcir::Gate;

/// The single-qubit cancellation/merge pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct CancelSingleQubit;

impl Pass for CancelSingleQubit {
    fn name(&self) -> &'static str {
        "cancel-1q"
    }

    fn run(&self, mut gates: Vec<Gate>, num_qubits: u32) -> (Vec<Gate>, bool) {
        let len = gates.len();
        // Per wire, the position of the gate whose walk is open there.
        let mut open = vec![NO_LINK; num_qubits as usize];
        let mut dead = Tombstones::default();
        let mut identity = false;
        for j in 0..len {
            let h = gates[j];
            let q = match h {
                Gate::H(q) | Gate::X(q) | Gate::Rz(q, _) => q,
                Gate::Cnot(c, t) => {
                    for w in [c, t] {
                        let i = open[w as usize];
                        if i != NO_LINK && !commutes(&gates[i as usize], &h) {
                            open[w as usize] = NO_LINK;
                        }
                    }
                    continue;
                }
            };
            identity |= h.is_identity();
            let i = std::mem::replace(&mut open[q as usize], j as u32);
            if i == NO_LINK {
                continue;
            }
            let g = gates[i as usize];
            if g.is_inverse_of(&h) {
                dead.kill(i as usize, len);
                dead.kill(j, len);
                open[q as usize] = NO_LINK;
            } else if let (Gate::Rz(_, a), Gate::Rz(_, b)) = (g, h) {
                // Merge into the later site so subsequent merges chain. A
                // sum with no canonical form leaves both in place.
                if let Some(sum) = a.checked_add(b) {
                    dead.kill(i as usize, len);
                    if sum.is_zero() {
                        dead.kill(j, len);
                        open[q as usize] = NO_LINK;
                    } else {
                        gates[j] = Gate::Rz(q, sum);
                    }
                }
            }
        }
        dead.compact(gates, identity)
    }
}

#[cfg(test)]
mod tests {
    use super::super::compact;
    use super::super::testutil::{
        cancellation_inputs, family_segments, fuzz_inputs, hand_cases, random_inputs,
    };
    use super::*;
    use qcir::{Angle, Circuit};

    fn run(c: &Circuit) -> Vec<Gate> {
        CancelSingleQubit.run(c.gates.clone(), c.num_qubits).0
    }

    /// The pass as it stood before the one-scan rewrite: a forward walk
    /// from every single-qubit gate over a tombstoned copy of the input.
    /// The differential tests hold the pass to this, output for output and
    /// flag for flag.
    fn reference_run(gates: &[Gate]) -> (Vec<Gate>, bool) {
        let mut slots: Vec<Option<Gate>> = gates.iter().copied().map(Some).collect();
        for i in 0..slots.len() {
            let Some(g) = slots[i] else { continue };
            let q = match g {
                Gate::H(q) | Gate::X(q) | Gate::Rz(q, _) => q,
                Gate::Cnot(..) => continue,
            };
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

    fn assert_matches_reference(gates: &[Gate], num_qubits: u32) {
        for input in cancellation_inputs(gates, num_qubits) {
            assert_eq!(
                CancelSingleQubit.run(input.clone(), num_qubits),
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
    fn matches_reference_on_fuzz_inputs() {
        for (gates, n) in fuzz_inputs(20_000, 0xC1) {
            assert_eq!(
                CancelSingleQubit.run(gates.clone(), n),
                reference_run(&gates),
                "on {gates:?}"
            );
        }
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
