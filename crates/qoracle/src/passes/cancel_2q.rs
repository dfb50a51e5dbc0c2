//! Two-qubit (CNOT) gate cancellation with commutation (Nam et al. §4.2).
//!
//! Each CNOT walks forward, sliding past gates that provably commute with
//! it (rotations on the control, X and CNOTs sharing the target, CNOTs
//! sharing the control, disjoint gates), and cancels with the first
//! identical CNOT it reaches. The pass replays all of those walks in one
//! forward scan:
//!
//! * **Blockers.** Per wire, three blockers hold the position + 1 of the
//!   last gate that ends a walk with the wire as control (`ctl`: H, X, a
//!   CNOT targeting the wire), as target (`tgt`: H, RZ, a CNOT controlled
//!   by the wire), or a walk of the degenerate `CNOT(q, q)` (`deg`: H and
//!   every other CNOT on the wire). These are exactly the gates
//!   [`commutes`](crate::commutes) rejects. A `CNOT(q, q)` leaves `deg`
//!   alone: it would block its own walk, and no other walk of `CNOT(q, q)`
//!   can be open when it takes over the pair.
//! * **Pair table.** An open-addressed table keyed by the pair `(c, t)`
//!   holds the position of the latest CNOT on that pair that did not
//!   cancel. A later CNOT on the pair cancels with it if no blocker came
//!   after it on either wire and it is not already removed; otherwise the
//!   later CNOT takes over the entry and sets its own blocks.
//!
//! The scan gives the walks' answer. At most one walk per pair is open,
//! because a second CNOT on an open pair cancels with the first, so one
//! entry per pair is enough. A cancelled CNOT sets no blocks: the walks
//! that started after its partner skip it as removed, and every earlier
//! walk that reaches it passed its identical partner, so it commutes with
//! them. The cost is O(n) expected for n gates.
//!
//! The pass rewrites its input in place: a cancelled pair is tombstoned
//! (`Tombstones`), and a call that cancels nothing returns its input.

use super::{Pass, Tombstones};
use qcir::Gate;

/// The CNOT cancellation pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct CancelTwoQubit;

/// Per wire, the position + 1 of the last gate that ends a walk through it
/// as control, as target, and as both wires of a `CNOT(q, q)`; 0 for none.
/// A walk from position `p` is blocked on the wire iff its blocker > `p`.
#[derive(Clone, Copy, Default)]
struct Blocks {
    ctl: u32,
    tgt: u32,
    deg: u32,
}

/// An empty pair-table entry: no wire index reaches `u32::MAX`.
const EMPTY: u64 = u64::MAX;

impl Pass for CancelTwoQubit {
    fn name(&self) -> &'static str {
        "cancel-2q"
    }

    fn run(&self, gates: Vec<Gate>, num_qubits: u32) -> (Vec<Gate>, bool) {
        let len = gates.len();
        let mut dead = Tombstones::default();
        let cnots = gates.iter().filter(|g| g.is_two_qubit()).count();
        if cnots < 2 {
            let identity = gates.iter().any(Gate::is_identity);
            return dead.compact(gates, identity);
        }
        let mut blocks = vec![Blocks::default(); num_qubits as usize];
        // Open addressing at load ≤ 1/2 on the top bits of the pair's
        // multiply-shift hash: (pair, position of its open walk).
        let table_len = (2 * cnots + 2).next_power_of_two();
        let shift = u64::BITS - table_len.trailing_zeros();
        let mut table = vec![(EMPTY, 0u32); table_len];
        let mut identity = false;
        for (j, &g) in gates.iter().enumerate() {
            let after = j as u32 + 1;
            match g {
                Gate::H(q) => {
                    blocks[q as usize] = Blocks {
                        ctl: after,
                        tgt: after,
                        deg: after,
                    }
                }
                Gate::X(q) => blocks[q as usize].ctl = after,
                Gate::Rz(q, theta) => {
                    blocks[q as usize].tgt = after;
                    identity |= theta.is_zero();
                }
                Gate::Cnot(c, t) => {
                    let pair = u64::from(c) << 32 | u64::from(t);
                    let mut at = (pair.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
                    while table[at].0 != pair && table[at].0 != EMPTY {
                        at = (at + 1) & (table_len - 1);
                    }
                    let (key, p) = table[at];
                    let (bc, bt) = (blocks[c as usize], blocks[t as usize]);
                    let open = key == pair
                        && if c == t {
                            bc.deg <= p
                        } else {
                            bc.ctl <= p && bt.tgt <= p
                        }
                        && !dead.is_dead(p as usize);
                    if open {
                        dead.kill(p as usize, len);
                        dead.kill(j, len);
                        continue;
                    }
                    table[at] = (pair, j as u32);
                    blocks[t as usize].ctl = after;
                    blocks[c as usize].tgt = after;
                    if c != t {
                        blocks[c as usize].deg = after;
                        blocks[t as usize].deg = after;
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
    use crate::commutes;
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
    fn matches_reference_on_fuzz_inputs() {
        for (gates, n) in fuzz_inputs(20_000, 0xC2) {
            assert_eq!(
                CancelTwoQubit.run(gates.clone(), n),
                reference_run(&gates),
                "on {gates:?}"
            );
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
