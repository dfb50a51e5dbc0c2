//! Local rewrite rules for the search-based optimizer.
//!
//! Each rule maps a positional window of the gate sequence to an equivalent
//! replacement (verified against the simulator in this module's tests). The
//! search layer explores sequences of rule applications, so rules here are
//! deliberately small and composable — including cost-neutral moves (same
//! count, different shape) that unlock reductions several steps later, the
//! essence of the Quartz/Queso search approach.

use crate::commutes;
use qcir::{Gate, Qubit};

/// Generates every circuit reachable from `gates` by one rule application.
/// `out` receives the neighbors; it is cleared first.
pub fn neighbors(gates: &[Gate], out: &mut Vec<Vec<Gate>>) {
    out.clear();
    let n = gates.len();
    for i in 0..n {
        // Unary: drop identity rotations.
        if gates[i].is_identity() {
            out.push(remove(gates, &[i]));
            continue;
        }
        if i + 1 < n {
            let (a, b) = (gates[i], gates[i + 1]);
            // Cancel adjacent inverse pairs.
            if a.is_inverse_of(&b) {
                out.push(remove(gates, &[i, i + 1]));
            }
            // Merge adjacent rotations whose sum has a canonical form.
            if let (Gate::Rz(q1, t1), Gate::Rz(q2, t2)) = (a, b) {
                if q1 == q2 {
                    match t1.checked_add(t2) {
                        Some(sum) if sum.is_zero() => out.push(remove(gates, &[i, i + 1])),
                        Some(sum) => out.push(splice(gates, i, 2, &[Gate::Rz(q1, sum)])),
                        None => {}
                    }
                }
            }
            // Commuting swap (cost-neutral move; changes what is adjacent).
            // Swapping gates on disjoint wires is pointless (same per-wire
            // order ⇒ same depth), so only swap overlapping commuting pairs.
            if !a.independent(&b) && commutes(&a, &b) {
                out.push(splice(gates, i, 2, &[b, a]));
            }
            // X·RZ(θ) ↔ RZ(−θ)·X.
            if let (Gate::X(q1), Gate::Rz(q2, t)) = (a, b) {
                if q1 == q2 {
                    out.push(splice(gates, i, 2, &[Gate::Rz(q1, -t), Gate::X(q1)]));
                }
            }
            if let (Gate::Rz(q1, t), Gate::X(q2)) = (a, b) {
                if q1 == q2 {
                    out.push(splice(gates, i, 2, &[Gate::X(q1), Gate::Rz(q1, -t)]));
                }
            }
        }
        // H S H → S† H S† and H S† H → S H S (positional window of 3).
        if i + 2 < n {
            if let (Gate::H(q1), Gate::Rz(q2, t), Gate::H(q3)) =
                (gates[i], gates[i + 1], gates[i + 2])
            {
                if q1 == q2 && q2 == q3 {
                    use qcir::Angle;
                    let flip = if t == Angle::PI_2 {
                        Some(Angle::THREE_PI_2)
                    } else if t == Angle::THREE_PI_2 {
                        Some(Angle::PI_2)
                    } else {
                        None
                    };
                    if let Some(f) = flip {
                        out.push(splice(
                            gates,
                            i,
                            3,
                            &[Gate::Rz(q1, f), Gate::H(q1), Gate::Rz(q1, f)],
                        ));
                    }
                }
            }
        }
        // [H(c) H(t)] CNOT [H(c) H(t)] → CNOT reversed (positional window 5,
        // H's in either order on each side).
        if i + 4 < n {
            if let Gate::Cnot(c, t) = gates[i + 2] {
                if is_h_pair(gates[i], gates[i + 1], c, t)
                    && is_h_pair(gates[i + 3], gates[i + 4], c, t)
                {
                    out.push(splice(gates, i, 5, &[Gate::Cnot(t, c)]));
                }
            }
        }
    }
}

fn is_h_pair(a: Gate, b: Gate, c: Qubit, t: Qubit) -> bool {
    matches!((a, b), (Gate::H(x), Gate::H(y)) if (x == c && y == t) || (x == t && y == c))
}

fn remove(gates: &[Gate], idx: &[usize]) -> Vec<Gate> {
    let mut v = Vec::with_capacity(gates.len() - idx.len());
    for (i, g) in gates.iter().enumerate() {
        if !idx.contains(&i) {
            v.push(*g);
        }
    }
    v
}

fn splice(gates: &[Gate], at: usize, len: usize, rep: &[Gate]) -> Vec<Gate> {
    let mut v = Vec::with_capacity(gates.len() - len + rep.len());
    v.extend_from_slice(&gates[..at]);
    v.extend_from_slice(rep);
    v.extend_from_slice(&gates[at + len..]);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::{Angle, Circuit};

    fn all_neighbors(g: &[Gate]) -> Vec<Vec<Gate>> {
        let mut out = Vec::new();
        neighbors(g, &mut out);
        out
    }

    #[test]
    fn every_neighbor_is_equivalent() {
        // Build circuits that trigger each rule at least once and verify all
        // generated neighbors against the simulator.
        let mut cases: Vec<Circuit> = Vec::new();
        let mut c = Circuit::new(2);
        c.h(0)
            .h(0)
            .cnot(0, 1)
            .cnot(0, 1)
            .rz(1, Angle::PI_4)
            .rz(1, Angle::PI_4);
        cases.push(c);
        let mut c = Circuit::new(2);
        c.h(0).rz(0, Angle::PI_2).h(0).x(1).rz(1, Angle::PI_4);
        cases.push(c);
        let mut c = Circuit::new(2);
        c.h(0).h(1).cnot(0, 1).h(0).h(1);
        cases.push(c);
        let mut c = Circuit::new(3);
        c.rz(0, Angle::PI_4)
            .cnot(0, 1)
            .cnot(0, 2)
            .rz(0, Angle::ZERO);
        cases.push(c);

        let mut total = 0;
        for c in &cases {
            for nb in all_neighbors(&c.gates) {
                let oc = Circuit {
                    num_qubits: c.num_qubits,
                    gates: nb,
                };
                assert!(
                    qsim::circuits_equivalent_exact(c, &oc),
                    "neighbor not equivalent for {:?} -> {:?}",
                    c.gates,
                    oc.gates
                );
                total += 1;
            }
        }
        assert!(total >= 10, "expected a rich neighbor set, got {total}");
    }

    #[test]
    fn hh_cancellation_found() {
        let g = vec![Gate::H(0), Gate::H(0)];
        assert!(all_neighbors(&g).iter().any(|n| n.is_empty()));
    }

    #[test]
    fn cnot_reversal_found() {
        let g = vec![
            Gate::H(0),
            Gate::H(1),
            Gate::Cnot(0, 1),
            Gate::H(1),
            Gate::H(0),
        ];
        assert!(all_neighbors(&g)
            .iter()
            .any(|n| n == &vec![Gate::Cnot(1, 0)]));
    }

    #[test]
    fn commuting_swap_is_generated_only_for_overlapping_pairs() {
        let g = vec![Gate::Rz(0, Angle::PI_4), Gate::Cnot(0, 1)];
        let nbs = all_neighbors(&g);
        assert!(nbs.contains(&vec![Gate::Cnot(0, 1), Gate::Rz(0, Angle::PI_4)]));
        // Disjoint pair: no swap generated.
        let g = vec![Gate::H(0), Gate::H(1)];
        assert!(all_neighbors(&g).is_empty());
    }
}
