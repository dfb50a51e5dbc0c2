//! Hadamard gate reduction (Nam et al. §4.3).
//!
//! Hadamard gates block rotation merging (they end phase-polynomial
//! regions), so reducing their count unlocks the other passes. This pass
//! applies the five Nam patterns (writing `S = RZ(π/2)`, `S† = RZ(3π/2)`):
//!
//! 1. `H·S·H   → S†·H·S†`
//! 2. `H·S†·H  → S·H·S`
//! 3. `[H(c) H(t)]·CNOT(c,t)·[H(c) H(t)] → CNOT(t,c)`
//! 4. `H(t)·S(t)·CNOT(c,t)·S†(t)·H(t)    → S†(t)·CNOT(c,t)·S(t)`
//! 5. `H(t)·S†(t)·CNOT(c,t)·S(t)·H(t)    → S(t)·CNOT(c,t)·S†(t)`
//!
//! Patterns match along per-wire adjacency (gates on other wires may
//! interleave freely). Every application strictly decreases the H count, so
//! sweeping to fixpoint terminates.
//!
//! Every pattern begins with an H whose next gate on its wire is an
//! `RZ(±π/2)` (rules 1, 2, 4, 5) or a CNOT that has an H just before it on
//! both wires (rule 3). Before each sweep one scan with a bit per wire looks
//! for such a start; without one no pattern can match, and the pass hands
//! its input back untouched, as it does when a sweep matches nothing. Most
//! segments carry no pattern, so most calls end after that scan.
//!
//! All five identities are verified against the simulator in this module's
//! tests (up to global phase).

use super::{wire_links, Pass, WireLinks, NO_LINK};
use qcir::{Angle, Gate};

/// The Hadamard reduction pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct HadamardReduction;

const S: Angle = Angle::PI_2;
const SDG: Angle = Angle::THREE_PI_2;

impl Pass for HadamardReduction {
    fn name(&self) -> &'static str {
        "hadamard-reduction"
    }

    fn run(&self, mut gates: Vec<Gate>, num_qubits: u32) -> (Vec<Gate>, bool) {
        // Each sweep applies a maximal set of non-overlapping matches; the H
        // count strictly decreases per match, so this loop terminates, and
        // the output differs from the input exactly when a sweep matched.
        let mut changed = false;
        while has_candidate(&gates, num_qubits) {
            let matched;
            (gates, matched) = sweep(gates, num_qubits);
            if !matched {
                break;
            }
            changed = true;
        }
        (gates, changed)
    }
}

/// Whether some H is followed on its wire by an `RZ(±π/2)`, or some CNOT
/// follows an H on both of its wires: how every pattern starts, so without
/// either [`sweep`] cannot match.
fn has_candidate(gates: &[Gate], num_qubits: u32) -> bool {
    // Whether the last gate seen on each wire is an H.
    let mut after_h = vec![false; num_qubits as usize];
    for &g in gates {
        match g {
            Gate::H(q) => after_h[q as usize] = true,
            Gate::Rz(q, a) => {
                if after_h[q as usize] && (a == S || a == SDG) {
                    return true;
                }
                after_h[q as usize] = false;
            }
            Gate::X(q) => after_h[q as usize] = false,
            Gate::Cnot(c, t) => {
                if after_h[c as usize] && after_h[t as usize] {
                    return true;
                }
                after_h[c as usize] = false;
                after_h[t as usize] = false;
            }
        }
    }
    false
}

/// Each gate's neighbours along its own wires ([`wire_links`]), so a
/// pattern is matched by following links from its anchor: gates on other
/// wires may sit anywhere in between and are never looked at.
struct WireChains {
    next: WireLinks,
    prev: WireLinks,
}

impl WireChains {
    fn build(gates: &[Gate], num_qubits: u32) -> WireChains {
        let (next, prev) = wire_links(gates, num_qubits);
        WireChains { next, prev }
    }

    /// The position `steps` places after `i` on wire `q` (or before, for
    /// negative `steps`); `q` must be one of gate `i`'s wires.
    fn walk(&self, gates: &[Gate], i: usize, q: u32, steps: i32) -> Option<usize> {
        let links = if steps < 0 { &self.prev } else { &self.next };
        let mut at = i;
        for _ in 0..steps.unsigned_abs() {
            let (first, second) = links[at];
            let to = if gates[at].qubits().0 == q {
                first
            } else {
                second
            };
            if to == NO_LINK {
                return None;
            }
            at = to as usize;
        }
        Some(at)
    }
}

/// The output buffer of a sweep, copied from its input at the first match:
/// a sweep that matches nothing hands its input back.
fn edit<'a>(slots: &'a mut Vec<Option<Gate>>, gates: &[Gate]) -> &'a mut [Option<Gate>] {
    if slots.is_empty() {
        slots.extend(gates.iter().copied().map(Some));
    }
    slots
}

/// Applies one maximal set of non-overlapping matches; the flag is whether
/// any matched.
fn sweep(gates: Vec<Gate>, num_qubits: u32) -> (Vec<Gate>, bool) {
    let chains = WireChains::build(&gates, num_qubits);
    let mut slots: Vec<Option<Gate>> = Vec::new();
    let mut claimed = vec![false; gates.len()];

    let free = |claimed: &[bool], ps: &[usize]| ps.iter().all(|&p| !claimed[p]);

    for i in 0..gates.len() {
        if claimed[i] {
            continue;
        }
        match gates[i] {
            // Rules 1 & 2, anchored at the leading H.
            Gate::H(q) => {
                let Some(j) = chains.walk(&gates, i, q, 1) else {
                    continue;
                };
                let Some(k) = chains.walk(&gates, i, q, 2) else {
                    continue;
                };
                let (Gate::Rz(_, a), Gate::H(_)) = (gates[j], gates[k]) else {
                    continue;
                };
                let flip = if a == S {
                    SDG
                } else if a == SDG {
                    S
                } else {
                    continue;
                };
                if !free(&claimed, &[i, j, k]) {
                    continue;
                }
                let slots = edit(&mut slots, &gates);
                slots[i] = Some(Gate::Rz(q, flip));
                slots[j] = Some(Gate::H(q));
                slots[k] = Some(Gate::Rz(q, flip));
                for p in [i, j, k] {
                    claimed[p] = true;
                }
            }
            // Rules 3–5, anchored at the CNOT.
            Gate::Cnot(c, t) => {
                // Rule 3: H(c) H(t) CNOT H(c) H(t)  →  CNOT(t, c).
                let pc = chains.walk(&gates, i, c, -1);
                let pt = chains.walk(&gates, i, t, -1);
                let nc = chains.walk(&gates, i, c, 1);
                let nt = chains.walk(&gates, i, t, 1);
                if let (Some(pc), Some(pt), Some(nc), Some(nt)) = (pc, pt, nc, nt) {
                    if gates[pc] == Gate::H(c)
                        && gates[pt] == Gate::H(t)
                        && gates[nc] == Gate::H(c)
                        && gates[nt] == Gate::H(t)
                        && free(&claimed, &[i, pc, pt, nc, nt])
                    {
                        let slots = edit(&mut slots, &gates);
                        slots[pc] = None;
                        slots[pt] = None;
                        slots[nc] = None;
                        slots[nt] = None;
                        slots[i] = Some(Gate::Cnot(t, c));
                        for p in [i, pc, pt, nc, nt] {
                            claimed[p] = true;
                        }
                        continue;
                    }
                }
                // Rules 4 & 5: H S CNOT S† H (on the target wire) and its
                // dagger: swap the inner rotations, drop the H pair.
                let (Some(p1), Some(n1)) = (pt, nt) else {
                    continue;
                };
                let Gate::Rz(rq, a) = gates[p1] else {
                    continue;
                };
                if rq != t {
                    continue;
                }
                let want = if a == S {
                    SDG
                } else if a == SDG {
                    S
                } else {
                    continue;
                };
                if gates[n1] != Gate::Rz(t, want) {
                    continue;
                }
                let Some(p0) = chains.walk(&gates, p1, t, -1) else {
                    continue;
                };
                let Some(n2) = chains.walk(&gates, n1, t, 1) else {
                    continue;
                };
                if gates[p0] != Gate::H(t) || gates[n2] != Gate::H(t) {
                    continue;
                }
                if !free(&claimed, &[i, p0, p1, n1, n2]) {
                    continue;
                }
                let slots = edit(&mut slots, &gates);
                slots[p0] = None;
                slots[n2] = None;
                slots[p1] = Some(Gate::Rz(t, want));
                slots[n1] = Some(Gate::Rz(t, a));
                for p in [i, p0, p1, n1, n2] {
                    claimed[p] = true;
                }
            }
            _ => {}
        }
    }
    if slots.is_empty() {
        return (gates, false);
    }
    (slots.into_iter().flatten().collect(), true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::Circuit;

    fn run(c: &Circuit) -> Vec<Gate> {
        HadamardReduction.run(c.gates.clone(), c.num_qubits).0
    }

    fn h_count(g: &[Gate]) -> usize {
        g.iter().filter(|g| matches!(g, Gate::H(_))).count()
    }

    #[test]
    fn rule1_hsh() {
        let mut c = Circuit::new(1);
        c.h(0).rz(0, S).h(0);
        let out = run(&c);
        assert_eq!(out, vec![Gate::Rz(0, SDG), Gate::H(0), Gate::Rz(0, SDG)]);
        let oc = Circuit {
            num_qubits: 1,
            gates: out,
        };
        assert!(qsim::circuits_equivalent_exact(&c, &oc));
    }

    #[test]
    fn rule2_hsdgh() {
        let mut c = Circuit::new(1);
        c.h(0).rz(0, SDG).h(0);
        let out = run(&c);
        assert_eq!(h_count(&out), 1);
        let oc = Circuit {
            num_qubits: 1,
            gates: out,
        };
        assert!(qsim::circuits_equivalent_exact(&c, &oc));
    }

    #[test]
    fn rule3_cnot_conjugation() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cnot(0, 1).h(0).h(1);
        let out = run(&c);
        assert_eq!(out, vec![Gate::Cnot(1, 0)]);
        let oc = Circuit {
            num_qubits: 2,
            gates: out,
        };
        assert!(qsim::circuits_equivalent_exact(&c, &oc));
    }

    #[test]
    fn rule4_target_sandwich() {
        let mut c = Circuit::new(2);
        c.h(1).rz(1, S).cnot(0, 1).rz(1, SDG).h(1);
        let out = run(&c);
        assert_eq!(
            out,
            vec![Gate::Rz(1, SDG), Gate::Cnot(0, 1), Gate::Rz(1, S)]
        );
        let oc = Circuit {
            num_qubits: 2,
            gates: out,
        };
        assert!(qsim::circuits_equivalent_exact(&c, &oc));
    }

    #[test]
    fn rule5_target_sandwich_dagger() {
        let mut c = Circuit::new(2);
        c.h(1).rz(1, SDG).cnot(0, 1).rz(1, S).h(1);
        let out = run(&c);
        assert_eq!(h_count(&out), 0);
        let oc = Circuit {
            num_qubits: 2,
            gates: out,
        };
        assert!(qsim::circuits_equivalent_exact(&c, &oc));
    }

    #[test]
    fn patterns_match_across_other_wires() {
        // Interleave an unrelated wire-2 gate inside the H S H pattern.
        let mut c = Circuit::new(3);
        c.h(0).x(2).rz(0, S).cnot(2, 1).h(0);
        let out = run(&c);
        assert_eq!(h_count(&out), 1);
        let oc = Circuit {
            num_qubits: 3,
            gates: out,
        };
        assert!(qsim::circuits_equivalent(&c, &oc, 3, 42));
    }

    #[test]
    fn no_match_leaves_input_untouched() {
        let mut c = Circuit::new(2);
        c.h(0).rz(0, Angle::PI_4).h(0).cnot(0, 1);
        assert_eq!(run(&c), c.gates);
    }

    /// `walk` by definition: scan away from `i` for the `steps`-th gate
    /// acting on `q`.
    fn naive_walk(gates: &[Gate], i: usize, q: u32, steps: i32) -> Option<usize> {
        let nth = steps.unsigned_abs() as usize - 1;
        if steps < 0 {
            (0..i).rev().filter(|&p| gates[p].acts_on(q)).nth(nth)
        } else {
            (i + 1..gates.len())
                .filter(|&p| gates[p].acts_on(q))
                .nth(nth)
        }
    }

    fn assert_walk_matches_scan(gates: &[Gate], num_qubits: u32) {
        let chains = WireChains::build(gates, num_qubits);
        for (i, g) in gates.iter().enumerate() {
            let (a, b) = g.qubits();
            for q in [Some(a), b].into_iter().flatten() {
                for steps in [-2, -1, 1, 2] {
                    assert_eq!(
                        chains.walk(gates, i, q, steps),
                        naive_walk(gates, i, q, steps),
                        "gate {i} ({g:?}), wire {q}, {steps} steps"
                    );
                }
            }
        }
    }

    #[test]
    fn walk_matches_a_naive_scan() {
        for (n, len) in [(2, 30), (3, 200), (6, 400), (40, 400)] {
            for seed in 0..5 {
                let c = super::super::testutil::random_circuit(n, len, seed * 13 + n as u64);
                assert_walk_matches_scan(&c.gates, n);
            }
        }
        // CNOTs whose two wires' chains end at different gates: the first
        // opens wire 1 but not wire 0, the second closes wire 1 but not
        // wire 2.
        let mut c = Circuit::new(3);
        c.h(0).x(2).cnot(0, 1).h(2).x(0).cnot(2, 1).rz(2, S);
        assert_walk_matches_scan(&c.gates, 3);
        let chains = WireChains::build(&c.gates, 3);
        assert_eq!(chains.walk(&c.gates, 2, 0, -1), Some(0));
        assert_eq!(chains.walk(&c.gates, 2, 1, -1), None);
        assert_eq!(chains.walk(&c.gates, 2, 0, 1), Some(4));
        assert_eq!(chains.walk(&c.gates, 2, 1, 1), Some(5));
        assert_eq!(chains.walk(&c.gates, 5, 1, 1), None);
        assert_eq!(chains.walk(&c.gates, 5, 2, 1), Some(6));
    }

    #[test]
    fn a_sweep_matches_only_where_a_candidate_pair_exists() {
        use crate::passes::testutil::{family_segments, random_inputs};
        let random = random_inputs();
        for inputs in [&random[..], family_segments()] {
            let mut without = 0;
            for (gates, n) in inputs {
                if !has_candidate(gates, *n) {
                    without += 1;
                    assert!(!sweep(gates.clone(), *n).1, "matched in {gates:?}");
                }
            }
            // Not vacuous: a quarter of either set has no candidate.
            assert!(without * 4 > inputs.len(), "{without} of {}", inputs.len());
        }
    }

    #[test]
    fn semantics_preserved_on_random_circuits() {
        for seed in 0..10 {
            let c = super::super::testutil::random_circuit(4, 80, seed * 3 + 11);
            let out = Circuit {
                num_qubits: 4,
                gates: run(&c),
            };
            assert!(h_count(&out.gates) <= h_count(&c.gates));
            assert!(
                qsim::circuits_equivalent(&c, &out, 3, seed ^ 0x1234),
                "seed {seed}: pass changed semantics"
            );
        }
    }
}
