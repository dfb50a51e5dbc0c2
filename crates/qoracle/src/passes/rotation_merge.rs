//! Phase-polynomial rotation merging (Nam et al. §4.4, via the phase-folding
//! formulation of Amy–Maslov–Mosca).
//!
//! Within `{CNOT, X, RZ}` regions, each wire carries an affine Boolean
//! function of the circuit's *path variables*: the original inputs, plus a
//! fresh variable for every Hadamard (each H introduces a new path-sum
//! variable). An `RZ(θ)` on a wire carrying the function `f ⊕ c` contributes
//! the path-phase `e^{iθ'(−1)^{f}}`-style factor with `θ' = c ? −θ : θ`,
//! which depends only on `f` — not on *where* in the circuit it is applied.
//! Phases on the same linear part therefore merge, regardless of distance.
//!
//! Consequences implemented here, all in one linear sweep:
//!
//! * two rotations whose wires carry the same linear function merge
//!   (`θ₁ + θ₂` at the earlier site), even across CNOTs, X gates, and
//!   rotations on other functions;
//! * a rotation on the *complement* of a seen function merges with negated
//!   angle;
//! * a rotation on a constant function (empty linear part) is a global phase
//!   and is deleted;
//! * merged-to-zero rotations are deleted;
//! * a rotation whose exact sum with its site has no canonical
//!   [`qcir::Angle`] (reduced denominator above `2^62`) stays unmerged.
//!
//! This pass never increases the gate count.
//!
//! # Representation
//!
//! A call allocates seven buffers whatever the segment's length, and only
//! the first is sized by the enclosing circuit's width:
//!
//! * **Local wire ids.** A first scan numbers the wires the segment touches
//!   in order of first touch (one `u32` per qubit of the circuit, zeroed);
//!   everything else is sized by the touched wires and the rotation count.
//! * **Slots.** Wire `w` owns `vars[w · MAX_TERMS ..][.. len[w]]`, the sorted
//!   variables of its linear part, and a complement bit. It starts as the
//!   single variable `w`; an H, or a CNOT whose result would not fit the
//!   slot, resets it to the next fresh variable. A CNOT merges two slots
//!   into a stack scratch and copies the result back: O(`MAX_TERMS`) per
//!   gate at any input length.
//! * **Site table.** The first rotation on each linear part is a `Site`:
//!   its output position, its complement bit, and its key — a slice of one
//!   `u32` arena — found through an open-addressed table of site indices,
//!   by hash and then by slice equality.
//!
//! Variables are only ever compared for equality (set against set) and
//! counted (against `MAX_TERMS`), and the numbering is injective, so which
//! number a wire or a Hadamard gets cannot show in the output: numbering
//! wires by first touch instead of by qubit id changes nothing observable.

use super::Pass;
use qcir::Gate;

/// The phase-polynomial rotation merging pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct RotationMerge;

/// Hard cap on tracked linear-function size; wires whose function would
/// exceed it are reset to a fresh opaque variable (sound: it only *loses*
/// merge opportunities, never soundness).
const MAX_TERMS: usize = 128;

/// The first rotation seen on one linear part.
struct Site {
    /// [`hash_vars`] of the key, so a probe rejects most other sites
    /// without reading their keys.
    hash: u64,
    /// The key is `keys[off..off + len]`.
    off: usize,
    len: usize,
    /// Output position of the rotation.
    out: usize,
    /// Whether the wire was complemented there.
    comp: bool,
}

/// Multiply-rotate hash of a sorted variable set. Unkeyed: a segment built
/// to collide costs its own length per probe and no more, and the engine
/// bounds segments at 2Ω gates.
fn hash_vars(vars: &[u32]) -> u64 {
    let mut h = vars.len() as u64;
    for &v in vars {
        h = (h.rotate_left(5) ^ v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h
}

/// Writes the XOR (symmetric difference) of two sorted variable sets to the
/// front of `out` and returns its length.
fn xor_sorted(a: &[u32], b: &[u32], out: &mut [u32; 2 * MAX_TERMS]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out[n] = a[i];
                i += 1;
                n += 1;
            }
            std::cmp::Ordering::Greater => {
                out[n] = b[j];
                j += 1;
                n += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    for rest in [&a[i..], &b[j..]] {
        out[n..n + rest.len()].copy_from_slice(rest);
        n += rest.len();
    }
    n
}

impl Pass for RotationMerge {
    fn name(&self) -> &'static str {
        "rotation-merge"
    }

    fn run(&self, mut gates: Vec<Gate>, num_qubits: u32) -> Vec<Gate> {
        // 0 = untouched, else local id + 1.
        let mut local = vec![0u32; num_qubits as usize];
        let mut wires = 0u32;
        let mut rotations = 0usize;
        for g in &gates {
            let (a, b) = g.qubits();
            for q in [Some(a), b].into_iter().flatten() {
                if local[q as usize] == 0 {
                    wires += 1;
                    local[q as usize] = wires;
                }
            }
            rotations += usize::from(matches!(g, Gate::Rz(..)));
        }
        let wire = |q: u32| (local[q as usize] - 1) as usize;

        let mut vars = vec![0u32; wires as usize * MAX_TERMS];
        let mut len = vec![1usize; wires as usize];
        let mut comp = vec![false; wires as usize];
        for w in 0..wires {
            vars[w as usize * MAX_TERMS] = w;
        }
        let mut fresh = wires;
        let mut merged = [0u32; 2 * MAX_TERMS];

        // Open addressing at load ≤ 1/2: `table[i]` indexes `sites`,
        // `usize::MAX` is empty; a key's home is the top bits of its hash.
        let table_len = (2 * rotations + 2).next_power_of_two();
        let shift = u64::BITS - table_len.trailing_zeros();
        let mut table = vec![usize::MAX; table_len];
        let mut sites: Vec<Site> = Vec::with_capacity(rotations);
        // Two words a rotation covers the usual key; longer ones double it,
        // at most log2(MAX_TERMS / 2) times whatever the segment's length.
        let mut keys: Vec<u32> = Vec::with_capacity(2 * rotations);

        // Rewrites in place: `gates[..kept]` is the output so far, and a
        // gate is read before the write cursor can reach it.
        let mut kept = 0;
        for i in 0..gates.len() {
            let g = gates[i];
            match g {
                Gate::Cnot(c, t) => {
                    let (c, t) = (wire(c), wire(t));
                    let n = xor_sorted(
                        &vars[c * MAX_TERMS..][..len[c]],
                        &vars[t * MAX_TERMS..][..len[t]],
                        &mut merged,
                    );
                    if n > MAX_TERMS {
                        vars[t * MAX_TERMS] = fresh;
                        fresh += 1;
                        len[t] = 1;
                        comp[t] = false;
                    } else {
                        vars[t * MAX_TERMS..][..n].copy_from_slice(&merged[..n]);
                        len[t] = n;
                        comp[t] ^= comp[c];
                    }
                }
                Gate::X(q) => comp[wire(q)] ^= true,
                Gate::H(q) => {
                    let w = wire(q);
                    vars[w * MAX_TERMS] = fresh;
                    fresh += 1;
                    len[w] = 1;
                    comp[w] = false;
                }
                Gate::Rz(q, theta) => {
                    let w = wire(q);
                    let f = &vars[w * MAX_TERMS..][..len[w]];
                    if f.is_empty() {
                        // Phase on a constant: global phase, delete.
                        continue;
                    }
                    let hash = hash_vars(f);
                    let mut at = (hash >> shift) as usize;
                    let found = loop {
                        let Some(site) = sites.get(table[at]) else {
                            break None;
                        };
                        if site.hash == hash && keys[site.off..][..site.len] == *f {
                            break Some(site);
                        }
                        at = (at + 1) & (table_len - 1);
                    };
                    if let Some(site) = found {
                        let Gate::Rz(q0, prev) = gates[site.out] else {
                            unreachable!("merge site must hold a rotation");
                        };
                        // Same complement: add; opposite: subtract. A sum of
                        // zero stays as an explicit identity (later
                        // rotations may still land on it) until the end. A
                        // sum with no canonical form leaves this rotation
                        // where it is.
                        let delta = if site.comp == comp[w] { theta } else { -theta };
                        if let Some(sum) = prev.checked_add(delta) {
                            gates[site.out] = Gate::Rz(q0, sum);
                            continue;
                        }
                    } else {
                        table[at] = sites.len();
                        sites.push(Site {
                            hash,
                            off: keys.len(),
                            len: f.len(),
                            out: kept,
                            comp: comp[w],
                        });
                        keys.extend_from_slice(f);
                    }
                }
            }
            gates[kept] = g;
            kept += 1;
        }
        gates.truncate(kept);
        gates.retain(|g| !g.is_identity());
        gates
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::random_circuit;
    use super::*;
    use qcir::{Angle, Circuit};
    use std::collections::HashMap;

    fn run(c: &Circuit) -> Vec<Gate> {
        RotationMerge.run(c.gates.clone(), c.num_qubits)
    }

    /// XOR (symmetric difference) of two sorted variable sets.
    fn xor_sets(a: &[u32], b: &[u32]) -> Vec<u32> {
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

    /// A wire's value as an affine function: XOR of `vars`, complemented
    /// iff `comp`. `vars` is sorted and duplicate-free.
    #[derive(Clone)]
    struct LinFn {
        vars: Vec<u32>,
        comp: bool,
    }

    impl LinFn {
        fn var(v: u32) -> LinFn {
            LinFn {
                vars: vec![v],
                comp: false,
            }
        }
    }

    /// The pass as it stood before the flat rewrite — one heap `LinFn` per
    /// wire of the enclosing circuit, variables numbered by qubit id, sites
    /// in a `HashMap` keyed by the variable vector. The differential tests
    /// hold the pass to this, output for output.
    fn reference_run(gates: &[Gate], num_qubits: u32) -> Vec<Gate> {
        let mut fresh = num_qubits;
        let mut wire: Vec<LinFn> = (0..num_qubits).map(LinFn::var).collect();
        // linear part -> (slot index of the first rotation on it, whether the
        // wire was complemented at that site).
        let mut sites: HashMap<Vec<u32>, (usize, bool)> = HashMap::new();
        let mut out: Vec<Option<Gate>> = Vec::with_capacity(gates.len());

        for &g in gates {
            match g {
                Gate::Cnot(c, t) => {
                    let vars = xor_sets(&wire[c as usize].vars, &wire[t as usize].vars);
                    if vars.len() > MAX_TERMS {
                        wire[t as usize] = LinFn::var(fresh);
                        fresh += 1;
                    } else {
                        wire[t as usize] = LinFn {
                            vars,
                            comp: wire[t as usize].comp ^ wire[c as usize].comp,
                        };
                    }
                    out.push(Some(g));
                }
                Gate::X(q) => {
                    wire[q as usize].comp = !wire[q as usize].comp;
                    out.push(Some(g));
                }
                Gate::H(q) => {
                    wire[q as usize] = LinFn::var(fresh);
                    fresh += 1;
                    out.push(Some(g));
                }
                Gate::Rz(q, theta) => {
                    let f = &wire[q as usize];
                    if f.vars.is_empty() {
                        continue;
                    }
                    match sites.get(&f.vars) {
                        None => {
                            sites.insert(f.vars.clone(), (out.len(), f.comp));
                            out.push(Some(g));
                        }
                        Some(&(k, comp_at_k)) => {
                            let Some(Gate::Rz(q0, prev)) = out[k] else {
                                unreachable!("merge site must hold a rotation");
                            };
                            let delta = if comp_at_k == f.comp { theta } else { -theta };
                            let sum = prev + delta;
                            out[k] = if sum.is_zero() {
                                Some(Gate::Rz(q0, Angle::ZERO))
                            } else {
                                Some(Gate::Rz(q0, sum))
                            };
                        }
                    }
                }
            }
        }
        super::super::compact(out)
    }

    #[test]
    fn matches_reference_on_random_circuits() {
        // `random_circuit` draws a quarter each of H, X, RZ and CNOT; the H
        // share is swept by turning its H gates into X (none) or its X
        // gates into H (half).
        for (k, (n, len)) in [
            (1, 0),
            (1, 40),
            (2, 300),
            (3, 2_000),
            (5, 7),
            (12, 400),
            (40, 1_000),
            (130, 2_000),
            (200, 2_000),
        ]
        .into_iter()
        .enumerate()
        {
            for seed in 0..4u64 {
                let base = random_circuit(n, len, seed * 7_919 + k as u64);
                for h_share in ["none", "quarter", "half"] {
                    let gates: Vec<Gate> = base
                        .gates
                        .iter()
                        .filter(|g| !matches!(g, Gate::Cnot(c, t) if c == t))
                        .map(|&g| match (h_share, g) {
                            ("none", Gate::H(q)) => Gate::X(q),
                            ("half", Gate::X(q)) => Gate::H(q),
                            _ => g,
                        })
                        .collect();
                    assert_eq!(
                        RotationMerge.run(gates.clone(), n),
                        reference_run(&gates, n),
                        "width {n}, length {len}, seed {seed}, H share {h_share}"
                    );
                }
            }
        }
    }

    #[test]
    fn fan_in_crosses_max_terms_like_the_reference() {
        // Wire 129 gains one variable per CNOT: 128 terms after control
        // 126, reset to a fresh variable by control 127.
        let theta = Angle::PI_4;
        let mut gates = vec![Gate::Rz(129, theta)];
        for i in 0..129 {
            gates.push(Gate::Cnot(i, 129));
            if i == 126 {
                gates.push(Gate::Rz(129, theta));
            }
        }
        gates.push(Gate::Rz(129, theta));
        // Without the reset the same fan-in would now lead back to x129 and
        // this rotation would merge into the first one.
        gates.extend((0..129).map(|i| Gate::Cnot(i, 129)));
        gates.push(Gate::Rz(129, theta));
        let out = RotationMerge.run(gates.clone(), 130);
        assert_eq!(out, reference_run(&gates, 130));
        assert_eq!(out, gates, "no two rotations share a function");
    }

    #[test]
    fn rotation_on_an_empty_parity_is_dropped() {
        // Valid circuits keep their wires linearly independent, so only the
        // degenerate CNOT(q, q) XORs a parity with itself; what follows
        // sits on a constant and is a global phase.
        let gates = vec![
            Gate::Rz(0, Angle::PI_4),
            Gate::Cnot(0, 0),
            Gate::Rz(0, Angle::PI_4),
            Gate::X(0),
            Gate::Rz(0, Angle::PI_2),
            Gate::Cnot(0, 1),
            Gate::Rz(1, Angle::PI_4),
        ];
        let out = RotationMerge.run(gates.clone(), 2);
        assert_eq!(out, reference_run(&gates, 2));
        assert_eq!(
            out,
            vec![
                Gate::Rz(0, Angle::PI_4),
                Gate::Cnot(0, 0),
                Gate::X(0),
                Gate::Cnot(0, 1),
                Gate::Rz(1, Angle::PI_4),
            ]
        );
    }

    #[test]
    fn state_is_sized_by_touched_wires_not_circuit_width() {
        // Not fed to `reference_run`: it allocates one vector per wire of
        // the enclosing circuit before looking at a gate.
        let c = random_circuit(12, 400, 5);
        let narrow = RotationMerge.run(c.gates.clone(), 12);
        let start = std::time::Instant::now();
        let wide = RotationMerge.run(c.gates.clone(), 1_000_000);
        let took = start.elapsed();
        assert_eq!(wide, narrow);
        assert!(took.as_millis() < 50, "took {took:?}");
    }

    #[test]
    fn adjacent_rotations_merge() {
        let mut c = Circuit::new(1);
        c.rz(0, Angle::PI_4).rz(0, Angle::PI_2);
        assert_eq!(run(&c), vec![Gate::Rz(0, Angle::pi_frac(3, 4))]);
    }

    #[test]
    fn merge_through_cnot_sandwich() {
        // RZ(1) CNOT(0,1) RZ'(1) CNOT(0,1): wire 1 carries x1, then x0^x1,
        // then x1 again — the outer rotations merge despite the CNOTs.
        let mut c = Circuit::new(2);
        c.rz(1, Angle::PI_4)
            .cnot(0, 1)
            .rz(1, Angle::PI_4) // on x0^x1: independent, stays
            .cnot(0, 1)
            .rz(1, Angle::PI_4); // back on x1: merges with the first
        let out = run(&c);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], Gate::Rz(1, Angle::PI_2));
        let oc = Circuit {
            num_qubits: 2,
            gates: out,
        };
        assert!(qsim::circuits_equivalent_exact(&c, &oc));
    }

    #[test]
    fn complement_merges_with_negation() {
        // X(0) RZ(θ) X(0) RZ(φ) : first rotation acts on ¬x0, second on x0;
        // they merge to RZ(φ−θ) at the first site.
        let mut c = Circuit::new(1);
        c.x(0).rz(0, Angle::PI_4).x(0).rz(0, Angle::PI_2);
        let out = run(&c);
        // Merged: π/4 at site on ¬x0, contribution of π/2 on x0 is −π/2
        // there: π/4 − π/2 = −π/4 = 7π/4.
        assert_eq!(
            out,
            vec![Gate::X(0), Gate::Rz(0, Angle::SEVEN_PI_4), Gate::X(0)]
        );
        let oc = Circuit {
            num_qubits: 1,
            gates: out,
        };
        assert!(qsim::circuits_equivalent_exact(&c, &oc));
    }

    #[test]
    fn rotations_cancelling_to_zero_disappear() {
        let mut c = Circuit::new(2);
        c.rz(0, Angle::PI_4).cnot(0, 1).rz(0, -Angle::PI_4);
        assert_eq!(run(&c), vec![Gate::Cnot(0, 1)]);
    }

    #[test]
    fn h_blocks_merging() {
        let mut c = Circuit::new(1);
        c.rz(0, Angle::PI_4).h(0).rz(0, Angle::PI_4);
        assert_eq!(run(&c).len(), 3);
    }

    #[test]
    fn merges_across_different_wires() {
        // The swap-by-three-CNOTs moves x0 onto wire 1; a rotation on wire 0
        // before the swap and on wire 1 after it act on the same linear
        // function x0 and must merge.
        let mut c = Circuit::new(2);
        c.rz(0, Angle::PI_4)
            .cnot(0, 1)
            .cnot(1, 0)
            .cnot(0, 1)
            .rz(1, Angle::PI_4);
        let out = run(&c);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], Gate::Rz(0, Angle::PI_2));
        let oc = Circuit {
            num_qubits: 2,
            gates: out,
        };
        assert!(qsim::circuits_equivalent_exact(&c, &oc));
    }

    #[test]
    fn never_increases_count_and_preserves_semantics() {
        for seed in 0..10 {
            let c = random_circuit(4, 80, seed * 17 + 3);
            let out = Circuit {
                num_qubits: 4,
                gates: run(&c),
            };
            assert!(out.len() <= c.len());
            assert!(
                qsim::circuits_equivalent(&c, &out, 3, seed ^ 0xfeed),
                "seed {seed}: pass changed semantics"
            );
        }
    }

    #[test]
    fn long_distance_merge() {
        // Two rotations on x0 separated by a pile of unrelated activity.
        let mut c = Circuit::new(3);
        c.rz(0, Angle::PI_4);
        for _ in 0..10 {
            c.h(1).cnot(1, 2).x(2);
        }
        c.rz(0, Angle::PI_4);
        let out = run(&c);
        assert_eq!(out.len(), c.len() - 1);
        assert_eq!(out[0], Gate::Rz(0, Angle::PI_2));
    }
}
