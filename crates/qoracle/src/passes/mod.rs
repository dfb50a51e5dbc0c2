//! The rule-based optimizer's pass framework.
//!
//! Each pass implements one of the Nam-et-al. optimization families as a
//! deterministic function of the gate sequence (and the circuit width) that
//! also reports whether it changed anything. Passes communicate only through
//! the gate sequence, so the pipeline in [`crate::rule_based`] can run them
//! in any order and to fixpoint, and can skip a pass whose answer on the
//! current sequence it already knows.
//!
//! Most calls change nothing, so the passes make that case cheap. The two
//! cancellation passes each replay their forward walks in one scan, O(n)
//! (expected, for the CNOT pass's pair table) in the length: one open walk
//! per wire for single-qubit gates, one per control-target pair for CNOTs.
//! They rewrite their input vector in place and record removals in a
//! `Tombstones` bitmap that exists only once something is removed; a call
//! that removes nothing returns its input as it came. `RotationMerge`
//! first tries a linear proof that no two rotations can merge and returns
//! its input when the proof holds.

pub mod cancel_1q;
pub mod cancel_2q;
pub mod hadamard;
pub mod not_prop;
pub mod rotation_merge;
pub mod rotation_merge_scan;

pub use cancel_1q::CancelSingleQubit;
pub use cancel_2q::CancelTwoQubit;
pub use hadamard::HadamardReduction;
pub use not_prop::NotPropagation;
pub use rotation_merge::RotationMerge;
pub use rotation_merge_scan::RotationMergeScan;

use qcir::Gate;

/// One optimization pass over a gate sequence.
pub trait Pass: Sync + Send {
    /// Pass name for tracing and experiment tables.
    fn name(&self) -> &'static str;

    /// Rewrites the gate sequence into an equivalent one (up to global
    /// phase). `num_qubits` is the enclosing circuit width.
    ///
    /// The flag is `true` whenever the output differs from the input; it
    /// may be `true` for an unchanged output, never `false` for a changed
    /// one. The pipeline skips a pass that already left the same sequence
    /// unchanged, which is sound only because the output is a function of
    /// the input and `num_qubits` alone.
    fn run(&self, gates: Vec<Gate>, num_qubits: u32) -> (Vec<Gate>, bool);
}

/// Compacts a tombstoned working buffer into a dense gate vector, dropping
/// removed slots and identity rotations (`RZ(0)`). The flag is whether
/// anything was dropped: for passes whose every rewrite deletes a gate,
/// exactly whether the output differs from the input.
///
/// Passes that rewrite their input in place use [`Tombstones`] instead;
/// this form is left to the quadratic [`RotationMergeScan`] and the
/// reference implementations the tests hold the passes to.
pub(crate) fn compact(slots: Vec<Option<Gate>>) -> (Vec<Gate>, bool) {
    let len = slots.len();
    let out: Vec<Gate> = slots
        .into_iter()
        .flatten()
        .filter(|g| !g.is_identity())
        .collect();
    let changed = out.len() < len;
    (out, changed)
}

/// The removed positions of a pass that rewrites its gate vector in place.
///
/// The contract of an in-place pass: it may overwrite a gate with its
/// replacement (a merged rotation) and mark positions removed here, and it
/// notes whether its input holds an identity rotation (`RZ(0)`). Nothing
/// is allocated until the first removal, and [`Tombstones::compact`] hands
/// an input with no removal and no `RZ(0)` back untouched, so a call that
/// finds nothing to do neither allocates nor copies.
#[derive(Default)]
pub(crate) struct Tombstones(Vec<u64>);

impl Tombstones {
    /// Whether position `i` was removed.
    #[inline]
    pub(crate) fn is_dead(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Removes position `i` of a `len`-gate sequence.
    #[inline]
    pub(crate) fn kill(&mut self, i: usize, len: usize) {
        if self.0.is_empty() {
            self.0 = vec![0; len.div_ceil(64)];
        }
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// Drops the removed positions and every `RZ(0)` from `gates` with one
    /// `retain`; `identity` is whether the input held an `RZ(0)`. The flag
    /// is whether anything was dropped, as for [`compact`].
    pub(crate) fn compact(self, mut gates: Vec<Gate>, identity: bool) -> (Vec<Gate>, bool) {
        if self.0.is_empty() && !identity {
            return (gates, false);
        }
        let len = gates.len();
        let mut i = 0;
        gates.retain(|g| {
            let keep = !self.is_dead(i) && !g.is_identity();
            i += 1;
            keep
        });
        let changed = gates.len() < len;
        (gates, changed)
    }
}

/// One entry per gate: the neighbouring slot on the gate's first wire and
/// on its second, [`NO_LINK`] where the wire's chain ends or there is no
/// second wire.
pub(crate) type WireLinks = Vec<(u32, u32)>;

/// "No such slot" in [`WireLinks`].
pub(crate) const NO_LINK: u32 = u32::MAX;

/// Per-wire neighbour links `(next, prev)`, looking forward and back along
/// each gate's own wires. The pattern-matching passes follow these instead
/// of rescanning the sequence for "the next gate on this wire".
pub(crate) fn wire_links(gates: &[Gate], num_qubits: u32) -> (WireLinks, WireLinks) {
    let mut next = vec![(NO_LINK, NO_LINK); gates.len()];
    let mut prev = vec![(NO_LINK, NO_LINK); gates.len()];
    let mut last = vec![NO_LINK; num_qubits as usize];
    for (i, g) in gates.iter().enumerate() {
        // Links gate `i` after the last gate seen on wire `q`; returns it.
        let mut link = |q: u32| {
            let p = std::mem::replace(&mut last[q as usize], i as u32);
            if p != NO_LINK {
                let (first, second) = &mut next[p as usize];
                let on_first = gates[p as usize].qubits().0 == q;
                *(if on_first { first } else { second }) = i as u32;
            }
            p
        };
        let (a, b) = g.qubits();
        prev[i].0 = link(a);
        if let Some(b) = b {
            prev[i].1 = link(b);
        }
    }
    (next, prev)
}

#[cfg(test)]
pub(crate) mod testutil {
    use popqc::oracles::{RuleBasedOptimizer, SegmentOracle};
    use popqc::prelude::{optimize_circuit, Family, PopqcConfig};
    use qcir::{Angle, Circuit, Gate};
    use std::sync::{Mutex, OnceLock};

    /// Hands segments to the engine's oracle, keeping a copy of each.
    struct Recording {
        oracle: RuleBasedOptimizer,
        segments: Mutex<Vec<(Vec<Gate>, u32)>>,
    }

    impl SegmentOracle<Gate> for Recording {
        fn optimize(&self, units: &[Gate], num_qubits: u32) -> Vec<Gate> {
            self.segments
                .lock()
                .expect("no recording thread panics")
                .push((units.to_vec(), num_qubits));
            self.oracle.optimize(units, num_qubits)
        }

        fn cost(&self, units: &[Gate]) -> u64 {
            self.oracle.cost(units)
        }
    }

    /// Every 2Ω-segment (Ω = 100), with its circuit width, that the engine
    /// feeds `rule_based` while optimizing each family of [`Family::ALL`]
    /// at `ladder(0)[0]` (generator seed 7). The oracle is the library
    /// build the engine links against, so the segments are the ones a real
    /// run produces; recorded once per test binary.
    pub fn family_segments() -> &'static [(Vec<Gate>, u32)] {
        static SEGMENTS: OnceLock<Vec<(Vec<Gate>, u32)>> = OnceLock::new();
        SEGMENTS.get_or_init(|| {
            let recording = Recording {
                oracle: RuleBasedOptimizer::oracle(),
                segments: Mutex::new(Vec::new()),
            };
            for family in Family::ALL {
                let circuit = family.generate(family.ladder(0)[0], 7);
                optimize_circuit(&circuit, &recording, &PopqcConfig::with_omega(100));
            }
            recording
                .segments
                .into_inner()
                .expect("no recording thread panics")
        })
    }

    /// SplitMix64 from `seed`, kept local to avoid a dev-dependency cycle
    /// with qsim.
    fn splitmix64(mut s: u64) -> impl FnMut() -> u64 {
        move || {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }

    /// Deterministic random circuit over `n` qubits with angles on the
    /// π/8 grid — dense in redundancy so passes have work to do.
    pub fn random_circuit(n: u32, len: usize, seed: u64) -> Circuit {
        let mut next = splitmix64(seed);
        let mut c = Circuit::new(n);
        for _ in 0..len {
            let r = next();
            let q = (r % n as u64) as u32;
            match (r >> 8) % 4 {
                0 => {
                    c.h(q);
                }
                1 => {
                    c.x(q);
                }
                2 => {
                    c.rz(q, Angle::pi_frac(((r >> 16) % 16) as i64, 8));
                }
                _ => {
                    let mut t = ((r >> 16) % n as u64) as u32;
                    if t == q {
                        t = (t + 1) % n;
                    }
                    c.cnot(q, t);
                }
            }
        }
        c
    }

    /// `gates` and the sequences the pipeline makes of it before each
    /// cancellation pass: after NOT propagation and Hadamard reduction,
    /// and after rotation merging.
    pub fn cancellation_inputs(gates: &[Gate], num_qubits: u32) -> [Vec<Gate>; 3] {
        use super::{HadamardReduction, NotPropagation, Pass, RotationMerge};
        let first = NotPropagation.run(gates.to_vec(), num_qubits).0;
        let first = HadamardReduction.run(first, num_qubits).0;
        let merged = RotationMerge.run(first.clone(), num_qubits).0;
        [gates.to_vec(), first, merged]
    }

    /// Small inputs at the edges of the cancellation walks, with their
    /// widths: the degenerate `CNOT(q, q)`, identity rotations, a rotation
    /// pair whose sum has no canonical [`Angle`], X sliding past a CNOT
    /// target, RZ sliding past a control, H blocked by a CNOT, and a merge
    /// chain that reaches zero mid-wire. Then the mechanics of the CNOT
    /// scan: a pair cancelling across a fan-out and across a fan-in, X on
    /// the control (blocks) against X on the target (does not), a pair
    /// that opens again after a block, nested pairs, and `CNOT(q, q)` next
    /// to the gates that do and do not block it.
    pub fn hand_cases() -> Vec<(Vec<Gate>, u32)> {
        use Gate::{Cnot, Rz, H, X};
        let (pi_4, pi_2) = (Angle::PI_4, Angle::PI_2);
        // Coprime denominators just above 2^31.5: no canonical sum.
        let (a, b) = (Angle::pi_frac(1, 3037000507), Angle::pi_frac(1, 3037000493));
        vec![
            (
                vec![Rz(0, pi_4), Cnot(0, 0), Rz(0, pi_4), X(0), Cnot(0, 0), X(0)],
                1,
            ),
            (vec![H(0), Cnot(0, 0), H(0), Cnot(0, 0), Cnot(0, 0)], 1),
            (vec![Cnot(0, 1), Cnot(1, 1), Cnot(0, 1), Rz(1, pi_4)], 2),
            (
                vec![Rz(0, Angle::ZERO), H(1), Rz(0, pi_4), Rz(1, Angle::ZERO)],
                2,
            ),
            (vec![Cnot(0, 1), Rz(1, Angle::ZERO), Cnot(0, 1)], 2),
            (vec![H(0), Rz(1, Angle::ZERO)], 2),
            (vec![Rz(0, a), Rz(0, b)], 1),
            (vec![Rz(0, a), Cnot(0, 1), Rz(0, b), Rz(0, -b)], 2),
            (vec![Rz(0, a), X(0), Rz(0, b), X(0), Rz(0, -a)], 1),
            (vec![X(1), Cnot(0, 1), X(1), Cnot(0, 1)], 2),
            (vec![Rz(0, pi_4), Cnot(0, 1), Rz(0, pi_4), Cnot(0, 1)], 2),
            (vec![Rz(1, pi_4), Cnot(0, 1), Rz(1, -pi_4)], 2),
            (vec![H(0), Cnot(0, 1), H(0), Cnot(1, 0), Cnot(0, 1)], 2),
            (
                vec![
                    Rz(0, pi_2),
                    Cnot(0, 1),
                    Rz(0, pi_2),
                    Rz(0, Angle::PI),
                    Rz(0, pi_4),
                    H(0),
                    H(0),
                    Rz(0, -pi_4),
                ],
                2,
            ),
            (vec![Cnot(0, 1), Cnot(0, 2), Cnot(0, 3), Cnot(0, 2)], 4),
            (vec![Cnot(1, 0), Cnot(2, 0), X(0), Cnot(1, 0)], 3),
            (vec![Cnot(0, 1), X(0), Cnot(0, 1)], 2),
            (vec![Cnot(0, 1), X(1), Cnot(0, 1)], 2),
            (vec![Cnot(0, 1), H(1), Cnot(0, 1), Cnot(0, 1)], 2),
            (vec![Cnot(0, 1), Cnot(1, 0), Cnot(1, 0), Cnot(0, 1)], 2),
            (vec![Cnot(0, 0), X(0), Cnot(0, 0)], 1),
            (vec![Cnot(0, 0), Rz(0, pi_4), Cnot(0, 0)], 1),
            (vec![Cnot(0, 0), Cnot(0, 1), Cnot(0, 0)], 2),
            (
                vec![
                    Cnot(0, 0),
                    X(0),
                    Cnot(0, 1),
                    Cnot(0, 0),
                    Rz(0, pi_4),
                    Cnot(0, 0),
                ],
                2,
            ),
        ]
    }

    /// `count` short random inputs for the cancellation passes, with their
    /// widths: widths 1–5, lengths 0–40, about half CNOTs with the
    /// degenerate `CNOT(q, q)` allowed, and rotations on the π/8 grid,
    /// `RZ(0)` included. Drawn from `seed` as in [`random_circuit`].
    pub fn fuzz_inputs(count: usize, seed: u64) -> Vec<(Vec<Gate>, u32)> {
        let mut next = splitmix64(seed);
        (0..count)
            .map(|_| {
                let n = (next() % 5) as u32 + 1;
                let len = (next() % 41) as usize;
                let gates = (0..len)
                    .map(|_| {
                        let r = next();
                        let q = (r % u64::from(n)) as u32;
                        match (r >> 8) % 6 {
                            0 => Gate::H(q),
                            1 => Gate::X(q),
                            2 => Gate::Rz(q, Angle::pi_frac(((r >> 16) % 16) as i64, 8)),
                            _ => Gate::Cnot(q, ((r >> 16) % u64::from(n)) as u32),
                        }
                    })
                    .collect();
                (gates, n)
            })
            .collect()
    }

    /// [`random_circuit`] inputs of widths 1–60 and lengths 0–300, with
    /// their widths. The π/8 grid includes S and S†; the degenerate
    /// `CNOT(0, 0)` that width 1 draws is left out.
    pub fn random_inputs() -> Vec<(Vec<Gate>, u32)> {
        let mut inputs = Vec::new();
        for n in [1, 2, 3, 5, 8, 13, 21, 40, 60] {
            for len in [0, 1, 7, 60, 300] {
                for seed in 0..3 {
                    let c = random_circuit(n, len, seed * 1_009 + u64::from(n) * 31 + len as u64);
                    let gates = c
                        .gates
                        .into_iter()
                        .filter(|g| !matches!(g, Gate::Cnot(a, b) if a == b))
                        .collect();
                    inputs.push((gates, n));
                }
            }
        }
        inputs
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{family_segments, hand_cases, random_inputs};
    use super::*;
    use crate::structural::CancelSelfInverse;

    /// The six rule-based passes and the structural oracle's one.
    const PASSES: [&dyn Pass; 7] = [
        &NotPropagation,
        &HadamardReduction,
        &CancelSingleQubit,
        &CancelTwoQubit,
        &RotationMerge,
        &RotationMergeScan { deadline: None },
        &CancelSelfInverse,
    ];

    /// Runs every pass on `gates` and then on its own output until it
    /// reports no change, checking each flag against the outputs.
    fn assert_flags_exact(gates: &[Gate], num_qubits: u32) {
        for pass in PASSES {
            let mut input = gates.to_vec();
            for _ in 0..64 {
                let (out, changed) = pass.run(input.clone(), num_qubits);
                assert_eq!(
                    changed,
                    out != input,
                    "{}: flag {changed} on {input:?}",
                    pass.name()
                );
                if !changed {
                    break;
                }
                input = out;
            }
        }
    }

    #[test]
    fn change_flags_are_exact_on_random_circuits() {
        for (gates, n) in random_inputs() {
            assert_flags_exact(&gates, n);
        }
    }

    #[test]
    fn change_flags_are_exact_on_hand_cases() {
        for (gates, n) in hand_cases() {
            assert_flags_exact(&gates, n);
        }
    }

    #[test]
    fn change_flags_are_exact_on_family_segments() {
        for (gates, n) in family_segments() {
            assert_flags_exact(gates, *n);
        }
    }
}
