//! The rule-based optimizer's pass framework.
//!
//! Each pass is a pure function `Vec<Gate> → Vec<Gate>` implementing one of
//! the Nam-et-al. optimization families. Passes communicate only through the
//! gate sequence, so the pipeline in [`crate::rule_based`] can run them in
//! any order and to fixpoint.

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
    fn run(&self, gates: Vec<Gate>, num_qubits: u32) -> Vec<Gate>;
}

/// Compacts a tombstoned working buffer into a dense gate vector, dropping
/// removed slots and identity rotations (`RZ(0)`).
pub(crate) fn compact(slots: Vec<Option<Gate>>) -> Vec<Gate> {
    slots
        .into_iter()
        .flatten()
        .filter(|g| !g.is_identity())
        .collect()
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
    use qcir::{Angle, Circuit};

    /// Deterministic random circuit over `n` qubits with angles on the
    /// π/8 grid — dense in redundancy so passes have work to do.
    pub fn random_circuit(n: u32, len: usize, seed: u64) -> Circuit {
        // SplitMix64, kept local to avoid a dev-dependency cycle with qsim.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
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
}
