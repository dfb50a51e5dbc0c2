//! Skewed: a worst-case workload for contiguous-chunk parallel
//! scheduling, built as a reproduction-extension family (not in the
//! paper's Table 1).
//!
//! The circuit alternates two kinds of blocks whose *per-segment oracle
//! cost* differs by more than an order of magnitude, with the expensive
//! kind drawn from a Zipf-like (`P(k) ∝ 1/k`) depth distribution:
//!
//! * **cold blocks** (the common case) are `RZ(odd)·H·CNOT` weaves over
//!   cycling wires — every cancellation walk in the rule pipeline stops
//!   at its next same-wire neighbour, the odd grid angles dodge every
//!   Hadamard-reduction special case, and no rewrite fires, so the
//!   oracle dismisses such a segment after one cheap pass;
//! * **hot blocks** (the Zipf tail) are deeply *nested single-wire
//!   palindromes* (`[H X]^d · RZ(θ) · RZ(−θ) · [X H]^d`): only the
//!   innermost adjacent pair is cancellable at any moment, so each
//!   fixpoint iteration of the pipeline peels one nesting level and a
//!   depth-`d` block costs ~`d` full pipeline passes.
//!
//! Consecutive 2Ω-segments therefore carry oracle costs spanning more
//! than an order of magnitude (measured ≥ 10× median-to-max at Ω = 50)
//! — the blockwise cost skew HOPPS observes in real circuits. Splitting
//! a round's fingers into one contiguous chunk per thread strands the
//! whole round behind whichever chunk drew the hot blocks; claiming
//! many small chunks from a shared cursor rebalances them.

use super::{grid_angle, GRID_DEN};
use qcir::{Angle, Circuit};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Zipf-like rank sample: returns `k` in `1..=max_rank` with
/// `P(k) ∝ 1/k` (inverse-CDF over the harmonic weights, driven by the
/// rand shim's `f64` sampling).
fn zipf_rank(rng: &mut ChaCha8Rng, max_rank: usize) -> usize {
    debug_assert!(max_rank >= 1);
    let harmonic: f64 = (1..=max_rank).map(|k| 1.0 / k as f64).sum();
    let mut u: f64 = rng.gen::<f64>() * harmonic;
    for k in 1..=max_rank {
        u -= 1.0 / k as f64;
        if u <= 0.0 {
            return k;
        }
    }
    max_rank
}

/// A cold stretch: `RZ(odd)·H·CNOT` cells cycling the wires from a
/// random offset. On every wire the gate order is RZ → H → CNOT-control,
/// so each forward cancellation walk stops at its immediate same-wire
/// neighbour (RZ cannot pass H, H cannot pass a control, a CNOT cannot
/// pass the H on its control wire), and the odd grid angles rule out the
/// Hadamard-reduction rewrites — nothing fires, one pass, done.
fn cold_block(c: &mut Circuit, qubits: u32, rng: &mut ChaCha8Rng, cells: usize) {
    let lanes = qubits - 1;
    let offset: u32 = rng.gen_range(0..lanes);
    for i in 0..cells as u32 {
        let q = (offset + i) % lanes;
        c.rz(q, Angle::pi_frac(grid_angle(rng) | 1, GRID_DEN));
        c.h(q);
        c.cnot(q, q + 1);
    }
}

/// A hot block: a depth-`d` nested palindrome on one random wire —
/// alternating `H`/`X` shells around a `±θ` rotation pair that cancels
/// to nothing. Every shell's partner is blocked by the shell inside it,
/// so the pipeline's cancellation sweep removes only the innermost
/// adjacent pair per fixpoint iteration: the whole block drains, but at
/// a cost of ~`d` full passes over the segment.
fn hot_block(c: &mut Circuit, qubits: u32, rng: &mut ChaCha8Rng, depth: usize) {
    let q: u32 = rng.gen_range(0..qubits);
    let theta = grid_angle(rng) | 1;
    let shell = |c: &mut Circuit, k: usize| {
        if k.is_multiple_of(2) {
            c.h(q);
        } else {
            c.x(q);
        }
    };
    for k in 0..depth {
        shell(c, k);
    }
    c.rz(q, Angle::pi_frac(theta, GRID_DEN));
    c.rz(q, Angle::pi_frac(-theta, GRID_DEN));
    for k in (0..depth).rev() {
        shell(c, k);
    }
}

pub fn generate(qubits: u32, rng: &mut ChaCha8Rng) -> Circuit {
    assert!(qubits >= 4, "Skewed needs at least 4 qubits");
    let n = qubits as usize;
    // Quadratic block count so the ladder's gate counts climb like the
    // other families'.
    let blocks = (n * n / 2).max(8);
    let mut c = Circuit::new(qubits);
    for _ in 0..blocks {
        // 1-in-16 blocks are hot, with a Zipf-distributed nesting depth:
        // most hot blocks are mild, a heavy 1/k tail is enormous.
        // Everything else is cheap filler — the mix that breaks
        // contiguous chunking.
        if rng.gen_range(0..16u32) == 0 {
            let depth = 8 * zipf_rank(rng, 16);
            hot_block(&mut c, qubits, rng, depth);
        } else {
            cold_block(&mut c, qubits, rng, 6);
        }
    }
    c
}
