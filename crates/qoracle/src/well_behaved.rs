//! A constructive *well-behaved* oracle wrapper.
//!
//! Section 6 of the paper defines an oracle as **well-behaved** when every
//! segment of its output is optimal with respect to the oracle itself; the
//! local-optimality theorem (Theorem 7) is conditional on this property.
//! Real oracles — VOQC, and this crate's [`RuleBasedOptimizer`](crate::RuleBasedOptimizer) — violate it
//! in rare corners: NOT propagation relocates X gates across distances that
//! depend on the window extent, so a fixpoint of a 2Ω-window can still
//! contain an improvable Ω-subwindow (measured at < 1% of windows on random
//! circuits).
//!
//! [`WellBehavedOracle`] closes the gap by construction: it repeatedly
//! (a) offers the inner oracle the whole segment, and (b) sweeps every
//! `window`-sized subsegment of the *current* segment, splicing in any
//! strict reduction, until neither step fires. Two consequences:
//!
//! * its output (and, on rejection, its untouched input) has **no
//!   improvable `window`-subsegment**, which is exactly the premise
//!   Lemma 6 needs — so POPQC over this oracle satisfies Theorem 7
//!   *unconditionally*, and the test suite checks it exactly;
//! * each non-reducing call costs ~`window` inner calls, so this is the
//!   strict/verification configuration, not the fast path.

use crate::SegmentOracle;
use qcir::Gate;

/// Wraps an oracle so that every `window`-sized subsegment of any output
/// (or unchanged input) is irreducible under the inner oracle.
pub struct WellBehavedOracle<O> {
    inner: O,
    window: usize,
}

impl<O: SegmentOracle<Gate>> WellBehavedOracle<O> {
    /// Wraps `inner`, enforcing irreducibility of `window`-subsegments
    /// (use the engine's Ω).
    pub fn new(inner: O, window: usize) -> WellBehavedOracle<O> {
        assert!(window >= 1);
        WellBehavedOracle { inner, window }
    }

    /// Access to the wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: SegmentOracle<Gate>> SegmentOracle<Gate> for WellBehavedOracle<O> {
    fn optimize(&self, units: &[Gate], num_qubits: u32) -> Vec<Gate> {
        let mut out = units.to_vec();
        'outer: loop {
            // Whole-segment attempt (strict reductions only, so a rejected
            // call leaves the input bit-for-bit unchanged).
            let o = self.inner.optimize(&out, num_qubits);
            if o.len() < out.len() {
                out = o;
                continue 'outer;
            }
            // Subsegment sweep at the engine's granularity.
            if out.len() > self.window {
                for s in 0..=out.len() - self.window {
                    let w = &out[s..s + self.window];
                    let o = self.inner.optimize(w, num_qubits);
                    if o.len() < w.len() {
                        let mut next = Vec::with_capacity(out.len() - (w.len() - o.len()));
                        next.extend_from_slice(&out[..s]);
                        next.extend(o);
                        next.extend_from_slice(&out[s + self.window..]);
                        out = next;
                        continue 'outer;
                    }
                }
            }
            break;
        }
        out
    }

    fn cost(&self, units: &[Gate]) -> u64 {
        units.len() as u64
    }

    fn name(&self) -> &'static str {
        "well-behaved"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::testutil::random_circuit;
    use crate::RuleBasedOptimizer;

    #[test]
    fn output_has_no_improvable_subwindow() {
        let omega = 8;
        let wb = WellBehavedOracle::new(RuleBasedOptimizer::oracle(), omega);
        for seed in 0..5 {
            let c = random_circuit(4, 120, seed * 91 + 17);
            let out = wb.optimize(&c.gates, 4);
            assert!(out.len() <= c.gates.len());
            if out.len() >= omega {
                for s in 0..=out.len() - omega {
                    let w = &out[s..s + omega];
                    let o = wb.inner().optimize(w, 4);
                    assert!(
                        o.len() >= w.len(),
                        "seed {seed}: window at {s} reduced {} -> {}",
                        w.len(),
                        o.len()
                    );
                }
            }
        }
    }

    #[test]
    fn rejection_leaves_input_unchanged() {
        // A segment the oracle cannot reduce must come back identical, so
        // the engine's "drop the finger" branch sees the true input.
        let wb = WellBehavedOracle::new(RuleBasedOptimizer::oracle(), 4);
        let gates = vec![Gate::H(0), Gate::Cnot(0, 1), Gate::H(1)];
        assert_eq!(wb.optimize(&gates, 2), gates);
    }

    #[test]
    fn preserves_semantics() {
        let wb = WellBehavedOracle::new(RuleBasedOptimizer::oracle(), 6);
        for seed in 0..4 {
            let c = random_circuit(4, 80, seed * 3 + 1);
            let out = qcir::Circuit {
                num_qubits: 4,
                gates: wb.optimize(&c.gates, 4),
            };
            assert!(qsim::circuits_equivalent(&c, &out, 3, seed));
        }
    }
}
