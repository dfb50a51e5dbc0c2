//! Property-based tests for the segment cache's two in-process keys — the
//! keying functions its soundness rests on, since a hit is never checked
//! against the segment. Three properties matter:
//!
//! 1. **Exact, nothing more**: the exact key ([`segment_key_exact`]) is
//!    equal iff width and gate sequence, exact angles included, are equal;
//!    each targeted one-gate edit moves it.
//! 2. **Angle erasure, nothing more**: the abstract fingerprint is equal
//!    iff structure and operands match under arbitrary angle
//!    substitution — substituting every rotation angle never changes the
//!    key, while any structural edit (kind, wire, order, width, length)
//!    does.
//! 3. **Domain disjointness**: an abstract key never collides with an
//!    exact one, so both entry kinds can share one cache table.
//!
//! A gate is absorbed as a word pair whose first word carries the tag and
//! the (control) wire, so one exhaustive case below checks that the
//! stream still decodes one way only, and a bulk case checks every
//! 400-gate window of two generated circuits.

use benchgen::Family;
use proptest::prelude::*;
use qcir::fingerprint::{fingerprint_gates_abstract, segment_key_exact};
use qcir::{Angle, Gate};
use std::collections::HashMap;

const WIDTH: u32 = 8;

fn arb_angle() -> impl Strategy<Value = Angle> {
    (-(1i64 << 20)..(1i64 << 20), 1i64..(1 << 16)).prop_map(|(num, den)| Angle::pi_frac(num, den))
}

fn arb_gate() -> impl Strategy<Value = Gate> {
    (0u32..4, 0u32..WIDTH, 0u32..WIDTH, arb_angle()).prop_map(|(kind, a, b, angle)| match kind {
        0 => Gate::H(a),
        1 => Gate::X(a),
        2 => Gate::Rz(a, angle),
        _ => Gate::Cnot(a, if a == b { (b + 1) % WIDTH } else { b }),
    })
}

fn arb_gates() -> impl Strategy<Value = Vec<Gate>> {
    prop::collection::vec(arb_gate(), 0..40)
}

/// `gates` with every rotation angle replaced from `fresh`, cycling.
/// Structure and operand wires are untouched.
fn substitute_angles(gates: &[Gate], fresh: &[Angle]) -> Vec<Gate> {
    let mut next = 0usize;
    gates
        .iter()
        .map(|g| match *g {
            Gate::Rz(q, _) if !fresh.is_empty() => {
                let a = fresh[next % fresh.len()];
                next += 1;
                Gate::Rz(q, a)
            }
            other => other,
        })
        .collect()
}

/// Structural skeleton used to decide ground-truth equality: everything
/// except rotation angle values.
fn skeleton(num_qubits: u32, gates: &[Gate]) -> (u32, Vec<(u8, u32, u32)>) {
    let enc = gates
        .iter()
        .map(|g| match *g {
            Gate::H(q) => (0u8, q, 0),
            Gate::X(q) => (1, q, 0),
            Gate::Rz(q, _) => (2, q, 0),
            Gate::Cnot(c, t) => (3, c, t),
        })
        .collect();
    (num_qubits, enc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn angle_substitution_preserves_the_abstract_key(
        gates in arb_gates(),
        fresh in prop::collection::vec(arb_angle(), 1..8),
    ) {
        let substituted = substitute_angles(&gates, &fresh);
        prop_assert_eq!(
            fingerprint_gates_abstract(WIDTH, &gates),
            fingerprint_gates_abstract(WIDTH, &substituted),
            "angle substitution must not move the abstract key"
        );
    }

    #[test]
    fn abstract_keys_agree_iff_skeletons_agree(
        a in arb_gates(),
        b in arb_gates(),
    ) {
        let same_key =
            fingerprint_gates_abstract(WIDTH, &a) == fingerprint_gates_abstract(WIDTH, &b);
        let same_skeleton = skeleton(WIDTH, &a) == skeleton(WIDTH, &b);
        // Equal skeletons MUST agree; differing skeletons must not collide
        // (a hash, so this direction is "no collision observed" — any
        // counterexample here is a real keying bug at these sizes).
        prop_assert_eq!(same_key, same_skeleton);
    }

    #[test]
    fn structural_edits_change_the_abstract_key(
        gates in prop::collection::vec(arb_gate(), 1..40),
        edit_at in 0usize..64,
    ) {
        let i = edit_at % gates.len();
        let mut edited = gates.clone();
        // A guaranteed-structural edit: flip the gate kind at `i`.
        edited[i] = match edited[i] {
            Gate::H(q) => Gate::X(q),
            Gate::X(q) => Gate::H(q),
            Gate::Rz(q, _) => Gate::H(q),
            Gate::Cnot(c, t) => Gate::Cnot(t, c),
        };
        prop_assert_ne!(
            fingerprint_gates_abstract(WIDTH, &gates),
            fingerprint_gates_abstract(WIDTH, &edited)
        );
        // Dropping a gate is structural too.
        let mut shorter = gates.clone();
        shorter.remove(i);
        prop_assert_ne!(
            fingerprint_gates_abstract(WIDTH, &gates),
            fingerprint_gates_abstract(WIDTH, &shorter)
        );
    }

    #[test]
    fn abstract_never_collides_with_the_exact_domain(
        a in arb_gates(),
        b in arb_gates(),
    ) {
        prop_assert_ne!(
            fingerprint_gates_abstract(WIDTH, &a),
            segment_key_exact(WIDTH, &b),
            "abstract and exact key spaces must stay disjoint"
        );
        // Including each sequence against its own exact key.
        prop_assert_ne!(
            fingerprint_gates_abstract(WIDTH, &a),
            segment_key_exact(WIDTH, &a)
        );
    }

    #[test]
    fn exact_keys_agree_iff_inputs_agree(
        a in arb_gates(),
        b in arb_gates(),
        widths in (0u32..2, 0u32..2),
    ) {
        let (wa, wb) = (WIDTH + widths.0, WIDTH + widths.1);
        prop_assert_eq!(
            segment_key_exact(wa, &a) == segment_key_exact(wb, &b),
            (wa, &a) == (wb, &b)
        );
        prop_assert_eq!(segment_key_exact(wa, &a), segment_key_exact(wa, &a.clone()));
    }

    #[test]
    fn targeted_edits_change_the_exact_key(
        gates in arb_gates(),
        at in 0usize..64,
        wires in (0u32..WIDTH, 1u32..WIDTH),
        angle in (0i64..(1 << 15), 1u32..16),
    ) {
        let (q, r) = (wires.0, (wires.0 + wires.1) % WIDTH);
        // An odd numerator over a power-of-two denominator is canonical as
        // written, so each angle edit below moves exactly one of the two.
        let (num, den) = (2 * angle.0 + 1, 1i64 << angle.1);
        let num = num % (2 * den);
        let edits = [
            (Gate::H(q), Gate::X(q)),
            (Gate::H(q), Gate::H(r)),
            (Gate::Cnot(q, r), Gate::Cnot(r, q)),
            (
                Gate::Rz(q, Angle::pi_frac(num, den)),
                Gate::Rz(q, Angle::pi_frac((num + 2) % (2 * den), den)),
            ),
            (
                Gate::Rz(q, Angle::pi_frac(num, den)),
                Gate::Rz(q, Angle::pi_frac(num, 2 * den)),
            ),
        ];
        let i = at % (gates.len() + 1);
        for (before, after) in edits {
            let mut base = gates.clone();
            base.insert(i, before);
            let mut edited = base.clone();
            edited[i] = after;
            prop_assert_ne!(
                segment_key_exact(WIDTH, &base),
                segment_key_exact(WIDTH, &edited),
                "{:?} -> {:?} at {} kept the key",
                before,
                after,
                i
            );
        }
        let key = segment_key_exact(WIDTH, &gates);
        // An adjacent swap of two different gates.
        if let Some(j) = (0..gates.len().saturating_sub(1)).find(|&j| gates[j] != gates[j + 1]) {
            let mut swapped = gates.clone();
            swapped.swap(j, j + 1);
            prop_assert_ne!(key, segment_key_exact(WIDTH, &swapped));
        }
        // Append, truncate and width.
        let mut longer = gates.clone();
        longer.push(Gate::H(q));
        prop_assert_ne!(key, segment_key_exact(WIDTH, &longer));
        if !gates.is_empty() {
            prop_assert_ne!(key, segment_key_exact(WIDTH, &gates[..gates.len() - 1]));
        }
        prop_assert_ne!(key, segment_key_exact(WIDTH + 1, &gates));
    }

    #[test]
    fn width_still_matters_in_the_abstract_domain(gates in arb_gates()) {
        prop_assert_ne!(
            fingerprint_gates_abstract(WIDTH, &gates),
            fingerprint_gates_abstract(WIDTH + 1, &gates)
        );
    }
}

/// The one-qubit gates a wire can carry.
fn one_qubit_gates(q: u32) -> [Gate; 3] {
    [Gate::H(q), Gate::X(q), Gate::Rz(q, Angle::PI_4)]
}

#[test]
fn one_word_encoding_is_uniquely_decodable() {
    let wires = [0u32, 1, u32::MAX];
    // A CNOT's two words never read as two one-qubit gates on its wires,
    // whatever their tags: alone (the length prefixes differ too), and
    // followed by a third gate so that both sides have length prefix 2.
    for &c in &wires {
        for &t in &wires {
            if c == t {
                continue;
            }
            let alone = fingerprint_gates_abstract(WIDTH, &[Gate::Cnot(c, t)]);
            let followed = fingerprint_gates_abstract(WIDTH, &[Gate::Cnot(c, t), Gate::H(0)]);
            for a in one_qubit_gates(c) {
                for b in one_qubit_gates(t) {
                    let pair = fingerprint_gates_abstract(WIDTH, &[a, b]);
                    assert_ne!(alone, pair, "Cnot({c}, {t}) collided with [{a:?}, {b:?}]");
                    assert_ne!(
                        followed, pair,
                        "[Cnot({c}, {t}), H(0)] collided with [{a:?}, {b:?}]"
                    );
                }
            }
        }
    }
    // Tag and wire share a word without bleeding into each other.
    let mut seen = std::collections::HashSet::new();
    for g in wires.into_iter().flat_map(one_qubit_gates) {
        assert!(
            seen.insert(fingerprint_gates_abstract(WIDTH, &[g])),
            "{g:?} collided with another one-qubit gate"
        );
    }
}

#[test]
fn every_distinct_window_of_generated_circuits_gets_its_own_key() {
    // Real segments overlap heavily: the windows of one circuit at
    // stride 1 share all but one gate with their neighbours, which is
    // where a weak mix would first show. Every window is hashed in both
    // domains; a key seen before must come from an equal window (exact)
    // or an equal skeleton (abstract), and never from a different one.
    const WINDOW: usize = 400;
    for (family, qubits) in [(Family::Vqe, 12), (Family::Sqrt, 12)] {
        let c = family.generate(qubits, 7);
        assert!(c.gates.len() > 2 * WINDOW, "{family:?} too short");
        let mut exact = HashMap::new();
        let mut abstract_keys = HashMap::new();
        for (at, w) in c.gates.windows(WINDOW).enumerate() {
            let key = segment_key_exact(c.num_qubits, w);
            // Two lanes, not one lane written twice.
            assert_ne!(key.0 as u64, (key.0 >> 64) as u64);
            let first = *exact.entry(key).or_insert(at);
            assert_eq!(
                &c.gates[first..first + WINDOW],
                w,
                "{family:?}: windows {first} and {at} share an exact key"
            );
            let first = *abstract_keys
                .entry(fingerprint_gates_abstract(c.num_qubits, w))
                .or_insert(at);
            assert_eq!(
                skeleton(c.num_qubits, &c.gates[first..first + WINDOW]),
                skeleton(c.num_qubits, w),
                "{family:?}: windows {first} and {at} share an abstract key"
            );
        }
        // Both domains saw more than one distinct input.
        assert!(abstract_keys.len() > 1, "{family:?}: windows all alike");
        assert!(exact.len() >= abstract_keys.len());
    }
}
