//! Property-based tests for the angle-abstracted segment fingerprint —
//! the keying function the segment cache's soundness rests on. Two
//! properties matter:
//!
//! 1. **Angle erasure, nothing more**: the abstract fingerprint is equal
//!    iff structure and operands match under arbitrary angle
//!    substitution — substituting every rotation angle never changes the
//!    key, while any structural edit (kind, wire, order, width, length)
//!    does.
//! 2. **Domain disjointness**: an abstract key never collides with an
//!    exact-angle key, so both entry kinds can share one cache table.
//!
//! A one-qubit gate is absorbed as one word and a CNOT as two, so one
//! exhaustive case below checks that the word stream still decodes one
//! way only.

use proptest::prelude::*;
use qcir::fingerprint::{fingerprint_gates, fingerprint_gates_abstract};
use qcir::{Angle, Gate};

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
            fingerprint_gates(WIDTH, &b),
            "abstract and exact key spaces must stay disjoint"
        );
        // Including each sequence against its own exact key.
        prop_assert_ne!(
            fingerprint_gates_abstract(WIDTH, &a),
            fingerprint_gates(WIDTH, &a)
        );
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
