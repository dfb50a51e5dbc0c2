//! Structural circuit fingerprints.
//!
//! The batch-optimization service memoizes results keyed by the input
//! circuit's structure, so it needs a hash that is:
//!
//! * **deterministic across processes and platforms** — `std`'s default
//!   hasher randomizes per-process and documents no stable algorithm, so a
//!   fixed-constant hash is implemented here instead;
//! * **wide enough that collisions are not a practical concern** — 128 bits:
//!   with the birthday bound, ~2⁶⁴ distinct circuits are needed for a
//!   meaningful collision probability, far beyond any cache population;
//! * **exactly structural** — two circuits collide iff they have the same
//!   qubit count and the same gate sequence (including exact rotation
//!   angles). Gate order matters; semantic equivalence deliberately does not.
//!
//! The construction absorbs a tagged encoding of the circuit into two
//! independently-keyed 64-bit mixing lanes (SplitMix64 finalizer over a
//! running state, one lane per key). Each absorbed word is mixed
//! immediately, so the state never telescopes the way plain polynomial
//! hashes do on adversarial swaps.

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::layers::LayeredCircuit;
use std::fmt;

/// A 128-bit structural fingerprint of a circuit.
///
/// Equal circuits (same width, same gate sequence, same exact angles)
/// always produce equal fingerprints; the converse holds up to 128-bit
/// collision probability.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// The fingerprint as a fixed-width lowercase hex string (32 chars).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({:032x})", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// One 64-bit absorbing lane: SplitMix64's finalizer over a running state.
#[derive(Clone, Copy)]
struct Lane(u64);

impl Lane {
    #[inline]
    fn absorb(&mut self, word: u64) {
        let mut z = self.0 ^ word.wrapping_mul(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        self.0 = z ^ (z >> 31);
    }
}

/// Streaming fingerprint builder (two independent 64-bit lanes).
pub struct FingerprintHasher {
    lo: Lane,
    hi: Lane,
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        FingerprintHasher::new()
    }
}

impl FingerprintHasher {
    pub fn new() -> FingerprintHasher {
        // Arbitrary fixed, distinct lane keys (digits of π and e).
        FingerprintHasher {
            lo: Lane(0x243F6A8885A308D3),
            hi: Lane(0xB7E151628AED2A6A),
        }
    }

    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        self.lo.absorb(word);
        self.hi.absorb(word ^ 0xA5A5A5A5A5A5A5A5);
    }

    #[inline]
    pub fn write_i64(&mut self, word: i64) {
        self.write_u64(word as u64);
    }

    #[inline]
    pub fn write_gate(&mut self, g: &Gate) {
        // Tagged encoding: the tag keeps H(3) ≠ X(3), and angle num/den are
        // absorbed separately so RZ(1/2) ≠ RZ(2/1) even though both encode
        // two small integers.
        match *g {
            Gate::H(q) => {
                self.write_u64(1);
                self.write_u64(q as u64);
            }
            Gate::X(q) => {
                self.write_u64(2);
                self.write_u64(q as u64);
            }
            Gate::Rz(q, a) => {
                self.write_u64(3);
                self.write_u64(q as u64);
                self.write_i64(a.numerator());
                self.write_i64(a.denominator());
            }
            Gate::Cnot(c, t) => {
                self.write_u64(4);
                self.write_u64(c as u64);
                self.write_u64(t as u64);
            }
        }
    }

    pub fn finish(&self) -> Fingerprint {
        Fingerprint(((self.hi.0 as u128) << 64) | self.lo.0 as u128)
    }
}

/// Fingerprints a gate sequence together with its circuit width.
pub fn fingerprint_gates(num_qubits: u32, gates: &[Gate]) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_u64(num_qubits as u64);
    h.write_u64(gates.len() as u64);
    for g in gates {
        h.write_gate(g);
    }
    h.finish()
}

/// Domain-separation tag for the angle-abstracted fingerprint: absorbed
/// as the very first word, where [`fingerprint_gates`] absorbs the qubit
/// count, so the abstract and exact key spaces never share an input
/// stream (the mode-tag precedent set by `LayeredCircuit::fingerprint`).
const ABSTRACT_DOMAIN_TAG: u64 = 0x5345474142535452; // "SEGABSTR"

/// The angle-abstracted companion of [`fingerprint_gates`]: sensitive to
/// width, gate order, gate kinds, and operand wires, but NOT to rotation
/// angle values — every `RZ(q, θ)` is absorbed as its tag and wire alone,
/// all rotations being one class to an oracle that by definition treats
/// them alike.
///
/// Two gate sequences collide under this fingerprint iff one is the other
/// with rotation angles substituted (up to 128-bit hash collision odds).
/// The segment cache uses it to key oracle results that are valid for a
/// whole structural equivalence class; the leading domain tag keeps the
/// abstract key space disjoint from [`fingerprint_gates`]'s exact-angle
/// one, so the two kinds of cache entry can share a table safely.
///
/// A one-qubit gate is one absorbed word, `tag << 32 | wire`, with
/// [`FingerprintHasher::write_gate`]'s tags; a CNOT is `4 << 32 | control`
/// and then its target. A tag-4 word is always followed by exactly one
/// operand word, so the stream decodes one way only. These keys are
/// computed and compared inside one process (the in-memory segment cache)
/// and never stored or sent, so this encoding may change between builds —
/// unlike [`fingerprint_gates`], whose values are persisted store keys.
pub fn fingerprint_gates_abstract(num_qubits: u32, gates: &[Gate]) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_u64(ABSTRACT_DOMAIN_TAG);
    h.write_u64(num_qubits as u64);
    h.write_u64(gates.len() as u64);
    for g in gates {
        match *g {
            Gate::H(q) => h.write_u64(1 << 32 | q as u64),
            Gate::X(q) => h.write_u64(2 << 32 | q as u64),
            Gate::Rz(q, _) => h.write_u64(3 << 32 | q as u64),
            Gate::Cnot(c, t) => {
                h.write_u64(4 << 32 | c as u64);
                h.write_u64(t as u64);
            }
        }
    }
    h.finish()
}

impl Circuit {
    /// The circuit's structural [`Fingerprint`]: stable across processes,
    /// sensitive to width, gate order, gate kind, operands, and exact
    /// angles.
    pub fn fingerprint(&self) -> Fingerprint {
        fingerprint_gates(self.num_qubits, &self.gates)
    }
}

impl LayeredCircuit {
    /// Structural fingerprint of the layered circuit, defined as the
    /// fingerprint of its flattened gate sequence prefixed with a mode tag
    /// (so a layered circuit never collides with the flat circuit holding
    /// the same gates).
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write_u64(0x4C41);
        h.write_u64(self.num_qubits as u64);
        h.write_u64(self.layers.len() as u64);
        for layer in &self.layers {
            h.write_u64(layer.0.len() as u64);
            for g in &layer.0 {
                h.write_gate(g);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angle::Angle;

    fn sample() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).rz(1, Angle::PI_4).x(2).cnot(1, 2);
        c
    }

    #[test]
    fn equal_circuits_hash_equal() {
        assert_eq!(sample().fingerprint(), sample().fingerprint());
        let empty_a = Circuit::new(5);
        let empty_b = Circuit::new(5);
        assert_eq!(empty_a.fingerprint(), empty_b.fingerprint());
    }

    #[test]
    fn known_value_is_stable_across_builds() {
        // Pins the algorithm: if these constants change, persisted cache
        // keys from other processes/versions silently stop matching.
        // Update them only with a deliberate format bump.
        assert_eq!(
            sample().fingerprint().to_hex(),
            "03fd8ab65ffd904d0ca01b920434ac0b"
        );
        assert_eq!(
            Circuit::new(1).fingerprint().to_hex(),
            "d372a042c8304242a476aac9a6c21889"
        );
    }

    #[test]
    fn width_matters() {
        assert_ne!(Circuit::new(3).fingerprint(), Circuit::new(4).fingerprint());
    }

    #[test]
    fn single_gate_edits_change_the_hash() {
        let base = sample();
        let fp = base.fingerprint();

        // Remove each gate in turn.
        for i in 0..base.len() {
            let mut edited = base.clone();
            edited.gates.remove(i);
            assert_ne!(edited.fingerprint(), fp, "removal at {i} collided");
        }
        // Change each gate's kind or operand.
        let edits: Vec<Gate> = vec![
            Gate::X(0),               // H(0) -> X(0)
            Gate::Cnot(1, 0),         // swap control/target
            Gate::Rz(1, Angle::PI_2), // different angle
            Gate::X(1),               // different wire
            Gate::Cnot(1, 0),         // different target
        ];
        for (i, g) in edits.into_iter().enumerate() {
            let mut edited = base.clone();
            edited.gates[i] = g;
            assert_ne!(edited.fingerprint(), fp, "edit at {i} collided");
        }
    }

    #[test]
    fn gate_order_matters() {
        let mut ab = Circuit::new(2);
        ab.h(0).x(1);
        let mut ba = Circuit::new(2);
        ba.x(1).h(0);
        assert_ne!(ab.fingerprint(), ba.fingerprint());
    }

    #[test]
    fn angle_numerator_denominator_not_confused() {
        let mut a = Circuit::new(1);
        a.rz(0, Angle::pi_frac(1, 2));
        let mut b = Circuit::new(1);
        b.rz(0, Angle::pi_frac(1, 3));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn tag_separates_gate_kinds_with_equal_operands() {
        let mut h = Circuit::new(4);
        h.h(3);
        let mut x = Circuit::new(4);
        x.x(3);
        assert_ne!(h.fingerprint(), x.fingerprint());
    }

    #[test]
    fn layered_and_flat_do_not_collide() {
        let c = sample();
        assert_ne!(c.fingerprint().0, c.layered().fingerprint().0);
        // But the layered fingerprint is itself deterministic.
        assert_eq!(c.layered().fingerprint(), c.layered().fingerprint());
    }

    #[test]
    fn abstract_fingerprint_erases_angles_only() {
        let mk = |a: Angle, b: Angle| {
            let mut c = Circuit::new(3);
            c.h(0).rz(1, a).cnot(0, 1).rz(2, b).x(2);
            c.gates
        };
        let base = fingerprint_gates_abstract(3, &mk(Angle::PI_4, Angle::PI_2));
        // Any angle substitution lands on the same abstract key...
        assert_eq!(
            base,
            fingerprint_gates_abstract(3, &mk(Angle::pi_frac(7, 9), Angle::ZERO))
        );
        // ...but structure and operands still matter.
        let mut moved = mk(Angle::PI_4, Angle::PI_2);
        moved.swap(0, 1);
        assert_ne!(base, fingerprint_gates_abstract(3, &moved));
        let mut rewired = mk(Angle::PI_4, Angle::PI_2);
        rewired[1] = Gate::Rz(0, Angle::PI_4);
        assert_ne!(base, fingerprint_gates_abstract(3, &rewired));
        assert_ne!(
            base,
            fingerprint_gates_abstract(4, &mk(Angle::PI_4, Angle::PI_2)),
            "width must still matter"
        );
    }

    #[test]
    fn abstract_and_exact_domains_are_disjoint() {
        // The domain tag keeps an abstract key from ever equalling the
        // exact key of the same (or any sampled) gate sequence, so both
        // kinds of entry can share one cache table.
        let seqs: Vec<Vec<Gate>> = vec![
            Vec::new(),
            sample().gates,
            vec![Gate::H(0)],
            vec![Gate::Rz(0, Angle::PI_4)],
            vec![Gate::Cnot(0, 1), Gate::Cnot(0, 1)],
        ];
        for a in &seqs {
            for b in &seqs {
                assert_ne!(
                    fingerprint_gates_abstract(3, a),
                    fingerprint_gates(3, b),
                    "abstract({a:?}) collided with exact({b:?})"
                );
            }
        }
    }

    #[test]
    fn abstract_known_value_is_stable_across_builds() {
        // Unlike `known_value_is_stable_across_builds` above, whose
        // constants are persisted store keys and may never move, these may
        // be re-pinned: abstract keys live only in the in-process segment
        // cache, and no store, wire frame or CLI output carries one. The
        // pin is here so that a change of encoding is a deliberate one;
        // the empty sequence pins the domain tag, width and length prefix.
        assert_eq!(
            fingerprint_gates_abstract(3, &sample().gates).to_hex(),
            "e5eb29415a64a57173b6cdb332078620"
        );
        assert_eq!(
            fingerprint_gates_abstract(1, &[]).to_hex(),
            "0b2cf9df0b2c18ec96a80fc1113e0865"
        );
    }

    #[test]
    fn no_collisions_over_many_random_edits() {
        // Cheap collision-resistance smoke test: hash a few thousand
        // distinct single-gate variants and require all-distinct hashes.
        let mut seen = std::collections::HashSet::new();
        for q in 0..8u32 {
            for num in -64i64..64 {
                let mut c = Circuit::new(8);
                c.rz(q, Angle::pi_frac(num, 64));
                assert!(seen.insert(c.fingerprint()), "collision at q={q} num={num}");
            }
        }
        for a in 0..8u32 {
            for b in 0..8u32 {
                if a != b {
                    let mut c = Circuit::new(8);
                    c.cnot(a, b);
                    assert!(seen.insert(c.fingerprint()), "collision at cnot {a},{b}");
                }
            }
        }
    }
}
