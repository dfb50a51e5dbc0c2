//! Structural circuit fingerprints, in two families.
//!
//! **Persisted** — [`fingerprint_gates`], [`Circuit::fingerprint`],
//! [`LayeredCircuit::fingerprint`] and the [`FingerprintHasher`] under them.
//! The batch-optimization service memoizes results keyed by the input
//! circuit's structure, in stores that outlive the process and cross the
//! wire, so this hash is:
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
//! hashes do on adversarial swaps. Its values are pinned
//! (`known_value_is_stable_across_builds`): changing them orphans every
//! stored entry.
//!
//! **In-process** — [`fingerprint_gates_abstract`], the segment cache's
//! one key. It is just as wide and just as exact, rotation angles aside
//! (it erases them and nothing else), but it is computed and compared
//! inside one process and never stored or sent, so its values are no
//! contract (a test pin may move with a deliberate change of encoding)
//! and it is built for speed instead: one word pair per gate, one folded
//! 64×64→128 multiply per pair and lane. A segment-cache miss hashes its
//! segment twice, so this is most of what a miss costs beyond the oracle
//! call itself.

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

/// One 64-bit lane of the in-process segment hasher: each gate's word
/// pair goes through one 64×64→128 multiply whose halves are XORed (the
/// multiply does not wait on the state, so consecutive gates pipeline),
/// and the state absorbs that product through a bijection, so a product
/// that differs can never be cancelled by equal pairs after it.
struct SegLane {
    state: u64,
    /// Keys XORed into the two words of a pair. Both have the top bit set
    /// and every absorbed word is below 2⁶³, so no input can make a
    /// multiplicand zero (which would erase the pair).
    k0: u64,
    k1: u64,
    /// Odd, so the state update is a bijection.
    mul: u64,
}

impl SegLane {
    #[inline(always)]
    fn absorb(&mut self, a: u64, b: u64) {
        let p = (a ^ self.k0) as u128 * (b ^ self.k1) as u128;
        let folded = p as u64 ^ (p >> 64) as u64;
        // Added, not XORed, into the state: the compiler cannot then fold
        // the two halves into the state one at a time, which would put a
        // second operation on the chain from one gate to the next.
        self.state = self
            .state
            .wrapping_add(folded)
            .rotate_left(23)
            .wrapping_mul(self.mul);
    }
}

/// The in-process segment hasher: two independently keyed [`SegLane`]s
/// over one stream of word pairs, the first of which is the header
/// `("SEGA" << 32 | width, gate count)`.
struct SegmentHasher {
    lo: SegLane,
    hi: SegLane,
}

/// The header's domain tag (`"SEGA"`), part of every abstract key's
/// pinned value.
const ABSTRACT_SEGMENT_DOMAIN: u64 = 0x5345_4741;

/// Gate tags of the pair encoding, the tag sitting above a 32-bit wire.
const TAG_H: u64 = 1 << 32;
const TAG_X: u64 = 2 << 32;
const TAG_RZ: u64 = 3 << 32;
const TAG_CNOT: u64 = 4 << 32;

impl SegmentHasher {
    #[inline(always)]
    fn new(num_qubits: u32, len: usize) -> SegmentHasher {
        // Arbitrary fixed keys (digits of π, e, √2 and the golden ratio,
        // and SplitMix64's multipliers); every k0/k1 has its top bit set.
        let mut h = SegmentHasher {
            lo: SegLane {
                state: 0x243F_6A88_85A3_08D3,
                k0: 0xB7E1_5162_8AED_2A6A,
                k1: 0x9E37_79B9_7F4A_7C15,
                mul: 0x6A09_E667_F3BC_C909,
            },
            hi: SegLane {
                state: 0x1319_8A2E_0370_7344,
                k0: 0xA409_3822_299F_31D0,
                k1: 0xBF58_476D_1CE4_E5B9,
                mul: 0x94D0_49BB_1331_11EB,
            },
        };
        h.pair(
            ABSTRACT_SEGMENT_DOMAIN << 32 | num_qubits as u64,
            len as u64,
        );
        h
    }

    #[inline(always)]
    fn pair(&mut self, a: u64, b: u64) {
        self.lo.absorb(a, b);
        self.hi.absorb(a, b);
    }

    fn finish(&self) -> Fingerprint {
        Fingerprint(((self.hi.state as u128) << 64) | self.lo.state as u128)
    }
}

/// The angle-abstracted in-process segment key: sensitive to width, gate
/// order, gate kinds, and operand wires, but NOT to rotation angle values
/// — every `RZ(q, θ)` is absorbed as its tag and wire alone, all rotations
/// being one class to an oracle that by definition treats them alike.
///
/// Two gate sequences collide under this fingerprint iff one is the other
/// with rotation angles substituted (up to 128-bit hash collision odds).
/// The segment cache uses it to key oracle results that are valid for a
/// whole structural equivalence class.
///
/// Each gate is one word pair: `tag << 32 | wire` and a zero for `H`, `X`
/// and `RZ`, `tag << 32 | control` and the target for `CNOT`, so the
/// stream decodes one way only. These keys are computed and compared
/// inside one process (the in-memory segment cache) and never stored or
/// sent, so this encoding may change between builds — unlike
/// [`fingerprint_gates`], whose values are persisted store keys.
pub fn fingerprint_gates_abstract(num_qubits: u32, gates: &[Gate]) -> Fingerprint {
    let mut h = SegmentHasher::new(num_qubits, gates.len());
    for g in gates {
        match *g {
            Gate::H(q) => h.pair(TAG_H | q as u64, 0),
            Gate::X(q) => h.pair(TAG_X | q as u64, 0),
            Gate::Rz(q, _) => h.pair(TAG_RZ | q as u64, 0),
            Gate::Cnot(c, t) => h.pair(TAG_CNOT | c as u64, t as u64),
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
        // The abstract key's hasher and header never reproduce the
        // persisted fingerprint of the same (or any sampled) gate
        // sequence: one key erases angles, the other is a store key, and
        // neither may stand in for the other.
        let seqs: Vec<Vec<Gate>> = vec![
            Vec::new(),
            sample().gates,
            vec![Gate::H(0)],
            vec![Gate::Rz(0, Angle::PI_4)],
            vec![Gate::Rz(0, Angle::ZERO)],
            vec![Gate::Cnot(0, 1), Gate::Cnot(0, 1)],
        ];
        for a in &seqs {
            for b in &seqs {
                assert_ne!(
                    fingerprint_gates_abstract(3, a),
                    fingerprint_gates(3, b),
                    "abstract({a:?}) collided with fingerprint({b:?})"
                );
            }
        }
    }

    #[test]
    fn segment_keys_see_swaps_at_every_distance() {
        // Gate order matters at every distance. A state update linear in
        // the products (XOR and a rotation alone) would keep the key when
        // two gates 64 apart swap.
        let gates: Vec<Gate> = (0..130u32)
            .map(|i| match i % 3 {
                0 => Gate::H(i % 7),
                1 => Gate::Cnot(i % 5, 5 + i % 2),
                _ => Gate::Rz(i % 7, Angle::pi_frac(1, 1 << (1 + i % 9))),
            })
            .collect();
        let key = fingerprint_gates_abstract(7, &gates);
        for d in 1..gates.len() {
            let mut swapped = gates.clone();
            swapped.swap(0, d);
            // `gates[0]` is `H(0)`: the swap keeps the skeleton only where
            // it swaps two equal gates.
            if swapped == gates {
                continue;
            }
            assert_ne!(
                key,
                fingerprint_gates_abstract(7, &swapped),
                "swap at distance {d}"
            );
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
            "c821057b9b510ef44f46c8d5f04c2fc0"
        );
        assert_eq!(
            fingerprint_gates_abstract(1, &[]).to_hex(),
            "a113c048a1aab5df94ec40c05180a6c6"
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
