//! Dense state-vector simulation of the POPQC gate set.

use crate::complex::Complex;
use crate::rng::SplitMix64;
use qcir::{Circuit, Gate, Qubit};

/// The gate kernels hand `qexec` the amplitudes in slices of at least this
/// many (a whole number of kernel blocks each), so a state no larger than
/// this runs sequentially. 2^13 keeps per-slice work well above the cost
/// of a cross-thread hand-off.
const PAR_THRESHOLD: usize = 1 << 13;

/// A dense quantum state over `n` qubits: 2ⁿ complex amplitudes, with qubit
/// `q` addressed by bit `q` of the amplitude index (little-endian).
#[derive(Clone, Debug)]
pub struct StateVector {
    n: u32,
    amps: Vec<Complex>,
}

impl StateVector {
    /// The all-zeros basis state `|0…0⟩`.
    pub fn zero(n: u32) -> StateVector {
        assert!(n <= 26, "state vector limited to 26 qubits ({n} requested)");
        let mut amps = vec![Complex::ZERO; 1usize << n];
        amps[0] = Complex::ONE;
        StateVector { n, amps }
    }

    /// The computational basis state `|index⟩`.
    pub fn basis(n: u32, index: usize) -> StateVector {
        let mut s = Self::zero(n);
        s.amps[0] = Complex::ZERO;
        s.amps[index] = Complex::ONE;
        s
    }

    /// A normalized pseudo-random state from the given seed (deterministic
    /// across platforms; used by the randomized equivalence checker).
    pub fn random(n: u32, seed: u64) -> StateVector {
        assert!(n <= 26, "state vector limited to 26 qubits ({n} requested)");
        let mut rng = SplitMix64::new(seed);
        let mut amps: Vec<Complex> = (0..1usize << n)
            .map(|_| Complex::new(rng.next_signed_unit(), rng.next_signed_unit()))
            .collect();
        let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        debug_assert!(norm > 0.0);
        let inv = 1.0 / norm;
        for a in &mut amps {
            *a = a.scale(inv);
        }
        StateVector { n, amps }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> u32 {
        self.n
    }

    /// Immutable view of the amplitudes.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// `⟨self|other⟩`.
    pub fn inner(&self, other: &StateVector) -> Complex {
        assert_eq!(self.n, other.n);
        self.amps
            .iter()
            .zip(&other.amps)
            .fold(Complex::ZERO, |acc, (a, b)| acc + a.conj() * *b)
    }

    /// `‖self‖₂`.
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Applies one gate in place.
    pub fn apply_gate(&mut self, g: &Gate) {
        match *g {
            Gate::H(q) => self.apply_h(q),
            Gate::X(q) => self.apply_x(q),
            Gate::Rz(q, a) => self.apply_rz(q, a.to_radians()),
            Gate::Cnot(c, t) => self.apply_cnot(c, t),
        }
    }

    /// Applies every gate of `c` left to right.
    pub fn apply_circuit(&mut self, c: &Circuit) {
        assert!(
            c.num_qubits <= self.n,
            "circuit uses {} qubits but state has {}",
            c.num_qubits,
            self.n
        );
        for g in &c.gates {
            self.apply_gate(g);
        }
    }

    /// Runs `kernel(base, block)` over every aligned `block`-amplitude
    /// block (`base` is the index of its first amplitude), in parallel
    /// over slices of whole blocks. Blocks and slices are powers of two,
    /// so slices never cut a block.
    fn for_blocks<K>(&mut self, block: usize, kernel: K)
    where
        K: Fn(usize, &mut [Complex]) + Sync,
    {
        let slice = block.max(PAR_THRESHOLD);
        let slices = self.amps.chunks_mut(slice).enumerate().collect();
        qexec::par_map_vec(slices, |(si, amps): (usize, &mut [Complex])| {
            for (bi, b) in amps.chunks_mut(block).enumerate() {
                kernel(si * slice + bi * block, b);
            }
        });
    }

    /// Runs a single-qubit kernel over all (bit=0, bit=1) amplitude pairs.
    /// Blocks of size `2^(q+1)` keep each pair inside one block, so the
    /// parallel split needs no synchronization.
    fn for_pairs<F>(&mut self, q: Qubit, f: F)
    where
        F: Fn(&mut Complex, &mut Complex) + Sync,
    {
        let stride = 1usize << q;
        self.for_blocks(stride << 1, |_, block| {
            let (lo, hi) = block.split_at_mut(stride);
            for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                f(a, b);
            }
        });
    }

    fn apply_h(&mut self, q: Qubit) {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        self.for_pairs(q, |a, b| {
            let (x, y) = (*a, *b);
            *a = (x + y).scale(s);
            *b = (x - y).scale(s);
        });
    }

    fn apply_x(&mut self, q: Qubit) {
        self.for_pairs(q, std::mem::swap);
    }

    fn apply_rz(&mut self, q: Qubit, theta: f64) {
        // RZ(θ) = diag(e^{-iθ/2}, e^{+iθ/2})
        let m = Complex::cis(-theta / 2.0);
        let p = Complex::cis(theta / 2.0);
        self.for_pairs(q, |a, b| {
            *a = *a * m;
            *b = *b * p;
        });
    }

    fn apply_cnot(&mut self, c: Qubit, t: Qubit) {
        assert_ne!(c, t, "CNOT control equals target");
        let cbit = 1usize << c;
        let tbit = 1usize << t;
        // Blocks of 2^(max(c,t)+1) contain both members of every swapped pair.
        self.for_blocks(1usize << (c.max(t) + 1), |base, block| {
            for j in 0..block.len() {
                let i = base + j;
                if i & cbit != 0 && i & tbit == 0 {
                    block.swap(j, j | tbit);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::Angle;

    fn assert_close(a: Complex, b: Complex) {
        assert!((a - b).norm() < 1e-10, "{a:?} != {b:?}");
    }

    #[test]
    fn x_flips_basis() {
        let mut s = StateVector::zero(2);
        s.apply_gate(&Gate::X(0));
        assert_close(s.amplitudes()[0b01], Complex::ONE);
        s.apply_gate(&Gate::X(1));
        assert_close(s.amplitudes()[0b11], Complex::ONE);
    }

    #[test]
    fn h_creates_superposition_and_self_inverts() {
        let mut s = StateVector::zero(1);
        s.apply_gate(&Gate::H(0));
        let r = std::f64::consts::FRAC_1_SQRT_2;
        assert_close(s.amplitudes()[0], Complex::new(r, 0.0));
        assert_close(s.amplitudes()[1], Complex::new(r, 0.0));
        s.apply_gate(&Gate::H(0));
        assert_close(s.amplitudes()[0], Complex::ONE);
    }

    #[test]
    fn rz_phases() {
        // On |1⟩, RZ(θ) multiplies by e^{iθ/2}.
        let mut s = StateVector::basis(1, 1);
        s.apply_gate(&Gate::Rz(0, Angle::PI));
        assert_close(s.amplitudes()[1], Complex::I);
        // RZ(π) twice = RZ(2π) = -I on |1⟩... e^{iπ} = -1.
        s.apply_gate(&Gate::Rz(0, Angle::PI));
        assert_close(s.amplitudes()[1], -Complex::ONE);
    }

    #[test]
    fn cnot_truth_table() {
        for (input, expected) in [(0b00, 0b00), (0b01, 0b11), (0b10, 0b10), (0b11, 0b01)] {
            // qubit 0 = control, qubit 1 = target
            let mut s = StateVector::basis(2, input);
            s.apply_gate(&Gate::Cnot(0, 1));
            assert_close(s.amplitudes()[expected], Complex::ONE);
        }
    }

    #[test]
    fn hxh_equals_z() {
        // H X H = Z = RZ(π) up to global phase; check on a random state.
        let mut a = StateVector::random(3, 7);
        let mut b = a.clone();
        for g in [Gate::H(1), Gate::X(1), Gate::H(1)] {
            a.apply_gate(&g);
        }
        b.apply_gate(&Gate::Rz(1, Angle::PI));
        let f = a.inner(&b).norm();
        assert!((f - 1.0).abs() < 1e-10, "fidelity {f}");
    }

    #[test]
    fn norm_preserved_by_all_gates() {
        let mut s = StateVector::random(4, 99);
        let mut c = Circuit::new(4);
        c.h(0).cnot(0, 3).rz(2, Angle::PI_4).x(1).cnot(2, 1).h(3);
        s.apply_circuit(&c);
        assert!((s.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn parallel_kernel_matches_sequential() {
        // 14 qubits crosses PAR_THRESHOLD; compare against 13-qubit embedding
        // by checking norms and a couple of invariants instead: apply the same
        // circuit twice with different qubit orderings and compare fidelity.
        let mut big = StateVector::random(14, 5);
        let clone = big.clone();
        let mut c = Circuit::new(14);
        c.h(13)
            .cnot(13, 0)
            .rz(0, Angle::PI_4)
            .cnot(13, 0)
            .rz(13, Angle::PI_2)
            .h(13);
        big.apply_circuit(&c);
        assert!((big.norm() - 1.0).abs() < 1e-9);
        // The circuit above is not identity; fidelity must have moved.
        let f = big.inner(&clone).norm();
        assert!(
            f < 1.0 - 1e-6,
            "circuit should alter the state, fidelity {f}"
        );
        // Applying the inverse restores the state exactly (up to fp error).
        big.apply_circuit(&c.inverse());
        let f = big.inner(&clone).norm();
        assert!(
            (f - 1.0).abs() < 1e-9,
            "inverse should restore, fidelity {f}"
        );
    }

    #[test]
    fn inner_product_orthogonal_basis() {
        let a = StateVector::basis(3, 2);
        let b = StateVector::basis(3, 5);
        assert!(a.inner(&b).norm() < 1e-12);
        assert_close(a.inner(&a), Complex::ONE);
    }
}
