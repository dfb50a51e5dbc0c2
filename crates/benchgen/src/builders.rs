//! Decomposition library shared by the benchmark generators.
//!
//! Everything emits only the POPQC gate set `{H, X, RZ, CNOT}`. The
//! decompositions are the standard textbook ones (Toffoli via 7 T-gates,
//! V-chain multi-controlled X, QFT with controlled phases, Cuccaro
//! ripple-carry adder, gray-code multiplexed rotations); each is verified
//! against the state-vector simulator in this crate's tests.

use qcir::{Angle, Circuit, Qubit};

/// `T = RZ(π/4)`.
pub const T: Angle = Angle::PI_4;
/// `T† = RZ(7π/4)`.
pub const TDG: Angle = Angle::SEVEN_PI_4;

/// Appends a Toffoli (CCX) on `(a, b, t)` using the standard 15-gate
/// Clifford+T decomposition (exact up to global phase).
pub fn toffoli(c: &mut Circuit, a: Qubit, b: Qubit, t: Qubit) {
    c.h(t)
        .cnot(b, t)
        .rz(t, TDG)
        .cnot(a, t)
        .rz(t, T)
        .cnot(b, t)
        .rz(t, TDG)
        .cnot(a, t)
        .rz(b, T)
        .rz(t, T)
        .h(t)
        .cnot(a, b)
        .rz(a, T)
        .rz(b, TDG)
        .cnot(a, b);
}

/// Appends a controlled-RZ(θ) on `(ctrl, tgt)`:
/// `RZ(tgt,θ/2)·CNOT·RZ(tgt,−θ/2)·CNOT` (exact).
pub fn crz(c: &mut Circuit, ctrl: Qubit, tgt: Qubit, theta_num: i64, theta_den: i64) {
    c.rz(tgt, Angle::pi_frac(theta_num, 2 * theta_den))
        .cnot(ctrl, tgt)
        .rz(tgt, Angle::pi_frac(-theta_num, 2 * theta_den))
        .cnot(ctrl, tgt);
}

/// Appends a controlled-phase CP(θ) on `(a, b)` (symmetric):
/// `RZ(a,θ/2)·RZ(b,θ/2)·CNOT·RZ(b,−θ/2)·CNOT`, exact up to global phase.
pub fn cphase(c: &mut Circuit, a: Qubit, b: Qubit, theta_num: i64, theta_den: i64) {
    c.rz(a, Angle::pi_frac(theta_num, 2 * theta_den))
        .rz(b, Angle::pi_frac(theta_num, 2 * theta_den))
        .cnot(a, b)
        .rz(b, Angle::pi_frac(-theta_num, 2 * theta_den))
        .cnot(a, b);
}

/// Appends a SWAP as three CNOTs.
pub fn swap(c: &mut Circuit, a: Qubit, b: Qubit) {
    c.cnot(a, b).cnot(b, a).cnot(a, b);
}

/// Appends a multi-controlled X over `controls` onto `target`, using the
/// V-chain construction with `controls.len().saturating_sub(2)` ancillas
/// from `ancillas` (compute, hit, uncompute).
///
/// The ancillas must start in `|0⟩` for the target flip to equal the AND of
/// all controls; they are always restored to their input state on exit.
///
/// Panics if too few ancillas are provided.
pub fn mcx(c: &mut Circuit, controls: &[Qubit], target: Qubit, ancillas: &[Qubit]) {
    match controls.len() {
        0 => {
            c.x(target);
        }
        1 => {
            c.cnot(controls[0], target);
        }
        2 => toffoli(c, controls[0], controls[1], target),
        k => {
            let need = k - 2;
            assert!(
                ancillas.len() >= need,
                "mcx with {k} controls needs {need} ancillas, got {}",
                ancillas.len()
            );
            // Compute chain.
            toffoli(c, controls[0], controls[1], ancillas[0]);
            for i in 2..k - 1 {
                toffoli(c, controls[i], ancillas[i - 2], ancillas[i - 1]);
            }
            toffoli(c, controls[k - 1], ancillas[need - 1], target);
            // Uncompute chain.
            for i in (2..k - 1).rev() {
                toffoli(c, controls[i], ancillas[i - 2], ancillas[i - 1]);
            }
            toffoli(c, controls[0], controls[1], ancillas[0]);
        }
    }
}

/// Appends a multi-controlled Z: `H(target)·MCX·H(target)`.
pub fn mcz(c: &mut Circuit, controls: &[Qubit], target: Qubit, ancillas: &[Qubit]) {
    c.h(target);
    mcx(c, controls, target, ancillas);
    c.h(target);
}

/// Appends the quantum Fourier transform over `qs` (no final swaps):
/// `H` plus controlled phases `CP(π/2^(j−i))`.
pub fn qft(c: &mut Circuit, qs: &[Qubit]) {
    for i in 0..qs.len() {
        c.h(qs[i]);
        for j in i + 1..qs.len() {
            let k = (j - i) as i64;
            cphase(c, qs[j], qs[i], 1, 1 << k);
        }
    }
}

/// Appends the inverse QFT over `qs` (no swaps).
pub fn iqft(c: &mut Circuit, qs: &[Qubit]) {
    for i in (0..qs.len()).rev() {
        for j in (i + 1..qs.len()).rev() {
            let k = (j - i) as i64;
            cphase(c, qs[j], qs[i], -1, 1 << k);
        }
        c.h(qs[i]);
    }
}

/// Cuccaro MAJ block.
fn maj(c: &mut Circuit, x: Qubit, y: Qubit, z: Qubit) {
    c.cnot(z, y);
    c.cnot(z, x);
    toffoli(c, x, y, z);
}

/// Cuccaro UMA block.
fn uma(c: &mut Circuit, x: Qubit, y: Qubit, z: Qubit) {
    toffoli(c, x, y, z);
    c.cnot(z, x);
    c.cnot(x, y);
}

/// Appends a Cuccaro ripple-carry adder: `b += a` over equal-width little-
/// endian registers, with `carry_in` (dirty zero) and `carry_out`.
pub fn cuccaro_add(c: &mut Circuit, a: &[Qubit], b: &[Qubit], carry_in: Qubit, carry_out: Qubit) {
    assert_eq!(a.len(), b.len());
    assert!(!a.is_empty());
    let n = a.len();
    maj(c, carry_in, b[0], a[0]);
    for i in 1..n {
        maj(c, a[i - 1], b[i], a[i]);
    }
    c.cnot(a[n - 1], carry_out);
    for i in (1..n).rev() {
        uma(c, a[i - 1], b[i], a[i]);
    }
    uma(c, carry_in, b[0], a[0]);
}

/// Appends the subtraction `b -= a (mod 2^n)` as X-conjugated addition
/// (`b − a = ¬(¬b + a)`). `carry_out` accumulates the borrow flag
/// (`carry_out ^= [a > b]` for `carry_in = 0`), making add-then-sub the
/// exact identity.
pub fn cuccaro_sub(c: &mut Circuit, a: &[Qubit], b: &[Qubit], carry_in: Qubit, carry_out: Qubit) {
    for &q in b {
        c.x(q);
    }
    cuccaro_add(c, a, b, carry_in, carry_out);
    for &q in b {
        c.x(q);
    }
}

/// Appends a multiplexed RZ (uniformly controlled rotation): a rotation on
/// `target` whose angle is `angles[s]/den · π` when `controls` hold basis
/// state `s` (bit `i` of `s` = value of `controls[i]`).
///
/// Naive recursive synthesis: conditioning on the most significant control,
/// `RZ(s₀..) = UC(½(lo+hi)) · CNOT · UC(½(lo−hi)) · CNOT` — `2^k` rotations
/// and `2^(k+1)−2` CNOTs. The redundant CNOT pairs at recursion seams are
/// deliberate: real toolchains emit them too, and they are exactly the kind
/// of local redundancy circuit optimizers exist to remove.
pub fn multiplexed_rz(
    c: &mut Circuit,
    controls: &[Qubit],
    target: Qubit,
    angles: &[i64],
    den: i64,
) {
    assert_eq!(angles.len(), 1usize << controls.len());
    assert!(den > 0);
    mux_rec(c, controls, target, angles, den);
}

fn mux_rec(c: &mut Circuit, controls: &[Qubit], target: Qubit, angles: &[i64], den: i64) {
    if controls.is_empty() {
        c.rz(target, Angle::pi_frac(angles[0], den));
        return;
    }
    let k = controls.len();
    let msb = controls[k - 1];
    let half = angles.len() / 2;
    let (lo, hi) = angles.split_at(half);
    // Halved sums/differences stay exact by doubling the denominator.
    let sum: Vec<i64> = lo.iter().zip(hi).map(|(a, b)| a + b).collect();
    let diff: Vec<i64> = lo.iter().zip(hi).map(|(a, b)| a - b).collect();
    mux_rec(c, &controls[..k - 1], target, &sum, den * 2);
    c.cnot(msb, target);
    mux_rec(c, &controls[..k - 1], target, &diff, den * 2);
    c.cnot(msb, target);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::{circuits_equivalent_exact, Complex, StateVector};

    /// Simulates `c` on basis states accepted by `pre` and checks it
    /// implements the classical permutation `f` (up to one uniform phase).
    fn implements_permutation_on(
        c: &Circuit,
        pre: impl Fn(usize) -> bool,
        f: impl Fn(usize) -> usize,
    ) {
        let dim = 1usize << c.num_qubits;
        let mut phase: Option<Complex> = None;
        for j in (0..dim).filter(|&j| pre(j)) {
            let mut s = StateVector::basis(c.num_qubits, j);
            s.apply_circuit(c);
            let target = f(j);
            let amp = s.amplitudes()[target];
            assert!(
                (amp.norm() - 1.0).abs() < 1e-9,
                "basis {j}: amplitude at {target} is {amp:?}"
            );
            match phase {
                None => phase = Some(amp),
                Some(p) => assert!(
                    (amp - p).norm() < 1e-9,
                    "column phases differ: {amp:?} vs {p:?}"
                ),
            }
        }
    }

    /// [`implements_permutation_on`] over every basis state.
    fn implements_permutation(c: &Circuit, f: impl Fn(usize) -> usize) {
        implements_permutation_on(c, |_| true, f);
    }

    #[test]
    fn toffoli_is_ccx() {
        let mut c = Circuit::new(3);
        toffoli(&mut c, 0, 1, 2);
        implements_permutation(&c, |j| if j & 0b011 == 0b011 { j ^ 0b100 } else { j });
    }

    #[test]
    fn mcx_four_controls() {
        // qubits: controls=0,1,2,3  target=4  ancillas=5,6 (must be clean).
        let mut c = Circuit::new(7);
        mcx(&mut c, &[0, 1, 2, 3], 4, &[5, 6]);
        implements_permutation_on(
            &c,
            |j| j & 0b1100000 == 0, // clean ancillas only
            |j| {
                if j & 0b1111 == 0b1111 {
                    j ^ 0b10000
                } else {
                    j
                }
            },
        );
    }

    #[test]
    fn mcx_restores_dirty_ancillas() {
        // Even with dirty ancillas, the compute/uncompute chains restore
        // them; only the target flip condition degrades. Check ancilla bits
        // are preserved on every basis state.
        let mut c = Circuit::new(7);
        mcx(&mut c, &[0, 1, 2, 3], 4, &[5, 6]);
        for j in 0..1usize << 7 {
            let mut s = StateVector::basis(7, j);
            s.apply_circuit(&c);
            let (k, amp) = s
                .amplitudes()
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.norm_sqr().total_cmp(&b.1.norm_sqr()))
                .unwrap();
            assert!((amp.norm() - 1.0).abs() < 1e-9);
            assert_eq!(k & 0b1100000, j & 0b1100000, "ancillas not restored");
        }
    }

    #[test]
    fn mcx_small_arities() {
        let mut c = Circuit::new(2);
        mcx(&mut c, &[0], 1, &[]);
        implements_permutation(&c, |j| if j & 1 == 1 { j ^ 2 } else { j });
        let mut c = Circuit::new(1);
        mcx(&mut c, &[], 0, &[]);
        implements_permutation(&c, |j| j ^ 1);
    }

    #[test]
    fn swap_swaps() {
        let mut c = Circuit::new(2);
        swap(&mut c, 0, 1);
        implements_permutation(&c, |j| ((j & 1) << 1) | ((j >> 1) & 1));
    }

    #[test]
    fn crz_matches_reference() {
        // CRZ(θ) == diag(1, 1, e^{-iθ/2}, e^{iθ/2}) up to global phase
        // (angle normalization into [0,2π) can contribute a uniform ±1), so
        // compare relative phases between basis columns.
        let theta = std::f64::consts::PI / 4.0;
        let mut ours = Circuit::new(2);
        crz(&mut ours, 0, 1, 1, 4); // θ = π/4, control = qubit 0
        let col = |basis: usize| {
            let mut s = StateVector::basis(2, basis);
            s.apply_circuit(&ours);
            s.amplitudes()[basis]
        };
        let (c00, c01, c10, c11) = (col(0b00), col(0b01), col(0b10), col(0b11));
        // Control 0 branch: t=1 vs t=0 relative phase must be 1.
        assert!(((c10 * c00.conj()) - Complex::ONE).norm() < 1e-9);
        // Control 1 branch: |11⟩ vs |01⟩ relative phase = e^{iθ}.
        let rel = c11 * c01.conj();
        assert!(
            (rel - Complex::cis(theta)).norm() < 1e-9,
            "relative phase {rel:?}"
        );
        // Control-0 vs control-1 with t=0: e^{-iθ/2}.
        let rel = c01 * c00.conj();
        assert!((rel - Complex::cis(-theta / 2.0)).norm() < 1e-9);
    }

    #[test]
    fn cphase_is_symmetric_diag() {
        let mut a = Circuit::new(2);
        cphase(&mut a, 0, 1, 1, 2); // CP(π/2)
        let mut b = Circuit::new(2);
        cphase(&mut b, 1, 0, 1, 2);
        assert!(circuits_equivalent_exact(&a, &b));
        // |11> picks up e^{iπ/2} = i relative to |00>.
        let mut s = StateVector::basis(2, 0b11);
        s.apply_circuit(&a);
        let mut s0 = StateVector::basis(2, 0);
        s0.apply_circuit(&a);
        let rel = s.amplitudes()[3] * s0.amplitudes()[0].conj();
        assert!((rel - Complex::I).norm() < 1e-9, "got {rel:?}");
    }

    #[test]
    fn qft_iqft_is_identity() {
        let mut c = Circuit::new(4);
        qft(&mut c, &[0, 1, 2, 3]);
        iqft(&mut c, &[0, 1, 2, 3]);
        assert!(circuits_equivalent_exact(&c, &Circuit::new(4)));
    }

    #[test]
    fn cuccaro_adds() {
        // 3-bit registers: a = qubits 0..3, b = 3..6, cin = 6, cout = 7.
        let mut c = Circuit::new(8);
        cuccaro_add(&mut c, &[0, 1, 2], &[3, 4, 5], 6, 7);
        implements_permutation(&c, |j| {
            let a = j & 0b111;
            let b = (j >> 3) & 0b111;
            let cin = (j >> 6) & 1;
            let cout = (j >> 7) & 1;
            let sum = a + b + cin;
            let new_b = sum & 0b111;
            let new_cout = cout ^ (sum >> 3);
            a | (new_b << 3) | (cin << 6) | (new_cout << 7)
        });
    }

    #[test]
    fn multiplexed_rz_diagonal() {
        // 1 control: angles [π/2 when ctrl=0, π when ctrl=1] over den=1:
        // numerators [1, 2] with den 2 => angles {π/2, π}.
        let mut c = Circuit::new(2);
        multiplexed_rz(&mut c, &[0], 1, &[1, 2], 2);
        // Reference: RZ(π/2) on target when control=0: basis |00>=q1=0,q0=0:
        // amplitude phase e^{-i·θ(ctrl)/2}.
        for (basis, theta) in [
            (0b00, std::f64::consts::PI / 2.0),
            (0b01, std::f64::consts::PI),
        ] {
            let mut s = StateVector::basis(2, basis);
            s.apply_circuit(&c);
            // target (qubit 1) is 0 -> phase e^{-iθ/2}; global phase may
            // differ, so compare the *relative* phase between target=0 and
            // target=1 for the same control value.
            let mut s1 = StateVector::basis(2, basis | 0b10);
            s1.apply_circuit(&c);
            let rel = s1.amplitudes()[basis | 0b10] * s.amplitudes()[basis].conj();
            let expect = Complex::cis(theta);
            assert!(
                (rel - expect).norm() < 1e-9,
                "basis {basis:#b}: rel phase {rel:?}, expected {expect:?}"
            );
        }
    }

    #[test]
    fn multiplexed_rz_two_controls() {
        // θ(s)/π = s/4 for s in 0..4: numerators [0,1,2,3] over den 4.
        let mut c = Circuit::new(3);
        multiplexed_rz(&mut c, &[0, 1], 2, &[0, 1, 2, 3], 4);
        // 2^k rotations + 2^(k+1)−2 CNOTs.
        assert_eq!(c.len(), 4 + 6);
        assert_eq!(c.two_qubit_count(), 6);
        assert_eq!(c.validate(), Ok(()));
        // Verify the relative phase e^{iθ(s)} between target=1 and target=0
        // for every control state s.
        for s in 0..4usize {
            let mut lo = StateVector::basis(3, s);
            lo.apply_circuit(&c);
            let mut hi = StateVector::basis(3, s | 0b100);
            hi.apply_circuit(&c);
            let rel = hi.amplitudes()[s | 0b100] * lo.amplitudes()[s].conj();
            let expect = Complex::cis(s as f64 * std::f64::consts::PI / 4.0);
            assert!(
                (rel - expect).norm() < 1e-9,
                "control state {s}: rel {rel:?}, expected {expect:?}"
            );
        }
    }

    #[test]
    fn subtraction_inverts_addition() {
        let mut c = Circuit::new(8);
        cuccaro_add(&mut c, &[0, 1, 2], &[3, 4, 5], 6, 7);
        cuccaro_sub(&mut c, &[0, 1, 2], &[3, 4, 5], 6, 7);
        // add then sub is identity (carry restored as well).
        implements_permutation(&c, |j| j);
    }
}
