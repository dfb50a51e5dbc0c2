//! Exact angles as rational multiples of π.
//!
//! Every rotation angle appearing in the paper's benchmarks is a rational
//! multiple of π (QFT rotations are `π/2^k`, Toffoli decompositions use
//! `±π/4`, variational ansätze are snapped to a fine grid). Representing the
//! angle as `num/den · π` in lowest terms, normalized into `[0, 2π)`, makes
//! rotation merging and identity detection *exact*: no epsilon comparisons,
//! and therefore no unsound rewrites in the optimizers.

use std::fmt;

/// An angle `num/den · π`, kept in canonical form:
///
/// * `1 ≤ den ≤ 2^62`,
/// * `gcd(num, den) = 1` (and `num = 0 ⇒ den = 1`),
/// * `0 ≤ num < 2·den`, i.e. the angle lies in `[0, 2π)`.
///
/// The bound on `den` keeps every canonical numerator in `i64`, so negating
/// or doubling an angle never overflows. Sums go through `i128`
/// intermediates; a sum whose reduced denominator would pass `2^62` has no
/// canonical form, so [`Angle::add`] panics on it and
/// [`Angle::checked_add`] returns `None` (the optimizer passes then leave
/// the two rotations unmerged). The generators only ever construct
/// denominators up to `2^24`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Angle {
    num: i64,
    den: i64,
}

impl Angle {
    /// The zero angle (the identity rotation).
    pub const ZERO: Angle = Angle { num: 0, den: 1 };
    /// π — `RZ(π)` is the Pauli-Z gate up to global phase.
    pub const PI: Angle = Angle { num: 1, den: 1 };
    /// π/2 — `RZ(π/2)` is the S gate up to global phase.
    pub const PI_2: Angle = Angle { num: 1, den: 2 };
    /// π/4 — `RZ(π/4)` is the T gate up to global phase.
    pub const PI_4: Angle = Angle { num: 1, den: 4 };
    /// 3π/2 — `RZ(3π/2)` is the S† gate up to global phase.
    pub const THREE_PI_2: Angle = Angle { num: 3, den: 2 };
    /// 7π/4 — `RZ(7π/4)` is the T† gate up to global phase.
    pub const SEVEN_PI_4: Angle = Angle { num: 7, den: 4 };

    /// Builds the canonical angle `num/den · π`. Panics if `den == 0` or if
    /// the reduced denominator is above `2^62`.
    pub fn pi_frac(num: i64, den: i64) -> Angle {
        assert!(den != 0, "angle denominator must be nonzero");
        Self::canonical(num as i128, den as i128)
    }

    /// [`Angle::pi_frac`] for `den ≠ 0`, or `None` where it would panic on
    /// the reduced denominator.
    pub(crate) fn checked_pi_frac(num: i64, den: i64) -> Option<Angle> {
        Self::normalize(num as i128, den as i128)
    }

    fn canonical(num: i128, den: i128) -> Angle {
        Self::normalize(num, den).expect("angle overflow after normalization")
    }

    /// The canonical form of `num/den · π` (`den ≠ 0`, both far inside
    /// `i128`), or `None` if its denominator is above `2^62`.
    fn normalize(num: i128, den: i128) -> Option<Angle> {
        let (mut num, den) = if den < 0 { (-num, -den) } else { (num, den) };
        // `num mod 2·den` keeps `gcd(num, den)`, so reducing afterwards
        // lands on the same lowest terms as reducing first. A sum, negation
        // or double of canonical angles is at most one period out of range
        // and the QASM writer's angles are in range, so only other inputs
        // pay for the division.
        let period = 2 * den;
        if num < 0 {
            num += period;
        } else if num >= period {
            num -= period;
        }
        if !(0..period).contains(&num) {
            num = num.rem_euclid(period);
        }
        if num == 0 {
            return Some(Angle::ZERO);
        }
        // Power-of-two denominators, the generators' usual case, reduce by
        // shifting.
        let (num, den) = match gcd(num as u128, den as u128) {
            1 => (num, den),
            g if g.is_power_of_two() => (num >> g.trailing_zeros(), den >> g.trailing_zeros()),
            g => (num / g as i128, den / g as i128),
        };
        // `num < 2·den ≤ 2^63` then fits as well.
        (den <= 1 << 62).then_some(Angle {
            num: num as i64,
            den: den as i64,
        })
    }

    /// Numerator of the canonical `num/den · π` form, in `[0, 2·den)`.
    #[inline]
    pub fn numerator(self) -> i64 {
        self.num
    }

    /// Denominator of the canonical form (always ≥ 1).
    #[inline]
    pub fn denominator(self) -> i64 {
        self.den
    }

    /// `true` iff this is the zero angle, i.e. `RZ(self)` is the identity.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// `true` iff the angle equals π.
    #[inline]
    pub fn is_pi(self) -> bool {
        self.num == 1 && self.den == 1
    }

    /// Sum of two angles, reduced into `[0, 2π)`. Panics where
    /// [`Angle::checked_add`] returns `None`.
    #[allow(clippy::should_implement_trait)] // also exposed via `impl Add`
    pub fn add(self, other: Angle) -> Angle {
        self.checked_add(other)
            .expect("angle overflow after normalization")
    }

    /// Sum of two angles, or `None` if its reduced denominator is above
    /// `2^62`. Two angles with denominators up to `2^31` always have a sum.
    pub fn checked_add(self, other: Angle) -> Option<Angle> {
        Self::normalize(
            self.num as i128 * other.den as i128 + other.num as i128 * self.den as i128,
            self.den as i128 * other.den as i128,
        )
    }

    /// Additive inverse modulo 2π: `self.add(self.neg()) == Angle::ZERO`.
    #[allow(clippy::should_implement_trait)] // also exposed via `impl Neg`
    pub fn neg(self) -> Angle {
        Self::canonical(-(self.num as i128), self.den as i128)
    }

    /// Doubles the angle (mod 2π).
    pub fn double(self) -> Angle {
        Self::canonical(2 * self.num as i128, self.den as i128)
    }

    /// The angle as a float in radians, in `[0, 2π)`.
    pub fn to_radians(self) -> f64 {
        self.num as f64 / self.den as f64 * std::f64::consts::PI
    }

    /// Snaps a float (radians) to the nearest rational multiple of π with
    /// denominator at most `2^20`, via continued fractions. Used when
    /// importing QASM files that spell angles as decimal literals; the
    /// integer spellings `n*pi/d` are read exactly, without this snap,
    /// wherever they have a canonical form.
    pub fn from_radians(x: f64) -> Angle {
        let t = x / std::f64::consts::PI; // target num/den
        let t = t.rem_euclid(2.0);
        let (num, den) = rational_approx(t, 1 << 20);
        Self::canonical(num as i128, den as i128)
    }
}

/// Binary (Stein) gcd of two nonzero values: shifts and subtractions
/// instead of division.
fn gcd(mut a: u128, mut b: u128) -> u128 {
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    b >>= b.trailing_zeros();
    // `a == 1` ends it early: the usual case, a power-of-two denominator.
    while a != b && a != 1 {
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        b >>= b.trailing_zeros();
    }
    a.min(b) << shift
}

/// Best rational approximation `p/q ≈ t` with `q ≤ max_den`
/// (continued-fraction convergents).
fn rational_approx(t: f64, max_den: i64) -> (i64, i64) {
    let mut x = t;
    let (mut p0, mut q0, mut p1, mut q1) = (0i64, 1i64, 1i64, 0i64);
    for _ in 0..64 {
        let a = x.floor();
        if a.abs() > i64::MAX as f64 / 2.0 {
            break;
        }
        let a_i = a as i64;
        let p2 = a_i.saturating_mul(p1).saturating_add(p0);
        let q2 = a_i.saturating_mul(q1).saturating_add(q0);
        if q2 > max_den || q2 <= 0 {
            break;
        }
        p0 = p1;
        q0 = q1;
        p1 = p2;
        q1 = q2;
        let frac = x - a;
        if frac.abs() < 1e-12 {
            break;
        }
        x = 1.0 / frac;
    }
    if q1 == 0 {
        (0, 1)
    } else {
        (p1, q1)
    }
}

impl fmt::Debug for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.num, self.den) {
            (0, _) => write!(f, "0"),
            (1, 1) => write!(f, "pi"),
            (n, 1) => write!(f, "{n}*pi"),
            (1, d) => write!(f, "pi/{d}"),
            (n, d) => write!(f, "{n}*pi/{d}"),
        }
    }
}

impl std::ops::Add for Angle {
    type Output = Angle;
    fn add(self, rhs: Angle) -> Angle {
        Angle::add(self, rhs)
    }
}

impl std::ops::Neg for Angle {
    type Output = Angle;
    fn neg(self) -> Angle {
        Angle::neg(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_constants() {
        assert_eq!(Angle::pi_frac(0, 5), Angle::ZERO);
        assert_eq!(Angle::pi_frac(2, 2), Angle::PI);
        assert_eq!(Angle::pi_frac(4, 8), Angle::PI_2);
        assert_eq!(Angle::pi_frac(-1, 2), Angle::THREE_PI_2);
        assert_eq!(Angle::pi_frac(9, 4), Angle::pi_frac(1, 4));
    }

    #[test]
    fn negative_denominator_normalizes() {
        assert_eq!(Angle::pi_frac(1, -2), Angle::THREE_PI_2);
        assert_eq!(Angle::pi_frac(-1, -2), Angle::PI_2);
    }

    #[test]
    fn addition_wraps_mod_2pi() {
        assert_eq!(Angle::PI + Angle::PI, Angle::ZERO);
        assert_eq!(Angle::PI_2 + Angle::THREE_PI_2, Angle::ZERO);
        assert_eq!(Angle::PI_4 + Angle::PI_4, Angle::PI_2);
        assert_eq!(Angle::pi_frac(1, 3) + Angle::pi_frac(1, 6), Angle::PI_2);
    }

    #[test]
    fn negation_is_inverse() {
        for (n, d) in [(1, 3), (5, 7), (3, 2), (7, 4), (0, 1), (1, 1)] {
            let a = Angle::pi_frac(n, d);
            assert!(
                (a + (-a)).is_zero(),
                "{a} + -{a} should be zero, got {:?}",
                a + (-a)
            );
        }
    }

    #[test]
    fn double_wraps() {
        assert_eq!(Angle::PI.double(), Angle::ZERO);
        assert_eq!(Angle::PI_4.double(), Angle::PI_2);
        assert_eq!(Angle::THREE_PI_2.double(), Angle::PI);
    }

    #[test]
    fn radians_round_trip() {
        for (n, d) in [(1, 4), (3, 8), (7, 4), (1, 1), (127, 128), (5, 3)] {
            let a = Angle::pi_frac(n, d);
            let back = Angle::from_radians(a.to_radians());
            assert_eq!(a, back, "round trip failed for {a}");
        }
    }

    #[test]
    fn from_radians_snaps_small_denominators() {
        assert_eq!(
            Angle::from_radians(std::f64::consts::FRAC_PI_2),
            Angle::PI_2
        );
        assert_eq!(
            Angle::from_radians(-std::f64::consts::FRAC_PI_4),
            Angle::SEVEN_PI_4
        );
        assert_eq!(Angle::from_radians(0.0), Angle::ZERO);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Angle::ZERO.to_string(), "0");
        assert_eq!(Angle::PI.to_string(), "pi");
        assert_eq!(Angle::PI_2.to_string(), "pi/2");
        assert_eq!(Angle::pi_frac(3, 4).to_string(), "3*pi/4");
    }

    // ---- `normalize` against the Euclid reduction it replaced ----

    const MAX_DEN: i64 = 1 << 62;

    /// The previous reduction: gcd, range reduction, gcd again, all by
    /// `i128` Euclid, unbounded.
    fn reference_normalize(mut num: i128, mut den: i128) -> (i128, i128) {
        fn gcd128(mut a: i128, mut b: i128) -> i128 {
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a.abs()
        }
        if den < 0 {
            num = -num;
            den = -den;
        }
        let g = gcd128(num, den);
        if g > 1 {
            num /= g;
            den /= g;
        }
        num = num.rem_euclid(2 * den);
        let g = gcd128(num, den);
        if g > 1 {
            num /= g;
            den /= g;
        }
        if num == 0 {
            den = 1;
        }
        (num, den)
    }

    /// `normalize` agrees with the reference wherever the reduced
    /// denominator is at most `2^62`, and declines everywhere else.
    fn assert_normalize_matches_reference(num: i128, den: i128) {
        let reference = Some(reference_normalize(num, den)).filter(|&(_, d)| d <= MAX_DEN as i128);
        let ours = Angle::normalize(num, den).map(|a| (a.num as i128, a.den as i128));
        assert_eq!(ours, reference, "{num}/{den}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        #[test]
        fn normalize_matches_reference(
            num in -MAX_DEN - 1..MAX_DEN + 2,
            den in 1..MAX_DEN + 2,
            flip in 0u8..2
        ) {
            let den = if flip == 1 { -den } else { den };
            assert_normalize_matches_reference(num as i128, den as i128);
        }

        #[test]
        fn normalize_matches_reference_with_common_factors(
            a in -(1i64 << 31)..(1i64 << 31),
            b in 1i64..(1 << 31),
            k in 1i64..(1 << 31)
        ) {
            assert_normalize_matches_reference((a * k) as i128, (b * k) as i128);
        }

        /// Sums of segment-cache marker angles `±π/(2^30 + i)`: a pair
        /// always has a sum, and a pair of pairs may have none.
        #[test]
        fn marker_angle_sums_match_reference(
            i in 0i64..(1 << 30),
            j in 0i64..(1 << 30),
            signs in 0u8..4
        ) {
            let marker = |slot: i64, negate: bool| {
                let a = Angle::pi_frac(1, (1 << 30) + slot);
                if negate { -a } else { a }
            };
            let a = marker(i, signs & 1 != 0);
            let b = marker(j, signs & 2 != 0);
            for (x, y) in [(a, b), (a + b, -b), (a + b, -(a + b)), (a + b, a + b), (a + b, a)] {
                let (num, den) = (
                    x.num as i128 * y.den as i128 + y.num as i128 * x.den as i128,
                    x.den as i128 * y.den as i128,
                );
                assert_normalize_matches_reference(num, den);
                proptest::prop_assert_eq!(x.checked_add(y), Angle::normalize(num, den));
            }
        }
    }

    #[test]
    fn normalize_edges_match_reference() {
        let m = MAX_DEN as i128;
        let edges = [
            0,
            1,
            2,
            3,
            m / 3,
            (m - 1) / 3,
            m / 2,
            m - 3,
            m - 2,
            m - 1,
            m,
            m + 1,
            m + 2,
            2 * m - 1,
            i64::MAX as i128,
        ];
        for &n in &edges {
            for &d in &edges[1..] {
                for (n, d) in [(n, d), (-n, d), (n, -d), (-n, -d)] {
                    assert_normalize_matches_reference(n, d);
                }
            }
        }
    }

    #[test]
    fn the_largest_denominator_negates_and_doubles() {
        let a = Angle::pi_frac(1, MAX_DEN);
        assert_eq!(-a, Angle::pi_frac(i64::MAX, MAX_DEN));
        assert_eq!(a.double(), Angle::pi_frac(1, MAX_DEN / 2));
        assert_eq!(a + -a, Angle::ZERO);
        assert_eq!(Angle::checked_pi_frac(1, MAX_DEN + 1), None);
        assert_eq!(
            Angle::checked_pi_frac(2, MAX_DEN + 2),
            Some(Angle::pi_frac(1, MAX_DEN / 2 + 1))
        );
    }

    /// Two coprime denominators just above `2^31.5`: the exact sum's
    /// denominator is past `2^62`.
    #[test]
    fn sums_past_the_largest_denominator_are_declined() {
        let (a, b) = (Angle::pi_frac(1, 3037000507), Angle::pi_frac(1, 3037000493));
        assert_eq!(a.checked_add(b), None);
        assert_eq!(a.checked_add(-a), Some(Angle::ZERO));
        let below = Angle::pi_frac(1, (1 << 31) - 1);
        assert!(below.checked_add(Angle::pi_frac(1, 1 << 31)).is_some());
    }

    #[test]
    #[should_panic(expected = "angle overflow")]
    fn add_panics_where_checked_add_declines() {
        let _ = Angle::pi_frac(1, 3037000507) + Angle::pi_frac(1, 3037000493);
    }

    #[test]
    fn large_denominator_arithmetic_is_exact() {
        // Sum 2^20 copies of pi/2^20 and land exactly on pi.
        let step = Angle::pi_frac(1, 1 << 20);
        let mut acc = Angle::ZERO;
        for _ in 0..(1u32 << 20) {
            acc = acc + step;
        }
        assert_eq!(acc, Angle::PI);
    }
}
