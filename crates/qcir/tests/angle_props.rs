//! Property-based tests for the exact angle arithmetic — the foundation the
//! optimizers' soundness rests on (merges and cancellations are decided by
//! these operations, so they must form a proper abelian group mod 2π).

use proptest::prelude::*;
use qcir::{qasm, Angle, Circuit};

fn arb_angle() -> impl Strategy<Value = Angle> {
    (-(1i64 << 24)..(1i64 << 24), 1i64..(1 << 20)).prop_map(|(num, den)| Angle::pi_frac(num, den))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn canonical_range(a in arb_angle()) {
        prop_assert!(a.denominator() >= 1);
        prop_assert!(a.numerator() >= 0);
        prop_assert!(a.numerator() < 2 * a.denominator());
        // Lowest terms.
        let g = gcd(a.numerator(), a.denominator());
        prop_assert_eq!(g, 1);
    }

    #[test]
    fn addition_commutes(a in arb_angle(), b in arb_angle()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn addition_associates(a in arb_angle(), b in arb_angle(), c in arb_angle()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn zero_is_identity(a in arb_angle()) {
        prop_assert_eq!(a + Angle::ZERO, a);
    }

    #[test]
    fn negation_inverts(a in arb_angle()) {
        prop_assert!((a + (-a)).is_zero());
        prop_assert_eq!(-(-a), a);
    }

    #[test]
    fn radians_agree_with_rational(a in arb_angle()) {
        let r = a.to_radians();
        prop_assert!((0.0..2.0 * std::f64::consts::PI + 1e-9).contains(&r));
        let expect = a.numerator() as f64 / a.denominator() as f64 * std::f64::consts::PI;
        prop_assert!((r - expect).abs() < 1e-9);
    }

    #[test]
    fn from_radians_round_trips_small_denominators(
        num in -64i64..64, den in 1i64..64
    ) {
        let a = Angle::pi_frac(num, den);
        prop_assert_eq!(Angle::from_radians(a.to_radians()), a);
    }

    #[test]
    fn double_is_self_addition(a in arb_angle()) {
        prop_assert_eq!(a.double(), a + a);
    }

    /// The QASM writer's integer spellings read back exactly, far past the
    /// `2^20` denominators a decimal literal snaps to.
    #[test]
    fn qasm_round_trips_large_denominators(
        angles in prop::collection::vec((0i64..1 << 41, 1i64..1 << 40, 0u32..3), 1..16)
    ) {
        let mut c = Circuit::new(3);
        for (num, den, q) in angles {
            c.rz(q, Angle::pi_frac(num, den)).cnot(q, (q + 1) % 3).h(q);
        }
        prop_assert_eq!(qasm::parse(&qasm::to_qasm(&c)), Ok(c));
    }
}

fn gcd(mut a: i64, mut b: i64) -> i64 {
    if a == 0 {
        return b.max(1);
    }
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.abs()
}
