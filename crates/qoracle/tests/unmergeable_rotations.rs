//! Two rotations whose exact sum has no canonical `Angle` (reduced
//! denominator above `2^62`) are left unmerged by every pass and every
//! optimizer, instead of panicking. QASM reads integer angle spellings
//! exactly, so such a pair is two lines of input away.

use qcir::{qasm, Angle, Gate};
use qoracle::passes::{
    CancelSingleQubit, CancelTwoQubit, HadamardReduction, NotPropagation, Pass, RotationMerge,
    RotationMergeScan,
};
use qoracle::{GateCount, RuleBasedOptimizer, SearchOptimizer, StructuralOptimizer};

/// Coprime denominators just above `2^31.5`.
fn pair() -> [Angle; 2] {
    [Angle::pi_frac(1, 3037000507), Angle::pi_frac(1, 3037000493)]
}

/// The pair on wire 0, the second rotation reaching the first directly,
/// across a CNOT control, or conjugated by X (which negates it).
fn inputs() -> Vec<Vec<Gate>> {
    [
        "rz(pi/3037000507) q[0];\nrz(pi/3037000493) q[0];",
        "rz(pi/3037000507) q[0];\ncx q[0],q[1];\nrz(pi/3037000493) q[0];",
        "rz(pi/3037000507) q[0];\nx q[0];\nrz(pi/3037000493) q[0];\nx q[0];",
    ]
    .into_iter()
    .map(|body| {
        let c = qasm::parse(&format!("qreg q[2];\n{body}")).expect("input parses");
        assert_eq!(c.gates[0], Gate::Rz(0, pair()[0]));
        c.gates
    })
    .collect()
}

/// The rotation angles of `gates`, with a negation by a moved X undone.
fn rotations(gates: &[Gate]) -> Vec<Angle> {
    let pair = pair();
    let mut angles: Vec<Angle> = gates
        .iter()
        .filter_map(|g| match *g {
            Gate::Rz(_, t) if pair.contains(&-t) => Some(-t),
            Gate::Rz(_, t) => Some(t),
            _ => None,
        })
        .collect();
    angles.sort_by_key(|t| t.denominator());
    angles
}

fn assert_unmerged(name: &str, optimize: impl Fn(&[Gate]) -> Vec<Gate>) {
    let mut want = pair().to_vec();
    want.sort_by_key(|t| t.denominator());
    for gates in inputs() {
        let out = optimize(&gates);
        assert_eq!(rotations(&out), want, "{name} on {gates:?} gave {out:?}");
    }
}

#[test]
fn every_pass_leaves_the_pair_unmerged() {
    let passes: [&dyn Pass; 6] = [
        &CancelSingleQubit,
        &CancelTwoQubit,
        &HadamardReduction,
        &NotPropagation,
        &RotationMerge,
        &RotationMergeScan::default(),
    ];
    for pass in passes {
        assert_unmerged(pass.name(), |g| pass.run(g.to_vec(), 2).0);
    }
}

#[test]
fn every_optimizer_leaves_the_pair_unmerged() {
    for (name, opt) in [
        ("oracle", RuleBasedOptimizer::oracle()),
        ("voqc", RuleBasedOptimizer::voqc_baseline()),
        ("modern", RuleBasedOptimizer::modern_baseline()),
    ] {
        assert_unmerged(name, |g| opt.run(g, 2));
    }
    assert_unmerged("structural", |g| StructuralOptimizer::new().run(g, 2));
    assert_unmerged("search", |g| SearchOptimizer::new(GateCount, 200).run(g, 2));
}

/// A rotation whose sum does fit still merges past the pair.
#[test]
fn a_mergeable_rotation_still_merges_past_the_pair() {
    let [a, b] = pair();
    let c = qasm::parse(
        "qreg q[1];\nrz(pi/3037000507) q[0];\nrz(pi/3037000493) q[0];\nrz(-pi/3037000507) q[0];",
    )
    .unwrap();
    assert_eq!(c.gates[2], Gate::Rz(0, -a));
    assert_eq!(RotationMerge.run(c.gates, 1).0, [Gate::Rz(0, b)]);
}
