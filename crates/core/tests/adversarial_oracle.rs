//! Failure injection: the engine must stay safe under misbehaving oracles.
//!
//! POPQC's contract with the oracle (determinism + monotonicity) is what the
//! built-in oracles guarantee; these tests check that the *engine* contains
//! the damage when an oracle breaks the contract: no panics, guaranteed
//! termination, no substitution of oversized segments.

use popqc_core::{optimize_circuit, Engine, PopqcConfig};
use qcir::{Angle, Circuit, Gate};
use qoracle::SegmentOracle;
use std::sync::atomic::{AtomicU64, Ordering};

fn test_circuit(len: usize) -> Circuit {
    let mut c = Circuit::new(4);
    for i in 0..len {
        match i % 4 {
            0 => {
                c.h((i % 4) as u32);
            }
            1 => {
                c.cnot((i % 3) as u32, 3);
            }
            2 => {
                c.rz((i % 4) as u32, Angle::PI_4);
            }
            _ => {
                c.x((i % 4) as u32);
            }
        }
    }
    c
}

/// Always returns a *larger* segment (breaks monotonicity).
struct GrowingOracle;
impl SegmentOracle<Gate> for GrowingOracle {
    fn optimize(&self, units: &[Gate], _n: u32) -> Vec<Gate> {
        let mut v = units.to_vec();
        v.push(Gate::H(0));
        v.push(Gate::H(0));
        v
    }
    fn cost(&self, units: &[Gate]) -> u64 {
        units.len() as u64
    }
}

#[test]
fn growing_oracle_is_rejected_everywhere() {
    let c = test_circuit(300);
    let (out, stats) = optimize_circuit(&c, &GrowingOracle, &PopqcConfig::with_omega(16));
    // Larger outputs are never substituted; fingers drain; input survives.
    assert_eq!(out.gates, c.gates);
    assert_eq!(stats.accepted, 0);
    assert!(stats.rounds < 100);
}

/// Claims a lower cost while returning *more* units (cost/length mismatch).
struct LyingCostOracle;
impl SegmentOracle<Gate> for LyingCostOracle {
    fn optimize(&self, units: &[Gate], _n: u32) -> Vec<Gate> {
        let mut v = units.to_vec();
        v.push(Gate::X(0));
        v
    }
    fn cost(&self, units: &[Gate]) -> u64 {
        // Inverted cost: pretends longer is cheaper.
        u64::MAX - units.len() as u64
    }
}

#[test]
fn oversized_outputs_never_substitute_even_with_lying_cost() {
    let c = test_circuit(200);
    let (out, stats) = optimize_circuit(&c, &LyingCostOracle, &PopqcConfig::with_omega(8));
    // cost says "improved" but the length guard (opt.len() <= seg.len())
    // refuses the substitution, so the circuit is untouched...
    assert_eq!(out.gates, c.gates);
    assert_eq!(stats.accepted, 0);
}

/// Shrinks segments by dropping the last unit — semantically wrong, but
/// contract-conforming in shape. The engine should terminate having
/// accepted plenty of substitutions (the engine cannot detect semantic
/// lies; that is the oracle's obligation, which our real oracles discharge
/// via the simulator-backed test suites).
struct DropLastOracle;
impl SegmentOracle<u32> for DropLastOracle {
    fn optimize(&self, units: &[u32], _n: u32) -> Vec<u32> {
        units[..units.len().saturating_sub(1)].to_vec()
    }
    fn cost(&self, units: &[u32]) -> u64 {
        units.len() as u64
    }
}

#[test]
fn always_shrinking_oracle_terminates_by_potential() {
    let data: Vec<u32> = (0..500).collect();
    let (out, stats) = Engine::new(&DropLastOracle, PopqcConfig::with_omega(10)).run(data, 0);
    // Potential L = |F| + 2|C| bounds the calls even under maximal churn.
    let bound = 500usize.div_ceil(10) + 2 * 500;
    assert!((stats.oracle_calls as usize) <= bound);
    assert!(out.len() < 500);
}

/// Nondeterministic oracle: alternates between improving and not improving
/// the same segment. Termination must still hold (the potential function
/// argument is per-call, not per-segment).
struct FlakyOracle {
    calls: AtomicU64,
}
impl SegmentOracle<Gate> for FlakyOracle {
    fn optimize(&self, units: &[Gate], _n: u32) -> Vec<Gate> {
        let k = self.calls.fetch_add(1, Ordering::Relaxed);
        if k.is_multiple_of(2) && units.len() > 2 {
            units[..units.len() - 1].to_vec()
        } else {
            units.to_vec()
        }
    }
    fn cost(&self, units: &[Gate]) -> u64 {
        units.len() as u64
    }
}

#[test]
fn flaky_oracle_still_terminates() {
    let c = test_circuit(400);
    let oracle = FlakyOracle {
        calls: AtomicU64::new(0),
    };
    let cfg = PopqcConfig::with_omega(12);
    let (out, stats) = optimize_circuit(&c, &oracle, &cfg);
    assert!(out.len() <= c.len());
    let bound = c.len().div_ceil(12) + 2 * c.len();
    assert!((stats.oracle_calls as usize) <= bound);
}

/// Ω larger than the whole circuit: one segment covers everything.
#[test]
fn omega_larger_than_circuit() {
    let c = test_circuit(50);
    let oracle = qoracle::RuleBasedOptimizer::oracle();
    let (out, stats) = optimize_circuit(&c, &oracle, &PopqcConfig::with_omega(10_000));
    assert!(out.len() <= c.len());
    assert!(stats.oracle_calls >= 1);
    assert!(qsim::circuits_equivalent(&c, &out, 2, 9));
}
