//! # qsim — state-vector simulation and equivalence checking
//!
//! The paper's correctness story rests on rewrites preserving the circuit
//! unitary (Section 2.2: any subcircuit may be replaced by an equivalent
//! one). This crate provides the machinery the workspace's test suites use to
//! *check* that property on every optimizer, pass, and rewrite rule:
//!
//! * [`Complex`] — a minimal complex-number type (no external deps).
//! * [`StateVector`] — a dense 2ⁿ state vector with gate application for the
//!   POPQC gate set; amplitude sweeps parallelize on `qexec` above a size
//!   threshold.
//! * [`unitary`] — full-unitary construction for tiny circuits.
//! * [`equiv`] — equivalence checks up to global phase, both exact (small n)
//!   and randomized (larger n).

pub mod complex;
pub mod equiv;
pub mod rng;
pub mod state;
pub mod unitary;

pub use complex::Complex;
pub use equiv::{circuits_equivalent, circuits_equivalent_exact, states_equal_up_to_phase};
pub use state::StateVector;
