//! # qcir — quantum circuit intermediate representation
//!
//! The circuit IR shared by every crate in the POPQC workspace. It models the
//! gate set used throughout the paper (the VOQC gate set): Hadamard (`H`),
//! Pauli-X (`X`), Z-rotation (`RZ`), and controlled-NOT (`CNOT`).
//!
//! Highlights:
//!
//! * [`Angle`] — *exact* rational-multiple-of-π angle arithmetic, so rotation
//!   merging (`RZ(a)·RZ(b) = RZ(a+b)`) and cancellation (`a + b ≡ 0 mod 2π`)
//!   are decidable with no floating-point drift.
//! * [`Gate`] — the four-gate ISA with commutation/inverse predicates used by
//!   the optimizers.
//! * [`Circuit`] — a flat gate-sequence circuit (the paper's primary
//!   representation).
//! * [`LayeredCircuit`] — the layered representation of Section 2.2 /
//!   Section 7.8, with ASAP/ALAP scheduling used for depth costing and for
//!   the initial-ordering experiments (Table 4).
//! * [`qasm`] — an OPENQASM 2.0 subset reader/writer for the gate set.

pub mod angle;
pub mod circuit;
pub mod fingerprint;
pub mod gate;
pub mod layers;
pub mod qasm;

pub use angle::Angle;
pub use circuit::Circuit;
pub use fingerprint::{
    fingerprint_gates, fingerprint_gates_abstract, Fingerprint, FingerprintHasher,
};
pub use gate::{Gate, Qubit};
pub use layers::{Layer, LayeredCircuit};
