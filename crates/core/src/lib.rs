//! # popqc-core — Parallel Optimization for Quantum Circuits
//!
//! The paper's primary contribution: a parallel algorithm for *local
//! optimization* of quantum circuits. Given an oracle optimizer and a
//! segment size Ω, POPQC produces a circuit in which **every Ω-segment is
//! optimal with respect to the oracle** (Theorem 7), using
//! `O(n(Ω lg n + W))` work and `O(r(lg n + S))` span (Theorem 4).
//!
//! The pieces, mapped to the paper:
//!
//! * [`index_tree::IndexTree`] — the weighted tree of Section 3 /
//!   Figure 1 that locates live gates among tombstones in O(lg n): a
//!   liveness bitmap (one bit per slot) under a complete binary count
//!   tree over 64-slot blocks.
//! * [`sparse::SparseCircuit`] — the Algorithm 1 interface: `create`,
//!   `before`, `get`, `substitute`, `gates` (here `to_units`, and the
//!   consuming `into_units` the engine ends with), with the stated cost
//!   bounds — except `gates`, which is a sequential O(n) compaction
//!   rather than the paper's O(lg n)-span filter.
//! * [`fingers`] — `selectFingers` (Algorithm 4) and the sorted finger
//!   merge.
//! * [`engine`] — the round-based driver (Algorithms 2–3): one
//!   [`Engine`] value (oracle, [`PopqcConfig`], optional
//!   [`RoundObserver`] and [`SegmentCacheHook`]) whose [`Engine::run`]
//!   is generic over the unit type — [`qcir::Gate`] for the primary
//!   gate-sequence mode, [`qcir::Layer`] for the Section 7.8 depth-aware
//!   mode. [`optimize_circuit`] is its shorthand for a `Circuit`.
//!
//! ## Which term of Theorem 4 the engine does not pay
//!
//! The `n·Ω lg n` term is bookkeeping: Algorithm 3 reads each selected
//! finger's 2Ω-segment with 2Ω `get`s of O(lg n) each. The engine reads
//! it with [`SparseCircuit::select_run`] instead — one descent, then a
//! walk along the leaves that climbs only to cross a tombstone gap — so a
//! segment costs O(lg n + Ω + gaps·lg n) and the term becomes
//! `n(lg n + Ω + gaps·lg n)`, which is the paper's bound again only on a
//! circuit with a gap before every gate. The `n·W` oracle term and the
//! span are untouched.
//!
//! ## Quick start
//!
//! ```
//! use popqc_core::{optimize_circuit, PopqcConfig};
//! use qoracle::RuleBasedOptimizer;
//! use qcir::{Angle, Circuit};
//!
//! let mut c = Circuit::new(2);
//! c.h(0).h(0).cnot(0, 1).rz(1, Angle::PI_4).rz(1, Angle::PI_4).cnot(0, 1);
//! let oracle = RuleBasedOptimizer::oracle();
//! let (opt, stats) = optimize_circuit(&c, &oracle, &PopqcConfig::with_omega(4));
//! assert!(opt.len() < c.len());
//! assert!(stats.rounds >= 1);
//! ```

pub mod disjoint;
pub mod engine;
pub mod fingers;
pub mod index_tree;
pub mod sparse;

pub use engine::{
    optimize_circuit, verify_local_optimality, CachedSegment, Engine, PopqcConfig, PopqcStats,
    RoundObserver, RoundRecord, SegmentCacheHook,
};
pub use index_tree::IndexTree;
pub use sparse::SparseCircuit;
