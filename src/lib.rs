//! # popqc — Parallel Optimization for Quantum Circuits
//!
//! A complete, self-contained Rust reproduction of **"POPQC: Parallel
//! Optimization for Quantum Circuits"** (Liu, Arora, Xu, Acar — SPAA 2025).
//!
//! POPQC optimizes a quantum circuit by maintaining a set of *fingers* —
//! positions near which optimization may still be possible — and, in rounds,
//! optimizing the 2Ω-gate segments around non-interfering fingers in
//! parallel with an external *oracle* optimizer. The output is *locally
//! optimal*: no Ω-gate window can be improved by the oracle. For constant Ω
//! the algorithm does `O(n lg n)` work with `O(r lg n)` span.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`ir`] | `qcir` | gates, exact angles, circuits, layers, QASM |
//! | [`sim`] | `qsim` | state-vector simulator and equivalence checks |
//! | [`oracles`] | `qoracle` | rule-based (VOQC-style) and search (Quartz-style) oracles |
//! | [`core`] | `popqc-core` | index tree, sparse circuit, finger engine |
//! | [`baseline`] | `oac` | sequential cut-meld-compress baseline |
//! | [`benchmarks`] | `benchgen` | the paper's eight benchmark families + the `skewed` executor workload |
//! | [`api`] | `popqc-api` | versioned public API: v1 DTOs, `ApiError` taxonomy, wire format |
//! | [`exec`] | `popqc-exec` | the flat parallel map and the global pool every parallel hot path runs on |
//! | [`service`] | `popqc-svc` | batch optimization service: oracle registry + job scheduling + result cache + coalescing |
//! | [`http`] | `popqc-http` | HTTP/1.1 frontend: the v1 JSON endpoints over the service |
//!
//! ## Quick start
//!
//! ```
//! use popqc::prelude::*;
//!
//! // Generate a benchmark circuit and optimize it with POPQC.
//! let circuit = Family::Vqe.generate(12, 42);
//! let oracle = RuleBasedOptimizer::oracle();
//! let (optimized, stats) = optimize_circuit(&circuit, &oracle, &PopqcConfig::with_omega(100));
//!
//! assert!(optimized.len() < circuit.len());
//! println!(
//!     "reduced {} -> {} gates in {} rounds ({} oracle calls)",
//!     circuit.len(), optimized.len(), stats.rounds, stats.oracle_calls
//! );
//! ```

pub use benchgen as benchmarks;
pub use oac as baseline;
pub use popqc_core as core;
pub use qapi as api;
pub use qcir as ir;
pub use qexec as exec;
pub use qhttp as http;
pub use qoracle as oracles;
pub use qsim as sim;
pub use qsvc as service;

/// The types most programs need, in one import.
pub mod prelude {
    pub use benchgen::Family;
    pub use oac::{oac_optimize, OacConfig, OacStats};
    pub use popqc_core::{
        optimize_circuit, verify_local_optimality, Engine, PopqcConfig, PopqcStats,
    };
    pub use qapi::ApiError;
    pub use qcir::{Angle, Circuit, Fingerprint, Gate, Layer, LayeredCircuit, Qubit};
    pub use qoracle::{
        CostFn, GateCount, LayerSearchOracle, MixedDepthGates, RuleBasedOptimizer, SearchOptimizer,
        SegmentOracle,
    };
    pub use qsvc::{
        build_store, compose_store, BatchHandle, BatchResult, CacheServer, CacheServerConfig,
        DiskStore, JobHandle, JobKey, JobRequest, JobResult, MemoryStore, OptimizationService,
        OracleRegistry, RemoteConfig, RemoteStore, ResultStore, ServiceConfig, ServiceError,
        ServiceStats, StoreTier, TieredStore,
    };
}
