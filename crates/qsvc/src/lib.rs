//! # popqc-svc — the batch optimization service
//!
//! The POPQC paper parallelizes optimization *within* one circuit; this
//! crate adds the orthogonal production axis: parallelism *across*
//! circuits, with memoization, per-request oracle selection, and full
//! accounting. It is the outer scheduling layer the ROADMAP's "serve heavy
//! traffic" north star needs — each circuit-optimization is a job, the
//! engine is the inner kernel.
//!
//! * [`OptimizationService`] — fixed worker pool (outer parallelism) where
//!   each job runs the engine under a bounded thread budget (inner
//!   parallelism), so one huge circuit cannot starve the queue.
//! * [`OracleRegistry`] — named, dynamically dispatched oracles
//!   (`Arc<dyn SegmentOracle<Gate>>`); every submission selects its oracle
//!   (and engine config) per job, so one running service answers
//!   mixed-oracle traffic. [`OracleRegistry::builtin`] registers the
//!   served oracles (`rule_based`, `rule_single_pass`, `structural`).
//! * [`ResultStore`] — the pluggable memoization backend the service owns
//!   as `Arc<dyn ResultStore>`: [`MemoryStore`] (the [`ShardedLruCache`]
//!   LRU, the default), [`DiskStore`] (one versioned file per entry; warm
//!   starts survive restarts), [`TieredStore`] (memory in front of disk,
//!   write-through + promote-on-hit) and [`RemoteStore`] (a shared
//!   `popqc cached` server over the [`wire`] protocol, so replica fleets
//!   warm one another), composed from the CLI's flags by
//!   [`compose_store`]. Results
//!   are keyed by [`JobKey`] = (structural circuit
//!   fingerprint, registry oracle id, engine config); identical
//!   resubmissions cost zero oracle calls, and mixed-oracle traffic
//!   shares one store without cross-contamination. Identical jobs
//!   submitted *concurrently* coalesce onto one in-flight computation
//!   (see [`ServiceStats::coalesced`]).
//! * [`segcache`] — the same memoization one level down: a bounded
//!   [`SegmentCacheLayer`] of per-*segment* rewrites consulted inside the
//!   engine's hot path, keyed angle-abstractly and serving only oracles
//!   that declare `angle_independent()`, so parameterized (VQE/QAOA-style)
//!   resubmissions reuse every structurally-unchanged segment's rewrite
//!   with near-zero marginal oracle calls. Off by default
//!   ([`ServiceConfig::seg_cache_capacity`] `= 0`); the CLI enables it.
//! * [`ServiceError`] — the closed failure taxonomy (unknown oracle,
//!   duplicate registration, oracle crash); no panic or stringly error
//!   crosses this crate's API.
//! * [`JobHandle`] / [`BatchHandle`] / [`BatchResult`] — completion,
//!   live round-progress, and per-job + aggregate statistics with
//!   cache-hit attribution.
//! * [`report`] — thin adapters from results to the versioned `popqc-api`
//!   DTOs that the HTTP frontend and the `popqc` CLI both emit.
//!
//! Network-free by design: the HTTP frontend is the separate `popqc-http`
//! crate, which wraps this API without this crate knowing about sockets.
//!
//! ## Example
//!
//! ```
//! use qsvc::{OptimizationService, OracleRegistry, ServiceConfig};
//! use popqc_core::PopqcConfig;
//! use qcir::{Angle, Circuit};
//!
//! let svc = OptimizationService::new(
//!     OracleRegistry::builtin(),
//!     ServiceConfig { workers: 2, ..ServiceConfig::default() },
//! );
//! let mut c = Circuit::new(2);
//! c.h(0).h(0).cnot(0, 1).rz(1, Angle::PI_4).rz(1, Angle::PI_4);
//!
//! let cfg = PopqcConfig::with_omega(4);
//! let first = svc.submit(c.clone(), &cfg).wait();
//! assert!(!first.cache_hit);
//!
//! // Resubmission: served from cache, zero new oracle calls.
//! let again = svc.submit(c.clone(), &cfg).wait();
//! assert!(again.cache_hit);
//! assert_eq!(again.circuit, first.circuit);
//!
//! // Same circuit through a different registered oracle: a distinct
//! // cache entry, selected per request.
//! let other = svc.submit_as("rule_single_pass", c, &cfg).unwrap().wait();
//! # let _ = other;
//! assert_eq!(svc.stats().cache_hits, 1);
//! ```

pub mod cache;
pub mod metrics;
pub mod remote;
pub mod report;
pub mod segcache;
pub mod service;
pub mod store;
pub mod wire;

pub use cache::{CacheStats, ShardedLruCache, CACHE_SHARDS};
pub use remote::{CacheServer, CacheServerConfig, RemoteConfig, RemoteStore};
pub use segcache::{
    JobSegmentCache, SegEntry, SegKey, SegTemplate, SegmentCacheLayer, TemplateGate,
};
pub use service::{
    BatchHandle, BatchResult, DynOracle, JobHandle, JobKey, JobRequest, JobResult,
    OptimizationService, OracleRegistry, ServiceConfig, ServiceError, ServiceStats,
};
pub use store::{
    build_store, compose_store, decode_entry, decode_entry_owned, encode_entry, CachedRun,
    DiskStore, EntryRejection, MemoryStore, ResultStore, StoreTier, TieredStore,
};
