//! `popqc-obs`: the one observability layer every POPQC runtime crate
//! shares — a process-wide metrics registry with a Prometheus text
//! encoder, and a leveled structured-logging facade that replaces the
//! scattered `eprintln!`s.
//!
//! Std-only like the rest of the workspace: no tracing/prometheus/log
//! crates, just atomics and `std::sync`.
//!
//! ## Metrics
//!
//! Three instrument kinds, all with relaxed-atomic hot paths:
//!
//! * [`Counter`] — monotonic `u64`; `inc`/`add` are one relaxed
//!   `fetch_add`, and `set` copies in a count kept elsewhere at scrape
//!   time.
//! * [`Gauge`] — settable `i64` (queue depths, pool sizes, resident
//!   bytes).
//! * [`Histogram`] — fixed bucket bounds chosen at registration; each
//!   observation is one relaxed `fetch_add` into its bucket cell plus a
//!   CAS-loop add into the bit-packed `f64` sum. Rendered with the
//!   standard `_bucket`/`_sum`/`_count` expansion.
//!
//! Instruments are owned by a global [registry](crate::render) keyed by
//! family name; registration is idempotent (same name + same kind returns
//! the existing family), so any crate can name a metric without
//! coordinating init order. Labeled families ([`CounterVec`],
//! [`GaugeVec`], [`HistogramVec`]) intern one child per label-value
//! tuple; resolving a child takes a read lock once, after which the
//! returned [`Arc`](std::sync::Arc) handle is lock-free to update.
//!
//! Hot paths should resolve once into a `static`, which the
//! [`static_counter!`]-style macros package up:
//!
//! ```
//! fn jobs_done() -> &'static qobs::Counter {
//!     qobs::static_counter!("popqc_demo_jobs_done_total", "Jobs finished.")
//! }
//! jobs_done().inc(); // one relaxed fetch_add, no locks
//! ```
//!
//! [`render`] serializes every registered family in the Prometheus text
//! exposition format (version 0.0.4): families sorted by name, `# HELP`
//! then `# TYPE` before any sample, label values escaped, histogram
//! buckets cumulative and monotone with a closing `+Inf` bucket.
//!
//! ## Logging
//!
//! [`log_error!`], [`log_warn!`], [`log_info!`], [`log_debug!`] emit one
//! `key=value` line to stderr:
//!
//! ```text
//! ts=1754520000.123 level=info target=qsvc msg="job done" oracle=rule_based rounds=12
//! ```
//!
//! The active filter comes from `POPQC_LOG` (or `popqc --log-level`) with
//! the usual spec grammar: a default level plus comma-separated
//! `target=level` overrides, e.g. `info,qexec=debug`. Disabled events
//! cost one relaxed atomic load and never format their arguments.
//!
//! ## Tracing
//!
//! [`trace`] adds request-scoped span tracing with tail-based sampling:
//! the edge starts a [`trace::TraceHandle`], layers record spans against
//! it (directly or via the thread-local ambient context), and the
//! keep/discard decision happens at finish time — error, shed, slow, and
//! forced traces are always kept, the rest probabilistically. Kept
//! traces land in a lock-sharded bounded ring buffer served by
//! `GET /v1/traces`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod encode;
mod log;
mod metrics;
pub mod trace;

pub use crate::log::{
    log_enabled, log_event, set_log_filter, set_log_filter_from_env, Level, LOG_ENV_VAR,
};
pub use crate::metrics::{
    counter, counter_vec, gauge, gauge_vec, histogram, histogram_vec, Counter, CounterVec, Gauge,
    GaugeVec, Histogram, HistogramTimer, HistogramVec,
};
pub use encode::render;

/// Exponential latency bucket bounds in seconds: ×4 steps from 1 µs to
/// ~17 s (13 bounds + the implicit `+Inf`). Wide enough for a
/// microsecond-scale store probe and a multi-second optimization job on
/// one shared scale, so dashboards can overlay them.
pub const LATENCY_BUCKETS: [f64; 13] = [
    1e-6, 4e-6, 1.6e-5, 6.4e-5, 2.56e-4, 1.024e-3, 4.096e-3, 1.6384e-2, 6.5536e-2, 0.262144,
    1.048576, 4.194304, 16.777216,
];

/// Power-of-two count buckets (1 … 1024 + `+Inf`) for discrete
/// distributions such as rounds-to-fixpoint.
pub const COUNT_BUCKETS: [f64; 11] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
];
