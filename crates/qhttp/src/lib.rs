//! # popqc-http — HTTP frontend for the batch optimization service
//!
//! Wraps [`qsvc::OptimizationService`] in a std-only, dependency-free
//! HTTP/1.1 server so remote clients can submit QASM circuits, poll job
//! progress, and read the cache/oracle counters — the "shared submission
//! front door over a parallel backend" shape the ROADMAP's north star
//! calls for. The `popqc serve` CLI subcommand is a thin wrapper over this
//! crate.
//!
//! Three layers, separated so each is testable on its own:
//!
//! * [`http`] — vendored minimal HTTP/1.1 framing: an incremental
//!   request parser ([`http::RequestParser`], request line, headers,
//!   `Content-Length` and chunked bodies, resumable at any byte
//!   boundary), response serialization, keep-alive semantics.
//! * [`evented`] — the frontend, over [`qnet`]'s readiness-driven
//!   connection layer: a few loop threads sweep hundreds of nonblocking
//!   keep-alive connections, with admission control (connection cap,
//!   idle/slowloris deadlines, per-peer rate limiting, queue-depth load
//!   shedding) answered inline before work is enqueued, and admitted
//!   requests dispatched to a [`Handler`] on a bounded pool. This is
//!   what `popqc serve` runs.
//! * [`api`] — the v1 JSON routes (`POST /v1/optimize`, `POST /v1/batch`,
//!   `GET /v1/jobs/{id}`, `GET /v1/oracles`, `GET /v1/stats`,
//!   `GET|DELETE /v1/cache`, `GET /v1/version`, `GET /healthz`) over an
//!   [`AppState`] holding the service and the job registry. Every request
//!   and response body is a `popqc-api` DTO; failures map through the
//!   closed `qapi::ApiError` taxonomy and its canonical HTTP statuses.
//!
//! Concurrent identical submissions are deduplicated by the service's
//! in-flight coalescing (one computation, N waiters) and completed
//! duplicates by its result cache — both visible per job (`cache_hit`,
//! `coalesced`) and in `/v1/stats`. The service dispatches over its
//! [`qsvc::OracleRegistry`] per request (`?oracle=`), so one server
//! answers mixed-oracle traffic.
//!
//! ## Example
//!
//! ```no_run
//! use qhttp::api::AppState;
//! use qhttp::evented::{EventedConfig, EventedServer};
//! use qsvc::{OptimizationService, OracleRegistry, ServiceConfig};
//! use std::sync::Arc;
//!
//! let svc = OptimizationService::new(
//!     OracleRegistry::builtin(),
//!     ServiceConfig::default(),
//! );
//! let state = Arc::new(AppState::new(svc, 200));
//! let server = EventedServer::serve("127.0.0.1:8080", state, EventedConfig::default())
//!     .expect("bind");
//! println!("listening on http://{}", server.local_addr());
//! // ... server runs until dropped ...
//! ```

pub mod api;
pub mod evented;
pub mod http;
pub mod metrics;

pub use api::{AppState, Handler};
pub use evented::{EventedConfig, EventedServer};
pub use http::{Request, Response};
