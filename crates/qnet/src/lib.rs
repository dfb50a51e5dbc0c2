//! # popqc-net — readiness-driven connection layer for the serving edge
//!
//! An acceptor that parks one OS thread per connection caps concurrent
//! keep-alive clients at its pool size long before the optimizer is the
//! bottleneck. This crate separates the
//! *many-idle-connections* problem from the *N-optimize-jobs* problem the
//! executor already solves: a small fixed set of event-loop threads drives
//! nonblocking sockets through per-connection state machines
//! (accept → read → dispatch → buffered write → keep-alive or close),
//! and slow handler work runs on a separate dispatcher pool whose
//! completions re-enter the loop through a wakeable mailbox — the loop
//! itself never blocks on one socket or on a handler.
//!
//! ## Readiness through `poll(2)`
//!
//! The workspace has no dependencies, so the readiness call is a small
//! `extern "C"` binding to `poll(2)` in `server.rs`: one `#[repr(C)]`
//! entry type and one `unsafe` call. Each loop thread sweeps its
//! connections with nonblocking reads and writes, then blocks in `poll`
//! over its loopback `UdpSocket` waker and every connection that wants
//! input (`POLLIN`) or has output pending (`POLLOUT`). The wait ends when
//! any of them is ready or at the earliest read or write-stall deadline;
//! with no deadline armed it has no timeout, so an idle server uses no
//! CPU. Cross-thread events — new connections, dispatch completions,
//! shutdown — post to the thread's mailbox and send a wake datagram,
//! which ends the `poll` at once. `poll` rather than `epoll`: the poll
//! set is rebuilt from the connection states on every wake, so there is
//! no registration state to keep in step with them, and the sweep is
//! O(connections) per wake anyway.
//!
//! ## Admission control
//!
//! The loop is also where overload policy lives, *before* work is queued:
//!
//! * **Connection cap** — the acceptor stops calling `accept()` at
//!   `max_conns`; excess connections queue in the kernel backlog
//!   (backpressure, not RST storms).
//! * **Read deadlines** — a connection that has not *completed* a request
//!   within `read_deadline` is closed. Anchoring the deadline to request
//!   completion (not last byte) kills slowloris trickles and reaps idle
//!   keep-alive connections with one rule.
//! * **Per-peer rate limiting** — [`RateLimiter`] is a token bucket keyed
//!   by peer IP for drivers that answer 429 instead of dispatching.
//! * **Load shedding** — drivers can consult any queue-depth probe and
//!   answer inline (e.g. a 503 with `Retry-After`) on the loop thread,
//!   so shed responses cost microseconds even when the dispatcher pool
//!   is saturated.
//!
//! The crate is protocol-agnostic: a [`Driver`] consumes raw bytes and
//! emits [`Action`]s. Two protocols run on it: `popqc-http` layers its
//! vendored HTTP/1.1 framing on top (`qhttp::evented`), and `popqc-svc`'s
//! wire driver serves the fleet cache's length-prefixed frames
//! (`qsvc::CacheServer`, what `popqc cached` runs).

pub mod limiter;
pub mod metrics;
mod server;
mod stats;

pub use limiter::RateLimiter;
pub use server::{Action, DispatchFn, Driver, DriverFactory, NetConfig, NetServer};
pub use stats::NetStats;
