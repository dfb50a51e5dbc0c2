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
//! itself never blocks on a socket or a handler.
//!
//! ## Std-only readiness
//!
//! The workspace is dependency-free and forbids `unsafe`, so there is no
//! `epoll`/`kqueue` binding. Readiness is emulated with an adaptive
//! sweep: each loop thread polls its connections with nonblocking
//! reads/writes, then parks on a loopback `UdpSocket` waker with a small
//! timeout (sub-millisecond when traffic is flowing, a few milliseconds
//! when idle). Cross-thread events — new connections, dispatch
//! completions, shutdown — post to the thread's mailbox and send a wake
//! datagram, so completions are picked up immediately rather than on the
//! next poll tick. The sweep is a drop-in seam for a real readiness
//! syscall later; everything above it (state machines, admission control,
//! dispatch) is already readiness-shaped.
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
//! emits [`Action`]s. `popqc-http` layers its vendored HTTP/1.1 framing
//! on top (`qhttp::evented`).

pub mod limiter;
pub mod metrics;
mod server;
mod stats;

pub use limiter::RateLimiter;
pub use server::{Action, DispatchFn, Driver, DriverFactory, NetConfig, NetServer};
pub use stats::NetStats;
