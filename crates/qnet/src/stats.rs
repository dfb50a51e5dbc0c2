//! Per-server connection counters.
//!
//! Each [`NetServer`](crate::NetServer) owns one `Arc<NetStats>`, the only
//! record of what it counts: `/v1/stats` reads it, and a `/v1/metrics`
//! scrape copies it into the `popqc_net_*` families of
//! [`crate::metrics`] just before rendering, so several servers in one
//! process never share or double-count a cell.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Cumulative counters for one server instance. All methods are cheap
/// relaxed atomics; the loop and dispatcher threads update them without
/// coordination.
#[derive(Debug, Default)]
pub struct NetStats {
    connections_open: AtomicU64,
    connections_accepted: AtomicU64,
    requests_shed: AtomicU64,
    rate_limited: AtomicU64,
    deadline_closes: AtomicU64,
    write_stalls: AtomicU64,
}

impl NetStats {
    /// Records an accepted connection (open gauge + lifetime total).
    pub fn conn_opened(&self) {
        self.connections_open.fetch_add(1, Relaxed);
        self.connections_accepted.fetch_add(1, Relaxed);
    }

    /// Records a closed connection.
    pub fn conn_closed(&self) {
        self.connections_open.fetch_sub(1, Relaxed);
    }

    /// Records a request refused by queue-depth load shedding (driver
    /// answered inline instead of dispatching).
    pub fn shed(&self) {
        self.requests_shed.fetch_add(1, Relaxed);
    }

    /// Records a request refused by the per-peer rate limiter.
    pub fn rate_limit_hit(&self) {
        self.rate_limited.fetch_add(1, Relaxed);
    }

    /// Records a connection closed by the read deadline (slowloris or
    /// idle keep-alive).
    pub fn deadline_close(&self) {
        self.deadline_closes.fetch_add(1, Relaxed);
    }

    /// Records a write that could not complete in one sweep (peer not
    /// draining; the response stays buffered without blocking the loop).
    pub fn write_stall(&self) {
        self.write_stalls.fetch_add(1, Relaxed);
    }

    /// Connections currently open.
    pub fn connections_open(&self) -> u64 {
        self.connections_open.load(Relaxed)
    }

    /// Connections accepted over the server's lifetime.
    pub fn connections_accepted(&self) -> u64 {
        self.connections_accepted.load(Relaxed)
    }

    /// Requests refused by load shedding.
    pub fn requests_shed(&self) -> u64 {
        self.requests_shed.load(Relaxed)
    }

    /// Requests refused by the rate limiter.
    pub fn rate_limited(&self) -> u64 {
        self.rate_limited.load(Relaxed)
    }

    /// Connections closed by the read deadline.
    pub fn deadline_closes(&self) -> u64 {
        self.deadline_closes.load(Relaxed)
    }

    /// Partial-write stall events.
    pub fn write_stalls(&self) -> u64 {
        self.write_stalls.load(Relaxed)
    }
}
