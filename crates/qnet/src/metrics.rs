//! The `popqc_net_*` metric families.
//!
//! Nothing here counts an event: each server's
//! [`NetStats`](crate::NetStats) is the record, and the scrape that
//! renders `GET /v1/metrics` sets these families from the serving
//! frontend's `NetStats` first, so a scrape reports the server that
//! answers it.

/// Connections the serving frontend has open.
pub fn connections_open() -> &'static qobs::Gauge {
    qobs::static_gauge!(
        "popqc_net_connections_open",
        "Connections currently open on the evented frontend."
    )
}

/// Connections the serving frontend accepted.
pub fn connections_total() -> &'static qobs::Counter {
    qobs::static_counter!(
        "popqc_net_connections_total",
        "Connections accepted by the evented frontend."
    )
}

/// Requests refused by queue-depth load shedding.
pub fn shed_total() -> &'static qobs::Counter {
    qobs::static_counter!(
        "popqc_net_shed_total",
        "Requests shed at the edge (503 + Retry-After) because the job \
         queue exceeded the configured depth."
    )
}

/// Requests refused by the per-peer token bucket.
pub fn rate_limited_total() -> &'static qobs::Counter {
    qobs::static_counter!(
        "popqc_net_rate_limited_total",
        "Requests refused with 429 by the per-peer rate limiter."
    )
}

/// Connections closed by the read deadline.
pub fn deadline_closes_total() -> &'static qobs::Counter {
    qobs::static_counter!(
        "popqc_net_deadline_closes_total",
        "Connections closed for not completing a request within the read \
         deadline (idle keep-alive or slowloris)."
    )
}

/// Partial-write stall events.
pub fn write_stalls_total() -> &'static qobs::Counter {
    qobs::static_counter!(
        "popqc_net_write_stalls_total",
        "Responses that could not be written in one sweep because the \
         peer was not draining its receive window."
    )
}
