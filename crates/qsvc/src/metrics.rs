//! The service's `popqc-obs` instruments: per-oracle job counters, the
//! job and oracle-call latency histograms (the paper's O(n·Ω) work bound
//! made observable on live traffic), queue depth, per-tier store
//! latencies and occupancy, and the remote-tier and segment-cache
//! counters.
//!
//! One record per counter. Whatever a service instance counts (jobs per
//! oracle, failures, queue depth, store and segment-cache counters) is
//! counted once, in the instance's own atomics, the ones `GET /v1/stats`
//! reads; [`render_scrape`] copies them into these families just before
//! rendering, together with the serving frontend's `popqc_net_*`
//! counters. A scrape therefore reports the instance that serves it, even
//! when one process runs several. Process-wide series (the latency
//! histograms here, the executor's, the HTTP layer's and the tracer's)
//! have no per-instance record: their single `qobs` cell is updated at
//! the event and aggregates over the process.

use crate::service::OptimizationService;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};

fn job_duration_vec() -> &'static qobs::HistogramVec {
    qobs::static_histogram_vec!(
        "popqc_job_duration_seconds",
        "Submit-to-done job latency (queue wait plus computation), by oracle id.",
        &["oracle"],
        &qobs::LATENCY_BUCKETS,
    )
}

fn oracle_call_duration_vec() -> &'static qobs::HistogramVec {
    qobs::static_histogram_vec!(
        "popqc_oracle_call_duration_seconds",
        "Wall-clock latency of each individual segment-oracle call, by oracle id.",
        &["oracle"],
        &qobs::LATENCY_BUCKETS,
    )
}

fn store_get_duration_vec() -> &'static qobs::HistogramVec {
    qobs::static_histogram_vec!(
        "popqc_store_get_duration_seconds",
        "Result-store lookup latency, by tier.",
        &["tier"],
        &qobs::LATENCY_BUCKETS,
    )
}

fn store_put_duration_vec() -> &'static qobs::HistogramVec {
    qobs::static_histogram_vec!(
        "popqc_store_put_duration_seconds",
        "Result-store write latency, by tier.",
        &["tier"],
        &qobs::LATENCY_BUCKETS,
    )
}

fn remote_roundtrip_vec() -> &'static qobs::HistogramVec {
    qobs::static_histogram_vec!(
        "popqc_remote_roundtrip_seconds",
        "Round-trip latency of remote cache-server requests, by operation \
         (successful request-response pairs only).",
        &["op"],
        &qobs::LATENCY_BUCKETS,
    )
}

/// Rounds each freshly computed job took to reach its fixpoint — the
/// paper's O(log n)-expected outer-loop count, as a distribution.
pub(crate) fn rounds_to_fixpoint() -> &'static qobs::Histogram {
    qobs::static_histogram!(
        "popqc_rounds_to_fixpoint",
        "Engine rounds per freshly computed job (cache hits excluded).",
        &qobs::COUNT_BUCKETS,
    )
}

/// Store lookup latency, per tier. Only the leaf tiers (`memory`,
/// `disk`) observe; `tiered` composes them, so its cost is already the
/// sum of what its tiers record.
pub(crate) fn store_get_duration(tier: &str) -> Arc<qobs::Histogram> {
    store_get_duration_vec().with(&[tier])
}

/// Store write latency, per tier (leaf tiers only, as for gets).
pub(crate) fn store_put_duration(tier: &str) -> Arc<qobs::Histogram> {
    store_put_duration_vec().with(&[tier])
}

/// Round-trip latency of one remote request, by operation name.
pub(crate) fn remote_roundtrip(op: &str) -> Arc<qobs::Histogram> {
    remote_roundtrip_vec().with(&[op])
}

/// Latency of one segment-cache lookup (fingerprint + probe + template
/// materialization), hit or miss.
pub(crate) fn segcache_lookup_duration() -> &'static qobs::Histogram {
    qobs::static_histogram!(
        "popqc_segcache_lookup_duration_seconds",
        "Segment-cache lookup latency (fingerprinting, probes, and template \
         materialization; hits and misses alike).",
        &qobs::LATENCY_BUCKETS,
    )
}

/// One registered oracle's job outcomes, counted by the service that
/// owns it, and its two latency histograms, resolved once at
/// construction. Every completed job bumps exactly one of the three
/// outcome counters.
pub(crate) struct OracleCounters {
    pub(crate) id: String,
    /// Jobs answered from the result store (submit- or dequeue-time).
    pub(crate) hits: AtomicU64,
    /// Jobs that ran the engine, failed ones included.
    pub(crate) misses: AtomicU64,
    /// Jobs settled by an identical in-flight computation.
    pub(crate) coalesced: AtomicU64,
    /// Submit→done latency (queue wait + computation; near zero for
    /// submit-time hits).
    pub(crate) job_duration: Arc<qobs::Histogram>,
    /// Latency of each oracle call: `_count` is the oracle work,
    /// `_sum` the time spent inside the oracle across parallel calls.
    pub(crate) oracle_call_duration: Arc<qobs::Histogram>,
}

impl OracleCounters {
    pub(crate) fn new(id: &str) -> OracleCounters {
        OracleCounters {
            id: id.to_string(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            job_duration: job_duration_vec().with(&[id]),
            oracle_call_duration: oracle_call_duration_vec().with(&[id]),
        }
    }
}

/// Renders `GET /v1/metrics` for the instance that serves it: copies
/// `svc`'s counters (one `store.stats()` read, which for a remote tier is
/// a round trip) and the serving frontend's `net` counters (zeros when it
/// has no frontend) into their families, then renders the registry. One
/// process-wide lock spans the copy and the render, so two servers'
/// scrapes never interleave. The copy also registers these families, so
/// every scrape carries the full inventory.
pub fn render_scrape(svc: &OptimizationService, net: Option<&qnet::NetStats>) -> String {
    // The lock guards no data, so a scrape that panicked leaves it usable.
    static SCRAPE: Mutex<()> = Mutex::new(());
    let _scrape = SCRAPE.lock().unwrap_or_else(PoisonError::into_inner);
    let stats = svc.stats();
    for oracle in svc.oracle_counters() {
        for (name, help, count) in [
            (
                "popqc_cache_hits_total",
                "Jobs answered from the result store, by oracle id (excludes coalesced jobs).",
                &oracle.hits,
            ),
            (
                "popqc_cache_misses_total",
                "Jobs that missed the result store and ran the engine, by oracle id.",
                &oracle.misses,
            ),
            (
                "popqc_jobs_coalesced_total",
                "Jobs that coalesced onto an identical in-flight computation, by oracle id.",
                &oracle.coalesced,
            ),
        ] {
            qobs::counter_vec(name, help, &["oracle"])
                .with(&[&oracle.id])
                .set(count.load(Relaxed));
        }
    }
    let mut remote = qapi::CacheTierReport::default();
    for tier in &stats.store.tiers {
        for (name, help, value) in [
            (
                "popqc_store_entries",
                "Entries resident per store tier (synced at scrape time).",
                tier.entries,
            ),
            (
                "popqc_store_bytes",
                "Approximate resident bytes per store tier (synced at scrape time).",
                tier.bytes,
            ),
        ] {
            qobs::gauge_vec(name, help, &["tier"])
                .with(&[&tier.tier])
                .set(gauge_value(value));
        }
        if tier.tier == "remote" {
            remote = tier.clone();
        }
    }
    let no_frontend = qnet::NetStats::default();
    let net = net.unwrap_or(&no_frontend);
    for (name, help, value) in [
        (
            "popqc_jobs_failed_total",
            "Jobs that completed with an error instead of an optimized circuit.",
            stats.failed,
        ),
        (
            "popqc_remote_hits_total",
            "Remote-tier lookups the cache server answered with a valid entry.",
            remote.hits,
        ),
        (
            "popqc_remote_misses_total",
            "Remote-tier lookups that missed, including degraded local misses \
             while the cache server is unreachable.",
            remote.misses,
        ),
        (
            "popqc_remote_errors_total",
            "Remote-tier operations degraded to a local miss or dropped write \
             (server unreachable, timeout, or invalid reply).",
            remote.errors,
        ),
        (
            "popqc_segcache_hits_total",
            "Engine segment lookups served by the segment cache (each replaces \
             one oracle call).",
            stats.seg_cache.hits,
        ),
        (
            "popqc_segcache_misses_total",
            "Engine segment lookups that missed the segment cache and ran the oracle.",
            stats.seg_cache.misses,
        ),
        (
            "popqc_segcache_evictions_total",
            "Segment-cache entries evicted to make room (LRU, per shard).",
            stats.seg_cache.evictions,
        ),
    ] {
        qobs::counter(name, help).set(value);
    }
    qobs::gauge(
        "popqc_queue_depth",
        "Jobs currently waiting in the service queue (excludes running jobs).",
    )
    .set(svc.queue_depth() as i64);
    qnet::metrics::connections_open().set(gauge_value(net.connections_open()));
    qnet::metrics::connections_total().set(net.connections_accepted());
    qnet::metrics::shed_total().set(net.requests_shed());
    qnet::metrics::rate_limited_total().set(net.rate_limited());
    qnet::metrics::deadline_closes_total().set(net.deadline_closes());
    qnet::metrics::write_stalls_total().set(net.write_stalls());
    qobs::render()
}

fn gauge_value(v: u64) -> i64 {
    v.min(i64::MAX as u64) as i64
}

/// Registers the process-wide service families (without recording
/// anything) so the series inventory is complete from the first scrape;
/// [`render_scrape`] registers the per-instance ones as it copies them.
pub fn describe_metrics() {
    job_duration_vec();
    rounds_to_fixpoint();
    oracle_call_duration_vec();
    store_get_duration_vec();
    store_put_duration_vec();
    remote_roundtrip_vec();
    segcache_lookup_duration();
}
