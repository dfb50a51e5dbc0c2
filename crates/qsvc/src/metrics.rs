//! The service's `popqc-obs` instruments: per-oracle job counters, the
//! job and oracle-call latency histograms (the paper's O(n·Ω) work bound
//! made observable on live traffic), queue depth, and per-tier store
//! latencies.
//!
//! Counter updates happen at the same points as the `ServiceStats`
//! atomics in `service.rs`, so a Prometheus scrape and `GET /v1/stats`
//! agree. The store entry/byte gauges are the exception: they are
//! *synced at scrape time* from the store's report via [`sync_store_gauges`]
//! (the store already maintains its own gauges; mirroring them on every
//! put would just duplicate that bookkeeping on the hot path).

use std::sync::Arc;

fn cache_hits_vec() -> &'static qobs::CounterVec {
    qobs::static_counter_vec!(
        "popqc_cache_hits_total",
        "Jobs answered from the result store, by oracle id (excludes coalesced jobs).",
        &["oracle"],
    )
}

fn cache_misses_vec() -> &'static qobs::CounterVec {
    qobs::static_counter_vec!(
        "popqc_cache_misses_total",
        "Jobs that missed the result store and ran the engine, by oracle id.",
        &["oracle"],
    )
}

fn jobs_coalesced_vec() -> &'static qobs::CounterVec {
    qobs::static_counter_vec!(
        "popqc_jobs_coalesced_total",
        "Jobs that coalesced onto an identical in-flight computation, by oracle id.",
        &["oracle"],
    )
}

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

fn store_entries_vec() -> &'static qobs::GaugeVec {
    qobs::static_gauge_vec!(
        "popqc_store_entries",
        "Entries resident per store tier (synced at scrape time).",
        &["tier"],
    )
}

fn store_bytes_vec() -> &'static qobs::GaugeVec {
    qobs::static_gauge_vec!(
        "popqc_store_bytes",
        "Approximate resident bytes per store tier (synced at scrape time).",
        &["tier"],
    )
}

/// Jobs answered from the result store, per oracle id (submit-time and
/// dequeue-time hits; coalesced jobs are counted separately).
pub(crate) fn cache_hits(oracle: &str) -> Arc<qobs::Counter> {
    cache_hits_vec().with(&[oracle])
}

/// Jobs that missed the store and ran the engine, per oracle id.
pub(crate) fn cache_misses(oracle: &str) -> Arc<qobs::Counter> {
    cache_misses_vec().with(&[oracle])
}

/// Jobs that attached to an identical in-flight computation, per oracle.
pub(crate) fn jobs_coalesced(oracle: &str) -> Arc<qobs::Counter> {
    jobs_coalesced_vec().with(&[oracle])
}

/// Jobs that completed with an error (oracle panic).
pub(crate) fn jobs_failed() -> &'static qobs::Counter {
    qobs::static_counter!(
        "popqc_jobs_failed_total",
        "Jobs that completed with an error instead of an optimized circuit.",
    )
}

/// Jobs waiting in the service queue right now.
pub(crate) fn queue_depth() -> &'static qobs::Gauge {
    qobs::static_gauge!(
        "popqc_queue_depth",
        "Jobs currently waiting in the service queue (excludes running jobs).",
    )
}

/// Submit→done latency per oracle id (queue wait + computation; zero-ish
/// for submit-time cache hits).
pub(crate) fn job_duration(oracle: &str) -> Arc<qobs::Histogram> {
    job_duration_vec().with(&[oracle])
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

/// Latency of each individual oracle call, per oracle id — the direct
/// O(n·Ω) observable: `_count` is the oracle work, `_sum` the time spent
/// inside the oracle across all parallel calls.
pub(crate) fn oracle_call_duration(oracle: &str) -> Arc<qobs::Histogram> {
    oracle_call_duration_vec().with(&[oracle])
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

/// Remote-tier lookups the cache server answered.
pub(crate) fn remote_hits() -> &'static qobs::Counter {
    qobs::static_counter!(
        "popqc_remote_hits_total",
        "Remote-tier lookups the cache server answered with a valid entry.",
    )
}

/// Remote-tier lookups that missed (including degraded local misses).
pub(crate) fn remote_misses() -> &'static qobs::Counter {
    qobs::static_counter!(
        "popqc_remote_misses_total",
        "Remote-tier lookups that missed, including degraded local misses \
         while the cache server is unreachable.",
    )
}

/// Remote-tier operations degraded by an unreachable or misbehaving
/// server (never surfaced as job errors — the tier falls back to a miss).
pub(crate) fn remote_errors() -> &'static qobs::Counter {
    qobs::static_counter!(
        "popqc_remote_errors_total",
        "Remote-tier operations degraded to a local miss or dropped write \
         (server unreachable, timeout, or invalid reply).",
    )
}

/// Round-trip latency of one remote request, by operation name.
pub(crate) fn remote_roundtrip(op: &str) -> Arc<qobs::Histogram> {
    remote_roundtrip_vec().with(&[op])
}

/// Segment-cache lookups served without an oracle call.
pub(crate) fn segcache_hits() -> &'static qobs::Counter {
    qobs::static_counter!(
        "popqc_segcache_hits_total",
        "Engine segment lookups served by the segment cache (each replaces \
         one oracle call).",
    )
}

/// Segment-cache lookups that fell through to the oracle.
pub(crate) fn segcache_misses() -> &'static qobs::Counter {
    qobs::static_counter!(
        "popqc_segcache_misses_total",
        "Engine segment lookups that missed the segment cache and ran the \
         oracle.",
    )
}

/// Segment-cache entries evicted to make room.
pub(crate) fn segcache_evictions() -> &'static qobs::Counter {
    qobs::static_counter!(
        "popqc_segcache_evictions_total",
        "Segment-cache entries evicted to make room (LRU, per shard).",
    )
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

fn cached_requests_vec() -> &'static qobs::CounterVec {
    qobs::static_counter_vec!(
        "popqc_cached_requests_total",
        "Requests handled by the `popqc cached` server, by operation.",
        &["op"],
    )
}

/// `popqc cached` server-side request counter, by operation name.
pub(crate) fn cached_requests(op: &str) -> Arc<qobs::Counter> {
    cached_requests_vec().with(&[op])
}

/// Entries resident in the `popqc cached` server's store.
pub(crate) fn cached_entries() -> &'static qobs::Gauge {
    qobs::static_gauge!(
        "popqc_cached_entries",
        "Entries resident in the cache server's authoritative store tier.",
    )
}

/// Bytes resident in the `popqc cached` server's store.
pub(crate) fn cached_bytes() -> &'static qobs::Gauge {
    qobs::static_gauge!(
        "popqc_cached_bytes",
        "Bytes resident in the cache server's store, summed across tiers.",
    )
}

/// Copies the store's own entry/byte gauges into the Prometheus ones —
/// call right before rendering a scrape so the series reflect the store
/// *now* without per-put mirroring.
pub fn sync_store_gauges(stats: &qapi::CacheReport) {
    for tier in &stats.tiers {
        store_entries_vec()
            .with(&[&tier.tier])
            .set(tier.entries.min(i64::MAX as u64) as i64);
        store_bytes_vec()
            .with(&[&tier.tier])
            .set(tier.bytes.min(i64::MAX as u64) as i64);
    }
}

/// Registers every service metric family (without recording anything) so
/// the series inventory is complete from the first scrape.
pub fn describe_metrics() {
    cache_hits_vec();
    cache_misses_vec();
    jobs_coalesced_vec();
    jobs_failed();
    queue_depth();
    job_duration_vec();
    rounds_to_fixpoint();
    oracle_call_duration_vec();
    store_get_duration_vec();
    store_put_duration_vec();
    store_entries_vec();
    store_bytes_vec();
    remote_hits();
    remote_misses();
    remote_errors();
    remote_roundtrip_vec();
    segcache_hits();
    segcache_misses();
    segcache_evictions();
    segcache_lookup_duration();
    cached_requests_vec();
    cached_entries();
    cached_bytes();
}
