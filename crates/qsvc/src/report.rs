//! Thin adapters from service results to the versioned `qapi` DTOs.
//!
//! This module owns NO schema of its own any more: every field that
//! crosses the process boundary is declared once in `popqc-api`, and the
//! functions here only translate [`JobResult`] / [`BatchResult`] /
//! [`ServiceStats`] into those DTOs. The HTTP frontend and the `popqc`
//! CLI both call these same adapters, so the two surfaces emit
//! byte-identical documents for the same job.

use crate::service::{BatchResult, JobResult, ServiceStats};
use crate::store::StoreStats;

/// One tier of a [`StoreStats`] as the shared wire fragment.
fn tier_report(t: &crate::store::TierStats) -> qapi::CacheTierReport {
    qapi::CacheTierReport {
        tier: t.tier.clone(),
        entries: t.entries,
        hits: t.hits,
        misses: t.misses,
        evictions: t.evictions,
        bytes: t.bytes,
        errors: t.errors,
    }
}

/// The store's per-tier counters as the `GET /v1/cache` document (and the
/// `popqc cache stats` output) — one adapter for both, so the admin
/// surfaces cannot drift.
pub fn cache_report(store: &StoreStats) -> qapi::CacheReport {
    qapi::CacheReport {
        backend: store.backend.clone(),
        entries: store.entries(),
        hits: store.hits(),
        misses: store.misses(),
        evictions: store.evictions(),
        bytes: store.bytes(),
        tiers: store.tiers.iter().map(tier_report).collect(),
    }
}

/// The per-job stats fragment for `r`, without `label`/`qasm` (contexts
/// attach those: [`batch_report`] sets the label, [`job_status`] attaches
/// the optimized QASM).
pub fn job_report(r: &JobResult) -> qapi::JobReport {
    qapi::JobReport {
        label: None,
        fingerprint: r.key.fingerprint.to_hex(),
        oracle: r.key.oracle_id.clone(),
        omega: r.key.config.omega as u64,
        input_gates: r.stats.initial_units as u64,
        output_gates: r.stats.final_units as u64,
        reduction: r.stats.reduction(),
        rounds: r.stats.rounds as u64,
        oracle_calls: r.stats.oracle_calls,
        cache_hit: r.cache_hit,
        coalesced: r.coalesced,
        error: r.error.as_ref().map(ToString::to_string),
        queue_seconds: r.queue_nanos as f64 / 1e9,
        run_seconds: r.run_nanos as f64 / 1e9,
        qasm: None,
    }
}

/// The job document served by `POST /v1/optimize`, `GET /v1/jobs/{id}`,
/// and emitted by `popqc optimize --json` — ONE builder for all three, so
/// the documents cannot diverge. The optimized QASM is attached for
/// completed successful jobs; a failed job carries only its `error` (its
/// `circuit` is the unoptimized input, which must never be passed off as
/// a result).
pub fn job_status(
    job_id: u64,
    label: Option<&str>,
    rounds_completed: usize,
    result: Option<&JobResult>,
) -> qapi::JobStatus {
    qapi::JobStatus {
        job_id,
        label: label.map(str::to_string),
        done: result.is_some(),
        rounds_completed: rounds_completed as u64,
        result: result.map(|r| {
            let mut report = job_report(r);
            if r.error.is_none() {
                report.qasm = Some(qcir::qasm::to_qasm(&r.circuit));
            }
            report
        }),
    }
}

/// Per-pass report: one batch submission of `labels.len()` jobs.
///
/// `labels` must parallel `batch.results` (submission order); pass file
/// names, family names, or any stable identifier. With `include_qasm` the
/// optimized circuit is attached per successful job (the HTTP batch
/// endpoint is self-contained; the CLI delivers circuits as files and
/// omits them).
pub fn batch_report(
    labels: &[String],
    batch: &BatchResult,
    pass: usize,
    include_qasm: bool,
) -> qapi::BatchResponse {
    assert_eq!(
        labels.len(),
        batch.results.len(),
        "one label per job required"
    );
    let jobs = labels
        .iter()
        .zip(&batch.results)
        .map(|(label, r)| {
            let mut report = job_report(r);
            report.label = Some(label.clone());
            if include_qasm && r.error.is_none() {
                report.qasm = Some(qcir::qasm::to_qasm(&r.circuit));
            }
            report
        })
        .collect();
    let (gates_in, gates_out) = batch.gate_totals();
    qapi::BatchResponse {
        pass: pass as u64,
        jobs,
        job_count: batch.results.len() as u64,
        cache_hits: batch.cache_hits() as u64,
        oracle_calls_issued: batch.oracle_calls_issued(),
        gates_in: gates_in as u64,
        gates_out: gates_out as u64,
        wall_seconds: batch.wall_nanos as f64 / 1e9,
        jobs_per_sec: batch.jobs_per_sec(),
    }
}

/// The executor counters as the shared wire fragment.
fn executor_report(e: &qexec::ExecStats) -> qapi::ExecutorReport {
    qapi::ExecutorReport {
        workers: e.workers,
        grain: e.grain,
        parallel_ops: e.parallel_ops,
        tasks_executed: e.tasks_executed,
        splits: e.splits,
        steals: e.steals,
    }
}

/// The segment-cache counters as the shared wire fragment.
fn segment_cache_report(s: &crate::segcache::SegCacheStats) -> qapi::SegmentCacheReport {
    qapi::SegmentCacheReport {
        enabled: s.enabled,
        capacity: s.capacity as u64,
        entries: s.entries as u64,
        hits: s.hits,
        misses: s.misses,
        evictions: s.evictions,
    }
}

/// The service's cumulative counters as the shared [`qapi::StatsReport`]
/// DTO. `GET /v1/stats` and the CLI report both derive from this one
/// function, so their fields can never drift.
pub fn stats_report(
    stats: &ServiceStats,
    workers: usize,
    threads_per_job: usize,
) -> qapi::StatsReport {
    qapi::StatsReport {
        workers: workers as u64,
        threads_per_job: threads_per_job as u64,
        uptime_seconds: stats.uptime_seconds,
        version: qapi::VersionInfo::current(),
        submitted: stats.submitted,
        completed: stats.completed,
        cache_hits: stats.cache_hits,
        coalesced: stats.coalesced,
        failed: stats.failed,
        oracle_calls_issued: stats.oracle_calls_issued,
        cache_entries: stats.cache.entries as u64,
        cache_evictions: stats.cache.evictions,
        cache_backend: stats.store.backend.clone(),
        cache_tiers: stats.store.tiers.iter().map(tier_report).collect(),
        segment_cache: segment_cache_report(&stats.seg_cache),
        executor: executor_report(&stats.executor),
        jobs_tracked: None,
        frontend: None,
    }
}

/// The full CLI report: every pass plus the cumulative counters.
pub fn service_report(
    passes: Vec<qapi::BatchResponse>,
    stats: &ServiceStats,
    workers: usize,
    threads_per_job: usize,
) -> qapi::ServiceReport {
    qapi::ServiceReport {
        passes,
        service: stats_report(stats, workers, threads_per_job),
    }
}
