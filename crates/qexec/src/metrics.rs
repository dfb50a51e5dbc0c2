//! The executor's `popqc-obs` instruments. Counters mirror the
//! [`ExecStats`](crate::ExecStats) cells (both are advanced at the same
//! point, when an op settles in `pool::run_op`), so a Prometheus scrape
//! and `GET /v1/stats` can never disagree about what the pool did.

/// Chunks executed — mirrors `ExecStats::tasks_executed`.
pub(crate) fn tasks_total() -> &'static qobs::Counter {
    qobs::static_counter!(
        "popqc_exec_tasks_total",
        "Chunks of parallel maps executed, by the submitter or a pool worker.",
    )
}

/// Chunks a pool worker ran for a submitter — mirrors `ExecStats::steals`.
pub(crate) fn steals_total() -> &'static qobs::Counter {
    qobs::static_counter!(
        "popqc_exec_steals_total",
        "Chunks a pool worker claimed and ran instead of the op's submitter.",
    )
}

/// Cut points — mirrors `ExecStats::splits`.
pub(crate) fn splits_total() -> &'static qobs::Counter {
    qobs::static_counter!(
        "popqc_exec_splits_total",
        "Cut points: chunks beyond the first that parallel maps were cut into.",
    )
}

/// Parallel operations that actually went parallel — mirrors
/// `ExecStats::parallel_ops`.
pub(crate) fn parallel_ops_total() -> &'static qobs::Counter {
    qobs::static_counter!(
        "popqc_exec_parallel_ops_total",
        "Parallel map operations that went parallel (sequential fast paths excluded).",
    )
}

/// Worker threads spawned so far — mirrors `ExecStats::workers`.
pub(crate) fn pool_workers() -> &'static qobs::Gauge {
    qobs::static_gauge!(
        "popqc_exec_pool_workers",
        "Worker threads the global pool has spawned (persistent; grows, never shrinks).",
    )
}

/// Wall-clock duration of each parallel map operation, as seen by the
/// submitting thread.
pub(crate) fn parallel_op_duration() -> &'static qobs::Histogram {
    qobs::static_histogram!(
        "popqc_exec_parallel_op_duration_seconds",
        "Wall-clock duration of each parallel map operation.",
        &qobs::LATENCY_BUCKETS,
    )
}

/// Registers every executor metric family without recording anything, so
/// the series inventory is complete from the first scrape rather than
/// appearing as parallel work happens.
pub fn describe_metrics() {
    tasks_total();
    steals_total();
    splits_total();
    parallel_ops_total();
    pool_workers();
    parallel_op_duration();
}
