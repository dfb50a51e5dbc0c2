//! Batch optimization through the registry-based service: outer
//! parallelism over circuits, memoized results with cache-hit accounting,
//! and a mixed-oracle batch where each job selects its oracle per request
//! while sharing one cache.
//!
//! ```sh
//! cargo run --release --example batch_service
//! ```

use popqc::prelude::*;

fn main() {
    // One job per benchmark family at its smallest laptop-scale width.
    let circuits: Vec<Circuit> = Family::PAPER
        .iter()
        .map(|f| f.generate(f.ladder(0)[0], 42))
        .collect();
    let total_gates: usize = circuits.iter().map(Circuit::len).sum();
    println!(
        "batch: {} circuits, {} gates total",
        circuits.len(),
        total_gates
    );

    // The built-in registry: rule_based (default), rule_single_pass,
    // structural — all live behind one service, selected per request.
    let svc = OptimizationService::new(
        OracleRegistry::builtin(),
        ServiceConfig {
            workers: 4,
            threads_per_job: 1,
            ..ServiceConfig::default()
        },
    );
    let cfg = PopqcConfig::with_omega(100);

    // Cold pass: every job misses the cache and runs the engine.
    let cold = svc.submit_batch(circuits.iter().cloned(), &cfg).wait();
    let (gates_in, gates_out) = cold.gate_totals();
    println!(
        "cold: {:.3}s ({:.1} jobs/s), {} oracle calls, {gates_in} -> {gates_out} gates",
        cold.wall_nanos as f64 / 1e9,
        cold.jobs_per_sec(),
        cold.oracle_calls_issued(),
    );

    // Warm pass: identical circuits, so every job is a cache hit and no
    // oracle call is issued.
    let warm = svc.submit_batch(circuits.iter().cloned(), &cfg).wait();
    println!(
        "warm: {:.6}s ({:.0} jobs/s), {} cache hits, {} oracle calls",
        warm.wall_nanos as f64 / 1e9,
        warm.jobs_per_sec(),
        warm.cache_hits(),
        warm.oracle_calls_issued(),
    );
    assert_eq!(warm.cache_hits(), circuits.len());
    assert_eq!(warm.oracle_calls_issued(), 0);

    // Mixed-oracle batch: each request names its own oracle, all jobs
    // share the service queue AND the result cache. The rule_based jobs
    // are cache hits from the passes above (same circuit, same oracle id,
    // same config); the rule_single_pass jobs are fresh cache entries.
    let mixed: Vec<JobRequest> = circuits
        .iter()
        .flat_map(|c| {
            [
                JobRequest::with_oracle(c.clone(), "rule_based", cfg.clone()),
                JobRequest::with_oracle(c.clone(), "rule_single_pass", cfg.clone()),
            ]
        })
        .collect();
    let mixed = svc
        .submit_batch_requests(mixed)
        .expect("both oracles are registered")
        .wait();
    let hits = mixed.cache_hits();
    println!(
        "mixed: {} jobs across 2 oracles, {} cache hits (the rule_based half), \
         {} oracle calls",
        mixed.results.len(),
        hits,
        mixed.oracle_calls_issued(),
    );
    assert_eq!(hits, circuits.len(), "rule_based half must hit the cache");

    // Per-job detail for the mixed pass: same fingerprint, two oracle ids,
    // two distinct cache entries.
    for result in mixed.results.iter().take(4) {
        println!(
            "  {:<16} {:>6} -> {:>6} gates  (cache_hit: {:<5} key {}/{})",
            result.key.oracle_id,
            result.stats.initial_units,
            result.stats.final_units,
            result.cache_hit,
            &result.key.fingerprint.to_hex()[..12],
            result.key.oracle_id,
        );
    }

    let stats = svc.stats();
    println!(
        "service: {} submitted, {} cache hits, {} oracle calls issued, {} cached entries",
        stats.submitted, stats.cache_hits, stats.oracle_calls_issued, stats.store.entries
    );
}
