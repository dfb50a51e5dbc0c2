//! The tiered result store across a service "restart": process one
//! computes and persists, a second service over the same cache directory
//! answers the identical jobs from the disk tier with zero oracle calls.
//! This is the `popqc serve --cache-dir …` behaviour, driven through the
//! library seam.
//!
//! ```sh
//! cargo run --release --example persistent_cache
//! ```

use popqc::prelude::*;

fn main() {
    let cache_dir = std::env::temp_dir().join("popqc-persistent-cache-example");
    let _ = std::fs::remove_dir_all(&cache_dir);

    let circuits: Vec<Circuit> = Family::PAPER
        .iter()
        .map(|f| f.generate(f.ladder(0)[0], 7))
        .collect();
    let cfg = PopqcConfig::with_omega(100);

    // The one seam: the CLI's `--cache-dir`, `--cache-addr` and
    // `--cache-capacity` compose every store through this call, and
    // nothing else in the program changes.
    let tiered = |dir: &std::path::Path| -> std::sync::Arc<dyn ResultStore> {
        compose_store(Some(dir), None, 1024, 16).expect("build store")
    };

    // "Process" one: cold batch, write-through to disk.
    {
        let svc = OptimizationService::with_store(
            OracleRegistry::builtin(),
            ServiceConfig::default(),
            tiered(&cache_dir),
        );
        let batch = svc.submit_batch(circuits.clone(), &cfg).wait();
        println!(
            "first service:  {} jobs, {} cache hits, {} oracle calls",
            batch.results.len(),
            batch.cache_hits(),
            batch.oracle_calls_issued()
        );
        // The service (and its memory tier) dies here; the directory stays.
    }

    // "Process" two: a fresh service, a fresh (empty) memory tier — and a
    // warm disk tier that answers everything.
    let svc = OptimizationService::with_store(
        OracleRegistry::builtin(),
        ServiceConfig::default(),
        tiered(&cache_dir),
    );
    let batch = svc.submit_batch(circuits, &cfg).wait();
    println!(
        "second service: {} jobs, {} cache hits, {} oracle calls",
        batch.results.len(),
        batch.cache_hits(),
        batch.oracle_calls_issued()
    );
    assert_eq!(batch.cache_hits(), batch.results.len());
    assert_eq!(batch.oracle_calls_issued(), 0);

    // The per-tier breakdown: the disk tier took the hits, and each one
    // was promoted into the new memory front.
    for tier in &svc.stats().store.tiers {
        println!(
            "tier {:>6}: {} entries, {} hits, {} misses, {} bytes",
            tier.tier, tier.entries, tier.hits, tier.misses, tier.bytes
        );
    }

    let _ = std::fs::remove_dir_all(&cache_dir);
}
