//! The segment cache's end-to-end acceptance test (ISSUE 8): resubmitting
//! a structurally identical `Parameterized` ansatz with fresh angles must
//! be served almost entirely from the angle-abstract segment cache —
//! near-zero marginal oracle calls, ≥90% segment hit rate — while
//! producing byte-identical output to a cache-disabled service and
//! remaining semantically equivalent to the input.
//!
//! A second test runs the `serve-cold` shape — distinct circuits, each
//! optimized once — under every built-in oracle and checks that the cache
//! only ever stands in for oracle calls: same bytes out, and per job every
//! hit replaces exactly one call of the cache-off run. Only the
//! angle-independent `structural` oracle is cached at all; every other
//! oracle leaves the cache's counters and entries at zero.
//!
//! A third test checks the same on the `popqc` binary: `serve` with the
//! segment cache on (the CLI default) against `optimize
//! --seg-cache-capacity 0 --verify`.

mod support;

use popqc::prelude::*;
use support::{at, popqc, run_ok, Cleanup, Server};

const QUBITS: u32 = 12;
const SWEEP_SEEDS: std::ops::Range<u64> = 1..6;

fn service(seg_cache_capacity: usize) -> OptimizationService {
    OptimizationService::new(
        OracleRegistry::builtin(),
        ServiceConfig {
            workers: 2,
            threads_per_job: 1,
            seg_cache_capacity,
            ..ServiceConfig::default()
        },
    )
}

fn optimize(
    svc: &OptimizationService,
    seed: u64,
    cfg: &PopqcConfig,
) -> std::sync::Arc<popqc::service::JobResult> {
    let circuit = Family::Parameterized.generate(QUBITS, seed);
    let result = svc
        .submit_as("structural", circuit, cfg)
        .expect("structural oracle is registered")
        .wait();
    assert!(result.error.is_none(), "job failed: {:?}", result.error);
    result
}

#[test]
fn parameter_sweep_is_served_from_the_segment_cache() {
    let cfg = PopqcConfig::with_omega(40);
    let cached = service(4096);
    let cold = service(0);

    // Warm pass (seed 0) populates the segment cache; its own oracle
    // calls are the cold-path cost every later sweep iteration avoids.
    let warm = optimize(&cached, 0, &cfg);
    let cold_calls = warm.stats.oracle_calls;
    assert!(cold_calls > 0, "warm pass must have exercised the oracle");
    let after_warm = cached.stats();

    for seed in SWEEP_SEEDS {
        let input = Family::Parameterized.generate(QUBITS, seed);
        let swept = optimize(&cached, seed, &cfg);

        // Fresh angles → a distinct result-store key: the engine really
        // ran, it just answered segment lookups from the cache.
        assert!(!swept.cache_hit, "seed {seed} must miss the result store");

        // Byte-level equality against the cold path: a seg-cache-disabled
        // service over the same oracle must produce the identical circuit.
        let baseline = optimize(&cold, seed, &cfg);
        assert_eq!(
            swept.circuit, baseline.circuit,
            "seed {seed}: cached path diverged from the cold path"
        );

        // And the output still computes the same unitary as the input.
        assert!(
            popqc::sim::circuits_equivalent(&input, &swept.circuit, 2, 0xC1C1 + seed),
            "seed {seed}: output not equivalent to input"
        );
    }

    // The sweep's marginal oracle work must be near zero: each swept
    // instance alone would have cost `cold_calls` oracle calls.
    let after_sweep = cached.stats();
    let sweep_len = SWEEP_SEEDS.end - SWEEP_SEEDS.start;
    let marginal = after_sweep.oracle_calls_issued - after_warm.oracle_calls_issued;
    let avoided = cold_calls * sweep_len;
    assert!(
        marginal * 20 <= avoided,
        "sweep issued {marginal} oracle calls; the cold path would have \
         issued {avoided} — the segment cache absorbed too little"
    );

    // ≥90% segment-cache hit rate across the sweep's lookups.
    let hits = after_sweep.seg_cache.hits - after_warm.seg_cache.hits;
    let misses = after_sweep.seg_cache.misses - after_warm.seg_cache.misses;
    assert!(
        hits * 10 >= (hits + misses) * 9,
        "sweep hit rate below 90%: {hits} hits / {misses} misses"
    );

    // The disabled service never touched a segment cache.
    let cold_stats = cold.stats();
    assert!(!cold_stats.seg_cache.enabled);
    assert_eq!(cold_stats.seg_cache.hits + cold_stats.seg_cache.misses, 0);
}

#[test]
fn distinct_circuits_get_the_cache_off_outputs_and_call_counts() {
    let mut circuits = vec![
        Family::Sqrt.generate(11, 3),
        Family::Hhl.generate(5, 3),
        Family::BoolSat.generate(8, 3),
        Family::Bwt.generate(6, 3),
        Family::Bwt.generate(6, 4),
    ];
    // A resubmission with one gate appended shares every segment but the
    // last with its original, across jobs.
    let mut appended = circuits[0].clone();
    appended.h(0);
    circuits.push(appended);

    let registry = OracleRegistry::builtin();
    for id in registry.ids() {
        let cfg = PopqcConfig::with_omega(200);
        let run = |svc: &OptimizationService| -> Vec<_> {
            circuits
                .iter()
                .map(|c| {
                    let result = svc
                        .submit_as(id, c.clone(), &cfg)
                        .expect("builtin oracle is registered")
                        .wait();
                    assert!(
                        result.error.is_none(),
                        "{id}: job failed: {:?}",
                        result.error
                    );
                    assert!(!result.cache_hit, "the corpus holds no duplicates");
                    result
                })
                .collect()
        };
        let cached_svc = service(4096);
        let cached = run(&cached_svc);
        let cold = run(&service(0));

        for (i, (hot, cold)) in cached.iter().zip(&cold).enumerate() {
            assert_eq!(
                popqc::ir::qasm::to_qasm(&hot.circuit),
                popqc::ir::qasm::to_qasm(&cold.circuit),
                "{id} job {i}: the segment cache changed the output"
            );
            assert_eq!(cold.stats.seg_cache_hits, 0);
            assert_eq!(
                hot.stats.oracle_calls + hot.stats.seg_cache_hits,
                cold.stats.oracle_calls,
                "{id} job {i}: every segment evaluation is one call or one hit"
            );
        }
        let hits: u64 = cached.iter().map(|r| r.stats.seg_cache_hits).sum();
        let appended_hits = cached.last().expect("non-empty").stats.seg_cache_hits;
        let layer = cached_svc.stats().seg_cache;
        assert!(layer.enabled);
        if id == "structural" {
            assert!(hits > 0, "no segment was ever served from the cache");
            assert!(
                appended_hits > 0,
                "the appended resubmission found none of its original's segments"
            );
        } else {
            // Abstract keys are sound only for angle-independent oracles:
            // no other oracle is ever looked up or stored.
            assert_eq!(hits, 0, "{id}: served from the segment cache");
            assert_eq!(
                (layer.hits, layer.misses, layer.entries),
                (0, 0, 0),
                "{id}: the segment cache moved"
            );
        }
    }
}

/// The release binary's sweep: `popqc serve` with the segment cache on
/// (the CLI default) and the `structural` oracle answers a fresh-angle
/// resubmission of a `Parameterized` ansatz with near-zero marginal oracle
/// calls at a ≥ 90 % segment hit rate, and both circuits equal a
/// seg-cache-disabled `popqc optimize --verify` run byte for byte. A
/// `rule_based` pass on bwt, sqrt, hhl and boolsat circuits is compared
/// the same way and must leave the segment cache alone: only
/// angle-independent oracles are cached.
#[test]
fn served_sweep_hits_the_segment_cache_and_matches_the_cold_cli() {
    let tmp = Cleanup::new("segcache", &[]);
    let gen = |family: &str, qubits: u32, seed: u64| {
        let out = format!("{family}-{seed}.qasm");
        run_ok(tmp.popqc(&format!(
            "gen --family {family} --qubits {qubits} --seed {seed} --out {out}"
        )));
        tmp.read(&out)
    };
    // The CLI's cold path over `names`, seg cache off and every output
    // equivalence-checked in the simulator; returns the circuits.
    let cold = |oracle: &str, names: &[&str]| -> Vec<String> {
        run_ok(tmp.popqc(&format!(
            "optimize {}.qasm --oracle {oracle} --omega 40 --seg-cache-capacity 0 --verify \
             --quiet --out {oracle}-cold",
            names.join(".qasm ")
        )));
        names
            .iter()
            .map(|n| tmp.read(&format!("{oracle}-cold/{n}.qasm")))
            .collect()
    };

    let sweep = [gen("parameterized", 12, 1), gen("parameterized", 12, 2)];
    let server = Server::spawn(popqc("serve --workers 2 --omega 40 --oracle structural"));
    server.ok("GET", "/healthz", "");

    // Seed 1 pays the oracle and fills the segment cache; seed 2 is the
    // same skeleton under an angle substitution.
    let warm = server.optimize("?oracle=structural", &sweep[0]);
    let s1 = server.get_json("/v1/stats");
    server.scrape();
    let swept = server.optimize("?oracle=structural", &sweep[1]);
    let s2 = server.get_json("/v1/stats");
    let scrape = server.scrape();

    // Fresh angles: a genuine engine run, not a result-store hit.
    assert_eq!(at(&swept, "cache_hit").as_bool(), Some(false));
    let count = |doc: &support::Value, path: &str| at(doc, path).as_u64().unwrap();
    let cold_calls = count(&s1, "oracle_calls_issued");
    let marginal = count(&s2, "oracle_calls_issued") - cold_calls;
    assert!(cold_calls > 0, "the warm POST called no oracle");
    assert!(
        marginal * 20 <= cold_calls,
        "the sweep issued {marginal} oracle calls against {cold_calls} cold"
    );
    assert_eq!(at(&s2, "segment_cache.enabled").as_bool(), Some(true));
    let hits = count(&s2, "segment_cache.hits") - count(&s1, "segment_cache.hits");
    let misses = count(&s2, "segment_cache.misses") - count(&s1, "segment_cache.misses");
    assert!(
        hits * 10 >= (hits + misses) * 9,
        "sweep hit rate below 90%: {hits} hits / {misses} misses"
    );
    for series in [
        "popqc_segcache_hits_total",
        "popqc_segcache_misses_total",
        "popqc_segcache_evictions_total",
        "popqc_segcache_lookup_duration_seconds_bucket",
    ] {
        assert!(
            scrape.lines().any(|l| l.starts_with(series)),
            "scrape misses {series}:\n{scrape}"
        );
    }
    let served = [warm, swept].map(|r| at(&r, "qasm").as_str().unwrap().to_string());
    assert_eq!(
        served.to_vec(),
        cold("structural", &["parameterized-1", "parameterized-2"]),
        "the cached path diverged from the cold path"
    );

    // rule_based is not angle-independent, so its jobs run with no cache
    // hook. A bwt circuit, the same circuit with one gate appended (a new
    // result-store key whose segments mostly repeat), then sqrt, hhl and
    // boolsat circuits (distinct circuits, the serve-cold shape).
    let bwt = gen("bwt", 8, 1);
    tmp.write("bwt-2.qasm", &format!("{bwt}h q[0];\n"));
    let mut circuits = vec![bwt, tmp.read("bwt-2.qasm")];
    circuits.extend([("sqrt", 12), ("hhl", 6), ("boolsat", 8)].map(|(f, q)| gen(f, q, 1)));
    let names = ["bwt-1", "bwt-2", "sqrt-1", "hhl-1", "boolsat-1"];
    let before = server.get_json("/v1/stats");
    let served: Vec<String> = circuits
        .iter()
        .map(|qasm| {
            let result = server.optimize("?oracle=rule_based", qasm);
            assert_eq!(at(&result, "cache_hit").as_bool(), Some(false));
            at(&result, "qasm").as_str().unwrap().to_string()
        })
        .collect();
    let after = server.get_json("/v1/stats");
    assert_eq!(
        served,
        cold("rule_based", &names),
        "the cached rule_based path diverged from the cold path"
    );
    for field in ["hits", "misses", "entries"] {
        let path = format!("segment_cache.{field}");
        assert_eq!(
            count(&after, &path),
            count(&before, &path),
            "rule_based moved the segment cache's {field}"
        );
    }
}
