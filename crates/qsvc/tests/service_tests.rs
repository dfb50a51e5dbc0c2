//! Service-level tests: batch results must be byte-identical to direct
//! engine calls, cache accounting must be exact, the warm-cache path
//! must issue zero oracle calls, and concurrent duplicate submissions
//! must coalesce onto one computation.

use benchgen::Family;
use popqc_core::{optimize_circuit, PopqcConfig};
use qcir::{Circuit, Gate};
use qoracle::{RuleBasedOptimizer, SegmentOracle};
use qsvc::{OptimizationService, OracleRegistry, ServiceConfig, ServiceError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

fn small_service(workers: usize) -> OptimizationService {
    OptimizationService::single(
        RuleBasedOptimizer::oracle(),
        ServiceConfig {
            workers,
            threads_per_job: 1,
            cache_capacity: 64,
            seg_cache_capacity: 0,
        },
    )
}

fn bench_circuits() -> Vec<Circuit> {
    Family::ALL
        .iter()
        .map(|f| f.generate(f.ladder(0)[0], 11))
        .collect()
}

#[test]
fn batch_results_match_direct_engine_calls_exactly() {
    let oracle = RuleBasedOptimizer::oracle();
    let cfg = PopqcConfig::with_omega(64);
    let circuits = bench_circuits();

    let svc = small_service(4);
    let batch = svc.submit_batch(circuits.clone(), &cfg).wait();

    assert_eq!(batch.results.len(), circuits.len());
    for (c, r) in circuits.iter().zip(&batch.results) {
        let (direct, direct_stats) = optimize_circuit(c, &oracle, &cfg);
        assert_eq!(
            r.circuit, direct,
            "service output differs from direct optimize_circuit"
        );
        assert_eq!(r.stats.oracle_calls, direct_stats.oracle_calls);
        assert_eq!(r.stats.final_units, direct_stats.final_units);
        assert!(!r.cache_hit, "first submission must be a miss");
    }
}

#[test]
fn warm_batch_is_all_hits_with_zero_new_oracle_calls() {
    let cfg = PopqcConfig::with_omega(64);
    let circuits = bench_circuits();
    let svc = small_service(4);

    let cold = svc.submit_batch(circuits.clone(), &cfg).wait();
    assert_eq!(cold.cache_hits(), 0);
    assert!(cold.oracle_calls_issued() > 0);
    let calls_after_cold = svc.stats().oracle_calls_issued;

    let warm = svc.submit_batch(circuits.clone(), &cfg).wait();
    assert_eq!(warm.cache_hits(), circuits.len(), "all jobs must hit");
    assert_eq!(warm.oracle_calls_issued(), 0, "warm batch must be free");
    assert_eq!(
        svc.stats().oracle_calls_issued,
        calls_after_cold,
        "service must not have issued any new oracle calls"
    );
    assert_eq!(svc.stats().cache_hits, circuits.len() as u64);

    // Hits return the identical optimized circuit.
    for (c, w) in cold.results.iter().zip(&warm.results) {
        assert_eq!(c.circuit, w.circuit);
        assert_eq!(c.key, w.key);
    }
}

#[test]
fn different_configs_and_oracles_do_not_share_cache_entries() {
    let circuits = bench_circuits();
    let c = circuits[0].clone();

    let svc = small_service(2);
    let a = svc.submit(c.clone(), &PopqcConfig::with_omega(32)).wait();
    let b = svc.submit(c.clone(), &PopqcConfig::with_omega(64)).wait();
    assert!(
        !a.cache_hit && !b.cache_hit,
        "distinct Ω must be distinct keys"
    );
    assert_ne!(a.key, b.key);

    // Same circuit through a differently-named oracle: fresh key space.
    let baseline_svc = OptimizationService::single(
        RuleBasedOptimizer::voqc_baseline(),
        ServiceConfig {
            workers: 1,
            threads_per_job: 1,
            ..ServiceConfig::default()
        },
    );
    let d = baseline_svc
        .submit(c.clone(), &PopqcConfig::with_omega(32))
        .wait();
    assert_ne!(
        a.key.oracle_id, d.key.oracle_id,
        "oracle configurations must carry distinct ids"
    );
}

#[test]
fn eviction_forces_recomputation() {
    let cfg = PopqcConfig::with_omega(32);
    // Capacity 1 (single shard): the second distinct circuit evicts the
    // first.
    let svc = OptimizationService::single(
        RuleBasedOptimizer::oracle(),
        ServiceConfig {
            workers: 1,
            threads_per_job: 1,
            cache_capacity: 1,
            seg_cache_capacity: 0,
        },
    );
    let a = Family::Vqe.generate(Family::Vqe.ladder(0)[0], 1);
    let b = Family::Grover.generate(Family::Grover.ladder(0)[0], 1);

    assert!(!svc.submit(a.clone(), &cfg).wait().cache_hit);
    assert!(svc.submit(a.clone(), &cfg).wait().cache_hit);
    assert!(!svc.submit(b.clone(), &cfg).wait().cache_hit); // evicts a
    assert!(
        !svc.submit(a.clone(), &cfg).wait().cache_hit,
        "evicted entry must recompute"
    );
    assert!(svc.stats().store.evictions >= 1);
}

#[test]
fn results_are_independent_of_worker_and_thread_budget() {
    let cfg = PopqcConfig::with_omega(48);
    let circuits = bench_circuits();

    let narrow = small_service(1);
    let wide = OptimizationService::single(
        RuleBasedOptimizer::oracle(),
        ServiceConfig {
            workers: 4,
            threads_per_job: 3,
            cache_capacity: 64,
            seg_cache_capacity: 0,
        },
    );
    let n = narrow.submit_batch(circuits.clone(), &cfg).wait();
    let w = wide.submit_batch(circuits, &cfg).wait();
    for (a, b) in n.results.iter().zip(&w.results) {
        assert_eq!(
            a.circuit, b.circuit,
            "engine determinism must survive the service"
        );
    }
}

#[test]
fn handles_report_progress_and_results_preserve_semantics() {
    let cfg = PopqcConfig::with_omega(32);
    let c = Family::Hhl.generate(Family::Hhl.ladder(0)[0], 3);
    let svc = small_service(2);

    let handle = svc.submit(c.clone(), &cfg);
    let result = handle.wait();
    assert_eq!(handle.rounds_completed(), result.stats.rounds);
    assert!(handle.try_result().is_some());
    assert!(result.circuit.len() < c.len(), "expected some reduction");
    assert!(
        qsim::circuits_equivalent(&c, &result.circuit, 2, 0x5eed),
        "service output changed circuit semantics"
    );
}

/// Wraps the rule-based oracle and blocks every call until released, so a
/// test can pin one computation in flight while duplicates are submitted.
/// Also counts calls, independently of the engine's own accounting.
struct GatedOracle {
    inner: RuleBasedOptimizer,
    released: Arc<(Mutex<bool>, Condvar)>,
    calls: AtomicU64,
    entered: AtomicBool,
}

impl GatedOracle {
    fn new() -> (GatedOracle, Arc<(Mutex<bool>, Condvar)>) {
        let released = Arc::new((Mutex::new(false), Condvar::new()));
        (
            GatedOracle {
                inner: RuleBasedOptimizer::oracle(),
                released: Arc::clone(&released),
                calls: AtomicU64::new(0),
                entered: AtomicBool::new(false),
            },
            released,
        )
    }
}

fn release(gate: &(Mutex<bool>, Condvar)) {
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
}

impl SegmentOracle<Gate> for GatedOracle {
    fn optimize(&self, units: &[Gate], num_qubits: u32) -> Vec<Gate> {
        self.entered.store(true, Ordering::SeqCst);
        self.calls.fetch_add(1, Ordering::SeqCst);
        let (lock, cv) = &*self.released;
        let mut ok = lock.lock().unwrap();
        while !*ok {
            ok = cv.wait(ok).unwrap();
        }
        drop(ok);
        self.inner.optimize(units, num_qubits)
    }

    fn cost(&self, units: &[Gate]) -> u64 {
        self.inner.cost(units)
    }

    fn name(&self) -> &'static str {
        "gated-rule"
    }
}

#[test]
fn concurrent_duplicates_coalesce_onto_one_computation() {
    const DUPLICATES: usize = 8;
    let cfg = PopqcConfig::with_omega(32);
    let circuit = Family::Vqe.generate(Family::Vqe.ladder(0)[0], 7);

    let (oracle, gate) = GatedOracle::new();
    // Plenty of workers: without coalescing the duplicates would all run.
    let svc = OptimizationService::single(
        oracle,
        ServiceConfig {
            workers: 4,
            threads_per_job: 1,
            cache_capacity: 64,
            seg_cache_capacity: 0,
        },
    );

    // First submission starts computing and blocks inside the oracle;
    // the duplicates are submitted while it is pinned in flight.
    let first = svc.submit(circuit.clone(), &cfg);
    let dups: Vec<_> = (0..DUPLICATES)
        .map(|_| svc.submit(circuit.clone(), &cfg))
        .collect();
    release(&gate);

    let lead = first.wait();
    assert!(!lead.cache_hit && !lead.coalesced);

    let mut coalesced = 0;
    for h in &dups {
        let r = h.wait();
        assert_eq!(r.circuit, lead.circuit, "waiters get the identical result");
        assert_eq!(r.key, lead.key);
        assert!(r.cache_hit, "duplicates must not recompute");
        assert_eq!(r.run_nanos, 0);
        assert_eq!(
            h.rounds_completed(),
            lead.stats.rounds,
            "waiters must end at the lead job's round count"
        );
        if r.coalesced {
            coalesced += 1;
        }
    }
    // Every duplicate submitted while the lead was in flight coalesces
    // (none could be a submit-time cache hit: the cache was empty until
    // the gate was released).
    assert_eq!(coalesced, DUPLICATES);

    let stats = svc.stats();
    assert_eq!(stats.submitted, (DUPLICATES + 1) as u64);
    assert_eq!(stats.completed, (DUPLICATES + 1) as u64);
    assert_eq!(stats.coalesced, DUPLICATES as u64);
    assert_eq!(stats.cache_hits, DUPLICATES as u64);
    assert_eq!(
        stats.oracle_calls_issued, lead.stats.oracle_calls,
        "exactly one computation's worth of oracle calls"
    );
}

/// Blocks like [`GatedOracle`], then panics on the first call after
/// release — simulating a buggy client-provided oracle crashing while
/// waiters are coalesced onto its job.
struct PanicOnceOracle {
    inner: RuleBasedOptimizer,
    released: Arc<(Mutex<bool>, Condvar)>,
    panicked: AtomicBool,
}

impl SegmentOracle<Gate> for PanicOnceOracle {
    fn optimize(&self, units: &[Gate], num_qubits: u32) -> Vec<Gate> {
        let (lock, cv) = &*self.released;
        let mut ok = lock.lock().unwrap();
        while !*ok {
            ok = cv.wait(ok).unwrap();
        }
        drop(ok);
        if !self.panicked.swap(true, Ordering::SeqCst) {
            panic!("injected oracle fault");
        }
        self.inner.optimize(units, num_qubits)
    }

    fn cost(&self, units: &[Gate]) -> u64 {
        self.inner.cost(units)
    }

    fn name(&self) -> &'static str {
        "panic-once"
    }
}

#[test]
fn oracle_panic_does_not_strand_coalesced_waiters() {
    const DUPLICATES: usize = 4;
    let cfg = PopqcConfig::with_omega(32);
    let circuit = Family::Vqe.generate(Family::Vqe.ladder(0)[0], 13);

    let released = Arc::new((Mutex::new(false), Condvar::new()));
    let oracle = PanicOnceOracle {
        inner: RuleBasedOptimizer::oracle(),
        released: Arc::clone(&released),
        panicked: AtomicBool::new(false),
    };
    // ONE worker: the panic is caught, so the same thread must survive to
    // run the re-enqueued waiters — with a dead worker the test would hang.
    let svc = OptimizationService::single(
        oracle,
        ServiceConfig {
            workers: 1,
            threads_per_job: 1,
            cache_capacity: 64,
            seg_cache_capacity: 0,
        },
    );

    // Lead job blocks inside the oracle; duplicates park as waiters.
    let lead = svc.submit(circuit.clone(), &cfg);
    let dups: Vec<_> = (0..DUPLICATES)
        .map(|_| svc.submit(circuit.clone(), &cfg))
        .collect();
    release(&released);

    // The lead handle is fulfilled with an error-shaped result: the input
    // circuit unchanged, the panic message, and nothing cached under it.
    let lead = lead.wait();
    let err = lead
        .error
        .as_ref()
        .expect("lead job must report the panic")
        .to_string();
    assert!(err.contains("injected oracle fault"), "error: {err}");
    assert!(!lead.cache_hit && !lead.coalesced);
    assert_eq!(lead.circuit, circuit, "failed job returns its input");

    // The waiters were re-enqueued as independent retries and succeed
    // (the oracle only panics once).
    let first = dups[0].wait();
    assert!(first.error.is_none());
    for h in &dups[1..] {
        assert_eq!(h.wait().circuit, first.circuit);
    }

    // The in-flight table is clean: a fresh submission of the same
    // circuit is a plain cache hit, not a stranded waiter.
    let again = svc.submit(circuit, &cfg).wait();
    assert!(again.cache_hit);

    let stats = svc.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, (DUPLICATES + 2) as u64);
}

#[test]
fn coalesced_batch_of_identical_circuits_computes_once() {
    // The end-to-end shape from the ROADMAP item: one batch holding N
    // copies of the same circuit computes once, regardless of timing
    // (each copy is either a waiter or, if the first finished early, a
    // plain cache hit — never a second computation).
    const COPIES: usize = 6;
    let cfg = PopqcConfig::with_omega(48);
    let circuit = Family::Grover.generate(Family::Grover.ladder(0)[0], 3);
    let svc = small_service(4);

    let batch = svc
        .submit_batch(std::iter::repeat_n(circuit, COPIES), &cfg)
        .wait();
    assert_eq!(batch.results.len(), COPIES);
    assert_eq!(batch.cache_hits(), COPIES - 1);
    let misses: Vec<_> = batch.results.iter().filter(|r| !r.cache_hit).collect();
    assert_eq!(misses.len(), 1, "exactly one job computes");
    assert_eq!(batch.oracle_calls_issued(), misses[0].stats.oracle_calls);
    for r in &batch.results {
        assert_eq!(r.circuit, misses[0].circuit);
    }
}

#[test]
fn batch_report_builds_the_versioned_dto() {
    let cfg = PopqcConfig::with_omega(32);
    let circuits = vec![
        Family::Vqe.generate(Family::Vqe.ladder(0)[0], 5),
        Family::Sqrt.generate(Family::Sqrt.ladder(0)[0], 5),
    ];
    let labels: Vec<String> = vec!["vqe".into(), "sqrt".into()];
    let svc = small_service(2);
    let batch = svc.submit_batch(circuits, &cfg).wait();

    let pass = qsvc::report::batch_report(&labels, &batch, 1, false);
    assert_eq!(pass.job_count, 2);
    assert_eq!(pass.cache_hits, 0);
    assert_eq!(pass.jobs[0].label.as_deref(), Some("vqe"));
    assert!(!pass.jobs[0].cache_hit);
    assert_eq!(pass.jobs[0].fingerprint.len(), 32);
    assert!(pass.jobs[0].qasm.is_none(), "CLI form omits qasm");

    let stats = svc.stats();
    let full =
        qsvc::report::service_report(vec![pass], &stats, svc.workers(), svc.threads_per_job());
    // The document must survive a serialize/parse round trip through the
    // versioned DTO layer.
    let text = serde_json::to_string_pretty(&full.to_json()).unwrap();
    let back = qapi::ServiceReport::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
    assert_eq!(back, full);
    assert_eq!(back.service.cache_hits, 0);
}

#[test]
fn one_service_keeps_mixed_oracle_traffic_in_distinct_cache_entries() {
    let cfg = PopqcConfig::with_omega(32);
    let circuit = Family::Vqe.generate(Family::Vqe.ladder(0)[0], 5);
    let svc = OptimizationService::new(
        OracleRegistry::builtin(),
        ServiceConfig {
            workers: 2,
            threads_per_job: 1,
            cache_capacity: 64,
            seg_cache_capacity: 0,
        },
    );

    // Same circuit per-request through two registered oracles: two
    // computations, two cache entries, and the keys differ only in the
    // oracle id.
    let rule = svc.submit(circuit.clone(), &cfg).wait();
    let single = svc
        .submit_as("rule_single_pass", circuit.clone(), &cfg)
        .expect("registered oracle")
        .wait();
    assert!(!rule.cache_hit && !single.cache_hit);
    assert_eq!(rule.key.oracle_id, "rule_based");
    assert_eq!(single.key.oracle_id, "rule_single_pass");
    assert_eq!(rule.key.fingerprint, single.key.fingerprint);
    assert_ne!(rule.key, single.key);

    // The key-probing API predicts exactly the keys the jobs ran under,
    // and resolves through the registry like submission does.
    assert_eq!(svc.key_for(&circuit, &cfg), rule.key);
    assert_eq!(
        svc.key_for_oracle("rule_single_pass", &circuit, &cfg)
            .expect("registered oracle"),
        single.key
    );
    assert!(matches!(
        svc.key_for_oracle("nope", &circuit, &cfg),
        Err(ServiceError::UnknownOracle { .. })
    ));

    // Each oracle's resubmission hits its own entry.
    assert!(svc.submit(circuit.clone(), &cfg).wait().cache_hit);
    assert!(
        svc.submit_as("rule_single_pass", circuit.clone(), &cfg)
            .unwrap()
            .wait()
            .cache_hit
    );

    // A mixed typed batch goes through the same shared cache.
    let batch = svc
        .submit_batch_requests(vec![
            qsvc::JobRequest::with_oracle(circuit.clone(), "rule_based", cfg.clone()),
            qsvc::JobRequest::with_oracle(circuit.clone(), "rule_single_pass", cfg.clone()),
        ])
        .expect("both oracles registered")
        .wait();
    assert_eq!(batch.cache_hits(), 2);
    assert_eq!(batch.oracle_calls_issued(), 0);
}

#[test]
fn unknown_and_duplicate_oracles_are_structured_errors() {
    let cfg = PopqcConfig::with_omega(32);
    let circuit = Family::Vqe.generate(Family::Vqe.ladder(0)[0], 5);
    let svc = OptimizationService::new(
        OracleRegistry::builtin(),
        ServiceConfig {
            workers: 1,
            threads_per_job: 1,
            ..ServiceConfig::default()
        },
    );

    // submit_as with an unregistered id refuses without enqueueing.
    let Err(err) = svc.submit_as("nope", circuit.clone(), &cfg) else {
        panic!("unknown oracle must refuse");
    };
    match &err {
        ServiceError::UnknownOracle {
            requested,
            available,
        } => {
            assert_eq!(requested, "nope");
            assert_eq!(available, &["rule_based", "rule_single_pass", "structural"]);
        }
        other => panic!("expected UnknownOracle, got {other:?}"),
    }
    // The canonical wire mapping: unknown_oracle -> 404.
    assert_eq!(err.to_api_error().http_status(), 404);
    assert_eq!(svc.stats().submitted, 0, "nothing was enqueued");

    // A mixed batch with one bad id refuses the WHOLE batch atomically.
    let Err(err) = svc.submit_batch_requests(vec![
        qsvc::JobRequest::new(circuit.clone(), cfg.clone()),
        qsvc::JobRequest::with_oracle(circuit, "missing", cfg.clone()),
    ]) else {
        panic!("batch with unknown oracle must refuse");
    };
    assert!(matches!(err, ServiceError::UnknownOracle { .. }));
    assert_eq!(svc.stats().submitted, 0, "atomic refusal");

    // Duplicate registration is a structured error too.
    let mut registry = OracleRegistry::builtin();
    let err = registry
        .register(
            "rule_based",
            "imposter",
            std::sync::Arc::new(RuleBasedOptimizer::oracle()),
        )
        .expect_err("duplicate id must refuse");
    assert!(matches!(err, ServiceError::DuplicateOracle(_)));
    assert_eq!(err.to_api_error().http_status(), 400);
}

/// Two input rotations whose exact sum has no canonical angle (coprime
/// denominators above `2^31.5`): the job succeeds and keeps both, where
/// the merge used to panic and fail it.
#[test]
fn rotations_with_no_canonical_sum_do_not_fail_the_job() {
    let c = qcir::qasm::parse(
        "qreg q[2];\nrz(pi/3037000507) q[0];\ncx q[0],q[1];\nrz(pi/3037000493) q[0];\nh q[1];\nh q[1];",
    )
    .unwrap();
    let svc = small_service(1);
    let r = svc.submit(c.clone(), &PopqcConfig::with_omega(4)).wait();
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.circuit.gates, c.gates[..3]);
    assert_eq!(svc.stats().failed, 0);
}
