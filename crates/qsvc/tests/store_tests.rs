//! Result-store tests: the pluggable-backend seam, disk-tier
//! crash-consistency (truncated / wrong-format / stale-oracle entries
//! must read as misses, never errors or wrong results), tiered
//! write-through + promote-on-hit, and the acceptance property — a
//! service restarted over the same cache directory answers a repeated
//! job from disk with **zero** new oracle calls.

use popqc_core::{PopqcConfig, PopqcStats};
use qcir::{Angle, Circuit, Gate};
use qoracle::{RuleBasedOptimizer, SegmentOracle};
use qsvc::{
    build_store, compose_store, CachedRun, DiskStore, JobKey, MemoryStore, OptimizationService,
    OracleRegistry, ResultStore, ServiceConfig, StoreTier, TieredStore,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// A fresh temp dir, removed on drop (including on panic).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "popqc-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sample_circuit() -> Circuit {
    let mut c = Circuit::new(3);
    c.h(0).h(0).cnot(0, 1).rz(2, Angle::PI_4).rz(2, Angle::PI_4);
    c
}

fn key_for(circuit: &Circuit, oracle_id: &str, omega: usize) -> JobKey {
    JobKey {
        fingerprint: circuit.fingerprint(),
        oracle_id: oracle_id.to_string(),
        config: PopqcConfig::with_omega(omega),
    }
}

fn run_for(circuit: &Circuit) -> Arc<CachedRun> {
    Arc::new(CachedRun {
        circuit: circuit.clone(),
        stats: PopqcStats {
            rounds: 3,
            oracle_calls: 17,
            accepted: 5,
            oracle_nanos: 1000,
            total_nanos: 2000,
            initial_units: 9,
            final_units: circuit.gates.len(),
            seg_cache_hits: 0,
            rounds_detail: Vec::new(),
        },
    })
}

/// The single `.entry` file in `dir` (panics unless exactly one exists).
fn sole_entry_file(dir: &Path) -> PathBuf {
    let entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "entry"))
        .collect();
    assert_eq!(entries.len(), 1, "expected exactly one entry: {entries:?}");
    entries.into_iter().next().unwrap()
}

fn quarantine_count(dir: &Path) -> usize {
    std::fs::read_dir(dir.join("quarantine"))
        .map(|d| d.flatten().count())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// MemoryStore / seam
// ---------------------------------------------------------------------------

#[test]
fn memory_store_round_trips_and_reports_one_tier() {
    let store = MemoryStore::new(8, 2);
    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 50);
    assert!(store.get(&key, "v1").is_none());
    store.put(&key, "v1", run_for(&circuit));
    let hit = store.get(&key, "v1").expect("second probe hits");
    assert_eq!(hit.circuit, circuit);
    assert_eq!(store.len(), 1);

    let stats = store.stats();
    assert_eq!(stats.backend, "memory");
    assert_eq!(stats.tiers.len(), 1);
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert!(stats.bytes > 0, "approximate bytes must be non-zero");

    assert!(store.remove(&key));
    assert!(store.get(&key, "v1").is_none());
    store.put(&key, "v1", run_for(&circuit));
    assert_eq!(store.clear(), 1);
    assert!(store.is_empty());
}

#[test]
fn zero_capacity_memory_store_is_a_null_store() {
    let store = MemoryStore::new(0, 0);
    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 50);
    store.put(&key, "v1", run_for(&circuit));
    assert!(store.get(&key, "v1").is_none());
    assert_eq!(store.len(), 0);
}

/// The null store is a zero-capacity memory store, sharded or not: it
/// reports itself as `null`, counts every lookup as a miss and holds nothing.
#[test]
fn null_store_never_hits() {
    for shards in [0, 2] {
        let store = MemoryStore::new(0, shards);
        let circuit = sample_circuit();
        let key = key_for(&circuit, "rule_based", 50);
        store.put(&key, "v1", run_for(&circuit));
        assert!(store.get(&key, "v1").is_none());
        let stats = store.stats();
        assert_eq!(
            (stats.backend.as_str(), stats.tiers[0].tier.as_str()),
            ("null", "null")
        );
        assert_eq!(stats.misses, 1);
        assert_eq!((stats.hits, stats.entries, stats.bytes), (0, 0, 0));
        assert_eq!(store.clear(), 0);
    }
}

/// The composition rule, one row per flag combination: a memory front of
/// `capacity` entries (none at 0) over a disk back (`dir`), a remote back
/// (`addr`) or nothing; both backs is the one refusal.
#[test]
fn compose_store_follows_the_front_over_back_rule() {
    let tmp = TempDir::new("compose");
    // A resolvable address with no server behind it: the remote tier
    // degrades to misses, which is all this table needs.
    let addr = "127.0.0.1:1";
    let dir = Some(tmp.path());
    let table = [
        (0, None, None, "null [null]"),
        (8, None, None, "memory [memory]"),
        (0, dir, None, "disk [disk]"),
        (8, dir, None, "tiered [memory, disk]"),
        (0, None, Some(addr), "remote [remote]"),
        (8, None, Some(addr), "tiered [memory, remote]"),
        (0, dir, Some(addr), "refused"),
        (8, dir, Some(addr), "refused"),
    ];
    for (capacity, dir, addr, expected) in table {
        let built = match compose_store(dir, addr, capacity, 2) {
            Ok(store) => {
                let stats = store.stats();
                let tiers: Vec<&str> = stats.tiers.iter().map(|t| t.tier.as_str()).collect();
                format!("{} [{}]", stats.backend, tiers.join(", "))
            }
            Err(err) => {
                assert!(err.contains("exactly one back tier"), "{err}");
                "refused".to_string()
            }
        };
        assert_eq!(
            built, expected,
            "capacity {capacity}, dir {dir:?}, addr {addr:?}"
        );
    }
}

#[test]
fn build_store_rejects_missing_and_doubled_back_tiers() {
    for tier in [StoreTier::Disk, StoreTier::Tiered] {
        let Err(err) = build_store(tier, None, None, 8, 2) else {
            panic!("{tier:?}: building without a dir must fail");
        };
        assert!(err.contains("requires --cache-dir"), "got: {err}");
    }

    // The remote tier needs a server address...
    let Err(err) = build_store(StoreTier::Remote, None, None, 8, 2) else {
        panic!("remote without an addr must fail");
    };
    assert!(err.contains("requires --cache-addr"), "got: {err}");

    // ...and tiered takes exactly one back tier, not both.
    let tmp = TempDir::new("both-backs");
    let Err(err) = build_store(
        StoreTier::Tiered,
        Some(tmp.path()),
        Some("127.0.0.1:1"),
        8,
        2,
    ) else {
        panic!("tiered over both disk and remote must fail");
    };
    assert!(err.contains("exactly one back tier"), "got: {err}");
}

// ---------------------------------------------------------------------------
// DiskStore
// ---------------------------------------------------------------------------

#[test]
fn disk_store_round_trips_across_instances() {
    let tmp = TempDir::new("roundtrip");
    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 50);
    {
        let store = DiskStore::open(tmp.path()).unwrap();
        store.put(&key, "v1", run_for(&circuit));
        assert_eq!(store.len(), 1);
    }
    // A *fresh* instance (a new process, as far as the layout knows).
    let store = DiskStore::open(tmp.path()).unwrap();
    let hit = store.get(&key, "v1").expect("persisted entry hits");
    assert_eq!(hit.circuit, circuit);
    assert_eq!(hit.stats.oracle_calls, 17);
    assert_eq!(hit.stats.final_units, circuit.gates.len());

    // A different omega is a different key: plain miss, entry untouched.
    assert!(store
        .get(&key_for(&circuit, "rule_based", 51), "v1")
        .is_none());
    assert_eq!(store.len(), 1);
}

/// A merged rotation is an exact sum and can carry a denominator above the
/// `2^20` a decimal angle snaps to: `π/3 + π/2^20` is `1048579·π/3145728`.
/// Reading the stored QASM back must give that angle, not a neighbour.
#[test]
fn entry_round_trip_keeps_large_denominators() {
    let mut input = Circuit::new(1);
    input
        .rz(0, Angle::pi_frac(1, 3))
        .rz(0, Angle::pi_frac(1, 1 << 20));
    let mut merged = Circuit::new(1);
    merged.rz(0, Angle::pi_frac(1, 3) + Angle::pi_frac(1, 1 << 20));
    assert_eq!(
        merged.gates[0],
        Gate::Rz(0, Angle::pi_frac(1048579, 3145728))
    );

    let key = key_for(&input, "rule_based", 50);
    let run = run_for(&merged);
    let text = qsvc::store::encode_entry(&key, "v1", &run);
    let back = qsvc::store::decode_entry(&key, "v1", &text).expect("entry decodes");
    assert_eq!(back.circuit, run.circuit);
    assert_eq!(format!("{:?}", back.stats), format!("{:?}", run.stats));

    let tmp = TempDir::new("large-denominators");
    DiskStore::open(tmp.path())
        .unwrap()
        .put(&key, "v1", run.clone());
    let hit = DiskStore::open(tmp.path())
        .unwrap()
        .get(&key, "v1")
        .expect("persisted entry hits");
    assert_eq!(hit.circuit, merged);
}

#[test]
fn disk_store_truncated_entry_is_a_quarantined_miss() {
    let tmp = TempDir::new("truncated");
    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 50);
    let store = DiskStore::open(tmp.path()).unwrap();
    store.put(&key, "v1", run_for(&circuit));

    // Simulate a crash mid-write-by-an-older-layout / torn file: chop the
    // entry body in half.
    let path = sole_entry_file(tmp.path());
    let full = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();

    assert!(store.get(&key, "v1").is_none(), "truncated must miss");
    assert!(!path.exists(), "corrupt file must be moved aside");
    assert_eq!(quarantine_count(tmp.path()), 1);
    assert_eq!(store.quarantined(), 1);
    // The miss self-healed: the next put-get cycle works again.
    store.put(&key, "v1", run_for(&circuit));
    assert!(store.get(&key, "v1").is_some());
}

#[test]
fn disk_store_wrong_format_version_is_an_invalidated_miss() {
    let tmp = TempDir::new("format");
    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 50);
    let store = DiskStore::open(tmp.path()).unwrap();
    store.put(&key, "v1", run_for(&circuit));

    let path = sole_entry_file(tmp.path());
    let body = std::fs::read_to_string(&path).unwrap();
    std::fs::write(
        &path,
        body.replace("\"store_format\":1", "\"store_format\":999"),
    )
    .unwrap();

    assert!(store.get(&key, "v1").is_none(), "foreign format must miss");
    assert!(!path.exists(), "stale entry must be removed");
    assert_eq!(store.invalidated(), 1);
    assert_eq!(
        quarantine_count(tmp.path()),
        0,
        "stale is removed, not quarantined"
    );
}

#[test]
fn disk_store_mismatched_oracle_version_is_an_invalidated_miss() {
    let tmp = TempDir::new("oracleversion");
    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 50);
    let store = DiskStore::open(tmp.path()).unwrap();
    store.put(&key, "0.2.0+rule", run_for(&circuit));

    // Same key, newer oracle code: the entry must be retired, not trusted.
    assert!(store.get(&key, "0.3.0+rule").is_none());
    assert_eq!(store.invalidated(), 1);
    assert_eq!(store.len(), 0, "stale entry removed from disk");

    // Re-written under the new version, it serves again.
    store.put(&key, "0.3.0+rule", run_for(&circuit));
    assert!(store.get(&key, "0.3.0+rule").is_some());
}

#[test]
fn disk_store_garbage_file_is_a_quarantined_miss() {
    let tmp = TempDir::new("garbage");
    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 50);
    let store = DiskStore::open(tmp.path()).unwrap();
    store.put(&key, "v1", run_for(&circuit));
    let path = sole_entry_file(tmp.path());

    // Unparseable or version-less bodies are corrupt (quarantined); a
    // parseable v1 body missing its key fields is foreign/stale (removed).
    for garbage in ["not json at all", "{}", "{\"store_format\":1}"] {
        std::fs::write(&path, garbage).unwrap();
        assert!(store.get(&key, "v1").is_none(), "`{garbage}` must miss");
        assert!(!path.exists(), "`{garbage}` must not stay in place");
        // Restore a valid entry for the next iteration.
        store.put(&key, "v1", run_for(&circuit));
    }
    assert_eq!(store.quarantined(), 2);
    assert_eq!(store.invalidated(), 1);
    assert_eq!(quarantine_count(tmp.path()), 2);
}

#[test]
fn disk_store_rejects_unit_count_mismatch() {
    let tmp = TempDir::new("unitcount");
    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 50);
    let store = DiskStore::open(tmp.path()).unwrap();
    store.put(&key, "v1", run_for(&circuit));

    // A body whose stats disagree with its own circuit is corrupt.
    let path = sole_entry_file(tmp.path());
    let body = std::fs::read_to_string(&path).unwrap();
    let final_units = format!("\"final_units\":{}", circuit.gates.len());
    assert!(body.contains(&final_units), "exemplar body changed shape");
    std::fs::write(&path, body.replace(&final_units, "\"final_units\":1")).unwrap();
    assert!(store.get(&key, "v1").is_none());
    assert_eq!(quarantine_count(tmp.path()), 1);
}

#[test]
fn disk_store_clear_removes_entries_but_not_quarantine() {
    let tmp = TempDir::new("clear");
    let store = DiskStore::open(tmp.path()).unwrap();
    let mut circuits = Vec::new();
    for q in 0..4u32 {
        let mut c = Circuit::new(4);
        c.h(q).x(q);
        circuits.push(c);
    }
    for c in &circuits {
        store.put(&key_for(c, "rule_based", 50), "v1", run_for(c));
    }
    assert_eq!(store.len(), 4);
    assert!(store.stats().bytes > 0);
    assert_eq!(store.clear(), 4);
    assert_eq!(store.len(), 0);
    for c in &circuits {
        assert!(store.get(&key_for(c, "rule_based", 50), "v1").is_none());
    }
}

/// Regression test: `clear()` used to sweep the directory and then
/// resync the entry/byte gauges from a second scan, without excluding
/// concurrent `put`s — a put landing between the sweep and the resync
/// was double-counted or lost, leaving `len()` permanently out of step
/// with the directory. `clear` now takes the admin gate as a writer for
/// the whole sweep+resync window, so after any interleaving the gauges
/// must match what a fresh scan of the directory reports.
#[test]
fn disk_store_clear_concurrent_with_put_keeps_gauges_consistent() {
    let tmp = TempDir::new("clear-race");
    let store = Arc::new(DiskStore::open(tmp.path()).unwrap());

    let writers: Vec<_> = (0..4)
        .map(|w| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let circuit = sample_circuit();
                for i in 0..50 {
                    // Distinct omega per put → distinct JobKey → distinct file.
                    let key = key_for(&circuit, "rule_based", 1 + w * 50 + i);
                    store.put(&key, "v1", run_for(&circuit));
                }
            })
        })
        .collect();
    let clearer = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for _ in 0..20 {
                store.clear();
                std::thread::yield_now();
            }
        })
    };
    for t in writers {
        t.join().unwrap();
    }
    clearer.join().unwrap();

    // A fresh instance rescans the directory from scratch: its counts
    // are ground truth for what the raced instance's gauges must say.
    let rescan = DiskStore::open(tmp.path()).unwrap();
    assert_eq!(
        store.len(),
        rescan.len(),
        "entry gauge diverged from the directory after clear raced puts"
    );
    assert_eq!(
        store.stats().bytes,
        rescan.stats().bytes,
        "byte gauge diverged from the directory after clear raced puts"
    );
}

// ---------------------------------------------------------------------------
// TieredStore
// ---------------------------------------------------------------------------

#[test]
fn tiered_store_writes_through_and_promotes_on_hit() {
    let tmp = TempDir::new("tiered");
    let front = Arc::new(MemoryStore::new(8, 2));
    let back = Arc::new(DiskStore::open(tmp.path()).unwrap());
    let store = TieredStore::new(Arc::clone(&front) as _, Arc::clone(&back) as _);
    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 50);

    // Write-through: a put lands in both tiers.
    store.put(&key, "v1", run_for(&circuit));
    assert!(front.get(&key, "v1").is_some(), "front holds the entry");
    assert!(back.get(&key, "v1").is_some(), "back holds the entry");

    // Promote-on-hit: drop the front copy; a tiered get must answer from
    // the back AND refill the front.
    assert!(front.remove(&key));
    assert!(store.get(&key, "v1").is_some());
    assert!(
        front.get(&key, "v1").is_some(),
        "back-tier hit must promote into the front"
    );

    // Per-tier stats: two tiers, front first, under the `tiered` backend.
    let stats = store.stats();
    assert_eq!(stats.backend, "tiered");
    assert_eq!(stats.tiers.len(), 2);
    assert_eq!(stats.tiers[0].tier, "memory");
    assert_eq!(stats.tiers[1].tier, "disk");

    // Clear drops both tiers.
    assert_eq!(store.clear(), 1);
    assert!(store.get(&key, "v1").is_none());
    assert!(front.get(&key, "v1").is_none());
}

// ---------------------------------------------------------------------------
// Service over the seam: the acceptance property
// ---------------------------------------------------------------------------

/// An oracle that counts its calls across service restarts (shared
/// counter) while delegating to the real rule pipeline.
struct CountingOracle {
    inner: RuleBasedOptimizer,
    calls: Arc<AtomicU64>,
}

impl SegmentOracle<Gate> for CountingOracle {
    fn optimize(&self, units: &[Gate], num_qubits: u32) -> Vec<Gate> {
        self.calls.fetch_add(1, Relaxed);
        self.inner.optimize(units, num_qubits)
    }

    fn cost(&self, units: &[Gate]) -> u64 {
        self.inner.cost(units)
    }

    fn name(&self) -> &'static str {
        "counting"
    }

    fn version(&self) -> String {
        "counting-v1".to_string()
    }
}

fn counting_service(calls: &Arc<AtomicU64>, store: Arc<dyn ResultStore>) -> OptimizationService {
    OptimizationService::with_store(
        OracleRegistry::single(CountingOracle {
            inner: RuleBasedOptimizer::oracle(),
            calls: Arc::clone(calls),
        }),
        ServiceConfig {
            workers: 1,
            threads_per_job: 1,
            cache_capacity: 16,
            seg_cache_capacity: 0,
        },
        store,
    )
}

#[test]
fn warm_restart_over_disk_store_issues_zero_oracle_calls() {
    let tmp = TempDir::new("restart");
    let calls = Arc::new(AtomicU64::new(0));
    let circuit = sample_circuit();
    let cfg = PopqcConfig::with_omega(16);

    // Process one: cold, computes, persists.
    let first = {
        let store = build_store(StoreTier::Tiered, Some(tmp.path()), None, 16, 2).unwrap();
        let svc = counting_service(&calls, store);
        let r = svc.submit(circuit.clone(), &cfg).wait();
        assert!(!r.cache_hit);
        r
        // svc dropped here = the process "dies"; only the disk survives.
    };
    let calls_cold = calls.load(Relaxed);
    assert!(calls_cold > 0, "cold run must call the oracle");

    // Process two: a fresh service over the same directory. The identical
    // job must be answered from the disk tier — cache_hit, identical
    // circuit, and not one new oracle call.
    for tier in [StoreTier::Tiered, StoreTier::Disk] {
        let store = build_store(tier, Some(tmp.path()), None, 16, 2).unwrap();
        let svc = counting_service(&calls, store);
        let warm = svc.submit(circuit.clone(), &cfg).wait();
        assert!(warm.cache_hit, "{tier:?}: restart must hit the disk tier");
        assert_eq!(warm.circuit, first.circuit);
        assert_eq!(
            calls.load(Relaxed),
            calls_cold,
            "{tier:?}: warm restart must issue zero oracle calls"
        );
        assert_eq!(svc.stats().oracle_calls_issued, 0);
        assert_eq!(svc.stats().cache_hits, 1);
    }
}

#[test]
fn oracle_version_bump_invalidates_the_disk_tier() {
    let tmp = TempDir::new("bump");
    let circuit = sample_circuit();
    let cfg = PopqcConfig::with_omega(16);
    let calls = Arc::new(AtomicU64::new(0));

    struct V2(CountingOracle);
    impl SegmentOracle<Gate> for V2 {
        fn optimize(&self, units: &[Gate], num_qubits: u32) -> Vec<Gate> {
            self.0.optimize(units, num_qubits)
        }
        fn cost(&self, units: &[Gate]) -> u64 {
            self.0.cost(units)
        }
        fn name(&self) -> &'static str {
            "counting"
        }
        fn version(&self) -> String {
            "counting-v2".to_string()
        }
    }

    {
        let store = build_store(StoreTier::Disk, Some(tmp.path()), None, 16, 2).unwrap();
        let svc = counting_service(&calls, store);
        assert!(!svc.submit(circuit.clone(), &cfg).wait().cache_hit);
    }
    let calls_v1 = calls.load(Relaxed);

    // Same registry id (`counting`), same key — but the oracle code
    // changed. The persisted entry must be recomputed, not trusted.
    let store = build_store(StoreTier::Disk, Some(tmp.path()), None, 16, 2).unwrap();
    let svc = OptimizationService::with_store(
        OracleRegistry::single(V2(CountingOracle {
            inner: RuleBasedOptimizer::oracle(),
            calls: Arc::clone(&calls),
        })),
        ServiceConfig {
            workers: 1,
            threads_per_job: 1,
            cache_capacity: 16,
            seg_cache_capacity: 0,
        },
        store,
    );
    let r = svc.submit(circuit, &cfg).wait();
    assert!(!r.cache_hit, "a version bump must invalidate the entry");
    assert!(calls.load(Relaxed) > calls_v1, "must recompute");
}

#[test]
fn service_stats_carry_the_per_tier_breakdown() {
    let tmp = TempDir::new("stats");
    let calls = Arc::new(AtomicU64::new(0));
    let store = build_store(StoreTier::Tiered, Some(tmp.path()), None, 16, 2).unwrap();
    let svc = counting_service(&calls, store);
    let cfg = PopqcConfig::with_omega(16);
    let circuit = sample_circuit();

    svc.submit(circuit.clone(), &cfg).wait();
    svc.submit(circuit, &cfg).wait();

    let store = svc.stats().store;
    assert_eq!(store.backend, "tiered");
    let names: Vec<&str> = store.tiers.iter().map(|t| t.tier.as_str()).collect();
    assert_eq!(names, ["memory", "disk"]);
    // The aggregates follow the per-tier counters: the second submission
    // hit the memory front, and both tiers hold the one entry.
    let [front, back] = &store.tiers[..] else {
        unreachable!()
    };
    assert_eq!((front.hits, back.hits), (1, 0));
    assert_eq!(store.hits, front.hits + back.hits);
    assert_eq!(store.hits, 1);
    assert_eq!((store.entries, back.entries, front.entries), (1, 1, 1));
    assert_eq!(store.misses, back.misses);
    assert_eq!(store.evictions, front.evictions + back.evictions);
    assert_eq!(store.bytes, front.bytes + back.bytes);

    // clear_cache empties every tier and reports the distinct count.
    assert_eq!(svc.clear_cache(), 1);
    assert_eq!(svc.store().len(), 0);
}
