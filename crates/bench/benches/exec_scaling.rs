//! Figure 3-style executor scaling on a skewed workload: the round
//! `parmap` proxy (one oracle call per 2Ω-segment) under the two
//! schedulers, side by side, across worker counts.
//!
//! * **naive** — the pre-qexec splitter, reproduced verbatim: one
//!   contiguous chunk per thread, fresh `std::thread::scope` threads per
//!   call. A chunk that draws the Skewed family's hot blocks serializes
//!   the whole call behind it.
//! * **stealing** — the same items through `qexec::par_map_range` at
//!   minimum chunk 1, as the engine calls it: about eight chunks per
//!   worker, claimed one at a time from a shared cursor by the caller and
//!   the persistent pool's helpers.
//!
//! A second group sweeps full `optimize_circuit` runs across widths on
//! the same family — the end-to-end Figure 3 curve of this reproduction.
//!
//! Setting `POPQC_EXEC_REPORT=<path>` additionally writes a JSON artifact
//! with per-width timings for both schedulers, the speedup table, whether
//! stealing beat naive chunking at the maximum worker count, and the
//! executor's `ExecStats` counters (`cargo bench --bench exec_scaling --
//! --test` for the CI smoke run).

use benchgen::Family;
use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use popqc_core::PopqcConfig;
use qcir::Gate;
use qoracle::{RuleBasedOptimizer, SegmentOracle};
use std::time::Instant;

/// Segment length of the parmap proxy (2Ω at Ω = 50 — smaller than the
/// engine default so the fixed-size instance yields enough items to
/// schedule).
const SEGMENT: usize = 100;

/// Number of qubits for the skewed instance.
const QUBITS: u32 = 22;

/// The skewed circuit cut into consecutive 2Ω-segments — the work items
/// of one engine round, with Zipf-distributed per-item oracle cost.
fn segments() -> Vec<Vec<Gate>> {
    let circuit = Family::Skewed.generate(QUBITS, 42);
    circuit
        .gates
        .chunks(SEGMENT)
        .map(<[Gate]>::to_vec)
        .collect()
}

fn oracle() -> RuleBasedOptimizer {
    RuleBasedOptimizer::oracle()
}

/// The widths to sweep: 1, powers of two up to the core count, and the
/// core count itself — plus 4 so the schedulers separate even on small
/// CI hosts (the pool oversubscribes widths beyond the cores).
fn widths() -> Vec<usize> {
    let ncores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut widths = vec![1usize, 2, 4];
    let mut t = 8;
    while t <= ncores {
        widths.push(t);
        t *= 2;
    }
    widths.push(ncores);
    widths.sort_unstable();
    widths.dedup();
    widths
}

/// The old shim's splitter, reproduced exactly: one contiguous chunk per
/// thread, fresh scoped threads per call. This is the baseline the
/// qexec pool replaced.
fn naive_chunked(items: &[Vec<Gate>], threads: usize, oracle: &RuleBasedOptimizer) -> usize {
    if threads <= 1 {
        return items
            .iter()
            .map(|seg| oracle.optimize(seg, QUBITS).len())
            .sum();
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|seg| oracle.optimize(seg, QUBITS).len())
                        .sum::<usize>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("naive worker panicked"))
            .sum()
    })
}

/// The same items through qexec's flat map, one oracle call per index.
fn work_stealing(items: &[Vec<Gate>], threads: usize, oracle: &RuleBasedOptimizer) -> usize {
    qexec::with_width(threads, || {
        qexec::par_map_range(items.len(), 1, |i| oracle.optimize(&items[i], QUBITS).len())
            .into_iter()
            .sum()
    })
}

fn bench_parmap(c: &mut Criterion) {
    let mut g = c.benchmark_group("exec/skewed_parmap");
    g.sample_size(10);
    let items = segments();
    let oracle = oracle();
    g.throughput(Throughput::Elements(items.len() as u64));
    for &t in &widths() {
        g.bench_with_input(BenchmarkId::new("naive", t), &items, |b, items| {
            b.iter(|| naive_chunked(items, t, &oracle))
        });
        g.bench_with_input(BenchmarkId::new("stealing", t), &items, |b, items| {
            b.iter(|| work_stealing(items, t, &oracle))
        });
    }
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("exec/skewed_popqc");
    g.sample_size(10);
    let circuit = Family::Skewed.generate(QUBITS, 42);
    let oracle = oracle();
    let cfg = PopqcConfig::with_omega(50);
    g.throughput(Throughput::Elements(circuit.len() as u64));
    for &t in &widths() {
        g.bench_with_input(BenchmarkId::from_parameter(t), &circuit, |b, c| {
            b.iter(|| qexec::with_width(t, || popqc_core::optimize_circuit(c, &oracle, &cfg)))
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_parmap, bench_end_to_end
}

/// Median-of-N wall time for `f`.
fn median_secs(n: usize, mut f: impl FnMut() -> usize) -> f64 {
    let mut times: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

/// The Figure 3-style scaling artifact: per-width medians for both
/// schedulers over the skewed parmap proxy, plus executor counters.
fn write_exec_report(path: &str) {
    let items = segments();
    let oracle = oracle();
    let widths = widths();
    let mut rows = Vec::new();
    for &t in &widths {
        let naive = median_secs(5, || naive_chunked(&items, t, &oracle));
        let stealing = median_secs(5, || work_stealing(&items, t, &oracle));
        rows.push(serde_json::json!({
            "workers": t,
            "naive_seconds": naive,
            "stealing_seconds": stealing,
            "stealing_speedup_vs_naive": naive / stealing,
        }));
    }
    let max_width = *widths.last().expect("non-empty width sweep");
    let last = rows.last().expect("non-empty sweep").clone();
    let beats = last
        .get("stealing_speedup_vs_naive")
        .and_then(serde_json::Value::as_f64)
        .map(|s| s >= 1.0)
        .unwrap_or(false);
    let exec = qexec::stats();
    let doc = serde_json::json!({
        "api_version": qapi::API_VERSION,
        "family": "Skewed",
        "qubits": QUBITS,
        "segment_gates": SEGMENT,
        "segments": items.len(),
        "max_workers": max_width,
        "sweep": rows,
        "stealing_beats_naive_at_max_workers": beats,
        "executor": serde_json::json!({
            "workers": exec.workers,
            "grain": exec.grain,
            "parallel_ops": exec.parallel_ops,
            "tasks_executed": exec.tasks_executed,
            "splits": exec.splits,
            "steals": exec.steals,
        }),
    });
    let text = serde_json::to_string_pretty(&doc).expect("serialize exec report");
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("exec scaling report written to {path}");
}

fn main() {
    benches();
    if let Ok(path) = std::env::var("POPQC_EXEC_REPORT") {
        write_exec_report(&path);
    }
}
