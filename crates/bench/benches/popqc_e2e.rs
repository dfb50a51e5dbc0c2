//! End-to-end POPQC benchmarks: whole-pipeline cost on real benchmark
//! instances at 1 thread and all cores (the wall-clock counterpart of
//! Tables 1–2 at Criterion rigor, on instances small enough to iterate).

use benchgen::Family;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use popqc_core::PopqcConfig;
use qoracle::RuleBasedOptimizer;

fn bench_popqc(c: &mut Criterion) {
    let mut g = c.benchmark_group("popqc/e2e");
    g.sample_size(10);
    let ncores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for family in [Family::Vqe, Family::Hhl] {
        let qubits = family.ladder(0)[1];
        let circuit = family.generate(qubits, 42);
        g.throughput(Throughput::Elements(circuit.len() as u64));
        for threads in [1usize, ncores] {
            let oracle = RuleBasedOptimizer::oracle();
            let cfg = PopqcConfig::with_omega(200);
            g.bench_with_input(
                BenchmarkId::new(format!("{}-{}", family.name(), qubits), threads),
                &circuit,
                |b, c| {
                    b.iter(|| {
                        qexec::with_width(threads, || {
                            popqc_core::optimize_circuit(c, &oracle, &cfg)
                        })
                    })
                },
            );
        }
    }
    g.finish();
}

fn bench_oac_contrast(c: &mut Criterion) {
    let mut g = c.benchmark_group("popqc/vs_oac");
    g.sample_size(10);
    let family = Family::Grover;
    let circuit = family.generate(family.ladder(0)[1], 42);
    let oracle = RuleBasedOptimizer::oracle();
    g.bench_function("popqc_1t_omega400", |b| {
        let cfg = PopqcConfig::with_omega(400);
        b.iter(|| qexec::with_width(1, || popqc_core::optimize_circuit(&circuit, &oracle, &cfg)))
    });
    g.bench_function("oac_omega400", |b| {
        let cfg = oac::OacConfig::with_omega(400);
        b.iter(|| oac::oac_optimize(&circuit, &oracle, &cfg))
    });
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(4))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_popqc, bench_oac_contrast
}
criterion_main!(benches);
