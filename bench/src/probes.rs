//! The per-layer probe suite of a traced run: every `spec::PER_LAYER`
//! metric, measured from outside by timing calls into each layer's public
//! functions (through `layers.rs`) on inputs made from the run's seed.
//!
//! In-process probes run at `qexec` width 1. Anything that needs a wider
//! executor runs in a `ledger worker` child, because at the seed a wide
//! `optimize_circuit` kills its process now and then; those deaths are
//! what `qexec.crash_share` counts.

use crate::corpus::{self, Instance, Scale, OMEGA};
use crate::http::{self, Client};
use crate::layers::{self, Circuit, StoreKind};
use crate::proc::{self, Server};
use crate::report::Metric;
use crate::spec;
use crate::stats::median;
use crate::trace::Recorder;
use crate::worker::Worker;
use crate::workloads::{self, Outcome, RunCfg};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Values by metric name; `finish` insists that every name of the spec
/// was measured, and no other.
#[derive(Default)]
struct Sheet(BTreeMap<&'static str, f64>);

impl Sheet {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "`{name}` is not a per-layer metric of the spec"
        );
        self.0.insert(name, value);
    }

    fn finish(self) -> Result<Vec<Metric>, String> {
        spec::PER_LAYER
            .iter()
            .map(|m| {
                let value = *self
                    .0
                    .get(m.name)
                    .ok_or_else(|| format!("per-layer metric `{}` was not measured", m.name))?;
                Ok(Metric {
                    name: m.name,
                    unit: m.unit,
                    value,
                })
            })
            .collect()
    }
}

/// Median nanoseconds of `f` over `reps` runs.
fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

fn short(cfg: &RunCfg, seconds: f64) -> RunCfg {
    RunCfg {
        seed: cfg.seed,
        seconds,
        scale: Scale::Quick,
        setups: 1,
        nproc: cfg.nproc,
        popqc: cfg.popqc.clone(),
    }
}

/// Runs the whole suite. `traced` and `untraced` are the named
/// workload's two short passes, whose ratio is the tracing overhead.
pub fn run(
    cfg: &RunCfg,
    rec: &Recorder,
    traced_ops_per_s: f64,
    untraced_ops_per_s: f64,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let mut sheet = Sheet::default();
    // Wrong outputs the probes came across, beside the numbers.
    let mut failures = Vec::new();
    sheet.set(
        "bench.trace_overhead_share",
        1.0 - traced_ops_per_s / untraced_ops_per_s,
    );

    let t0 = Instant::now();
    let warm: Vec<(Instance, Circuit)> = corpus::serve_warm(cfg.seed, Scale::Quick)
        .into_iter()
        .map(|i| {
            let c = i.generate();
            (i, c)
        })
        .collect();
    let generated: usize = warm.iter().map(|(_, c)| layers::gates(c)).sum();
    sheet.set(
        "benchgen.generate_ns_per_gate",
        t0.elapsed().as_nanos() as f64 / generated as f64,
    );
    let big = Instance {
        family: "StateVec",
        qubits: 8,
        gen_seed: cfg.seed,
    }
    .generate();

    qcir_probes(&mut sheet, &warm);
    oracle_probes(&mut sheet, &big, cfg.seed);
    index_tree_probes(&mut sheet, cfg.seed);
    sparse_probes(&mut sheet, &big);
    let engine_1t = engine_probes(&mut sheet, &mut failures, cfg)?;
    oac_probes(&mut sheet, cfg.seed, &engine_1t);
    exec_probes(&mut sheet, cfg.nproc)?;
    service_probes(&mut sheet, &warm)?;
    segcache_probes(&mut sheet, cfg)?;
    http_probes(&mut sheet, &warm)?;
    serving_probes(&mut sheet, &mut failures, cfg, rec)?;
    Ok((sheet.finish()?, failures))
}

fn qcir_probes(sheet: &mut Sheet, warm: &[(Instance, Circuit)]) {
    let gates: usize = warm.iter().map(|(_, c)| layers::gates(c)).sum();
    let per_gate = |ns: f64| ns / gates as f64;
    let texts: Vec<String> = warm.iter().map(|(_, c)| layers::to_qasm(c)).collect();
    sheet.set(
        "qcir.qasm.emit_ns_per_gate",
        per_gate(time_ns(5, || {
            warm.iter()
                .map(|(_, c)| layers::to_qasm(c).len())
                .sum::<usize>()
        })),
    );
    sheet.set(
        "qcir.qasm.parse_ns_per_gate",
        per_gate(time_ns(5, || {
            texts
                .iter()
                .map(|t| layers::parse_qasm(t).map_or(0, |c| layers::gates(&c)))
                .sum::<usize>()
        })),
    );
    sheet.set(
        "qcir.fingerprint_ns_per_gate",
        per_gate(time_ns(9, || {
            warm.iter()
                .fold(0u128, |acc, (_, c)| acc ^ layers::fingerprint(c))
        })),
    );
    sheet.set(
        "qcir.fingerprint_abstract_ns_per_gate",
        per_gate(time_ns(9, || {
            warm.iter()
                .fold(0u128, |acc, (_, c)| acc ^ layers::fingerprint_abstract(c))
        })),
    );
}

/// Oracle calls on 2Ω-segments at seeded offsets of a 65 k-gate circuit.
fn oracle_probes(sheet: &mut Sheet, big: &Circuit, seed: u64) {
    let mut rng = corpus::Rng::new(seed, "oracle-probe");
    let starts: Vec<usize> = (0..96)
        .map(|_| rng.below(layers::gates(big) - 2 * OMEGA))
        .collect();
    for (name, oracle) in [
        ("qoracle.rule_based.segment_us", layers::rule_based()),
        ("qoracle.structural.segment_us", layers::structural()),
    ] {
        let samples: Vec<f64> = starts
            .iter()
            .map(|&s| time_ns(1, || oracle.call(big, s, 2 * OMEGA)) / 1e3)
            .collect();
        sheet.set(name, median(&samples));
    }
}

/// 2^20 leaves, 30 % tombstones, runs of 2Ω consecutive ranks.
fn index_tree_probes(sheet: &mut Sheet, seed: u64) {
    const LEAVES: usize = 1 << 20;
    let mut rng = corpus::Rng::new(seed, "index-tree-probe");
    let weights: Vec<u32> = (0..LEAVES).map(|_| (rng.below(10) >= 3) as u32).collect();
    sheet.set(
        "core.index_tree.build_ns_per_leaf",
        time_ns(3, || layers::Tree::build(&weights).total()) / LEAVES as f64,
    );
    let tree = layers::Tree::build(&weights);
    let run = 2 * OMEGA;
    let starts: Vec<usize> = (0..256).map(|_| rng.below(tree.total() - run)).collect();
    let calls = (starts.len() * run) as f64;
    sheet.set(
        "core.index_tree.select_ns",
        time_ns(5, || {
            starts
                .iter()
                .flat_map(|&s| s..s + run)
                .fold(0usize, |acc, r| acc ^ tree.select(r).unwrap_or(0))
        }) / calls,
    );
    sheet.set(
        "core.index_tree.before_ns",
        time_ns(5, || {
            starts
                .iter()
                .flat_map(|&s| s..s + run)
                .fold(0usize, |acc, p| acc ^ tree.before(p))
        }) / calls,
    );
    // Disjoint ascending runs of slots, rewritten to their own weights
    // so every repetition does the same work.
    let updates: Vec<(usize, u32)> = (0..256)
        .flat_map(|k| {
            let base = k * (LEAVES / 256);
            (base..base + run).map(|slot| (slot, weights[slot]))
        })
        .collect();
    sheet.set(
        "core.index_tree.update_ns_per_leaf",
        time_ns(5, || tree.update(&updates)) / updates.len() as f64,
    );
}

fn sparse_probes(sheet: &mut Sheet, big: &Circuit) {
    let n = layers::gates(big) as f64;
    sheet.set(
        "core.sparse.create_ns_per_unit",
        time_ns(5, || layers::Sparse::create(big).len()) / n,
    );
    let mut sparse = layers::Sparse::create(big);
    let run = 2 * OMEGA;
    let segments = sparse.len() / (2 * run);
    // The engine's pattern: one segment per selected finger, 2Ω apart.
    let mut phys = Vec::new();
    let t0 = Instant::now();
    for k in 0..segments {
        phys.push(sparse.extract(k * 2 * run, run));
    }
    sheet.set(
        "core.sparse.extract_us_per_segment",
        t0.elapsed().as_nanos() as f64 / 1e3 / segments as f64,
    );
    let fingers: Vec<usize> = phys.iter().map(|p| p[0]).collect();
    sheet.set(
        "core.fingers.select_ns_per_finger",
        time_ns(9, || sparse.select_fingers(&fingers, OMEGA).0.len()) / fingers.len() as f64,
    );
    let (even, odd): (Vec<usize>, Vec<usize>) = fingers.iter().partition(|f| *f % 2 == 0);
    sheet.set(
        "core.fingers.merge_ns_per_finger",
        time_ns(9, || layers::merge_fingers(&even, &odd).len()) / fingers.len() as f64,
    );
    let updates: usize = phys.iter().map(Vec::len).sum();
    let t0 = Instant::now();
    for p in &phys {
        sparse.substitute_halving(p);
    }
    sheet.set(
        "core.sparse.substitute_ns_per_update",
        t0.elapsed().as_nanos() as f64 / updates as f64,
    );
    sheet.set(
        "core.sparse.to_units_ns_per_unit",
        time_ns(5, || sparse.to_units()) / n,
    );
}

/// One pass's sums over the probe set, from the child's `PopqcStats`.
#[derive(Default, Clone)]
struct EnginePass {
    total_ns: f64,
    oracle_ns: f64,
    rounds: f64,
    calls: f64,
    accepted: f64,
    narrow: f64,
    tasks: f64,
    steals: f64,
    /// `instance -> (in gates, out gates, output fingerprint)`.
    outputs: BTreeMap<usize, (usize, usize, u128)>,
}

fn engine_passes(out: &Outcome) -> Vec<EnginePass> {
    let passes = out.pass_wall_s.len();
    let mut sums = vec![EnginePass::default(); passes];
    for (k, r) in &out.engine {
        let op = &out.ops[*k];
        if !op.ok {
            continue;
        }
        let p = &mut sums[op.pass];
        p.total_ns += r.stats.total_nanos as f64;
        p.oracle_ns += r.stats.oracle_nanos as f64;
        p.rounds += r.stats.rounds as f64;
        p.calls += r.stats.oracle_calls as f64;
        p.accepted += r.stats.accepted as f64;
        p.narrow += r.stats.narrow_rounds as f64;
        p.tasks += r.exec.tasks as f64;
        p.steals += r.exec.steals as f64;
        p.outputs
            .insert(op.instance, (r.in_gates, r.out_gates, r.out_fp));
    }
    sums
}

/// `optimize_circuit` over the probe set at width 1 and at width
/// `nproc`, each in its own child. Returns the width-1 pass.
fn engine_probes(
    sheet: &mut Sheet,
    failures: &mut Vec<String>,
    cfg: &RunCfg,
) -> Result<EnginePass, String> {
    let instances = corpus::engine_probe(cfg.seed);
    let narrow = short(cfg, 1.0);
    let one = workloads::engine(&narrow, &instances, 1, None)?;
    let wide = workloads::engine(&narrow, &instances, cfg.nproc, None)?;
    // A death at width nproc is the seed's known executor bug: counted
    // in qexec.crash_share, not among the wrong outputs.
    failures.extend(one.failures.iter().chain(&wide.failures).cloned());
    let full = |p: &&EnginePass| p.outputs.len() == instances.len();
    let one_passes = engine_passes(&one);
    let wide_passes = engine_passes(&wide);
    let pass_1t = one_passes
        .iter()
        .find(full)
        .ok_or("the width-1 engine probe completed no pass")?
        .clone();
    let wall = |passes: &[EnginePass]| {
        let walls: Vec<f64> = passes
            .iter()
            .filter(full)
            .map(|p| p.total_ns / 1e9)
            .collect();
        (!walls.is_empty()).then(|| median(&walls))
    };
    let wall_1t = wall(&one_passes).expect("a full width-1 pass exists");
    // With every wide pass cut short by a death there is no wide wall to
    // report; the width-1 wall stands in and the speed-up reads 1.
    let wall_nt = wall(&wide_passes).unwrap_or(wall_1t);
    // Width must not change the output.
    for p in wide_passes.iter() {
        for (i, got) in &p.outputs {
            if pass_1t.outputs.get(i) != Some(got) {
                failures.push(format!(
                    "{}: width {} gives another output than width 1",
                    instances[*i].key(),
                    cfg.nproc
                ));
            }
        }
    }
    sheet.set("core.engine.rounds", pass_1t.rounds);
    sheet.set("core.engine.oracle_calls", pass_1t.calls);
    sheet.set("core.engine.accepted", pass_1t.accepted);
    sheet.set(
        "qoracle.rule_based.accept_ratio",
        pass_1t.accepted / pass_1t.calls,
    );
    sheet.set(
        "core.engine.oracle_share",
        pass_1t.oracle_ns / pass_1t.total_ns,
    );
    sheet.set(
        "core.engine.overhead_us_per_call",
        (pass_1t.total_ns - pass_1t.oracle_ns) / 1e3 / pass_1t.calls,
    );
    sheet.set("core.engine.wall_1t_s", wall_1t);
    sheet.set("core.engine.wall_nt_s", wall_nt);
    sheet.set("core.engine.speedup_nt", wall_1t / wall_nt);
    sheet.set(
        "core.engine.narrow_round_share",
        pass_1t.narrow / pass_1t.rounds,
    );
    sheet.set(
        "core.engine.improvable_window_share",
        one.checks.improvable as f64 / one.checks.windows.max(1) as f64,
    );
    let wide_ops = wide.ops.len().max(1) as f64;
    let (tasks, steals) = wide_passes
        .iter()
        .fold((0.0, 0.0), |(t, s), p| (t + p.tasks, s + p.steals));
    let wide_ok = wide.ops.iter().filter(|o| o.ok).count().max(1) as f64;
    sheet.set("qexec.tasks_per_op", tasks / wide_ok);
    sheet.set("qexec.steals_per_op", steals / wide_ok);
    sheet.set("qexec.crash_share", wide.crashes as f64 / wide_ops);
    Ok(pass_1t)
}

/// The sequential OAC baseline on the same probe set, in process.
fn oac_probes(sheet: &mut Sheet, seed: u64, popqc: &EnginePass) {
    let oracle = layers::rule_based();
    let (mut wall, mut gin, mut gout) = (0.0, 0usize, 0usize);
    for inst in corpus::engine_probe(seed) {
        let input = inst.generate();
        let (output, seconds) = layers::oac(&input, &oracle, OMEGA);
        wall += seconds;
        gin += layers::gates(&input);
        gout += layers::gates(&output);
    }
    let (pin, pout) = popqc
        .outputs
        .values()
        .fold((0usize, 0usize), |(a, b), &(i, o, _)| (a + i, b + o));
    let reduction = |i: usize, o: usize| (i - o) as f64 / i.max(1) as f64;
    sheet.set("oac.wall_s", wall);
    sheet.set("oac.speedup_vs_oac", wall / (popqc.total_ns / 1e9));
    sheet.set(
        "oac.reduction_gap",
        reduction(gin, gout) - reduction(pin, pout),
    );
}

/// Fork-join cost and parallel efficiency, in a child at width `nproc`.
fn exec_probes(sheet: &mut Sheet, nproc: usize) -> Result<(), String> {
    const ITEMS: usize = 4096;
    const TASKS: usize = 256;
    const SPIN_MICROS: usize = 200;
    let numbers = |reply: String| -> Vec<f64> {
        reply
            .split_whitespace()
            .skip(1)
            .filter_map(|s| s.parse().ok())
            .collect()
    };
    // The probes themselves can die of the executor bug; a fresh child
    // and another go is the remedy, as for any op.
    for _ in 0..8 {
        let mut worker = Worker::spawn()?;
        let mut attempt = || {
            let mut forks = Vec::new();
            for _ in 0..9 {
                let n = numbers(worker.request(&format!("forkjoin {nproc} {ITEMS}")).ok()?);
                forks.push(*n.first()?);
            }
            let spin = numbers(
                worker
                    .request(&format!("spin {nproc} {TASKS} {SPIN_MICROS}"))
                    .ok()?,
            );
            Some((median(&forks), *spin.first()?, *spin.get(1)?))
        };
        if let Some((fork_ns, serial, parallel)) = attempt() {
            sheet.set("qexec.fork_join_ns_per_task", fork_ns / ITEMS as f64);
            sheet.set("qexec.efficiency_nt", serial / (nproc as f64 * parallel));
            return Ok(());
        }
    }
    Err("the executor probes died eight times in a row".to_string())
}

/// Scratch directory for the disk-backed stores, inside the checkout.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = std::path::PathBuf::from(format!("bench/out/scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn service_probes(sheet: &mut Sheet, warm: &[(Instance, Circuit)]) -> Result<(), String> {
    let svc = layers::service("rule_based", 1, 0);
    let mut jobs = Vec::new();
    for (_, c) in warm {
        let job = svc.submit_wait(c.clone(), OMEGA);
        if let Some(e) = job.error() {
            return Err(format!("service probe job failed: {e}"));
        }
        jobs.push(job);
    }
    let hits: Vec<f64> = (0..8)
        .flat_map(|_| warm.iter())
        .map(|(_, c)| {
            let input = c.clone();
            time_ns(1, || svc.submit_wait(input.clone(), OMEGA).cache_hit()) / 1e3
        })
        .collect();
    sheet.set("qsvc.service.hit_us", median(&hits));

    let out_gates: usize = jobs.iter().map(|j| layers::gates(j.output())).sum();
    sheet.set(
        "qapi.job_encode_ns_per_gate",
        time_ns(5, || jobs.iter().map(|j| j.encode(1).len()).sum::<usize>()) / out_gates as f64,
    );

    let entries: Vec<layers::StoreEntry> = warm
        .iter()
        .zip(&jobs)
        .map(|((_, input), job)| layers::store_entry(input, job.output()))
        .collect();
    let scratch = Scratch::new()?;
    let server = layers::cache_server().map_err(|e| format!("cannot start a cache server: {e}"))?;
    let addr = server.addr();
    let disk = scratch.0.join("disk");
    let tiered = scratch.0.join("tiered");
    for (kind, put, get) in [
        (
            StoreKind::Memory,
            Some("qsvc.store.memory.put_us"),
            "qsvc.store.memory.get_us",
        ),
        (
            StoreKind::Disk(&disk),
            Some("qsvc.store.disk.put_us"),
            "qsvc.store.disk.get_us",
        ),
        (
            StoreKind::TieredDisk(&tiered),
            None,
            "qsvc.store.tiered.get_us",
        ),
        (
            StoreKind::Remote(&addr),
            Some("qsvc.remote.put_us"),
            "qsvc.remote.get_us",
        ),
    ] {
        let store = layers::store(kind)?;
        let puts: Vec<f64> = entries
            .iter()
            .map(|e| time_ns(1, || store.put(e)) / 1e3)
            .collect();
        if let Some(put) = put {
            sheet.set(put, median(&puts));
        }
        let mut gets = Vec::new();
        for e in &entries {
            let t0 = Instant::now();
            let hit = store.get(e);
            gets.push(t0.elapsed().as_nanos() as f64 / 1e3);
            if !hit {
                return Err(format!(
                    "store probe: `{get}` missed an entry it had just put"
                ));
            }
        }
        sheet.set(get, median(&gets));
    }
    server.shutdown();
    Ok(())
}

/// Segment-cache lookups, in process and through a short sweep.
fn segcache_probes(sheet: &mut Sheet, cfg: &RunCfg) -> Result<(), String> {
    let circuit = Instance {
        family: layers::parameterized_family().name,
        qubits: 20,
        gen_seed: cfg.seed,
    }
    .generate();
    let cache = layers::seg_cache(layers::structural(), 4096);
    let run = 2 * OMEGA;
    let starts: Vec<usize> = (0..layers::gates(&circuit) / run)
        .map(|k| k * run)
        .collect();
    for &s in &starts {
        cache.lookup_or_record(&circuit, s, run);
    }
    let lookups: Vec<f64> = starts
        .iter()
        .map(|&s| time_ns(1, || cache.lookup(&circuit, s, run)) / 1e3)
        .collect();
    sheet.set("qsvc.segcache.lookup_us", median(&lookups));

    let sweep = workloads::sweep_segcache(&short(cfg, 0.5), None)?;
    let (hits, calls) = sweep.sweep_jobs.iter().fold((0u64, 0u64), |(h, c), j| {
        (h + j.seg_hits, c + j.oracle_calls)
    });
    sheet.set(
        "core.engine.seg_cache_hit_ratio",
        hits as f64 / (hits + calls).max(1) as f64,
    );
    let (layer_hits, layer_misses) = sweep.seg_cache;
    sheet.set(
        "qsvc.segcache.hit_ratio",
        layer_hits as f64 / (layer_hits + layer_misses).max(1) as f64,
    );
    Ok(())
}

/// HTTP framing and the API handler, in process.
fn http_probes(sheet: &mut Sheet, warm: &[(Instance, Circuit)]) -> Result<(), String> {
    let app = layers::http_app(layers::service("rule_based", 1, 4096), OMEGA);
    let requests: Vec<Vec<u8>> = warm
        .iter()
        .map(|(_, c)| http::post_bytes("/v1/optimize?omega=200", layers::to_qasm(c).as_bytes()))
        .collect();
    let request_bytes: usize = requests.iter().map(Vec::len).sum();
    sheet.set(
        "qhttp.http.parse_ns_per_byte",
        time_ns(5, || {
            requests
                .iter()
                .filter(|r| layers::parse_request(r).is_ok())
                .count()
        }) / request_bytes as f64,
    );
    let parsed: Vec<layers::HttpRequest> = requests
        .iter()
        .map(|r| layers::parse_request(r))
        .collect::<Result<_, _>>()?;
    let mut misses = Vec::new();
    let mut responses = Vec::new();
    for req in &parsed {
        let t0 = Instant::now();
        let resp = app.handle(req);
        misses.push(t0.elapsed().as_nanos() as f64 / 1e6);
        if resp.status() != 200 {
            return Err(format!("handler probe answered {}", resp.status()));
        }
        responses.push(resp);
    }
    sheet.set("qhttp.api.handle_miss_ms", median(&misses));
    let hits: Vec<f64> = (0..4)
        .flat_map(|_| parsed.iter())
        .map(|req| time_ns(1, || app.handle(req).status()) / 1e6)
        .collect();
    sheet.set("qhttp.api.handle_hit_ms", median(&hits));
    let response_bytes: usize = responses.iter().map(|r| r.serialize().len()).sum();
    sheet.set(
        "qhttp.http.serialize_ns_per_byte",
        time_ns(5, || {
            responses.iter().map(|r| r.serialize().len()).sum::<usize>()
        }) / response_bytes as f64,
    );
    Ok(())
}

fn healthz_rtt_us(addr: &str, samples: usize) -> Result<f64, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
    let mut rtts = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        let reply = client
            .get("/healthz")
            .map_err(|e| format!("GET /healthz: {e}"))?;
        rtts.push(t0.elapsed().as_nanos() as f64 / 1e3);
        if reply.status != 200 {
            return Err(format!("GET /healthz answered {}", reply.status));
        }
    }
    Ok(median(&rtts))
}

/// What needs a real `popqc serve`: the connection layer's floor, and
/// the server's own account of a request beside the outside view.
fn serving_probes(
    sheet: &mut Sheet,
    failures: &mut Vec<String>,
    cfg: &RunCfg,
    rec: &Recorder,
) -> Result<(), String> {
    let bin = cfg
        .popqc
        .as_deref()
        .ok_or("the serving probes need the popqc binary")?;
    {
        let server = Server::spawn(bin)?;
        sheet.set("qnet.healthz_rtt_us", healthz_rtt_us(&server.addr, 100)?);
        let idle = |n: usize| -> Result<Vec<TcpStream>, String> {
            (0..n)
                .map(|_| TcpStream::connect(&server.addr).map_err(|e| format!("idle connect: {e}")))
                .collect()
        };
        let mut held = idle(64)?;
        std::thread::sleep(Duration::from_millis(200));
        let cpu0 = proc::cpu_seconds(server.pid()).ok_or("cannot read the server's CPU time")?;
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(1000));
        let cpu1 = proc::cpu_seconds(server.pid()).ok_or("cannot read the server's CPU time")?;
        sheet.set(
            "qnet.idle_cpu_ms_per_s",
            (cpu1 - cpu0) * 1e3 / t0.elapsed().as_secs_f64(),
        );
        held.extend(idle(192)?);
        sheet.set(
            "qnet.healthz_rtt_idle256_us",
            healthz_rtt_us(&server.addr, 100)?,
        );
    }

    // serve-warm, short and traced, over a single connection so that no
    // request queues behind another: socket p50 against the same request
    // replayed in process; the difference is time spent waiting for the
    // connection loop.
    let (warm, corpus) = workloads::serve_warm(&short(cfg, 1.5), 1, Some(rec))?;
    failures.extend(warm.failures.iter().cloned());
    let latencies: Vec<f64> = warm
        .ops
        .iter()
        .filter(|o| o.ok)
        .map(|o| o.millis())
        .collect();
    if latencies.is_empty() {
        return Err("the serve-warm probe completed no request".to_string());
    }
    let p50 = median(&latencies);
    let replay = workloads::replay_warm(&corpus, rec, 2)?;
    let in_process = (replay.http_parse + replay.handle + replay.serialize) / 1e6;
    sheet.set("qnet.residual_ms", p50 - in_process);
    eprintln!(
        "serve-warm probe: latency_p50_ms = {p50:.3} ms over {} requests, of which",
        latencies.len()
    );
    for (name, ns) in [
        ("qhttp.http.parse", replay.http_parse),
        ("qhttp.api.handle", replay.handle),
        ("  qcir.qasm.parse", replay.qasm_parse),
        ("  qcir.fingerprint", replay.fingerprint),
        ("  qsvc.service.hit", replay.service_hit),
        ("  qapi.job_encode", replay.encode),
        ("qhttp.http.serialize", replay.serialize),
        ("qnet.residual", (p50 - in_process) * 1e6),
    ] {
        eprintln!(
            "  {name:<22} {:>8.3} ms  {:>5.1} %",
            ns / 1e6,
            ns / 1e4 / p50
        );
    }

    // serve-cold, short and traced: the server's own split of a request,
    // and the service's account of the same requests.
    let cold = workloads::serve_cold(&short(cfg, 1.0), Some(rec))?;
    failures.extend(cold.failures.iter().cloned());
    if cold.splits.is_empty() {
        return Err("the serve-cold probe fetched no server-side trace".to_string());
    }
    let over_splits = |f: &dyn Fn(&workloads::ServerSplit) -> f64| {
        median(&cold.splits.iter().map(f).collect::<Vec<_>>())
    };
    let ms = |f: &dyn Fn(&layers::TraceDoc) -> u64| over_splits(&|s| f(&s.trace) as f64 / 1e6);
    let (queue, engine, store) = (ms(&|t| t.queue), ms(&|t| t.engine), ms(&|t| t.store));
    let unaccounted = ms(&|t| t.duration.saturating_sub(t.queue + t.engine + t.store));
    sheet.set("qobs.split.queue_ms", queue);
    sheet.set("qobs.split.engine_ms", engine);
    sheet.set("qobs.split.oracle_ms", ms(&|t| t.oracle));
    sheet.set("qobs.split.store_ms", store);
    sheet.set("qobs.split.unaccounted_ms", unaccounted);
    sheet.set("qsvc.service.queue_ms", over_splits(&|s| s.queue_s * 1e3));
    sheet.set("qsvc.service.run_ms", over_splits(&|s| s.run_s * 1e3));
    // The account in totals, which add where medians do not: the parts
    // against the traced requests' duration, and the server's engine time
    // against the service's run time of the same requests.
    let total = |f: &dyn Fn(&workloads::ServerSplit) -> f64| -> f64 {
        cold.splits.iter().map(f).sum::<f64>() / 1e6 / cold.splits.len() as f64
    };
    let duration = total(&|s| s.trace.duration as f64);
    let parts = [
        ("queue", total(&|s| s.trace.queue as f64)),
        ("engine", total(&|s| s.trace.engine as f64)),
        ("store", total(&|s| s.trace.store as f64)),
    ];
    let accounted: f64 = parts.iter().map(|p| p.1).sum();
    eprintln!(
        "serve-cold probe: mean server-side request {duration:.3} ms over {} traces, of which",
        cold.splits.len()
    );
    for (name, ms) in parts
        .into_iter()
        .chain([("unaccounted", duration - accounted)])
    {
        eprintln!(
            "  qobs.split.{name:<12} {ms:>8.3} ms  {:>5.1} %",
            100.0 * ms / duration
        );
    }
    eprintln!(
        "  qobs.split.engine / qsvc.service.run of the same requests = {:.3}",
        parts[1].1 / total(&|s| s.run_s * 1e9)
    );
    Ok(())
}
