//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their bounds, per-layer metrics with the end-to-end metric each one is
//! predicted to move. `BENCHMARK.json` at the repository root is printed
//! from these tables (`ledger manifest`), and `tests/contract.rs` checks
//! that the two agree, so a name is written down exactly once.

/// One workload: a fixed recipe for inputs and load, run from `--seed`.
pub struct Workload {
    pub name: &'static str,
    /// One line, recorded in `BENCHMARK.json`.
    pub why: &'static str,
    /// The percentile `latency_tail_ms` reports on this workload: the
    /// highest of p90/p99 that a run of `RUN_SECONDS` leaves at least ten
    /// samples beyond.
    pub tail_percentile: f64,
}

pub const ENGINE_LARGE: &str = "engine-large";
pub const SERVE_COLD: &str = "serve-cold";
pub const SERVE_WARM: &str = "serve-warm";
pub const SWEEP_SEGCACHE: &str = "sweep-segcache";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: ENGINE_LARGE,
        why: "The paper's experiment, optimize_circuit on its eight families at paper size plus a 1M-gate StateVec, at width 1: wider, the seed's qexec kills runs, so the parallel path has no end-to-end guard yet.",
        tail_percentile: 90.0,
    },
    Workload {
        name: SERVE_COLD,
        why: "Distinct circuits POSTed once each to a fresh popqc serve: every layer does real work and none dominates, so a single-layer gain shows diluted.",
        tail_percentile: 99.0,
    },
    Workload {
        name: SERVE_WARM,
        why: "Stored circuits POSTed again over nproc connections: engine and oracle do nothing, what is left is the connection loop's park, HTTP framing, QASM parse, fingerprint, store get and JSON encode.",
        tail_percentile: 99.0,
    },
    Workload {
        name: SWEEP_SEGCACHE,
        why: "Fresh-angle resubmissions of one skeleton to an in-process service: the oracle is bypassed by the segment cache, so engine bookkeeping is the whole cost and no socket is involved.",
        tail_percentile: 99.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see. Every workload reports all.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "gates_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        // 1 - the paper's gate reduction, written this way round because
        // a metric must never read 0 and sweep-segcache's structural
        // oracle removes nothing from the Parameterized ansatz.
        name: "gates_kept",
        unit: "fraction",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// A metric of one layer, measured from outside in the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `(end-to-end metric, workload)` pairs a better value should move.
    /// Empty means reference only: no end-to-end workload crosses it yet.
    pub moves: &'static [(&'static str, &'static str)],
}

const fn lower(
    name: &'static str,
    unit: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn higher(
    name: &'static str,
    unit: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

const SETUP_ALL: &[(&str, &str)] = &[
    ("setup_s", ENGINE_LARGE),
    ("setup_s", SERVE_COLD),
    ("setup_s", SERVE_WARM),
    ("setup_s", SWEEP_SEGCACHE),
];
const WARM_CPU: &[(&str, &str)] = &[
    ("cpu_ms_per_op", SERVE_WARM),
    ("ops_per_s", SERVE_WARM),
    ("cpu_ms_per_op", SERVE_COLD),
];
const SWEEP_GATES: &[(&str, &str)] = &[("gates_per_s", SWEEP_SEGCACHE)];
const ORACLE_BOUND: &[(&str, &str)] = &[("gates_per_s", ENGINE_LARGE), ("gates_per_s", SERVE_COLD)];
const BOOKKEEPING: &[(&str, &str)] = &[
    ("gates_per_s", SWEEP_SEGCACHE),
    ("gates_per_s", ENGINE_LARGE),
];
const ENGINE_TAIL: &[(&str, &str)] = &[("latency_tail_ms", ENGINE_LARGE)];
const ENGINE_ONLY: &[(&str, &str)] = &[("gates_per_s", ENGINE_LARGE)];
const WARM_P50: &[(&str, &str)] = &[("latency_p50_ms", SERVE_WARM)];
const COLD_P50: &[(&str, &str)] = &[("latency_p50_ms", SERVE_COLD)];
const COLD_TAIL: &[(&str, &str)] = &[("latency_tail_ms", SERVE_COLD)];
const SERVE_CPU: &[(&str, &str)] = &[("cpu_ms_per_op", SERVE_WARM), ("cpu_ms_per_op", SERVE_COLD)];
const WARM_CPU_ONLY: &[(&str, &str)] = &[("cpu_ms_per_op", SERVE_WARM)];
const QNET_FLOOR: &[(&str, &str)] = &[
    ("latency_p50_ms", SERVE_WARM),
    ("ops_per_s", SERVE_WARM),
    ("latency_p50_ms", SERVE_COLD),
];
const REFERENCE: &[(&str, &str)] = &[];

pub const PER_LAYER: [PerLayer; 64] = [
    lower("benchgen.generate_ns_per_gate", "ns", SETUP_ALL),
    lower("qcir.qasm.parse_ns_per_gate", "ns", WARM_CPU),
    lower("qcir.qasm.emit_ns_per_gate", "ns", WARM_CPU),
    lower("qcir.fingerprint_ns_per_gate", "ns", WARM_CPU),
    lower("qcir.fingerprint_abstract_ns_per_gate", "ns", SWEEP_GATES),
    lower("qoracle.rule_based.segment_us", "us", ORACLE_BOUND),
    lower("qoracle.structural.segment_us", "us", REFERENCE),
    higher("qoracle.rule_based.accept_ratio", "ratio", ORACLE_BOUND),
    lower("core.index_tree.build_ns_per_leaf", "ns", BOOKKEEPING),
    lower("core.index_tree.select_ns", "ns", BOOKKEEPING),
    lower("core.index_tree.before_ns", "ns", BOOKKEEPING),
    lower("core.index_tree.update_ns_per_leaf", "ns", BOOKKEEPING),
    lower("core.sparse.create_ns_per_unit", "ns", BOOKKEEPING),
    lower("core.sparse.extract_us_per_segment", "us", BOOKKEEPING),
    lower("core.sparse.substitute_ns_per_update", "ns", BOOKKEEPING),
    lower("core.sparse.to_units_ns_per_unit", "ns", BOOKKEEPING),
    lower("core.fingers.select_ns_per_finger", "ns", ENGINE_TAIL),
    lower("core.fingers.merge_ns_per_finger", "ns", ENGINE_TAIL),
    lower("core.engine.rounds", "count", ENGINE_TAIL),
    lower("core.engine.oracle_calls", "count", ENGINE_ONLY),
    higher("core.engine.accepted", "count", REFERENCE),
    higher("core.engine.oracle_share", "ratio", REFERENCE),
    lower("core.engine.overhead_us_per_call", "us", BOOKKEEPING),
    lower("core.engine.wall_1t_s", "s", ENGINE_ONLY),
    lower("core.engine.wall_nt_s", "s", REFERENCE),
    higher("core.engine.speedup_nt", "ratio", REFERENCE),
    lower("core.engine.narrow_round_share", "ratio", REFERENCE),
    higher("core.engine.seg_cache_hit_ratio", "ratio", SWEEP_GATES),
    lower("core.engine.improvable_window_share", "fraction", REFERENCE),
    lower("oac.wall_s", "s", REFERENCE),
    higher("oac.speedup_vs_oac", "ratio", REFERENCE),
    lower("oac.reduction_gap", "fraction", REFERENCE),
    lower("qexec.fork_join_ns_per_task", "ns", REFERENCE),
    higher("qexec.efficiency_nt", "ratio", REFERENCE),
    higher("qexec.steals_per_op", "count", REFERENCE),
    lower("qexec.tasks_per_op", "count", REFERENCE),
    lower("qexec.crash_share", "fraction", REFERENCE),
    lower("qsvc.service.hit_us", "us", WARM_P50),
    lower("qsvc.service.queue_ms", "ms", COLD_TAIL),
    lower("qsvc.service.run_ms", "ms", COLD_P50),
    lower("qsvc.store.memory.get_us", "us", WARM_P50),
    lower("qsvc.store.memory.put_us", "us", COLD_P50),
    lower("qsvc.store.disk.get_us", "us", REFERENCE),
    lower("qsvc.store.disk.put_us", "us", REFERENCE),
    lower("qsvc.store.tiered.get_us", "us", REFERENCE),
    lower("qsvc.remote.get_us", "us", REFERENCE),
    lower("qsvc.remote.put_us", "us", REFERENCE),
    lower("qsvc.segcache.lookup_us", "us", SWEEP_GATES),
    higher("qsvc.segcache.hit_ratio", "ratio", SWEEP_GATES),
    lower("qapi.job_encode_ns_per_gate", "ns", SERVE_CPU),
    lower("qhttp.http.parse_ns_per_byte", "ns", WARM_CPU_ONLY),
    lower("qhttp.http.serialize_ns_per_byte", "ns", WARM_CPU_ONLY),
    lower("qhttp.api.handle_hit_ms", "ms", WARM_P50),
    lower("qhttp.api.handle_miss_ms", "ms", COLD_P50),
    lower("qnet.healthz_rtt_us", "us", QNET_FLOOR),
    lower("qnet.healthz_rtt_idle256_us", "us", REFERENCE),
    lower("qnet.residual_ms", "ms", QNET_FLOOR),
    lower("qnet.idle_cpu_ms_per_s", "ms/s", REFERENCE),
    lower("qobs.split.queue_ms", "ms", COLD_TAIL),
    lower("qobs.split.engine_ms", "ms", COLD_P50),
    lower("qobs.split.oracle_ms", "ms", COLD_P50),
    lower("qobs.split.store_ms", "ms", COLD_P50),
    lower("qobs.split.unaccounted_ms", "ms", COLD_P50),
    lower("bench.trace_overhead_share", "fraction", REFERENCE),
];

/// The command the driver runs from the repository root; the driver
/// appends `--workload … --seed … --seconds … --trace …`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench/Cargo.toml",
    "--",
];

/// How long one run measures (the driver's `--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// `BENCHMARK.json`, with exactly the keys the contract names.
pub fn manifest_json() -> String {
    use serde_json::{json, Value};
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({"name": w.name, "why": w.why}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.as_str(), "bound": m.bound}))
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.as_str()}))
        .collect();
    let doc = json!({
        "command": COMMAND.to_vec(),
        "paths": vec!["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    });
    let mut text = serde_json::to_string_pretty(&doc).expect("manifest is plain JSON");
    text.push('\n');
    text
}
