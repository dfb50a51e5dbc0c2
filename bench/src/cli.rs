//! The `ledger` command line.
//!
//! ```text
//! ledger [run] --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ledger all      [--seed N] [--seconds S] [--quick]
//! ledger check    [--seed N] [--seconds S]
//! ledger golden   [--seed N]
//! ledger manifest
//! ledger worker                      (internal: the child process)
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload, one run,
//! one JSON result line last on stdout. Everything human-readable goes
//! to stderr.

use crate::checks::{Budget, Checker, Golden, GOLDEN_PATH};
use crate::corpus::{self, Scale};
use crate::report::{self, Metric};
use crate::spec::{self, Better, Workload};
use crate::trace::{self, Recorder};
use crate::workloads::{self, Outcome, RunCfg};
use crate::{layers, probes, proc, stats, worker};
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 42;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// A traced run spends this share of `--seconds` on each of its two
/// passes of the named workload (untraced reference, then traced); the
/// probe suite takes the rest of the run.
const TRACED_PASS_SHARE: f64 = 0.4;

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        let bad = |v: &String| format!("bad value `{v}` for `{flag}`");
        match flag.as_str() {
            "--workload" => f.workload = Some(value()?.clone()),
            "--seed" => f.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("`--seconds` must be in (0, 600]".to_string());
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad value `{other}` for `--trace` (0 or 1)")),
                }
            }
            "--quick" => f.quick = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(f)
}

pub fn main(args: &[String]) -> ExitCode {
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m) if !m.starts_with("--") => (m, &args[1..]),
        _ => ("run", args),
    };
    let result = match mode {
        "worker" => worker::serve().map(|()| true),
        "manifest" => {
            print!("{}", spec::manifest_json());
            Ok(true)
        }
        "run" | "all" | "check" | "golden" => parse_flags(rest).and_then(|flags| match mode {
            "run" => run(&flags),
            "all" => all(&flags),
            "check" => check(&flags),
            _ => golden(&flags),
        }),
        other => Err(format!(
            "unknown mode `{other}` (run, all, check, golden, manifest)"
        )),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

fn config(flags: &Flags, needs_server: bool) -> Result<RunCfg, String> {
    Ok(RunCfg {
        seed: flags.seed,
        seconds: flags.seconds.unwrap_or(if flags.quick {
            1.0
        } else {
            spec::RUN_SECONDS as f64
        }),
        scale: if flags.quick {
            Scale::Quick
        } else {
            Scale::Full
        },
        setups: if flags.quick { 1 } else { SETUPS },
        nproc: workloads::nproc(),
        popqc: if needs_server {
            Some(proc::build_popqc()?)
        } else {
            None
        },
    })
}

fn is_serving(workload: &str) -> bool {
    matches!(workload, spec::SERVE_COLD | spec::SERVE_WARM)
}

struct Run {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Run {
    fn print_result_line(&self) {
        println!(
            "{}",
            report::result_line(self.correct, self.attempted, self.failed, &self.metrics)
        );
    }
}

fn untraced(workload: &'static Workload, cfg: &RunCfg) -> Result<Run, String> {
    let out = workloads::run(workload.name, cfg, None)?;
    report::print_outcome(workload, &out);
    let metrics = report::end_to_end(workload, &out)?;
    report::print_metrics(
        &format!("{} end to end (seed {})", workload.name, cfg.seed),
        &metrics,
    );
    Ok(Run {
        correct: out.failures.is_empty(),
        attempted: out.attempted(),
        failed: out.failed(),
        metrics,
    })
}

fn ops_per_s(workload: &Workload, out: &Outcome) -> Result<f64, String> {
    let metrics = report::end_to_end(workload, out)?;
    Ok(metrics
        .iter()
        .find(|m| m.name == "ops_per_s")
        .expect("ops_per_s is an end-to-end metric")
        .value)
}

fn traced(workload: &'static Workload, cfg: &RunCfg) -> Result<Run, String> {
    let pass = RunCfg {
        seconds: cfg.seconds * TRACED_PASS_SHARE,
        setups: 1,
        popqc: cfg.popqc.clone(),
        ..*cfg
    };
    let reference = workloads::run(workload.name, &pass, None)?;
    let rec = Recorder::new();
    let out = workloads::run(workload.name, &pass, Some(&rec))?;
    report::print_outcome(workload, &out);
    let (metrics, probe_failures) = probes::run(
        cfg,
        &rec,
        ops_per_s(workload, &out)?,
        ops_per_s(workload, &reference)?,
    )?;

    let spans = rec.spans();
    let path = format!("bench/out/trace-{}.json", workload.name);
    std::fs::create_dir_all("bench/out")
        .and_then(|()| std::fs::write(&path, trace::chrome_json(&spans)))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!(
        "{} spans written to {path}; self time by span name:",
        spans.len()
    );
    for (name, count, total, own) in trace::self_times(&spans) {
        eprintln!(
            "  {name:<24} {count:>7} spans  total {:>10.3} ms  self {:>10.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    report::print_metrics(
        &format!(
            "per layer (traced run of {}, seed {})",
            workload.name, cfg.seed
        ),
        &metrics,
    );
    for f in probe_failures.iter().take(5) {
        eprintln!("  FAILED (probe) {f}");
    }
    Ok(Run {
        correct: out.failures.is_empty()
            && reference.failures.is_empty()
            && probe_failures.is_empty(),
        attempted: out.attempted() + reference.attempted(),
        failed: out.failed() + reference.failed(),
        metrics,
    })
}

fn named_workload(flags: &Flags) -> Result<&'static Workload, String> {
    let name = flags
        .workload
        .as_deref()
        .ok_or("`--workload` is required")?;
    spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })
}

/// One workload, one run, one result line.
fn run(flags: &Flags) -> Result<bool, String> {
    let workload = named_workload(flags)?;
    let cfg = config(flags, flags.trace || is_serving(workload.name))?;
    let run = if flags.trace {
        traced(workload, &cfg)?
    } else {
        untraced(workload, &cfg)?
    };
    run.print_result_line();
    Ok(run.correct)
}

/// Every workload untraced for the end-to-end metrics, then traced for
/// the per-layer ones; one result line per run, in that order.
fn all(flags: &Flags) -> Result<bool, String> {
    let cfg = config(flags, true)?;
    let mut correct = true;
    for traced_pass in [false, true] {
        for workload in &spec::WORKLOADS {
            let run = if traced_pass {
                traced(workload, &cfg)?
            } else {
                untraced(workload, &cfg)?
            };
            run.print_result_line();
            correct &= run.correct;
        }
    }
    Ok(correct)
}

// ---------------------------------------------------------------------------
// check: the driver's acceptance procedure, on this build
// ---------------------------------------------------------------------------

/// Runs the benchmark as the driver does — a fresh process per run, the
/// recorded command's arguments — and returns the parsed result.
fn spawn_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("cannot run the benchmark: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = report::parse_result_line(line)?;
    if !out.status.success() || !result.correct || result.failed > 0 {
        return Err(format!(
            "{workload} seed {seed}: exit {:?}, correct={}, {} of {} ops failed",
            out.status.code(),
            result.correct,
            result.failed,
            result.attempted
        ));
    }
    Ok(result.metrics)
}

/// Runs per set, as the driver makes them.
const RUNS_PER_SET: usize = 10;

/// Two sets of ten runs per workload, each run on another seed.
/// Passes when, for every end-to-end metric of every workload, the
/// inter-quartile spread of each set (as a share of its median) is within
/// the metric's bound — `setup_s` excepted — and the second set's median
/// is not worse than the first's by more than the bound.
fn check(flags: &Flags) -> Result<bool, String> {
    if flags.workload.is_some() {
        return Err("`check` runs every workload; it takes no `--workload`".to_string());
    }
    let seconds = flags.seconds.unwrap_or(spec::RUN_SECONDS as f64);
    proc::build_popqc()?;
    let mut rows = Vec::new();
    let mut pass = true;
    for workload in &spec::WORKLOADS {
        let mut sets: Vec<Vec<Vec<(String, f64)>>> = Vec::new();
        for set in 0..2 {
            let mut runs = Vec::new();
            for k in 0..RUNS_PER_SET {
                eprintln!(
                    "check: {} set {} run {}/{RUNS_PER_SET}",
                    workload.name,
                    set + 1,
                    k + 1
                );
                runs.push(spawn_run(
                    workload.name,
                    flags.seed + k as u64,
                    seconds,
                    false,
                )?);
            }
            sets.push(runs);
        }
        for m in &spec::END_TO_END {
            let values = |set: usize| -> Vec<f64> {
                sets[set]
                    .iter()
                    .filter_map(|run| run.iter().find(|(k, _)| k == m.name).map(|(_, v)| *v))
                    .collect()
            };
            let (a, b) = (values(0), values(1));
            let (med_a, med_b) = (stats::median(&a), stats::median(&b));
            let (spread_a, spread_b) = (stats::spread(&a), stats::spread(&b));
            let worse = match m.better {
                Better::Lower => (med_b - med_a) / med_a,
                Better::Higher => (med_a - med_b) / med_a,
            };
            let spread_ok = m.name == "setup_s" || spread_a.max(spread_b) <= m.bound;
            let ok = spread_ok && worse <= m.bound;
            pass &= ok;
            rows.push(serde_json::json!({
                "workload": workload.name,
                "metric": m.name,
                "unit": m.unit,
                "bound": m.bound,
                "median_first": med_a,
                "median_second": med_b,
                "quartiles_first": vec![stats::quartiles(&a).0, stats::quartiles(&a).1],
                "quartiles_second": vec![stats::quartiles(&b).0, stats::quartiles(&b).1],
                "spread_first": spread_a,
                "spread_second": spread_b,
                "second_worse_by": worse,
                "samples": a.len(),
                "ok": ok,
            }));
            eprintln!(
                "{:<15} {:<16} {:>14.4} {:>14.4} {:<8} spread {:>6.3} {:>6.3}  worse by {:>7.3}  bound {:.2}  {}",
                workload.name,
                m.name,
                med_a,
                med_b,
                m.unit,
                spread_a,
                spread_b,
                worse,
                m.bound,
                if ok { "ok" } else { "MISS" }
            );
        }
    }
    // One traced run per workload: the per-layer numbers of this build,
    // each the median of the four runs (the probe suite is the same in
    // all of them).
    let mut traced = Vec::new();
    for workload in &spec::WORKLOADS {
        eprintln!("check: {} traced", workload.name);
        traced.push(spawn_run(workload.name, flags.seed, seconds, true)?);
    }
    let per_layer: Vec<serde_json::Value> = spec::PER_LAYER
        .iter()
        .map(|m| {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|run| run.iter().find(|(k, _)| k == m.name).map(|(_, v)| *v))
                .collect();
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            serde_json::json!({
                "metric": m.name,
                "unit": m.unit,
                "median": stats::median(&values),
                "min": lo,
                "max": hi,
            })
        })
        .collect();
    let doc = serde_json::json!({
        "what": "ledger check: two sets of runs of one build, each run on another seed; spreads are inter-quartile distance over median. per_layer: one traced run per workload on the first seed",
        "nproc": workloads::nproc(),
        "seed": flags.seed,
        "runs_per_set": RUNS_PER_SET,
        "run_seconds": seconds,
        "commit": commit(),
        "pass": pass,
        "rows": rows,
        "per_layer": per_layer,
        // The three evented /healthz medians of BENCH_http.json (0, 64 and
        // 256 idle connections), so that file can be retired: they are what
        // qnet.healthz_rtt_us (the first two) and
        // qnet.healthz_rtt_idle256_us (the third) measured before this
        // benchmark existed.
        "carried_from_BENCH_http_json_us": vec![7968.75, 7955.858, 48.754],
    });
    let mut text = serde_json::to_string_pretty(&doc).expect("check report is plain JSON");
    text.push('\n');
    let path = "bench/out/check.json";
    std::fs::create_dir_all("bench/out")
        .and_then(|()| std::fs::write(path, text))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!(
        "check {}: report written to {path}",
        if pass { "passed" } else { "FAILED" }
    );
    Ok(pass)
}

/// The checked-out commit, when this is a git checkout with `git` on
/// the path; the driver's checkouts are neither.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

// ---------------------------------------------------------------------------
// golden: capture bench/golden.json
// ---------------------------------------------------------------------------

/// Optimizes every instance the four workloads use at `--seed` (full and
/// quick sizes), verifies each output without a budget, and writes the
/// fingerprints to `bench/golden.json`. Refreshed only by a benchmark PR.
fn golden(flags: &Flags) -> Result<bool, String> {
    let mut rule_based = Vec::new();
    let mut structural = Vec::new();
    for scale in [Scale::Full, Scale::Quick] {
        rule_based.extend(corpus::engine_large(flags.seed, scale));
        rule_based.extend(corpus::serve_cold(flags.seed, scale));
        rule_based.extend(corpus::serve_warm(flags.seed, scale));
        let sweep = corpus::sweep_segcache(flags.seed, scale);
        structural.extend(sweep.warm);
        structural.extend(sweep.pool);
    }
    let total = rule_based.len() + structural.len();
    let mut checker = Checker::new(Golden::default(), Budget::UNLIMITED, total, flags.seed);
    let mut golden = Golden::default();
    for (oracle, instances) in [
        (layers::rule_based(), rule_based),
        (layers::structural(), structural),
    ] {
        for inst in instances {
            let input = inst.generate();
            let (output, _) = layers::optimize(&input, &oracle, corpus::OMEGA, 1, 0);
            if !checker.check(&oracle, &inst, &input, &output) {
                return Err(format!(
                    "refusing to record a failing output: {}",
                    checker.failures.last().cloned().unwrap_or_default()
                ));
            }
            golden.insert(oracle.id, &inst, &input, &output);
            eprintln!(
                "golden: {}/{} ({} -> {} gates)",
                oracle.id,
                inst.key(),
                layers::gates(&input),
                layers::gates(&output)
            );
        }
    }
    std::fs::write(GOLDEN_PATH, golden.to_json(flags.seed))
        .map_err(|e| format!("cannot write {GOLDEN_PATH}: {e}"))?;
    eprintln!(
        "golden: {} entries written to {GOLDEN_PATH} ({} equivalence checks, {} windows)",
        golden.len(),
        checker.equivalence_checked,
        checker.windows_checked
    );
    Ok(true)
}
