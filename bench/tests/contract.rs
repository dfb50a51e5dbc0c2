//! The benchmark's promises to its driver and to later PRs: the names and
//! limits of `BENCHMARK.json`, the layer → end-to-end predictions, and a
//! run that finishes its report although a worker is killed under it.

use ledger::report::{parse_result_line, ParsedResult};
use ledger::spec::{self, Better};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("bench/ sits in the repository root")
        .to_path_buf()
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

#[test]
fn names_units_and_counts_are_within_the_contract() {
    assert!((2..=8).contains(&spec::WORKLOADS.len()));
    assert!((1..=16).contains(&spec::END_TO_END.len()));
    assert!((1..=128).contains(&spec::PER_LAYER.len()));
    assert!((1..=60).contains(&spec::RUN_SECONDS));
    let mut names = HashSet::new();
    for w in &spec::WORKLOADS {
        assert!(is_name(w.name), "workload name `{}`", w.name);
        assert!(names.insert(w.name), "`{}` is used twice", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of `{}`",
            w.name
        );
        assert!((50.0..100.0).contains(&w.tail_percentile));
    }
    for m in &spec::END_TO_END {
        assert!(is_name(m.name) && is_unit(m.unit), "metric `{}`", m.name);
        assert!(names.insert(m.name), "`{}` is used twice", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of `{}`", m.name);
    }
    for m in &spec::PER_LAYER {
        assert!(is_name(m.name) && is_unit(m.unit), "metric `{}`", m.name);
        assert!(names.insert(m.name), "`{}` is used twice", m.name);
    }
    let setup = spec::END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let largest = spec::END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, largest, "setup_s takes the largest bound");
}

#[test]
fn every_layer_metric_predicts_an_existing_metric_on_an_existing_workload() {
    for m in &spec::PER_LAYER {
        for (metric, workload) in m.moves {
            assert!(
                spec::END_TO_END.iter().any(|e| e.name == *metric),
                "`{}` names unknown end-to-end metric `{metric}`",
                m.name
            );
            assert!(
                spec::workload(workload).is_some(),
                "`{}` names unknown workload `{workload}`",
                m.name
            );
        }
    }
    // Every workload and every end-to-end metric bar memory and set-up's
    // own is the target of at least one layer's prediction.
    for w in &spec::WORKLOADS {
        assert!(
            spec::PER_LAYER
                .iter()
                .any(|m| m.moves.iter().any(|(_, x)| x == &w.name)),
            "no layer predicts anything on `{}`",
            w.name
        );
    }
}

#[test]
fn benchmark_json_is_the_printed_manifest() {
    let path = repo_root().join("BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        spec::manifest_json(),
        "refresh with `ledger manifest > BENCHMARK.json`"
    );
    let doc = serde_json::from_str(&on_disk).expect("BENCHMARK.json is JSON");
    let serde_json::Value::Object(pairs) = &doc else {
        panic!("BENCHMARK.json is not an object");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert!(on_disk.len() <= 64 * 1024);
    let command: Vec<&str> = doc
        .get("command")
        .and_then(|c| c.as_array())
        .expect("command is a list")
        .iter()
        .map(|v| v.as_str().expect("command holds strings"))
        .collect();
    assert!(command.len() <= 32);
    for word in &command {
        assert!(word.len() <= 200 && !word.starts_with('/') && !word.contains(".."));
        // The only repository path the command may name lies under `paths`.
        if word.contains('/') {
            assert!(word.starts_with("bench/"), "`{word}` is outside `paths`");
        }
    }
}

fn ledger() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ledger"));
    cmd.current_dir(repo_root()).stdin(Stdio::null());
    cmd
}

fn result_of(stdout: &[u8]) -> ParsedResult {
    let text = String::from_utf8_lossy(stdout);
    let line = text.lines().last().expect("a result line on stdout");
    parse_result_line(line).expect("the last stdout line is the result")
}

#[test]
fn a_quick_run_reports_every_end_to_end_metric() {
    let out = ledger()
        .args([
            "run",
            "--workload",
            "sweep-segcache",
            "--quick",
            "--seed",
            "42",
        ])
        .stderr(Stdio::null())
        .output()
        .expect("ledger runs");
    assert!(out.status.success(), "exit {:?}", out.status.code());
    let result = result_of(&out.stdout);
    assert!(result.correct && result.attempted > 0 && result.failed == 0);
    let names: Vec<&str> = result.metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    for (name, value) in &result.metrics {
        assert!(value.is_finite() && *value > 0.0, "`{name}` reads {value}");
    }
}

/// Children of `parent`, from `/proc/<pid>/stat`.
fn children_of(parent: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|stat| {
                    let rest = stat[stat.rfind(')')? + 1..].to_string();
                    rest.split_whitespace().nth(1)?.parse::<u32>().ok()
                })
                == Some(parent)
        })
        .collect()
}

#[test]
fn a_worker_killed_mid_pass_yields_failed_ops_and_a_finished_report() {
    let child = ledger()
        .args([
            "--workload",
            "engine-large",
            "--quick",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("ledger starts");
    // Let the run get going, then kill whichever worker is running (a
    // pass has its own child) from outside, with SIGKILL — three times,
    // because one kill in ten lands in a child's set-up, which is retried
    // and fails no op. A worker can also retire between the look and the
    // kill; then look again.
    let deadline = Instant::now() + Duration::from_secs(20);
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(400));
        loop {
            assert!(Instant::now() < deadline, "found no worker to kill");
            let Some(&worker) = children_of(child.id()).first() else {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            };
            let killed = Command::new("kill")
                .args(["-9", &worker.to_string()])
                .stderr(Stdio::null())
                .status()
                .expect("kill runs");
            if killed.success() {
                break;
            }
        }
    }
    let out = child.wait_with_output().expect("ledger finishes");
    let result = result_of(&out.stdout);
    // A death is a failed operation, not a wrong output and not a dead run.
    assert!(result.failed >= 1, "the in-flight op must fail");
    assert!(
        result.attempted > result.failed,
        "the run must carry on after the respawn"
    );
    assert!(result.correct && out.status.success());
    assert_eq!(result.metrics.len(), spec::END_TO_END.len());
}
