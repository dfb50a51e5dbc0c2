//! From raw samples to named metrics, and the two ways they are shown:
//! the contract's one-line JSON result on stdout, tables on stderr.

use crate::spec::{self, Workload};
use crate::stats;
use crate::workloads::Outcome;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The end-to-end metrics of one run, in `spec::END_TO_END` order.
/// Fails when no op succeeded: there is nothing to report then.
pub fn end_to_end(workload: &Workload, out: &Outcome) -> Result<Vec<Metric>, String> {
    let ok: Vec<_> = out.ops.iter().filter(|o| o.ok).collect();
    if ok.is_empty() {
        return Err(format!(
            "{}: no operation succeeded ({} attempted); first failure: {}",
            workload.name,
            out.ops.len(),
            out.failures.first().map_or("none recorded", String::as_str)
        ));
    }
    let passes = out.pass_wall_s.len();
    let mut ops_rate = Vec::with_capacity(passes);
    let mut gate_rate = Vec::with_capacity(passes);
    for (p, &wall) in out.pass_wall_s.iter().enumerate() {
        let in_pass = ok.iter().filter(|o| o.pass == p);
        let (n, gates) = in_pass.fold((0usize, 0usize), |(n, g), o| (n + 1, g + o.in_gates));
        if wall > 0.0 && n > 0 {
            ops_rate.push(n as f64 / wall);
            gate_rate.push(gates as f64 / wall);
        }
    }
    let latencies: Vec<f64> = ok.iter().map(|o| o.millis()).collect();
    let (gin, gout) = out
        .distinct
        .values()
        .fold((0usize, 0usize), |(a, b), &(i, o)| (a + i, b + o));
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => stats::median(&out.setup_s),
            "ops_per_s" => stats::median(&ops_rate),
            "gates_per_s" => stats::median(&gate_rate),
            "latency_p50_ms" => stats::median(&latencies),
            "latency_tail_ms" => stats::percentile(&latencies, workload.tail_percentile),
            "cpu_ms_per_op" => out.cpu_s * 1e3 / ok.len() as f64,
            "peak_rss_mb" => stats::median(&out.peak_rss_mb),
            "gates_kept" => gout as f64 / gin.max(1) as f64,
            other => unreachable!("end-to-end metric `{other}` has no definition"),
        }
    };
    Ok(spec::END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: value(m.name),
        })
        .collect())
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every value with all its digits.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not a number", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// A result line, read back.
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(metric name, value)` in the order printed.
    pub metrics: Vec<(String, f64)>,
}

/// Parses a result line back (for `ledger check`, which runs the
/// benchmark as the driver does).
pub fn parse_result_line(line: &str) -> Result<ParsedResult, String> {
    let doc = serde_json::from_str(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("result line lacks `{k}`"));
    let correct = field("correct")?
        .as_bool()
        .ok_or("`correct` is not a boolean")?;
    let attempted = field("attempted")?
        .as_u64()
        .ok_or("`attempted` is not a count")?;
    let failed = field("failed")?.as_u64().ok_or("`failed` is not a count")?;
    let serde_json::Value::Object(pairs) = field("metrics")? else {
        return Err("`metrics` is not an object".to_string());
    };
    let metrics = pairs
        .iter()
        .map(|(k, v)| {
            let value = v.get("value").and_then(|x| x.as_f64());
            value
                .map(|x| (k.clone(), x))
                .ok_or_else(|| format!("metric `{k}` has no numeric value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ParsedResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

pub fn print_metrics(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in metrics {
        eprintln!("  {:<width$}  {:>16.6} {}", m.name, m.value, m.unit);
    }
}

pub fn print_outcome(workload: &Workload, out: &Outcome) {
    let ok = out.ops.len() - out.failed();
    eprintln!(
        "{}: {} ops ({} ok, {} failed, {} child deaths) in {} passes; latency samples {} (tail = p{}); checks: {} golden, {} equivalence, {} windows sampled of which {} still improvable",
        workload.name,
        out.ops.len(),
        ok,
        out.failed(),
        out.crashes,
        out.pass_wall_s.len(),
        ok,
        workload.tail_percentile,
        out.checks.golden_matched,
        out.checks.equivalence,
        out.checks.windows,
        out.checks.improvable,
    );
    for f in out.failures.iter().take(5) {
        eprintln!("  FAILED {f}");
    }
    if out.failures.len() > 5 {
        eprintln!("  … and {} more failures", out.failures.len() - 5);
    }
}
