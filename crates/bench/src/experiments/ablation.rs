//! Ablation: how much of the Table 1/2 gap comes from the baseline's
//! algorithmic profile (VOQC's quadratic rotation merge) versus locality
//! and parallelism?
//!
//! Three configurations on the largest instance of each family:
//!
//! * **faithful** — whole-circuit single pass sequence with the quadratic
//!   per-rotation-scan merge (the Tables 1–2 baseline);
//! * **modern** — same sequence with the linear phase-folding merge (this
//!   reproduction's improved whole-circuit optimizer);
//! * **POPQC (1 thread)** — locality alone, no parallelism.
//!
//! The faithful/modern gap quantifies what the linear merge buys a
//! whole-circuit optimizer; the modern/POPQC gap is the residual benefit
//! of Ω-bounded convergence.

use super::run_popqc;
use crate::harness::{dump_json, extreme_instances, fmt_pct, fmt_secs, print_table, Opts};
use qoracle::RuleBasedOptimizer;
use serde_json::json;

/// Runs the ablation table.
pub fn ablation(opts: &Opts) {
    println!(
        "\n=== Ablation: faithful vs modernized baseline vs POPQC-1t (Ω={}) ===",
        opts.omega
    );
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (_, large) in extreme_instances(opts) {
        let c = &large.circuit;
        let faithful = RuleBasedOptimizer::voqc_baseline();
        let (f_out, f_t) = crate::harness::time(|| faithful.optimize_circuit(c));
        let modern = RuleBasedOptimizer::modern_baseline();
        let (m_out, m_t) = crate::harness::time(|| modern.optimize_circuit(c));
        let ((p_out, _), p_t) = crate::harness::time(|| run_popqc(c, opts.omega, 1));
        rows.push(vec![
            large.family.name().to_string(),
            c.len().to_string(),
            format!(
                "{} ({})",
                fmt_secs(f_t),
                fmt_pct(1.0 - f_out.len() as f64 / c.len() as f64)
            ),
            format!(
                "{} ({})",
                fmt_secs(m_t),
                fmt_pct(1.0 - m_out.len() as f64 / c.len() as f64)
            ),
            format!(
                "{} ({})",
                fmt_secs(p_t),
                fmt_pct(1.0 - p_out.len() as f64 / c.len() as f64)
            ),
            format!("{:.1}", f_t.as_secs_f64() / m_t.as_secs_f64().max(1e-9)),
        ]);
        records.push(json!({
            "family": large.family.name(),
            "gates": c.len(),
            "faithful_seconds": f_t.as_secs_f64(),
            "modern_seconds": m_t.as_secs_f64(),
            "popqc1t_seconds": p_t.as_secs_f64(),
            "faithful_gates_out": f_out.len(),
            "modern_gates_out": m_out.len(),
            "popqc_gates_out": p_out.len(),
        }));
    }
    print_table(
        &[
            "benchmark",
            "#gates",
            "faithful t(s) (red)",
            "modern t(s) (red)",
            "popqc-1t t(s) (red)",
            "faithful/modern",
        ],
        &rows,
    );
    dump_json(opts, "ablation", &json!({ "rows": records }));
}
