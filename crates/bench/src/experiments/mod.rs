//! One function per table/figure of the paper's evaluation.

mod ablation;
mod figures;
mod tables;

pub use ablation::ablation;
pub use figures::{fig3, fig4, fig5, fig6, fig7, fig8, fig9};
pub use tables::{table1, table2, table3, table4};

use crate::harness::Opts;
use popqc_core::{PopqcConfig, PopqcStats};
use qcir::Circuit;
use qoracle::RuleBasedOptimizer;
use std::time::{Duration, Instant};

/// Runs POPQC with the rule-based fixpoint oracle at the given `qexec`
/// width, returning the optimized circuit and stats.
pub(crate) fn run_popqc(c: &Circuit, omega: usize, threads: usize) -> (Circuit, PopqcStats) {
    let oracle = RuleBasedOptimizer::oracle();
    let cfg = PopqcConfig::with_omega(omega);
    qexec::with_width(threads, || popqc_core::optimize_circuit(c, &oracle, &cfg))
}

/// Runs the whole-circuit VOQC-profile baseline with a cooperative timeout.
/// Returns `(output, elapsed, timed_out)`.
pub(crate) fn run_baseline(c: &Circuit, timeout: Duration) -> (Circuit, Duration, bool) {
    let deadline = Instant::now() + timeout;
    let baseline = RuleBasedOptimizer::voqc_baseline_with_deadline(Some(deadline));
    let t0 = Instant::now();
    let out = baseline.optimize_circuit(c);
    let elapsed = t0.elapsed();
    (out, elapsed, elapsed >= timeout)
}

/// Runs everything in paper order.
pub fn all(opts: &Opts) {
    table1(opts);
    table2(opts);
    table3(opts);
    table4(opts);
    fig3(opts);
    fig4(opts);
    fig5(opts);
    fig6(opts);
    fig7(opts);
    fig8(opts);
    fig9(opts);
    ablation(opts);
}

pub(crate) fn speedup_string(base: Duration, base_timed_out: bool, ours: Duration) -> String {
    let ratio = base.as_secs_f64() / ours.as_secs_f64().max(1e-9);
    if base_timed_out {
        format!("≥{ratio:.1}")
    } else {
        format!("{ratio:.1}")
    }
}
