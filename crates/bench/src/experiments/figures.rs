//! Figures 3–9 of the paper (including the appendix figures).

use super::run_popqc;
use crate::harness::{
    dump_json, extreme_instances, fmt_pct, fmt_secs, instances, print_table, Opts,
};
use popqc_core::PopqcConfig;
use qcir::Circuit;
use qoracle::{GateCount, LayerSearchOracle, MixedDepthGates};
use serde_json::json;
use std::time::Duration;

/// Best-of-3 timing for scaling measurements (single runs are too noisy for
/// speedup ratios).
fn timed_popqc(c: &Circuit, omega: usize, threads: usize) -> Duration {
    (0..3)
        .map(|_| crate::harness::time(|| run_popqc(c, omega, threads)).1)
        .min()
        .unwrap()
}

/// Figure 3: self-speedup vs thread count on the largest instance of each
/// family.
pub fn fig3(opts: &Opts) {
    println!(
        "\n=== Figure 3: self-speedup vs #threads (largest instances, Ω={}) ===",
        opts.omega
    );
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut headers: Vec<String> = vec!["benchmark".into(), "#gates".into()];
    for &t in &opts.threads {
        headers.push(format!("{t}t"));
    }
    for (_, large) in extreme_instances(opts) {
        let mut row = vec![
            large.family.name().to_string(),
            large.circuit.len().to_string(),
        ];
        let base = timed_popqc(&large.circuit, opts.omega, 1);
        let mut series = Vec::new();
        for &t in &opts.threads {
            let dt = if t == 1 {
                base
            } else {
                timed_popqc(&large.circuit, opts.omega, t)
            };
            let sp = base.as_secs_f64() / dt.as_secs_f64().max(1e-9);
            row.push(format!("{sp:.2}"));
            series.push(json!({"threads": t, "speedup": sp, "seconds": dt.as_secs_f64()}));
        }
        records.push(
            json!({"family": large.family.name(), "gates": large.circuit.len(), "series": series}),
        );
        rows.push(row);
    }
    let hdr: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table(&hdr, &rows);
    dump_json(opts, "fig3", &json!({ "rows": records }));
}

/// Figure 4: number of rounds, smallest vs largest instance per family.
pub fn fig4(opts: &Opts) {
    println!(
        "\n=== Figure 4: #rounds, smallest vs largest instance (Ω={}) ===",
        opts.omega
    );
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (small, large) in extreme_instances(opts) {
        let (_, s_stats) = run_popqc(&small.circuit, opts.omega, opts.max_threads());
        let (_, l_stats) = run_popqc(&large.circuit, opts.omega, opts.max_threads());
        rows.push(vec![
            small.family.name().to_string(),
            format!("{} ({}g)", s_stats.rounds, small.circuit.len()),
            format!("{} ({}g)", l_stats.rounds, large.circuit.len()),
        ]);
        records.push(json!({
            "family": small.family.name(),
            "small": {"gates": small.circuit.len(), "rounds": s_stats.rounds},
            "large": {"gates": large.circuit.len(), "rounds": l_stats.rounds},
        }));
    }
    print_table(
        &["benchmark", "rounds (smallest)", "rounds (largest)"],
        &rows,
    );
    dump_json(opts, "fig4", &json!({ "rows": records }));
}

/// Figure 5: self-speedup at the maximum thread count vs circuit size, one
/// point per instance.
pub fn fig5(opts: &Opts) {
    let t = opts.max_threads();
    println!(
        "\n=== Figure 5: self-speedup ({t} threads) vs #gates (Ω={}) ===",
        opts.omega
    );
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for inst in instances(opts) {
        let t1 = timed_popqc(&inst.circuit, opts.omega, 1);
        let tp = timed_popqc(&inst.circuit, opts.omega, t);
        let sp = t1.as_secs_f64() / tp.as_secs_f64().max(1e-9);
        rows.push(vec![
            inst.label(),
            inst.circuit.len().to_string(),
            format!("{sp:.2}"),
        ]);
        records.push(json!({
            "family": inst.family.name(),
            "qubits": inst.qubits,
            "gates": inst.circuit.len(),
            "speedup": sp,
        }));
    }
    print_table(&["instance", "#gates", "self-speedup"], &rows);
    dump_json(opts, "fig5", &json!({ "rows": records, "threads": t }));
}

/// Figure 6: layer-granularity POPQC with the search oracle — gate-count
/// objective vs the mixed `10·depth + gates` objective.
pub fn fig6(opts: &Opts) {
    let omega = 20; // layers (the paper uses Ω=100 at its larger scale)
    let budget = 300;
    println!(
        "\n=== Figure 6: search oracle, gate cost vs mixed cost (layer mode, Ω={omega} layers) ==="
    );
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for family in benchgen::Family::PAPER {
        // Average over the two smallest instances (search oracles are slow —
        // that asymmetry is the point of Section 7.8).
        let mut acc = [[0.0f64; 2]; 2]; // [arm][gate_red, depth_red]
        let mut count = 0u32;
        for qubits in &family.ladder(opts.scale)[..2] {
            let c = family.generate(*qubits, opts.seed);
            let lc = c.layered();
            let cfg = PopqcConfig::with_omega(omega);
            let gate_arm = LayerSearchOracle::new(GateCount, budget, c.num_qubits);
            let (out_g, _) = qexec::with_width(opts.max_threads(), || {
                popqc_core::optimize_layered(&lc, &gate_arm, &cfg)
            });
            let mixed_arm =
                LayerSearchOracle::new(MixedDepthGates::default(), budget, c.num_qubits);
            let (out_m, _) = qexec::with_width(opts.max_threads(), || {
                popqc_core::optimize_layered(&lc, &mixed_arm, &cfg)
            });
            let gates0 = lc.gate_count() as f64;
            let depth0 = lc.depth() as f64;
            acc[0][0] += 1.0 - out_g.gate_count() as f64 / gates0;
            acc[0][1] += 1.0 - out_g.to_circuit().depth() as f64 / depth0;
            acc[1][0] += 1.0 - out_m.gate_count() as f64 / gates0;
            acc[1][1] += 1.0 - out_m.to_circuit().depth() as f64 / depth0;
            count += 1;
        }
        let avg = |a: f64| a / count as f64;
        rows.push(vec![
            family.name().to_string(),
            fmt_pct(avg(acc[0][0])),
            fmt_pct(avg(acc[0][1])),
            fmt_pct(avg(acc[1][0])),
            fmt_pct(avg(acc[1][1])),
        ]);
        records.push(json!({
            "family": family.name(),
            "gate_cost": {"gate_reduction": avg(acc[0][0]), "depth_reduction": avg(acc[0][1])},
            "mixed_cost": {"gate_reduction": avg(acc[1][0]), "depth_reduction": avg(acc[1][1])},
        }));
    }
    print_table(
        &[
            "benchmark",
            "gate-cost: gates",
            "gate-cost: depth",
            "mixed: gates",
            "mixed: depth",
        ],
        &rows,
    );
    dump_json(opts, "fig6", &json!({ "rows": records }));
}

/// Figure 7 (A.1): 1-thread work and oracle-call counts vs circuit size.
pub fn fig7(opts: &Opts) {
    println!(
        "\n=== Figure 7 (A.1): work and #oracle calls vs #gates (1 thread, Ω={}) ===",
        opts.omega
    );
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut sum_calls_per_gate = 0.0;
    let mut count = 0u32;
    for inst in instances(opts) {
        let ((_, stats), dt) = crate::harness::time(|| run_popqc(&inst.circuit, opts.omega, 1));
        let n = inst.circuit.len() as f64;
        sum_calls_per_gate += stats.oracle_calls as f64 / n;
        count += 1;
        rows.push(vec![
            inst.label(),
            inst.circuit.len().to_string(),
            fmt_secs(dt),
            stats.oracle_calls.to_string(),
            format!("{:.4}", stats.oracle_calls as f64 / n),
            format!("{:.2}", dt.as_secs_f64() * 1e6 / n),
        ]);
        records.push(json!({
            "family": inst.family.name(),
            "qubits": inst.qubits,
            "gates": inst.circuit.len(),
            "seconds": dt.as_secs_f64(),
            "oracle_calls": stats.oracle_calls,
        }));
    }
    print_table(
        &[
            "instance",
            "#gates",
            "time(s)",
            "#calls",
            "calls/gate",
            "µs/gate",
        ],
        &rows,
    );
    println!(
        "average oracle calls per gate: {:.4} (paper's fit: 0.02·n; linearity is the claim)",
        sum_calls_per_gate / count as f64
    );
    dump_json(opts, "fig7", &json!({ "rows": records }));
}

/// Figure 8 (A.2): fraction of run time spent inside the oracle.
pub fn fig8(opts: &Opts) {
    println!(
        "\n=== Figure 8 (A.2): fraction of time in the oracle (1 thread, Ω={}) ===",
        opts.omega
    );
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for inst in instances(opts) {
        let (_, stats) = run_popqc(&inst.circuit, opts.omega, 1);
        let frac = stats.oracle_nanos as f64 / stats.total_nanos.max(1) as f64;
        rows.push(vec![
            inst.label(),
            inst.circuit.len().to_string(),
            fmt_pct(frac),
        ]);
        records.push(json!({
            "family": inst.family.name(),
            "qubits": inst.qubits,
            "gates": inst.circuit.len(),
            "oracle_fraction": frac,
        }));
    }
    print_table(&["instance", "#gates", "time in oracle"], &rows);
    dump_json(opts, "fig8", &json!({ "rows": records }));
}

/// Figure 9 (A.3): quality and run time as Ω sweeps 50…800.
pub fn fig9(opts: &Opts) {
    let omegas = [50usize, 100, 200, 400, 800];
    println!("\n=== Figure 9 (A.3): impact of Ω (default marked *) ===");
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for &omega in &omegas {
        let mut red = 0.0;
        let mut secs = 0.0;
        let mut count = 0u32;
        for family in benchgen::Family::PAPER {
            // Mid-size instance (second rung of the ladder).
            let qubits = family.ladder(opts.scale)[1];
            let c = family.generate(qubits, opts.seed);
            let ((_, stats), dt) =
                crate::harness::time(|| run_popqc(&c, omega, opts.max_threads()));
            red += stats.reduction();
            secs += dt.as_secs_f64();
            count += 1;
        }
        let marker = if omega == 200 { "*" } else { "" };
        rows.push(vec![
            format!("{omega}{marker}"),
            fmt_pct(red / count as f64),
            format!("{:.3}", secs / count as f64),
        ]);
        records.push(json!({
            "omega": omega,
            "avg_reduction": red / count as f64,
            "avg_seconds": secs / count as f64,
        }));
    }
    print_table(&["Ω", "avg reduction", "avg time(s)"], &rows);
    dump_json(opts, "fig9", &json!({ "rows": records }));
}
