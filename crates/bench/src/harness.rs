//! Shared experiment plumbing: options, instances, pools, timing, tables.

use benchgen::Family;
use qcir::Circuit;
use std::time::{Duration, Instant};

/// Options shared by all experiments (parsed from the CLI).
#[derive(Clone, Debug)]
pub struct Opts {
    /// Size ladder shift: 0 = laptop scale, higher approaches paper scale.
    pub scale: u32,
    /// Generator seed.
    pub seed: u64,
    /// POPQC segment size Ω (paper default 200).
    pub omega: usize,
    /// Thread counts for scaling experiments (default `1..=ncores`).
    pub threads: Vec<usize>,
    /// Baseline timeout (the paper uses 24 h; we default to 120 s).
    pub timeout: Duration,
    /// Directory for JSON result dumps.
    pub out_dir: std::path::PathBuf,
}

impl Default for Opts {
    fn default() -> Self {
        let ncores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut threads: Vec<usize> = vec![1];
        let mut t = 2;
        while t <= ncores {
            threads.push(t);
            t *= 2;
        }
        if *threads.last().unwrap() != ncores {
            threads.push(ncores);
        }
        Opts {
            scale: 0,
            seed: 42,
            omega: 200,
            threads,
            timeout: Duration::from_secs(120),
            out_dir: std::path::PathBuf::from("target/experiments"),
        }
    }
}

impl Opts {
    /// Largest configured thread count.
    pub fn max_threads(&self) -> usize {
        *self.threads.iter().max().unwrap_or(&1)
    }
}

/// One benchmark instance.
pub struct Instance {
    /// The benchmark family.
    pub family: Family,
    /// Circuit width.
    pub qubits: u32,
    /// The generated circuit.
    pub circuit: Circuit,
}

impl Instance {
    /// `"BoolSat"`-style label.
    pub fn label(&self) -> String {
        format!("{}-{}", self.family.name(), self.qubits)
    }
}

/// The paper's full 8×4 instance grid at the given scale (the `Skewed`
/// executor workload is deliberately excluded — it has no paper
/// counterpart).
pub fn instances(opts: &Opts) -> Vec<Instance> {
    Family::PAPER
        .iter()
        .flat_map(|&family| {
            family
                .ladder(opts.scale)
                .into_iter()
                .map(move |qubits| (family, qubits))
        })
        .map(|(family, qubits)| Instance {
            family,
            qubits,
            circuit: family.generate(qubits, opts.seed),
        })
        .collect()
}

/// Smallest and largest instance per family (Figure 4's pairs).
pub fn extreme_instances(opts: &Opts) -> Vec<(Instance, Instance)> {
    Family::PAPER
        .iter()
        .map(|&family| {
            let ladder = family.ladder(opts.scale);
            let small = ladder[0];
            let large = ladder[3];
            (
                Instance {
                    family,
                    qubits: small,
                    circuit: family.generate(small, opts.seed),
                },
                Instance {
                    family,
                    qubits: large,
                    circuit: family.generate(large, opts.seed),
                },
            )
        })
        .collect()
}

/// Wall-clock timing.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed())
}

/// Fixed-width table printer. `widths` are minimum column widths; columns
/// are left-aligned except numeric-looking cells, which align right.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            let w = widths.get(i).copied().unwrap_or(0);
            let numeric = cell
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '≥' || c == 'N');
            if numeric {
                s.push_str(&format!("{cell:>w$}"));
            } else {
                s.push_str(&format!("{cell:<w$}"));
            }
        }
        println!("{s}");
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        line(row.clone());
    }
}

/// Formats a duration in seconds with sensible precision.
pub fn fmt_secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 0.01 {
        format!("{:.4}", s)
    } else if s < 1.0 {
        format!("{:.3}", s)
    } else {
        format!("{:.2}", s)
    }
}

/// Percent formatting.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Writes a JSON value under `out_dir/<name>.json`.
pub fn dump_json(opts: &Opts, name: &str, value: &serde_json::Value) {
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("warn: cannot create {}: {e}", opts.out_dir.display());
        return;
    }
    let path = opts.out_dir.join(format!("{name}.json"));
    match std::fs::write(&path, serde_json::to_string_pretty(value).unwrap()) {
        Ok(()) => println!("[results written to {}]", path.display()),
        Err(e) => eprintln!("warn: cannot write {}: {e}", path.display()),
    }
}
