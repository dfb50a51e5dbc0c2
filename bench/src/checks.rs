//! Output checks, run outside every timed region. A failed check fails
//! the op it belongs to and the run's `correct` flag.
//!
//! * output gates ≤ input gates;
//! * unitary equivalence (`qsim`) for instances of at most 12 qubits —
//!   4096 amplitudes stay under `qsim`'s parallel threshold;
//! * the same input gives the same output fingerprint every time it is
//!   seen in a run (across passes, servers and engine widths);
//! * output fingerprint and gate count equal to `bench/golden.json` for
//!   every instance recorded there (the default seed's).
//!
//! Local optimality (Theorem 7: no Ω-window of the output is improvable
//! by the oracle that produced it) is sampled too, but counted rather
//! than failed: the seed's engine leaves a few improvable windows behind
//! (28 of 105 957 on the laptop ladder, all in `Sqrt`), and a check the
//! seed cannot pass is not a check. The count is reported with every run
//! and as `core.engine.improvable_window_share`.
//!
//! A run has seconds, not minutes, for checking, so equivalence and
//! window sampling draw on a per-run budget; `ledger golden` verifies
//! every instance without one when it captures the file.

use crate::corpus::{Instance, Rng, OMEGA};
use crate::layers::{self, Circuit, Oracle};
use std::collections::{BTreeMap, HashMap};

pub const GOLDEN_PATH: &str = "bench/golden.json";
const EQUIVALENCE_MAX_QUBITS: u32 = 12;

/// `key -> (input gates, output gates, output fingerprint)`.
#[derive(Default)]
pub struct Golden(BTreeMap<String, (u64, u64, String)>);

fn golden_key(oracle_id: &str, inst: &Instance) -> String {
    format!("{oracle_id}/{}", inst.key())
}

impl Golden {
    pub fn load() -> Result<Golden, String> {
        let text = std::fs::read_to_string(GOLDEN_PATH)
            .map_err(|e| format!("cannot read {GOLDEN_PATH}: {e}"))?;
        let doc = serde_json::from_str(&text).map_err(|e| format!("{GOLDEN_PATH}: {e}"))?;
        let mut map = BTreeMap::new();
        let serde_json::Value::Object(entries) = doc
            .get("entries")
            .ok_or_else(|| format!("{GOLDEN_PATH}: no `entries`"))?
        else {
            return Err(format!("{GOLDEN_PATH}: `entries` is not an object"));
        };
        for (key, v) in entries {
            let row = v.as_array().filter(|r| r.len() == 3);
            let parsed = row
                .and_then(|r| Some((r[0].as_u64()?, r[1].as_u64()?, r[2].as_str()?.to_string())));
            map.insert(
                key.clone(),
                parsed.ok_or_else(|| format!("{GOLDEN_PATH}: malformed entry `{key}`"))?,
            );
        }
        Ok(Golden(map))
    }

    pub fn insert(&mut self, oracle_id: &str, inst: &Instance, input: &Circuit, output: &Circuit) {
        self.0.insert(
            golden_key(oracle_id, inst),
            (
                layers::gates(input) as u64,
                layers::gates(output) as u64,
                format!("{:032x}", layers::fingerprint(output)),
            ),
        );
    }

    pub fn to_json(&self, seed: u64) -> String {
        // One entry per line, so a refresh diffs instance by instance.
        let entries: Vec<String> = self
            .0
            .iter()
            .map(|(k, (i, o, fp))| format!("    \"{k}\": [{i}, {o}, \"{fp}\"]"))
            .collect();
        format!(
            "{{\n  \"seed\": {seed},\n  \"omega\": {OMEGA},\n  \"entries\": {{\n{}\n  }}\n}}\n",
            entries.join(",\n")
        )
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// How much checking one run may spend.
#[derive(Clone, Copy)]
pub struct Budget {
    /// Oracle calls on sampled Ω-windows, over the whole run.
    pub windows: usize,
    /// Equivalence simulation work, over the whole run, in gate
    /// applications times amplitudes (about half a nanosecond each).
    pub equivalence: u64,
}

impl Budget {
    pub const RUN: Budget = Budget {
        windows: 4000,
        equivalence: 300_000_000,
    };
    pub const UNLIMITED: Budget = Budget {
        windows: usize::MAX,
        equivalence: u64::MAX,
    };
}

pub struct Checker {
    golden: Golden,
    budget: Budget,
    /// How many distinct outputs the window budget is spread over.
    expected_outputs: usize,
    rng: Rng,
    seen: HashMap<String, (usize, u128)>,
    pub golden_matched: usize,
    pub equivalence_checked: usize,
    pub windows_checked: usize,
    /// Sampled Ω-windows the oracle could still improve.
    pub windows_improvable: usize,
    pub failures: Vec<String>,
}

impl Checker {
    pub fn new(golden: Golden, budget: Budget, expected_outputs: usize, seed: u64) -> Checker {
        Checker {
            golden,
            budget,
            expected_outputs: expected_outputs.max(1),
            rng: Rng::new(seed, "checks"),
            seen: HashMap::new(),
            golden_matched: 0,
            equivalence_checked: 0,
            windows_checked: 0,
            windows_improvable: 0,
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, inst: &Instance, what: String) -> bool {
        self.failures.push(format!("{}: {what}", inst.key()));
        false
    }

    /// Checks one output; `false` fails the op. The first output seen for
    /// an instance gets the full treatment, later ones must equal it.
    pub fn check(
        &mut self,
        oracle: &Oracle,
        inst: &Instance,
        input: &Circuit,
        output: &Circuit,
    ) -> bool {
        let out_gates = layers::gates(output);
        let fp = layers::fingerprint(output);
        let key = golden_key(oracle.id, inst);
        if let Some(&(gates0, fp0)) = self.seen.get(&key) {
            if (gates0, fp0) != (out_gates, fp) {
                return self.fail(
                    inst,
                    format!("output changed between ops: {gates0} gates {fp0:032x} then {out_gates} gates {fp:032x}"),
                );
            }
            return true;
        }
        self.seen.insert(key.clone(), (out_gates, fp));

        let in_gates = layers::gates(input);
        if out_gates > in_gates {
            return self.fail(
                inst,
                format!("output grew: {in_gates} -> {out_gates} gates"),
            );
        }
        if let Some((g_in, g_out, g_fp)) = self.golden.0.get(&key).cloned() {
            let got = (in_gates as u64, out_gates as u64, format!("{fp:032x}"));
            if got != (g_in, g_out, g_fp.clone()) {
                return self.fail(
                    inst,
                    format!("differs from {GOLDEN_PATH}: expected {g_in} -> {g_out} gates {g_fp}, got {} -> {} gates {}", got.0, got.1, got.2),
                );
            }
            self.golden_matched += 1;
        }
        let work = ((in_gates + out_gates) as u64) << layers::qubits(input).min(63);
        if layers::qubits(input) <= EQUIVALENCE_MAX_QUBITS && work <= self.budget.equivalence {
            self.budget.equivalence -= work;
            self.equivalence_checked += 1;
            if !layers::equivalent(input, output, self.rng.next_u64()) {
                return self.fail(inst, "output is not equivalent to its input".to_string());
            }
        }
        self.sample_local_optimality(oracle, output);
        true
    }

    /// Every Ω-window for outputs of at most 10 k gates and a seeded
    /// 2000-window sample above, capped by the run's window budget.
    fn sample_local_optimality(&mut self, oracle: &Oracle, output: &Circuit) {
        let n = layers::gates(output);
        if n < 2 {
            return;
        }
        let windows = n.saturating_sub(OMEGA - 1).max(1);
        let thorough = if n <= 10_000 { windows } else { 2000 };
        let share = (self.budget.windows / self.expected_outputs).max(8);
        let take = thorough.min(share);
        for i in 0..take {
            let start = if take == windows {
                i
            } else {
                self.rng.below(windows)
            };
            self.windows_checked += 1;
            self.windows_improvable += oracle.call(output, start, OMEGA).1 as usize;
        }
    }
}
