//! The POPQC driver (Algorithms 2 and 3).
//!
//! Rounds of: select non-interfering fingers → optimize their 2Ω-segments in
//! parallel (a single `qexec::par_map_range` is the paper's `parmap`) → substitute
//! the results → update the finger set. Terminates when no fingers remain;
//! the potential function `|F| + 2·cost` (Lemma 2) strictly decreases with
//! every oracle call, so termination needs no well-behavedness assumption.
//!
//! [`Engine::run`] is the one driver. It is generic over the unit type:
//! `Gate` reproduces the paper's primary gate-sequence mode; `Layer`
//! reproduces the layered/depth-aware mode of Section 7.8.
//! [`optimize_circuit`] is its shorthand for a [`Circuit`].

use crate::fingers::{merge_dedup, select_fingers};
use crate::sparse::{SparseCircuit, Update};
use qcir::{Circuit, Gate};
use qoracle::SegmentOracle;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// POPQC parameters.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PopqcConfig {
    /// The local-optimality radius Ω (the paper's default is 200).
    pub omega: usize,
    /// Safety valve on rounds; termination is guaranteed anyway, so the
    /// default is effectively unbounded.
    pub max_rounds: usize,
}

impl Default for PopqcConfig {
    fn default() -> Self {
        PopqcConfig {
            omega: 200,
            max_rounds: usize::MAX,
        }
    }
}

impl PopqcConfig {
    /// Config with a given Ω and unbounded rounds.
    pub fn with_omega(omega: usize) -> PopqcConfig {
        PopqcConfig {
            omega,
            ..Default::default()
        }
    }
}

/// Per-round accounting (drives Figures 4 and 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundRecord {
    /// Fingers alive at the start of the round.
    pub fingers: usize,
    /// Fingers selected (= oracle calls this round).
    pub selected: usize,
    /// Oracle calls whose result was accepted.
    pub accepted: usize,
}

/// Run statistics (drives Tables 1–3 and Figures 3–5, 7, 8).
#[derive(Clone, Debug, Default)]
pub struct PopqcStats {
    /// Number of rounds executed (outer-loop iterations).
    pub rounds: usize,
    /// Total oracle invocations.
    pub oracle_calls: u64,
    /// Oracle invocations whose output was accepted.
    pub accepted: u64,
    /// Summed wall-clock time inside the oracle across all calls
    /// (exceeds elapsed time when calls run in parallel).
    pub oracle_nanos: u64,
    /// End-to-end wall-clock time of the run.
    pub total_nanos: u64,
    /// Unit count before optimization.
    pub initial_units: usize,
    /// Unit count after optimization.
    pub final_units: usize,
    /// Segment-cache hits: segments whose rewrite was served by a
    /// [`SegmentCacheHook`] without invoking the oracle. Disjoint from
    /// `oracle_calls` — a segment either hits the cache or reaches the
    /// oracle, never both.
    pub seg_cache_hits: u64,
    /// Per-round breakdown.
    pub rounds_detail: Vec<RoundRecord>,
}

impl PopqcStats {
    /// Gate/unit reduction as a fraction of the input size.
    pub fn reduction(&self) -> f64 {
        if self.initial_units == 0 {
            0.0
        } else {
            1.0 - self.final_units as f64 / self.initial_units as f64
        }
    }
}

/// Observer notified as an optimization run progresses — the hook the batch
/// service (and any future UI) uses to surface live per-job progress
/// without touching the engine's hot path.
///
/// Called once per round, after the round's substitutions land, from the
/// driving thread. Implementations should be cheap; the engine blocks on
/// them.
pub trait RoundObserver: Sync {
    fn on_round(&self, round: usize, record: &RoundRecord);
}

/// Segment-level cache consulted inside the engine's hot path, *before*
/// each oracle call. A hit replaces the oracle invocation entirely — the
/// cached rewrite is fed through the same acceptance test the oracle's
/// output would face, so hits are recorded as accepted rewrites without
/// an oracle call and `oracle_calls` honestly approaches zero on warm
/// parameter sweeps.
///
/// Implementations own their keying policy (the service keys by
/// angle-abstracted segment fingerprint + oracle identity, and so serves
/// only oracles that declare `angle_independent`). The contract the
/// engine relies on:
/// `lookup` returns exactly what the configured oracle's `optimize` would
/// return for this segment — [`CachedSegment::Unchanged`] when that
/// output is the segment itself, [`CachedSegment::Rewrite`] with the
/// output otherwise. *Non-improving* outputs must be cached too, or
/// repeated misses re-pay the oracle on every sweep iteration; the
/// unchanged answer, the common one, needs no gates stored or copied.
///
/// Called from inside the round's `parmap`, so implementations must be
/// cheap and thread-safe.
pub trait SegmentCacheHook<U>: Sync {
    /// Returns the cached oracle answer for `segment`, or `None` to fall
    /// through to the oracle.
    fn lookup(&self, segment: &[U], num_qubits: u32) -> Option<CachedSegment<U>>;

    /// Records the oracle's output for `segment` after a miss.
    fn record(&self, segment: &[U], num_qubits: u32, optimized: &[U]);
}

/// A [`SegmentCacheHook`] hit: what the oracle answers for the segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CachedSegment<U> {
    /// The oracle's output, which differs from the segment.
    Rewrite(Vec<U>),
    /// The oracle returns the segment unchanged: the engine drops the
    /// finger (Algorithm 3 line 12) without copying or costing anything.
    Unchanged,
}

/// The POPQC driver (Algorithm 2) over an arbitrary unit sequence: the
/// oracle, the config and the two optional hooks. Build one with
/// [`Engine::new`] and set `observer`/`cache` as needed; [`Engine::run`]
/// drives the rounds.
pub struct Engine<'a, U, O: ?Sized> {
    /// The segment optimizer (Algorithm 3's oracle).
    pub oracle: &'a O,
    /// Ω and the round cap.
    pub config: PopqcConfig,
    /// Notified after every round.
    pub observer: Option<&'a dyn RoundObserver>,
    /// Consulted before every oracle call.
    pub cache: Option<&'a dyn SegmentCacheHook<U>>,
}

impl<'a, U, O> Engine<'a, U, O>
where
    U: Clone + Send + Sync,
    O: SegmentOracle<U> + ?Sized,
{
    /// An engine with no observer and no segment cache.
    pub fn new(oracle: &'a O, config: PopqcConfig) -> Self {
        Engine {
            oracle,
            config,
            observer: None,
            cache: None,
        }
    }

    /// Optimizes `units` (`Gate`s for the paper's primary mode, `Layer`s
    /// for the Section 7.8 mode). Returns the optimized sequence and run
    /// statistics. Deterministic: the result is identical for every
    /// `qexec` width.
    pub fn run(&self, units: Vec<U>, num_qubits: u32) -> (Vec<U>, PopqcStats) {
        let omega = self.config.omega;
        assert!(omega >= 1, "Ω must be at least 1");
        let t_start = Instant::now();
        let n = units.len();
        let mut stats = PopqcStats {
            initial_units: n,
            ..Default::default()
        };

        // Initialize fingers at every Ω-th slot (physical == logical initially).
        let mut fingers: Vec<usize> = (0..n).step_by(omega).collect();
        let mut circuit = SparseCircuit::create(units);
        let run = Run {
            engine: self,
            num_qubits,
            oracle_nanos: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            seg_hits: AtomicU64::new(0),
        };

        while !fingers.is_empty() && stats.rounds < self.config.max_rounds {
            let (selected, remaining) = select_fingers(&circuit, &fingers, omega);

            // The paper's parmap over selected fingers (Algorithm 3 line 3).
            // Minimum chunk 1: every item is an oracle call.
            let results: Vec<(Vec<usize>, Vec<Update<U>>)> =
                qexec::par_map_range(selected.len(), 1, |i| {
                    run.optimize_one_segment(&circuit, selected[i])
                });

            // Flatten preserving order: selected fingers ascend and their
            // segments are disjoint, so both lists arrive sorted.
            let mut new_fingers = Vec::new();
            let mut updates = Vec::new();
            for (nf, up) in results {
                new_fingers.extend(nf);
                updates.extend(up);
            }
            circuit.substitute(updates);

            let round_accepted = run.accepted.swap(0, Relaxed);
            stats.accepted += round_accepted;
            let record = RoundRecord {
                fingers: fingers.len(),
                selected: selected.len(),
                accepted: round_accepted as usize,
            };
            stats.rounds_detail.push(record);
            stats.rounds += 1;
            if let Some(observer) = self.observer {
                observer.on_round(stats.rounds, &record);
            }
            fingers = merge_dedup(&remaining, &new_fingers);
        }

        let out = circuit.into_units();
        stats.final_units = out.len();
        stats.oracle_calls = run.calls.into_inner();
        stats.oracle_nanos = run.oracle_nanos.into_inner();
        stats.seg_cache_hits = run.seg_hits.into_inner();
        stats.total_nanos = t_start.elapsed().as_nanos() as u64;
        (out, stats)
    }
}

/// One [`Engine::run`]'s shared state: the engine and the counters its
/// parallel segment tasks add to.
struct Run<'e, 'a, U, O: ?Sized> {
    engine: &'e Engine<'a, U, O>,
    num_qubits: u32,
    oracle_nanos: AtomicU64,
    calls: AtomicU64,
    /// This round's accepted rewrites; the driver takes it at round end.
    accepted: AtomicU64,
    seg_hits: AtomicU64,
}

impl<U, O> Run<'_, '_, U, O>
where
    U: Clone + Send + Sync,
    O: SegmentOracle<U> + ?Sized,
{
    /// One selected finger's work item (Algorithm 3 lines 4–13): extract
    /// the 2Ω-segment around the finger, call the oracle, and on
    /// acceptance emit the substitution plus boundary fingers.
    fn optimize_one_segment(
        &self,
        circuit: &SparseCircuit<U>,
        finger: usize,
    ) -> (Vec<usize>, Vec<Update<U>>) {
        let Engine { oracle, cache, .. } = *self.engine;
        let omega = self.engine.config.omega;
        let num_qubits = self.num_qubits;
        let total = circuit.len();
        let pos = circuit.before(finger);
        let start = pos.saturating_sub(omega);
        let end = (pos + omega).min(total);
        if end <= start {
            return (Vec::new(), Vec::new());
        }
        // Segment extraction: one descent, then a walk along the leaves —
        // O(lg n + Ω + gaps·lg n) work, where the per-rank `select` loop
        // paid O(Ω lg n); sequential either way, so the span is unchanged.
        // One rank past the segment is asked for, so the walk also yields
        // the unit after it, the trailing boundary finger (absent iff
        // `end == total`).
        let mut phys = Vec::with_capacity(end - start + 1);
        circuit.select_run(start, end - start + 1, &mut phys);
        let after = if end < total { phys.pop() } else { None };
        debug_assert_eq!(phys.len(), end - start);
        let segment: Vec<U> = phys
            .iter()
            .map(|&p| circuit.slot(p).expect("live slot").clone())
            .collect();

        // Segment cache first: a hit replaces the oracle call entirely (the
        // cached rewrite still faces the acceptance test below, so hits on
        // improving rewrites count as accepted — without an oracle call).
        let opt = match cache.and_then(|c| c.lookup(&segment, num_qubits)) {
            Some(hit) => {
                self.seg_hits.fetch_add(1, Relaxed);
                match hit {
                    CachedSegment::Rewrite(gates) => gates,
                    // Nothing to do here: drop the finger (Algorithm 3 line 12).
                    CachedSegment::Unchanged => return (Vec::new(), Vec::new()),
                }
            }
            None => {
                let t0 = Instant::now();
                let opt = oracle.optimize(&segment, num_qubits);
                self.oracle_nanos
                    .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
                self.calls.fetch_add(1, Relaxed);
                if let Some(cache) = cache {
                    cache.record(&segment, num_qubits, &opt);
                }
                opt
            }
        };

        let improved = oracle.cost(&opt) < oracle.cost(&segment) && opt.len() <= segment.len();
        if !improved {
            // Oracle found nothing: drop the finger (Algorithm 3 line 12).
            return (Vec::new(), Vec::new());
        }
        self.accepted.fetch_add(1, Relaxed);

        // padWithTombstone: surplus slots become tombstones.
        let updates: Vec<Update<U>> = phys
            .iter()
            .enumerate()
            .map(|(k, &p)| (p, opt.get(k).cloned()))
            .collect();

        // Boundary fingers at the segment's first unit and the first unit
        // after it (both as physical indices, stable under the coming
        // substitution).
        let mut new_fingers = vec![phys[0]];
        new_fingers.extend(after);
        (new_fingers, updates)
    }
}

/// Gate-granularity POPQC over a [`Circuit`] (the paper's primary mode):
/// [`Engine::run`] over the circuit's gates.
pub fn optimize_circuit<O: SegmentOracle<Gate> + ?Sized>(
    c: &Circuit,
    oracle: &O,
    cfg: &PopqcConfig,
) -> (Circuit, PopqcStats) {
    let (gates, stats) = Engine::new(oracle, cfg.clone()).run(c.gates.clone(), c.num_qubits);
    let num_qubits = c.num_qubits;
    (Circuit { num_qubits, gates }, stats)
}

/// Checks the paper's local-optimality guarantee (Theorem 7) directly: every
/// Ω-window of `units` must not be improvable by the oracle. Returns the
/// first improvable window's start on failure. O(n·Ω·W) — test-sized inputs
/// only.
pub fn verify_local_optimality<U, O>(
    units: &[U],
    num_qubits: u32,
    oracle: &O,
    omega: usize,
) -> Result<(), usize>
where
    U: Clone + Send + Sync,
    O: SegmentOracle<U> + ?Sized,
{
    assert!(omega >= 1, "Ω must be at least 1");
    if units.len() < 2 {
        return Ok(());
    }
    let windows = units.len().saturating_sub(omega - 1).max(1);
    for start in 0..windows {
        let window = &units[start..(start + omega).min(units.len())];
        let opt = oracle.optimize(window, num_qubits);
        if oracle.cost(&opt) < oracle.cost(window) && opt.len() <= window.len() {
            return Err(start);
        }
    }
    Ok(())
}
