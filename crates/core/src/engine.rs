//! The POPQC driver (Algorithms 2 and 3).
//!
//! Rounds of: select non-interfering fingers → optimize their 2Ω-segments in
//! parallel (a single `qexec::par_map_range` is the paper's `parmap`) → substitute
//! the results → update the finger set. Terminates when no fingers remain;
//! the potential function `|F| + 2·cost` (Lemma 2) strictly decreases with
//! every oracle call, so termination needs no well-behavedness assumption.
//!
//! The engine is generic over the unit type: `Gate` reproduces the paper's
//! primary gate-sequence mode; `Layer` reproduces the layered/depth-aware
//! mode of Section 7.8.

use crate::fingers::{merge_dedup, select_fingers};
use crate::sparse::{SparseCircuit, Update};
use qcir::{Circuit, Gate, Layer, LayeredCircuit};
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
#[derive(Clone, Copy, Debug)]
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

/// The no-op observer used by the plain entry points.
impl RoundObserver for () {
    #[inline]
    fn on_round(&self, _round: usize, _record: &RoundRecord) {}
}

/// Segment-level cache consulted inside the engine's hot path, *before*
/// each oracle call. A hit replaces the oracle invocation entirely — the
/// cached rewrite is fed through the same acceptance test the oracle's
/// output would face, so hits are recorded as accepted rewrites without
/// an oracle call and `oracle_calls` honestly approaches zero on warm
/// parameter sweeps.
///
/// Implementations own their keying policy (the service keys by segment
/// fingerprint + oracle identity; angle-abstracted when the oracle
/// declares `angle_independent`). The contract the engine relies on:
/// `lookup` returns exactly what the configured oracle's `optimize` would
/// return for this segment — including *non-improving* outputs, which
/// must be cached too or repeated misses re-pay the oracle on every
/// sweep iteration.
///
/// Called from inside the round's `parmap`, so implementations must be
/// cheap and thread-safe.
pub trait SegmentCacheHook<U>: Sync {
    /// Returns the cached oracle output for `segment`, or `None` to fall
    /// through to the oracle.
    fn lookup(&self, segment: &[U], num_qubits: u32) -> Option<Vec<U>>;

    /// Records the oracle's output for `segment` after a miss.
    fn record(&self, segment: &[U], num_qubits: u32, optimized: &[U]);
}

/// The no-op cache used by the plain entry points: never hits, records
/// nothing.
pub struct NoSegmentCache;

impl<U> SegmentCacheHook<U> for NoSegmentCache {
    #[inline]
    fn lookup(&self, _segment: &[U], _num_qubits: u32) -> Option<Vec<U>> {
        None
    }

    #[inline]
    fn record(&self, _segment: &[U], _num_qubits: u32, _optimized: &[U]) {}
}

/// POPQC (Algorithm 2) over an arbitrary unit sequence.
///
/// Returns the optimized unit sequence and run statistics. Deterministic:
/// the result is identical for every `qexec` width.
pub fn popqc_units<U, O>(
    units: Vec<U>,
    num_qubits: u32,
    oracle: &O,
    cfg: &PopqcConfig,
) -> (Vec<U>, PopqcStats)
where
    U: Clone + Send + Sync,
    O: SegmentOracle<U> + ?Sized,
{
    popqc_units_cached(units, num_qubits, oracle, cfg, &(), &NoSegmentCache)
}

/// [`popqc_units`] with a [`RoundObserver`] progress hook and a
/// [`SegmentCacheHook`] consulted before every oracle call.
pub fn popqc_units_cached<U, O, Obs, C>(
    units: Vec<U>,
    num_qubits: u32,
    oracle: &O,
    cfg: &PopqcConfig,
    observer: &Obs,
    cache: &C,
) -> (Vec<U>, PopqcStats)
where
    U: Clone + Send + Sync,
    O: SegmentOracle<U> + ?Sized,
    Obs: RoundObserver + ?Sized,
    C: SegmentCacheHook<U> + ?Sized,
{
    assert!(cfg.omega >= 1, "Ω must be at least 1");
    let t_start = Instant::now();
    let n = units.len();
    let mut stats = PopqcStats {
        initial_units: n,
        ..Default::default()
    };

    // Initialize fingers at every Ω-th slot (physical == logical initially).
    let mut fingers: Vec<usize> = (0..n).step_by(cfg.omega).collect();
    let mut circuit = SparseCircuit::create(units);

    let oracle_nanos = AtomicU64::new(0);
    let calls = AtomicU64::new(0);
    let accepted = AtomicU64::new(0);
    let seg_hits = AtomicU64::new(0);

    while !fingers.is_empty() && stats.rounds < cfg.max_rounds {
        let (selected, remaining) = select_fingers(&circuit, &fingers, cfg.omega);
        let round_accepted = AtomicU64::new(0);

        // The paper's parmap over selected fingers (Algorithm 3 line 3).
        // Minimum chunk 1: every item is an oracle call.
        let results: Vec<(Vec<usize>, Vec<Update<U>>)> =
            qexec::par_map_range(selected.len(), 1, |i| {
                optimize_one_segment(
                    &circuit,
                    selected[i],
                    num_qubits,
                    oracle,
                    cfg.omega,
                    &oracle_nanos,
                    &calls,
                    &round_accepted,
                    cache,
                    &seg_hits,
                )
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

        let ra = round_accepted.load(Relaxed);
        accepted.fetch_add(ra, Relaxed);
        let record = RoundRecord {
            fingers: fingers.len(),
            selected: selected.len(),
            accepted: ra as usize,
        };
        stats.rounds_detail.push(record);
        stats.rounds += 1;
        observer.on_round(stats.rounds, &record);
        fingers = merge_dedup(&remaining, &new_fingers);
    }

    let out = circuit.into_units();
    stats.final_units = out.len();
    stats.oracle_calls = calls.load(Relaxed);
    stats.accepted = accepted.load(Relaxed);
    stats.oracle_nanos = oracle_nanos.load(Relaxed);
    stats.seg_cache_hits = seg_hits.load(Relaxed);
    stats.total_nanos = t_start.elapsed().as_nanos() as u64;
    (out, stats)
}

/// One selected finger's work item (Algorithm 3 lines 4–13): extract the
/// 2Ω-segment around the finger, call the oracle, and on acceptance emit the
/// substitution plus boundary fingers.
#[allow(clippy::too_many_arguments)]
fn optimize_one_segment<U, O, C>(
    circuit: &SparseCircuit<U>,
    finger: usize,
    num_qubits: u32,
    oracle: &O,
    omega: usize,
    oracle_nanos: &AtomicU64,
    calls: &AtomicU64,
    accepted: &AtomicU64,
    cache: &C,
    seg_hits: &AtomicU64,
) -> (Vec<usize>, Vec<Update<U>>)
where
    U: Clone + Send + Sync,
    O: SegmentOracle<U> + ?Sized,
    C: SegmentCacheHook<U> + ?Sized,
{
    let total = circuit.len();
    let pos = circuit.before(finger);
    let start = pos.saturating_sub(omega);
    let end = (pos + omega).min(total);
    if end <= start {
        return (Vec::new(), Vec::new());
    }
    // Segment extraction: one descent, then a walk along the leaves —
    // O(lg n + Ω + gaps·lg n) work, where the per-rank `select` loop paid
    // O(Ω lg n); sequential either way, so the span is unchanged. One rank
    // past the segment is asked for, so the walk also yields the unit
    // after it, the trailing boundary finger (absent iff `end == total`).
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
    let opt = match cache.lookup(&segment, num_qubits) {
        Some(hit) => {
            seg_hits.fetch_add(1, Relaxed);
            hit
        }
        None => {
            let t0 = Instant::now();
            let opt = oracle.optimize(&segment, num_qubits);
            oracle_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
            calls.fetch_add(1, Relaxed);
            cache.record(&segment, num_qubits, &opt);
            opt
        }
    };

    let improved = oracle.cost(&opt) < oracle.cost(&segment) && opt.len() <= segment.len();
    if !improved {
        // Oracle found nothing: drop the finger (Algorithm 3 line 12).
        return (Vec::new(), Vec::new());
    }
    accepted.fetch_add(1, Relaxed);

    // padWithTombstone: surplus slots become tombstones.
    let updates: Vec<Update<U>> = phys
        .iter()
        .enumerate()
        .map(|(k, &p)| (p, opt.get(k).cloned()))
        .collect();

    // Boundary fingers at the segment's first unit and the first unit after
    // it (both as physical indices, stable under the coming substitution).
    let mut new_fingers = vec![phys[0]];
    new_fingers.extend(after);
    (new_fingers, updates)
}

/// Gate-granularity POPQC over a [`Circuit`] (the paper's primary mode).
pub fn optimize_circuit<O: SegmentOracle<Gate> + ?Sized>(
    c: &Circuit,
    oracle: &O,
    cfg: &PopqcConfig,
) -> (Circuit, PopqcStats) {
    optimize_circuit_cached(c, oracle, cfg, &(), &NoSegmentCache)
}

/// [`optimize_circuit`] with a [`RoundObserver`] progress hook and a
/// [`SegmentCacheHook`] consulted before every oracle call.
pub fn optimize_circuit_cached<O, Obs, C>(
    c: &Circuit,
    oracle: &O,
    cfg: &PopqcConfig,
    observer: &Obs,
    cache: &C,
) -> (Circuit, PopqcStats)
where
    O: SegmentOracle<Gate> + ?Sized,
    Obs: RoundObserver + ?Sized,
    C: SegmentCacheHook<Gate> + ?Sized,
{
    let (gates, stats) =
        popqc_units_cached(c.gates.clone(), c.num_qubits, oracle, cfg, observer, cache);
    (
        Circuit {
            num_qubits: c.num_qubits,
            gates,
        },
        stats,
    )
}

/// Layer-granularity POPQC over a [`LayeredCircuit`] (Section 7.8 mode).
pub fn optimize_layered<O: SegmentOracle<Layer> + ?Sized>(
    lc: &LayeredCircuit,
    oracle: &O,
    cfg: &PopqcConfig,
) -> (LayeredCircuit, PopqcStats) {
    let (layers, stats) = popqc_units(lc.layers.clone(), lc.num_qubits, oracle, cfg);
    (
        LayeredCircuit {
            num_qubits: lc.num_qubits,
            layers,
        },
        stats,
    )
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
