//! Segment-level incremental caching for parameterized workloads.
//!
//! The result store memoizes *whole jobs* by whole-circuit fingerprint, so
//! a variational client (VQE/QAOA) resubmitting the same ansatz with fresh
//! angles every iteration misses 100% of the time — while the oracle
//! re-derives identical rewrites on every structurally-unchanged
//! 2Ω-segment. This module memoizes one level down: a bounded,
//! sharded-LRU cache of *segment* rewrites (the [`SegmentCacheLayer`]),
//! adapted per job into the engine's [`popqc_core::SegmentCacheHook`] so
//! hits replace oracle calls in the hot path itself.
//!
//! # Keying
//!
//! Every entry is keyed by `(angle-abstracted segment fingerprint,
//! registry oracle id)` ([`fingerprint_gates_abstract`]) and stores a
//! [`SegTemplate`]: the rewrite with every surviving rotation recorded as
//! *input slot i, possibly negated* instead of a concrete angle. One
//! derived template then serves every angle assignment of the same
//! skeleton — the whole parameter sweep.
//!
//! An abstract key is sound only for an oracle that treats every angle
//! alike, so the cache serves only oracles that declare
//! [`SegmentOracle::angle_independent`] (e.g. `structural`). For any
//! other oracle [`SegmentCacheLayer::for_job`] returns a hook that never
//! answers and never stores: such a job hashes no segment, takes no shard
//! lock and moves no counter.
//!
//! The key is `qcir`'s *in-process* hash, not the persisted
//! [`qcir::fingerprint_gates`] the result store uses: segment keys never
//! leave the process, and a miss hashes its segment twice (in `lookup`
//! and `record`), so they trade cross-build stability for speed: one
//! folded multiply per gate and lane. It is as wide (128 bits) as the
//! persisted one and exact up to angles, which matters because a hit is
//! never checked against the segment. A [`SegKey`] hashes as its
//! fingerprint's low 64 bits alone, so picking a shard and probing its
//! map reads one word.
//!
//! # Template soundness
//!
//! A template is derived by re-running the oracle on a *marker* copy of
//! the segment in which rotation `i` carries the angle
//! `π/(MARKER_BASE + i)` — denominators far above what the generators and
//! decimal angles produce, so each surviving output rotation identifies its
//! input slot (and whether the oracle negated it) by inspection. The
//! derivation is then **verified**: the template is materialized with the
//! original segment's angles and must reproduce the oracle's concrete
//! output byte for byte, else the derivation is discarded and nothing is
//! stored. A mis-declared `angle_independent` oracle therefore costs
//! derivation calls but never serves a wrong rewrite.
//!
//! Non-improving outputs are cached too (negative caching): the engine
//! re-examines boundary segments every run, and without negative entries
//! a warm sweep would re-pay the oracle for every "nothing to do here"
//! answer. The commonest of them, "the oracle returned its input", is
//! stored as [`SegEntry::Unchanged`], which holds no gates, and answered
//! as [`CachedSegment::Unchanged`], on which the engine drops the finger
//! without copying the segment. It is stored when the derived template
//! maps every position to itself ([`SegTemplate::is_identity`]), decided
//! on the template's structure, never on angle values: a template that
//! swaps two equal angles, or negates an `RZ(π)`, reproduces its input on
//! those angles only, and stays a template.

use crate::cache::ShardedLruCache;
use crate::metrics;
use popqc_core::CachedSegment;
use qcir::{fingerprint_gates_abstract, Angle, Fingerprint, Gate};
use qoracle::SegmentOracle;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Marker denominators start here — far above what benchgen emits (2¹²)
/// and what a decimal QASM angle snaps to (2²⁰). An input angle that
/// happens to equal a marker (QASM reads integer spellings such as
/// `pi/1073741824` exactly) cannot confuse a derivation: the marker copy
/// replaces every input angle, and the verification replay checks the
/// template against the concrete run.
pub const MARKER_BASE: i64 = 1 << 30;

/// A segment-cache key: the segment's angle-abstracted fingerprint plus
/// the registry oracle id, so two oracles never share rewrites even on
/// identical segments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegKey {
    /// In-process key over `(num_qubits, gates)` with rotation angles
    /// erased ([`fingerprint_gates_abstract`]).
    pub fingerprint: Fingerprint,
    /// The registry id the rewrite was derived under, shared by every key
    /// one [`JobSegmentCache`] builds.
    pub oracle_id: Arc<str>,
}

/// Hashes the fingerprint's low 64 bits alone: they are already a
/// uniform hash, and keys that differ only in `oracle_id` (which `Eq`
/// still compares) just share a bucket.
impl Hash for SegKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint.0 as u64);
    }
}

/// One gate of a [`SegTemplate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TemplateGate {
    /// A gate carried into the output verbatim (everything but `RZ`).
    Fixed(Gate),
    /// The rotation from input slot `slot` (the `slot`-th `RZ` of the
    /// segment, in order), on `qubit`, negated if the oracle flipped it.
    Rot {
        /// Output wire of the rotation.
        qubit: u32,
        /// Index into the input segment's rotations, in segment order.
        slot: usize,
        /// Whether the oracle emitted the slot's angle negated.
        negated: bool,
    },
}

/// An angle-abstracted segment rewrite: the oracle's output with every
/// surviving rotation recorded by *input slot* instead of concrete angle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegTemplate {
    /// Output gates, rotations by reference into the input.
    pub gates: Vec<TemplateGate>,
    /// Number of rotations the input segment carries (= valid slots).
    pub slots: usize,
}

impl SegTemplate {
    /// Instantiates the template on a concrete rotation-angle assignment
    /// (the input segment's `RZ` angles, in order). `None` if the
    /// assignment has the wrong arity — callers treat that as a miss.
    pub fn materialize(&self, angles: &[Angle]) -> Option<Vec<Gate>> {
        if angles.len() != self.slots {
            return None;
        }
        self.gates
            .iter()
            .map(|tg| match *tg {
                TemplateGate::Fixed(g) => Some(g),
                TemplateGate::Rot {
                    qubit,
                    slot,
                    negated,
                } => {
                    let a = *angles.get(slot)?;
                    Some(Gate::Rz(qubit, if negated { a.neg() } else { a }))
                }
            })
            .collect()
    }

    /// Whether the template maps every position of `segment` to itself:
    /// each `Fixed` gate is the input gate and each `Rot` is the k-th
    /// rotation's own slot, not negated, on its own wire. Decided on
    /// structure alone, so it holds for every angle assignment of the
    /// skeleton — a swap of two equal angles or a negated `RZ(π)` is not
    /// an identity even though it reproduces its input.
    pub fn is_identity(&self, segment: &[Gate]) -> bool {
        if self.gates.len() != segment.len() {
            return false;
        }
        let mut k = 0;
        let positions_fixed = self
            .gates
            .iter()
            .zip(segment)
            .all(|(tg, g)| match (tg, *g) {
                (TemplateGate::Fixed(f), g) => *f == g && !matches!(g, Gate::Rz(..)),
                (
                    &TemplateGate::Rot {
                        qubit,
                        slot,
                        negated,
                    },
                    Gate::Rz(q, _),
                ) => {
                    k += 1;
                    !negated && slot == k - 1 && qubit == q
                }
                (TemplateGate::Rot { .. }, _) => false,
            });
        positions_fixed && k == self.slots
    }
}

/// A cached segment answer: a template, or "unchanged".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SegEntry {
    /// An angle-abstracted rewrite (see [`SegTemplate`]).
    Template(SegTemplate),
    /// The oracle returns its input: the template is an identity
    /// ([`SegTemplate::is_identity`]). Holds no gates.
    Unchanged,
}

/// The rotation angles of `segment`, in order — a template's slot space.
pub fn rotation_angles(segment: &[Gate]) -> Vec<Angle> {
    segment
        .iter()
        .filter_map(|g| match *g {
            Gate::Rz(_, a) => Some(a),
            _ => None,
        })
        .collect()
}

/// Derives (and verifies) an angle-abstracted template for
/// `oracle.optimize(segment)`, whose concrete output is `concrete_out`.
///
/// Costs one extra oracle call (on the marker copy). Returns `None` — and
/// the caller stores nothing — whenever the oracle's behaviour
/// cannot be expressed as a pure slot mapping: it synthesized a rotation
/// that is neither a slot copy nor a slot negation, or the verification
/// replay fails to reproduce `concrete_out` byte for byte.
pub fn derive_template(
    oracle: &dyn SegmentOracle<Gate>,
    segment: &[Gate],
    num_qubits: u32,
    concrete_out: &[Gate],
) -> Option<SegTemplate> {
    let mut slots = 0usize;
    let marker_segment: Vec<Gate> = segment
        .iter()
        .map(|g| match *g {
            Gate::Rz(q, _) => {
                let marker = Angle::pi_frac(1, MARKER_BASE + slots as i64);
                slots += 1;
                Gate::Rz(q, marker)
            }
            other => other,
        })
        .collect();

    let marker_out = oracle.optimize(&marker_segment, num_qubits);
    let gates: Option<Vec<TemplateGate>> = marker_out
        .iter()
        .map(|g| match *g {
            Gate::Rz(q, a) => {
                let den = a.denominator();
                let slot = usize::try_from(den.checked_sub(MARKER_BASE)?).ok()?;
                if slot >= slots {
                    return None;
                }
                // Canonical form puts a negated marker at (2·den − 1)/den.
                let negated = match a.numerator() {
                    1 => false,
                    n if n == 2 * den - 1 => true,
                    _ => return None,
                };
                Some(TemplateGate::Rot {
                    qubit: q,
                    slot,
                    negated,
                })
            }
            other => Some(TemplateGate::Fixed(other)),
        })
        .collect();
    let template = SegTemplate {
        gates: gates?,
        slots,
    };

    // Verification replay: the template instantiated on the original
    // angles must reproduce the concrete run exactly. This is what keeps
    // a lying `angle_independent` declaration from ever serving a wrong
    // rewrite — the segment just stays uncached.
    if template.materialize(&rotation_angles(segment)).as_deref() != Some(concrete_out) {
        return None;
    }
    Some(template)
}

/// The service-owned segment cache: a bounded [`ShardedLruCache`] of
/// segment entries plus hit/miss accounting (one count per engine lookup;
/// evictions are the cache's own count).
pub struct SegmentCacheLayer {
    /// `None` when `capacity == 0`: every hook call is a cheap no-op.
    cache: Option<ShardedLruCache<SegKey, SegEntry>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SegmentCacheLayer {
    /// `capacity` total entries split over `shards` locks (same rounding
    /// rules as [`ShardedLruCache::new`]; `0` disables the cache).
    pub fn new(capacity: usize, shards: usize) -> SegmentCacheLayer {
        SegmentCacheLayer {
            cache: (capacity > 0).then(|| ShardedLruCache::new(capacity, shards)),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Whether lookups can ever hit.
    pub fn enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Whether this layer caches `oracle`'s segments at all: it has
    /// capacity, and the oracle is angle-independent, the only kind for
    /// which an angle-abstracted key is sound.
    pub(crate) fn serves(&self, oracle: &dyn SegmentOracle<Gate>) -> bool {
        self.enabled() && oracle.angle_independent()
    }

    /// Point-in-time counters (logical hits/misses, storage
    /// entries/evictions), as `ServiceStats::seg_cache` and
    /// `GET /v1/stats` carry them.
    pub fn stats(&self) -> qapi::SegmentCacheReport {
        let storage = self
            .cache
            .as_ref()
            .map(ShardedLruCache::stats)
            .unwrap_or_default();
        qapi::SegmentCacheReport {
            enabled: self.enabled(),
            capacity: self.capacity as u64,
            entries: storage.entries as u64,
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            evictions: storage.evictions,
        }
    }

    /// Binds this layer to one job's oracle, producing the engine hook.
    /// `oracle` must be the *raw* oracle (template derivation calls it on
    /// marker segments; a timing wrapper would pollute the latency
    /// histograms with derivation calls). The hook is live only if the
    /// layer has capacity and the oracle is
    /// [`angle_independent`](SegmentOracle::angle_independent); otherwise
    /// it never answers and never stores.
    pub fn for_job<'a>(
        &'a self,
        oracle_id: &'a str,
        oracle: &'a (dyn SegmentOracle<Gate> + Send + Sync),
    ) -> JobSegmentCache<'a> {
        self.for_job_traced(oracle_id, oracle, qobs::trace::disabled(), 0)
    }

    /// [`for_job`](Self::for_job) recording per-segment lookup spans
    /// into `trace` under `parent` (the job's engine span). Lookups run
    /// on qexec pool threads, so the trace position is carried
    /// explicitly rather than via the thread-local context.
    pub fn for_job_traced<'a>(
        &'a self,
        oracle_id: &'a str,
        oracle: &'a (dyn SegmentOracle<Gate> + Send + Sync),
        trace: qobs::trace::TraceHandle,
        parent: u64,
    ) -> JobSegmentCache<'a> {
        JobSegmentCache {
            layer: self,
            oracle_id: Arc::from(oracle_id),
            oracle,
            live: self.serves(oracle),
            trace,
            parent,
        }
    }

    fn get(&self, key: &SegKey) -> Option<Arc<SegEntry>> {
        self.cache.as_ref()?.get(key)
    }

    fn record_put(&self, key: SegKey, entry: SegEntry) {
        if let Some(cache) = &self.cache {
            cache.insert(key, Arc::new(entry));
        }
    }
}

/// One job's view of the [`SegmentCacheLayer`]: the
/// [`popqc_core::SegmentCacheHook`] the engine consults before every
/// oracle call, bound to the job's oracle id.
pub struct JobSegmentCache<'a> {
    layer: &'a SegmentCacheLayer,
    /// Built once per job; every key shares it.
    oracle_id: Arc<str>,
    oracle: &'a (dyn SegmentOracle<Gate> + Send + Sync),
    /// The layer has capacity and the oracle is angle-independent; when
    /// false, `lookup` and `record` return at once.
    live: bool,
    /// The job's trace (disabled for untraced jobs); each segment
    /// lookup becomes a span under the engine span.
    trace: qobs::trace::TraceHandle,
    parent: u64,
}

impl JobSegmentCache<'_> {
    fn key(&self, segment: &[Gate], num_qubits: u32) -> SegKey {
        SegKey {
            fingerprint: fingerprint_gates_abstract(num_qubits, segment),
            oracle_id: Arc::clone(&self.oracle_id),
        }
    }

    fn lookup_inner(&self, segment: &[Gate], num_qubits: u32) -> Option<CachedSegment<Gate>> {
        let entry = self.layer.get(&self.key(segment, num_qubits))?;
        match entry.as_ref() {
            SegEntry::Unchanged => Some(CachedSegment::Unchanged),
            SegEntry::Template(t) => {
                let gates = t.materialize(&rotation_angles(segment))?;
                // A non-identity template can still reproduce its input
                // on particular angles.
                Some(if gates == segment {
                    CachedSegment::Unchanged
                } else {
                    CachedSegment::Rewrite(gates)
                })
            }
        }
    }
}

impl popqc_core::SegmentCacheHook<Gate> for JobSegmentCache<'_> {
    fn lookup(&self, segment: &[Gate], num_qubits: u32) -> Option<CachedSegment<Gate>> {
        if !self.live {
            return None;
        }
        let timer = metrics::segcache_lookup_duration().start_timer();
        let span = if self.trace.enabled() {
            Some(self.trace.span("segment_lookup", self.parent))
        } else {
            None
        };
        let result = self.lookup_inner(segment, num_qubits);
        if let Some(mut span) = span {
            span.attr("gates", segment.len());
            span.attr("hit", result.is_some());
        }
        drop(timer);
        match &result {
            Some(_) => self.layer.hits.fetch_add(1, Relaxed),
            None => self.layer.misses.fetch_add(1, Relaxed),
        };
        result
    }

    fn record(&self, segment: &[Gate], num_qubits: u32, optimized: &[Gate]) {
        if !self.live {
            return;
        }
        // A failed derivation stores nothing: the segment stays a miss.
        let Some(template) = derive_template(self.oracle, segment, num_qubits, optimized) else {
            return;
        };
        let entry = if template.is_identity(segment) {
            SegEntry::Unchanged
        } else {
            SegEntry::Template(template)
        };
        self.layer.record_put(self.key(segment, num_qubits), entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popqc_core::SegmentCacheHook;
    use qcir::Circuit;
    use qoracle::{RuleBasedOptimizer, StructuralOptimizer};

    fn sample_segment() -> Vec<Gate> {
        let mut c = Circuit::new(3);
        c.h(0)
            .h(0)
            .rz(1, Angle::PI_4)
            .cnot(0, 2)
            .cnot(0, 2)
            .rz(2, Angle::PI_2)
            .x(1);
        c.gates
    }

    fn with_angles(gates: &[Gate], fresh: &[Angle]) -> Vec<Gate> {
        let mut i = 0;
        gates
            .iter()
            .map(|g| match *g {
                Gate::Rz(q, _) => {
                    let a = fresh[i % fresh.len()];
                    i += 1;
                    Gate::Rz(q, a)
                }
                other => other,
            })
            .collect()
    }

    #[test]
    fn template_roundtrip_on_structural_oracle() {
        let oracle = StructuralOptimizer::new();
        let seg = sample_segment();
        let out = oracle.optimize(&seg, 3);
        let t = derive_template(&oracle, &seg, 3, &out).expect("structural oracle must template");
        assert_eq!(t.slots, 2);
        assert_eq!(
            t.materialize(&rotation_angles(&seg)).as_deref(),
            Some(&out[..])
        );

        // The same template instantiated on fresh angles equals a fresh
        // oracle run on the re-angled segment.
        let fresh = [Angle::pi_frac(3, 7), Angle::pi_frac(5, 9)];
        let seg2 = with_angles(&seg, &fresh);
        let out2 = oracle.optimize(&seg2, 3);
        assert_eq!(
            t.materialize(&rotation_angles(&seg2)).as_deref(),
            Some(&out2[..])
        );
    }

    #[test]
    fn template_derivation_refuses_angle_dependent_rewrites() {
        // The rule pipeline merges the two mergeable rotations below, a
        // value-dependent rewrite markers cannot survive: the replay check
        // must refuse the template.
        let oracle = RuleBasedOptimizer::oracle();
        let mut c = Circuit::new(1);
        c.rz(0, Angle::PI_4).rz(0, Angle::PI_4);
        let out = oracle.optimize(&c.gates, 1);
        assert!(derive_template(&oracle, &c.gates, 1, &out).is_none());
    }

    #[test]
    fn hook_serves_template_hits_across_angle_sweeps() {
        let oracle = StructuralOptimizer::new();
        let layer = SegmentCacheLayer::new(64, 4);
        let hook = layer.for_job("structural", &oracle);
        let seg = sample_segment();

        assert!(hook.lookup(&seg, 3).is_none());
        let out = oracle.optimize(&seg, 3);
        hook.record(&seg, 3, &out);
        assert_eq!(hook.lookup(&seg, 3), Some(CachedSegment::Rewrite(out)));

        // Fresh angles, same skeleton: still a hit, and exactly what a
        // fresh oracle run would produce.
        let seg2 = with_angles(&seg, &[Angle::pi_frac(11, 13), Angle::pi_frac(2, 5)]);
        let hit = hook.lookup(&seg2, 3).expect("abstract key must hit");
        assert_eq!(hit, CachedSegment::Rewrite(oracle.optimize(&seg2, 3)));

        let s = layer.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
        assert!(s.enabled);
    }

    #[test]
    fn angle_dependent_oracles_are_never_cached() {
        let oracle = RuleBasedOptimizer::oracle();
        let layer = SegmentCacheLayer::new(64, 4);
        let hook = layer.for_job("rule_based", &oracle);
        let seg = sample_segment();
        let out = oracle.optimize(&seg, 3);
        assert!(hook.lookup(&seg, 3).is_none());
        hook.record(&seg, 3, &out);
        hook.record(&seg, 3, &seg);
        assert!(hook.lookup(&seg, 3).is_none());
        let seg2 = with_angles(&seg, &[Angle::pi_frac(1, 3)]);
        assert!(hook.lookup(&seg2, 3).is_none());
        let s = layer.stats();
        assert!(s.enabled);
        assert_eq!((s.entries, s.hits, s.misses), (0, 0, 0));
    }

    #[test]
    fn disabled_layer_is_inert() {
        let oracle = StructuralOptimizer::new();
        let layer = SegmentCacheLayer::new(0, 4);
        let hook = layer.for_job("structural", &oracle);
        let seg = sample_segment();
        hook.record(&seg, 3, &seg);
        assert!(hook.lookup(&seg, 3).is_none());
        let s = layer.stats();
        assert!(!s.enabled);
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn evictions_are_counted() {
        let oracle = StructuralOptimizer::new();
        let layer = SegmentCacheLayer::new(2, 1);
        let hook = layer.for_job("structural", &oracle);
        // Five distinct skeletons: one to five `RZ`s on a wire.
        for i in 0..5 {
            let mut c = Circuit::new(1);
            for _ in 0..=i {
                c.rz(0, Angle::PI_4);
            }
            hook.record(&c.gates, 1, &oracle.optimize(&c.gates, 1));
        }
        let s = layer.stats();
        assert!(s.entries <= 2);
        assert!(s.evictions >= 3, "evictions: {}", s.evictions);
    }

    /// A seeded segment over 3 wires: `H`, `X`, `CNOT` and `RZ` with
    /// angles from [`angle_pool`], Clifford multiples of π/2 included.
    fn random_segment(seed: u64) -> Vec<Gate> {
        let mut next = splitmix(seed);
        let len = 2 + (next() % 14) as usize;
        let mut c = Circuit::new(3);
        for _ in 0..len {
            let r = next();
            let q = (r % 3) as u32;
            match (r >> 8) % 5 {
                0 => c.h(q),
                1 => c.x(q),
                2 => c.cnot(q, (q + 1 + (r >> 16) as u32 % 2) % 3),
                _ => c.rz(q, angle_pool(r >> 24)),
            };
        }
        c.gates
    }

    fn splitmix(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }

    fn angle_pool(r: u64) -> Angle {
        match r % 8 {
            0 => Angle::ZERO,
            1 => Angle::PI,
            2 => Angle::PI_2,
            3 => Angle::PI_4,
            4 => Angle::pi_frac(3, 2),
            _ => Angle::pi_frac(1 + (r >> 3) as i64 % 31, 17),
        }
    }

    /// `segment` with every rotation re-drawn from the pool.
    fn reangled(segment: &[Gate], seed: u64) -> Vec<Gate> {
        let mut next = splitmix(seed);
        segment
            .iter()
            .map(|g| match *g {
                Gate::Rz(q, _) => Gate::Rz(q, angle_pool(next())),
                other => other,
            })
            .collect()
    }

    /// Looks `segment` up (recording a fresh oracle run on a miss, then
    /// looking up again) and checks the answer against a fresh oracle
    /// run: `Unchanged` exactly when the output is the segment, else that
    /// output verbatim. Returns whether the answer was `Unchanged`.
    fn assert_answer_matches_oracle(
        hook: &JobSegmentCache<'_>,
        oracle: &dyn SegmentOracle<Gate>,
        segment: &[Gate],
    ) -> bool {
        let fresh = oracle.optimize(segment, 3);
        let answer = hook.lookup(segment, 3).unwrap_or_else(|| {
            hook.record(segment, 3, &fresh);
            hook.lookup(segment, 3)
                .expect("a recorded segment must hit")
        });
        match answer {
            CachedSegment::Unchanged => {
                assert_eq!(
                    fresh, segment,
                    "Unchanged for a segment the oracle rewrites"
                );
                true
            }
            CachedSegment::Rewrite(gates) => {
                assert_eq!(gates, fresh, "cached rewrite differs from the oracle");
                assert_ne!(
                    gates, segment,
                    "Rewrite for a segment the oracle leaves alone"
                );
                false
            }
        }
    }

    /// Looks `segment` up on an angle-dependent oracle's hook, records a
    /// fresh oracle run and looks it up again: neither lookup may answer.
    fn assert_never_answered(
        hook: &JobSegmentCache<'_>,
        oracle: &dyn SegmentOracle<Gate>,
        segment: &[Gate],
    ) {
        assert!(
            hook.lookup(segment, 3).is_none(),
            "answered before any record"
        );
        hook.record(segment, 3, &oracle.optimize(segment, 3));
        assert!(
            hook.lookup(segment, 3).is_none(),
            "an angle-dependent oracle was cached"
        );
    }

    #[test]
    fn hook_answers_equal_a_fresh_oracle_run_on_reangled_random_segments() {
        let structural = StructuralOptimizer::new();
        let rule_based = RuleBasedOptimizer::oracle();
        let oracles: [(&str, &(dyn SegmentOracle<Gate> + Send + Sync)); 2] =
            [("structural", &structural), ("rule_based", &rule_based)];
        for (id, oracle) in oracles {
            let layer = SegmentCacheLayer::new(4096, 4);
            let hook = layer.for_job(id, oracle);
            let (mut unchanged, mut rewritten) = (0, 0);
            for seed in 0..300u64 {
                let segment = random_segment(seed);
                for round in 0..4u64 {
                    let s = if round == 0 {
                        segment.clone()
                    } else {
                        reangled(&segment, seed << 8 | round)
                    };
                    if !oracle.angle_independent() {
                        assert_never_answered(&hook, oracle, &s);
                    } else if assert_answer_matches_oracle(&hook, oracle, &s) {
                        unchanged += 1;
                    } else {
                        rewritten += 1;
                    }
                }
            }
            if oracle.angle_independent() {
                // Both answers must occur, or the differential proves
                // nothing.
                assert!(unchanged > 100, "{id}: {unchanged} unchanged answers");
                assert!(rewritten > 100, "{id}: {rewritten} rewrites");
            } else {
                let s = layer.stats();
                assert_eq!((s.entries, s.hits, s.misses), (0, 0, 0), "{id}");
            }
        }
    }

    /// An angle-independent oracle that moves angles between slots without
    /// dropping any gate: the templates it yields are not identities, yet
    /// reproduce their input on the right angles.
    enum Twist {
        /// Swaps the angles of the first two rotations.
        SwapFirstTwo,
        /// Negates the first rotation's angle.
        NegateFirst,
    }

    impl SegmentOracle<Gate> for Twist {
        fn optimize(&self, units: &[Gate], _num_qubits: u32) -> Vec<Gate> {
            let mut out = units.to_vec();
            let rz: Vec<usize> = (0..out.len())
                .filter(|&i| matches!(out[i], Gate::Rz(..)))
                .collect();
            let angle = |g: Gate| match g {
                Gate::Rz(_, a) => a,
                _ => unreachable!(),
            };
            match (self, rz.as_slice()) {
                (Twist::SwapFirstTwo, &[i, j, ..]) => {
                    let (a, b) = (angle(out[i]), angle(out[j]));
                    out[i] = Gate::Rz(out[i].qubits().0, b);
                    out[j] = Gate::Rz(out[j].qubits().0, a);
                }
                (Twist::NegateFirst, &[i, ..]) => {
                    out[i] = Gate::Rz(out[i].qubits().0, angle(out[i]).neg());
                }
                _ => {}
            }
            out
        }

        fn cost(&self, units: &[Gate]) -> u64 {
            units.len() as u64
        }

        fn angle_independent(&self) -> bool {
            true
        }
    }

    #[test]
    fn identity_is_decided_on_structure_not_angle_values() {
        let structural = StructuralOptimizer::new();
        let rule_based = RuleBasedOptimizer::oracle();
        let a = Angle::PI_4;
        let cases: [(&str, &(dyn SegmentOracle<Gate> + Send + Sync), Vec<Gate>); 7] = [
            // Two equal angles in swapped slots.
            (
                "swap",
                &Twist::SwapFirstTwo,
                vec![Gate::Rz(0, a), Gate::H(1), Gate::Rz(0, a)],
            ),
            // RZ(π) and RZ(0) equal their own negations.
            (
                "negate",
                &Twist::NegateFirst,
                vec![Gate::Rz(0, Angle::PI), Gate::H(0)],
            ),
            (
                "negate",
                &Twist::NegateFirst,
                vec![Gate::Rz(1, Angle::ZERO)],
            ),
            (
                "structural",
                &structural,
                vec![Gate::Rz(0, Angle::ZERO), Gate::H(1)],
            ),
            (
                "structural",
                &structural,
                vec![Gate::Rz(0, Angle::PI), Gate::X(0)],
            ),
            (
                "rule_based",
                &rule_based,
                vec![Gate::Rz(0, Angle::ZERO), Gate::H(1)],
            ),
            (
                "rule_based",
                &rule_based,
                vec![Gate::Rz(0, Angle::PI), Gate::H(0)],
            ),
        ];
        for (id, oracle, segment) in cases {
            let layer = SegmentCacheLayer::new(64, 1);
            let hook = layer.for_job(id, oracle);
            let out = oracle.optimize(&segment, 3);
            if !oracle.angle_independent() {
                assert_never_answered(&hook, oracle, &segment);
                for seed in 0..16 {
                    assert_never_answered(&hook, oracle, &reangled(&segment, seed));
                }
                assert_eq!(layer.stats().entries, 0, "{id}: {segment:?}");
                continue;
            }
            hook.record(&segment, 3, &out);
            assert_answer_matches_oracle(&hook, oracle, &segment);
            for seed in 0..16 {
                assert_answer_matches_oracle(&hook, oracle, &reangled(&segment, seed));
            }
            if out == segment {
                // A twisting template reproduces these angles only: it
                // must stay a template, not become `Unchanged`.
                let twists = matches!(id, "swap" | "negate");
                let templates = layer
                    .cache
                    .as_ref()
                    .unwrap()
                    .sum_values(|e| u64::from(matches!(e, SegEntry::Template(_))));
                assert_eq!(templates, u64::from(twists), "{id}: {segment:?}");
            }
        }

        // The structure check itself, on hand-built templates.
        let seg = [Gate::Rz(0, a), Gate::H(0), Gate::Rz(1, a)];
        let rot = |qubit, slot, negated| TemplateGate::Rot {
            qubit,
            slot,
            negated,
        };
        let template = |gates| SegTemplate { gates, slots: 2 };
        let fixed_h = TemplateGate::Fixed(Gate::H(0));
        assert!(
            template(vec![rot(0, 0, false), fixed_h.clone(), rot(1, 1, false)]).is_identity(&seg)
        );
        assert!(
            !template(vec![rot(0, 1, false), fixed_h.clone(), rot(1, 0, false)]).is_identity(&seg)
        );
        assert!(
            !template(vec![rot(0, 0, true), fixed_h.clone(), rot(1, 1, false)]).is_identity(&seg)
        );
        assert!(
            !template(vec![rot(1, 0, false), fixed_h.clone(), rot(0, 1, false)]).is_identity(&seg)
        );
        assert!(!template(vec![
            TemplateGate::Fixed(seg[0]),
            fixed_h.clone(),
            rot(1, 1, false)
        ])
        .is_identity(&seg));
        assert!(!template(vec![rot(0, 0, false), fixed_h]).is_identity(&seg));
    }

    #[test]
    fn unchanged_rule_based_outputs_store_no_gates() {
        // `rule_based` is not angle-independent: even the answers that
        // need no gates are never stored.
        let oracle = RuleBasedOptimizer::oracle();
        let layer = SegmentCacheLayer::new(4096, 4);
        let hook = layer.for_job("rule_based", &oracle);
        let mut recorded = std::collections::HashSet::new();
        for seed in 0..1000u64 {
            let segment = random_segment(seed);
            if oracle.optimize(&segment, 3) == segment {
                hook.record(&segment, 3, &segment);
                recorded.insert(segment);
            }
        }
        assert!(
            recorded.len() > 50,
            "only {} unchanged segments",
            recorded.len()
        );
        assert_eq!(
            layer.stats().entries,
            0,
            "an angle-dependent oracle stored an entry"
        );
        for segment in &recorded {
            assert_eq!(hook.lookup(segment, 3), None);
        }
    }
}
