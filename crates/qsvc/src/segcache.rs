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
//! Every entry is keyed by `(segment fingerprint, registry oracle id)`.
//! The fingerprint domain depends on what the oracle declares:
//!
//! * **Angle-independent oracles** ([`SegmentOracle::angle_independent`]
//!   `== true`, e.g. the `structural` oracle) key by the angle-abstracted
//!   fingerprint ([`fingerprint_gates_abstract`]) and store a
//!   [`SegTemplate`]: the rewrite with every surviving rotation recorded
//!   as *input slot i, possibly negated* instead of a concrete angle. One
//!   derived template then serves every angle assignment of the same
//!   skeleton — the whole parameter sweep.
//! * **Everything else** (honest default) keys by the exact-angle
//!   fingerprint and stores the concrete output gates. Still useful —
//!   segments repeat verbatim across rounds and across structurally
//!   overlapping submissions — but angle changes miss, as they must.
//!
//! The two key domains are disjoint by construction (the abstract hasher
//! prepends a domain tag), so both entry kinds share one table.
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
//! output byte for byte, else the derivation is discarded and the entry
//! falls back to exact keying. A mis-declared `angle_independent` oracle
//! therefore degrades to exact caching instead of serving wrong rewrites.
//!
//! Non-improving outputs are cached too (negative caching): the engine
//! re-examines boundary segments every run, and without negative entries
//! a warm sweep would re-pay the oracle for every "nothing to do here"
//! answer.

use crate::cache::ShardedLruCache;
use crate::metrics;
use qcir::{fingerprint_gates_abstract, Angle, Fingerprint, Gate};
use qoracle::SegmentOracle;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Marker denominators start here — far above what benchgen emits (2¹²)
/// and what a decimal QASM angle snaps to (2²⁰). An input angle that
/// happens to equal a marker (QASM reads integer spellings such as
/// `pi/1073741824` exactly) cannot confuse a derivation: the marker copy
/// replaces every input angle, and the verification replay checks the
/// template against the concrete run.
pub const MARKER_BASE: i64 = 1 << 30;

/// A segment-cache key: the segment's fingerprint (exact or
/// angle-abstracted — the domains are disjoint) plus the registry oracle
/// id, so two oracles never share rewrites even on identical segments.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SegKey {
    /// Fingerprint over `(num_qubits, gates)` — exact
    /// ([`Circuit::fingerprint`]-style) or abstract, per the oracle's
    /// capability.
    ///
    /// [`Circuit::fingerprint`]: qcir::Circuit::fingerprint
    pub fingerprint: Fingerprint,
    /// The registry id the rewrite was derived under.
    pub oracle_id: String,
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
}

/// A cached segment rewrite: concrete gates under an exact-angle key, or
/// a template under an angle-abstracted key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SegEntry {
    /// The oracle's output verbatim (exact-angle keying).
    Exact(Vec<Gate>),
    /// An angle-abstracted rewrite (see [`SegTemplate`]).
    Template(SegTemplate),
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
/// the caller falls back to exact keying — whenever the oracle's behaviour
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
    // rewrite — it demotes to exact keying instead.
    if template.materialize(&rotation_angles(segment)).as_deref() != Some(concrete_out) {
        return None;
    }
    Some(template)
}

/// Point-in-time segment-cache counters, as surfaced by
/// `ServiceStats::seg_cache` and `GET /v1/stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegCacheStats {
    /// Whether the cache is on (`capacity > 0`).
    pub enabled: bool,
    /// Configured entry budget.
    pub capacity: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Logical lookups served from the cache (one per replaced oracle
    /// call).
    pub hits: u64,
    /// Logical lookups that fell through to the oracle.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl SegCacheStats {
    /// Hits over lookups, `0.0` when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The service-owned segment cache: a bounded [`ShardedLruCache`] of
/// segment entries plus logical hit/miss accounting (one count per engine
/// lookup, independent of how many raw probes the abstract/exact fallback
/// makes) and eviction bookkeeping for the Prometheus counters.
pub struct SegmentCacheLayer {
    /// `None` when `capacity == 0`: every hook call is a cheap no-op.
    cache: Option<ShardedLruCache<SegKey, SegEntry>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
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
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether lookups can ever hit.
    pub fn enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Drops every entry; returns how many were removed. The monotonic
    /// counters survive (clearing is an admin action, not an eviction).
    pub fn clear(&self) -> u64 {
        self.cache.as_ref().map_or(0, ShardedLruCache::clear)
    }

    /// Point-in-time counters (logical hits/misses, storage
    /// entries/evictions).
    pub fn stats(&self) -> SegCacheStats {
        SegCacheStats {
            enabled: self.enabled(),
            capacity: self.capacity,
            entries: self.cache.as_ref().map_or(0, ShardedLruCache::len),
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
        }
    }

    /// Binds this layer to one job's oracle, producing the engine hook.
    /// `oracle` must be the *raw* oracle (template derivation calls it on
    /// marker segments; a timing wrapper would pollute the latency
    /// histograms with derivation calls).
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
            oracle_id,
            oracle,
            angle_abstract: oracle.angle_independent(),
            trace,
            parent,
        }
    }

    fn get(&self, key: &SegKey) -> Option<Arc<SegEntry>> {
        self.cache.as_ref()?.get(key)
    }

    fn record_put(&self, key: SegKey, entry: SegEntry) {
        let Some(cache) = &self.cache else { return };
        let evicted = cache.insert(key, Arc::new(entry));
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Relaxed);
            metrics::segcache_evictions().add(evicted);
        }
    }
}

/// One job's view of the [`SegmentCacheLayer`]: the
/// [`popqc_core::SegmentCacheHook`] the engine consults before every
/// oracle call, bound to the job's oracle id and capability.
pub struct JobSegmentCache<'a> {
    layer: &'a SegmentCacheLayer,
    oracle_id: &'a str,
    oracle: &'a (dyn SegmentOracle<Gate> + Send + Sync),
    angle_abstract: bool,
    /// The job's trace (disabled for untraced jobs); each segment
    /// lookup becomes a span under the engine span.
    trace: qobs::trace::TraceHandle,
    parent: u64,
}

impl JobSegmentCache<'_> {
    fn key(&self, fingerprint: Fingerprint) -> SegKey {
        SegKey {
            fingerprint,
            oracle_id: self.oracle_id.to_string(),
        }
    }

    fn abstract_key(&self, segment: &[Gate], num_qubits: u32) -> SegKey {
        self.key(fingerprint_gates_abstract(num_qubits, segment))
    }

    fn exact_key(&self, segment: &[Gate], num_qubits: u32) -> SegKey {
        self.key(qcir::fingerprint_gates(num_qubits, segment))
    }

    fn lookup_inner(&self, segment: &[Gate], num_qubits: u32) -> Option<Vec<Gate>> {
        if self.angle_abstract {
            // Template probe first: one abstract entry covers every angle
            // assignment of this skeleton.
            if let Some(entry) = self.layer.get(&self.abstract_key(segment, num_qubits)) {
                if let SegEntry::Template(t) = entry.as_ref() {
                    if let Some(gates) = t.materialize(&rotation_angles(segment)) {
                        return Some(gates);
                    }
                }
            }
            // Fall through to the exact domain: segments whose template
            // derivation failed were demoted there.
        }
        let entry = self.layer.get(&self.exact_key(segment, num_qubits))?;
        match entry.as_ref() {
            SegEntry::Exact(gates) => Some(gates.clone()),
            SegEntry::Template(_) => None,
        }
    }
}

impl popqc_core::SegmentCacheHook<Gate> for JobSegmentCache<'_> {
    fn lookup(&self, segment: &[Gate], num_qubits: u32) -> Option<Vec<Gate>> {
        if !self.layer.enabled() {
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
            Some(_) => {
                self.layer.hits.fetch_add(1, Relaxed);
                metrics::segcache_hits().inc();
            }
            None => {
                self.layer.misses.fetch_add(1, Relaxed);
                metrics::segcache_misses().inc();
            }
        }
        result
    }

    fn record(&self, segment: &[Gate], num_qubits: u32, optimized: &[Gate]) {
        if !self.layer.enabled() {
            return;
        }
        if self.angle_abstract {
            if let Some(template) = derive_template(self.oracle, segment, num_qubits, optimized) {
                self.layer.record_put(
                    self.abstract_key(segment, num_qubits),
                    SegEntry::Template(template),
                );
                return;
            }
            // Derivation failed (or the capability claim did not hold up
            // on this segment): demote to the exact domain.
        }
        self.layer.record_put(
            self.exact_key(segment, num_qubits),
            SegEntry::Exact(optimized.to_vec()),
        );
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
        assert_eq!(hook.lookup(&seg, 3).as_deref(), Some(&out[..]));

        // Fresh angles, same skeleton: still a hit, and exactly what a
        // fresh oracle run would produce.
        let seg2 = with_angles(&seg, &[Angle::pi_frac(11, 13), Angle::pi_frac(2, 5)]);
        let hit = hook.lookup(&seg2, 3).expect("abstract key must hit");
        assert_eq!(hit, oracle.optimize(&seg2, 3));

        let s = layer.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
        assert!(s.enabled);
    }

    #[test]
    fn hook_on_angle_dependent_oracle_keys_exactly() {
        let oracle = RuleBasedOptimizer::oracle();
        let layer = SegmentCacheLayer::new(64, 4);
        let hook = layer.for_job("rule_based", &oracle);
        let seg = sample_segment();

        let out = oracle.optimize(&seg, 3);
        hook.record(&seg, 3, &out);
        assert_eq!(hook.lookup(&seg, 3).as_deref(), Some(&out[..]));

        // Different angles = different exact key: must miss, never serve
        // the old rewrite.
        let seg2 = with_angles(&seg, &[Angle::pi_frac(1, 3)]);
        assert!(hook.lookup(&seg2, 3).is_none());
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
        let oracle = RuleBasedOptimizer::oracle();
        let layer = SegmentCacheLayer::new(2, 1);
        let hook = layer.for_job("rule_based", &oracle);
        for i in 0..5i64 {
            let mut c = Circuit::new(1);
            c.rz(0, Angle::pi_frac(1, 3 + i));
            hook.record(&c.gates, 1, &c.gates);
        }
        let s = layer.stats();
        assert!(s.entries <= 2);
        assert!(s.evictions >= 3, "evictions: {}", s.evictions);
    }
}
