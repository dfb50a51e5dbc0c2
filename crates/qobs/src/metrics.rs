//! The instrument types and the process-wide registry behind them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing counter. `inc`/`add` are a single relaxed
/// `fetch_add` — safe on any hot path.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
    }

    /// Overwrites the value with `v`, for a counter whose record lives
    /// elsewhere: a scrape copies a monotonic per-instance count in just
    /// before rendering, and nothing else moves the counter.
    pub fn set(&self, v: u64) {
        self.value.store(v, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// A settable instantaneous value (queue depth, pool size, resident
/// bytes). Signed so transient inc/dec imbalance cannot wrap to 2^64 in
/// a scrape.
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Relaxed);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.value.fetch_sub(1, Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Relaxed)
    }
}

/// A fixed-bucket histogram. The bounds are chosen at registration and
/// never change; each observation is one relaxed `fetch_add` into the
/// matching bucket cell plus a CAS-loop add into the bit-packed `f64`
/// sum, so the hot path takes no locks and allocates nothing.
pub struct Histogram {
    /// Upper bounds, strictly increasing; the implicit `+Inf` bucket is
    /// `cells[bounds.len()]`.
    bounds: Vec<f64>,
    /// Per-bucket observation counts (NOT cumulative; the encoder
    /// accumulates so the rendered buckets are monotone by construction).
    cells: Vec<AtomicU64>,
    /// Sum of observed values, stored as `f64::to_bits`.
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let mut cells = Vec::with_capacity(bounds.len() + 1);
        cells.resize_with(bounds.len() + 1, AtomicU64::default);
        Histogram {
            bounds: bounds.to_vec(),
            cells,
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| v > b);
        self.cells[idx].fetch_add(1, Relaxed);
        let mut cur = self.sum_bits.load(Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .sum_bits
                .compare_exchange_weak(cur, next, Relaxed, Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records a wall-clock duration in seconds.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Starts a timer that observes its elapsed seconds when dropped.
    pub fn start_timer(&self) -> HistogramTimer<'_> {
        HistogramTimer {
            histogram: self,
            start: Instant::now(),
        }
    }

    /// The registered upper bounds (without `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Point-in-time `(cumulative bucket counts incl. +Inf, sum, count)`.
    /// Cumulation happens here, over one pass of the cells, so the
    /// returned buckets are monotone even under concurrent observation.
    pub fn snapshot(&self) -> (Vec<u64>, f64, u64) {
        let mut cumulative = Vec::with_capacity(self.cells.len());
        let mut total = 0u64;
        for cell in &self.cells {
            total += cell.load(Relaxed);
            cumulative.push(total);
        }
        (
            cumulative,
            f64::from_bits(self.sum_bits.load(Relaxed)),
            total,
        )
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.cells.iter().map(|c| c.load(Relaxed)).sum()
    }
}

/// Observes the elapsed seconds since [`Histogram::start_timer`] on drop.
pub struct HistogramTimer<'a> {
    histogram: &'a Histogram,
    start: Instant,
}

impl Drop for HistogramTimer<'_> {
    fn drop(&mut self) {
        self.histogram.observe_duration(self.start.elapsed());
    }
}

// ---------------------------------------------------------------------------
// Families and the registry
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

pub(crate) enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One metric family: a name, a kind, and one child instrument per
/// label-value tuple (exactly one child, under the empty tuple, for
/// unlabeled metrics).
pub(crate) struct Family {
    pub(crate) name: String,
    pub(crate) help: String,
    pub(crate) kind: Kind,
    pub(crate) label_names: Vec<String>,
    /// Histogram bounds; empty for the other kinds.
    bounds: Vec<f64>,
    pub(crate) children: RwLock<BTreeMap<Vec<String>, Instrument>>,
}

impl Family {
    /// The child for `values`, interned on first use. Subsequent updates
    /// through the returned handle never touch the family lock.
    fn child(&self, values: &[&str]) -> Instrument {
        assert_eq!(
            values.len(),
            self.label_names.len(),
            "metric {} takes {} label value(s), got {}",
            self.name,
            self.label_names.len(),
            values.len()
        );
        let key: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        if let Some(found) = self
            .children
            .read()
            .expect("metric family poisoned")
            .get(&key)
        {
            return found.clone_handle();
        }
        let mut children = self.children.write().expect("metric family poisoned");
        children
            .entry(key)
            .or_insert_with(|| match self.kind {
                Kind::Counter => Instrument::Counter(Arc::new(Counter::default())),
                Kind::Gauge => Instrument::Gauge(Arc::new(Gauge::default())),
                Kind::Histogram => Instrument::Histogram(Arc::new(Histogram::new(&self.bounds))),
            })
            .clone_handle()
    }
}

impl Instrument {
    fn clone_handle(&self) -> Instrument {
        match self {
            Instrument::Counter(c) => Instrument::Counter(Arc::clone(c)),
            Instrument::Gauge(g) => Instrument::Gauge(Arc::clone(g)),
            Instrument::Histogram(h) => Instrument::Histogram(Arc::clone(h)),
        }
    }
}

pub(crate) struct Registry {
    pub(crate) families: RwLock<BTreeMap<String, Arc<Family>>>,
}

/// The process-wide registry every registration function and [`render`]
/// (crate::render) share.
pub(crate) fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        families: RwLock::new(BTreeMap::new()),
    })
}

/// Sanity bound on names so the encoder can never emit an unparseable
/// series: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn check_name(name: &str) {
    let mut chars = name.chars();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    assert!(
        head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "invalid metric name `{name}`"
    );
}

/// Fetches or creates the family `name`. Idempotent for an identical
/// shape; a name re-registered with a different kind, label set, or
/// bucket bounds is a programming error and panics.
fn family(name: &str, help: &str, kind: Kind, label_names: &[&str], bounds: &[f64]) -> Arc<Family> {
    check_name(name);
    for label in label_names {
        check_name(label);
    }
    let reg = registry();
    if let Some(found) = reg
        .families
        .read()
        .expect("metric registry poisoned")
        .get(name)
    {
        let existing = Arc::clone(found);
        assert!(
            existing.kind == kind
                && existing.label_names == label_names
                && existing.bounds == bounds,
            "metric `{name}` re-registered with a different shape"
        );
        return existing;
    }
    let mut families = reg.families.write().expect("metric registry poisoned");
    Arc::clone(families.entry(name.to_string()).or_insert_with(|| {
        Arc::new(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            label_names: label_names.iter().map(|l| l.to_string()).collect(),
            bounds: bounds.to_vec(),
            children: RwLock::new(BTreeMap::new()),
        })
    }))
}

// ---------------------------------------------------------------------------
// Registration surface
// ---------------------------------------------------------------------------

/// Registers (or fetches) the unlabeled counter `name`.
pub fn counter(name: &str, help: &str) -> Arc<Counter> {
    match family(name, help, Kind::Counter, &[], &[]).child(&[]) {
        Instrument::Counter(c) => c,
        _ => unreachable!("kind checked at registration"),
    }
}

/// Registers (or fetches) the unlabeled gauge `name`.
pub fn gauge(name: &str, help: &str) -> Arc<Gauge> {
    match family(name, help, Kind::Gauge, &[], &[]).child(&[]) {
        Instrument::Gauge(g) => g,
        _ => unreachable!("kind checked at registration"),
    }
}

/// Registers (or fetches) the unlabeled histogram `name` with the given
/// strictly increasing bucket bounds (`+Inf` is implicit).
pub fn histogram(name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
    match family(name, help, Kind::Histogram, &[], bounds).child(&[]) {
        Instrument::Histogram(h) => h,
        _ => unreachable!("kind checked at registration"),
    }
}

/// A labeled counter family; see [`counter_vec`].
pub struct CounterVec {
    family: Arc<Family>,
}

impl CounterVec {
    /// The child counter for `values` (one per label in declaration
    /// order), interned on first use.
    pub fn with(&self, values: &[&str]) -> Arc<Counter> {
        match self.family.child(values) {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked at registration"),
        }
    }
}

/// A labeled gauge family; see [`gauge_vec`].
pub struct GaugeVec {
    family: Arc<Family>,
}

impl GaugeVec {
    /// The child gauge for `values`, interned on first use.
    pub fn with(&self, values: &[&str]) -> Arc<Gauge> {
        match self.family.child(values) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("kind checked at registration"),
        }
    }
}

/// A labeled histogram family; see [`histogram_vec`].
pub struct HistogramVec {
    family: Arc<Family>,
}

impl HistogramVec {
    /// The child histogram for `values`, interned on first use.
    pub fn with(&self, values: &[&str]) -> Arc<Histogram> {
        match self.family.child(values) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("kind checked at registration"),
        }
    }
}

/// Registers (or fetches) the counter family `name` with `label_names`.
pub fn counter_vec(name: &str, help: &str, label_names: &[&str]) -> CounterVec {
    CounterVec {
        family: family(name, help, Kind::Counter, label_names, &[]),
    }
}

/// Registers (or fetches) the gauge family `name` with `label_names`.
pub fn gauge_vec(name: &str, help: &str, label_names: &[&str]) -> GaugeVec {
    GaugeVec {
        family: family(name, help, Kind::Gauge, label_names, &[]),
    }
}

/// Registers (or fetches) the histogram family `name` with `label_names`
/// and the given bucket bounds.
pub fn histogram_vec(name: &str, help: &str, label_names: &[&str], bounds: &[f64]) -> HistogramVec {
    HistogramVec {
        family: family(name, help, Kind::Histogram, label_names, bounds),
    }
}

// ---------------------------------------------------------------------------
// Static-handle macros
// ---------------------------------------------------------------------------

/// Registers an unlabeled counter once and yields a `&'static Counter`:
/// the hot-path increment is a relaxed atomic add with no registry
/// lookup.
#[macro_export]
macro_rules! static_counter {
    ($name:expr, $help:expr $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::counter($name, $help))
    }};
}

/// Registers an unlabeled gauge once and yields a `&'static Gauge`.
#[macro_export]
macro_rules! static_gauge {
    ($name:expr, $help:expr $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::gauge($name, $help))
    }};
}

/// Registers an unlabeled histogram once and yields a
/// `&'static Histogram`.
#[macro_export]
macro_rules! static_histogram {
    ($name:expr, $help:expr, $bounds:expr $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::histogram($name, $help, $bounds))
    }};
}

/// Registers a counter family once and yields a `&'static CounterVec`.
/// Resolving a child takes the family read lock; hold the returned `Arc`
/// where a label value repeats on a hot path.
#[macro_export]
macro_rules! static_counter_vec {
    ($name:expr, $help:expr, $labels:expr $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::CounterVec> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::counter_vec($name, $help, $labels))
    }};
}

/// Registers a gauge family once and yields a `&'static GaugeVec`.
#[macro_export]
macro_rules! static_gauge_vec {
    ($name:expr, $help:expr, $labels:expr $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::GaugeVec> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::gauge_vec($name, $help, $labels))
    }};
}

/// Registers a histogram family once and yields a
/// `&'static HistogramVec`.
#[macro_export]
macro_rules! static_histogram_vec {
    ($name:expr, $help:expr, $labels:expr, $bounds:expr $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::HistogramVec> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::histogram_vec($name, $help, $labels, $bounds))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_move() {
        let c = counter("qobs_test_counter_total", "test");
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Re-registration returns the SAME cell.
        assert_eq!(counter("qobs_test_counter_total", "test").get(), 3);
        c.set(7);
        assert_eq!(c.get(), 7);

        let g = gauge("qobs_test_gauge", "test");
        g.set(5);
        g.dec();
        g.add(-3);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let h = histogram("qobs_test_histogram", "test", &[0.1, 1.0, 10.0]);
        h.observe(0.05); // <= 0.1
        h.observe(0.1); // <= 0.1 (bounds are inclusive)
        h.observe(0.5); // <= 1.0
        h.observe(100.0); // +Inf
        let (buckets, sum, count) = h.snapshot();
        assert_eq!(buckets, vec![2, 3, 3, 4]);
        assert_eq!(count, 4);
        assert!((sum - 100.65).abs() < 1e-9);
    }

    #[test]
    fn labeled_families_intern_children() {
        let v = counter_vec("qobs_test_labeled_total", "test", &["oracle"]);
        v.with(&["a"]).inc();
        v.with(&["a"]).inc();
        v.with(&["b"]).inc();
        assert_eq!(v.with(&["a"]).get(), 2);
        assert_eq!(v.with(&["b"]).get(), 1);
    }

    #[test]
    #[should_panic(expected = "different shape")]
    fn kind_conflicts_are_programming_errors() {
        counter("qobs_test_conflict", "test");
        gauge("qobs_test_conflict", "test");
    }
}
