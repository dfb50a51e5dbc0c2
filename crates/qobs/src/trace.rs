//! Request-scoped span tracing with tail-based sampling.
//!
//! A trace is started at the edge (the HTTP frontend) as a
//! [`TraceHandle`] and threaded — explicitly or via the thread-local
//! ambient context — through every layer that wants to attribute time:
//! dispatch queues, service workers, the engine's rounds, oracle calls,
//! the result store, and the remote-cache wire hop. Each layer records
//! [`SpanRecord`]s (name, parent, monotonic start offset, duration, and
//! a small typed attribute bag) against the shared handle.
//!
//! Sampling is **tail-based**: the keep/discard decision happens at
//! [`TraceHandle::finish`], once the outcome is known. Traces that are
//! forced (`?trace=1`), error (5xx), are shed (429/503), or exceed the
//! slow threshold are always kept; the rest are kept probabilistically
//! (1 in N). Kept traces are snapshotted into a lock-sharded bounded
//! ring buffer; discarded traces free their spans immediately.
//!
//! When tracing is disabled (`capacity == 0`), [`start_trace`] returns a
//! disabled handle after one relaxed atomic load, and every recording
//! call on it is a branch on `Option::None` — hot paths stay hot.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Span id of the synthesized root span of every trace.
pub const ROOT_SPAN: u64 = 1;

/// Hard cap on recorded spans per trace; further spans are counted in
/// `dropped_spans` but not stored, so a pathological request cannot
/// balloon memory.
pub const MAX_SPANS: usize = 512;

const SHARDS: usize = 8;
const DEFAULT_CAPACITY: usize = 256;
const DEFAULT_SLOW_NANOS: u64 = 1_000_000_000; // 1s
const DEFAULT_SAMPLE_ONE_IN: u64 = 16;

static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static SLOW_NANOS: AtomicU64 = AtomicU64::new(DEFAULT_SLOW_NANOS);
static SAMPLE_ONE_IN: AtomicU64 = AtomicU64::new(DEFAULT_SAMPLE_ONE_IN);
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Reconfigures the tracer: ring capacity (0 disables tracing
/// entirely), the slow-trace threshold, and the probabilistic keep rate
/// (keep 1 in `sample_one_in` unsampled traces; 0 keeps none
/// probabilistically). Safe to call at any time; in-flight traces see
/// the new values at their finish.
pub fn configure(capacity: usize, slow: Duration, sample_one_in: u64) {
    CAPACITY.store(capacity, Relaxed);
    SLOW_NANOS.store(slow.as_nanos().min(u64::MAX as u128) as u64, Relaxed);
    SAMPLE_ONE_IN.store(sample_one_in, Relaxed);
}

/// The configured ring capacity; 0 means tracing is disabled.
pub fn capacity() -> usize {
    CAPACITY.load(Relaxed)
}

fn trace_id_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let pid = std::process::id() as u64;
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0);
        (pid << 48) ^ nanos.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
    })
}

/// A typed attribute value attached to a span.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer attribute.
    U64(u64),
    /// Signed integer attribute.
    I64(i64),
    /// Floating-point attribute.
    F64(f64),
    /// Boolean attribute.
    Bool(bool),
    /// String attribute.
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> AttrValue {
        AttrValue::U64(v as u64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> AttrValue {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> AttrValue {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> AttrValue {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}

impl AttrValue {
    /// Renders the value as it appears in logs and JSON exports.
    pub fn render(&self) -> String {
        match self {
            AttrValue::U64(v) => v.to_string(),
            AttrValue::I64(v) => v.to_string(),
            AttrValue::F64(v) => format!("{v}"),
            AttrValue::Bool(v) => v.to_string(),
            AttrValue::Str(v) => v.clone(),
        }
    }
}

/// One completed span inside a trace.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span id, unique within the trace; the root span is [`ROOT_SPAN`].
    pub id: u64,
    /// Parent span id; 0 for the root span.
    pub parent: u64,
    /// Operation name (static, from the span inventory).
    pub name: &'static str,
    /// Start offset from the trace start, in nanoseconds (monotonic).
    pub start_nanos: u64,
    /// Span duration in nanoseconds.
    pub duration_nanos: u64,
    /// Attribute bag, in recording order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// A finished, kept trace as stored in the ring buffer.
#[derive(Debug)]
pub struct CompletedTrace {
    /// Process-unique trace id.
    pub id: u64,
    /// Wall-clock start, nanoseconds since the Unix epoch.
    pub start_unix_nanos: u64,
    /// Total trace duration in nanoseconds.
    pub duration_nanos: u64,
    /// Final HTTP-style status of the traced request (0 if aborted
    /// before a response was produced).
    pub status: u16,
    /// Which tail-sampling rule kept this trace.
    pub kept_because: &'static str,
    /// Spans recorded past [`MAX_SPANS`] and therefore not stored.
    pub dropped_spans: u64,
    /// Nanoseconds attributed to queueing (dispatch + job queue wait).
    pub queue_nanos: u64,
    /// Nanoseconds attributed to the optimizer engine.
    pub engine_nanos: u64,
    /// Nanoseconds attributed to oracle calls (may exceed the engine
    /// span when oracle calls run in parallel).
    pub oracle_nanos: u64,
    /// Nanoseconds attributed to result-store and remote-cache I/O.
    pub store_nanos: u64,
    /// All spans, root (id 1) first, then in completion order.
    pub spans: Vec<SpanRecord>,
}

impl CompletedTrace {
    /// The trace id rendered as the canonical 16-hex-digit string used
    /// in URLs, headers, and logs.
    pub fn id_hex(&self) -> String {
        format!("{:016x}", self.id)
    }
}

/// Parses a canonical 16-hex-digit trace id back to its numeric form.
pub fn parse_id(hex: &str) -> Option<u64> {
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

struct ActiveTrace {
    id: u64,
    seq: u64,
    root_name: &'static str,
    start: Instant,
    start_unix_nanos: u64,
    forced: AtomicBool,
    status: AtomicU16,
    finished: AtomicBool,
    handler_done_nanos: AtomicU64,
    next_span: AtomicU64,
    dropped: AtomicU64,
    queue_nanos: AtomicU64,
    engine_nanos: AtomicU64,
    oracle_nanos: AtomicU64,
    store_nanos: AtomicU64,
    root_attrs: Mutex<Vec<(&'static str, AttrValue)>>,
    spans: Mutex<Vec<SpanRecord>>,
}

impl ActiveTrace {
    fn record(&self, span: SpanRecord) {
        match span.name {
            "dispatch_wait" | "job_queue_wait" => {
                self.queue_nanos.fetch_add(span.duration_nanos, Relaxed);
            }
            "engine" => {
                self.engine_nanos.fetch_add(span.duration_nanos, Relaxed);
            }
            "oracle_call" => {
                self.oracle_nanos.fetch_add(span.duration_nanos, Relaxed);
            }
            "store_get" | "store_put" | "remote_get" | "remote_put" => {
                self.store_nanos.fetch_add(span.duration_nanos, Relaxed);
            }
            _ => {}
        }
        let mut spans = self.spans.lock().expect("trace span list poisoned");
        if spans.len() >= MAX_SPANS {
            self.dropped.fetch_add(1, Relaxed);
            return;
        }
        spans.push(span);
    }
}

/// A handle on an in-flight trace. Cheap to clone (one `Arc` bump) and
/// inert when tracing is disabled: every method short-circuits on the
/// `None` inner.
#[derive(Clone)]
pub struct TraceHandle {
    inner: Option<Arc<ActiveTrace>>,
}

/// Starts a new trace whose root span is named `root_name`. Returns a
/// disabled (no-op) handle when the configured capacity is 0 — the cost
/// in that case is one relaxed atomic load.
pub fn start_trace(root_name: &'static str) -> TraceHandle {
    if CAPACITY.load(Relaxed) == 0 {
        return TraceHandle { inner: None };
    }
    let seq = TRACE_SEQ.fetch_add(1, Relaxed);
    let id = trace_id_seed() ^ seq.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (seq << 1) | 1;
    new_trace(root_name, id, seq)
}

/// Starts a trace that *joins* an existing distributed trace id — the
/// remote-cache server joining the requesting replica's trace, so both
/// sides' spans share one id. Disabled-capacity behaviour matches
/// [`start_trace`].
pub fn start_trace_with_id(root_name: &'static str, id: u64) -> TraceHandle {
    if CAPACITY.load(Relaxed) == 0 {
        return TraceHandle { inner: None };
    }
    let seq = TRACE_SEQ.fetch_add(1, Relaxed);
    new_trace(root_name, id, seq)
}

fn new_trace(root_name: &'static str, id: u64, seq: u64) -> TraceHandle {
    let start_unix_nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(0);
    TraceHandle {
        inner: Some(Arc::new(ActiveTrace {
            id,
            seq,
            root_name,
            start: Instant::now(),
            start_unix_nanos,
            forced: AtomicBool::new(false),
            status: AtomicU16::new(0),
            finished: AtomicBool::new(false),
            handler_done_nanos: AtomicU64::new(0),
            next_span: AtomicU64::new(ROOT_SPAN + 1),
            dropped: AtomicU64::new(0),
            queue_nanos: AtomicU64::new(0),
            engine_nanos: AtomicU64::new(0),
            oracle_nanos: AtomicU64::new(0),
            store_nanos: AtomicU64::new(0),
            root_attrs: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
        })),
    }
}

/// Returns a disabled handle: all recording calls are no-ops.
pub fn disabled() -> TraceHandle {
    TraceHandle { inner: None }
}

impl TraceHandle {
    /// Whether the handle is recording (tracing enabled at start time).
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace id, or `None` when disabled.
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|t| t.id)
    }

    /// The canonical 16-hex trace id, or `None` when disabled.
    pub fn id_hex(&self) -> Option<String> {
        self.inner.as_ref().map(|t| format!("{:016x}", t.id))
    }

    /// Forces the tail-sampling decision to *keep* (e.g. `?trace=1`).
    pub fn force(&self) {
        if let Some(t) = &self.inner {
            t.forced.store(true, Relaxed);
        }
    }

    /// Whether [`Self::force`] was called (false when disabled). Carried
    /// across the remote-store wire so a forced client trace also pins
    /// the server-side trace it joins.
    pub fn is_forced(&self) -> bool {
        self.inner.as_ref().is_some_and(|t| t.forced.load(Relaxed))
    }

    /// Nanoseconds elapsed since the trace started (monotonic); 0 when
    /// disabled. Use as the `start` argument of [`Self::span_closed`].
    pub fn now_nanos(&self) -> u64 {
        match &self.inner {
            Some(t) => t.start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            None => 0,
        }
    }

    /// Attaches an attribute to the (synthesized) root span.
    pub fn root_attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(t) = &self.inner {
            t.root_attrs
                .lock()
                .expect("trace attrs poisoned")
                .push((key, value.into()));
        }
    }

    /// Opens a live span under `parent`; the span is recorded when the
    /// returned guard drops.
    pub fn span(&self, name: &'static str, parent: u64) -> SpanGuard {
        match &self.inner {
            Some(t) => SpanGuard {
                trace: Some((Arc::clone(t), Instant::now())),
                id: t.next_span.fetch_add(1, Relaxed),
                parent,
                name,
                start_nanos: t.start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                attrs: Vec::new(),
            },
            None => SpanGuard {
                trace: None,
                id: 0,
                parent,
                name,
                start_nanos: 0,
                attrs: Vec::new(),
            },
        }
    }

    /// Records an already-measured interval as a closed span and returns
    /// its id (0 when disabled). `start_nanos` is an offset from the
    /// trace start, as produced by [`Self::now_nanos`].
    pub fn span_closed(
        &self,
        name: &'static str,
        parent: u64,
        start_nanos: u64,
        duration_nanos: u64,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> u64 {
        match &self.inner {
            Some(t) => {
                let id = t.next_span.fetch_add(1, Relaxed);
                t.record(SpanRecord {
                    id,
                    parent,
                    name,
                    start_nanos,
                    duration_nanos,
                    attrs,
                });
                id
            }
            None => 0,
        }
    }

    /// Records the response status ahead of [`Self::finish`] — set where
    /// the response is produced, read where the trace is finished (the
    /// two can be different threads on the evented frontend).
    pub fn set_status(&self, status: u16) {
        if let Some(t) = &self.inner {
            t.status.store(status, Relaxed);
        }
    }

    /// The status recorded by [`Self::set_status`] (0 if none yet).
    pub fn status(&self) -> u16 {
        match &self.inner {
            Some(t) => t.status.load(Relaxed),
            None => 0,
        }
    }

    /// Marks the instant the request handler produced its response, so
    /// the frontend can later attribute write-flush time separately.
    pub fn mark_handler_done(&self) {
        if let Some(t) = &self.inner {
            let now = t.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            t.handler_done_nanos.store(now.max(1), Relaxed);
        }
    }

    /// Offset (nanos since trace start) recorded by
    /// [`Self::mark_handler_done`], or `None` if never marked.
    pub fn handler_done_nanos(&self) -> Option<u64> {
        match &self.inner {
            Some(t) => match t.handler_done_nanos.load(Relaxed) {
                0 => None,
                n => Some(n),
            },
            None => None,
        }
    }

    /// Per-category time split accumulated so far:
    /// `(queue, engine, oracle, store)` nanoseconds. Zeros when
    /// disabled.
    pub fn splits(&self) -> (u64, u64, u64, u64) {
        match &self.inner {
            Some(t) => (
                t.queue_nanos.load(Relaxed),
                t.engine_nanos.load(Relaxed),
                t.oracle_nanos.load(Relaxed),
                t.store_nanos.load(Relaxed),
            ),
            None => (0, 0, 0, 0),
        }
    }

    /// Finishes the trace with the request's final status and applies
    /// the tail-sampling decision. Idempotent: the first call wins.
    /// Returns `true` if the trace was kept.
    pub fn finish(&self, status: u16) -> bool {
        let Some(t) = &self.inner else { return false };
        if t.finished.swap(true, Relaxed) {
            return false;
        }
        t.status.store(status, Relaxed);
        let elapsed = t.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let sample_n = SAMPLE_ONE_IN.load(Relaxed);
        let kept_because = if t.forced.load(Relaxed) {
            Some("forced")
        } else if status >= 500 && status != 503 {
            Some("error")
        } else if status == 429 || status == 503 {
            Some("shed")
        } else if status == 0 {
            Some("aborted")
        } else if elapsed >= SLOW_NANOS.load(Relaxed) {
            Some("slow")
        } else if sample_n != 0 && t.seq % sample_n == 0 {
            Some("probabilistic")
        } else {
            None
        };
        let Some(kept_because) = kept_because else {
            traces_discarded().inc();
            return false;
        };
        let mut spans = {
            let mut locked = t.spans.lock().expect("trace span list poisoned");
            std::mem::take(&mut *locked)
        };
        let root_attrs = {
            let mut locked = t.root_attrs.lock().expect("trace attrs poisoned");
            std::mem::take(&mut *locked)
        };
        let mut all = Vec::with_capacity(spans.len() + 1);
        all.push(SpanRecord {
            id: ROOT_SPAN,
            parent: 0,
            name: t.root_name,
            start_nanos: 0,
            duration_nanos: elapsed,
            attrs: root_attrs,
        });
        all.append(&mut spans);
        let completed = Arc::new(CompletedTrace {
            id: t.id,
            start_unix_nanos: t.start_unix_nanos,
            duration_nanos: elapsed,
            status,
            kept_because,
            dropped_spans: t.dropped.load(Relaxed),
            queue_nanos: t.queue_nanos.load(Relaxed),
            engine_nanos: t.engine_nanos.load(Relaxed),
            oracle_nanos: t.oracle_nanos.load(Relaxed),
            store_nanos: t.store_nanos.load(Relaxed),
            spans: all,
        });
        ring().push(completed);
        traces_kept().inc();
        true
    }
}

/// A live span: records itself into the trace when dropped.
pub struct SpanGuard {
    /// The trace and the span's start; `None` on a disabled handle, which
    /// reads no clock.
    trace: Option<(Arc<ActiveTrace>, Instant)>,
    id: u64,
    parent: u64,
    name: &'static str,
    start_nanos: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanGuard {
    /// This span's id, for use as a child's parent (0 when disabled).
    pub fn id(&self) -> u64 {
        if self.trace.is_some() {
            self.id
        } else {
            0
        }
    }

    /// Attaches an attribute to the span.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if self.trace.is_some() {
            self.attrs.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((t, started)) = self.trace.take() {
            t.record(SpanRecord {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_nanos: self.start_nanos,
                duration_nanos: started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                attrs: std::mem::take(&mut self.attrs),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Completed-trace ring buffer
// ---------------------------------------------------------------------------

struct Ring {
    shards: Vec<Mutex<VecDeque<Arc<CompletedTrace>>>>,
}

impl Ring {
    fn push(&self, trace: Arc<CompletedTrace>) {
        let cap = CAPACITY.load(Relaxed);
        if cap == 0 {
            return;
        }
        let per_shard = (cap / SHARDS).max(1);
        let shard = (trace.id as usize) % SHARDS;
        let mut q = self.shards[shard].lock().expect("trace ring poisoned");
        while q.len() >= per_shard {
            q.pop_front();
        }
        q.push_back(trace);
    }
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| {
        let mut shards = Vec::with_capacity(SHARDS);
        shards.resize_with(SHARDS, || Mutex::new(VecDeque::new()));
        Ring { shards }
    })
}

/// The most recent kept traces, newest first, at most `limit`.
pub fn recent(limit: usize) -> Vec<Arc<CompletedTrace>> {
    let mut all: Vec<Arc<CompletedTrace>> = Vec::new();
    for shard in &ring().shards {
        let q = shard.lock().expect("trace ring poisoned");
        all.extend(q.iter().cloned());
    }
    all.sort_by(|a, b| {
        b.start_unix_nanos
            .cmp(&a.start_unix_nanos)
            .then(b.id.cmp(&a.id))
    });
    all.truncate(limit);
    all
}

/// Looks up a kept trace by id.
pub fn get(id: u64) -> Option<Arc<CompletedTrace>> {
    let shard = (id as usize) % SHARDS;
    let q = ring().shards[shard].lock().expect("trace ring poisoned");
    q.iter().find(|t| t.id == id).cloned()
}

/// Empties the ring buffer (tests and benchmarks).
pub fn clear() {
    for shard in &ring().shards {
        shard.lock().expect("trace ring poisoned").clear();
    }
}

// ---------------------------------------------------------------------------
// Ambient (thread-local) context
// ---------------------------------------------------------------------------

/// An ambient trace position: a handle plus the span id new child spans
/// should parent under.
#[derive(Clone)]
pub struct TraceCtx {
    /// The trace being recorded into (possibly disabled).
    pub handle: TraceHandle,
    /// Parent span id for spans opened in this context.
    pub parent: u64,
}

impl TraceCtx {
    /// A disabled context (no trace).
    pub fn disabled() -> TraceCtx {
        TraceCtx {
            handle: disabled(),
            parent: ROOT_SPAN,
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<TraceCtx>> = const { RefCell::new(None) };
}

/// The ambient trace context installed on this thread, or a disabled
/// context if none.
pub fn current() -> TraceCtx {
    CURRENT
        .with(|c| c.borrow().clone())
        .unwrap_or_else(TraceCtx::disabled)
}

/// Runs `f` with `ctx` installed as this thread's ambient context,
/// restoring the previous context afterwards (panic-safe).
pub fn with_active<R>(ctx: &TraceCtx, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<TraceCtx>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
    let prev = CURRENT.with(|c| c.borrow_mut().replace(ctx.clone()));
    let _restore = Restore(prev);
    f()
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

fn traces_kept() -> &'static crate::Counter {
    static HANDLE: OnceLock<Arc<crate::Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| {
        crate::counter(
            "popqc_traces_kept_total",
            "Traces kept by the tail-sampling decision.",
        )
    })
}

fn traces_discarded() -> &'static crate::Counter {
    static HANDLE: OnceLock<Arc<crate::Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| {
        crate::counter(
            "popqc_traces_discarded_total",
            "Traces discarded by the tail-sampling decision.",
        )
    })
}

/// Registers the tracer's metric families so they appear in the first
/// scrape even before any trace finishes.
pub fn describe_metrics() {
    traces_kept();
    traces_discarded();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests in this module mutate the global tracer config and ring, so
    // they must not interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracer_hands_out_inert_handles() {
        let _g = lock();
        configure(0, Duration::from_secs(1), 16);
        let t = start_trace("request");
        assert!(!t.enabled());
        assert!(t.id_hex().is_none());
        let mut s = t.span("engine", ROOT_SPAN);
        s.attr("width", 4u64);
        assert_eq!(s.id(), 0);
        drop(s);
        assert!(!t.finish(200));
        configure(
            DEFAULT_CAPACITY,
            Duration::from_secs(1),
            DEFAULT_SAMPLE_ONE_IN,
        );
    }

    #[test]
    fn forced_error_shed_and_slow_traces_are_always_kept() {
        let _g = lock();
        configure(64, Duration::from_millis(0), 0); // everything is "slow"
        clear();
        let t = start_trace("request");
        assert!(t.finish(200));
        assert_eq!(get(t.id().unwrap()).unwrap().kept_because, "slow");

        configure(64, Duration::from_secs(3600), 0); // nothing is slow
        let forced = start_trace("request");
        forced.force();
        assert!(forced.finish(200));
        assert_eq!(get(forced.id().unwrap()).unwrap().kept_because, "forced");

        let err = start_trace("request");
        assert!(err.finish(500));
        assert_eq!(get(err.id().unwrap()).unwrap().kept_because, "error");

        let shed = start_trace("request");
        assert!(shed.finish(503));
        assert_eq!(get(shed.id().unwrap()).unwrap().kept_because, "shed");

        let fast = start_trace("request");
        assert!(!fast.finish(200), "unforced fast 200 must be discarded");
        assert!(get(fast.id().unwrap()).is_none());
        configure(
            DEFAULT_CAPACITY,
            Duration::from_secs(1),
            DEFAULT_SAMPLE_ONE_IN,
        );
    }

    #[test]
    fn finish_is_idempotent_and_first_status_wins() {
        let _g = lock();
        configure(64, Duration::from_secs(3600), 0);
        clear();
        let t = start_trace("request");
        t.force();
        assert!(t.finish(200));
        assert!(!t.finish(500));
        assert_eq!(get(t.id().unwrap()).unwrap().status, 200);
        configure(
            DEFAULT_CAPACITY,
            Duration::from_secs(1),
            DEFAULT_SAMPLE_ONE_IN,
        );
    }

    #[test]
    fn spans_reconstruct_a_parent_child_tree() {
        let _g = lock();
        configure(64, Duration::from_secs(3600), 0);
        clear();
        let t = start_trace("request");
        t.force();
        t.root_attr("method", "POST");
        let engine_id = {
            let mut engine = t.span("engine", ROOT_SPAN);
            engine.attr("width", 4u64);
            let mut oracle = t.span("oracle_call", engine.id());
            oracle.attr("segments", 2u64);
            let oracle_parent = oracle.parent;
            drop(oracle);
            assert_eq!(oracle_parent, engine.id());
            engine.id()
        };
        t.span_closed("job_queue_wait", ROOT_SPAN, 0, 1_000, Vec::new());
        assert!(t.finish(200));
        let kept = get(t.id().unwrap()).unwrap();
        assert_eq!(kept.spans[0].id, ROOT_SPAN);
        assert_eq!(kept.spans[0].parent, 0);
        assert_eq!(kept.spans[0].name, "request");
        assert_eq!(kept.spans[0].attrs[0].0, "method");
        let oracle = kept.spans.iter().find(|s| s.name == "oracle_call").unwrap();
        assert_eq!(oracle.parent, engine_id);
        let engine = kept.spans.iter().find(|s| s.name == "engine").unwrap();
        assert_eq!(engine.parent, ROOT_SPAN);
        // Every non-root span's parent exists in the trace.
        for span in &kept.spans {
            if span.id != ROOT_SPAN {
                assert!(kept.spans.iter().any(|p| p.id == span.parent));
            }
        }
        assert_eq!(kept.queue_nanos, 1_000);
        assert!(kept.engine_nanos > 0);
        assert!(kept.oracle_nanos > 0);
        configure(
            DEFAULT_CAPACITY,
            Duration::from_secs(1),
            DEFAULT_SAMPLE_ONE_IN,
        );
    }

    #[test]
    fn ring_evicts_oldest_first_per_shard() {
        let _g = lock();
        configure(SHARDS, Duration::from_millis(0), 0); // per-shard cap = 1, all slow
        clear();
        let first = start_trace("request");
        let shard = first.id().unwrap() % SHARDS as u64;
        assert!(first.finish(200));
        // Drive more traces until one lands in the same shard, which
        // must evict `first`.
        let mut evictor = None;
        for _ in 0..64 {
            let t = start_trace("request");
            let id = t.id().unwrap();
            assert!(t.finish(200));
            if id % SHARDS as u64 == shard && id != first.id().unwrap() {
                evictor = Some(id);
                break;
            }
        }
        let evictor = evictor.expect("no trace landed in the same shard");
        assert!(get(first.id().unwrap()).is_none(), "oldest must be evicted");
        assert!(get(evictor).is_some());
        configure(
            DEFAULT_CAPACITY,
            Duration::from_secs(1),
            DEFAULT_SAMPLE_ONE_IN,
        );
    }

    #[test]
    fn recent_returns_newest_first() {
        let _g = lock();
        configure(64, Duration::from_millis(0), 0);
        clear();
        let a = start_trace("request");
        a.finish(200);
        std::thread::sleep(Duration::from_millis(2));
        let b = start_trace("request");
        b.finish(200);
        let listed = recent(10);
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].id, b.id().unwrap());
        assert_eq!(listed[1].id, a.id().unwrap());
        assert_eq!(recent(1).len(), 1);
        configure(
            DEFAULT_CAPACITY,
            Duration::from_secs(1),
            DEFAULT_SAMPLE_ONE_IN,
        );
    }

    #[test]
    fn ambient_context_installs_and_restores() {
        let _g = lock();
        configure(64, Duration::from_secs(3600), 0);
        let t = start_trace("request");
        let ctx = TraceCtx {
            handle: t.clone(),
            parent: ROOT_SPAN,
        };
        assert!(!current().handle.enabled());
        with_active(&ctx, || {
            assert!(current().handle.enabled());
            assert_eq!(current().handle.id(), t.id());
            let inner = TraceCtx {
                handle: t.clone(),
                parent: 7,
            };
            with_active(&inner, || assert_eq!(current().parent, 7));
            assert_eq!(current().parent, ROOT_SPAN);
        });
        assert!(!current().handle.enabled());
        configure(
            DEFAULT_CAPACITY,
            Duration::from_secs(1),
            DEFAULT_SAMPLE_ONE_IN,
        );
    }

    #[test]
    fn span_cap_counts_dropped_spans() {
        let _g = lock();
        configure(64, Duration::from_secs(3600), 0);
        clear();
        let t = start_trace("request");
        t.force();
        for _ in 0..(MAX_SPANS + 5) {
            t.span_closed("round", ROOT_SPAN, 0, 1, Vec::new());
        }
        assert!(t.finish(200));
        let kept = get(t.id().unwrap()).unwrap();
        assert_eq!(kept.spans.len(), MAX_SPANS + 1); // + synthesized root
        assert_eq!(kept.dropped_spans, 5);
        configure(
            DEFAULT_CAPACITY,
            Duration::from_secs(1),
            DEFAULT_SAMPLE_ONE_IN,
        );
    }

    #[test]
    fn trace_ids_parse_and_roundtrip() {
        let _g = lock();
        configure(64, Duration::from_secs(3600), 0);
        let t = start_trace("request");
        let hex = t.id_hex().unwrap();
        assert_eq!(hex.len(), 16);
        assert_eq!(parse_id(&hex), t.id());
        assert_eq!(parse_id("nope"), None);
        assert_eq!(parse_id(""), None);
        configure(
            DEFAULT_CAPACITY,
            Duration::from_secs(1),
            DEFAULT_SAMPLE_ONE_IN,
        );
    }
}
