//! The batch optimization service: a fixed worker pool over the POPQC
//! engine with memoization and per-request oracle selection.
//!
//! Architecture (one process, no network — the HTTP frontend wraps this
//! API without this crate knowing about sockets):
//!
//! ```text
//!  submit/submit_batch ──▶ FIFO queue ──▶ N worker threads
//!        │     │                              │  (each scopes a
//!        │     └─ OracleRegistry lookup       │   threads-per-job width on
//!        │ store probe                        ▼   the shared qexec pool)
//!        ▼                                 Engine::run
//!  Arc<dyn ResultStore> ◀──── put ────────────┘
//!   (memory front │ disk or remote back │ both │ neither)
//!        │
//!        └────────▶ JobHandle::wait
//! ```
//!
//! * **Outer parallelism** — `workers` jobs run concurrently, one per
//!   worker thread.
//! * **Inner parallelism** — each worker enters the engine under a
//!   [`qexec::with_width`] scope of `threads_per_job`. The engine's
//!   parallel operations all run on the shared `popqc-exec` pool
//!   (persistent threads, no per-operation spawning), which the service
//!   pre-grows to `workers × threads_per_job` at construction so every
//!   job's budget is provisioned even when all workers run at once. The
//!   width caps how many threads one parallel map uses (the job's
//!   worker plus `threads_per_job − 1` pool helpers) and sets how many
//!   chunks it is cut into; it does not partition the pool, so any idle
//!   pool thread may help any job. The pool's counters are surfaced via
//!   [`ServiceStats::executor`].
//! * **Per-request oracles** — the service owns an [`OracleRegistry`] of
//!   named `Arc<dyn SegmentOracle<Gate>>` entries; every submission picks
//!   an oracle (and engine config) per job, so one running service answers
//!   mixed-oracle traffic. The registry id is the cache key's oracle id.
//! * **Memoization** — results live in a pluggable
//!   [`ResultStore`] (memory LRU by default;
//!   disk and tiered backends survive restarts) keyed by
//!   `(circuit fingerprint, oracle id, engine config)`. Identical
//!   resubmissions are answered from cache with zero oracle calls, and the
//!   per-job [`JobResult::cache_hit`] flag plus the service-level counters
//!   make hits auditable end to end.
//! * **In-flight coalescing** — identical jobs submitted while a duplicate
//!   is still queued or running attach as waiters to that one computation
//!   (per-key in-flight table) instead of each computing; the finishing
//!   worker fulfils all of them. Coalesced jobs are flagged via
//!   [`JobResult::coalesced`] and counted in [`ServiceStats::coalesced`].
//! * **Structured failures** — every way a job can fail is a
//!   [`ServiceError`] variant, not a panic or an ad-hoc string: unknown
//!   oracle ids are refused at submission, and a panic in the oracle (a
//!   client-implemented trait) is caught as
//!   [`ServiceError::OracleFailure`] — the lead job completes with
//!   [`JobResult::error`] set, coalesced waiters are re-enqueued as
//!   independent retries, and the worker thread survives.

use crate::cache::CACHE_SHARDS;
use crate::metrics::{self, OracleCounters};
use crate::segcache::SegmentCacheLayer;
use crate::store::{CachedRun, MemoryStore, ResultStore};
use popqc_core::{Engine, PopqcConfig, PopqcStats, RoundObserver, RoundRecord};
use qcir::{Circuit, Fingerprint, Gate};
use qoracle::{RuleBasedOptimizer, SegmentOracle, StructuralOptimizer};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A shared, dynamically dispatched segment oracle — the unit the
/// [`OracleRegistry`] stores and every queued job carries.
pub type DynOracle = Arc<dyn SegmentOracle<Gate> + Send + Sync>;

/// Everything that can go wrong in the service, as a closed enum instead
/// of panics or ad-hoc strings. Convert to the wire taxonomy with
/// [`to_api_error`](ServiceError::to_api_error).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The requested oracle id is not in the registry. Carries the
    /// requested id and the ids that are available.
    UnknownOracle {
        /// The id the request asked for.
        requested: String,
        /// Every id the registry currently holds.
        available: Vec<String>,
    },
    /// An oracle id was registered twice.
    DuplicateOracle(String),
    /// The oracle panicked while optimizing; the job failed and nothing
    /// was cached — resubmitting retries the computation.
    OracleFailure(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownOracle {
                requested,
                available,
            } => write!(
                f,
                "unknown oracle `{requested}` (available: {})",
                available.join(", ")
            ),
            ServiceError::DuplicateOracle(id) => {
                write!(f, "oracle id `{id}` is already registered")
            }
            ServiceError::OracleFailure(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl ServiceError {
    /// The canonical [`qapi::ApiError`] for this failure (which fixes the
    /// HTTP status every frontend must answer with).
    pub fn to_api_error(&self) -> qapi::ApiError {
        match self {
            ServiceError::UnknownOracle { .. } => qapi::ApiError::UnknownOracle(self.to_string()),
            ServiceError::DuplicateOracle(_) => qapi::ApiError::InvalidConfig(self.to_string()),
            ServiceError::OracleFailure(_) => qapi::ApiError::OracleFailure(self.to_string()),
        }
    }
}

struct RegisteredOracle {
    id: String,
    description: String,
    /// The oracle's persistence-invalidation tag
    /// ([`SegmentOracle::version`]), captured once at registration so the
    /// disk tier can stamp (and later verify) entries without re-asking
    /// the oracle on every probe.
    version: String,
    oracle: DynOracle,
}

/// A named set of oracles the service dispatches over per request.
///
/// The registry id — not [`SegmentOracle::name`] — is the cache key's
/// oracle id, so two entries may wrap the same oracle type with different
/// parameters without sharing cache entries, and the ids are what
/// `GET /v1/oracles` advertises to clients.
pub struct OracleRegistry {
    entries: Vec<RegisteredOracle>,
    default_id: String,
}

impl OracleRegistry {
    /// A registry holding only `oracle`, registered and defaulted under
    /// its [`SegmentOracle::name`]. The smallest useful registry — what
    /// single-oracle deployments and most tests want.
    pub fn single(oracle: impl SegmentOracle<Gate> + Send + 'static) -> OracleRegistry {
        let id = oracle.name().to_string();
        OracleRegistry::single_with_id(oracle, id)
    }

    /// [`single`](Self::single) with an explicit registry id, for oracles
    /// whose name does not pin their behaviour (custom-parameterized
    /// pipelines).
    pub fn single_with_id(
        oracle: impl SegmentOracle<Gate> + Send + 'static,
        id: impl Into<String>,
    ) -> OracleRegistry {
        let id = id.into();
        OracleRegistry {
            entries: vec![RegisteredOracle {
                id: id.clone(),
                description: "single-oracle registry".to_string(),
                version: oracle.version(),
                oracle: Arc::new(oracle),
            }],
            default_id: id,
        }
    }

    /// The workspace's built-in oracles: `rule_based` (the paper's primary
    /// VOQC-style configuration, the default), `rule_single_pass` (one
    /// bounded pipeline pass — the whole-circuit baseline ablation), and
    /// `structural` (value-blind cancellation, the segment cache's
    /// angle-independent oracle). The Quartz-style search oracle is not
    /// served: nothing bounds the work of one request with it (one call
    /// on a 400-gate segment takes about 0.7 s in a release build), so it
    /// stays a library oracle ([`qoracle::SearchOptimizer`]) for offline
    /// experiments.
    pub fn builtin() -> OracleRegistry {
        let mut registry =
            OracleRegistry::single_with_id(RuleBasedOptimizer::oracle(), "rule_based");
        registry.entries[0].description =
            "Nam-style rule pipeline iterated to fixpoint (the paper's primary oracle)".to_string();
        registry
            .register(
                "rule_single_pass",
                "one bounded pass of the rule pipeline (whole-circuit baseline ablation)",
                Arc::new(RuleBasedOptimizer::modern_baseline()),
            )
            .expect("builtin ids are distinct");
        registry
            .register(
                "structural",
                "value-blind self-inverse cancellation to fixpoint (angle-independent: \
                 parameterized resubmissions reuse segment-cache templates)",
                Arc::new(StructuralOptimizer::new()),
            )
            .expect("builtin ids are distinct");
        registry
    }

    /// Registers `oracle` under `id`. Fails with
    /// [`ServiceError::DuplicateOracle`] if the id is taken.
    pub fn register(
        &mut self,
        id: impl Into<String>,
        description: impl Into<String>,
        oracle: DynOracle,
    ) -> Result<(), ServiceError> {
        let id = id.into();
        if self.contains(&id) {
            return Err(ServiceError::DuplicateOracle(id));
        }
        self.entries.push(RegisteredOracle {
            id,
            description: description.into(),
            version: oracle.version(),
            oracle,
        });
        Ok(())
    }

    /// Makes `id` the oracle used when a request names none. Fails with
    /// [`ServiceError::UnknownOracle`] if `id` is not registered.
    pub fn set_default(&mut self, id: &str) -> Result<(), ServiceError> {
        if !self.contains(id) {
            return Err(self.unknown(id));
        }
        self.default_id = id.to_string();
        Ok(())
    }

    /// Resolves an optional request id (`None` = the default) to the
    /// registry id, the oracle's persistence version tag (what the store
    /// layer stamps disk entries with) and the oracle itself.
    fn resolve_versioned(
        &self,
        id: Option<&str>,
    ) -> Result<(String, String, DynOracle), ServiceError> {
        let id = id.unwrap_or(&self.default_id);
        self.entries
            .iter()
            .find(|e| e.id == id)
            .map(|e| (e.id.clone(), e.version.clone(), Arc::clone(&e.oracle)))
            .ok_or_else(|| self.unknown(id))
    }

    /// Whether `id` is registered.
    fn contains(&self, id: &str) -> bool {
        self.entries.iter().any(|e| e.id == id)
    }

    /// The id used when a request names no oracle.
    pub fn default_id(&self) -> &str {
        &self.default_id
    }

    /// Registered ids, in registration order.
    pub fn ids(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.id.as_str()).collect()
    }

    /// Whether the registry is empty (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The registry contents as the `GET /v1/oracles` DTO.
    pub fn infos(&self) -> Vec<qapi::OracleInfo> {
        self.entries
            .iter()
            .map(|e| qapi::OracleInfo {
                id: e.id.clone(),
                description: e.description.clone(),
                default: e.id == self.default_id,
            })
            .collect()
    }

    fn unknown(&self, requested: &str) -> ServiceError {
        ServiceError::UnknownOracle {
            requested: requested.to_string(),
            available: self.entries.iter().map(|e| e.id.clone()).collect(),
        }
    }
}

/// One typed submission: the circuit plus its per-job oracle selection
/// and engine config. The `None` oracle means the registry default.
#[derive(Clone)]
pub struct JobRequest {
    /// The circuit to optimize.
    pub circuit: Circuit,
    /// Oracle id from the registry; `None` selects the default.
    pub oracle: Option<String>,
    /// Engine parameters for this job.
    pub config: PopqcConfig,
}

impl JobRequest {
    /// A request for the registry's default oracle.
    pub fn new(circuit: Circuit, config: PopqcConfig) -> JobRequest {
        JobRequest {
            circuit,
            oracle: None,
            config,
        }
    }

    /// A request pinned to a specific oracle id.
    pub fn with_oracle(
        circuit: Circuit,
        oracle: impl Into<String>,
        config: PopqcConfig,
    ) -> JobRequest {
        JobRequest {
            circuit,
            oracle: Some(oracle.into()),
            config,
        }
    }
}

/// The memoization key: everything that determines an optimization result.
///
/// The engine is deterministic, so `(structural input, oracle, config)`
/// fully determines `(output circuit, call counts)` — timing fields in the
/// cached stats are from the original run.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct JobKey {
    /// Structural fingerprint of the input circuit.
    pub fingerprint: Fingerprint,
    /// The registry id the job ran under (two registry entries never share
    /// cache entries, even when they wrap the same oracle type).
    pub oracle_id: String,
    /// Engine parameters the result depends on.
    pub config: PopqcConfig,
}

/// Service sizing knobs.
///
/// Defaults (`0`) resolve through the workspace-wide thread-count
/// precedence ([`qexec::resolve_threads`]): `POPQC_NUM_THREADS` >
/// explicit config > available parallelism.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads (concurrent jobs). `0` = the resolved core budget.
    pub workers: usize,
    /// Engine parallelism each job runs at (a `qexec` width scope on the
    /// shared pool, provisioned as `workers × threads_per_job` pool
    /// threads). `0` = `max(1, cores / workers)`, dividing the resolved
    /// core budget across the workers. Note `POPQC_NUM_THREADS` pins
    /// each *per-operation width* (it outranks this knob, like every
    /// explicit width — see [`qexec::resolve_threads`]); it does not cap
    /// the `workers ×` product, which is the `workers` knob's job.
    pub threads_per_job: usize,
    /// Total result-cache entries before LRU eviction.
    pub cache_capacity: usize,
    /// Total *segment*-cache entries before LRU eviction (see
    /// [`crate::segcache`]); only jobs on angle-independent oracles use
    /// them. `0` disables the segment cache entirely — the library
    /// default, so embedding services opt in; the `popqc` CLI enables it
    /// by default (`--seg-cache-capacity`).
    pub seg_cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 0,
            threads_per_job: 0,
            cache_capacity: 1024,
            seg_cache_capacity: 0,
        }
    }
}

impl ServiceConfig {
    fn resolved(&self) -> (usize, usize) {
        // The one documented precedence, shared with qexec:
        // POPQC_NUM_THREADS > explicit width > available parallelism.
        let cores = qexec::resolve_threads(None);
        let workers = if self.workers == 0 {
            cores
        } else {
            self.workers
        };
        let threads_per_job = if self.threads_per_job == 0 {
            (cores / workers).max(1)
        } else {
            self.threads_per_job
        };
        (workers, threads_per_job)
    }
}

/// A finished job: the optimized circuit plus full accounting.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The optimized circuit (bit-identical to a direct
    /// `optimize_circuit` call with the same inputs).
    pub circuit: Circuit,
    /// Engine statistics. For cache hits these are the *original* run's
    /// stats; no new oracle work happened.
    pub stats: PopqcStats,
    /// Whether this result was served from the cache.
    pub cache_hit: bool,
    /// Whether this result came from attaching to an identical job that was
    /// already queued or running when this one was submitted (in-flight
    /// coalescing). Coalesced results are also counted as cache hits.
    pub coalesced: bool,
    /// `Some` when the job failed instead of producing a result (the
    /// oracle panicked mid-computation). `circuit` is then the *input*
    /// circuit unchanged, `stats` is zeroed, and nothing was cached —
    /// resubmitting retries the computation.
    pub error: Option<ServiceError>,
    /// The memoization key the job ran (or hit) under.
    pub key: JobKey,
    /// Nanoseconds from submission to a worker picking the job up
    /// (zero for submit-time cache hits).
    pub queue_nanos: u64,
    /// Nanoseconds the worker spent producing the result
    /// (zero for submit-time cache hits).
    pub run_nanos: u64,
}

enum SlotState {
    Pending,
    Done(Arc<JobResult>),
}

/// Shared completion slot between a [`JobHandle`] and the worker pool.
struct JobSlot {
    state: Mutex<SlotState>,
    done: Condvar,
    rounds: AtomicUsize,
}

impl JobSlot {
    fn new() -> Arc<JobSlot> {
        Arc::new(JobSlot {
            state: Mutex::new(SlotState::Pending),
            done: Condvar::new(),
            rounds: AtomicUsize::new(0),
        })
    }

    fn fulfil(&self, result: Arc<JobResult>) {
        let mut st = self.state.lock().expect("job slot poisoned");
        *st = SlotState::Done(result);
        self.done.notify_all();
    }
}

/// Handle to a submitted job.
pub struct JobHandle {
    slot: Arc<JobSlot>,
}

impl JobHandle {
    /// Blocks until the job completes.
    pub fn wait(&self) -> Arc<JobResult> {
        let mut st = self.slot.state.lock().expect("job slot poisoned");
        loop {
            match &*st {
                SlotState::Done(r) => return Arc::clone(r),
                SlotState::Pending => {
                    st = self.slot.done.wait(st).expect("job slot poisoned");
                }
            }
        }
    }

    /// The result if the job already finished, without blocking.
    pub fn try_result(&self) -> Option<Arc<JobResult>> {
        match &*self.slot.state.lock().expect("job slot poisoned") {
            SlotState::Done(r) => Some(Arc::clone(r)),
            SlotState::Pending => None,
        }
    }

    /// Engine rounds completed so far (live progress via the core
    /// [`RoundObserver`] hook; cache hits jump straight to the final
    /// count).
    pub fn rounds_completed(&self) -> usize {
        self.slot.rounds.load(Relaxed)
    }
}

/// Handles for one batch submission, in submission order.
pub struct BatchHandle {
    handles: Vec<JobHandle>,
    submitted_at: Instant,
}

impl BatchHandle {
    /// Blocks until every job in the batch completes.
    pub fn wait(self) -> BatchResult {
        let results: Vec<Arc<JobResult>> = self.handles.iter().map(JobHandle::wait).collect();
        BatchResult {
            wall_nanos: self.submitted_at.elapsed().as_nanos() as u64,
            results,
        }
    }

    /// Per-job handles (e.g. for live progress polling before `wait`).
    pub fn handles(&self) -> &[JobHandle] {
        &self.handles
    }

    pub fn len(&self) -> usize {
        self.handles.len()
    }

    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }
}

/// All results of a batch, in submission order, with aggregates.
pub struct BatchResult {
    /// One result per submitted job, in submission order.
    pub results: Vec<Arc<JobResult>>,
    /// Submission-to-last-completion wall time.
    pub wall_nanos: u64,
}

impl BatchResult {
    /// Jobs answered from the cache.
    pub fn cache_hits(&self) -> usize {
        self.results.iter().filter(|r| r.cache_hit).count()
    }

    /// Oracle calls actually issued by this batch (cache hits contribute
    /// zero — their stats describe the original run).
    pub fn oracle_calls_issued(&self) -> u64 {
        self.results
            .iter()
            .filter(|r| !r.cache_hit)
            .map(|r| r.stats.oracle_calls)
            .sum()
    }

    /// Total input and output gate counts.
    pub fn gate_totals(&self) -> (usize, usize) {
        self.results.iter().fold((0, 0), |(i, o), r| {
            (i + r.stats.initial_units, o + r.stats.final_units)
        })
    }

    /// Completed jobs per second of batch wall time.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.results.len() as f64 / (self.wall_nanos as f64 / 1e9)
        }
    }
}

/// Monotonic service-wide counters.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Jobs accepted by `submit`/`submit_batch`.
    pub submitted: u64,
    /// Jobs completed (including cache hits).
    pub completed: u64,
    /// Jobs answered from the cache (at submit or dequeue time) or by
    /// coalescing onto an in-flight duplicate.
    pub cache_hits: u64,
    /// Jobs that attached as waiters to an identical in-flight job instead
    /// of computing (a subset of `cache_hits`).
    pub coalesced: u64,
    /// Jobs that completed with [`JobResult::error`] set (oracle panic)
    /// instead of an optimized circuit (a subset of `completed`).
    pub failed: u64,
    /// Oracle calls issued by cache-missing jobs.
    pub oracle_calls_issued: u64,
    /// The result store's report: backend name, aggregates (logical
    /// hits and misses, entries in the authoritative tier) and one entry
    /// per tier.
    pub store: qapi::CacheReport,
    /// Segment-cache counters (see [`crate::segcache`]); all-zero with
    /// `enabled: false` when [`ServiceConfig::seg_cache_capacity`] is 0.
    pub seg_cache: qapi::SegmentCacheReport,
    /// Executor counters (process-wide `popqc-exec` pool the engine's
    /// parallel rounds run on). Process-global and
    /// monotonic — NOT per-service or per-job; diff two snapshots with
    /// [`qexec::ExecStats::delta_since`] to attribute work to an
    /// interval.
    pub executor: qexec::ExecStats,
    /// Seconds since this service was constructed.
    pub uptime_seconds: f64,
}

struct QueuedJob {
    circuit: Circuit,
    key: JobKey,
    oracle: DynOracle,
    /// The oracle's persistence version tag; stamps disk-tier writes and
    /// gates disk-tier reads (see [`ResultStore`]).
    oracle_version: String,
    slot: Arc<JobSlot>,
    enqueued_at: Instant,
    /// The submitting request's trace position, carried across the queue
    /// so the worker's spans land in the request's trace.
    trace: qobs::trace::TraceCtx,
}

/// A duplicate submission parked on an in-flight computation.
struct Waiter {
    slot: Arc<JobSlot>,
    attached_at: Instant,
    /// The waiter's own request trace; its coalesce-attach span is
    /// recorded when the lead computation settles it.
    trace: qobs::trace::TraceCtx,
    /// Attach instant as an offset in the waiter's own trace timeline.
    attached_offset: u64,
}

/// Failure protection for the in-flight entry: if the oracle (a public
/// trait clients implement) panics mid-computation, the entry must not
/// leak — a leaked entry would park every future submission of the same
/// circuit as a waiter that is never fulfilled. `run_job` catches the
/// unwind and drops the still-armed guard, which removes the entry and
/// re-enqueues each waiter as an independent job (the pre-coalescing
/// behaviour for duplicates); the guard is disarmed on the normal path,
/// where `settle_waiters` removes the entry instead.
struct InflightGuard<'a> {
    inflight: &'a Mutex<HashMap<JobKey, Vec<Waiter>>>,
    queue: &'a Mutex<VecDeque<QueuedJob>>,
    work_ready: &'a Condvar,
    circuit: &'a Circuit,
    key: &'a JobKey,
    oracle: &'a DynOracle,
    oracle_version: &'a str,
    armed: bool,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let waiters: Vec<Waiter> = self
            .inflight
            .lock()
            .expect("inflight table poisoned")
            .remove(self.key)
            .into_iter()
            .flatten()
            .collect();
        if waiters.is_empty() {
            return;
        }
        let mut q = self.queue.lock().expect("job queue poisoned");
        for w in waiters {
            q.push_back(QueuedJob {
                circuit: self.circuit.clone(),
                key: self.key.clone(),
                oracle: Arc::clone(self.oracle),
                oracle_version: self.oracle_version.to_string(),
                slot: w.slot,
                enqueued_at: w.attached_at,
                trace: w.trace,
            });
            self.work_ready.notify_one();
        }
    }
}

struct Inner {
    threads_per_job: usize,
    store: Arc<dyn ResultStore>,
    /// The segment-rewrite cache shared by every job (null-backed when
    /// disabled, making the per-segment hook a cheap early return).
    segcache: SegmentCacheLayer,
    queue: Mutex<VecDeque<QueuedJob>>,
    work_ready: Condvar,
    /// In-flight table: one entry per key that is queued or running, holding
    /// the duplicate submissions parked on it. The entry is created by the
    /// `submit` that enqueues the computation and removed (waiters drained)
    /// by the worker that finishes it.
    inflight: Mutex<HashMap<JobKey, Vec<Waiter>>>,
    shutdown: AtomicBool,
    /// One entry per registered oracle, in registry order: the job
    /// outcome counters `completed`, `cache_hits` and `coalesced` are
    /// summed from, and the oracle's latency histograms.
    oracles: Vec<OracleCounters>,
    submitted: AtomicU64,
    failed: AtomicU64,
    oracle_calls_issued: AtomicU64,
    /// Construction time, for the uptime gauge in stats and scrapes.
    started: Instant,
}

/// Counts engine rounds into the running job's slot — and into every
/// waiter currently coalesced onto it, so a client polling a coalesced
/// job sees the same live progress as the lead submission.
struct SlotProgress<'a> {
    slot: &'a JobSlot,
    key: &'a JobKey,
    inflight: &'a Mutex<HashMap<JobKey, Vec<Waiter>>>,
    /// The job's trace; each round becomes a closed span under the
    /// engine span. Rounds are strictly sequential on this thread, so
    /// the previous round's end offset is the next one's start.
    trace: qobs::trace::TraceHandle,
    engine_span: u64,
    round_started: AtomicU64,
}

impl RoundObserver for SlotProgress<'_> {
    fn on_round(&self, round: usize, record: &RoundRecord) {
        self.slot.rounds.store(round, Relaxed);
        if self.trace.enabled() {
            let now = self.trace.now_nanos();
            let start = self.round_started.swap(now, Relaxed);
            self.trace.span_closed(
                "round",
                self.engine_span,
                start,
                now.saturating_sub(start),
                vec![
                    ("round", round.into()),
                    ("fingers", record.fingers.into()),
                    ("selected", record.selected.into()),
                    ("accepted", record.accepted.into()),
                ],
            );
        }
        // One short map lock per engine round (tens per job) is noise next
        // to the oracle calls the round just made.
        if let Ok(inflight) = self.inflight.lock() {
            if let Some(waiters) = inflight.get(self.key) {
                for w in waiters {
                    w.slot.rounds.store(round, Relaxed);
                }
            }
        }
    }
}

/// Wraps a job's oracle so every `optimize` call lands in the
/// per-oracle latency histogram — the direct observable for the paper's
/// O(n·Ω) bound. Called from the engine's parallel rounds, so the only
/// added cost per call is an `Instant` pair and one relaxed bucket add.
struct TimedOracle<'a> {
    inner: &'a (dyn SegmentOracle<Gate> + Send + Sync),
    histogram: &'a qobs::Histogram,
    /// Carried explicitly (not via the thread-local context) because
    /// `optimize` runs on qexec pool threads that never install one.
    trace: qobs::trace::TraceHandle,
    engine_span: u64,
}

impl SegmentOracle<Gate> for TimedOracle<'_> {
    fn optimize(&self, units: &[Gate], num_qubits: u32) -> Vec<Gate> {
        let _timer = self.histogram.start_timer();
        let mut span = self.trace.span("oracle_call", self.engine_span);
        let out = self.inner.optimize(units, num_qubits);
        if self.trace.enabled() {
            span.attr("gates_in", units.len());
            span.attr("gates_out", out.len());
        }
        out
    }

    fn cost(&self, units: &[Gate]) -> u64 {
        self.inner.cost(units)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn version(&self) -> String {
        self.inner.version()
    }

    fn angle_independent(&self) -> bool {
        self.inner.angle_independent()
    }
}

/// Best-effort text from a caught panic payload (`&str` and `String`
/// cover what `panic!` produces in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "unknown panic payload"
    }
}

impl Inner {
    /// The counters of the registered oracle `id` (every job key carries
    /// a registry id).
    fn oracle(&self, id: &str) -> &OracleCounters {
        self.oracles
            .iter()
            .find(|o| o.id == id)
            .expect("job keys carry registered oracle ids")
    }

    fn complete(&self, slot: &JobSlot, result: JobResult) {
        // Every completion path funnels through here, so this is the one
        // place the per-oracle outcome counters and the submit→done
        // latency histogram are maintained.
        let oracle = result.key.oracle_id.as_str();
        let counters = self.oracle(oracle);
        let outcome = if result.coalesced {
            &counters.coalesced
        } else if result.cache_hit {
            &counters.hits
        } else {
            if result.error.is_none() {
                metrics::rounds_to_fixpoint().observe(result.stats.rounds as f64);
            }
            &counters.misses
        };
        outcome.fetch_add(1, Relaxed);
        counters
            .job_duration
            .observe((result.queue_nanos + result.run_nanos) as f64 / 1e9);
        qobs::log_debug!(
            target: "qsvc",
            "job done",
            oracle = oracle,
            cache_hit = result.cache_hit,
            coalesced = result.coalesced,
            rounds = result.stats.rounds,
            oracle_calls = result.stats.oracle_calls,
        );
        slot.rounds.store(result.stats.rounds, Relaxed);
        slot.fulfil(Arc::new(result));
    }

    /// Drains and fulfils every waiter parked on `key`. Must run after the
    /// result is in the cache: once the in-flight entry is gone, duplicate
    /// submissions fall through to the cache probe, so the ordering
    /// guarantees they find the result there.
    fn settle_waiters(&self, key: &JobKey, circuit: &Circuit, stats: &PopqcStats) {
        let waiters = self
            .inflight
            .lock()
            .expect("inflight table poisoned")
            .remove(key);
        for w in waiters.into_iter().flatten() {
            if w.trace.handle.enabled() {
                // The waiter's whole service-side story is one span: from
                // attaching onto the in-flight computation to being
                // settled by it.
                let now = w.trace.handle.now_nanos();
                w.trace.handle.span_closed(
                    "coalesce_attach",
                    w.trace.parent,
                    w.attached_offset,
                    now.saturating_sub(w.attached_offset),
                    vec![("oracle", key.oracle_id.as_str().into())],
                );
            }
            let slot = w.slot;
            self.complete(
                &slot,
                JobResult {
                    circuit: circuit.clone(),
                    stats: stats.clone(),
                    cache_hit: true,
                    coalesced: true,
                    error: None,
                    key: key.clone(),
                    queue_nanos: w.attached_at.elapsed().as_nanos() as u64,
                    run_nanos: 0,
                },
            );
        }
    }

    fn run_job(&self, job: QueuedJob) {
        // Install the job's trace as this worker thread's ambient
        // context so store tiers (including the remote wire hop) record
        // their spans into the right trace without plumbing.
        let ctx = job.trace.clone();
        qobs::trace::with_active(&ctx, || self.run_job_traced(job))
    }

    fn run_job_traced(&self, job: QueuedJob) {
        let queue_nanos = job.enqueued_at.elapsed().as_nanos() as u64;
        let trace = job.trace.handle.clone();
        let trace_parent = job.trace.parent;
        trace.span_closed(
            "job_queue_wait",
            trace_parent,
            trace.now_nanos().saturating_sub(queue_nanos),
            queue_nanos,
            Vec::new(),
        );
        // Second probe: an identical job submitted earlier may have
        // completed while this one sat in the queue (possible when the
        // earlier job's in-flight entry was removed between this job's
        // submit-time cache probe and its in-flight check).
        let second_probe = {
            let mut span = trace.span("store_get", trace_parent);
            let nested = qobs::trace::TraceCtx {
                handle: trace.clone(),
                parent: span.id(),
            };
            let r =
                qobs::trace::with_active(&nested, || self.store.get(&job.key, &job.oracle_version));
            span.attr("hit", r.is_some());
            r
        };
        if let Some(cached) = second_probe {
            self.settle_waiters(&job.key, &cached.circuit, &cached.stats);
            self.complete(
                &job.slot,
                JobResult {
                    circuit: cached.circuit.clone(),
                    stats: cached.stats.clone(),
                    cache_hit: true,
                    coalesced: false,
                    error: None,
                    key: job.key,
                    queue_nanos,
                    run_nanos: 0,
                },
            );
            return;
        }

        let t0 = Instant::now();
        let mut engine_span = trace.span("engine", trace_parent);
        engine_span.attr("width", self.threads_per_job);
        engine_span.attr("oracle", job.key.oracle_id.as_str());
        let engine_span_id = engine_span.id();
        let observer = SlotProgress {
            slot: &job.slot,
            key: &job.key,
            inflight: &self.inflight,
            trace: trace.clone(),
            engine_span: engine_span_id,
            round_started: AtomicU64::new(trace.now_nanos()),
        };
        let mut guard = InflightGuard {
            inflight: &self.inflight,
            queue: &self.queue,
            work_ready: &self.work_ready,
            circuit: &job.circuit,
            key: &job.key,
            oracle: &job.oracle,
            oracle_version: &job.oracle_version,
            armed: true,
        };
        // The oracle is a public trait clients implement: a panic inside it
        // must neither unwind through the worker thread (shrinking the
        // fixed pool) nor leave the lead slot pending forever. Catch it,
        // let the still-armed guard re-enqueue the coalesced waiters as
        // independent retries, and fulfil the lead slot with an
        // error-shaped result so its client unblocks.
        let timed_oracle = TimedOracle {
            inner: job.oracle.as_ref(),
            histogram: &self.oracle(&job.key.oracle_id).oracle_call_duration,
            trace: trace.clone(),
            engine_span: engine_span_id,
        };
        // Only a job the segment cache serves (it has capacity and the
        // oracle is angle-independent) gets a hook; every other job runs
        // with none. The hook wraps the RAW oracle: template derivation re-invokes it
        // on marker segments, and those derivation calls must not land in
        // the per-call latency histogram.
        let seg_hook = self.segcache.serves(job.oracle.as_ref()).then(|| {
            self.segcache.for_job_traced(
                &job.key.oracle_id,
                job.oracle.as_ref(),
                trace.clone(),
                engine_span_id,
            )
        });
        // Re-anchor the ambient context under the engine span so the
        // engine's parallel-op spans (recorded by qexec on this driving
        // thread) nest correctly.
        let engine_ctx = qobs::trace::TraceCtx {
            handle: trace.clone(),
            parent: engine_span_id,
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // The per-job thread budget is a width scope on the shared
            // qexec pool: the engine's parallel rounds run at
            // `threads_per_job` width on persistent pool threads instead
            // of spawning scoped threads per round.
            qobs::trace::with_active(&engine_ctx, || {
                qexec::with_width(self.threads_per_job, || {
                    Engine {
                        observer: Some(&observer),
                        cache: seg_hook.as_ref().map(|h| h as _),
                        ..Engine::new(&timed_oracle, job.key.config.clone())
                    }
                    .run(job.circuit.gates.clone(), job.circuit.num_qubits)
                })
            })
        }));
        drop(engine_span);
        let (gates, stats) = match outcome {
            Ok(run) => run,
            Err(payload) => {
                drop(guard); // armed: removes the in-flight entry, re-enqueues waiters
                let run_nanos = t0.elapsed().as_nanos() as u64;
                self.failed.fetch_add(1, Relaxed);
                qobs::log_error!(
                    target: "qsvc",
                    "job failed",
                    oracle = job.key.oracle_id,
                    error = panic_message(&*payload),
                );
                self.complete(
                    &job.slot,
                    JobResult {
                        circuit: job.circuit,
                        stats: PopqcStats::default(),
                        cache_hit: false,
                        coalesced: false,
                        // `&*payload`, not `&payload`: coercing the Box
                        // itself to `&dyn Any` would make every downcast
                        // miss.
                        error: Some(ServiceError::OracleFailure(format!(
                            "optimization panicked: {}",
                            panic_message(&*payload)
                        ))),
                        key: job.key,
                        queue_nanos,
                        run_nanos,
                    },
                );
                return;
            }
        };
        guard.armed = false;
        drop(guard); // release the borrows of `job` before it is moved below
        let run_nanos = t0.elapsed().as_nanos() as u64;
        let optimized = Circuit {
            num_qubits: job.circuit.num_qubits,
            gates,
        };

        self.oracle_calls_issued
            .fetch_add(stats.oracle_calls, Relaxed);
        {
            let span = trace.span("store_put", trace_parent);
            let nested = qobs::trace::TraceCtx {
                handle: trace.clone(),
                parent: span.id(),
            };
            qobs::trace::with_active(&nested, || {
                self.store.put(
                    &job.key,
                    &job.oracle_version,
                    Arc::new(CachedRun {
                        circuit: optimized.clone(),
                        stats: stats.clone(),
                    }),
                )
            });
        }
        self.settle_waiters(&job.key, &optimized, &stats);
        self.complete(
            &job.slot,
            JobResult {
                circuit: optimized,
                stats,
                cache_hit: false,
                coalesced: false,
                error: None,
                key: job.key,
                queue_nanos,
                run_nanos,
            },
        );
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock().expect("job queue poisoned");
                loop {
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    if self.shutdown.load(Relaxed) {
                        return;
                    }
                    q = self.work_ready.wait(q).expect("job queue poisoned");
                }
            };
            // `run_job` already converts oracle panics into error-shaped
            // results; this is the last line of defence so no panic
            // whatsoever can shrink the fixed worker pool.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_job(job)));
        }
    }
}

/// The in-process batch optimization service. See the module docs for the
/// architecture; construct with [`OptimizationService::new`] over an
/// [`OracleRegistry`] (or [`single`](OptimizationService::single) for one
/// oracle), submit with [`submit`](OptimizationService::submit) /
/// [`submit_request`](OptimizationService::submit_request) /
/// [`submit_batch`](OptimizationService::submit_batch), and audit with
/// [`stats`](OptimizationService::stats).
///
/// Dropping the service drains the queue (every outstanding
/// [`JobHandle`] still completes) and joins the workers.
pub struct OptimizationService {
    inner: Arc<Inner>,
    registry: OracleRegistry,
    workers: Vec<std::thread::JoinHandle<()>>,
    worker_count: usize,
    threads_per_job: usize,
}

impl OptimizationService {
    /// Spawns the worker pool over `registry` with the default
    /// process-local [`MemoryStore`] sized by the config's
    /// `cache_capacity` over [`CACHE_SHARDS`] locks. Every submission
    /// resolves its oracle in the registry per job, so one running service
    /// answers mixed-oracle traffic; the registry ids are the cache keys'
    /// oracle ids, so entries never cross-contaminate.
    pub fn new(registry: OracleRegistry, config: ServiceConfig) -> OptimizationService {
        let store: Arc<dyn ResultStore> =
            Arc::new(MemoryStore::new(config.cache_capacity, CACHE_SHARDS));
        OptimizationService::with_store(registry, config, store)
    }

    /// [`new`](Self::new) over an explicit [`ResultStore`] backend — the
    /// pluggable seam. Swapping memory / disk / tiered / remote (or any
    /// future backend) changes nothing but this argument; the scheduling,
    /// coalescing, and accounting layers above see only the trait.
    pub fn with_store(
        registry: OracleRegistry,
        config: ServiceConfig,
        store: Arc<dyn ResultStore>,
    ) -> OptimizationService {
        assert!(
            !registry.is_empty(),
            "the oracle registry must hold at least the default oracle"
        );
        let (workers, threads_per_job) = config.resolved();
        // Provision the shared executor for the full service: individual
        // jobs only grow the pool to their own width, so without this a
        // multi-worker service would run all its concurrent jobs on one
        // job's worth of pool threads.
        if threads_per_job > 1 {
            qexec::reserve_workers(workers.saturating_mul(threads_per_job));
        }
        let inner = Arc::new(Inner {
            threads_per_job,
            store,
            segcache: SegmentCacheLayer::new(config.seg_cache_capacity, CACHE_SHARDS),
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            oracles: registry
                .ids()
                .into_iter()
                .map(OracleCounters::new)
                .collect(),
            submitted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            oracle_calls_issued: AtomicU64::new(0),
            started: Instant::now(),
        });
        // Pre-register this crate's (and the executor's) metric families
        // so the first `/v1/metrics` scrape already lists every series a
        // busy server would.
        metrics::describe_metrics();
        qexec::describe_metrics();
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("qsvc-worker-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn service worker")
            })
            .collect();
        OptimizationService {
            inner,
            registry,
            workers: handles,
            worker_count: workers,
            threads_per_job,
        }
    }

    /// A single-oracle service: [`new`](Self::new) over
    /// [`OracleRegistry::single`]. The oracle's [`SegmentOracle::name`]
    /// becomes the registry (and cache-key) id, so two oracles with the
    /// same name MUST behave identically; for custom-parameterized oracles
    /// build the registry with [`OracleRegistry::single_with_id`] and use
    /// [`new`](Self::new).
    pub fn single(
        oracle: impl SegmentOracle<Gate> + Send + 'static,
        config: ServiceConfig,
    ) -> OptimizationService {
        OptimizationService::new(OracleRegistry::single(oracle), config)
    }

    /// The oracle registry this service dispatches over.
    pub fn registry(&self) -> &OracleRegistry {
        &self.registry
    }

    /// The key `circuit` would be cached under with the default oracle.
    pub fn key_for(&self, circuit: &Circuit, cfg: &PopqcConfig) -> JobKey {
        JobKey {
            fingerprint: circuit.fingerprint(),
            oracle_id: self.registry.default_id().to_string(),
            config: cfg.clone(),
        }
    }

    /// The key `circuit` would be cached under with a specific oracle.
    pub fn key_for_oracle(
        &self,
        oracle: &str,
        circuit: &Circuit,
        cfg: &PopqcConfig,
    ) -> Result<JobKey, ServiceError> {
        let (oracle_id, _, _) = self.registry.resolve_versioned(Some(oracle))?;
        Ok(JobKey {
            fingerprint: circuit.fingerprint(),
            oracle_id,
            config: cfg.clone(),
        })
    }

    /// Submits one typed request (per-job oracle + config). Cache hits
    /// complete immediately (the handle is already fulfilled); misses are
    /// queued for the worker pool. Fails with
    /// [`ServiceError::UnknownOracle`] without enqueueing anything.
    pub fn submit_request(&self, req: JobRequest) -> Result<JobHandle, ServiceError> {
        let (oracle_id, version, oracle) =
            self.registry.resolve_versioned(req.oracle.as_deref())?;
        Ok(self.submit_resolved(oracle_id, version, oracle, req.circuit, &req.config))
    }

    /// Submits one circuit under the default oracle.
    pub fn submit(&self, circuit: Circuit, cfg: &PopqcConfig) -> JobHandle {
        let (oracle_id, version, oracle) = self
            .registry
            .resolve_versioned(None)
            .expect("registry default always resolves");
        self.submit_resolved(oracle_id, version, oracle, circuit, cfg)
    }

    /// Submits one circuit under a named oracle.
    pub fn submit_as(
        &self,
        oracle: &str,
        circuit: Circuit,
        cfg: &PopqcConfig,
    ) -> Result<JobHandle, ServiceError> {
        self.submit_request(JobRequest::with_oracle(circuit, oracle, cfg.clone()))
    }

    fn submit_resolved(
        &self,
        oracle_id: String,
        oracle_version: String,
        oracle: DynOracle,
        circuit: Circuit,
        cfg: &PopqcConfig,
    ) -> JobHandle {
        self.inner.submitted.fetch_add(1, Relaxed);
        // The submitting thread (an HTTP dispatcher or connection
        // thread) carries the request's ambient trace; capture it here
        // so the worker, possibly seconds later, joins the same trace.
        let trace = qobs::trace::current();
        let key = JobKey {
            fingerprint: circuit.fingerprint(),
            oracle_id,
            config: cfg.clone(),
        };
        let slot = JobSlot::new();

        let submit_probe = {
            let mut span = trace.handle.span("store_get", trace.parent);
            let nested = qobs::trace::TraceCtx {
                handle: trace.handle.clone(),
                parent: span.id(),
            };
            let r =
                qobs::trace::with_active(&nested, || self.inner.store.get(&key, &oracle_version));
            span.attr("hit", r.is_some());
            r
        };
        if let Some(cached) = submit_probe {
            self.inner.complete(
                &slot,
                JobResult {
                    circuit: cached.circuit.clone(),
                    stats: cached.stats.clone(),
                    cache_hit: true,
                    coalesced: false,
                    error: None,
                    key,
                    queue_nanos: 0,
                    run_nanos: 0,
                },
            );
            return JobHandle { slot };
        }

        // In-flight coalescing: if an identical job is already queued or
        // running, park this submission as a waiter on it instead of
        // computing again. The finishing worker fulfils all waiters.
        {
            let mut inflight = self.inner.inflight.lock().expect("inflight table poisoned");
            if let Some(waiters) = inflight.get_mut(&key) {
                waiters.push(Waiter {
                    slot: Arc::clone(&slot),
                    attached_at: Instant::now(),
                    attached_offset: trace.handle.now_nanos(),
                    trace,
                });
                return JobHandle { slot };
            }
            inflight.insert(key.clone(), Vec::new());
        }

        let job = QueuedJob {
            circuit,
            key,
            oracle,
            oracle_version,
            slot: Arc::clone(&slot),
            enqueued_at: Instant::now(),
            trace,
        };
        {
            let mut q = self.inner.queue.lock().expect("job queue poisoned");
            q.push_back(job);
        }
        self.inner.work_ready.notify_one();
        JobHandle { slot }
    }

    /// Submits a homogeneous batch (default oracle, one engine config for
    /// all circuits).
    pub fn submit_batch(
        &self,
        circuits: impl IntoIterator<Item = Circuit>,
        cfg: &PopqcConfig,
    ) -> BatchHandle {
        let submitted_at = Instant::now();
        let handles = circuits.into_iter().map(|c| self.submit(c, cfg)).collect();
        BatchHandle {
            handles,
            submitted_at,
        }
    }

    /// Submits a mixed batch: each [`JobRequest`] selects its own oracle
    /// and engine config, all sharing this service's queue and cache.
    /// Every oracle id is validated before anything is enqueued, so an
    /// unknown id refuses the whole batch atomically.
    pub fn submit_batch_requests(
        &self,
        requests: Vec<JobRequest>,
    ) -> Result<BatchHandle, ServiceError> {
        let mut resolved = Vec::with_capacity(requests.len());
        for req in &requests {
            resolved.push(self.registry.resolve_versioned(req.oracle.as_deref())?);
        }
        let submitted_at = Instant::now();
        let handles = requests
            .into_iter()
            .zip(resolved)
            .map(|(req, (oracle_id, version, oracle))| {
                self.submit_resolved(oracle_id, version, oracle, req.circuit, &req.config)
            })
            .collect();
        Ok(BatchHandle {
            handles,
            submitted_at,
        })
    }

    /// Point-in-time service counters.
    pub fn stats(&self) -> ServiceStats {
        let (mut hits, mut misses, mut coalesced) = (0, 0, 0);
        for o in &self.inner.oracles {
            hits += o.hits.load(Relaxed);
            misses += o.misses.load(Relaxed);
            coalesced += o.coalesced.load(Relaxed);
        }
        ServiceStats {
            submitted: self.inner.submitted.load(Relaxed),
            completed: hits + misses + coalesced,
            cache_hits: hits + coalesced,
            coalesced,
            failed: self.inner.failed.load(Relaxed),
            oracle_calls_issued: self.inner.oracle_calls_issued.load(Relaxed),
            store: self.inner.store.stats(),
            seg_cache: self.inner.segcache.stats(),
            executor: qexec::snapshot(),
            uptime_seconds: self.inner.started.elapsed().as_secs_f64(),
        }
    }

    /// Jobs currently sitting in the FIFO queue waiting for a worker
    /// (excludes running jobs and coalesced waiters). Cheap enough to
    /// probe per request: the serving edge's load shedder compares this
    /// against its `--shed-queue-depth` threshold before enqueueing.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.lock().expect("job queue poisoned").len()
    }

    /// The per-oracle job counters, in registry order.
    pub(crate) fn oracle_counters(&self) -> &[OracleCounters] {
        &self.inner.oracles
    }

    /// The result store this service memoizes into.
    pub fn store(&self) -> &Arc<dyn ResultStore> {
        &self.inner.store
    }

    /// Drops every stored result (all tiers); returns how many entries
    /// were removed. In-flight jobs are unaffected — they re-populate the
    /// store as they finish.
    pub fn clear_cache(&self) -> u64 {
        self.inner.store.clear()
    }

    /// Worker pool width.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Engine threads each job runs with.
    pub fn threads_per_job(&self) -> usize {
        self.threads_per_job
    }
}

impl Drop for OptimizationService {
    fn drop(&mut self) {
        // Set the flag while holding the queue lock: a worker is then either
        // before its shutdown check (and will see the flag) or already inside
        // `wait` (and will receive the notification) — storing without the
        // lock could interleave inside a worker's check-then-wait window and
        // lose the wakeup, hanging `join` forever.
        {
            let _q = self.inner.queue.lock().expect("job queue poisoned");
            self.inner.shutdown.store(true, Relaxed);
        }
        self.inner.work_ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}
