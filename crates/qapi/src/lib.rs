//! # popqc-api — the versioned public API surface
//!
//! One crate is the single source of truth for everything that crosses the
//! process boundary: the v1 request/response DTOs, the structured
//! [`ApiError`] taxonomy with its canonical HTTP-status mapping, and their
//! JSON wire format. The batch service (`popqc-svc`), the HTTP frontend
//! (`popqc-http`), and the `popqc` CLI all parse and emit **these** types,
//! so the three surfaces cannot drift apart.
//!
//! Design rules:
//!
//! * **Versioned** — every top-level document carries
//!   `"api_version": "v1"` ([`API_VERSION`]); decoders reject documents
//!   from a different version instead of misreading them.
//! * **Closed error taxonomy** — [`ApiError`] has exactly six variants,
//!   each with one documented HTTP status
//!   ([`ApiError::http_status`]). Transport-level conditions outside the
//!   API taxonomy (unknown route, wrong method, oversized payload) share
//!   the same wire shape via [`transport_error_json`].
//! * **Explicit wire format** — (de)serialization is hand-written over the
//!   workspace's `serde_json` [`Value`] tree; every DTO round-trips
//!   (`to_json` → text → `from_json`) and the exact field layout is pinned
//!   by snapshot tests in `tests/snapshots/`.
//!
//! This crate deliberately depends only on `serde_json`: circuits travel
//! as QASM text and fingerprints as hex strings, so clients can speak the
//! API without linking the whole workspace.

#![deny(missing_docs)]

use serde_json::{json, Value};

/// The wire-format version every v1 document carries and decoders require.
pub const API_VERSION: &str = "v1";

/// The build version reported by `GET /v1/version` (the workspace package
/// version of the binary serving the API).
pub const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

/// The closed v1 error taxonomy. Every failure a client can cause or
/// observe maps to exactly one variant, and every variant maps to one
/// documented HTTP status — see [`http_status`](ApiError::http_status).
///
/// | variant | kind | HTTP | meaning |
/// |---------|------|------|---------|
/// | [`InvalidConfig`](ApiError::InvalidConfig) | `invalid_config` | 400 | malformed request: bad JSON, bad query/body parameters, out-of-range numbers |
/// | [`UnknownOracle`](ApiError::UnknownOracle) | `unknown_oracle` | 404 | the requested oracle id is not in the registry |
/// | [`InvalidQasm`](ApiError::InvalidQasm) | `invalid_qasm` | 422 | the request was well-formed but the circuit text does not parse |
/// | [`Overloaded`](ApiError::Overloaded) | `overloaded` | 503 | the service refused new work (e.g. the polling registry is full of pending jobs, or the edge shed the request before enqueueing) |
/// | [`RateLimited`](ApiError::RateLimited) | `rate_limited` | 429 | this client exceeded the per-peer request rate; retry after the advertised delay |
/// | [`OracleFailure`](ApiError::OracleFailure) | `oracle_failure` | 500 | the oracle crashed while optimizing; the job failed, resubmitting retries |
/// | [`Internal`](ApiError::Internal) | `internal` | 500 | a bug in the server itself |
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ApiError {
    /// Well-formed transport, invalid QASM program text.
    InvalidQasm(String),
    /// The requested oracle id is not registered.
    UnknownOracle(String),
    /// Malformed request: bad JSON, bad parameters, out-of-range values.
    InvalidConfig(String),
    /// The service is refusing new work right now; retry later.
    Overloaded(String),
    /// This client exceeded the per-peer request rate; slow down.
    RateLimited(String),
    /// The oracle failed (panicked) while optimizing the circuit.
    OracleFailure(String),
    /// A server-side bug; nothing the client sent explains it.
    Internal(String),
}

impl ApiError {
    /// Every variant's wire kind, in canonical order (for table-driven
    /// tests over the full taxonomy).
    pub const KINDS: [&'static str; 7] = [
        "invalid_qasm",
        "unknown_oracle",
        "invalid_config",
        "overloaded",
        "rate_limited",
        "oracle_failure",
        "internal",
    ];

    /// One exemplar per variant, in [`KINDS`](Self::KINDS) order (for
    /// table-driven tests over the full taxonomy).
    pub fn exemplars() -> Vec<ApiError> {
        vec![
            ApiError::InvalidQasm("exemplar".into()),
            ApiError::UnknownOracle("exemplar".into()),
            ApiError::InvalidConfig("exemplar".into()),
            ApiError::Overloaded("exemplar".into()),
            ApiError::RateLimited("exemplar".into()),
            ApiError::OracleFailure("exemplar".into()),
            ApiError::Internal("exemplar".into()),
        ]
    }

    /// The stable wire identifier of this variant.
    pub fn kind(&self) -> &'static str {
        match self {
            ApiError::InvalidQasm(_) => "invalid_qasm",
            ApiError::UnknownOracle(_) => "unknown_oracle",
            ApiError::InvalidConfig(_) => "invalid_config",
            ApiError::Overloaded(_) => "overloaded",
            ApiError::RateLimited(_) => "rate_limited",
            ApiError::OracleFailure(_) => "oracle_failure",
            ApiError::Internal(_) => "internal",
        }
    }

    /// The human-readable detail message.
    pub fn message(&self) -> &str {
        match self {
            ApiError::InvalidQasm(m)
            | ApiError::UnknownOracle(m)
            | ApiError::InvalidConfig(m)
            | ApiError::Overloaded(m)
            | ApiError::RateLimited(m)
            | ApiError::OracleFailure(m)
            | ApiError::Internal(m) => m,
        }
    }

    /// The canonical HTTP status for this variant. This mapping is part of
    /// the v1 contract: 400 / 404 / 422 / 429 / 503 / 500.
    pub fn http_status(&self) -> u16 {
        match self {
            ApiError::InvalidConfig(_) => 400,
            ApiError::UnknownOracle(_) => 404,
            ApiError::InvalidQasm(_) => 422,
            ApiError::RateLimited(_) => 429,
            ApiError::Overloaded(_) => 503,
            ApiError::OracleFailure(_) | ApiError::Internal(_) => 500,
        }
    }

    /// The v1 error document:
    /// `{"api_version":"v1","error":{"kind":…,"message":…}}`.
    pub fn to_json(&self) -> Value {
        transport_error_json(self.kind(), self.message())
    }

    /// Decodes an error document produced by [`to_json`](Self::to_json).
    /// Transport-level kinds (which are outside the closed taxonomy)
    /// decode as [`ApiError::Internal`] so clients never lose the message.
    pub fn from_json(v: &Value) -> Result<ApiError, ApiError> {
        de::check_version(v)?;
        let err = v
            .get("error")
            .ok_or_else(|| de::malformed("error document: missing `error` object"))?;
        let kind = de::req_str(err, "kind")?;
        let message = de::req_str(err, "message")?;
        Ok(match kind.as_str() {
            "invalid_qasm" => ApiError::InvalidQasm(message),
            "unknown_oracle" => ApiError::UnknownOracle(message),
            "invalid_config" => ApiError::InvalidConfig(message),
            "overloaded" => ApiError::Overloaded(message),
            "rate_limited" => ApiError::RateLimited(message),
            "oracle_failure" => ApiError::OracleFailure(message),
            _ => ApiError::Internal(message),
        })
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message())
    }
}

impl std::error::Error for ApiError {}

/// Builds an error document in the v1 wire shape for a *transport-level*
/// condition outside the [`ApiError`] taxonomy (e.g. `not_found`,
/// `method_not_allowed`, `bad_request`, `payload_too_large`). API-level
/// failures must use [`ApiError::to_json`] instead so the kind stays
/// within the closed taxonomy.
pub fn transport_error_json(kind: &str, message: &str) -> Value {
    json!({
        "api_version": API_VERSION,
        "error": { "kind": kind, "message": message },
    })
}

// ---------------------------------------------------------------------------
// Version / oracle discovery
// ---------------------------------------------------------------------------

/// `GET /v1/version`: the served API version plus the server build.
/// Also embedded as a fragment in [`StatsReport`], so a stats scrape
/// identifies the build that produced it.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct VersionInfo {
    /// The package version of the serving binary.
    pub build_version: String,
}

impl VersionInfo {
    /// The version document for this build.
    pub fn current() -> VersionInfo {
        VersionInfo {
            build_version: BUILD_VERSION.to_string(),
        }
    }

    /// Serializes to the v1 wire shape.
    pub fn to_json(&self) -> Value {
        json!({
            "api_version": API_VERSION,
            "build_version": self.build_version.as_str(),
        })
    }

    /// Decodes a document produced by [`to_json`](Self::to_json).
    pub fn from_json(v: &Value) -> Result<VersionInfo, ApiError> {
        de::check_version(v)?;
        Ok(VersionInfo {
            build_version: de::req_str(v, "build_version")?,
        })
    }

    /// Serializes as a nested fragment (no `api_version` — the enclosing
    /// document carries it).
    pub fn to_json_fragment(&self) -> Value {
        json!({ "build_version": self.build_version.as_str() })
    }

    /// Decodes a fragment produced by
    /// [`to_json_fragment`](Self::to_json_fragment).
    pub fn from_json_fragment(v: &Value) -> Result<VersionInfo, ApiError> {
        Ok(VersionInfo {
            build_version: de::req_str(v, "build_version")?,
        })
    }
}

/// One registered oracle, as listed by `GET /v1/oracles`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleInfo {
    /// Stable oracle id — the value requests pass as `oracle`.
    pub id: String,
    /// Human-readable description of the oracle's strategy.
    pub description: String,
    /// Whether this oracle is used when a request names none.
    pub default: bool,
}

/// `GET /v1/oracles`: the oracle registry contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleList {
    /// All registered oracles, in registration order.
    pub oracles: Vec<OracleInfo>,
}

impl OracleList {
    /// Serializes to the v1 wire shape.
    pub fn to_json(&self) -> Value {
        json!({
            "api_version": API_VERSION,
            "oracles": self
                .oracles
                .iter()
                .map(|o| {
                    json!({
                        "id": o.id.as_str(),
                        "description": o.description.as_str(),
                        "default": o.default,
                    })
                })
                .collect::<Vec<Value>>(),
        })
    }

    /// Decodes a document produced by [`to_json`](Self::to_json).
    pub fn from_json(v: &Value) -> Result<OracleList, ApiError> {
        de::check_version(v)?;
        let raw = de::req_array(v, "oracles")?;
        let mut oracles = Vec::with_capacity(raw.len());
        for o in raw {
            oracles.push(OracleInfo {
                id: de::req_str(o, "id")?,
                description: de::req_str(o, "description")?,
                default: de::req_bool(o, "default")?,
            });
        }
        Ok(OracleList { oracles })
    }
}

// ---------------------------------------------------------------------------
// Optimize (single job)
// ---------------------------------------------------------------------------

/// `POST /v1/optimize` options. Over HTTP the QASM may be the raw request
/// body with these options as query parameters, or the whole request may
/// be this DTO as a JSON body (`{"qasm": …, "oracle": …, …}`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OptimizeRequest {
    /// The circuit to optimize, as QASM program text.
    pub qasm: String,
    /// Oracle id from the registry; `None` selects the server default.
    pub oracle: Option<String>,
    /// Engine window Ω; `None` selects the server default.
    pub omega: Option<u64>,
    /// Client label echoed back in the job document.
    pub label: Option<String>,
    /// `false` submits and returns immediately for `/v1/jobs/{id}`
    /// polling; `true` (the default) blocks until the result is ready.
    pub wait: bool,
}

impl OptimizeRequest {
    /// A blocking request for `qasm` with every option defaulted.
    pub fn new(qasm: impl Into<String>) -> OptimizeRequest {
        OptimizeRequest {
            qasm: qasm.into(),
            oracle: None,
            omega: None,
            label: None,
            wait: true,
        }
    }

    /// Serializes to the v1 wire shape.
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![("qasm".to_string(), json!(self.qasm.as_str()))];
        de::push_opt_str(&mut pairs, "oracle", &self.oracle);
        if let Some(omega) = self.omega {
            pairs.push(("omega".to_string(), json!(omega)));
        }
        de::push_opt_str(&mut pairs, "label", &self.label);
        pairs.push(("wait".to_string(), json!(self.wait)));
        Value::Object(pairs)
    }

    /// Decodes a JSON-body optimize request; failures are
    /// [`ApiError::InvalidConfig`].
    pub fn from_json(v: &Value) -> Result<OptimizeRequest, ApiError> {
        de::request_shape(v)?;
        let qasm = de::req_str(v, "qasm")
            .map_err(|_| ApiError::InvalidConfig("missing `qasm` string".into()))?;
        let omega = de::opt_u64(v, "omega")?;
        let wait = match v.get("wait") {
            None => true,
            Some(w) => w.as_bool().ok_or_else(|| {
                ApiError::InvalidConfig("bad `wait` (need true|false)".to_string())
            })?,
        };
        Ok(OptimizeRequest {
            qasm,
            oracle: de::opt_str(v, "oracle")?,
            omega,
            label: de::opt_str(v, "label")?,
            wait,
        })
    }
}

/// The per-job statistics fragment embedded in [`JobStatus::result`] and
/// in [`BatchResponse::jobs`]. Not a top-level document, so it carries no
/// `api_version` of its own.
#[derive(Clone, Debug, PartialEq)]
pub struct JobReport {
    /// Client label (batch context only; `None` omits the field).
    pub label: Option<String>,
    /// Structural fingerprint of the *input* circuit, as 32 hex digits.
    pub fingerprint: String,
    /// The oracle id the job ran (and is cached) under.
    pub oracle: String,
    /// The engine window Ω the job ran with.
    pub omega: u64,
    /// Gate count before optimization.
    pub input_gates: u64,
    /// Gate count after optimization.
    pub output_gates: u64,
    /// `1 - output/input` gate reduction in `[0, 1]`.
    pub reduction: f64,
    /// Engine rounds the computation took.
    pub rounds: u64,
    /// Oracle calls the computation issued.
    pub oracle_calls: u64,
    /// Whether the result was served from the cache.
    pub cache_hit: bool,
    /// Whether the job attached to an identical in-flight computation.
    pub coalesced: bool,
    /// `Some` when the job failed (the oracle crashed); always emitted,
    /// `null` on success.
    pub error: Option<String>,
    /// Seconds from submission to a worker picking the job up.
    pub queue_seconds: f64,
    /// Seconds the worker spent producing the result.
    pub run_seconds: f64,
    /// The optimized circuit as QASM; omitted for failed jobs and for
    /// contexts that deliver circuits out of band (`None` omits the
    /// field).
    pub qasm: Option<String>,
}

impl JobReport {
    /// Serializes to the v1 wire shape.
    pub fn to_json(&self) -> Value {
        let mut pairs = Vec::with_capacity(15);
        de::push_opt_str(&mut pairs, "label", &self.label);
        pairs.push(("fingerprint".to_string(), json!(self.fingerprint.as_str())));
        pairs.push(("oracle".to_string(), json!(self.oracle.as_str())));
        pairs.push(("omega".to_string(), json!(self.omega)));
        pairs.push(("input_gates".to_string(), json!(self.input_gates)));
        pairs.push(("output_gates".to_string(), json!(self.output_gates)));
        pairs.push(("reduction".to_string(), json!(self.reduction)));
        pairs.push(("rounds".to_string(), json!(self.rounds)));
        pairs.push(("oracle_calls".to_string(), json!(self.oracle_calls)));
        pairs.push(("cache_hit".to_string(), json!(self.cache_hit)));
        pairs.push(("coalesced".to_string(), json!(self.coalesced)));
        pairs.push((
            "error".to_string(),
            self.error.as_deref().map_or(Value::Null, |e| json!(e)),
        ));
        pairs.push(("queue_seconds".to_string(), json!(self.queue_seconds)));
        pairs.push(("run_seconds".to_string(), json!(self.run_seconds)));
        de::push_opt_str(&mut pairs, "qasm", &self.qasm);
        Value::Object(pairs)
    }

    /// Decodes a fragment produced by [`to_json`](Self::to_json).
    pub fn from_json(v: &Value) -> Result<JobReport, ApiError> {
        Ok(JobReport {
            label: de::opt_str(v, "label")?,
            fingerprint: de::req_str(v, "fingerprint")?,
            oracle: de::req_str(v, "oracle")?,
            omega: de::req_u64(v, "omega")?,
            input_gates: de::req_u64(v, "input_gates")?,
            output_gates: de::req_u64(v, "output_gates")?,
            reduction: de::req_f64(v, "reduction")?,
            rounds: de::req_u64(v, "rounds")?,
            oracle_calls: de::req_u64(v, "oracle_calls")?,
            cache_hit: de::req_bool(v, "cache_hit")?,
            coalesced: de::req_bool(v, "coalesced")?,
            error: de::opt_str(v, "error")?,
            queue_seconds: de::req_f64(v, "queue_seconds")?,
            run_seconds: de::req_f64(v, "run_seconds")?,
            qasm: de::opt_str(v, "qasm")?,
        })
    }
}

/// The job document: `POST /v1/optimize` responses, `GET /v1/jobs/{id}`
/// polling, and the `popqc optimize --json` CLI output are all exactly
/// this DTO, built by one shared adapter, so the three can never diverge.
#[derive(Clone, Debug, PartialEq)]
pub struct JobStatus {
    /// Server-assigned job id (`/v1/jobs/{id}`).
    pub job_id: u64,
    /// Client label echoed back; always emitted, `null` when absent.
    pub label: Option<String>,
    /// Whether the result is available.
    pub done: bool,
    /// Engine rounds completed so far (live progress for pending jobs).
    pub rounds_completed: u64,
    /// The result once done; the field is omitted while pending.
    pub result: Option<JobReport>,
}

/// `POST /v1/optimize` answers with the same job document the polling
/// endpoint serves.
pub type OptimizeResponse = JobStatus;

impl JobStatus {
    /// Serializes to the v1 wire shape.
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("api_version".to_string(), json!(API_VERSION)),
            ("job_id".to_string(), json!(self.job_id)),
            (
                "label".to_string(),
                self.label.as_deref().map_or(Value::Null, |l| json!(l)),
            ),
            ("done".to_string(), json!(self.done)),
            ("rounds_completed".to_string(), json!(self.rounds_completed)),
        ];
        if let Some(r) = &self.result {
            pairs.push(("result".to_string(), r.to_json()));
        }
        Value::Object(pairs)
    }

    /// Decodes a document produced by [`to_json`](Self::to_json).
    pub fn from_json(v: &Value) -> Result<JobStatus, ApiError> {
        de::check_version(v)?;
        Ok(JobStatus {
            job_id: de::req_u64(v, "job_id")?,
            label: de::opt_str(v, "label")?,
            done: de::req_bool(v, "done")?,
            rounds_completed: de::req_u64(v, "rounds_completed")?,
            result: match v.get("result") {
                None | Some(Value::Null) => None,
                Some(r) => Some(JobReport::from_json(r)?),
            },
        })
    }
}

// ---------------------------------------------------------------------------
// Batch
// ---------------------------------------------------------------------------

/// One circuit inside a [`BatchRequest`], with optional per-job overrides
/// — this is what makes mixed-oracle batches expressible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchCircuit {
    /// Client label echoed back per job; defaults to `job-{index}`.
    pub label: Option<String>,
    /// The circuit as QASM program text.
    pub qasm: String,
    /// Per-job oracle id; `None` inherits the batch (then server) default.
    pub oracle: Option<String>,
    /// Per-job Ω; `None` inherits the batch (then server) default.
    pub omega: Option<u64>,
}

impl BatchCircuit {
    /// A batch member with every override defaulted.
    pub fn new(qasm: impl Into<String>) -> BatchCircuit {
        BatchCircuit {
            label: None,
            qasm: qasm.into(),
            oracle: None,
            omega: None,
        }
    }
}

/// `POST /v1/batch`: a set of circuits optimized as one batch, with
/// batch-level defaults and per-circuit overrides.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchRequest {
    /// The circuits to optimize, in submission order.
    pub circuits: Vec<BatchCircuit>,
    /// Batch-default Ω; `None` uses the server default.
    pub omega: Option<u64>,
    /// Batch-default oracle id; `None` uses the server default.
    pub oracle: Option<String>,
}

impl BatchRequest {
    /// Serializes to the v1 wire shape.
    pub fn to_json(&self) -> Value {
        let circuits: Vec<Value> = self
            .circuits
            .iter()
            .map(|c| {
                let mut pairs = Vec::new();
                de::push_opt_str(&mut pairs, "label", &c.label);
                pairs.push(("qasm".to_string(), json!(c.qasm.as_str())));
                de::push_opt_str(&mut pairs, "oracle", &c.oracle);
                if let Some(omega) = c.omega {
                    pairs.push(("omega".to_string(), json!(omega)));
                }
                Value::Object(pairs)
            })
            .collect();
        let mut pairs = vec![("circuits".to_string(), Value::Array(circuits))];
        if let Some(omega) = self.omega {
            pairs.push(("omega".to_string(), json!(omega)));
        }
        de::push_opt_str(&mut pairs, "oracle", &self.oracle);
        Value::Object(pairs)
    }

    /// Decodes a batch request; failures are [`ApiError::InvalidConfig`].
    /// A member may be a bare QASM string (shorthand for an entry with
    /// every override defaulted) or a full [`BatchCircuit`] object.
    pub fn from_json(v: &Value) -> Result<BatchRequest, ApiError> {
        de::request_shape(v)?;
        let entries = match v.get("circuits") {
            Some(Value::Array(a)) => a,
            _ => return Err(ApiError::InvalidConfig("missing `circuits` array".into())),
        };
        if entries.is_empty() {
            return Err(ApiError::InvalidConfig("`circuits` is empty".into()));
        }
        let mut circuits = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            circuits.push(match entry {
                Value::String(s) => BatchCircuit::new(s.as_str()),
                Value::Object(_) => BatchCircuit {
                    label: de::opt_str(entry, "label")?,
                    qasm: de::req_str(entry, "qasm").map_err(|_| {
                        ApiError::InvalidConfig(format!("circuits[{i}]: missing `qasm` string"))
                    })?,
                    oracle: de::opt_str(entry, "oracle")?,
                    omega: de::opt_u64(entry, "omega")?,
                },
                _ => {
                    return Err(ApiError::InvalidConfig(format!(
                        "circuits[{i}]: expected a QASM string or an object"
                    )))
                }
            });
        }
        Ok(BatchRequest {
            circuits,
            omega: de::opt_u64(v, "omega")?,
            oracle: de::opt_str(v, "oracle")?,
        })
    }
}

/// `POST /v1/batch` response, and one pass of the CLI report: per-job
/// documents plus batch aggregates.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchResponse {
    /// 1-based pass number (the CLI's `--repeat` resubmits the batch).
    pub pass: u64,
    /// One report per job, in submission order.
    pub jobs: Vec<JobReport>,
    /// Jobs in the batch.
    pub job_count: u64,
    /// Jobs answered from the cache (including coalesced waiters).
    pub cache_hits: u64,
    /// Oracle calls actually issued by this batch (cache hits are free).
    pub oracle_calls_issued: u64,
    /// Total input gates across the batch.
    pub gates_in: u64,
    /// Total output gates across the batch.
    pub gates_out: u64,
    /// Submission-to-last-completion wall time.
    pub wall_seconds: f64,
    /// Completed jobs per second of batch wall time.
    pub jobs_per_sec: f64,
}

impl BatchResponse {
    /// Serializes to the v1 wire shape.
    pub fn to_json(&self) -> Value {
        json!({
            "api_version": API_VERSION,
            "pass": self.pass,
            "jobs": self.jobs.iter().map(JobReport::to_json).collect::<Vec<Value>>(),
            "job_count": self.job_count,
            "cache_hits": self.cache_hits,
            "oracle_calls_issued": self.oracle_calls_issued,
            "gates_in": self.gates_in,
            "gates_out": self.gates_out,
            "wall_seconds": self.wall_seconds,
            "jobs_per_sec": self.jobs_per_sec,
        })
    }

    /// Decodes a document produced by [`to_json`](Self::to_json).
    pub fn from_json(v: &Value) -> Result<BatchResponse, ApiError> {
        de::check_version(v)?;
        let jobs = de::req_array(v, "jobs")?
            .iter()
            .map(JobReport::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BatchResponse {
            pass: de::req_u64(v, "pass")?,
            jobs,
            job_count: de::req_u64(v, "job_count")?,
            cache_hits: de::req_u64(v, "cache_hits")?,
            oracle_calls_issued: de::req_u64(v, "oracle_calls_issued")?,
            gates_in: de::req_u64(v, "gates_in")?,
            gates_out: de::req_u64(v, "gates_out")?,
            wall_seconds: de::req_f64(v, "wall_seconds")?,
            jobs_per_sec: de::req_f64(v, "jobs_per_sec")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Cache admin (`/v1/cache`)
// ---------------------------------------------------------------------------

/// One tier of the result store, as embedded in [`CacheReport`] and
/// [`StatsReport`]. Not a top-level document, so it carries no
/// `api_version` of its own.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CacheTierReport {
    /// Tier name (`memory`, `disk`, `remote`, `null`).
    pub tier: String,
    /// Entries currently resident in this tier.
    pub entries: u64,
    /// Lookups this tier answered.
    pub hits: u64,
    /// Lookups this tier could not answer.
    pub misses: u64,
    /// Entries this tier evicted or invalidated.
    pub evictions: u64,
    /// Resident bytes (exact file bytes for the disk tier, an
    /// approximation for memory tiers).
    pub bytes: u64,
    /// Operations this tier degraded instead of completing — the remote
    /// tier's unreachable-server count; always zero for local tiers.
    pub errors: u64,
}

impl CacheTierReport {
    /// Serializes to the v1 wire shape.
    pub fn to_json(&self) -> Value {
        json!({
            "tier": self.tier.as_str(),
            "entries": self.entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bytes": self.bytes,
            "errors": self.errors,
        })
    }

    /// Decodes a fragment produced by [`to_json`](Self::to_json).
    pub fn from_json(v: &Value) -> Result<CacheTierReport, ApiError> {
        Ok(CacheTierReport {
            tier: de::req_str(v, "tier")?,
            entries: de::req_u64(v, "entries")?,
            hits: de::req_u64(v, "hits")?,
            misses: de::req_u64(v, "misses")?,
            evictions: de::req_u64(v, "evictions")?,
            bytes: de::req_u64(v, "bytes")?,
            errors: de::req_u64(v, "errors")?,
        })
    }
}

/// `GET /v1/cache`: the result store's backend, aggregate counters, and
/// per-tier breakdown (front tier first).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CacheReport {
    /// Backend name (`memory`, `disk`, `tiered`, `null`).
    pub backend: String,
    /// Entries in the authoritative tier.
    pub entries: u64,
    /// Logical hits (a lookup any tier answered).
    pub hits: u64,
    /// Logical misses (lookups no tier answered).
    pub misses: u64,
    /// Evictions/invalidations summed across tiers.
    pub evictions: u64,
    /// Resident bytes summed across tiers.
    pub bytes: u64,
    /// Per-tier counters, front tier first.
    pub tiers: Vec<CacheTierReport>,
}

impl CacheReport {
    /// Serializes to the v1 wire shape.
    pub fn to_json(&self) -> Value {
        json!({
            "api_version": API_VERSION,
            "backend": self.backend.as_str(),
            "entries": self.entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bytes": self.bytes,
            "tiers": self.tiers.iter().map(CacheTierReport::to_json).collect::<Vec<Value>>(),
        })
    }

    /// Decodes a document produced by [`to_json`](Self::to_json).
    pub fn from_json(v: &Value) -> Result<CacheReport, ApiError> {
        de::check_version(v)?;
        let tiers = de::req_array(v, "tiers")?
            .iter()
            .map(CacheTierReport::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CacheReport {
            backend: de::req_str(v, "backend")?,
            entries: de::req_u64(v, "entries")?,
            hits: de::req_u64(v, "hits")?,
            misses: de::req_u64(v, "misses")?,
            evictions: de::req_u64(v, "evictions")?,
            bytes: de::req_u64(v, "bytes")?,
            tiers,
        })
    }
}

/// `DELETE /v1/cache` (and `popqc cache clear`): the result of dropping
/// every stored entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CacheClearResponse {
    /// Whether the clear ran (always `true` in v1; reserved for future
    /// partial-failure reporting).
    pub cleared: bool,
    /// Distinct entries removed from the authoritative tier.
    pub entries_removed: u64,
}

impl CacheClearResponse {
    /// Serializes to the v1 wire shape.
    pub fn to_json(&self) -> Value {
        json!({
            "api_version": API_VERSION,
            "cleared": self.cleared,
            "entries_removed": self.entries_removed,
        })
    }

    /// Decodes a document produced by [`to_json`](Self::to_json).
    pub fn from_json(v: &Value) -> Result<CacheClearResponse, ApiError> {
        de::check_version(v)?;
        Ok(CacheClearResponse {
            cleared: de::req_bool(v, "cleared")?,
            entries_removed: de::req_u64(v, "entries_removed")?,
        })
    }
}

/// The engine-level segment cache's counters, as embedded in
/// [`StatsReport::segment_cache`]. Not a top-level document, so it
/// carries no `api_version` of its own.
///
/// Counts *logical* lookups from the engine hot path: each hit replaced
/// exactly one oracle call, so `hits / (hits + misses)` is the fraction
/// of segment work the cache absorbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SegmentCacheReport {
    /// Whether the segment cache is active (`false` when configured with
    /// capacity 0; all counters stay 0).
    pub enabled: bool,
    /// Configured entry capacity (0 = disabled).
    pub capacity: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Engine segment lookups answered from the cache (each one an
    /// oracle call not issued).
    pub hits: u64,
    /// Engine segment lookups that fell through to the oracle.
    pub misses: u64,
    /// Entries evicted to make room (LRU, per shard).
    pub evictions: u64,
}

impl SegmentCacheReport {
    /// Serializes to the v1 wire shape.
    pub fn to_json(&self) -> Value {
        json!({
            "enabled": self.enabled,
            "capacity": self.capacity,
            "entries": self.entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        })
    }

    /// Decodes a fragment produced by [`to_json`](Self::to_json).
    pub fn from_json(v: &Value) -> Result<SegmentCacheReport, ApiError> {
        Ok(SegmentCacheReport {
            enabled: de::req_bool(v, "enabled")?,
            capacity: de::req_u64(v, "capacity")?,
            entries: de::req_u64(v, "entries")?,
            hits: de::req_u64(v, "hits")?,
            misses: de::req_u64(v, "misses")?,
            evictions: de::req_u64(v, "evictions")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// The executor's counters, as embedded in
/// [`StatsReport::executor`]. Not a top-level document, so it carries no
/// `api_version` of its own.
///
/// All counters are monotonic over the server process lifetime (the
/// executor pool is process-wide and persistent); rates come from
/// differencing two reports.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ExecutorReport {
    /// Executor worker threads spawned so far (0 until the first parallel
    /// operation; the pool grows toward the widest parallelism requested).
    pub workers: u64,
    /// Always 0; kept for v1 wire compatibility (there is no grain
    /// setting).
    pub grain: u64,
    /// Parallel map operations that actually went parallel.
    pub parallel_ops: u64,
    /// Chunks executed, by an operation's submitter or a pool worker.
    pub tasks_executed: u64,
    /// Cut points: chunks beyond the first that operations were cut into.
    pub splits: u64,
    /// Chunks a pool worker ran instead of the operation's submitter.
    pub steals: u64,
}

impl ExecutorReport {
    /// Serializes to the v1 wire shape.
    pub fn to_json(&self) -> Value {
        json!({
            "workers": self.workers,
            "grain": self.grain,
            "parallel_ops": self.parallel_ops,
            "tasks_executed": self.tasks_executed,
            "splits": self.splits,
            "steals": self.steals,
        })
    }

    /// Decodes a fragment produced by [`to_json`](Self::to_json).
    pub fn from_json(v: &Value) -> Result<ExecutorReport, ApiError> {
        Ok(ExecutorReport {
            workers: de::req_u64(v, "workers")?,
            grain: de::req_u64(v, "grain")?,
            parallel_ops: de::req_u64(v, "parallel_ops")?,
            tasks_executed: de::req_u64(v, "tasks_executed")?,
            splits: de::req_u64(v, "splits")?,
            steals: de::req_u64(v, "steals")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Stats / full service report
// ---------------------------------------------------------------------------

/// Connection-frontend counters for the serving edge (`popqc serve`):
/// which frontend is answering and what its admission-control machinery
/// has done so far. Optional in [`StatsReport`] because only the HTTP
/// service has a frontend (CLI batch runs report `None`).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FrontendReport {
    /// Frontend flavor: `"threads"` (thread-per-connection) or
    /// `"evented"` (readiness-driven loop).
    pub frontend: String,
    /// Connections currently open.
    pub connections_open: u64,
    /// Connections accepted since start (monotonic).
    pub connections_accepted: u64,
    /// Requests refused with 503 by queue-depth load shedding.
    pub requests_shed: u64,
    /// Requests refused with 429 by the per-peer rate limiter.
    pub rate_limited: u64,
    /// Connections closed for blowing the idle/slowloris read deadline.
    pub deadline_closes: u64,
    /// Write stalls absorbed by per-connection output buffering.
    pub write_stalls: u64,
}

impl FrontendReport {
    /// Serializes to the v1 wire shape (the `frontend` object inside
    /// [`StatsReport`]).
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("frontend".to_string(), json!(self.frontend.as_str())),
            ("connections_open".to_string(), json!(self.connections_open)),
            (
                "connections_accepted".to_string(),
                json!(self.connections_accepted),
            ),
            ("requests_shed".to_string(), json!(self.requests_shed)),
            ("rate_limited".to_string(), json!(self.rate_limited)),
            ("deadline_closes".to_string(), json!(self.deadline_closes)),
            ("write_stalls".to_string(), json!(self.write_stalls)),
        ])
    }

    /// Decodes a document produced by [`to_json`](Self::to_json).
    pub fn from_json(v: &Value) -> Result<FrontendReport, ApiError> {
        Ok(FrontendReport {
            frontend: de::req_str(v, "frontend")?,
            connections_open: de::req_u64(v, "connections_open")?,
            connections_accepted: de::req_u64(v, "connections_accepted")?,
            requests_shed: de::req_u64(v, "requests_shed")?,
            rate_limited: de::req_u64(v, "rate_limited")?,
            deadline_closes: de::req_u64(v, "deadline_closes")?,
            write_stalls: de::req_u64(v, "write_stalls")?,
        })
    }
}

/// `GET /v1/stats`, the CLI report's `service` section, and the bench
/// report all derive from this one DTO, so their counters cannot drift.
///
/// The `executor` counters are **process-global and monotonic** (the
/// executor pool is one per process, shared by every job): two
/// jobs in, the report holds their cumulative totals. Interval figures
/// come from differencing two reports (`qexec::ExecStats::delta_since`
/// server-side, or plain field subtraction on the wire shape).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct StatsReport {
    /// Worker threads (concurrent jobs).
    pub workers: u64,
    /// Engine threads each job runs with.
    pub threads_per_job: u64,
    /// Seconds the service has been up.
    pub uptime_seconds: f64,
    /// The build serving this report.
    pub version: VersionInfo,
    /// Jobs accepted.
    pub submitted: u64,
    /// Jobs completed (including cache hits and failures).
    pub completed: u64,
    /// Jobs answered from the cache or by coalescing.
    pub cache_hits: u64,
    /// Jobs that attached to an identical in-flight computation
    /// (a subset of `cache_hits`).
    pub coalesced: u64,
    /// Jobs that completed with an error (a subset of `completed`).
    pub failed: u64,
    /// Oracle calls issued by cache-missing jobs.
    pub oracle_calls_issued: u64,
    /// Live result-cache entries.
    pub cache_entries: u64,
    /// Result-cache LRU evictions.
    pub cache_evictions: u64,
    /// Result-store backend name (`memory`, `disk`, `tiered`, `null`).
    pub cache_backend: String,
    /// Per-tier store counters, front tier first (one entry for
    /// single-tier backends).
    pub cache_tiers: Vec<CacheTierReport>,
    /// Engine-level segment-cache counters (all-zero with `enabled:
    /// false` when the cache is configured off).
    pub segment_cache: SegmentCacheReport,
    /// Executor counters (the process-wide pool every parallel engine
    /// round runs on).
    pub executor: ExecutorReport,
    /// Jobs retained for `/v1/jobs/{id}` polling (HTTP frontend only;
    /// `None` omits the field).
    pub jobs_tracked: Option<u64>,
    /// Connection-frontend counters (HTTP service only; `None` omits
    /// the field).
    pub frontend: Option<FrontendReport>,
}

impl StatsReport {
    /// Serializes to the v1 wire shape.
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("api_version".to_string(), json!(API_VERSION)),
            ("workers".to_string(), json!(self.workers)),
            ("threads_per_job".to_string(), json!(self.threads_per_job)),
            ("uptime_seconds".to_string(), json!(self.uptime_seconds)),
            ("version".to_string(), self.version.to_json_fragment()),
            ("submitted".to_string(), json!(self.submitted)),
            ("completed".to_string(), json!(self.completed)),
            ("cache_hits".to_string(), json!(self.cache_hits)),
            ("coalesced".to_string(), json!(self.coalesced)),
            ("failed".to_string(), json!(self.failed)),
            (
                "oracle_calls_issued".to_string(),
                json!(self.oracle_calls_issued),
            ),
            ("cache_entries".to_string(), json!(self.cache_entries)),
            ("cache_evictions".to_string(), json!(self.cache_evictions)),
            (
                "cache_backend".to_string(),
                json!(self.cache_backend.as_str()),
            ),
            (
                "cache_tiers".to_string(),
                Value::Array(
                    self.cache_tiers
                        .iter()
                        .map(CacheTierReport::to_json)
                        .collect(),
                ),
            ),
            ("segment_cache".to_string(), self.segment_cache.to_json()),
            ("executor".to_string(), self.executor.to_json()),
        ];
        if let Some(tracked) = self.jobs_tracked {
            pairs.push(("jobs_tracked".to_string(), json!(tracked)));
        }
        if let Some(frontend) = &self.frontend {
            pairs.push(("frontend".to_string(), frontend.to_json()));
        }
        Value::Object(pairs)
    }

    /// Decodes a document produced by [`to_json`](Self::to_json).
    pub fn from_json(v: &Value) -> Result<StatsReport, ApiError> {
        de::check_version(v)?;
        Ok(StatsReport {
            workers: de::req_u64(v, "workers")?,
            threads_per_job: de::req_u64(v, "threads_per_job")?,
            uptime_seconds: de::req_f64(v, "uptime_seconds")?,
            version: VersionInfo::from_json_fragment(
                v.get("version")
                    .ok_or_else(|| de::malformed("missing `version` object"))?,
            )?,
            submitted: de::req_u64(v, "submitted")?,
            completed: de::req_u64(v, "completed")?,
            cache_hits: de::req_u64(v, "cache_hits")?,
            coalesced: de::req_u64(v, "coalesced")?,
            failed: de::req_u64(v, "failed")?,
            oracle_calls_issued: de::req_u64(v, "oracle_calls_issued")?,
            cache_entries: de::req_u64(v, "cache_entries")?,
            cache_evictions: de::req_u64(v, "cache_evictions")?,
            cache_backend: de::req_str(v, "cache_backend")?,
            cache_tiers: de::req_array(v, "cache_tiers")?
                .iter()
                .map(CacheTierReport::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            segment_cache: SegmentCacheReport::from_json(
                v.get("segment_cache")
                    .ok_or_else(|| de::malformed("missing `segment_cache` object"))?,
            )?,
            executor: ExecutorReport::from_json(
                v.get("executor")
                    .ok_or_else(|| de::malformed("missing `executor` object"))?,
            )?,
            jobs_tracked: de::opt_u64(v, "jobs_tracked")?,
            frontend: match v.get("frontend") {
                Some(f) => Some(FrontendReport::from_json(f)?),
                None => None,
            },
        })
    }
}

/// The full CLI report: every pass plus the service's cumulative counters.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceReport {
    /// One [`BatchResponse`] per `--repeat` pass, in order.
    pub passes: Vec<BatchResponse>,
    /// Cumulative service counters after the last pass.
    pub service: StatsReport,
}

impl ServiceReport {
    /// Serializes to the v1 wire shape.
    pub fn to_json(&self) -> Value {
        json!({
            "api_version": API_VERSION,
            "passes": self.passes.iter().map(BatchResponse::to_json).collect::<Vec<Value>>(),
            "service": self.service.to_json(),
        })
    }

    /// Decodes a document produced by [`to_json`](Self::to_json).
    pub fn from_json(v: &Value) -> Result<ServiceReport, ApiError> {
        de::check_version(v)?;
        let passes = de::req_array(v, "passes")?
            .iter()
            .map(BatchResponse::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let service = StatsReport::from_json(
            v.get("service")
                .ok_or_else(|| de::malformed("missing `service` object"))?,
        )?;
        Ok(ServiceReport { passes, service })
    }
}

// ---------------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------------

/// One span inside a [`TraceReport`]. Not a top-level document, so it
/// carries no `api_version` of its own.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSpan {
    /// Span id, unique within the trace (the root span is id 1).
    pub id: u64,
    /// Parent span id; 0 for the root span.
    pub parent: u64,
    /// Operation name from the span inventory (`request`, `engine`,
    /// `oracle_call`, …).
    pub name: String,
    /// Start offset from the trace start, in nanoseconds (monotonic).
    pub start_nanos: u64,
    /// Span duration in nanoseconds.
    pub duration_nanos: u64,
    /// Typed attribute bag, sorted by key.
    pub attrs: Vec<(String, Value)>,
}

impl TraceSpan {
    /// Serializes to the v1 wire shape.
    pub fn to_json(&self) -> Value {
        json!({
            "id": self.id,
            "parent": self.parent,
            "name": self.name.as_str(),
            "start_nanos": self.start_nanos,
            "duration_nanos": self.duration_nanos,
            "attrs": Value::Object(self.attrs.clone()),
        })
    }

    /// Decodes a fragment produced by [`to_json`](Self::to_json).
    pub fn from_json(v: &Value) -> Result<TraceSpan, ApiError> {
        let attrs = match v.get("attrs") {
            None | Some(Value::Null) => Vec::new(),
            Some(Value::Object(pairs)) => pairs.clone(),
            Some(_) => return Err(de::malformed("bad `attrs` (need an object)")),
        };
        Ok(TraceSpan {
            id: de::req_u64(v, "id")?,
            parent: de::req_u64(v, "parent")?,
            name: de::req_str(v, "name")?,
            start_nanos: de::req_u64(v, "start_nanos")?,
            duration_nanos: de::req_u64(v, "duration_nanos")?,
            attrs,
        })
    }
}

/// One row of the `GET /v1/traces` index. Not a top-level document.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSummary {
    /// Canonical 16-hex-digit trace id (`/v1/traces/{id}`).
    pub trace_id: String,
    /// Final HTTP status of the traced request (0 if aborted).
    pub status: u16,
    /// Which tail-sampling rule kept this trace (`forced`, `error`,
    /// `shed`, `slow`, `probabilistic`, `aborted`).
    pub sampled_because: String,
    /// Wall-clock start, nanoseconds since the Unix epoch.
    pub start_unix_nanos: u64,
    /// Total trace duration in nanoseconds.
    pub duration_nanos: u64,
    /// Spans recorded (including the root span).
    pub span_count: u64,
}

impl TraceSummary {
    /// Serializes to the v1 wire shape.
    pub fn to_json(&self) -> Value {
        json!({
            "trace_id": self.trace_id.as_str(),
            "status": self.status,
            "sampled_because": self.sampled_because.as_str(),
            "start_unix_nanos": self.start_unix_nanos,
            "duration_nanos": self.duration_nanos,
            "span_count": self.span_count,
        })
    }

    /// Decodes a fragment produced by [`to_json`](Self::to_json).
    pub fn from_json(v: &Value) -> Result<TraceSummary, ApiError> {
        Ok(TraceSummary {
            trace_id: de::req_str(v, "trace_id")?,
            status: de::req_status(v)?,
            sampled_because: de::req_str(v, "sampled_because")?,
            start_unix_nanos: de::req_u64(v, "start_unix_nanos")?,
            duration_nanos: de::req_u64(v, "duration_nanos")?,
            span_count: de::req_u64(v, "span_count")?,
        })
    }
}

/// `GET /v1/traces`: the recent kept traces, newest first.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TraceIndex {
    /// Recent kept traces, newest first.
    pub traces: Vec<TraceSummary>,
}

impl TraceIndex {
    /// Serializes to the v1 wire shape.
    pub fn to_json(&self) -> Value {
        json!({
            "api_version": API_VERSION,
            "traces": self.traces.iter().map(TraceSummary::to_json).collect::<Vec<Value>>(),
        })
    }

    /// Decodes a document produced by [`to_json`](Self::to_json).
    pub fn from_json(v: &Value) -> Result<TraceIndex, ApiError> {
        de::check_version(v)?;
        let traces = de::req_array(v, "traces")?
            .iter()
            .map(TraceSummary::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TraceIndex { traces })
    }
}

/// `GET /v1/traces/{id}`: one kept trace as a causally-linked span tree
/// plus its per-category time split.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceReport {
    /// Canonical 16-hex-digit trace id.
    pub trace_id: String,
    /// Final HTTP status of the traced request (0 if aborted).
    pub status: u16,
    /// Which tail-sampling rule kept this trace.
    pub sampled_because: String,
    /// Wall-clock start, nanoseconds since the Unix epoch.
    pub start_unix_nanos: u64,
    /// Total trace duration in nanoseconds.
    pub duration_nanos: u64,
    /// Spans recorded past the per-trace cap and therefore not stored.
    pub dropped_spans: u64,
    /// Nanoseconds attributed to queueing (dispatch + job queue wait).
    pub queue_nanos: u64,
    /// Nanoseconds attributed to the optimizer engine.
    pub engine_nanos: u64,
    /// Nanoseconds attributed to oracle calls (can exceed the engine
    /// span's duration when calls run in parallel).
    pub oracle_nanos: u64,
    /// Nanoseconds attributed to result-store and remote-cache I/O.
    pub store_nanos: u64,
    /// All spans, root (id 1) first.
    pub spans: Vec<TraceSpan>,
}

impl TraceReport {
    /// Serializes to the v1 wire shape.
    pub fn to_json(&self) -> Value {
        json!({
            "api_version": API_VERSION,
            "trace_id": self.trace_id.as_str(),
            "status": self.status,
            "sampled_because": self.sampled_because.as_str(),
            "start_unix_nanos": self.start_unix_nanos,
            "duration_nanos": self.duration_nanos,
            "dropped_spans": self.dropped_spans,
            "queue_nanos": self.queue_nanos,
            "engine_nanos": self.engine_nanos,
            "oracle_nanos": self.oracle_nanos,
            "store_nanos": self.store_nanos,
            "spans": self.spans.iter().map(TraceSpan::to_json).collect::<Vec<Value>>(),
        })
    }

    /// Decodes a document produced by [`to_json`](Self::to_json).
    pub fn from_json(v: &Value) -> Result<TraceReport, ApiError> {
        de::check_version(v)?;
        let spans = de::req_array(v, "spans")?
            .iter()
            .map(TraceSpan::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TraceReport {
            trace_id: de::req_str(v, "trace_id")?,
            status: de::req_status(v)?,
            sampled_because: de::req_str(v, "sampled_because")?,
            start_unix_nanos: de::req_u64(v, "start_unix_nanos")?,
            duration_nanos: de::req_u64(v, "duration_nanos")?,
            dropped_spans: de::req_u64(v, "dropped_spans")?,
            queue_nanos: de::req_u64(v, "queue_nanos")?,
            engine_nanos: de::req_u64(v, "engine_nanos")?,
            oracle_nanos: de::req_u64(v, "oracle_nanos")?,
            store_nanos: de::req_u64(v, "store_nanos")?,
            spans,
        })
    }

    /// Renders the trace in Chrome `trace_event` JSON (the
    /// `chrome://tracing` / Perfetto import format): one complete (`X`)
    /// event per span, microsecond timestamps, span ids and attributes
    /// in `args`.
    pub fn to_chrome_json(&self) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let mut args = vec![
                    ("span_id".to_string(), json!(s.id)),
                    ("parent_id".to_string(), json!(s.parent)),
                ];
                args.extend(s.attrs.clone());
                json!({
                    "name": s.name.as_str(),
                    "cat": "popqc",
                    "ph": "X",
                    "ts": s.start_nanos as f64 / 1e3,
                    "dur": (s.duration_nanos as f64 / 1e3).max(0.001),
                    "pid": 1,
                    "tid": 1,
                    "args": Value::Object(args),
                })
            })
            .collect();
        json!({
            "displayTimeUnit": "ms",
            "otherData": {
                "trace_id": self.trace_id.as_str(),
                "status": self.status,
                "sampled_because": self.sampled_because.as_str(),
            },
            "traceEvents": events,
        })
    }
}

// ---------------------------------------------------------------------------
// Decode helpers
// ---------------------------------------------------------------------------

mod de {
    use super::{ApiError, API_VERSION};
    use serde_json::{json, Value};

    pub(super) fn malformed(msg: impl Into<String>) -> ApiError {
        ApiError::Internal(format!("malformed v1 document: {}", msg.into()))
    }

    /// Top-level response documents must be objects carrying the exact
    /// `api_version` this crate speaks.
    pub(super) fn check_version(v: &Value) -> Result<(), ApiError> {
        if !matches!(v, Value::Object(_)) {
            return Err(malformed("expected a JSON object"));
        }
        match v.get("api_version").and_then(Value::as_str) {
            Some(API_VERSION) => Ok(()),
            Some(other) => Err(malformed(format!(
                "api_version `{other}` (this client speaks `{API_VERSION}`)"
            ))),
            None => Err(malformed("missing `api_version`")),
        }
    }

    /// Request documents must be objects; `api_version` is optional but
    /// must match when present.
    pub(super) fn request_shape(v: &Value) -> Result<(), ApiError> {
        if !matches!(v, Value::Object(_)) {
            return Err(ApiError::InvalidConfig(
                "request body must be a JSON object".into(),
            ));
        }
        match v.get("api_version").and_then(Value::as_str) {
            None | Some(API_VERSION) => Ok(()),
            Some(other) => Err(ApiError::InvalidConfig(format!(
                "api_version `{other}` is not supported (use `{API_VERSION}`)"
            ))),
        }
    }

    pub(super) fn req_str(v: &Value, key: &str) -> Result<String, ApiError> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| malformed(format!("missing string `{key}`")))
    }

    pub(super) fn opt_str(v: &Value, key: &str) -> Result<Option<String>, ApiError> {
        match v.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(Value::String(s)) => Ok(Some(s.clone())),
            Some(_) => Err(ApiError::InvalidConfig(format!(
                "bad `{key}` (need a string)"
            ))),
        }
    }

    pub(super) fn req_u64(v: &Value, key: &str) -> Result<u64, ApiError> {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| malformed(format!("missing integer `{key}`")))
    }

    pub(super) fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, ApiError> {
        match v.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(n) => n.as_u64().map(Some).ok_or_else(|| {
                ApiError::InvalidConfig(format!("bad `{key}` (need a non-negative integer)"))
            }),
        }
    }

    /// An HTTP status field: a `u64` on the wire, range-checked into
    /// `u16`.
    pub(super) fn req_status(v: &Value) -> Result<u16, ApiError> {
        u16::try_from(req_u64(v, "status")?).map_err(|_| malformed("bad `status` (need a u16)"))
    }

    pub(super) fn req_f64(v: &Value, key: &str) -> Result<f64, ApiError> {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| malformed(format!("missing number `{key}`")))
    }

    pub(super) fn req_bool(v: &Value, key: &str) -> Result<bool, ApiError> {
        v.get(key)
            .and_then(Value::as_bool)
            .ok_or_else(|| malformed(format!("missing boolean `{key}`")))
    }

    pub(super) fn req_array<'v>(v: &'v Value, key: &str) -> Result<&'v Vec<Value>, ApiError> {
        v.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| malformed(format!("missing array `{key}`")))
    }

    /// Pushes `key` only when the value is present — the wire format omits
    /// optional string fields instead of emitting `null` for them.
    pub(super) fn push_opt_str(
        pairs: &mut Vec<(String, Value)>,
        key: &str,
        value: &Option<String>,
    ) {
        if let Some(s) = value {
            pairs.push((key.to_string(), json!(s.as_str())));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_status_mapping_is_canonical() {
        let expected = [422, 404, 400, 503, 429, 500, 500];
        for (e, (kind, status)) in ApiError::exemplars()
            .iter()
            .zip(ApiError::KINDS.iter().zip(expected))
        {
            assert_eq!(e.kind(), *kind);
            assert_eq!(e.http_status(), status, "{kind}");
        }
    }

    #[test]
    fn version_check_rejects_foreign_documents() {
        let v2 = serde_json::from_str(r#"{"api_version":"v2","build_version":"9.9.9"}"#).unwrap();
        assert!(VersionInfo::from_json(&v2).is_err());
        let none = serde_json::from_str(r#"{"build_version":"9.9.9"}"#).unwrap();
        assert!(VersionInfo::from_json(&none).is_err());
        assert!(VersionInfo::from_json(&VersionInfo::current().to_json()).is_ok());
    }
}
