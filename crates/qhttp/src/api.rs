//! The v1 JSON API over the optimization service.
//!
//! Every request and response body is a `popqc-api` DTO — this module
//! contains no JSON schema of its own, only routing and the translation
//! between HTTP mechanics (bodies, query strings, status codes) and the
//! typed API:
//!
//! | route | method | body | reply |
//! |-------|--------|------|-------|
//! | `/healthz` | GET | — | `{"api_version":"v1","status":"ok"}` |
//! | `/v1/version` | GET | — | [`qapi::VersionInfo`] |
//! | `/v1/oracles` | GET | — | [`qapi::OracleList`] (the registry) |
//! | `/v1/stats` | GET | — | [`qapi::StatsReport`] |
//! | `/v1/metrics` | GET | — | Prometheus text exposition (`text/plain; version=0.0.4`) |
//! | `/v1/cache` | GET | — | [`qapi::CacheReport`] (per-tier store counters) |
//! | `/v1/cache` | DELETE | — | [`qapi::CacheClearResponse`] (drops every stored result) |
//! | `/v1/optimize` | POST | QASM text or [`qapi::OptimizeRequest`] JSON | [`qapi::JobStatus`] |
//! | `/v1/batch` | POST | [`qapi::BatchRequest`] | [`qapi::BatchResponse`] |
//! | `/v1/jobs/{id}` | GET | — | [`qapi::JobStatus`] |
//! | `/v1/traces` | GET | — | [`qapi::TraceIndex`] (recent kept traces; `?limit=N`) |
//! | `/v1/traces/{id}` | GET | — | [`qapi::TraceReport`] (`?format=chrome` for `trace_event` JSON) |
//!
//! Every response carries an `x-popqc-request-id` header — a
//! client-supplied `x-popqc-request-id` (sanitized, length-capped) is
//! echoed so fleet callers can correlate replica logs, otherwise a
//! process-unique id is minted. The id is also printed in the
//! per-request access-log line, a *wide event* that additionally carries
//! the trace id and the request's queue/engine/oracle/store time split.
//!
//! `POST /v1/optimize?trace=1` force-samples the request's trace and
//! echoes its id in the `x-popqc-trace-id` response header for
//! `GET /v1/traces/{id}`.
//!
//! `POST /v1/optimize` accepts either the raw QASM program as the body
//! with options as query parameters — `oracle` (registry id), `omega`
//! (engine window), `label` (echoed back), `wait=false` (submit-and-poll)
//! — or a single [`qapi::OptimizeRequest`] JSON object carrying the same
//! options (the two forms must not be mixed). Only `wait=false`
//! submissions are retained for `/v1/jobs/{id}` polling; the polling
//! registry is bounded, and when it is full of still-pending jobs new
//! `wait=false` submissions are refused with [`qapi::ApiError::Overloaded`].
//!
//! Failures map through the closed [`qapi::ApiError`] taxonomy and its
//! canonical statuses: malformed parameters/JSON are `invalid_config`
//! (400), an unregistered oracle id is `unknown_oracle` (404),
//! unparseable QASM is `invalid_qasm` (422), a full pending registry is
//! `overloaded` (503), and an oracle crash is `oracle_failure` (500, with
//! the failed job's document carrying `result.error`). Malformed input is
//! never a dropped connection.

use crate::http::{Request, Response};
use crate::metrics;
use popqc_core::PopqcConfig;
use qapi::ApiError;
use qcir::qasm;
use qnet::NetStats;
use qsvc::report::{batch_report, job_status, stats_report};
use qsvc::service::{JobHandle, JobRequest, OptimizationService};
use serde_json::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Cap on the `wait=false` job registry. Completed jobs beyond it are
/// evicted oldest-first; a pending job is never evicted (its client may
/// still be polling toward a live handle), so when eviction cannot bring
/// the registry under the cap, new `wait=false` submissions are refused
/// with `overloaded` (503) — otherwise a flood of distinct circuits would
/// grow the registry and the service queue (each entry holding a full
/// circuit) without bound. Blocking submissions are never stored and are
/// bounded by the evented frontend's dispatcher pool instead.
const JOB_HISTORY_CAP: usize = 4096;

struct StoredJob {
    handle: Arc<JobHandle>,
    label: Option<String>,
}

/// Routes one parsed request to one response. Implemented by
/// [`AppState`]; the separation keeps the connection plumbing testable
/// without the service.
pub trait Handler: Send + Sync + 'static {
    fn handle(&self, req: &Request) -> Response;
}

/// Shared server state: the service plus the polling-job registry.
///
/// The service is dynamically dispatched over its oracle registry, so one
/// `AppState` (and one `popqc serve` process) answers requests for every
/// registered oracle.
pub struct AppState {
    svc: OptimizationService,
    default_omega: usize,
    jobs: Mutex<BTreeMap<u64, StoredJob>>,
    job_cap: usize,
    next_job_id: AtomicU64,
    /// The serving frontend's connection counters, set after it binds
    /// (the server needs the state to start, so this cannot be a
    /// constructor argument).
    net_stats: Mutex<Option<Arc<NetStats>>>,
}

impl AppState {
    /// Wraps a running service. `default_omega` applies when a request
    /// does not pass `omega`.
    pub fn new(svc: OptimizationService, default_omega: usize) -> AppState {
        AppState::with_job_cap(svc, default_omega, JOB_HISTORY_CAP)
    }

    /// [`new`](Self::new) with an explicit cap on the `wait=false` job
    /// registry (default 4096): completed jobs beyond it are evicted
    /// oldest-first, and when pending jobs alone fill it, new `wait=false`
    /// submissions are refused with 503. Mainly for tests and
    /// memory-constrained deployments.
    pub fn with_job_cap(
        svc: OptimizationService,
        default_omega: usize,
        job_cap: usize,
    ) -> AppState {
        // Register the HTTP metric families up front so the very first
        // `/v1/metrics` scrape already lists the full inventory.
        metrics::describe_metrics();
        qobs::trace::describe_metrics();
        AppState {
            svc,
            default_omega,
            jobs: Mutex::new(BTreeMap::new()),
            job_cap,
            next_job_id: AtomicU64::new(1),
            net_stats: Mutex::new(None),
        }
    }

    /// Attaches the serving frontend's connection counters; `/v1/stats`
    /// reports a `frontend` block from then on.
    pub(crate) fn set_net_stats(&self, stats: Arc<NetStats>) {
        *self.net_stats.lock().expect("net stats poisoned") = Some(stats);
    }

    /// The wrapped service (e.g. for shutdown-time stats logging).
    pub fn service(&self) -> &OptimizationService {
        &self.svc
    }

    /// Evicts oldest *completed* jobs until the registry is under the cap;
    /// never a pending job (its client may still be polling toward a live
    /// handle).
    fn evict_completed(&self, jobs: &mut BTreeMap<u64, StoredJob>) {
        while jobs.len() >= self.job_cap {
            let Some((&oldest_done, _)) =
                jobs.iter().find(|(_, j)| j.handle.try_result().is_some())
            else {
                break;
            };
            jobs.remove(&oldest_done);
        }
    }

    /// Parses the two accepted `POST /v1/optimize` forms into the one
    /// typed request: a JSON [`qapi::OptimizeRequest`] body (options in
    /// the document, query options rejected), or raw QASM text with
    /// options as query parameters.
    fn parse_optimize(&self, req: &Request) -> Result<qapi::OptimizeRequest, ApiError> {
        let body = req
            .body_utf8()
            .map_err(|e| ApiError::InvalidQasm(e.to_string()))?;
        if body.trim().is_empty() {
            return Err(ApiError::InvalidQasm(
                "empty request body; POST the QASM program text or an OptimizeRequest JSON object"
                    .to_string(),
            ));
        }
        if body.trim_start().starts_with('{') {
            // A QASM program can never start with `{`, so this is
            // unambiguously the JSON form.
            for param in ["oracle", "omega", "label", "wait"] {
                if req.query_param(param).is_some() {
                    return Err(ApiError::InvalidConfig(format!(
                        "`{param}` must be inside the JSON request body, not a query parameter"
                    )));
                }
            }
            let doc = serde_json::from_str(body).map_err(|e| {
                ApiError::InvalidConfig(format!("request body is not valid JSON: {e}"))
            })?;
            return qapi::OptimizeRequest::from_json(&doc);
        }

        let omega = match req.query_param("omega") {
            None => None,
            Some(v) => match v.parse::<u64>() {
                Ok(n) => Some(n),
                Err(_) => {
                    return Err(ApiError::InvalidConfig(format!(
                        "bad omega `{v}` (need a positive integer)"
                    )))
                }
            },
        };
        let wait = match req.query_param("wait") {
            None => true,
            Some("true") | Some("1") => true,
            Some("false") | Some("0") => false,
            Some(v) => {
                return Err(ApiError::InvalidConfig(format!(
                    "bad wait `{v}` (need true|false)"
                )))
            }
        };
        Ok(qapi::OptimizeRequest {
            qasm: body.to_string(),
            oracle: req.query_param("oracle").map(str::to_string),
            omega,
            label: req.query_param("label").map(str::to_string),
            wait,
        })
    }

    /// Resolves the request's omega override against the server default.
    /// `0` and values beyond the platform word size are refused rather
    /// than wrapped (an `as` cast would silently truncate on 32-bit).
    fn resolve_omega(&self, omega: Option<u64>) -> Result<usize, ApiError> {
        match omega {
            None => Ok(self.default_omega),
            Some(n) => match usize::try_from(n) {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(ApiError::InvalidConfig(format!(
                    "bad omega `{n}` (need a positive integer within the platform's word size)"
                ))),
            },
        }
    }

    fn handle_optimize(&self, req: &Request) -> Response {
        let parsed = match self.parse_optimize(req) {
            Ok(p) => p,
            Err(e) => return error(&e),
        };
        let omega = match self.resolve_omega(parsed.omega) {
            Ok(n) => n,
            Err(e) => return error(&e),
        };
        let circuit = match qasm::parse(&parsed.qasm) {
            Ok(c) => c,
            Err(e) => return error(&ApiError::InvalidQasm(e.to_string())),
        };
        let job = JobRequest {
            circuit,
            oracle: parsed.oracle.clone(),
            config: PopqcConfig::with_omega(omega),
        };
        let label = parsed.label.as_deref();

        if parsed.wait {
            // Blocking requests deliver their result inline and are not
            // retained: every JobResult holds a full circuit, so keeping
            // jobs nobody will poll would turn the registry cap into an
            // unbounded-bytes cache.
            let handle = match self.svc.submit_request(job) {
                Ok(h) => h,
                Err(e) => return error(&e.to_api_error()),
            };
            let id = self.next_job_id.fetch_add(1, Relaxed);
            let result = handle.wait();
            let status = match &result.error {
                Some(e) => e.to_api_error().http_status(),
                None => 200,
            };
            let doc = job_status(id, label, handle.rounds_completed(), Some(&result));
            Response::json(status, &doc.to_json())
        } else {
            // Capacity check, submission, and registration form ONE
            // critical section: releasing the lock between the check and
            // the insert would let concurrent submissions overshoot the
            // cap. Holding it across `submit` cannot deadlock — the
            // service never takes this registry lock — and refusing
            // *before* submitting matters because a queued job cannot be
            // taken back.
            let mut jobs = self.jobs.lock().expect("job registry poisoned");
            self.evict_completed(&mut jobs);
            if jobs.len() >= self.job_cap {
                return error(&ApiError::Overloaded(
                    "job registry is full of pending jobs; retry later or use wait=true"
                        .to_string(),
                ));
            }
            let handle = match self.svc.submit_request(job) {
                Ok(h) => Arc::new(h),
                Err(e) => return error(&e.to_api_error()),
            };
            let id = self.next_job_id.fetch_add(1, Relaxed);
            jobs.insert(
                id,
                StoredJob {
                    handle: Arc::clone(&handle),
                    label: parsed.label.clone(),
                },
            );
            drop(jobs);
            // A submit-time cache hit completes synchronously inside
            // `submit`; report it done (200) rather than claiming the
            // client must poll.
            let result = handle.try_result();
            let status = if result.is_some() { 200 } else { 202 };
            let doc = job_status(id, label, handle.rounds_completed(), result.as_deref());
            Response::json(status, &doc.to_json())
        }
    }

    fn handle_batch(&self, req: &Request) -> Response {
        let body = match req.body_utf8() {
            Ok(s) => s,
            Err(e) => return error(&ApiError::InvalidConfig(e.to_string())),
        };
        let doc = match serde_json::from_str(body) {
            Ok(v) => v,
            Err(e) => {
                return error(&ApiError::InvalidConfig(format!(
                    "request body is not valid JSON: {e}"
                )))
            }
        };
        let batch_req = match qapi::BatchRequest::from_json(&doc) {
            Ok(b) => b,
            Err(e) => return error(&e),
        };

        let mut labels = Vec::with_capacity(batch_req.circuits.len());
        let mut jobs = Vec::with_capacity(batch_req.circuits.len());
        for (i, entry) in batch_req.circuits.iter().enumerate() {
            let label = entry.label.clone().unwrap_or_else(|| format!("job-{i}"));
            let omega = match self.resolve_omega(entry.omega.or(batch_req.omega)) {
                Ok(n) => n,
                Err(e) => return error(&e),
            };
            let circuit = match qasm::parse(&entry.qasm) {
                Ok(c) => c,
                Err(e) => return error(&ApiError::InvalidQasm(format!("{label}: {e}"))),
            };
            jobs.push(JobRequest {
                circuit,
                // Per-circuit override, else the batch default, else the
                // server's registry default.
                oracle: entry.oracle.clone().or_else(|| batch_req.oracle.clone()),
                config: PopqcConfig::with_omega(omega),
            });
            labels.push(label);
        }

        // Oracle ids are validated atomically before anything is enqueued.
        let batch = match self.svc.submit_batch_requests(jobs) {
            Ok(handle) => handle.wait(),
            Err(e) => return error(&e.to_api_error()),
        };
        // The batch report carries stats; the optimized QASM is attached
        // per successful job so the endpoint is self-contained. A failed
        // job (oracle crash) holds its *input* circuit, so no `qasm` is
        // attached there — only its `error` field — and the whole response
        // is a 500 so a client checking the status code alone can never
        // mistake an input echo for an optimization.
        let report = batch_report(&labels, &batch, 1, true);
        let any_failed = batch.results.iter().any(|r| r.error.is_some());
        Response::json(if any_failed { 500 } else { 200 }, &report.to_json())
    }

    fn handle_job_get(&self, id_str: &str) -> Response {
        let Ok(id) = id_str.parse::<u64>() else {
            return error(&ApiError::InvalidConfig(format!("bad job id `{id_str}`")));
        };
        let job = {
            let jobs = self.jobs.lock().expect("job registry poisoned");
            jobs.get(&id)
                .map(|j| (Arc::clone(&j.handle), j.label.clone()))
        };
        let Some((handle, label)) = job else {
            return transport_error(404, "not_found", &format!("no such job {id}"));
        };
        let result = handle.try_result();
        let doc = job_status(
            id,
            label.as_deref(),
            handle.rounds_completed(),
            result.as_deref(),
        );
        Response::json(200, &doc.to_json())
    }

    fn handle_stats(&self) -> Response {
        let mut stats = stats_report(
            &self.svc.stats(),
            self.svc.workers(),
            self.svc.threads_per_job(),
        );
        stats.jobs_tracked = Some(self.jobs.lock().expect("job registry poisoned").len() as u64);
        stats.frontend = self
            .net_stats
            .lock()
            .expect("net stats poisoned")
            .as_deref()
            .map(|net| qapi::FrontendReport {
                frontend: "evented".to_string(),
                connections_open: net.connections_open(),
                connections_accepted: net.connections_accepted(),
                requests_shed: net.requests_shed(),
                rate_limited: net.rate_limited(),
                deadline_closes: net.deadline_closes(),
                write_stalls: net.write_stalls(),
            });
        Response::json(200, &stats.to_json())
    }

    fn handle_oracles(&self) -> Response {
        let list = qapi::OracleList {
            oracles: self.svc.registry().infos(),
        };
        Response::json(200, &list.to_json())
    }

    fn handle_cache_get(&self) -> Response {
        Response::json(200, &self.svc.store().stats().to_json())
    }

    fn handle_cache_clear(&self) -> Response {
        let removed = self.svc.clear_cache();
        let doc = qapi::CacheClearResponse {
            cleared: true,
            entries_removed: removed,
        };
        Response::json(200, &doc.to_json())
    }

    fn handle_traces_index(&self, req: &Request) -> Response {
        let limit = match req.query_param("limit") {
            None => 50,
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n > 0 => n.min(1024),
                _ => {
                    return error(&ApiError::InvalidConfig(format!(
                        "bad limit `{v}` (need a positive integer)"
                    )))
                }
            },
        };
        let index = qapi::TraceIndex {
            traces: qobs::trace::recent(limit)
                .iter()
                .map(|t| trace_summary(t))
                .collect(),
        };
        Response::json(200, &index.to_json())
    }

    fn handle_trace_get(&self, id_str: &str, req: &Request) -> Response {
        let Some(found) = qobs::trace::parse_id(id_str).and_then(qobs::trace::get) else {
            return transport_error(
                404,
                "not_found",
                &format!("no such trace {id_str} (not kept by sampling, or evicted)"),
            );
        };
        let report = trace_report(&found);
        match req.query_param("format") {
            Some("chrome") => Response::json(200, &report.to_chrome_json()),
            None | Some("v1") => Response::json(200, &report.to_json()),
            Some(other) => error(&ApiError::InvalidConfig(format!(
                "bad format `{other}` (need v1|chrome)"
            ))),
        }
    }

    fn handle_metrics(&self) -> Response {
        // This service's and this frontend's counters are copied into the
        // registry at scrape time, so the scrape reports this instance;
        // process-wide series are rendered as they stand.
        let net = self.net_stats.lock().expect("net stats poisoned").clone();
        let text = qsvc::metrics::render_scrape(&self.svc, net.as_deref());
        Response::text_with_type(200, "text/plain; version=0.0.4", text)
    }

    /// The routing table proper; [`Handler::handle`] wraps it with
    /// metrics, the access log, and the request id.
    fn route(&self, req: &Request) -> Response {
        let method = req.method.as_str();
        let path = req.path.as_str();
        match (method, path) {
            ("GET", "/healthz") => Response::json(
                200,
                &json!({ "api_version": qapi::API_VERSION, "status": "ok" }),
            ),
            ("GET", "/v1/version") => Response::json(200, &qapi::VersionInfo::current().to_json()),
            ("GET", "/v1/oracles") => self.handle_oracles(),
            ("GET", "/v1/stats") => self.handle_stats(),
            ("GET", "/v1/metrics") => self.handle_metrics(),
            ("GET", "/v1/cache") => self.handle_cache_get(),
            ("DELETE", "/v1/cache") => self.handle_cache_clear(),
            ("GET", "/v1/traces") => self.handle_traces_index(req),
            ("POST", "/v1/optimize") => self.handle_optimize(req),
            ("POST", "/v1/batch") => self.handle_batch(req),
            (_, "/healthz")
            | (_, "/v1/version")
            | (_, "/v1/oracles")
            | (_, "/v1/stats")
            | (_, "/v1/metrics")
            | (_, "/v1/traces") => method_not_allowed("GET"),
            (_, "/v1/cache") => method_not_allowed("GET or DELETE"),
            (_, "/v1/optimize") | (_, "/v1/batch") => method_not_allowed("POST"),
            _ => match path.strip_prefix("/v1/traces/") {
                Some(id) if method == "GET" => self.handle_trace_get(id, req),
                Some(_) => method_not_allowed("GET"),
                None => match path.strip_prefix("/v1/jobs/") {
                    Some(id) if method == "GET" => self.handle_job_get(id),
                    Some(_) => method_not_allowed("GET"),
                    None => transport_error(404, "not_found", &format!("no route for {path}")),
                },
            },
        }
    }
}

/// Decrements the in-flight gauge even when the handler panics (the
/// frontend converts the panic to a 500; the gauge must not drift up).
struct InFlight;

impl InFlight {
    fn enter() -> InFlight {
        metrics::in_flight().inc();
        InFlight
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        metrics::in_flight().dec();
    }
}

impl Handler for AppState {
    fn handle(&self, req: &Request) -> Response {
        let _in_flight = InFlight::enter();
        let request_id = client_request_id(req).unwrap_or_else(metrics::next_request_id);
        let endpoint = metrics::endpoint_label(&req.method, &req.path);

        // The evented frontend starts the trace at parse time and
        // installs it as this thread's ambient context. An in-process
        // caller has no earlier hook, so its trace starts (and finishes)
        // here and has no write-flush time to attribute.
        let ambient = qobs::trace::current();
        let owned = !ambient.handle.enabled();
        let trace = if owned {
            let t = qobs::trace::start_trace("request");
            t.root_attr("method", req.method.as_str());
            t.root_attr("path", req.path.as_str());
            t
        } else {
            ambient.handle.clone()
        };
        trace.root_attr("request_id", request_id.as_str());
        let forced = req.method == "POST"
            && req.path == "/v1/optimize"
            && matches!(req.query_param("trace"), Some("1") | Some("true"));
        if forced {
            trace.force();
        }

        let start = std::time::Instant::now();
        let response = if owned && trace.enabled() {
            let ctx = qobs::trace::TraceCtx {
                handle: trace.clone(),
                parent: qobs::trace::ROOT_SPAN,
            };
            qobs::trace::with_active(&ctx, || self.route(req))
        } else {
            self.route(req)
        };
        let seconds = start.elapsed().as_secs_f64();
        trace.set_status(response.status);
        trace.mark_handler_done();
        metrics::requests(endpoint, metrics::status_class(response.status)).inc();
        metrics::request_duration(endpoint).observe(seconds);
        let trace_hex = trace.id_hex();
        let (queue_ns, engine_ns, oracle_ns, store_ns) = trace.splits();
        qobs::log_info!(
            target: "qhttp",
            "request",
            id = request_id,
            method = req.method,
            path = req.path,
            status = response.status,
            seconds = format_args!("{seconds:.6}"),
            trace = trace_hex.as_deref().unwrap_or("-"),
            queue_s = format_args!("{:.6}", queue_ns as f64 / 1e9),
            engine_s = format_args!("{:.6}", engine_ns as f64 / 1e9),
            oracle_s = format_args!("{:.6}", oracle_ns as f64 / 1e9),
            store_s = format_args!("{:.6}", store_ns as f64 / 1e9)
        );
        if owned {
            trace.finish(response.status);
        }
        let response = response.with_header("x-popqc-request-id", request_id);
        match trace_hex.filter(|_| forced) {
            Some(hex) => response.with_header("x-popqc-trace-id", hex),
            None => response,
        }
    }
}

/// The client-supplied `x-popqc-request-id`, accepted only when short
/// and from a safe charset (log-injection hygiene). `None` means mint
/// one instead.
pub(crate) fn client_request_id(req: &Request) -> Option<String> {
    let v = req.header("x-popqc-request-id")?.trim();
    let ok = !v.is_empty()
        && v.len() <= 64
        && v.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'));
    ok.then(|| v.to_string())
}

/// Accounts an admission refusal the evented frontend answers inline on
/// the loop thread: such 429/503s bypass [`Handler::handle`], so the
/// request counter and the access-log line are recorded here, plus a
/// short trace (always kept — shed is a tail-sampling keep rule)
/// carrying the admission verdict. Returns the response with its
/// `x-popqc-request-id` attached.
pub(crate) fn observe_refusal(
    method: &str,
    path: &str,
    peer: &str,
    verdict: &'static str,
    req: Option<&Request>,
    resp: Response,
) -> Response {
    let request_id = req
        .and_then(client_request_id)
        .unwrap_or_else(metrics::next_request_id);
    let endpoint = metrics::endpoint_label(method, path);
    metrics::requests(endpoint, metrics::status_class(resp.status)).inc();
    let trace = qobs::trace::start_trace("request");
    trace.root_attr("method", method);
    trace.root_attr("path", path);
    trace.root_attr("peer", peer);
    trace.root_attr("request_id", request_id.as_str());
    trace.root_attr("admission", verdict);
    trace.finish(resp.status);
    let trace_hex = trace.id_hex();
    qobs::log_info!(
        target: "qhttp",
        "request",
        id = request_id,
        method = method,
        path = path,
        status = resp.status,
        seconds = "0.000000",
        trace = trace_hex.as_deref().unwrap_or("-"),
        refused = verdict
    );
    resp.with_header("x-popqc-request-id", request_id)
}

/// Renders a kept trace as the index-row DTO.
fn trace_summary(t: &qobs::trace::CompletedTrace) -> qapi::TraceSummary {
    qapi::TraceSummary {
        trace_id: t.id_hex(),
        status: t.status,
        sampled_because: t.kept_because.to_string(),
        start_unix_nanos: t.start_unix_nanos,
        duration_nanos: t.duration_nanos,
        span_count: t.spans.len() as u64,
    }
}

/// Renders a kept trace as the full span-tree DTO. Span attributes are
/// sorted by key so the document (and its snapshot) is deterministic.
fn trace_report(t: &qobs::trace::CompletedTrace) -> qapi::TraceReport {
    let spans = t
        .spans
        .iter()
        .map(|s| {
            let mut attrs: Vec<(String, serde_json::Value)> = s
                .attrs
                .iter()
                .map(|(k, v)| (k.to_string(), attr_json(v)))
                .collect();
            attrs.sort_by(|a, b| a.0.cmp(&b.0));
            qapi::TraceSpan {
                id: s.id,
                parent: s.parent,
                name: s.name.to_string(),
                start_nanos: s.start_nanos,
                duration_nanos: s.duration_nanos,
                attrs,
            }
        })
        .collect();
    qapi::TraceReport {
        trace_id: t.id_hex(),
        status: t.status,
        sampled_because: t.kept_because.to_string(),
        start_unix_nanos: t.start_unix_nanos,
        duration_nanos: t.duration_nanos,
        dropped_spans: t.dropped_spans,
        queue_nanos: t.queue_nanos,
        engine_nanos: t.engine_nanos,
        oracle_nanos: t.oracle_nanos,
        store_nanos: t.store_nanos,
        spans,
    }
}

fn attr_json(v: &qobs::trace::AttrValue) -> serde_json::Value {
    use qobs::trace::AttrValue;
    match v {
        AttrValue::U64(n) => json!(*n),
        AttrValue::I64(n) => json!(*n),
        AttrValue::F64(n) => json!(*n),
        AttrValue::Bool(b) => json!(*b),
        AttrValue::Str(s) => json!(s.as_str()),
    }
}

/// An API-taxonomy failure: the variant's canonical status plus its wire
/// document. Refusals that invite a retry (503 overloaded, 429 rate
/// limited) always carry `Retry-After` so well-behaved clients back off
/// instead of hammering — centralized here so no refusal path can forget
/// it.
pub(crate) fn error(e: &ApiError) -> Response {
    let status = e.http_status();
    let resp = Response::json(status, &e.to_json());
    match status {
        503 | 429 => resp.with_header("Retry-After", "1"),
        _ => resp,
    }
}

/// A transport-level failure outside the API taxonomy (routing, method),
/// in the same wire shape.
fn transport_error(status: u16, kind: &str, message: &str) -> Response {
    Response::json(status, &qapi::transport_error_json(kind, message))
}

fn method_not_allowed(allowed: &str) -> Response {
    transport_error(
        405,
        "method_not_allowed",
        &format!("method not allowed (use {allowed})"),
    )
}
