//! The evented frontend: the v1 API served through `qnet`'s
//! readiness-driven connection layer.
//!
//! `HttpDriver` is the per-connection protocol state machine the qnet
//! loop threads run: it feeds arriving bytes through the incremental
//! [`RequestParser`], answers admission
//! refusals *inline on the loop thread* (never touching the dispatcher
//! pool), and hands admitted requests to the dispatcher as a closure
//! over [`AppState::handle`]. Refusals stay fast under load by
//! construction — a shed 503 costs one parse plus one small serialized
//! body, regardless of how many oracle jobs are in flight.
//!
//! Admission control order, per parsed request:
//!
//! 0. **Headers-complete pre-check** — for a request that still has a
//!    body to upload, the rate-limit and shed decisions run as soon as
//!    the headers finish, *before* the parser's `100 Continue` interim
//!    or any body buffering: a refused client gets its 429/503
//!    immediately instead of an invitation to upload `MAX_BODY_BYTES`
//!    first. The unread body makes the connection's framing unusable,
//!    so these early refusals close the connection.
//! 1. **Rate limit** — the per-peer-IP token bucket (`--rate-limit`).
//!    A refusal answers 429 `rate_limited` with a computed
//!    `Retry-After`, keeps the connection alive (bodyless requests),
//!    and counts into `popqc_net_rate_limited_total`. A request
//!    admitted at the pre-check is not charged a second token here.
//! 2. **Load shedding** — requests that would enqueue oracle work
//!    (`POST /v1/optimize`, `POST /v1/batch`) are refused with 503
//!    `overloaded` + `Retry-After` when the service's job queue is at
//!    `--shed-queue-depth` (`popqc_net_shed_total`). Cheap reads
//!    (stats, metrics, health, job polling) are never shed — they are
//!    exactly what an operator needs during an overload.
//! 3. **Dispatch** — everything else runs on the qnet dispatcher pool,
//!    which bounds concurrently *executing* requests.
//!
//! Connection-level admission (the `--max-conns` accept gate, idle and
//! slowloris read deadlines, output buffering for stalled readers)
//! lives in `qnet` itself; this module only decides per-request fates.

use crate::api::{AppState, Handler};
use crate::http::{HttpError, ParseStep, Request, RequestParser, Response};
use qapi::ApiError;
use qnet::{Action, Driver, DriverFactory, NetConfig, NetServer, NetStats, RateLimiter};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Tuning for an [`EventedServer`]. The connection-layer knobs map onto
/// [`NetConfig`]; `rate_limit` and `shed_queue_depth` are HTTP-level
/// admission control and default to off.
#[derive(Clone, Debug)]
pub struct EventedConfig {
    /// Event-loop threads (each owns its connections).
    pub loop_threads: usize,
    /// Dispatcher threads running handler work; bounds concurrently
    /// executing requests.
    pub dispatch_threads: usize,
    /// Open-connection cap; at the cap the acceptor stops accepting and
    /// excess clients wait in the kernel backlog.
    pub max_conns: usize,
    /// A connection must complete a request within this window or it is
    /// closed (covers both idle keep-alive and slowloris).
    pub read_deadline: Duration,
    /// Per-peer-IP requests/second (burst of one second's worth);
    /// `0.0` disables rate limiting.
    pub rate_limit: f64,
    /// Refuse work-enqueueing requests with 503 once the service queue
    /// holds this many waiting jobs; `0` disables shedding.
    pub shed_queue_depth: usize,
}

impl Default for EventedConfig {
    fn default() -> EventedConfig {
        let net = NetConfig::default();
        EventedConfig {
            loop_threads: net.loop_threads,
            dispatch_threads: net.dispatch_threads,
            max_conns: net.max_conns,
            read_deadline: net.read_deadline,
            rate_limit: 0.0,
            shed_queue_depth: 0,
        }
    }
}

/// The v1 API on the readiness-driven frontend. Construction hands the
/// server's connection counters to the state, so `/v1/stats` reports the
/// `frontend` block immediately.
pub struct EventedServer {
    inner: NetServer,
    stats: Arc<NetStats>,
}

impl EventedServer {
    /// Binds `addr` (port 0 for ephemeral) and starts serving `state`.
    pub fn serve(
        addr: impl ToSocketAddrs,
        state: Arc<AppState>,
        cfg: EventedConfig,
    ) -> std::io::Result<EventedServer> {
        let stats = Arc::new(NetStats::default());
        let factory = Arc::new(HttpDriverFactory {
            state: Arc::clone(&state),
            limiter: Arc::new(RateLimiter::new(cfg.rate_limit)),
            shed_queue_depth: cfg.shed_queue_depth,
            stats: Arc::clone(&stats),
        });
        let net_cfg = NetConfig {
            loop_threads: cfg.loop_threads,
            dispatch_threads: cfg.dispatch_threads,
            max_conns: cfg.max_conns,
            read_deadline: cfg.read_deadline,
            ..NetConfig::default()
        };
        let inner = NetServer::serve_with_stats(addr, factory, net_cfg, Arc::clone(&stats))?;
        state.set_net_stats(Arc::clone(&stats));
        Ok(EventedServer { inner, stats })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// This server's connection/admission counters.
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.stats)
    }

    /// Stops accepting, closes every connection, joins all threads.
    /// Idempotent (also runs on drop).
    pub fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

struct HttpDriverFactory {
    state: Arc<AppState>,
    limiter: Arc<RateLimiter>,
    shed_queue_depth: usize,
    stats: Arc<NetStats>,
}

impl DriverFactory for HttpDriverFactory {
    fn make(&self, peer: SocketAddr) -> Box<dyn Driver> {
        Box::new(HttpDriver {
            state: Arc::clone(&self.state),
            peer,
            parser: RequestParser::new(),
            limiter: Arc::clone(&self.limiter),
            shed_queue_depth: self.shed_queue_depth,
            stats: Arc::clone(&self.stats),
            rate_admitted: false,
            trace: None,
        })
    }
}

/// One connection's HTTP state machine (see the module docs for the
/// admission-control order).
struct HttpDriver {
    state: Arc<AppState>,
    peer: SocketAddr,
    parser: RequestParser,
    limiter: Arc<RateLimiter>,
    shed_queue_depth: usize,
    stats: Arc<NetStats>,
    /// The in-flight request already paid its rate-limit token at the
    /// headers-complete pre-check; don't charge it again at `Done`.
    rate_admitted: bool,
    /// The dispatched request's trace, opened at parse time and finished
    /// on the loop thread once its response flushes (or at connection
    /// reap, as `aborted`).
    trace: Option<qobs::trace::TraceHandle>,
}

/// Serializes a response into bytes for the connection's output buffer.
fn serialize(resp: &Response, keep_alive: bool) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(256);
    resp.write_to(&mut bytes, keep_alive)
        .expect("serializing a response into memory cannot fail");
    bytes
}

/// The dispatcher's panic policy: a handler panic answers 500 and closes
/// the connection; it must never take a dispatcher thread down. Returns
/// the response and whether the connection stays open.
fn handle_or_500(
    handler: &impl Handler,
    req: &Request,
    trace: &qobs::trace::TraceHandle,
) -> (Response, bool) {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler.handle(req))) {
        Ok(r) => (r, req.keep_alive),
        Err(_) => {
            trace.set_status(500);
            trace.mark_handler_done();
            let e = ApiError::Internal("internal server error".to_string());
            (Response::json(500, &e.to_json()), false)
        }
    }
}

/// Whether this request would enqueue oracle work — the only traffic
/// load shedding applies to.
fn enqueues_work(method: &str, path: &str) -> bool {
    method == "POST" && matches!(path, "/v1/optimize" | "/v1/batch")
}

impl HttpDriver {
    /// The 429 for `peer`'s bucket, with its computed `Retry-After`.
    fn rate_limit_refusal(&self) -> Response {
        self.stats.rate_limit_hit();
        let secs = self.limiter.retry_after_secs(self.peer.ip());
        let e = ApiError::RateLimited(format!("per-peer rate limit exceeded; retry in {secs}s"));
        Response::json(e.http_status(), &e.to_json()).with_header("Retry-After", secs.to_string())
    }

    /// The 503 for a shed work-enqueueing request.
    fn shed_refusal(&self) -> Response {
        self.stats.shed();
        let e = ApiError::Overloaded(format!(
            "job queue is at the shed threshold ({}); retry later",
            self.shed_queue_depth
        ));
        crate::api::error(&e)
    }

    /// Whether the shed predicate refuses `method path` right now.
    fn sheds(&self, method: &str, path: &str) -> bool {
        self.shed_queue_depth > 0
            && enqueues_work(method, path)
            && self.state.service().queue_depth() >= self.shed_queue_depth
    }

    /// Counts and logs an inline refusal — these responses never reach
    /// [`Handler::handle`], so without this the request counter and the
    /// access log would miss every 429/503 answered on the loop thread.
    fn account_refusal(
        &self,
        resp: Response,
        verdict: &'static str,
        method: &str,
        path: &str,
        req: Option<&Request>,
    ) -> Response {
        crate::api::observe_refusal(method, path, &self.peer.to_string(), verdict, req, resp)
    }

    /// The headers-complete pre-check for a request with a body still
    /// to arrive: admission runs *before* the parser emits the
    /// `100 Continue` interim or buffers a single body byte. Returns
    /// the refusal response, or `None` if the request may proceed (a
    /// consumed rate token is remembered in `rate_admitted`).
    fn refuse_before_body(&mut self) -> Option<Response> {
        let method = self.parser.head_method().to_string();
        let path = self.parser.head_path().to_string();
        if self.limiter.enabled() && !self.rate_admitted {
            if self.limiter.admit(self.peer.ip()) {
                self.rate_admitted = true;
            } else {
                let resp = self.rate_limit_refusal();
                return Some(self.account_refusal(resp, "rate_limited", &method, &path, None));
            }
        }
        if self.sheds(&method, &path) {
            let resp = self.shed_refusal();
            return Some(self.account_refusal(resp, "shed", &method, &path, None));
        }
        None
    }

    /// Decides one parsed request's fate. Returns `true` when the
    /// request was dispatched (the connection is now busy and the driver
    /// must stop consuming input).
    fn handle_request(&mut self, req: Request, out: &mut Vec<Action>) -> bool {
        let rate_admitted = std::mem::take(&mut self.rate_admitted);
        if self.limiter.enabled() && !rate_admitted && !self.limiter.admit(self.peer.ip()) {
            let resp = self.rate_limit_refusal();
            let resp =
                self.account_refusal(resp, "rate_limited", &req.method, &req.path, Some(&req));
            out.push(Action::Respond {
                bytes: serialize(&resp, req.keep_alive),
                keep_alive: req.keep_alive,
            });
            return false;
        }
        if self.sheds(&req.method, &req.path) {
            let resp = self.shed_refusal();
            let resp = self.account_refusal(resp, "shed", &req.method, &req.path, Some(&req));
            out.push(Action::Respond {
                bytes: serialize(&resp, req.keep_alive),
                keep_alive: req.keep_alive,
            });
            return false;
        }
        let state = Arc::clone(&self.state);

        // The root span opens here, at parse/admission time on the loop
        // thread; the dispatch closure joins it from the dispatcher pool
        // and the loop thread finishes it once the response flushes.
        if let Some(old) = self.trace.take() {
            // A pipelined successor overtook the previous response's
            // flush notification; close the old trace without its
            // write-flush span rather than losing it.
            old.finish(old.status());
        }
        let trace = qobs::trace::start_trace("request");
        if trace.enabled() {
            trace.root_attr("method", req.method.as_str());
            trace.root_attr("path", req.path.as_str());
            trace.root_attr("peer", self.peer.to_string());
            self.trace = Some(trace.clone());
        }
        let enqueued = std::time::Instant::now();
        out.push(Action::Dispatch(Box::new(move || {
            let waited_nanos = enqueued.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            trace.span_closed(
                "dispatch_wait",
                qobs::trace::ROOT_SPAN,
                trace.now_nanos().saturating_sub(waited_nanos),
                waited_nanos,
                Vec::new(),
            );
            let ctx = qobs::trace::TraceCtx {
                handle: trace.clone(),
                parent: qobs::trace::ROOT_SPAN,
            };
            let (response, keep_alive) =
                qobs::trace::with_active(&ctx, || handle_or_500(state.as_ref(), &req, &trace));
            (serialize(&response, keep_alive), keep_alive)
        })));
        true
    }
}

impl Driver for HttpDriver {
    fn on_data(&mut self, input: &mut Vec<u8>, out: &mut Vec<Action>) {
        loop {
            let (consumed, step) = match self.parser.advance(input) {
                Ok(x) => x,
                Err(e) => {
                    // Protocol errors get a best-effort response when
                    // possible; the connection is never reusable (its
                    // framing is lost).
                    input.clear();
                    let resp = match e {
                        HttpError::BadRequest(msg) => Some(Response::json(
                            400,
                            &qapi::transport_error_json("bad_request", &msg),
                        )),
                        HttpError::PayloadTooLarge => Some(Response::json(
                            413,
                            &qapi::transport_error_json(
                                "payload_too_large",
                                "request body too large",
                            ),
                        )),
                        HttpError::Io(_) => None,
                    };
                    match resp {
                        Some(r) => out.push(Action::Respond {
                            bytes: serialize(&r, false),
                            keep_alive: false,
                        }),
                        None => out.push(Action::Close),
                    }
                    return;
                }
            };
            input.drain(..consumed);
            match step {
                ParseStep::NeedMore => return,
                ParseStep::HeadersDone => {
                    // Admission pre-check before the body: a refused
                    // client must not be invited (via 100 Continue) to
                    // upload its payload first. The unread body makes
                    // the framing unusable, so the refusal closes the
                    // connection. Bodyless requests reach `Done`
                    // immediately and are checked there instead.
                    if self.parser.body_expected() {
                        if let Some(resp) = self.refuse_before_body() {
                            input.clear();
                            out.push(Action::Respond {
                                bytes: serialize(&resp, false),
                                keep_alive: false,
                            });
                            return;
                        }
                    }
                }
                // The parser has a zero-input transition queued after an
                // interim response, so loop again even with empty input.
                ParseStep::Interim(bytes) => out.push(Action::Interim(bytes.to_vec())),
                ParseStep::Done(req) => {
                    if self.handle_request(req, out) {
                        // Dispatched: the connection is busy. Leftover
                        // pipelined bytes replay when the completion
                        // posts back.
                        return;
                    }
                }
            }
        }
    }

    fn on_output_drained(&mut self) {
        // Fires whenever queued bytes finish flushing (interim responses
        // included); only a response whose handler has completed closes
        // the trace — everything from handler-done to here is the
        // write-flush time the dispatcher never sees.
        if let Some(t) = &self.trace {
            if let Some(done) = t.handler_done_nanos() {
                let now = t.now_nanos();
                t.span_closed(
                    "write_flush",
                    qobs::trace::ROOT_SPAN,
                    done,
                    now.saturating_sub(done),
                    Vec::new(),
                );
                t.finish(t.status());
                self.trace = None;
            }
        }
    }
}

impl Drop for HttpDriver {
    fn drop(&mut self) {
        // A reaped connection (peer gone, write stall, shutdown) still
        // finishes its in-flight trace: status 0 marks it aborted, which
        // the tail sampler always keeps.
        if let Some(t) = self.trace.take() {
            t.root_attr("aborted", true);
            t.finish(t.status());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Panics on `/boom`, otherwise answers 200.
    struct BoomHandler;

    impl Handler for BoomHandler {
        fn handle(&self, req: &Request) -> Response {
            if req.path == "/boom" {
                panic!("handler exploded");
            }
            Response::text(200, "ok")
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: Vec::new(),
            headers: Vec::new(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    #[test]
    fn handler_panic_answers_500_and_closes_the_connection() {
        let trace = qobs::trace::disabled();
        // Twice: a caught panic leaves the calling thread fit to serve.
        for _ in 0..2 {
            let (resp, keep_alive) = handle_or_500(&BoomHandler, &get("/boom"), &trace);
            assert_eq!(resp.status, 500);
            assert!(!keep_alive, "a panicked request must close its connection");
            let wire = String::from_utf8(serialize(&resp, keep_alive)).unwrap();
            assert!(wire.contains("Connection: close"), "wire: {wire}");
            assert!(wire.contains("\"internal\""), "wire: {wire}");
        }
        let (resp, keep_alive) = handle_or_500(&BoomHandler, &get("/fine"), &trace);
        assert_eq!(resp.status, 200);
        assert!(keep_alive);
    }
}
