//! The shared remote cache tier: [`RemoteStore`] (the client behind the
//! [`ResultStore`] seam) and [`CacheServer`] (what `popqc cached` runs).
//!
//! N `popqc serve` replicas pointing `--cache-addr` at one `popqc cached`
//! process behave as one coherent warm cache: a circuit optimized on
//! replica A is a zero-oracle-call hit on replica B. The wire protocol
//! lives in [`crate::wire`]; the entry encoding is byte-identical to the
//! disk tier's, so `store_format` and `oracle_version` travel end to end
//! and the server refuses stale entries exactly like a local `DiskStore`.
//!
//! [`CacheServer`] has no connection machinery of its own: a small wire
//! [`qnet::Driver`] frames requests on a [`qnet::NetServer`], the layer
//! under `popqc serve`'s HTTP frontend, so the cache server shares its
//! pre-accept connection cap, request-completion deadline, dispatcher
//! pool, panic isolation and shutdown.
//!
//! ## Degradation contract
//!
//! The remote tier must **never** surface a network problem as a job
//! error or a wrong result:
//!
//! * every socket has connect/read/write timeouts;
//! * a failed request is retried a bounded number of times with backoff,
//!   on a fresh connection (the pooled ones are dropped — after a server
//!   restart they are all stale);
//! * when retries are exhausted the store marks the server down for a
//!   cooldown window and answers **local misses** (gets), drops writes
//!   (puts), and reports zeros (stats) without touching the network;
//! * after the cooldown the next operation reconnects, so recovery is
//!   automatic and hits resume;
//! * a `HIT` payload is re-validated against the requested key and
//!   oracle version before it is trusted — a confused or stale server
//!   degrades to a miss, never to a wrong circuit;
//! * an entry too large for one frame is never sent: the put is dropped
//!   without touching the network or the breaker, and the server
//!   answers a `GET` for one with `MISS`.
//!
//! Every degraded operation increments the tier's `errors` counter
//! (visible in `StatsReport.cache_tiers` and `/v1/metrics`), so a fleet
//! losing its cache server is observable while it keeps serving.

use crate::metrics;
use crate::service::JobKey;
use crate::store::{self, CachedRun, ResultStore};
use crate::wire::{self, Frame, Op, WireError};
use qnet::{Action, Driver, DriverFactory, NetConfig, NetServer};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client-side knobs for one [`RemoteStore`]. The defaults suit a
/// same-rack cache server; tests shrink the timeouts and cooldown to
/// exercise degradation quickly.
#[derive(Clone, Debug)]
pub struct RemoteConfig {
    /// `HOST:PORT` of the `popqc cached` server.
    pub addr: String,
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Read/write timeout per frame.
    pub io_timeout: Duration,
    /// Retries after the first failed attempt (each on a fresh
    /// connection, with linear backoff).
    pub retries: u32,
    /// Base backoff between attempts (attempt `n` sleeps `n * backoff`).
    pub backoff: Duration,
    /// How long to answer local misses without touching the network
    /// after retries are exhausted (the circuit-breaker window).
    pub cooldown: Duration,
    /// Idle connections kept for reuse.
    pub pool_size: usize,
}

impl RemoteConfig {
    /// Production defaults for a server at `addr`.
    pub fn new(addr: impl Into<String>) -> RemoteConfig {
        RemoteConfig {
            addr: addr.into(),
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(5),
            retries: 2,
            backoff: Duration::from_millis(25),
            cooldown: Duration::from_secs(1),
            pool_size: 4,
        }
    }
}

/// [`ResultStore`] backend that proxies every operation to a
/// `popqc cached` server — see the module docs for the degradation
/// contract. Usually composed as the back of a [`crate::TieredStore`]
/// (`--cache-addr …` with a nonzero `--cache-capacity`) so repeat hits
/// stay at RAM speed and only first-touch lookups pay a round trip.
pub struct RemoteStore {
    cfg: RemoteConfig,
    /// Resolved once at construction; `127.0.0.1:0`-style test servers
    /// hand the store an already-bound port.
    targets: Vec<SocketAddr>,
    /// Idle connections for reuse; drained wholesale on any failure
    /// (after a server restart every pooled stream is stale).
    pool: Mutex<Vec<TcpStream>>,
    /// Circuit breaker: `Some(t)` means "answer local misses until `t`".
    down_until: Mutex<Option<Instant>>,
    hits: AtomicU64,
    misses: AtomicU64,
    errors: AtomicU64,
    get_timer: Arc<qobs::Histogram>,
    put_timer: Arc<qobs::Histogram>,
}

impl RemoteStore {
    /// Builds a client for `cfg.addr`. Fails only on an unresolvable
    /// address — an unreachable (not-yet-started) server is a degraded
    /// state, not a construction error, so fleet boot order never
    /// matters.
    pub fn new(cfg: RemoteConfig) -> Result<RemoteStore, String> {
        let targets: Vec<SocketAddr> = cfg
            .addr
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve cache server address {}: {e}", cfg.addr))?
            .collect();
        if targets.is_empty() {
            return Err(format!(
                "cache server address {} resolves to nothing",
                cfg.addr
            ));
        }
        Ok(RemoteStore {
            targets,
            pool: Mutex::new(Vec::new()),
            down_until: Mutex::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            get_timer: metrics::store_get_duration("remote"),
            put_timer: metrics::store_put_duration("remote"),
            cfg,
        })
    }

    /// The configured server address.
    pub fn addr(&self) -> &str {
        &self.cfg.addr
    }

    /// Whether the circuit breaker currently short-circuits to local
    /// misses (expired windows are cleared as a side effect).
    fn breaker_open(&self) -> bool {
        let mut down = self.down_until.lock().expect("remote breaker poisoned");
        match *down {
            Some(t) if Instant::now() < t => true,
            Some(_) => {
                *down = None;
                false
            }
            None => false,
        }
    }

    fn trip_breaker(&self) {
        let mut down = self.down_until.lock().expect("remote breaker poisoned");
        *down = Some(Instant::now() + self.cfg.cooldown);
    }

    fn checkout(&self) -> io::Result<TcpStream> {
        if let Some(stream) = self.pool.lock().expect("remote pool poisoned").pop() {
            return Ok(stream);
        }
        let mut last = io::Error::new(io::ErrorKind::AddrNotAvailable, "no targets");
        for target in &self.targets {
            match TcpStream::connect_timeout(target, self.cfg.connect_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(self.cfg.io_timeout))?;
                    stream.set_write_timeout(Some(self.cfg.io_timeout))?;
                    let _ = stream.set_nodelay(true);
                    return Ok(stream);
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn checkin(&self, stream: TcpStream) {
        let mut pool = self.pool.lock().expect("remote pool poisoned");
        if pool.len() < self.cfg.pool_size {
            pool.push(stream);
        }
    }

    fn try_once(&self, req: &Frame) -> Result<Frame, WireError> {
        let mut stream = self.checkout().map_err(WireError::Io)?;
        wire::write_frame(&mut stream, req).map_err(WireError::Io)?;
        let resp = wire::read_frame(&mut stream)?;
        self.checkin(stream);
        Ok(resp)
    }

    /// One request through the breaker + retry machinery. `Err` means the
    /// operation degraded (breaker open or retries exhausted) — the
    /// caller falls back to its local-miss behavior; the error count has
    /// already been taken.
    fn request(&self, req: &Frame) -> Result<Frame, ()> {
        if self.breaker_open() {
            self.errors.fetch_add(1, Relaxed);
            return Err(());
        }
        let mut attempt = 0u32;
        loop {
            let started = Instant::now();
            match self.try_once(req) {
                Ok(resp) => {
                    metrics::remote_roundtrip(req.op.name()).observe_duration(started.elapsed());
                    return Ok(resp);
                }
                Err(e) => {
                    // Whatever failed, every pooled stream is suspect
                    // (a restarted server closed them all).
                    self.pool.lock().expect("remote pool poisoned").clear();
                    attempt += 1;
                    if attempt > self.cfg.retries {
                        qobs::log_warn!(
                            target: "qsvc::remote",
                            "cache server degraded",
                            addr = self.cfg.addr,
                            op = req.op.name(),
                            error = e,
                            cooldown_ms = self.cfg.cooldown.as_millis()
                        );
                        self.trip_breaker();
                        self.errors.fetch_add(1, Relaxed);
                        return Err(());
                    }
                    std::thread::sleep(self.cfg.backoff * attempt);
                }
            }
        }
    }

    /// Best-effort server-side report, for `stats()`/`len()`. Zeros when
    /// degraded — the client-side counters still tell the story.
    fn server_report(&self) -> Option<qapi::CacheReport> {
        let resp = self.request(&Frame::empty(Op::Stats)).ok()?;
        if resp.op != Op::Report {
            return None;
        }
        let text = std::str::from_utf8(&resp.payload).ok()?;
        let doc = serde_json::from_str(text).ok()?;
        qapi::CacheReport::from_json(&doc).ok()
    }
}

impl ResultStore for RemoteStore {
    fn get(&self, key: &JobKey, oracle_version: &str) -> Option<Arc<CachedRun>> {
        let _timer = self.get_timer.start_timer();
        // Propagate the ambient trace id (GETs always precede PUTs for a
        // given job, so GET-only propagation covers the whole exchange):
        // the `popqc cached` server starts its own trace under the same
        // id, and the two captures join into one fleet-wide picture.
        let ctx = qobs::trace::current();
        let mut span = if ctx.handle.enabled() {
            Some(ctx.handle.span("remote_get", ctx.parent))
        } else {
            None
        };
        let trace_hex = ctx.handle.id_hex();
        let req = Frame::new(
            Op::Get,
            wire::encode_key_traced(
                key,
                oracle_version,
                trace_hex.as_deref(),
                ctx.handle.is_forced(),
            ),
        );
        if let Some(span) = &mut span {
            span.attr("addr", self.cfg.addr.as_str());
        }
        let outcome = match self.request(&req) {
            Ok(resp) if resp.op == Op::Hit => {
                // Re-validate before trusting: a confused server (or an
                // entry raced past a version bump) degrades to a miss,
                // never to a wrong result.
                let run = std::str::from_utf8(&resp.payload)
                    .ok()
                    .and_then(|text| store::decode_entry(key, oracle_version, text).ok());
                match run {
                    Some(run) => {
                        self.hits.fetch_add(1, Relaxed);
                        Some(Arc::new(run))
                    }
                    None => {
                        self.errors.fetch_add(1, Relaxed);
                        self.misses.fetch_add(1, Relaxed);
                        None
                    }
                }
            }
            Ok(_) | Err(()) => {
                self.misses.fetch_add(1, Relaxed);
                None
            }
        };
        if let Some(mut span) = span {
            span.attr("hit", outcome.is_some());
        }
        outcome
    }

    fn put(&self, key: &JobKey, oracle_version: &str, value: Arc<CachedRun>) {
        let _timer = self.put_timer.start_timer();
        let ctx = qobs::trace::current();
        let mut span = if ctx.handle.enabled() {
            Some(ctx.handle.span("remote_put", ctx.parent))
        } else {
            None
        };
        let req = Frame::new(
            Op::Put,
            store::encode_entry(key, oracle_version, &value).into_bytes(),
        );
        if let Some(span) = &mut span {
            span.attr("addr", self.cfg.addr.as_str());
            span.attr("bytes", req.payload.len());
        }
        // A degraded put is a dropped write (the entry stays in the
        // front tier / recomputes later) — counted, never an error. An
        // entry too large for one frame is dropped unsent: the server
        // would refuse it and hang up, and the retries would trip the
        // breaker, turning every replica lookup into a local miss.
        let ok = if req.fits() {
            self.request(&req).is_ok()
        } else {
            self.errors.fetch_add(1, Relaxed);
            false
        };
        if let Some(mut span) = span {
            span.attr("delivered", ok);
        }
    }

    fn remove(&self, key: &JobKey) -> bool {
        // The server's remove is version-agnostic; the field is carried
        // for payload uniformity only.
        let req = Frame::new(Op::Remove, wire::encode_key(key, ""));
        match self.request(&req) {
            Ok(resp) if resp.op == Op::Ack => resp.payload.first() == Some(&1),
            _ => false,
        }
    }

    fn clear(&self) -> u64 {
        match self.request(&Frame::empty(Op::Clear)) {
            Ok(resp) if resp.op == Op::Count && resp.payload.len() == 8 => {
                u64::from_be_bytes(resp.payload[..8].try_into().expect("8-byte count"))
            }
            _ => 0,
        }
    }

    fn len(&self) -> usize {
        self.server_report().map_or(0, |r| r.entries as usize)
    }

    fn stats(&self) -> qapi::CacheReport {
        let server = self.server_report().unwrap_or_default();
        let tier = qapi::CacheTierReport {
            tier: "remote".to_string(),
            entries: server.entries,
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            evictions: server.evictions,
            bytes: server.bytes,
            errors: self.errors.load(Relaxed),
        };
        store::store_report("remote", vec![tier])
    }
}

// ---------------------------------------------------------------------------
// CacheServer
// ---------------------------------------------------------------------------

/// Server-side knobs for one [`CacheServer`].
#[derive(Clone, Debug)]
pub struct CacheServerConfig {
    /// Each request frame must arrive whole within this window, counted
    /// from accept or from the previous response, or the connection is
    /// closed. One rule reaps idle pooled connections and peers that
    /// drip a frame byte by byte; the same window bounds a peer that
    /// stops reading its responses.
    pub read_timeout: Duration,
    /// Open-connection cap. At the cap the acceptor stops calling
    /// `accept`, so further clients queue in the kernel backlog
    /// (backpressure) instead of being served or refused. Clamped to at
    /// least 1, like the HTTP frontend's.
    pub max_conns: usize,
}

impl Default for CacheServerConfig {
    fn default() -> CacheServerConfig {
        CacheServerConfig {
            read_timeout: Duration::from_secs(30),
            max_conns: 256,
        }
    }
}

/// Per-connection input cap: one legal frame, length prefix included,
/// always fits.
const MAX_BUFFER: usize = wire::MAX_FRAME_BYTES as usize + 4;

/// State shared by every connection's driver and the [`CacheServer`]
/// handle.
struct Served {
    store: Arc<dyn ResultStore>,
    /// The server's oracle-version index. Memory tiers ignore
    /// `oracle_version` locally (one process, one registry build), but a
    /// fleet is *not* one process: replicas running different oracle
    /// code share this server, so it records the version each key was
    /// written under and answers a mismatched GET with a miss before the
    /// backing store — which might not check — is consulted.
    versions: Mutex<HashMap<JobKey, String>>,
}

/// The `popqc cached` server: serves the [`crate::wire`] protocol over
/// any [`ResultStore`] (a `DiskStore`, or memory-over-disk tiered, in
/// practice) on a [`qnet::NetServer`]. Its event loops frame the
/// requests of every open connection — up to `max_conns` of them — and
/// each whole frame runs on the dispatcher pool, since store operations
/// can block on disk. Dropping the server shuts it down.
pub struct CacheServer {
    served: Arc<Served>,
    net: NetServer,
}

impl CacheServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `store`.
    pub fn serve(
        addr: &str,
        store: Arc<dyn ResultStore>,
        cfg: CacheServerConfig,
    ) -> io::Result<CacheServer> {
        let served = Arc::new(Served {
            store,
            versions: Mutex::new(HashMap::new()),
        });
        let net_cfg = NetConfig {
            max_conns: cfg.max_conns,
            read_deadline: cfg.read_timeout,
            max_buffer: MAX_BUFFER,
            ..NetConfig::default()
        };
        let net = NetServer::serve(addr, Arc::new(WireDriver(Arc::clone(&served))), net_cfg)?;
        Ok(CacheServer { served, net })
    }

    /// The bound address (the resolved port for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// The store this server serves (for stats/admin surfaces).
    pub fn store(&self) -> &Arc<dyn ResultStore> {
        &self.served.store
    }

    /// Stops accepting, closes every live connection, and joins the
    /// server's threads. The listening port is released before this
    /// returns, so a test (or a supervisor) can rebind it to simulate
    /// recovery.
    pub fn shutdown(&mut self) {
        self.net.shutdown();
    }
}

/// One connection's framing of the wire protocol (and, as the factory,
/// the maker of one per connection). Each whole request frame is one
/// dispatch; a framing violation gets an `ERROR` frame and the
/// connection is closed — after one the stream position is
/// untrustworthy.
struct WireDriver(Arc<Served>);

impl DriverFactory for WireDriver {
    fn make(&self, peer: SocketAddr) -> Box<dyn Driver> {
        qobs::log_debug!(target: "qsvc::cached", "connection", peer = peer);
        Box::new(WireDriver(Arc::clone(&self.0)))
    }
}

impl Driver for WireDriver {
    fn on_data(&mut self, input: &mut Vec<u8>, out: &mut Vec<Action>) {
        match wire::split_frame(input) {
            Ok(None) => {}
            Ok(Some(frame)) => {
                let served = Arc::clone(&self.0);
                out.push(Action::Dispatch(Box::new(move || {
                    (dispatch(&frame, &served).encode(), true)
                })));
            }
            Err(violation) => {
                let msg = violation.to_string().into_bytes();
                out.push(Action::Respond {
                    bytes: Frame::new(Op::Error, msg).encode(),
                    keep_alive: false,
                });
            }
        }
    }
}

/// The GET path of [`dispatch`]: version gate, then the backing store,
/// with a `store_get` span on `trace` when the client propagated one.
fn serve_get(
    served: &Served,
    key: &JobKey,
    version: &str,
    trace: &qobs::trace::TraceHandle,
) -> Frame {
    // Version gate first: an entry written under a different oracle
    // version must answer Miss even when the backing store's memory tier
    // would blindly hit.
    let known = served.versions.lock().expect("versions poisoned");
    if known.get(key).is_some_and(|v| *v != version) {
        return Frame::empty(Op::Miss);
    }
    drop(known);
    let span = if trace.enabled() {
        Some(trace.span("store_get", qobs::trace::ROOT_SPAN))
    } else {
        None
    };
    let found = served.store.get(key, version);
    if let Some(mut span) = span {
        span.attr("hit", found.is_some());
    }
    match found {
        Some(run) => {
            // Learn the version from a disk-validated hit (fresh restart
            // over a warm directory).
            served
                .versions
                .lock()
                .expect("versions poisoned")
                .insert(key.clone(), version.to_string());
            let hit = Frame::new(
                Op::Hit,
                store::encode_entry(key, version, &run).into_bytes(),
            );
            // A hit too large for one frame cannot travel: the replica
            // recomputes, as on any miss.
            if hit.fits() {
                hit
            } else {
                Frame::empty(Op::Miss)
            }
        }
        None => Frame::empty(Op::Miss),
    }
}

/// Answers one request frame. Never panics on hostile input: malformed
/// payloads and non-request opcodes answer `ERROR`, stale or corrupt PUT
/// entries are refused (the version tags traveled for exactly this).
fn dispatch(frame: &Frame, served: &Served) -> Frame {
    let error = |msg: &str| Frame::new(Op::Error, msg.as_bytes().to_vec());
    let store = &served.store;
    match frame.op {
        Op::Ping => Frame::empty(Op::Pong),
        Op::Get => match wire::decode_key_traced(&frame.payload) {
            Ok((key, version, trace_id, trace_forced)) => {
                // Join the client's trace when the key document carries
                // one: the server records its own mini-trace under the
                // same id, so `popqc trace <id>` against either process
                // shows the same causal request.
                let trace = match trace_id {
                    Some(id) => qobs::trace::start_trace_with_id("cached_get", id),
                    None => qobs::trace::disabled(),
                };
                if trace_forced {
                    trace.force();
                }
                let resp = serve_get(served, &key, &version, &trace);
                if trace.enabled() {
                    let hit = resp.op == Op::Hit;
                    trace.root_attr("oracle_id", key.oracle_id.as_str());
                    trace.root_attr("hit", hit);
                    trace.set_status(200);
                    let kept = trace.finish(200);
                    qobs::log_info!(
                        target: "qsvc::cached",
                        "traced get",
                        trace = trace.id_hex().unwrap_or_default(),
                        hit = hit,
                        kept = kept
                    );
                }
                resp
            }
            Err(e) => error(&e.to_string()),
        },
        Op::Put => {
            let text = match std::str::from_utf8(&frame.payload) {
                Ok(t) => t,
                Err(_) => return error("entry payload is not UTF-8"),
            };
            match store::decode_entry_owned(text) {
                Ok((key, version, run)) => {
                    served
                        .versions
                        .lock()
                        .expect("versions poisoned")
                        .insert(key.clone(), version.clone());
                    store.put(&key, &version, Arc::new(run));
                    Frame::empty(Op::Ack)
                }
                Err(store::EntryRejection::Stale) => {
                    error("stale entry refused (store format or oracle version)")
                }
                Err(store::EntryRejection::Corrupt) => error("corrupt entry refused"),
            }
        }
        Op::Remove => match wire::decode_key(&frame.payload) {
            Ok((key, _)) => {
                served
                    .versions
                    .lock()
                    .expect("versions poisoned")
                    .remove(&key);
                Frame::new(Op::Ack, vec![u8::from(store.remove(&key))])
            }
            Err(e) => error(&e.to_string()),
        },
        Op::Clear => {
            served.versions.lock().expect("versions poisoned").clear();
            Frame::new(Op::Count, store.clear().to_be_bytes().to_vec())
        }
        Op::Stats => Frame::new(
            Op::Report,
            serde_json::to_string(&store.stats().to_json())
                .expect("serialize cache report")
                .into_bytes(),
        ),
        _ => error("not a request opcode"),
    }
}
