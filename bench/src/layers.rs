//! The one file that names workspace APIs: one thin wrapper per call the
//! benchmark makes into a layer, so a later benchmark PR can re-point it
//! after an API change without touching workloads, probes or checks.
//! Nothing here times anything, and nothing here uses what the ROADMAP
//! slates for deletion (the threaded frontend, the rayon shim, the
//! `*_observed` / `*_cached` engine entry points).

use qhttp::Handler;
use qoracle::SegmentOracle;
use std::path::Path;
use std::sync::Arc;

pub type Circuit = qcir::Circuit;

pub fn gates(c: &Circuit) -> usize {
    c.gates.len()
}

pub fn qubits(c: &Circuit) -> u32 {
    c.num_qubits
}

// --- qobs -----------------------------------------------------------------

/// Keeps the in-process probes' access-log lines (one per handled
/// request) off the benchmark's stderr.
pub fn quiet_logs() {
    qobs::set_log_filter("error").expect("`error` is a log level");
}

// --- benchgen -------------------------------------------------------------

/// A benchmark family and the widths the workloads draw from.
#[derive(Clone, Copy)]
pub struct FamilySizes {
    pub name: &'static str,
    /// The paper's largest width for this family (Tables 1-3).
    pub paper_top: u32,
    /// The laptop-scale ladder, `ladder(0)`.
    pub ladder: [u32; 4],
}

fn sizes(f: benchgen::Family) -> FamilySizes {
    FamilySizes {
        name: f.name(),
        paper_top: f.paper_qubits()[3],
        ladder: f.ladder(0),
    }
}

/// The paper's eight families, in its table order.
pub fn paper_families() -> Vec<FamilySizes> {
    benchgen::Family::PAPER.into_iter().map(sizes).collect()
}

/// The fixed-skeleton ansatz whose seed changes only rotation angles.
pub fn parameterized_family() -> FamilySizes {
    sizes(benchgen::Family::Parameterized)
}

pub fn generate(family: &str, qubits: u32, seed: u64) -> Circuit {
    benchgen::Family::from_name(family)
        .unwrap_or_else(|| panic!("unknown benchmark family `{family}`"))
        .generate(qubits, seed)
}

// --- qcir -----------------------------------------------------------------

pub fn to_qasm(c: &Circuit) -> String {
    qcir::qasm::to_qasm(c)
}

pub fn parse_qasm(src: &str) -> Result<Circuit, String> {
    qcir::qasm::parse(src).map_err(|e| e.to_string())
}

pub fn fingerprint(c: &Circuit) -> u128 {
    c.fingerprint().0
}

pub fn fingerprint_abstract(c: &Circuit) -> u128 {
    qcir::fingerprint_gates_abstract(c.num_qubits, &c.gates).0
}

// --- qsim -----------------------------------------------------------------

pub fn equivalent(a: &Circuit, b: &Circuit, seed: u64) -> bool {
    // One random state already tells inequivalent circuits apart with
    // probability 1.
    qsim::circuits_equivalent(a, b, 1, seed)
}

// --- qoracle --------------------------------------------------------------

#[derive(Clone)]
pub struct Oracle {
    /// The id the service registry knows this oracle by.
    pub id: &'static str,
    inner: Arc<dyn SegmentOracle<qcir::Gate> + Send + Sync>,
}

pub fn rule_based() -> Oracle {
    Oracle {
        id: "rule_based",
        inner: Arc::new(qoracle::RuleBasedOptimizer::oracle()),
    }
}

pub fn structural() -> Oracle {
    Oracle {
        id: "structural",
        inner: Arc::new(qoracle::StructuralOptimizer::new()),
    }
}

pub fn oracle_by_id(id: &str) -> Option<Oracle> {
    match id {
        "rule_based" => Some(rule_based()),
        "structural" => Some(structural()),
        _ => None,
    }
}

impl Oracle {
    /// One oracle call on `c.gates[start..start + len]`; returns the
    /// output length and whether the engine's acceptance test would take
    /// it (strictly cheaper and no longer).
    pub fn call(&self, c: &Circuit, start: usize, len: usize) -> (usize, bool) {
        let end = (start + len).min(c.gates.len());
        let window = &c.gates[start..end];
        let out = self.inner.optimize(window, c.num_qubits);
        let improved = self.inner.cost(&out) < self.inner.cost(window) && out.len() <= window.len();
        (out.len(), improved)
    }
}

// --- qexec ----------------------------------------------------------------

/// Runs `f` with every parallel operation it performs pinned to `width`.
pub fn with_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    qexec::with_width(width, f)
}

pub fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    qexec::par_map_vec(items, f)
}

#[derive(Clone, Copy, Debug, Default)]
pub struct ExecCounts {
    pub tasks: u64,
    pub steals: u64,
    pub parallel_ops: u64,
}

/// Executor work since the process started (`ExecStats::delta_since` a
/// zero baseline).
pub fn exec_counts() -> ExecCounts {
    let d = qexec::snapshot().delta_since(&qexec::ExecStats::default());
    ExecCounts {
        tasks: d.tasks_executed,
        steals: d.steals,
        parallel_ops: d.parallel_ops,
    }
}

// --- popqc-core -----------------------------------------------------------

#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    pub rounds: u64,
    pub oracle_calls: u64,
    pub accepted: u64,
    pub seg_cache_hits: u64,
    pub oracle_nanos: u64,
    pub total_nanos: u64,
    /// Rounds that selected fewer fingers than `width`.
    pub narrow_rounds: u64,
}

fn engine_stats(s: &popqc_core::PopqcStats, width: usize) -> EngineStats {
    EngineStats {
        rounds: s.rounds as u64,
        oracle_calls: s.oracle_calls,
        accepted: s.accepted,
        seg_cache_hits: s.seg_cache_hits,
        oracle_nanos: s.oracle_nanos,
        total_nanos: s.total_nanos,
        narrow_rounds: s
            .rounds_detail
            .iter()
            .filter(|r| r.selected < width)
            .count() as u64,
    }
}

/// `narrow_rounds` counts against `narrow_below`, the width the caller
/// wants the round sizes judged against (usually `nproc`).
pub fn optimize(
    c: &Circuit,
    oracle: &Oracle,
    omega: usize,
    width: usize,
    narrow_below: usize,
) -> (Circuit, EngineStats) {
    let cfg = popqc_core::PopqcConfig::with_omega(omega);
    let (out, stats) = with_width(width, || {
        popqc_core::optimize_circuit(c, oracle.inner.as_ref(), &cfg)
    });
    let stats = engine_stats(&stats, narrow_below);
    (out, stats)
}

pub struct Tree(popqc_core::IndexTree);

impl Tree {
    pub fn build(weights: &[u32]) -> Tree {
        Tree(popqc_core::IndexTree::new(weights))
    }
    #[inline]
    pub fn select(&self, rank: usize) -> Option<usize> {
        self.0.select(rank)
    }
    #[inline]
    pub fn before(&self, phys: usize) -> usize {
        self.0.before(phys)
    }
    pub fn total(&self) -> usize {
        self.0.total()
    }
    pub fn update(&self, updates: &[(usize, u32)]) {
        self.0.update_leaves(updates)
    }
}

pub struct Sparse(popqc_core::SparseCircuit<qcir::Gate>);

impl Sparse {
    pub fn create(c: &Circuit) -> Sparse {
        Sparse(popqc_core::SparseCircuit::create(c.gates.clone()))
    }
    pub fn len(&self) -> usize {
        self.0.len()
    }
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
    /// The engine's segment extraction: one `select` per rank, then a
    /// clone of each live slot. Returns the physical slots it visited.
    pub fn extract(&self, start: usize, len: usize) -> Vec<usize> {
        let phys: Vec<usize> = (start..start + len)
            .map(|r| self.0.select(r).expect("rank in range"))
            .collect();
        let segment: Vec<qcir::Gate> = phys
            .iter()
            .map(|&p| *self.0.slot(p).expect("live slot"))
            .collect();
        std::hint::black_box(segment);
        phys
    }
    /// Tombstones every second slot of `phys` and rewrites the others in
    /// place, as an accepted rewrite of half the length would.
    pub fn substitute_halving(&mut self, phys: &[usize]) {
        let updates = phys
            .iter()
            .enumerate()
            .map(|(k, &p)| (p, (k % 2 == 0).then(|| *self.0.slot(p).expect("live slot"))))
            .collect();
        self.0.substitute(updates);
    }
    pub fn to_units(&self) -> usize {
        self.0.to_units().len()
    }
    pub fn select_fingers(&self, fingers: &[usize], omega: usize) -> (Vec<usize>, Vec<usize>) {
        popqc_core::fingers::select_fingers(&self.0, fingers, omega)
    }
}

pub fn merge_fingers(a: &[usize], b: &[usize]) -> Vec<usize> {
    popqc_core::fingers::merge_dedup(a, b)
}

// --- oac ------------------------------------------------------------------

/// The sequential OAC baseline; returns the output and its wall seconds.
pub fn oac(c: &Circuit, oracle: &Oracle, omega: usize) -> (Circuit, f64) {
    // OAC's signature wants a sized oracle; the wrapper forwards.
    struct Forward<'a>(&'a (dyn SegmentOracle<qcir::Gate> + Send + Sync));
    impl SegmentOracle<qcir::Gate> for Forward<'_> {
        fn optimize(&self, units: &[qcir::Gate], n: u32) -> Vec<qcir::Gate> {
            self.0.optimize(units, n)
        }
        fn cost(&self, units: &[qcir::Gate]) -> u64 {
            self.0.cost(units)
        }
    }
    let (out, stats) = with_width(1, || {
        oac::oac_optimize(
            c,
            &Forward(oracle.inner.as_ref()),
            &oac::OacConfig::with_omega(omega),
        )
    });
    (out, stats.total_nanos as f64 / 1e9)
}

// --- qsvc -----------------------------------------------------------------

/// What one finished job looked like from the submitter's side.
pub struct JobView {
    pub result: Arc<qsvc::JobResult>,
}

impl JobView {
    pub fn output(&self) -> &Circuit {
        &self.result.circuit
    }
    pub fn cache_hit(&self) -> bool {
        self.result.cache_hit
    }
    pub fn coalesced(&self) -> bool {
        self.result.coalesced
    }
    pub fn error(&self) -> Option<String> {
        self.result.error.as_ref().map(ToString::to_string)
    }
    pub fn stats(&self) -> EngineStats {
        engine_stats(&self.result.stats, 0)
    }
    pub fn queue_nanos(&self) -> u64 {
        self.result.queue_nanos
    }
    pub fn run_nanos(&self) -> u64 {
        self.result.run_nanos
    }
    /// The `POST /v1/optimize` job document, as JSON text with QASM.
    pub fn encode(&self, job_id: u64) -> String {
        let doc = qsvc::report::job_status(job_id, None, 0, Some(&self.result));
        serde_json::to_string(&doc.to_json()).expect("job document serializes")
    }
}

/// An in-process service over the built-in registry with `default_oracle`
/// as the default, every job pinned to one engine thread.
pub struct Service(qsvc::OptimizationService);

pub fn service(default_oracle: &str, workers: usize, seg_cache_capacity: usize) -> Service {
    let mut registry = qsvc::OracleRegistry::builtin();
    registry
        .set_default(default_oracle)
        .expect("built-in oracle id");
    Service(qsvc::OptimizationService::new(
        registry,
        qsvc::ServiceConfig {
            workers,
            threads_per_job: 1,
            seg_cache_capacity,
            ..qsvc::ServiceConfig::default()
        },
    ))
}

impl Service {
    pub fn submit_wait(&self, c: Circuit, omega: usize) -> JobView {
        let handle = self
            .0
            .submit(c, &popqc_core::PopqcConfig::with_omega(omega));
        JobView {
            result: handle.wait(),
        }
    }
    /// Drops stored results; the segment cache keeps its entries.
    pub fn clear_results(&self) {
        self.0.clear_cache();
    }
    /// `(hits, misses)` of the segment cache since construction.
    pub fn seg_cache_counts(&self) -> (u64, u64) {
        let s = self.0.stats().seg_cache;
        (s.hits, s.misses)
    }
}

/// A result store plus the key/value pair the probes read and write.
pub struct Store(Arc<dyn qsvc::ResultStore>);

pub enum StoreKind<'a> {
    Memory,
    Disk(&'a Path),
    TieredDisk(&'a Path),
    Remote(&'a str),
}

pub fn store(kind: StoreKind<'_>) -> Result<Store, String> {
    use qsvc::StoreTier;
    let (tier, dir, addr) = match kind {
        StoreKind::Memory => (StoreTier::Memory, None, None),
        StoreKind::Disk(d) => (StoreTier::Disk, Some(d), None),
        StoreKind::TieredDisk(d) => (StoreTier::Tiered, Some(d), None),
        StoreKind::Remote(a) => (StoreTier::Remote, None, Some(a)),
    };
    qsvc::build_store(tier, dir, addr, 1024, 16).map(Store)
}

pub struct StoreEntry {
    key: qsvc::JobKey,
    value: Arc<qsvc::CachedRun>,
}

/// The store entry a `rule_based`, Ω=200 job on `input` would write.
pub fn store_entry(input: &Circuit, output: &Circuit) -> StoreEntry {
    StoreEntry {
        key: qsvc::JobKey {
            fingerprint: input.fingerprint(),
            oracle_id: "rule_based".to_string(),
            config: popqc_core::PopqcConfig::with_omega(200),
        },
        value: Arc::new(qsvc::CachedRun {
            circuit: output.clone(),
            stats: popqc_core::PopqcStats {
                initial_units: input.gates.len(),
                final_units: output.gates.len(),
                ..Default::default()
            },
        }),
    }
}

const ORACLE_VERSION: &str = "ledger";

impl Store {
    pub fn put(&self, e: &StoreEntry) {
        self.0.put(&e.key, ORACLE_VERSION, Arc::clone(&e.value));
    }
    pub fn get(&self, e: &StoreEntry) -> bool {
        self.0.get(&e.key, ORACLE_VERSION).is_some()
    }
}

/// A loopback `popqc cached` server over a memory store.
pub struct CacheServer(qsvc::CacheServer);

pub fn cache_server() -> std::io::Result<CacheServer> {
    let Store(backing) = store(StoreKind::Memory).expect("memory store needs no arguments");
    qsvc::CacheServer::serve("127.0.0.1:0", backing, qsvc::CacheServerConfig::default())
        .map(CacheServer)
}

impl CacheServer {
    pub fn addr(&self) -> String {
        self.0.local_addr().to_string()
    }
    pub fn shutdown(mut self) {
        self.0.shutdown();
    }
}

/// A segment cache bound to one oracle, as the engine's hook sees it.
pub struct SegCache {
    layer: qsvc::SegmentCacheLayer,
    oracle: Oracle,
}

pub fn seg_cache(oracle: Oracle, capacity: usize) -> SegCache {
    SegCache {
        layer: qsvc::SegmentCacheLayer::new(capacity, 16),
        oracle,
    }
}

impl SegCache {
    /// Looks `c.gates[start..start + len]` up; on a miss calls the oracle
    /// and records its answer, as the engine does. Returns whether it hit.
    pub fn lookup_or_record(&self, c: &Circuit, start: usize, len: usize) -> bool {
        use popqc_core::SegmentCacheHook;
        let hook = self
            .layer
            .for_job(self.oracle.id, self.oracle.inner.as_ref());
        let end = (start + len).min(c.gates.len());
        let segment = &c.gates[start..end];
        match hook.lookup(segment, c.num_qubits) {
            Some(hit) => {
                std::hint::black_box(hit);
                true
            }
            None => {
                let out = self.oracle.inner.optimize(segment, c.num_qubits);
                hook.record(segment, c.num_qubits, &out);
                false
            }
        }
    }
    pub fn lookup(&self, c: &Circuit, start: usize, len: usize) -> bool {
        use popqc_core::SegmentCacheHook;
        let hook = self
            .layer
            .for_job(self.oracle.id, self.oracle.inner.as_ref());
        let end = (start + len).min(c.gates.len());
        hook.lookup(&c.gates[start..end], c.num_qubits).is_some()
    }
}

// --- qapi -----------------------------------------------------------------

/// The fields of a `POST /v1/optimize` answer the benchmark reads through
/// the typed DTO (the flags and timings it scans from the raw bytes, and
/// the QASM it cuts out before this reader sees the document).
pub struct JobDoc {
    pub input_gates: u64,
    pub output_gates: u64,
    pub error: Option<String>,
}

pub fn decode_job(body: &str) -> Result<JobDoc, String> {
    let value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let status = qapi::JobStatus::from_json(&value).map_err(|e| e.to_string())?;
    let r = status.result.ok_or("job document carries no result")?;
    Ok(JobDoc {
        input_gates: r.input_gates,
        output_gates: r.output_gates,
        error: r.error,
    })
}

/// The server's own time split of one traced request, in nanoseconds.
pub struct TraceDoc {
    pub duration: u64,
    pub queue: u64,
    pub engine: u64,
    pub oracle: u64,
    pub store: u64,
}

pub fn decode_trace(body: &str) -> Result<TraceDoc, String> {
    let value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let t = qapi::TraceReport::from_json(&value).map_err(|e| e.to_string())?;
    Ok(TraceDoc {
        duration: t.duration_nanos,
        queue: t.queue_nanos,
        engine: t.engine_nanos,
        oracle: t.oracle_nanos,
        store: t.store_nanos,
    })
}

// --- qhttp ----------------------------------------------------------------

pub struct HttpRequest(qhttp::Request);
pub struct HttpResponse(qhttp::Response);

/// `RequestParser::advance` over the bytes of one complete request.
pub fn parse_request(bytes: &[u8]) -> Result<HttpRequest, String> {
    let mut parser = qhttp::http::RequestParser::new();
    let mut pos = 0;
    loop {
        let (used, step) = parser.advance(&bytes[pos..]).map_err(|e| e.to_string())?;
        pos += used;
        match step {
            qhttp::http::ParseStep::Done(req) => return Ok(HttpRequest(req)),
            qhttp::http::ParseStep::NeedMore => return Err("incomplete request".to_string()),
            qhttp::http::ParseStep::HeadersDone | qhttp::http::ParseStep::Interim(_) => {}
        }
    }
}

impl HttpRequest {
    pub fn body_utf8(&self) -> &str {
        self.0.body_utf8().expect("benchmark bodies are UTF-8")
    }
}

impl HttpResponse {
    pub fn status(&self) -> u16 {
        self.0.status
    }
    pub fn body_utf8(&self) -> &str {
        std::str::from_utf8(&self.0.body).expect("API bodies are UTF-8")
    }
    /// `Response::write_to` into a fresh buffer.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.0.body.len() + 256);
        self.0
            .write_to(&mut out, true)
            .expect("writing to a Vec cannot fail");
        out
    }
}

/// The v1 API over an in-process service: `Handler::handle` without a socket.
pub struct HttpApp(qhttp::AppState);

pub fn http_app(svc: Service, default_omega: usize) -> HttpApp {
    HttpApp(qhttp::AppState::new(svc.0, default_omega))
}

impl HttpApp {
    pub fn handle(&self, req: &HttpRequest) -> HttpResponse {
        HttpResponse(self.0.handle(&req.0))
    }
    /// Submits straight to the service behind the API.
    pub fn submit_wait(&self, c: Circuit, omega: usize) -> JobView {
        let handle = self
            .0
            .service()
            .submit(c, &popqc_core::PopqcConfig::with_omega(omega));
        JobView {
            result: handle.wait(),
        }
    }
}
