//! The four workloads. Each one sets up (several times, so `setup_s` is
//! a median), drives a closed loop for the run's seconds with `nproc`
//! load-generating threads, then checks every output outside the timed
//! region. What comes back is an [`Outcome`]: raw per-op samples
//! that `report.rs` turns into the named metrics.

use crate::checks::{Budget, Checker, Golden};
use crate::corpus::{self, Instance, Scale, OMEGA};
use crate::http::{self, Client};
use crate::layers::{self, Circuit};
use crate::proc::{self, Server};
use crate::spec;
use crate::trace::Recorder;
use crate::worker::{OptReply, SweepJob, Worker};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// How many times to set up (the last one is measured on).
    pub setups: usize,
    /// Load-generating threads and connections; also the width the
    /// engine's parallel probes run at.
    pub nproc: usize,
    /// `popqc`, built from this checkout (serving workloads only).
    pub popqc: Option<PathBuf>,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One operation as the client saw it.
#[derive(Clone, Debug)]
pub struct Op {
    /// Index into the workload's instance list.
    pub instance: usize,
    pub pass: usize,
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub in_gates: usize,
    pub ok: bool,
}

impl Op {
    pub fn millis(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The server's own view of one `?trace=1` request.
pub struct ServerSplit {
    pub op: usize,
    pub trace: layers::TraceDoc,
    /// `queue_seconds` and `run_seconds` of the same request's job
    /// document: the service's account beside the tracer's.
    pub queue_s: f64,
    pub run_s: f64,
}

#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub ops: Vec<Op>,
    /// Timed wall seconds of each pass (or slice of a continuous run).
    pub pass_wall_s: Vec<f64>,
    /// CPU seconds of the process(es) under test over the timed region.
    pub cpu_s: f64,
    /// `VmHWM` of each process under test.
    pub peak_rss_mb: Vec<f64>,
    /// `instance -> (input gates, output gates)`, from any successful op.
    pub distinct: HashMap<usize, (usize, usize)>,
    pub failures: Vec<String>,
    pub checks: CheckSummary,
    /// Children that died during an op.
    pub crashes: usize,
    // --- what only traced runs and probes read ---
    /// `(index into ops, the child's reply)` of every answered engine op.
    pub engine: Vec<(usize, OptReply)>,
    pub splits: Vec<ServerSplit>,
    pub sweep_jobs: Vec<SweepJob>,
    pub seg_cache: (u64, u64),
}

#[derive(Default, Clone, Copy)]
pub struct CheckSummary {
    pub golden_matched: usize,
    pub equivalence: usize,
    pub windows: usize,
    /// Sampled Ω-windows of outputs the oracle could still improve.
    pub improvable: usize,
}

impl CheckSummary {
    fn of(checker: &Checker) -> CheckSummary {
        CheckSummary {
            golden_matched: checker.golden_matched,
            equivalence: checker.equivalence_checked,
            windows: checker.windows_checked,
            improvable: checker.windows_improvable,
        }
    }

    /// From the child's `summary` reply.
    fn parse(reply: &str) -> Option<CheckSummary> {
        let n: Vec<usize> = reply
            .split_whitespace()
            .skip(1)
            .filter_map(|s| s.parse().ok())
            .collect();
        match n[..] {
            [golden_matched, equivalence, windows, improvable] => Some(CheckSummary {
                golden_matched,
                equivalence,
                windows,
                improvable,
            }),
            _ => None,
        }
    }
}

impl Outcome {
    fn fail_instance(&mut self, instance: usize, why: String) {
        for op in self.ops.iter_mut().filter(|o| o.instance == instance) {
            op.ok = false;
        }
        self.distinct.remove(&instance);
        self.failures.push(why);
    }

    pub fn attempted(&self) -> usize {
        self.ops.len()
    }

    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|o| !o.ok).count()
    }
}

// ---------------------------------------------------------------------------
// engine-large (and the engine probe of the traced run)
// ---------------------------------------------------------------------------

/// A worker that has answered `requests`. Set-up runs no parallel code,
/// so a child that dies here was killed from outside; try again rather
/// than lose the run.
fn primed_worker(requests: &[String]) -> Result<Worker, String> {
    for _ in 0..3 {
        let mut worker = Worker::spawn()?;
        if requests.iter().all(|r| worker.request(r).is_ok()) {
            return Ok(worker);
        }
    }
    Err("workers died three times in a row during set-up".to_string())
}

/// Runs `make` `cfg.setups` times, timing each into `out.setup_s`, and
/// keeps the last result to measure on (earlier ones are torn down first).
fn set_up<T>(
    cfg: &RunCfg,
    out: &mut Outcome,
    mut make: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..cfg.setups.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(make()?);
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    Ok(last.expect("at least one set-up ran"))
}

/// Has the child check the output it holds for every instance that
/// produced one, and fetches its tally.
fn check_in_child(
    worker: &mut Worker,
    out: &mut Outcome,
    instances: &[Instance],
    oracle_id: &str,
) -> Result<(), String> {
    for (i, inst) in instances.iter().enumerate() {
        if !out.distinct.contains_key(&i) {
            continue;
        }
        let reply = worker
            .request(&format!("check {} {oracle_id}", inst.key()))
            .map_err(|_| "worker died checking an output".to_string())?;
        if let Some(message) = reply.strip_prefix("checked 0 ") {
            out.fail_instance(i, message.to_string());
        }
    }
    let summary = worker.request("summary").ok();
    out.checks = summary
        .and_then(|r| CheckSummary::parse(&r))
        .unwrap_or_default();
    Ok(())
}

fn engine_worker(instances: &[Instance], seed: u64) -> Result<Worker, String> {
    let requests: Vec<String> = std::iter::once(format!("begin {seed} {}", instances.len()))
        .chain(instances.iter().map(|inst| format!("gen {}", inst.key())))
        .collect();
    primed_worker(&requests)
}

/// One child, one circuit per op through `optimize_circuit` at `width`,
/// whole passes over `instances` until `cfg.seconds` of op time is spent.
pub fn engine(
    cfg: &RunCfg,
    instances: &[Instance],
    width: usize,
    rec: Option<&Recorder>,
) -> Result<Outcome, String> {
    let oracle = layers::rule_based();
    let mut out = Outcome::default();
    let mut worker = set_up(cfg, &mut out, || engine_worker(instances, cfg.seed))?;
    let epoch = rec.map_or_else(Instant::now, Recorder::epoch);
    let mut first: HashMap<usize, (usize, u128)> = HashMap::new();
    let mut spent = 0.0;
    let mut pass = 0;
    while spent < cfg.seconds {
        if pass > 0 {
            // A fresh child per pass, outside the timed region: every
            // pass meets the same allocator state, and `peak_rss_mb` is a
            // median over children rather than one child's reading.
            worker = engine_worker(instances, cfg.seed)?;
        }
        let mut pass_wall = 0.0;
        for (i, inst) in instances.iter().enumerate() {
            let k = out.ops.len();
            let cpu0 = proc::cpu_seconds(worker.pid());
            let t0 = epoch.elapsed().as_nanos() as u64;
            let reply = worker.request(&format!(
                "opt {} {} {width} {}",
                inst.key(),
                oracle.id,
                cfg.nproc
            ));
            let t1 = epoch.elapsed().as_nanos() as u64;
            pass_wall += (t1 - t0) as f64 / 1e9;
            let mut op = Op {
                instance: i,
                pass,
                lane: 0,
                start_ns: t0,
                end_ns: t1,
                in_gates: 0,
                ok: false,
            };
            match reply.map(|r| OptReply::parse(&r)) {
                Ok(Some(r)) => {
                    out.cpu_s += proc::cpu_since(worker.pid(), cpu0);
                    op.in_gates = r.in_gates;
                    let seen = *first.entry(i).or_insert((r.out_gates, r.out_fp));
                    if seen == (r.out_gates, r.out_fp) {
                        op.ok = true;
                        out.distinct.insert(i, (r.in_gates, r.out_gates));
                    } else {
                        out.failures.push(format!(
                            "{}: output changed between passes ({} then {} gates)",
                            inst.key(),
                            seen.0,
                            r.out_gates
                        ));
                    }
                    if let Some(rec) = rec {
                        // The child's own clock, laid inside the op span.
                        let root = rec.record("engine.op", 0, k as u64, 0, t0, t1);
                        let e0 = t1.saturating_sub(r.stats.total_nanos).max(t0);
                        let e = rec.record("core.engine.optimize", root, k as u64, 0, e0, t1);
                        let o = r.stats.oracle_nanos.min(t1 - e0);
                        rec.record("qoracle.optimize", e, k as u64, 0, e0, e0 + o);
                    }
                    out.engine.push((k, r));
                }
                Ok(None) => return Err("worker sent a malformed opt reply".to_string()),
                Err(_) => {
                    // The child died mid-op: a failed op (not a wrong
                    // output), never a dead run.
                    out.crashes += 1;
                    worker = engine_worker(instances, cfg.seed)?;
                }
            }
            out.ops.push(op);
        }
        out.peak_rss_mb.extend(proc::peak_rss_mb(worker.pid()));
        out.pass_wall_s.push(pass_wall);
        spent += pass_wall;
        pass += 1;
    }
    // The last pass's child still holds every output.
    check_in_child(&mut worker, &mut out, instances, oracle.id)?;
    Ok(out)
}

pub fn engine_large(cfg: &RunCfg, rec: Option<&Recorder>) -> Result<Outcome, String> {
    // Width 1: at any wider setting the seed's executor kills about one
    // op in fifty (see README.md), and a workload must not fail ops.
    engine(cfg, &corpus::engine_large(cfg.seed, cfg.scale), 1, rec)
}

// ---------------------------------------------------------------------------
// serving workloads
// ---------------------------------------------------------------------------

/// A circuit ready to POST.
pub struct Prepared {
    pub inst: Instance,
    pub input: Circuit,
    pub qasm: Vec<u8>,
}

/// Generates and QASM-encodes `instances`, dropping fingerprint
/// duplicates of one another and of `already_sent` (a duplicate would be
/// answered from the store; some families barely depend on their seed).
fn prepare(instances: &[Instance], already_sent: &[Prepared]) -> Vec<Prepared> {
    let circuits = instances.iter().map(Instance::generate);
    let mut seen: std::collections::HashSet<u128> = already_sent
        .iter()
        .map(|p| layers::fingerprint(&p.input))
        .collect();
    instances
        .iter()
        .zip(circuits)
        .filter(|(_, c)| seen.insert(layers::fingerprint(c)))
        .map(|(inst, input)| Prepared {
            inst: inst.clone(),
            qasm: layers::to_qasm(&input).into_bytes(),
            input,
        })
        .collect()
}

const OPTIMIZE: &str = "/v1/optimize?omega=200";
const OPTIMIZE_TRACED: &str = "/v1/optimize?omega=200&trace=1";

/// A server with open keep-alive connections, one per client thread.
struct Serving {
    server: Server,
    clients: Vec<Client>,
}

fn serving(cfg: &RunCfg, connections: usize) -> Result<Serving, String> {
    let bin = cfg
        .popqc
        .as_deref()
        .ok_or("serving workloads need the popqc binary")?;
    let server = Server::spawn(bin)?;
    let clients = (0..connections.max(1))
        .map(|_| Client::connect(&server.addr).map_err(|e| format!("cannot connect: {e}")))
        .collect::<Result<_, _>>()?;
    Ok(Serving { server, clients })
}

/// Reads a `"name":value` number out of the head of a job document
/// without parsing the (QASM-sized) rest.
fn scan_number(body: &[u8], name: &str) -> Option<f64> {
    let head = &body[..body.len().min(1024)];
    let at = http::find(head, name.as_bytes())? + name.len();
    let rest = &head[at..];
    let end = rest.iter().position(|b| matches!(b, b',' | b'}'))?;
    std::str::from_utf8(&rest[..end]).ok()?.trim().parse().ok()
}

fn scan_flag(body: &[u8], name_true: &str) -> bool {
    http::find(&body[..body.len().min(1024)], name_true.as_bytes()).is_some()
}

/// The optimized QASM inside a job document, as raw (escaped) bytes.
fn qasm_tail(body: &[u8]) -> &[u8] {
    http::find(body, b"\"qasm\":").map_or(&[], |at| &body[at..])
}

/// Cuts the optimized QASM out of a job document: returns the document
/// without its `qasm` member (still JSON, small enough for the workspace's
/// JSON reader, whose string parsing is quadratic) and the unescaped QASM.
fn split_qasm(body: &str) -> Option<(String, String)> {
    const MEMBER: &str = ",\"qasm\":\"";
    let at = body.find(MEMBER)?;
    let mut qasm = String::with_capacity(body.len() - at);
    let mut chars = body[at + MEMBER.len()..].char_indices();
    while let Some((k, c)) = chars.next() {
        match c {
            '"' => {
                let rest = format!("{}{}", &body[..at], &body[at + MEMBER.len() + k + 1..]);
                return Some((rest, qasm));
            }
            '\\' => match chars.next()?.1 {
                'n' => qasm.push('\n'),
                't' => qasm.push('\t'),
                'r' => qasm.push('\r'),
                'u' => return None,
                other => qasm.push(other),
            },
            other => qasm.push(other),
        }
    }
    None
}

struct Answer {
    op: Op,
    status: u16,
    body: Vec<u8>,
    trace_id: Option<String>,
    /// The server's own account of the request, when it was fetched.
    trace: Option<layers::TraceDoc>,
}

/// The request target: traced passes ask the server to keep its trace.
fn optimize_target(rec: Option<&Recorder>) -> &'static str {
    if rec.is_some() {
        OPTIMIZE_TRACED
    } else {
        OPTIMIZE
    }
}

fn post(
    client: &mut Client,
    target: &str,
    item: &Prepared,
    instance: usize,
    pass: usize,
    lane: u32,
    epoch: Instant,
) -> Answer {
    let t0 = epoch.elapsed().as_nanos() as u64;
    let reply = client.post(target, &item.qasm);
    let t1 = epoch.elapsed().as_nanos() as u64;
    let op = Op {
        instance,
        pass,
        lane,
        start_ns: t0,
        end_ns: t1,
        in_gates: layers::gates(&item.input),
        ok: false,
    };
    match reply {
        Ok(r) => Answer {
            op,
            status: r.status,
            trace_id: r.header("x-popqc-trace-id").map(str::to_string),
            body: r.body,
            trace: None,
        },
        Err(_) => Answer {
            op,
            status: 0,
            body: Vec::new(),
            trace_id: None,
            trace: None,
        },
    }
}

/// Fetches the server's own trace of a `?trace=1` request. The evented
/// frontend finishes a trace after the response is flushed, so the first
/// look can be early.
fn fetch_trace(client: &mut Client, id: &str) -> Option<layers::TraceDoc> {
    for _ in 0..5 {
        let reply = client.get(&format!("/v1/traces/{id}")).ok()?;
        if reply.status == 200 {
            return layers::decode_trace(std::str::from_utf8(&reply.body).ok()?).ok();
        }
    }
    None
}

/// Verifies the answers of a serving workload: the first answer per
/// instance is decoded and checked in full, later ones must carry the
/// same optimized QASM byte for byte.
fn verify_answers(
    out: &mut Outcome,
    corpus: &[Prepared],
    answers: Vec<Answer>,
    want_cache_hit: bool,
    checker: &mut Checker,
    first_bodies: &mut HashMap<usize, Vec<u8>>,
) {
    let oracle = layers::rule_based();
    for mut a in answers {
        let i = a.op.instance;
        let seconds = |name| scan_number(&a.body, name).unwrap_or(0.0);
        let (queue_s, run_s) = (seconds("\"queue_seconds\":"), seconds("\"run_seconds\":"));
        let flags_ok = a.status == 200
            && scan_flag(&a.body, "\"cache_hit\":true") == want_cache_hit
            && scan_flag(&a.body, "\"coalesced\":false");
        if !flags_ok {
            out.failures.push(format!(
                "{}: status {} or wrong cache_hit/coalesced (wanted cache_hit={want_cache_hit})",
                corpus[i].inst.key(),
                a.status
            ));
        } else if let Some(first) = first_bodies.get(&i) {
            a.op.ok = qasm_tail(first) == qasm_tail(&a.body);
            if !a.op.ok {
                out.failures.push(format!(
                    "{}: optimized QASM changed between answers",
                    corpus[i].inst.key()
                ));
            }
        } else {
            let checked = std::str::from_utf8(&a.body)
                .map_err(|e| e.to_string())
                .and_then(|body| split_qasm(body).ok_or("no QASM in the answer".to_string()))
                .and_then(|(rest, qasm)| {
                    let doc = layers::decode_job(&rest)?;
                    if let Some(e) = doc.error {
                        return Err(e);
                    }
                    let output = layers::parse_qasm(&qasm)?;
                    let consistent = doc.input_gates as usize == layers::gates(&corpus[i].input)
                        && doc.output_gates as usize == layers::gates(&output);
                    if !consistent {
                        return Err(
                            "gate counts in the document disagree with the circuits".to_string()
                        );
                    }
                    Ok(output)
                });
            match checked {
                Ok(output) => {
                    a.op.ok = checker.check(&oracle, &corpus[i].inst, &corpus[i].input, &output);
                    if a.op.ok {
                        out.distinct
                            .insert(i, (layers::gates(&corpus[i].input), layers::gates(&output)));
                    } else if let Some(f) = checker.failures.last() {
                        out.failures.push(f.clone());
                    }
                }
                Err(e) => out.failures.push(format!("{}: {e}", corpus[i].inst.key())),
            }
            if a.op.ok {
                first_bodies.insert(i, std::mem::take(&mut a.body));
            }
        }
        if let Some(trace) = a.trace {
            out.splits.push(ServerSplit {
                op: out.ops.len(),
                trace,
                queue_s,
                run_s,
            });
        }
        out.ops.push(a.op);
    }
    out.checks = CheckSummary::of(checker);
}

fn record_request_spans(rec: &Recorder, out: &Outcome, first_op: usize) {
    for (k, op) in out.ops.iter().enumerate().skip(first_op) {
        let root = rec.record(
            "client.request",
            0,
            k as u64,
            op.lane,
            op.start_ns,
            op.end_ns,
        );
        // The server's own split of this request, laid out back to back
        // inside the client span (its clock is not ours).
        if let Some(s) = out.splits.iter().find(|s| s.op == k) {
            let t = &s.trace;
            let mut at = op.start_ns;
            for (name, ns) in [
                ("qobs.queue", t.queue),
                ("qobs.engine", t.engine),
                ("qobs.store", t.store),
            ] {
                let end = (at + ns).min(op.end_ns);
                let id = rec.record(name, root, k as u64, op.lane, at, end);
                if name == "qobs.engine" {
                    rec.record(
                        "qobs.oracle",
                        id,
                        k as u64,
                        op.lane,
                        at,
                        (at + t.oracle).min(end),
                    );
                }
                at = end;
            }
        }
    }
}

/// serve-cold: every circuit of the corpus POSTed once to a fresh
/// server per pass, whole passes until `cfg.seconds` are spent.
pub fn serve_cold(cfg: &RunCfg, rec: Option<&Recorder>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let instances = corpus::serve_cold(cfg.seed, cfg.scale);
    let warmup_instances = corpus::serve_warmup(cfg.seed);
    let (corpus, warmup, serving) = set_up(cfg, &mut out, || {
        let warmup = prepare(&warmup_instances, &[]);
        let corpus = prepare(&instances, &warmup);
        let serving = cold_server(cfg, &warmup)?;
        Ok((corpus, warmup, serving))
    })?;
    let mut serving = Some(serving);
    let target = optimize_target(rec);
    let epoch = rec.map_or_else(Instant::now, Recorder::epoch);
    let mut checker = Checker::new(
        Golden::load().unwrap_or_default(),
        Budget::RUN,
        corpus.len(),
        cfg.seed,
    );
    let mut first_bodies = HashMap::new();
    let mut spent = 0.0;
    let mut pass = 0;
    while spent < cfg.seconds {
        let Serving {
            server,
            mut clients,
        } = match serving.take() {
            Some(s) => s,
            None => cold_server(cfg, &warmup)?,
        };
        let cpu0 = proc::cpu_seconds(server.pid());
        let cursor = AtomicUsize::new(0);
        let answers = Mutex::new(Vec::new());
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for (lane, client) in clients.iter_mut().enumerate() {
                let (corpus, cursor, answers) = (&corpus, &cursor, &answers);
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::SeqCst);
                    if i >= corpus.len() {
                        break;
                    }
                    let mut a = post(client, target, &corpus[i], i, pass, lane as u32, epoch);
                    // One traced request in four, drawn by a seeded hash so
                    // that every shape and size is among them, also reads
                    // the server's own account of it.
                    if trace_sampled(cfg.seed, pass, i) {
                        a.trace = a.trace_id.as_deref().and_then(|id| fetch_trace(client, id));
                    }
                    answers.lock().expect("a client panicked").push(a);
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        out.cpu_s += proc::cpu_since(server.pid(), cpu0);
        out.peak_rss_mb.extend(proc::peak_rss_mb(server.pid()));
        drop(clients);
        drop(server);
        let first_op = out.ops.len();
        let mut answers = answers.into_inner().expect("a client panicked");
        answers.sort_by_key(|a| a.op.start_ns);
        verify_answers(
            &mut out,
            &corpus,
            answers,
            false,
            &mut checker,
            &mut first_bodies,
        );
        if let Some(rec) = rec {
            record_request_spans(rec, &out, first_op);
        }
        out.pass_wall_s.push(wall);
        spent += wall;
        pass += 1;
    }
    Ok(out)
}

fn trace_sampled(seed: u64, pass: usize, i: usize) -> bool {
    corpus::Rng::new(seed, &format!("trace-sample-{pass}-{i}")).below(4) == 0
}

/// A fresh server that has answered its untimed warm-up requests.
fn cold_server(cfg: &RunCfg, warmup: &[Prepared]) -> Result<Serving, String> {
    let mut serving = serving(cfg, cfg.nproc)?;
    for (k, item) in warmup.iter().enumerate() {
        let n = serving.clients.len();
        let reply = serving.clients[k % n]
            .post(OPTIMIZE, &item.qasm)
            .map_err(|e| format!("warm-up request failed: {e}"))?;
        if reply.status != 200 {
            return Err(format!("warm-up request answered {}", reply.status));
        }
    }
    Ok(serving)
}

/// serve-warm's clients wait this long between an answer and their next
/// request: a LAN round trip. Without it the run is bistable. A client
/// the scheduler happens to place on the connection loop's core sends its
/// next request before the loop has swept again, and is served without
/// parking (p50 4 to 5 ms); a client on the other core meets a parked
/// loop (p50 near 9 ms); the placement changes every few seconds, and no
/// statistic of such a run repeats. With the pause every request meets a
/// parked loop, as a request from another machine would.
pub const WARM_THINK: Duration = Duration::from_micros(500);

/// A continuous run is cut into this many equal slices; rates are the
/// median over slices, as they are the median over passes elsewhere.
pub const SLICES: usize = 10;

/// serve-warm: the stored circuits POSTed again and again for
/// `cfg.seconds`; every answer must say `cache_hit=true` and carry the
/// optimized QASM the pre-load answer carried. Also returns the corpus,
/// for the in-process replay of a traced run.
pub fn serve_warm(
    cfg: &RunCfg,
    connections: usize,
    rec: Option<&Recorder>,
) -> Result<(Outcome, Vec<Prepared>), String> {
    let mut out = Outcome::default();
    let instances = corpus::serve_warm(cfg.seed, cfg.scale);
    let (corpus, serving, preload) = set_up(cfg, &mut out, || {
        let corpus = prepare(&instances, &[]);
        let mut serving = serving(cfg, connections)?;
        // Pre-load: one cold request per circuit.
        let epoch = Instant::now();
        let preload: Vec<Answer> = corpus
            .iter()
            .enumerate()
            .map(|(i, item)| post(&mut serving.clients[0], OPTIMIZE, item, i, 0, 0, epoch))
            .collect();
        Ok((corpus, serving, preload))
    })?;
    let Serving {
        server,
        mut clients,
    } = serving;
    // The pre-load answers are the reference outputs: checked like ops,
    // but not ops.
    let mut checker = Checker::new(
        Golden::load().unwrap_or_default(),
        Budget::RUN,
        corpus.len(),
        cfg.seed,
    );
    let mut reference = HashMap::new();
    let mut preload_out = Outcome::default();
    verify_answers(
        &mut preload_out,
        &corpus,
        preload,
        false,
        &mut checker,
        &mut reference,
    );
    if !preload_out.failures.is_empty() {
        return Err(format!(
            "pre-load failed: {}",
            preload_out.failures.join("; ")
        ));
    }
    out.distinct = preload_out.distinct;
    out.checks = preload_out.checks;

    let target = optimize_target(rec);
    let epoch = rec.map_or_else(Instant::now, Recorder::epoch);
    let cpu0 = proc::cpu_seconds(server.pid());
    let ops = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let lanes = clients.len();
    std::thread::scope(|scope| {
        for (lane, client) in clients.iter_mut().enumerate() {
            let (corpus, ops, reference) = (&corpus, &ops, &reference);
            scope.spawn(move || {
                let mut mine = Vec::new();
                // Lanes start spread over the corpus so they do not march
                // in step.
                let mut i = lane * corpus.len() / lanes;
                while t0.elapsed().as_secs_f64() < cfg.seconds {
                    let a = post(client, target, &corpus[i], i, 0, lane as u32, epoch);
                    let mut op = a.op;
                    op.ok = a.status == 200
                        && scan_flag(&a.body, "\"cache_hit\":true")
                        && qasm_tail(&a.body) == qasm_tail(&reference[&i]);
                    let slice = t0.elapsed().as_secs_f64() / cfg.seconds * SLICES as f64;
                    op.pass = (slice as usize).min(SLICES - 1);
                    mine.push(op);
                    i = (i + 1) % corpus.len();
                    std::thread::sleep(WARM_THINK);
                }
                ops.lock().expect("a client panicked").extend(mine);
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    out.cpu_s += proc::cpu_since(server.pid(), cpu0);
    out.peak_rss_mb.extend(proc::peak_rss_mb(server.pid()));
    drop(clients);
    drop(server);
    out.ops = ops.into_inner().expect("a client panicked");
    out.ops.sort_by_key(|op| op.start_ns);
    for op in out.ops.iter().filter(|op| !op.ok) {
        out.failures.push(format!(
            "{}: not a 200 cache hit carrying the pre-load answer's QASM",
            corpus[op.instance].inst.key()
        ));
    }
    out.pass_wall_s = vec![wall / SLICES as f64; SLICES];
    if let Some(rec) = rec {
        record_request_spans(rec, &out, 0);
    }
    Ok((out, corpus))
}

/// What replaying warm requests in process costs, stage by stage
/// (medians, in nanoseconds): the same request without a socket or a
/// connection loop.
#[derive(Default, Clone, Copy, Debug)]
pub struct Replay {
    pub http_parse: f64,
    pub handle: f64,
    pub serialize: f64,
    /// Stages inside `handle`, measured on their own.
    pub qasm_parse: f64,
    pub fingerprint: f64,
    pub service_hit: f64,
    pub encode: f64,
}

/// Replays warm requests against an in-process `AppState`, one span per
/// stage: `RequestParser` → `Handler::handle` → `Response::write_to`,
/// and under `handle` the stages it is made of, each timed on its own.
pub fn replay_warm(corpus: &[Prepared], rec: &Recorder, rounds: usize) -> Result<Replay, String> {
    let app = layers::http_app(layers::service("rule_based", 1, 4096), OMEGA);
    for item in corpus {
        if let Some(e) = app.submit_wait(item.input.clone(), OMEGA).error() {
            return Err(format!("in-process pre-load failed: {e}"));
        }
    }
    let mut stages: [Vec<f64>; 7] = Default::default();
    for round in 0..rounds {
        for (i, item) in corpus.iter().enumerate() {
            let op = (1_000_000 + round * corpus.len() + i) as u64;
            let bytes = http::post_bytes(OPTIMIZE, &item.qasm);
            let t0 = rec.now();
            let req = layers::parse_request(&bytes)?;
            let t1 = rec.now();
            let resp = app.handle(&req);
            let t2 = rec.now();
            let wire = resp.serialize();
            let t3 = rec.now();
            std::hint::black_box(wire);
            if resp.status() != 200 {
                return Err(format!("in-process replay answered {}", resp.status()));
            }
            let root = rec.record("replay.request", 0, op, 0, t0, t3);
            rec.record("qhttp.http.parse", root, op, 0, t0, t1);
            let handle = rec.record("qhttp.api.handle", root, op, 0, t1, t2);
            rec.record("qhttp.http.serialize", root, op, 0, t2, t3);
            // What `handle` is made of, timed apart and laid back to back
            // inside its span.
            let a0 = rec.now();
            let circuit = layers::parse_qasm(req.body_utf8())?;
            let a1 = rec.now();
            std::hint::black_box(layers::fingerprint(&circuit));
            let a2 = rec.now();
            let job = app.submit_wait(circuit, OMEGA);
            let a3 = rec.now();
            std::hint::black_box(job.encode(op));
            let a4 = rec.now();
            let inner = [a1 - a0, a2 - a1, a3 - a2, a4 - a3];
            let mut at = t1;
            for (name, ns) in [
                "qcir.qasm.parse",
                "qcir.fingerprint",
                "qsvc.service.hit",
                "qapi.job_encode",
            ]
            .into_iter()
            .zip(inner)
            {
                let end = (at + ns).min(t2);
                rec.record(name, handle, op, 0, at, end);
                at = end;
            }
            let outer = [t1 - t0, t2 - t1, t3 - t2];
            for (stage, ns) in stages.iter_mut().zip(outer.into_iter().chain(inner)) {
                stage.push(ns as f64);
            }
        }
    }
    let m = |slot: usize| crate::stats::median(&stages[slot]);
    Ok(Replay {
        http_parse: m(0),
        handle: m(1),
        serialize: m(2),
        qasm_parse: m(3),
        fingerprint: m(4),
        service_hit: m(5),
        encode: m(6),
    })
}

// ---------------------------------------------------------------------------
// sweep-segcache
// ---------------------------------------------------------------------------

const SEG_CACHE_CAPACITY: usize = 4096;

fn sweep_worker(cfg: &RunCfg, sweep: &corpus::Sweep) -> Result<Worker, String> {
    let mut requests = vec![
        format!("begin {} {}", cfg.seed, sweep.pool.len()),
        format!("service structural {} {SEG_CACHE_CAPACITY}", cfg.nproc),
    ];
    for (instances, then) in [(&sweep.warm, "warm"), (&sweep.pool, "pool")] {
        for inst in instances {
            requests.push(format!("gen {}", inst.key()));
            requests.push(format!("{then} {}", inst.key()));
        }
    }
    primed_worker(&requests)
}

/// sweep-segcache: `nproc` submitters inside the child resubmit one
/// skeleton with fresh angles; every job must miss the store, issue no
/// oracle call and be served by the segment cache.
pub fn sweep_segcache(cfg: &RunCfg, rec: Option<&Recorder>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let sweep = corpus::sweep_segcache(cfg.seed, cfg.scale);
    let mut worker = set_up(cfg, &mut out, || sweep_worker(cfg, &sweep))?;
    // The child's clock starts when the sweep does.
    let offset = rec.map_or(0, Recorder::now);
    let cpu0 = proc::cpu_seconds(worker.pid());
    let lines = worker
        .request_lines(&format!("sweep {} {}", cfg.seconds, cfg.nproc), "swept")
        .map_err(|_| "worker died during the sweep".to_string())?;
    out.cpu_s += proc::cpu_since(worker.pid(), cpu0);
    out.peak_rss_mb.extend(proc::peak_rss_mb(worker.pid()));
    let jobs: Vec<SweepJob> = lines.iter().filter_map(|l| SweepJob::parse(l)).collect();
    if jobs.len() + 1 != lines.len() {
        return Err("worker sent a malformed sweep reply".to_string());
    }
    let mut first: HashMap<usize, (usize, u128)> = HashMap::new();
    let passes = jobs.iter().map(|j| j.pass).max().map_or(0, |p| p + 1);
    let mut pass_span = vec![(u64::MAX, 0u64); passes];
    for (k, j) in jobs.iter().enumerate() {
        let seen = *first.entry(j.pool_index).or_insert((j.out_gates, j.out_fp));
        let served_by_segcache =
            !j.cache_hit && !j.errored && j.oracle_calls == 0 && j.seg_hits > 0;
        let ok = served_by_segcache && seen == (j.out_gates, j.out_fp);
        if !ok {
            out.failures.push(format!(
                "{}: cache_hit={} oracle_calls={} seg_hits={} errored={} (wanted a store miss served by the segment cache, same output every time)",
                sweep.pool[j.pool_index].key(), j.cache_hit, j.oracle_calls, j.seg_hits, j.errored
            ));
        } else {
            out.distinct.insert(j.pool_index, (j.in_gates, j.out_gates));
        }
        let span = &mut pass_span[j.pass];
        *span = (span.0.min(j.start_ns), span.1.max(j.end_ns));
        out.ops.push(Op {
            instance: j.pool_index,
            pass: j.pass,
            lane: j.lane,
            start_ns: j.start_ns + offset,
            end_ns: j.end_ns + offset,
            in_gates: j.in_gates,
            ok,
        });
        if let Some(rec) = rec {
            // The child's own accounting of the job, laid inside it.
            let (t0, t1) = (j.start_ns + offset, j.end_ns + offset);
            let root = rec.record("qsvc.service.job", 0, k as u64, j.lane, t0, t1);
            let r0 = (t0 + j.queue_ns).min(t1);
            rec.record("qsvc.service.queue", root, k as u64, j.lane, t0, r0);
            let run = rec.record(
                "qsvc.service.run",
                root,
                k as u64,
                j.lane,
                r0,
                (r0 + j.run_ns).min(t1),
            );
            rec.record(
                "core.engine.optimize",
                run,
                k as u64,
                j.lane,
                r0,
                (r0 + j.engine_ns).min(t1),
            );
        }
    }
    out.pass_wall_s = pass_span
        .iter()
        .map(|&(a, b)| b.saturating_sub(a) as f64 / 1e9)
        .collect();
    // Output checks in the child, which kept every instance's output.
    check_in_child(&mut worker, &mut out, &sweep.pool, layers::structural().id)?;
    if let Ok(reply) = worker.request("segstats") {
        let n: Vec<u64> = reply
            .split_whitespace()
            .skip(1)
            .filter_map(|s| s.parse().ok())
            .collect();
        if let [hits, misses] = n[..] {
            out.seg_cache = (hits, misses);
        }
    }
    out.sweep_jobs = jobs;
    Ok(out)
}

/// Runs the named workload.
pub fn run(name: &str, cfg: &RunCfg, rec: Option<&Recorder>) -> Result<Outcome, String> {
    match name {
        spec::ENGINE_LARGE => engine_large(cfg, rec),
        spec::SERVE_COLD => serve_cold(cfg, rec),
        spec::SERVE_WARM => serve_warm(cfg, cfg.nproc, rec).map(|(out, _)| out),
        spec::SWEEP_SEGCACHE => sweep_segcache(cfg, rec),
        other => Err(format!("unknown workload `{other}`")),
    }
}
