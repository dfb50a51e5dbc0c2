//! `ledger worker`: the child process library workloads run in, and the
//! parent's handle to it.
//!
//! Isolation is forced by the seed: `optimize_circuit` under a `qexec`
//! width above 1 dies now and then (SIGSEGV, or `latch lock poisoned`),
//! so code under test never shares a process with the benchmark. A dead
//! child is a failed operation — the parent sees EOF on the pipe, counts
//! the op as failed, respawns outside the timed region and carries on.
//!
//! The protocol is one text line per request and per reply over the
//! child's stdin/stdout; see [`serve`] for the commands.

use crate::checks::{Budget, Checker, Golden};
use crate::corpus::{Instance, OMEGA};
use crate::layers::{self, Circuit, Oracle};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

// --- parent side ------------------------------------------------------------

/// The child died (or closed its pipe) instead of answering.
#[derive(Debug)]
pub struct Died;

pub struct Worker {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Worker {
    pub fn spawn() -> Result<Worker, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let mut child = Command::new(exe)
            .arg("worker")
            .env_remove("POPQC_NUM_THREADS")
            .env_remove("POPQC_GRAIN")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            // Crash noise (`latch lock poisoned`, …) is expected at the
            // seed and already counted; keep it off the report.
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn worker: {e}"))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Worker {
            child,
            stdin,
            stdout,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn send(&mut self, line: &str) -> Result<(), Died> {
        writeln!(self.stdin, "{line}")
            .and_then(|()| self.stdin.flush())
            .map_err(|_| Died)
    }

    fn read_line(&mut self) -> Result<String, Died> {
        let mut reply = String::new();
        match self.stdout.read_line(&mut reply) {
            Ok(n) if n > 0 => Ok(reply.trim_end().to_string()),
            _ => Err(Died),
        }
    }

    /// One request, one reply line.
    pub fn request(&mut self, line: &str) -> Result<String, Died> {
        self.send(line)?;
        self.read_line()
    }

    /// One request, reply lines up to and including the one starting
    /// with `last`.
    pub fn request_lines(&mut self, line: &str, last: &str) -> Result<Vec<String>, Died> {
        self.send(line)?;
        let mut lines = Vec::new();
        loop {
            let reply = self.read_line()?;
            let done = reply.starts_with(last);
            lines.push(reply);
            if done {
                return Ok(lines);
            }
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        crate::proc::stop(&mut self.child);
    }
}

/// The reply to `opt`.
#[derive(Clone, Debug)]
pub struct OptReply {
    pub in_gates: usize,
    pub out_gates: usize,
    pub out_fp: u128,
    pub stats: layers::EngineStats,
    pub exec: layers::ExecCounts,
}

impl OptReply {
    pub fn parse(reply: &str) -> Option<OptReply> {
        let f: Vec<&str> = reply.split_whitespace().collect();
        if f.len() != 13 || f[0] != "done" {
            return None;
        }
        let n = |i: usize| f[i].parse::<u64>().ok();
        Some(OptReply {
            in_gates: n(1)? as usize,
            out_gates: n(2)? as usize,
            out_fp: u128::from_str_radix(f[3], 16).ok()?,
            stats: layers::EngineStats {
                total_nanos: n(4)?,
                oracle_nanos: n(5)?,
                rounds: n(6)?,
                oracle_calls: n(7)?,
                accepted: n(8)?,
                narrow_rounds: n(9)?,
                seg_cache_hits: 0,
            },
            exec: layers::ExecCounts {
                tasks: n(10)?,
                steals: n(11)?,
                parallel_ops: n(12)?,
            },
        })
    }
}

/// One job of a `sweep`, as the child's submitter saw it.
#[derive(Clone, Debug)]
pub struct SweepJob {
    pub pool_index: usize,
    pub pass: usize,
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub in_gates: usize,
    pub out_gates: usize,
    pub out_fp: u128,
    pub queue_ns: u64,
    pub run_ns: u64,
    pub engine_ns: u64,
    pub oracle_calls: u64,
    pub seg_hits: u64,
    pub cache_hit: bool,
    pub errored: bool,
}

impl SweepJob {
    fn line(&self) -> String {
        format!(
            "job {} {} {} {} {} {} {} {:032x} {} {} {} {} {} {} {}",
            self.pool_index,
            self.pass,
            self.lane,
            self.start_ns,
            self.end_ns,
            self.in_gates,
            self.out_gates,
            self.out_fp,
            self.queue_ns,
            self.run_ns,
            self.engine_ns,
            self.oracle_calls,
            self.seg_hits,
            self.cache_hit as u8,
            self.errored as u8
        )
    }

    pub fn parse(line: &str) -> Option<SweepJob> {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 16 || f[0] != "job" {
            return None;
        }
        let n = |i: usize| f[i].parse::<u64>().ok();
        Some(SweepJob {
            pool_index: n(1)? as usize,
            pass: n(2)? as usize,
            lane: n(3)? as u32,
            start_ns: n(4)?,
            end_ns: n(5)?,
            in_gates: n(6)? as usize,
            out_gates: n(7)? as usize,
            out_fp: u128::from_str_radix(f[8], 16).ok()?,
            queue_ns: n(9)?,
            run_ns: n(10)?,
            engine_ns: n(11)?,
            oracle_calls: n(12)?,
            seg_hits: n(13)?,
            cache_hit: n(14)? == 1,
            errored: n(15)? == 1,
        })
    }
}

// --- child side -------------------------------------------------------------

struct State {
    inputs: HashMap<String, (Instance, Circuit)>,
    outputs: HashMap<String, Circuit>,
    checker: Option<Checker>,
    service: Option<layers::Service>,
    pool: Vec<String>,
}

/// The child's command loop. Commands (tokens separated by spaces):
///
/// * `begin <seed> <expected outputs>` — arm the checker;
/// * `gen <instance key>` → `ok <gates> <qubits>`;
/// * `opt <key> <oracle> <width> <narrow below>` → `done …` ([`OptReply`]);
/// * `check <key> <oracle>` → `checked <0|1> <message>`;
/// * `summary` → `summary <golden matched> <equivalence> <windows> <improvable>`;
/// * `service <oracle> <workers> <segment cache capacity>` → `ok`;
/// * `warm <key>` → `ok <oracle calls>` (submit and wait, result kept);
/// * `pool <key>` → `ok` (adds a generated instance to the sweep pool);
/// * `sweep <seconds> <submitters>` → `job …` lines, then `swept <passes>`;
/// * `segstats` → `ok <hits> <misses>`;
/// * `forkjoin <width> <items>` → `ok <ns>`;
/// * `spin <width> <tasks> <micros>` → `ok <serial ns> <parallel ns>`.
pub fn serve() -> Result<(), String> {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    let mut state = State {
        inputs: HashMap::new(),
        outputs: HashMap::new(),
        checker: None,
        service: None,
        pool: Vec::new(),
    };
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("worker stdin: {e}"))?;
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some((&cmd, args)) = tokens.split_first() else {
            continue;
        };
        let reply = match command(&mut state, cmd, args, &mut out) {
            Ok(reply) => reply,
            Err(e) => return Err(format!("worker: bad request `{line}`: {e}")),
        };
        writeln!(out, "{reply}")
            .and_then(|()| out.flush())
            .map_err(|e| format!("worker stdout: {e}"))?;
    }
    Ok(())
}

fn arg<T: std::str::FromStr>(args: &[&str], i: usize) -> Result<T, String> {
    args.get(i)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("missing or malformed argument {i}"))
}

fn oracle_arg(args: &[&str], i: usize) -> Result<Oracle, String> {
    let id: String = arg(args, i)?;
    layers::oracle_by_id(&id).ok_or_else(|| format!("unknown oracle `{id}`"))
}

fn command(
    state: &mut State,
    cmd: &str,
    args: &[&str],
    out: &mut impl Write,
) -> Result<String, String> {
    match cmd {
        "begin" => {
            let seed: u64 = arg(args, 0)?;
            let expected: usize = arg(args, 1)?;
            let golden = Golden::load().unwrap_or_default();
            state.checker = Some(Checker::new(golden, Budget::RUN, expected, seed));
            Ok("ok".to_string())
        }
        "gen" => {
            let key: String = arg(args, 0)?;
            let inst = Instance::parse_key(&key).ok_or("malformed instance key")?;
            let circuit = inst.generate();
            let reply = format!(
                "ok {} {}",
                layers::gates(&circuit),
                layers::qubits(&circuit)
            );
            state.inputs.insert(key, (inst, circuit));
            Ok(reply)
        }
        "opt" => {
            let key: String = arg(args, 0)?;
            let oracle = oracle_arg(args, 1)?;
            let width: usize = arg(args, 2)?;
            let narrow_below: usize = arg(args, 3)?;
            let (_, input) = state.inputs.get(&key).ok_or("instance not generated")?;
            let before = layers::exec_counts();
            let (output, stats) = layers::optimize(input, &oracle, OMEGA, width, narrow_below);
            let after = layers::exec_counts();
            let reply = format!(
                "done {} {} {:032x} {} {} {} {} {} {} {} {} {}",
                layers::gates(input),
                layers::gates(&output),
                layers::fingerprint(&output),
                stats.total_nanos,
                stats.oracle_nanos,
                stats.rounds,
                stats.oracle_calls,
                stats.accepted,
                stats.narrow_rounds,
                after.tasks - before.tasks,
                after.steals - before.steals,
                after.parallel_ops - before.parallel_ops,
            );
            state.outputs.insert(key, output);
            Ok(reply)
        }
        "check" => {
            let key: String = arg(args, 0)?;
            let oracle = oracle_arg(args, 1)?;
            let (inst, input) = state.inputs.get(&key).ok_or("instance not generated")?;
            // A respawn after a crash loses the outputs; recompute at
            // width 1, which is what every width must equal anyway.
            let output = state
                .outputs
                .entry(key.clone())
                .or_insert_with(|| layers::optimize(input, &oracle, OMEGA, 1, 0).0);
            let checker = state.checker.as_mut().ok_or("check before begin")?;
            let ok = checker.check(&oracle, inst, input, output);
            let message = if ok {
                "-".to_string()
            } else {
                checker.failures.last().cloned().unwrap_or_default()
            };
            Ok(format!("checked {} {message}", ok as u8))
        }
        "summary" => {
            let c = state.checker.as_ref().ok_or("summary before begin")?;
            Ok(format!(
                "summary {} {} {} {}",
                c.golden_matched, c.equivalence_checked, c.windows_checked, c.windows_improvable
            ))
        }
        "service" => {
            let oracle = oracle_arg(args, 0)?;
            let workers: usize = arg(args, 1)?;
            let capacity: usize = arg(args, 2)?;
            state.service = Some(layers::service(oracle.id, workers, capacity));
            Ok("ok".to_string())
        }
        "warm" => {
            let key: String = arg(args, 0)?;
            let (_, input) = state.inputs.get(&key).ok_or("instance not generated")?;
            let svc = state.service.as_ref().ok_or("warm before service")?;
            let job = svc.submit_wait(input.clone(), OMEGA);
            if let Some(e) = job.error() {
                return Err(format!("warming job failed: {e}"));
            }
            let calls = job.stats().oracle_calls;
            state.outputs.insert(key, job.output().clone());
            Ok(format!("ok {calls}"))
        }
        "pool" => {
            let key: String = arg(args, 0)?;
            if !state.inputs.contains_key(&key) {
                return Err("instance not generated".to_string());
            }
            state.pool.push(key);
            Ok("ok".to_string())
        }
        "sweep" => {
            let seconds: f64 = arg(args, 0)?;
            let submitters: usize = arg(args, 1)?;
            let (jobs, passes) = sweep(state, seconds, submitters.max(1))?;
            for job in &jobs {
                writeln!(out, "{}", job.line()).map_err(|e| e.to_string())?;
            }
            Ok(format!("swept {passes}"))
        }
        "segstats" => {
            let svc = state.service.as_ref().ok_or("segstats before service")?;
            let (hits, misses) = svc.seg_cache_counts();
            Ok(format!("ok {hits} {misses}"))
        }
        "forkjoin" => {
            let width: usize = arg(args, 0)?;
            let items: usize = arg(args, 1)?;
            let t0 = Instant::now();
            let sum: usize = layers::with_width(width, || {
                layers::par_map((0..items).collect(), std::hint::black_box)
                    .into_iter()
                    .sum()
            });
            std::hint::black_box(sum);
            Ok(format!("ok {}", t0.elapsed().as_nanos()))
        }
        "spin" => {
            let width: usize = arg(args, 0)?;
            let tasks: usize = arg(args, 1)?;
            let micros: u64 = arg(args, 2)?;
            let spin = |_: usize| {
                let t0 = Instant::now();
                while t0.elapsed().as_micros() < micros as u128 {
                    std::hint::spin_loop();
                }
            };
            let t0 = Instant::now();
            (0..tasks).for_each(spin);
            let serial = t0.elapsed().as_nanos();
            let t0 = Instant::now();
            layers::with_width(width, || layers::par_map((0..tasks).collect(), spin));
            let parallel = t0.elapsed().as_nanos();
            Ok(format!("ok {serial} {parallel}"))
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// The closed loop of sweep-segcache: `submitters` threads share one
/// cursor over the pool; a pass is one sweep over the pool, and between
/// passes the stored results are dropped (the segment cache is not), so
/// every job is a store miss answered from the segment cache.
fn sweep(
    state: &mut State,
    seconds: f64,
    submitters: usize,
) -> Result<(Vec<SweepJob>, usize), String> {
    let svc = state.service.as_ref().ok_or("sweep before service")?;
    let pool: Vec<&Circuit> = state.pool.iter().map(|k| &state.inputs[k].1).collect();
    if pool.is_empty() {
        return Err("sweep over an empty pool".to_string());
    }
    let epoch = Instant::now();
    let cursor = AtomicUsize::new(0);
    let passes = AtomicUsize::new(0);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let barrier = Barrier::new(submitters);
    let jobs: Mutex<Vec<SweepJob>> = Mutex::new(Vec::new());
    let last_outputs: Mutex<HashMap<usize, Circuit>> = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        for lane in 0..submitters {
            let (pool, cursor, passes, stop, barrier, jobs, last_outputs) = (
                &pool,
                &cursor,
                &passes,
                &stop,
                &barrier,
                &jobs,
                &last_outputs,
            );
            scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let pass = passes.load(Ordering::SeqCst);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::SeqCst);
                        if i >= pool.len() {
                            break;
                        }
                        let input = pool[i].clone();
                        let start_ns = epoch.elapsed().as_nanos() as u64;
                        let job = svc.submit_wait(input, OMEGA);
                        let end_ns = epoch.elapsed().as_nanos() as u64;
                        let stats = job.stats();
                        mine.push(SweepJob {
                            pool_index: i,
                            pass,
                            lane: lane as u32,
                            start_ns,
                            end_ns,
                            in_gates: layers::gates(pool[i]),
                            out_gates: layers::gates(job.output()),
                            out_fp: layers::fingerprint(job.output()),
                            queue_ns: job.queue_nanos(),
                            run_ns: job.run_nanos(),
                            engine_ns: stats.total_nanos,
                            oracle_calls: stats.oracle_calls,
                            seg_hits: stats.seg_cache_hits,
                            cache_hit: job.cache_hit(),
                            errored: job.error().is_some(),
                        });
                        if pass == 0 {
                            last_outputs
                                .lock()
                                .expect("a submitter panicked")
                                .insert(i, job.output().clone());
                        }
                    }
                    // Everyone has finished the pass; one submitter resets
                    // the round (and decides whether it was the last, so
                    // all agree) while the others wait at the second barrier.
                    if barrier.wait().is_leader() {
                        svc.clear_results();
                        cursor.store(0, Ordering::SeqCst);
                        passes.fetch_add(1, Ordering::SeqCst);
                        if epoch.elapsed().as_secs_f64() >= seconds {
                            stop.store(true, Ordering::SeqCst);
                        }
                    }
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
                jobs.lock().expect("a submitter panicked").extend(mine);
            });
        }
    });
    let outputs = last_outputs.into_inner().expect("a submitter panicked");
    for (i, output) in outputs {
        state.outputs.insert(state.pool[i].clone(), output);
    }
    let mut jobs = jobs.into_inner().expect("a submitter panicked");
    jobs.sort_by_key(|j| j.start_ns);
    Ok((jobs, passes.load(Ordering::SeqCst)))
}
