//! Shared harness for the tests that drive the `popqc` binary: run it to
//! completion (optionally under a wall-clock bound), or spawn a `serve` /
//! `cached` child, read the address it announces and talk HTTP/1.1 to it.
//! Every child is killed and reaped on drop, also when a test panics, and
//! a failing request's message carries the served document and the tail
//! of the child's stderr.

// Each test target uses its own subset of this module.
#![allow(dead_code)]

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

pub use serde_json::Value;

/// The `popqc` binary under test.
pub const BIN: &str = env!("CARGO_BIN_EXE_popqc");

/// Upper bound on any one request or bounded run: long enough for a
/// debug build on a loaded host, short enough that a hang fails the test.
pub const HANG_GUARD: Duration = Duration::from_secs(120);

/// Stderr lines a [`Server`] keeps for failure messages.
const TAIL_LINES: usize = 40;

/// `popqc` with the whitespace-separated words of `cmdline` as arguments.
pub fn popqc(cmdline: &str) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args(cmdline.split_whitespace());
    cmd
}

/// Runs `cmd` to completion.
pub fn run(mut cmd: Command) -> Output {
    cmd.output()
        .unwrap_or_else(|e| panic!("spawn {cmd:?}: {e}"))
}

/// Runs `cmd` to completion and fails the test unless it exits 0.
pub fn run_ok(cmd: Command) -> Output {
    let what = format!("{cmd:?}");
    let out = run(cmd);
    assert_success(&out, &what);
    out
}

pub fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed ({})\nstdout: {}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

/// Runs `cmd` to completion; kills it and fails the test if it is still
/// running after `limit`.
pub fn run_within(mut cmd: Command, limit: Duration) -> Output {
    cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
    let mut child = KillOnDrop(cmd.spawn().expect("spawn"));
    let stdout = drain(child.0.stdout.take().expect("piped stdout"));
    let stderr = drain(child.0.stderr.take().expect("piped stderr"));
    let deadline = Instant::now() + limit;
    let status = loop {
        if let Some(status) = child.0.try_wait().expect("poll child") {
            break status;
        }
        if Instant::now() >= deadline {
            drop(child);
            let stderr = String::from_utf8_lossy(&stderr.join().unwrap()).into_owned();
            panic!("{cmd:?} still running after {limit:?}; killed\nstderr: {stderr}");
        }
        thread::sleep(Duration::from_millis(10));
    };
    let (stdout, stderr) = (stdout.join().unwrap(), stderr.join().unwrap());
    Output {
        status,
        stdout,
        stderr,
    }
}

fn drain(mut pipe: impl Read + Send + 'static) -> thread::JoinHandle<Vec<u8>> {
    thread::spawn(move || {
        let mut buf = Vec::new();
        let _ = pipe.read_to_end(&mut buf);
        buf
    })
}

/// Kills the child on drop, including on panic, and reaps it.
pub struct KillOnDrop(pub Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A per-test directory under the system temp dir, removed on drop
/// (including on panic). Commands run in it name its files relatively.
pub struct Cleanup(pub PathBuf);

impl Cleanup {
    /// Creates `popqc-{name}-test-{pid}` afresh, with the subdirectories
    /// `dirs`.
    pub fn new(name: &str, dirs: &[&str]) -> Cleanup {
        let pid = std::process::id();
        let tmp = Cleanup(std::env::temp_dir().join(format!("popqc-{name}-test-{pid}")));
        let _ = std::fs::remove_dir_all(&tmp.0);
        for dir in [""].iter().chain(dirs) {
            std::fs::create_dir_all(tmp.0.join(dir)).expect("create test dir");
        }
        tmp
    }

    /// [`popqc`], run in this directory.
    pub fn popqc(&self, cmdline: &str) -> Command {
        let mut cmd = popqc(cmdline);
        cmd.current_dir(&self.0);
        cmd
    }

    pub fn path(&self, rel: &str) -> PathBuf {
        self.0.join(rel)
    }

    pub fn read(&self, rel: &str) -> String {
        std::fs::read_to_string(self.path(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
    }

    pub fn write(&self, rel: &str, contents: &str) {
        std::fs::write(self.path(rel), contents).unwrap_or_else(|e| panic!("write {rel}: {e}"))
    }

    /// The JSON document in file `rel`.
    pub fn json(&self, rel: &str) -> Value {
        serde_json::from_str(&self.read(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    }
}

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `popqc serve` or `popqc cached` child. Its stderr is read on
/// a thread of its own for the whole run, so the child never blocks on a
/// full pipe, and the last [`TAIL_LINES`] lines are kept for messages.
pub struct Server {
    /// `None` once [`Server::kill`] has run.
    child: Option<KillOnDrop>,
    reader: Option<thread::JoinHandle<()>>,
    /// The announced `HOST:PORT`: `serve` logs `addr=http://HOST:PORT`,
    /// `cached` logs `addr=HOST:PORT`.
    pub addr: String,
    tail: Arc<Mutex<VecDeque<String>>>,
}

impl Server {
    /// Spawns `cmd` on an ephemeral loopback port and waits for the
    /// `addr=` it announces.
    pub fn spawn(mut cmd: Command) -> Server {
        cmd.args(["--addr", "127.0.0.1:0"]).stderr(Stdio::piped());
        let mut child = cmd.spawn().unwrap_or_else(|e| panic!("spawn {cmd:?}: {e}"));
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel();
        let tail = Arc::new(Mutex::new(VecDeque::new()));
        let sink = Arc::clone(&tail);
        let reader = thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.split("addr=").nth(1) {
                    let addr = addr.split_whitespace().next().unwrap_or_default();
                    let _ = tx.send(addr.trim_start_matches("http://").to_string());
                }
                let mut tail = sink.lock().expect("stderr tail poisoned");
                if tail.len() == TAIL_LINES {
                    tail.pop_front();
                }
                tail.push_back(line);
            }
        });
        let mut server = Server {
            child: Some(KillOnDrop(child)),
            reader: Some(reader),
            addr: String::new(),
            tail,
        };
        server.addr = rx.recv_timeout(HANG_GUARD).unwrap_or_else(|_| {
            panic!(
                "{cmd:?} never announced its address\n{}",
                server.stderr_tail()
            )
        });
        server
    }

    /// The last lines the child wrote to stderr.
    pub fn stderr_tail(&self) -> String {
        let tail = self.tail.lock().expect("stderr tail poisoned");
        tail.iter().fold(String::new(), |acc, l| acc + l + "\n")
    }

    /// Kills the child now and reaps it.
    pub fn kill(&mut self) {
        self.child = None;
    }

    /// One request, whatever its status.
    pub fn send(&self, method: &str, target: &str, body: &str) -> Reply {
        request(&self.addr, method, target, body)
    }

    /// One request that must answer 200.
    pub fn ok(&self, method: &str, target: &str, body: &str) -> Reply {
        let reply = self.send(method, target, body);
        assert_eq!(
            reply.status,
            200,
            "{method} {target}: {}\nstderr:\n{}",
            reply.body,
            self.stderr_tail()
        );
        reply
    }

    /// `GET target`, which must answer 200 with a JSON document.
    pub fn get_json(&self, target: &str) -> Value {
        self.ok("GET", target, "").json()
    }

    /// `POST /v1/optimize{query}` with `qasm`; the 200 answer's `result`.
    pub fn optimize(&self, query: &str, qasm: &str) -> Value {
        let doc = self
            .ok("POST", &format!("/v1/optimize{query}"), qasm)
            .json();
        at(&doc, "result").clone()
    }

    /// A fresh `/v1/metrics` scrape.
    pub fn scrape(&self) -> String {
        self.ok("GET", "/v1/metrics", "").body
    }
}

/// Kills and reaps the child, including on panic; its stderr then ends,
/// so the reader thread is joined too.
impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The value of the first sample of `series` in a Prometheus scrape.
pub fn sample(scrape: &str, series: &str) -> f64 {
    scrape
        .lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no sample {series} in:\n{scrape}"))
}

/// One HTTP/1.1 response; header names are lower-cased.
pub struct Reply {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        let mut found = self.headers.iter().filter(|(k, _)| k == name);
        found.next().map(|(_, v)| v.as_str())
    }

    pub fn json(&self) -> Value {
        serde_json::from_str(&self.body).unwrap_or_else(|e| panic!("not JSON ({e}): {}", self.body))
    }
}

/// One blocking `Connection: close` request to `addr`, its body written
/// with its head before any reply is read; a request or reply that takes
/// longer than [`HANG_GUARD`] fails the test.
pub fn request(addr: &str, method: &str, target: &str, body: &str) -> Reply {
    let what = format!("{method} {target}");
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
    stream.set_read_timeout(Some(HANG_GUARD)).unwrap();
    stream.set_write_timeout(Some(HANG_GUARD)).unwrap();
    let length = body.len();
    write!(
        &stream,
        "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {length}\r\nConnection: close\r\n\r\n{body}"
    )
    .unwrap_or_else(|e| panic!("{what}: request cut short ({e})"));
    let mut reader = BufReader::new(&stream);
    let head = read_head(&mut reader, &what);
    let mut body = Vec::new();
    reader
        .read_to_end(&mut body)
        .unwrap_or_else(|e| panic!("{what}: body cut short ({e})"));
    let body = String::from_utf8_lossy(&body).into_owned();
    Reply {
        status: head.0,
        headers: head.1,
        body,
    }
}

/// Reads one status line and its headers.
fn read_head(reader: &mut impl BufRead, what: &str) -> (u16, Vec<(String, String)>) {
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => panic!("{what}: connection closed mid-head {lines:?}"),
            Ok(_) if line == "\r\n" => break,
            Ok(_) => lines.push(line.trim_end().to_string()),
            Err(e) => panic!("{what}: no reply ({e})"),
        }
    }
    let status = lines
        .first()
        .and_then(|l| l.split_whitespace().nth(1)?.parse().ok());
    let headers = lines.iter().skip(1).filter_map(|l| l.split_once(':'));
    let headers = headers.map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()));
    let status = status.unwrap_or_else(|| panic!("{what}: no status line in {lines:?}"));
    (status, headers.collect())
}

/// The member at dotted `path` in `doc`; fails the test, quoting the
/// document, when it is missing.
pub fn at<'a>(doc: &'a Value, path: &str) -> &'a Value {
    path.split('.').fold(doc, |v, key| {
        v.get(key)
            .unwrap_or_else(|| panic!("no `{path}` in {}", show(doc)))
    })
}

/// The entry of the tier array `tiers` (`/v1/stats` `cache_tiers`,
/// `/v1/cache` `tiers`) whose `tier` is `name`.
pub fn tier<'a>(tiers: &'a Value, name: &str) -> &'a Value {
    let all = tiers.as_array().into_iter().flatten();
    let mut found = all.filter(|t| at(t, "tier").as_str() == Some(name));
    found
        .next()
        .unwrap_or_else(|| panic!("no {name} tier in {}", show(tiers)))
}

/// `doc` as JSON text, for failure messages.
pub fn show(doc: &Value) -> String {
    serde_json::to_string(doc).unwrap_or_default()
}
