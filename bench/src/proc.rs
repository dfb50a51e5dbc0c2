//! Child processes under test: spawning, `/proc` accounting, teardown.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// `sysconf(_SC_CLK_TCK)`: 100 on every Linux the workspace builds on, and
/// not readable without libc.
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds (user + system) the process has used so far.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_SECOND)
}

/// CPU seconds the process has used since an earlier [`cpu_seconds`]
/// reading; 0 when either reading is missing (the process is gone).
pub fn cpu_since(pid: u32, before: Option<f64>) -> f64 {
    match (before, cpu_seconds(pid)) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    }
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Kills and reaps a child; both steps tolerate a child already gone.
pub fn stop(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// Where cargo puts this checkout's binaries. The benchmark runs from the
/// repository root, so a relative `CARGO_TARGET_DIR` resolves as cargo
/// resolved it.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Builds `popqc` from the checkout's sources (a no-op when up to date)
/// and returns the path of the binary. Compilation is not set-up time.
pub fn build_popqc() -> Result<PathBuf, String> {
    if !std::path::Path::new("Cargo.toml").is_file() || !std::path::Path::new("crates").is_dir() {
        return Err(
            "run ledger from the repository root (no ./Cargo.toml and ./crates here)".to_string(),
        );
    }
    let out = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "popqc",
        ])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "cargo build --bin popqc failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let bin = target_dir().join("release").join("popqc");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("cargo built no {}", bin.display()))
    }
}

/// A running `popqc serve` with default flags on an ephemeral port.
pub struct Server {
    child: Child,
    pub addr: String,
    /// Drains the access log so the server never blocks on a full pipe;
    /// ends at the child's EOF.
    log_drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    pub fn spawn(bin: &std::path::Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .env_remove("POPQC_NUM_THREADS")
            .env_remove("POPQC_GRAIN")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let mut lines = BufReader::new(stderr).lines();
        // The port is in the `listening addr=http://…` log line; a server
        // that dies before logging it ends the loop with EOF.
        let addr = lines.by_ref().map_while(Result::ok).find_map(|line| {
            let at = line.find("addr=http://")? + "addr=http://".len();
            line[at..].split_whitespace().next().map(str::to_string)
        });
        let Some(addr) = addr else {
            stop(&mut child);
            return Err("popqc serve never logged its listening address".to_string());
        };
        let log_drain = std::thread::spawn(move || for _ in lines {});
        Ok(Server {
            child,
            addr,
            log_drain: Some(log_drain),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        stop(&mut self.child);
        if let Some(drain) = self.log_drain.take() {
            let _ = drain.join();
        }
    }
}
