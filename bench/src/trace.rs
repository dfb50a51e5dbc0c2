//! The benchmark's own spans. Recorded only here, around calls into a
//! layer — nothing inside the program under test is instrumented — kept
//! in memory, and written at the end of a traced run as Chrome
//! `trace_event` JSON (`chrome://tracing`, Perfetto).

use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 for an op's root span.
    pub parent: u64,
    /// Spans of one op share this.
    pub op: u64,
    /// Layer-qualified name, e.g. `qcir.qasm.parse`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Lane in the trace viewer: the load-generating thread.
    pub lane: u32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        op: u64,
        lane: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("a recorder holder panicked");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            lane,
        });
        id
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a recorder holder panicked")
            .clone()
    }
}

/// Per span name: `(count, total ns, self ns)`, where a span's self time
/// is its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        if s.parent != 0 {
            child_ns[s.parent as usize] += s.nanos();
        }
    }
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for s in spans {
        let own = s.nanos().saturating_sub(child_ns[s.id as usize]);
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.nanos();
                r.3 += own;
            }
            None => rows.push((s.name, 1, s.nanos(), own)),
        }
    }
    rows
}

/// Chrome `trace_event` JSON: one complete (`X`) event per span.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let layer = s.name.split('.').next().unwrap_or(s.name);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            layer,
            s.lane,
            s.start_ns as f64 / 1e3,
            s.nanos() as f64 / 1e3,
            s.id,
            s.parent,
            s.op
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let r = Recorder::new();
        let root = r.record("op", 0, 1, 0, 0, 100);
        r.record("a.x", root, 1, 0, 10, 40);
        r.record("a.y", root, 1, 0, 50, 70);
        let rows = self_times(&r.spans());
        assert_eq!(rows[0], ("op", 1, 100, 50));
        assert_eq!(rows[1], ("a.x", 1, 30, 30));
        let json = chrome_json(&r.spans());
        assert!(serde_json::from_str(&json).is_ok());
        assert!(json.contains("\"cat\":\"a\""));
    }
}
