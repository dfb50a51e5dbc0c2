//! The remote result-store wire protocol: small, versioned,
//! length-prefixed frames over TCP.
//!
//! One frame is:
//!
//! ```text
//! +-----------------+-----------+----------+------------------+
//! | length: u32 BE  | version:  | opcode:  | payload          |
//! | (of the rest)   | u8 (= 1)  | u8       | (length-2 bytes) |
//! +-----------------+-----------+----------+------------------+
//! ```
//!
//! | opcode | dir | payload |
//! |--------|-----|---------|
//! | `GET    0x01` | → | key document (JSON) |
//! | `PUT    0x02` | → | entry document (JSON, [`crate::store::encode_entry`]) |
//! | `REMOVE 0x03` | → | key document (JSON) |
//! | `CLEAR  0x04` | → | empty |
//! | `STATS  0x05` | → | empty |
//! | `PING   0x06` | → | empty |
//! | `HIT    0x81` | ← | entry document (JSON) |
//! | `MISS   0x82` | ← | empty |
//! | `ACK    0x83` | ← | 1 byte (`REMOVE`: 1 = removed; `PUT`: empty) |
//! | `COUNT  0x84` | ← | u64 BE (entries removed by `CLEAR`) |
//! | `REPORT 0x85` | ← | `qapi::CacheReport` document (JSON) |
//! | `PONG   0x86` | ← | empty |
//! | `ERROR  0xC0` | ← | UTF-8 diagnostic |
//!
//! The key document repeats every field of [`JobKey`] plus the oracle
//! version, and the PUT payload is byte-identical to a `DiskStore`
//! `.entry` file — `store_format` and `oracle_version` travel end to
//! end, so the server (and every other replica reading through it) can
//! refuse stale entries exactly like a local disk tier does.
//!
//! Robustness rules, enforced by `split_frame` — the one check both
//! the client's blocking [`read_frame`] and the cache server's
//! connection driver run:
//! * a declared length above [`MAX_FRAME_BYTES`] is refused **before any
//!   allocation** (a hostile or corrupt peer cannot OOM the reader);
//! * a length too small for the version+opcode header is a [`WireError::Runt`];
//! * a foreign version byte or an unknown opcode is refused once the
//!   frame is whole;
//! * EOF cleanly between frames is [`WireError::Closed`], EOF mid-frame
//!   is [`WireError::Truncated`] — callers treat both as "drop the
//!   connection", never as data.

use crate::service::JobKey;
use serde_json::{json, Value};
use std::io::{self, Read, Write};

/// Protocol version byte; bump on any frame-layout change. A reader
/// refuses frames from any other version, so mixed-version fleets fail
/// closed (to a local miss) instead of misparsing.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard ceiling on one frame's declared length (version + opcode +
/// payload). Checked against the length prefix *before* the payload
/// buffer is allocated.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Frame opcodes: requests in the low range, responses with the high bit
/// set, `ERROR` on its own. See the module docs for the payload table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Op {
    Get = 0x01,
    Put = 0x02,
    Remove = 0x03,
    Clear = 0x04,
    Stats = 0x05,
    Ping = 0x06,
    Hit = 0x81,
    Miss = 0x82,
    Ack = 0x83,
    Count = 0x84,
    Report = 0x85,
    Pong = 0x86,
    Error = 0xC0,
}

impl Op {
    fn from_u8(b: u8) -> Option<Op> {
        Some(match b {
            0x01 => Op::Get,
            0x02 => Op::Put,
            0x03 => Op::Remove,
            0x04 => Op::Clear,
            0x05 => Op::Stats,
            0x06 => Op::Ping,
            0x81 => Op::Hit,
            0x82 => Op::Miss,
            0x83 => Op::Ack,
            0x84 => Op::Count,
            0x85 => Op::Report,
            0x86 => Op::Pong,
            0xC0 => Op::Error,
            _ => return None,
        })
    }

    /// The label this opcode carries in metrics and logs.
    pub fn name(self) -> &'static str {
        match self {
            Op::Get => "get",
            Op::Put => "put",
            Op::Remove => "remove",
            Op::Clear => "clear",
            Op::Stats => "stats",
            Op::Ping => "ping",
            Op::Hit => "hit",
            Op::Miss => "miss",
            Op::Ack => "ack",
            Op::Count => "count",
            Op::Report => "report",
            Op::Pong => "pong",
            Op::Error => "error",
        }
    }
}

/// One decoded frame: opcode + raw payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// What the frame asks for or answers with.
    pub op: Op,
    /// Opcode-specific payload (see the module table).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with no payload.
    pub fn empty(op: Op) -> Frame {
        Frame {
            op,
            payload: Vec::new(),
        }
    }

    /// A frame carrying `payload`.
    pub fn new(op: Op, payload: Vec<u8>) -> Frame {
        Frame { op, payload }
    }

    /// Whether this frame is within [`MAX_FRAME_BYTES`], i.e. whether a
    /// peer will accept it. A sender checks before writing: a peer
    /// refuses an oversized frame after its prefix and hangs up.
    pub(crate) fn fits(&self) -> bool {
        !over_cap(self.payload.len() as u64 + 2)
    }

    /// Serializes to the on-wire byte layout (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let len = (self.payload.len() + 2) as u32;
        let mut buf = Vec::with_capacity(self.payload.len() + 6);
        buf.extend_from_slice(&len.to_be_bytes());
        buf.push(PROTOCOL_VERSION);
        buf.push(self.op as u8);
        buf.extend_from_slice(&self.payload);
        buf
    }

    /// Decodes exactly one frame from `buf` (trailing bytes are an
    /// error — the streaming reader is [`read_frame`]).
    pub fn decode(buf: &[u8]) -> Result<Frame, WireError> {
        let mut cursor = io::Cursor::new(buf);
        let frame = read_frame(&mut cursor)?;
        if (cursor.position() as usize) != buf.len() {
            return Err(WireError::Truncated);
        }
        Ok(frame)
    }
}

/// Why a frame could not be read or understood. Every variant means the
/// same thing operationally — drop the connection and (client side)
/// degrade to a local miss — but the split keeps diagnostics and tests
/// precise.
#[derive(Debug)]
pub enum WireError {
    /// EOF cleanly on a frame boundary: the peer is done, not broken.
    Closed,
    /// EOF (or short buffer) in the middle of a frame.
    Truncated,
    /// Declared length exceeds [`MAX_FRAME_BYTES`]; refused before
    /// allocating the payload buffer.
    Oversized(u32),
    /// Declared length too small to hold the version + opcode header.
    Runt(u32),
    /// Version byte is not [`PROTOCOL_VERSION`].
    Version(u8),
    /// Opcode byte not in the table.
    UnknownOpcode(u8),
    /// A payload that does not parse as its opcode requires.
    Malformed(&'static str),
    /// The underlying stream failed (timeout, reset, ...).
    Io(io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversized(len) => {
                write!(
                    f,
                    "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
            WireError::Runt(len) => write!(f, "frame length {len} below the 2-byte header"),
            WireError::Version(v) => {
                write!(
                    f,
                    "protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            WireError::UnknownOpcode(b) => write!(f, "unknown opcode 0x{b:02X}"),
            WireError::Malformed(what) => write!(f, "malformed {what} payload"),
            WireError::Io(e) => write!(f, "stream error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Whether a frame whose version + opcode + payload run `len` bytes
/// exceeds [`MAX_FRAME_BYTES`].
fn over_cap(len: u64) -> bool {
    len > u64::from(MAX_FRAME_BYTES)
}

/// Takes the first frame off the front of `buf`, a stream's input as far
/// as it has arrived, enforcing the robustness rules in the module docs.
/// The length prefix is checked as soon as its four bytes are in, so an
/// oversized or runt length is refused before any of the body is
/// buffered; version and opcode are checked once the frame is whole.
/// `Ok(None)` leaves a partial frame in `buf` for the next read.
pub(crate) fn split_frame(buf: &mut Vec<u8>) -> Result<Option<Frame>, WireError> {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_be_bytes(*prefix);
    if over_cap(len.into()) {
        return Err(WireError::Oversized(len));
    }
    if len < 2 {
        return Err(WireError::Runt(len));
    }
    let end = 4 + len as usize;
    if buf.len() < end {
        return Ok(None);
    }
    if buf[4] != PROTOCOL_VERSION {
        return Err(WireError::Version(buf[4]));
    }
    let op = Op::from_u8(buf[5]).ok_or(WireError::UnknownOpcode(buf[5]))?;
    let rest = buf.split_off(end);
    let mut payload = std::mem::replace(buf, rest);
    payload.drain(..6);
    Ok(Some(Frame { op, payload }))
}

/// Reads one frame off `r` through `split_frame`. Blocks per the
/// stream's own read timeout; a timeout surfaces as [`WireError::Io`].
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    // The length prefix is read byte-wise so EOF *before the first byte*
    // (the peer hung up between frames: `Closed`) is distinguishable
    // from EOF *inside* the prefix (a cut mid-frame: `Truncated`) —
    // `read_exact` alone cannot tell the two apart.
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let mut buf = len_buf.to_vec();
    // The prefix alone: refused here, or a body of at least two bytes
    // to come.
    split_frame(&mut buf)?;
    buf.resize(4 + u32::from_be_bytes(len_buf) as usize, 0);
    match r.read_exact(&mut buf[4..]) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(WireError::Truncated),
        Err(e) => return Err(WireError::Io(e)),
    }
    Ok(split_frame(&mut buf)?.expect("the whole frame is buffered"))
}

/// Writes one frame to `w` and flushes it.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.encode())?;
    w.flush()
}

/// Serializes a `(key, oracle_version)` lookup as the GET/REMOVE payload.
pub fn encode_key(key: &JobKey, oracle_version: &str) -> Vec<u8> {
    encode_key_traced(key, oracle_version, None, false)
}

/// [`encode_key`], optionally stamping the client's trace id onto the
/// key document so the `popqc cached` server's spans join the same
/// trace. The fields are additive: [`decode_key`] looks fields up by
/// name and ignores unknown ones, so traced GETs interoperate with
/// pre-trace servers (and vice versa) without a protocol version bump.
pub fn encode_key_traced(
    key: &JobKey,
    oracle_version: &str,
    trace_id: Option<&str>,
    trace_forced: bool,
) -> Vec<u8> {
    let mut doc = json!({
        "fingerprint": key.fingerprint.to_hex().as_str(),
        "oracle_id": key.oracle_id.as_str(),
        "omega": key.config.omega as u64,
        "max_rounds": key.config.max_rounds as u64,
        "oracle_version": oracle_version,
    });
    if let (Some(id), Value::Object(fields)) = (trace_id, &mut doc) {
        fields.push(("trace_id".to_string(), json!(id)));
        if trace_forced {
            fields.push(("trace_forced".to_string(), json!(true)));
        }
    }
    serde_json::to_string(&doc)
        .expect("serialize key document")
        .into_bytes()
}

/// Parses a GET/REMOVE payload back into `(key, oracle_version)`.
pub fn decode_key(payload: &[u8]) -> Result<(JobKey, String), WireError> {
    decode_key_traced(payload).map(|(key, version, _, _)| (key, version))
}

/// Parses a GET payload in one pass: [`decode_key`]'s `(key,
/// oracle_version)` plus the optional trace propagation fields
/// `(trace_id, trace_forced)` that [`encode_key_traced`] stamps on.
/// Absent or unparseable trace fields read as "untraced": propagation is
/// best-effort and never fails a lookup.
pub fn decode_key_traced(payload: &[u8]) -> Result<(JobKey, String, Option<u64>, bool), WireError> {
    let malformed = || WireError::Malformed("key");
    let text = std::str::from_utf8(payload).map_err(|_| malformed())?;
    let doc: Value = serde_json::from_str(text).map_err(|_| malformed())?;
    let (key, version) = crate::store::decode_key_header(&doc).ok_or_else(malformed)?;
    let trace_id = doc
        .get("trace_id")
        .and_then(Value::as_str)
        .and_then(qobs::trace::parse_id);
    let trace_forced = doc
        .get("trace_forced")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    Ok((key, version, trace_id, trace_forced))
}
