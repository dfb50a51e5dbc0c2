//! Minimal HTTP/1.1 framing: request parsing (request line, headers,
//! `Content-Length` and chunked bodies) and response serialization with
//! keep-alive support.
//!
//! This is deliberately a small vendored subset — just enough protocol for
//! the JSON API in [`crate::api`] — not a general-purpose HTTP
//! implementation. Unsupported constructs are rejected with a clear
//! [`HttpError`] that the server maps to a 4xx response instead of killing
//! the connection silently.

use std::fmt;
use std::io::{self, Write};

/// Hard cap on request bodies (16 MiB); larger uploads get a 413.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;
/// Hard cap on a single header line.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Hard cap on the number of request headers.
const MAX_HEADERS: usize = 100;

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The request is malformed; the message goes into the 400 body.
    BadRequest(String),
    /// The declared or actual body size exceeds [`MAX_BODY_BYTES`].
    PayloadTooLarge,
    /// The socket failed mid-request (timeout, reset, …).
    Io(io::Error),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            HttpError::PayloadTooLarge => write!(f, "payload too large"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

fn bad(msg: impl Into<String>) -> HttpError {
    HttpError::BadRequest(msg.into())
}

/// A parsed request: method, decoded path + query, headers, raw body.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path without the query string (e.g. `/v1/jobs/7`).
    pub path: String,
    /// Decoded `key=value` query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header name/value pairs as received (names matched case-insensitively).
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open afterwards.
    pub keep_alive: bool,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or a 400-shaped error.
    pub fn body_utf8(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body).map_err(|_| bad("request body is not valid UTF-8"))
    }
}

/// What [`RequestParser::advance`] produced.
#[derive(Debug)]
pub enum ParseStep {
    /// The buffered bytes do not complete a request yet; feed more.
    NeedMore,
    /// The header section just completed; no body byte has been
    /// consumed and no `100 Continue` interim has been emitted yet.
    /// This is the admission-control hook: a caller that wants to
    /// refuse the request *before* inviting or buffering its body
    /// (rate limiting, load shedding) decides here, using
    /// [`RequestParser::head_method`], [`RequestParser::head_path`],
    /// and [`RequestParser::body_expected`]. Call `advance` again to
    /// continue — the parser has more state transitions to run even if
    /// no new bytes arrived.
    HeadersDone,
    /// Write these bytes to the peer (the `100 Continue` interim
    /// response), then call `advance` again — the parser has more state
    /// transitions to run even if no new bytes arrived.
    Interim(&'static [u8]),
    /// One complete request. The parser has reset itself for the next
    /// request on the same connection.
    Done(Request),
}

enum ParseState {
    RequestLine,
    Headers,
    /// Headers are complete; the body-framing decision (and the
    /// `Expect: 100-continue` interim) runs here. Needs no input.
    BodyStart,
    FixedBody {
        remaining: usize,
    },
    ChunkHeader,
    ChunkData {
        remaining: usize,
    },
    ChunkSep,
    Trailers,
}

/// An incremental HTTP/1.1 request parser, resumable at any byte
/// boundary: `advance` consumes whatever prefix of the input it can and
/// reports [`ParseStep::NeedMore`] instead of blocking. This is what lets
/// the evented frontend keep per-connection parse state in
/// connection-owned buffers while a single loop thread multiplexes
/// hundreds of sockets.
pub struct RequestParser {
    state: ParseState,
    /// Partial-line accumulator (request line, headers, chunk framing).
    line: Vec<u8>,
    method: String,
    path: String,
    query: Vec<(String, String)>,
    version_11: bool,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    interim_sent: bool,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// A parser ready for the first byte of a request.
    pub fn new() -> RequestParser {
        RequestParser {
            state: ParseState::RequestLine,
            line: Vec::new(),
            method: String::new(),
            path: String::new(),
            query: Vec::new(),
            version_11: true,
            headers: Vec::new(),
            body: Vec::new(),
            interim_sent: false,
        }
    }

    /// The in-flight request's method — valid from
    /// [`ParseStep::HeadersDone`] until [`ParseStep::Done`].
    pub fn head_method(&self) -> &str {
        &self.method
    }

    /// The in-flight request's path (query string stripped) — valid from
    /// [`ParseStep::HeadersDone`] until [`ParseStep::Done`].
    pub fn head_path(&self) -> &str {
        &self.path
    }

    /// Whether the request whose headers just completed still has body
    /// bytes to arrive (or expects a `100 Continue` invitation to send
    /// them). A header-presence heuristic, deliberately conservative:
    /// full framing validation still happens on the next `advance`.
    /// Only meaningful right after [`ParseStep::HeadersDone`].
    pub fn body_expected(&self) -> bool {
        self.header("Transfer-Encoding").is_some()
            || self
                .header("Content-Length")
                .is_some_and(|cl| cl.trim() != "0")
            || self
                .header("Expect")
                .is_some_and(|e| e.eq_ignore_ascii_case("100-continue"))
    }

    /// Consumes as much of `input` as possible; returns how many bytes
    /// were consumed (the caller drains them) and what happened. On
    /// `NeedMore` the whole input was consumed. After an error the
    /// parser, like the connection, is done for.
    pub fn advance(&mut self, input: &[u8]) -> Result<(usize, ParseStep), HttpError> {
        let mut pos = 0;
        loop {
            match self.state {
                ParseState::RequestLine => match self.take_line(input, &mut pos)? {
                    None => return Ok((pos, ParseStep::NeedMore)),
                    Some(line) => {
                        self.parse_request_line(&line)?;
                        self.state = ParseState::Headers;
                    }
                },
                ParseState::Headers => match self.take_line(input, &mut pos)? {
                    None => return Ok((pos, ParseStep::NeedMore)),
                    Some(line) if line.is_empty() => {
                        self.state = ParseState::BodyStart;
                        return Ok((pos, ParseStep::HeadersDone));
                    }
                    Some(line) => {
                        let (name, value) = line
                            .split_once(':')
                            .ok_or_else(|| bad(format!("malformed header line `{line}`")))?;
                        self.headers
                            .push((name.trim().to_string(), value.trim().to_string()));
                        if self.headers.len() > MAX_HEADERS {
                            return Err(bad("too many headers"));
                        }
                    }
                },
                ParseState::BodyStart => {
                    if !self.interim_sent
                        && self
                            .header("Expect")
                            .is_some_and(|e| e.eq_ignore_ascii_case("100-continue"))
                    {
                        self.interim_sent = true;
                        return Ok((pos, ParseStep::Interim(b"HTTP/1.1 100 Continue\r\n\r\n")));
                    }
                    match self.body_framing()? {
                        Framing::None => return Ok((pos, ParseStep::Done(self.finish()))),
                        Framing::Fixed(0) => return Ok((pos, ParseStep::Done(self.finish()))),
                        Framing::Fixed(len) => {
                            self.body.reserve(len.min(MAX_BODY_BYTES));
                            self.state = ParseState::FixedBody { remaining: len };
                        }
                        Framing::Chunked => self.state = ParseState::ChunkHeader,
                    }
                }
                ParseState::FixedBody { remaining } => {
                    let take = remaining.min(input.len() - pos);
                    self.body.extend_from_slice(&input[pos..pos + take]);
                    pos += take;
                    if take == remaining {
                        return Ok((pos, ParseStep::Done(self.finish())));
                    }
                    self.state = ParseState::FixedBody {
                        remaining: remaining - take,
                    };
                    return Ok((pos, ParseStep::NeedMore));
                }
                ParseState::ChunkHeader => match self.take_line(input, &mut pos)? {
                    None => return Ok((pos, ParseStep::NeedMore)),
                    Some(line) => {
                        // Chunk extensions (after ';') are allowed and ignored.
                        let size_str = line.split(';').next().unwrap_or("").trim();
                        // Strictly 1*HEXDIG (RFC 9112): `from_str_radix`
                        // alone would also accept a leading `+`.
                        if size_str.is_empty() || !size_str.bytes().all(|b| b.is_ascii_hexdigit()) {
                            return Err(bad(format!("bad chunk size `{size_str}`")));
                        }
                        let size = usize::from_str_radix(size_str, 16)
                            .map_err(|_| bad(format!("bad chunk size `{size_str}`")))?;
                        if size == 0 {
                            self.state = ParseState::Trailers;
                        } else {
                            // `body.len() <= MAX_BODY_BYTES` is invariant
                            // here, so the subtraction cannot underflow —
                            // and unlike `body.len() + size`, this cannot
                            // overflow for an attacker-chosen 16-digit
                            // hex size.
                            if size > MAX_BODY_BYTES - self.body.len() {
                                return Err(HttpError::PayloadTooLarge);
                            }
                            self.state = ParseState::ChunkData { remaining: size };
                        }
                    }
                },
                ParseState::ChunkData { remaining } => {
                    let take = remaining.min(input.len() - pos);
                    self.body.extend_from_slice(&input[pos..pos + take]);
                    pos += take;
                    if take == remaining {
                        self.state = ParseState::ChunkSep;
                    } else {
                        self.state = ParseState::ChunkData {
                            remaining: remaining - take,
                        };
                        return Ok((pos, ParseStep::NeedMore));
                    }
                }
                ParseState::ChunkSep => match self.take_line(input, &mut pos)? {
                    None => return Ok((pos, ParseStep::NeedMore)),
                    Some(line) if line.is_empty() => self.state = ParseState::ChunkHeader,
                    Some(_) => return Err(bad("missing CRLF after chunk data")),
                },
                ParseState::Trailers => match self.take_line(input, &mut pos)? {
                    None => return Ok((pos, ParseStep::NeedMore)),
                    Some(line) if line.is_empty() => {
                        return Ok((pos, ParseStep::Done(self.finish())))
                    }
                    Some(_) => {} // trailers are discarded
                },
            }
        }
    }

    /// Pulls one CRLF- (or LF-) terminated line out of `input` starting
    /// at `pos`, buffering partial lines across calls. `None` means the
    /// line is not complete yet (all input consumed).
    fn take_line(&mut self, input: &[u8], pos: &mut usize) -> Result<Option<String>, HttpError> {
        match input[*pos..].iter().position(|&b| b == b'\n') {
            Some(nl) => {
                self.line.extend_from_slice(&input[*pos..*pos + nl]);
                *pos += nl + 1;
                if self.line.last() == Some(&b'\r') {
                    self.line.pop();
                }
                if self.line.len() > MAX_LINE_BYTES {
                    return Err(bad("header line too long"));
                }
                let s = String::from_utf8(std::mem::take(&mut self.line))
                    .map_err(|_| bad("non-UTF-8 header line"))?;
                Ok(Some(s))
            }
            None => {
                self.line.extend_from_slice(&input[*pos..]);
                *pos = input.len();
                if self.line.len() > MAX_LINE_BYTES {
                    return Err(bad("header line too long"));
                }
                Ok(None)
            }
        }
    }

    fn parse_request_line(&mut self, request_line: &str) -> Result<(), HttpError> {
        let mut parts = request_line.split_whitespace();
        let method = parts.next().ok_or_else(|| bad("empty request line"))?;
        let target = parts
            .next()
            .ok_or_else(|| bad("request line missing target"))?;
        let version = parts
            .next()
            .ok_or_else(|| bad("request line missing HTTP version"))?;
        if parts.next().is_some() {
            return Err(bad("malformed request line"));
        }
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(bad(format!("unsupported HTTP version `{version}`")));
        }
        self.version_11 = version == "HTTP/1.1";
        self.method = method.to_string();
        match target.split_once('?') {
            Some((p, q)) => {
                self.path = p.to_string();
                self.query = parse_query(q);
            }
            None => {
                self.path = target.to_string();
                self.query = Vec::new();
            }
        }
        Ok(())
    }

    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The anti-smuggling body-framing decision: a Transfer-Encoding this
    /// server does not decode, Transfer-Encoding combined with
    /// Content-Length, or conflicting duplicate Content-Length headers
    /// are each rejected outright — silently picking one interpretation
    /// is how request smuggling happens once a proxy sits in front.
    /// Every repeated field line counts: per RFC 7230 duplicates combine
    /// into one list, so the coding check must see them all.
    fn body_framing(&self) -> Result<Framing, HttpError> {
        let content_lengths: Vec<&str> = self
            .headers
            .iter()
            .filter(|(k, _)| k.eq_ignore_ascii_case("Content-Length"))
            .map(|(_, v)| v.trim())
            .collect();
        let transfer_encodings: Vec<&str> = self
            .headers
            .iter()
            .filter(|(k, _)| k.eq_ignore_ascii_case("Transfer-Encoding"))
            .map(|(_, v)| v.as_str())
            .collect();
        if !transfer_encodings.is_empty() {
            let mut codings = transfer_encodings
                .iter()
                .flat_map(|v| v.split(','))
                .map(str::trim)
                .filter(|t| !t.is_empty());
            let only_chunked = codings
                .next()
                .is_some_and(|t| t.eq_ignore_ascii_case("chunked"))
                && codings.next().is_none();
            if !only_chunked {
                return Err(bad(format!(
                    "unsupported Transfer-Encoding `{}`",
                    transfer_encodings.join(", ")
                )));
            }
            if !content_lengths.is_empty() {
                return Err(bad("Transfer-Encoding combined with Content-Length"));
            }
            return Ok(Framing::Chunked);
        }
        if let Some(&cl) = content_lengths.first() {
            if content_lengths.iter().any(|&c| c != cl) {
                return Err(bad("conflicting Content-Length headers"));
            }
            // Strictly 1*DIGIT (RFC 9110): Rust's `parse` would also
            // accept a leading `+`, which a stricter front proxy may
            // reject or reinterpret — the same parser-disagreement class
            // as the Transfer-Encoding checks above.
            if cl.is_empty() || !cl.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad(format!("bad Content-Length `{cl}`")));
            }
            let len: usize = cl
                .parse()
                .map_err(|_| bad(format!("bad Content-Length `{cl}`")))?;
            if len > MAX_BODY_BYTES {
                return Err(HttpError::PayloadTooLarge);
            }
            return Ok(Framing::Fixed(len));
        }
        Ok(Framing::None)
    }

    /// Builds the finished request and resets for the next one.
    fn finish(&mut self) -> Request {
        let keep_alive = match self.header("Connection") {
            Some(c) if c.eq_ignore_ascii_case("close") => false,
            Some(c) if c.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version_11, // 1.1 defaults to keep-alive
        };
        let req = Request {
            method: std::mem::take(&mut self.method),
            path: std::mem::take(&mut self.path),
            query: std::mem::take(&mut self.query),
            headers: std::mem::take(&mut self.headers),
            body: std::mem::take(&mut self.body),
            keep_alive,
        };
        self.state = ParseState::RequestLine;
        self.line.clear();
        self.version_11 = true;
        self.interim_sent = false;
        req
    }
}

enum Framing {
    None,
    Fixed(usize),
    Chunked,
}

/// Decodes `%XX` escapes and `+` (as space) in a query component.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                match bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

/// An outgoing response. Construct with [`Response::json`] /
/// [`Response::text`] and send with [`Response::write_to`].
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    /// Extra header name/value pairs beyond the framing headers that
    /// [`write_to`](Response::write_to) always emits (`Content-Type`,
    /// `Content-Length`, `Connection`). Values must not contain CR/LF.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn json(status: u16, value: &serde_json::Value) -> Response {
        let body = serde_json::to_string(value)
            .expect("serialize response JSON")
            .into_bytes();
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }

    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// Text response with an explicit content type (e.g. the Prometheus
    /// exposition format's `text/plain; version=0.0.4`).
    pub fn text_with_type(status: u16, content_type: &'static str, body: String) -> Response {
        Response {
            status,
            content_type,
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// Attaches one extra response header (builder style).
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes the response; `keep_alive` controls the `Connection`
    /// header (the server closes the socket when it is false).
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        parse_byte_at_a_time(raw.as_bytes()).map(|(req, _)| req)
    }

    #[test]
    fn parses_request_with_content_length() {
        let req = parse(
            "POST /v1/optimize?omega=80 HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/optimize");
        assert_eq!(req.query_param("omega"), Some("80"));
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive);
    }

    #[test]
    fn parses_chunked_body() {
        let raw = "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                   4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
        let req = parse(raw).unwrap();
        assert_eq!(req.body, b"Wikipedia");
    }

    #[test]
    fn huge_chunk_size_is_payload_too_large_not_overflow() {
        // A chunk size crafted so `body.len() + size` wraps around usize
        // must hit the 413 path, not bypass the cap and panic on the
        // body buffer (regression: remote DoS via integer overflow).
        let raw = format!(
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
             10\r\n0123456789abcdef\r\n{:x}\r\n",
            usize::MAX - 14
        );
        assert!(matches!(parse(&raw), Err(HttpError::PayloadTooLarge)));
        // Same for a single oversized (but non-wrapping) chunk.
        let raw = format!(
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&raw), Err(HttpError::PayloadTooLarge)));
    }

    #[test]
    fn ambiguous_body_framing_is_rejected() {
        // Transfer-Encoding we cannot decode: never fall back to
        // Content-Length framing.
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\nContent-Length: 2\r\n\r\nhi"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n\r\n0\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        // Both framings at once.
        assert!(matches!(
            parse(
                "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n\
                 0\r\n\r\n"
            ),
            Err(HttpError::BadRequest(_))
        ));
        // A second Transfer-Encoding field line combines with the first
        // (RFC 7230): `chunked` + `gzip` across two lines is as ambiguous
        // as `chunked, gzip` in one.
        assert!(matches!(
            parse(
                "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: gzip\r\n\r\n\
                 0\r\n\r\n"
            ),
            Err(HttpError::BadRequest(_))
        ));
        // Conflicting duplicate Content-Length headers.
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nhi "),
            Err(HttpError::BadRequest(_))
        ));
        // Agreeing duplicates are harmless and accepted.
        let req =
            parse("POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi").unwrap();
        assert_eq!(req.body, b"hi");
    }

    #[test]
    fn eof_between_requests_is_clean() {
        // Between requests the parser wants bytes and owes nothing: no
        // error and no step to act on, so a peer closing here is a clean
        // keep-alive teardown.
        let mut parser = RequestParser::new();
        let (consumed, step) = parser.advance(&[]).unwrap();
        assert_eq!(consumed, 0);
        assert!(matches!(step, ParseStep::NeedMore), "got {step:?}");
        let raw = b"GET / HTTP/1.1\r\n\r\n";
        let (consumed, _) = drive(&mut parser, raw);
        assert_eq!(consumed, raw.len());
        let (consumed, step) = parser.advance(&[]).unwrap();
        assert_eq!(consumed, 0);
        assert!(matches!(step, ParseStep::NeedMore), "got {step:?}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            parse("garbage\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/3.0\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: zonk\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        // Signed numbers are not 1*DIGIT / 1*HEXDIG, even though Rust's
        // integer parsers would accept the `+`.
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: +2\r\n\r\nhi"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n+2\r\nhi\r\n0\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn connection_close_header_wins() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn query_decoding() {
        let req = parse("GET /p?label=a%20b+c&flag HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("label"), Some("a b c"));
        assert_eq!(req.query_param("flag"), Some(""));
    }

    #[test]
    fn expect_100_continue_gets_the_interim_response_before_the_body() {
        // All of the head arrives first: the interim must be emitted
        // before the parser asks for a single body byte.
        let head = b"POST /x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n";
        let mut parser = RequestParser::new();
        let (consumed, step) = parser.advance(head).unwrap();
        assert_eq!(consumed, head.len());
        assert!(matches!(step, ParseStep::HeadersDone), "got {step:?}");
        let (_, step) = parser.advance(&[]).unwrap();
        assert!(
            matches!(step, ParseStep::Interim(bytes) if bytes == b"HTTP/1.1 100 Continue\r\n\r\n"),
            "got {step:?}"
        );
        let (_, step) = parser.advance(&[]).unwrap();
        assert!(matches!(step, ParseStep::NeedMore), "got {step:?}");
        let (_, req) = drive(&mut parser, b"hi");
        assert_eq!(req.body, b"hi");

        // No Expect header: nothing interim is emitted.
        let (_, interim) = parse_byte_at_a_time(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(interim.is_empty());
    }

    /// Drives the incremental parser one byte at a time — the shape the
    /// evented frontend sees under a slow client — and returns the
    /// request plus any interim bytes.
    fn parse_byte_at_a_time(raw: &[u8]) -> Result<(Request, Vec<u8>), HttpError> {
        let mut parser = RequestParser::new();
        let mut interim = Vec::new();
        let mut buf: Vec<u8> = Vec::new();
        let mut fed = 0;
        loop {
            let (consumed, step) = parser.advance(&buf)?;
            buf.drain(..consumed);
            match step {
                ParseStep::Done(req) => return Ok((req, interim)),
                ParseStep::HeadersDone => {}
                ParseStep::Interim(bytes) => interim.extend_from_slice(bytes),
                ParseStep::NeedMore => {
                    assert!(buf.is_empty(), "NeedMore must consume everything");
                    assert!(fed < raw.len(), "parser starved: wants more than the input");
                    buf.push(raw[fed]);
                    fed += 1;
                }
            }
        }
    }

    #[test]
    fn incremental_parser_handles_byte_at_a_time_content_length() {
        let raw =
            b"POST /v1/optimize?omega=80 HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let (req, interim) = parse_byte_at_a_time(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/optimize");
        assert_eq!(req.query_param("omega"), Some("80"));
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive);
        assert!(interim.is_empty());
    }

    #[test]
    fn incremental_parser_handles_byte_at_a_time_chunked() {
        let raw = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    4\r\nWiki\r\n5\r\npedia\r\n0\r\nX-Trailer: ignored\r\n\r\n";
        let (req, _) = parse_byte_at_a_time(raw).unwrap();
        assert_eq!(req.body, b"Wikipedia");
    }

    #[test]
    fn incremental_parser_emits_interim_exactly_once() {
        let raw = b"POST /x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nhi";
        let (req, interim) = parse_byte_at_a_time(raw).unwrap();
        assert_eq!(req.body, b"hi");
        assert_eq!(interim, b"HTTP/1.1 100 Continue\r\n\r\n");

        // Expect + empty body: the request must complete without the
        // parser demanding bytes that will never come.
        let raw = b"POST /x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 0\r\n\r\n";
        let (req, interim) = parse_byte_at_a_time(raw).unwrap();
        assert!(req.body.is_empty());
        assert_eq!(interim, b"HTTP/1.1 100 Continue\r\n\r\n");
    }

    /// Advances through the zero-input steps (HeadersDone, Interim)
    /// until `Done`, returning how much of `input` was consumed.
    fn drive(parser: &mut RequestParser, input: &[u8]) -> (usize, Request) {
        let mut consumed = 0;
        loop {
            let (n, step) = parser.advance(&input[consumed..]).unwrap();
            consumed += n;
            match step {
                ParseStep::Done(r) => return (consumed, r),
                ParseStep::NeedMore => panic!("parser starved at {consumed}"),
                ParseStep::HeadersDone | ParseStep::Interim(_) => {}
            }
        }
    }

    #[test]
    fn incremental_parser_leaves_pipelined_bytes_unconsumed() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut parser = RequestParser::new();
        let (consumed, req) = drive(&mut parser, raw);
        assert_eq!(req.path, "/a");
        assert!(consumed < raw.len(), "second request must stay buffered");
        // The same parser instance, reset by `finish`, parses the rest.
        let (consumed2, req) = drive(&mut parser, &raw[consumed..]);
        assert_eq!(req.path, "/b");
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn headers_done_precedes_the_interim_and_exposes_the_head() {
        // The admission hook must fire BEFORE the 100 Continue interim —
        // a refused client must not be invited to upload its body.
        let raw = b"POST /v1/optimize?omega=80 HTTP/1.1\r\nHost: t\r\n\
                    Expect: 100-continue\r\nContent-Length: 2\r\n\r\n";
        let mut parser = RequestParser::new();
        let (consumed, step) = parser.advance(raw).unwrap();
        assert_eq!(consumed, raw.len());
        assert!(matches!(step, ParseStep::HeadersDone), "got {step:?}");
        assert_eq!(parser.head_method(), "POST");
        assert_eq!(parser.head_path(), "/v1/optimize");
        assert!(parser.body_expected());
        let (_, step) = parser.advance(&[]).unwrap();
        assert!(matches!(step, ParseStep::Interim(_)), "got {step:?}");

        // Bodyless requests report no body to wait for.
        let mut parser = RequestParser::new();
        let (_, step) = parser.advance(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert!(matches!(step, ParseStep::HeadersDone), "got {step:?}");
        assert!(!parser.body_expected());
        let mut parser = RequestParser::new();
        let (_, step) = parser
            .advance(b"POST /x HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        assert!(matches!(step, ParseStep::HeadersDone), "got {step:?}");
        assert!(!parser.body_expected());
    }

    #[test]
    fn incremental_parser_enforces_line_and_body_limits_mid_stream() {
        // An unterminated request line must fail as soon as the limit is
        // crossed — not only once a newline arrives (slowloris defense).
        let mut parser = RequestParser::new();
        let chunk = vec![b'a'; 4096];
        let mut crossed = false;
        for _ in 0..4 {
            match parser.advance(&chunk) {
                Ok((n, ParseStep::NeedMore)) => assert_eq!(n, chunk.len()),
                Ok((_, other)) => panic!("unexpected step {other:?}"),
                Err(HttpError::BadRequest(msg)) => {
                    assert!(msg.contains("too long"), "msg: {msg}");
                    crossed = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(crossed, "oversized line must be rejected without a newline");

        // Declared oversized body is refused at the framing decision
        // (the step after the headers-complete admission hook).
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let mut parser = RequestParser::new();
        let (n, step) = parser.advance(raw.as_bytes()).unwrap();
        assert!(matches!(step, ParseStep::HeadersDone), "got {step:?}");
        assert!(matches!(
            parser.advance(&raw.as_bytes()[n..]),
            Err(HttpError::PayloadTooLarge)
        ));
    }

    #[test]
    fn response_serializes_with_length() {
        let mut out = Vec::new();
        Response::text(200, "ok").write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nok"));
    }

    /// Every status the API emits — the `ApiError` taxonomy plus the
    /// transport codes — goes out with its reason phrase, never `Unknown`.
    #[test]
    fn every_status_the_api_emits_has_a_reason_phrase() {
        let taxonomy = qapi::ApiError::exemplars()
            .iter()
            .map(|e| e.http_status())
            .collect::<Vec<_>>();
        for status in taxonomy.into_iter().chain([200, 202, 400, 404, 405, 413]) {
            let mut out = Vec::new();
            Response::text(status, "")
                .write_to(&mut out, false)
                .unwrap();
            let text = String::from_utf8(out).unwrap();
            let status_line = text.lines().next().unwrap();
            assert!(!status_line.ends_with(" Unknown"), "{status_line}");
        }
    }

    #[test]
    fn extra_headers_land_before_the_body() {
        let mut out = Vec::new();
        Response::text(200, "ok")
            .with_header("x-popqc-request-id", "req-1-2")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
        assert!(head.contains("x-popqc-request-id: req-1-2"), "head: {head}");
        assert_eq!(body, "ok");
    }
}
