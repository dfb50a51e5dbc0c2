//! A minimal blocking HTTP/1.1 client over one keep-alive connection —
//! just what the load generator needs, so its own cost stays small next
//! to the server's.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

pub struct Reply {
    pub status: u16,
    /// The raw header block, for the few headers the benchmark reads.
    pub head: String,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().skip(1).find_map(|line| {
            let (k, v) = line.split_once(':')?;
            k.trim().eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }
}

impl Client {
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    pub fn post(&mut self, target: &str, body: &[u8]) -> std::io::Result<Reply> {
        self.buf.clear();
        self.buf.extend_from_slice(&post_bytes(target, body));
        self.round_trip()
    }

    pub fn get(&mut self, target: &str) -> std::io::Result<Reply> {
        self.buf.clear();
        write!(self.buf, "GET {target} HTTP/1.1\r\nHost: ledger\r\n\r\n")?;
        self.round_trip()
    }

    fn round_trip(&mut self) -> std::io::Result<Reply> {
        self.stream.write_all(&self.buf)?;
        self.buf.clear();
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let mut chunk = [0u8; 1 << 16];
        let head_end = loop {
            if let Some(at) = find(&self.buf, b"\r\n\r\n") {
                break at + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed before the response head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let reply = Reply {
            status,
            head,
            body: Vec::new(),
        };
        let len: usize = reply
            .header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("response without Content-Length"))?;
        let mut body = self.buf.split_off(head_end);
        body.reserve(len.saturating_sub(body.len()));
        while body.len() < len {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-body"));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(len);
        Ok(Reply { body, ..reply })
    }
}

/// The bytes of one `POST` request, as the client sends them.
pub fn post_bytes(target: &str, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 128);
    write!(
        out,
        "POST {target} HTTP/1.1\r\nHost: ledger\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("writing to a Vec cannot fail");
    out.extend_from_slice(body);
    out
}

pub fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}
