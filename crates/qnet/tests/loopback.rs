//! Loopback tests for the readiness loop itself, protocol-free: a toy
//! line-echo driver proves the sweep/dispatch/completion path, and the
//! admission controls (connection cap, read deadline, partial-write
//! buffering) are exercised with raw sockets doing deliberately
//! antisocial things. Two more pin how the loop waits: it answers an
//! idle connection at once, and a reset peer does not make it spin.

use qnet::{Action, Driver, DriverFactory, NetConfig, NetServer};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Echoes each `\n`-terminated line through the dispatcher pool;
/// `quit` answers inline and closes; `big` answers with `BIG_BYTES` of
/// payload (the partial-write test); `empty` answers with zero bytes
/// (a dispatch that legitimately writes nothing); `slow` sends an
/// interim `working` line, then answers `done` from a dispatch that
/// takes `SLOW_DISPATCH`.
struct EchoDriver;

const BIG_BYTES: usize = 8 * 1024 * 1024;
const SLOW_DISPATCH: Duration = Duration::from_millis(500);

impl Driver for EchoDriver {
    fn on_data(&mut self, input: &mut Vec<u8>, out: &mut Vec<Action>) {
        while let Some(pos) = input.iter().position(|&b| b == b'\n') {
            let mut line: Vec<u8> = input.drain(..=pos).collect();
            line.pop(); // trailing \n
            if line == b"quit" {
                out.push(Action::Respond {
                    bytes: b"bye\n".to_vec(),
                    keep_alive: false,
                });
            } else if line == b"big" {
                out.push(Action::Dispatch(Box::new(move || {
                    (vec![b'x'; BIG_BYTES], true)
                })));
                break; // busy until the completion posts back
            } else if line == b"empty" {
                out.push(Action::Dispatch(Box::new(move || (Vec::new(), true))));
                break;
            } else if line == b"slow" {
                out.push(Action::Interim(b"working\n".to_vec()));
                out.push(Action::Dispatch(Box::new(move || {
                    std::thread::sleep(SLOW_DISPATCH);
                    (b"done\n".to_vec(), true)
                })));
                break;
            } else {
                line.push(b'\n');
                out.push(Action::Dispatch(Box::new(move || (line, true))));
                break;
            }
        }
    }
}

struct EchoFactory;

impl DriverFactory for EchoFactory {
    fn make(&self, _peer: SocketAddr) -> Box<dyn Driver> {
        Box::new(EchoDriver)
    }
}

fn start(config: NetConfig) -> NetServer {
    NetServer::serve("127.0.0.1:0", Arc::new(EchoFactory), config).expect("bind loopback")
}

fn read_line(stream: &mut TcpStream) -> std::io::Result<String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let n = stream.read(&mut byte)?;
        if n == 0 {
            return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "peer closed"));
        }
        if byte[0] == b'\n' {
            return Ok(String::from_utf8_lossy(&line).into_owned());
        }
        line.push(byte[0]);
    }
}

#[test]
fn echo_roundtrips_with_keepalive_and_inline_close() {
    let server = start(NetConfig::default());
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // Several requests on one connection: the dispatch → completion →
    // write path, repeatedly.
    for i in 0..5 {
        writeln!(s, "hello-{i}").unwrap();
        assert_eq!(read_line(&mut s).unwrap(), format!("hello-{i}"));
    }
    // Inline response + close.
    writeln!(s, "quit").unwrap();
    assert_eq!(read_line(&mut s).unwrap(), "bye");
    let mut rest = Vec::new();
    assert_eq!(s.read_to_end(&mut rest).unwrap(), 0, "server must close");
    assert_eq!(server.stats().connections_accepted(), 1);
}

#[test]
fn pipelined_requests_answer_in_order() {
    let server = start(NetConfig::default());
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // All three requests land in one write before any response is read;
    // the busy gate must replay the leftover bytes after each completion.
    s.write_all(b"a\nb\nc\n").unwrap();
    for expect in ["a", "b", "c"] {
        assert_eq!(read_line(&mut s).unwrap(), expect);
    }
}

#[test]
fn connection_cap_applies_accept_backpressure() {
    let server = start(NetConfig {
        max_conns: 2,
        ..NetConfig::default()
    });
    let addr = server.local_addr();

    let mut held: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            writeln!(s, "warm").unwrap();
            assert_eq!(read_line(&mut s).unwrap(), "warm");
            s
        })
        .collect();

    // Third connection: connect() succeeds (kernel backlog) but the
    // server must not service it while the cap is reached.
    let mut third = TcpStream::connect(addr).unwrap();
    third
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    writeln!(third, "ping").unwrap();
    match read_line(&mut third) {
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
        other => panic!("capped connection must not be served yet: {other:?}"),
    }

    // Freeing a slot lets the acceptor drain the backlog and serve it.
    drop(held.pop());
    third
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(read_line(&mut third).unwrap(), "ping");
    drop(held);
}

#[test]
fn read_deadline_reaps_idle_and_slowloris_connections() {
    let server = start(NetConfig {
        read_deadline: Duration::from_millis(250),
        ..NetConfig::default()
    });
    let addr = server.local_addr();

    // Idle connection: never sends a byte.
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // Slowloris: trickles bytes without ever completing a line. Steady
    // traffic must NOT reset the deadline — only a completed request
    // does.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let start_t = Instant::now();
    let mut buf = [0u8; 1];
    let mut closed = false;
    for _ in 0..40 {
        if slow.write_all(b"x").is_err() {
            closed = true;
            break;
        }
        match slow.read(&mut buf) {
            Ok(0) => {
                closed = true;
                break;
            }
            Ok(_) => panic!("no response expected for a partial line"),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => {
                closed = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        closed,
        "slowloris trickle must be closed by the deadline, not served forever"
    );
    assert!(
        start_t.elapsed() < Duration::from_secs(3),
        "close must come from the deadline, not a hang"
    );

    // The idle connection is reaped too.
    let n = idle.read(&mut buf).expect("idle close is a clean EOF");
    assert_eq!(n, 0);
    assert!(server.stats().deadline_closes() >= 2);
}

#[test]
fn completed_requests_reset_the_deadline() {
    let server = start(NetConfig {
        read_deadline: Duration::from_millis(400),
        ..NetConfig::default()
    });
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Each round-trip completes a request well inside the deadline; the
    // connection must survive 1s of such traffic.
    for i in 0..10 {
        writeln!(s, "tick-{i}").unwrap();
        assert_eq!(read_line(&mut s).unwrap(), format!("tick-{i}"));
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(server.stats().deadline_closes(), 0);
}

#[test]
fn partial_writes_buffer_without_blocking_the_loop() {
    let server = start(NetConfig {
        loop_threads: 1, // the stalled write and the probe share a loop
        ..NetConfig::default()
    });
    let addr = server.local_addr();

    // A client that requests BIG_BYTES and then refuses to read: the
    // kernel windows fill and the loop must park the remainder in the
    // connection's write buffer.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    writeln!(stalled, "big").unwrap();
    std::thread::sleep(Duration::from_millis(400));

    // The same loop thread must still serve other connections while the
    // big response is parked.
    let mut probe = TcpStream::connect(addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let t0 = Instant::now();
    writeln!(probe, "alive").unwrap();
    assert_eq!(read_line(&mut probe).unwrap(), "alive");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "probe must not wait behind the stalled write"
    );
    assert!(
        server.stats().write_stalls() >= 1,
        "the parked response must be counted as a stall"
    );

    // Now drain: the full payload arrives intact.
    let mut total = 0usize;
    let mut buf = vec![0u8; 64 * 1024];
    while total < BIG_BYTES {
        let n = stalled.read(&mut buf).expect("drain big response");
        assert!(n > 0, "connection closed mid-payload at {total} bytes");
        for &b in &buf[..n] {
            assert_eq!(b, b'x');
        }
        total += n;
    }
    assert_eq!(total, BIG_BYTES);
}

#[test]
fn write_stalled_peer_is_reaped_and_frees_its_slot() {
    // max_conns: 1 makes the leak observable — a pinned slot would
    // stop the acceptor entirely, exactly the failure mode at scale.
    let server = start(NetConfig {
        max_conns: 1,
        read_deadline: Duration::from_millis(300),
        ..NetConfig::default()
    });
    let addr = server.local_addr();

    // Request a response far larger than the kernel's socket buffers
    // and then never read a byte: writes stop progressing (WouldBlock)
    // with the output buffer undrained, which exempts the connection
    // from every drained-output reap. The write-stall deadline must
    // close it anyway.
    let mut hog = TcpStream::connect(addr).unwrap();
    writeln!(hog, "big").unwrap();
    let t0 = Instant::now();
    while server.stats().deadline_closes() == 0 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        server.stats().deadline_closes() >= 1,
        "a peer that never reads must be reaped as a deadline close"
    );

    // The reap released the only slot: a fresh client is served.
    let mut probe = TcpStream::connect(addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    writeln!(probe, "alive").unwrap();
    assert_eq!(read_line(&mut probe).unwrap(), "alive");
    drop(hog);
}

#[test]
fn empty_dispatch_response_keeps_the_connection() {
    // A dispatch that legitimately returns zero bytes is not the
    // panic-teardown path: the connection must stay open and serve the
    // next request.
    let server = start(NetConfig::default());
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    writeln!(s, "empty").unwrap();
    writeln!(s, "still-here").unwrap();
    assert_eq!(read_line(&mut s).unwrap(), "still-here");
}

/// Every request meets a loop that has sat idle for 10 ms, so the loop
/// must notice bytes as they arrive, not on its next timed wake. A loop
/// that waits on a timed read of its waker instead (0.5–4 ms timeouts,
/// which a 250 Hz kernel stretches to 4–8 ms) reads 4–8 ms here and
/// fails.
#[test]
fn requests_to_an_idle_loop_answer_within_two_milliseconds() {
    let server = start(NetConfig::default());
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut rtts: Vec<Duration> = (0..20)
        .map(|i| {
            std::thread::sleep(Duration::from_millis(10));
            // One write: `writeln!` may split the line, and Nagle would
            // then hold the tail for the delayed ACK.
            let line = format!("ping-{i}\n");
            let t0 = Instant::now();
            s.write_all(line.as_bytes()).unwrap();
            assert_eq!(read_line(&mut s).unwrap(), format!("ping-{i}"));
            t0.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(2),
        "median round trip {median:?}, all {rtts:?}"
    );
}

/// CPU time (user + system, in clock ticks) each `qnet-loop-*` thread of
/// this process has used so far, by thread id.
fn loop_thread_ticks() -> HashMap<String, u64> {
    let mut ticks = HashMap::new();
    for entry in std::fs::read_dir("/proc/self/task").expect("list /proc/self/task") {
        let entry = entry.expect("read /proc/self/task entry");
        // A thread may exit between the listing and the read.
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // `tid (comm) state ...`; comm may hold spaces and parentheses.
        let (open, close) = (stat.find('(').unwrap(), stat.rfind(')').unwrap());
        if !stat[open + 1..close].starts_with("qnet-loop-") {
            continue;
        }
        // utime and stime are fields 14 and 15; `after` starts at field 3.
        let after: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        let used = after[11].parse::<u64>().unwrap() + after[12].parse::<u64>().unwrap();
        ticks.insert(entry.file_name().to_string_lossy().into_owned(), used);
    }
    ticks
}

/// A busy connection whose peer reset must leave the poll set until its
/// dispatch completes. The sweep does not read a busy connection, so
/// polling its fd would report the reset on every call and spin the
/// loop for the whole 500 ms dispatch, about 50 ticks. Other tests'
/// loop threads share the process, so the bound is per thread.
#[test]
fn busy_conn_whose_peer_reset_does_not_spin_the_loop() {
    let server = start(NetConfig::default());
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    writeln!(s, "slow").unwrap();
    // Leave the interim line unread, so closing sends a reset.
    let mut buf = [0u8; 1];
    assert_eq!(s.peek(&mut buf).unwrap(), 1);
    let before = loop_thread_ticks();
    drop(s);
    std::thread::sleep(SLOW_DISPATCH);
    let after = loop_thread_ticks();

    let spin = after
        .iter()
        .map(|(tid, &t)| t.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .max()
        .unwrap_or(0);
    assert!(spin < 10, "a loop thread used {spin} ticks while idle");

    // The completion for the reset peer closes the connection.
    let t0 = Instant::now();
    while server.stats().connections_open() > 0 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.stats().connections_open(), 0);
}

#[test]
fn shutdown_closes_connections_and_is_idempotent() {
    let mut server = start(NetConfig::default());
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    writeln!(s, "hello").unwrap();
    assert_eq!(read_line(&mut s).unwrap(), "hello");

    server.shutdown();
    server.shutdown(); // no-op
    let mut buf = [0u8; 16];
    assert_eq!(s.read(&mut buf).unwrap_or(0), 0, "open conns are severed");
    assert_eq!(server.stats().connections_open(), 0);
}
