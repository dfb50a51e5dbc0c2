//! The readiness loop: nonblocking connection sweeps, a gated acceptor,
//! and a dispatcher pool feeding completions back through wakeable
//! mailboxes.
//!
//! Threading model (for a `loop_threads = L`, `dispatch_threads = D`
//! config):
//!
//! * **1 acceptor** — blocking `accept()`, gated by the connection cap:
//!   at `max_conns` it simply stops accepting, so excess connections wait
//!   in the kernel backlog (backpressure) instead of being reset or
//!   pinning threads. New connections are handed round-robin to a loop
//!   thread's mailbox.
//! * **L loop threads** — each owns its connections outright (no shared
//!   connection state, no locks on the data path). A sweep drains the
//!   mailbox, tries each connection with nonblocking reads/writes, runs
//!   the [`Driver`] state machine on new bytes and enforces the
//!   deadlines. Then the thread blocks in one `poll(2)` over its
//!   loopback UDP waker and every connection that wants to read or
//!   write, until one is ready or the earliest deadline falls due; with
//!   no deadline armed it waits without a timeout, so an idle loop uses
//!   no CPU.
//! * **D dispatcher threads** — run [`Action::Dispatch`] closures (the
//!   blocking handler path: oracle work, coalesced waits). A connection
//!   with a dispatch in flight is *busy*: the loop feeds it no further
//!   input, which both preserves pipeline order and applies natural
//!   backpressure. Completions post `(bytes, keep_alive)` back to the
//!   owning loop's mailbox and fire its waker, which ends the loop's
//!   `poll`, so responses leave on the next sweep.

use crate::stats::NetStats;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs, UdpSocket,
};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Work handed to the dispatcher pool; returns the serialized response
/// bytes and whether the connection should stay open.
pub type DispatchFn = Box<dyn FnOnce() -> (Vec<u8>, bool) + Send + 'static>;

/// What a [`Driver`] wants done after consuming input.
pub enum Action {
    /// Queue bytes that do *not* complete a request (e.g. a
    /// `100 Continue` interim response). Does not reset the read
    /// deadline.
    Interim(Vec<u8>),
    /// A complete response produced inline on the loop thread
    /// (admission refusals, protocol errors). Completes the current
    /// request: resets the read deadline and, with `keep_alive: false`,
    /// closes after the write drains.
    Respond {
        /// Serialized response bytes.
        bytes: Vec<u8>,
        /// Whether the connection stays open for the next request.
        keep_alive: bool,
    },
    /// Run the closure on the dispatcher pool; the connection is busy
    /// (no further reads) until the completion posts back.
    Dispatch(DispatchFn),
    /// A final response to a request whose rest is never read (a refusal
    /// before the body, a protocol error): queue `bytes` and close
    /// lingering once they drain. The write side is shut down, and what
    /// the peer still sends is discarded until it closes or two seconds
    /// pass: a plain close over unread input resets the connection, which
    /// fails a peer still uploading before it reads the response.
    Refuse(Vec<u8>),
    /// Protocol-fatal: close the connection once pending writes drain.
    Close,
}

/// A per-connection protocol state machine.
///
/// The loop calls [`Driver::on_data`] whenever the connection has
/// unconsumed input and is not busy. The driver drains what it can from
/// the *front* of `input` (leaving partial frames in place) and pushes
/// actions in order. After an [`Action::Dispatch`] the driver must stop
/// consuming — remaining pipelined bytes are replayed once the dispatch
/// completes.
pub trait Driver: Send + 'static {
    /// Consume bytes and emit actions.
    fn on_data(&mut self, input: &mut Vec<u8>, out: &mut Vec<Action>);

    /// Called on the event loop once the connection's output buffer has
    /// fully drained to the kernel — i.e. the last queued response has
    /// been handed off. Drivers that account write-flush time (tracing)
    /// hook this; the default is a no-op.
    fn on_output_drained(&mut self) {}
}

/// Builds one [`Driver`] per accepted connection.
pub trait DriverFactory: Send + Sync + 'static {
    /// Called on the acceptor thread for each new connection.
    fn make(&self, peer: SocketAddr) -> Box<dyn Driver>;
}

/// Tuning for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Event-loop threads. Each owns its connections; 4 covers hundreds
    /// of keep-alive clients.
    pub loop_threads: usize,
    /// Dispatcher threads running blocking handler work. Bounds the
    /// number of concurrently *executing* (not open) requests.
    pub dispatch_threads: usize,
    /// Open-connection cap; the acceptor stops accepting at the cap.
    pub max_conns: usize,
    /// A connection must complete a request within this window (measured
    /// from accept or from its previous completed request) or it is
    /// closed — one knob covering both idle keep-alive and slowloris.
    /// The same window bounds write stalls: a peer whose responses make
    /// no write progress for this long (it stopped reading) is closed
    /// too.
    pub read_deadline: Duration,
    /// Per-connection input buffer cap; must exceed the largest request
    /// the protocol driver accepts. Also bounds the *output* backlog a
    /// non-reading peer can accumulate: at `max_buffer` of undrained
    /// responses the connection gets no further reads until the peer
    /// drains some.
    pub max_buffer: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            loop_threads: 4,
            dispatch_threads: 8,
            max_conns: 1024,
            read_deadline: Duration::from_secs(30),
            max_buffer: 32 * 1024 * 1024,
        }
    }
}

/// Sweep read cap per connection so one firehose peer cannot starve the
/// rest of the sweep (`poll` reports the unread rest at once, so the loop
/// re-sweeps immediately).
const READ_SLICE: usize = 256 * 1024;

/// How long a connection closed by [`Action::Refuse`] waits for its peer
/// to close, or the read deadline if that is shorter.
const LINGER: Duration = Duration::from_secs(2);

/// `struct pollfd` from `<poll.h>`. An entry whose `fd` is negative is
/// skipped by the kernel.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Blocks until an entry of `fds` is ready or `timeout_ms` passes (`-1`
/// waits without limit), filling in each entry's `revents`. An error
/// (in practice `EINTR`) is a wake like any other: the loop re-sweeps
/// and polls again.
fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) {
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // entries laid out as `struct pollfd`, and exactly its length is
    // passed as `nfds`, so the kernel reads and writes (`revents` only)
    // inside the slice and keeps no pointer past the call.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
}

/// The `poll` entry for one connection: `POLLIN` exactly when the sweep
/// would read it, `POLLOUT` while output is pending, and fd `-1` when it
/// wants neither. Passing the fd with no events would still report
/// `POLLHUP`/`POLLERR`: a busy connection whose peer reset would wake
/// the loop on every call until its dispatch completes.
fn interest(c: &Conn, max_buffer: usize) -> PollFd {
    let mut events = 0;
    if c.wants_read(max_buffer) {
        events |= POLLIN;
    }
    if !c.output_drained() {
        events |= POLLOUT;
    }
    let fd = if events == 0 {
        -1
    } else {
        c.stream.as_raw_fd()
    };
    PollFd {
        fd,
        events,
        revents: 0,
    }
}

/// The `poll` timeout: milliseconds until the earliest connection
/// deadline, rounded up so the wake finds it due (a deadline already
/// past gives 0), or `-1` when no deadline is armed.
fn poll_timeout<'a>(
    conns: impl IntoIterator<Item = &'a Conn>,
    read_deadline: Duration,
    now: Instant,
) -> c_int {
    let deadlines = conns.into_iter().filter_map(|c| c.deadline(read_deadline));
    let Some(due) = deadlines.min() else {
        return -1;
    };
    let left = due.saturating_duration_since(now);
    c_int::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
}

enum Mail {
    NewConn(u64, TcpStream, Box<dyn Driver>),
    Complete {
        conn: u64,
        /// `None` means the dispatch panicked inside qnet (driver bug):
        /// there is nothing sane to send and the connection is dropped.
        /// An explicit variant rather than an empty byte vector, so a
        /// driver whose dispatch legitimately produces no bytes keeps
        /// its connection.
        bytes: Option<Vec<u8>>,
        keep_alive: bool,
    },
    Shutdown,
}

/// Cross-thread postbox: one mailbox + waker address per loop thread.
struct Router {
    mailboxes: Vec<Mutex<VecDeque<Mail>>>,
    waker_addrs: Vec<SocketAddr>,
    wake_tx: UdpSocket,
}

impl Router {
    fn post(&self, idx: usize, mail: Mail) {
        self.mailboxes[idx]
            .lock()
            .expect("mailbox poisoned")
            .push_back(mail);
        self.wake(idx);
    }

    fn wake(&self, idx: usize) {
        let _ = self.wake_tx.send_to(&[1], self.waker_addrs[idx]);
    }
}

/// The connection-cap gate shared by the acceptor (waits) and the loop
/// threads (decrement + notify on close).
struct Gate {
    open: Mutex<usize>,
    changed: Condvar,
}

struct DispatchJob {
    loop_idx: usize,
    conn: u64,
    f: DispatchFn,
}

struct DispatchShared {
    queue: Mutex<VecDeque<DispatchJob>>,
    ready: Condvar,
    stop: AtomicBool,
}

struct Conn {
    stream: TcpStream,
    driver: Box<dyn Driver>,
    input: Vec<u8>,
    output: Vec<u8>,
    out_pos: usize,
    busy: bool,
    closing: bool,
    read_closed: bool,
    /// Close lingering once the output drains ([`Action::Refuse`]).
    linger: bool,
    /// While lingering: when the sweep stops waiting for the peer's close.
    linger_until: Option<Instant>,
    stalled: bool,
    last_request: Instant,
    /// Last time the peer made write progress (or the backlog was
    /// empty). A peer that stops reading its responses is reaped when
    /// this goes stale — see [`Conn::deadline`].
    last_write: Instant,
}

impl Conn {
    fn new(stream: TcpStream, driver: Box<dyn Driver>) -> Conn {
        Conn {
            stream,
            driver,
            input: Vec::new(),
            output: Vec::new(),
            out_pos: 0,
            busy: false,
            closing: false,
            read_closed: false,
            linger: false,
            linger_until: None,
            stalled: false,
            last_request: Instant::now(),
            last_write: Instant::now(),
        }
    }

    fn queue_output(&mut self, bytes: Vec<u8>) {
        if self.output_drained() {
            self.output = bytes;
            self.out_pos = 0;
            // A fresh backlog starts its stall clock now, not at the
            // last write of some long-gone earlier response.
            self.last_write = Instant::now();
        } else {
            // Compact the already-written prefix so a long-lived
            // connection's buffer holds only unsent bytes.
            if self.out_pos > 0 {
                self.output.drain(..self.out_pos);
                self.out_pos = 0;
            }
            self.output.extend_from_slice(&bytes);
        }
    }

    fn output_drained(&self) -> bool {
        self.out_pos >= self.output.len()
    }

    /// Bytes queued but not yet accepted by the kernel.
    fn pending_output(&self) -> usize {
        self.output.len() - self.out_pos
    }

    /// Whether the driver is ready for more input. A peer with
    /// `max_buffer` of undrained responses gets no further reads
    /// (pipelining backpressure): the output backlog stays bounded
    /// instead of growing with every pipelined request the peer refuses
    /// to read the answer to.
    fn wants_read(&self, max_buffer: usize) -> bool {
        !self.busy
            && (!self.closing || self.linger_until.is_some())
            && !self.read_closed
            && self.input.len() < max_buffer
            && self.pending_output() < max_buffer
    }

    /// When the sweep reaps this connection if nothing changes, or
    /// `None` while it is exempt.
    ///
    /// * Read deadline: anchored to the last *completed* request, so
    ///   both a slowloris trickle and an idle keep-alive connection hit
    ///   it. Connections waiting on a dispatched job or still draining a
    ///   response are exempt.
    /// * Write-stall deadline: the read deadline exempts a connection
    ///   with undrained output, so a peer that sends requests and then
    ///   never reads the responses (kernel send buffer full, writes
    ///   return WouldBlock) would otherwise pin a `max_conns` slot
    ///   forever. No write progress for a whole `read_deadline` means
    ///   the peer is gone or hostile; it is reaped even mid-dispatch
    ///   (the completion for a removed connection is dropped
    ///   harmlessly).
    /// * Linger deadline: a lingering connection is reaped when its
    ///   linger time is up.
    fn deadline(&self, read_deadline: Duration) -> Option<Instant> {
        if self.linger_until.is_some() {
            self.linger_until
        } else if !self.output_drained() {
            self.last_write.checked_add(read_deadline)
        } else if !self.busy {
            self.last_request.checked_add(read_deadline)
        } else {
            None
        }
    }
}

/// A running readiness-driven server. Dropping it shuts everything down.
pub struct NetServer {
    local_addr: SocketAddr,
    stats: Arc<NetStats>,
    router: Arc<Router>,
    gate: Arc<Gate>,
    dispatch: Arc<DispatchShared>,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` and starts the acceptor, loop, and dispatcher
    /// threads.
    pub fn serve<A: ToSocketAddrs>(
        addr: A,
        factory: Arc<dyn DriverFactory>,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        NetServer::serve_with_stats(addr, factory, config, Arc::new(NetStats::default()))
    }

    /// [`serve`](Self::serve) with caller-provided counters, so a
    /// protocol driver that refuses requests itself (rate limiting, load
    /// shedding) can record into the same [`NetStats`] the server
    /// updates — one coherent report per server.
    pub fn serve_with_stats<A: ToSocketAddrs>(
        addr: A,
        factory: Arc<dyn DriverFactory>,
        config: NetConfig,
        stats: Arc<NetStats>,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let loop_threads = config.loop_threads.max(1);
        let dispatch_threads = config.dispatch_threads.max(1);
        let max_conns = config.max_conns.max(1);
        let stop = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(Gate {
            open: Mutex::new(0),
            changed: Condvar::new(),
        });
        let dispatch = Arc::new(DispatchShared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
        });

        // One waker socket per loop thread; the router keeps a shared
        // sender. Loopback UDP only — nothing leaves the host. Nonblocking,
        // so the loop can drain every queued datagram after a wake.
        let mut wakers = Vec::with_capacity(loop_threads);
        let mut waker_addrs = Vec::with_capacity(loop_threads);
        for _ in 0..loop_threads {
            let sock = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
            sock.set_nonblocking(true)?;
            waker_addrs.push(sock.local_addr()?);
            wakers.push(sock);
        }
        let router = Arc::new(Router {
            mailboxes: (0..loop_threads)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            waker_addrs,
            wake_tx: UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?,
        });

        let mut threads = Vec::new();
        for (idx, waker) in wakers.into_iter().enumerate() {
            let router = Arc::clone(&router);
            let gate = Arc::clone(&gate);
            let stats = Arc::clone(&stats);
            let dispatch = Arc::clone(&dispatch);
            let cfg = config.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("qnet-loop-{idx}"))
                    .spawn(move || event_loop(idx, waker, router, gate, stats, dispatch, cfg))
                    .expect("spawn loop thread"),
            );
        }
        for idx in 0..dispatch_threads {
            let dispatch = Arc::clone(&dispatch);
            let router = Arc::clone(&router);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("qnet-dispatch-{idx}"))
                    .spawn(move || dispatch_loop(dispatch, router))
                    .expect("spawn dispatch thread"),
            );
        }
        {
            let router = Arc::clone(&router);
            let gate = Arc::clone(&gate);
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            threads.push(
                std::thread::Builder::new()
                    .name("qnet-accept".into())
                    .spawn(move || {
                        accept_loop(
                            listener,
                            factory,
                            router,
                            gate,
                            stats,
                            stop,
                            max_conns,
                            loop_threads,
                        )
                    })
                    .expect("spawn accept thread"),
            );
        }

        Ok(NetServer {
            local_addr,
            stats,
            router,
            gate,
            dispatch,
            stop,
            threads,
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This server's connection counters.
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.stats)
    }

    /// Stops accepting, closes every connection, and joins all threads.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, SeqCst) {
            return;
        }
        // Unblock the acceptor: the cap gate first, then a throwaway
        // connection in case it is parked inside accept().
        self.gate.changed.notify_all();
        let target = match self.local_addr.ip() {
            ip if ip.is_unspecified() => match ip {
                IpAddr::V4(_) => {
                    SocketAddr::new(Ipv4Addr::LOCALHOST.into(), self.local_addr.port())
                }
                IpAddr::V6(_) => {
                    SocketAddr::new(std::net::Ipv6Addr::LOCALHOST.into(), self.local_addr.port())
                }
            },
            _ => self.local_addr,
        };
        let _ = TcpStream::connect_timeout(&target, Duration::from_millis(200));
        for idx in 0..self.router.mailboxes.len() {
            self.router.post(idx, Mail::Shutdown);
        }
        self.dispatch.stop.store(true, SeqCst);
        self.dispatch.ready.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    factory: Arc<dyn DriverFactory>,
    router: Arc<Router>,
    gate: Arc<Gate>,
    stats: Arc<NetStats>,
    stop: Arc<AtomicBool>,
    max_conns: usize,
    loop_threads: usize,
) {
    let mut next_id: u64 = 0;
    loop {
        // Cap gate BEFORE accept: at the cap we stop accepting entirely
        // and let the kernel backlog hold excess connections.
        {
            let mut open = gate.open.lock().expect("gate poisoned");
            while *open >= max_conns && !stop.load(SeqCst) {
                let (guard, _) = gate
                    .changed
                    .wait_timeout(open, Duration::from_millis(100))
                    .expect("gate poisoned");
                open = guard;
            }
        }
        if stop.load(SeqCst) {
            return;
        }
        let (stream, peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                if stop.load(SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if stop.load(SeqCst) {
            return; // the wake-up connection from shutdown()
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        *gate.open.lock().expect("gate poisoned") += 1;
        stats.conn_opened();
        // Driver construction happens here (acceptor thread) so the loop
        // sweep never runs user setup code.
        let driver = factory.make(peer);
        let id = next_id;
        next_id += 1;
        router.post(
            (id as usize) % loop_threads,
            Mail::NewConn(id, stream, driver),
        );
    }
}

fn close_conn(gate: &Gate, stats: &NetStats) {
    {
        let mut open = gate.open.lock().expect("gate poisoned");
        *open = open.saturating_sub(1);
    }
    gate.changed.notify_all();
    stats.conn_closed();
}

fn event_loop(
    idx: usize,
    waker: UdpSocket,
    router: Arc<Router>,
    gate: Arc<Gate>,
    stats: Arc<NetStats>,
    dispatch: Arc<DispatchShared>,
    cfg: NetConfig,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut scratch = vec![0u8; 16 * 1024];
    let mut actions: Vec<Action> = Vec::new();
    let mut dead: Vec<u64> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut wake_buf = [0u8; 8];

    'outer: loop {
        // 1. Mailbox: new connections, dispatch completions, shutdown.
        let mail: Vec<Mail> = {
            let mut mbox = router.mailboxes[idx].lock().expect("mailbox poisoned");
            mbox.drain(..).collect()
        };
        for m in mail {
            match m {
                Mail::NewConn(id, stream, driver) => {
                    conns.insert(id, Conn::new(stream, driver));
                }
                Mail::Complete {
                    conn,
                    bytes,
                    keep_alive,
                } => {
                    if let Some(c) = conns.get_mut(&conn) {
                        c.busy = false;
                        c.last_request = Instant::now();
                        match bytes {
                            Some(bytes) => c.queue_output(bytes),
                            // Dispatch panicked inside qnet: nothing sane
                            // to send; drop the connection.
                            None => c.closing = true,
                        }
                        if !keep_alive {
                            c.closing = true;
                        }
                        // Pipelined bytes that arrived with the previous
                        // request are replayed now.
                        if !c.closing && !c.input.is_empty() {
                            run_driver(conn, c, &dispatch, idx, &mut actions);
                        }
                    }
                }
                Mail::Shutdown => break 'outer,
            }
        }

        // 2. Sweep every connection: read → driver → flush → reap.
        let now = Instant::now();
        for (&id, c) in conns.iter_mut() {
            // Read while the driver is ready for more input.
            if c.wants_read(cfg.max_buffer) {
                let mut got = 0usize;
                loop {
                    match c.stream.read(&mut scratch) {
                        Ok(0) => {
                            c.read_closed = true;
                            break;
                        }
                        Ok(n) => {
                            // A lingering connection discards what it reads.
                            if c.linger_until.is_none() {
                                c.input.extend_from_slice(&scratch[..n]);
                            }
                            got += n;
                            if got >= READ_SLICE || c.input.len() >= cfg.max_buffer {
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            c.read_closed = true;
                            c.closing = true;
                            break;
                        }
                    }
                }
                if got > 0 && c.linger_until.is_none() {
                    run_driver(id, c, &dispatch, idx, &mut actions);
                }
            }

            // Flush buffered output without blocking.
            if !c.output_drained() {
                loop {
                    match c.stream.write(&c.output[c.out_pos..]) {
                        Ok(0) => {
                            c.closing = true;
                            c.output.clear();
                            c.out_pos = 0;
                            break;
                        }
                        Ok(n) => {
                            c.out_pos += n;
                            c.last_write = now;
                            if c.output_drained() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            if !c.stalled {
                                c.stalled = true;
                                stats.write_stall();
                            }
                            break;
                        }
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            c.closing = true;
                            c.output.clear();
                            c.out_pos = 0;
                            break;
                        }
                    }
                }
                if c.output_drained() {
                    c.output.clear();
                    c.out_pos = 0;
                    c.stalled = false;
                    c.driver.on_output_drained();
                }
            }

            // Reap: explicit close after flush (a lingering close first
            // shuts down its write side and waits for the peer's close or
            // its linger time), or a peer that went away.
            if c.closing && c.output_drained() && !c.busy {
                if c.linger && !c.read_closed && c.linger_until.is_none() {
                    let _ = c.stream.shutdown(Shutdown::Write);
                    c.linger_until = Some(now + LINGER.min(cfg.read_deadline));
                }
                if c.linger_until
                    .is_none_or(|until| c.read_closed || now >= until)
                {
                    dead.push(id);
                }
                continue;
            }
            if c.read_closed && !c.busy && c.input.is_empty() && c.output_drained() {
                dead.push(id);
                continue;
            }
            // Read or write-stall deadline (see `Conn::deadline`): the
            // same instant the poll timeout below wakes for.
            if c.deadline(cfg.read_deadline).is_some_and(|due| now >= due) {
                stats.deadline_close();
                dead.push(id);
            }
        }
        for id in dead.drain(..) {
            if conns.remove(&id).is_some() {
                close_conn(&gate, &stats);
            }
        }

        // 3. Block until the waker (a mailbox post), a connection that
        // wants to read or write, or the earliest deadline is ready.
        fds.clear();
        fds.push(PollFd {
            fd: waker.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        fds.extend(conns.values().map(|c| interest(c, cfg.max_buffer)));
        let timeout = poll_timeout(conns.values(), cfg.read_deadline, Instant::now());
        poll_fds(&mut fds, timeout);
        if fds[0].revents != 0 {
            // Drain every queued wake before the mailbox is read: a post
            // that lands after this leaves a datagram behind, and the next
            // poll returns at once.
            while waker.recv_from(&mut wake_buf).is_ok() {}
        }
    }

    // Shutdown: every owned connection closes now.
    for (_, _c) in conns.drain() {
        close_conn(&gate, &stats);
    }
}

/// Runs the driver over the connection's buffered input and applies the
/// resulting actions.
fn run_driver(
    id: u64,
    c: &mut Conn,
    dispatch: &DispatchShared,
    loop_idx: usize,
    actions: &mut Vec<Action>,
) {
    debug_assert!(actions.is_empty());
    c.driver.on_data(&mut c.input, actions);
    for action in actions.drain(..) {
        match action {
            Action::Interim(bytes) => c.queue_output(bytes),
            Action::Respond { bytes, keep_alive } => {
                c.queue_output(bytes);
                c.last_request = Instant::now();
                if !keep_alive {
                    c.closing = true;
                }
            }
            Action::Dispatch(f) => {
                c.busy = true;
                c.last_request = Instant::now();
                let mut queue = dispatch.queue.lock().expect("dispatch queue poisoned");
                queue.push_back(DispatchJob {
                    loop_idx,
                    conn: id,
                    f,
                });
                drop(queue);
                dispatch.ready.notify_one();
            }
            Action::Refuse(bytes) => {
                c.queue_output(bytes);
                c.last_request = Instant::now();
                c.closing = true;
                c.linger = true;
            }
            Action::Close => c.closing = true,
        }
    }
}

fn dispatch_loop(shared: Arc<DispatchShared>, router: Arc<Router>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("dispatch queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.stop.load(SeqCst) {
                    return;
                }
                queue = shared.ready.wait(queue).expect("dispatch queue poisoned");
            }
        };
        // A panic here is a driver bug (drivers wrap handler panics
        // themselves); answer by closing the connection.
        let (bytes, keep_alive) = match catch_unwind(AssertUnwindSafe(|| (job.f)())) {
            Ok((bytes, keep_alive)) => (Some(bytes), keep_alive),
            Err(_) => (None, false),
        };
        router.post(
            job.loop_idx,
            Mail::Complete {
                conn: job.conn,
                bytes,
                keep_alive,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX_BUFFER: usize = 1024;
    const DEADLINE: Duration = Duration::from_millis(300);

    struct Idle;

    impl Driver for Idle {
        fn on_data(&mut self, _input: &mut Vec<u8>, _out: &mut Vec<Action>) {}
    }

    /// A freshly accepted connection over a loopback pair, plus the
    /// client end that keeps it open.
    fn accepted() -> (Conn, TcpStream) {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind loopback");
        let client = TcpStream::connect(listener.local_addr().expect("listener address"))
            .expect("connect loopback");
        let (stream, _) = listener.accept().expect("accept loopback");
        (Conn::new(stream, Box::new(Idle)), client)
    }

    fn ago(now: Instant, ms: u64) -> Instant {
        now.checked_sub(Duration::from_millis(ms))
            .expect("monotonic clock older than the test offsets")
    }

    #[test]
    fn busy_and_drained_closing_conns_are_not_polled() {
        let (mut c, _client) = accepted();
        let idle = interest(&c, MAX_BUFFER);
        assert_eq!((idle.fd, idle.events), (c.stream.as_raw_fd(), POLLIN));

        c.busy = true;
        assert_eq!(interest(&c, MAX_BUFFER).fd, -1);
        c.busy = false;
        c.closing = true;
        assert_eq!(interest(&c, MAX_BUFFER).fd, -1);
        c.closing = false;
        c.read_closed = true;
        assert_eq!(interest(&c, MAX_BUFFER).fd, -1);
        c.read_closed = false;
        c.input = vec![b'x'; MAX_BUFFER];
        assert_eq!(interest(&c, MAX_BUFFER).fd, -1);
    }

    #[test]
    fn pending_output_polls_for_write_and_arms_the_stall_deadline() {
        let (mut c, _client) = accepted();
        let now = Instant::now();
        c.busy = true; // an interim response queued ahead of a dispatch
        c.queue_output(b"100 continue\n".to_vec());
        c.last_write = ago(now, 100);
        c.last_request = ago(now, 250);
        let p = interest(&c, MAX_BUFFER);
        assert_eq!((p.fd, p.events), (c.stream.as_raw_fd(), POLLOUT));
        assert_eq!(c.deadline(DEADLINE), Some(c.last_write + DEADLINE));
        assert_eq!(poll_timeout([&c], DEADLINE, now), 200);

        // Not busy: it reads and writes at once, and a full backlog
        // stops the reads.
        c.busy = false;
        assert_eq!(interest(&c, MAX_BUFFER).events, POLLIN | POLLOUT);
        c.queue_output(vec![b'y'; MAX_BUFFER]);
        assert_eq!(interest(&c, MAX_BUFFER).events, POLLOUT);
    }

    #[test]
    fn idle_keepalive_conn_arms_its_read_deadline() {
        let (mut a, _client_a) = accepted();
        let (mut b, _client_b) = accepted();
        let now = Instant::now();
        a.last_request = ago(now, 100);
        b.last_request = ago(now, 250);
        assert_eq!(a.deadline(DEADLINE), Some(a.last_request + DEADLINE));
        assert_eq!(poll_timeout([&a], DEADLINE, now), 200);
        // The earliest deadline sets the wait.
        assert_eq!(poll_timeout([&a, &b], DEADLINE, now), 50);
        // A busy connection with nothing to write is exempt.
        a.busy = true;
        assert_eq!(poll_timeout([&a], DEADLINE, now), -1);
    }

    #[test]
    fn a_lingering_conn_polls_for_read_until_its_linger_deadline() {
        let (mut c, _client) = accepted();
        let now = Instant::now();
        c.closing = true;
        c.linger = true;
        c.linger_until = Some(now + Duration::from_millis(40));
        let p = interest(&c, MAX_BUFFER);
        assert_eq!((p.fd, p.events), (c.stream.as_raw_fd(), POLLIN));
        assert_eq!(poll_timeout([&c], DEADLINE, now), 40);
        // Its peer closed: nothing left to wait for.
        c.read_closed = true;
        assert_eq!(interest(&c, MAX_BUFFER).fd, -1);
    }

    #[test]
    fn no_conns_waits_forever() {
        assert_eq!(poll_timeout([], DEADLINE, Instant::now()), -1);
    }

    #[test]
    fn a_due_deadline_times_out_at_once_never_negative() {
        let (mut c, _client) = accepted();
        let now = Instant::now();
        c.last_request = ago(now, 3000);
        assert_eq!(poll_timeout([&c], DEADLINE, now), 0);
        c.last_request = ago(now, 300);
        assert_eq!(poll_timeout([&c], DEADLINE, now), 0);
        // A fraction of a millisecond left rounds up, so the wake finds
        // the deadline due.
        c.last_request = ago(now, 300) + Duration::from_micros(300);
        assert_eq!(poll_timeout([&c], DEADLINE, now), 1);
    }
}
