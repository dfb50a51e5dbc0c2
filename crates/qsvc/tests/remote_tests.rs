//! Remote cache tier tests: the wire protocol's hostile-input rules
//! (truncation, oversized prefixes, unknown opcodes, version refusals),
//! the client's never-a-wrong-result validation, graceful degradation to
//! local misses with automatic recovery, and the acceptance property —
//! two replica services sharing one cache server answer a repeated job
//! with **zero** new oracle calls on the second replica.

use popqc_core::{PopqcConfig, PopqcStats};
use proptest::prelude::*;
use qcir::{Angle, Circuit};
use qsvc::wire::{self, Frame, Op, WireError, MAX_FRAME_BYTES, PROTOCOL_VERSION};
use qsvc::{
    build_store, CacheServer, CacheServerConfig, CachedRun, DiskStore, JobKey, MemoryStore,
    OptimizationService, OracleRegistry, RemoteConfig, RemoteStore, ResultStore, ServiceConfig,
    StoreTier,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fresh temp dir, removed on drop (including on panic).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "popqc-remote-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sample_circuit() -> Circuit {
    let mut c = Circuit::new(3);
    c.h(0).h(0).cnot(0, 1).rz(2, Angle::PI_4).rz(2, Angle::PI_4);
    c
}

fn key_for(circuit: &Circuit, oracle_id: &str, omega: usize) -> JobKey {
    JobKey {
        fingerprint: circuit.fingerprint(),
        oracle_id: oracle_id.to_string(),
        config: PopqcConfig::with_omega(omega),
    }
}

fn run_for(circuit: &Circuit) -> Arc<CachedRun> {
    Arc::new(CachedRun {
        circuit: circuit.clone(),
        stats: PopqcStats {
            rounds: 3,
            oracle_calls: 17,
            accepted: 5,
            oracle_nanos: 1000,
            total_nanos: 2000,
            initial_units: 9,
            final_units: circuit.gates.len(),
            seg_cache_hits: 0,
            rounds_detail: Vec::new(),
        },
    })
}

/// A memory-backed cache server on an ephemeral loopback port.
fn memory_server() -> CacheServer {
    CacheServer::serve(
        "127.0.0.1:0",
        Arc::new(MemoryStore::new(64, 2)),
        CacheServerConfig::default(),
    )
    .expect("bind cache server")
}

/// A client with test-speed timeouts (fast failure, short cooldown).
fn fast_client(addr: &str) -> RemoteStore {
    RemoteStore::new(RemoteConfig {
        connect_timeout: Duration::from_millis(250),
        io_timeout: Duration::from_millis(500),
        retries: 1,
        backoff: Duration::from_millis(5),
        cooldown: Duration::from_millis(100),
        ..RemoteConfig::new(addr)
    })
    .expect("resolve loopback")
}

// ---------------------------------------------------------------------------
// Wire protocol: hostile-input rules
// ---------------------------------------------------------------------------

#[test]
fn truncated_frame_is_truncated_not_data() {
    // A frame that declares 10 bytes but delivers 4.
    let mut bytes = 10u32.to_be_bytes().to_vec();
    bytes.extend_from_slice(&[PROTOCOL_VERSION, Op::Ping as u8, 0xAA, 0xBB]);
    let err = wire::read_frame(&mut bytes.as_slice()).unwrap_err();
    assert!(matches!(err, WireError::Truncated), "got: {err}");

    // EOF inside the length prefix itself is also mid-frame.
    let err = wire::read_frame(&mut [0u8, 0, 0].as_slice()).unwrap_err();
    assert!(matches!(err, WireError::Truncated), "got: {err}");

    // EOF cleanly on the boundary is the peer hanging up, not an error
    // worth logging.
    let err = wire::read_frame(&mut [].as_slice()).unwrap_err();
    assert!(matches!(err, WireError::Closed), "got: {err}");
}

#[test]
fn oversized_length_prefix_is_refused_before_allocation() {
    // The prefix claims ~4 GiB; only the 4 prefix bytes exist. If the
    // reader allocated or tried to read the payload this would surface
    // as Truncated (or an OOM abort) — Oversized proves the length
    // check runs first.
    let huge = (u32::MAX).to_be_bytes();
    let err = wire::read_frame(&mut huge.as_slice()).unwrap_err();
    assert!(matches!(err, WireError::Oversized(u32::MAX)), "got: {err}");

    // One byte past the cap is refused; the cap itself is not.
    let just_over = (MAX_FRAME_BYTES + 1).to_be_bytes();
    let err = wire::read_frame(&mut just_over.as_slice()).unwrap_err();
    assert!(matches!(err, WireError::Oversized(_)), "got: {err}");

    // A length too small to hold version + opcode is a runt.
    let runt = 1u32.to_be_bytes().to_vec();
    let err = wire::read_frame(&mut [runt, vec![0u8]].concat().as_slice()).unwrap_err();
    assert!(matches!(err, WireError::Runt(1)), "got: {err}");
}

#[test]
fn unknown_opcode_and_foreign_version_are_refused() {
    let mut bad_op = 2u32.to_be_bytes().to_vec();
    bad_op.extend_from_slice(&[PROTOCOL_VERSION, 0x7F]);
    let err = wire::read_frame(&mut bad_op.as_slice()).unwrap_err();
    assert!(matches!(err, WireError::UnknownOpcode(0x7F)), "got: {err}");

    let mut bad_version = 2u32.to_be_bytes().to_vec();
    bad_version.extend_from_slice(&[PROTOCOL_VERSION + 1, Op::Ping as u8]);
    let err = wire::read_frame(&mut bad_version.as_slice()).unwrap_err();
    assert!(
        matches!(err, WireError::Version(v) if v == PROTOCOL_VERSION + 1),
        "got: {err}"
    );
}

#[test]
fn key_documents_round_trip() {
    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 75);
    let payload = wire::encode_key(&key, "v3");
    let (back, version) = wire::decode_key(&payload).expect("decode own encoding");
    assert_eq!(back, key);
    assert_eq!(version, "v3");

    assert!(wire::decode_key(b"not json").is_err());
    assert!(wire::decode_key(b"{\"fingerprint\":\"abc\"}").is_err());
}

/// A disk entry (the PUT path) and a wire key document carry the same
/// `JobKey` header; one bad header is refused by both, each with its own
/// error.
#[test]
fn entry_and_key_documents_refuse_the_same_bad_headers() {
    use serde_json::{json, Value};
    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 75);
    let entry = qsvc::encode_entry(&key, "v3", &run_for(&circuit));
    let wire_key = String::from_utf8(wire::encode_key(&key, "v3")).unwrap();
    // `(case, header field, replacement)`; `None` deletes the field.
    let cases: [(&str, &str, Option<Value>); 7] = [
        ("short hex", "fingerprint", Some(json!("abc"))),
        ("non-hex", "fingerprint", Some(json!("z".repeat(32)))),
        ("no fingerprint", "fingerprint", None),
        ("no oracle_id", "oracle_id", None),
        ("no omega", "omega", None),
        ("no max_rounds", "max_rounds", None),
        ("no oracle_version", "oracle_version", None),
    ];
    let edit = |text: &str, field: &str, value: &Option<Value>| -> String {
        let Value::Object(mut pairs) = serde_json::from_str(text).unwrap() else {
            panic!("header documents are objects");
        };
        match value {
            Some(v) => pairs
                .iter_mut()
                .filter(|(k, _)| k == field)
                .for_each(|p| p.1 = v.clone()),
            None => pairs.retain(|(k, _)| k != field),
        }
        serde_json::to_string(&Value::Object(pairs)).unwrap()
    };
    assert!(qsvc::decode_entry_owned(&entry).is_ok());
    assert!(wire::decode_key(wire_key.as_bytes()).is_ok());
    for (case, field, value) in &cases {
        assert!(
            matches!(
                qsvc::decode_entry_owned(&edit(&entry, field, value)),
                Err(qsvc::EntryRejection::Corrupt)
            ),
            "entry, {case}"
        );
        assert!(
            matches!(
                wire::decode_key(edit(&wire_key, field, value).as_bytes()),
                Err(WireError::Malformed("key"))
            ),
            "wire key, {case}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every (opcode, payload) encodes to bytes that decode back to the
    /// identical frame — the streaming reader and the one-shot decoder
    /// agree, and trailing garbage is never silently absorbed.
    #[test]
    fn frame_encoding_round_trips(
        op_index in 0usize..13,
        payload in prop::collection::vec(0u8..255, 0..512),
    ) {
        let ops = [
            Op::Get, Op::Put, Op::Remove, Op::Clear, Op::Stats, Op::Ping,
            Op::Hit, Op::Miss, Op::Ack, Op::Count, Op::Report, Op::Pong,
            Op::Error,
        ];
        let frame = Frame::new(ops[op_index], payload);
        let bytes = frame.encode();

        // One-shot decode.
        prop_assert_eq!(&Frame::decode(&bytes).unwrap(), &frame);

        // Streaming decode consumes exactly one frame and leaves the
        // next frame's bytes untouched.
        let mut two = bytes.clone();
        two.extend_from_slice(&Frame::empty(Op::Ping).encode());
        let mut reader = two.as_slice();
        prop_assert_eq!(&wire::read_frame(&mut reader).unwrap(), &frame);
        prop_assert_eq!(wire::read_frame(&mut reader).unwrap().op, Op::Ping);

        // Trailing garbage after a one-shot decode is an error.
        let mut extra = bytes;
        extra.push(0);
        prop_assert!(Frame::decode(&extra).is_err());
    }
}

// ---------------------------------------------------------------------------
// Client <-> server semantics
// ---------------------------------------------------------------------------

#[test]
fn remote_store_round_trips_through_a_live_server() {
    let server = memory_server();
    let client = fast_client(&server.local_addr().to_string());
    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 50);

    assert!(client.get(&key, "v1").is_none(), "fresh server misses");
    client.put(&key, "v1", run_for(&circuit));
    let hit = client
        .get(&key, "v1")
        .expect("served from the cache server");
    assert_eq!(hit.circuit, circuit);
    assert_eq!(hit.stats.oracle_calls, 17);

    // The server's own store holds the entry (shared state, not a
    // client-side echo).
    assert_eq!(server.store().len(), 1);

    let stats = client.stats();
    assert_eq!(stats.backend, "remote");
    assert_eq!(stats.tiers.len(), 1);
    assert_eq!(stats.tiers[0].tier, "remote");
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.tiers[0].errors, 0);
    assert_eq!(stats.entries, 1);
    assert_eq!(client.len(), 1);

    assert!(client.remove(&key), "remove reports the entry existed");
    assert!(!client.remove(&key), "second remove finds nothing");
    client.put(&key, "v1", run_for(&circuit));
    assert_eq!(client.clear(), 1);
    assert_eq!(server.store().len(), 0);
}

#[test]
fn oracle_version_mismatch_is_a_miss_and_stale_puts_are_refused() {
    let server = memory_server();
    let addr = server.local_addr().to_string();
    let client = fast_client(&addr);
    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 50);

    // An entry written under oracle v1 must not answer a v2 lookup: the
    // version tag travels in the GET payload and the server's store
    // rejects the mismatch.
    client.put(&key, "v1", run_for(&circuit));
    assert!(client.get(&key, "v2").is_none(), "v2 lookup must miss");
    assert!(client.get(&key, "v1").is_some(), "v1 lookup still hits");

    // A PUT whose entry document declares a different store format is
    // refused outright — the server answers ERROR, not ACK, so replicas
    // running an older build cannot poison the shared cache.
    let mut doc: serde_json::Value =
        serde_json::from_str(&qsvc::encode_entry(&key, "v1", &run_for(&circuit))).unwrap();
    let serde_json::Value::Object(fields) = &mut doc else {
        panic!("entry document is an object");
    };
    for (name, value) in fields.iter_mut() {
        if name == "store_format" {
            *value = serde_json::json!(999u64);
        }
    }
    let mut conn = TcpStream::connect(&addr).unwrap();
    let stale = Frame::new(Op::Put, serde_json::to_string(&doc).unwrap().into_bytes());
    wire::write_frame(&mut conn, &stale).unwrap();
    let resp = wire::read_frame(&mut conn).unwrap();
    assert_eq!(resp.op, Op::Error, "stale store format must be refused");
    assert!(
        String::from_utf8_lossy(&resp.payload).contains("stale"),
        "diagnostic names the refusal"
    );
}

#[test]
fn invalid_hit_payload_from_a_confused_server_degrades_to_a_miss() {
    // A hand-rolled "server" that answers every GET with a HIT whose
    // payload is garbage. The client must answer None — never a wrong
    // result, never a panic.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let _req = wire::read_frame(&mut conn).unwrap();
        let lie = Frame::new(Op::Hit, b"{\"store_format\": \"gibberish\"}".to_vec());
        wire::write_frame(&mut conn, &lie).unwrap();
    });

    let client = fast_client(&addr);
    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 50);
    assert!(
        client.get(&key, "v1").is_none(),
        "garbage hit must read as a miss"
    );
    let tier = &client.stats().tiers[0];
    assert_eq!(tier.misses, 1);
    assert!(tier.errors >= 1, "the lie is counted as a degraded op");
    fake.join().unwrap();
}

#[test]
fn server_survives_protocol_violations_and_keeps_serving() {
    let server = memory_server();
    let addr = server.local_addr().to_string();

    // Connection 1: oversized declared length → best-effort ERROR frame,
    // then the connection drops.
    let mut bad = TcpStream::connect(&addr).unwrap();
    bad.write_all(&(MAX_FRAME_BYTES + 1).to_be_bytes()).unwrap();
    bad.flush().unwrap();
    let resp = wire::read_frame(&mut bad).unwrap();
    assert_eq!(resp.op, Op::Error);
    let mut rest = Vec::new();
    bad.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server closes after a framing violation");

    // Connection 2: a response opcode as a request is answered with
    // ERROR (the stream is still framed, but the op is not a request).
    let mut weird = TcpStream::connect(&addr).unwrap();
    wire::write_frame(&mut weird, &Frame::empty(Op::Pong)).unwrap();
    assert_eq!(wire::read_frame(&mut weird).unwrap().op, Op::Error);

    // Connection 3: a well-formed client still gets service.
    let client = fast_client(&addr);
    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 50);
    client.put(&key, "v1", run_for(&circuit));
    assert!(
        client.get(&key, "v1").is_some(),
        "server still serves after abuse"
    );
}

// ---------------------------------------------------------------------------
// Degradation and recovery
// ---------------------------------------------------------------------------

#[test]
fn unreachable_server_degrades_to_local_misses_and_recovers() {
    let tmp = TempDir::new("degrade");
    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 50);

    // Phase 1: live server, entry cached.
    let store = Arc::new(DiskStore::open(tmp.path()).unwrap());
    let mut server =
        CacheServer::serve("127.0.0.1:0", store, CacheServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let client = fast_client(&addr.to_string());
    client.put(&key, "v1", run_for(&circuit));
    assert!(client.get(&key, "v1").is_some());

    // Phase 2: the server dies mid-run. Every operation is a quick local
    // miss / dropped write — no panic, no error surfaced to the caller.
    server.shutdown();
    drop(server);
    assert!(
        client.get(&key, "v1").is_none(),
        "down server reads as a miss"
    );
    client.put(&key, "v1", run_for(&circuit));
    assert!(!client.remove(&key));
    assert_eq!(client.clear(), 0);
    let tier = client.stats().tiers.remove(0);
    assert!(tier.errors >= 1, "degraded ops are counted: {tier:?}");

    // While the breaker is open, lookups short-circuit without touching
    // the network — a dead cache server must not add its connect timeout
    // to every job.
    let started = Instant::now();
    for _ in 0..50 {
        assert!(client.get(&key, "v1").is_none());
    }
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "breaker-open misses must be near-instant, took {:?}",
        started.elapsed()
    );

    // Phase 3: the server comes back on the SAME port over the SAME
    // directory. After the cooldown the client reconnects by itself and
    // the disk-persisted entry hits again.
    let revived = Arc::new(DiskStore::open(tmp.path()).unwrap());
    let server = CacheServer::serve(&addr.to_string(), revived, CacheServerConfig::default())
        .expect("rebind the released port");
    std::thread::sleep(Duration::from_millis(150)); // past the 100ms cooldown
    let hit = client.get(&key, "v1").expect("recovery resumes hits");
    assert_eq!(hit.circuit, circuit);
    drop(server);
}

#[test]
fn remote_store_construction_only_fails_on_unresolvable_addresses() {
    // Unreachable-but-valid is fine: boot order must not matter.
    assert!(RemoteStore::new(RemoteConfig::new("127.0.0.1:1")).is_ok());
    // Unresolvable is a configuration error worth failing loudly on.
    assert!(RemoteStore::new(RemoteConfig::new("not an address")).is_err());
}

// ---------------------------------------------------------------------------
// Acceptance: a two-replica fleet shares one warm cache
// ---------------------------------------------------------------------------

#[test]
fn second_replica_answers_from_the_shared_cache_with_zero_oracle_calls() {
    let tmp = TempDir::new("fleet");
    let server = CacheServer::serve(
        "127.0.0.1:0",
        Arc::new(DiskStore::open(tmp.path()).unwrap()),
        CacheServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // Two independent "replicas": separate services, separate stores,
    // joined only by the cache server — exactly the
    // `popqc serve --cache-addr` composition.
    let replica = |addr: &str| {
        let store = build_store(StoreTier::Tiered, None, Some(addr), 64, 2).unwrap();
        OptimizationService::with_store(
            OracleRegistry::builtin(),
            ServiceConfig {
                workers: 1,
                threads_per_job: 1,
                ..ServiceConfig::default()
            },
            store,
        )
    };
    let a = replica(&addr);
    let b = replica(&addr);

    let circuit = benchgen::Family::Vqe.generate(8, 7);
    let cfg = PopqcConfig::with_omega(50);

    // Replica A computes and write-through publishes to the server.
    let first = a.submit(circuit.clone(), &cfg).wait();
    assert!(!first.cache_hit, "fresh fleet: A computes");
    assert!(a.stats().oracle_calls_issued > 0);
    assert_eq!(server.store().len(), 1, "A's result reached the server");

    // Replica B — a different process as far as it knows — hits, with
    // zero oracle calls issued anywhere in B.
    let second = b.submit(circuit.clone(), &cfg).wait();
    assert!(second.cache_hit, "B must answer from the shared cache");
    assert_eq!(b.stats().oracle_calls_issued, 0, "zero oracle calls on B");
    assert_eq!(second.circuit, first.circuit, "byte-identical result");

    // B's remote tier shows the shared hit in its stats report.
    let tiers = b.store().stats().tiers;
    let remote = tiers.iter().find(|t| t.tier == "remote").unwrap();
    assert_eq!(remote.hits, 1);
}

// ---------------------------------------------------------------------------
// Connection cap (admission control)
// ---------------------------------------------------------------------------

/// `max_conns` gates *before* `accept`: excess clients wait in the kernel
/// backlog instead of being served or reset, and are admitted the moment
/// a slot frees — accept backpressure, not refusal.
#[test]
fn every_pooled_client_is_served_at_once() {
    // Each client keeps its pooled connection open after its request, the
    // way a replica fleet does, so client k's request is only answered if
    // the server is serving k connections at the same time.
    let server = memory_server();
    let addr = server.local_addr().to_string();
    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 50);
    let clients: Vec<RemoteStore> = (0..7).map(|_| fast_client(&addr)).collect();
    clients[0].put(&key, "v1", run_for(&circuit));
    for (k, client) in clients.iter().enumerate() {
        let t0 = Instant::now();
        let hit = client.get(&key, "v1");
        let waited = t0.elapsed();
        assert!(hit.is_some(), "client {k} must hit, waited {waited:?}");
        assert!(
            waited < Duration::from_millis(500),
            "client {k} waited {waited:?}, past its io_timeout"
        );
        assert_eq!(client.stats().tiers[0].errors, 0, "client {k}");
    }
}

#[test]
fn connection_cap_defers_accepts_until_a_slot_frees() {
    second_client_waits_for_the_first(1);
}

/// `0` is not "unlimited" (a thread per connection is the exhaustion the
/// cap exists to prevent): it clamps to one slot, like the HTTP
/// frontend's cap.
#[test]
fn zero_connection_cap_clamps_to_one_slot() {
    second_client_waits_for_the_first(0);
}

fn second_client_waits_for_the_first(max_conns: usize) {
    let server = CacheServer::serve(
        "127.0.0.1:0",
        Arc::new(MemoryStore::new(64, 2)),
        CacheServerConfig {
            max_conns,
            ..CacheServerConfig::default()
        },
    )
    .expect("bind capped server");
    let addr = server.local_addr().to_string();

    // Connection A occupies the only slot (proved live by a ping).
    let mut a = TcpStream::connect(&addr).unwrap();
    wire::write_frame(&mut a, &Frame::empty(Op::Ping)).unwrap();
    assert_eq!(wire::read_frame(&mut a).unwrap().op, Op::Pong);

    // Connection B lands in the kernel backlog: the TCP connect succeeds,
    // but the server must not answer while A holds the slot.
    let mut b = TcpStream::connect(&addr).unwrap();
    wire::write_frame(&mut b, &Frame::empty(Op::Ping)).unwrap();
    b.set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let mut probe = [0u8; 1];
    match b.read(&mut probe) {
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "expected a read timeout while capped, got: {e}"
        ),
        Ok(n) => panic!("capped server must not serve B yet (read {n} bytes)"),
    }

    // A hangs up; its slot frees and the queued B is served.
    drop(a);
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(wire::read_frame(&mut b).unwrap().op, Op::Pong);
}

// ---------------------------------------------------------------------------
// Framing on the server's connection loop
// ---------------------------------------------------------------------------

#[test]
fn requests_are_framed_across_reads_and_within_one() {
    let server = memory_server();
    let addr = server.local_addr();
    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 50);
    fast_client(&addr.to_string()).put(&key, "v1", run_for(&circuit));

    // A GET written one byte per write (no coalescing) is still one
    // request, answered once it is whole.
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    for byte in Frame::new(Op::Get, wire::encode_key(&key, "v1")).encode() {
        conn.write_all(&[byte]).unwrap();
    }
    assert_eq!(wire::read_frame(&mut conn).unwrap().op, Op::Hit);

    // Two PINGs in a single write get two PONGs; a GET and a PING in one
    // write are answered in order.
    let ping = Frame::empty(Op::Ping).encode();
    conn.write_all(&[ping.clone(), ping.clone()].concat())
        .unwrap();
    assert_eq!(wire::read_frame(&mut conn).unwrap().op, Op::Pong);
    assert_eq!(wire::read_frame(&mut conn).unwrap().op, Op::Pong);
    let get = Frame::new(Op::Get, wire::encode_key(&key, "v1")).encode();
    conn.write_all(&[get, ping].concat()).unwrap();
    assert_eq!(wire::read_frame(&mut conn).unwrap().op, Op::Hit);
    assert_eq!(wire::read_frame(&mut conn).unwrap().op, Op::Pong);
}

/// The read timeout bounds a whole frame, not one `read`: a peer that
/// drips a frame a byte at a time, each byte well inside the timeout,
/// is still cut off.
#[test]
fn a_slow_drip_peer_is_cut_off() {
    let server = CacheServer::serve(
        "127.0.0.1:0",
        Arc::new(MemoryStore::new(64, 2)),
        CacheServerConfig {
            read_timeout: Duration::from_millis(300),
            ..CacheServerConfig::default()
        },
    )
    .unwrap();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_nodelay(true).unwrap();
    let mut reader = conn.try_clone().unwrap();
    reader
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let started = Instant::now();
    let (tx, rx) = std::sync::mpsc::channel();
    let watcher = std::thread::spawn(move || {
        // EOF or a reset means the server closed; a timeout means it did not.
        let outcome = reader.read(&mut [0u8; 1]).map_err(|e| e.kind());
        tx.send((started.elapsed(), outcome)).unwrap();
    });

    // The prefix declares 64 bytes; then one byte every 100 ms.
    conn.write_all(&64u32.to_be_bytes()).unwrap();
    let (elapsed, outcome) = loop {
        if let Ok(closed) = rx.recv_timeout(Duration::from_millis(100)) {
            break closed;
        }
        let _ = conn.write_all(&[PROTOCOL_VERSION]);
    };
    watcher.join().unwrap();
    assert!(
        matches!(outcome, Ok(0) | Err(std::io::ErrorKind::ConnectionReset)),
        "the server must close the dripping connection, got {outcome:?} after {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(1),
        "closed only after {elapsed:?}"
    );
}

// ---------------------------------------------------------------------------
// Entries too large for one frame
// ---------------------------------------------------------------------------

/// An entry whose PUT frame is just over [`MAX_FRAME_BYTES`] is dropped
/// unsent and counted, without touching the breaker: the next small
/// entry is stored and hits at once.
#[test]
fn an_oversized_entry_never_crosses_the_wire() {
    let server = memory_server();
    let client = fast_client(&server.local_addr().to_string());

    // Ten-digit wire indices make each `cx` line 33 bytes of entry JSON
    // (`cx q[1000000000],q[1000000001];` plus an escaped newline).
    let mut wide = Circuit::new(u32::MAX);
    for i in 0..(MAX_FRAME_BYTES / 33 + 4096) {
        let q = 1_000_000_000 + 2 * (i % 4096);
        wide.cnot(q, q + 1);
    }
    let big_key = key_for(&wide, "rule_based", 50);
    let big = run_for(&wide);
    drop(wide);
    let frame_len = qsvc::encode_entry(&big_key, "v1", &big).len() as u64 + 2;
    let cap = u64::from(MAX_FRAME_BYTES);
    assert!(
        frame_len > cap && frame_len < cap + (1 << 20),
        "the PUT frame must be just over the cap: {frame_len} bytes"
    );
    client.put(&big_key, "v1", big);

    let circuit = sample_circuit();
    let key = key_for(&circuit, "rule_based", 50);
    client.put(&key, "v1", run_for(&circuit));
    assert!(
        client.get(&key, "v1").is_some(),
        "the small entry hits: the oversized one did not trip the breaker"
    );
    assert_eq!(server.store().len(), 1, "only the small entry arrived");
    assert_eq!(
        client.stats().tiers[0].errors,
        1,
        "the dropped write is counted"
    );
}
