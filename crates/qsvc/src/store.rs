//! The pluggable result-store layer: where finished optimizations live.
//!
//! The service's speedup on repeated traffic comes from never re-proving
//! a result it already holds; this module makes *where* those results are
//! held a seam instead of a hard-coded LRU. [`ResultStore`] is the
//! object-safe backend trait the service owns as `Arc<dyn ResultStore>`,
//! with four shipped implementations:
//!
//! * [`MemoryStore`] — the process-local sharded LRU
//!   ([`ShardedLruCache`]) behind the trait; what every deployment used
//!   before this seam existed, and still the default. At capacity 0 it
//!   remembers nothing and reports itself as the `null` store.
//! * [`DiskStore`] — one file per entry under a cache directory, so warm
//!   starts survive restarts. Entries carry a versioned header (store
//!   format version + the oracle's [`version`](qoracle::SegmentOracle::version)
//!   tag); stale or foreign entries are invalidated, and corrupt or
//!   truncated files read as misses and are quarantined, never trusted
//!   and never an error.
//! * [`TieredStore`] — any store in front of any other (memory in front
//!   of disk or remote in practice): write-through on put, promote-on-hit
//!   on get.
//! * [`crate::remote::RemoteStore`] — a `popqc cached` server over TCP,
//!   so N replicas share one warm tier (see the `remote` module).
//!
//! [`compose_store`] is the one composition rule the CLI and tests share:
//! a memory front of `--cache-capacity` entries (none at 0) over a disk
//! back (`--cache-dir`), a remote back (`--cache-addr`) or no back at
//! all. [`build_store`] names the same shapes by [`StoreTier`].
//!
//! ## On-disk layout (format version 1)
//!
//! ```text
//! <cache_dir>/
//!   <fingerprint:032x>-<confighash:016x>.entry   # one JSON document per result
//!   quarantine/<same name>.<nanos>               # corrupt files, moved aside
//! ```
//!
//! Each `.entry` file is a single JSON object:
//!
//! ```json
//! {
//!   "store_format": 1,
//!   "fingerprint": "<32 hex digits>",
//!   "oracle_id": "rule_based",
//!   "oracle_version": "0.2.0+rule-fixpoint",
//!   "omega": 200,
//!   "max_rounds": 18446744073709551615,
//!   "qasm": "OPENQASM 2.0;...",
//!   "stats": { "rounds": 15, "oracle_calls": 59, ... }
//! }
//! ```
//!
//! Reads validate before trusting: the header's key fields (input
//! fingerprint, oracle id, config) must match the key being looked up,
//! the QASM body must parse, and the parsed gate count must equal the
//! recorded `final_units`. Writes go to a temp file and `rename` into
//! place, so a crash mid-write leaves at worst a stray temp file, never a
//! half-entry under a live name.
//! Invalidation rules, in order:
//!
//! | condition | action |
//! |-----------|--------|
//! | file absent | plain miss |
//! | unreadable / not JSON / truncated | miss + **quarantine** |
//! | `store_format` ≠ 1 | miss + remove (stale format) |
//! | key fields or `oracle_version` mismatch | miss + remove (stale code) |
//! | QASM unparseable or fingerprint ≠ key | miss + **quarantine** |

use crate::cache::ShardedLruCache;
use crate::metrics;
use crate::service::JobKey;
use popqc_core::PopqcStats;
use qapi::{CacheReport, CacheTierReport};
use qcir::{qasm, Circuit, Gate};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// The on-disk entry format version. Bump on any layout change; readers
/// discard entries from any other version.
pub const STORE_FORMAT_VERSION: u64 = 1;

/// What the store holds per key: the output half of a job.
#[derive(Clone, Debug)]
pub struct CachedRun {
    /// The optimized circuit.
    pub circuit: Circuit,
    /// The original run's engine statistics. Entries restored from disk
    /// carry an empty [`PopqcStats::rounds_detail`] (the per-round
    /// breakdown is not persisted).
    pub stats: PopqcStats,
}

impl CachedRun {
    /// Approximate resident size, for the per-tier `bytes` gauge. Counts
    /// the gate array and the per-round detail, not allocator overhead.
    pub fn approx_bytes(&self) -> u64 {
        (std::mem::size_of::<CachedRun>()
            + self.circuit.gates.len() * std::mem::size_of::<Gate>()
            + self.stats.rounds_detail.len() * std::mem::size_of::<popqc_core::RoundRecord>())
            as u64
    }
}

/// A store's report from its tiers, front first: the one place the
/// aggregates are computed. Hits, evictions and bytes are summed across
/// tiers. Misses and entries come from the last tier: every logical miss
/// reaches it, and write-through keeps every entry there.
pub(crate) fn store_report(backend: &str, tiers: Vec<CacheTierReport>) -> CacheReport {
    let last = tiers.last().cloned().unwrap_or_default();
    CacheReport {
        backend: backend.to_string(),
        entries: last.entries,
        hits: tiers.iter().map(|t| t.hits).sum(),
        misses: last.misses,
        evictions: tiers.iter().map(|t| t.evictions).sum(),
        bytes: tiers.iter().map(|t| t.bytes).sum(),
        tiers,
    }
}

/// The pluggable result-store backend. Object-safe and `Send + Sync`: the
/// service owns one as `Arc<dyn ResultStore>` and never names a concrete
/// type past construction.
///
/// `oracle_version` on the read/write path is the invalidation token for
/// *persistent* tiers: a stored entry whose recorded version differs from
/// the one passed in must read as a miss (the oracle code changed, the
/// cached result may no longer be what the oracle would produce).
/// Process-local tiers may ignore it — within one process the registry is
/// fixed, so an id never maps to two versions.
pub trait ResultStore: Send + Sync {
    /// Looks up `key`; `None` is a miss. Never an error: a persistent tier
    /// that finds a corrupt or stale entry must self-heal and miss.
    fn get(&self, key: &JobKey, oracle_version: &str) -> Option<Arc<CachedRun>>;

    /// Stores `value` under `key`, tagged with `oracle_version`.
    fn put(&self, key: &JobKey, oracle_version: &str, value: Arc<CachedRun>);

    /// Removes one entry; returns whether it existed.
    fn remove(&self, key: &JobKey) -> bool;

    /// Drops every entry; returns how many were removed.
    fn clear(&self) -> u64;

    /// Entries currently resident (the authoritative tier's count).
    fn len(&self) -> usize;

    /// Whether the store holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time counters: the backend name, the aggregates and one
    /// entry per tier, front first.
    fn stats(&self) -> CacheReport;
}

// ---------------------------------------------------------------------------
// MemoryStore
// ---------------------------------------------------------------------------

/// The process-local tier: [`ShardedLruCache`] behind the trait.
///
/// Capacity `0` is the null store: every lookup misses, puts are dropped
/// and the report names backend and tier `null` (see
/// [`ShardedLruCache::new`] for the exact rounding rules).
/// `oracle_version` is ignored — within one process the registry binds
/// each oracle id to exactly one version for the store's whole lifetime.
pub struct MemoryStore {
    cache: ShardedLruCache<JobKey, CachedRun>,
    /// `memory`, or `null` at capacity 0.
    tier: &'static str,
    /// Latency histograms, resolved once at construction so the serving
    /// path never touches the metric registry.
    get_timer: Arc<qobs::Histogram>,
    put_timer: Arc<qobs::Histogram>,
}

impl MemoryStore {
    /// A store holding at most `capacity` entries over `shards` locks.
    pub fn new(capacity: usize, shards: usize) -> MemoryStore {
        MemoryStore {
            cache: ShardedLruCache::new(capacity, shards),
            tier: if capacity == 0 { "null" } else { "memory" },
            get_timer: metrics::store_get_duration("memory"),
            put_timer: metrics::store_put_duration("memory"),
        }
    }
}

impl ResultStore for MemoryStore {
    fn get(&self, key: &JobKey, _oracle_version: &str) -> Option<Arc<CachedRun>> {
        let _timer = self.get_timer.start_timer();
        self.cache.get(key)
    }

    fn put(&self, key: &JobKey, _oracle_version: &str, value: Arc<CachedRun>) {
        let _timer = self.put_timer.start_timer();
        self.cache.insert(key.clone(), value);
    }

    fn remove(&self, key: &JobKey) -> bool {
        self.cache.remove(key)
    }

    fn clear(&self) -> u64 {
        self.cache.clear()
    }

    fn len(&self) -> usize {
        self.cache.len()
    }

    fn stats(&self) -> CacheReport {
        let c = self.cache.stats();
        let tier = CacheTierReport {
            tier: self.tier.to_string(),
            entries: c.entries as u64,
            hits: c.hits,
            misses: c.misses,
            evictions: c.evictions,
            bytes: self.cache.sum_values(CachedRun::approx_bytes),
            errors: 0,
        };
        store_report(self.tier, vec![tier])
    }
}

// ---------------------------------------------------------------------------
// DiskStore
// ---------------------------------------------------------------------------

/// The persistent tier: one file per entry under a cache directory (see
/// the module docs for the exact layout and invalidation table). Safe for
/// concurrent use from many threads *and* many processes sharing the
/// directory: writes are rename-into-place, reads validate before
/// trusting.
pub struct DiskStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
    quarantined: AtomicU64,
    tmp_counter: AtomicU64,
    /// Entry/byte gauges, initialized by one directory scan at `open` and
    /// maintained incrementally, so `stats()`/`len()` never walk the
    /// directory on the serving path. They track *this handle's* view:
    /// entries written by other processes sharing the directory are
    /// picked up on the next `open` (or after a `clear`, which rescans).
    entries: AtomicU64,
    bytes: AtomicU64,
    /// Serializes gauge-mutating ops against `clear`'s sweep + resync
    /// window: a `put` landing between the sweep and the rescan would
    /// otherwise be double-counted (its file is seen by the scan *and*
    /// its own increment runs after), drifting `entries`/`bytes` until
    /// the next clear. Same discipline as `TieredStore`: the frequent
    /// ops share the lock, `clear` takes it exclusively.
    admin_gate: std::sync::RwLock<()>,
    /// Latency histograms, resolved once at `open`.
    get_timer: Arc<qobs::Histogram>,
    put_timer: Arc<qobs::Histogram>,
}

/// Saturating decrement for a gauge (concurrent cross-process mutation
/// can make decrements over-approximate; a floor of zero beats wrapping
/// to 2^64 in a report).
fn gauge_sub(gauge: &AtomicU64, amount: u64) {
    let _ = gauge.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(amount)));
}

/// FNV-1a over the non-fingerprint half of the key; disambiguates two
/// entries for the same circuit under different oracles/configs in the
/// file name. Collisions are harmless — the body repeats the full key and
/// a mismatch reads as a stale miss.
fn config_hash(key: &JobKey) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut absorb = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    absorb(key.oracle_id.as_bytes());
    absorb(&[0]);
    absorb(&(key.config.omega as u64).to_le_bytes());
    absorb(&(key.config.max_rounds as u64).to_le_bytes());
    h
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `dir`. Scans the
    /// directory once to seed the entry/byte gauges.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = DiskStore {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            admin_gate: std::sync::RwLock::new(()),
            get_timer: metrics::store_get_duration("disk"),
            put_timer: metrics::store_put_duration("disk"),
        };
        store.resync();
        Ok(store)
    }

    /// Re-seeds the entry/byte gauges from a directory scan (open time,
    /// and after `clear`, when the incremental view has been reset).
    fn resync(&self) {
        let (entries, bytes) = self.scan();
        self.entries.store(entries as u64, Relaxed);
        self.bytes.store(bytes, Relaxed);
    }

    /// The directory this store persists under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Entries this store discarded as stale (wrong format or oracle
    /// version) since it was opened.
    pub fn invalidated(&self) -> u64 {
        self.invalidated.load(Relaxed)
    }

    /// Corrupt files this store moved into `quarantine/` since it was
    /// opened.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Relaxed)
    }

    fn entry_path(&self, key: &JobKey) -> PathBuf {
        self.dir.join(format!(
            "{}-{:016x}.entry",
            key.fingerprint,
            config_hash(key)
        ))
    }

    /// Moves a corrupt file into `quarantine/` (best effort — a racing
    /// process may have moved or deleted it first). `size` is the body
    /// length just read, for the byte gauge.
    fn quarantine(&self, path: &Path, size: u64) {
        let _gate = self.admin_gate.read().expect("disk admin gate poisoned");
        let qdir = self.dir.join("quarantine");
        let _ = std::fs::create_dir_all(&qdir);
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "entry".to_string());
        let unique = self.tmp_counter.fetch_add(1, Relaxed);
        let dest = qdir.join(format!("{name}.{}-{unique}", std::process::id()));
        if std::fs::rename(path, &dest).is_err() {
            let _ = std::fs::remove_file(path);
        }
        self.quarantined.fetch_add(1, Relaxed);
        gauge_sub(&self.entries, 1);
        gauge_sub(&self.bytes, size);
    }

    /// Discards a well-formed but stale file (old format or oracle code).
    fn invalidate(&self, path: &Path, size: u64) {
        let _gate = self.admin_gate.read().expect("disk admin gate poisoned");
        let _ = std::fs::remove_file(path);
        self.invalidated.fetch_add(1, Relaxed);
        gauge_sub(&self.entries, 1);
        gauge_sub(&self.bytes, size);
    }
}

/// Serializes one `(key, oracle_version, run)` into the versioned entry
/// document described in the module docs. This is the ONE encoding shared
/// by the disk tier (one document per `.entry` file) and the remote wire
/// protocol (the same document as a PUT payload), so the cache server
/// persists exactly what a local `DiskStore` would.
pub fn encode_entry(key: &JobKey, oracle_version: &str, run: &CachedRun) -> String {
    let doc = json!({
        "store_format": STORE_FORMAT_VERSION,
        "fingerprint": key.fingerprint.to_hex().as_str(),
        "oracle_id": key.oracle_id.as_str(),
        "oracle_version": oracle_version,
        "omega": key.config.omega as u64,
        "max_rounds": key.config.max_rounds as u64,
        "qasm": qasm::to_qasm(&run.circuit).as_str(),
        "stats": {
            "rounds": run.stats.rounds as u64,
            "oracle_calls": run.stats.oracle_calls,
            "accepted": run.stats.accepted,
            "oracle_nanos": run.stats.oracle_nanos,
            "total_nanos": run.stats.total_nanos,
            "initial_units": run.stats.initial_units as u64,
            "final_units": run.stats.final_units as u64,
            "seg_cache_hits": run.stats.seg_cache_hits,
        },
    });
    serde_json::to_string(&doc).expect("serialize cache entry")
}

/// Parses and fully validates one entry body against the key it was
/// looked up under. `Err` distinguishes corrupt bodies (quarantine) from
/// merely stale ones (silent removal) — see [`EntryRejection`].
pub fn decode_entry(
    key: &JobKey,
    oracle_version: &str,
    text: &str,
) -> Result<CachedRun, EntryRejection> {
    let doc = serde_json::from_str(text).map_err(|_| EntryRejection::Corrupt)?;
    decode_doc(key, oracle_version, &doc)
}

/// [`decode_entry`] on an already parsed document.
fn decode_doc(
    key: &JobKey,
    oracle_version: &str,
    doc: &Value,
) -> Result<CachedRun, EntryRejection> {
    let num = |field: &str| doc.get(field).and_then(Value::as_u64);
    // A parseable document with the wrong format version is *stale*,
    // not corrupt — whatever wrote it knew what it was doing.
    match num("store_format") {
        Some(STORE_FORMAT_VERSION) => {}
        Some(_) => return Err(EntryRejection::Stale),
        None => return Err(EntryRejection::Corrupt),
    }
    let field = |name: &str| doc.get(name).and_then(Value::as_str);
    let matches_key = field("fingerprint") == Some(key.fingerprint.to_hex().as_str())
        && field("oracle_id") == Some(key.oracle_id.as_str())
        && num("omega") == Some(key.config.omega as u64)
        && num("max_rounds") == Some(key.config.max_rounds as u64);
    if !matches_key || field("oracle_version") != Some(oracle_version) {
        return Err(EntryRejection::Stale);
    }
    let qasm_text = field("qasm").ok_or(EntryRejection::Corrupt)?;
    let circuit = qasm::parse(qasm_text).map_err(|_| EntryRejection::Corrupt)?;
    let stats_doc = doc.get("stats").ok_or(EntryRejection::Corrupt)?;
    let stat = |name: &str| {
        stats_doc
            .get(name)
            .and_then(Value::as_u64)
            .ok_or(EntryRejection::Corrupt)
    };
    let stats = PopqcStats {
        rounds: stat("rounds")? as usize,
        oracle_calls: stat("oracle_calls")?,
        accepted: stat("accepted")?,
        oracle_nanos: stat("oracle_nanos")?,
        total_nanos: stat("total_nanos")?,
        initial_units: stat("initial_units")? as usize,
        final_units: stat("final_units")? as usize,
        // Tolerant decode: entries written before the segment cache
        // existed lack this field; treating it as 0 keeps them valid
        // without a format-version bump.
        seg_cache_hits: stat("seg_cache_hits").unwrap_or(0),
        rounds_detail: Vec::new(),
    };
    // Cross-field consistency: the parsed body must be the circuit the
    // stats describe. Catches a truncation that still happens to end
    // on a QASM statement boundary.
    if stats.final_units != circuit.gates.len() {
        return Err(EntryRejection::Corrupt);
    }
    Ok(CachedRun { circuit, stats })
}

/// Parses an entry document that *carries its own key* — the cache
/// server's PUT path, where no expected key exists yet. Extracts the
/// `(key, oracle_version)` from the header fields, then runs the same
/// full validation as [`decode_entry`] on the same parsed document, so a
/// malformed or inconsistent document is refused before it can be
/// persisted for other replicas.
pub fn decode_entry_owned(text: &str) -> Result<(JobKey, String, CachedRun), EntryRejection> {
    let doc: Value = serde_json::from_str(text).map_err(|_| EntryRejection::Corrupt)?;
    let (key, oracle_version) = decode_key_header(&doc).ok_or(EntryRejection::Corrupt)?;
    let run = decode_doc(&key, &oracle_version, &doc)?;
    Ok((key, oracle_version, run))
}

/// Reads the `(key, oracle_version)` header that an entry document and a
/// wire key document share: a 32-hex-digit `fingerprint`, `oracle_id`,
/// `omega`, `max_rounds` and `oracle_version`. `None` when any of them is
/// missing or malformed; each caller maps that to its own error.
pub(crate) fn decode_key_header(doc: &Value) -> Option<(JobKey, String)> {
    let field = |name: &str| doc.get(name).and_then(Value::as_str);
    let num = |name: &str| doc.get(name).and_then(Value::as_u64);
    let fp_hex = field("fingerprint").filter(|hex| hex.len() == 32)?;
    let key = JobKey {
        fingerprint: qcir::Fingerprint(u128::from_str_radix(fp_hex, 16).ok()?),
        oracle_id: field("oracle_id")?.to_string(),
        config: popqc_core::PopqcConfig {
            omega: num("omega")? as usize,
            max_rounds: num("max_rounds")? as usize,
        },
    };
    Some((key, field("oracle_version")?.to_string()))
}

/// Why a stored entry was refused: the two classes get different
/// self-healing (quarantine vs. silent removal) on disk, and both read
/// as a plain miss to callers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryRejection {
    /// Unreadable, truncated, or internally inconsistent: quarantine it.
    Corrupt,
    /// Well-formed but written by different code (format or oracle
    /// version) or for a different key: remove it.
    Stale,
}

impl ResultStore for DiskStore {
    fn get(&self, key: &JobKey, oracle_version: &str) -> Option<Arc<CachedRun>> {
        let _timer = self.get_timer.start_timer();
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => {
                self.misses.fetch_add(1, Relaxed);
                return None;
            }
        };
        match decode_entry(key, oracle_version, &text) {
            Ok(run) => {
                self.hits.fetch_add(1, Relaxed);
                Some(Arc::new(run))
            }
            Err(EntryRejection::Corrupt) => {
                self.quarantine(&path, text.len() as u64);
                self.misses.fetch_add(1, Relaxed);
                None
            }
            Err(EntryRejection::Stale) => {
                self.invalidate(&path, text.len() as u64);
                self.misses.fetch_add(1, Relaxed);
                None
            }
        }
    }

    fn put(&self, key: &JobKey, oracle_version: &str, value: Arc<CachedRun>) {
        let _timer = self.put_timer.start_timer();
        // Shared gate: held across the replaced-file probe, the rename,
        // and the gauge updates, so a concurrent `clear` resync cannot
        // interleave and double-count this entry.
        let _gate = self.admin_gate.read().expect("disk admin gate poisoned");
        let path = self.entry_path(key);
        let unique = self.tmp_counter.fetch_add(1, Relaxed);
        let tmp = self
            .dir
            .join(format!(".tmp-{}-{unique}", std::process::id()));
        let body = encode_entry(key, oracle_version, &value);
        let body_len = body.len() as u64;
        // Whatever this put replaces, for the gauges (`None` = fresh key).
        let replaced = std::fs::metadata(&path).map(|m| m.len()).ok();
        // Write-then-rename: a crash mid-write leaves a stray temp file,
        // never a truncated entry under a live name. Failures are silent
        // by design — a full disk degrades the cache, not the service —
        // but the temp file is always cleaned up on the failure paths.
        match std::fs::write(&tmp, body) {
            Ok(()) => {
                if std::fs::rename(&tmp, &path).is_ok() {
                    if replaced.is_none() {
                        self.entries.fetch_add(1, Relaxed);
                    }
                    gauge_sub(&self.bytes, replaced.unwrap_or(0));
                    self.bytes.fetch_add(body_len, Relaxed);
                } else {
                    let _ = std::fs::remove_file(&tmp);
                }
            }
            Err(_) => {
                // A failed write can still have created (and partially
                // filled) the file — e.g. on a full disk.
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }

    fn remove(&self, key: &JobKey) -> bool {
        let _gate = self.admin_gate.read().expect("disk admin gate poisoned");
        let path = self.entry_path(key);
        let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let removed = std::fs::remove_file(path).is_ok();
        if removed {
            gauge_sub(&self.entries, 1);
            gauge_sub(&self.bytes, size);
        }
        removed
    }

    fn clear(&self) -> u64 {
        // Exclusive for the whole sweep + resync window: a `put` racing
        // the rescan would otherwise land its file in the scan *and* add
        // its own increment afterwards, drifting the gauges until the
        // next clear (the regression this gate exists for).
        let _gate = self.admin_gate.write().expect("disk admin gate poisoned");
        let mut removed = 0;
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|x| x == "entry") {
                    if std::fs::remove_file(&path).is_ok() {
                        removed += 1;
                    }
                } else if path
                    .file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with(".tmp-"))
                {
                    // Admin sweep: temp files orphaned by a crashed writer.
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        // Re-seed the gauges from disk rather than zeroing them: entries
        // written by concurrent processes mid-clear stay counted.
        self.resync();
        removed
    }

    fn len(&self) -> usize {
        self.entries.load(Relaxed) as usize
    }

    fn stats(&self) -> CacheReport {
        let tier = CacheTierReport {
            tier: "disk".to_string(),
            entries: self.entries.load(Relaxed),
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            // Stale entries discarded on read are this tier's eviction
            // analogue; quarantined files are counted separately but
            // also no longer serve hits.
            evictions: self.invalidated.load(Relaxed) + self.quarantined.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            errors: 0,
        };
        store_report("disk", vec![tier])
    }
}

impl DiskStore {
    /// Walks the directory once: (entry count, total entry bytes).
    fn scan(&self) -> (usize, u64) {
        let mut count = 0;
        let mut bytes = 0;
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|x| x == "entry") {
                    count += 1;
                    bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
                }
            }
        }
        (count, bytes)
    }
}

// ---------------------------------------------------------------------------
// TieredStore
// ---------------------------------------------------------------------------

/// A fast tier in front of an authoritative one. Reads probe the front
/// first and **promote on hit** (a back-tier hit is re-inserted into the
/// front, so hot keys migrate forward); writes go **through** to both, so
/// the front always holds a subset of the back and clearing the back
/// clears the truth.
pub struct TieredStore {
    front: Arc<dyn ResultStore>,
    back: Arc<dyn ResultStore>,
    /// Serializes promotions against `clear`/`remove`: without it, a
    /// back-tier read racing an admin clear could re-insert its entry
    /// into the front *after* both tiers were emptied, breaking the
    /// front ⊆ back invariant (a "cleared" cache would keep serving the
    /// key from memory). Reads share the lock; the rare admin ops take it
    /// exclusively.
    admin_gate: std::sync::RwLock<()>,
}

impl TieredStore {
    /// `front` answers first; `back` is authoritative.
    pub fn new(front: Arc<dyn ResultStore>, back: Arc<dyn ResultStore>) -> TieredStore {
        TieredStore {
            front,
            back,
            admin_gate: std::sync::RwLock::new(()),
        }
    }
}

impl ResultStore for TieredStore {
    fn get(&self, key: &JobKey, oracle_version: &str) -> Option<Arc<CachedRun>> {
        if let Some(run) = self.front.get(key, oracle_version) {
            return Some(run);
        }
        // Hold the (shared) gate across probe + promote so an admin
        // clear/remove cannot interleave between them.
        let _gate = self.admin_gate.read().expect("tiered admin gate poisoned");
        let run = self.back.get(key, oracle_version)?;
        // Promote: the next lookup for this key answers from the front.
        self.front.put(key, oracle_version, Arc::clone(&run));
        Some(run)
    }

    fn put(&self, key: &JobKey, oracle_version: &str, value: Arc<CachedRun>) {
        self.front.put(key, oracle_version, Arc::clone(&value));
        self.back.put(key, oracle_version, value);
    }

    fn remove(&self, key: &JobKey) -> bool {
        let _gate = self.admin_gate.write().expect("tiered admin gate poisoned");
        let front = self.front.remove(key);
        self.back.remove(key) || front
    }

    fn clear(&self) -> u64 {
        // Exclusive: in-flight promotions finish (or wait) before both
        // tiers drop, so no promote can resurrect a cleared entry.
        let _gate = self.admin_gate.write().expect("tiered admin gate poisoned");
        self.front.clear();
        // Write-through keeps front ⊆ back, so the back count is the
        // number of distinct entries dropped.
        self.back.clear()
    }

    fn len(&self) -> usize {
        self.back.len()
    }

    fn stats(&self) -> CacheReport {
        let mut tiers = self.front.stats().tiers;
        tiers.extend(self.back.stats().tiers);
        store_report("tiered", tiers)
    }
}

// ---------------------------------------------------------------------------
// Construction seam
// ---------------------------------------------------------------------------

/// The one composition rule for a result store: a [`MemoryStore`] front
/// of `capacity` entries over a [`DiskStore`] at `cache_dir`, a
/// [`RemoteStore`](crate::remote::RemoteStore) at `cache_addr`, or no
/// back at all. A zero capacity means no front, so a back alone is
/// served bare and no back at all is the `null` store. Both back flags
/// together is the one refusal.
pub fn compose_store(
    cache_dir: Option<&Path>,
    cache_addr: Option<&str>,
    capacity: usize,
    shards: usize,
) -> Result<Arc<dyn ResultStore>, String> {
    let back: Arc<dyn ResultStore> = match (cache_dir, cache_addr) {
        (Some(_), Some(_)) => {
            return Err("a store takes exactly one back tier: \
                        --cache-dir (disk) or --cache-addr (remote), not both"
                .to_string())
        }
        (Some(dir), None) => Arc::new(
            DiskStore::open(dir)
                .map_err(|e| format!("cannot open cache dir {}: {e}", dir.display()))?,
        ),
        (None, Some(addr)) => Arc::new(crate::remote::RemoteStore::new(
            crate::remote::RemoteConfig::new(addr),
        )?),
        (None, None) => return Ok(Arc::new(MemoryStore::new(capacity, shards))),
    };
    Ok(match capacity {
        0 => back,
        _ => Arc::new(TieredStore::new(
            Arc::new(MemoryStore::new(capacity, shards)),
            back,
        )),
    })
}

/// The store shapes [`build_store`] names, each one case of
/// [`compose_store`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreTier {
    /// Process-local LRU only (no persistence).
    Memory,
    /// Disk only: every probe and write goes to the cache directory.
    Disk,
    /// Memory in front of disk (`--cache-dir`) or of a remote cache
    /// server (`--cache-addr`): RAM-speed hits, shared/persistent truth.
    Tiered,
    /// A shared `popqc cached` server over TCP (`--cache-addr`) alone.
    Remote,
}

/// [`compose_store`] for a named shape: `Disk` and `Tiered` need
/// `cache_dir` (or, for `Tiered`, `cache_addr`), `Remote` needs
/// `cache_addr`. `capacity` and `shards` size the memory tier where one
/// exists.
pub fn build_store(
    tier: StoreTier,
    cache_dir: Option<&Path>,
    cache_addr: Option<&str>,
    capacity: usize,
    shards: usize,
) -> Result<Arc<dyn ResultStore>, String> {
    let need = |flag: &str| format!("{tier:?} store requires {flag}");
    match tier {
        StoreTier::Memory => compose_store(None, None, capacity, shards),
        StoreTier::Disk => {
            let dir = cache_dir.ok_or_else(|| need("--cache-dir"))?;
            compose_store(Some(dir), None, 0, shards)
        }
        StoreTier::Remote => {
            let addr = cache_addr.ok_or_else(|| need("--cache-addr"))?;
            compose_store(None, Some(addr), 0, shards)
        }
        StoreTier::Tiered if cache_dir.is_none() && cache_addr.is_none() => {
            Err(need("--cache-dir"))
        }
        StoreTier::Tiered => compose_store(cache_dir, cache_addr, capacity, shards),
    }
}
