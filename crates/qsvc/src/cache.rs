//! A sharded LRU cache for optimization results.
//!
//! The service's memoization layer: keys are [`JobKey`](crate::JobKey)s
//! (circuit fingerprint + oracle id + engine config), values are completed
//! job outputs behind `Arc`s so hits are O(1) clones. Sharding bounds lock
//! contention under the worker pool: each key hashes to one shard, and each
//! shard is an independently locked LRU.
//!
//! Eviction is per shard (capacity is split evenly across shards), with
//! exact LRU order maintained by a monotonic touch clock and a
//! stamp-ordered index — `O(lg n)` per touch, no unsafe linked lists.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Aggregate cache counters, cheap to read at any time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct Shard<K, V> {
    map: HashMap<K, (u64, Arc<V>)>,
    /// Touch-stamp → key, oldest first. Every entry in `map` has exactly
    /// one stamp here (its current one).
    order: BTreeMap<u64, K>,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> Shard<K, V> {
    fn touch(&mut self, key: &K, clock: &AtomicU64) -> Option<Arc<V>> {
        let (stamp, value) = self.map.get_mut(key)?;
        let new_stamp = clock.fetch_add(1, Relaxed);
        self.order.remove(stamp);
        *stamp = new_stamp;
        self.order.insert(new_stamp, key.clone());
        Some(Arc::clone(value))
    }

    /// Inserts (or refreshes) `key`; returns the number of evictions.
    fn insert(&mut self, key: K, value: Arc<V>, clock: &AtomicU64) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let new_stamp = clock.fetch_add(1, Relaxed);
        if let Some((stamp, slot)) = self.map.get_mut(&key) {
            self.order.remove(stamp);
            *stamp = new_stamp;
            *slot = value;
            self.order.insert(new_stamp, key);
            return 0;
        }
        let mut evicted = 0;
        while self.map.len() >= self.capacity {
            let Some((&oldest, _)) = self.order.iter().next() else {
                break;
            };
            let victim = self.order.remove(&oldest).expect("stamp present");
            self.map.remove(&victim);
            evicted += 1;
        }
        self.map.insert(key.clone(), (new_stamp, value));
        self.order.insert(new_stamp, key);
        evicted
    }
}

/// The lock count of every memory cache the service and the `popqc` CLI
/// build: the result store's memory tier and the segment cache. Small
/// capacities still clamp to one shard per entry (see
/// [`ShardedLruCache::new`]).
pub const CACHE_SHARDS: usize = 16;

/// The sharded LRU. `K` must hash identically across threads, which every
/// `Hash` type does; shard choice uses a private FNV so it is independent
/// of `HashMap`'s randomized state.
pub struct ShardedLruCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V> ShardedLruCache<K, V> {
    /// `capacity` is the total entry budget, split evenly across `shards`.
    ///
    /// **Capacity `0` is the null cache**: every lookup misses, inserts are
    /// dropped, and no operation panics — including the `shards == 0` and
    /// `new(0, 0)` corners, where the shard count is clamped to one empty
    /// shard. This is what [`ServiceConfig::cache_capacity`]
    /// `= 0` (and the `null` store tier) rely on.
    ///
    /// **Capacity rounding**: the shard count is clamped to
    /// `1..=capacity`, then each shard gets `max(1, capacity / shards)`
    /// slots. The *effective* total is therefore
    /// `per_shard × shards`, which rounds the requested capacity **down**
    /// when `shards` does not divide it (e.g. `new(10, 4)` holds at most
    /// 8 entries) and never rounds it up. Callers that need an exact
    /// budget should pass a capacity divisible by the shard count.
    ///
    /// [`ServiceConfig::cache_capacity`]: crate::ServiceConfig
    pub fn new(capacity: usize, shards: usize) -> ShardedLruCache<K, V> {
        let shards = shards.clamp(1, capacity.max(1));
        let per_shard = if capacity == 0 {
            0
        } else {
            (capacity / shards).max(1)
        };
        ShardedLruCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        order: BTreeMap::new(),
                        capacity: per_shard,
                    })
                })
                .collect(),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &K) -> &Mutex<Shard<K, V>> {
        struct Fnv(u64);
        impl Hasher for Fnv {
            fn finish(&self) -> u64 {
                self.0
            }
            fn write(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.0 ^= b as u64;
                    self.0 = self.0.wrapping_mul(0x100000001b3);
                }
            }
        }
        let mut h = Fnv(0xcbf29ce484222325);
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let hit = self
            .shard_for(key)
            .lock()
            .expect("cache shard poisoned")
            .touch(key, &self.clock);
        match &hit {
            Some(_) => self.hits.fetch_add(1, Relaxed),
            None => self.misses.fetch_add(1, Relaxed),
        };
        hit
    }

    /// Inserts `value` under `key`, evicting LRU entries if the shard is
    /// full. Re-inserting an existing key refreshes it in place.
    pub fn insert(&self, key: K, value: Arc<V>) {
        let evicted = self
            .shard_for(&key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, value, &self.clock);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Relaxed);
        }
    }

    /// Removes `key` if present; returns whether an entry was dropped.
    pub fn remove(&self, key: &K) -> bool {
        let mut shard = self.shard_for(key).lock().expect("cache shard poisoned");
        match shard.map.remove(key) {
            Some((stamp, _)) => {
                shard.order.remove(&stamp);
                true
            }
            None => false,
        }
    }

    /// Drops every entry; returns how many were removed. The monotonic
    /// hit/miss/eviction counters are preserved (a clear is an admin
    /// action, not an eviction).
    pub fn clear(&self) -> u64 {
        let mut removed = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            removed += shard.map.len() as u64;
            shard.map.clear();
            shard.order.clear();
        }
        removed
    }

    /// Folds `f` over every live value (e.g. approximate byte accounting).
    /// Takes each shard lock once; O(n) and not atomic across shards.
    pub fn sum_values(&self, f: impl Fn(&V) -> u64) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("cache shard poisoned");
                shard.map.values().map(|(_, v)| f(v)).sum::<u64>()
            })
            .sum()
    }

    /// Number of live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(8, 2);
        assert!(cache.get(&1).is_none());
        cache.insert(1, Arc::new(10));
        assert_eq!(cache.get(&1).as_deref(), Some(&10));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        // Single shard to make the LRU order observable.
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(2, 1);
        cache.insert(1, Arc::new(1));
        cache.insert(2, Arc::new(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(&1).is_some());
        cache.insert(3, Arc::new(3));
        assert!(
            cache.get(&2).is_none(),
            "LRU entry should have been evicted"
        );
        assert!(cache.get(&1).is_some());
        assert!(cache.get(&3).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(0, 4);
        cache.insert(1, Arc::new(1));
        assert!(cache.get(&1).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn zero_capacity_zero_shards_is_a_null_cache_never_a_panic() {
        // The degenerate corner: both knobs zero. Must behave exactly like
        // the null store — always miss, count misses, never panic — for
        // every operation the store layer forwards.
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(0, 0);
        cache.insert(7, Arc::new(7));
        assert!(cache.get(&7).is_none());
        assert!(!cache.remove(&7));
        assert_eq!(cache.clear(), 0);
        assert_eq!(cache.sum_values(|v| *v), 0);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.evictions), (0, 1, 0, 0));

        // Zero shards with a real capacity clamps to one shard.
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(4, 0);
        cache.insert(1, Arc::new(10));
        assert_eq!(cache.get(&1).as_deref(), Some(&10));
    }

    #[test]
    fn capacity_rounds_down_across_shards() {
        // 10 entries over 4 shards = 2 per shard = 8 effective: the
        // documented round-down. Overfilling one shard evicts within it,
        // so the total can never exceed per_shard * shards.
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(10, 4);
        for k in 0..100u64 {
            cache.insert(k, Arc::new(k));
        }
        assert!(
            cache.len() <= 8,
            "effective capacity is 8, got {}",
            cache.len()
        );
        assert!(cache.stats().evictions >= 92);
    }

    #[test]
    fn remove_and_clear_drop_entries() {
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(8, 2);
        for k in 0..4u64 {
            cache.insert(k, Arc::new(k * 10));
        }
        assert!(cache.remove(&2));
        assert!(!cache.remove(&2), "second remove finds nothing");
        assert!(cache.get(&2).is_none());
        assert_eq!(cache.len(), 3);
        // Removing must not corrupt the LRU order index.
        cache.insert(2, Arc::new(20));
        assert_eq!(cache.sum_values(|v| *v), 60); // values 0 + 10 + 20 + 30
        assert_eq!(cache.clear(), 4);
        assert!(cache.is_empty());
        assert!(cache.get(&1).is_none());
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(2, 1);
        cache.insert(1, Arc::new(1));
        cache.insert(1, Arc::new(100));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&1).as_deref(), Some(&100));
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn sharding_spreads_and_never_loses_entries_under_threads() {
        let cache: Arc<ShardedLruCache<u64, u64>> = Arc::new(ShardedLruCache::new(1024, 8));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..100 {
                        let k = t * 1000 + i;
                        cache.insert(k, Arc::new(k));
                        assert_eq!(cache.get(&k).as_deref(), Some(&k));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 800);
    }
}
