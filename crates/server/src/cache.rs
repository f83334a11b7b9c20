//! A sharded LRU cache for rendered analysis results.
//!
//! The cache maps [canonical keys](crate::canonical) to rendered result
//! payloads. Keys are hashed to one of `SHARDS` independent shards so that
//! worker threads completing unrelated requests rarely contend on the same
//! lock; each shard is a classic `HashMap` + intrusive doubly-linked list
//! (indices into a slab, no `unsafe`) giving O(1) get/insert/evict.
//!
//! Capacity is split evenly across shards at construction; a capacity below
//! the shard count degenerates gracefully to one entry per shard, and a
//! capacity of zero disables caching entirely (every lookup misses, inserts
//! are dropped).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independent shards. A power of two so the shard index is a
/// cheap mask of the key hash.
const SHARDS: usize = 16;

const NIL: usize = usize::MAX;

struct Entry {
    key: String,
    value: String,
    prev: usize,
    next: usize,
}

/// One shard: map from key to slab index, plus an LRU list threaded through
/// the slab (`head` = most recent, `tail` = least recent, `free` = recycled
/// slots).
struct Shard {
    map: HashMap<String, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn get(&mut self, key: &str) -> Option<String> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(self.slab[idx].value.clone())
    }

    /// Inserts `key -> value`, evicting the least-recently-used entry when
    /// full. Returns `true` if an eviction happened.
    fn insert(&mut self, key: String, value: String) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let old_key = std::mem::take(&mut self.slab[victim].key);
            self.map.remove(&old_key);
            self.free.push(victim);
            evicted = true;
        }
        let idx = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Entry {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                };
                slot
            }
            None => {
                self.slab.push(Entry {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Appends this shard's entries to `out`, least recently used first, so
    /// that re-inserting them in order reproduces the recency order.
    fn export_into(&self, out: &mut Vec<(String, String)>) {
        let mut idx = self.tail;
        while idx != NIL {
            let entry = &self.slab[idx];
            out.push((entry.key.clone(), entry.value.clone()));
            idx = entry.prev;
        }
    }
}

/// A thread-safe sharded LRU cache from canonical keys to rendered results.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
}

/// A point-in-time snapshot of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the engines.
    pub misses: u64,
    /// Entries discarded to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` entries in total.
    pub fn new(capacity: usize) -> ResultCache {
        // Spread capacity across shards, rounding up so the total is never
        // below the request (except capacity 0, which disables the cache).
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(SHARDS)
        };
        ResultCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &str) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) & (SHARDS - 1)]
    }

    /// Looks up `key`, refreshing its recency on a hit and bumping the
    /// hit/miss counters.
    pub fn get(&self, key: &str) -> Option<String> {
        let found = self
            .shard_for(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key);
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `key -> value`, evicting the shard's least-recently-used entry
    /// if it is full.
    pub fn insert(&self, key: String, value: String) {
        let evicted = self
            .shard_for(&key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, value);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total inserts ever performed — a cheap dirtiness clock for the
    /// snapshot persister (unchanged inserts ⇒ nothing new to write).
    pub fn inserts(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Every resident entry, least recently used first within each shard,
    /// so that inserting the exported pairs in order into an empty cache of
    /// the same capacity reproduces both the contents and the per-shard
    /// eviction order (keys hash to the same shard across runs —
    /// `DefaultHasher::new` is deterministic).
    pub fn export(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            shard
                .lock()
                .expect("cache shard poisoned")
                .export_into(&mut out);
        }
        out
    }

    /// The current counters and entry count.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_evicts_in_lru_order() {
        // Capacity 3 in one shard exercises the list mechanics directly.
        let mut shard = Shard::new(3);
        shard.insert("a".into(), "1".into());
        shard.insert("b".into(), "2".into());
        shard.insert("c".into(), "3".into());
        // Touch "a" so "b" becomes the least recently used.
        assert_eq!(shard.get("a"), Some("1".into()));
        assert!(shard.insert("d".into(), "4".into()), "must evict");
        assert_eq!(shard.get("b"), None, "b was LRU and must be gone");
        assert_eq!(shard.get("a"), Some("1".into()));
        assert_eq!(shard.get("c"), Some("3".into()));
        assert_eq!(shard.get("d"), Some("4".into()));
        assert_eq!(shard.len(), 3);
    }

    #[test]
    fn eviction_order_follows_access_sequence_exactly() {
        let mut shard = Shard::new(2);
        shard.insert("a".into(), "1".into());
        shard.insert("b".into(), "2".into());
        shard.get("a");
        shard.insert("c".into(), "3".into()); // evicts b
        shard.get("c");
        shard.insert("d".into(), "4".into()); // evicts a
        assert_eq!(shard.get("a"), None);
        assert_eq!(shard.get("b"), None);
        assert!(shard.get("c").is_some());
        assert!(shard.get("d").is_some());
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut shard = Shard::new(2);
        shard.insert("a".into(), "1".into());
        shard.insert("b".into(), "2".into());
        assert!(!shard.insert("a".into(), "1'".into()));
        assert_eq!(shard.get("a"), Some("1'".into()));
        assert_eq!(shard.get("b"), Some("2".into()));
    }

    #[test]
    fn slots_are_recycled_across_many_evictions() {
        let mut shard = Shard::new(4);
        for i in 0..1000 {
            shard.insert(format!("k{i}"), format!("v{i}"));
        }
        assert_eq!(shard.len(), 4);
        assert!(shard.slab.len() <= 5, "slab must not grow unboundedly");
        for i in 996..1000 {
            assert_eq!(shard.get(&format!("k{i}")), Some(format!("v{i}")));
        }
    }

    #[test]
    fn cache_counts_hits_misses_and_entries() {
        let cache = ResultCache::new(64);
        assert_eq!(cache.get("missing"), None);
        cache.insert("k".into(), "v".into());
        assert_eq!(cache.get("k"), Some("v".into()));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn export_reproduces_contents_and_eviction_order() {
        let cache = ResultCache::new(64);
        for i in 0..40 {
            cache.insert(format!("key-{i}"), format!("val-{i}"));
        }
        // Refresh a few entries so the recency order differs from insert
        // order.
        for i in 0..10 {
            cache.get(&format!("key-{i}"));
        }
        let exported = cache.export();
        assert_eq!(exported.len(), cache.stats().entries);
        assert!(!exported.is_empty());

        // Re-inserting the export in order into a fresh same-capacity cache
        // must reproduce the contents *and* the per-shard recency order
        // exactly (export walks LRU-first, so inserts replay that order)...
        let restored = ResultCache::new(64);
        for (key, value) in &exported {
            restored.insert(key.clone(), value.clone());
        }
        assert_eq!(restored.export(), exported);
        // ...which means overflowing both caches with the same filler keys
        // must evict the same survivors.
        let original_after = {
            for i in 100..200 {
                cache.insert(format!("fill-{i}"), "x".into());
            }
            let mut keys: Vec<String> = cache.export().into_iter().map(|(k, _)| k).collect();
            keys.sort();
            keys
        };
        let restored_after = {
            for i in 100..200 {
                restored.insert(format!("fill-{i}"), "x".into());
            }
            let mut keys: Vec<String> = restored.export().into_iter().map(|(k, _)| k).collect();
            keys.sort();
            keys
        };
        assert_eq!(original_after, restored_after);
    }

    #[test]
    fn insert_counter_advances_monotonically() {
        let cache = ResultCache::new(4);
        assert_eq!(cache.inserts(), 0);
        cache.insert("a".into(), "1".into());
        cache.insert("a".into(), "2".into());
        cache.insert("b".into(), "3".into());
        assert_eq!(cache.inserts(), 3, "reinserts and evictions all count");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0);
        cache.insert("k".into(), "v".into());
        assert_eq!(cache.get("k"), None);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn capacity_bound_holds_under_skewed_keys() {
        let cache = ResultCache::new(32);
        for i in 0..10_000 {
            cache.insert(format!("key-{i}"), "x".into());
        }
        let stats = cache.stats();
        // Each of the 16 shards holds at most ceil(32/16) = 2 entries.
        assert!(stats.entries <= 32, "entries = {}", stats.entries);
        assert!(stats.evictions > 0);
    }

    #[test]
    fn concurrent_access_is_safe_and_counted() {
        use std::sync::Arc;
        let cache = Arc::new(ResultCache::new(128));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let key = format!("k{}", i % 50);
                        if cache.get(&key).is_none() {
                            cache.insert(key, format!("t{t}"));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 2000);
        assert!(stats.entries <= 50);
    }
}
