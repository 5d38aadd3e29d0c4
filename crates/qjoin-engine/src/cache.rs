//! A small LRU result cache with hit/miss/eviction accounting, plus the sharded,
//! lock-per-shard wrapper the concurrent engine serves from.
//!
//! The engine keys entries by `(plan id, database generation, φ bits, accuracy)`, so
//! replacing a catalog database makes old entries unreachable immediately; the engine
//! additionally calls [`ShardedLru::invalidate`] to reclaim their memory eagerly.
//!
//! [`LruCache`] pairs a `HashMap` with a `BTreeMap` recency index keyed by a
//! monotonic tick, giving `O(log n)` touch and eviction without unsafe code or a
//! hand-rolled linked list. [`ShardedLru`] splits the capacity across independent
//! `Mutex<LruCache>` shards selected by a hash of the key, so concurrent lookups
//! seldom contend on one lock and one plan's results can fill every shard.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Cache access statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
    /// Entries removed by explicit invalidation.
    pub invalidations: u64,
}

impl CacheStats {
    /// Accumulates another shard's counters into this one (used to aggregate
    /// per-shard statistics into the engine-wide view).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
    }
}

#[derive(Clone, Debug)]
struct Slot<V> {
    value: V,
    tick: u64,
}

/// A least-recently-used cache. Capacity 0 disables caching entirely (every lookup
/// misses, every insert is dropped).
#[derive(Clone, Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, Slot<V>>,
    recency: BTreeMap<u64, K>,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
            recency: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let tick = self.next_tick();
        match self.map.get_mut(key) {
            Some(slot) => {
                self.recency.remove(&slot.tick);
                slot.tick = tick;
                self.recency.insert(tick, key.clone());
                self.stats.hits += 1;
                Some(slot.value.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) an entry, evicting the least recently used one when the
    /// capacity bound is hit.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let tick = self.next_tick();
        if let Some(slot) = self.map.get_mut(&key) {
            self.recency.remove(&slot.tick);
            slot.value = value;
            slot.tick = tick;
            self.recency.insert(tick, key);
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some((&oldest_tick, _)) = self.recency.iter().next() {
                if let Some(oldest_key) = self.recency.remove(&oldest_tick) {
                    self.map.remove(&oldest_key);
                    self.stats.evictions += 1;
                }
            }
        }
        self.map.insert(key.clone(), Slot { value, tick });
        self.recency.insert(tick, key);
    }

    /// Removes every entry matching the predicate (used when a catalog database is
    /// replaced), counting them as invalidations.
    pub fn invalidate(&mut self, mut predicate: impl FnMut(&K) -> bool) {
        let doomed: Vec<(K, u64)> = self
            .map
            .iter()
            .filter(|(k, _)| predicate(k))
            .map(|(k, slot)| (k.clone(), slot.tick))
            .collect();
        for (key, tick) in doomed {
            self.map.remove(&key);
            self.recency.remove(&tick);
            self.stats.invalidations += 1;
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A snapshot of the access statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// A sharded LRU cache: `shards` independent [`LruCache`]s, each behind its own
/// [`Mutex`], splitting the total capacity evenly. A key's shard is picked by a
/// hash of the key itself, so any one group of keys (one plan's results) spreads
/// over every shard: it can use the whole capacity, and its lookups seldom meet
/// on one lock.
///
/// Total capacity 0 disables caching entirely, exactly like [`LruCache`].
#[derive(Debug)]
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<LruCache<K, V>>>,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedLru<K, V> {
    /// A cache of `shards` shards (at least 1) holding `capacity` entries in total.
    /// Each shard gets `ceil(capacity / shards)` slots, so the usable total rounds up
    /// to a multiple of the shard count.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        ShardedLru {
            shards: (0..shards)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
        }
    }

    fn shard_index(&self, key: &K) -> usize {
        let hash = BuildHasherDefault::<DefaultHasher>::default().hash_one(key);
        (hash % self.shards.len() as u64) as usize
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Looks up a key in its shard, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        lock(&self.shards[self.shard_index(key)]).get(key)
    }

    /// Looks up a key in its shard without moving any statistic or its recency.
    pub fn peek(&self, key: &K) -> Option<V> {
        let shard = lock(&self.shards[self.shard_index(key)]);
        shard.map.get(key).map(|slot| slot.value.clone())
    }

    /// Inserts (or refreshes) an entry in its shard.
    pub fn insert(&self, key: K, value: V) {
        lock(&self.shards[self.shard_index(&key)]).insert(key, value);
    }

    /// Removes every entry matching the predicate, across all shards.
    pub fn invalidate(&self, predicate: impl Fn(&K) -> bool) {
        for shard in &self.shards {
            lock(shard).invalidate(&predicate);
        }
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| lock(s).is_empty())
    }

    /// Total configured capacity (sum over shards).
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| lock(s).capacity()).sum()
    }

    /// Live entries per shard, in shard order (the occupancy view behind the
    /// `stats` dump's shard line and the `qjoin_cache_shard_entries` gauge).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| lock(s).len()).collect()
    }

    /// Access statistics aggregated over all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.merge(&lock(shard).stats());
        }
        total
    }

    /// Per-shard access statistics, in shard order.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(|s| lock(s).stats()).collect()
    }
}

/// A shard, recovered from poisoning. A panic under a shard's lock can only come
/// from a key or value clone inside an [`LruCache`] method, and the worst it
/// leaves is an entry the recency index no longer names: lookups read the map,
/// so they still return the right value; the next touch re-indexes the entry,
/// and eviction passes it over until then. No value a caller reads is torn.
fn lock<T>(shard: &Mutex<T>) -> MutexGuard<'_, T> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_refresh_recency() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.get(&"a"), Some(1)); // "a" is now the most recent
        cache.insert("c", 3); // evicts "b"
        assert_eq!(cache.get(&"a"), Some(1));
        assert_eq!(cache.get(&"b"), None);
        assert_eq!(cache.get(&"c"), Some(3));
        assert_eq!(cache.stats().evictions, 1);
    }

    /// Mutation: peek with `get` and "a" is the most recent, so "b" survives the
    /// insert, and the statistics read two lookups.
    #[test]
    fn a_peek_moves_no_statistic_and_no_recency() {
        let cache: ShardedLru<&str, i32> = ShardedLru::new(2, 1);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!((cache.peek(&"a"), cache.peek(&"z")), (Some(1), None));
        assert_eq!(cache.stats(), CacheStats::default());
        cache.insert("c", 3); // "a" is still the least recent: it goes
        let live = ["a", "b", "c"].map(|key| cache.peek(&key));
        assert_eq!(live, [None, Some(2), Some(3)]);
    }

    #[test]
    fn reinsert_updates_in_place_without_eviction() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("a", 10);
        cache.insert("b", 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&"a"), Some(10));
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn invalidate_removes_matching_entries() {
        let mut cache = LruCache::new(8);
        for i in 0..6 {
            cache.insert((i % 2, i), i * 10);
        }
        cache.invalidate(|&(plan, _)| plan == 0);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().invalidations, 3);
        assert_eq!(cache.get(&(1, 1)), Some(10));
        assert_eq!(cache.get(&(0, 0)), None);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = LruCache::new(0);
        cache.insert("a", 1);
        assert_eq!(cache.get(&"a"), None);
        assert!(cache.is_empty());
    }

    /// Keys spread over the shards by their hash; lookups route to the key's
    /// shard, and the counters aggregate over all of them.
    #[test]
    fn sharded_routes_by_key_hash_and_aggregates() {
        let cache: ShardedLru<(u64, u32), i64> = ShardedLru::new(8, 4);
        assert_eq!(cache.shards(), 4);
        assert_eq!(cache.capacity(), 8); // ceil(8/4) = 2 per shard, 4 shards
        for phi in 0..4u32 {
            cache.insert((0, phi), phi as i64 * 10);
        }
        assert_eq!(cache.get(&(0, 0)), Some(0));
        assert_eq!(cache.get(&(0, 3)), Some(30));
        assert_eq!(cache.get(&(0, 9)), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        // The missed key's shard saw the miss.
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), 2);
        assert_eq!(per_shard[cache.shard_index(&(0, 9))].misses, 1);
    }

    /// One slot per shard: two keys hashed to the same shard evict each other,
    /// while a key on the other shard survives.
    #[test]
    fn sharded_eviction_is_per_shard() {
        let cache: ShardedLru<(u64, u32), i64> = ShardedLru::new(2, 2);
        let keys: Vec<(u64, u32)> = (0..16).map(|phi| (0, phi)).collect();
        let shard = |key| cache.shard_index(key);
        let first = keys[0];
        let same = *keys[1..]
            .iter()
            .find(|k| shard(k) == shard(&first))
            .unwrap();
        let other = *keys.iter().find(|k| shard(k) != shard(&first)).unwrap();
        cache.insert(first, 1);
        cache.insert(other, 2);
        cache.insert(same, 3); // evicts `first` from their shard
        assert_eq!(cache.get(&first), None);
        assert_eq!(cache.get(&same), Some(3));
        assert_eq!(cache.get(&other), Some(2));
        assert_eq!(cache.stats().evictions, 1);
    }

    /// One group of keys — one plan's results — can use every shard: 512 keys of
    /// one plan id all stay in the engine's default 1024 entries over 8 shards.
    /// Fails if the shard is picked by the plan id, which keeps 128 of them.
    #[test]
    fn one_plans_keys_fill_every_shard() {
        let cache: ShardedLru<(u64, u32), i64> = ShardedLru::new(1024, 8);
        for phi in 0..512u32 {
            cache.insert((7, phi), phi as i64);
        }
        assert!((0..512u32).all(|phi| cache.get(&(7, phi)) == Some(phi as i64)));
        assert_eq!(cache.stats().evictions, 0);
        assert!(cache.shard_lens().iter().all(|&len| len > 0));
    }

    #[test]
    fn shard_lens_report_per_shard_occupancy() {
        let cache: ShardedLru<(u64, u32), i64> = ShardedLru::new(16, 4);
        let keys = [(0, 0), (0, 1), (2, 0)];
        let mut expected = vec![0; 4];
        for (i, key) in keys.into_iter().enumerate() {
            cache.insert(key, i as i64);
            expected[cache.shard_index(&key)] += 1;
        }
        assert_eq!(cache.shard_lens(), expected);
        assert_eq!(cache.shard_lens().iter().sum::<usize>(), cache.len());
    }

    #[test]
    fn sharded_invalidate_spans_all_shards() {
        // 8 slots a shard: room for all 8 keys wherever they hash.
        let cache: ShardedLru<(u64, u32), i64> = ShardedLru::new(32, 4);
        for plan in 0..8u64 {
            cache.insert((plan, 0), 1);
        }
        cache.invalidate(|&(plan, _)| plan % 2 == 0);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().invalidations, 4);
    }

    /// A key whose clone panics while [`BRITTLE`] is set.
    #[derive(Debug, PartialEq, Eq, Hash)]
    struct Brittle(u32);

    static BRITTLE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

    impl Clone for Brittle {
        fn clone(&self) -> Self {
            assert!(
                !BRITTLE.load(std::sync::atomic::Ordering::Relaxed),
                "clone refused"
            );
            Brittle(self.0)
        }
    }

    /// A lookup that panics halfway through a recency update poisons its shard;
    /// the shard keeps serving the right values, evicting by capacity and
    /// counting. Fails if a shard lock's `unwrap` comes back.
    #[test]
    fn a_poisoned_shard_keeps_serving() {
        use std::sync::atomic::Ordering;
        let cache: ShardedLru<Brittle, i64> = ShardedLru::new(2, 1);
        cache.insert(Brittle(1), 10);
        BRITTLE.store(true, Ordering::Relaxed);
        let torn = std::panic::catch_unwind(|| cache.get(&Brittle(1)));
        BRITTLE.store(false, Ordering::Relaxed);
        assert!(torn.is_err() && cache.shards[0].is_poisoned());
        assert_eq!(cache.get(&Brittle(1)), Some(10));
        cache.insert(Brittle(2), 20);
        cache.insert(Brittle(3), 30); // evicts 1, the least recently used
        assert_eq!(cache.get(&Brittle(1)), None);
        assert_eq!(cache.get(&Brittle(3)), Some(30));
        assert_eq!(
            (cache.len(), cache.capacity(), cache.shard_lens()),
            (2, 2, vec![2])
        );
        cache.invalidate(|key| key.0 == 2);
        assert!(!cache.is_empty());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 1, 1));
        assert_eq!(stats.invalidations, cache.shard_stats()[0].invalidations);
    }

    #[test]
    fn sharded_zero_capacity_disables_caching() {
        let cache: ShardedLru<u64, i64> = ShardedLru::new(0, 4);
        cache.insert(0, 1);
        assert_eq!(cache.get(&0), None);
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 0);
    }
}
