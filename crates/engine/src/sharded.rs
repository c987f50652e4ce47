//! A sharded, read-mostly template cache.
//!
//! The engine's original cache was one mutex-guarded LRU list: every lookup —
//! including the overwhelmingly common *hit* — took the same global lock and
//! mutated the recency list, so ≥32-thread batch workloads serialized on a
//! single cache line. This module splits the cache two ways:
//!
//! * **Sharding** — entries are distributed over `shards` independent
//!   sub-caches by key hash, so threads working on *different* program
//!   structures take different locks.
//! * **Read-mostly fast path** — each shard is an [`RwLock`] over a hash
//!   map whose entries carry an atomic last-used stamp. A hit takes the
//!   shard's *read* lock (shared, never exclusive) and bumps the stamp with
//!   a relaxed atomic store; threads hammering the *same* hot template —
//!   the parameter-sweep pattern — proceed fully in parallel. Only inserts
//!   and evictions take the write lock.
//!
//! Capacity is **global**: shards share one budget tracked by an atomic
//! counter, so a handful of entries never thrash however they hash.
//! When the cache is full, an insert evicts the least-recently-used entry
//! of its own shard (stamps come from one global monotone counter); in the
//! rare case that the inserting shard is empty, the globally oldest entry
//! is evicted instead. With a single shard this degenerates to exact LRU.
//!
//! # Poison recovery
//!
//! Every lock acquisition recovers from poisoning instead of propagating it
//! ([`PoisonError::into_inner`]). A long-running multi-client process must
//! not let one panicked request disable a shard forever: before this, a
//! panic while a shard's write lock was held poisoned the lock, and every
//! later request hashing to that shard panicked again on the acquisition —
//! a permanent, cascading outage of 1/`shards` of the cache.
//!
//! Recovery is sound here because the shard map is **structurally valid at
//! every panic point**. The only code that can unwind while a shard lock is
//! held is (a) the standard `HashMap` operations themselves, which leave the
//! map valid on unwind, and (b) `drop` of an evicted/replaced value — and
//! every such drop is sequenced *after* the map mutation and its `len`
//! bookkeeping have both completed (see `insert`/`clear`), so the map and
//! the shared `len` counter stay consistent even if a value's destructor
//! panics. The worst case is a recency stamp that was never bumped, which
//! only perturbs LRU order.

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};

/// Acquires a read lock, recovering from poisoning (see the module docs).
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquires a write lock, recovering from poisoning (see the module docs).
fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// A value plus its last-used stamp.
struct Entry<V> {
    value: Arc<V>,
    last_used: AtomicU64,
}

/// One independent sub-cache.
struct Shard<V, K> {
    map: RwLock<HashMap<K, Entry<V>>>,
}

/// A sharded LRU-ish cache holding `Arc`ed values.
///
/// Lookups take a shard read lock only; inserts take the shard write lock.
/// Lock poisoning is recovered from, never propagated — a panicking request
/// cannot take a shard out of service. See the module docs for the design.
pub struct ShardedCache<K, V> {
    shards: Vec<Shard<V, K>>,
    /// Shared capacity across all shards.
    capacity: usize,
    /// Total entries across all shards (kept in sync under shard locks).
    len: AtomicUsize,
    /// Global recency clock; strictly increasing across all shards.
    clock: AtomicU64,
    hasher: RandomState,
}

impl<K: Eq + Hash + Clone, V> ShardedCache<K, V> {
    /// Creates a cache of at most `capacity` entries spread over `shards`
    /// sub-caches. Both are clamped to at least 1, and the shard count never
    /// exceeds the capacity.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        ShardedCache {
            shards: (0..shards)
                .map(|_| Shard {
                    map: RwLock::new(HashMap::new()),
                })
                .collect(),
            capacity,
            len: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            hasher: RandomState::new(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The configured total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        // ordering: Relaxed — advisory size; the value is only exact while
        // the relevant shard locks are held (readers tolerate staleness).
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, key: &K) -> &Shard<V, K> {
        let h = self.hasher.hash_one(key) as usize;
        &self.shards[h % self.shards.len()]
    }

    fn tick(&self) -> u64 {
        // ordering: Relaxed — stamp uniqueness comes from the RMW's
        // atomicity; stamps order *recency*, they synchronize nothing.
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up `key`, refreshing its recency stamp. Takes only the shard's
    /// read lock — concurrent hits (same or different keys) never contend
    /// exclusively.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let map = read_lock(&self.shard(key).map);
        let entry = map.get(key)?;
        // ordering: Relaxed — a recency hint; a racing stale store only
        // perturbs LRU victim choice, never correctness.
        entry.last_used.store(self.tick(), Ordering::Relaxed);
        Some(Arc::clone(&entry.value))
    }

    /// Inserts or replaces `key`, returning the key evicted to make room
    /// (if the cache was full) — replacing an existing key is not an
    /// eviction.
    pub fn insert(&self, key: K, value: Arc<V>) -> Option<K> {
        let shard = self.shard(&key);
        let mut map = write_lock(&shard.map);
        let stamp = self.tick();
        if let Some(entry) = map.get_mut(&key) {
            // Swap rather than assign: the old value's destructor must run
            // *after* the map is back in its final state, so a panicking
            // `Drop` cannot leave the shard inconsistent under a (recovered)
            // poisoned lock.
            let old = std::mem::replace(&mut entry.value, value);
            // ordering: Relaxed — recency hint, written under the shard
            // write lock anyway.
            entry.last_used.store(stamp, Ordering::Relaxed);
            drop(map);
            drop(old);
            return None;
        }
        // Reserve the slot *before* deciding about eviction: concurrent
        // inserts into different shards each observe the true running
        // total, so exactly the inserts that push past capacity evict.
        // ordering: Relaxed — the RMW's atomicity hands every insert a
        // distinct `prior`; the eviction decision uses the returned value,
        // not cross-thread visibility of other data.
        let prior = self.len.fetch_add(1, Ordering::Relaxed);
        let mut evicted = None;
        // The victim's value is parked here and dropped only after the map
        // and `len` are consistent and the lock is released.
        let mut victim_value = None;
        if prior >= self.capacity {
            // Prefer a victim in the shard whose lock is already held.
            if let Some(lru) = lru_key(&map) {
                victim_value = map.remove(&lru);
                // ordering: Relaxed — paired bookkeeping for the removal
                // above, both under this shard's write lock.
                self.len.fetch_sub(1, Ordering::Relaxed);
                evicted = Some(lru);
            }
        }
        map.insert(
            key,
            Entry {
                value,
                last_used: AtomicU64::new(stamp),
            },
        );
        drop(map);
        drop(victim_value);
        if prior >= self.capacity && evicted.is_none() {
            // The inserting shard was empty; evict the globally oldest
            // entry instead (one shard lock at a time, so no deadlock).
            evicted = self.evict_global_lru();
        }
        evicted
    }

    /// Evicts the entry with the globally smallest recency stamp, returning
    /// its key. The victim is located under read locks and re-checked under
    /// its shard's write lock; a concurrently vanished victim is retried
    /// until the cache is back within budget.
    fn evict_global_lru(&self) -> Option<K> {
        // Bounded retries: each failed round means another thread removed
        // the chosen victim (itself shrinking the cache) in the window.
        for _ in 0..=self.shards.len() {
            // ordering: Relaxed — over-budget probe for the retry loop; the
            // actual removal below re-checks under the shard write lock.
            if self.len.load(Ordering::Relaxed) <= self.capacity {
                return None;
            }
            let mut victim: Option<(u64, usize, K)> = None;
            for (idx, shard) in self.shards.iter().enumerate() {
                let map = read_lock(&shard.map);
                for (k, e) in map.iter() {
                    // ordering: Relaxed — recency hint read; an imprecise
                    // stamp only shifts which entry gets evicted.
                    let stamp = e.last_used.load(Ordering::Relaxed);
                    if victim.as_ref().is_none_or(|(s, _, _)| stamp < *s) {
                        victim = Some((stamp, idx, k.clone()));
                    }
                }
            }
            let (_, idx, key) = victim?;
            let mut map = write_lock(&self.shards[idx].map);
            if let Some(removed) = map.remove(&key) {
                // ordering: Relaxed — paired bookkeeping for the removal
                // above, both under this shard's write lock.
                self.len.fetch_sub(1, Ordering::Relaxed);
                drop(map);
                drop(removed);
                return Some(key);
            }
        }
        None
    }

    /// Removes every entry, keeping capacity and shard structure.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut map = write_lock(&shard.map);
            // Detach the entries before decrementing `len` and before any
            // value destructor can run: the shard map is already empty (and
            // consistent with `len`) when the drops happen outside the lock.
            let detached = std::mem::take(&mut *map);
            // ordering: Relaxed — bookkeeping for the take above, under the
            // shard write lock.
            self.len.fetch_sub(detached.len(), Ordering::Relaxed);
            drop(map);
            drop(detached);
        }
    }

    /// Keys from most to least recently used (diagnostics/tests; takes all
    /// shard read locks in turn).
    pub fn keys_by_recency(&self) -> Vec<K> {
        let mut stamped: Vec<(u64, K)> = Vec::new();
        for shard in &self.shards {
            let map = read_lock(&shard.map);
            for (k, e) in map.iter() {
                // ordering: Relaxed — diagnostics read of the recency hint.
                stamped.push((e.last_used.load(Ordering::Relaxed), k.clone()));
            }
        }
        stamped.sort_by_key(|(stamp, _)| std::cmp::Reverse(*stamp));
        stamped.into_iter().map(|(_, k)| k).collect()
    }
}

/// The key with the smallest recency stamp in one shard map.
fn lru_key<K: Clone, V>(map: &HashMap<K, Entry<V>>) -> Option<K> {
    map.iter()
        // ordering: Relaxed — recency hint; imprecision only shifts the
        // victim choice.
        .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
        .map(|(k, _)| k.clone())
}

impl<K, V> std::fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity)
            // ordering: Relaxed — Debug output.
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_and_insert_roundtrip() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(8, 4);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&1), None);
        cache.insert(1, Arc::new(10));
        cache.insert(2, Arc::new(20));
        assert_eq!(cache.get(&1).as_deref(), Some(&10));
        assert_eq!(cache.get(&2).as_deref(), Some(&20));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn single_shard_evicts_exact_lru() {
        let cache: ShardedCache<&str, i32> = ShardedCache::new(2, 1);
        cache.insert("a", Arc::new(1));
        cache.insert("b", Arc::new(2));
        cache.get(&"a"); // freshen a; b becomes LRU
        assert_eq!(cache.insert("c", Arc::new(3)), Some("b"));
        assert_eq!(cache.get(&"b"), None);
        assert_eq!(cache.keys_by_recency(), vec!["c", "a"]);
    }

    #[test]
    fn replacement_is_not_eviction() {
        let cache: ShardedCache<&str, i32> = ShardedCache::new(1, 1);
        assert_eq!(cache.insert("a", Arc::new(1)), None);
        assert_eq!(cache.insert("a", Arc::new(2)), None);
        assert_eq!(cache.get(&"a").as_deref(), Some(&2));
        assert_eq!(cache.insert("b", Arc::new(3)), Some("a"));
    }

    #[test]
    fn shard_count_is_clamped_to_capacity() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(2, 64);
        assert_eq!(cache.num_shards(), 2);
        assert!(cache.capacity() >= 2);
        let zero: ShardedCache<u32, u32> = ShardedCache::new(0, 0);
        assert_eq!(zero.num_shards(), 1);
        assert_eq!(zero.capacity(), 1);
    }

    #[test]
    fn few_entries_never_thrash_regardless_of_distribution() {
        // Global capacity: 5 entries in a 16-entry cache must all stay
        // resident even if they hash into the same shard.
        let cache: ShardedCache<u32, u32> = ShardedCache::new(16, 16);
        for round in 0..4 {
            for i in 0..5 {
                if round == 0 {
                    assert_eq!(cache.insert(i, Arc::new(i)), None);
                } else {
                    assert_eq!(cache.get(&i).as_deref(), Some(&i), "round {round} key {i}");
                }
            }
        }
        assert_eq!(cache.len(), 5);
    }

    #[test]
    fn clear_empties_all_shards() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(16, 4);
        for i in 0..10 {
            cache.insert(i, Arc::new(i));
        }
        assert_eq!(cache.len(), 10);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.get(&3), None);
    }

    #[test]
    fn capacity_bounds_hold_under_churn() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(8, 4);
        for i in 0..1000 {
            cache.insert(i, Arc::new(i));
        }
        assert!(cache.len() <= cache.capacity());
        assert!(cache.capacity() <= 8);
    }

    #[test]
    fn concurrent_reads_and_writes_are_safe() {
        let cache: Arc<ShardedCache<u32, u32>> = Arc::new(ShardedCache::new(64, 8));
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200u32 {
                        let key = (t * 7 + i) % 96;
                        if let Some(v) = cache.get(&key) {
                            assert_eq!(*v, key);
                        } else {
                            cache.insert(key, Arc::new(key));
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= cache.capacity());
    }

    /// Poisons the shard holding `key` by panicking on a scoped thread while
    /// that shard's write lock is held — the exact state a panicked request
    /// used to leave behind.
    fn poison_shard_of(cache: &ShardedCache<u32, u32>, key: u32) {
        let shard = cache.shard(&key);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let _guard = shard.map.write().unwrap();
                panic!("deliberate poison");
            });
            assert!(handle.join().is_err());
        });
        assert!(
            shard.map.read().is_err(),
            "the shard lock must actually be poisoned for this test to mean anything"
        );
    }

    #[test]
    fn poisoned_shard_keeps_serving() {
        // One shard so every key exercises the poisoned lock.
        let cache: ShardedCache<u32, u32> = ShardedCache::new(8, 1);
        cache.insert(1, Arc::new(10));
        poison_shard_of(&cache, 1);

        // Reads, writes, replacement, eviction and clear must all keep
        // working on the poisoned shard.
        assert_eq!(cache.get(&1).as_deref(), Some(&10), "read after poison");
        cache.insert(2, Arc::new(20));
        assert_eq!(cache.get(&2).as_deref(), Some(&20), "insert after poison");
        cache.insert(1, Arc::new(11));
        assert_eq!(cache.get(&1).as_deref(), Some(&11), "replace after poison");
        for i in 3..20 {
            cache.insert(i, Arc::new(i * 10));
        }
        assert!(cache.len() <= cache.capacity(), "eviction after poison");
        cache.clear();
        assert!(cache.is_empty(), "clear after poison");
    }

    #[test]
    fn poisoned_shard_recovers_under_concurrency() {
        let cache: Arc<ShardedCache<u32, u32>> = Arc::new(ShardedCache::new(64, 1));
        poison_shard_of(&cache, 0);
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..100u32 {
                        let key = (t * 13 + i) % 48;
                        if let Some(v) = cache.get(&key) {
                            assert_eq!(*v, key);
                        } else {
                            cache.insert(key, Arc::new(key));
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= cache.capacity());
    }

    /// A value whose destructor panics once: the production-shaped poisoning
    /// vector (an evicted template's drop unwinding under the shard write
    /// lock) must not take the shard down.
    struct PanicOnDrop(bool);

    impl Drop for PanicOnDrop {
        fn drop(&mut self) {
            if self.0 && !std::thread::panicking() {
                panic!("destructor panics");
            }
        }
    }

    #[test]
    fn panicking_value_drop_does_not_disable_the_cache() {
        let cache: Arc<ShardedCache<u32, PanicOnDrop>> = Arc::new(ShardedCache::new(1, 1));
        cache.insert(1, Arc::new(PanicOnDrop(true)));
        // Evicting key 1 drops the panicking value. The drop now happens
        // after the map and `len` are consistent, so even though the panic
        // propagates to this caller, the cache stays valid.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.insert(2, Arc::new(PanicOnDrop(false)));
        }));
        assert!(result.is_err(), "the destructor panic must surface");
        // The cache still serves: key 2 resident, len consistent, further
        // inserts and lookups fine.
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&2).is_some());
        cache.insert(3, Arc::new(PanicOnDrop(false)));
        assert!(cache.get(&3).is_some());
        assert_eq!(cache.len(), 1);
    }
}
