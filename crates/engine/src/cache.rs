//! The engine's template cache: one read-mostly LRU.
//!
//! The cache is one [`RwLock`] over a hash map whose entries carry an
//! atomic last-used stamp. A hit takes the *read* lock (shared, never
//! exclusive) and bumps the entry's stamp with a relaxed atomic store, so
//! threads hammering the same hot template — the parameter-sweep pattern —
//! proceed in parallel. Only inserts and [`LruCache::clear`] take the write
//! lock.
//!
//! Eviction is exact LRU: stamps come from one monotone clock, and a full
//! cache's insert evicts the entry with the smallest stamp while holding
//! the write lock, which excludes every hit. (Two hits racing on the *same*
//! entry may store their stamps out of order; the entry then keeps the
//! earlier of the two ticks.) The length is read under the lock, so it
//! never exceeds the capacity.
//!
//! # Poison recovery
//!
//! Every lock acquisition recovers from poisoning instead of propagating it
//! ([`PoisonError::into_inner`]). A long-running multi-client process must
//! not let one panicked request disable the cache forever: a panic while
//! the write lock is held poisons the lock, and without recovery every
//! later request would panic again on the acquisition.
//!
//! Recovery is sound here because the map is **structurally valid at every
//! panic point**. The only code that can unwind while the lock is held is
//! (a) the standard `HashMap` operations themselves, which leave the map
//! valid on unwind, and (b) `drop` of an evicted/replaced value — and every
//! such drop is sequenced *after* the map mutation has completed and the
//! lock is released (see `insert`/`clear`). The worst case is a recency
//! stamp that was never bumped, which only perturbs LRU order.

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

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

/// A bounded LRU cache holding `Arc`ed values.
///
/// Lookups take the read lock only; inserts take the write lock. Lock
/// poisoning is recovered from, never propagated — a panicking request
/// cannot take the cache out of service. See the module docs for the
/// design.
pub struct LruCache<K, V> {
    map: RwLock<HashMap<K, Entry<V>>>,
    capacity: usize,
    /// Recency clock; strictly increasing.
    clock: AtomicU64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache of at most `capacity` entries (clamped to at least
    /// 1).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached entries (never above [`Self::capacity`]).
    pub fn len(&self) -> usize {
        read_lock(&self.map).len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn tick(&self) -> u64 {
        // ordering: Relaxed — stamp uniqueness comes from the RMW's
        // atomicity; stamps order *recency*, they synchronize nothing.
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up `key`, refreshing its recency stamp. Takes only the read
    /// lock — concurrent hits (same or different keys) never contend
    /// exclusively. Any borrowed form of the key works, as for
    /// [`HashMap::get`], so a `Vec` key is found by slice without
    /// allocating.
    pub fn get<Q>(&self, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let map = read_lock(&self.map);
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
        let mut map = write_lock(&self.map);
        let stamp = self.tick();
        if let Some(entry) = map.get_mut(&key) {
            // Swap rather than assign: the old value's destructor must run
            // *after* the lock is released, so a panicking `Drop` cannot
            // poison it mid-mutation.
            let old = std::mem::replace(&mut entry.value, value);
            // ordering: Relaxed — recency hint, written under the write
            // lock anyway.
            entry.last_used.store(stamp, Ordering::Relaxed);
            drop(map);
            drop(old);
            return None;
        }
        let victim = if map.len() >= self.capacity {
            lru_key(&map).and_then(|lru| map.remove_entry(&lru))
        } else {
            None
        };
        map.insert(
            key,
            Entry {
                value,
                last_used: AtomicU64::new(stamp),
            },
        );
        drop(map);
        // The victim's value drops here, after the lock is released.
        victim.map(|(key, _)| key)
    }

    /// Removes every entry, keeping the capacity.
    pub fn clear(&self) {
        // Detach the entries so their destructors run after the lock is
        // released (the guard is a temporary of this statement).
        let detached = std::mem::take(&mut *write_lock(&self.map));
        drop(detached);
    }
}

/// The key with the smallest recency stamp.
fn lru_key<K: Clone, V>(map: &HashMap<K, Entry<V>>) -> Option<K> {
    map.iter()
        // ordering: Relaxed — read under the write lock, which excludes
        // every stamp store.
        .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
        .map(|(k, _)| k.clone())
}

impl<K, V> std::fmt::Debug for LruCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruCache")
            .field("capacity", &self.capacity)
            .field("len", &read_lock(&self.map).len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_and_insert_roundtrip() {
        let cache: LruCache<u32, u32> = LruCache::new(8);
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
        let cache: LruCache<&str, i32> = LruCache::new(2);
        cache.insert("a", Arc::new(1));
        cache.insert("b", Arc::new(2));
        cache.get(&"a"); // freshen a; b becomes LRU
        assert_eq!(cache.insert("c", Arc::new(3)), Some("b"));
        assert_eq!(cache.get(&"b"), None);
        // The lookups above leave a older than c.
        assert!(cache.get(&"a").is_some());
        assert!(cache.get(&"c").is_some());
        assert_eq!(cache.insert("d", Arc::new(4)), Some("a"));
    }

    #[test]
    fn replacement_is_not_eviction() {
        let cache: LruCache<&str, i32> = LruCache::new(1);
        assert_eq!(cache.insert("a", Arc::new(1)), None);
        assert_eq!(cache.insert("a", Arc::new(2)), None);
        assert_eq!(cache.get(&"a").as_deref(), Some(&2));
        assert_eq!(cache.insert("b", Arc::new(3)), Some("a"));
    }

    #[test]
    fn few_entries_never_thrash_regardless_of_distribution() {
        // 5 entries in a 16-entry cache must all stay resident.
        let cache: LruCache<u32, u32> = LruCache::new(16);
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
        let cache: LruCache<u32, u32> = LruCache::new(16);
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
        let cache: LruCache<u32, u32> = LruCache::new(8);
        for i in 0..1000 {
            cache.insert(i, Arc::new(i));
            assert!(cache.len() <= 8);
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.capacity(), 8);
        let zero: LruCache<u32, u32> = LruCache::new(0);
        assert_eq!(zero.capacity(), 1);
    }

    #[test]
    fn concurrent_reads_and_writes_are_safe() {
        let cache: Arc<LruCache<u32, u32>> = Arc::new(LruCache::new(64));
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
                        assert!(cache.len() <= cache.capacity());
                    }
                });
            }
        });
        assert!(cache.len() <= cache.capacity());
    }

    /// Poisons the cache lock by panicking on a scoped thread while the
    /// write lock is held.
    fn poison(cache: &LruCache<u32, u32>) {
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let _guard = cache.map.write().unwrap();
                panic!("deliberate poison");
            });
            assert!(handle.join().is_err());
        });
        assert!(
            cache.map.read().is_err(),
            "the lock must actually be poisoned for this test to mean anything"
        );
    }

    #[test]
    fn poisoned_shard_keeps_serving() {
        let cache: LruCache<u32, u32> = LruCache::new(8);
        cache.insert(1, Arc::new(10));
        poison(&cache);

        // Reads, writes, replacement, eviction and clear must all keep
        // working on the poisoned lock.
        assert_eq!(cache.get(&1).as_deref(), Some(&10), "read after poison");
        cache.insert(2, Arc::new(20));
        assert_eq!(cache.get(&2).as_deref(), Some(&20), "insert after poison");
        cache.insert(1, Arc::new(11));
        assert_eq!(cache.get(&1).as_deref(), Some(&11), "replace after poison");
        for i in 3..20 {
            cache.insert(i, Arc::new(i * 10));
        }
        assert_eq!(cache.len(), cache.capacity(), "eviction after poison");
        cache.clear();
        assert!(cache.is_empty(), "clear after poison");
    }

    #[test]
    fn poisoned_shard_recovers_under_concurrency() {
        let cache: Arc<LruCache<u32, u32>> = Arc::new(LruCache::new(64));
        poison(&cache);
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
    /// vector (an evicted template's drop unwinding under the write lock)
    /// must not take the cache down.
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
        let cache: Arc<LruCache<u32, PanicOnDrop>> = Arc::new(LruCache::new(1));
        cache.insert(1, Arc::new(PanicOnDrop(true)));
        // Evicting key 1 drops the panicking value. The drop happens after
        // the map is consistent and the lock is released, so even though
        // the panic propagates to this caller, the cache stays valid.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.insert(2, Arc::new(PanicOnDrop(false)));
        }));
        assert!(result.is_err(), "the destructor panic must surface");
        assert!(
            cache.map.read().is_ok(),
            "the destructor ran outside the lock, so nothing was poisoned"
        );
        // The cache still serves: key 2 resident, further inserts and
        // lookups fine.
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&2).is_some());
        cache.insert(3, Arc::new(PanicOnDrop(false)));
        assert!(cache.get(&3).is_some());
        assert_eq!(cache.len(), 1);
    }
}
