//! The bounded, thread-safe memo behind every cache in the simulator.
//!
//! [`PlanCache`](crate::PlanCache), [`ServiceCostCache`](crate::ServiceCostCache)
//! and the experiments workload's timing memo are instances of
//! [`BoundedCache`]: each value is a pure function of its key, so the
//! cache only ever trades memory for recomputation, never results.
//!
//! * **Single flight.** [`BoundedCache::get_or_insert_with`] computes a
//!   fresh key exactly once, outside the map lock: late arrivals for a
//!   key that is still computing wait on a condvar for the result
//!   instead of computing it again. The number of computations — and
//!   with it every counter of a cache the computation consults — is
//!   therefore independent of worker timing.
//! * **Split lookup.** [`BoundedCache::get`] and [`BoundedCache::insert`]
//!   serve callers that batch their misses (the two-phase serve engine
//!   looks up each deduplicated key once, simulates the misses on a
//!   worker pool, then inserts); [`BoundedCache::peek`] re-reads a
//!   resident value without counting a lookup.
//! * **Bounded.** Inserting a fresh key at capacity evicts one arbitrary
//!   resident entry and bumps the eviction counter (and the
//!   `cache.evictions` registry metric).
//! * **Deterministic counters.** See [`CacheStats`].
//!
//! No operation panics on a poisoned lock: computations run outside the
//! lock and the pending-slot guard releases on unwind, so every critical
//! section leaves the map consistent and a poisoned guard is recovered
//! with [`PoisonError::into_inner`].

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use q100_trace::Registry;

/// Hit/miss counters of a [`BoundedCache`].
///
/// Defined deterministically: `misses` is the number of *distinct keys
/// inserted* since the last reset — counted as `len + evictions`, so a
/// key that was inserted and later evicted still counts as the miss it
/// was — and `hits` is the remaining successful lookups. Each fresh key
/// is inserted once however many workers race for it, so these numbers
/// are identical for any `--jobs` count — a property the experiments
/// binary's stdout determinism check relies on. (Eviction victims are
/// arbitrary, and an evicted key looked up again recomputes as a fresh
/// miss, so the counters are job-independent only while the cache never
/// evicts. The serving devices uphold that by bounding their plan cache
/// at the cost cache's bound, which it cannot reach first.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that inserted a fresh value.
    pub misses: u64,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} hits / {} misses", self.hits, self.misses)
    }
}

#[derive(Debug)]
enum Slot<V> {
    /// A resident value.
    Ready(V),
    /// The first caller is computing this key right now.
    Pending,
}

#[derive(Debug)]
struct Slots<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Pending slots in `map`; they are never evicted or counted.
    pending: usize,
}

impl<K, V> Slots<K, V> {
    fn ready_len(&self) -> usize {
        self.map.len() - self.pending
    }
}

/// A thread-safe memo bounded to a fixed number of resident entries.
#[derive(Debug)]
pub struct BoundedCache<K, V> {
    slots: Mutex<Slots<K, V>>,
    /// Notified whenever a pending slot resolves (ready or failed).
    resolved: Condvar,
    /// Successful lookups since the last reset.
    lookups: AtomicU64,
    /// Inserts (resident entries plus evictions) at the last reset.
    base: AtomicU64,
    capacity: usize,
    /// Entries evicted since construction or the last [`Self::clear`].
    evictions: AtomicU64,
    /// Registry and the counter name each successful lookup bumps.
    metrics: Option<(Arc<Registry>, &'static str)>,
}

impl<K: Eq + Hash + Clone, V: Clone> Default for BoundedCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> BoundedCache<K, V> {
    /// Default capacity: far above what any shipped sweep populates, so
    /// ordinary runs stay eviction-free, while a serving loop churning
    /// through degraded configurations cannot grow memory without bound.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// An empty cache with [`Self::DEFAULT_CAPACITY`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty cache bounded to `capacity` resident entries (min 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        BoundedCache {
            slots: Mutex::new(Slots { map: HashMap::new(), pending: 0 }),
            resolved: Condvar::new(),
            lookups: AtomicU64::new(0),
            base: AtomicU64::new(0),
            capacity: capacity.max(1),
            evictions: AtomicU64::new(0),
            metrics: None,
        }
    }

    /// An empty default-capacity cache that additionally counts every
    /// successful lookup into `registry` under `lookups_key`, and every
    /// eviction under `cache.evictions`.
    #[must_use]
    pub fn with_metrics(registry: Arc<Registry>, lookups_key: &'static str) -> Self {
        BoundedCache { metrics: Some((registry, lookups_key)), ..Self::new() }
    }

    fn lock(&self) -> MutexGuard<'_, Slots<K, V>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The memoized value of `key`, computing it with `compute` on the
    /// first sight of the key. Concurrent callers for a key that is
    /// still computing wait for that result.
    ///
    /// # Errors
    ///
    /// Returns `compute`'s error. Failures are neither cached nor
    /// counted as lookups; waiters then compute the key themselves.
    pub fn get_or_insert_with<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        {
            let mut slots = self.lock();
            loop {
                match slots.map.get(&key) {
                    Some(Slot::Ready(v)) => {
                        let v = v.clone();
                        drop(slots);
                        self.note_lookup();
                        return Ok(v);
                    }
                    Some(Slot::Pending) => {
                        slots = self.resolved.wait(slots).unwrap_or_else(PoisonError::into_inner);
                    }
                    None => {
                        slots.map.insert(key.clone(), Slot::Pending);
                        slots.pending += 1;
                        break;
                    }
                }
            }
        }
        // This caller owns the pending slot; the guard releases it if
        // `compute` unwinds, so waiters retry instead of hanging.
        let guard = PendingGuard { cache: self, key: &key };
        let result = compute();
        std::mem::forget(guard);
        match result {
            Ok(value) => {
                let value = self.store(key, value);
                self.note_lookup();
                Ok(value)
            }
            Err(e) => {
                self.release(&key);
                Err(e)
            }
        }
    }

    /// The resident value of `key`, counting the lookup whether or not
    /// it hits. A key still being computed reads as absent.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        self.note_lookup();
        self.peek(key)
    }

    /// The resident value of `key` without counting a lookup, for
    /// callers re-reading a value that an earlier, counted lookup
    /// already resolved. A key still being computed reads as absent.
    #[must_use]
    pub fn peek(&self, key: &K) -> Option<V> {
        match self.lock().map.get(key) {
            Some(Slot::Ready(v)) => Some(v.clone()),
            _ => None,
        }
    }

    /// Inserts a freshly computed value; a resident value for the same
    /// key wins, so concurrent fills stay consistent.
    pub fn insert(&self, key: K, value: V) {
        self.store(key, value);
    }

    /// Makes `value` resident under `key` (evicting at capacity) unless
    /// a value is already resident, and returns the resident value.
    fn store(&self, key: K, value: V) -> V {
        let mut slots = self.lock();
        if let Some(Slot::Ready(existing)) = slots.map.get(&key) {
            return existing.clone();
        }
        if slots.map.remove(&key).is_some() {
            slots.pending -= 1;
        }
        if slots.ready_len() >= self.capacity {
            let victim = slots
                .map
                .iter()
                .find(|(_, slot)| matches!(slot, Slot::Ready(_)))
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                slots.map.remove(&victim);
                self.note_eviction();
            }
        }
        slots.map.insert(key, Slot::Ready(value.clone()));
        drop(slots);
        self.resolved.notify_all();
        value
    }

    /// Drops `key`'s pending slot (if it is still pending) and wakes
    /// its waiters.
    fn release(&self, key: &K) {
        let mut slots = self.lock();
        if matches!(slots.map.get(key), Some(Slot::Pending)) {
            slots.map.remove(key);
            slots.pending -= 1;
        }
        drop(slots);
        self.resolved.notify_all();
    }

    fn note_lookup(&self) {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some((registry, key)) = &self.metrics {
            registry.inc(key, 1);
        }
    }

    fn note_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        if let Some((registry, _)) = &self.metrics {
            registry.inc("cache.evictions", 1);
        }
    }

    /// Keys ever inserted: resident entries plus evictions.
    fn inserted(&self) -> u64 {
        self.len() as u64 + self.evictions()
    }

    /// Entries evicted to respect the capacity bound since construction
    /// (or the last [`Self::clear`]).
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Current hit/miss counters (see [`CacheStats`]).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let misses = self.inserted().saturating_sub(self.base.load(Ordering::Relaxed));
        let lookups = self.lookups.load(Ordering::Relaxed);
        CacheStats { hits: lookups.saturating_sub(misses), misses }
    }

    /// Zeroes the counters while keeping every memoized value, so each
    /// sweep of a multi-figure run reports its own hit/miss line.
    pub fn reset_stats(&self) {
        self.base.store(self.inserted(), Ordering::Relaxed);
        self.lookups.store(0, Ordering::Relaxed);
    }

    /// Drops every memoized value and zeroes the counters.
    pub fn clear(&self) {
        let mut slots = self.lock();
        slots.map.clear();
        slots.pending = 0;
        drop(slots);
        self.base.store(0, Ordering::Relaxed);
        self.lookups.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Number of resident values (pending computations excluded).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().ready_len()
    }

    /// Whether no value is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Releases a pending slot if its computation unwinds. The normal
/// success and error paths `mem::forget` the guard and resolve the slot
/// themselves.
struct PendingGuard<'a, K: Eq + Hash + Clone, V: Clone> {
    cache: &'a BoundedCache<K, V>,
    key: &'a K,
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for PendingGuard<'_, K, V> {
    fn drop(&mut self) {
        self.cache.release(self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    type Cache = BoundedCache<u64, Arc<u64>>;

    /// Looks `key` up, computing `key * 10` and counting computations.
    fn fetch(cache: &Cache, key: u64, computed: &Cell<u32>) -> Arc<u64> {
        cache
            .get_or_insert_with(key, || {
                computed.set(computed.get() + 1);
                Ok::<_, ()>(Arc::new(key * 10))
            })
            .unwrap()
    }

    #[test]
    fn memoizes_per_key() {
        let cache = Cache::new();
        let computed = Cell::new(0);
        let a = fetch(&cache, 7, &computed);
        let b = fetch(&cache, 7, &computed);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must reuse the first value");
        assert_eq!(computed.get(), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        for key in [8, 9, 10] {
            fetch(&cache, key, &computed);
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 4 });

        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn reset_stats_keeps_entries() {
        let registry = Arc::new(Registry::new());
        let cache = Cache::with_metrics(Arc::clone(&registry), "plan.cache.lookups");
        let computed = Cell::new(0);
        fetch(&cache, 1, &computed);
        fetch(&cache, 1, &computed);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(registry.counter("plan.cache.lookups"), 2);

        cache.reset_stats();
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.len(), 1, "reset_stats must not drop memoized values");
        // The next sweep over the same key is all hits.
        fetch(&cache, 1, &computed);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 0 });
        assert_eq!(computed.get(), 1);
    }

    #[test]
    fn capacity_bounds_residency_and_counts_evictions() {
        let registry = Arc::new(Registry::new());
        let cache = BoundedCache {
            capacity: 2,
            ..Cache::with_metrics(Arc::clone(&registry), "plan.cache.lookups")
        };
        let computed = Cell::new(0);
        for key in 0..5 {
            fetch(&cache, key, &computed);
        }
        assert_eq!(cache.len(), 2, "capacity must bound resident entries");
        assert_eq!(cache.evictions(), 3);
        assert_eq!(registry.counter("cache.evictions"), 3);
        // Evicted entries still count as the misses they were.
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 5 });
        cache.clear();
        assert_eq!(cache.evictions(), 0);

        // With one slot the victim is forced: a revisited evicted key
        // recomputes and counts as a fresh miss, never a phantom hit.
        let single = Cache::with_capacity(1);
        let computed = Cell::new(0);
        fetch(&single, 0, &computed);
        fetch(&single, 1, &computed);
        assert_eq!(*fetch(&single, 0, &computed), 0);
        assert_eq!(computed.get(), 3);
        assert_eq!(single.stats(), CacheStats { hits: 0, misses: 3 });
        assert_eq!(single.evictions(), 2);
    }

    #[test]
    fn default_capacity_sees_zero_evictions_in_ordinary_use() {
        let cache = Cache::new();
        let computed = Cell::new(0);
        for key in 0..64 {
            fetch(&cache, key, &computed);
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 64);
    }

    #[test]
    fn racing_callers_compute_a_fresh_key_once() {
        use std::sync::atomic::AtomicU32;
        use std::sync::Barrier;

        let cache = Cache::new();
        let computed = AtomicU32::new(0);
        let n = 8;
        let start = Barrier::new(n);
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    start.wait();
                    let v = cache
                        .get_or_insert_with(7, || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            // Hold the slot pending long enough that the
                            // other callers arrive while it computes.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok::<_, ()>(Arc::new(70))
                        })
                        .unwrap();
                    assert_eq!(*v, 70);
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1, "late arrivals wait, never recompute");
        assert_eq!(cache.stats(), CacheStats { hits: n as u64 - 1, misses: 1 });
    }

    #[test]
    fn failures_are_neither_cached_nor_counted() {
        let cache = Cache::new();
        assert_eq!(cache.get_or_insert_with(3, || Err("unschedulable")), Err("unschedulable"));
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
        // The key is free to compute again.
        let computed = Cell::new(0);
        fetch(&cache, 3, &computed);
        assert_eq!(computed.get(), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1 });
    }

    #[test]
    fn pending_slots_are_not_resident_and_unwinding_releases_them() {
        let cache = Cache::new();
        let value = cache
            .get_or_insert_with(1, || {
                assert_eq!(cache.len(), 0, "a pending computation is not a resident entry");
                Ok::<_, ()>(Arc::new(1))
            })
            .unwrap();
        assert_eq!(*value, 1);
        assert_eq!(cache.len(), 1);

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_insert_with(2, || -> Result<Arc<u64>, ()> { panic!("compute failed") })
        }));
        assert!(unwound.is_err());
        let computed = Cell::new(0);
        assert_eq!(*fetch(&cache, 2, &computed), 20, "a released slot computes again");
        assert_eq!(computed.get(), 1);
    }

    #[test]
    fn split_get_and_insert_count_like_get_or_insert() {
        let cache: BoundedCache<(u64, u64), u64> = BoundedCache::new();
        assert_eq!(cache.get(&(0, 1)), None);
        cache.insert((0, 1), 10);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1 });
        assert_eq!(cache.get(&(0, 1)), Some(10));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        // A resident value wins over a concurrent fill of the same key.
        cache.insert((0, 1), 99);
        assert_eq!(cache.get(&(0, 1)), Some(10));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 1 });
        // A peek reads the resident value without counting a lookup.
        assert_eq!(cache.peek(&(0, 1)), Some(10));
        assert_eq!(cache.peek(&(0, 2)), None);
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 1 });
    }
}
