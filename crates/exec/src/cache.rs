//! The sharded memoization cache.
//!
//! Evaluation points are pure functions of their inputs, so a
//! process-wide `(fingerprint, fingerprint) → result` map turns repeated
//! evaluations — the same kernel appearing in several figures, the same
//! options grid swept twice — into lookups. The map is sharded to keep
//! lock contention off the worker threads, and the value is computed
//! *outside* the shard lock: two workers racing on the same key may both
//! compute, but determinism makes the duplicate result identical, so
//! either insert wins harmlessly.
//!
//! Shard selection is on the hot path of every evaluation, so keys that
//! are already FNV fingerprints index a shard straight off their low
//! bits via [`ShardKey`] — re-hashing a 64-bit hash through SipHash
//! bought no distribution and cost a hasher setup per lookup. Arbitrary
//! key types opt back into hashing with the [`HashedKey`] wrapper.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Shard count; a small power of two keeps the index a mask.
const SHARDS: usize = 16;

/// Maps a key to the bits that pick its shard.
///
/// Fingerprint keys are already uniformly distributed, so their low bits
/// index a shard directly — no second hash. Key types without that
/// guarantee wrap themselves in [`HashedKey`], which falls back to the
/// standard hasher.
pub trait ShardKey {
    /// Well-distributed bits derived from the key; the low bits pick the
    /// shard.
    fn shard_bits(&self) -> u64;
}

impl ShardKey for u64 {
    fn shard_bits(&self) -> u64 {
        *self
    }
}

impl ShardKey for (u64, u64) {
    fn shard_bits(&self) -> u64 {
        // Both halves are independent FNV fingerprints; xor keeps a
        // sweep that varies only one of them spread across shards.
        self.0 ^ self.1
    }
}

/// Adapter giving any hashable key a [`ShardKey`] via the standard
/// hasher — the pre-fingerprint behaviour, for keys whose distribution
/// is unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HashedKey<K>(pub K);

impl<K: Hash> ShardKey for HashedKey<K> {
    fn shard_bits(&self) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.0.hash(&mut hasher);
        hasher.finish()
    }
}

/// Locks a shard. A panic elsewhere cannot leave a shard half-updated
/// (every critical section is one map operation), so poisoning is ignored.
fn lock<T>(shard: &Mutex<T>) -> MutexGuard<'_, T> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A process-wide memoization cache.
///
/// `prefix` names the cache in the metrics registry: hits and misses tick
/// `<prefix>.hit` / `<prefix>.miss` counters whenever metrics are enabled.
/// Live progress reads its cache counts from the evaluation memo's
/// `exec.cache.hit` / `exec.cache.miss`, so no other memo moves them.
pub struct MemoCache<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
    hit_name: String,
    miss_name: String,
    enabled: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash + ShardKey, V: Clone> MemoCache<K, V> {
    /// An empty, enabled cache named `prefix` in the metrics registry.
    pub fn new(prefix: &'static str) -> Self {
        MemoCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hit_name: format!("{prefix}.hit"),
            miss_name: format!("{prefix}.miss"),
            enabled: AtomicBool::new(true),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        &self.shards[(key.shard_bits() as usize) & (SHARDS - 1)]
    }

    /// Returns the cached value for `key`, or computes it with `f`.
    ///
    /// The computation runs outside the shard lock; errors are never
    /// cached. With the cache disabled this is exactly `f()`.
    pub fn get_or_try_compute<E>(&self, key: K, f: impl FnOnce() -> Result<V, E>) -> Result<V, E> {
        if !self.enabled.load(Ordering::Relaxed) {
            return f();
        }
        let shard = self.shard(&key);
        if let Some(value) = lock(shard).get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.tick(&self.hit_name);
            return Ok(value);
        }
        let value = f()?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.tick(&self.miss_name);
        lock(shard).entry(key).or_insert_with(|| value.clone());
        Ok(value)
    }

    /// [`MemoCache::get_or_try_compute`] for a computation that cannot
    /// fail.
    pub fn get_or_compute(&self, key: K, f: impl FnOnce() -> V) -> V {
        match self.get_or_try_compute(key, || Ok::<V, std::convert::Infallible>(f())) {
            Ok(value) => value,
            Err(never) => match never {},
        }
    }

    fn tick(&self, name: &str) {
        if mc_trace::metrics_enabled() {
            mc_trace::metrics().inc(name, 1);
        }
    }

    /// Turns memoization on or off (off = always compute).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Drops every cached entry and zeroes the hit/miss tallies.
    pub fn clear(&self) {
        for shard in &self.shards {
            lock(shard).clear();
        }
        self.hits.store(0, Ordering::SeqCst);
        self.misses.store(0, Ordering::SeqCst);
    }

    /// Cached entry count across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime `(hits, misses)` tally.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn ok<T>(value: T) -> Result<T, Infallible> {
        Ok(value)
    }

    #[test]
    fn second_lookup_hits() {
        let cache: MemoCache<u64, u64> = MemoCache::new("test.cache");
        let computed = AtomicU64::new(0);
        let compute = |x: u64| {
            computed.fetch_add(1, Ordering::Relaxed);
            ok(x * 2)
        };
        assert_eq!(cache.get_or_try_compute(7, || compute(7)), Ok(14));
        assert_eq!(cache.get_or_try_compute(7, || compute(7)), Ok(14));
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache: MemoCache<u64, u64> = MemoCache::new("test.cache");
        let r: Result<u64, String> = cache.get_or_try_compute(1, || Err("boom".into()));
        assert_eq!(r, Err("boom".to_owned()));
        assert!(cache.is_empty());
        assert_eq!(cache.get_or_try_compute(1, || ok(5)), Ok(5));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disabled_cache_always_computes() {
        let cache: MemoCache<u64, u64> = MemoCache::new("test.cache");
        cache.set_enabled(false);
        let computed = AtomicU64::new(0);
        for _ in 0..3 {
            let _ = cache.get_or_try_compute(9, || {
                computed.fetch_add(1, Ordering::Relaxed);
                ok(1u64)
            });
        }
        assert_eq!(computed.load(Ordering::Relaxed), 3);
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), (0, 0));
    }

    #[test]
    fn clear_resets_entries_and_stats() {
        let cache: MemoCache<u64, u64> = MemoCache::new("test.cache");
        for k in 0..40 {
            let _ = cache.get_or_try_compute(k, || ok(k));
        }
        assert_eq!(cache.len(), 40);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), (0, 0));
    }

    #[test]
    fn concurrent_lookups_agree() {
        let _guard = crate::tests::metrics_lock();
        let cache: MemoCache<u64, u64> = MemoCache::new("test.cache");
        let results = crate::ExecEngine::new(8).run((0..256u64).collect(), |i| {
            cache.get_or_try_compute(i % 16, || ok((i % 16) * 3)).unwrap()
        });
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, (i as u64 % 16) * 3);
        }
        assert_eq!(cache.len(), 16);
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, 256);
        assert!(misses >= 16);
    }

    #[test]
    fn fingerprint_keys_spread_across_shards() {
        let cache: MemoCache<(u64, u64), u64> = MemoCache::new("test.cache");
        for k in 0..(SHARDS as u64 * 4) {
            // Vary only the second half — rotate-fold must still spread.
            let _ = cache.get_or_try_compute((0xabcd, k), || ok(k));
        }
        let occupied = cache.shards.iter().filter(|s| !lock(s).is_empty()).count();
        assert!(occupied > SHARDS / 2, "only {occupied} of {SHARDS} shards used");
    }

    #[test]
    fn lookups_leave_progress_cache_counts_alone() {
        struct Quiet;
        impl mc_trace::ProgressSink for Quiet {
            fn on_progress(&self, _: mc_trace::ProgressEvent, _: &mc_trace::ProgressSnapshot) {}
        }
        let _guard = crate::tests::metrics_lock();
        mc_trace::install_progress(std::sync::Arc::new(Quiet));
        let cache: MemoCache<u64, u64> = MemoCache::new("test.cache");
        for k in [1, 2, 1, 1] {
            let _ = cache.get_or_try_compute(k, || ok(k));
        }
        let snapshot = mc_trace::progress_snapshot();
        mc_trace::uninstall_progress();
        assert_eq!(cache.stats(), (2, 2));
        assert_eq!((snapshot.cache_hits, snapshot.cache_misses), (0, 0));
    }

    #[test]
    fn hashed_key_wrapper_admits_arbitrary_key_types() {
        let cache: MemoCache<HashedKey<(String, u32)>, u64> = MemoCache::new("test.cache");
        let key = || HashedKey(("fig13".to_owned(), 7u32));
        assert_eq!(cache.get_or_try_compute(key(), || ok(1)), Ok(1));
        assert_eq!(cache.get_or_try_compute(key(), || ok(2)), Ok(1));
        assert_eq!(cache.stats(), (1, 1));
    }
}
