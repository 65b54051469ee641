//! LRU result cache with single-flight coalescing.
//!
//! Mapping computation is deterministic: the same (normalized matrix,
//! topology) pair always yields the same placement, so results are safe to
//! cache indefinitely. The key is [`CommMatrix::fingerprint`] — invariant
//! under accumulation order and uniform scaling — plus the topology
//! arities, so two detections of the same sharing pattern at different
//! sampling intensities hit the same slot.
//!
//! **Single flight:** when several connections ask for the same key
//! concurrently, exactly one (the *leader*) computes; the rest block on a
//! condvar and receive the leader's result ([`CacheOutcome::Coalesced`]).
//! If the leader fails, one waiter is promoted to leader and retries.
//!
//! **Sharding:** [`ShardedCache`] splits the key space over independent
//! [`MapCache`] shards by the hash of the matrix fingerprint, so workers
//! resolving *different* matrices stop serializing on one global lock
//! while identical concurrent requests (same fingerprint → same shard)
//! still coalesce onto a single computation.
//!
//! [`CommMatrix::fingerprint`]: tlbmap_core::CommMatrix::fingerprint

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};

/// Cache key: matrix fingerprint + topology arities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`tlbmap_core::CommMatrix::fingerprint`] of the request matrix.
    pub fingerprint: u64,
    /// Chips in the target topology.
    pub chips: usize,
    /// L2 caches per chip.
    pub l2_per_chip: usize,
    /// Cores per L2 cache.
    pub cores_per_l2: usize,
}

/// How a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The result was already cached.
    Hit,
    /// This caller computed the result.
    Miss,
    /// Another in-flight caller computed it; this caller waited.
    Coalesced,
}

enum Slot {
    /// A leader is computing this key.
    Pending,
    /// A computed mapping; `stamp` orders LRU eviction.
    Ready { mapping: Vec<usize>, stamp: u64 },
}

struct Inner {
    slots: HashMap<CacheKey, Slot>,
    tick: u64,
}

/// Bounded mapping cache shared by the worker pool.
pub struct MapCache {
    inner: Mutex<Inner>,
    ready: Condvar,
    capacity: usize,
}

impl MapCache {
    /// A cache retaining at most `capacity` ready mappings (pending slots
    /// do not count toward the bound and are never evicted).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MapCache capacity must be positive");
        MapCache {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                tick: 0,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Number of ready entries currently cached.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
    }

    /// Whether the cache holds no ready entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up `key`, computing with `compute` on a miss. Identical
    /// concurrent misses coalesce onto one computation.
    pub fn get_or_compute(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> Result<Vec<usize>, String>,
    ) -> (Result<Vec<usize>, String>, CacheOutcome) {
        let mut waited = false;
        let mut inner = self.inner.lock().unwrap();
        loop {
            inner.tick += 1;
            let tick = inner.tick;
            match inner.slots.get_mut(&key) {
                Some(Slot::Ready { mapping, stamp }) => {
                    *stamp = tick;
                    let result = mapping.clone();
                    let outcome = if waited {
                        CacheOutcome::Coalesced
                    } else {
                        CacheOutcome::Hit
                    };
                    return (Ok(result), outcome);
                }
                Some(Slot::Pending) => {
                    waited = true;
                    inner = self.ready.wait(inner).unwrap();
                }
                None => break,
            }
        }
        // Become the leader for this key.
        inner.slots.insert(key, Slot::Pending);
        drop(inner);

        let result = compute();

        let mut inner = self.inner.lock().unwrap();
        match &result {
            Ok(mapping) => {
                inner.tick += 1;
                let stamp = inner.tick;
                inner.slots.insert(
                    key,
                    Slot::Ready {
                        mapping: mapping.clone(),
                        stamp,
                    },
                );
                self.evict_over_capacity(&mut inner);
            }
            Err(_) => {
                // Drop the pending slot so a waiter can retry as leader.
                inner.slots.remove(&key);
            }
        }
        drop(inner);
        self.ready.notify_all();
        (result, CacheOutcome::Miss)
    }

    fn evict_over_capacity(&self, inner: &mut Inner) {
        loop {
            let ready = inner
                .slots
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { stamp, .. } => Some((*k, *stamp)),
                    Slot::Pending => None,
                })
                .collect::<Vec<_>>();
            if ready.len() <= self.capacity {
                return;
            }
            if let Some((victim, _)) = ready.iter().min_by_key(|(_, stamp)| *stamp) {
                inner.slots.remove(victim);
            }
        }
    }
}

/// A result cache split over independent [`MapCache`] shards.
///
/// The shard is chosen by hashing only the matrix fingerprint (the
/// topology arities are near-constant across a deployment and would add
/// nothing to the spread), so a given matrix always lands on the same
/// shard and single-flight coalescing keeps working within it. Distinct
/// matrices spread across shards and take distinct locks.
pub struct ShardedCache {
    shards: Vec<MapCache>,
}

impl ShardedCache {
    /// A cache of `capacity` total entries split over `shards` shards.
    ///
    /// Capacity is divided evenly (rounding up, so the total is never
    /// silently below the request); each shard keeps at least one entry.
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "ShardedCache capacity must be positive");
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards).max(1);
        ShardedCache {
            shards: (0..shards).map(|_| MapCache::new(per_shard)).collect(),
        }
    }

    /// The shard index `key` routes to (stable for a given fingerprint).
    pub fn shard_of(&self, key: &CacheKey) -> usize {
        // Fibonacci multiplicative hash: the fingerprint is itself a
        // mixed 64-bit digest, so one odd-constant multiply spreads its
        // low bits well enough for a handful of shards.
        let mixed = key.fingerprint.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (mixed >> 32) as usize % self.shards.len()
    }

    /// Ready entries summed across every shard.
    pub fn len(&self) -> usize {
        self.shards.iter().map(MapCache::len).sum()
    }

    /// Whether no shard holds a ready entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up `key` on its shard, computing with `compute` on a miss.
    /// Only callers whose keys share a shard ever contend on a lock.
    pub fn get_or_compute(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> Result<Vec<usize>, String>,
    ) -> (Result<Vec<usize>, String>, CacheOutcome) {
        self.shards[self.shard_of(&key)].get_or_compute(key, compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn key(fp: u64) -> CacheKey {
        CacheKey {
            fingerprint: fp,
            chips: 2,
            l2_per_chip: 2,
            cores_per_l2: 2,
        }
    }

    #[test]
    fn miss_then_hit() {
        let cache = MapCache::new(4);
        let (r, o) = cache.get_or_compute(key(1), || Ok(vec![0, 1]));
        assert_eq!(r.unwrap(), vec![0, 1]);
        assert_eq!(o, CacheOutcome::Miss);
        let (r, o) = cache.get_or_compute(key(1), || panic!("should not recompute"));
        assert_eq!(r.unwrap(), vec![0, 1]);
        assert_eq!(o, CacheOutcome::Hit);
    }

    #[test]
    fn distinct_topologies_do_not_collide() {
        let cache = MapCache::new(4);
        let a = key(1);
        let b = CacheKey {
            cores_per_l2: 4,
            ..key(1)
        };
        cache.get_or_compute(a, || Ok(vec![0])).0.unwrap();
        let (_, o) = cache.get_or_compute(b, || Ok(vec![1]));
        assert_eq!(o, CacheOutcome::Miss);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let cache = MapCache::new(2);
        cache.get_or_compute(key(1), || Ok(vec![1])).0.unwrap();
        cache.get_or_compute(key(2), || Ok(vec![2])).0.unwrap();
        // Touch key 1 so key 2 becomes the LRU victim.
        cache.get_or_compute(key(1), || unreachable!()).0.unwrap();
        cache.get_or_compute(key(3), || Ok(vec![3])).0.unwrap();
        assert_eq!(cache.len(), 2);
        let (_, o) = cache.get_or_compute(key(1), || Ok(vec![9]));
        assert_eq!(o, CacheOutcome::Hit);
        let (_, o) = cache.get_or_compute(key(2), || Ok(vec![2]));
        assert_eq!(o, CacheOutcome::Miss, "key 2 should have been evicted");
    }

    #[test]
    fn error_results_are_not_cached() {
        let cache = MapCache::new(4);
        let (r, _) = cache.get_or_compute(key(1), || Err("boom".to_string()));
        assert!(r.is_err());
        let (r, o) = cache.get_or_compute(key(1), || Ok(vec![7]));
        assert_eq!(r.unwrap(), vec![7]);
        assert_eq!(o, CacheOutcome::Miss);
    }

    #[test]
    fn concurrent_identical_requests_coalesce_onto_one_computation() {
        let cache = Arc::new(MapCache::new(4));
        let computations = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let computations = Arc::clone(&computations);
                std::thread::spawn(move || {
                    cache.get_or_compute(key(42), || {
                        computations.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Ok(vec![4, 2])
                    })
                })
            })
            .collect();
        let outcomes: Vec<CacheOutcome> = threads
            .into_iter()
            .map(|t| {
                let (r, o) = t.join().unwrap();
                assert_eq!(r.unwrap(), vec![4, 2]);
                o
            })
            .collect();
        assert_eq!(
            computations.load(Ordering::SeqCst),
            1,
            "exactly one leader should compute"
        );
        assert_eq!(
            outcomes
                .iter()
                .filter(|o| **o == CacheOutcome::Miss)
                .count(),
            1
        );
    }

    #[test]
    fn sharded_routing_is_stable_and_still_coalesces() {
        let cache = ShardedCache::new(16, 4);
        // Routing is a pure function of the fingerprint and spreads keys
        // over all four shards.
        let mut used = [false; 4];
        for fp in 0..64 {
            assert_eq!(cache.shard_of(&key(fp)), cache.shard_of(&key(fp)));
            used[cache.shard_of(&key(fp))] = true;
        }
        assert_eq!(used, [true; 4]);
        // Hits still work through the shard layer.
        let (r, o) = cache.get_or_compute(key(5), || Ok(vec![5]));
        assert_eq!(r.unwrap(), vec![5]);
        assert_eq!(o, CacheOutcome::Miss);
        let (r, o) = cache.get_or_compute(key(5), || panic!("should not recompute"));
        assert_eq!(r.unwrap(), vec![5]);
        assert_eq!(o, CacheOutcome::Hit);
    }

    #[test]
    fn sharded_len_sums_across_shards() {
        let cache = ShardedCache::new(64, 4);
        assert!(cache.is_empty());
        for fp in 0..32 {
            cache
                .get_or_compute(key(fp), || Ok(vec![fp as usize]))
                .0
                .unwrap();
        }
        assert_eq!(cache.len(), 32);
        // The multiplicative hash should actually spread keys: no single
        // shard may have swallowed everything.
        let per_shard: Vec<usize> =
            (0..32)
                .map(|fp| cache.shard_of(&key(fp)))
                .fold(vec![0usize; 4], |mut acc, s| {
                    acc[s] += 1;
                    acc
                });
        assert!(per_shard.iter().filter(|&&n| n > 0).count() > 1);
    }

    #[test]
    fn sharded_capacity_divides_with_a_floor_of_one() {
        // 2 entries over 4 shards: each shard still holds one entry, so
        // total capacity rounds up rather than collapsing to zero.
        let cache = ShardedCache::new(2, 4);
        for fp in 0..16 {
            cache.get_or_compute(key(fp), || Ok(vec![1])).0.unwrap();
        }
        assert!(cache.len() <= 4);
        assert!(!cache.is_empty());
    }

    #[test]
    fn sharded_concurrent_identical_requests_coalesce() {
        let cache = Arc::new(ShardedCache::new(16, 4));
        let computations = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let computations = Arc::clone(&computations);
                std::thread::spawn(move || {
                    cache.get_or_compute(key(42), || {
                        computations.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Ok(vec![4, 2])
                    })
                })
            })
            .collect();
        for t in threads {
            let (r, _) = t.join().unwrap();
            assert_eq!(r.unwrap(), vec![4, 2]);
        }
        assert_eq!(computations.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn failed_leader_promotes_a_waiter() {
        let cache = Arc::new(MapCache::new(4));
        let attempts = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let attempts = Arc::clone(&attempts);
                std::thread::spawn(move || {
                    cache.get_or_compute(key(7), || {
                        let n = attempts.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        if n == 0 {
                            Err("first leader fails".to_string())
                        } else {
                            Ok(vec![n])
                        }
                    })
                })
            })
            .collect();
        let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let failures = results.iter().filter(|(r, _)| r.is_err()).count();
        let successes = results.iter().filter(|(r, _)| r.is_ok()).count();
        assert_eq!(failures, 1, "only the first leader observes the error");
        assert_eq!(successes, 3);
    }
}
