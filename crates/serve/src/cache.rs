//! Sharded LRU cache of per-candidate NECS predictions.
//!
//! Keys are exact: the full `(app, data, cluster, conf)` tuple packed into
//! a fixed word array (floats by bit pattern), so two requests share an
//! entry only when the model would compute the identical number — batched
//! NECS inference is bit-for-bit equal to per-candidate inference, so a
//! hit never changes a response. Entries remember the model version that
//! produced them; a hot-swap therefore invalidates the whole cache lazily,
//! with no swap-time sweep.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

use lite_obs::Counter;
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::SparkConf;
use lite_workloads::apps::AppId;
use lite_workloads::data::DataSpec;

/// app(1) + data(5) + cluster env(6) + cluster name hash(1) + conf(16).
const KEY_WORDS: usize = 29;

/// Exact cache key: every feature the prediction depends on, bit-packed.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey([u64; KEY_WORDS]);

impl CacheKey {
    /// Pack one candidate's identity.
    pub fn new(app: AppId, data: &DataSpec, cluster: &ClusterSpec, conf: &SparkConf) -> CacheKey {
        let mut w = [0u64; KEY_WORDS];
        w[0] = app.index() as u64;
        w[1] = data.rows;
        w[2] = data.cols as u64;
        w[3] = data.iterations as u64;
        w[4] = data.partitions as u64;
        w[5] = data.bytes;
        for (i, &e) in cluster.env_features().iter().enumerate() {
            w[6 + i] = e.to_bits();
        }
        w[12] = fnv1a(cluster.name.as_bytes());
        for (i, &v) in conf.values().iter().enumerate() {
            w[13 + i] = v.to_bits();
        }
        CacheKey(w)
    }

    fn shard_of(&self, shards: usize) -> usize {
        let mut h = 0xcbf29ce484222325u64;
        for &word in &self.0 {
            h = (h ^ word).wrapping_mul(0x100000001b3);
        }
        (h % shards as u64) as usize
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

struct Entry {
    version: u64,
    value: f64,
    stamp: u64,
}

struct Shard {
    map: HashMap<CacheKey, Entry>,
    clock: u64,
}

/// The cache: N independently locked shards, per-shard LRU eviction.
pub struct PredictionCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: Counter,
    misses: Counter,
}

impl PredictionCache {
    /// `shards` independently locked maps of at most `capacity_per_shard`
    /// entries each. Hit/miss counters come from the caller's metrics
    /// registry so the cache shows up in manifests.
    pub fn new(
        shards: usize,
        capacity_per_shard: usize,
        hits: Counter,
        misses: Counter,
    ) -> PredictionCache {
        assert!(shards > 0, "cache needs at least one shard");
        PredictionCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard { map: HashMap::new(), clock: 0 }))
                .collect(),
            capacity_per_shard,
            hits,
            misses,
        }
    }

    /// Look up a prediction made by model `version`. A stale-version entry
    /// is removed on sight and counts as a miss.
    pub fn get(&self, key: &CacheKey, version: u64) -> Option<f64> {
        let mut shard = self.shard(key);
        let Shard { map, clock } = &mut *shard;
        match map.get_mut(key) {
            Some(entry) if entry.version == version => {
                *clock += 1;
                entry.stamp = *clock;
                self.hits.inc();
                Some(entry.value)
            }
            Some(_) => {
                map.remove(key);
                self.misses.inc();
                None
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Store a prediction, evicting the shard's least-recently-used entry
    /// when full.
    pub fn insert(&self, key: CacheKey, version: u64, value: f64) {
        if self.capacity_per_shard == 0 {
            return;
        }
        let mut shard = self.shard(&key);
        if shard.map.len() >= self.capacity_per_shard && !shard.map.contains_key(&key) {
            if let Some(oldest) = shard.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k) {
                shard.map.remove(&oldest);
            }
        }
        shard.clock += 1;
        let stamp = shard.clock;
        shard.map.insert(key, Entry { version, value, stamp });
    }

    /// Entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hits.
    pub fn hits(&self) -> u64 {
        self.hits.value()
    }

    /// Credit `n` hits answered on behalf of this cache without probing
    /// it — the response-cache fast path short-circuits the per-candidate
    /// lookups a repeat request would have hit, and the hit-rate account
    /// must not lose them.
    pub fn credit_hits(&self, n: u64) {
        self.hits.add(n);
    }

    /// Lifetime misses (stale-version evictions included).
    pub fn misses(&self) -> u64 {
        self.misses.value()
    }

    /// Lifetime hit rate in `[0, 1]`; 0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    fn shard(&self, key: &CacheKey) -> std::sync::MutexGuard<'_, Shard> {
        // A panicking holder leaves the map valid (every update is one
        // HashMap call), so a poisoned shard is recovered, not propagated.
        self.shards[key.shard_of(self.shards.len())].lock().unwrap_or_else(PoisonError::into_inner)
    }
}

// ---------------------------------------------------------------------------
// Response cache

/// app(1) + data(5) + cluster env(6) + cluster name hash(1) + k(1) + seed(1).
const RESPONSE_KEY_WORDS: usize = 15;

/// Exact whole-request key: every input a `recommend` response depends on
/// besides the model version, bit-packed the same way [`CacheKey`] packs a
/// candidate's identity. Two requests share an entry only when the server
/// would compute the identical response.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResponseKey([u64; RESPONSE_KEY_WORDS]);

impl ResponseKey {
    /// Pack one request's identity.
    pub fn new(
        app: AppId,
        data: &DataSpec,
        cluster: &ClusterSpec,
        k: usize,
        seed: u64,
    ) -> ResponseKey {
        let mut w = [0u64; RESPONSE_KEY_WORDS];
        w[0] = app.index() as u64;
        w[1] = data.rows;
        w[2] = data.cols as u64;
        w[3] = data.iterations as u64;
        w[4] = data.partitions as u64;
        w[5] = data.bytes;
        for (i, &e) in cluster.env_features().iter().enumerate() {
            w[6 + i] = e.to_bits();
        }
        w[12] = fnv1a(cluster.name.as_bytes());
        w[13] = k as u64;
        w[14] = seed;
        ResponseKey(w)
    }

    fn shard_of(&self, shards: usize) -> usize {
        let mut h = 0xcbf29ce484222325u64;
        for &word in &self.0 {
            h = (h ^ word).wrapping_mul(0x100000001b3);
        }
        (h % shards as u64) as usize
    }

    /// FNV-1a over the packed words — the shard-affinity hash the sharded
    /// dispatcher routes by, so repeats of one request always land on the
    /// same worker (and therefore the same warm caches).
    pub fn route_hash(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for &word in &self.0 {
            h = (h ^ word).wrapping_mul(0x100000001b3);
        }
        h
    }
}

struct ResponseEntry<V> {
    version: u64,
    value: V,
    stamp: u64,
}

struct ResponseShard<V> {
    map: HashMap<ResponseKey, ResponseEntry<V>>,
    clock: u64,
}

/// Whole-response LRU cache: the serve plane's inline fast path answers
/// repeat `recommend` requests from here without crossing into a worker.
/// Same versioning discipline as [`PredictionCache`] — entries remember
/// the model version, so hot-swaps invalidate lazily — and same sharded
/// locking, so reactor threads and workers never convoy on one mutex.
pub struct ResponseCache<V> {
    shards: Vec<Mutex<ResponseShard<V>>>,
    capacity_per_shard: usize,
    hits: Counter,
    misses: Counter,
}

impl<V: Clone> ResponseCache<V> {
    /// `shards` independently locked maps of at most `capacity_per_shard`
    /// entries each.
    pub fn new(
        shards: usize,
        capacity_per_shard: usize,
        hits: Counter,
        misses: Counter,
    ) -> ResponseCache<V> {
        assert!(shards > 0, "cache needs at least one shard");
        ResponseCache {
            shards: (0..shards)
                .map(|_| Mutex::new(ResponseShard { map: HashMap::new(), clock: 0 }))
                .collect(),
            capacity_per_shard,
            hits,
            misses,
        }
    }

    /// Look up the response served at model `version`. A stale-version
    /// entry is removed on sight and counts as a miss.
    pub fn get(&self, key: &ResponseKey, version: u64) -> Option<V> {
        let mut shard = self.shard(key);
        match shard.map.get_mut(key) {
            Some(entry) if entry.version == version => {
                shard.clock += 1;
                let stamp = shard.clock;
                let entry = shard.map.get_mut(key)?;
                entry.stamp = stamp;
                let value = entry.value.clone();
                self.hits.inc();
                Some(value)
            }
            Some(_) => {
                shard.map.remove(key);
                self.misses.inc();
                None
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Store a response, evicting the shard's least-recently-used entry
    /// when full.
    pub fn insert(&self, key: ResponseKey, version: u64, value: V) {
        if self.capacity_per_shard == 0 {
            return;
        }
        let mut shard = self.shard(&key);
        if shard.map.len() >= self.capacity_per_shard && !shard.map.contains_key(&key) {
            if let Some(oldest) = shard.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k) {
                shard.map.remove(&oldest);
            }
        }
        shard.clock += 1;
        let stamp = shard.clock;
        shard.map.insert(key, ResponseEntry { version, value, stamp });
    }

    /// Entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hits.
    pub fn hits(&self) -> u64 {
        self.hits.value()
    }

    /// Lifetime misses (stale-version evictions included).
    pub fn misses(&self) -> u64 {
        self.misses.value()
    }

    fn shard(&self, key: &ResponseKey) -> std::sync::MutexGuard<'_, ResponseShard<V>> {
        self.shards[key.shard_of(self.shards.len())].lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lite_obs::Registry;
    use lite_sparksim::conf::ConfSpace;

    fn cache(shards: usize, cap: usize) -> PredictionCache {
        let reg = Registry::new();
        PredictionCache::new(shards, cap, reg.counter("hits"), reg.counter("misses"))
    }

    fn key(knob0: f64) -> CacheKey {
        let space = ConfSpace::table_iv();
        let mut conf = space.default_conf();
        conf.set(&space, lite_sparksim::conf::Knob::ExecutorCores, knob0);
        CacheKey::new(
            AppId::Sort,
            &AppId::Sort.dataset(lite_workloads::data::SizeTier::Valid),
            &ClusterSpec::cluster_a(),
            &conf,
        )
    }

    #[test]
    fn hit_miss_and_version_invalidation() {
        let c = cache(4, 8);
        let k = key(2.0);
        assert_eq!(c.get(&k, 0), None);
        c.insert(k, 0, 123.5);
        assert_eq!(c.get(&k, 0), Some(123.5));
        // A new model version invalidates the entry.
        assert_eq!(c.get(&k, 1), None);
        assert_eq!(c.get(&k, 1), None); // really removed, not just skipped
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 3);
        assert!((c.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn poisoned_shard_is_recovered_not_propagated() {
        let c = cache(1, 4);
        let k = key(2.0);
        c.insert(k, 0, 9.5);
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = c.shards[0].lock().unwrap();
                panic!("shard holder dies");
            })
            .join()
        });
        assert!(holder.is_err() && c.shards[0].is_poisoned());
        assert_eq!(c.get(&k, 0), Some(9.5));
        c.insert(key(3.0), 0, 1.0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn response_cache_versions_and_routes_stably() {
        let reg = Registry::new();
        let c: ResponseCache<u32> = ResponseCache::new(2, 2, reg.counter("rh"), reg.counter("rm"));
        let data = AppId::Sort.dataset(lite_workloads::data::SizeTier::Valid);
        let k = ResponseKey::new(AppId::Sort, &data, &ClusterSpec::cluster_a(), 3, 7);
        assert_eq!(c.get(&k, 0), None);
        c.insert(k, 0, 42);
        assert_eq!(c.get(&k, 0), Some(42));
        assert_eq!(c.get(&k, 1), None, "hot-swap invalidates lazily");
        let again = ResponseKey::new(AppId::Sort, &data, &ClusterSpec::cluster_a(), 3, 7);
        assert_eq!(k.route_hash(), again.route_hash(), "routing must be deterministic");
        let other = ResponseKey::new(AppId::Sort, &data, &ClusterSpec::cluster_a(), 3, 8);
        assert!(k != other, "seed must be part of the response identity");
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used_within_shard() {
        let c = cache(1, 2); // one shard so all keys compete
        let (a, b, d) = (key(1.0), key(2.0), key(3.0));
        c.insert(a, 0, 1.0);
        c.insert(b, 0, 2.0);
        assert_eq!(c.get(&a, 0), Some(1.0)); // touch a: b is now LRU
        c.insert(d, 0, 3.0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&b, 0), None, "LRU entry should have been evicted");
        assert_eq!(c.get(&a, 0), Some(1.0));
        assert_eq!(c.get(&d, 0), Some(3.0));
    }
}
