//! The serve plane's one cache: a sharded, versioned LRU.
//!
//! Keys are exact: every input the cached value depends on, packed into a
//! fixed word array (floats by bit pattern). [`PredictionCache`] keys one
//! candidate by the full `(app, data, cluster, conf)` tuple, so two
//! requests share an entry only when the model would compute the identical
//! number — batched NECS inference is bit-for-bit equal to per-candidate
//! inference, so a hit never changes a response. [`ResponseCache`] keys a
//! whole `recommend` by `(app, data, cluster, k, seed)`. Entries remember
//! the model version that produced them; a hot-swap therefore invalidates
//! the whole cache lazily, with no swap-time sweep.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard, PoisonError};

use lite_obs::Counter;
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::SparkConf;
use lite_workloads::apps::AppId;
use lite_workloads::data::DataSpec;

/// app(1) + data(5) + cluster env(6) + cluster name hash(1): the words
/// every key starts with.
const IDENTITY_WORDS: usize = 13;
/// identity + conf(16).
const KEY_WORDS: usize = IDENTITY_WORDS + 16;
/// identity + k(1) + seed(1).
const RESPONSE_KEY_WORDS: usize = IDENTITY_WORDS + 2;

/// FNV-1a over a word stream (bytes fold as one word each).
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf29ce484222325, |h, w| (h ^ w).wrapping_mul(0x100000001b3))
}

/// Pack the request identity both key kinds share into the head of `w`.
fn identity_words(w: &mut [u64], app: AppId, data: &DataSpec, cluster: &ClusterSpec) {
    w[0] = app.index() as u64;
    w[1] = data.rows;
    w[2] = data.cols as u64;
    w[3] = data.iterations as u64;
    w[4] = data.partitions as u64;
    w[5] = data.bytes;
    for (i, &e) in cluster.env_features().iter().enumerate() {
        w[6 + i] = e.to_bits();
    }
    w[12] = fnv1a(cluster.name.bytes().map(u64::from));
}

/// Exact prediction key: every feature the prediction depends on,
/// bit-packed.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey([u64; KEY_WORDS]);

impl CacheKey {
    /// Pack one candidate's identity.
    pub fn new(app: AppId, data: &DataSpec, cluster: &ClusterSpec, conf: &SparkConf) -> CacheKey {
        let mut w = [0u64; KEY_WORDS];
        identity_words(&mut w, app, data, cluster);
        for (i, &v) in conf.values().iter().enumerate() {
            w[IDENTITY_WORDS + i] = v.to_bits();
        }
        CacheKey(w)
    }
}

impl AsRef<[u64]> for CacheKey {
    fn as_ref(&self) -> &[u64] {
        &self.0
    }
}

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
        identity_words(&mut w, app, data, cluster);
        w[IDENTITY_WORDS] = k as u64;
        w[IDENTITY_WORDS + 1] = seed;
        ResponseKey(w)
    }

    /// FNV-1a over the packed words — the shard-affinity hash the sharded
    /// dispatcher routes by, so repeats of one request always land on the
    /// same worker (and therefore the same warm caches).
    pub fn route_hash(&self) -> u64 {
        fnv1a(self.0)
    }
}

impl AsRef<[u64]> for ResponseKey {
    fn as_ref(&self) -> &[u64] {
        &self.0
    }
}

struct Entry<V> {
    version: u64,
    value: V,
    stamp: u64,
}

struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    clock: u64,
}

/// N independently locked shards of at most `capacity_per_shard` entries,
/// each evicting its least-recently-used entry when full, so reactor
/// threads and workers never convoy on one mutex.
pub struct VersionedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    capacity_per_shard: usize,
    hits: Counter,
    misses: Counter,
}

/// Per-candidate NECS predictions.
pub type PredictionCache = VersionedLru<CacheKey, f64>;

/// Whole `recommend` responses: the serve plane's inline fast path answers
/// repeat requests from here without crossing into a worker.
pub type ResponseCache<V> = VersionedLru<ResponseKey, V>;

impl<K: AsRef<[u64]> + Copy + Eq + Hash, V: Clone> VersionedLru<K, V> {
    /// `shards` independently locked maps of at most `capacity_per_shard`
    /// entries each (`0` disables caching). Hit/miss counters come from
    /// the caller's metrics registry so the cache shows up in manifests.
    pub fn new(
        shards: usize,
        capacity_per_shard: usize,
        hits: Counter,
        misses: Counter,
    ) -> VersionedLru<K, V> {
        assert!(shards > 0, "cache needs at least one shard");
        VersionedLru {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard { map: HashMap::new(), clock: 0 }))
                .collect(),
            capacity_per_shard,
            hits,
            misses,
        }
    }

    /// Look up the value cached at model `version`. A stale-version entry
    /// is removed on sight and counts as a miss.
    pub fn get(&self, key: &K, version: u64) -> Option<V> {
        let mut shard = self.shard(key);
        let Shard { map, clock } = &mut *shard;
        match map.get_mut(key) {
            Some(entry) if entry.version == version => {
                *clock += 1;
                entry.stamp = *clock;
                self.hits.inc();
                Some(entry.value.clone())
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

    /// Store a value, evicting the shard's least-recently-used entry when
    /// full.
    pub fn insert(&self, key: K, version: u64, value: V) {
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

    fn shard(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        // A panicking holder leaves the map valid (every update is one
        // HashMap call), so a poisoned shard is recovered, not propagated.
        let shard = fnv1a(key.as_ref().iter().copied()) % self.shards.len() as u64;
        self.shards[shard as usize].lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lite_obs::Registry;
    use lite_sparksim::conf::{ConfSpace, Knob};
    use lite_workloads::data::SizeTier;

    fn key(knob0: f64) -> CacheKey {
        let space = ConfSpace::table_iv();
        let mut conf = space.default_conf();
        conf.set(&space, Knob::ExecutorCores, knob0);
        let data = AppId::Sort.dataset(SizeTier::Valid);
        CacheKey::new(AppId::Sort, &data, &ClusterSpec::cluster_a(), &conf)
    }

    fn response_key(seed: u64) -> ResponseKey {
        let data = AppId::Sort.dataset(SizeTier::Valid);
        ResponseKey::new(AppId::Sort, &data, &ClusterSpec::cluster_a(), 3, seed)
    }

    /// Everything the cache promises, on three distinct keys and values of
    /// either alias.
    fn check<K, V>([a, b, d]: [K; 3], [va, vb, vd]: [V; 3])
    where
        K: AsRef<[u64]> + Copy + Eq + Hash + Send,
        V: Clone + PartialEq + std::fmt::Debug + Send,
    {
        let cache = |shards, cap| {
            let reg = Registry::new();
            VersionedLru::<K, V>::new(shards, cap, reg.counter("hits"), reg.counter("misses"))
        };

        // Hit, miss, and lazy invalidation by model version.
        let c = cache(4, 8);
        assert_eq!(c.get(&a, 0), None);
        c.insert(a, 0, va.clone());
        assert_eq!(c.get(&a, 0), Some(va.clone()));
        assert_eq!(c.get(&a, 1), None, "hot-swap invalidates lazily");
        assert_eq!(c.get(&a, 1), None); // really removed, not just skipped
        assert_eq!((c.hits(), c.misses()), (1, 3));
        assert!((c.hit_rate() - 0.25).abs() < 1e-12);

        // Exact LRU within a shard (one shard so all keys compete).
        let c = cache(1, 2);
        c.insert(a, 0, va.clone());
        c.insert(b, 0, vb);
        assert_eq!(c.get(&a, 0), Some(va.clone())); // touch a: b is now LRU
        c.insert(d, 0, vd.clone());
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&b, 0), None, "LRU entry should have been evicted");
        assert_eq!(c.get(&a, 0), Some(va.clone()));
        assert_eq!(c.get(&d, 0), Some(vd.clone()));

        // A poisoned shard is recovered, not propagated.
        let c = cache(1, 4);
        c.insert(a, 0, va.clone());
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = c.shards[0].lock().unwrap();
                panic!("shard holder dies");
            })
            .join()
        });
        assert!(holder.is_err() && c.shards[0].is_poisoned());
        assert_eq!(c.get(&a, 0), Some(va));
        c.insert(d, 0, vd);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn prediction_cache_hits_versions_evicts_and_survives_poison() {
        check([key(1.0), key(2.0), key(3.0)], [1.0, 2.0, 3.0]);
    }

    #[test]
    fn response_cache_does_the_same_and_routes_stably() {
        check([response_key(7), response_key(8), response_key(9)], [41u32, 42, 43]);
        let k = response_key(7);
        assert_eq!(k.route_hash(), response_key(7).route_hash(), "routing must be deterministic");
        assert!(k != response_key(8), "seed must be part of the response identity");
    }
}
