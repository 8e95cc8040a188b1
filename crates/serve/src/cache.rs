//! The serve plane's one cache: a sharded, versioned LRU of whole
//! `recommend` responses.
//!
//! Keys are exact: every input the cached value depends on, packed into a
//! fixed word array (floats by bit pattern). [`ResponseCache`] keys a whole
//! `recommend` by `(app, data, cluster, k, seed)`, so two requests share an
//! entry only when the server would compute the identical response — the
//! grain at which a recurring job recurs (its ~30 candidates are sampled
//! fresh from the ACG region per request, so a single candidate repeats
//! only when the whole request does). Entries remember the model version
//! that produced them; a hot-swap therefore invalidates the whole cache
//! lazily, with no swap-time sweep.
//!
//! One key kind is in use. [`CacheKey`] / [`PredictionCache`] — one
//! candidate keyed by `(app, data, cluster, conf)` — back nothing in the
//! service any more; they stay only because the benchmark's cache probes
//! (`crates/ledger`) name them (ROADMAP item 6).

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
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

/// Exact per-candidate key: every feature one prediction depends on,
/// bit-packed. Used by the benchmark's probes only (see the module docs).
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

/// "No slot": the end of the list in either direction.
const NIL: usize = usize::MAX;

/// One resident (or vacated) entry, linked into its shard's recency list.
struct Slot<K, V> {
    key: K,
    /// `key`'s hash under the shard's `hasher`: its key in the index.
    hash: u64,
    version: u64,
    value: V,
    prev: usize,
    next: usize,
}

/// A slab of slots threaded on a doubly linked list by index, most
/// recently used at `head`: touching an entry moves it to the front, a
/// full shard evicts `tail` — exact LRU in O(1), where a recency stamp per
/// entry needed a scan of the whole shard to find the oldest.
///
/// `index` holds exactly the linked slots; `free` holds the rest (vacated
/// by a stale-version lookup, reused before the slab grows).
///
/// The index maps a key's 64-bit hash, not the key, to its slot: 16 bytes
/// an entry whatever the key's size, and a lookup confirms the slot's own
/// key. A key whose hash a resident key already has takes that key's slot
/// over, as an eviction would. The index is sized for twice the capacity
/// up front, so the tombstones that churn leaves (a remove and an insert
/// per eviction) are cleared by rehashing in place and never make it
/// grow: its size does not depend on how many requests a run makes.
struct Shard<K, V> {
    index: HashMap<u64, usize, BuildHasherDefault<Prehashed>>,
    hasher: RandomState,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

/// The index's hasher: its keys are already hashes, from the shard's
/// `RandomState`, so they pass through as they are.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the index is keyed by u64 hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

impl<K, V> Shard<K, V> {
    fn new(capacity: usize) -> Shard<K, V> {
        Shard {
            index: HashMap::with_capacity_and_hasher(
                capacity.saturating_mul(2),
                Default::default(),
            ),
            hasher: RandomState::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// The linked slot holding `key`, whose hash is `hash`.
    fn find(&self, key: &K, hash: u64) -> Option<usize>
    where
        K: Eq,
    {
        self.index.get(&hash).copied().filter(|&i| self.slots[i].key == *key)
    }

    /// Take linked slot `i` out of the list (index writes only).
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Link unlinked slot `i` in as the most recently used (index writes
    /// only).
    fn push_front(&mut self, i: usize) {
        (self.slots[i].prev, self.slots[i].next) = (NIL, self.head);
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }
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

/// Per-candidate NECS predictions. Used by the benchmark's probes only
/// (see the module docs).
pub type PredictionCache = VersionedLru<CacheKey, f64>;

/// Whole `recommend` responses: every `recommend` probes it on the
/// submitting thread and a repeat is answered there, without crossing into
/// a worker.
pub type ResponseCache<V> = VersionedLru<ResponseKey, V>;

impl<K: AsRef<[u64]> + Copy + Eq + Hash, V: Clone> VersionedLru<K, V> {
    /// `shards` independently locked maps of at most `capacity_per_shard`
    /// entries each (`0` holds nothing: every probe misses). Hit/miss
    /// counters come from the caller's metrics registry so the cache shows
    /// up in manifests.
    pub fn new(
        shards: usize,
        capacity_per_shard: usize,
        hits: Counter,
        misses: Counter,
    ) -> VersionedLru<K, V> {
        assert!(shards > 0, "cache needs at least one shard");
        VersionedLru {
            shards: (0..shards).map(|_| Mutex::new(Shard::new(capacity_per_shard))).collect(),
            capacity_per_shard,
            hits,
            misses,
        }
    }

    /// Look up the value cached at model `version`. A stale-version entry
    /// is removed on sight and counts as a miss.
    pub fn get(&self, key: &K, version: u64) -> Option<V> {
        let mut shard = self.shard(key);
        let hash = shard.hasher.hash_one(key);
        let Some(i) = shard.find(key, hash) else {
            self.misses.inc();
            return None;
        };
        if shard.slots[i].version == version {
            let value = shard.slots[i].value.clone();
            shard.unlink(i);
            shard.push_front(i);
            self.hits.inc();
            Some(value)
        } else {
            shard.free.push(i);
            shard.index.remove(&hash);
            shard.unlink(i);
            self.misses.inc();
            None
        }
    }

    /// Store a value, evicting the shard's least-recently-used entry when
    /// full.
    pub fn insert(&self, key: K, version: u64, value: V) {
        if self.capacity_per_shard == 0 {
            return;
        }
        let mut guard = self.shard(&key);
        let shard = &mut *guard;
        let hash = shard.hasher.hash_one(key);
        // The slot to fill: the one the hash indexes (the key's own, or that
        // of a key with the same hash); else, when full, the least recently
        // used entry's, taken over in place; else a vacated one; else a new
        // one.
        let resident = shard.index.get(&hash).copied();
        let linked = resident.or_else(|| {
            (shard.index.len() >= self.capacity_per_shard).then(|| {
                let lru = shard.tail;
                shard.index.remove(&shard.slots[lru].hash);
                lru
            })
        });
        let i = match linked.or_else(|| shard.free.pop()) {
            Some(i) => {
                let slot = &mut shard.slots[i];
                (slot.key, slot.hash, slot.version, slot.value) = (key, hash, version, value);
                i
            }
            None => {
                shard.slots.push(Slot { key, hash, version, value, prev: NIL, next: NIL });
                shard.slots.len() - 1
            }
        };
        if resident.is_none() {
            shard.index.insert(hash, i);
        }
        if linked.is_some() {
            shard.unlink(i);
        }
        shard.push_front(i);
    }

    /// Entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).index.len())
            .sum()
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
        // A poisoned shard is recovered, not propagated, because a
        // panicking holder leaves it valid: every update makes its calls
        // that can panic (`V::clone`, `Vec` and `HashMap` growth) before
        // its first link write, and nothing but index writes on slots
        // that exist runs from there to its last.
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

    /// The shard this cache had before the list: a recency stamp per
    /// entry, eviction by scanning for the smallest. O(shard) per full
    /// insert, and obviously exact LRU — the reference model.
    struct StampScan<K, V> {
        map: HashMap<K, (u64, V, u64)>,
        clock: u64,
        capacity: usize,
    }

    impl<K: Copy + Eq + Hash, V: Clone> StampScan<K, V> {
        fn get(&mut self, key: &K, version: u64) -> Option<V> {
            match self.map.get_mut(key) {
                Some(entry) if entry.0 == version => {
                    self.clock += 1;
                    entry.2 = self.clock;
                    Some(entry.1.clone())
                }
                Some(_) => {
                    self.map.remove(key);
                    None
                }
                None => None,
            }
        }

        fn insert(&mut self, key: K, version: u64, value: V) {
            if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
                if let Some(oldest) = self.map.iter().min_by_key(|(_, e)| e.2).map(|(k, _)| *k) {
                    self.map.remove(&oldest);
                }
            }
            self.clock += 1;
            self.map.insert(key, (version, value, self.clock));
        }
    }

    /// `index`, the list (walked both ways) and `free` account for every
    /// slot exactly once, and each linked slot is indexed by its key's hash.
    fn assert_well_formed<K: Eq + Hash, V>(shard: &Shard<K, V>) {
        let (mut forward, mut i, mut prev) = (Vec::new(), shard.head, NIL);
        while i != NIL {
            assert_eq!(shard.slots[i].prev, prev);
            assert_eq!(shard.slots[i].hash, shard.hasher.hash_one(&shard.slots[i].key));
            assert_eq!(shard.index.get(&shard.slots[i].hash), Some(&i));
            forward.push(i);
            (prev, i) = (i, shard.slots[i].next);
        }
        assert_eq!(shard.tail, prev);
        assert_eq!(forward.len(), shard.index.len());
        let mut all: Vec<usize> = forward.iter().chain(&shard.free).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..shard.slots.len()).collect::<Vec<_>>());
    }

    #[test]
    fn list_lru_matches_the_stamp_scan_it_replaced() {
        const CAPACITY: usize = 8;
        let reg = Registry::new();
        let cache =
            ResponseCache::<u64>::new(1, CAPACITY, reg.counter("hits"), reg.counter("misses"));
        let mut model = StampScan { map: HashMap::new(), clock: 0, capacity: CAPACITY };
        // 20 keys over 8 slots: hits, evictions and re-inserts all happen.
        let keys: Vec<ResponseKey> = (0..20).map(response_key).collect();
        let (mut version, mut hits) = (0u64, 0u64);
        for op in 0..20_000u64 {
            let roll = lite_sparksim::fault::mix64(op);
            let key = keys[(roll >> 8) as usize % keys.len()];
            match roll % 64 {
                // A hot-swap: everything resident goes stale, lazily.
                0 => version += 1,
                r @ 1..=28 => {
                    // One version behind now and then: stale on arrival.
                    let at = if r == 28 { version.saturating_sub(1) } else { version };
                    cache.insert(key, at, op);
                    model.insert(key, at, op);
                }
                _ => {
                    let got = cache.get(&key, version);
                    assert_eq!(got, model.get(&key, version), "op {op}");
                    hits += got.is_some() as u64;
                }
            }
            let shard = cache.shards[0].lock().unwrap();
            assert_well_formed(&shard);
            assert!(
                shard.index.len() == model.map.len()
                    && shard.index.values().all(|&i| model.map.contains_key(&shard.slots[i].key)),
                "resident sets differ after op {op}"
            );
            drop(shard);
            assert_eq!(cache.len(), model.map.len());
            assert!(cache.len() <= CAPACITY);
        }
        assert_eq!(hits, cache.hits());
        assert!(hits > 1_000 && cache.misses() > 1_000 && version > 100, "the mix must mix");
    }

    #[test]
    fn churn_past_a_full_shard_never_grows_its_index() {
        const CAPACITY: usize = 4096;
        let reg = Registry::new();
        let cache =
            ResponseCache::<u64>::new(1, CAPACITY, reg.counter("hits"), reg.counter("misses"));
        // `capacity()` is entries plus growth budget: a tombstone lowers it
        // until a rehash in place restores it, but only a reallocation,
        // the doubling this guards against, can raise it.
        let index_capacity = || cache.shards[0].lock().unwrap().index.capacity();
        let cap = CAPACITY as u64;
        for seed in 0..cap {
            cache.insert(response_key(seed), 0, seed);
        }
        let filled = index_capacity();
        assert!(filled >= 2 * CAPACITY, "presized for twice the capacity: {filled}");
        // 20 capacities of distinct keys: each evicts the oldest resident.
        for seed in cap..21 * cap {
            cache.insert(response_key(seed), 0, seed);
            let now = index_capacity();
            assert!(now <= filled, "grew {filled} -> {now} after {} evictions", seed + 1 - cap);
            if seed % 64 == 0 {
                assert_eq!(cache.get(&response_key(seed), 0), Some(seed));
                assert_eq!(cache.get(&response_key(seed - cap), 0), None);
            }
        }
        assert_eq!(cache.len(), CAPACITY);
        for seed in 20 * cap..21 * cap {
            assert_eq!(cache.get(&response_key(seed), 0), Some(seed), "seed {seed}");
        }
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
