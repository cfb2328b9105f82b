//! # wtq-cache
//!
//! A sharded, thread-safe, deduplicating answer cache: the qps multiplier
//! for serving repetitive question traffic over a fixed table catalog.
//! Question traffic over shared web tables is Zipfian — a handful of
//! `(table, question)` pairs dominates — so answering a hot question from
//! memory instead of re-running parse → evaluate → explain end to end
//! multiplies serving throughput by the hit rate's reciprocal complement.
//!
//! The cache is deliberately generic over its value type `V` (the engine
//! crate stores each answer's encoded candidates body; tests store
//! integers) and knows nothing about questions or tables beyond the opaque
//! [`CacheKey`]:
//!
//! * **Keying** — `(table fingerprint, normalized question, top_k)`. The
//!   fingerprint must identify table *contents* (not just shape) and the
//!   question must be pre-normalized by the caller, with the same
//!   normalization the parser itself uses, so trivially-variant phrasings
//!   share an entry and keys cannot drift from parse-time tokenization.
//!   Because answers are pure functions of their key, an entry never goes
//!   stale: a reloaded table with new cells has a new fingerprint, so it
//!   keys afresh, and its old entries age out of the LRU order.
//! * **Eviction** — an LRU entry bound of exactly `capacity`, split across
//!   the shards, and nothing else. A capacity of 0 keeps nothing.
//! * **Single-flight collapse** — concurrent requests for the same key
//!   block on one leader's computation and all receive the same shared
//!   value ([`AnswerCache::begin`]), so a thundering herd on a hot
//!   question costs one engine run, even in a cache that keeps nothing. A
//!   leader that fails (panics, or is rejected by admission control)
//!   abandons the flight and waiters retry — degrading to exactly the
//!   uncached behavior, never hanging.
//!
//! Every decision is counted in the cache's own `wtq_obs` handles
//! ([`CacheMetrics`]) so serving layers can expose hit rate, collapse
//! effectiveness, evictions and resident bytes.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use wtq_obs::{Counter, Gauge, Registry};

/// Key of one cached answer.
///
/// `question` must already be normalized (the cache compares bytes) and
/// `fingerprint` must capture table contents: two tables mapping to the
/// same fingerprint are assumed to answer every question identically.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Content fingerprint of the table the question ran against.
    pub fingerprint: u64,
    /// The normalized question text.
    pub question: String,
    /// The resolved top-k the answer was computed for (a top-3 answer is
    /// not a top-7 answer).
    pub top_k: usize,
}

impl CacheKey {
    /// FNV-1a over the key's fields — used for shard selection so one hot
    /// table spreads across shards by question.
    fn shard_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        let mut write = |bytes: &[u8]| {
            for &byte in bytes {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        write(&self.fingerprint.to_le_bytes());
        write(self.question.as_bytes());
        write(&(self.top_k as u64).to_le_bytes());
        hash
    }
}

/// Tuning knobs of an [`AnswerCache`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total entries retained across all shards before LRU eviction; `0`
    /// keeps nothing (single-flight collapse still applies).
    pub capacity: usize,
    /// Shard count (clamped to `1..=capacity`, so every shard can hold an
    /// entry). More shards means less lock contention between unrelated
    /// keys.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 4096,
            shards: 8,
        }
    }
}

/// The live metric handles of one [`AnswerCache`], published as the
/// `wtq_answer_cache_*` families by [`CacheMetrics::register`]. The
/// `entries` and `bytes` gauges are the cache's own occupancy accounting.
#[derive(Debug, Default)]
pub struct CacheMetrics {
    /// Lookups answered from a live entry.
    pub hits: Arc<Counter>,
    /// Lookups that found no entry.
    pub misses: Arc<Counter>,
    /// Requests that blocked on another request's in-flight computation
    /// and received the leader's value without executing.
    pub collapsed_waiters: Arc<Counter>,
    /// Values inserted (leader computations that completed into a cache
    /// that keeps entries).
    pub insertions: Arc<Counter>,
    /// Entries evicted by the LRU capacity bound.
    pub evictions_lru: Arc<Counter>,
    /// Entries currently resident.
    pub entries: Arc<Gauge>,
    /// Bytes of resident values, each weighted by the caller at insert
    /// time.
    pub bytes: Arc<Gauge>,
}

impl CacheMetrics {
    /// Attach these handles to `registry`.
    pub fn register(&self, registry: &Registry) {
        registry.attach_labeled(
            "wtq_answer_cache_ops_total",
            "op",
            "Answer-cache lookups and insertions, by outcome",
            [
                ("hit", &self.hits),
                ("miss", &self.misses),
                ("collapsed", &self.collapsed_waiters),
                ("insertion", &self.insertions),
            ],
        );
        registry.attach_labeled(
            "wtq_answer_cache_evictions_total",
            "reason",
            "Answer-cache entries dropped, by reason",
            [("lru", &self.evictions_lru)],
        );
        registry.attach(
            "wtq_answer_cache_entries",
            "Answer-cache entries resident",
            &self.entries,
        );
        registry.attach(
            "wtq_answer_cache_bytes",
            "Answer-cache resident bytes",
            &self.bytes,
        );
    }
}

/// One resident entry: the shared value, its weight in bytes and its
/// recency stamp.
struct Entry<V> {
    value: Arc<V>,
    bytes: usize,
    last_used: u64,
}

/// One shard: the entry map plus an eviction-ordered recency index. Use
/// stamps come from the cache-wide monotonic clock, so they are unique and
/// `by_recency.iter().next()` is always the least-recently-used key —
/// eviction is O(log n) instead of the previous full-shard min-scan, and a
/// safe ordered map avoids a linked list's unsafe bookkeeping.
struct Shard<V> {
    entries: HashMap<CacheKey, Entry<V>>,
    /// `last_used` stamp → key, mirrored with `entries` under the shard
    /// lock. The first entry is the eviction victim.
    by_recency: BTreeMap<u64, CacheKey>,
    capacity: usize,
}

impl<V> Shard<V> {
    /// Remove `key` from both maps, keeping the recency index in sync.
    fn remove(&mut self, key: &CacheKey) -> Option<Entry<V>> {
        let entry = self.entries.remove(key)?;
        self.by_recency.remove(&entry.last_used);
        Some(entry)
    }
}

/// State of one in-flight computation.
enum FlightState<V> {
    /// The leader is computing.
    Pending,
    /// The leader published a value; waiters take the `Arc` and leave.
    Done(Arc<V>),
    /// The leader gave up (panicked or was rejected); waiters retry.
    Abandoned,
}

struct Flight<V> {
    state: Mutex<FlightState<V>>,
    done: Condvar,
}

/// How [`AnswerCache::begin`] resolved a key.
pub enum Begin<'a, V> {
    /// A live entry answered directly.
    Hit(Arc<V>),
    /// Another request computed the value while this one waited.
    Collapsed(Arc<V>),
    /// This request leads the computation: run it, then
    /// [`FlightGuard::complete`] (or drop the guard to abandon).
    Lead(FlightGuard<'a, V>),
}

/// Leadership of one in-flight computation. Completing publishes the value
/// to the cache and to every collapsed waiter; dropping without completing
/// abandons the flight (waiters retry), so a panicking or rejected leader
/// can never strand them.
pub struct FlightGuard<'a, V> {
    cache: &'a AnswerCache<V>,
    key: CacheKey,
    flight: Arc<Flight<V>>,
    completed: bool,
}

impl<V> FlightGuard<'_, V> {
    /// Publish the computed value: insert it into the cache (weighted at
    /// `bytes`) and hand it to every waiter. Returns the shared value.
    pub fn complete(mut self, value: V, bytes: usize) -> Arc<V> {
        let shared = self.cache.insert(&self.key, value, bytes);
        self.publish(FlightState::Done(shared.clone()));
        self.completed = true;
        shared
    }

    fn publish(&self, state: FlightState<V>) {
        {
            let mut flights = self.cache.flights.lock().expect("flight map poisoned");
            flights.remove(&self.key);
        }
        let mut slot = self.flight.state.lock().expect("flight poisoned");
        *slot = state;
        drop(slot);
        self.flight.done.notify_all();
    }
}

impl<V> Drop for FlightGuard<'_, V> {
    fn drop(&mut self) {
        if !self.completed {
            self.publish(FlightState::Abandoned);
        }
    }
}

/// The sharded, thread-safe answer cache. See the crate docs for the
/// design; all methods take `&self` and are safe to call from any thread.
pub struct AnswerCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    flights: Mutex<HashMap<CacheKey, Arc<Flight<V>>>>,
    /// Global LRU clock: monotonically increasing use stamps.
    clock: AtomicU64,
    metrics: CacheMetrics,
}

impl<V> AnswerCache<V> {
    /// A cache with the given configuration. The shards' capacities sum to
    /// exactly `config.capacity`.
    pub fn new(config: CacheConfig) -> AnswerCache<V> {
        let shards = config.shards.clamp(1, config.capacity.max(1));
        AnswerCache {
            shards: (0..shards)
                .map(|index| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        by_recency: BTreeMap::new(),
                        capacity: config.capacity / shards
                            + usize::from(index < config.capacity % shards),
                    })
                })
                .collect(),
            flights: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            metrics: CacheMetrics::default(),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard<V>> {
        let index = (key.shard_hash() % self.shards.len() as u64) as usize;
        &self.shards[index]
    }

    /// Look `key` up without joining or starting a flight. Counts a hit or
    /// a miss.
    pub fn lookup(&self, key: &CacheKey) -> Option<Arc<V>> {
        self.lookup_inner(key, true)
    }

    /// Like [`AnswerCache::lookup`], but a miss is not counted — for
    /// pre-admission probes that will be followed by [`AnswerCache::begin`],
    /// which records the request's real outcome. A hit still counts (the
    /// probe resolved the request).
    pub fn probe(&self, key: &CacheKey) -> Option<Arc<V>> {
        self.lookup_inner(key, false)
    }

    fn lookup_inner(&self, key: &CacheKey, count_miss: bool) -> Option<Arc<V>> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let Some(entry) = shard.entries.get_mut(key) else {
            if count_miss {
                self.metrics.misses.inc();
            }
            return None;
        };
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let previous_stamp = std::mem::replace(&mut entry.last_used, stamp);
        let value = entry.value.clone();
        shard.by_recency.remove(&previous_stamp);
        shard.by_recency.insert(stamp, key.clone());
        self.metrics.hits.inc();
        Some(value)
    }

    /// Resolve `key` with single-flight collapse: a live entry answers
    /// directly ([`Begin::Hit`]); while another request computes the same
    /// key, block and receive its value ([`Begin::Collapsed`]); otherwise
    /// become the leader ([`Begin::Lead`]) — compute, then
    /// [`FlightGuard::complete`]. An abandoned flight (leader panicked or
    /// was rejected) makes waiters retry from the top.
    pub fn begin(&self, key: &CacheKey) -> Begin<'_, V> {
        loop {
            if let Some(value) = self.lookup(key) {
                return Begin::Hit(value);
            }
            let flight = {
                let mut flights = self.flights.lock().expect("flight map poisoned");
                match flights.get(key) {
                    Some(flight) => flight.clone(),
                    None => {
                        // A leader may have completed between our miss
                        // above and this lock: `complete()` inserts into
                        // the cache *before* removing its flight under
                        // this mutex, so if the flight is gone the entry
                        // is visible — re-check before leading a
                        // duplicate computation.
                        if let Some(value) = self.probe(key) {
                            return Begin::Hit(value);
                        }
                        let flight = Arc::new(Flight {
                            state: Mutex::new(FlightState::Pending),
                            done: Condvar::new(),
                        });
                        flights.insert(key.clone(), flight.clone());
                        return Begin::Lead(FlightGuard {
                            cache: self,
                            key: key.clone(),
                            flight,
                            completed: false,
                        });
                    }
                }
            };
            // Wait out the leader. The flight is removed from the map
            // before its state flips, so a fresh begin() can already start
            // the next flight while late waiters drain here.
            self.metrics.collapsed_waiters.inc();
            let mut state = flight.state.lock().expect("flight poisoned");
            loop {
                match &*state {
                    FlightState::Pending => {
                        state = flight.done.wait(state).expect("flight poisoned");
                    }
                    FlightState::Done(value) => return Begin::Collapsed(value.clone()),
                    FlightState::Abandoned => break,
                }
            }
            // Leader gave up: retry (possibly becoming the new leader).
        }
    }

    /// Insert `value` under `key` (weighted at `bytes`), evicting the
    /// shard's least-recently-used entry if the shard is full. A shard of
    /// capacity 0 keeps nothing. Returns the shared value either way.
    pub fn insert(&self, key: &CacheKey, value: V, bytes: usize) -> Arc<V> {
        let shared = Arc::new(value);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        if let Some(previous) = shard.remove(key) {
            self.note_removed(&previous);
        }
        while shard.entries.len() >= shard.capacity {
            let Some((_, oldest)) = shard.by_recency.pop_first() else {
                return shared;
            };
            let removed = shard
                .entries
                .remove(&oldest)
                .expect("recency index mirrors the entries");
            self.metrics.evictions_lru.inc();
            self.note_removed(&removed);
        }
        shard.entries.insert(
            key.clone(),
            Entry {
                value: shared.clone(),
                bytes,
                last_used: stamp,
            },
        );
        shard.by_recency.insert(stamp, key.clone());
        self.metrics.insertions.inc();
        self.metrics.entries.add(1);
        self.metrics.bytes.add(bytes as i64);
        shared
    }

    fn note_removed(&self, entry: &Entry<V>) {
        self.metrics.entries.add(-1);
        self.metrics.bytes.add(-(entry.bytes as i64));
    }

    /// The cache's counters and occupancy gauges.
    pub fn metrics(&self) -> &CacheMetrics {
        &self.metrics
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.metrics.entries.get() as usize
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::time::Duration;

    fn key(fingerprint: u64, question: &str) -> CacheKey {
        CacheKey {
            fingerprint,
            question: question.to_string(),
            top_k: 7,
        }
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn cache_is_send_sync() {
        assert_send_sync::<AnswerCache<Vec<String>>>();
    }

    #[test]
    fn lookup_insert_roundtrip_counts_hits_and_misses() {
        let cache: AnswerCache<u32> = AnswerCache::new(CacheConfig::default());
        let k = key(1, "which city hosted in 2008");
        assert!(cache.lookup(&k).is_none());
        cache.insert(&k, 42, 100);
        assert_eq!(*cache.lookup(&k).expect("hit"), 42);
        let stats = cache.metrics();
        assert_eq!(stats.hits.get(), 1);
        assert_eq!(stats.misses.get(), 1);
        assert_eq!(stats.insertions.get(), 1);
        assert_eq!(stats.entries.get(), 1);
        assert_eq!(stats.bytes.get(), 100);
    }

    #[test]
    fn probe_counts_hits_but_not_misses() {
        let cache: AnswerCache<u32> = AnswerCache::new(CacheConfig::default());
        let k = key(1, "which city hosted in 2008");
        assert!(cache.probe(&k).is_none());
        assert_eq!(
            cache.metrics().misses.get(),
            0,
            "a probe miss is not counted"
        );
        cache.insert(&k, 42, 100);
        assert_eq!(*cache.probe(&k).expect("hit"), 42);
        let stats = cache.metrics();
        assert_eq!(stats.hits.get(), 1, "a probe hit resolved the request");
        assert_eq!(stats.misses.get(), 0);
    }

    #[test]
    fn distinct_top_k_distinct_questions_and_fingerprints_do_not_alias() {
        let cache: AnswerCache<u32> = AnswerCache::new(CacheConfig::default());
        cache.insert(&key(1, "q"), 1, 1);
        assert!(cache
            .lookup(&CacheKey {
                fingerprint: 1,
                question: "q".to_string(),
                top_k: 3,
            })
            .is_none());
        assert!(cache.lookup(&key(2, "q")).is_none());
        assert!(cache.lookup(&key(1, "q2")).is_none());
        assert_eq!(*cache.lookup(&key(1, "q")).expect("hit"), 1);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        // One shard of capacity 2 makes eviction order observable.
        let cache: AnswerCache<u32> = AnswerCache::new(CacheConfig {
            capacity: 2,
            shards: 1,
        });
        cache.insert(&key(1, "a"), 1, 10);
        cache.insert(&key(1, "b"), 2, 10);
        // Touch "a" so "b" is the LRU entry.
        assert!(cache.lookup(&key(1, "a")).is_some());
        cache.insert(&key(1, "c"), 3, 10);
        assert!(cache.lookup(&key(1, "b")).is_none(), "b was evicted");
        assert!(cache.lookup(&key(1, "a")).is_some());
        assert!(cache.lookup(&key(1, "c")).is_some());
        let stats = cache.metrics();
        assert_eq!(stats.evictions_lru.get(), 1);
        assert_eq!(stats.entries.get(), 2);
        assert_eq!(stats.bytes.get(), 20);
    }

    #[test]
    fn eviction_follows_recency_under_touch_and_overwrite_churn() {
        let cache: AnswerCache<u32> = AnswerCache::new(CacheConfig {
            capacity: 4,
            shards: 1,
        });
        for (i, q) in ["a", "b", "c", "d"].iter().enumerate() {
            cache.insert(&key(1, q), i as u32, 1);
        }
        // Touch "a" and "b", refresh "c" by overwriting it: "d" is the LRU.
        assert!(cache.lookup(&key(1, "a")).is_some());
        assert!(cache.lookup(&key(1, "b")).is_some());
        cache.insert(&key(1, "c"), 9, 1);
        cache.insert(&key(1, "e"), 4, 1);
        assert!(cache.lookup(&key(1, "d")).is_none(), "d was the LRU entry");
        // The survivors were all just touched; "e" is now the LRU.
        assert!(cache.lookup(&key(1, "a")).is_some());
        assert!(cache.lookup(&key(1, "b")).is_some());
        assert_eq!(*cache.lookup(&key(1, "c")).expect("refreshed"), 9);
        cache.insert(&key(1, "f"), 5, 1);
        assert!(cache.lookup(&key(1, "e")).is_none(), "e was the LRU entry");
        let stats = cache.metrics();
        assert_eq!(stats.evictions_lru.get(), 2);
        assert_eq!(stats.entries.get(), 4);
    }

    #[test]
    fn the_entry_bound_is_exactly_the_capacity() {
        for capacity in [0, 3, 4095] {
            let cache: AnswerCache<u32> = AnswerCache::new(CacheConfig {
                capacity,
                ..CacheConfig::default()
            });
            for i in 0..20_000 {
                cache.insert(&key(1, &format!("question {i}")), i, 10);
            }
            assert_eq!(cache.len(), capacity, "capacity {capacity}");
            assert_eq!(cache.metrics().bytes.get(), 10 * capacity as i64);
        }
    }

    #[test]
    fn a_zero_capacity_cache_keeps_nothing_but_still_collapses_waiters() {
        let cache: Arc<AnswerCache<u32>> = Arc::new(AnswerCache::new(CacheConfig {
            capacity: 0,
            ..CacheConfig::default()
        }));
        let k = key(1, "hot question");
        let Begin::Lead(guard) = cache.begin(&k) else {
            panic!("an empty cache leads");
        };
        let waiter = {
            let (cache, k) = (cache.clone(), k.clone());
            std::thread::spawn(move || match cache.begin(&k) {
                Begin::Collapsed(value) => *value,
                _ => panic!("the waiter joins the leader's flight"),
            })
        };
        // The waiter counts itself before it blocks on the flight.
        while cache.metrics().collapsed_waiters.get() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(*guard.complete(7, 10), 7);
        assert_eq!(waiter.join().expect("waiter clean"), 7);
        assert!(cache.is_empty());
        assert_eq!(cache.metrics().bytes.get(), 0);
        assert!(
            matches!(cache.begin(&k), Begin::Lead(_)),
            "nothing was kept"
        );
    }

    #[test]
    fn single_flight_collapses_concurrent_identical_requests() {
        let cache: Arc<AnswerCache<u32>> = Arc::new(AnswerCache::new(CacheConfig::default()));
        let executions = Arc::new(AtomicUsize::new(0));
        const THREADS: usize = 8;
        let barrier = Arc::new(Barrier::new(THREADS));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let cache = cache.clone();
            let executions = executions.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                match cache.begin(&key(1, "hot question")) {
                    Begin::Hit(value) | Begin::Collapsed(value) => *value,
                    Begin::Lead(guard) => {
                        // Slow leader: give every other thread time to pile
                        // onto the flight.
                        std::thread::sleep(Duration::from_millis(50));
                        executions.fetch_add(1, Ordering::SeqCst);
                        *guard.complete(99, 10)
                    }
                }
            }));
        }
        let results: Vec<u32> = handles
            .into_iter()
            .map(|handle| handle.join().expect("thread clean"))
            .collect();
        assert_eq!(executions.load(Ordering::SeqCst), 1, "one execution");
        assert!(results.iter().all(|&v| v == 99), "all identical results");
        let stats = cache.metrics();
        assert_eq!(stats.insertions.get(), 1);
        assert_eq!(
            stats.hits.get() + stats.collapsed_waiters.get(),
            (THREADS - 1) as u64,
            "everyone else was served without executing: {stats:?}"
        );
    }

    #[test]
    fn abandoned_flight_wakes_waiters_who_then_retry() {
        let cache: Arc<AnswerCache<u32>> = Arc::new(AnswerCache::new(CacheConfig::default()));
        let k = key(1, "q");
        // Leader abandons (simulating a panic or an admission rejection).
        let leader = match cache.begin(&k) {
            Begin::Lead(guard) => guard,
            _ => panic!("first begin must lead"),
        };
        let waiter = {
            let cache = cache.clone();
            let k = k.clone();
            std::thread::spawn(move || match cache.begin(&k) {
                Begin::Lead(guard) => *guard.complete(7, 1),
                Begin::Hit(v) | Begin::Collapsed(v) => *v,
            })
        };
        // Give the waiter time to join the flight, then abandon.
        std::thread::sleep(Duration::from_millis(30));
        drop(leader);
        assert_eq!(waiter.join().expect("waiter clean"), 7);
        assert_eq!(*cache.lookup(&k).expect("retried value cached"), 7);
    }

    #[test]
    fn insert_during_flight_is_visible_and_flight_leader_overwrites() {
        let cache: AnswerCache<u32> = AnswerCache::new(CacheConfig::default());
        let k = key(1, "q");
        let guard = match cache.begin(&k) {
            Begin::Lead(guard) => guard,
            _ => panic!("must lead"),
        };
        let shared = guard.complete(5, 2);
        assert_eq!(*shared, 5);
        match cache.begin(&k) {
            Begin::Hit(value) => assert_eq!(*value, 5),
            _ => panic!("completed flight must be a hit"),
        };
    }
}
