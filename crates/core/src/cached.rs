//! [`CachedEngine`]: an [`Engine`] behind a deduplicating answer cache.
//!
//! Question traffic over a fixed table catalog is Zipfian — a handful of
//! `(table, question)` pairs dominates qps — so the single biggest serving
//! multiplier is not re-running parse → evaluate → explain for a question
//! the engine already answered. `CachedEngine` wraps a shared [`Engine`]
//! with a [`wtq_cache::AnswerCache`] keyed by
//! `(content fingerprint, normalized question, top_k)`:
//!
//! * the **content fingerprint** ([`wtq_table::Table::content_fingerprint`])
//!   hashes cell contents, not just shape, so two different tables can
//!   never alias one entry, and a reloaded table with new cells keys
//!   afresh — no entry ever needs invalidating;
//! * the **normalized question** ([`wtq_parser::normalize_question`]) is
//!   the exact canonical form question analysis itself parses, so
//!   trivially-variant phrasings (`"Which YEAR?"` / `"which year"`) share
//!   one entry and the cached answer is *guaranteed* byte-identical to a
//!   fresh run — the cache key cannot drift from tokenization because they
//!   are the same function.
//!
//! What is cached is the candidates' encoded body, the JSON array
//! [`wire::candidates_json`] renders once when a flight completes, and
//! nothing else: serving splices it verbatim into every response, single
//! explains and batch items alike. The enclosing explanation echoes the
//! raw (caller's) question and table name, which must reflect each request
//! verbatim, so servers write those per request. Candidate explanation is
//! an rng-free pure function of `(question, table, model)`, which is what
//! makes the body safely shareable. In-process callers that want the
//! structured candidates call [`Engine::explain_question`].
//!
//! Each entry weighs exactly its body's length, so the cache's byte gauge
//! is the resident body bytes. Concurrent identical questions — single
//! explains and batch items alike — collapse onto one leader's execution
//! ([`CachedEngine::answer`], single-flight via [`wtq_cache::Begin`]), even
//! when the cache keeps nothing (`capacity` 0).

use std::sync::Arc;

use wtq_cache::{AnswerCache, Begin, CacheConfig, CacheKey, FlightGuard};
use wtq_obs::Registry;
use wtq_parser::ParseSpans;
use wtq_table::{Catalog, Table};

use crate::engine::{Engine, ExplainRequest};
use crate::wire;

/// A shared cached answer: the candidates' encoded body (see
/// [`wire::candidates_json`]).
pub type CachedAnswer = Arc<Vec<u8>>;

/// One answered batch item: its candidates body, or the error that left it
/// without candidates (a table the catalog lacks).
pub type BatchItem = Result<CachedAnswer, String>;

/// An [`Engine`] wrapped with a deduplicating answer cache — see the
/// module docs. `Send + Sync` like the engine itself; share one behind an
/// `Arc` across every serving thread. The cache counts into its own
/// handles, so two `CachedEngine`s over one engine keep separate numbers.
pub struct CachedEngine {
    engine: Arc<Engine>,
    cache: AnswerCache<Vec<u8>>,
}

impl CachedEngine {
    /// Wrap `engine` with an answer cache of the given configuration.
    pub fn new(engine: Arc<Engine>, config: CacheConfig) -> CachedEngine {
        CachedEngine {
            engine,
            cache: AnswerCache::new(config),
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The underlying answer cache (for instrumentation and tests).
    pub fn cache(&self) -> &AnswerCache<Vec<u8>> {
        &self.cache
    }

    /// The cache key of `(question, table, top_k)`: content fingerprint +
    /// the parser's own question normalization. `top_k = None` resolves to
    /// the engine's configured default, exactly as execution would.
    pub fn key_for(&self, question: &str, table: &Table, top_k: Option<usize>) -> CacheKey {
        CacheKey {
            fingerprint: table.content_fingerprint(),
            question: wtq_parser::normalize_question(question),
            top_k: top_k.unwrap_or(self.engine.config().top_k),
        }
    }

    /// Non-blocking cache lookup — never joins a flight, never executes.
    /// Counts a hit or a miss.
    pub fn lookup(&self, key: &CacheKey) -> Option<CachedAnswer> {
        self.cache.lookup(key)
    }

    /// The serving layer's pre-admission fast path: like
    /// [`CachedEngine::lookup`] but a miss is not counted, because the
    /// question will reach [`CachedEngine::answer`] after admission and
    /// that call records its real outcome — one stats event per question.
    pub fn probe(&self, key: &CacheKey) -> Option<CachedAnswer> {
        self.cache.probe(key)
    }

    /// Execute `question` on the wrapped engine and publish the result to
    /// `guard`'s flight, returning the leader's parse spans too. Every
    /// leader funnels through [`CachedEngine::answer`] to here, so the
    /// executed question and top-k always match the flight's key.
    fn execute_flight(
        &self,
        guard: FlightGuard<'_, Vec<u8>>,
        question: &str,
        table: &Table,
        top_k: usize,
    ) -> (CachedAnswer, ParseSpans) {
        let (explained, spans) = self
            .engine
            .explain_question_with_spans(question, table, top_k);
        // Serialize here, exactly once per flight: every hit on this entry
        // reuses the bytes instead of re-rendering and re-encoding.
        let body = wire::candidates_json(&explained, table);
        let bytes = body.len();
        (guard.complete(body, bytes), spans)
    }

    /// Answer one question through the cache, counting one cache outcome:
    /// a hit answers from memory, a concurrent duplicate collapses onto the
    /// running leader's flight, and otherwise this call leads — it executes
    /// the question once and publishes the body to the cache and to every
    /// waiter. A leader also gets its parse's stage spans (what a serving
    /// layer attaches to the leader's request trace). `key` must be
    /// [`CachedEngine::key_for`] of `question` and `table`; its `top_k` is
    /// the one executed. A leader that panics abandons its flight, so
    /// waiters retry as leaders instead of hanging.
    pub fn answer(
        &self,
        key: &CacheKey,
        question: &str,
        table: &Table,
    ) -> (CachedAnswer, Option<ParseSpans>) {
        match self.cache.begin(key) {
            Begin::Hit(value) | Begin::Collapsed(value) => (value, None),
            Begin::Lead(guard) => {
                let (value, spans) = self.execute_flight(guard, question, table, key.top_k);
                (value, Some(spans))
            }
        }
    }

    /// Explain one question through the cache ([`CachedEngine::answer`]
    /// under the question's own key).
    pub fn explain_question(&self, question: &str, table: &Table, top_k: usize) -> CachedAnswer {
        let key = self.key_for(question, table, Some(top_k));
        self.answer(&key, question, table).0
    }

    /// Plan a batch against the cache: probe every item, deduplicate the
    /// misses batch-internally (two items with one key execute once) and
    /// report what still needs the engine ([`BatchPlan::misses`]). Probing
    /// counts only hits; each miss records its outcome when
    /// [`CachedEngine::answer`] resolves it. An all-hit batch costs no
    /// execution at all.
    pub fn plan_batch(&self, catalog: &Catalog, requests: &[ExplainRequest]) -> BatchPlan {
        let mut slots = Vec::with_capacity(requests.len());
        let mut misses: Vec<(CacheKey, usize)> = Vec::new();
        for (index, request) in requests.iter().enumerate() {
            let Some(table) = catalog.get(&request.table) else {
                slots.push(BatchSlot::UnknownTable);
                continue;
            };
            let key = self.key_for(&request.question, table, request.top_k);
            if let Some(value) = self.cache.probe(&key) {
                slots.push(BatchSlot::Hit(value));
                continue;
            }
            let unique = match misses.iter().position(|(k, _)| *k == key) {
                Some(unique) => unique,
                None => {
                    misses.push((key, index));
                    misses.len() - 1
                }
            };
            slots.push(BatchSlot::Miss(unique));
        }
        BatchPlan { slots, misses }
    }

    /// Answer a planned batch in request order: each request gets its body
    /// — a plan-time hit's, or for a miss its entry of `answers`, one body
    /// per [`BatchPlan::misses`] entry in that order — or the error that
    /// left it without candidates. Servers splice each body behind the
    /// request's own question and table echoes, so responses are
    /// byte-identical to an uncached run. A batch with misses counts once
    /// in the engine's [`batches_served`](crate::EngineMetrics::batches_served).
    pub fn finish_batch(
        &self,
        plan: &BatchPlan,
        requests: &[ExplainRequest],
        answers: Vec<CachedAnswer>,
    ) -> Vec<BatchItem> {
        assert_eq!(answers.len(), plan.misses.len(), "one answer per miss");
        if !answers.is_empty() {
            self.engine.metrics().batches_served.inc();
        }
        (plan.slots.iter())
            .zip(requests)
            .map(|(slot, request)| match slot {
                BatchSlot::Hit(body) => Ok(Arc::clone(body)),
                BatchSlot::Miss(unique) => Ok(Arc::clone(&answers[*unique])),
                BatchSlot::UnknownTable => Err(format!("unknown table: {}", request.table)),
            })
            .collect()
    }

    /// Attach the answer cache's handles to `registry` (the wrapped
    /// engine registers its own via [`Engine::register`]).
    pub fn register(&self, registry: &Registry) {
        self.cache.metrics().register(registry);
    }
}

/// How one batch item will be answered (see [`CachedEngine::plan_batch`]).
enum BatchSlot {
    /// Answered from the cache at plan time.
    Hit(CachedAnswer),
    /// Needs execution: index into the plan's deduplicated misses.
    Miss(usize),
    /// The catalog has no such table; answered with an error.
    UnknownTable,
}

/// A planned batch: per-item resolutions plus the deduplicated set of
/// cache keys that still need the engine.
pub struct BatchPlan {
    slots: Vec<BatchSlot>,
    misses: Vec<(CacheKey, usize)>,
}

impl BatchPlan {
    /// Whether every item resolved without execution (hits and unknown
    /// tables) — such a batch can skip execution admission entirely.
    pub fn is_fully_cached(&self) -> bool {
        self.misses.is_empty()
    }

    /// The deduplicated misses in first-appearance order: each one's cache
    /// key and the index (into the planned batch) of the first request
    /// that asked it. Answer each and hand the bodies to
    /// [`CachedEngine::finish_batch`] in this order.
    pub fn misses(&self) -> &[(CacheKey, usize)] {
        &self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{candidates_json, WireCandidate};
    use wtq_table::samples;

    fn cached_engine() -> CachedEngine {
        let config = CacheConfig {
            capacity: 256,
            ..CacheConfig::default()
        };
        CachedEngine::new(Arc::new(Engine::new()), config)
    }

    /// The candidates a cached body encodes.
    fn decode(body: &[u8]) -> Vec<WireCandidate> {
        let text = std::str::from_utf8(body).expect("bodies are UTF-8 JSON");
        serde_json::from_str(text).expect("bodies decode as wire candidates")
    }

    #[test]
    fn cached_engine_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CachedEngine>();
    }

    #[test]
    fn repeat_question_hits_and_matches_fresh_execution() {
        let cached = cached_engine();
        let table = samples::olympics();
        let question = "Greece held its last Olympics in what year?";
        let first = cached.explain_question(question, &table, 7);
        let second = cached.explain_question(question, &table, 7);
        assert!(
            Arc::ptr_eq(&first, &second),
            "second answer is the cached Arc"
        );
        let fresh = cached.engine().explain_question(question, &table, 7);
        assert_eq!(*first, candidates_json(&fresh, &table));
        let decoded = decode(&first);
        assert_eq!(decoded.len(), fresh.len());
        for (a, b) in decoded.iter().zip(&fresh) {
            assert_eq!(a.formula, b.formula.to_string());
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            assert_eq!(a.answer, b.answer);
            assert_eq!(a.utterance, b.utterance);
            assert_eq!(a.sql, b.sql);
        }
        let metrics = cached.cache().metrics();
        assert_eq!(metrics.hits.get(), 1);
        assert_eq!(metrics.insertions.get(), 1);
    }

    #[test]
    fn variant_phrasings_share_one_entry() {
        let cached = cached_engine();
        let table = samples::olympics();
        let a = cached.explain_question("Which city hosted in 2008?", &table, 3);
        let b = cached.explain_question("  which CITY hosted in 2008  ", &table, 3);
        assert!(Arc::ptr_eq(&a, &b), "normalized variants share the entry");
        assert_eq!(cached.cache().metrics().insertions.get(), 1);
        // A different top_k is a different answer.
        let c = cached.explain_question("Which city hosted in 2008?", &table, 1);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(decode(&c).len(), 1);
    }

    #[test]
    fn distinct_contents_never_alias_even_with_equal_shape() {
        let cached = cached_engine();
        let table = samples::olympics();
        // Same shape (headers, types, record count), one cell different.
        let edited = Table::from_rows(
            "olympics",
            &["Year", "Country", "City"],
            &[
                vec!["1896", "Greece", "Athens"],
                vec!["1900", "France", "Paris"],
                vec!["1904", "USA", "St. Louis"],
                vec!["1908", "UK", "London"],
                vec!["2000", "Australia", "Sydney"],
                vec!["2004", "Greece", "Athens"],
                vec!["2008", "China", "Shanghai"],
                vec!["2012", "UK", "London"],
                vec!["2016", "Brazil", "Rio de Janeiro"],
            ],
        )
        .unwrap();
        assert_eq!(table.columns(), edited.columns());
        assert_eq!(table.num_records(), edited.num_records());
        let question = "Which city hosted in 2008?";
        let original = cached.explain_question(question, &table, 1);
        let changed = cached.explain_question(question, &edited, 1);
        assert_eq!(
            cached.cache().metrics().insertions.get(),
            2,
            "two distinct entries"
        );
        assert_ne!(decode(&original)[0].answer, decode(&changed)[0].answer);
    }

    #[test]
    fn the_byte_gauge_is_the_resident_body_bytes() {
        // One shard of two entries makes the LRU victim observable.
        let config = CacheConfig {
            capacity: 2,
            shards: 1,
        };
        let cached = CachedEngine::new(Arc::new(Engine::new()), config);
        let registry = Registry::new();
        cached.register(&registry);
        let (olympics, medals) = (samples::olympics(), samples::medals());
        let city = ("Which city hosted in 2008?", &olympics);
        let greece = ("Greece held its last Olympics in what year?", &olympics);
        let fiji = ("total Gold of Fiji?", &medals);
        // The model of what is resident: each entry's key and body.
        let mut resident: Vec<(CacheKey, CachedAnswer)> = Vec::new();
        let explain = |(question, table): (&str, &Table)| {
            let body = cached.explain_question(question, table, 3);
            (cached.key_for(question, table, Some(3)), body)
        };
        let check = |resident: &[(CacheKey, CachedAnswer)], step: &str| {
            let gauge = |series: &str| {
                let samples = registry.samples();
                let sample = samples.iter().find(|sample| sample.series == series);
                sample.expect("the family is registered").value
            };
            let bytes: usize = resident.iter().map(|(_, body)| body.len()).sum();
            assert_eq!(gauge("wtq_answer_cache_bytes"), bytes as f64, "{step}");
            assert_eq!(
                gauge("wtq_answer_cache_entries"),
                resident.len() as f64,
                "{step}"
            );
        };

        resident.push(explain(city));
        check(&resident, "miss");
        explain(city);
        check(&resident, "hit");
        resident.push(explain(greece));
        check(&resident, "second miss");
        // The city question was used before the Greece one was inserted,
        // so it is the least recently used.
        resident.remove(0);
        resident.push(explain(fiji));
        check(&resident, "LRU eviction");
        assert_eq!(cached.cache().metrics().evictions_lru.get(), 1);
    }

    #[test]
    fn batch_plan_dedupes_and_batch_matches_uncached() {
        let cached = cached_engine();
        let catalog: Catalog = [samples::olympics(), samples::medals()]
            .into_iter()
            .collect();
        let requests = vec![
            ExplainRequest::new("Which city hosted in 2008?", "olympics"),
            ExplainRequest::new("which city hosted in 2008", "olympics"),
            ExplainRequest::new("total Gold of Fiji?", "medals"),
            ExplainRequest::new("anything", "no-such-table"),
        ];
        let plan = cached.plan_batch(&catalog, &requests);
        assert_eq!(plan.misses().len(), 2, "duplicate phrasing executes once");
        assert!(!plan.is_fully_cached());
        // Answer every miss and finish the batch, as a server's jobs do.
        let answers = (plan.misses().iter())
            .map(|(key, index)| {
                let request = &requests[*index];
                let table = catalog.get(&request.table).expect("a miss has a table");
                cached.answer(key, &request.question, table).0
            })
            .collect();
        let items = cached.finish_batch(&plan, &requests, answers);
        // One cache outcome per executed question: the probes counted no
        // misses, `answer` counted one per deduplicated miss.
        let metrics = cached.cache().metrics();
        assert_eq!((metrics.misses.get(), metrics.hits.get()), (2, 0));
        assert_eq!(cached.engine().metrics().batches_served.get(), 1);
        let uncached = cached.engine().explain_batch(&catalog, &requests);
        assert_eq!(items.len(), uncached.len());
        for (item, explanation) in items.iter().zip(&uncached) {
            match (item, catalog.get(&explanation.table)) {
                (Ok(body), Some(table)) => {
                    assert_eq!(**body, candidates_json(&explanation.candidates, table));
                    assert!(explanation.error.is_none());
                }
                (Err(error), None) => assert_eq!(Some(error), explanation.error.as_ref()),
                (item, _) => panic!("{item:?} for {explanation:?}"),
            }
        }
        // Replaying the same batch is now fully cached (the unknown table
        // stays an error slot, not an execution) and counts no batch.
        let served = cached.engine().metrics().batches_served.get();
        let replay = cached.plan_batch(&catalog, &requests);
        assert!(replay.is_fully_cached());
        let again = cached.finish_batch(&replay, &requests, Vec::new());
        assert_eq!(again, items);
        assert!(again[3].as_ref().unwrap_err().contains("no-such-table"));
        assert_eq!(cached.engine().metrics().batches_served.get(), served);
    }

    #[test]
    fn stats_carry_answer_cache_counters() {
        let engine = Arc::new(Engine::new());
        let config = CacheConfig {
            capacity: 16,
            ..CacheConfig::default()
        };
        let (first, second) = (
            CachedEngine::new(engine.clone(), config.clone()),
            CachedEngine::new(engine, config),
        );
        let table = samples::olympics();
        first.explain_question("Which city hosted in 2008?", &table, 3);
        first.explain_question("Which city hosted in 2008?", &table, 3);
        let registry = Registry::new();
        first.register(&registry);
        let text = registry.render();
        assert!(text.contains("wtq_answer_cache_ops_total{op=\"hit\"} 1\n"));
        assert!(text.contains("wtq_answer_cache_ops_total{op=\"insertion\"} 1\n"));
        assert!(text.contains("wtq_answer_cache_entries 1\n"));
        // A second cache over the same engine counts only its own ops.
        assert_eq!(second.cache().metrics().insertions.get(), 0);
        assert_eq!(first.engine().metrics().questions_served.get(), 1);
    }
}
