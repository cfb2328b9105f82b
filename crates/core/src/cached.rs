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
//!   never alias one entry, and a reloaded table naturally keys afresh;
//! * the **normalized question** ([`wtq_parser::normalize_question`]) is
//!   the exact canonical form question analysis itself parses, so
//!   trivially-variant phrasings (`"Which YEAR?"` / `"which year"`) share
//!   one entry and the cached answer is *guaranteed* byte-identical to a
//!   fresh run — the cache key cannot drift from tokenization because they
//!   are the same function.
//!
//! What is cached is the [`ExplainedCandidate`] payload — together with
//! its wire serialization, see [`CachedCandidates`] — **not** the
//! enclosing [`Explanation`]: the explanation echoes the raw (caller's)
//! question and table name, which must reflect each request verbatim, so
//! they are re-attached per request. Candidate explanation is an rng-free
//! pure function of `(question, table, model)`, which is what makes the
//! payload safely shareable.
//!
//! Concurrent identical requests collapse onto one leader's execution
//! (single-flight, [`wtq_cache::Begin`]); a table reload is propagated by
//! [`CachedEngine::invalidate_table`], which epoch-stamps the fingerprint
//! so stale entries die lazily.

use std::sync::Arc;

use wtq_cache::{AnswerCache, Begin, CacheConfig, CacheKey, FlightGuard};
use wtq_obs::Registry;
use wtq_parser::ParseSpans;
use wtq_runtime::{BatchError, CancelToken};
use wtq_table::{Catalog, Table};

use crate::engine::{Engine, ExplainRequest, Explanation};
use crate::pipeline::ExplainedCandidate;
use crate::wire;

/// The cached answer payload of one `(table contents, normalized
/// question, top_k)` triple: the explained top-k candidates *plus* their
/// wire serialization ([`wire::candidates_json`]), computed once when the
/// flight completes. A cache hit hands servers pre-encoded bytes to
/// splice straight into a response envelope — the encode-once path —
/// while the structured candidates stay available for callers that
/// inspect them. Derefs to the candidate list, so code written against
/// the pre-encode-once payload keeps working unchanged.
#[derive(Debug)]
pub struct CachedCandidates {
    candidates: Vec<ExplainedCandidate>,
    /// `serde_json` bytes of the wire `candidates` array, shared so the
    /// serving layer can hold them beyond the cache entry's lifetime.
    body: Arc<Vec<u8>>,
}

impl CachedCandidates {
    /// Explain-and-serialize once: flatten `candidates` against `table`
    /// (the table they were computed on) into their canonical JSON bytes.
    pub fn new(candidates: Vec<ExplainedCandidate>, table: &Table) -> CachedCandidates {
        let body = Arc::new(wire::candidates_json(&candidates, table));
        CachedCandidates { candidates, body }
    }

    /// The explained candidates.
    pub fn candidates(&self) -> &[ExplainedCandidate] {
        &self.candidates
    }

    /// The candidates' canonical JSON-array bytes, serialized at flight
    /// completion (see [`wire::candidates_json`]).
    pub fn body(&self) -> &Arc<Vec<u8>> {
        &self.body
    }
}

impl std::ops::Deref for CachedCandidates {
    type Target = Vec<ExplainedCandidate>;

    fn deref(&self) -> &Vec<ExplainedCandidate> {
        &self.candidates
    }
}

/// A shared cached answer (see [`CachedCandidates`]).
pub type CachedAnswer = Arc<CachedCandidates>;

/// Rough resident size of a cached answer, for the cache's byte gauge:
/// the inline struct plus its dominant heap strings and the serialized
/// body bytes.
fn approx_bytes(value: &CachedCandidates) -> usize {
    std::mem::size_of::<CachedCandidates>()
        + value.body().len()
        + value
            .candidates()
            .iter()
            .map(|c| {
                std::mem::size_of::<ExplainedCandidate>()
                    + c.utterance.len()
                    + c.sql.as_ref().map_or(0, String::len)
            })
            .sum::<usize>()
}

/// An [`Engine`] wrapped with a deduplicating answer cache — see the
/// module docs. `Send + Sync` like the engine itself; share one behind an
/// `Arc` across every serving thread. The cache counts into its own
/// handles, so two `CachedEngine`s over one engine keep separate numbers.
pub struct CachedEngine {
    engine: Arc<Engine>,
    cache: AnswerCache<CachedCandidates>,
}

impl CachedEngine {
    /// Wrap `engine` with an answer cache of the given configuration.
    pub fn new(engine: Arc<Engine>, config: CacheConfig) -> CachedEngine {
        CachedEngine {
            engine,
            cache: AnswerCache::new(config),
        }
    }

    /// Wrap `engine` with a default-configured cache of `capacity` entries.
    pub fn with_capacity(engine: Arc<Engine>, capacity: usize) -> CachedEngine {
        CachedEngine::new(
            engine,
            CacheConfig {
                capacity,
                ..CacheConfig::default()
            },
        )
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The underlying answer cache (for instrumentation and tests).
    pub fn cache(&self) -> &AnswerCache<CachedCandidates> {
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
    /// request will reach [`CachedEngine::begin`] after admission and that
    /// call records its real outcome — one stats event per request.
    pub fn probe(&self, key: &CacheKey) -> Option<CachedAnswer> {
        self.cache.probe(key)
    }

    /// Single-flight entry point for callers that interleave their own
    /// work (admission control) between leading and executing: a
    /// [`Begin::Lead`] holds the flight; complete it with the computed
    /// candidates or drop it to abandon (waiters then retry as leaders).
    pub fn begin(&self, key: &CacheKey) -> Begin<'_, CachedCandidates> {
        self.cache.begin(key)
    }

    /// Execute `question` on the wrapped engine and publish the result to
    /// `guard`'s flight. The one sanctioned leader body: every leader path
    /// (here and in serving layers) funnels through it so the executed
    /// question/top_k always match the flight's key. Also returns the
    /// leader's parse spans, for the leader's request trace.
    pub fn execute_flight(
        &self,
        guard: FlightGuard<'_, CachedCandidates>,
        question: &str,
        table: &Table,
        top_k: usize,
    ) -> (CachedAnswer, ParseSpans) {
        let (explained, spans) = self
            .engine
            .explain_question_with_spans(question, table, top_k);
        // Serialize here, exactly once per flight: every hit on this entry
        // reuses the bytes instead of re-rendering and re-encoding.
        let value = CachedCandidates::new(explained, table);
        let bytes = approx_bytes(&value);
        (guard.complete(value, bytes), spans)
    }

    /// Explain one question through the cache: a hit answers from memory,
    /// a concurrent duplicate collapses onto the in-flight leader, and a
    /// cold question executes once and populates the entry.
    pub fn explain_question(&self, question: &str, table: &Table, top_k: usize) -> CachedAnswer {
        let key = self.key_for(question, table, Some(top_k));
        match self.cache.begin(&key) {
            Begin::Hit(value) | Begin::Collapsed(value) => value,
            Begin::Lead(guard) => self.execute_flight(guard, question, table, top_k).0,
        }
    }

    /// Plan a batch against the cache: probe every item, deduplicate the
    /// misses batch-internally (two items with one key execute once) and
    /// report what still needs the engine. The serving layer sizes its
    /// admission weight from [`BatchPlan::missing`] — an all-hit batch
    /// costs no execution at all.
    pub fn plan_batch(&self, catalog: &Catalog, requests: &[ExplainRequest]) -> BatchPlan {
        let mut slots = Vec::with_capacity(requests.len());
        let mut pending: Vec<(CacheKey, usize)> = Vec::new();
        for (index, request) in requests.iter().enumerate() {
            let Some(table) = catalog.get(&request.table) else {
                slots.push(BatchSlot::UnknownTable);
                continue;
            };
            let key = self.key_for(&request.question, table, request.top_k);
            if let Some(value) = self.cache.lookup(&key) {
                slots.push(BatchSlot::Hit(value));
                continue;
            }
            let unique = match pending.iter().position(|(k, _)| *k == key) {
                Some(unique) => unique,
                None => {
                    pending.push((key, index));
                    pending.len() - 1
                }
            };
            slots.push(BatchSlot::Pending(unique));
        }
        BatchPlan { slots, pending }
    }

    /// Execute a planned batch: run the deduplicated misses on the engine
    /// (cancellably), insert their payloads, and assemble per-request
    /// explanations — each echoing its own raw question and table name, so
    /// responses are byte-identical to an uncached run.
    pub fn execute_batch(
        &self,
        plan: BatchPlan,
        catalog: &Catalog,
        requests: &[ExplainRequest],
        cancel: &CancelToken,
    ) -> Result<Vec<Explanation>, BatchError> {
        let unique_requests: Vec<ExplainRequest> = plan
            .pending
            .iter()
            .map(|&(_, index)| requests[index].clone())
            .collect();
        let computed = if unique_requests.is_empty() {
            Vec::new()
        } else {
            self.engine
                .explain_batch_cancellable(catalog, &unique_requests, cancel)?
        };
        let answers: Vec<CachedAnswer> = plan
            .pending
            .iter()
            .zip(computed)
            .map(|(&(ref key, index), explanation)| {
                let table = catalog
                    .get(&requests[index].table)
                    .expect("planned table vanished from an immutable catalog");
                let value = CachedCandidates::new(explanation.candidates, table);
                let bytes = approx_bytes(&value);
                self.cache.insert(key, value, bytes)
            })
            .collect();
        Ok(plan
            .slots
            .into_iter()
            .zip(requests)
            .map(|(slot, request)| {
                let (candidates, error) = match slot {
                    BatchSlot::Hit(value) => (value.candidates().to_vec(), None),
                    BatchSlot::Pending(unique) => (answers[unique].candidates().to_vec(), None),
                    BatchSlot::UnknownTable => (
                        Vec::new(),
                        Some(format!("unknown table: {}", request.table)),
                    ),
                };
                Explanation {
                    question: request.question.clone(),
                    table: request.table.clone(),
                    candidates,
                    error,
                }
            })
            .collect())
    }

    /// Explain a batch through the cache — plan + execute in one call.
    pub fn explain_batch_cancellable(
        &self,
        catalog: &Catalog,
        requests: &[ExplainRequest],
        cancel: &CancelToken,
    ) -> Result<Vec<Explanation>, BatchError> {
        let plan = self.plan_batch(catalog, requests);
        self.execute_batch(plan, catalog, requests, cancel)
    }

    /// [`CachedEngine::explain_batch_cancellable`] without a token.
    pub fn explain_batch(
        &self,
        catalog: &Catalog,
        requests: &[ExplainRequest],
    ) -> Vec<Explanation> {
        self.explain_batch_cancellable(catalog, requests, &CancelToken::new())
            .expect("uncancelled batch cannot be cancelled")
    }

    /// Invalidate every cached answer computed against `table`'s contents
    /// — call when a table is reloaded or re-registered. Entries die
    /// lazily on next lookup (counted as stale drops). Note that a reload
    /// that *changes* contents also changes the fingerprint, so its old
    /// entries become unreachable even without invalidation; invalidating
    /// handles the same-contents-reloaded case and frees lookups from
    /// trusting unreachable entries' memory.
    pub fn invalidate_table(&self, table: &Table) {
        self.cache.invalidate(table.content_fingerprint());
    }

    /// Invalidate by raw content fingerprint (when the table is gone).
    pub fn invalidate_fingerprint(&self, fingerprint: u64) {
        self.cache.invalidate(fingerprint);
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
    /// Needs execution: index into the plan's deduplicated pending list.
    Pending(usize),
    /// The catalog has no such table; answered with an error.
    UnknownTable,
}

/// A planned batch: per-item resolutions plus the deduplicated set of
/// cache keys that still need the engine.
pub struct BatchPlan {
    slots: Vec<BatchSlot>,
    pending: Vec<(CacheKey, usize)>,
}

impl BatchPlan {
    /// Deduplicated cache misses that will actually execute.
    pub fn missing(&self) -> usize {
        self.pending.len()
    }

    /// Whether every item resolved without execution (hits and unknown
    /// tables) — such a batch can skip execution admission entirely.
    pub fn is_fully_cached(&self) -> bool {
        self.pending.is_empty()
    }

    /// Request indices (into the planned batch) that still execute, one
    /// per deduplicated miss — serving layers derive the set of tables
    /// that need admission tokens from these.
    pub fn pending_request_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.pending.iter().map(|&(_, index)| index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtq_table::samples;

    fn cached_engine() -> CachedEngine {
        CachedEngine::with_capacity(Arc::new(Engine::new()), 256)
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
        assert_eq!(first.len(), fresh.len());
        for (a, b) in first.iter().zip(&fresh) {
            assert_eq!(a.formula, b.formula);
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
        assert_eq!(c.len(), 1);
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
        assert_eq!(table.fingerprint(), edited.fingerprint());
        let question = "Which city hosted in 2008?";
        let original = cached.explain_question(question, &table, 1);
        let changed = cached.explain_question(question, &edited, 1);
        assert_eq!(
            cached.cache().metrics().insertions.get(),
            2,
            "two distinct entries"
        );
        assert_ne!(original[0].answer, changed[0].answer);
    }

    #[test]
    fn invalidate_table_drops_its_entries_only() {
        let cached = cached_engine();
        let olympics = samples::olympics();
        let medals = samples::medals();
        cached.explain_question("Which city hosted in 2008?", &olympics, 3);
        cached.explain_question("total Gold of Fiji?", &medals, 3);
        cached.invalidate_table(&olympics);
        let key = cached.key_for("Which city hosted in 2008?", &olympics, Some(3));
        assert!(cached.lookup(&key).is_none(), "invalidated entry gone");
        let kept = cached.key_for("total Gold of Fiji?", &medals, Some(3));
        assert!(cached.lookup(&kept).is_some(), "other table unaffected");
        assert_eq!(cached.cache().metrics().stale_drops.get(), 1);
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
        assert_eq!(plan.missing(), 2, "duplicate phrasing executes once");
        assert!(!plan.is_fully_cached());
        let cancel = CancelToken::new();
        let explanations = cached
            .execute_batch(plan, &catalog, &requests, &cancel)
            .unwrap();
        let uncached = cached.engine().explain_batch(&catalog, &requests);
        assert_eq!(explanations.len(), uncached.len());
        for (a, b) in explanations.iter().zip(&uncached) {
            assert_eq!(a.question, b.question);
            assert_eq!(a.table, b.table);
            assert_eq!(a.error, b.error);
            assert_eq!(a.candidates.len(), b.candidates.len());
            for (x, y) in a.candidates.iter().zip(&b.candidates) {
                assert_eq!(x.formula, y.formula);
                assert_eq!(x.utterance, y.utterance);
                assert_eq!(x.sql, y.sql);
            }
        }
        // Replaying the same batch is now fully cached (the unknown table
        // stays an error slot, not an execution).
        let replay = cached.plan_batch(&catalog, &requests);
        assert!(replay.is_fully_cached());
        let again = cached
            .execute_batch(replay, &catalog, &requests, &cancel)
            .unwrap();
        assert_eq!(again.len(), explanations.len());
        assert!(again[3].error.as_deref().unwrap().contains("no-such-table"));
    }

    #[test]
    fn stats_carry_answer_cache_counters() {
        let engine = Arc::new(Engine::new());
        let (first, second) = (
            CachedEngine::with_capacity(engine.clone(), 16),
            CachedEngine::with_capacity(engine, 16),
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
