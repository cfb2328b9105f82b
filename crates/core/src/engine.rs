//! The two-tier serving architecture: a shared [`Engine`] and per-request
//! [`Session`]s.
//!
//! The paper's system is a *serving* workload — a user asks a question over
//! a table and interactively inspects the explanations — so the pipeline is
//! split along the axis of sharing:
//!
//! * [`Engine`] is the immutable, `Send + Sync` tier: the trained
//!   [`SemanticParser`] (model weights + lexicon/candidate configuration)
//!   and the engine's metric handles. It holds no per-table state: each
//!   table owns its columnar index ([`Table::index`]). One `Engine` lives
//!   behind an `Arc` (or a `&'static`) and is shared by every worker
//!   thread; nothing in it mutates under `&self` but its counters.
//! * [`Session`] is the cheap per-request tier: a lambda DCS evaluator
//!   session holding the cross-candidate denotation memos for one table.
//!   Sessions are deliberately **not** `Sync` (the memo table is a
//!   `RefCell`) — each request owns one and drops it at the end, so there
//!   is no cross-request invalidation protocol at all.
//!
//! On top of the split sits an offline batch entry point
//! ([`Engine::explain_batch`], built on [`wtq_runtime::run_batch`]):
//! requests fan out over scoped `std::thread` workers pulling from a shared
//! queue, and results come back **in input order**, byte-identical to what
//! the sequential path produces — parsing and explanation are rng-free pure
//! functions of `(question, table, model)`, so scheduling cannot leak into
//! the output. Servers do not fan out: they run a batch's questions as
//! jobs on their own scheduler, one [`Engine::explain_question_with_spans`]
//! each.
//!
//! Each engine owns its metric handles ([`EngineMetrics`]): two engines in
//! one process never mix their numbers, and [`Engine::register`] attaches
//! the live handles to a serving layer's registry.

use wtq_dcs::{Evaluator, Formula};
use wtq_obs::{Counter, Gauge, Histogram, Registry};
use wtq_parser::{Candidate, ParseSpans, SemanticParser};
use wtq_table::{Catalog, Table, TableIndex};

use std::sync::Arc;

use crate::pipeline::ExplainedCandidate;

/// Configuration of an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Default number of candidates explained per question (the paper's
    /// k = 7), used when a request does not specify its own.
    pub top_k: usize,
    /// Default worker count for [`Engine::explain_batch`].
    pub workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            top_k: 7,
            workers: wtq_runtime::default_workers(),
        }
    }
}

/// One question to explain, addressed to a table by catalog name: an item
/// of [`Engine::explain_batch`], and the body of a served explain request
/// (`wtq_server::ExplainBody`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ExplainRequest {
    /// The natural-language question.
    pub question: String,
    /// Name of the table in the catalog the request runs against.
    pub table: String,
    /// Candidates to explain; `None` uses the engine's default `top_k`.
    pub top_k: Option<usize>,
}

impl ExplainRequest {
    /// A request with the engine's default `top_k`.
    pub fn new(question: impl Into<String>, table: impl Into<String>) -> Self {
        ExplainRequest {
            question: question.into(),
            table: table.into(),
            top_k: None,
        }
    }
}

/// The explained candidates of one batch request, in rank order.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The question asked.
    pub question: String,
    /// The table name it was asked against.
    pub table: String,
    /// The explained top-k candidates (empty when the table is unknown).
    pub candidates: Vec<ExplainedCandidate>,
    /// Why the request produced no candidates, when it failed outright
    /// (currently only: the catalog has no table of that name).
    pub error: Option<String>,
}

/// The serving counters and parse-stage timings of one [`Engine`],
/// published as the `wtq_engine_*` and `wtq_parse_*` families by
/// [`Engine::register`]. Every parse a [`Session`] runs is recorded here —
/// single questions and batch items alike.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Questions answered through the engine's entry points
    /// ([`Engine::explain_question`] and the batch paths).
    pub questions_served: Arc<Counter>,
    /// Batches answered: every [`Engine::explain_batch`] call, and every
    /// served batch that had questions to execute
    /// ([`CachedEngine::finish_batch`](crate::CachedEngine::finish_batch)
    /// with misses). A batch answered wholly from the cache counts none.
    pub batches_served: Arc<Counter>,
    /// Engine entry-point calls currently executing.
    pub in_flight: Arc<Gauge>,
    /// Per-question parse time per stage, in [`ParseSpans::STAGES`] order:
    /// each stage's count is the questions parsed, its sum their time.
    pub parse_stage_duration: [Arc<Histogram>; 6],
}

impl EngineMetrics {
    /// Record one parse's stage spans.
    fn record_parse(&self, spans: &ParseSpans) {
        for (histogram, ns) in self.parse_stage_duration.iter().zip(spans.stages()) {
            histogram.observe(ns);
        }
    }
}

/// RAII in-flight marker: increments on entry, decrements on drop (panic
/// included, so a panicking request never leaks an in-flight count).
struct InFlightGuard<'a>(&'a Gauge);

impl<'a> InFlightGuard<'a> {
    fn enter(gauge: &'a Gauge) -> Self {
        gauge.add(1);
        InFlightGuard(gauge)
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

/// The shared, immutable tier of the pipeline: trained parser + lexicon and
/// candidate configuration. `Send + Sync` by construction (a compile-time
/// test in this module enforces it), so one engine serves any number of
/// concurrent sessions:
///
/// ```
/// use wtq_core::{Engine, ExplainRequest};
/// use wtq_table::{samples, Catalog};
///
/// let engine = Engine::new();
/// let catalog: Catalog = [samples::olympics(), samples::medals()].into_iter().collect();
/// let requests = vec![
///     ExplainRequest::new("Greece held its last Olympics in what year?", "olympics"),
///     ExplainRequest::new("What is the difference in Total between Fiji and Tonga?", "medals"),
/// ];
/// let explanations = engine.explain_batch(&catalog, &requests);
/// assert_eq!(explanations.len(), 2);
/// assert!(!explanations[0].candidates.is_empty());
/// ```
#[derive(Debug)]
pub struct Engine {
    parser: SemanticParser,
    config: EngineConfig,
    metrics: EngineMetrics,
}

impl Default for Engine {
    /// An engine around the baseline (prior-weighted) parser.
    fn default() -> Self {
        Engine::new()
    }
}

impl Clone for Engine {
    /// Clones the model and configuration; the clone's metrics start at
    /// zero.
    fn clone(&self) -> Self {
        Engine::with_config(self.parser.clone(), self.config.clone())
    }
}

impl Engine {
    /// An engine around the baseline (prior-weighted) parser.
    pub fn new() -> Self {
        Engine::with_parser(SemanticParser::with_prior())
    }

    /// An engine around an already-trained parser.
    pub fn with_parser(parser: SemanticParser) -> Self {
        Engine::with_config(parser, EngineConfig::default())
    }

    /// An engine with explicit configuration.
    pub fn with_config(parser: SemanticParser, config: EngineConfig) -> Self {
        Engine {
            parser,
            config,
            metrics: EngineMetrics::default(),
        }
    }

    /// The engine's serving counters and parse-stage timings.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Attach every handle this engine owns — its [`EngineMetrics`] — to
    /// `registry`.
    pub fn register(&self, registry: &Registry) {
        let metrics = &self.metrics;
        registry.attach(
            "wtq_engine_questions_served_total",
            "Questions answered by the engine",
            &metrics.questions_served,
        );
        registry.attach(
            "wtq_engine_batches_served_total",
            "Batch calls answered by the engine",
            &metrics.batches_served,
        );
        registry.attach(
            "wtq_engine_in_flight",
            "Engine entry points currently executing",
            &metrics.in_flight,
        );
        registry.attach_labeled(
            "wtq_parse_stage_duration_seconds",
            "stage",
            "Per-question parse-stage latency",
            ParseSpans::STAGES
                .into_iter()
                .zip(&metrics.parse_stage_duration),
        );
    }

    /// The shared semantic parser.
    pub fn parser(&self) -> &SemanticParser {
        &self.parser
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The columnar index of `table` ([`Table::index`]: the table's own,
    /// built on first use).
    pub fn index_for<'t>(&self, table: &'t Table) -> &'t TableIndex {
        table.index()
    }

    /// Open a per-request [`Session`] on `table`. Cheap: the session
    /// borrows the table's own index; only the (empty) denotation memo
    /// table is allocated per session.
    pub fn session<'a>(&'a self, table: &'a Table) -> Session<'a> {
        Session {
            parser: &self.parser,
            metrics: &self.metrics,
            evaluator: Evaluator::new(table),
            scratch: std::cell::RefCell::new(wtq_parser::ScratchSpace::new()),
        }
    }

    /// Parse and explain one question — the single-question serving path,
    /// equivalent to a one-request batch.
    pub fn explain_question(
        &self,
        question: &str,
        table: &Table,
        top_k: usize,
    ) -> Vec<ExplainedCandidate> {
        self.explain_question_with_spans(question, table, top_k).0
    }

    /// [`Engine::explain_question`], also returning the parse's stage spans
    /// (what a serving layer attaches to a sampled request trace).
    pub fn explain_question_with_spans(
        &self,
        question: &str,
        table: &Table,
        top_k: usize,
    ) -> (Vec<ExplainedCandidate>, ParseSpans) {
        let _in_flight = InFlightGuard::enter(&self.metrics.in_flight);
        let session = self.session(table);
        let explained = session.explain_question(question, top_k);
        self.metrics.questions_served.inc();
        let spans = session.scratch.borrow().spans();
        (explained, spans)
    }

    /// Explain a single, already-known formula (used when a query is written
    /// by hand rather than parsed from a question).
    pub fn explain_formula(
        &self,
        formula: &Formula,
        table: &Table,
    ) -> wtq_dcs::Result<ExplainedCandidate> {
        self.session(table).explain_formula(formula)
    }

    /// Explain a batch of requests on the engine's configured worker pool.
    /// Results are returned in request order and are byte-identical to
    /// explaining each request sequentially — see [`Engine::explain_batch_with`].
    pub fn explain_batch(
        &self,
        catalog: &Catalog,
        requests: &[ExplainRequest],
    ) -> Vec<Explanation> {
        self.explain_batch_with(self.config.workers, catalog, requests)
    }

    /// [`Engine::explain_batch`] with an explicit worker count. Each worker
    /// opens one [`Session`] per request against the shared engine; because
    /// parsing and explaining are pure functions of the request and the
    /// immutable model/table, the output does not depend on `workers`.
    pub fn explain_batch_with(
        &self,
        workers: usize,
        catalog: &Catalog,
        requests: &[ExplainRequest],
    ) -> Vec<Explanation> {
        let _in_flight = InFlightGuard::enter(&self.metrics.in_flight);
        let explanations =
            wtq_runtime::run_batch(workers, requests.iter().collect(), |_, request| {
                self.explain_one(catalog, request)
            });
        self.metrics.batches_served.inc();
        self.metrics.questions_served.add(requests.len() as u64);
        explanations
    }

    /// Answer one batch request.
    fn explain_one(&self, catalog: &Catalog, request: &ExplainRequest) -> Explanation {
        let Some(table) = catalog.get(&request.table) else {
            return Explanation {
                question: request.question.clone(),
                table: request.table.clone(),
                candidates: Vec::new(),
                error: Some(format!("unknown table: {}", request.table)),
            };
        };
        let top_k = request.top_k.unwrap_or(self.config.top_k);
        Explanation {
            question: request.question.clone(),
            table: request.table.clone(),
            candidates: self
                .session(table)
                .explain_question(&request.question, top_k),
            error: None,
        }
    }
}

/// The per-request tier: one evaluator session (with its cross-candidate
/// denotation memos) bound to one table, borrowing the shared [`Engine`]
/// state. Intentionally not `Sync` — a session belongs to exactly one
/// request/thread and dies with it.
pub struct Session<'a> {
    parser: &'a SemanticParser,
    /// The engine's handles every parse of this session is recorded into.
    metrics: &'a EngineMetrics,
    evaluator: Evaluator<'a>,
    /// Reusable parse working buffers — allocated once per session, reused
    /// by every question it answers (another reason sessions are not `Sync`).
    scratch: std::cell::RefCell<wtq_parser::ScratchSpace>,
}

impl<'a> Session<'a> {
    /// The table this session answers questions about.
    pub fn table(&self) -> &Table {
        self.evaluator.table()
    }

    /// The underlying evaluator session (exposed for advanced callers that
    /// evaluate formulas directly against the warm denotation cache).
    pub fn evaluator(&self) -> &Evaluator<'a> {
        &self.evaluator
    }

    /// `(hits, misses)` of this session's denotation memo table.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.evaluator.cache_stats()
    }

    /// Parse a question into ranked candidates, sharing this session's
    /// index and denotation memos, and record the parse's stage spans into
    /// the engine's metrics.
    pub fn parse(&self, question: &str) -> Vec<Candidate> {
        self.parse_top_k(question, usize::MAX)
    }

    /// [`Session::parse`] for the `k` best candidates only (see
    /// [`SemanticParser::parse_top_k_in_session`]).
    pub fn parse_top_k(&self, question: &str, k: usize) -> Vec<Candidate> {
        let mut scratch = self.scratch.borrow_mut();
        let candidates =
            self.parser
                .parse_top_k_in_session(question, &self.evaluator, &mut scratch, k);
        self.metrics.record_parse(&scratch.spans());
        candidates
    }

    /// Parse `question` and explain the top-k candidates (utterance, SQL
    /// rendering and provenance highlights for each). The parse ranks only
    /// as far as the top k need. The highlights are computed on this
    /// session's evaluator, reusing the table's index and the denotation
    /// memo the parse warmed.
    pub fn explain_question(&self, question: &str, top_k: usize) -> Vec<ExplainedCandidate> {
        self.parse_top_k(question, top_k)
            .into_iter()
            .filter_map(|candidate| ExplainedCandidate::from_candidate(candidate, &self.evaluator))
            .collect()
    }

    /// Explain a single, already-known formula, evaluating it on this
    /// session's evaluator.
    pub fn explain_formula(&self, formula: &Formula) -> wtq_dcs::Result<ExplainedCandidate> {
        ExplainedCandidate::from_formula(formula, &self.evaluator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtq_dcs::{parse_formula, Answer};
    use wtq_table::samples;

    /// The compile-time thread-safety contract of the shared tier: `Engine`
    /// (and the request/response types that cross worker threads) must be
    /// `Send + Sync`. A `Session` deliberately is not.
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn engine_is_send_sync() {
        assert_send_sync::<Engine>();
        assert_send_sync::<EngineConfig>();
        assert_send_sync::<ExplainRequest>();
        assert_send_sync::<Explanation>();
    }

    #[test]
    fn engine_explains_like_the_pipeline() {
        let engine = Engine::new();
        let table = samples::olympics();
        let explained =
            engine.explain_question("Greece held its last Olympics in what year?", &table, 7);
        assert!(!explained.is_empty());
        let gold = parse_formula("max(R[Year].Country.Greece)").unwrap();
        let gold_candidate = explained
            .iter()
            .find(|c| wtq_parser::formulas_equivalent(&c.formula, &gold))
            .expect("gold candidate explained");
        assert_eq!(gold_candidate.answer, Answer::number(2004.0));
        // A later question's session borrows the index the first one built.
        let first: *const TableIndex = engine.session(&table).evaluator().index();
        engine.explain_question("In what year did France hold the Olympics?", &table, 3);
        let later = engine.session(&table);
        assert!(std::ptr::eq(first, later.evaluator().index()));
        assert!(std::ptr::eq(first, engine.index_for(&table)));
    }

    #[test]
    fn session_shares_denotation_memos_across_questions() {
        let engine = Engine::new();
        let table = samples::olympics();
        let session = engine.session(&table);
        let first = session.parse("Greece held its last Olympics in what year?");
        assert!(!first.is_empty());
        let (_, misses_after_first) = session.cache_stats();
        let again = session.parse("Greece held its last Olympics in what year?");
        assert_eq!(first.len(), again.len());
        let (hits, misses) = session.cache_stats();
        // The repeat question re-used memoized record denotations instead of
        // re-evaluating them.
        assert_eq!(misses, misses_after_first);
        assert!(hits > 0);
    }

    #[test]
    fn batch_results_are_input_ordered_and_match_sequential() {
        let engine = Engine::new();
        let catalog: Catalog = [samples::olympics(), samples::medals()]
            .into_iter()
            .collect();
        let requests = vec![
            ExplainRequest::new("Greece held its last Olympics in what year?", "olympics"),
            ExplainRequest::new(
                "What is the difference in Total between Fiji and Tonga?",
                "medals",
            ),
            ExplainRequest::new("Which city hosted in 2008?", "olympics"),
            ExplainRequest::new("total Gold of Fiji?", "medals"),
        ];
        let parallel = engine.explain_batch_with(4, &catalog, &requests);
        let sequential = engine.explain_batch_with(1, &catalog, &requests);
        assert_eq!(parallel.len(), requests.len());
        for ((parallel, sequential), request) in parallel.iter().zip(&sequential).zip(&requests) {
            assert_eq!(parallel.question, request.question);
            assert_eq!(parallel.table, request.table);
            assert_eq!(parallel.candidates.len(), sequential.candidates.len());
            for (a, b) in parallel.candidates.iter().zip(&sequential.candidates) {
                assert_eq!(a.formula, b.formula);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!(a.utterance, b.utterance);
                assert_eq!(a.sql, b.sql);
            }
        }
    }

    #[test]
    fn unknown_table_reports_an_error_instead_of_panicking() {
        let engine = Engine::new();
        let catalog: Catalog = [samples::olympics()].into_iter().collect();
        let requests = vec![
            ExplainRequest::new("anything", "no-such-table"),
            ExplainRequest::new("Which city hosted in 2008?", "olympics"),
        ];
        let explanations = engine.explain_batch(&catalog, &requests);
        assert!(explanations[0]
            .error
            .as_deref()
            .unwrap()
            .contains("no-such-table"));
        assert!(explanations[0].candidates.is_empty());
        assert!(explanations[1].error.is_none());
        assert!(!explanations[1].candidates.is_empty());
    }

    #[test]
    fn per_request_top_k_overrides_the_default() {
        let engine = Engine::new();
        let catalog: Catalog = [samples::olympics()].into_iter().collect();
        let mut request = ExplainRequest::new("Which city hosted in 2008?", "olympics");
        request.top_k = Some(1);
        let explanations = engine.explain_batch(&catalog, &[request]);
        assert_eq!(explanations[0].candidates.len(), 1);
    }

    #[test]
    fn stats_snapshot_tracks_cache_and_serving_counters() {
        let engine = Engine::new();
        let table = samples::olympics();
        // The catalog holds a clone, which shares the table's index.
        let catalog: Catalog = [table.clone()].into_iter().collect();
        let metrics = engine.metrics();
        assert_eq!(metrics.questions_served.get(), 0);

        engine.explain_question("Which city hosted in 2008?", &table, 1);
        let first: *const TableIndex = engine.session(&table).evaluator().index();
        engine.explain_batch(
            &catalog,
            &[
                ExplainRequest::new("Which city hosted in 2008?", "olympics"),
                ExplainRequest::new("In what year did France hold the Olympics?", "olympics"),
            ],
        );
        assert_eq!(metrics.questions_served.get(), 3);
        assert_eq!(metrics.batches_served.get(), 1);
        assert_eq!(metrics.in_flight.get(), 0);
        // The batch's sessions borrowed the index the first question built.
        let in_catalog = catalog.get("olympics").unwrap();
        assert!(std::ptr::eq(
            first,
            engine.session(in_catalog).evaluator().index()
        ));
        // Every parse is timed in every stage, batch items included.
        for stage in &metrics.parse_stage_duration {
            assert_eq!(stage.snapshot().count, 3);
        }

        // Registering exposes the same live handles.
        let registry = Registry::new();
        engine.register(&registry);
        let text = registry.render();
        assert!(text.contains("wtq_engine_questions_served_total 3\n"));
    }

    #[test]
    fn cloned_engines_share_nothing_but_the_model() {
        let engine = Engine::new();
        let table = samples::olympics();
        engine.explain_question("Which city hosted in 2008?", &table, 1);
        let clone = engine.clone();
        assert_eq!(clone.metrics().questions_served.get(), 0);
        assert_eq!(clone.config().top_k, engine.config().top_k);
    }
}
