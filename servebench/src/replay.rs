//! The traced run's engine layers: a seeded sample of the run's requests
//! replayed in-process through `Engine`, `Session`, `CachedEngine` and the
//! parser stage functions, with a span around every call into a layer.
//!
//! Spans live in memory and are written out when the run ends. A layer's
//! self time is its span minus its children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use wtq_cache::CacheConfig;
use wtq_core::{candidates_json, CachedEngine, Engine, ExplainRequest};
use wtq_explain::utter;
use wtq_parser::{
    analyze_question_with, features::extract_features_in, generate_candidates_with, QuestionContext,
};
use wtq_provenance::Highlights;
use wtq_sql::translate;
use wtq_table::{Catalog, Table};

use crate::workload::{Inputs, Question, Request, BATCH_SIZE, TOP_K};

/// One timed call: its name, the request it served, its parent span and
/// its interval in ns since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `parser.lexicon`.
    pub name: &'static str,
    /// The replayed request (question index) the span belongs to.
    pub request: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in ns.
    pub fn end(&mut self, id: usize) -> u64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns()
    }

    /// Time `work` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        work: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.begin(name, request, parent);
        let value = work();
        (value, self.end(id))
    }

    /// Per span name: (count, total ns, self ns). Children of one span run
    /// one after another, so self time is the span minus their sum.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += span.duration_ns().saturating_sub(children);
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.request, span.start_ns, span.end_ns
            );
        }
        out
    }
}

/// Per-layer numbers of the replay, keyed by metric name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// Running sums of the replayed questions.
#[derive(Default)]
struct Sums {
    questions: f64,
    session_ns: f64,
    sessions: f64,
    parse_ns: f64,
    lexicon_ns: f64,
    candidates_ns: f64,
    features_ns: f64,
    score_ns: f64,
    pool: f64,
    memo_hits: f64,
    memo_lookups: f64,
    highlights_ns: f64,
    utter_ns: f64,
    translate_ns: f64,
    encode_ns: f64,
    response_bytes: f64,
    probe_ns: f64,
    probes: f64,
    explain_ns: f64,
    batch_ns: f64,
    /// Questions whose stage-by-stage ranking differs from `Session::parse`.
    ranking_mismatches: u64,
}

/// Replay `sample` in-process and return the engine-layer metrics. On
/// `deploy_hot` the replay's own answer cache is prewarmed, so probes hit
/// as they do in the server.
pub fn replay(
    engine: &Arc<Engine>,
    catalog: &Catalog,
    inputs: &Inputs,
    sample: &[Request],
    prewarm_cache: bool,
    tracer: &mut Tracer,
) -> (LayerMetrics, u64) {
    let cached = CachedEngine::new(
        engine.clone(),
        CacheConfig {
            capacity: 4096,
            ..CacheConfig::default()
        },
    );
    let lookup = |question: &Question| -> &Table {
        catalog
            .get(&question.table)
            .expect("every question's table is in the catalog")
    };
    if prewarm_cache {
        for request in sample {
            for index in request.questions() {
                let question = &inputs.questions[index];
                cached.explain_question(&question.text, lookup(question), TOP_K);
            }
        }
    }
    let mut sums = Sums::default();
    let mut explain_ns_by_question: Vec<u64> = Vec::new();
    for request in sample {
        for index in request.questions() {
            let question = &inputs.questions[index];
            let ns = replay_question(
                engine,
                &cached,
                question,
                lookup(question),
                index as u64,
                tracer,
                &mut sums,
            );
            explain_ns_by_question.push(ns);
        }
    }
    // The batch pool: the same questions through `Engine::explain_batch`.
    let questions: Vec<usize> = sample.iter().flat_map(|r| r.questions()).collect();
    for (chunk, explain_ns) in questions
        .chunks(BATCH_SIZE)
        .zip(explain_ns_by_question.chunks(BATCH_SIZE))
    {
        let requests: Vec<ExplainRequest> = chunk
            .iter()
            .map(|&index| ExplainRequest {
                top_k: Some(TOP_K),
                ..ExplainRequest::new(
                    &inputs.questions[index].text,
                    &inputs.questions[index].table,
                )
            })
            .collect();
        let (_, ns) = tracer.time("runtime.explain_batch", chunk[0] as u64, None, || {
            engine.explain_batch(catalog, &requests)
        });
        sums.batch_ns += ns as f64;
        sums.explain_ns += explain_ns.iter().sum::<u64>() as f64;
    }

    let per_q = |ns: f64| ns / sums.questions / 1e3;
    let mut metrics = LayerMetrics::new();
    metrics.insert("table.session_us", sums.session_ns / sums.sessions / 1e3);
    metrics.insert("parser.parse_us", per_q(sums.parse_ns));
    metrics.insert("parser.lexicon_us", per_q(sums.lexicon_ns));
    metrics.insert("parser.candidates_us", per_q(sums.candidates_ns));
    metrics.insert("parser.features_us", per_q(sums.features_ns));
    metrics.insert("parser.score_us", per_q(sums.score_ns));
    metrics.insert("parser.pool_size", sums.pool / sums.questions);
    metrics.insert(
        "dcs.memo_hit_ratio",
        if sums.memo_lookups > 0.0 {
            sums.memo_hits / sums.memo_lookups
        } else {
            0.0
        },
    );
    metrics.insert("provenance.highlights_us", per_q(sums.highlights_ns));
    metrics.insert("explain.utter_us", per_q(sums.utter_ns));
    metrics.insert("sql.translate_us", per_q(sums.translate_ns));
    metrics.insert("core.encode_us", per_q(sums.encode_ns));
    metrics.insert("core.response_bytes", sums.response_bytes / sums.questions);
    metrics.insert("cache.probe_us", sums.probe_ns / sums.probes / 1e3);
    let workers = engine.config().workers.max(1) as f64;
    metrics.insert(
        "runtime.efficiency",
        sums.explain_ns / (workers * sums.batch_ns),
    );
    let stages = sums.lexicon_ns + sums.candidates_ns + sums.features_ns + sums.score_ns;
    metrics.insert(
        "reconcile.parse_gap_frac",
        (sums.parse_ns - stages) / sums.parse_ns,
    );
    (metrics, sums.ranking_mismatches)
}

/// Replay one question; returns its `Engine::explain_question` time in ns.
fn replay_question(
    engine: &Engine,
    cached: &CachedEngine,
    question: &Question,
    table: &Table,
    request: u64,
    tracer: &mut Tracer,
    sums: &mut Sums,
) -> u64 {
    let root_id = tracer.begin("request", request, None);
    let root = Some(root_id);
    let text = question.text.as_str();
    sums.questions += 1.0;

    // The whole parse on a fresh session …
    let (session, ns) = tracer.time("table.session", request, root, || engine.session(table));
    sums.session_ns += ns as f64;
    sums.sessions += 1.0;
    let (parsed, ns) = tracer.time("parser.parse", request, root, || session.parse(text));
    sums.parse_ns += ns as f64;
    drop(session);

    // … and again stage by stage on another fresh session.
    let (session, ns) = tracer.time("table.session", request, root, || engine.session(table));
    sums.session_ns += ns as f64;
    sums.sessions += 1.0;
    let evaluator = session.evaluator();
    let parser = engine.parser();
    let (analysis, ns) = tracer.time("parser.lexicon", request, root, || {
        analyze_question_with(text, evaluator.kb())
    });
    sums.lexicon_ns += ns as f64;
    let (raw, ns) = tracer.time("parser.candidates", request, root, || {
        generate_candidates_with(&analysis, evaluator, &parser.config)
    });
    sums.candidates_ns += ns as f64;
    sums.pool += raw.len() as f64;
    let (hits, misses) = evaluator.cache_stats();
    sums.memo_hits += hits as f64;
    sums.memo_lookups += (hits + misses) as f64;
    let (features, ns) = tracer.time("parser.features", request, root, || {
        let context = QuestionContext::new(&analysis, table);
        let (mut pairs, mut constants) = (Vec::new(), Vec::new());
        raw.iter()
            .map(|candidate| {
                extract_features_in(&analysis, &context, candidate, &mut pairs, &mut constants)
            })
            .collect::<Vec<_>>()
    });
    sums.features_ns += ns as f64;
    let (ranked, ns) = tracer.time("parser.score", request, root, || {
        // Score descending, then formula size, then formula text: the
        // parser's ranking order.
        let mut scored: Vec<(f64, usize, String, usize)> = features
            .iter()
            .zip(&raw)
            .enumerate()
            .map(|(index, (features, candidate))| {
                let formula = &candidate.formula;
                (
                    parser.model.score(features),
                    formula.size(),
                    formula.to_string(),
                    index,
                )
            })
            .collect();
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        });
        scored
            .into_iter()
            .map(|(_, _, _, index)| index)
            .collect::<Vec<_>>()
    });
    sums.score_ns += ns as f64;
    let same_ranking = ranked.len() == parsed.len()
        && ranked
            .iter()
            .zip(&parsed)
            .all(|(&index, candidate)| raw[index].formula == candidate.formula);
    if !same_ranking {
        sums.ranking_mismatches += 1;
    }
    drop(session);

    // Explanation layers over the top-k.
    let top: Vec<_> = parsed.iter().take(TOP_K).map(|c| &c.formula).collect();
    let (_, ns) = tracer.time("provenance.highlights", request, root, || {
        top.iter()
            .filter_map(|formula| Highlights::compute(formula, table).ok())
            .count()
    });
    sums.highlights_ns += ns as f64;
    let (_, ns) = tracer.time("explain.utter", request, root, || {
        top.iter()
            .map(|formula| utter(formula).len())
            .sum::<usize>()
    });
    sums.utter_ns += ns as f64;
    let (_, ns) = tracer.time("sql.translate", request, root, || {
        top.iter()
            .filter_map(|formula| translate(formula).ok().map(|query| query.to_sql()))
            .count()
    });
    sums.translate_ns += ns as f64;

    // The serving pipeline's own calls.
    let (explained, explain_ns) = tracer.time("core.explain_question", request, root, || {
        engine.explain_question(text, table, TOP_K)
    });
    let (bytes, ns) = tracer.time("core.encode", request, root, || {
        candidates_json(&explained, table)
    });
    sums.encode_ns += ns as f64;
    sums.response_bytes += bytes.len() as f64;
    let key = cached.key_for(text, table, Some(TOP_K));
    let (_, ns) = tracer.time("cache.probe", request, root, || {
        cached.probe(&key).is_some()
    });
    sums.probe_ns += ns as f64;
    sums.probes += 1.0;
    tracer.end(root_id);
    explain_ns
}
