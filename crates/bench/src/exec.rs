//! Execution-layer micro-benchmarks: indexed engines vs the scan reference.
//!
//! Shared by the `exec_layer` Criterion bench group and the `experiments`
//! binary's `--exec-json` flag, which writes the report to `BENCH_exec.json`
//! so CI and the README can track the numbers. Workloads are
//! join/compare/superlative-heavy — the shapes that dominate candidate
//! generation — executed three ways:
//!
//! * **scan** — the pre-index reference semantics (`wtq_oracle::eval_reference`
//!   / `PlanMode::ForceScan`),
//! * **cold** — no pre-built state per call: a fresh DCS session over a
//!   shared [`TableIndex`], and for SQL a fresh [`wtq_oracle::SqlEngine`] in
//!   `Auto` mode (cost-based: columnar kernels, no index build),
//! * **warm** — reused state across calls: a warm DCS session (adds the
//!   cross-candidate denotation cache) and an `Auto`-mode engine holding
//!   the shared index (the deployment configuration).
//!
//! The SQL section also shares one [`wtq_oracle::PlannerCounters`] set across
//! the engines it constructs and snapshots it after its workloads, so the
//! report records which physical plans the cost model picked and how its
//! selectivity estimates tracked reality.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use wtq_core::{Engine, ExplainRequest};
use wtq_dcs::{AggregateOp, CompareOp, Evaluator, Formula, SuperlativeOp};
use wtq_oracle::{PlanMode, SqlEngine};
use wtq_parser::SemanticParser;
use wtq_table::{Catalog, Table, TableIndex, Value};

use crate::EXPERIMENT_SEED;

/// One workload's timings, microseconds per execution.
#[derive(Debug, Clone, Serialize)]
pub struct ExecCase {
    /// Workload name (e.g. `join`, `compare`, `superlative`).
    pub name: String,
    /// Scan reference, µs per execution.
    pub scan_us: f64,
    /// Cold execution per call (fresh session / cold cost-based engine), µs.
    pub indexed_cold_us: f64,
    /// Warm execution (reused session / warm cost-based engine), µs.
    pub indexed_warm_us: f64,
    /// `scan_us / indexed_cold_us`.
    pub speedup_cold: f64,
    /// `scan_us / indexed_warm_us`.
    pub speedup_warm: f64,
}

/// Batch-serving throughput at one worker-pool size.
#[derive(Debug, Clone, Serialize)]
pub struct ParallelCase {
    /// Worker threads in the pool.
    pub workers: usize,
    /// End-to-end explained questions per second through
    /// `Engine::explain_batch` (parse + utterance + SQL + highlights).
    pub qps: f64,
    /// `qps / qps_at_1_worker` — the scaling factor the ROADMAP's
    /// throughput goal tracks.
    pub speedup_vs_serial: f64,
}

/// The full execution-layer report (serialized to `BENCH_exec.json`).
#[derive(Debug, Clone, Serialize)]
pub struct ExecReport {
    /// Rows of the synthetic benchmark table.
    pub rows: usize,
    /// Columns of the synthetic benchmark table.
    pub columns: usize,
    /// One-off index build cost, µs.
    pub index_build_us: f64,
    /// Lambda DCS operator workloads.
    pub dcs: Vec<ExecCase>,
    /// SQL engine workloads (cost-based planner vs scan path).
    pub sql: Vec<ExecCase>,
    /// Planner decisions taken while timing the SQL workloads (scan vs
    /// index vs columnar kernel, estimated vs actual matching rows), as the
    /// registry samples of the section's planner counters.
    pub planner: Vec<wtq_obs::Sample>,
    /// End-to-end questions/second through lexicon → candidates → scoring.
    pub candidate_throughput_qps: f64,
    /// Mean per-question parse time backing the throughput number, µs.
    pub candidate_parse_us: f64,
    /// Evaluator memo hits/misses (record sets and grouped projections,
    /// see `Evaluator::cache_stats`) observed while generating one
    /// question's candidate pool.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Batch-serving throughput on the bench table at growing worker-pool
    /// sizes (1, 2, 4, 8) through the shared `Engine`.
    pub parallel: Vec<ParallelCase>,
    /// Loopback network-serving latency percentiles (`experiments
    /// --section serve`); absent when the serving section was not run.
    pub serving: Option<crate::serve::ServingReport>,
    /// Connection-scaling proof: thousands of idle sockets held open by
    /// the epoll reactor while a handful of active clients keep full
    /// throughput (`experiments --section serve`).
    pub idle_serving: Option<crate::serve::IdleConnectionsReport>,
    /// Answer-cache effectiveness on Zipfian question replays
    /// (`experiments --section cache`); absent when that section was not
    /// run.
    pub caching: Option<crate::cache::CachingReport>,
    /// Encode-once hit-path timings (`experiments --section encode`);
    /// absent when that section was not run.
    pub encode: Option<crate::encode::EncodeReport>,
    /// Parse-pipeline stage breakdown and interned-vs-string-keyed feature
    /// comparison (`experiments --section parse`); absent when that section
    /// was not run.
    pub parsing: Option<crate::parse::ParsingReport>,
    /// `/metrics`-scraped latency percentiles and tracing overhead
    /// (`experiments --section obs`); absent when that section was not run.
    pub observability: Option<crate::obs::ObsReport>,
}

/// Time `f` repeatedly within a small budget; mean µs per call.
pub(crate) fn time_us<F: FnMut()>(mut f: F) -> f64 {
    // One warm-up call calibrates the iteration count.
    let start = Instant::now();
    f();
    let once = start.elapsed().max(Duration::from_nanos(100));
    let budget = Duration::from_millis(40);
    let iters = (budget.as_nanos() / once.as_nanos()).clamp(1, 20_000) as u32;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

/// Interleaved timing rounds per workload. Each round times every variant
/// back to back and the per-variant medians are reported, so machine-load
/// drift hits all variants alike instead of whichever was measured last.
const MEASURE_ROUNDS: usize = 5;

pub(crate) fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Median µs per call for each variant, sampled in interleaved rounds.
pub(crate) fn interleaved_us(fns: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut samples = vec![Vec::with_capacity(MEASURE_ROUNDS); fns.len()];
    for _ in 0..MEASURE_ROUNDS {
        for (slot, f) in samples.iter_mut().zip(fns.iter_mut()) {
            slot.push(time_us(&mut **f));
        }
    }
    samples.into_iter().map(median).collect()
}

/// The synthetic benchmark table: the first dataset domain scaled to `rows`.
pub fn bench_table(rows: usize) -> Table {
    let mut rng = ChaCha8Rng::seed_from_u64(EXPERIMENT_SEED);
    let domain = &wtq_dataset::all_domains()[0];
    wtq_dataset::tablegen::generate_table_with_rows(domain, 0, rows, &mut rng)
}

/// The join/compare/superlative-heavy workloads over `table`, derived from
/// its index metadata (most frequent category value, median numeric value).
pub fn workloads(table: &Table, index: &TableIndex) -> Vec<(String, Formula)> {
    let text_col = *index.text_columns().first().expect("a text column");
    let num_col = *index.numeric_columns().first().expect("a numeric column");
    let text_name = table.column_name(text_col).to_string();
    let num_name = table.column_name(num_col).to_string();
    // Most frequent value of the text column (deterministic tie-break).
    let mut entries: Vec<(&Value, usize)> = index
        .column(text_col)
        .entries()
        .map(|(value, records)| (value, records.len()))
        .collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let frequent = entries[0].0.clone();
    // Median numeric value.
    let numeric = index.column(num_col).numeric_entries();
    let median = numeric[numeric.len() / 2].0;

    let join = Formula::Join {
        column: text_name.clone(),
        values: Box::new(Formula::Const(frequent.clone())),
    };
    let compare = Formula::CompareJoin {
        column: num_name.clone(),
        op: CompareOp::Geq,
        value: Box::new(Formula::Const(Value::Num(median))),
    };
    vec![
        ("join".to_string(), join.clone()),
        ("compare".to_string(), compare.clone()),
        (
            "superlative".to_string(),
            Formula::SuperlativeRecords {
                op: SuperlativeOp::Argmax,
                records: Box::new(Formula::AllRecords),
                column: num_name.clone(),
            },
        ),
        (
            "intersect".to_string(),
            Formula::Intersect(Box::new(join.clone()), Box::new(compare)),
        ),
        (
            "project_aggregate".to_string(),
            Formula::aggregate(
                AggregateOp::Max,
                Formula::ColumnValues {
                    column: num_name,
                    records: Box::new(join),
                },
            ),
        ),
    ]
}

/// Run the full execution-layer comparison on a `rows`-row table, measuring
/// candidate throughput over `questions` generated questions.
pub fn exec_report(rows: usize, questions: usize) -> ExecReport {
    let table = bench_table(rows);
    let build_start = Instant::now();
    let index = Arc::new(TableIndex::new(&table));
    let index_build_us = build_start.elapsed().as_secs_f64() * 1e6;

    let warm = Evaluator::with_index(&table, index.clone());
    let mut dcs = Vec::new();
    for (name, formula) in workloads(&table, &index) {
        let timings = interleaved_us(&mut [
            &mut || {
                let _ = wtq_oracle::eval_reference(&formula, &table);
            },
            &mut || {
                let session = Evaluator::with_index(&table, index.clone());
                let _ = session.eval(&formula);
            },
            &mut || {
                let _ = warm.eval(&formula);
            },
        ]);
        let (scan_us, indexed_cold_us, indexed_warm_us) = (timings[0], timings[1], timings[2]);
        dcs.push(ExecCase {
            name,
            scan_us,
            indexed_cold_us,
            indexed_warm_us,
            speedup_cold: scan_us / indexed_cold_us,
            speedup_warm: scan_us / indexed_warm_us,
        });
    }

    let mut sql = Vec::new();
    // One shared counter set across every engine this section constructs, so
    // the report isolates exactly the decisions taken by its own workloads.
    let planner_counters = Arc::new(wtq_oracle::PlannerCounters::new());
    let warm_engine =
        SqlEngine::with_index(&table, &index).with_counters(Arc::clone(&planner_counters));
    for (name, formula) in workloads(&table, &index) {
        let Ok(query) = wtq_sql::translate(&formula) else {
            continue;
        };
        let timings = interleaved_us(&mut [
            &mut || {
                let _ = warm_engine.execute(&query, PlanMode::ForceScan);
            },
            &mut || {
                let _ = SqlEngine::new(&table)
                    .with_counters(Arc::clone(&planner_counters))
                    .execute(&query, PlanMode::Auto);
            },
            &mut || {
                let _ = warm_engine.execute(&query, PlanMode::Auto);
            },
        ]);
        let (scan_us, indexed_cold_us, indexed_warm_us) = (timings[0], timings[1], timings[2]);
        sql.push(ExecCase {
            name,
            scan_us,
            indexed_cold_us,
            indexed_warm_us,
            speedup_cold: scan_us / indexed_cold_us,
            speedup_warm: scan_us / indexed_warm_us,
        });
    }
    let registry = wtq_obs::Registry::new();
    planner_counters.register(&registry);
    let planner = registry.samples();

    // End-to-end candidate throughput on a regular-size generated table with
    // generated questions (lexicon → candidates → scoring).
    let mut rng = ChaCha8Rng::seed_from_u64(EXPERIMENT_SEED + 1);
    let domain = &wtq_dataset::all_domains()[0];
    let qa_table = wtq_dataset::generate_table(domain, 1, &mut rng);
    let questions = wtq_dataset::generate_questions(&qa_table, questions, &mut rng);
    let parser = SemanticParser::with_prior();
    let candidate_parse_us = time_us(|| {
        for question in &questions {
            let _ = parser.parse(&question.question, &qa_table);
        }
    }) / questions.len().max(1) as f64;
    let candidate_throughput_qps = 1e6 / candidate_parse_us;

    // Cache effectiveness over one question's candidate pool.
    let session = Evaluator::new(&qa_table);
    if let Some(question) = questions.first() {
        let analysis = wtq_parser::analyze_question(&question.question, &qa_table);
        let _ = wtq_parser::generate_candidates_with(
            &analysis,
            &session,
            &wtq_parser::CandidateConfig::default(),
        );
    }
    let (cache_hits, cache_misses) = session.cache_stats();

    let parallel = parallel_cases(&table, (questions.len() * 2).max(8));

    ExecReport {
        rows,
        columns: table.num_columns(),
        index_build_us,
        dcs,
        sql,
        planner,
        candidate_throughput_qps,
        candidate_parse_us,
        cache_hits,
        cache_misses,
        parallel,
        serving: None,
        idle_serving: None,
        caching: None,
        encode: None,
        parsing: None,
        observability: None,
    }
}

/// Worker counts measured by the parallel section (and the
/// `batch_throughput` Criterion bench).
pub const PARALLEL_WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Build the shared-`Engine` batch environment for `table`: a one-table
/// catalog, a warm engine and `num_questions` generated requests.
pub fn batch_environment(
    table: &Table,
    num_questions: usize,
) -> (Engine, Catalog, Vec<ExplainRequest>) {
    let mut rng = ChaCha8Rng::seed_from_u64(EXPERIMENT_SEED + 2);
    let questions = wtq_dataset::generate_questions(table, num_questions, &mut rng);
    let requests: Vec<ExplainRequest> = questions
        .iter()
        .map(|question| ExplainRequest::new(question.question.clone(), table.name()))
        .collect();
    let catalog: Catalog = [table.clone()].into_iter().collect();
    let engine = Engine::new();
    // Warm the index cache so every worker count measures pure serving.
    engine.index_for(catalog.get(table.name()).expect("table inserted"));
    (engine, catalog, requests)
}

/// Measure `Engine::explain_batch` throughput over `num_questions` generated
/// questions on `table` at each of [`PARALLEL_WORKER_COUNTS`].
fn parallel_cases(table: &Table, num_questions: usize) -> Vec<ParallelCase> {
    let (engine, catalog, requests) = batch_environment(table, num_questions);
    let mut cases: Vec<ParallelCase> = Vec::new();
    for workers in PARALLEL_WORKER_COUNTS {
        // Best of two runs smooths scheduler noise without a full
        // Criterion-style sampling loop (this runs inside `experiments`).
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let start = Instant::now();
            let explanations = engine.explain_batch_with(workers, &catalog, &requests);
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(explanations.len(), requests.len());
            best = best.min(elapsed);
        }
        let qps = requests.len() as f64 / best.max(1e-9);
        let speedup_vs_serial = cases.first().map(|c| qps / c.qps).unwrap_or(1.0);
        cases.push(ParallelCase {
            workers,
            qps,
            speedup_vs_serial,
        });
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_all_workloads_and_sane_numbers() {
        // Small table and question count: this runs in debug CI too.
        let report = exec_report(64, 2);
        assert_eq!(report.rows, 64);
        assert_eq!(report.dcs.len(), 5);
        assert!(!report.sql.is_empty());
        assert!(report.index_build_us > 0.0);
        assert!(report.candidate_throughput_qps > 0.0);
        for case in report.dcs.iter().chain(&report.sql) {
            assert!(case.scan_us > 0.0, "{}", case.name);
            assert!(case.indexed_cold_us > 0.0, "{}", case.name);
            assert!(case.indexed_warm_us > 0.0, "{}", case.name);
        }
        // The parallel section covers every worker count with sane numbers.
        assert_eq!(report.parallel.len(), PARALLEL_WORKER_COUNTS.len());
        for (case, workers) in report.parallel.iter().zip(PARALLEL_WORKER_COUNTS) {
            assert_eq!(case.workers, workers);
            assert!(case.qps > 0.0);
            assert!(case.speedup_vs_serial > 0.0);
        }
        assert!((report.parallel[0].speedup_vs_serial - 1.0).abs() < 1e-12);
        // The SQL section exercised the planner: every workload was planned
        // (never a row-scan fallback) on both the cold kernel path and the
        // warm index-or-kernel path.
        let planner = |series: &str| {
            let sample = report.planner.iter().find(|sample| sample.series == series);
            sample.expect("planner series reported").value
        };
        assert!(planner("wtq_planner_decisions_total{backend=\"kernel\"}") > 0.0);
        assert!(planner("wtq_planner_actual_rows_total") > 0.0);
        // The report serializes.
        let json = serde_json::to_string_pretty(&report).expect("serializes");
        assert!(json.contains("candidate_throughput_qps"));
        assert!(json.contains("planner"));
        assert!(json.contains("parallel"));
    }
}
