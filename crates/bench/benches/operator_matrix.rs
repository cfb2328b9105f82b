//! Table 10 / Table 2 ablation: evaluation, provenance and SQL translation
//! cost for every lambda DCS operator family on the paper's sample tables,
//! plus the `exec_layer` group comparing the indexed execution layer against
//! the scan reference on a scaled synthetic table.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;

use wtq_bench::exec::{bench_table, workloads};
use wtq_dcs::{eval, parse_formula, Evaluator};
use wtq_oracle::{eval_reference, PlanMode, SqlEngine};
use wtq_provenance::provenance;
use wtq_sql::translate;
use wtq_table::{samples, TableIndex};

fn bench_operators(c: &mut Criterion) {
    let olympics = samples::olympics();
    let cases = [
        ("column_records", "City.Athens"),
        ("column_values", "R[Year].City.Athens"),
        ("prev", "R[Year].Prev.City.Athens"),
        ("aggregation", "sum(R[Year].City.Athens)"),
        (
            "difference",
            "sub(R[Year].City.London, R[Year].City.Beijing)",
        ),
        ("intersection", "(City.London and Country.UK)"),
        ("superlative", "argmax(Rows, Year)"),
        ("most_common", "most_common((Athens or London), City)"),
        (
            "compare_values",
            "compare_max((London or Beijing), Year, City)",
        ),
    ];
    let mut group = c.benchmark_group("operator_matrix");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2));
    for (name, text) in cases {
        let formula = parse_formula(text).expect("operator formula parses");
        group.bench_function(format!("eval/{name}"), |b| {
            b.iter(|| eval(&formula, &olympics))
        });
        group.bench_function(format!("provenance/{name}"), |b| {
            b.iter(|| provenance(&formula, &olympics))
        });
        if let Ok(sql) = translate(&formula) {
            group.bench_function(format!("sql/{name}"), |b| {
                b.iter(|| SqlEngine::new(&olympics).execute(&sql, PlanMode::Auto))
            });
        }
    }
    group.finish();
}

/// Indexed execution layer vs the scan reference on a 2 000-row table:
/// `scan` is the pre-index semantics, `indexed` a session sharing one
/// prebuilt index (cold cache per call), `warm` a single reused session.
/// For SQL: `sql_scan` is `ForceScan`, `sql_cold` a fresh cost-based
/// engine per call (columnar kernels, no index), `sql_warm` the reused
/// cost-based engine holding the shared index.
fn bench_exec_layer(c: &mut Criterion) {
    let table = bench_table(2000);
    let index = Arc::new(TableIndex::new(&table));
    let warm = Evaluator::with_index(&table, index.clone());
    let mut group = c.benchmark_group("exec_layer");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(1));
    for (name, formula) in workloads(&table, &index) {
        group.bench_function(format!("scan/{name}"), |b| {
            b.iter(|| eval_reference(&formula, &table))
        });
        group.bench_function(format!("indexed/{name}"), |b| {
            b.iter(|| {
                let session = Evaluator::with_index(&table, index.clone());
                session.eval(&formula)
            })
        });
        group.bench_function(format!("warm/{name}"), |b| b.iter(|| warm.eval(&formula)));
        if let Ok(query) = translate(&formula) {
            let warm_engine = SqlEngine::with_index(&table, &index);
            group.bench_function(format!("sql_scan/{name}"), |b| {
                b.iter(|| warm_engine.execute(&query, PlanMode::ForceScan))
            });
            group.bench_function(format!("sql_cold/{name}"), |b| {
                b.iter(|| SqlEngine::new(&table).execute(&query, PlanMode::Auto))
            });
            group.bench_function(format!("sql_warm/{name}"), |b| {
                b.iter(|| warm_engine.execute(&query, PlanMode::Auto))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_operators, bench_exec_layer);
criterion_main!(benches);
