//! Table 10 / Table 2 ablation: evaluation, provenance and SQL translation
//! cost for every lambda DCS operator family on the paper's sample tables,
//! plus the `exec_layer` group comparing the indexed execution layer against
//! the scan reference on a scaled synthetic table.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use wtq_bench::exec::{bench_table, workloads};
use wtq_dcs::{eval, parse_formula, Evaluator};
use wtq_oracle::{eval_reference, execute_sql};
use wtq_provenance::provenance;
use wtq_sql::translate;
use wtq_table::samples;

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
                b.iter(|| execute_sql(&sql, &olympics))
            });
        }
    }
    group.finish();
}

/// Indexed execution layer vs the scan reference on a 2 000-row table:
/// `scan` is the pre-index semantics, `indexed` a fresh session over the
/// table's index (cold memo per call), `warm` a single reused session.
fn bench_exec_layer(c: &mut Criterion) {
    let table = bench_table(2000);
    let index = table.index();
    let warm = Evaluator::new(&table);
    let mut group = c.benchmark_group("exec_layer");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(1));
    for (name, formula) in workloads(&table, index) {
        group.bench_function(format!("scan/{name}"), |b| {
            b.iter(|| eval_reference(&formula, &table))
        });
        group.bench_function(format!("indexed/{name}"), |b| {
            b.iter(|| Evaluator::new(&table).eval(&formula))
        });
        group.bench_function(format!("warm/{name}"), |b| b.iter(|| warm.eval(&formula)));
    }
    group.finish();
}

criterion_group!(benches, bench_operators, bench_exec_layer);
criterion_main!(benches);
