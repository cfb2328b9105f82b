//! Scan-based reference evaluator (executable specification).
//!
//! This module preserves the pre-index, row-scanning execution semantics of
//! the lambda DCS evaluator: every join, comparison and superlative walks the
//! table rows directly, with no inverted indexes, no sorted projections and
//! no memoization. It exists for two reasons:
//!
//! 1. **Differential testing** — the proptest suites assert that the indexed
//!    [`wtq_dcs::Evaluator`] produces denotations (including provenance cell
//!    traces) identical to this implementation on random tables and formulas.
//! 2. **Benchmark baseline** — the `operator_matrix` and `exec_layer`
//!    benches report indexed-vs-scan speedups against this implementation.
//!
//! Keep this module boring: clarity over speed, one pass per operator.

use std::collections::BTreeSet;

use wtq_table::{CellRef, RecordIdx, Table, Value};

use wtq_dcs::eval::MAX_EVAL_DEPTH;
use wtq_dcs::{AggregateOp, DcsError, Denotation, Formula, Result, SuperlativeOp, TracedValue};

/// Evaluate `formula` against `table` with the scan-based reference
/// semantics. The result must always equal `wtq_dcs::eval(formula, table)`.
pub fn eval_reference(formula: &Formula, table: &Table) -> Result<Denotation> {
    eval_depth(formula, table, 0)
}

fn eval_depth(formula: &Formula, table: &Table, depth: usize) -> Result<Denotation> {
    if depth > MAX_EVAL_DEPTH {
        return Err(DcsError::DepthExceeded(MAX_EVAL_DEPTH));
    }
    match formula {
        Formula::Const(value) => Ok(eval_const(table, value)),
        Formula::AllRecords => Ok(Denotation::Records(table.record_indices().collect())),
        Formula::Join { column, values } => {
            let column_idx = column_of(table, column)?;
            let values = eval_depth(values, table, depth + 1)?;
            let wanted: Vec<Value> = match values {
                Denotation::Values(v) => v.into_iter().map(|tv| tv.value).collect(),
                Denotation::Number(n) => vec![Value::Num(n)],
                Denotation::Records(_) => {
                    return Err(DcsError::TypeMismatch {
                        operator: "join",
                        expected: "values",
                        found: "records",
                    })
                }
            };
            let mut records = BTreeSet::new();
            for value in &wanted {
                records.extend(table.filter_eq(column_idx, value));
            }
            Ok(Denotation::Records(records))
        }
        Formula::CompareJoin { column, op, value } => {
            let column_idx = column_of(table, column)?;
            let value = eval_depth(value, table, depth + 1)?;
            let threshold = value.as_single_number().ok_or(DcsError::Cardinality {
                operator: "comparison",
                expected: "a single numeric value",
                got: value.len(),
            })?;
            let mut records = BTreeSet::new();
            for record in table.record_indices() {
                if let Some(number) = table.number_at(record, column_idx) {
                    if op.compare(number, threshold) {
                        records.insert(record);
                    }
                }
            }
            Ok(Denotation::Records(records))
        }
        Formula::ColumnValues { column, records } => {
            let column_idx = column_of(table, column)?;
            let records = eval_depth(records, table, depth + 1)?;
            let records = expect_records("column projection", records)?;
            Ok(project_column(table, column_idx, &records))
        }
        Formula::Prev(sub) => {
            let records = expect_records("Prev", eval_depth(sub, table, depth + 1)?)?;
            Ok(Denotation::Records(
                records
                    .iter()
                    .filter_map(|&r| table.prev_record(r))
                    .collect(),
            ))
        }
        Formula::Next(sub) => {
            let records = expect_records("R[Prev]", eval_depth(sub, table, depth + 1)?)?;
            Ok(Denotation::Records(
                records
                    .iter()
                    .filter_map(|&r| table.next_record(r))
                    .collect(),
            ))
        }
        Formula::Intersect(a, b) => {
            let left = eval_depth(a, table, depth + 1)?;
            let right = eval_depth(b, table, depth + 1)?;
            match (left, right) {
                (Denotation::Records(a), Denotation::Records(b)) => {
                    Ok(Denotation::Records(a.intersection(&b).copied().collect()))
                }
                (Denotation::Values(a), Denotation::Values(b)) => Ok(Denotation::Values(
                    a.into_iter()
                        .filter(|tv| b.iter().any(|other| other.value == tv.value))
                        .collect(),
                )),
                (left, right) => Err(DcsError::TypeMismatch {
                    operator: "intersection",
                    expected: "two record sets or two value sets",
                    found: if matches!(left, Denotation::Number(_)) {
                        left.kind()
                    } else {
                        right.kind()
                    },
                }),
            }
        }
        Formula::Union(a, b) => {
            let left = eval_depth(a, table, depth + 1)?;
            let right = eval_depth(b, table, depth + 1)?;
            match (left, right) {
                (Denotation::Records(a), Denotation::Records(b)) => {
                    Ok(Denotation::Records(a.union(&b).copied().collect()))
                }
                (Denotation::Values(mut a), Denotation::Values(b)) => {
                    for tv in b {
                        if let Some(existing) = a.iter_mut().find(|e| e.value == tv.value) {
                            existing.cells.extend(tv.cells);
                            existing.cells.sort_unstable();
                            existing.cells.dedup();
                        } else {
                            a.push(tv);
                        }
                    }
                    Ok(Denotation::Values(a))
                }
                (left, right) => Err(DcsError::TypeMismatch {
                    operator: "union",
                    expected: "two record sets or two value sets",
                    found: if matches!(left, Denotation::Number(_)) {
                        left.kind()
                    } else {
                        right.kind()
                    },
                }),
            }
        }
        Formula::Aggregate { op, sub } => {
            let inner = eval_depth(sub, table, depth + 1)?;
            eval_aggregate(*op, inner)
        }
        Formula::SuperlativeRecords {
            op,
            records,
            column,
        } => {
            let column_idx = column_of(table, column)?;
            let records = expect_records("superlative", eval_depth(records, table, depth + 1)?)?;
            Ok(Denotation::Records(superlative_records(
                table, *op, &records, column_idx,
            )))
        }
        Formula::RecordIndexSuperlative { op, records } => {
            let records =
                expect_records("index superlative", eval_depth(records, table, depth + 1)?)?;
            let chosen = match op {
                SuperlativeOp::Argmax => records.iter().next_back().copied(),
                SuperlativeOp::Argmin => records.iter().next().copied(),
            };
            Ok(Denotation::Records(chosen.into_iter().collect()))
        }
        Formula::MostCommonValue { op, values, column } => {
            let column_idx = column_of(table, column)?;
            let values = eval_depth(values, table, depth + 1)?;
            let candidates = match values {
                Denotation::Values(v) => v,
                other => {
                    return Err(DcsError::TypeMismatch {
                        operator: "most_common",
                        expected: "values",
                        found: other.kind(),
                    })
                }
            };
            if candidates.is_empty() {
                return Ok(Denotation::Values(Vec::new()));
            }
            let counts: Vec<usize> = candidates
                .iter()
                .map(|tv| table.filter_eq(column_idx, &tv.value).len())
                .collect();
            let best = match op {
                SuperlativeOp::Argmax => counts.iter().copied().max().unwrap_or(0),
                SuperlativeOp::Argmin => counts.iter().copied().min().unwrap_or(0),
            };
            let out: Vec<TracedValue> = candidates
                .into_iter()
                .zip(counts)
                .filter(|(_, count)| *count == best)
                .map(|(tv, _)| {
                    let cells = table
                        .filter_eq(column_idx, &tv.value)
                        .into_iter()
                        .map(|record| CellRef::new(record, column_idx))
                        .collect();
                    TracedValue {
                        value: tv.value,
                        cells,
                    }
                })
                .collect();
            Ok(Denotation::Values(out))
        }
        Formula::CompareValues {
            op,
            values,
            key_column,
            value_column,
        } => {
            let key_idx = column_of(table, key_column)?;
            let value_idx = column_of(table, value_column)?;
            let values = eval_depth(values, table, depth + 1)?;
            let candidates = match values {
                Denotation::Values(v) => v,
                other => {
                    return Err(DcsError::TypeMismatch {
                        operator: "compare",
                        expected: "values",
                        found: other.kind(),
                    })
                }
            };
            let mut rows: Vec<RecordIdx> = Vec::new();
            for tv in &candidates {
                rows.extend(table.filter_eq(value_idx, &tv.value));
            }
            rows.sort_unstable();
            rows.dedup();
            let mut best: Option<Value> = None;
            for &record in &rows {
                let Some(key) = table.value_at(record, key_idx) else {
                    continue;
                };
                let better = match (&best, op) {
                    (None, _) => true,
                    (Some(current), SuperlativeOp::Argmax) => &key > current,
                    (Some(current), SuperlativeOp::Argmin) => &key < current,
                };
                if better {
                    best = Some(key);
                }
            }
            let Some(best) = best else {
                return Ok(Denotation::Values(Vec::new()));
            };
            let mut out: Vec<TracedValue> = Vec::new();
            for &record in &rows {
                if !table.eq_at(record, key_idx, &best) {
                    continue;
                }
                let Some(value) = table.value_at(record, value_idx) else {
                    continue;
                };
                let cell = CellRef::new(record, value_idx);
                if let Some(existing) = out.iter_mut().find(|tv| tv.value == value) {
                    existing.cells.push(cell);
                } else {
                    out.push(TracedValue {
                        value,
                        cells: vec![cell],
                    });
                }
            }
            Ok(Denotation::Values(out))
        }
        Formula::Sub(a, b) => {
            let left = eval_depth(a, table, depth + 1)?;
            let right = eval_depth(b, table, depth + 1)?;
            let left = expect_number("difference", &left)?;
            let right = expect_number("difference", &right)?;
            Ok(Denotation::Number(left - right))
        }
    }
}

fn column_of(table: &Table, name: &str) -> Result<usize> {
    table
        .column_index(name)
        .ok_or_else(|| DcsError::UnknownColumn(name.to_string()))
}

fn eval_const(table: &Table, value: &Value) -> Denotation {
    let mut cells = Vec::new();
    for column in 0..table.num_columns() {
        for record in table.record_indices() {
            if table.eq_at(record, column, value) {
                cells.push(CellRef::new(record, column));
            }
        }
    }
    cells.sort_unstable();
    Denotation::Values(vec![TracedValue {
        value: value.clone(),
        cells,
    }])
}

fn project_column(table: &Table, column: usize, records: &BTreeSet<RecordIdx>) -> Denotation {
    let mut out: Vec<TracedValue> = Vec::new();
    for &record in records {
        let Some(value) = table.value_at(record, column) else {
            continue;
        };
        let cell = CellRef::new(record, column);
        if let Some(existing) = out.iter_mut().find(|tv| tv.value == value) {
            existing.cells.push(cell);
        } else {
            out.push(TracedValue {
                value,
                cells: vec![cell],
            });
        }
    }
    Denotation::Values(out)
}

fn superlative_records(
    table: &Table,
    op: SuperlativeOp,
    records: &BTreeSet<RecordIdx>,
    column: usize,
) -> BTreeSet<RecordIdx> {
    let mut best: Option<Value> = None;
    for &record in records {
        let Some(value) = table.value_at(record, column) else {
            continue;
        };
        let better = match (&best, op) {
            (None, _) => true,
            (Some(current), SuperlativeOp::Argmax) => &value > current,
            (Some(current), SuperlativeOp::Argmin) => &value < current,
        };
        if better {
            best = Some(value);
        }
    }
    let Some(best) = best else {
        return BTreeSet::new();
    };
    records
        .iter()
        .copied()
        .filter(|&record| table.eq_at(record, column, &best))
        .collect()
}

fn expect_records(operator: &'static str, denotation: Denotation) -> Result<BTreeSet<RecordIdx>> {
    match denotation {
        Denotation::Records(r) => Ok(r),
        other => Err(DcsError::TypeMismatch {
            operator,
            expected: "records",
            found: other.kind(),
        }),
    }
}

fn expect_number(operator: &'static str, denotation: &Denotation) -> Result<f64> {
    denotation
        .as_single_number()
        .ok_or_else(|| match denotation {
            Denotation::Values(v) => DcsError::Cardinality {
                operator,
                expected: "a single numeric value",
                got: v.len(),
            },
            other => DcsError::TypeMismatch {
                operator,
                expected: "a number",
                found: other.kind(),
            },
        })
}

fn eval_aggregate(op: AggregateOp, inner: Denotation) -> Result<Denotation> {
    if op == AggregateOp::Count {
        return Ok(Denotation::Number(match &inner {
            Denotation::Records(r) => r.len() as f64,
            Denotation::Values(v) => v.iter().map(|tv| tv.cells.len().max(1)).sum::<usize>() as f64,
            Denotation::Number(_) => 1.0,
        }));
    }
    let numbers = match &inner {
        Denotation::Values(values) => {
            let mut numbers = Vec::with_capacity(values.len());
            for tv in values {
                let occurrences = tv.cells.len().max(1);
                let number = tv.value.as_number().ok_or_else(|| DcsError::NonNumeric {
                    operator: op.name(),
                    value: tv.value.to_string(),
                })?;
                numbers.extend(std::iter::repeat_n(number, occurrences));
            }
            numbers
        }
        Denotation::Number(n) => vec![*n],
        Denotation::Records(_) => {
            return Err(DcsError::TypeMismatch {
                operator: op.name(),
                expected: "values",
                found: "records",
            })
        }
    };
    if numbers.is_empty() {
        return Err(DcsError::Cardinality {
            operator: op.name(),
            expected: "a non-empty value set",
            got: 0,
        });
    }
    let result = match op {
        AggregateOp::Max => numbers.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        AggregateOp::Min => numbers.iter().copied().fold(f64::INFINITY, f64::min),
        AggregateOp::Sum => numbers.iter().sum(),
        AggregateOp::Avg => numbers.iter().sum::<f64>() / numbers.len() as f64,
        AggregateOp::Count => unreachable!("count handled above"),
    };
    Ok(Denotation::Number(result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtq_dcs::{eval, parse_formula};
    use wtq_table::samples;

    #[test]
    fn reference_agrees_with_indexed_on_paper_examples() {
        let olympics = samples::olympics();
        let wrecks = samples::shipwrecks();
        let squad = samples::squad();
        let cases: Vec<(&str, &Table)> = vec![
            ("City.Athens", &olympics),
            ("R[Year].City.Athens", &olympics),
            ("R[Year].Prev.City.Athens", &olympics),
            ("sum(R[Year].City.Athens)", &olympics),
            ("sub(R[Year].City.London, R[Year].City.Beijing)", &olympics),
            ("(City.London and Country.UK)", &olympics),
            ("(Country.China or Country.Greece)", &olympics),
            ("argmax(Rows, Year)", &olympics),
            ("R[Year].last(City.Athens)", &olympics),
            ("most_common((Athens or London), City)", &olympics),
            ("compare_max((London or Beijing), Year, City)", &olympics),
            ("most_common(R[Lake].Rows, Lake)", &wrecks),
            ("Games.(> 4)", &squad),
            ("(Games.(>= 5) and Games.(< 17))", &squad),
        ];
        for (text, table) in cases {
            let formula = parse_formula(text).expect("parses");
            // Compare full results: denotations (with cell traces) must match
            // and data-dependent errors must match too.
            assert_eq!(
                eval_reference(&formula, table),
                eval(&formula, table),
                "divergence on {text}"
            );
        }
    }

    #[test]
    fn reference_reports_same_errors() {
        let table = samples::olympics();
        let bad = parse_formula("R[Missing].City.Athens").unwrap();
        assert_eq!(
            eval_reference(&bad, &table).unwrap_err(),
            eval(&bad, &table).unwrap_err()
        );
    }
}
