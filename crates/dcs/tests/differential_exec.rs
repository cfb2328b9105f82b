//! Differential suite: the indexed evaluator must produce denotations —
//! including provenance cell traces — identical to the scan-based reference
//! semantics (`wtq_oracle::reference`) on random tables and random formulas,
//! and a warm evaluator session (denotation cache populated) must agree with
//! a cold one. Its untraced [`Evaluator::answer`] must equal the canonical
//! answer of the reference denotation, bit for bit.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use wtq_dcs::eval::MAX_EVAL_DEPTH;
use wtq_dcs::{AggregateOp, Answer, CompareOp, DcsError, Evaluator, Formula, SuperlativeOp};
use wtq_oracle::eval_reference;
use wtq_table::{samples, Table, TableBuilder, Value};

/// Cell text drawn from a small vocabulary (so joins hit repeated values)
/// plus numbers, dates and arbitrary short strings.
fn cell_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("Greece".to_string()),
        Just("Athens".to_string()),
        Just("France".to_string()),
        Just("ab cd".to_string()),
        Just(String::new()),
        (0i32..40).prop_map(|n| n.to_string()),
        (0i32..40).prop_map(|n| n.to_string()),
        (1900i32..2020).prop_map(|y| format!("June {}, {}", (y % 27) + 1, y)),
        proptest::string::string_regex("[a-z]{0,6}")
            .expect("valid regex")
            .prop_map(|s| s),
        (0u32..4000).prop_map(|n| format!("{}.{:02}", n / 100, n % 100)),
    ]
}

/// Random tables: 1–5 columns, 0–16 rows, mixed cell types.
fn table_strategy() -> impl Strategy<Value = Table> {
    (1usize..=5, 0usize..=16).prop_flat_map(|(cols, rows)| {
        let header: Vec<String> = (0..cols).map(|i| format!("Col{i}")).collect();
        proptest::collection::vec(proptest::collection::vec(cell_text(), cols), rows).prop_map(
            move |rows| {
                let mut builder = TableBuilder::new("diff").columns(header.clone());
                for row in &rows {
                    builder = builder.row_text(row).expect("arity matches");
                }
                builder.build().expect("non-empty header")
            },
        )
    })
}

/// A column name valid for `num_columns`-wide tables, plus an occasionally
/// unknown one (both engines must report the same error).
fn column_name(num_columns: usize) -> impl Strategy<Value = String> {
    prop_oneof![
        (0..num_columns).prop_map(|i| format!("Col{i}")),
        (0..num_columns).prop_map(|i| format!("Col{i}")),
        (0..num_columns).prop_map(|i| format!("Col{i}")),
        Just("Missing".to_string()),
    ]
}

fn constant() -> impl Strategy<Value = Formula> {
    prop_oneof![
        cell_text().prop_map(|text| Formula::Const(Value::parse(&text))),
        (0i32..40).prop_map(|n| Formula::Const(Value::num(f64::from(n)))),
    ]
}

/// Comparison thresholds for `column`: a quarter from a continuous range,
/// half on the cell vocabulary's numbers (its integers and `n.nn`
/// decimals) and a quarter the column's own first or last cell, so that a
/// threshold often equals a cell and `<=`/`>=` differ from `<`/`>`.
fn threshold(column: String) -> impl Strategy<Value = Formula> {
    let number = |n: f64| Formula::Const(Value::Num(n));
    prop_oneof![
        (-5f64..45f64).prop_map(number),
        (0i32..40).prop_map(move |n| number(f64::from(n))),
        (0u32..4000).prop_map(move |n| {
            number(
                Value::parse(&format!("{}.{:02}", n / 100, n % 100))
                    .as_number()
                    .expect("a decimal"),
            )
        }),
        any::<bool>().prop_map(move |last| Formula::ColumnValues {
            column: column.clone(),
            records: Box::new(Formula::RecordIndexSuperlative {
                op: if last {
                    SuperlativeOp::Argmax
                } else {
                    SuperlativeOp::Argmin
                },
                records: Box::new(Formula::AllRecords),
            }),
        }),
    ]
}

/// Record-denoting formulas over `cols`-wide tables.
fn records_formula(cols: usize) -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::AllRecords),
        (column_name(cols), constant()).prop_map(|(column, values)| Formula::Join {
            column,
            values: Box::new(values)
        }),
        column_name(cols)
            .prop_flat_map(|column| (Just(column.clone()), 0u8..5, threshold(column)))
            .prop_map(|(column, op, threshold)| {
                let op = [
                    CompareOp::Lt,
                    CompareOp::Leq,
                    CompareOp::Gt,
                    CompareOp::Geq,
                    CompareOp::Neq,
                ][op as usize];
                Formula::CompareJoin {
                    column,
                    op,
                    value: Box::new(threshold),
                }
            }),
    ];
    leaf.prop_recursive(3, 24, 4, move |inner| {
        prop_oneof![
            inner.clone().prop_map(|r| Formula::Prev(Box::new(r))),
            inner.clone().prop_map(|r| Formula::Next(Box::new(r))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Formula::Intersect(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Formula::Union(Box::new(a), Box::new(b))),
            (inner.clone(), column_name(cols), any::<bool>()).prop_map(|(r, column, max)| {
                Formula::SuperlativeRecords {
                    op: if max {
                        SuperlativeOp::Argmax
                    } else {
                        SuperlativeOp::Argmin
                    },
                    records: Box::new(r),
                    column,
                }
            }),
            (inner, any::<bool>()).prop_map(|(r, max)| Formula::RecordIndexSuperlative {
                op: if max {
                    SuperlativeOp::Argmax
                } else {
                    SuperlativeOp::Argmin
                },
                records: Box::new(r),
            }),
        ]
    })
}

/// Any well-formed formula (records, values or numbers) over `cols`-wide
/// tables, including the value-level operators.
fn any_formula(cols: usize) -> impl Strategy<Value = Formula> {
    records_formula(cols).prop_flat_map(move |records| {
        let projected = records.clone();
        let counted = records.clone();
        let compared = records.clone();
        prop_oneof![
            Just(records),
            column_name(cols).prop_map(move |column| Formula::ColumnValues {
                column,
                records: Box::new(projected.clone()),
            }),
            (column_name(cols), 0u8..5).prop_map(move |(column, op)| {
                let op = [
                    AggregateOp::Count,
                    AggregateOp::Max,
                    AggregateOp::Min,
                    AggregateOp::Sum,
                    AggregateOp::Avg,
                ][op as usize];
                Formula::Aggregate {
                    op,
                    sub: Box::new(Formula::ColumnValues {
                        column,
                        records: Box::new(counted.clone()),
                    }),
                }
            }),
            (column_name(cols), column_name(cols), any::<bool>()).prop_map(
                move |(column, values_col, max)| {
                    let op = if max {
                        SuperlativeOp::Argmax
                    } else {
                        SuperlativeOp::Argmin
                    };
                    Formula::MostCommonValue {
                        op,
                        values: Box::new(Formula::ColumnValues {
                            column: values_col,
                            records: Box::new(Formula::AllRecords),
                        }),
                        column,
                    }
                }
            ),
            (
                column_name(cols),
                column_name(cols),
                constant(),
                any::<bool>()
            )
                .prop_map(move |(key_column, value_column, value, max)| {
                    Formula::CompareValues {
                        op: if max {
                            SuperlativeOp::Argmax
                        } else {
                            SuperlativeOp::Argmin
                        },
                        values: Box::new(Formula::Union(
                            Box::new(value),
                            Box::new(Formula::ColumnValues {
                                column: value_column.clone(),
                                records: Box::new(compared.clone()),
                            }),
                        )),
                        key_column,
                        value_column,
                    }
                }),
        ]
    })
}

/// A pool of formulas sharing `base` the way a candidate pool does: per
/// column, its projection under every aggregate (some folded before the
/// traced projection runs, some after), the count of the base, a
/// difference of two projections, a most-common value over the projection
/// and a superlative over the base.
fn shared_base_pool(base: &Formula, columns: usize) -> Vec<Formula> {
    let projection = |c: usize| Formula::ColumnValues {
        column: format!("Col{c}"),
        records: Box::new(base.clone()),
    };
    (0..columns)
        .flat_map(|c| {
            vec![
                Formula::aggregate(AggregateOp::Count, projection(c)),
                Formula::aggregate(AggregateOp::Min, projection(c)),
                projection(c),
                Formula::aggregate(AggregateOp::Count, base.clone()),
                Formula::aggregate(AggregateOp::Max, projection(c)),
                Formula::aggregate(AggregateOp::Sum, projection(c)),
                Formula::aggregate(AggregateOp::Avg, projection(c)),
                Formula::Sub(
                    Box::new(projection(c)),
                    Box::new(projection((c + 1) % columns)),
                ),
                Formula::MostCommonValue {
                    op: SuperlativeOp::Argmax,
                    values: Box::new(projection(c)),
                    column: format!("Col{}", (c + 1) % columns),
                },
                Formula::SuperlativeRecords {
                    op: SuperlativeOp::Argmax,
                    records: Box::new(base.clone()),
                    column: format!("Col{c}"),
                },
            ]
        })
        .collect()
}

/// A value of an answer, compared exactly: numbers by bits.
#[derive(Debug, PartialEq)]
enum ExactValue {
    Num(u64),
    Other(String),
}

/// An answer compared exactly ([`Answer`]'s own equality is tolerant).
#[derive(Debug, PartialEq)]
enum ExactAnswer {
    Number(u64),
    Values(Vec<ExactValue>),
    Records(Vec<usize>),
}

fn exact(answer: Result<Answer, DcsError>) -> Result<ExactAnswer, DcsError> {
    answer.map(|answer| match answer {
        Answer::Number(n) => ExactAnswer::Number(n.to_bits()),
        Answer::Values(values) => ExactAnswer::Values(
            values
                .into_iter()
                .map(|value| match value {
                    Value::Num(n) => ExactValue::Num(n.to_bits()),
                    other => ExactValue::Other(format!("{other:?}")),
                })
                .collect(),
        ),
        Answer::Records(records) => ExactAnswer::Records(records),
    })
}

/// A column's cells, drawn to land on both sides of the index's exact flag:
/// integers with ±0 and year-only dates beside equal numbers, or
/// case-variant strings (exact); numbers within 1e-9 relative of each
/// other, or a NaN (not exact); or all of these mixed.
fn class_column(rows: usize) -> impl Strategy<Value = Vec<Value>> {
    let exact_numbers = prop_oneof![
        (0i32..5).prop_map(|n| Value::num(f64::from(n))),
        Just(Value::num(0.0)),
        Just(Value::num(-0.0)),
        (2000i32..2003).prop_map(|y| Value::num(f64::from(y))),
        (2000i32..2003).prop_map(Value::year),
        (2000i32..2003).prop_map(|y| Value::date(y, 6, 1)),
    ]
    .boxed();
    let strings = prop_oneof![
        Just(Value::str("Athens")),
        Just(Value::str("athens")),
        Just(Value::str("ATHENS")),
        Just(Value::str("Paris")),
        Just(Value::str("pARIS")),
        Just(Value::str("")),
    ]
    .boxed();
    let near_numbers = prop_oneof![
        (1i32..4).prop_map(|n| Value::num(f64::from(n))),
        (1i32..4).prop_map(|n| Value::num(f64::from(n) * (1.0 + 4e-10))),
        (2000i32..2002).prop_map(|y| Value::num(f64::from(y) + 1e-6)),
        (2000i32..2002).prop_map(Value::year),
        // Equal, but on either side of the hash's rounding boundary.
        Just(Value::num(2.000_005_000_000_1)),
        Just(Value::num(2.000_004_999_999_9)),
    ]
    .boxed();
    let with_nan = prop_oneof![
        (0i32..4).prop_map(|n| Value::num(f64::from(n))),
        Just(Value::num(f64::NAN)),
    ]
    .boxed();
    let mixed = prop_oneof![
        exact_numbers.clone(),
        strings.clone(),
        near_numbers.clone(),
        with_nan.clone(),
    ];
    prop_oneof![
        proptest::collection::vec(exact_numbers, rows),
        proptest::collection::vec(strings, rows),
        proptest::collection::vec(near_numbers, rows),
        proptest::collection::vec(with_nan, rows),
        proptest::collection::vec(mixed, rows),
    ]
}

/// Random tables of [`class_column`]s: 1–4 columns, 0–14 rows.
fn class_table() -> impl Strategy<Value = Table> {
    (1usize..=4, 0usize..=14).prop_flat_map(|(cols, rows)| {
        proptest::collection::vec(class_column(rows), cols).prop_map(move |columns| {
            let mut builder =
                TableBuilder::new("classes").columns((0..cols).map(|i| format!("Col{i}")));
            for row in 0..rows {
                let cells = columns.iter().map(|column| column[row].clone()).collect();
                builder = builder.row(cells).expect("arity matches");
            }
            builder.build().expect("non-empty header")
        })
    })
}

/// [`exact`] of a bounded answer.
fn exact_bounded(
    answer: Result<Option<Answer>, DcsError>,
) -> Result<Option<ExactAnswer>, DcsError> {
    answer.map(|answer| answer.map(|answer| exact(Ok(answer)).expect("an answer")))
}

/// The canonical answer of the scan reference's denotation.
fn reference_answer(formula: &Formula, table: &Table) -> Result<ExactAnswer, DcsError> {
    exact(eval_reference(formula, table).map(|denotation| Answer::from_denotation(&denotation)))
}

/// Whether every two equal cells of `columns` hash alike. `Value`'s hash
/// rounds numbers, so two equal numbers astride a rounding boundary (the
/// pair in [`class_column`]'s near numbers) hash apart: a hashed join of
/// one misses the other, and a hashed grouping keeps them apart, where the
/// scan reference finds and merges them (see `Value`'s `Hash`).
fn hashes_agree_with_equality(table: &Table, columns: &[usize]) -> bool {
    let hash = |value: &Value| {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    };
    let cells: Vec<Value> = columns
        .iter()
        .flat_map(|&c| table.record_indices().map(move |r| (r, c)))
        .map(|(record, c)| table.value_at(record, c).expect("in range"))
        .collect();
    cells
        .iter()
        .all(|a| cells.iter().all(|b| a != b || hash(a) == hash(b)))
}

/// The value-level superlatives keyed by column `column` of `table`, over
/// record base `base`: most-common values of the column's projection,
/// counted in the column and in `other`, and their count; superlative
/// records over the base; and comparisons of two of the table's values
/// (`picks` choose their records), found in the column or in `other`.
fn class_superlatives(
    table: &Table,
    base: &Formula,
    column: usize,
    other: usize,
    picks: (usize, usize),
) -> Vec<Formula> {
    let name = |c: usize| format!("Col{c}");
    let projection = Formula::ColumnValues {
        column: name(column),
        records: Box::new(base.clone()),
    };
    let pick = |record: usize, c: usize| {
        let value = match table.num_records() {
            0 => Value::str("Athens"),
            rows => table.value_at(record % rows, c).expect("in range"),
        };
        Box::new(Formula::Const(value))
    };
    let mut formulas = Vec::new();
    for op in [SuperlativeOp::Argmax, SuperlativeOp::Argmin] {
        for counted in [column, other] {
            let most_common = Formula::MostCommonValue {
                op,
                values: Box::new(projection.clone()),
                column: name(counted),
            };
            formulas.push(Formula::aggregate(AggregateOp::Count, most_common.clone()));
            formulas.push(most_common);
        }
        formulas.push(Formula::SuperlativeRecords {
            op,
            records: Box::new(base.clone()),
            column: name(column),
        });
        for value_column in [column, other] {
            formulas.push(Formula::CompareValues {
                op,
                values: Box::new(Formula::Union(
                    pick(picks.0, value_column),
                    pick(picks.1, value_column),
                )),
                key_column: name(column),
                value_column: name(value_column),
            });
        }
    }
    formulas
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Indexed execution equals the scan reference: same denotations (values
    /// in the same order with the same cell traces, identical record sets,
    /// identical numbers) and same errors.
    #[test]
    fn indexed_eval_matches_scan_reference(
        (table, formula) in table_strategy()
            .prop_flat_map(|t| {
                let cols = t.num_columns();
                (Just(t), any_formula(cols))
            })
    ) {
        let session = Evaluator::new(&table);
        prop_assert_eq!(session.eval(&formula), eval_reference(&formula, &table));
    }

    /// A warm session (memoized record denotations) agrees with the scan
    /// reference on every formula of a pool sharing subformulas — the
    /// cross-candidate cache must never change results.
    #[test]
    fn warm_session_matches_scan_reference(
        (table, base) in table_strategy()
            .prop_flat_map(|t| {
                let cols = t.num_columns();
                (Just(t), records_formula(cols))
            })
    ) {
        let session = Evaluator::new(&table);
        let pool = shared_base_pool(&base, table.num_columns());
        // Evaluate the pool twice: second pass is fully cache-backed.
        for formula in pool.iter().chain(pool.iter()) {
            prop_assert_eq!(session.eval(formula), eval_reference(formula, &table));
        }
    }

    /// `Evaluator::answer` on a cold session equals the canonical answer of
    /// the reference denotation: same values, numbers bit-equal, same
    /// errors.
    #[test]
    fn cold_answer_matches_scan_reference(
        (table, formula) in table_strategy()
            .prop_flat_map(|t| {
                let cols = t.num_columns();
                (Just(t), any_formula(cols))
            })
    ) {
        let session = Evaluator::new(&table);
        prop_assert_eq!(exact(session.answer(&formula)), reference_answer(&formula, &table));
    }

    /// The same on a warm session, with traced evaluation and answers
    /// interleaved over a shared-base pool, so answers read groupings that
    /// aggregates memoized and aggregates read groupings that answers did.
    #[test]
    fn warm_answer_matches_scan_reference(
        (table, base) in table_strategy()
            .prop_flat_map(|t| {
                let cols = t.num_columns();
                (Just(t), records_formula(cols))
            })
    ) {
        let session = Evaluator::new(&table);
        let pool = shared_base_pool(&base, table.num_columns());
        for (i, formula) in pool.iter().chain(pool.iter()).enumerate() {
            if i % 3 == 0 {
                prop_assert_eq!(session.eval(formula), eval_reference(formula, &table));
            }
            prop_assert_eq!(exact(session.answer(formula)), reference_answer(formula, &table));
        }
    }

    /// On every column the index marks exact, where projections group by
    /// class ids: traced and untraced projections, aggregates and bounded
    /// answers over a record base equal the scan reference, numbers by
    /// bits, and a bounded answer is `None` exactly when the reference
    /// answer holds more values than the bound. The tables mix columns on
    /// both sides of the flag.
    #[test]
    fn class_grouped_projections_match_scan_reference(
        (table, base) in class_table()
            .prop_flat_map(|t| {
                let cols = t.num_columns();
                (Just(t), records_formula(cols))
            })
    ) {
        let session = Evaluator::new(&table);
        for column in 0..table.num_columns() {
            if !session.index().column(column).is_exact() {
                continue;
            }
            let projection = Formula::ColumnValues {
                column: format!("Col{column}"),
                records: Box::new(base.clone()),
            };
            // Debug text tells every two non-NaN floats apart.
            prop_assert_eq!(
                format!("{:?}", session.eval(&projection)),
                format!("{:?}", eval_reference(&projection, &table))
            );
            let aggregates = [
                AggregateOp::Count,
                AggregateOp::Max,
                AggregateOp::Min,
                AggregateOp::Sum,
                AggregateOp::Avg,
            ]
            .map(|op| Formula::aggregate(op, projection.clone()));
            for formula in std::iter::once(&projection).chain(&aggregates) {
                prop_assert_eq!(exact(session.answer(formula)), reference_answer(formula, &table));
                let reference =
                    eval_reference(formula, &table).map(|denotation| Answer::from_denotation(&denotation));
                for bound in 0..=table.num_records() + 1 {
                    let expected = reference
                        .clone()
                        .map(|answer| (answer.len() <= bound).then_some(answer));
                    prop_assert_eq!(
                        exact_bounded(session.bounded_answer(formula, bound)),
                        exact_bounded(expected)
                    );
                }
            }
        }
    }

    /// On every column the index marks exact, the value-level superlatives
    /// keyed by it ([`class_superlatives`]) equal the scan reference: the
    /// traced denotation as Debug text, and the bounded answer for every
    /// bound, `None` exactly when the reference answer holds more values.
    /// The other counting and value column is the next column, on either
    /// side of the flag, unless two equal cells of the pair hash apart
    /// ([`hashes_agree_with_equality`]); then it is the column itself.
    #[test]
    fn class_superlatives_match_scan_reference(
        (table, base, picks) in class_table()
            .prop_flat_map(|t| {
                let cols = t.num_columns();
                (Just(t), records_formula(cols), (any::<usize>(), any::<usize>()))
            })
    ) {
        let session = Evaluator::new(&table);
        let cols = table.num_columns();
        for column in 0..cols {
            if !session.index().column(column).is_exact() {
                continue;
            }
            let next = (column + 1) % cols;
            let other = if hashes_agree_with_equality(&table, &[column, next]) {
                next
            } else {
                column
            };
            for formula in class_superlatives(&table, &base, column, other, picks) {
                prop_assert_eq!(
                    format!("{:?}", session.eval(&formula)),
                    format!("{:?}", eval_reference(&formula, &table)),
                    "{}",
                    formula
                );
                let reference = eval_reference(&formula, &table)
                    .map(|denotation| Answer::from_denotation(&denotation));
                for bound in 0..=table.num_records() + 1 {
                    let expected = reference
                        .clone()
                        .map(|answer| (answer.len() <= bound).then_some(answer));
                    prop_assert_eq!(
                        exact_bounded(session.bounded_answer(&formula, bound)),
                        exact_bounded(expected)
                    );
                }
            }
        }
    }

    /// Traced provenance cells always point at in-bounds cells that really
    /// hold the traced value.
    #[test]
    fn traces_point_at_matching_cells(
        (table, formula) in table_strategy()
            .prop_flat_map(|t| {
                let cols = t.num_columns();
                (Just(t), any_formula(cols))
            })
    ) {
        let session = Evaluator::new(&table);
        if let Ok(wtq_dcs::Denotation::Values(values)) = session.eval(&formula) {
            for tv in &values {
                for cell in &tv.cells {
                    let held = table.value_at(cell.record, cell.column);
                    prop_assert_eq!(held, Some(tv.value.clone()));
                }
            }
        }
    }
}

/// A memo hit deep in a formula reports the depth error a fresh recursion
/// would: the shallow branch caches B, and the deep branch reaches B at a
/// depth where recomputing it would exceed `MAX_EVAL_DEPTH`.
#[test]
fn cache_hit_depth_guard_matches_scan_reference() {
    let table = samples::olympics();
    let mut b = Formula::join_str("Country", "Greece");
    for _ in 0..10 {
        b = Formula::Prev(Box::new(b));
    }
    let mut deep = b.clone();
    for _ in 0..(MAX_EVAL_DEPTH - 4) {
        deep = Formula::Prev(Box::new(deep));
    }
    let q = Formula::Intersect(Box::new(b), Box::new(deep));
    let session = Evaluator::new(&table);
    assert_eq!(session.eval(&q), eval_reference(&q, &table));
}
