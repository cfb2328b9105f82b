//! Property-based tests for the provenance model.

use proptest::prelude::*;
use wtq_dcs::eval::MAX_EVAL_DEPTH;
use wtq_dcs::{AggregateOp, CompareOp, DcsError, Evaluator, Formula, SuperlativeOp};
use wtq_provenance::{provenance, provenance_with, Highlights};
use wtq_table::{samples, CellRef, Value};

fn column() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("Year".to_string()),
        Just("Country".to_string()),
        Just("City".to_string())
    ]
}

fn constant() -> impl Strategy<Value = Formula> {
    prop_oneof![
        Just(Formula::Const(Value::str("Greece"))),
        Just(Formula::Const(Value::str("Athens"))),
        Just(Formula::Const(Value::str("London"))),
        Just(Formula::Const(Value::str("Missing"))),
        (1890i32..2020).prop_map(|y| Formula::Const(Value::num(f64::from(y)))),
    ]
}

fn records_formula() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::AllRecords),
        (column(), constant()).prop_map(|(column, values)| Formula::Join {
            column,
            values: Box::new(values)
        }),
        (any::<bool>(), 1890f64..2020f64).prop_map(|(gt, t)| Formula::CompareJoin {
            column: "Year".to_string(),
            op: if gt { CompareOp::Gt } else { CompareOp::Leq },
            value: Box::new(Formula::Const(Value::Num(t.round()))),
        }),
    ];
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|r| Formula::Prev(Box::new(r))),
            inner.clone().prop_map(|r| Formula::Next(Box::new(r))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Formula::Intersect(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Formula::Union(Box::new(a), Box::new(b))),
            (inner.clone(), column(), any::<bool>()).prop_map(|(r, column, max)| {
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

fn any_formula() -> impl Strategy<Value = Formula> {
    records_formula().prop_flat_map(|records| {
        let records2 = records.clone();
        prop_oneof![
            Just(records.clone()),
            column().prop_map(move |c| Formula::ColumnValues {
                column: c,
                records: Box::new(records.clone()),
            }),
            column().prop_map(move |c| Formula::Aggregate {
                op: AggregateOp::Count,
                sub: Box::new(Formula::ColumnValues {
                    column: c,
                    records: Box::new(records2.clone()),
                }),
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Definition 4.1: the provenance sets always form the chain
    /// `P_O ⊆ P_E ⊆ P_C`, and every cell lies inside the table.
    #[test]
    fn provenance_chain_is_well_formed(formula in any_formula()) {
        let table = samples::olympics();
        if let Ok(chain) = provenance(&formula, &table) {
            prop_assert!(chain.is_well_formed());
            for cell in chain.columns.iter() {
                prop_assert!(cell.record < table.num_records());
                prop_assert!(cell.column < table.num_columns());
            }
        }
    }

    /// The highlight classification is consistent with the chain: colored
    /// cells come from P_O, framed from P_E, lit from P_C, and the class
    /// counts partition P_C.
    #[test]
    fn highlight_classes_partition_the_column_provenance(formula in any_formula()) {
        use wtq_provenance::HighlightKind;
        let table = samples::olympics();
        if let Ok(highlights) = Highlights::compute(&formula, &table) {
            let (colored, framed_only, lit_only) = highlights.class_counts();
            prop_assert_eq!(colored + framed_only + lit_only, highlights.chain.columns.len());
            for record in 0..table.num_records() {
                for column in 0..table.num_columns() {
                    let cell = CellRef::new(record, column);
                    match highlights.kind(cell) {
                        HighlightKind::Colored => prop_assert!(highlights.chain.output.contains(&cell)),
                        HighlightKind::Framed => {
                            prop_assert!(highlights.chain.execution.contains(&cell));
                            prop_assert!(!highlights.chain.output.contains(&cell));
                        }
                        HighlightKind::Lit => {
                            prop_assert!(highlights.chain.columns.contains(&cell));
                            prop_assert!(!highlights.chain.execution.contains(&cell));
                        }
                        HighlightKind::None => {
                            prop_assert!(!highlights.chain.columns.contains(&cell));
                        }
                    }
                }
            }
        }
    }

    /// Provenance on a shared evaluator session whose denotation memo is
    /// warm from a batch of other formulas equals provenance on a fresh
    /// evaluator, errors included — the memo never changes a chain.
    #[test]
    fn shared_evaluator_provenance_matches_fresh(
        batch in proptest::collection::vec(any_formula(), 1..8),
        formula in any_formula(),
    ) {
        let table = samples::olympics();
        let shared = Evaluator::new(&table);
        for warm in &batch {
            let _ = shared.eval(warm);
        }
        for formula in batch.iter().chain([&formula]) {
            prop_assert_eq!(provenance_with(formula, &shared), provenance(formula, &table));
            prop_assert_eq!(
                Highlights::compute_with(formula, &shared),
                Highlights::compute(formula, &table)
            );
        }
    }

    /// Output provenance of a value-denoting query covers the traced cells of
    /// its denotation (the colored cells really are the answer's cells).
    #[test]
    fn output_provenance_covers_denotation_cells(records in records_formula()) {
        let table = samples::olympics();
        let formula = Formula::ColumnValues { column: "City".to_string(), records: Box::new(records) };
        if let (Ok(chain), Ok(denotation)) = (provenance(&formula, &table), wtq_dcs::eval(&formula, &table)) {
            for cell in denotation.traced_cells() {
                prop_assert!(chain.output.contains(&cell), "missing output cell {cell}");
            }
        }
    }
}

/// A formula nested past `MAX_EVAL_DEPTH` whose shallow branch the shared
/// memo already holds: the memo hit must replay the depth guard a fresh
/// recursion trips, so the shared and fresh paths fail alike.
#[test]
fn shared_evaluator_replays_the_depth_guard() {
    let table = samples::olympics();
    let mut shallow = Formula::Join {
        column: "Country".to_string(),
        values: Box::new(Formula::Const(Value::str("Greece"))),
    };
    for _ in 0..10 {
        shallow = Formula::Prev(Box::new(shallow));
    }
    let mut deep = shallow.clone();
    for _ in 0..(MAX_EVAL_DEPTH - 4) {
        deep = Formula::Prev(Box::new(deep));
    }
    let formula = Formula::SuperlativeRecords {
        op: SuperlativeOp::Argmax,
        records: Box::new(Formula::Intersect(
            Box::new(shallow.clone()),
            Box::new(deep),
        )),
        column: "Year".to_string(),
    };
    let shared = Evaluator::new(&table);
    shared.eval(&shallow).expect("the shallow branch evaluates");
    let fresh = provenance(&formula, &table);
    assert!(
        matches!(fresh, Err(DcsError::DepthExceeded(_))),
        "{fresh:?}"
    );
    assert_eq!(provenance_with(&formula, &shared), fresh);
    assert_eq!(
        Highlights::compute_with(&formula, &shared),
        Highlights::compute(&formula, &table)
    );
}
