//! Differential suite: every physical plan of the SQL engine — cold
//! cost-based (`Auto` with no index: columnar kernels), warm cost-based
//! (`Auto` with a pre-built index: index-vs-kernel by estimated
//! selectivity) and the pinned indexed path (`ForceIndex`) — must return
//! rows identical to the `ForceScan` reference on random tables and
//! queries, including the WHERE shapes the planner handles (`=`, numeric
//! comparisons, `IN` lists, `AND`/`OR`) and the hashed `DISTINCT` /
//! `UNION` dedup. It also cross-validates the translation: on the sample
//! tables, the translated SQL of each formula must execute to the formula's
//! lambda DCS answer.

use proptest::prelude::*;
use wtq_dcs::{eval, parse_formula, Answer, CompareOp};
use wtq_oracle::engine::Result;
use wtq_oracle::{PlanMode, SqlEngine, SqlResult};
use wtq_sql::ast::{SqlExpr, SqlQuery, SqlSelect};
use wtq_sql::translate;
use wtq_table::{samples, Table, TableBuilder, TableIndex, Value};

/// Run `query` under every plan mode (cold Auto, warm Auto, ForceIndex)
/// and check each against the ForceScan reference: same rows in the same
/// order, or the same error.
fn assert_all_modes_match_scan(
    query: &SqlQuery,
    table: &Table,
) -> std::result::Result<(), proptest::test_runner::TestCaseError> {
    let index = TableIndex::new(table);
    let cold = SqlEngine::new(table);
    let warm = SqlEngine::with_index(table, &index);
    let scanned = cold.execute(query, PlanMode::ForceScan);
    for (label, outcome) in [
        ("cold Auto", cold.execute(query, PlanMode::Auto)),
        ("warm Auto", warm.execute(query, PlanMode::Auto)),
        ("ForceIndex", warm.execute(query, PlanMode::ForceIndex)),
    ] {
        match (&outcome, &scanned) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{} rows diverge", label),
            (Err(a), Err(b)) => {
                prop_assert_eq!(a.to_string(), b.to_string(), "{} errors diverge", label)
            }
            (a, b) => prop_assert!(false, "{label}: result kinds diverge: {a:?} vs {b:?}"),
        }
    }
    Ok(())
}

fn cell_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("Greece".to_string()),
        Just("Athens".to_string()),
        Just("greece".to_string()),
        Just(String::new()),
        (0i32..25).prop_map(|n| n.to_string()),
        (0i32..25).prop_map(|n| n.to_string()),
        proptest::string::string_regex("[a-z]{0,5}")
            .expect("valid regex")
            .prop_map(|s| s),
    ]
}

/// Random tables: 1–5 columns, 0–14 rows.
fn table_strategy() -> impl Strategy<Value = Table> {
    (1usize..=5, 0usize..=14).prop_flat_map(|(cols, rows)| {
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

fn column_expr(cols: usize) -> impl Strategy<Value = SqlExpr> {
    prop_oneof![
        (0..cols).prop_map(|i| SqlExpr::Column(format!("Col{i}"))),
        (0..cols).prop_map(|i| SqlExpr::Column(format!("Col{i}"))),
        Just(SqlExpr::Column("Missing".to_string())),
    ]
}

fn literal() -> impl Strategy<Value = SqlExpr> {
    cell_text().prop_map(|text| SqlExpr::Literal(Value::parse(&text)))
}

/// WHERE clauses covering every planner shape plus the literal/column order
/// swap, recursively combined with AND / OR.
fn filter_strategy(cols: usize) -> impl Strategy<Value = SqlExpr> {
    let leaf = prop_oneof![
        (column_expr(cols), literal())
            .prop_map(|(column, lit)| { SqlExpr::Equals(Box::new(column), Box::new(lit)) }),
        (column_expr(cols), literal())
            .prop_map(|(column, lit)| { SqlExpr::Equals(Box::new(lit), Box::new(column)) }),
        (0u8..5, column_expr(cols), literal(), any::<bool>()).prop_map(
            |(op, column, lit, swap)| {
                let op = [
                    CompareOp::Lt,
                    CompareOp::Leq,
                    CompareOp::Gt,
                    CompareOp::Geq,
                    CompareOp::Neq,
                ][op as usize];
                if swap {
                    SqlExpr::Compare(op, Box::new(lit), Box::new(column))
                } else {
                    SqlExpr::Compare(op, Box::new(column), Box::new(lit))
                }
            }
        ),
        (
            column_expr(cols),
            proptest::collection::vec(cell_text().prop_map(|t| Value::parse(&t)), 0..4)
        )
            .prop_map(|(column, values)| SqlExpr::InList(Box::new(column), values)),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| SqlExpr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| SqlExpr::Or(Box::new(a), Box::new(b))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Planned SELECT (planned WHERE + hashed DISTINCT) equals the scan
    /// path under every plan mode, row for row, error for error.
    #[test]
    fn planned_select_matches_scan(
        (table, filter, distinct, project) in table_strategy().prop_flat_map(|t| {
            let cols = t.num_columns();
            let projection = (any::<bool>(), column_expr(cols))
                .prop_map(|(present, column)| present.then_some(column));
            (Just(t), filter_strategy(cols), any::<bool>(), projection)
        })
    ) {
        let select = SqlSelect {
            projection: project.into_iter().collect(),
            distinct,
            filter: Some(filter),
            group_by: None,
            order_by: None,
            limit: None,
        };
        let q = SqlQuery::Select(select);
        assert_all_modes_match_scan(&q, &table)?;
    }

    /// UNION dedup via the hashed row-key set equals the scan path's dedup.
    #[test]
    fn union_dedup_matches_scan(
        (table, (f1, f2), (p1, p2)) in table_strategy().prop_flat_map(|t| {
            let cols = t.num_columns();
            (
                Just(t),
                (filter_strategy(cols), filter_strategy(cols)),
                (column_expr(cols), column_expr(cols)),
            )
        })
    ) {
        let side = |filter: SqlExpr, projection: SqlExpr| {
            SqlQuery::select(SqlSelect::project(vec![projection]).with_filter(filter))
        };
        let q = SqlQuery::Union(Box::new(side(f1, p1)), Box::new(side(f2, p2)));
        assert_all_modes_match_scan(&q, &table)?;
    }
}

/// Translation-driven differential check: every paper operator's SQL form
/// runs identically through all plan modes, and matches the lambda DCS
/// answer where the translation is value-compatible.
#[test]
fn translated_operator_queries_match_scan() {
    let olympics = wtq_table::samples::olympics();
    let wrecks = wtq_table::samples::shipwrecks();
    let squad = wtq_table::samples::squad();
    let cases: Vec<(&str, &Table)> = vec![
        ("City.Athens", &olympics),
        ("R[Year].City.Athens", &olympics),
        ("R[Year].Prev.City.Athens", &olympics),
        ("R[Year].R[Prev].City.Athens", &olympics),
        ("sum(R[Year].City.Athens)", &olympics),
        ("sub(count(City.Athens), count(City.London))", &olympics),
        ("(Country.China or Country.Greece)", &olympics),
        ("(City.London and Country.UK)", &olympics),
        ("argmax(Rows, Year)", &olympics),
        ("R[Year].last(City.Athens)", &olympics),
        ("most_common((Athens or London), City)", &olympics),
        ("compare_max((London or Beijing), Year, City)", &olympics),
        ("most_common(R[Lake].Rows, Lake)", &wrecks),
        ("Games.(> 4)", &squad),
        ("(Games.(>= 5) and Games.(< 17))", &squad),
    ];
    for (text, table) in cases {
        let formula = wtq_dcs::parse_formula(text).expect("parses");
        let Ok(sql) = translate(&formula) else {
            continue;
        };
        let index = TableIndex::new(table);
        let cold = SqlEngine::new(table);
        let warm = SqlEngine::with_index(table, &index);
        let scanned = cold
            .execute(&sql, PlanMode::ForceScan)
            .expect("scan executes");
        for (label, mode, engine) in [
            ("cold Auto", PlanMode::Auto, &cold),
            ("warm Auto", PlanMode::Auto, &warm),
            ("ForceIndex", PlanMode::ForceIndex, &warm),
        ] {
            assert_eq!(
                engine.execute(&sql, mode).expect("planned executes"),
                scanned,
                "{label} divergence on {text}"
            );
        }
    }
}

fn execute(query: &SqlQuery, table: &Table) -> Result<SqlResult> {
    SqlEngine::new(table).execute(query, PlanMode::Auto)
}

/// Execute both the lambda DCS formula and its SQL translation and assert
/// they produce the same canonical answer.
fn assert_cross_validates(text: &str, table: &Table) {
    let formula = parse_formula(text).unwrap_or_else(|e| panic!("parse {text:?}: {e}"));
    let dcs_answer = Answer::from_denotation(
        &eval(&formula, table).unwrap_or_else(|e| panic!("eval {text:?}: {e}")),
    );
    let sql = translate(&formula).unwrap_or_else(|e| panic!("translate {text:?}: {e}"));
    let rows = execute(&sql, table).unwrap_or_else(|e| panic!("execute {}: {e}", sql.to_sql()));
    let sql_answer = if rows.len() == 1 && rows[0].len() == 1 {
        Answer::values([rows[0][0].clone()])
    } else {
        Answer::values(rows.iter().filter_map(|row| row.first().cloned()))
    };
    assert_eq!(
        dcs_answer,
        sql_answer,
        "lambda DCS and SQL disagree for {text:?}\n  sql: {}",
        sql.to_sql()
    );
}

#[test]
fn cross_validates_value_and_numeric_operators() {
    let olympics = samples::olympics();
    for text in [
        "R[Year].Country.Greece",
        "R[City].Country.Greece",
        "max(R[Year].Country.Greece)",
        "min(R[Year].Rows)",
        "count(City.Athens)",
        "sum(R[Year].Country.Greece)",
        "avg(R[Year].Country.UK)",
        "R[City].argmin(Rows, Year)",
        "R[Year].Prev.City.London",
        "R[City].R[Prev].City.Athens",
        "R[City].(Country.Greece or Country.China)",
        "R[City].(City.London and Country.UK)",
        "R[Year].last(Country.Greece)",
        "R[Year].first(Country.UK)",
        "R[City].Year.(> 2004)",
        "compare_max((London or Beijing), Year, City)",
        "compare_min((London or Beijing), Year, City)",
        "most_common((Athens or Paris), City)",
        "sub(max(R[Year].Rows), min(R[Year].Rows))",
    ] {
        assert_cross_validates(text, &olympics);
    }
}

#[test]
fn cross_validates_on_other_sample_tables() {
    let medals = samples::medals();
    for text in [
        "sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)",
        "R[Nation].argmin(Rows, Total)",
        "sum(R[Gold].Rows)",
        "count(Gold.(> 40))",
    ] {
        assert_cross_validates(text, &medals);
    }
    let wrecks = samples::shipwrecks();
    for text in [
        "sub(count(Lake.\"Lake Huron\"), count(Lake.\"Lake Erie\"))",
        "most_common(R[Lake].Rows, Lake)",
        "count((Lake.\"Lake Huron\" and Vessel.Steamer))",
    ] {
        assert_cross_validates(text, &wrecks);
    }
    let league = samples::usl_league();
    for text in [
        "max(R[Year].League.\"USL A-League\")",
        "R[Year].last(League.\"USL A-League\")",
        "min(R[Attendance].Rows)",
    ] {
        assert_cross_validates(text, &league);
    }
}

#[test]
fn record_formulas_execute_to_their_records() {
    let q = translate(&parse_formula("Country.Greece").unwrap()).unwrap();
    let rows = execute(&q, &samples::olympics()).unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn standalone_constant_translates_to_literal_row() {
    let q = translate(&parse_formula("Greece").unwrap()).unwrap();
    let rows = execute(&q, &samples::olympics()).unwrap();
    assert_eq!(rows, vec![vec![Value::str("Greece")]]);
}
