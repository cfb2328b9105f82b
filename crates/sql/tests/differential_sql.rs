//! Cross-validation of the SQL translation (the paper's Table 10): on the
//! sample tables, the translated SQL of each formula, run by the oracle's
//! row-by-row executor ([`wtq_oracle::execute_sql`]), must return the
//! formula's lambda DCS answer. Record formulas must return their records'
//! rows, in record order; value and numeric formulas the same canonical
//! answer.

use wtq_dcs::{eval, parse_formula, Answer, Denotation};
use wtq_oracle::{eval_reference, execute_sql, SqlResult};
use wtq_sql::translate;
use wtq_table::{samples, Table, Value};

/// Every paper operator's SQL form executes to the scan reference
/// evaluator's denotation ([`eval_reference`]): a record formula to the
/// rows of its records, any other formula to the same canonical answer.
#[test]
fn translated_operator_queries_match_scan() {
    let olympics = samples::olympics();
    let wrecks = samples::shipwrecks();
    let squad = samples::squad();
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
        // Not `most_common((Athens or London), City)`: the two tie, and the
        // translation's `ORDER BY COUNT(Index) DESC LIMIT 1` keeps one.
        ("most_common((Athens or Beijing), City)", &olympics),
        ("compare_max((London or Beijing), Year, City)", &olympics),
        ("most_common(R[Lake].Rows, Lake)", &wrecks),
        ("Games.(> 4)", &squad),
        ("(Games.(>= 5) and Games.(< 17))", &squad),
    ];
    for (text, table) in cases {
        let formula = parse_formula(text).expect("parses");
        let sql = translate(&formula).unwrap_or_else(|e| panic!("translate {text:?}: {e}"));
        let rows = execute_sql(&sql, table).expect("translated SQL executes");
        match eval_reference(&formula, table).expect("reference evaluates") {
            Denotation::Records(records) => {
                let expected: SqlResult = records
                    .iter()
                    .map(|&record| table.record_values(record).expect("record in range"))
                    .collect();
                assert_eq!(rows, expected, "records diverge on {text}");
            }
            denotation => assert_eq!(
                sql_answer(&rows),
                Answer::from_denotation(&denotation),
                "answers diverge on {text}"
            ),
        }
    }
}

/// The canonical answer of a query's rows: a 1×1 result is that value,
/// any other result the set of its first column.
fn sql_answer(rows: &SqlResult) -> Answer {
    if rows.len() == 1 && rows[0].len() == 1 {
        Answer::values([rows[0][0].clone()])
    } else {
        Answer::values(rows.iter().filter_map(|row| row.first().cloned()))
    }
}

/// Execute both the lambda DCS formula and its SQL translation and assert
/// they produce the same canonical answer.
fn assert_cross_validates(text: &str, table: &Table) {
    let formula = parse_formula(text).unwrap_or_else(|e| panic!("parse {text:?}: {e}"));
    let dcs_answer = Answer::from_denotation(
        &eval(&formula, table).unwrap_or_else(|e| panic!("eval {text:?}: {e}")),
    );
    let sql = translate(&formula).unwrap_or_else(|e| panic!("translate {text:?}: {e}"));
    let rows = execute_sql(&sql, table).unwrap_or_else(|e| panic!("execute {}: {e}", sql.to_sql()));
    assert_eq!(
        dcs_answer,
        sql_answer(&rows),
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
    let rows = execute_sql(&q, &samples::olympics()).unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn standalone_constant_translates_to_literal_row() {
    let q = translate(&parse_formula("Greece").unwrap()).unwrap();
    let rows = execute_sql(&q, &samples::olympics()).unwrap();
    assert_eq!(rows, vec![vec![Value::str("Greece")]]);
}
