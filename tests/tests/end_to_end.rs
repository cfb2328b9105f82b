//! Cross-crate integration tests: the full explanation pipeline from question
//! to utterance, highlights and SQL, on the paper's running examples.

use wtq_core::Engine;
use wtq_dcs::{eval, parse_formula, Answer};
use wtq_oracle::execute_sql;
use wtq_parser::formulas_equivalent;
use wtq_provenance::HighlightKind;
use wtq_sql::translate;
use wtq_table::{samples, CellRef};

#[test]
fn figure_one_pipeline_produces_all_three_explanations() {
    let engine = Engine::new();
    let table = samples::olympics();
    let explained =
        engine.explain_question("Greece held its last Olympics in what year?", &table, 7);
    assert!(!explained.is_empty());

    let gold = parse_formula("max(R[Year].Country.Greece)").unwrap();
    let candidate = explained
        .iter()
        .find(|c| formulas_equivalent(&c.formula, &gold))
        .expect("the correct translation is among the explained candidates");

    // Utterance (§5.1).
    assert_eq!(
        candidate.utterance,
        "maximum of values in column Year in rows where value of column Country is Greece"
    );
    // Answer.
    assert_eq!(candidate.answer, Answer::number(2004.0));
    // Highlights (§5.2): Greece cells framed, their Year cells colored, and
    // the Year header marked with MAX.
    let year = table.column_index("Year").unwrap();
    let country = table.column_index("Country").unwrap();
    assert_eq!(
        candidate.highlights.kind(CellRef::new(5, year)),
        HighlightKind::Colored
    );
    assert_eq!(
        candidate.highlights.kind(CellRef::new(5, country)),
        HighlightKind::Framed
    );
    assert_eq!(candidate.highlights.header_label(&table, year), "MAX(Year)");
    // SQL (Table 10) executes to the same answer on the same table.
    let sql = translate(&candidate.formula).unwrap();
    let rows = execute_sql(&sql, &table).unwrap();
    assert_eq!(rows, vec![vec![wtq_table::Value::num(2004.0)]]);
}

#[test]
fn lambda_dcs_sql_and_answers_agree_across_operator_families() {
    // Every operator family of Table 10, cross-checked between the lambda DCS
    // evaluator and the SQL engine on the paper's example tables.
    let cases: Vec<(&str, wtq_table::Table)> = vec![
        ("R[Year].City.Athens", samples::olympics()),
        ("R[Year].Prev.City.London", samples::olympics()),
        ("R[Year].R[Prev].City.Athens", samples::olympics()),
        ("sum(R[Year].City.Athens)", samples::olympics()),
        (
            "sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)",
            samples::medals(),
        ),
        (
            "sub(count(Lake.\"Lake Huron\"), count(Lake.\"Lake Erie\"))",
            samples::shipwrecks(),
        ),
        (
            "R[City].(Country.China or Country.Greece)",
            samples::olympics(),
        ),
        ("R[City].(City.London and Country.UK)", samples::olympics()),
        ("R[City].argmax(Rows, Year)", samples::olympics()),
        (
            "R[Year].last(League.\"USL A-League\")",
            samples::usl_league(),
        ),
        ("most_common(R[Lake].Rows, Lake)", samples::shipwrecks()),
        (
            "compare_max((London or Beijing), Year, City)",
            samples::olympics(),
        ),
        ("count(Games.(> 4))", samples::squad()),
    ];
    for (text, table) in cases {
        let formula = parse_formula(text).unwrap();
        let dcs_answer = Answer::from_denotation(&eval(&formula, &table).unwrap());
        let sql = translate(&formula).unwrap_or_else(|e| panic!("translate {text}: {e}"));
        let rows = execute_sql(&sql, &table).unwrap_or_else(|e| panic!("execute {text}: {e}"));
        let sql_answer = Answer::values(rows.iter().filter_map(|r| r.first().cloned()));
        assert_eq!(dcs_answer, sql_answer, "disagreement for {text}");
    }
}

#[test]
fn every_explained_candidate_is_internally_consistent() {
    // For an arbitrary question, every explained candidate must (a) evaluate
    // to its reported answer, (b) have a well-formed provenance chain and
    // (c) have a non-empty utterance mentioning each column it projects.
    let engine = Engine::new();
    let table = samples::medals();
    let explained = engine.explain_question(
        "What is the difference in Total between Fiji and Tonga?",
        &table,
        7,
    );
    assert!(!explained.is_empty());
    for candidate in &explained {
        let denotation = eval(&candidate.formula, &table).unwrap();
        assert_eq!(Answer::from_denotation(&denotation), candidate.answer);
        assert!(candidate.highlights.chain.is_well_formed());
        assert!(!candidate.utterance.is_empty());
        for column in candidate.formula.columns_mentioned() {
            assert!(
                candidate
                    .utterance
                    .to_lowercase()
                    .contains(&column.to_lowercase()),
                "utterance {:?} does not mention column {column}",
                candidate.utterance
            );
        }
    }
}

#[test]
fn identical_answers_do_not_imply_identical_explanations() {
    // The Figure 8 motivation: two candidates with the same answer must still
    // be distinguishable through their utterances.
    let table = samples::usl_league();
    let correct = parse_formula("max(R[Year].League.\"USL A-League\")").unwrap();
    let incorrect =
        parse_formula("sum(R[Year].(League.\"USL A-League\" and \"Open Cup\".\"4th Round\"))")
            .unwrap();
    let a = Answer::from_denotation(&eval(&correct, &table).unwrap());
    let b = Answer::from_denotation(&eval(&incorrect, &table).unwrap());
    assert_eq!(
        a, b,
        "the two Figure 8 candidates should share their answer"
    );
    assert_ne!(wtq_explain::utter(&correct), wtq_explain::utter(&incorrect));
}
