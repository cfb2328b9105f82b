//! Workspace smoke test: the one-call happy path a new user hits first.
//!
//! Exercises `Engine::new().explain_question(...)` on the
//! paper's Figure 1 Olympics table and checks every explanation modality is
//! populated — candidates, NL utterance, provenance highlights and the SQL
//! rendering. Deliberately shallow: deeper pipeline semantics live in
//! `end_to_end.rs`.

use wtq_core::Engine;
use wtq_provenance::HighlightKind;
use wtq_table::{samples, CellRef};

#[test]
fn pipeline_explains_a_question_with_all_three_modalities() {
    let engine = Engine::new();
    let table = samples::olympics();
    let explained =
        engine.explain_question("Greece held its last Olympics in what year?", &table, 7);

    assert!(!explained.is_empty(), "pipeline returned no candidates");
    assert!(
        explained.len() <= 7,
        "pipeline returned more than the requested top-k"
    );

    for candidate in &explained {
        // Utterance (§5.1): a non-empty NL description of the query.
        assert!(
            !candidate.utterance.trim().is_empty(),
            "candidate {} has an empty utterance",
            candidate.formula
        );

        // Highlights (§5.2): some cell of the table is marked for any query
        // that touched the table at all.
        let any_highlighted = (0..table.num_records()).any(|record| {
            (0..table.num_columns()).any(|column| {
                candidate.highlights.kind(CellRef::new(record, column)) != HighlightKind::None
            })
        });
        assert!(
            any_highlighted,
            "candidate {} highlights no cells",
            candidate.formula
        );

        // SQL (Table 10): candidates in the translatable fragment render to a
        // SELECT statement.
        if let Some(sql) = &candidate.sql {
            assert!(
                sql.to_uppercase().contains("SELECT"),
                "candidate {} has a malformed SQL rendering: {sql}",
                candidate.formula
            );
        }
    }

    assert!(
        explained.iter().any(|c| c.sql.is_some()),
        "no candidate fell in the SQL-translatable fragment"
    );
}
