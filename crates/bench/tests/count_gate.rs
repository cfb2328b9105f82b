//! Work-count gates for the evaluator memo. For fixed, seeded question sets
//! — candidate generation on one 256–512-row table, and the whole served
//! explain path on WTQ-size (8–18-row) tables — a fresh session per
//! question must hit and miss the session memo (`Evaluator::cache_stats`:
//! record sets and grouped projections together) exactly the pinned number
//! of times per question. Counts repeat exactly on every machine and every run, so this
//! gate cannot flake the way the wall-clock gates can. A change that makes
//! the pool re-evaluate shared work — a projection per aggregate, a base per
//! candidate — moves the counts and fails it; a change meant to move them
//! updates the pins in its own diff.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wtq_core::Engine;
use wtq_dataset::tablegen::generate_table_with_rows;
use wtq_dataset::{all_domains, generate_questions, generate_table};
use wtq_dcs::Evaluator;
use wtq_parser::{analyze_question_with, generate_candidates_with, CandidateConfig};

/// `(hits, misses)` per question, in question order.
const PINNED: [(u64, u64); 8] = [
    (353, 102),
    (352, 102),
    (352, 102),
    (286, 76),
    (398, 133),
    (353, 102),
    (361, 148),
    (286, 76),
];

#[test]
fn memo_hits_and_misses_per_question_match_the_pins() {
    let mut rng = ChaCha8Rng::seed_from_u64(20190416);
    let domain = &all_domains()[1];
    let rows = rng.gen_range(256..513);
    let table = generate_table_with_rows(domain, 0, rows, &mut rng);
    let questions = generate_questions(&table, PINNED.len(), &mut rng);
    let counts: Vec<(u64, u64)> = questions
        .iter()
        .map(|question| {
            let evaluator = Evaluator::new(&table);
            let analysis = analyze_question_with(&question.question, evaluator.kb());
            generate_candidates_with(&analysis, &evaluator, &CandidateConfig::default());
            evaluator.cache_stats()
        })
        .collect();
    assert_eq!(
        counts, PINNED,
        "memo (hits, misses) per question on {rows} rows"
    );
}

/// `(hits, misses)` per question of `Session::explain_question(.., 7)` on
/// WTQ-size tables, in question order: the parse and the served top-k's
/// highlights together.
const PINNED_WTQ_SIZE: [(u64, u64); 16] = [
    (206, 83),
    (213, 83),
    (206, 83),
    (203, 83),
    (397, 186),
    (213, 83),
    (207, 83),
    (203, 83),
    (333, 106),
    (340, 106),
    (395, 161),
    (375, 149),
    (333, 106),
    (340, 106),
    (333, 106),
    (330, 106),
];

#[test]
fn served_memo_hits_and_misses_on_wtq_size_tables_match_the_pins() {
    let mut rng = ChaCha8Rng::seed_from_u64(20190417);
    let domains = all_domains();
    let engine = Engine::new();
    let mut counts = Vec::new();
    for index in 0..4 {
        let table = generate_table(&domains[(index + 2) % domains.len()], index, &mut rng);
        for question in generate_questions(&table, 4, &mut rng) {
            let session = engine.session(&table);
            assert!(!session.explain_question(&question.question, 7).is_empty());
            counts.push(session.cache_stats());
        }
    }
    assert_eq!(
        counts, PINNED_WTQ_SIZE,
        "memo (hits, misses) per served question on WTQ-size tables"
    );
}
