//! Work-count gate for the evaluator memo. For a fixed, seeded question set
//! on one 256–512-row table, candidate generation on a fresh session must
//! hit and miss the session memo (`Evaluator::cache_stats`: record sets and
//! grouped projections together) exactly the pinned number of times per
//! question. Counts repeat exactly on every machine and every run, so this
//! gate cannot flake the way the wall-clock gates can. A change that makes
//! the pool re-evaluate shared work — a projection per aggregate, a base per
//! candidate — moves the counts and fails it; a change meant to move them
//! updates the pins in its own diff.

use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wtq_dataset::tablegen::generate_table_with_rows;
use wtq_dataset::{all_domains, generate_questions};
use wtq_dcs::Evaluator;
use wtq_parser::{analyze_question_with, generate_candidates_with, CandidateConfig};
use wtq_table::TableIndex;

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
    let index = Arc::new(TableIndex::new(&table));
    let counts: Vec<(u64, u64)> = questions
        .iter()
        .map(|question| {
            let evaluator = Evaluator::with_index(&table, index.clone());
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
