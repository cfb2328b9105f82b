//! Differential check on the serving surface: the engine's
//! provenance-bearing top-k explanation path (scratch-reusing sessions,
//! interned features) must rank exactly like the string-keyed reference
//! parser on generated questions — the explanations users see are unchanged
//! by the interning rework — and the highlights and answers it computes on
//! the session's warm evaluator must equal the standalone computations on
//! the bare table.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use wtq_core::Engine;
use wtq_dcs::{parse_formula, Answer, Evaluator};
use wtq_oracle::{parse_in_session_reference, ReferenceModel};
use wtq_provenance::Highlights;

#[test]
fn explained_top_k_matches_the_string_keyed_reference_ranking() {
    let engine = Engine::new();
    let reference = ReferenceModel::from_model(&engine.parser().model);
    let mut rng = ChaCha8Rng::seed_from_u64(20190416);
    let mut compared = 0usize;
    for (t, domain) in wtq_dataset::all_domains().iter().take(4).enumerate() {
        let table = wtq_dataset::generate_table(domain, t, &mut rng);
        let session = engine.session(&table);
        for question in wtq_dataset::generate_questions(&table, 5, &mut rng) {
            let top_k = 7usize;
            // One session answers every question for the table, so this also
            // exercises ScratchSpace reuse across parses.
            let explained = session.explain_question(&question.question, top_k);
            let evaluator = Evaluator::new(&table);
            let expected = parse_in_session_reference(
                &reference,
                &engine.parser().config,
                &question.question,
                &evaluator,
            );
            // from_candidate drops candidates whose highlights fail, so walk
            // the reference list and match the explained prefix in order.
            let mut expected_iter = expected.iter().take(top_k);
            for candidate in &explained {
                let matching = expected_iter
                    .find(|want| want.formula == candidate.formula)
                    .unwrap_or_else(|| {
                        panic!(
                            "explained candidate {} missing from reference top-{top_k}",
                            candidate.formula
                        )
                    });
                assert_eq!(candidate.score.to_bits(), matching.score.to_bits());
                assert_eq!(candidate.answer, matching.answer);
                // The provenance path ran: every explained candidate carries
                // its utterance and highlight structure.
                assert!(!candidate.utterance.is_empty());
                // Highlights computed on the session (whose memo every
                // earlier question warmed) equal the standalone ones, chain
                // and header marks included.
                let standalone = Highlights::compute(&candidate.formula, &table)
                    .expect("explained candidates evaluate");
                assert_eq!(candidate.highlights, standalone, "{}", candidate.formula);
                // So does explaining the formula by hand on the warm session.
                let by_hand = session
                    .explain_formula(&candidate.formula)
                    .expect("explained candidates evaluate");
                let denotation = wtq_dcs::eval(&candidate.formula, &table).expect("evaluates");
                assert_eq!(by_hand.answer, Answer::from_denotation(&denotation));
                assert_eq!(by_hand.highlights, standalone);
                compared += 1;
            }
            assert!(
                !explained.is_empty(),
                "no candidates for {}",
                question.question
            );
        }
        // A formula that does not evaluate fails on the warm session as it
        // does on the bare table.
        let unknown = parse_formula("R[Missing].Rows").expect("parses");
        let standalone = wtq_dcs::eval(&unknown, &table).expect_err("unknown column");
        assert_eq!(session.explain_formula(&unknown).err(), Some(standalone));
    }
    assert!(compared >= 50, "too few candidates compared: {compared}");
}
