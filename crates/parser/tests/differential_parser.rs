//! Differential suite: the interned feature pipeline must be byte-identical
//! to the string-keyed reference (`wtq_oracle::parser`) — the executable
//! specification of the pre-interning parser.
//!
//! Three properties over random tables and questions:
//!
//! 1. End-to-end parses agree: same candidate order, bit-equal scores, and
//!    feature vectors whose named view equals the reference map bit for bit.
//! 2. The top-k serving path agrees (the list users see is unchanged).
//! 3. AdaGrad training produces byte-identical weights, including their
//!    serialized form (trained-model files are interchangeable).

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use wtq_dataset::{all_domains, generate_questions, generate_table};
use wtq_dcs::{parse_formula, Answer, Evaluator};
use wtq_oracle::{
    dot_reference, extract_features_reference, parse_in_session_reference, ReferenceModel,
    ReferenceTrainer,
};
use wtq_parser::candidates::RawCandidate;
use wtq_parser::{
    analyze_question, extract_features, generate_candidates, intern, CandidateConfig, FeatureId,
    FeatureVec, LogLinearModel, SemanticParser, TrainConfig, TrainExample, Trainer,
};
use wtq_table::{samples, Catalog, Table};

/// A random synthetic table plus a batch of questions about it, all derived
/// from one seed (the proptest-generated value).
fn environment(seed: u64, questions: usize) -> (Table, Vec<String>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let domains = all_domains();
    let domain = &domains[(seed % domains.len() as u64) as usize];
    let table = generate_table(domain, seed as usize, &mut rng);
    let questions = generate_questions(&table, questions, &mut rng)
        .into_iter()
        .map(|q| q.question)
        .collect();
    (table, questions)
}

/// Assert one interned parse equals the reference parse bit for bit.
fn assert_parse_matches(
    parser: &SemanticParser,
    reference: &ReferenceModel,
    question: &str,
    table: &Table,
) -> Result<(), TestCaseError> {
    let evaluator = Evaluator::new(table);
    let interned = parser.parse_in_session(question, &evaluator);
    let expected = parse_in_session_reference(reference, &parser.config, question, &evaluator);
    prop_assert_eq!(interned.len(), expected.len(), "candidate pool size");
    for (rank, (got, want)) in interned.iter().zip(&expected).enumerate() {
        prop_assert_eq!(&got.formula, &want.formula, "formula at rank {}", rank);
        prop_assert_eq!(&got.answer, &want.answer, "answer at rank {}", rank);
        prop_assert_eq!(
            got.score.to_bits(),
            want.score.to_bits(),
            "score bits at rank {} ({} vs {})",
            rank,
            got.score,
            want.score
        );
        let named = got.features.to_named();
        prop_assert_eq!(
            named.keys().collect::<Vec<_>>(),
            want.features.keys().collect::<Vec<_>>(),
            "feature names at rank {}",
            rank
        );
        for (name, value) in &named {
            prop_assert_eq!(
                value.to_bits(),
                want.features[name].to_bits(),
                "feature {} at rank {}",
                name,
                rank
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The interned pipeline ranks exactly like the string-keyed reference
    /// on random tables and questions, under both the prior model and an
    /// arbitrary dense weight assignment.
    #[test]
    fn interned_parse_matches_string_keyed_reference(seed in 0u64..1_000_000) {
        let (table, questions) = environment(seed, 6);
        let parser = SemanticParser::with_prior();
        let reference = ReferenceModel::from_model(&parser.model);
        for question in &questions {
            assert_parse_matches(&parser, &reference, question, &table)?;
        }
    }

    /// Perturbed (post-training-like) weights — including negative, zero and
    /// fractional values on arbitrary features — preserve the equivalence.
    #[test]
    fn interned_parse_matches_reference_under_perturbed_weights(
        seed in 0u64..1_000_000,
        perturbations in proptest::collection::vec((0usize..92, -2.0f64..2.0), 0..12),
    ) {
        let (table, questions) = environment(seed, 4);
        let mut parser = SemanticParser::with_prior();
        let names: Vec<String> = ReferenceModel::from_model(&LogLinearModel::with_prior())
            .weights
            .keys()
            .cloned()
            .collect();
        for (slot, weight) in perturbations {
            let name = &names[slot % names.len()];
            parser.model.set_weight(name, weight);
        }
        let reference = ReferenceModel::from_model(&parser.model);
        for question in &questions {
            assert_parse_matches(&parser, &reference, question, &table)?;
        }
    }

    /// The top-k serving path returns the same prefix as the reference
    /// ranking — the list shown to users is unchanged by interning.
    #[test]
    fn top_k_prefix_matches_reference(seed in 0u64..1_000_000) {
        let (table, questions) = environment(seed, 3);
        let parser = SemanticParser::with_prior();
        let reference = ReferenceModel::from_model(&parser.model);
        for question in &questions {
            let evaluator = Evaluator::new(&table);
            let top = parser.parse_top_k(question, &table, 7);
            let expected =
                parse_in_session_reference(&reference, &parser.config, question, &evaluator);
            prop_assert_eq!(top.len(), expected.len().min(7));
            for (got, want) in top.iter().zip(&expected) {
                prop_assert_eq!(&got.formula, &want.formula);
                prop_assert_eq!(got.score.to_bits(), want.score.to_bits());
            }
        }
    }

    /// AdaGrad training over random examples (weak supervision plus a slice
    /// of annotated examples, Eq. 8) produces weights byte-identical to the
    /// string-keyed trainer, and the trained interned model serializes to
    /// exactly the reference weight map.
    #[test]
    fn trained_weights_are_byte_identical_to_reference(seed in 0u64..100_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let domains = all_domains();
        let mut catalog = Catalog::new();
        let mut examples: Vec<TrainExample> = Vec::new();
        for t in 0..2usize {
            let domain = &domains[(seed as usize + t) % domains.len()];
            let table = generate_table(domain, t, &mut rng);
            let name = table.name().to_string();
            for (i, q) in generate_questions(&table, 4, &mut rng).into_iter().enumerate() {
                let example = TrainExample::weak(q.question, name.clone(), q.answer);
                // Every third example carries its gold annotation (Eq. 7).
                examples.push(if i % 3 == 0 {
                    example.with_annotations(vec![q.formula])
                } else {
                    example
                });
            }
            catalog.insert(table);
        }
        let config = TrainConfig {
            epochs: 2,
            seed: seed ^ 0x9e37,
            workers: 2,
            ..TrainConfig::default()
        };

        let mut parser = SemanticParser::with_prior();
        Trainer::new(config.clone()).train(&mut parser, &examples, &catalog);

        let mut reference = ReferenceModel::from_model(&LogLinearModel::with_prior());
        ReferenceTrainer::new(config).train(
            &mut reference,
            &parser.config,
            &examples,
            &catalog,
        );

        let trained = parser.model.sorted_weights();
        prop_assert_eq!(
            trained.keys().collect::<Vec<_>>(),
            reference.weights.keys().collect::<Vec<_>>(),
            "weight names"
        );
        for (name, weight) in &trained {
            prop_assert_eq!(
                weight.to_bits(),
                reference.weights[name].to_bits(),
                "weight {} ({} vs {})",
                name,
                weight,
                reference.weights[name]
            );
        }
        // The serialized model is the reference weight map byte for byte.
        let model_json = serde_json::to_string(&parser.model).expect("model serialize");
        let reference_json = format!(
            "{{\"weights\":{}}}",
            serde_json::to_string(&reference.weights).expect("map serialize")
        );
        prop_assert_eq!(model_json, reference_json);
    }
}

/// The candidate `formula_text` with its answer on `table`.
fn candidate(table: &Table, formula_text: &str) -> RawCandidate {
    let formula = parse_formula(formula_text).unwrap();
    let answer = Answer::from_denotation(&wtq_dcs::eval(&formula, table).unwrap());
    RawCandidate { formula, answer }
}

#[test]
fn interned_features_match_the_string_keyed_reference() {
    // The differential contract, checked here on the fixed sample suite
    // (the proptest suite fuzzes it over random tables/questions): same
    // names, and bit-identical values.
    let cases = [
        (
            samples::olympics(),
            "Greece held its last Olympics in what year?",
        ),
        (
            samples::shipwrecks(),
            "How many more ships were wrecked in Lake Huron than in Lake Erie?",
        ),
        (
            samples::medals(),
            "What is the difference in Total between Fiji and Tonga?",
        ),
    ];
    for (table, question) in cases {
        let analysis = analyze_question(question, &table);
        let candidates = generate_candidates(&analysis, &table, &CandidateConfig::default());
        assert!(!candidates.is_empty());
        for candidate in &candidates {
            let interned = extract_features(&analysis, &table, candidate).to_named();
            let reference = extract_features_reference(&analysis, &table, candidate);
            assert_eq!(
                interned.len(),
                reference.len(),
                "feature sets differ on {}",
                candidate.formula
            );
            for ((a_name, a_value), (b_name, b_value)) in interned.iter().zip(reference.iter()) {
                assert_eq!(a_name, b_name);
                assert_eq!(
                    a_value.to_bits(),
                    b_value.to_bits(),
                    "{a_name} differs on {}",
                    candidate.formula
                );
            }
        }
    }
}

#[test]
fn dot_products_use_only_present_features_and_match_reference() {
    let table = samples::olympics();
    let analysis = analyze_question("Greece held its last Olympics in what year?", &table);
    let gold = candidate(&table, "max(R[Year].Country.Greece)");
    let features = extract_features(&analysis, &table, &gold);
    // Dense weights: 1.0 everywhere a feature exists plus a weight on a
    // feature the vector does not contain.
    let model = LogLinearModel::with_prior();
    let reference_weights = model.sorted_weights();
    let dense_score = model.score(&features);
    let reference_score = dot_reference(
        &extract_features_reference(&analysis, &table, &gold),
        &reference_weights,
    );
    assert_eq!(dense_score.to_bits(), reference_score.to_bits());
    // Sparse-sparse merge walk agrees with the dense product.
    let mut weight_pairs: Vec<(FeatureId, f64)> = reference_weights
        .iter()
        .map(|(name, value)| (intern(name), *value))
        .collect();
    let sparse_weights = FeatureVec::from_pairs(&mut weight_pairs);
    assert!((features.dot_sparse(&sparse_weights) - dense_score).abs() < 1e-12);
}
