//! End-to-end candidate throughput: questions/second through the full
//! lexicon → candidate generation → feature extraction → scoring pipeline,
//! the serving-path number the ROADMAP's questions-per-second goal tracks.
//!
//! Three cases: the historical per-question `parse` (fresh index per call,
//! tracked across PRs), the session path with interned features and a
//! reused scratch (the deployment configuration), and the string-keyed
//! reference pipeline on identical sessions — the interned-vs-reference
//! pair is the headline speedup of the feature-interning rework.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

use wtq_bench::EXPERIMENT_SEED;
use wtq_dcs::Evaluator;
use wtq_oracle::{parse_in_session_reference, ReferenceModel};
use wtq_parser::{ScratchSpace, SemanticParser};

fn bench_candidate_throughput(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(EXPERIMENT_SEED);
    let domains = wtq_dataset::all_domains();
    // A handful of (question, table) pairs across domains, so the measured
    // number reflects mixed question families rather than one lucky shape.
    let mut pairs = Vec::new();
    for (i, domain) in domains.iter().take(3).enumerate() {
        let table = wtq_dataset::generate_table(domain, i, &mut rng);
        let questions = wtq_dataset::generate_questions(&table, 4, &mut rng);
        for q in questions {
            pairs.push((q.question, table.clone()));
        }
    }
    let parser = SemanticParser::with_prior();

    let mut group = c.benchmark_group("candidate_throughput");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    // Per-question end-to-end parse (one index build + linking + candidate
    // pool + scoring); divide the reported time by the pair count for the
    // per-question cost, or invert for questions/second.
    group.bench_function(format!("parse_{}_questions", pairs.len()), |b| {
        b.iter(|| {
            for (question, table) in &pairs {
                let _ = parser.parse(question, table);
            }
        })
    });
    // The session path (interned features, reused scratch) against the
    // string-keyed reference over identical warm evaluator sessions.
    let evaluators: Vec<Evaluator<'_>> = pairs
        .iter()
        .map(|(_, table)| Evaluator::new(table))
        .collect();
    let mut scratch = ScratchSpace::new();
    group.bench_function(format!("session_parse_{}_questions", pairs.len()), |b| {
        b.iter(|| {
            for ((question, _), evaluator) in pairs.iter().zip(&evaluators) {
                let _ = parser.parse_in_session_with(question, evaluator, &mut scratch);
            }
        })
    });
    let reference = ReferenceModel::from_model(&parser.model);
    group.bench_function(
        format!("reference_session_parse_{}_questions", pairs.len()),
        |b| {
            b.iter(|| {
                for ((question, _), evaluator) in pairs.iter().zip(&evaluators) {
                    let _ =
                        parse_in_session_reference(&reference, &parser.config, question, evaluator);
                }
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_candidate_throughput);
criterion_main!(benches);
