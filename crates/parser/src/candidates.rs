//! Candidate formula generation.
//!
//! Starting from the question's links (values, columns, numbers), the
//! generator composes typed lambda DCS formulas bottom-up, in the spirit of
//! the floating parser used by the paper's baseline: record-denoting bases
//! first (joins, comparisons, intersections, unions, superlatives, row
//! shifts), then value projections, then aggregates and differences. Only
//! formulas that type-check, execute successfully and denote a non-empty
//! result are kept, and the candidate pool is capped so downstream scoring
//! stays fast.

use std::collections::HashSet;
use std::time::Instant;

use wtq_dcs::{typecheck, AggregateOp, Answer, CompareOp, Evaluator, Formula, SuperlativeOp};
use wtq_table::Table;

use crate::lexicon::QuestionAnalysis;

/// Limits applied during candidate generation.
#[derive(Debug, Clone)]
pub struct CandidateConfig {
    /// Maximum number of value links considered.
    pub max_value_links: usize,
    /// Maximum number of record-denoting base formulas kept.
    pub max_record_bases: usize,
    /// Maximum number of candidates returned.
    pub max_candidates: usize,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        CandidateConfig {
            max_value_links: 6,
            max_record_bases: 72,
            max_candidates: 320,
        }
    }
}

/// A generated candidate before scoring: the formula plus its execution
/// result.
#[derive(Debug, Clone)]
pub struct RawCandidate {
    /// The candidate lambda DCS formula.
    pub formula: Formula,
    /// Its canonical answer on the table.
    pub answer: Answer,
}

/// Generate candidate formulas for a question over a table. Builds a fresh
/// [`Evaluator`] session; callers running many questions (or holding a
/// shared table index) should use [`generate_candidates_with`].
pub fn generate_candidates(
    analysis: &QuestionAnalysis,
    table: &Table,
    config: &CandidateConfig,
) -> Vec<RawCandidate> {
    generate_candidates_with(analysis, &Evaluator::new(table), config)
}

/// Generate candidate formulas using an existing evaluator session. The
/// session's denotation cache persists across the pool, so record bases
/// shared by many candidates (joins, comparisons, superlatives) execute
/// once; column-type metadata comes from the session's [`wtq_table::TableIndex`]
/// instead of being recomputed per question.
pub fn generate_candidates_with(
    analysis: &QuestionAnalysis,
    evaluator: &Evaluator<'_>,
    config: &CandidateConfig,
) -> Vec<RawCandidate> {
    generate_candidates_timed(analysis, evaluator, config, &mut 0)
}

/// Like [`generate_candidates_with`], but accumulates the time spent inside
/// `evaluator.answer` calls into `eval_ns`, so the parse pipeline can report
/// formula execution separately from candidate composition. Candidates need
/// answers, not cell traces, so no formula here is evaluated traced.
pub(crate) fn generate_candidates_timed(
    analysis: &QuestionAnalysis,
    evaluator: &Evaluator<'_>,
    config: &CandidateConfig,
    eval_ns: &mut u64,
) -> Vec<RawCandidate> {
    let table = evaluator.table();
    let links = analysis.top_value_links(config.max_value_links);
    let numeric_columns = evaluator.index().numeric_columns();
    let text_columns = evaluator.index().text_columns();
    let column_name = |c: usize| table.column_name(c).to_string();

    // ----- Record-denoting bases -------------------------------------------------
    let mut record_bases: Vec<Formula> = Vec::new();
    record_bases.push(Formula::AllRecords);
    // Joins from value links.
    let joins: Vec<Formula> = links
        .iter()
        .map(|link| Formula::Join {
            column: column_name(link.column),
            values: Box::new(Formula::Const(link.value.clone())),
        })
        .collect();
    record_bases.extend(joins.clone());
    // Pairwise intersections (different columns) and unions (same column).
    for i in 0..links.len() {
        for j in (i + 1)..links.len() {
            let (a, b) = (&links[i], &links[j]);
            let pair = (joins[i].clone(), joins[j].clone());
            if a.column == b.column {
                record_bases.push(Formula::Union(Box::new(pair.0), Box::new(pair.1)));
            } else {
                record_bases.push(Formula::Intersect(Box::new(pair.0), Box::new(pair.1)));
            }
        }
    }
    // Row shifts and first/last over join bases (kept early so the base cap
    // never drops them: they anchor the adjacent-row and first/last-row
    // question families).
    for join in &joins {
        record_bases.push(Formula::Prev(Box::new(join.clone())));
        record_bases.push(Formula::Next(Box::new(join.clone())));
        for op in [SuperlativeOp::Argmax, SuperlativeOp::Argmin] {
            record_bases.push(Formula::RecordIndexSuperlative {
                op,
                records: Box::new(join.clone()),
            });
        }
    }
    // Comparison joins from literal numbers.
    for &number in analysis.numbers.iter().take(3) {
        for &column in numeric_columns {
            for op in [CompareOp::Gt, CompareOp::Lt, CompareOp::Geq, CompareOp::Leq] {
                record_bases.push(Formula::CompareJoin {
                    column: column_name(column),
                    op,
                    value: Box::new(Formula::Const(wtq_table::Value::Num(number))),
                });
            }
        }
    }
    // Superlatives keyed by numeric columns, over the highest-priority bases
    // (all records and the link-anchored joins / set combinations).
    let superlative_sources: Vec<Formula> = record_bases
        .iter()
        .filter(|base| {
            matches!(
                base,
                Formula::AllRecords
                    | Formula::Join { .. }
                    | Formula::Intersect(_, _)
                    | Formula::Union(_, _)
            )
        })
        .take(12)
        .cloned()
        .collect();
    for base in &superlative_sources {
        for &column in numeric_columns {
            for op in [SuperlativeOp::Argmax, SuperlativeOp::Argmin] {
                record_bases.push(Formula::SuperlativeRecords {
                    op,
                    records: Box::new(base.clone()),
                    column: column_name(column),
                });
            }
        }
    }

    // Keep only record bases that evaluate to a non-empty record set; cap.
    let mut live_bases: Vec<Formula> = Vec::new();
    for base in record_bases {
        if live_bases.len() >= config.max_record_bases {
            break;
        }
        let eval_start = Instant::now();
        let result = evaluator.answer(&base);
        *eval_ns += eval_start.elapsed().as_nanos() as u64;
        if result.is_ok_and(|answer| !answer.is_empty()) {
            live_bases.push(base);
        }
    }

    // ----- Value- and number-denoting candidates ---------------------------------
    let mut seen: HashSet<Formula> = HashSet::new();
    let mut out: Vec<RawCandidate> = Vec::new();
    let push_eval_ns = std::cell::Cell::new(0u64);
    let push = |formula: Formula, out: &mut Vec<RawCandidate>, seen: &mut HashSet<Formula>| {
        if out.len() >= config.max_candidates || seen.contains(&formula) {
            return;
        }
        if typecheck(&formula).is_err() {
            return;
        }
        let eval_start = Instant::now();
        let result = evaluator.answer(&formula);
        push_eval_ns.set(push_eval_ns.get() + eval_start.elapsed().as_nanos() as u64);
        let Ok(answer) = result else {
            return;
        };
        if answer.is_empty() || answer.len() > 12 {
            return;
        }
        seen.insert(formula.clone());
        out.push(RawCandidate { formula, answer });
    };

    // Projections of every live base onto every column, plus aggregates of
    // numeric projections and counts of the base itself.
    for base in &live_bases {
        if !matches!(base, Formula::AllRecords) {
            push(
                Formula::aggregate(AggregateOp::Count, base.clone()),
                &mut out,
                &mut seen,
            );
        }
        for column in 0..table.num_columns() {
            let projection = Formula::ColumnValues {
                column: column_name(column),
                records: Box::new(base.clone()),
            };
            if !matches!(base, Formula::AllRecords) {
                push(projection.clone(), &mut out, &mut seen);
            }
            if numeric_columns.contains(&column) {
                for op in [
                    AggregateOp::Max,
                    AggregateOp::Min,
                    AggregateOp::Sum,
                    AggregateOp::Avg,
                ] {
                    push(
                        Formula::aggregate(op, projection.clone()),
                        &mut out,
                        &mut seen,
                    );
                }
            }
        }
    }

    // Most-common values per text column.
    for &column in text_columns {
        for op in [SuperlativeOp::Argmax, SuperlativeOp::Argmin] {
            push(
                Formula::MostCommonValue {
                    op,
                    values: Box::new(Formula::ColumnValues {
                        column: column_name(column),
                        records: Box::new(Formula::AllRecords),
                    }),
                    column: column_name(column),
                },
                &mut out,
                &mut seen,
            );
        }
    }

    // Same-column value pairs: differences, occurrence differences and
    // comparisons by a numeric key column.
    for i in 0..links.len() {
        for j in 0..links.len() {
            if i == j || links[i].column != links[j].column {
                continue;
            }
            let (a, b) = (&links[i], &links[j]);
            let sel = column_name(a.column);
            let join_a = Formula::Join {
                column: sel.clone(),
                values: Box::new(Formula::Const(a.value.clone())),
            };
            let join_b = Formula::Join {
                column: sel.clone(),
                values: Box::new(Formula::Const(b.value.clone())),
            };
            push(
                Formula::Sub(
                    Box::new(Formula::aggregate(AggregateOp::Count, join_a.clone())),
                    Box::new(Formula::aggregate(AggregateOp::Count, join_b.clone())),
                ),
                &mut out,
                &mut seen,
            );
            for &num in numeric_columns {
                let num_name = column_name(num);
                push(
                    Formula::Sub(
                        Box::new(Formula::ColumnValues {
                            column: num_name.clone(),
                            records: Box::new(join_a.clone()),
                        }),
                        Box::new(Formula::ColumnValues {
                            column: num_name.clone(),
                            records: Box::new(join_b.clone()),
                        }),
                    ),
                    &mut out,
                    &mut seen,
                );
                if i < j {
                    for op in [SuperlativeOp::Argmax, SuperlativeOp::Argmin] {
                        for (first, second) in [(a, b), (b, a)] {
                            push(
                                Formula::CompareValues {
                                    op,
                                    values: Box::new(Formula::Union(
                                        Box::new(Formula::Const(first.value.clone())),
                                        Box::new(Formula::Const(second.value.clone())),
                                    )),
                                    key_column: num_name.clone(),
                                    value_column: sel.clone(),
                                },
                                &mut out,
                                &mut seen,
                            );
                        }
                    }
                }
            }
        }
    }

    *eval_ns += push_eval_ns.get();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexicon::analyze_question;
    use crate::model::formulas_equivalent;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wtq_dataset::{all_domains, generate_questions, generate_table};
    use wtq_table::samples;

    fn candidates_for(question: &str, table: &Table) -> Vec<RawCandidate> {
        let analysis = analyze_question(question, table);
        generate_candidates(&analysis, table, &CandidateConfig::default())
    }

    #[test]
    fn figure_one_gold_query_is_generated() {
        let table = samples::olympics();
        let candidates = candidates_for("Greece held its last Olympics in what year?", &table);
        assert!(!candidates.is_empty());
        let gold = wtq_dcs::parse_formula("max(R[Year].Country.Greece)").unwrap();
        assert!(
            candidates.iter().any(|c| c.formula == gold),
            "gold query missing from {} candidates",
            candidates.len()
        );
        // A last-row reading is also among the candidates (a plausible
        // alternative the user must choose between).
        let alternative = wtq_dcs::parse_formula("R[Year].last(Country.Greece)").unwrap();
        assert!(candidates.iter().any(|c| c.formula == alternative));
    }

    #[test]
    fn figure_nine_difference_of_counts_is_generated() {
        let table = samples::shipwrecks();
        let candidates = candidates_for(
            "How many more ships were wrecked in Lake Huron than in Erie?",
            &table,
        );
        let gold =
            wtq_dcs::parse_formula("sub(count(Lake.\"Lake Huron\"), count(Lake.\"Lake Erie\"))")
                .unwrap();
        assert!(candidates.iter().any(|c| c.formula == gold));
    }

    #[test]
    fn all_candidates_execute_and_are_distinct() {
        let table = samples::medals();
        let candidates = candidates_for(
            "What is the difference in Total between Fiji and Tonga?",
            &table,
        );
        let mut seen = HashSet::new();
        for candidate in &candidates {
            assert!(
                seen.insert(candidate.formula.clone()),
                "duplicate candidate"
            );
            assert!(!candidate.answer.is_empty());
            assert!(wtq_dcs::eval(&candidate.formula, &table).is_ok());
        }
        assert!(candidates.len() >= 10);
        assert!(candidates.len() <= CandidateConfig::default().max_candidates);
    }

    #[test]
    fn gold_queries_of_generated_dataset_are_covered() {
        // Coverage of the gold query by the candidate pool is the analogue of
        // the paper's correctness bound; it must be high for the interactive
        // setting to help.
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut total = 0usize;
        let mut covered = 0usize;
        for domain in all_domains().iter().take(5) {
            let table = generate_table(domain, 0, &mut rng);
            let questions = generate_questions(&table, 10, &mut rng);
            for q in questions {
                total += 1;
                let analysis = analyze_question(&q.question, &table);
                let candidates =
                    generate_candidates(&analysis, &table, &CandidateConfig::default());
                if candidates
                    .iter()
                    .any(|c| formulas_equivalent(&c.formula, &q.formula))
                {
                    covered += 1;
                }
            }
        }
        assert!(total >= 30, "not enough questions generated ({total})");
        let coverage = covered as f64 / total as f64;
        assert!(
            coverage >= 0.6,
            "candidate generation covers only {covered}/{total} gold queries"
        );
    }

    #[test]
    fn candidate_pool_is_capped() {
        let table = samples::medals();
        let config = CandidateConfig {
            max_candidates: 25,
            ..CandidateConfig::default()
        };
        let analysis = analyze_question(
            "What is the difference in Gold between Fiji, Tonga, Samoa and Tahiti?",
            &table,
        );
        let candidates = generate_candidates(&analysis, &table, &config);
        assert!(candidates.len() <= 25);
    }
}
