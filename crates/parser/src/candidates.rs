//! Candidate formula generation.
//!
//! Starting from the question's links (values, columns, numbers), the
//! generator composes typed lambda DCS formulas bottom-up, in the spirit of
//! the floating parser used by the paper's baseline: record-denoting bases
//! first (joins, comparisons, intersections, unions, superlatives, row
//! shifts), then value projections, then aggregates and differences. Only
//! formulas that type-check, execute successfully and denote a non-empty
//! result of at most twelve values are kept, and the candidate pool is
//! capped so downstream scoring stays fast. The session is asked only what
//! each test needs: whether a record base is non-empty, and a candidate's
//! answer bounded at twelve values, so an over-long projection is rejected
//! before its answer is built.
//!
//! Formulas are composed as ids in the evaluator session's hash-consed
//! [`wtq_dcs::FormulaArena`]: each column name and linked constant is
//! interned once per question, a composed formula is one node added over
//! its operands' ids, a duplicate is an id seen before, and a candidate's
//! static type is read off its node. No formula tree is built unless a
//! caller asks for one ([`generate_candidates_with`]).

use std::time::Instant;

use wtq_dcs::{AggregateOp, Answer, CompareOp, Evaluator, Formula, FormulaId, Node, SuperlativeOp};
use wtq_table::{Table, Value};

use crate::lexicon::QuestionAnalysis;

/// The most values a candidate's answer may hold; a formula denoting more
/// (a projection onto a near-unique column, say) is no candidate.
const MAX_ANSWER_VALUES: usize = 12;

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

/// A generated candidate as an id in the evaluator session's arena, valid
/// until the session next releases its ids.
#[derive(Debug, Clone)]
pub(crate) struct PoolCandidate {
    /// The candidate formula.
    pub(crate) id: FormulaId,
    /// Its canonical answer on the table.
    pub(crate) answer: Answer,
}

/// Generate candidate formulas for a question over a table. Opens a fresh
/// [`Evaluator`] session; callers running many questions over one table
/// should share a session through [`generate_candidates_with`].
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
    let pool = generate_pool(analysis, evaluator, config, &mut 0);
    let arena = evaluator.arena();
    pool.into_iter()
        .map(|PoolCandidate { id, answer }| RawCandidate {
            formula: arena.materialize(id),
            answer,
        })
        .collect()
}

/// The candidate pool of [`generate_candidates_with`] as arena ids, in
/// generation order. Releases the session's ids first (see
/// [`Evaluator::release_ids`]), so the returned ids stay valid until the
/// caller's next evaluation of a [`Formula`]. Accumulates the time spent
/// evaluating candidates into `eval_ns`, so the parse pipeline can report
/// formula execution separately from composition. Candidates need answers,
/// not cell traces, so no formula here is evaluated traced.
pub(crate) fn generate_pool(
    analysis: &QuestionAnalysis,
    evaluator: &Evaluator<'_>,
    config: &CandidateConfig,
    eval_ns: &mut u64,
) -> Vec<PoolCandidate> {
    evaluator.release_ids();
    let table = evaluator.table();
    let links = analysis.top_value_links(config.max_value_links);
    let numeric_columns = evaluator.index().numeric_columns();
    let text_columns = evaluator.index().text_columns();
    let node = |node: Node| evaluator.intern_node(node);
    // Every column name and constant the pool uses, interned once.
    let columns: Vec<_> = (0..table.num_columns())
        .map(|column| evaluator.intern_column(table.column_name(column)))
        .collect();
    let constant = |value: &Value| node(Node::Const(evaluator.intern_constant(value)));
    let link_values: Vec<FormulaId> = links.iter().map(|link| constant(&link.value)).collect();
    let all_records = node(Node::AllRecords);

    // ----- Record-denoting bases -------------------------------------------------
    let mut record_bases: Vec<FormulaId> = vec![all_records];
    // Joins from value links.
    let joins: Vec<FormulaId> = links
        .iter()
        .zip(&link_values)
        .map(|(link, &values)| {
            node(Node::Join {
                column: columns[link.column],
                values,
            })
        })
        .collect();
    record_bases.extend(&joins);
    // Pairwise intersections (different columns) and unions (same column).
    for i in 0..links.len() {
        for j in (i + 1)..links.len() {
            record_bases.push(node(if links[i].column == links[j].column {
                Node::Union(joins[i], joins[j])
            } else {
                Node::Intersect(joins[i], joins[j])
            }));
        }
    }
    // Row shifts and first/last over join bases (kept early so the base cap
    // never drops them: they anchor the adjacent-row and first/last-row
    // question families).
    for &join in &joins {
        record_bases.push(node(Node::Prev(join)));
        record_bases.push(node(Node::Next(join)));
        for op in [SuperlativeOp::Argmax, SuperlativeOp::Argmin] {
            record_bases.push(node(Node::RecordIndexSuperlative { op, records: join }));
        }
    }
    // Comparison joins from literal numbers.
    for &number in analysis.numbers.iter().take(3) {
        let value = constant(&Value::Num(number));
        for &column in numeric_columns {
            for op in [CompareOp::Gt, CompareOp::Lt, CompareOp::Geq, CompareOp::Leq] {
                record_bases.push(node(Node::CompareJoin {
                    column: columns[column],
                    op,
                    value,
                }));
            }
        }
    }
    // Superlatives keyed by numeric columns, over the highest-priority bases
    // (all records and the link-anchored joins / set combinations).
    let superlative_sources: Vec<FormulaId> = {
        let arena = evaluator.arena();
        record_bases
            .iter()
            .copied()
            .filter(|&base| {
                matches!(
                    arena.node(base),
                    Node::AllRecords
                        | Node::Join { .. }
                        | Node::Intersect(_, _)
                        | Node::Union(_, _)
                )
            })
            .take(12)
            .collect()
    };
    for &base in &superlative_sources {
        for &column in numeric_columns {
            for op in [SuperlativeOp::Argmax, SuperlativeOp::Argmin] {
                record_bases.push(node(Node::SuperlativeRecords {
                    op,
                    records: base,
                    column: columns[column],
                }));
            }
        }
    }

    // Keep only record bases that evaluate to a non-empty record set; cap.
    let mut live_bases: Vec<FormulaId> = Vec::new();
    for base in record_bases {
        if live_bases.len() >= config.max_record_bases {
            break;
        }
        let eval_start = Instant::now();
        let live = evaluator.is_nonempty_id(base);
        *eval_ns += eval_start.elapsed().as_nanos() as u64;
        if live == Ok(true) {
            live_bases.push(base);
        }
    }

    // ----- Value- and number-denoting candidates ---------------------------------
    // `seen[id]`: the formula is already a candidate.
    let mut seen: Vec<bool> = Vec::new();
    let mut out: Vec<PoolCandidate> = Vec::new();
    let mut push = |id: FormulaId| {
        if out.len() >= config.max_candidates || seen.get(id.index()) == Some(&true) {
            return;
        }
        if evaluator.arena().formula_type(id).is_none() {
            return;
        }
        let eval_start = Instant::now();
        let result = evaluator.bounded_answer_id(id, MAX_ANSWER_VALUES);
        *eval_ns += eval_start.elapsed().as_nanos() as u64;
        let Ok(Some(answer)) = result else {
            return;
        };
        if answer.is_empty() {
            return;
        }
        if seen.len() <= id.index() {
            seen.resize(id.index() + 1, false);
        }
        seen[id.index()] = true;
        out.push(PoolCandidate { id, answer });
    };

    // Projections of every live base onto every column, plus aggregates of
    // numeric projections and counts of the base itself.
    for &base in &live_bases {
        if base != all_records {
            push(node(Node::Aggregate {
                op: AggregateOp::Count,
                sub: base,
            }));
        }
        for (column, &name) in columns.iter().enumerate() {
            let projection = node(Node::ColumnValues {
                column: name,
                records: base,
            });
            if base != all_records {
                push(projection);
            }
            if numeric_columns.contains(&column) {
                for op in [
                    AggregateOp::Max,
                    AggregateOp::Min,
                    AggregateOp::Sum,
                    AggregateOp::Avg,
                ] {
                    push(node(Node::Aggregate {
                        op,
                        sub: projection,
                    }));
                }
            }
        }
    }

    // Most-common values per text column.
    for &column in text_columns {
        let values = node(Node::ColumnValues {
            column: columns[column],
            records: all_records,
        });
        for op in [SuperlativeOp::Argmax, SuperlativeOp::Argmin] {
            push(node(Node::MostCommonValue {
                op,
                values,
                column: columns[column],
            }));
        }
    }

    // Same-column value pairs: differences, occurrence differences and
    // comparisons by a numeric key column.
    for i in 0..links.len() {
        for j in 0..links.len() {
            if i == j || links[i].column != links[j].column {
                continue;
            }
            let selected = columns[links[i].column];
            let (join_a, join_b) = (joins[i], joins[j]);
            push(node(Node::Sub(
                node(Node::Aggregate {
                    op: AggregateOp::Count,
                    sub: join_a,
                }),
                node(Node::Aggregate {
                    op: AggregateOp::Count,
                    sub: join_b,
                }),
            )));
            for &num in numeric_columns {
                let key = columns[num];
                push(node(Node::Sub(
                    node(Node::ColumnValues {
                        column: key,
                        records: join_a,
                    }),
                    node(Node::ColumnValues {
                        column: key,
                        records: join_b,
                    }),
                )));
                if i < j {
                    for op in [SuperlativeOp::Argmax, SuperlativeOp::Argmin] {
                        for (first, second) in [(i, j), (j, i)] {
                            push(node(Node::CompareValues {
                                op,
                                values: node(Node::Union(link_values[first], link_values[second])),
                                key_column: key,
                                value_column: selected,
                            }));
                        }
                    }
                }
            }
        }
    }

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
        let mut seen = std::collections::HashSet::new();
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
