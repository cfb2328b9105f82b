//! Templated question generation with gold lambda DCS queries.
//!
//! Each [`QuestionFamily`] covers one operator family of the paper's
//! evaluation (Table 1 lists the kinds of questions WikiTableQuestions
//! contains: lookups, aggregation, superlatives, arithmetic differences,
//! next/previous rows, counting, comparisons). A generated question carries
//! its gold formula; the gold answer is obtained by executing the formula,
//! and degenerate questions (empty or failing answers) are discarded.
//!
//! Surface forms vary per family (two to three paraphrases each) so the
//! semantic parser cannot memorize a single template.

use rand::seq::SliceRandom;
use rand::Rng;

use wtq_dcs::{Answer, Evaluator, Formula};
use wtq_table::{ColumnType, Table, Value};

/// The operator family a question exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum QuestionFamily {
    /// `R[target].sel.v`
    Lookup,
    /// `max(R[num].sel.v)` / `min(...)`
    ExtremeValue,
    /// `sum(R[num].sel.v)`
    SumValue,
    /// `count(sel.v)`
    CountRows,
    /// `R[target].argmax(Rows, num)` / argmin
    SuperlativeLookup,
    /// `sub(R[num].sel.v1, R[num].sel.v2)`
    DifferenceOfValues,
    /// `sub(count(sel.v1), count(sel.v2))`
    DifferenceOfCounts,
    /// `R[target].R[Prev].sel.v` / `R[target].Prev.sel.v`
    AdjacentRow,
    /// `R[target].last(sel.v)` / `first`
    FirstLastRow,
    /// `count(num.(> t))`
    ComparisonCount,
    /// `most_common(R[sel].Rows, sel)`
    MostCommon,
    /// `compare_max((v1 or v2), num, sel)`
    CompareTwoValues,
    /// `count((sel.v1 or sel.v2))`
    UnionCount,
    /// `count((sel1.v1 and sel2.v2))`
    IntersectionCount,
}

impl QuestionFamily {
    /// All families, in a stable order.
    pub fn all() -> Vec<QuestionFamily> {
        use QuestionFamily::*;
        vec![
            Lookup,
            ExtremeValue,
            SumValue,
            CountRows,
            SuperlativeLookup,
            DifferenceOfValues,
            DifferenceOfCounts,
            AdjacentRow,
            FirstLastRow,
            ComparisonCount,
            MostCommon,
            CompareTwoValues,
            UnionCount,
            IntersectionCount,
        ]
    }

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        use QuestionFamily::*;
        match self {
            Lookup => "lookup",
            ExtremeValue => "extreme_value",
            SumValue => "sum_value",
            CountRows => "count_rows",
            SuperlativeLookup => "superlative_lookup",
            DifferenceOfValues => "difference_values",
            DifferenceOfCounts => "difference_counts",
            AdjacentRow => "adjacent_row",
            FirstLastRow => "first_last_row",
            ComparisonCount => "comparison_count",
            MostCommon => "most_common",
            CompareTwoValues => "compare_two_values",
            UnionCount => "union_count",
            IntersectionCount => "intersection_count",
        }
    }
}

/// A generated question with its gold query and answer.
#[derive(Debug, Clone)]
pub struct GeneratedQuestion {
    /// The natural-language question.
    pub question: String,
    /// The gold lambda DCS formula.
    pub formula: Formula,
    /// The gold answer (the formula's execution result on the table).
    pub answer: Answer,
    /// The operator family exercised.
    pub family: QuestionFamily,
}

/// Generate up to `count` questions about `table`, cycling through the
/// question families and skipping degenerate instances. Every gold formula
/// is answered on one evaluator session over the table.
pub fn generate_questions<R: Rng>(
    table: &Table,
    count: usize,
    rng: &mut R,
) -> Vec<GeneratedQuestion> {
    let evaluator = Evaluator::new(table);
    let families = QuestionFamily::all();
    let mut out: Vec<GeneratedQuestion> = Vec::with_capacity(count);
    let mut attempts = 0usize;
    while out.len() < count && attempts < count * 12 {
        let family = families[attempts % families.len()];
        attempts += 1;
        let Some(candidate) = question_for_family(&evaluator, family, rng) else {
            continue;
        };
        if out.iter().any(|q| q.question == candidate.question) {
            continue;
        }
        out.push(candidate);
    }
    out
}

/// Generate a single question of the given family, if the table supports it.
pub fn generate_for_family<R: Rng>(
    table: &Table,
    family: QuestionFamily,
    rng: &mut R,
) -> Option<GeneratedQuestion> {
    question_for_family(&Evaluator::new(table), family, rng)
}

/// [`generate_for_family`] on the table of `evaluator`, answering the gold
/// formula in that session: a non-empty answer of at most six values.
fn question_for_family<R: Rng>(
    evaluator: &Evaluator<'_>,
    family: QuestionFamily,
    rng: &mut R,
) -> Option<GeneratedQuestion> {
    let (question, formula) = build(evaluator.table(), family, rng)?;
    let Ok(Some(answer)) = evaluator.bounded_answer(&formula, 6) else {
        return None;
    };
    if answer.is_empty() {
        return None;
    }
    Some(GeneratedQuestion {
        question,
        formula,
        answer,
        family,
    })
}

/// Columns usable as selection columns: categorical / name columns with at
/// least two distinct values.
fn selection_columns(table: &Table) -> Vec<usize> {
    (0..table.num_columns())
        .filter(|&c| {
            matches!(table.column_type(c), ColumnType::Text | ColumnType::Mixed)
                && table.distinct_column_values(c).len() >= 2
        })
        .collect()
}

fn numeric_columns(table: &Table) -> Vec<usize> {
    (0..table.num_columns())
        .filter(|&c| matches!(table.column_type(c), ColumnType::Number | ColumnType::Date))
        .collect()
}

fn pick<'a, R: Rng, T>(items: &'a [T], rng: &mut R) -> Option<&'a T> {
    items.choose(rng)
}

fn pick_value<R: Rng>(table: &Table, column: usize, rng: &mut R) -> Option<Value> {
    let values = table.distinct_column_values(column);
    values.choose(rng).cloned()
}

fn pick_two_values<R: Rng>(table: &Table, column: usize, rng: &mut R) -> Option<(Value, Value)> {
    let values = table.distinct_column_values(column);
    if values.len() < 2 {
        return None;
    }
    let mut chosen: Vec<&Value> = values.choose_multiple(rng, 2).collect();
    chosen.shuffle(rng);
    Some((chosen[0].clone(), chosen[1].clone()))
}

fn join(column: &str, value: &Value) -> Formula {
    Formula::Join {
        column: column.to_string(),
        values: Box::new(Formula::Const(value.clone())),
    }
}

#[allow(clippy::too_many_lines)]
fn build<R: Rng>(table: &Table, family: QuestionFamily, rng: &mut R) -> Option<(String, Formula)> {
    let selections = selection_columns(table);
    let numerics = numeric_columns(table);
    let column_name = |c: usize| table.column_name(c).to_string();
    match family {
        QuestionFamily::Lookup => {
            let sel = *pick(&selections, rng)?;
            let target = (0..table.num_columns()).find(|&c| c != sel)?;
            let value = pick_value(table, sel, rng)?;
            let (sel_name, target_name) = (column_name(sel), column_name(target));
            let question = match rng.gen_range(0..3) {
                0 => format!("What is the {target_name} when the {sel_name} is {value}?"),
                1 => format!("Which {target_name} is listed for {sel_name} {value}?"),
                _ => format!("Tell me the {target_name} of the rows whose {sel_name} is {value}."),
            };
            let formula = Formula::column_values(&target_name, join(&sel_name, &value));
            Some((question, formula))
        }
        QuestionFamily::ExtremeValue => {
            let sel = *pick(&selections, rng)?;
            let num = *pick(&numerics, rng)?;
            let value = pick_value(table, sel, rng)?;
            let (sel_name, num_name) = (column_name(sel), column_name(num));
            let highest = rng.gen_bool(0.5);
            let op = if highest {
                wtq_dcs::AggregateOp::Max
            } else {
                wtq_dcs::AggregateOp::Min
            };
            let adjective = if highest { "highest" } else { "lowest" };
            let question = match rng.gen_range(0..2) {
                0 => format!("What is the {adjective} {num_name} where the {sel_name} is {value}?"),
                _ => format!("For {sel_name} {value}, what is the {adjective} {num_name}?"),
            };
            let formula = Formula::aggregate(
                op,
                Formula::column_values(&num_name, join(&sel_name, &value)),
            );
            Some((question, formula))
        }
        QuestionFamily::SumValue => {
            let sel = *pick(&selections, rng)?;
            let num = *pick(&numerics, rng)?;
            let value = pick_value(table, sel, rng)?;
            let (sel_name, num_name) = (column_name(sel), column_name(num));
            let question = match rng.gen_range(0..2) {
                0 => format!("What is the total {num_name} for {sel_name} {value}?"),
                _ => format!("How much {num_name} in total do rows with {sel_name} {value} have?"),
            };
            let formula = Formula::aggregate(
                wtq_dcs::AggregateOp::Sum,
                Formula::column_values(&num_name, join(&sel_name, &value)),
            );
            Some((question, formula))
        }
        QuestionFamily::CountRows => {
            let sel = *pick(&selections, rng)?;
            let value = pick_value(table, sel, rng)?;
            let sel_name = column_name(sel);
            let question = match rng.gen_range(0..3) {
                0 => format!("How many rows have {sel_name} {value}?"),
                1 => format!("How many times does {value} appear in the {sel_name} column?"),
                _ => format!("What is the number of entries whose {sel_name} is {value}?"),
            };
            let formula = Formula::aggregate(wtq_dcs::AggregateOp::Count, join(&sel_name, &value));
            Some((question, formula))
        }
        QuestionFamily::SuperlativeLookup => {
            let target = *pick(&selections, rng)?;
            let num = *pick(&numerics, rng)?;
            let (target_name, num_name) = (column_name(target), column_name(num));
            let highest = rng.gen_bool(0.5);
            let op = if highest {
                wtq_dcs::SuperlativeOp::Argmax
            } else {
                wtq_dcs::SuperlativeOp::Argmin
            };
            let adjective = if highest { "highest" } else { "lowest" };
            let question = match rng.gen_range(0..2) {
                0 => format!("Which {target_name} has the {adjective} {num_name}?"),
                _ => format!("What {target_name} holds the {adjective} value of {num_name}?"),
            };
            let formula = Formula::column_values(
                &target_name,
                Formula::SuperlativeRecords {
                    op,
                    records: Box::new(Formula::AllRecords),
                    column: num_name,
                },
            );
            Some((question, formula))
        }
        QuestionFamily::DifferenceOfValues => {
            let sel = *pick(&selections, rng)?;
            let num = *pick(&numerics, rng)?;
            let (v1, v2) = pick_two_values(table, sel, rng)?;
            let (sel_name, num_name) = (column_name(sel), column_name(num));
            let question = match rng.gen_range(0..2) {
                0 => format!(
                    "What is the difference in {num_name} between {sel_name} {v1} and {sel_name} {v2}?"
                ),
                _ => format!("How much more {num_name} does {v1} have than {v2}?"),
            };
            let formula = Formula::Sub(
                Box::new(Formula::column_values(&num_name, join(&sel_name, &v1))),
                Box::new(Formula::column_values(&num_name, join(&sel_name, &v2))),
            );
            Some((question, formula))
        }
        QuestionFamily::DifferenceOfCounts => {
            let sel = *pick(&selections, rng)?;
            let (v1, v2) = pick_two_values(table, sel, rng)?;
            let sel_name = column_name(sel);
            let question = match rng.gen_range(0..2) {
                0 => format!("How many more rows have {sel_name} {v1} than {sel_name} {v2}?"),
                _ => format!(
                    "In column {sel_name}, what is the difference between the number of {v1} rows and {v2} rows?"
                ),
            };
            let formula = Formula::Sub(
                Box::new(Formula::aggregate(
                    wtq_dcs::AggregateOp::Count,
                    join(&sel_name, &v1),
                )),
                Box::new(Formula::aggregate(
                    wtq_dcs::AggregateOp::Count,
                    join(&sel_name, &v2),
                )),
            );
            Some((question, formula))
        }
        QuestionFamily::AdjacentRow => {
            let sel = *pick(&selections, rng)?;
            let target = (0..table.num_columns()).find(|&c| c != sel)?;
            let value = pick_value(table, sel, rng)?;
            let (sel_name, target_name) = (column_name(sel), column_name(target));
            let below = rng.gen_bool(0.5);
            let direction = if below { "after" } else { "before" };
            let question = format!(
                "What is the {target_name} right {direction} the row where {sel_name} is {value}?"
            );
            let records = join(&sel_name, &value);
            let shifted = if below {
                Formula::Next(Box::new(records))
            } else {
                Formula::Prev(Box::new(records))
            };
            Some((question, Formula::column_values(&target_name, shifted)))
        }
        QuestionFamily::FirstLastRow => {
            let sel = *pick(&selections, rng)?;
            let target = (0..table.num_columns()).find(|&c| c != sel)?;
            let value = pick_value(table, sel, rng)?;
            let (sel_name, target_name) = (column_name(sel), column_name(target));
            let last = rng.gen_bool(0.5);
            let op = if last {
                wtq_dcs::SuperlativeOp::Argmax
            } else {
                wtq_dcs::SuperlativeOp::Argmin
            };
            let position = if last { "last" } else { "first" };
            let question = format!(
                "What is the {target_name} of the {position} row whose {sel_name} is {value}?"
            );
            let formula = Formula::column_values(
                &target_name,
                Formula::RecordIndexSuperlative {
                    op,
                    records: Box::new(join(&sel_name, &value)),
                },
            );
            Some((question, formula))
        }
        QuestionFamily::ComparisonCount => {
            let num = *pick(&numerics, rng)?;
            let num_name = column_name(num);
            let values: Vec<f64> = table
                .record_indices()
                .filter_map(|r| table.number_at(r, num))
                .collect();
            if values.is_empty() {
                return None;
            }
            let mut sorted = values.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let threshold = sorted[sorted.len() / 2];
            let more = rng.gen_bool(0.5);
            let op = if more {
                wtq_dcs::CompareOp::Gt
            } else {
                wtq_dcs::CompareOp::Lt
            };
            let word = if more { "more" } else { "less" };
            let threshold_value = Value::Num(threshold);
            let question = format!("How many rows have {num_name} {word} than {threshold_value}?");
            let formula = Formula::aggregate(
                wtq_dcs::AggregateOp::Count,
                Formula::CompareJoin {
                    column: num_name,
                    op,
                    value: Box::new(Formula::Const(threshold_value)),
                },
            );
            Some((question, formula))
        }
        QuestionFamily::MostCommon => {
            let sel = *pick(&selections, rng)?;
            let sel_name = column_name(sel);
            let question = match rng.gen_range(0..2) {
                0 => format!("Which {sel_name} appears the most in the table?"),
                _ => format!("What is the most common value of {sel_name}?"),
            };
            let formula = Formula::MostCommonValue {
                op: wtq_dcs::SuperlativeOp::Argmax,
                values: Box::new(Formula::column_values(&sel_name, Formula::AllRecords)),
                column: sel_name,
            };
            Some((question, formula))
        }
        QuestionFamily::CompareTwoValues => {
            let sel = *pick(&selections, rng)?;
            let num = *pick(&numerics, rng)?;
            let (v1, v2) = pick_two_values(table, sel, rng)?;
            let (sel_name, num_name) = (column_name(sel), column_name(num));
            let higher = rng.gen_bool(0.5);
            let op = if higher {
                wtq_dcs::SuperlativeOp::Argmax
            } else {
                wtq_dcs::SuperlativeOp::Argmin
            };
            let adjective = if higher { "higher" } else { "lower" };
            let question = format!("Which has the {adjective} {num_name}, {v1} or {v2}?");
            let formula = Formula::CompareValues {
                op,
                values: Box::new(Formula::Union(
                    Box::new(Formula::Const(v1)),
                    Box::new(Formula::Const(v2)),
                )),
                key_column: num_name,
                value_column: sel_name,
            };
            Some((question, formula))
        }
        QuestionFamily::UnionCount => {
            let sel = *pick(&selections, rng)?;
            let (v1, v2) = pick_two_values(table, sel, rng)?;
            let sel_name = column_name(sel);
            let question = format!("How many rows have {sel_name} {v1} or {v2}?");
            let formula = Formula::aggregate(
                wtq_dcs::AggregateOp::Count,
                Formula::Union(
                    Box::new(join(&sel_name, &v1)),
                    Box::new(join(&sel_name, &v2)),
                ),
            );
            Some((question, formula))
        }
        QuestionFamily::IntersectionCount => {
            if selections.len() < 2 {
                return None;
            }
            let mut chosen: Vec<usize> = selections.choose_multiple(rng, 2).copied().collect();
            chosen.shuffle(rng);
            let (sel1, sel2) = (chosen[0], chosen[1]);
            let v1 = pick_value(table, sel1, rng)?;
            let v2 = pick_value(table, sel2, rng)?;
            let (name1, name2) = (column_name(sel1), column_name(sel2));
            let question = format!("How many rows have {name1} {v1} and also {name2} {v2}?");
            let formula = Formula::aggregate(
                wtq_dcs::AggregateOp::Count,
                Formula::Intersect(Box::new(join(&name1, &v1)), Box::new(join(&name2, &v2))),
            );
            Some((question, formula))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::all_domains;
    use crate::tablegen::generate_table;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wtq_dcs::eval;
    use wtq_table::samples;

    #[test]
    fn generates_questions_for_every_family_somewhere() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut seen: std::collections::HashSet<QuestionFamily> = std::collections::HashSet::new();
        for domain in all_domains() {
            let table = generate_table(&domain, 0, &mut rng);
            for family in QuestionFamily::all() {
                for _ in 0..4 {
                    if let Some(q) = generate_for_family(&table, family, &mut rng) {
                        seen.insert(q.family);
                        break;
                    }
                }
            }
        }
        assert_eq!(
            seen.len(),
            QuestionFamily::all().len(),
            "some family never generated"
        );
    }

    #[test]
    fn gold_answers_match_gold_formula_execution() {
        let table = samples::medals();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let questions = generate_questions(&table, 20, &mut rng);
        assert!(questions.len() >= 10);
        for q in &questions {
            let denotation = eval(&q.formula, &table).expect("gold formula evaluates");
            assert_eq!(
                Answer::from_denotation(&denotation),
                q.answer,
                "mismatch for {}",
                q.question
            );
            assert!(!q.question.is_empty());
        }
    }

    #[test]
    fn questions_mention_the_constants_they_ask_about() {
        // The lexicon-based parser relies on question tokens anchoring to the
        // table, so generated questions must surface their constants.
        let table = samples::shipwrecks();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for _ in 0..10 {
            if let Some(q) = generate_for_family(&table, QuestionFamily::CountRows, &mut rng) {
                let Formula::Aggregate { sub, .. } = &q.formula else {
                    panic!("unexpected shape")
                };
                let Formula::Join { values, .. } = sub.as_ref() else {
                    panic!("unexpected shape")
                };
                let Formula::Const(value) = values.as_ref() else {
                    panic!("unexpected shape")
                };
                assert!(
                    q.question
                        .to_lowercase()
                        .contains(&value.to_string().to_lowercase()),
                    "question {:?} does not mention {}",
                    q.question,
                    value
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let table = samples::olympics();
        let a = generate_questions(&table, 15, &mut ChaCha8Rng::seed_from_u64(5));
        let b = generate_questions(&table, 15, &mut ChaCha8Rng::seed_from_u64(5));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.question, y.question);
            assert_eq!(x.formula, y.formula);
        }
    }

    #[test]
    fn questions_are_distinct() {
        let table = samples::usl_league();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let questions = generate_questions(&table, 25, &mut rng);
        let mut texts: Vec<&str> = questions.iter().map(|q| q.question.as_str()).collect();
        texts.sort_unstable();
        let before = texts.len();
        texts.dedup();
        assert_eq!(before, texts.len());
    }

    #[test]
    fn family_names_are_unique() {
        let mut names: Vec<&str> = QuestionFamily::all().iter().map(|f| f.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
