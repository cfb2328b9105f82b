//! Differential check of the per-column provenance against the cell-set
//! oracle in `wtq-oracle`: on random formulas over generated tables, the
//! chain's three levels (as cell sets), its markers and header marks, the
//! class counts, the record lists `R_O`, `R_E` and `R_C`, the §5.3 sample's
//! source records and the text, ANSI and HTML renderings of the full and
//! the sampled view must all be equal, byte for byte, and so must every
//! error. Production runs both on fresh
//! evaluators and on one shared session whose memo other formulas warmed;
//! the oracle always runs on a fresh one.
//!
//! Tables come in three sizes: WTQ-size (8–18 rows), 256–512 rows, and at
//! most 4 rows, where the sample passes the whole table through. The
//! formula generator reaches every operator, `sub` (whose sample keeps two
//! output rows), and degenerate chains: bare constants, `AllRecords`, joins
//! that match nothing, intersections across columns and ill-typed
//! compositions that fail.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wtq_dataset::all_domains;
use wtq_dataset::tablegen::{generate_table, generate_table_with_rows};
use wtq_dcs::{AggregateOp, CompareOp, Evaluator, Formula, SuperlativeOp};
use wtq_oracle::provenance as oracle;
use wtq_provenance::{render, sample_highlights, Highlights};
use wtq_table::{Table, Value};

/// Which kind of table a case draws.
#[derive(Debug, Clone, Copy)]
enum Size {
    /// 8–18 rows, like the WTQ tables.
    Wtq,
    /// 256–512 rows.
    Large,
    /// 1–4 rows: the sample shows every row.
    Tiny,
}

fn table_for(size: Size, seed: u64) -> Table {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let domains = all_domains();
    let index = rng.gen_range(0..domains.len());
    let domain = &domains[index];
    match size {
        Size::Wtq => generate_table(domain, index, &mut rng),
        Size::Large => {
            let rows = rng.gen_range(256..513);
            generate_table_with_rows(domain, index, rows, &mut rng)
        }
        Size::Tiny => {
            let rows = rng.gen_range(1..5);
            generate_table_with_rows(domain, index, rows, &mut rng)
        }
    }
}

/// Random formulas over one table's columns and values.
struct Generator<'t> {
    table: &'t Table,
    rng: ChaCha8Rng,
}

impl Generator<'_> {
    fn chance(&mut self, numerator: u32, denominator: u32) -> bool {
        self.rng.gen_range(0..denominator) < numerator
    }

    /// A column name: mostly a real header (sometimes respelled, which
    /// resolves to the same column), rarely one the table lacks.
    fn column(&mut self) -> String {
        if self.chance(1, 40) {
            return "Missing".to_string();
        }
        let column = self.rng.gen_range(0..self.table.num_columns());
        let name = self.table.column_name(column);
        if self.chance(1, 10) {
            format!(" {} ", name.to_ascii_uppercase())
        } else {
            name.to_string()
        }
    }

    /// A column holding numbers, when the table has one.
    fn numeric_column(&mut self) -> String {
        let numeric: Vec<usize> = (0..self.table.num_columns())
            .filter(|&column| self.table.number_at(0, column).is_some())
            .collect();
        match numeric.choose(&mut self.rng) {
            Some(&column) => self.table.column_name(column).to_string(),
            None => self.column(),
        }
    }

    /// A cell value of the table, or one it does not hold.
    fn value(&mut self) -> Value {
        if self.chance(1, 8) {
            return Value::str("Atlantis");
        }
        let record = self.rng.gen_range(0..self.table.num_records());
        let column = self.rng.gen_range(0..self.table.num_columns());
        self.table.value_at(record, column).expect("cell in range")
    }

    fn superlative(&mut self) -> SuperlativeOp {
        if self.chance(1, 2) {
            SuperlativeOp::Argmax
        } else {
            SuperlativeOp::Argmin
        }
    }

    /// A constant: a table value, or a number to compare against.
    fn constant(&mut self) -> Formula {
        if self.chance(1, 3) {
            let record = self.rng.gen_range(0..self.table.num_records());
            let column = self.rng.gen_range(0..self.table.num_columns());
            if let Some(number) = self.table.number_at(record, column) {
                return Formula::Const(Value::num(number));
            }
        }
        Formula::Const(self.value())
    }

    /// A record-denoting formula.
    fn records(&mut self, depth: u32) -> Formula {
        if depth == 0 || self.chance(1, 3) {
            return match self.rng.gen_range(0..5) {
                0 => Formula::AllRecords,
                1 => Formula::CompareJoin {
                    column: self.numeric_column(),
                    op: *[
                        CompareOp::Lt,
                        CompareOp::Leq,
                        CompareOp::Gt,
                        CompareOp::Geq,
                        CompareOp::Neq,
                    ]
                    .choose(&mut self.rng)
                    .expect("operators"),
                    value: Box::new(self.constant()),
                },
                _ => Formula::Join {
                    column: self.column(),
                    values: Box::new(self.constant()),
                },
            };
        }
        let depth = depth - 1;
        match self.rng.gen_range(0..8) {
            0 => Formula::Prev(Box::new(self.records(depth))),
            1 => Formula::Next(Box::new(self.records(depth))),
            2 => Formula::Intersect(Box::new(self.records(depth)), Box::new(self.records(depth))),
            3 => Formula::Union(Box::new(self.records(depth)), Box::new(self.records(depth))),
            4 => Formula::SuperlativeRecords {
                op: self.superlative(),
                records: Box::new(self.records(depth)),
                column: self.column(),
            },
            5 => Formula::RecordIndexSuperlative {
                op: self.superlative(),
                records: Box::new(self.records(depth)),
            },
            // A join over a projection (or, rarely, over records: an
            // ill-typed operand the provenance walk still accepts).
            6 => Formula::Join {
                column: self.column(),
                values: Box::new(if self.chance(1, 6) {
                    self.records(depth)
                } else {
                    self.values(depth)
                }),
            },
            _ => Formula::CompareJoin {
                column: self.numeric_column(),
                op: CompareOp::Gt,
                value: Box::new(self.number(depth)),
            },
        }
    }

    /// A value-denoting formula.
    fn values(&mut self, depth: u32) -> Formula {
        if depth == 0 {
            return self.constant();
        }
        let depth = depth - 1;
        match self.rng.gen_range(0..9) {
            0 => self.constant(),
            1 => Formula::MostCommonValue {
                op: self.superlative(),
                values: Box::new(self.values(depth)),
                column: self.column(),
            },
            2 => Formula::CompareValues {
                op: self.superlative(),
                values: Box::new(if self.chance(1, 2) {
                    Formula::Union(Box::new(self.constant()), Box::new(self.constant()))
                } else {
                    self.values(depth)
                }),
                key_column: self.numeric_column(),
                value_column: self.column(),
            },
            3 => Formula::Union(Box::new(self.values(depth)), Box::new(self.values(depth))),
            4 => Formula::Intersect(Box::new(self.values(depth)), Box::new(self.values(depth))),
            // A projection of values (ill-typed) fails.
            5 if self.chance(1, 4) => Formula::ColumnValues {
                column: self.column(),
                records: Box::new(self.values(depth)),
            },
            _ => Formula::ColumnValues {
                column: self.column(),
                records: Box::new(self.records(depth)),
            },
        }
    }

    /// A number-denoting formula: an aggregate or a difference.
    fn number(&mut self, depth: u32) -> Formula {
        let aggregate = |generator: &mut Self, depth: u32| Formula::Aggregate {
            op: *[
                AggregateOp::Count,
                AggregateOp::Max,
                AggregateOp::Min,
                AggregateOp::Sum,
                AggregateOp::Avg,
            ]
            .choose(&mut generator.rng)
            .expect("aggregates"),
            sub: Box::new(if generator.chance(1, 5) {
                generator.records(depth)
            } else {
                Formula::ColumnValues {
                    column: generator.numeric_column(),
                    records: Box::new(generator.records(depth)),
                }
            }),
        };
        if depth > 0 && self.chance(1, 3) {
            let operand = |generator: &mut Self| {
                if generator.chance(1, 2) {
                    aggregate(generator, depth - 1)
                } else {
                    Formula::ColumnValues {
                        column: generator.numeric_column(),
                        records: Box::new(generator.records(depth - 1)),
                    }
                }
            };
            let left = operand(self);
            let right = operand(self);
            Formula::Sub(Box::new(left), Box::new(right))
        } else {
            aggregate(self, depth.saturating_sub(1))
        }
    }

    /// Any formula.
    fn formula(&mut self) -> Formula {
        let depth = self.rng.gen_range(1..4);
        match self.rng.gen_range(0..10) {
            0 => self.constant(),
            1..=3 => self.records(depth),
            4..=6 => self.values(depth),
            _ => self.number(depth),
        }
    }
}

/// What one comparison saw, for the coverage check.
#[derive(Default)]
struct Seen {
    compared: usize,
    errors: usize,
    two_output_rows_sampled: usize,
    empty_output: usize,
    pass_through: usize,
    /// Chains computed through each operator whose coverage is checked:
    /// `CompareValues`, `RecordIndexSuperlative`, `MostCommonValue`, and a
    /// bare constant or `AllRecords`.
    operators: [usize; 4],
}

/// Compare production on `evaluator` with the oracle on a fresh session.
fn compare(formula: &Formula, table: &Table, evaluator: &Evaluator<'_>, seen: &mut Seen) {
    seen.compared += 1;
    let got = Highlights::compute_with(formula, evaluator);
    let want = oracle::Highlights::compute(formula, table);
    let (got, want) = match (got, want) {
        (Err(got), Err(want)) => {
            assert_eq!(got, want, "error of {formula}");
            seen.errors += 1;
            return;
        }
        (Ok(got), Ok(want)) => (got, want),
        (got, want) => panic!("{formula}: production {got:?}, oracle {want:?}"),
    };
    let (chain, spec) = (&got.chain, &want.chain);
    assert_eq!(
        chain.output.iter().collect::<BTreeSet<_>>(),
        spec.output,
        "P_O of {formula}"
    );
    assert_eq!(
        chain.execution.iter().collect::<BTreeSet<_>>(),
        spec.execution,
        "P_E of {formula}"
    );
    assert_eq!(
        chain.columns.iter().collect::<BTreeSet<_>>(),
        spec.columns,
        "P_C of {formula}"
    );
    assert_eq!(chain.output.len(), spec.output.len(), "{formula}");
    assert_eq!(chain.execution.len(), spec.execution.len(), "{formula}");
    assert_eq!(chain.columns.len(), spec.columns.len(), "{formula}");
    assert_eq!(chain.markers, spec.markers, "markers of {formula}");
    assert_eq!(
        got.header_marks, want.header_marks,
        "header marks of {formula}"
    );
    assert_eq!(
        got.class_counts(),
        want.class_counts(),
        "class counts of {formula}"
    );
    assert_eq!(
        got.output_records(),
        want.output_records(),
        "R_O of {formula}"
    );
    assert_eq!(
        got.execution_records(),
        want.execution_records(),
        "R_E of {formula}"
    );
    assert_eq!(
        got.column_records(),
        want.column_records(),
        "R_C of {formula}"
    );
    assert_eq!(
        render::render_text(table, &got),
        oracle::render::render_text(table, &want)
    );
    assert_eq!(
        render::render_ansi(table, &got),
        oracle::render::render_ansi(table, &want)
    );
    assert_eq!(
        render::render_html(table, &got),
        oracle::render::render_html(table, &want)
    );

    let sample = sample_highlights(formula, table, &got);
    let spec = oracle::sample_highlights(formula, table, &want);
    assert_eq!(
        sample.source_records, spec.source_records,
        "sample of {formula}"
    );
    let (spec_table, spec_highlights) = (&spec.table, &spec.highlights);
    assert_eq!(
        sample.render_text(),
        oracle::render::render_text(spec_table, spec_highlights),
        "sampled text of {formula}"
    );
    assert_eq!(
        sample.render_ansi(),
        oracle::render::render_ansi(spec_table, spec_highlights),
        "sampled ANSI of {formula}"
    );
    assert_eq!(
        sample.render_html(),
        oracle::render::render_html(spec_table, spec_highlights),
        "sampled HTML of {formula}"
    );

    let sampled_output = sample
        .source_records
        .iter()
        .filter(|record| got.output_records().binary_search(record).is_ok())
        .count();
    if sampled_output >= 2 && matches!(formula, Formula::Sub(_, _)) {
        seen.two_output_rows_sampled += 1;
    }
    if chain.output.is_empty() {
        seen.empty_output += 1;
    }
    if sample.source_records.len() == table.num_records() {
        seen.pass_through += 1;
    }
    for sub in formula.sub_formulas() {
        let operator = match sub {
            Formula::CompareValues { .. } => 0,
            Formula::RecordIndexSuperlative { .. } => 1,
            Formula::MostCommonValue { .. } => 2,
            _ => continue,
        };
        seen.operators[operator] += 1;
    }
    if matches!(formula, Formula::Const(_) | Formula::AllRecords) {
        seen.operators[3] += 1;
    }
}

/// Formulas per table.
const FORMULAS: usize = 24;

/// Generate formulas over one table and compare each on a fresh session,
/// then on one shared session warmed by evaluating and answering the
/// batch first.
fn check(size: Size, table_seed: u64, formula_seed: u64, seen: &mut Seen) {
    let table = table_for(size, table_seed);
    let mut generator = Generator {
        table: &table,
        rng: ChaCha8Rng::seed_from_u64(formula_seed),
    };
    let formulas: Vec<Formula> = (0..FORMULAS).map(|_| generator.formula()).collect();
    for formula in &formulas {
        compare(formula, &table, &Evaluator::new(&table), seen);
    }
    let shared = Evaluator::new(&table);
    for formula in &formulas {
        let _ = shared.answer(formula);
        let _ = shared.eval(formula);
    }
    for formula in formulas.iter().rev() {
        compare(formula, &table, &shared, seen);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wtq_size_tables_match_the_cell_set_oracle(table in any::<u64>(), formulas in any::<u64>()) {
        check(Size::Wtq, table, formulas, &mut Seen::default());
    }

    #[test]
    fn large_tables_match_the_cell_set_oracle(table in any::<u64>(), formulas in any::<u64>()) {
        check(Size::Large, table, formulas, &mut Seen::default());
    }

    #[test]
    fn tiny_tables_pass_through_like_the_cell_set_oracle(
        table in any::<u64>(),
        formulas in any::<u64>(),
    ) {
        check(Size::Tiny, table, formulas, &mut Seen::default());
    }
}

/// The generator reaches what the properties are meant to cover: errors,
/// empty outputs, `sub` samples with two output rows, the pass-through,
/// chains through `compare_*`, `RecordIndexSuperlative` and `most_common`,
/// and bare constants and `AllRecords`.
#[test]
fn generated_formulas_reach_every_case() {
    let mut seen = Seen::default();
    for seed in 0..8 {
        check(Size::Wtq, seed, seed + 100, &mut seen);
        check(Size::Tiny, seed, seed + 200, &mut seen);
    }
    check(Size::Large, 1, 300, &mut seen);
    assert!(seen.errors > 0, "no error compared");
    assert!(seen.empty_output > 0, "no degenerate chain compared");
    assert!(
        seen.two_output_rows_sampled > 0,
        "no two-row sub sample compared"
    );
    assert!(seen.pass_through > 0, "no pass-through sample compared");
    assert!(
        seen.compared > seen.errors * 2,
        "mostly errors: {}",
        seen.errors
    );
    assert!(
        seen.operators.iter().all(|&chains| chains > 0),
        "an operator was never compared: {:?}",
        seen.operators
    );
}
