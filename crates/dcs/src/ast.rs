//! The lambda DCS abstract syntax tree.
//!
//! Each variant corresponds to one operator of the paper's Table 10 (plus the
//! comparison joins that appear in Figure 4 and in Table 3's "is at most"
//! grammar rule). Formulas are compositional: record-denoting formulas nest
//! inside value-denoting formulas, which nest inside aggregates and
//! arithmetic.

use serde::{Deserialize, Serialize};
use std::fmt;

use wtq_table::Value;

/// Aggregate functions over a value set (`aggrs` in §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AggregateOp {
    /// Number of elements in the set (applies to values or records).
    Count,
    /// Largest numeric value.
    Max,
    /// Smallest numeric value.
    Min,
    /// Sum of numeric values.
    Sum,
    /// Arithmetic mean of numeric values.
    Avg,
}

impl AggregateOp {
    /// Lower-case operator name as it appears in the concrete syntax.
    pub fn name(self) -> &'static str {
        match self {
            AggregateOp::Count => "count",
            AggregateOp::Max => "max",
            AggregateOp::Min => "min",
            AggregateOp::Sum => "sum",
            AggregateOp::Avg => "avg",
        }
    }

    /// All aggregate operators, in a stable order.
    pub fn all() -> [AggregateOp; 5] {
        [
            AggregateOp::Count,
            AggregateOp::Max,
            AggregateOp::Min,
            AggregateOp::Sum,
            AggregateOp::Avg,
        ]
    }
}

impl fmt::Display for AggregateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Superlative direction (`argmax` / `argmin`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SuperlativeOp {
    /// Select the element(s) with the largest key.
    Argmax,
    /// Select the element(s) with the smallest key.
    Argmin,
}

impl SuperlativeOp {
    /// Operator name in the concrete syntax.
    pub fn name(self) -> &'static str {
        match self {
            SuperlativeOp::Argmax => "argmax",
            SuperlativeOp::Argmin => "argmin",
        }
    }
}

impl fmt::Display for SuperlativeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Comparison operators used by comparison joins (`Games.(> 4)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CompareOp {
    /// Strictly less than.
    Lt,
    /// Less than or equal ("is at most").
    Leq,
    /// Strictly greater than ("more than").
    Gt,
    /// Greater than or equal ("at least").
    Geq,
    /// Not equal.
    Neq,
}

impl CompareOp {
    /// Symbolic form used by the concrete syntax and the SQL translation.
    pub fn symbol(self) -> &'static str {
        match self {
            CompareOp::Lt => "<",
            CompareOp::Leq => "<=",
            CompareOp::Gt => ">",
            CompareOp::Geq => ">=",
            CompareOp::Neq => "!=",
        }
    }

    /// Apply the comparison to two numbers.
    pub fn compare(self, left: f64, right: f64) -> bool {
        match self {
            CompareOp::Lt => left < right,
            CompareOp::Leq => left <= right,
            CompareOp::Gt => left > right,
            CompareOp::Geq => left >= right,
            CompareOp::Neq => (left - right).abs() > f64::EPSILON,
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// A lambda DCS formula.
///
/// The correspondence to the paper's Table 10 (operator → variant):
///
/// | Paper operator | Variant |
/// |---|---|
/// | Column Records `C.v` | [`Formula::Join`] |
/// | Column Values `R[C].records` | [`Formula::ColumnValues`] |
/// | Values in Preceding Records `R[C].Prev.records` | [`Formula::ColumnValues`] over [`Formula::Prev`] |
/// | Values in Following Records `R[C].R[Prev].records` | [`Formula::ColumnValues`] over [`Formula::Next`] |
/// | Aggregation on Values `aggr(vals)` | [`Formula::Aggregate`] |
/// | Difference of Values `sub(...)` | [`Formula::Sub`] |
/// | Difference of Value Occurrences `sub(count(C.v), count(C.u))` | [`Formula::Sub`] of [`Formula::Aggregate`]s |
/// | Union of Values `vals ⊔ vals` | [`Formula::Union`] |
/// | Intersection of Records `records ⊓ records` | [`Formula::Intersect`] |
/// | Records with Highest Value `argmax(Record, λx[C.x])` | [`Formula::SuperlativeRecords`] |
/// | Value in Record with Highest Index `R[C].argmax(records, Index)` | [`Formula::ColumnValues`] over [`Formula::RecordIndexSuperlative`] |
/// | Value with Most Appearances `argmax(vals, R[λx.count(C.x)])` | [`Formula::MostCommonValue`] |
/// | Comparing Values `argmax(vals, R[λx.R[C1].C2.x])` | [`Formula::CompareValues`] |
/// | Comparison (`Games.(> 4)`, Figure 4) | [`Formula::CompareJoin`] |
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Formula {
    /// A constant value: `Greece`, `2004`, `date(2013, 6, 8)`. Denotes the
    /// set of cells containing that value (a value unary).
    Const(Value),
    /// The set of all table records (`Rows` / `Record` in the paper's
    /// superlative example).
    AllRecords,
    /// Join (selection): records whose cell in `column` takes a value in the
    /// denotation of `values`. `Country.Greece` is
    /// `Join { column: "Country", values: Const("Greece") }`.
    Join {
        /// Column header acting as the binary relation.
        column: String,
        /// Value-denoting sub-formula (usually a constant or a union).
        values: Box<Formula>,
    },
    /// Comparison join: records whose (numeric) cell in `column` satisfies
    /// `op` against the single numeric value denoted by `value`.
    /// `Games.(> 4)` from Figure 4.
    CompareJoin {
        /// Column whose values are compared.
        column: String,
        /// Comparison operator.
        op: CompareOp,
        /// Value-denoting sub-formula with a single numeric denotation.
        value: Box<Formula>,
    },
    /// Reverse join (projection): values of `column` in the records denoted by
    /// `records`. `R[Year].Country.Greece`.
    ColumnValues {
        /// Column to project.
        column: String,
        /// Record-denoting sub-formula.
        records: Box<Formula>,
    },
    /// Records directly above the given records (`Prev.records`).
    Prev(Box<Formula>),
    /// Records directly below the given records (`R[Prev].records`).
    Next(Box<Formula>),
    /// Intersection of two record sets (`⊓`).
    Intersect(Box<Formula>, Box<Formula>),
    /// Union of two sets (values or records, `⊔`).
    Union(Box<Formula>, Box<Formula>),
    /// Aggregate over a value set (or `count` over records).
    Aggregate {
        /// Which aggregate to apply.
        op: AggregateOp,
        /// Sub-formula being aggregated.
        sub: Box<Formula>,
    },
    /// Records with the highest / lowest value in `column`:
    /// `argmax(records, λx[Column.x])`.
    SuperlativeRecords {
        /// Direction of the superlative.
        op: SuperlativeOp,
        /// Record-denoting sub-formula to select from.
        records: Box<Formula>,
        /// Column supplying the ranking key.
        column: String,
    },
    /// Records with the highest / lowest `Index` among the given records —
    /// the last (or first) row of a record set: `argmax(records, Index)`.
    RecordIndexSuperlative {
        /// Direction (`Argmax` = last row, `Argmin` = first row).
        op: SuperlativeOp,
        /// Record-denoting sub-formula.
        records: Box<Formula>,
    },
    /// Among the values denoted by `values`, the one appearing the most (or
    /// least) often in `column`: `argmax(vals, R[λx.count(Column.x)])`.
    MostCommonValue {
        /// Direction (most vs. fewest appearances).
        op: SuperlativeOp,
        /// Candidate values.
        values: Box<Formula>,
        /// Column in which appearances are counted.
        column: String,
    },
    /// Among the values denoted by `values` (values of `value_column`), the
    /// one whose record has the highest / lowest value in `key_column`:
    /// `argmax(London ⊔ Beijing, R[λx.R[Year].City.x])`.
    CompareValues {
        /// Direction of the comparison.
        op: SuperlativeOp,
        /// Candidate values (drawn from `value_column`).
        values: Box<Formula>,
        /// Column providing the ranking key (C1 in Table 10).
        key_column: String,
        /// Column the candidate values belong to (C2 in Table 10).
        value_column: String,
    },
    /// Arithmetic difference between two single-valued numeric denotations.
    Sub(Box<Formula>, Box<Formula>),
}

impl Formula {
    /// Convenience constructor: `Column.value` with a string constant.
    pub fn join_str(column: &str, value: &str) -> Formula {
        Formula::Join {
            column: column.to_string(),
            values: Box::new(Formula::Const(Value::parse(value))),
        }
    }

    /// Convenience constructor: `R[column].records`.
    pub fn column_values(column: &str, records: Formula) -> Formula {
        Formula::ColumnValues {
            column: column.to_string(),
            records: Box::new(records),
        }
    }

    /// Convenience constructor: `aggr(sub)`.
    pub fn aggregate(op: AggregateOp, sub: Formula) -> Formula {
        Formula::Aggregate {
            op,
            sub: Box::new(sub),
        }
    }

    /// The operands of the outermost operator (its direct sub-formulas, the
    /// `Decompose(Q)` step of Algorithm 1), left to right, in the first
    /// slots: none, one or two.
    pub(crate) fn operands(&self) -> [Option<&Formula>; 2] {
        match self {
            Formula::Const(_) | Formula::AllRecords => [None, None],
            Formula::Join { values: sub, .. }
            | Formula::CompareJoin { value: sub, .. }
            | Formula::ColumnValues { records: sub, .. }
            | Formula::Prev(sub)
            | Formula::Next(sub)
            | Formula::Aggregate { sub, .. }
            | Formula::SuperlativeRecords { records: sub, .. }
            | Formula::RecordIndexSuperlative { records: sub, .. }
            | Formula::MostCommonValue { values: sub, .. }
            | Formula::CompareValues { values: sub, .. } => [Some(sub), None],
            Formula::Intersect(a, b) | Formula::Union(a, b) | Formula::Sub(a, b) => {
                [Some(a), Some(b)]
            }
        }
    }

    /// All sub-formulas of `self` including `self`, pre-order. This is the
    /// set `Q_SUB` used by the provenance function `P_E` (Equation 2).
    pub fn sub_formulas(&self) -> Vec<&Formula> {
        let mut out = Vec::new();
        self.visit(&mut |sub| out.push(sub));
        out
    }

    /// Visit every sub-formula of `self` including `self`, pre-order, without
    /// allocating the intermediate vectors [`Formula::sub_formulas`] builds.
    pub fn visit<'f>(&'f self, f: &mut impl FnMut(&'f Formula)) {
        f(self);
        for child in self.operands().into_iter().flatten() {
            child.visit(f);
        }
    }

    /// Column headers mentioned anywhere in the formula (projected, selected,
    /// aggregated or used as a superlative key) — the columns contributing to
    /// `P_C` (Equation 3).
    pub fn columns_mentioned(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        let mut seen = std::collections::HashSet::new();
        out.retain(|c| seen.insert(c.to_ascii_lowercase()));
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Formula::Const(_) | Formula::AllRecords => {}
            Formula::Join { column, values } => {
                out.push(column.clone());
                values.collect_columns(out);
            }
            Formula::CompareJoin { column, value, .. } => {
                out.push(column.clone());
                value.collect_columns(out);
            }
            Formula::ColumnValues { column, records } => {
                out.push(column.clone());
                records.collect_columns(out);
            }
            Formula::Prev(sub) | Formula::Next(sub) => sub.collect_columns(out),
            Formula::Intersect(a, b) | Formula::Union(a, b) | Formula::Sub(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Formula::Aggregate { sub, .. } => sub.collect_columns(out),
            Formula::SuperlativeRecords {
                records, column, ..
            } => {
                out.push(column.clone());
                records.collect_columns(out);
            }
            Formula::RecordIndexSuperlative { records, .. } => records.collect_columns(out),
            Formula::MostCommonValue { values, column, .. } => {
                out.push(column.clone());
                values.collect_columns(out);
            }
            Formula::CompareValues {
                values,
                key_column,
                value_column,
                ..
            } => {
                out.push(key_column.clone());
                out.push(value_column.clone());
                values.collect_columns(out);
            }
        }
    }

    /// Whether the outermost operator is an aggregate or arithmetic operation
    /// (the `OP` of Equation 1, which joins the provenance output set).
    pub fn is_numeric_operation(&self) -> bool {
        matches!(self, Formula::Aggregate { .. } | Formula::Sub(_, _))
    }

    /// Whether the formula is atomic (no sub-formulas) — the base case of
    /// Algorithm 1.
    pub fn is_atomic(&self) -> bool {
        matches!(self, Formula::Const(_) | Formula::AllRecords)
    }

    /// Number of operator nodes in the formula, a simple complexity measure
    /// used as a parser feature and in candidate pruning.
    pub fn size(&self) -> usize {
        1 + self
            .operands()
            .into_iter()
            .flatten()
            .map(Formula::size)
            .sum::<usize>()
    }

    /// Maximum nesting depth.
    pub fn depth(&self) -> usize {
        1 + self
            .operands()
            .into_iter()
            .flatten()
            .map(Formula::depth)
            .max()
            .unwrap_or(0)
    }
}

/// A name in the concrete syntax: as is if it is a simple identifier that
/// is not a keyword, double-quoted (inner quotes backslash-escaped)
/// otherwise.
struct Quoted<'a>(&'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.0;
        let simple = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            && !["and", "or", "rows", "record", "prev", "next", "r"]
                .iter()
                .any(|keyword| name.eq_ignore_ascii_case(keyword));
        if simple {
            return f.write_str(name);
        }
        f.write_str("\"")?;
        for (i, part) in name.split('"').enumerate() {
            if i > 0 {
                f.write_str("\\\"")?;
            }
            f.write_str(part)?;
        }
        f.write_str("\"")
    }
}

/// A constant value in the concrete syntax.
struct Literal<'a>(&'a Value);

impl fmt::Display for Literal<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Value::Num(_) => write!(f, "{}", self.0),
            Value::Date(d) => match (d.month, d.day) {
                (Some(m), Some(day)) => write!(f, "date({}, {}, {})", d.year, m, day),
                (Some(m), None) => write!(f, "date({}, {})", d.year, m),
                _ => write!(f, "date({})", d.year),
            },
            Value::Str(s) => write!(f, "{}", Quoted(s)),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Const(value) => write!(f, "{}", Literal(value)),
            Formula::AllRecords => write!(f, "Rows"),
            Formula::Join { column, values } => {
                if values.is_atomic() {
                    write!(f, "{}.{}", Quoted(column), values)
                } else {
                    write!(f, "{}.({})", Quoted(column), values)
                }
            }
            Formula::CompareJoin { column, op, value } => {
                write!(f, "{}.({} {})", Quoted(column), op.symbol(), value)
            }
            Formula::ColumnValues { column, records } => {
                if records.is_atomic()
                    || matches!(
                        records.as_ref(),
                        Formula::Join { .. }
                            | Formula::CompareJoin { .. }
                            | Formula::Prev(_)
                            | Formula::Next(_)
                    )
                {
                    write!(f, "R[{}].{}", Quoted(column), records)
                } else {
                    write!(f, "R[{}].({})", Quoted(column), records)
                }
            }
            Formula::Prev(sub) => {
                if sub.is_atomic() || matches!(sub.as_ref(), Formula::Join { .. }) {
                    write!(f, "Prev.{sub}")
                } else {
                    write!(f, "Prev.({sub})")
                }
            }
            Formula::Next(sub) => {
                if sub.is_atomic() || matches!(sub.as_ref(), Formula::Join { .. }) {
                    write!(f, "R[Prev].{sub}")
                } else {
                    write!(f, "R[Prev].({sub})")
                }
            }
            Formula::Intersect(a, b) => write!(f, "({a} and {b})"),
            Formula::Union(a, b) => write!(f, "({a} or {b})"),
            Formula::Aggregate { op, sub } => write!(f, "{}({})", op.name(), sub),
            Formula::SuperlativeRecords {
                op,
                records,
                column,
            } => {
                write!(f, "{}({}, {})", op.name(), records, Quoted(column))
            }
            Formula::RecordIndexSuperlative { op, records } => {
                let name = match op {
                    SuperlativeOp::Argmax => "last",
                    SuperlativeOp::Argmin => "first",
                };
                write!(f, "{name}({records})")
            }
            Formula::MostCommonValue { op, values, column } => {
                let name = match op {
                    SuperlativeOp::Argmax => "most_common",
                    SuperlativeOp::Argmin => "least_common",
                };
                write!(f, "{}({}, {})", name, values, Quoted(column))
            }
            Formula::CompareValues {
                op,
                values,
                key_column,
                value_column,
            } => {
                let name = match op {
                    SuperlativeOp::Argmax => "compare_max",
                    SuperlativeOp::Argmin => "compare_min",
                };
                write!(
                    f,
                    "{}({}, {}, {})",
                    name,
                    values,
                    Quoted(key_column),
                    Quoted(value_column)
                )
            }
            Formula::Sub(a, b) => write!(f, "sub({a}, {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure_one_query() -> Formula {
        // max(R[Year].Country.Greece)
        Formula::aggregate(
            AggregateOp::Max,
            Formula::column_values("Year", Formula::join_str("Country", "Greece")),
        )
    }

    #[test]
    fn display_matches_paper_style() {
        assert_eq!(
            figure_one_query().to_string(),
            "max(R[Year].Country.Greece)"
        );
        let q = Formula::column_values(
            "City",
            Formula::SuperlativeRecords {
                op: SuperlativeOp::Argmin,
                records: Box::new(Formula::AllRecords),
                column: "Year".into(),
            },
        );
        assert_eq!(q.to_string(), "R[City].(argmin(Rows, Year))");
    }

    #[test]
    fn display_quotes_multiword_names() {
        let q = Formula::column_values("Growth Rate", Formula::join_str("Lake", "Lake Huron"));
        assert_eq!(q.to_string(), "R[\"Growth Rate\"].Lake.\"Lake Huron\"");
    }

    #[test]
    fn sub_formulas_are_preorder() {
        let q = figure_one_query();
        let subs = q.sub_formulas();
        assert_eq!(subs.len(), 4);
        assert!(matches!(subs[0], Formula::Aggregate { .. }));
        assert!(matches!(subs[1], Formula::ColumnValues { .. }));
        assert!(matches!(subs[2], Formula::Join { .. }));
        assert!(matches!(subs[3], Formula::Const(_)));
    }

    #[test]
    fn columns_mentioned_deduplicates_case_insensitively() {
        let q = Formula::Intersect(
            Box::new(Formula::join_str("City", "London")),
            Box::new(Formula::join_str("city", "Athens")),
        );
        assert_eq!(q.columns_mentioned(), vec!["City".to_string()]);
        let q = figure_one_query();
        assert_eq!(
            q.columns_mentioned(),
            vec!["Year".to_string(), "Country".to_string()]
        );
    }

    #[test]
    fn size_and_depth() {
        let q = figure_one_query();
        assert_eq!(q.size(), 4);
        assert_eq!(q.depth(), 4);
        assert_eq!(Formula::AllRecords.size(), 1);
        assert!(Formula::AllRecords.is_atomic());
        assert!(!q.is_atomic());
    }

    #[test]
    fn numeric_operation_detection() {
        assert!(figure_one_query().is_numeric_operation());
        assert!(Formula::Sub(
            Box::new(Formula::Const(Value::num(1.0))),
            Box::new(Formula::Const(Value::num(2.0)))
        )
        .is_numeric_operation());
        assert!(!Formula::AllRecords.is_numeric_operation());
    }

    #[test]
    fn compare_op_semantics() {
        assert!(CompareOp::Gt.compare(5.0, 4.0));
        assert!(!CompareOp::Gt.compare(4.0, 4.0));
        assert!(CompareOp::Geq.compare(4.0, 4.0));
        assert!(CompareOp::Leq.compare(4.0, 4.0));
        assert!(CompareOp::Lt.compare(3.0, 4.0));
        assert!(CompareOp::Neq.compare(3.0, 4.0));
        assert!(!CompareOp::Neq.compare(4.0, 4.0));
    }

    #[test]
    fn aggregate_names() {
        for op in AggregateOp::all() {
            assert!(!op.name().is_empty());
        }
        assert_eq!(AggregateOp::Count.to_string(), "count");
        assert_eq!(SuperlativeOp::Argmax.to_string(), "argmax");
        assert_eq!(CompareOp::Geq.to_string(), ">=");
    }
}
