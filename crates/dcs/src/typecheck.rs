//! Static classification of formulas.
//!
//! Lambda DCS formulas denote records, values or a single number. The
//! semantic parser's candidate generation (and the SQL translation) needs to
//! know which kind a formula will produce *without* executing it; this module
//! derives that statically, rejecting formulas that can never evaluate
//! successfully (e.g. intersecting a number with records).

use crate::ast::{AggregateOp, Formula};
use crate::error::DcsError;
use crate::Result;

/// The static type of a formula's denotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormulaType {
    /// A set of table records.
    Records,
    /// A set of values.
    Values,
    /// A single number (aggregate or arithmetic result).
    Number,
}

impl FormulaType {
    /// Human-readable name used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            FormulaType::Records => "records",
            FormulaType::Values => "values",
            FormulaType::Number => "number",
        }
    }
}

/// Compute the static type of `formula`, or an error if the composition is
/// ill-typed regardless of the table it runs on. A formula with several
/// faults reports the first in operand order.
pub fn typecheck(formula: &Formula) -> Result<FormulaType> {
    let operands = formula.operands();
    Rule::of(formula).apply(|i| typecheck(operands[i].expect("the rule asks for an operand")))
}

/// The typing rule of one operator: what it requires of its operands and
/// what it denotes. [`typecheck`] applies it recursively to a [`Formula`],
/// and the formula arena once per node over its operands' recorded types.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rule {
    /// A leaf of a fixed type.
    Leaf(FormulaType),
    /// A selection (join or comparison join) of the records matching a
    /// value or number operand.
    Select {
        operator: &'static str,
        expected: &'static str,
    },
    /// One operand of exactly `expected` type, denoting `result`.
    Expect {
        operator: &'static str,
        expected: FormulaType,
        result: FormulaType,
    },
    /// Intersection or union: two operands of one non-numeric type.
    Combine { operator: &'static str },
    /// An aggregate; `count` also accepts records.
    Aggregate(AggregateOp),
    /// Arithmetic difference of two non-record operands.
    Difference,
}

impl Rule {
    pub(crate) const CONST: Rule = Rule::Leaf(FormulaType::Values);
    pub(crate) const ALL_RECORDS: Rule = Rule::Leaf(FormulaType::Records);
    pub(crate) const JOIN: Rule = Rule::Select {
        operator: "join",
        expected: "values",
    };
    pub(crate) const COMPARE_JOIN: Rule = Rule::Select {
        operator: "comparison",
        expected: "a numeric value",
    };
    pub(crate) const COLUMN_VALUES: Rule = Rule::expect(
        "column projection",
        FormulaType::Records,
        FormulaType::Values,
    );
    pub(crate) const PREV: Rule = Rule::expect("Prev", FormulaType::Records, FormulaType::Records);
    pub(crate) const NEXT: Rule =
        Rule::expect("R[Prev]", FormulaType::Records, FormulaType::Records);
    pub(crate) const INTERSECT: Rule = Rule::Combine {
        operator: "intersection",
    };
    pub(crate) const UNION: Rule = Rule::Combine { operator: "union" };
    pub(crate) const SUPERLATIVE: Rule =
        Rule::expect("superlative", FormulaType::Records, FormulaType::Records);
    pub(crate) const INDEX_SUPERLATIVE: Rule = Rule::expect(
        "index superlative",
        FormulaType::Records,
        FormulaType::Records,
    );
    pub(crate) const MOST_COMMON: Rule =
        Rule::expect("most_common", FormulaType::Values, FormulaType::Values);
    pub(crate) const COMPARE_VALUES: Rule =
        Rule::expect("compare", FormulaType::Values, FormulaType::Values);

    const fn expect(operator: &'static str, expected: FormulaType, result: FormulaType) -> Rule {
        Rule::Expect {
            operator,
            expected,
            result,
        }
    }

    /// The rule of `formula`'s outermost operator.
    pub(crate) fn of(formula: &Formula) -> Rule {
        match formula {
            Formula::Const(_) => Rule::CONST,
            Formula::AllRecords => Rule::ALL_RECORDS,
            Formula::Join { .. } => Rule::JOIN,
            Formula::CompareJoin { .. } => Rule::COMPARE_JOIN,
            Formula::ColumnValues { .. } => Rule::COLUMN_VALUES,
            Formula::Prev(_) => Rule::PREV,
            Formula::Next(_) => Rule::NEXT,
            Formula::Intersect(_, _) => Rule::INTERSECT,
            Formula::Union(_, _) => Rule::UNION,
            Formula::Aggregate { op, .. } => Rule::Aggregate(*op),
            Formula::SuperlativeRecords { .. } => Rule::SUPERLATIVE,
            Formula::RecordIndexSuperlative { .. } => Rule::INDEX_SUPERLATIVE,
            Formula::MostCommonValue { .. } => Rule::MOST_COMMON,
            Formula::CompareValues { .. } => Rule::COMPARE_VALUES,
            Formula::Sub(_, _) => Rule::Difference,
        }
    }

    /// The type of a node following this rule. `operand(i)` is the type of
    /// its `i`-th operand, or the error typing it failed with; operands are
    /// asked for in order, and the first error is the node's.
    pub(crate) fn apply(
        self,
        mut operand: impl FnMut(usize) -> Result<FormulaType>,
    ) -> Result<FormulaType> {
        let mismatch = |operator, expected, found| DcsError::TypeMismatch {
            operator,
            expected,
            found,
        };
        match self {
            Rule::Leaf(formula_type) => Ok(formula_type),
            Rule::Select { operator, expected } => match operand(0)? {
                FormulaType::Values | FormulaType::Number => Ok(FormulaType::Records),
                FormulaType::Records => Err(mismatch(operator, expected, "records")),
            },
            Rule::Expect {
                operator,
                expected,
                result,
            } => {
                let found = operand(0)?;
                if found == expected {
                    Ok(result)
                } else {
                    Err(mismatch(operator, expected.name(), found.name()))
                }
            }
            Rule::Combine { operator } => {
                let left = operand(0)?;
                let right = operand(1)?;
                if left == right && left != FormulaType::Number {
                    Ok(left)
                } else {
                    let found = if left == FormulaType::Number {
                        left
                    } else {
                        right
                    };
                    Err(mismatch(
                        operator,
                        "two record sets or two value sets",
                        found.name(),
                    ))
                }
            }
            Rule::Aggregate(op) => match (op, operand(0)?) {
                (AggregateOp::Count, _) => Ok(FormulaType::Number),
                (_, FormulaType::Values | FormulaType::Number) => Ok(FormulaType::Number),
                (_, FormulaType::Records) => Err(mismatch(op.name(), "values", "records")),
            },
            Rule::Difference => {
                for side in 0..2 {
                    if operand(side)? == FormulaType::Records {
                        return Err(mismatch("difference", "a numeric value", "records"));
                    }
                }
                Ok(FormulaType::Number)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_formula;

    fn type_of(text: &str) -> Result<FormulaType> {
        typecheck(&parse_formula(text).expect("test formula parses"))
    }

    #[test]
    fn classifies_paper_examples() {
        assert_eq!(type_of("Country.Greece").unwrap(), FormulaType::Records);
        assert_eq!(
            type_of("R[Year].Country.Greece").unwrap(),
            FormulaType::Values
        );
        assert_eq!(
            type_of("max(R[Year].Country.Greece)").unwrap(),
            FormulaType::Number
        );
        assert_eq!(type_of("count(City.Athens)").unwrap(), FormulaType::Number);
        assert_eq!(type_of("argmax(Rows, Year)").unwrap(), FormulaType::Records);
        assert_eq!(
            type_of("R[City].argmin(Rows, Year)").unwrap(),
            FormulaType::Values
        );
        assert_eq!(
            type_of("sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)").unwrap(),
            FormulaType::Number
        );
        assert_eq!(
            type_of("(City.London and Country.UK)").unwrap(),
            FormulaType::Records
        );
        assert_eq!(type_of("(Greece or China)").unwrap(), FormulaType::Values);
        assert_eq!(type_of("Games.(> 4)").unwrap(), FormulaType::Records);
        assert_eq!(
            type_of("compare_max((London or Beijing), Year, City)").unwrap(),
            FormulaType::Values
        );
        assert_eq!(
            type_of("most_common((Athens or London), City)").unwrap(),
            FormulaType::Values
        );
        assert_eq!(
            type_of("last(League.\"USL A-League\")").unwrap(),
            FormulaType::Records
        );
    }

    #[test]
    fn rejects_ill_typed_compositions() {
        // max over records.
        assert!(type_of("max(Rows)").is_err());
        // Intersection of a number with records.
        assert!(type_of("(count(Rows) and Rows)").is_err());
        // Union of values with records.
        assert!(type_of("(Greece or Country.Greece)").is_err());
        // Projection of a value set.
        assert!(type_of("R[Year].Greece").is_err());
        // Difference of record sets.
        assert!(type_of("sub(Rows, Rows)").is_err());
        // Prev over values.
        assert!(type_of("Prev.Greece").is_err());
        // Superlative over values.
        assert!(type_of("argmax(Greece, Year)").is_err());
        // most_common over records.
        assert!(type_of("most_common(Rows, City)").is_err());
    }

    #[test]
    fn count_accepts_both_records_and_values() {
        assert_eq!(type_of("count(Rows)").unwrap(), FormulaType::Number);
        assert_eq!(type_of("count(R[City].Rows)").unwrap(), FormulaType::Number);
    }

    #[test]
    fn join_of_number_result_is_allowed() {
        // Joining on an aggregate result, e.g. Year.(count of something), is
        // statically fine (the number coerces to a single value).
        assert_eq!(
            type_of("Year.(count(City.Athens))").unwrap(),
            FormulaType::Records
        );
    }

    #[test]
    fn typecheck_agrees_with_evaluation_kind() {
        use crate::eval::eval;
        use wtq_table::samples;
        let table = samples::olympics();
        for text in [
            "Country.Greece",
            "R[Year].Country.Greece",
            "max(R[Year].Country.Greece)",
            "count(City.Athens)",
            "R[City].argmin(Rows, Year)",
            "(City.London and Country.UK)",
            "(Country.Greece or Country.China)",
            "R[City].Prev.City.London",
        ] {
            let formula = parse_formula(text).unwrap();
            let static_type = typecheck(&formula).unwrap();
            let denotation = eval(&formula, &table).unwrap();
            let dynamic = match denotation {
                crate::eval::Denotation::Records(_) => FormulaType::Records,
                crate::eval::Denotation::Values(_) => FormulaType::Values,
                crate::eval::Denotation::Number(_) => FormulaType::Number,
            };
            assert_eq!(static_type, dynamic, "disagreement on {text}");
        }
    }
}
