//! Lambda DCS → SQL translation (the paper's Table 10).
//!
//! Record-denoting formulas translate to `SELECT Index FROM T WHERE …`
//! queries so they can be nested inside `Index IN (…)` membership tests;
//! value-denoting formulas translate to single-column selects; numeric
//! formulas translate to scalar aggregates or to the top-level difference of
//! two scalar queries. [`translate`] wraps a record-denoting formula in
//! `SELECT * FROM T WHERE Index IN (…)` to match the paper's presentation of
//! the *Column Records* operator.

use wtq_dcs::{AggregateOp, Formula, FormulaType};
use wtq_table::Value;

use crate::ast::{ArithOp, SqlExpr, SqlOrder, SqlQuery, SqlSelect};
use crate::error::SqlError;
use crate::Result;

/// Translate a lambda DCS formula into SQL.
///
/// The formula must be well-typed (see [`wtq_dcs::typecheck()`]); ill-typed
/// formulas and the few compositions outside the Table 10 fragment produce
/// [`SqlError::Untranslatable`].
pub fn translate(formula: &Formula) -> Result<SqlQuery> {
    let formula_type = wtq_dcs::typecheck(formula)
        .map_err(|e| SqlError::Untranslatable(format!("ill-typed formula: {e}")))?;
    match formula_type {
        FormulaType::Records => {
            let records = translate_records(formula)?;
            Ok(SqlQuery::select(SqlSelect::project(vec![]).with_filter(
                SqlExpr::InSubquery(Box::new(SqlExpr::Index), Box::new(records)),
            )))
        }
        FormulaType::Values => translate_values(formula),
        FormulaType::Number => translate_number(formula),
    }
}

/// Translate a record-denoting formula to a `SELECT Index FROM T …` query.
fn translate_records(formula: &Formula) -> Result<SqlQuery> {
    let index_select = |filter: SqlExpr| {
        SqlQuery::select(SqlSelect::project(vec![SqlExpr::Index]).with_filter(filter))
    };
    match formula {
        Formula::AllRecords => Ok(SqlQuery::select(SqlSelect::project(vec![SqlExpr::Index]))),
        Formula::Join { column, values } => {
            let filter = match constant_values(values) {
                Some(list) if list.len() == 1 => SqlExpr::Equals(
                    Box::new(SqlExpr::Column(column.clone())),
                    Box::new(SqlExpr::Literal(list[0].clone())),
                ),
                Some(list) => SqlExpr::InList(Box::new(SqlExpr::Column(column.clone())), list),
                None => SqlExpr::InSubquery(
                    Box::new(SqlExpr::Column(column.clone())),
                    Box::new(translate_values(values)?),
                ),
            };
            Ok(index_select(filter))
        }
        Formula::CompareJoin { column, op, value } => {
            let right = match constant_values(value) {
                Some(list) if list.len() == 1 => SqlExpr::Literal(list[0].clone()),
                _ => SqlExpr::Scalar(Box::new(translate_number_or_values(value)?)),
            };
            Ok(index_select(SqlExpr::Compare(
                *op,
                Box::new(SqlExpr::Column(column.clone())),
                Box::new(right),
            )))
        }
        Formula::Prev(records) => {
            // SELECT Index - 1 FROM T WHERE Index IN (records)
            let inner = translate_records(records)?;
            Ok(SqlQuery::select(
                SqlSelect::project(vec![SqlExpr::Arith(
                    ArithOp::Sub,
                    Box::new(SqlExpr::Index),
                    Box::new(SqlExpr::Literal(Value::num(1.0))),
                )])
                .with_filter(SqlExpr::InSubquery(
                    Box::new(SqlExpr::Index),
                    Box::new(inner),
                )),
            ))
        }
        Formula::Next(records) => {
            let inner = translate_records(records)?;
            Ok(SqlQuery::select(
                SqlSelect::project(vec![SqlExpr::Arith(
                    ArithOp::Add,
                    Box::new(SqlExpr::Index),
                    Box::new(SqlExpr::Literal(Value::num(1.0))),
                )])
                .with_filter(SqlExpr::InSubquery(
                    Box::new(SqlExpr::Index),
                    Box::new(inner),
                )),
            ))
        }
        Formula::Intersect(a, b) => {
            let left = translate_records(a)?;
            let right = translate_records(b)?;
            Ok(index_select(SqlExpr::And(
                Box::new(SqlExpr::InSubquery(
                    Box::new(SqlExpr::Index),
                    Box::new(left),
                )),
                Box::new(SqlExpr::InSubquery(
                    Box::new(SqlExpr::Index),
                    Box::new(right),
                )),
            )))
        }
        Formula::Union(a, b) => Ok(SqlQuery::Union(
            Box::new(translate_records(a)?),
            Box::new(translate_records(b)?),
        )),
        Formula::SuperlativeRecords {
            op,
            records,
            column,
        } => {
            // SELECT Index FROM T WHERE Index IN (records)
            //   AND C = (SELECT MAX(C) FROM T WHERE Index IN (records))
            let agg = match op {
                wtq_dcs::SuperlativeOp::Argmax => AggregateOp::Max,
                wtq_dcs::SuperlativeOp::Argmin => AggregateOp::Min,
            };
            let inner = translate_records(records)?;
            let best = SqlQuery::select(
                SqlSelect::project(vec![SqlExpr::Aggregate(
                    agg,
                    Box::new(SqlExpr::Column(column.clone())),
                )])
                .with_filter(SqlExpr::InSubquery(
                    Box::new(SqlExpr::Index),
                    Box::new(inner.clone()),
                )),
            );
            Ok(index_select(SqlExpr::And(
                Box::new(SqlExpr::InSubquery(
                    Box::new(SqlExpr::Index),
                    Box::new(inner),
                )),
                Box::new(SqlExpr::Equals(
                    Box::new(SqlExpr::Column(column.clone())),
                    Box::new(SqlExpr::Scalar(Box::new(best))),
                )),
            )))
        }
        Formula::RecordIndexSuperlative { op, records } => {
            let agg = match op {
                wtq_dcs::SuperlativeOp::Argmax => AggregateOp::Max,
                wtq_dcs::SuperlativeOp::Argmin => AggregateOp::Min,
            };
            let inner = translate_records(records)?;
            let best = SqlQuery::select(
                SqlSelect::project(vec![SqlExpr::Aggregate(agg, Box::new(SqlExpr::Index))])
                    .with_filter(SqlExpr::InSubquery(
                        Box::new(SqlExpr::Index),
                        Box::new(inner),
                    )),
            );
            Ok(index_select(SqlExpr::Equals(
                Box::new(SqlExpr::Index),
                Box::new(SqlExpr::Scalar(Box::new(best))),
            )))
        }
        other => Err(SqlError::Untranslatable(format!(
            "formula does not denote records: {other}"
        ))),
    }
}

/// Translate a value-denoting formula to a single-column select.
fn translate_values(formula: &Formula) -> Result<SqlQuery> {
    match formula {
        Formula::Const(value) => {
            // A standalone constant: one row holding the literal.
            Ok(SqlQuery::Select(SqlSelect {
                projection: vec![SqlExpr::Literal(value.clone())],
                distinct: true,
                filter: None,
                group_by: None,
                order_by: None,
                limit: Some(1),
            }))
        }
        Formula::ColumnValues { column, records } => {
            let select = match records.as_ref() {
                Formula::AllRecords => SqlSelect::project(vec![SqlExpr::Column(column.clone())]),
                other => SqlSelect::project(vec![SqlExpr::Column(column.clone())]).with_filter(
                    SqlExpr::InSubquery(
                        Box::new(SqlExpr::Index),
                        Box::new(translate_records(other)?),
                    ),
                ),
            };
            Ok(SqlQuery::Select(select))
        }
        Formula::Union(a, b) => Ok(SqlQuery::Union(
            Box::new(translate_values(a)?),
            Box::new(translate_values(b)?),
        )),
        Formula::MostCommonValue { op, values, column } => {
            // SELECT C FROM T WHERE C IN (vals)
            //   GROUP BY C ORDER BY COUNT(Index) DESC LIMIT 1
            let order = match op {
                wtq_dcs::SuperlativeOp::Argmax => SqlOrder::Desc,
                wtq_dcs::SuperlativeOp::Argmin => SqlOrder::Asc,
            };
            let filter = membership_filter(column, values)?;
            Ok(SqlQuery::Select(SqlSelect {
                projection: vec![SqlExpr::Column(column.clone())],
                distinct: false,
                filter: Some(filter),
                group_by: Some(SqlExpr::Column(column.clone())),
                order_by: Some((
                    SqlExpr::Aggregate(AggregateOp::Count, Box::new(SqlExpr::Index)),
                    order,
                )),
                limit: Some(1),
            }))
        }
        Formula::CompareValues {
            op,
            values,
            key_column,
            value_column,
        } => {
            // SELECT DISTINCT C2 FROM T WHERE C2 IN (vals)
            //   AND C1 = (SELECT MAX(C1) FROM T WHERE C2 IN (vals))
            let agg = match op {
                wtq_dcs::SuperlativeOp::Argmax => AggregateOp::Max,
                wtq_dcs::SuperlativeOp::Argmin => AggregateOp::Min,
            };
            let membership = membership_filter(value_column, values)?;
            let best = SqlQuery::select(
                SqlSelect::project(vec![SqlExpr::Aggregate(
                    agg,
                    Box::new(SqlExpr::Column(key_column.clone())),
                )])
                .with_filter(membership.clone()),
            );
            Ok(SqlQuery::Select(SqlSelect {
                projection: vec![SqlExpr::Column(value_column.clone())],
                distinct: true,
                filter: Some(SqlExpr::And(
                    Box::new(membership),
                    Box::new(SqlExpr::Equals(
                        Box::new(SqlExpr::Column(key_column.clone())),
                        Box::new(SqlExpr::Scalar(Box::new(best))),
                    )),
                )),
                group_by: None,
                order_by: None,
                limit: None,
            }))
        }
        other => Err(SqlError::Untranslatable(format!(
            "value-denoting formula outside the Table 10 fragment: {other}"
        ))),
    }
}

/// Translate a numeric formula (aggregate or difference).
fn translate_number(formula: &Formula) -> Result<SqlQuery> {
    match formula {
        Formula::Aggregate { op, sub } => {
            match wtq_dcs::typecheck(sub).map_err(|e| SqlError::Untranslatable(e.to_string()))? {
                FormulaType::Records => {
                    // COUNT over records: SELECT COUNT(Index) FROM T WHERE Index IN (...)
                    if *op != AggregateOp::Count {
                        return Err(SqlError::Untranslatable(format!(
                            "{} over records has no SQL translation",
                            op.name()
                        )));
                    }
                    let inner = translate_records(sub)?;
                    Ok(SqlQuery::select(
                        SqlSelect::project(vec![SqlExpr::Aggregate(
                            AggregateOp::Count,
                            Box::new(SqlExpr::Index),
                        )])
                        .with_filter(SqlExpr::InSubquery(
                            Box::new(SqlExpr::Index),
                            Box::new(inner),
                        )),
                    ))
                }
                _ => {
                    // Aggregate over a projected column: push the aggregate
                    // into the projection of the value query.
                    let Formula::ColumnValues { column, records } = sub.as_ref() else {
                        return Err(SqlError::Untranslatable(format!(
                            "aggregation over {sub} is outside the Table 10 fragment"
                        )));
                    };
                    let projection = vec![SqlExpr::Aggregate(
                        *op,
                        Box::new(SqlExpr::Column(column.clone())),
                    )];
                    let select = match records.as_ref() {
                        Formula::AllRecords => SqlSelect::project(projection),
                        other => SqlSelect::project(projection).with_filter(SqlExpr::InSubquery(
                            Box::new(SqlExpr::Index),
                            Box::new(translate_records(other)?),
                        )),
                    };
                    Ok(SqlQuery::Select(select))
                }
            }
        }
        Formula::Sub(a, b) => Ok(SqlQuery::ScalarDifference(
            Box::new(translate_number_or_values(a)?),
            Box::new(translate_number_or_values(b)?),
        )),
        other => Err(SqlError::Untranslatable(format!(
            "numeric formula outside the Table 10 fragment: {other}"
        ))),
    }
}

/// Translate a formula expected to produce a scalar: either numeric or a
/// value query whose result happens to be a single row.
fn translate_number_or_values(formula: &Formula) -> Result<SqlQuery> {
    match wtq_dcs::typecheck(formula).map_err(|e| SqlError::Untranslatable(e.to_string()))? {
        FormulaType::Number => translate_number(formula),
        FormulaType::Values => translate_values(formula),
        FormulaType::Records => Err(SqlError::Untranslatable(
            "a record set cannot be used as a scalar".into(),
        )),
    }
}

/// Build a `column IN (…)` / `column = v` filter for a value formula.
fn membership_filter(column: &str, values: &Formula) -> Result<SqlExpr> {
    Ok(match constant_values(values) {
        Some(list) if list.len() == 1 => SqlExpr::Equals(
            Box::new(SqlExpr::Column(column.to_string())),
            Box::new(SqlExpr::Literal(list[0].clone())),
        ),
        Some(list) => SqlExpr::InList(Box::new(SqlExpr::Column(column.to_string())), list),
        None => SqlExpr::InSubquery(
            Box::new(SqlExpr::Column(column.to_string())),
            Box::new(translate_values(values)?),
        ),
    })
}

/// If the formula is a constant or a union of constants, return its values.
fn constant_values(formula: &Formula) -> Option<Vec<Value>> {
    match formula {
        Formula::Const(value) => Some(vec![value.clone()]),
        Formula::Union(a, b) => {
            let mut left = constant_values(a)?;
            let right = constant_values(b)?;
            left.extend(right);
            Some(left)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtq_dcs::parse_formula;

    #[test]
    fn record_formulas_translate_to_select_star() {
        let q = translate(&parse_formula("Country.Greece").unwrap()).unwrap();
        let sql = q.to_sql();
        assert!(sql.starts_with("SELECT * FROM T WHERE Index IN"));
        assert!(sql.contains("Country = 'Greece'"));
    }

    #[test]
    fn table_10_shapes_are_recognizable() {
        // Difference of values renders as the difference of two scalar selects.
        let q =
            translate(&parse_formula("sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)").unwrap())
                .unwrap();
        assert!(q.to_sql().contains(") - ("));
        // Most common value renders with GROUP BY / ORDER BY / LIMIT.
        let q =
            translate(&parse_formula("most_common((Athens or London), City)").unwrap()).unwrap();
        let sql = q.to_sql();
        assert!(sql.contains("GROUP BY"));
        assert!(sql.contains("ORDER BY COUNT(Index) DESC"));
        assert!(sql.contains("LIMIT 1"));
        // Superlative uses a scalar MAX subquery.
        let q = translate(&parse_formula("argmax(Rows, Year)").unwrap()).unwrap();
        assert!(q.to_sql().contains("MAX(Year)"));
    }

    #[test]
    fn untranslatable_fragments_are_reported() {
        // sum over records is ill-typed and therefore untranslatable.
        let formula = Formula::Aggregate {
            op: AggregateOp::Sum,
            sub: Box::new(Formula::AllRecords),
        };
        assert!(matches!(
            translate(&formula),
            Err(SqlError::Untranslatable(_))
        ));
        // Aggregating a union of projections is outside the fragment.
        let formula = parse_formula("max((R[Year].Rows or R[Total].Rows))").unwrap();
        assert!(matches!(
            translate(&formula),
            Err(SqlError::Untranslatable(_))
        ));
    }
}
