//! In-memory executor for the SQL fragment of Table 10.
//!
//! [`execute_sql`] runs a [`SqlQuery`] against a single [`Table`] (the
//! implicit `T` of the translation) and returns plain rows of values. Its
//! purpose in this reproduction is cross-validation: for every lambda DCS
//! operator, the translated SQL must compute the same answer as the lambda
//! DCS evaluator, which is exactly how the paper argues its provenance model
//! is aligned with relational provenance work.
//!
//! The executor is a plain row-by-row interpreter: columns resolve by name,
//! and a `WHERE` clause is interpreted on every record. The one thing it
//! memoizes is **subquery results** within one execution: queries are pure
//! over an immutable table, so a scalar or `IN` subquery evaluated once per
//! outer row (the translation's favourite shape, `WHERE Index IN (SELECT …
//! WHERE C = (SELECT MAX(C) …))`) is executed once instead of O(rows) times,
//! turning the nested-subquery row loop from O(n³) into O(n).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

use wtq_dcs::AggregateOp;
use wtq_table::{RecordIdx, Table, Value};

use wtq_sql::ast::{ArithOp, SqlExpr, SqlOrder, SqlQuery, SqlSelect};

use crate::error::ExecError;

/// Result of executing a query.
pub type Result<T> = std::result::Result<T, ExecError>;

/// Query output: a list of rows, each a list of values.
pub type SqlResult = Vec<Vec<Value>>;

/// Execute `query` against `table`.
pub fn execute_sql(query: &SqlQuery, table: &Table) -> Result<SqlResult> {
    let subqueries = SubqueryCache::default();
    execute_query(
        query,
        Ctx {
            table,
            subqueries: &subqueries,
        },
    )
}

/// Memoized subquery state, keyed by the subquery node's address (stable for
/// the duration of one [`execute_sql`] call over the borrowed query AST): the
/// result rows, plus a lazily-built membership set over the first column for
/// `IN (subquery)` tests (turning the per-row needle search from O(result)
/// into O(1)).
#[derive(Default)]
struct SubqueryCache {
    results: RefCell<HashMap<usize, Rc<SqlResult>>>,
    membership: RefCell<HashMap<usize, Rc<HashSet<Value>>>>,
}

/// Execution context threaded through one [`execute_sql`] call: the table
/// and the per-execution subquery cache.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    table: &'a Table,
    subqueries: &'a SubqueryCache,
}

/// Execute a subquery through the per-execution cache. Sound because the
/// table is immutable and queries are pure; errors are not cached (they
/// recur identically on re-evaluation).
fn execute_subquery(query: &SqlQuery, ctx: Ctx<'_>) -> Result<Rc<SqlResult>> {
    let key = query as *const SqlQuery as usize;
    if let Some(rows) = ctx.subqueries.results.borrow().get(&key) {
        return Ok(rows.clone());
    }
    let rows = Rc::new(execute_query(query, ctx)?);
    ctx.subqueries
        .results
        .borrow_mut()
        .insert(key, rows.clone());
    Ok(rows)
}

/// First-column membership set of a subquery's result, memoized per
/// execution. Matches `rows.iter().any(|row| row.first() == Some(&v))` up
/// to `Value`'s documented hash/equality boundary caveat (numeric pairs
/// straddling a rounding-grid edge within the equality tolerance).
fn subquery_membership(query: &SqlQuery, ctx: Ctx<'_>) -> Result<Rc<HashSet<Value>>> {
    let key = query as *const SqlQuery as usize;
    if let Some(set) = ctx.subqueries.membership.borrow().get(&key) {
        return Ok(set.clone());
    }
    let rows = execute_subquery(query, ctx)?;
    let set: Rc<HashSet<Value>> =
        Rc::new(rows.iter().filter_map(|row| row.first()).cloned().collect());
    ctx.subqueries
        .membership
        .borrow_mut()
        .insert(key, set.clone());
    Ok(set)
}

fn execute_query(query: &SqlQuery, ctx: Ctx<'_>) -> Result<SqlResult> {
    match query {
        SqlQuery::Select(select) => execute_select(select, ctx),
        SqlQuery::Union(left, right) => {
            // SQL UNION deduplicates across the whole result set; the hashed
            // row-key set keeps first occurrences in order.
            let mut rows: SqlResult = Vec::new();
            let mut seen: HashSet<Vec<Value>> = HashSet::new();
            for row in execute_query(left, ctx)?
                .into_iter()
                .chain(execute_query(right, ctx)?)
            {
                if seen.insert(row.clone()) {
                    rows.push(row);
                }
            }
            Ok(rows)
        }
        SqlQuery::ScalarDifference(left, right) => {
            let left = scalar_number(&execute_query(left, ctx)?)?;
            let right = scalar_number(&execute_query(right, ctx)?)?;
            Ok(vec![vec![Value::Num(left - right)]])
        }
    }
}

/// Extract the single numeric value of a scalar result.
fn scalar_number(result: &SqlResult) -> Result<f64> {
    if result.len() != 1 || result[0].len() != 1 {
        return Err(ExecError::ScalarCardinality(result.len()));
    }
    result[0][0]
        .as_number()
        .ok_or_else(|| ExecError::Type(format!("expected a number, found {}", result[0][0])))
}

/// A value produced while evaluating an expression: either a table value or
/// a boolean (from predicates).
#[derive(Debug, Clone, PartialEq)]
enum EvalValue {
    Val(Value),
    Bool(bool),
    Null,
}

impl EvalValue {
    fn truthy(&self) -> bool {
        matches!(self, EvalValue::Bool(true))
    }

    fn as_value(&self) -> Result<Value> {
        match self {
            EvalValue::Val(v) => Ok(v.clone()),
            EvalValue::Bool(b) => Ok(Value::Num(if *b { 1.0 } else { 0.0 })),
            EvalValue::Null => Err(ExecError::Type("NULL used as a value".into())),
        }
    }

    fn as_number(&self) -> Result<f64> {
        match self {
            EvalValue::Val(v) => v
                .as_number()
                .ok_or_else(|| ExecError::Type(format!("expected a number, found {v}"))),
            EvalValue::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            EvalValue::Null => Err(ExecError::Type("NULL used as a number".into())),
        }
    }
}

fn execute_select(select: &SqlSelect, ctx: Ctx<'_>) -> Result<SqlResult> {
    // 1. Filter: the predicate is interpreted on every record.
    let mut matching: Vec<RecordIdx> = Vec::new();
    for record in ctx.table.record_indices() {
        let keep = match &select.filter {
            Some(filter) => eval_row(filter, ctx, record)?.truthy(),
            None => true,
        };
        if keep {
            matching.push(record);
        }
    }

    // 2. Group / aggregate / project, collecting (sort_key, row) pairs.
    let mut rows: Vec<(Option<Value>, Vec<Value>)> = Vec::new();
    if let Some(group_expr) = &select.group_by {
        let mut groups: BTreeMap<Value, Vec<RecordIdx>> = BTreeMap::new();
        for &record in &matching {
            let key = eval_row(group_expr, ctx, record)?.as_value()?;
            groups.entry(key).or_default().push(record);
        }
        for (_key, records) in groups {
            let row = project_aggregate(&select.projection, ctx, &records)?;
            let sort_key = match &select.order_by {
                Some((expr, _)) => Some(eval_aggregate_expr(expr, ctx, &records)?.as_value()?),
                None => None,
            };
            rows.push((sort_key, row));
        }
    } else if projection_has_aggregate(&select.projection) {
        let row = project_aggregate(&select.projection, ctx, &matching)?;
        rows.push((None, row));
    } else {
        for &record in &matching {
            let row = if select.projection.is_empty() {
                ctx.table
                    .record_values(record)
                    .map_err(|_| ExecError::Type("record out of range".into()))?
            } else {
                select
                    .projection
                    .iter()
                    .map(|expr| eval_row(expr, ctx, record).and_then(|v| v.as_value()))
                    .collect::<Result<Vec<Value>>>()?
            };
            let sort_key = match &select.order_by {
                Some((expr, _)) => Some(eval_row(expr, ctx, record)?.as_value()?),
                None => None,
            };
            rows.push((sort_key, row));
        }
    }

    // 3. Order.
    if let Some((_, order)) = &select.order_by {
        rows.sort_by(|a, b| {
            let cmp = a.0.cmp(&b.0);
            match order {
                SqlOrder::Asc => cmp,
                SqlOrder::Desc => cmp.reverse(),
            }
        });
    }

    // 4. Distinct (hashed row-key set, first occurrence wins) and limit.
    let mut out: SqlResult = Vec::new();
    let mut seen: HashSet<Vec<Value>> = HashSet::new();
    for (_, row) in rows {
        if select.distinct && !seen.insert(row.clone()) {
            continue;
        }
        out.push(row);
        if let Some(limit) = select.limit {
            if out.len() >= limit {
                break;
            }
        }
    }
    Ok(out)
}

fn projection_has_aggregate(projection: &[SqlExpr]) -> bool {
    projection.iter().any(contains_aggregate)
}

fn contains_aggregate(expr: &SqlExpr) -> bool {
    match expr {
        SqlExpr::Aggregate(_, _) => true,
        SqlExpr::Equals(a, b)
        | SqlExpr::Compare(_, a, b)
        | SqlExpr::Arith(_, a, b)
        | SqlExpr::And(a, b)
        | SqlExpr::Or(a, b) => contains_aggregate(a) || contains_aggregate(b),
        SqlExpr::InSubquery(a, _) | SqlExpr::InList(a, _) => contains_aggregate(a),
        SqlExpr::Column(_) | SqlExpr::Index | SqlExpr::Literal(_) | SqlExpr::Scalar(_) => false,
    }
}

fn project_aggregate(
    projection: &[SqlExpr],
    ctx: Ctx<'_>,
    records: &[RecordIdx],
) -> Result<Vec<Value>> {
    projection
        .iter()
        .map(|expr| eval_aggregate_expr(expr, ctx, records).and_then(|v| v.as_value()))
        .collect()
}

/// Evaluate an expression in aggregate context: aggregates range over
/// `records`, other sub-expressions are evaluated on the first record of the
/// group (they are group keys in every query the translation produces).
fn eval_aggregate_expr(expr: &SqlExpr, ctx: Ctx<'_>, records: &[RecordIdx]) -> Result<EvalValue> {
    match expr {
        SqlExpr::Aggregate(op, inner) => {
            if *op == AggregateOp::Count {
                return Ok(EvalValue::Val(Value::Num(records.len() as f64)));
            }
            let mut numbers = Vec::with_capacity(records.len());
            for &record in records {
                let value = eval_row(inner, ctx, record)?;
                numbers.push(value.as_number()?);
            }
            if numbers.is_empty() {
                return Ok(EvalValue::Null);
            }
            let result = match op {
                AggregateOp::Max => numbers.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                AggregateOp::Min => numbers.iter().copied().fold(f64::INFINITY, f64::min),
                AggregateOp::Sum => numbers.iter().sum(),
                AggregateOp::Avg => numbers.iter().sum::<f64>() / numbers.len() as f64,
                AggregateOp::Count => unreachable!("count handled above"),
            };
            Ok(EvalValue::Val(Value::Num(result)))
        }
        SqlExpr::Arith(op, left, right) => {
            let left = eval_aggregate_expr(left, ctx, records)?.as_number()?;
            let right = eval_aggregate_expr(right, ctx, records)?.as_number()?;
            let value = match op {
                ArithOp::Add => left + right,
                ArithOp::Sub => left - right,
            };
            Ok(EvalValue::Val(Value::Num(value)))
        }
        other => match records.first() {
            Some(&record) => eval_row(other, ctx, record),
            None => Ok(EvalValue::Null),
        },
    }
}

/// Evaluate an expression against a single record.
fn eval_row(expr: &SqlExpr, ctx: Ctx<'_>, record: RecordIdx) -> Result<EvalValue> {
    match expr {
        SqlExpr::Column(name) => {
            let column = ctx
                .table
                .column_index(name)
                .ok_or_else(|| ExecError::UnknownColumn(name.clone()))?;
            Ok(ctx
                .table
                .value_at(record, column)
                .map(EvalValue::Val)
                .unwrap_or(EvalValue::Null))
        }
        SqlExpr::Index => Ok(EvalValue::Val(Value::Num(record as f64))),
        SqlExpr::Literal(value) => Ok(EvalValue::Val(value.clone())),
        SqlExpr::Aggregate(_, _) => Err(ExecError::Type(
            "aggregate used outside a projection or ORDER BY context".into(),
        )),
        SqlExpr::Equals(left, right) => {
            let left = eval_row(left, ctx, record)?;
            let right = eval_row(right, ctx, record)?;
            match (left, right) {
                (EvalValue::Null, _) | (_, EvalValue::Null) => Ok(EvalValue::Bool(false)),
                (l, r) => Ok(EvalValue::Bool(l.as_value()? == r.as_value()?)),
            }
        }
        SqlExpr::Compare(op, left, right) => {
            let left = eval_row(left, ctx, record)?;
            let right = eval_row(right, ctx, record)?;
            match (left, right) {
                (EvalValue::Null, _) | (_, EvalValue::Null) => Ok(EvalValue::Bool(false)),
                (l, r) => match (l.as_value()?.as_number(), r.as_value()?.as_number()) {
                    (Some(a), Some(b)) => Ok(EvalValue::Bool(op.compare(a, b))),
                    _ => Ok(EvalValue::Bool(false)),
                },
            }
        }
        SqlExpr::InSubquery(inner, query) => {
            let needle = eval_row(inner, ctx, record)?;
            let EvalValue::Val(needle) = needle else {
                return Ok(EvalValue::Bool(false));
            };
            let members = subquery_membership(query, ctx)?;
            Ok(EvalValue::Bool(members.contains(&needle)))
        }
        SqlExpr::InList(inner, values) => {
            let needle = eval_row(inner, ctx, record)?;
            let EvalValue::Val(needle) = needle else {
                return Ok(EvalValue::Bool(false));
            };
            Ok(EvalValue::Bool(values.contains(&needle)))
        }
        SqlExpr::Scalar(query) => {
            let rows = execute_subquery(query, ctx)?;
            if rows.len() != 1 || rows[0].len() != 1 {
                return Err(ExecError::ScalarCardinality(rows.len()));
            }
            Ok(EvalValue::Val(rows[0][0].clone()))
        }
        SqlExpr::Arith(op, left, right) => {
            let left = eval_row(left, ctx, record)?.as_number()?;
            let right = eval_row(right, ctx, record)?.as_number()?;
            let value = match op {
                ArithOp::Add => left + right,
                ArithOp::Sub => left - right,
            };
            Ok(EvalValue::Val(Value::Num(value)))
        }
        SqlExpr::And(left, right) => Ok(EvalValue::Bool(
            eval_row(left, ctx, record)?.truthy() && eval_row(right, ctx, record)?.truthy(),
        )),
        SqlExpr::Or(left, right) => Ok(EvalValue::Bool(
            eval_row(left, ctx, record)?.truthy() || eval_row(right, ctx, record)?.truthy(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtq_dcs::CompareOp;
    use wtq_table::{samples, TableBuilder};

    fn col(name: &str) -> SqlExpr {
        SqlExpr::Column(name.to_string())
    }

    fn lit(value: Value) -> SqlExpr {
        SqlExpr::Literal(value)
    }

    #[test]
    fn select_star_with_filter() {
        // SELECT * FROM T WHERE Country = 'Greece'
        let table = samples::olympics();
        let q = SqlQuery::select(SqlSelect::project(vec![]).with_filter(SqlExpr::Equals(
            Box::new(col("Country")),
            Box::new(lit(Value::str("Greece"))),
        )));
        let rows = execute_sql(&q, &table).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][2], Value::str("Athens"));
    }

    #[test]
    fn example_3_2_city_of_minimum_year() {
        let table = samples::olympics();
        let min_year = SqlQuery::select(SqlSelect::project(vec![SqlExpr::Aggregate(
            AggregateOp::Min,
            Box::new(col("Year")),
        )]));
        let inner = SqlQuery::select(SqlSelect::project(vec![SqlExpr::Index]).with_filter(
            SqlExpr::Equals(
                Box::new(col("Year")),
                Box::new(SqlExpr::Scalar(Box::new(min_year))),
            ),
        ));
        let outer = SqlQuery::select(SqlSelect::project(vec![col("City")]).with_filter(
            SqlExpr::InSubquery(Box::new(SqlExpr::Index), Box::new(inner)),
        ));
        assert_eq!(
            execute_sql(&outer, &table).unwrap(),
            vec![vec![Value::str("Athens")]]
        );
    }

    #[test]
    fn aggregate_projection_produces_one_row() {
        let table = samples::medals();
        let q = SqlQuery::select(SqlSelect::project(vec![SqlExpr::Aggregate(
            AggregateOp::Sum,
            Box::new(col("Gold")),
        )]));
        assert_eq!(
            execute_sql(&q, &table).unwrap(),
            vec![vec![Value::num(298.0)]]
        );
    }

    #[test]
    fn count_of_filtered_rows() {
        let table = samples::olympics();
        let q = SqlQuery::select(
            SqlSelect::project(vec![SqlExpr::Aggregate(
                AggregateOp::Count,
                Box::new(SqlExpr::Index),
            )])
            .with_filter(SqlExpr::Equals(
                Box::new(col("City")),
                Box::new(lit(Value::str("Athens"))),
            )),
        );
        assert_eq!(
            execute_sql(&q, &table).unwrap(),
            vec![vec![Value::num(2.0)]]
        );
    }

    #[test]
    fn comparison_and_conjunction() {
        let table = samples::squad();
        let q = SqlQuery::select(
            SqlSelect::project(vec![col("Name")]).with_filter(SqlExpr::And(
                Box::new(SqlExpr::Compare(
                    CompareOp::Gt,
                    Box::new(col("Games")),
                    Box::new(lit(Value::num(4.0))),
                )),
                Box::new(SqlExpr::Equals(
                    Box::new(col("Position")),
                    Box::new(lit(Value::str("MF"))),
                )),
            )),
        );
        let rows = execute_sql(&q, &table).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn group_by_order_by_count_limit() {
        // SELECT Lake FROM T GROUP BY Lake ORDER BY COUNT(Index) DESC LIMIT 1
        let table = samples::shipwrecks();
        let select = SqlSelect {
            projection: vec![col("Lake")],
            distinct: false,
            filter: None,
            group_by: Some(col("Lake")),
            order_by: Some((
                SqlExpr::Aggregate(AggregateOp::Count, Box::new(SqlExpr::Index)),
                SqlOrder::Desc,
            )),
            limit: Some(1),
        };
        assert_eq!(
            execute_sql(&SqlQuery::Select(select), &table).unwrap(),
            vec![vec![Value::str("Lake Huron")]]
        );
    }

    #[test]
    fn scalar_difference() {
        let table = samples::shipwrecks();
        let count_of = |lake: &str| {
            SqlQuery::select(
                SqlSelect::project(vec![SqlExpr::Aggregate(
                    AggregateOp::Count,
                    Box::new(SqlExpr::Index),
                )])
                .with_filter(SqlExpr::Equals(
                    Box::new(col("Lake")),
                    Box::new(lit(Value::str(lake))),
                )),
            )
        };
        let q = SqlQuery::ScalarDifference(
            Box::new(count_of("Lake Huron")),
            Box::new(count_of("Lake Erie")),
        );
        assert_eq!(
            execute_sql(&q, &table).unwrap(),
            vec![vec![Value::num(3.0)]]
        );
    }

    #[test]
    fn union_deduplicates() {
        let table = samples::olympics();
        let cities =
            |country: &str| {
                SqlQuery::select(SqlSelect::project(vec![col("City")]).with_filter(
                    SqlExpr::Equals(Box::new(col("Country")), Box::new(lit(Value::str(country)))),
                ))
            };
        let q = SqlQuery::Union(Box::new(cities("Greece")), Box::new(cities("Greece")));
        let rows = execute_sql(&q, &table).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::str("Athens"));
    }

    #[test]
    fn distinct_and_in_list() {
        let table = samples::olympics();
        let select = SqlSelect {
            projection: vec![col("Country")],
            distinct: true,
            filter: Some(SqlExpr::InList(
                Box::new(col("City")),
                vec![Value::str("Athens"), Value::str("London")],
            )),
            group_by: None,
            order_by: None,
            limit: None,
        };
        let rows = execute_sql(&SqlQuery::Select(select), &table).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn errors_are_reported() {
        let table = samples::olympics();
        let q = SqlQuery::select(SqlSelect::project(vec![col("Continent")]));
        assert!(matches!(
            execute_sql(&q, &table),
            Err(ExecError::UnknownColumn(_))
        ));

        // Scalar subquery with several rows.
        let many = SqlQuery::select(SqlSelect::project(vec![col("City")]));
        let q = SqlQuery::select(SqlSelect::project(vec![col("City")]).with_filter(
            SqlExpr::Equals(
                Box::new(col("City")),
                Box::new(SqlExpr::Scalar(Box::new(many))),
            ),
        ));
        assert!(matches!(
            execute_sql(&q, &table),
            Err(ExecError::ScalarCardinality(_))
        ));
    }

    #[test]
    fn index_arithmetic_shifts_rows() {
        // SELECT City FROM T WHERE Index IN (SELECT Index - 1 FROM T WHERE City = 'London')
        let table = samples::olympics();
        let inner = SqlQuery::select(
            SqlSelect::project(vec![SqlExpr::Arith(
                ArithOp::Sub,
                Box::new(SqlExpr::Index),
                Box::new(lit(Value::num(1.0))),
            )])
            .with_filter(SqlExpr::Equals(
                Box::new(col("City")),
                Box::new(lit(Value::str("London"))),
            )),
        );
        let outer = SqlQuery::select(SqlSelect::project(vec![col("City")]).with_filter(
            SqlExpr::InSubquery(Box::new(SqlExpr::Index), Box::new(inner)),
        ));
        let rows = execute_sql(&outer, &table).unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::str("St. Louis")], vec![Value::str("Beijing")]]
        );
    }

    #[test]
    fn unknown_filter_column_still_errors_lazily() {
        // An unknown column inside WHERE errors when the first record is
        // filtered, not when the query is built.
        let table = samples::olympics();
        let q = SqlQuery::select(SqlSelect::project(vec![col("City")]).with_filter(
            SqlExpr::Equals(Box::new(col("Continent")), Box::new(lit(Value::str("X")))),
        ));
        assert!(matches!(
            execute_sql(&q, &table),
            Err(ExecError::UnknownColumn(_))
        ));
    }

    #[test]
    fn scalar_subquery_filter_selects_the_max_year_row() {
        // SELECT City FROM T WHERE Year = (SELECT MAX(Year) FROM T)
        let table = samples::olympics();
        let max_year = SqlQuery::select(SqlSelect::project(vec![SqlExpr::Aggregate(
            AggregateOp::Max,
            Box::new(col("Year")),
        )]));
        let q = SqlQuery::select(SqlSelect::project(vec![col("City")]).with_filter(
            SqlExpr::Equals(
                Box::new(col("Year")),
                Box::new(SqlExpr::Scalar(Box::new(max_year))),
            ),
        ));
        assert_eq!(
            execute_sql(&q, &table).unwrap(),
            vec![vec![Value::str("Rio de Janeiro")]]
        );
    }

    #[test]
    fn boolean_filters_short_circuit_past_an_erroring_subquery() {
        let table = samples::olympics();
        let many = SqlQuery::select(SqlSelect::project(vec![col("City")]));
        let erroring = SqlExpr::Equals(
            Box::new(col("City")),
            Box::new(SqlExpr::Scalar(Box::new(many))),
        );
        // Left side matches nothing → the erroring right side must never run.
        let q = SqlQuery::select(
            SqlSelect::project(vec![col("City")]).with_filter(SqlExpr::And(
                Box::new(SqlExpr::Equals(
                    Box::new(col("Country")),
                    Box::new(lit(Value::str("Atlantis"))),
                )),
                Box::new(erroring.clone()),
            )),
        );
        assert!(execute_sql(&q, &table).unwrap().is_empty());
        // Left side matches everything → same for OR.
        let q = SqlQuery::select(
            SqlSelect::project(vec![col("City")]).with_filter(SqlExpr::Or(
                Box::new(SqlExpr::Compare(
                    CompareOp::Geq,
                    Box::new(col("Year")),
                    Box::new(lit(Value::num(0.0))),
                )),
                Box::new(erroring),
            )),
        );
        assert_eq!(execute_sql(&q, &table).unwrap().len(), table.num_records());
    }

    #[test]
    fn aggregates_fold_numeric_contents_and_reject_empty_cells() {
        // Numeric text, a currency string and a date count by their
        // numeric contents (1 + 2.5 + 130 + 2013); an empty cell has none.
        let sum_a = SqlQuery::select(SqlSelect::project(vec![SqlExpr::Aggregate(
            AggregateOp::Sum,
            Box::new(col("A")),
        )]));
        let mixed = column_table(&[
            Value::num(1.0),
            Value::str("2.5"),
            Value::str("$130"),
            Value::date(2013, 6, 8),
        ]);
        assert_eq!(
            execute_sql(&sum_a, &mixed),
            Ok(vec![vec![Value::num(2146.5)]])
        );
        let with_empty = column_table(&["1", "", "3"].map(Value::parse));
        assert!(execute_sql(&sum_a, &with_empty).is_err());
    }

    /// A one-column table of `cells`.
    fn column_table(cells: &[Value]) -> Table {
        let mut builder = TableBuilder::new("column").column("A");
        for cell in cells {
            builder = builder.row(vec![cell.clone()]).unwrap();
        }
        builder.build().unwrap()
    }
}
