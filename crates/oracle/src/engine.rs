//! In-memory executor for the SQL fragment of Table 10.
//!
//! The engine runs a [`SqlQuery`] against a single [`Table`] (the implicit
//! `T` of the translation) and returns plain rows of values. Its purpose in
//! this reproduction is cross-validation: for every lambda DCS operator, the
//! translated SQL must compute the same answer as the lambda DCS evaluator,
//! which is exactly how the paper argues its provenance model is aligned with
//! relational provenance work.
//!
//! # Execution modes
//!
//! [`SqlEngine`] binds a table (and optionally a pre-built [`TableIndex`])
//! and executes queries under one of three [`PlanMode`]s:
//!
//! * [`PlanMode::ForceScan`] — the pre-index reference semantics: per-row
//!   linear column resolution, the predicate interpreted on every row, no
//!   typed kernels. Kept byte-for-byte boring as the oracle of the
//!   differential suites.
//! * [`PlanMode::ForceIndex`] — always answer plannable `WHERE` clauses from
//!   the inverted / sorted-numeric index, building it on first use if the
//!   engine was not given one.
//! * [`PlanMode::Auto`] — cost-based. Plannable clauses (`Column = v`,
//!   numeric comparisons against literals, `IN` lists, scalar-subquery
//!   equalities, `Index IN (subquery)` record-membership tests, and
//!   `AND`/`OR` combinations of those) run as either an index lookup or a
//!   **columnar kernel** sweep over the table's typed column vectors
//!   ([`Table::filter_eq`] and friends); everything else falls back to the
//!   row scan.
//!
//! # Cost model
//!
//! The planner's cost inputs are the table size and, when an index is
//! already warm, its bucket sizes (a free histogram):
//!
//! * **Cold** (no index built yet): a kernel sweep is `O(rows)` over a
//!   typed vector, an interpreted scan is `O(rows)` with per-row `Value`
//!   dispatch, and an index *build* is `Ω(cells · log rows)` — strictly more
//!   than either. A single query therefore never builds an index: Auto runs
//!   the kernels and can never lose to the scan.
//! * **Warm** (index present): a point lookup returns a precomputed bucket
//!   in `O(matches)`, which beats any sweep for selective predicates. For
//!   dense predicates (estimated matches ≥ half the table) the planner
//!   prefers the kernel sweep: range lookups materialize through a
//!   `BTreeSet` (`O(matches · log matches)`), so at high selectivity the
//!   flat `O(rows)` sweep wins and is already sorted.
//!
//! Estimated selectivity comes from the index buckets (`=`, `IN`), the
//! sorted-numeric partitions (comparisons), and the mean bucket size
//! (scalar subqueries); `AND` takes the min, `OR` the capped sum. Every
//! Auto decision is counted in the engine's own [`PlannerCounters`] set,
//! together with estimated vs actual matching rows.
//!
//! All modes memoize **subquery results** within one execution: queries are
//! pure over an immutable table, so a scalar or `IN` subquery evaluated once
//! per outer row (the translation's favourite shape, `WHERE Index IN
//! (SELECT … WHERE C = (SELECT MAX(C) …))`) is executed once instead of
//! O(rows) times, turning the nested-subquery row loop from O(n³) into O(n).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use wtq_dcs::{compare_records, AggregateOp, CompareOp};
use wtq_table::{RecordIdx, Table, TableIndex, Value};

use wtq_sql::ast::{ArithOp, SqlExpr, SqlOrder, SqlQuery, SqlSelect};
use wtq_sql::{Result, SqlError};

use crate::stats::PlannerCounters;

/// Query output: a list of rows, each a list of values.
pub type SqlResult = Vec<Vec<Value>>;

/// How [`SqlEngine::execute`] plans `WHERE` clauses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlanMode {
    /// Cost-based: columnar kernels when cold, index-vs-kernel by estimated
    /// selectivity when an index is warm. Never builds an index. Records
    /// its decisions in the engine's [`PlannerCounters`].
    #[default]
    Auto,
    /// The pre-index reference semantics (per-row interpreted scan, linear
    /// column resolution). The differential oracle.
    ForceScan,
    /// Always answer plannable filters from the [`TableIndex`], building it
    /// lazily if the engine was not constructed with one.
    ForceIndex,
}

/// A query executor bound to one table, owning the lazily-built index that
/// [`PlanMode::ForceIndex`] may require. Construct once per table (or per
/// request) and run any number of queries through [`SqlEngine::execute`].
#[derive(Debug)]
pub struct SqlEngine<'a> {
    table: &'a Table,
    /// An index supplied by the caller (e.g. from a shared index cache);
    /// preferred over `built` whenever present.
    shared: Option<&'a TableIndex>,
    /// Index built on demand by `ForceIndex`. `Auto` only ever *reads* this
    /// — a warm engine stays warm, a cold one never pays the build.
    built: OnceLock<TableIndex>,
    /// This engine's planner decision counters. Fresh per engine by
    /// default; a long-lived owner can share one set across the engines it
    /// constructs via [`SqlEngine::with_counters`].
    counters: Arc<PlannerCounters>,
}

impl<'a> SqlEngine<'a> {
    /// An engine with no pre-built index: `Auto` plans cold (kernels only),
    /// `ForceIndex` builds on first use.
    pub fn new(table: &'a Table) -> Self {
        SqlEngine {
            table,
            shared: None,
            built: OnceLock::new(),
            counters: Arc::new(PlannerCounters::new()),
        }
    }

    /// An engine borrowing an already-built index of the same table (no
    /// per-call build; `Auto` plans warm).
    pub fn with_index(table: &'a Table, index: &'a TableIndex) -> Self {
        SqlEngine {
            table,
            shared: Some(index),
            built: OnceLock::new(),
            counters: Arc::new(PlannerCounters::new()),
        }
    }

    /// Record planner decisions into `counters` instead of this engine's
    /// own fresh set — how a long-lived owner accumulates across the
    /// short-lived per-request engines it constructs.
    pub fn with_counters(mut self, counters: Arc<PlannerCounters>) -> Self {
        self.counters = counters;
        self
    }

    /// The bound table.
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// This engine's planner decision counters (unaffected by any other
    /// engine in the process unless shared via [`SqlEngine::with_counters`]).
    pub fn counters(&self) -> &PlannerCounters {
        &self.counters
    }

    /// Execute `query` under `mode`. All modes compute identical results on
    /// identical inputs — only the physical plan differs.
    pub fn execute(&self, query: &SqlQuery, mode: PlanMode) -> Result<SqlResult> {
        let subqueries = SubqueryCache::default();
        let ctx = match mode {
            PlanMode::Auto => Ctx {
                table: self.table,
                index: self.warm_index(),
                kernels: true,
                observe: Some(&self.counters),
                subqueries: &subqueries,
            },
            PlanMode::ForceScan => Ctx {
                table: self.table,
                index: None,
                kernels: false,
                observe: None,
                subqueries: &subqueries,
            },
            PlanMode::ForceIndex => Ctx {
                table: self.table,
                index: Some(self.force_index()),
                kernels: false,
                observe: None,
                subqueries: &subqueries,
            },
        };
        execute_query(query, ctx)
    }

    /// The index if one is already available — never triggers a build.
    fn warm_index(&self) -> Option<&TableIndex> {
        self.shared.or_else(|| self.built.get())
    }

    /// The index, building (once) if the caller supplied none.
    fn force_index(&self) -> &TableIndex {
        self.shared
            .unwrap_or_else(|| self.built.get_or_init(|| TableIndex::new(self.table)))
    }
}

/// Memoized subquery state, keyed by the subquery node's address (stable for
/// the duration of one `execute` call over the borrowed query AST): the
/// result rows, plus a lazily-built membership set over the first column for
/// `IN (subquery)` tests (turning the per-row needle search from O(result)
/// into O(1)).
#[derive(Default)]
struct SubqueryCache {
    results: RefCell<HashMap<usize, Rc<SqlResult>>>,
    membership: RefCell<HashMap<usize, Rc<HashSet<Value>>>>,
}

/// Execution context threaded through one `execute` call: the table, the
/// warm index (if any), whether columnar kernels may run, whether planner
/// decisions are recorded, and the per-execution subquery cache.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    table: &'a Table,
    index: Option<&'a TableIndex>,
    /// Columnar kernels allowed (Auto). `ForceScan`/`ForceIndex` keep the
    /// historical physical plans exactly.
    kernels: bool,
    /// The engine's planner counters to record decisions into (Auto only;
    /// each record also bumps the deprecated process-wide shim).
    observe: Option<&'a PlannerCounters>,
    subqueries: &'a SubqueryCache,
}

impl<'a> Ctx<'a> {
    fn column_index(&self, name: &str) -> Option<usize> {
        match self.index {
            Some(index) => index.column_index(name),
            None => self.table.column_index(name),
        }
    }
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
        return Err(SqlError::ScalarCardinality(result.len()));
    }
    result[0][0]
        .as_number()
        .ok_or_else(|| SqlError::Type(format!("expected a number, found {}", result[0][0])))
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
            EvalValue::Null => Err(SqlError::Type("NULL used as a value".into())),
        }
    }

    fn as_number(&self) -> Result<f64> {
        match self {
            EvalValue::Val(v) => v
                .as_number()
                .ok_or_else(|| SqlError::Type(format!("expected a number, found {v}"))),
            EvalValue::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            EvalValue::Null => Err(SqlError::Type("NULL used as a number".into())),
        }
    }
}

/// Swap a comparison's operand order: `lit op cell` ⇔ `cell (swap op) lit`.
fn swap_compare(op: CompareOp) -> CompareOp {
    match op {
        CompareOp::Lt => CompareOp::Gt,
        CompareOp::Leq => CompareOp::Geq,
        CompareOp::Gt => CompareOp::Lt,
        CompareOp::Geq => CompareOp::Leq,
        CompareOp::Neq => CompareOp::Neq,
    }
}

/// The physical backend a planned filter runs on.
#[derive(Clone, Copy)]
enum Backend<'a> {
    /// Bucket / sorted-partition lookups against a warm [`TableIndex`].
    Index(&'a TableIndex),
    /// Columnar kernel sweeps over the table's typed column vectors.
    Kernel,
}

/// Plan and execute a `WHERE` clause, or `None` to fall back to the row
/// scan. Chooses the backend by the cost model described in the module docs
/// and (under `observe`) records the decision and its estimated vs actual
/// selectivity.
fn plan_filter(expr: &SqlExpr, ctx: Ctx<'_>) -> Option<Result<Vec<RecordIdx>>> {
    let rows = ctx.table.num_records();
    let (backend, estimated) = match ctx.index {
        Some(index) => {
            // Plannability and selectivity in one walk over the predicate;
            // `None` (unplannable shape or unknown column) → row scan.
            let estimated = estimate_matches(expr, index, rows)?;
            if ctx.kernels && 2 * estimated >= rows {
                // Dense predicate: range lookups materialize through a
                // BTreeSet, so the flat typed sweep wins.
                (Backend::Kernel, estimated)
            } else {
                (Backend::Index(index), estimated)
            }
        }
        // Cold with kernels (Auto): sweep, never build. With no histogram
        // the planner assumes half the table matches.
        None if ctx.kernels => (Backend::Kernel, rows / 2),
        // ForceScan: nothing is planned.
        None => return None,
    };
    let result = planned_filter(expr, ctx, backend)?;
    if let Some(counters) = ctx.observe {
        match backend {
            Backend::Index(_) => counters.index_chosen.inc(),
            Backend::Kernel => counters.kernel_chosen.inc(),
        };
        if let Ok(records) = &result {
            counters.estimated_rows.add(estimated as u64);
            counters.actual_rows.add(records.len() as u64);
        }
    }
    Some(result)
}

/// Estimated matching rows of a plannable predicate, from the warm index's
/// bucket sizes; `None` when the shape (or a column) is not plannable. The
/// plannable shapes here mirror [`planned_filter`] exactly.
fn estimate_matches(expr: &SqlExpr, index: &TableIndex, rows: usize) -> Option<usize> {
    match expr {
        SqlExpr::Equals(a, b) => {
            if let Some((column, literal)) = column_literal(a, b) {
                let column = index.column_index(column)?;
                return Some(index.records_with_value(column, literal).len());
            }
            // Column = (scalar subquery): the needle is unknown until the
            // subquery runs, so estimate with the mean bucket size.
            let column = match (a.as_ref(), b.as_ref()) {
                (SqlExpr::Column(name), SqlExpr::Scalar(_))
                | (SqlExpr::Scalar(_), SqlExpr::Column(name)) => name,
                _ => return None,
            };
            let column = index.column_index(column)?;
            let distinct = index.column(column).num_distinct().max(1);
            Some((rows / distinct).max(1))
        }
        SqlExpr::Compare(op, a, b) => {
            let (column, literal, op) = compare_parts(*op, a, b)?;
            let column = index.column_index(column)?;
            let Some(threshold) = literal.as_number() else {
                return Some(0);
            };
            let col = index.column(column);
            Some(match op {
                CompareOp::Lt => col.numeric_below(threshold, false).len(),
                CompareOp::Leq => col.numeric_below(threshold, true).len(),
                CompareOp::Gt => col.numeric_above(threshold, false).len(),
                CompareOp::Geq => col.numeric_above(threshold, true).len(),
                CompareOp::Neq => col.numeric_entries().len(),
            })
        }
        SqlExpr::InList(inner, values) => {
            let SqlExpr::Column(name) = inner.as_ref() else {
                return None;
            };
            let column = index.column_index(name)?;
            let total: usize = values
                .iter()
                .map(|value| index.records_with_value(column, value).len())
                .sum();
            Some(total.min(rows))
        }
        // `Index IN (subquery)`: the result size is the subquery's, unknown
        // until it runs — assume half the table.
        SqlExpr::InSubquery(inner, _) if matches!(inner.as_ref(), SqlExpr::Index) => Some(rows / 2),
        SqlExpr::And(a, b) => {
            Some(estimate_matches(a, index, rows)?.min(estimate_matches(b, index, rows)?))
        }
        SqlExpr::Or(a, b) => {
            Some((estimate_matches(a, index, rows)? + estimate_matches(b, index, rows)?).min(rows))
        }
        _ => None,
    }
}

/// The `(column, literal, op)` of a comparison after normalizing a
/// literal-on-the-left operand order.
fn compare_parts<'e>(
    op: CompareOp,
    a: &'e SqlExpr,
    b: &'e SqlExpr,
) -> Option<(&'e str, &'e Value, CompareOp)> {
    match (a, b) {
        (SqlExpr::Column(name), SqlExpr::Literal(value)) => Some((name, value, op)),
        (SqlExpr::Literal(value), SqlExpr::Column(name)) => Some((name, value, swap_compare(op))),
        _ => None,
    }
}

/// Execute a plannable `WHERE` clause on `backend`: returns the matching
/// records (ascending) when the predicate is a combination of per-column
/// value / range / scalar subquery tests, `None` when the engine must fall
/// back to a row scan.
///
/// Planned predicates either cannot error per row (all referenced columns
/// exist, literals only) or error identically to the first row's evaluation
/// (scalar subqueries; the planner is only consulted for non-empty tables),
/// so taking the fast path never changes observable behavior.
fn planned_filter(
    expr: &SqlExpr,
    ctx: Ctx<'_>,
    backend: Backend<'_>,
) -> Option<Result<Vec<RecordIdx>>> {
    match expr {
        SqlExpr::Equals(a, b) => {
            if let Some((column, literal)) = column_literal(a, b) {
                let column = ctx.column_index(column)?;
                return Some(Ok(lookup_eq(ctx, backend, column, literal)));
            }
            // Column = (scalar subquery): evaluate the subquery once, then a
            // point lookup. The per-row path evaluates the same subquery for
            // every record, erroring on the first row if it is not 1×1 —
            // matched here by erroring before any row is produced.
            let (column, query) = match (a.as_ref(), b.as_ref()) {
                (SqlExpr::Column(name), SqlExpr::Scalar(query))
                | (SqlExpr::Scalar(query), SqlExpr::Column(name)) => (name, query),
                _ => return None,
            };
            let column = ctx.column_index(column)?;
            let rows = match execute_subquery(query, ctx) {
                Ok(rows) => rows,
                Err(error) => return Some(Err(error)),
            };
            if rows.len() != 1 || rows[0].len() != 1 {
                return Some(Err(SqlError::ScalarCardinality(rows.len())));
            }
            Some(Ok(lookup_eq(ctx, backend, column, &rows[0][0])))
        }
        SqlExpr::Compare(op, a, b) => {
            let (column, literal, op) = compare_parts(*op, a, b)?;
            let column = ctx.column_index(column)?;
            // A non-numeric literal compares false against every row.
            let Some(threshold) = literal.as_number() else {
                return Some(Ok(Vec::new()));
            };
            Some(Ok(match backend {
                Backend::Index(index) => compare_records(index, column, op, threshold)
                    .into_iter()
                    .collect(),
                Backend::Kernel => ctx.table.filter_num(column, |n| op.compare(n, threshold)),
            }))
        }
        SqlExpr::InList(inner, values) => {
            let SqlExpr::Column(name) = inner.as_ref() else {
                return None;
            };
            let column = ctx.column_index(name)?;
            Some(Ok(match backend {
                Backend::Index(index) => {
                    let mut records: Vec<RecordIdx> = values
                        .iter()
                        .flat_map(|value| index.records_with_value(column, value).iter().copied())
                        .collect();
                    records.sort_unstable();
                    records.dedup();
                    records
                }
                Backend::Kernel => ctx.table.filter_in(column, values),
            }))
        }
        SqlExpr::InSubquery(inner, query) => {
            // Only the translation's favourite shape `Index IN (subquery)`:
            // its matching records are the subquery's first-column values
            // read back as record indices, so the per-row membership loop
            // collapses to one pass over the (memoized) result set. The
            // `contains` re-check reproduces the row loop's hash-set
            // semantics exactly — a candidate survives iff the row loop's
            // `members.contains(Num(record))` test would.
            if !matches!(inner.as_ref(), SqlExpr::Index) {
                return None;
            }
            let members = match subquery_membership(query, ctx) {
                Ok(members) => members,
                Err(error) => return Some(Err(error)),
            };
            let rows = ctx.table.num_records();
            let mut records: Vec<RecordIdx> = members
                .iter()
                .filter_map(|member| member.as_number())
                .filter(|n| n.is_finite())
                .map(f64::round)
                .filter(|&n| n >= 0.0 && n < rows as f64)
                .map(|n| n as RecordIdx)
                .filter(|&record| members.contains(&Value::Num(record as f64)))
                .collect();
            records.sort_unstable();
            records.dedup();
            Some(Ok(records))
        }
        SqlExpr::And(a, b) => {
            let left = match planned_filter(a, ctx, backend)? {
                Ok(records) => records,
                Err(error) => return Some(Err(error)),
            };
            if left.is_empty() {
                // Mirror the row loop's `&&` short-circuit: with no row
                // passing the left side, the right side is never evaluated
                // (and so cannot error).
                return Some(Ok(left));
            }
            let right = match planned_filter(b, ctx, backend)? {
                Ok(records) => records,
                Err(error) => return Some(Err(error)),
            };
            let right: HashSet<RecordIdx> = right.into_iter().collect();
            Some(Ok(left.into_iter().filter(|r| right.contains(r)).collect()))
        }
        SqlExpr::Or(a, b) => {
            let left = match planned_filter(a, ctx, backend)? {
                Ok(records) => records,
                Err(error) => return Some(Err(error)),
            };
            if left.len() == ctx.table.num_records() {
                // Mirror the row loop's `||` short-circuit: every row passes
                // the left side, so the right side is never evaluated.
                return Some(Ok(left));
            }
            let right = match planned_filter(b, ctx, backend)? {
                Ok(records) => records,
                Err(error) => return Some(Err(error)),
            };
            let mut merged: Vec<RecordIdx> = left.into_iter().chain(right).collect();
            merged.sort_unstable();
            merged.dedup();
            Some(Ok(merged))
        }
        _ => None,
    }
}

/// Point equality lookup on the chosen backend. Both agree with the row
/// scan's `Value` equality (the kernel by per-layout construction, the
/// index by its build).
fn lookup_eq(ctx: Ctx<'_>, backend: Backend<'_>, column: usize, value: &Value) -> Vec<RecordIdx> {
    match backend {
        Backend::Index(index) => index.records_with_value(column, value).to_vec(),
        Backend::Kernel => ctx.table.filter_eq(column, value),
    }
}

/// The `(column, literal)` operands of a symmetric predicate, if that is
/// what the two sides are.
fn column_literal<'e>(a: &'e SqlExpr, b: &'e SqlExpr) -> Option<(&'e str, &'e Value)> {
    match (a, b) {
        (SqlExpr::Column(name), SqlExpr::Literal(value))
        | (SqlExpr::Literal(value), SqlExpr::Column(name)) => Some((name, value)),
        _ => None,
    }
}

fn execute_select(select: &SqlSelect, ctx: Ctx<'_>) -> Result<SqlResult> {
    // 1. Filter — through the planner when possible, else a row scan. The
    // planner is skipped for empty tables: the row loop never runs there,
    // so nothing (not even an erroring scalar subquery) may execute.
    let matching: Vec<RecordIdx> = match &select.filter {
        None => ctx.table.record_indices().collect(),
        Some(filter) => {
            let planned = if ctx.table.is_empty() {
                None
            } else {
                plan_filter(filter, ctx)
            };
            match planned {
                Some(records) => records?,
                None => {
                    if let Some(counters) = ctx.observe {
                        counters.scan_chosen.inc();
                    }
                    let mut matching = Vec::new();
                    for record in ctx.table.record_indices() {
                        if eval_row(filter, ctx, record)?.truthy() {
                            matching.push(record);
                        }
                    }
                    matching
                }
            }
        }
    };

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
                    .map_err(|_| SqlError::Type("record out of range".into()))?
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
            // Columnar fast path (Auto only): a fully-numeric column folds
            // directly over its typed f64 vector — no per-row Value
            // round-trip, and per-row evaluation cannot error there.
            if ctx.kernels {
                if let SqlExpr::Column(name) = inner.as_ref() {
                    if let Some(column) = ctx.column_index(name) {
                        if let Some(values) = ctx.table.dense_f64(column) {
                            return Ok(fold_dense(*op, values, records));
                        }
                    }
                }
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

/// Fold an aggregate over the records' entries of a dense (null-free) f64
/// column — same fold order and same results as the per-row path.
fn fold_dense(op: AggregateOp, values: &[f64], records: &[RecordIdx]) -> EvalValue {
    if records.is_empty() {
        return EvalValue::Null;
    }
    let nums = records.iter().map(|&record| values[record]);
    let result = match op {
        AggregateOp::Max => nums.fold(f64::NEG_INFINITY, f64::max),
        AggregateOp::Min => nums.fold(f64::INFINITY, f64::min),
        AggregateOp::Sum => nums.sum(),
        AggregateOp::Avg => nums.sum::<f64>() / records.len() as f64,
        AggregateOp::Count => unreachable!("count handled before the fast path"),
    };
    EvalValue::Val(Value::Num(result))
}

/// Evaluate an expression against a single record.
fn eval_row(expr: &SqlExpr, ctx: Ctx<'_>, record: RecordIdx) -> Result<EvalValue> {
    match expr {
        SqlExpr::Column(name) => {
            let column = ctx
                .column_index(name)
                .ok_or_else(|| SqlError::UnknownColumn(name.clone()))?;
            Ok(ctx
                .table
                .value_at(record, column)
                .map(EvalValue::Val)
                .unwrap_or(EvalValue::Null))
        }
        SqlExpr::Index => Ok(EvalValue::Val(Value::Num(record as f64))),
        SqlExpr::Literal(value) => Ok(EvalValue::Val(value.clone())),
        SqlExpr::Aggregate(_, _) => Err(SqlError::Type(
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
                return Err(SqlError::ScalarCardinality(rows.len()));
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
    use wtq_table::samples;

    fn col(name: &str) -> SqlExpr {
        SqlExpr::Column(name.to_string())
    }

    fn lit(value: Value) -> SqlExpr {
        SqlExpr::Literal(value)
    }

    /// Cold cost-based execution (no pre-built index).
    fn execute(query: &SqlQuery, table: &Table) -> Result<SqlResult> {
        SqlEngine::new(table).execute(query, PlanMode::Auto)
    }

    /// The scan reference.
    fn execute_scan(query: &SqlQuery, table: &Table) -> Result<SqlResult> {
        SqlEngine::new(table).execute(query, PlanMode::ForceScan)
    }

    #[test]
    fn select_star_with_filter() {
        // SELECT * FROM T WHERE Country = 'Greece'
        let table = samples::olympics();
        let q = SqlQuery::select(SqlSelect::project(vec![]).with_filter(SqlExpr::Equals(
            Box::new(col("Country")),
            Box::new(lit(Value::str("Greece"))),
        )));
        let rows = execute(&q, &table).unwrap();
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
            execute(&outer, &table).unwrap(),
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
        assert_eq!(execute(&q, &table).unwrap(), vec![vec![Value::num(298.0)]]);
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
        assert_eq!(execute(&q, &table).unwrap(), vec![vec![Value::num(2.0)]]);
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
        let rows = execute(&q, &table).unwrap();
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
            execute(&SqlQuery::Select(select), &table).unwrap(),
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
        assert_eq!(execute(&q, &table).unwrap(), vec![vec![Value::num(3.0)]]);
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
        let rows = execute(&q, &table).unwrap();
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
        let rows = execute(&SqlQuery::Select(select), &table).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn errors_are_reported() {
        let table = samples::olympics();
        let q = SqlQuery::select(SqlSelect::project(vec![col("Continent")]));
        assert!(matches!(
            execute(&q, &table),
            Err(SqlError::UnknownColumn(_))
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
            execute(&q, &table),
            Err(SqlError::ScalarCardinality(_))
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
        let rows = execute(&outer, &table).unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::str("St. Louis")], vec![Value::str("Beijing")]]
        );
    }

    #[test]
    fn all_plan_modes_agree_on_planned_filters() {
        let table = samples::squad();
        // An AND/OR combination the planner handles without a row scan.
        let filter = SqlExpr::Or(
            Box::new(SqlExpr::And(
                Box::new(SqlExpr::Compare(
                    CompareOp::Geq,
                    Box::new(col("Games")),
                    Box::new(lit(Value::num(5.0))),
                )),
                Box::new(SqlExpr::Equals(
                    Box::new(col("Position")),
                    Box::new(lit(Value::str("DF"))),
                )),
            )),
            Box::new(SqlExpr::InList(
                Box::new(col("Name")),
                vec![Value::str("Lucien Favre")],
            )),
        );
        let q = SqlQuery::select(SqlSelect::project(vec![col("Name")]).with_filter(filter));
        let engine = SqlEngine::new(&table);
        let scan = engine.execute(&q, PlanMode::ForceScan).unwrap();
        assert_eq!(engine.execute(&q, PlanMode::Auto).unwrap(), scan);
        assert_eq!(engine.execute(&q, PlanMode::ForceIndex).unwrap(), scan);
        // ForceIndex built the engine's own index; Auto now plans warm and
        // must still agree.
        assert_eq!(engine.execute(&q, PlanMode::Auto).unwrap(), scan);

        // A literal-on-the-left comparison takes the swapped-operator path.
        let q = SqlQuery::select(SqlSelect::project(vec![col("Name")]).with_filter(
            SqlExpr::Compare(
                CompareOp::Lt,
                Box::new(lit(Value::num(4.0))),
                Box::new(col("Games")),
            ),
        ));
        let rows = execute(&q, &table).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows, execute_scan(&q, &table).unwrap());
    }

    #[test]
    fn unknown_filter_column_still_errors_lazily() {
        // The planner must not turn a per-row error into an eager one or
        // swallow it: an unknown column inside WHERE falls back to the scan
        // path and errors exactly as before.
        let table = samples::olympics();
        let q = SqlQuery::select(SqlSelect::project(vec![col("City")]).with_filter(
            SqlExpr::Equals(Box::new(col("Continent")), Box::new(lit(Value::str("X")))),
        ));
        assert!(matches!(
            execute(&q, &table),
            Err(SqlError::UnknownColumn(_))
        ));
    }

    #[test]
    fn scalar_subquery_filter_is_planned_and_agrees_with_scan() {
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
        let rows = execute(&q, &table).unwrap();
        assert_eq!(rows, execute_scan(&q, &table).unwrap());
        assert_eq!(rows, vec![vec![Value::str("Rio de Janeiro")]]);
    }

    #[test]
    fn planner_preserves_boolean_short_circuits() {
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
        assert_eq!(
            execute(&q, &table).unwrap(),
            execute_scan(&q, &table).unwrap()
        );
        assert!(execute(&q, &table).unwrap().is_empty());
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
        assert_eq!(
            execute(&q, &table).unwrap(),
            execute_scan(&q, &table).unwrap()
        );
        assert_eq!(execute(&q, &table).unwrap().len(), table.num_records());
    }

    #[test]
    fn shared_index_engine_agrees_across_modes() {
        let table = samples::olympics();
        let index = TableIndex::new(&table);
        let engine = SqlEngine::with_index(&table, &index);
        let q = SqlQuery::select(SqlSelect::project(vec![col("City")]).with_filter(
            SqlExpr::Equals(
                Box::new(col("Country")),
                Box::new(lit(Value::str("Greece"))),
            ),
        ));
        let scan = engine.execute(&q, PlanMode::ForceScan).unwrap();
        assert_eq!(engine.execute(&q, PlanMode::ForceIndex).unwrap(), scan);
        assert_eq!(engine.execute(&q, PlanMode::Auto).unwrap(), scan);
    }

    /// Decisions of every backend recorded in `counters`.
    fn decisions(counters: &PlannerCounters) -> u64 {
        [
            &counters.scan_chosen,
            &counters.index_chosen,
            &counters.kernel_chosen,
        ]
        .iter()
        .map(|counter| counter.get())
        .sum()
    }

    #[test]
    fn auto_mode_records_planner_decisions() {
        let table = samples::olympics();
        let q = SqlQuery::select(SqlSelect::project(vec![col("City")]).with_filter(
            SqlExpr::Equals(
                Box::new(col("Country")),
                Box::new(lit(Value::str("Greece"))),
            ),
        ));
        // Cold Auto: the equality is answered by a columnar kernel.
        // Per-engine counters are exact — no deltas, no interference from
        // concurrently running tests.
        let cold = SqlEngine::new(&table);
        let rows = cold.execute(&q, PlanMode::Auto).unwrap();
        let counters = cold.counters();
        assert_eq!(rows.len(), 2);
        assert_eq!(counters.kernel_chosen.get(), 1);
        assert_eq!(counters.actual_rows.get(), rows.len() as u64);
        assert!(counters.estimated_rows.get() > 0);

        // Warm Auto on a selective predicate: the index path is chosen and
        // the bucket-size estimate is exact.
        let index = TableIndex::new(&table);
        let engine = SqlEngine::with_index(&table, &index);
        engine.execute(&q, PlanMode::Auto).unwrap();
        assert_eq!(engine.counters().index_chosen.get(), 1);

        // ForceScan never records decisions.
        let scan_engine = SqlEngine::with_index(&table, &index);
        scan_engine.execute(&q, PlanMode::ForceScan).unwrap();
        assert_eq!(decisions(scan_engine.counters()), 0);
    }

    #[test]
    fn planner_counters_are_per_engine() {
        let table = samples::olympics();
        let q = SqlQuery::select(SqlSelect::project(vec![col("City")]).with_filter(
            SqlExpr::Equals(
                Box::new(col("Country")),
                Box::new(lit(Value::str("Greece"))),
            ),
        ));
        let a = SqlEngine::new(&table);
        let b = SqlEngine::new(&table);
        a.execute(&q, PlanMode::Auto).unwrap();
        // Per-engine counters are exact (no deltas needed): engine `b` saw
        // nothing even though `a` ran concurrently with the whole suite.
        assert_eq!(a.counters().kernel_chosen.get(), 1);
        assert_eq!(decisions(b.counters()), 0);

        // A shared set accumulates across short-lived engines.
        let shared = Arc::new(PlannerCounters::new());
        for _ in 0..2 {
            SqlEngine::new(&table)
                .with_counters(shared.clone())
                .execute(&q, PlanMode::Auto)
                .unwrap();
        }
        assert_eq!(shared.kernel_chosen.get(), 2);
    }

    #[test]
    fn unplannable_filter_counts_as_scan() {
        let table = samples::olympics();
        // `Index = 2` is not a plannable shape (no column name).
        let q = SqlQuery::select(SqlSelect::project(vec![col("City")]).with_filter(
            SqlExpr::Equals(Box::new(SqlExpr::Index), Box::new(lit(Value::num(2.0)))),
        ));
        let engine = SqlEngine::new(&table);
        let rows = engine.execute(&q, PlanMode::Auto).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(engine.counters().scan_chosen.get(), 1);
    }

    #[test]
    fn dense_aggregate_fast_path_matches_reference() {
        let table = samples::medals();
        for op in [
            AggregateOp::Max,
            AggregateOp::Min,
            AggregateOp::Sum,
            AggregateOp::Avg,
        ] {
            let q = SqlQuery::select(SqlSelect::project(vec![SqlExpr::Aggregate(
                op,
                Box::new(col("Gold")),
            )]));
            assert_eq!(
                execute(&q, &table).unwrap(),
                execute_scan(&q, &table).unwrap(),
                "aggregate {op:?} diverged from the scan reference"
            );
        }
    }
}
