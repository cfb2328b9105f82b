//! Execution engine for lambda DCS formulas.
//!
//! A formula executed against a table denotes a [`Denotation`]: a set of
//! values (each traced back to the cells it came from), a set of records, or
//! a single number produced by an aggregate / arithmetic operation. The cell
//! tracing is what the provenance model of §4 consumes: the output provenance
//! `P_O(Q, T)` of a value-denoting query is exactly the union of the traced
//! cells of its denotation.
//!
//! The evaluator is **index-backed and stateful**: it consults the shared
//! [`TableIndex`] (inverted value indexes, sorted numeric projections,
//! value-sorted permutations) instead of scanning rows, and it memoizes
//! across calls both the record sets of record-denoting subformulas and the
//! *grouped projections* of projections whose traces nobody reads (each
//! distinct value with its cell count). A single [`Evaluator`] session
//! therefore amortizes work across the hundreds of candidate formulas the
//! semantic parser executes per question — a shared base like
//! `Country.Greece` is evaluated once, and projected once per column however
//! many aggregates fold that projection. [`Evaluator::answer`] skips cell
//! traces altogether. Formulas are evaluated as ids in the session's
//! hash-consed [`FormulaArena`], so the memo is keyed by [`FormulaId`]: a
//! lookup is an index, not a hash of a formula tree, and callers that
//! build formulas as ids (the semantic parser's candidate generation)
//! evaluate them without ever building a tree. The scan-based semantics it
//! must agree with are kept in the dev-only `wtq-oracle` crate as an
//! executable specification, enforced by a differential proptest suite.

use std::cell::{Cell, Ref, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use wtq_table::{CellRef, KnowledgeBase, RecordIdx, Table, TableIndex, Value};

use crate::answer::Answer;
use crate::arena::{ColumnId, ConstId, FormulaArena, FormulaId, Node, FORMULA_ARENA_CAP};
use crate::ast::{AggregateOp, CompareOp, Formula, SuperlativeOp};
use crate::error::DcsError;
use crate::Result;

/// Maximum formula nesting depth accepted by the evaluator. Machine-generated
/// candidates never approach this; the guard only protects against
/// pathological inputs.
pub const MAX_EVAL_DEPTH: usize = 64;

/// Maximum number of memo entries per evaluator session, record sets and
/// grouped projections together. The candidate generator produces a few
/// hundred formulas per question, far below this; the cap only bounds
/// memory for adversarial workloads.
const DENOTATION_CACHE_CAP: usize = 8192;

/// One value of a value-denoting formula, together with the cells that
/// contain it.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedValue {
    /// The value itself.
    pub value: Value,
    /// Cells whose content is this value and which participated in producing
    /// it (empty for purely constant values that do not appear in the table).
    pub cells: Vec<CellRef>,
}

impl TracedValue {
    /// A value with no cell trace (e.g. a literal constant absent from the
    /// table).
    pub fn untraced(value: Value) -> Self {
        TracedValue {
            value,
            cells: Vec::new(),
        }
    }
}

/// The result of evaluating a formula against a table.
#[derive(Debug, Clone, PartialEq)]
pub enum Denotation {
    /// A set of values, deduplicated, in first-encounter order.
    Values(Vec<TracedValue>),
    /// A set of record indices.
    Records(BTreeSet<RecordIdx>),
    /// A single number produced by an aggregate or arithmetic operation.
    Number(f64),
}

impl Denotation {
    /// Human-readable kind name, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Denotation::Values(_) => "values",
            Denotation::Records(_) => "records",
            Denotation::Number(_) => "number",
        }
    }

    /// Whether the denotation is empty (no values / records). Numbers are
    /// never empty.
    pub fn is_empty(&self) -> bool {
        match self {
            Denotation::Values(v) => v.is_empty(),
            Denotation::Records(r) => r.is_empty(),
            Denotation::Number(_) => false,
        }
    }

    /// Number of elements denoted.
    pub fn len(&self) -> usize {
        match self {
            Denotation::Values(v) => v.len(),
            Denotation::Records(r) => r.len(),
            Denotation::Number(_) => 1,
        }
    }

    /// The plain values of a value denotation (numbers become single values).
    pub fn values(&self) -> Vec<Value> {
        match self {
            Denotation::Values(v) => v.iter().map(|tv| tv.value.clone()).collect(),
            Denotation::Number(n) => vec![Value::Num(*n)],
            Denotation::Records(_) => Vec::new(),
        }
    }

    /// All cells traced by a value denotation (the `P_O` of non-aggregate
    /// value queries).
    pub fn traced_cells(&self) -> Vec<CellRef> {
        match self {
            Denotation::Values(v) => {
                let mut cells: Vec<CellRef> = v.iter().flat_map(|tv| tv.cells.clone()).collect();
                cells.sort_unstable();
                cells.dedup();
                cells
            }
            _ => Vec::new(),
        }
    }

    /// The record set, if this denotes records.
    pub fn records(&self) -> Option<&BTreeSet<RecordIdx>> {
        match self {
            Denotation::Records(r) => Some(r),
            _ => None,
        }
    }

    /// Interpret the denotation as a single number, if possible: either a
    /// `Number`, or a singleton value set whose value is numeric.
    pub fn as_single_number(&self) -> Option<f64> {
        match self {
            Denotation::Number(n) => Some(*n),
            Denotation::Values(v) if v.len() == 1 => v[0].value.as_number(),
            _ => None,
        }
    }
}

/// A record set shared by the session memo and every consumer that reads
/// it: record indices, ascending and distinct.
type Records = Arc<[RecordIdx]>;

/// A grouped projection: the distinct values of a column over a record set
/// in first-appearance order, each with the number of cells holding it —
/// a projection without its cell traces.
type Groups = Arc<[(Value, usize)]>;

/// Marks a class with no group yet in [`Evaluator::group_column`]'s scratch.
const NO_GROUP: u32 = u32::MAX;

/// A denotation inside the evaluator. Record sets and groupings are shared
/// with the memo, so a memo hit is a reference-count bump.
#[derive(Clone)]
enum Den {
    Records(Records),
    /// A traced value set.
    Values(Vec<TracedValue>),
    /// An untraced projection (see [`Groups`]); only evaluation that reads
    /// no traces produces one. `distinct`: no two groups hold equal values
    /// (the column was grouped by class ids), so its answer keeps one value
    /// per group.
    Groups {
        groups: Groups,
        distinct: bool,
    },
    Number(f64),
}

impl Den {
    fn kind(&self) -> &'static str {
        match self {
            Den::Records(_) => "records",
            Den::Values(_) | Den::Groups { .. } => "values",
            Den::Number(_) => "number",
        }
    }

    fn len(&self) -> usize {
        match self {
            Den::Records(r) => r.len(),
            Den::Values(v) => v.len(),
            Den::Groups { groups, .. } => groups.len(),
            Den::Number(_) => 1,
        }
    }

    /// The values of a value set in order, each with the number of cells
    /// it is traced to; nothing for records and numbers.
    fn counted(&self) -> impl Iterator<Item = (&Value, usize)> {
        let (traced, grouped): (&[TracedValue], &[(Value, usize)]) = match self {
            Den::Values(values) => (values, &[]),
            Den::Groups { groups, .. } => (&[], groups),
            Den::Records(_) | Den::Number(_) => (&[], &[]),
        };
        traced
            .iter()
            .map(|tv| (&tv.value, tv.cells.len()))
            .chain(grouped.iter().map(|(value, count)| (value, *count)))
    }

    /// [`Denotation::as_single_number`].
    fn as_single_number(&self) -> Option<f64> {
        match self {
            Den::Number(n) => Some(*n),
            Den::Values(_) | Den::Groups { .. } if self.len() == 1 => self
                .counted()
                .next()
                .and_then(|(value, _)| value.as_number()),
            _ => None,
        }
    }
}

/// Records whose numeric cell in `column` satisfies `op` against
/// `threshold`, answered from the index's sorted numeric projection: binary
/// search for the ordered operators, a linear pass over the numeric cells for
/// `!=` (whose tolerance band is not a prefix/suffix).
///
/// Shared with `wtq-sql`'s WHERE planner, so both engines agree on
/// comparison semantics by construction.
pub fn compare_records(
    index: &TableIndex,
    column: usize,
    op: CompareOp,
    threshold: f64,
) -> BTreeSet<RecordIdx> {
    compare_matches(index, column, op, threshold).collect()
}

/// The records [`compare_records`] selects, in numeric (not record) order.
fn compare_matches(
    index: &TableIndex,
    column: usize,
    op: CompareOp,
    threshold: f64,
) -> impl Iterator<Item = RecordIdx> + '_ {
    let col = index.column(column);
    let matched: Box<dyn Iterator<Item = &(f64, RecordIdx)>> = match op {
        CompareOp::Lt => Box::new(col.numeric_below(threshold, false).iter()),
        CompareOp::Leq => Box::new(col.numeric_below(threshold, true).iter()),
        CompareOp::Gt => Box::new(col.numeric_above(threshold, false).iter()),
        CompareOp::Geq => Box::new(col.numeric_above(threshold, true).iter()),
        CompareOp::Neq => Box::new(
            col.numeric_entries()
                .iter()
                .filter(move |(n, _)| op.compare(*n, threshold)),
        ),
    };
    matched.map(|&(_, record)| record)
}

/// Evaluator bound to one table (and its indexed KB view). Create one per
/// table and reuse it across formulas: the session memoizes record-denoting
/// subformulas and grouped projections, so candidate pools sharing bases
/// (`Country.Greece` under many projections and aggregates) pay for each
/// base once, and for each projection of it once.
///
/// The session owns a [`FormulaArena`]; every formula it evaluates is
/// interned there first. An id stays valid until the next
/// [`Evaluator::release_ids`], which [`Evaluator::eval`] and
/// [`Evaluator::answer`] call on entry: once the arena has passed
/// [`FORMULA_ARENA_CAP`] nodes, releasing empties it and the memo together.
pub struct Evaluator<'a> {
    table: &'a Table,
    kb: KnowledgeBase<'a>,
    arena: RefCell<FormulaArena>,
    /// The table column of each interned column name (`None`: no such
    /// column), in id order; names interned since the last evaluation are
    /// resolved when the next one starts.
    columns: RefCell<Vec<Option<usize>>>,
    /// Memoized record sets of record-denoting subformulas and groupings of
    /// projections, indexed by [`FormulaId`]. Holds only [`Den::Records`]
    /// and [`Den::Groups`]: no cell traces. Sound because the table (and
    /// thus every denotation) is immutable for the life of the session.
    memo: RefCell<Memo>,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
    /// Scratch of [`Evaluator::group_column`]: the group of each class of
    /// the column being grouped, [`NO_GROUP`] between groupings.
    group_of_class: RefCell<Vec<u32>>,
}

/// The session memo: one optional slot per arena node, and how many slots
/// are filled (bounded by [`DENOTATION_CACHE_CAP`]).
#[derive(Default)]
struct Memo {
    slots: Vec<Option<Den>>,
    entries: usize,
}

impl<'a> Evaluator<'a> {
    /// Create an evaluator for `table`, building the columnar index.
    pub fn new(table: &'a Table) -> Self {
        Self::with_kb(KnowledgeBase::new(table))
    }

    /// Create an evaluator sharing an already-built [`TableIndex`] of the
    /// same table (no per-session index build).
    pub fn with_index(table: &'a Table, index: Arc<TableIndex>) -> Self {
        Self::with_kb(KnowledgeBase::with_index(table, index))
    }

    fn with_kb(kb: KnowledgeBase<'a>) -> Self {
        Evaluator {
            table: kb.table(),
            kb,
            arena: RefCell::new(FormulaArena::new()),
            columns: RefCell::new(Vec::new()),
            memo: RefCell::new(Memo::default()),
            cache_hits: Cell::new(0),
            cache_misses: Cell::new(0),
            group_of_class: RefCell::new(Vec::new()),
        }
    }

    /// The table being queried.
    pub fn table(&self) -> &Table {
        self.table
    }

    /// The knowledge-base view of the table.
    pub fn kb(&self) -> &KnowledgeBase<'a> {
        &self.kb
    }

    /// The columnar index backing this session.
    pub fn index(&self) -> &TableIndex {
        self.kb.index()
    }

    /// `(hits, misses)` of the session memo, for instrumentation, benchmarks
    /// and count gates. Both of its kinds of entry count: the record sets of
    /// composite record-denoting subformulas, and the grouped projections
    /// behind [`Evaluator::answer`] and every aggregate, difference or
    /// value-level operator over a projection. A hit is a lookup that found
    /// its entry; a miss is a lookup that did not and whose evaluation then
    /// succeeded (a failed evaluation counts as neither).
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits.get(), self.cache_misses.get())
    }

    /// The session's formula arena. Hold the borrow only while reading:
    /// interning and evaluation need the arena too.
    pub fn arena(&self) -> Ref<'_, FormulaArena> {
        self.arena.borrow()
    }

    /// Declare that the caller holds no id interned so far. If the arena has
    /// passed [`FORMULA_ARENA_CAP`] nodes it is emptied, together with the
    /// memo keyed by its ids; otherwise ids stay valid. A parse calls this
    /// once before it interns its first candidate.
    pub fn release_ids(&self) {
        if self.arena.borrow().len() > FORMULA_ARENA_CAP {
            self.arena.borrow_mut().clear();
            self.columns.borrow_mut().clear();
            let mut memo = self.memo.borrow_mut();
            memo.slots.clear();
            memo.entries = 0;
        }
    }

    /// Add one node to the session arena (see [`FormulaArena::add`]).
    pub fn intern_node(&self, node: Node) -> FormulaId {
        self.arena.borrow_mut().add(node)
    }

    /// Intern a column name in the session arena.
    pub fn intern_column(&self, name: &str) -> ColumnId {
        self.arena.borrow_mut().column(name)
    }

    /// Intern a constant in the session arena.
    pub fn intern_constant(&self, value: &Value) -> ConstId {
        self.arena.borrow_mut().constant(value)
    }

    /// Evaluate `formula` against the table.
    pub fn eval(&self, formula: &Formula) -> Result<Denotation> {
        let id = self.intern(formula);
        self.resolve_columns();
        Ok(match self.eval_depth(id, 0, true)? {
            Den::Records(records) => Denotation::Records(records.iter().copied().collect()),
            Den::Values(values) => Denotation::Values(values),
            Den::Number(n) => Denotation::Number(n),
            Den::Groups { .. } => unreachable!("traced evaluation never groups"),
        })
    }

    /// The canonical answer of `formula`: exactly
    /// `self.eval(formula).map(|d| Answer::from_denotation(&d))`, errors
    /// included, but without building the cell traces an answer drops — a
    /// projection is answered from its memoized grouping.
    pub fn answer(&self, formula: &Formula) -> Result<Answer> {
        let id = self.intern(formula);
        self.answer_id(id)
    }

    /// [`Evaluator::answer`] of an interned formula.
    pub fn answer_id(&self, id: FormulaId) -> Result<Answer> {
        self.bounded_answer_id(id, usize::MAX)
            .map(|answer| answer.expect("no answer holds more than usize::MAX values"))
    }

    /// [`Evaluator::answer`] if it holds at most `max_values` values
    /// ([`Answer::len`]), `None` otherwise, with the same errors.
    pub fn bounded_answer(&self, formula: &Formula, max_values: usize) -> Result<Option<Answer>> {
        let id = self.intern(formula);
        self.bounded_answer_id(id, max_values)
    }

    /// [`Evaluator::bounded_answer`] of an interned formula. A projection
    /// grouped by class ids has one answer value per group, so one with
    /// more groups than `max_values` is rejected before any value is
    /// sorted or cloned; otherwise only the values kept are cloned.
    pub fn bounded_answer_id(&self, id: FormulaId, max_values: usize) -> Result<Option<Answer>> {
        self.resolve_columns();
        Ok(match self.eval_depth(id, 0, false)? {
            Den::Records(records) => {
                (records.len() <= max_values).then(|| Answer::Records(records.to_vec()))
            }
            Den::Number(n) => (max_values >= 1).then_some(Answer::Number(n)),
            Den::Groups {
                groups,
                distinct: true,
            } if groups.len() > max_values => None,
            values => Answer::values_within(values.counted().map(|(value, _)| value), max_values),
        })
    }

    /// Whether the answer of formula `id` is non-empty
    /// (`!answer.is_empty()` for [`Evaluator::answer_id`], errors alike),
    /// without building the answer or copying a record set.
    pub fn is_nonempty_id(&self, id: FormulaId) -> Result<bool> {
        self.resolve_columns();
        Ok(self.eval_depth(id, 0, false)?.len() > 0)
    }

    /// Intern `formula` for a call that holds no earlier id (see
    /// [`Evaluator::release_ids`]).
    fn intern(&self, formula: &Formula) -> FormulaId {
        self.release_ids();
        self.arena.borrow_mut().intern(formula)
    }

    /// Resolve every column name interned since the last evaluation.
    fn resolve_columns(&self) {
        let arena = self.arena.borrow();
        let mut columns = self.columns.borrow_mut();
        let resolved = columns.len();
        for name in arena.column_names().skip(resolved) {
            columns.push(self.index().column_index(name));
        }
    }

    /// Whether a node's denotation is memoized: composite record-denoting
    /// formulas (atomic ones are cheaper to re-evaluate than to look up),
    /// and projections evaluated without traces.
    fn memoized(node: &Node, traced: bool) -> bool {
        match node {
            Node::ColumnValues { .. } => !traced,
            Node::Join { .. }
            | Node::CompareJoin { .. }
            | Node::Prev(_)
            | Node::Next(_)
            | Node::Intersect(_, _)
            | Node::Union(_, _)
            | Node::SuperlativeRecords { .. }
            | Node::RecordIndexSuperlative { .. } => true,
            _ => false,
        }
    }

    /// Evaluate formula `id` at nesting `depth`. With `traced` false the
    /// caller reads no cell traces, so a projection may come back as its
    /// grouping.
    fn eval_depth(&self, id: FormulaId, depth: usize, traced: bool) -> Result<Den> {
        if depth > MAX_EVAL_DEPTH {
            return Err(DcsError::DepthExceeded(MAX_EVAL_DEPTH));
        }
        let node = self.arena.borrow().node(id);
        let memoized = Self::memoized(&node, traced);
        if memoized {
            if let Some(Some(denotation)) = self.memo.borrow().slots.get(id.index()) {
                // A fresh evaluation of this subformula would recurse to
                // `depth + formula_depth - 1`; replicate the depth guard it
                // would have hit so cached and uncached evaluation (and the
                // scan reference) report identical errors.
                if depth + self.arena.borrow().depth(id) - 1 > MAX_EVAL_DEPTH {
                    return Err(DcsError::DepthExceeded(MAX_EVAL_DEPTH));
                }
                self.cache_hits.set(self.cache_hits.get() + 1);
                return Ok(denotation.clone());
            }
        }
        let result = self.eval_node(node, depth, traced)?;
        if memoized {
            self.cache_misses.set(self.cache_misses.get() + 1);
            if matches!(result, Den::Records(_) | Den::Groups { .. }) {
                let mut memo = self.memo.borrow_mut();
                if memo.entries < DENOTATION_CACHE_CAP {
                    if memo.slots.len() <= id.index() {
                        memo.slots.resize(id.index() + 1, None);
                    }
                    memo.slots[id.index()] = Some(result.clone());
                    memo.entries += 1;
                }
            }
        }
        Ok(result)
    }

    fn eval_node(&self, node: Node, depth: usize, traced: bool) -> Result<Den> {
        match node {
            Node::Const(constant) => Ok(self.eval_const(self.arena.borrow().value(constant))),
            Node::AllRecords => Ok(Den::Records(self.table.record_indices().collect())),
            Node::Join { column, values } => {
                let column_idx = self.column(column)?;
                let values = self.eval_depth(values, depth + 1, false)?;
                self.eval_join(column_idx, &values)
            }
            Node::CompareJoin { column, op, value } => {
                let column_idx = self.column(column)?;
                let value = self.eval_depth(value, depth + 1, false)?;
                let threshold = value.as_single_number().ok_or(DcsError::Cardinality {
                    operator: "comparison",
                    expected: "a single numeric value",
                    got: value.len(),
                })?;
                let mut records: Vec<RecordIdx> =
                    compare_matches(self.index(), column_idx, op, threshold).collect();
                records.sort_unstable();
                Ok(Den::Records(records.into()))
            }
            Node::ColumnValues { column, records } => {
                let column_idx = self.column(column)?;
                let records = self.eval_records("column projection", records, depth)?;
                Ok(if traced {
                    self.project_column(column_idx, &records)
                } else {
                    let (groups, distinct) = self.group_column(column_idx, &records, |_, _| {});
                    Den::Groups {
                        groups: groups.into(),
                        distinct,
                    }
                })
            }
            Node::Prev(sub) => {
                let records = self.eval_records("Prev", sub, depth)?;
                Ok(Den::Records(
                    records
                        .iter()
                        .filter_map(|&r| self.table.prev_record(r))
                        .collect(),
                ))
            }
            Node::Next(sub) => {
                let records = self.eval_records("R[Prev]", sub, depth)?;
                Ok(Den::Records(
                    records
                        .iter()
                        .filter_map(|&r| self.table.next_record(r))
                        .collect(),
                ))
            }
            // Value-set intersections and unions carry their operands' cell
            // traces into the result (a union merges them, which decides its
            // cell counts), so their operands are always evaluated traced.
            Node::Intersect(a, b) => {
                let left = self.eval_depth(a, depth + 1, true)?;
                let right = self.eval_depth(b, depth + 1, true)?;
                self.eval_intersect(left, right)
            }
            Node::Union(a, b) => {
                let left = self.eval_depth(a, depth + 1, true)?;
                let right = self.eval_depth(b, depth + 1, true)?;
                self.eval_union(left, right)
            }
            Node::Aggregate { op, sub } => {
                let inner = self.eval_depth(sub, depth + 1, false)?;
                self.eval_aggregate(op, &inner)
            }
            Node::SuperlativeRecords {
                op,
                records,
                column,
            } => {
                let column_idx = self.column(column)?;
                let records = self.eval_records("superlative", records, depth)?;
                Ok(Den::Records(
                    self.superlative_records(op, &records, column_idx),
                ))
            }
            Node::RecordIndexSuperlative { op, records } => {
                let records = self.eval_records("index superlative", records, depth)?;
                let chosen = match op {
                    SuperlativeOp::Argmax => records.last(),
                    SuperlativeOp::Argmin => records.first(),
                };
                Ok(Den::Records(chosen.into_iter().copied().collect()))
            }
            Node::MostCommonValue { op, values, column } => {
                let column_idx = self.column(column)?;
                let values = self.eval_depth(values, depth + 1, false)?;
                self.eval_most_common(op, &values, column_idx)
            }
            Node::CompareValues {
                op,
                values,
                key_column,
                value_column,
            } => {
                let key_idx = self.column(key_column)?;
                let value_idx = self.column(value_column)?;
                let values = self.eval_depth(values, depth + 1, false)?;
                self.eval_compare_values(op, &values, key_idx, value_idx)
            }
            Node::Sub(a, b) => {
                let left = self.eval_depth(a, depth + 1, false)?;
                let right = self.eval_depth(b, depth + 1, false)?;
                let left = self.expect_number("difference", &left)?;
                let right = self.expect_number("difference", &right)?;
                Ok(Den::Number(left - right))
            }
        }
    }

    /// The table column an interned column name resolves to.
    fn column(&self, column: ColumnId) -> Result<usize> {
        self.columns.borrow()[column.index()].ok_or_else(|| {
            DcsError::UnknownColumn(self.arena.borrow().column_name(column).to_string())
        })
    }

    /// A constant denotes the set of table cells holding that value (across
    /// all columns); if the value does not appear in the table it still
    /// denotes itself, untraced.
    fn eval_const(&self, value: &Value) -> Den {
        let mut cells = Vec::new();
        for column in 0..self.table.num_columns() {
            cells.extend(self.kb.matching_cells(column, value));
        }
        cells.sort_unstable();
        Den::Values(vec![TracedValue {
            value: value.clone(),
            cells,
        }])
    }

    fn eval_join(&self, column: usize, values: &Den) -> Result<Den> {
        let mut records: Vec<RecordIdx> = match values {
            Den::Number(n) => self.kb.join(column, &Value::Num(*n)).to_vec(),
            Den::Records(_) => {
                return Err(DcsError::TypeMismatch {
                    operator: "join",
                    expected: "values",
                    found: "records",
                })
            }
            values => values
                .counted()
                .flat_map(|(value, _)| self.kb.join(column, value))
                .copied()
                .collect(),
        };
        records.sort_unstable();
        records.dedup();
        Ok(Den::Records(records.into()))
    }

    /// Evaluate the record-denoting operand `formula` of `operator`, sharing
    /// its record set with the memo.
    fn eval_records(
        &self,
        operator: &'static str,
        formula: FormulaId,
        depth: usize,
    ) -> Result<Records> {
        match self.eval_depth(formula, depth + 1, false)? {
            Den::Records(records) => Ok(records),
            other => Err(DcsError::TypeMismatch {
                operator,
                expected: "records",
                found: other.kind(),
            }),
        }
    }

    /// The distinct values of `column` over `records` in first-appearance
    /// order, each with its cell count, and whether no two groups hold
    /// equal values; `on_cell(group, record)` sees every cell. The one
    /// place projections decide which cells hold the same value: on an
    /// exact column ([`wtq_table::ColumnIndex::is_exact`]) the index's class
    /// ids, read per cell with no hashing and one `Value` built per group;
    /// elsewhere `Value`'s hash and (tolerant, intransitive) equality, as
    /// the index's classes use.
    fn group_column(
        &self,
        column: usize,
        records: &[RecordIdx],
        mut on_cell: impl FnMut(usize, RecordIdx),
    ) -> (Vec<(Value, usize)>, bool) {
        let mut groups: Vec<(Value, usize)> = Vec::new();
        let index = self.index().column(column);
        if !index.is_exact() {
            let mut position: HashMap<Value, usize> = HashMap::new();
            for &record in records {
                let Some(value) = self.table.value_at(record, column) else {
                    continue;
                };
                let group = match position.get(&value) {
                    Some(&group) => group,
                    None => {
                        position.insert(value.clone(), groups.len());
                        groups.push((value, 0));
                        groups.len() - 1
                    }
                };
                groups[group].1 += 1;
                on_cell(group, record);
            }
            return (groups, false);
        }
        let classes = index.classes();
        let mut group_of = self.group_of_class.borrow_mut();
        if group_of.len() < index.num_distinct() {
            group_of.resize(index.num_distinct(), NO_GROUP);
        }
        for &record in records {
            let slot = &mut group_of[classes[record] as usize];
            if *slot == NO_GROUP {
                *slot = u32::try_from(groups.len()).expect("groups fit in u32");
                let value = self
                    .table
                    .value_at(record, column)
                    .expect("record in range");
                groups.push((value, 0));
            }
            let group = *slot as usize;
            groups[group].1 += 1;
            on_cell(group, record);
        }
        for &record in records {
            group_of[classes[record] as usize] = NO_GROUP;
        }
        (groups, true)
    }

    /// The traced projection of `column` over `records`.
    fn project_column(&self, column: usize, records: &[RecordIdx]) -> Den {
        let mut cells: Vec<Vec<CellRef>> = Vec::new();
        let (groups, _) = self.group_column(column, records, |group, record| {
            if group == cells.len() {
                cells.push(Vec::new());
            }
            cells[group].push(CellRef::new(record, column));
        });
        Den::Values(
            groups
                .into_iter()
                .zip(cells)
                .map(|((value, _), cells)| TracedValue { value, cells })
                .collect(),
        )
    }

    fn expect_number(&self, operator: &'static str, denotation: &Den) -> Result<f64> {
        denotation.as_single_number().ok_or(match denotation {
            Den::Values(_) | Den::Groups { .. } => DcsError::Cardinality {
                operator,
                expected: "a single numeric value",
                got: denotation.len(),
            },
            other => DcsError::TypeMismatch {
                operator,
                expected: "a number",
                found: other.kind(),
            },
        })
    }

    fn eval_intersect(&self, left: Den, right: Den) -> Result<Den> {
        match (left, right) {
            (Den::Records(a), Den::Records(b)) => Ok(Den::Records(
                a.iter()
                    .copied()
                    .filter(|record| b.binary_search(record).is_ok())
                    .collect(),
            )),
            (Den::Values(a), Den::Values(b)) => {
                let present: std::collections::HashSet<&Value> =
                    b.iter().map(|tv| &tv.value).collect();
                let out = a
                    .into_iter()
                    .filter(|tv| present.contains(&tv.value))
                    .collect();
                Ok(Den::Values(out))
            }
            (left, right) => Err(DcsError::TypeMismatch {
                operator: "intersection",
                expected: "two record sets or two value sets",
                found: if matches!(left, Den::Number(_)) {
                    left.kind()
                } else {
                    right.kind()
                },
            }),
        }
    }

    fn eval_union(&self, left: Den, right: Den) -> Result<Den> {
        match (left, right) {
            (Den::Records(a), Den::Records(b)) => {
                let mut records = [&a[..], &b[..]].concat();
                records.sort_unstable();
                records.dedup();
                Ok(Den::Records(records.into()))
            }
            (Den::Values(mut a), Den::Values(b)) => {
                let mut position: HashMap<Value, usize> = a
                    .iter()
                    .enumerate()
                    .map(|(i, tv)| (tv.value.clone(), i))
                    .collect();
                for tv in b {
                    if let Some(&at) = position.get(&tv.value) {
                        let existing = &mut a[at];
                        existing.cells.extend(tv.cells);
                        existing.cells.sort_unstable();
                        existing.cells.dedup();
                    } else {
                        position.insert(tv.value.clone(), a.len());
                        a.push(tv);
                    }
                }
                Ok(Den::Values(a))
            }
            (left, right) => Err(DcsError::TypeMismatch {
                operator: "union",
                expected: "two record sets or two value sets",
                found: if matches!(left, Den::Number(_)) {
                    left.kind()
                } else {
                    right.kind()
                },
            }),
        }
    }

    fn eval_aggregate(&self, op: AggregateOp, inner: &Den) -> Result<Den> {
        if op == AggregateOp::Count {
            return Ok(Den::Number(match inner {
                Den::Records(r) => r.len() as f64,
                Den::Number(_) => 1.0,
                values => values
                    .counted()
                    .map(|(_, cells)| cells.max(1))
                    .sum::<usize>() as f64,
            }));
        }
        // One pass over the counted values, each cell's number folded in
        // the order a per-cell vector would hold it; a sum starts at -0.0,
        // as std's `Sum` for `f64` does, so results are bit-identical.
        let mut result = match op {
            AggregateOp::Max => f64::NEG_INFINITY,
            AggregateOp::Min => f64::INFINITY,
            _ => -0.0,
        };
        let mut cells = 0usize;
        match inner {
            Den::Number(n) => {
                result = fold_cells(op, result, *n, 1);
                cells = 1;
            }
            Den::Records(_) => {
                return Err(DcsError::TypeMismatch {
                    operator: op.name(),
                    expected: "values",
                    found: "records",
                })
            }
            values => {
                for (value, count) in values.counted() {
                    // Count each cell occurrence once so that sums over
                    // repeated values match the SQL semantics.
                    let number = value.as_number().ok_or_else(|| DcsError::NonNumeric {
                        operator: op.name(),
                        value: value.to_string(),
                    })?;
                    result = fold_cells(op, result, number, count.max(1));
                    cells += count.max(1);
                }
            }
        }
        if cells == 0 {
            return Err(DcsError::Cardinality {
                operator: op.name(),
                expected: "a non-empty value set",
                got: 0,
            });
        }
        Ok(Den::Number(match op {
            AggregateOp::Avg => result / cells as f64,
            _ => result,
        }))
    }

    /// The best (Ord-extreme) value of `column` among `records`. Walks the
    /// index's value-sorted permutation from the appropriate end when the
    /// record set is dense in the table (first member hit = extreme value);
    /// falls back to the direct scan of the record set when it is sparse or
    /// when the column has no consistent value order (NaN cells).
    fn superlative_best(
        &self,
        op: SuperlativeOp,
        records: &[RecordIdx],
        column: usize,
    ) -> Option<Value> {
        if records.is_empty() {
            return None;
        }
        if let Some(order) = self.index().value_order(self.table, column) {
            // Expected walk length is |table| / |records|; only walk when the
            // set is dense enough that the walk beats the O(|records|) scan.
            if records.len() * 4 >= order.len() {
                let member = |record: &&RecordIdx| records.binary_search(*record).is_ok();
                let found = match op {
                    SuperlativeOp::Argmax => order.iter().rev().find(member),
                    SuperlativeOp::Argmin => order.iter().find(member),
                };
                return found.and_then(|&r| self.table.value_at(r, column));
            }
        }
        let mut best: Option<Value> = None;
        for &record in records {
            let Some(value) = self.table.value_at(record, column) else {
                continue;
            };
            let better = match (&best, op) {
                (None, _) => true,
                (Some(current), SuperlativeOp::Argmax) => &value > current,
                (Some(current), SuperlativeOp::Argmin) => &value < current,
            };
            if better {
                best = Some(value);
            }
        }
        best
    }

    fn superlative_records(
        &self,
        op: SuperlativeOp,
        records: &[RecordIdx],
        column: usize,
    ) -> Records {
        let Some(best) = self.superlative_best(op, records, column) else {
            return Records::default();
        };
        records
            .iter()
            .copied()
            .filter(|&record| self.table.eq_at(record, column, &best))
            .collect()
    }

    /// The type check shared by the value-level superlatives.
    fn expect_values(&self, operator: &'static str, values: &Den) -> Result<()> {
        match values {
            Den::Values(_) | Den::Groups { .. } => Ok(()),
            other => Err(DcsError::TypeMismatch {
                operator,
                expected: "values",
                found: other.kind(),
            }),
        }
    }

    fn eval_most_common(&self, op: SuperlativeOp, values: &Den, column: usize) -> Result<Den> {
        self.expect_values("most_common", values)?;
        let counts: Vec<usize> = values
            .counted()
            .map(|(value, _)| self.kb.join(column, value).len())
            .collect();
        let best = match op {
            SuperlativeOp::Argmax => counts.iter().copied().max().unwrap_or(0),
            SuperlativeOp::Argmin => counts.iter().copied().min().unwrap_or(0),
        };
        let out: Vec<TracedValue> = values
            .counted()
            .zip(counts)
            .filter(|(_, count)| *count == best)
            .map(|((value, _), _)| TracedValue {
                value: value.clone(),
                // Trace the winner to its occurrences in the counting column.
                cells: self.kb.matching_cells(column, value),
            })
            .collect();
        Ok(Den::Values(out))
    }

    fn eval_compare_values(
        &self,
        op: SuperlativeOp,
        values: &Den,
        key_column: usize,
        value_column: usize,
    ) -> Result<Den> {
        self.expect_values("compare", values)?;
        // Rows whose value_column cell is one of the candidate values.
        let mut rows: Vec<RecordIdx> = values
            .counted()
            .flat_map(|(value, _)| self.kb.join(value_column, value))
            .copied()
            .collect();
        rows.sort_unstable();
        rows.dedup();
        // Best key among those rows.
        let Some(best) = self.superlative_best(op, &rows, key_column) else {
            return Ok(Den::Values(Vec::new()));
        };
        // The candidate values of the rows achieving the best key.
        rows.retain(|&record| self.table.eq_at(record, key_column, &best));
        Ok(self.project_column(value_column, &rows))
    }
}

/// Fold `number`, held by `cells` cells, into the running result of
/// aggregate `op` (not a count): one step per cell.
fn fold_cells(op: AggregateOp, mut result: f64, number: f64, cells: usize) -> f64 {
    for _ in 0..cells {
        result = match op {
            AggregateOp::Max => result.max(number),
            AggregateOp::Min => result.min(number),
            _ => result + number,
        };
    }
    result
}

/// Evaluate `formula` against `table` (convenience wrapper that builds an
/// [`Evaluator`] each call; reuse an `Evaluator` when running many formulas
/// over the same table).
pub fn eval(formula: &Formula, table: &Table) -> Result<Denotation> {
    Evaluator::new(table).eval(formula)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AggregateOp, CompareOp, Formula, SuperlativeOp};
    use wtq_table::samples;

    fn values_of(denotation: &Denotation) -> Vec<String> {
        denotation.values().iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn join_selects_records() {
        // Country.Greece over the Figure 1 table.
        let table = samples::olympics();
        let q = Formula::join_str("Country", "Greece");
        let d = eval(&q, &table).unwrap();
        assert_eq!(
            d.records().unwrap().iter().copied().collect::<Vec<_>>(),
            vec![0, 5]
        );
    }

    #[test]
    fn column_values_projects() {
        // R[Year].Country.Greece -> {1896, 2004}
        let table = samples::olympics();
        let q = Formula::column_values("Year", Formula::join_str("Country", "Greece"));
        let d = eval(&q, &table).unwrap();
        assert_eq!(values_of(&d), vec!["1896", "2004"]);
        assert_eq!(d.traced_cells().len(), 2);
    }

    #[test]
    fn figure_one_query_returns_2004() {
        // max(R[Year].Country.Greece) = 2004
        let table = samples::olympics();
        let q = Formula::aggregate(
            AggregateOp::Max,
            Formula::column_values("Year", Formula::join_str("Country", "Greece")),
        );
        assert_eq!(eval(&q, &table).unwrap(), Denotation::Number(2004.0));
    }

    #[test]
    fn example_3_1_city_of_earliest_olympics() {
        // R[City].argmin(Rows, Year) = Athens
        let table = samples::olympics();
        let q = Formula::column_values(
            "City",
            Formula::SuperlativeRecords {
                op: SuperlativeOp::Argmin,
                records: Box::new(Formula::AllRecords),
                column: "Year".into(),
            },
        );
        assert_eq!(values_of(&eval(&q, &table).unwrap()), vec!["Athens"]);
    }

    #[test]
    fn count_aggregate_counts_records() {
        // count(City.Athens) = 2
        let table = samples::olympics();
        let q = Formula::aggregate(AggregateOp::Count, Formula::join_str("City", "Athens"));
        assert_eq!(eval(&q, &table).unwrap(), Denotation::Number(2.0));
    }

    #[test]
    fn example_5_2_difference_of_totals() {
        // sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga) = 110
        let table = samples::medals();
        let q = Formula::Sub(
            Box::new(Formula::column_values(
                "Total",
                Formula::join_str("Nation", "Fiji"),
            )),
            Box::new(Formula::column_values(
                "Total",
                Formula::join_str("Nation", "Tonga"),
            )),
        );
        assert_eq!(eval(&q, &table).unwrap(), Denotation::Number(110.0));
    }

    #[test]
    fn intersection_of_records() {
        // City.London ⊓ Country.UK
        let table = samples::olympics();
        let q = Formula::Intersect(
            Box::new(Formula::join_str("City", "London")),
            Box::new(Formula::join_str("Country", "UK")),
        );
        let d = eval(&q, &table).unwrap();
        assert_eq!(d.records().unwrap().len(), 2);
    }

    #[test]
    fn union_of_values() {
        // R[City].(Country.Greece or Country.China)
        let table = samples::olympics();
        let q = Formula::column_values(
            "City",
            Formula::Union(
                Box::new(Formula::join_str("Country", "Greece")),
                Box::new(Formula::join_str("Country", "China")),
            ),
        );
        assert_eq!(
            values_of(&eval(&q, &table).unwrap()),
            vec!["Athens", "Beijing"]
        );
    }

    #[test]
    fn prev_and_next_shift_records() {
        let table = samples::olympics();
        // Values of City right above rows where City is London (Table 14).
        let q = Formula::column_values(
            "City",
            Formula::Prev(Box::new(Formula::join_str("City", "London"))),
        );
        let d = eval(&q, &table).unwrap();
        assert_eq!(values_of(&d), vec!["St. Louis", "Beijing"]);
        // Values of City right below rows where City is Athens (Table 15).
        let q = Formula::column_values(
            "City",
            Formula::Next(Box::new(Formula::join_str("City", "Athens"))),
        );
        let d = eval(&q, &table).unwrap();
        assert_eq!(values_of(&d), vec!["Paris", "Beijing"]);
    }

    #[test]
    fn prev_of_first_record_is_empty() {
        let table = samples::olympics();
        let q = Formula::Prev(Box::new(Formula::join_str("Year", "1896")));
        assert!(eval(&q, &table).unwrap().is_empty());
    }

    #[test]
    fn compare_join_matches_figure_4() {
        // rows where Games > 4 in the squad table: Andy Egli (6), Heinz
        // Hermann (6), Roger Wehrli (6), Lucien Favre (5).
        let table = samples::squad();
        let q = Formula::CompareJoin {
            column: "Games".into(),
            op: CompareOp::Gt,
            value: Box::new(Formula::Const(Value::num(4.0))),
        };
        let d = eval(&q, &table).unwrap();
        assert_eq!(d.records().unwrap().len(), 4);
    }

    #[test]
    fn compare_join_equivalent_range_formulation() {
        // "at least 5 and also less than 17" denotes the same rows (see §5.2).
        let table = samples::squad();
        let q = Formula::Intersect(
            Box::new(Formula::CompareJoin {
                column: "Games".into(),
                op: CompareOp::Geq,
                value: Box::new(Formula::Const(Value::num(5.0))),
            }),
            Box::new(Formula::CompareJoin {
                column: "Games".into(),
                op: CompareOp::Lt,
                value: Box::new(Formula::Const(Value::num(17.0))),
            }),
        );
        let gt4 = Formula::CompareJoin {
            column: "Games".into(),
            op: CompareOp::Gt,
            value: Box::new(Formula::Const(Value::num(4.0))),
        };
        assert_eq!(eval(&q, &table).unwrap(), eval(&gt4, &table).unwrap());
    }

    #[test]
    fn record_index_superlative_selects_last_row() {
        // "last year the team was in the USL A-League" = 2004 (Figure 8).
        let table = samples::usl_league();
        let q = Formula::column_values(
            "Year",
            Formula::RecordIndexSuperlative {
                op: SuperlativeOp::Argmax,
                records: Box::new(Formula::join_str("League", "USL A-League")),
            },
        );
        assert_eq!(values_of(&eval(&q, &table).unwrap()), vec!["2004"]);
    }

    #[test]
    fn most_common_value() {
        // The value among {Athens, London} appearing most often in City.
        let table = samples::olympics();
        let q = Formula::MostCommonValue {
            op: SuperlativeOp::Argmax,
            values: Box::new(Formula::Union(
                Box::new(Formula::Const(Value::str("Athens"))),
                Box::new(Formula::Const(Value::str("London"))),
            )),
            column: "City".into(),
        };
        let d = eval(&q, &table).unwrap();
        // Athens and London both appear twice -> tie keeps both.
        assert_eq!(values_of(&d), vec!["Athens", "London"]);
    }

    #[test]
    fn most_common_value_over_whole_column() {
        // Table 22: the value that appears the most in column Lake.
        let table = samples::shipwrecks();
        let q = Formula::MostCommonValue {
            op: SuperlativeOp::Argmax,
            values: Box::new(Formula::column_values("Lake", Formula::AllRecords)),
            column: "Lake".into(),
        };
        assert_eq!(values_of(&eval(&q, &table).unwrap()), vec!["Lake Huron"]);
    }

    #[test]
    fn compare_values_figure_5() {
        // between London or Beijing, who has the highest value of Year.
        let table = samples::olympics();
        let q = Formula::CompareValues {
            op: SuperlativeOp::Argmax,
            values: Box::new(Formula::Union(
                Box::new(Formula::Const(Value::str("London"))),
                Box::new(Formula::Const(Value::str("Beijing"))),
            )),
            key_column: "Year".into(),
            value_column: "City".into(),
        };
        assert_eq!(values_of(&eval(&q, &table).unwrap()), vec!["London"]);
    }

    #[test]
    fn difference_of_occurrences() {
        // Figure 9 / Table 18 pattern: count(Lake."Lake Huron") - count(Lake."Lake Erie").
        let table = samples::shipwrecks();
        let q = Formula::Sub(
            Box::new(Formula::aggregate(
                AggregateOp::Count,
                Formula::join_str("Lake", "Lake Huron"),
            )),
            Box::new(Formula::aggregate(
                AggregateOp::Count,
                Formula::join_str("Lake", "Lake Erie"),
            )),
        );
        assert_eq!(eval(&q, &table).unwrap(), Denotation::Number(3.0));
    }

    #[test]
    fn sum_and_avg_aggregate() {
        let table = samples::medals();
        let q = Formula::aggregate(
            AggregateOp::Sum,
            Formula::column_values("Gold", Formula::AllRecords),
        );
        assert_eq!(eval(&q, &table).unwrap(), Denotation::Number(298.0));
        let q = Formula::aggregate(
            AggregateOp::Avg,
            Formula::column_values("Total", Formula::join_str("Nation", "Fiji")),
        );
        assert_eq!(eval(&q, &table).unwrap(), Denotation::Number(130.0));
    }

    #[test]
    fn sum_counts_repeated_values_once_per_cell() {
        // Two records share Games = 6 twice; summing Games over DF+MF rows
        // must count each cell, not each distinct value.
        let table = samples::squad();
        let q = Formula::aggregate(
            AggregateOp::Sum,
            Formula::column_values("Games", Formula::AllRecords),
        );
        assert_eq!(eval(&q, &table).unwrap(), Denotation::Number(38.0));
    }

    #[test]
    fn aggregate_over_strings_is_an_error() {
        let table = samples::olympics();
        let q = Formula::aggregate(
            AggregateOp::Sum,
            Formula::column_values("City", Formula::AllRecords),
        );
        assert!(matches!(eval(&q, &table), Err(DcsError::NonNumeric { .. })));
    }

    #[test]
    fn unknown_column_is_an_error() {
        let table = samples::olympics();
        let q = Formula::join_str("Continent", "Europe");
        assert_eq!(
            eval(&q, &table).unwrap_err(),
            DcsError::UnknownColumn("Continent".into())
        );
    }

    #[test]
    fn sub_requires_single_values() {
        let table = samples::olympics();
        // R[Year].Country.Greece denotes two values -> not a single number.
        let q = Formula::Sub(
            Box::new(Formula::column_values(
                "Year",
                Formula::join_str("Country", "Greece"),
            )),
            Box::new(Formula::Const(Value::num(1.0))),
        );
        assert!(matches!(
            eval(&q, &table),
            Err(DcsError::Cardinality { .. })
        ));
    }

    #[test]
    fn type_mismatches_are_reported() {
        let table = samples::olympics();
        // Aggregating records with max.
        let q = Formula::aggregate(AggregateOp::Max, Formula::AllRecords);
        assert!(matches!(
            eval(&q, &table),
            Err(DcsError::TypeMismatch { .. })
        ));
        // Intersecting a number with records.
        let q = Formula::Intersect(
            Box::new(Formula::aggregate(AggregateOp::Count, Formula::AllRecords)),
            Box::new(Formula::AllRecords),
        );
        assert!(matches!(
            eval(&q, &table),
            Err(DcsError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn empty_superlative_is_empty_not_error() {
        let table = samples::olympics();
        let q = Formula::SuperlativeRecords {
            op: SuperlativeOp::Argmax,
            records: Box::new(Formula::join_str("Country", "Atlantis")),
            column: "Year".into(),
        };
        assert!(eval(&q, &table).unwrap().is_empty());
    }

    #[test]
    fn superlative_keeps_ties() {
        let table = samples::squad();
        let q = Formula::SuperlativeRecords {
            op: SuperlativeOp::Argmax,
            records: Box::new(Formula::AllRecords),
            column: "Games".into(),
        };
        // Three players played 6 games.
        assert_eq!(eval(&q, &table).unwrap().records().unwrap().len(), 3);
    }

    #[test]
    fn max_eval_depth_guard() {
        let table = samples::olympics();
        let mut q = Formula::join_str("Country", "Greece");
        for _ in 0..(MAX_EVAL_DEPTH + 2) {
            q = Formula::Prev(Box::new(q));
        }
        assert!(matches!(eval(&q, &table), Err(DcsError::DepthExceeded(_))));
    }

    #[test]
    fn cache_hit_does_not_mask_depth_guard() {
        // The shallow branch caches B; the deep branch reaches B at a depth
        // where a fresh recursion would exceed MAX_EVAL_DEPTH. The cache hit
        // must report DepthExceeded, as the scan reference does
        // (`differential_exec` compares the two on this formula).
        let table = samples::olympics();
        let mut b = Formula::join_str("Country", "Greece");
        for _ in 0..10 {
            b = Formula::Prev(Box::new(b));
        }
        let mut deep = b.clone();
        for _ in 0..(MAX_EVAL_DEPTH - 4) {
            deep = Formula::Prev(Box::new(deep));
        }
        let q = Formula::Intersect(Box::new(b), Box::new(deep));
        let session = Evaluator::new(&table);
        assert!(matches!(session.eval(&q), Err(DcsError::DepthExceeded(_))));
    }

    #[test]
    fn session_caches_shared_record_bases() {
        let table = samples::olympics();
        let evaluator = Evaluator::new(&table);
        let base = Formula::join_str("Country", "Greece");
        let first = evaluator
            .eval(&Formula::column_values("Year", base.clone()))
            .unwrap();
        let (hits, misses) = evaluator.cache_stats();
        assert_eq!((hits, misses), (0, 1));
        // Re-using the base inside a different composite hits the cache.
        let second = evaluator
            .eval(&Formula::aggregate(
                AggregateOp::Max,
                Formula::column_values("Year", base.clone()),
            ))
            .unwrap();
        let (hits, _) = evaluator.cache_stats();
        assert_eq!(hits, 1);
        assert_eq!(first.values(), {
            let Denotation::Number(n) = second else {
                panic!("expected a number")
            };
            assert_eq!(n, 2004.0);
            evaluator
                .eval(&Formula::column_values("Year", base))
                .unwrap()
                .values()
        });
    }

    #[test]
    fn cached_and_fresh_sessions_agree() {
        let table = samples::shipwrecks();
        let session = Evaluator::new(&table);
        let q = Formula::MostCommonValue {
            op: SuperlativeOp::Argmax,
            values: Box::new(Formula::column_values("Lake", Formula::AllRecords)),
            column: "Lake".into(),
        };
        let warm = session.eval(&q).unwrap();
        let warm_again = session.eval(&q).unwrap();
        assert_eq!(warm, warm_again);
        assert_eq!(warm, eval(&q, &table).unwrap());
    }

    #[test]
    fn session_past_the_arena_cap_empties_it_with_the_memo() {
        let table = samples::squad();
        let session = Evaluator::new(&table);
        let games_above = |n: usize| Formula::CompareJoin {
            column: "Games".into(),
            op: CompareOp::Gt,
            value: Box::new(Formula::Const(Value::num(n as f64))),
        };
        // Each threshold interns two nodes: the constant and the comparison.
        let calls = FORMULA_ARENA_CAP / 2 + 100;
        let mut peak = 0;
        for n in 0..calls {
            let answer = session.answer(&games_above(n % 50 + 1000 * (n / 50)));
            if n % 997 == 0 {
                assert_eq!(
                    answer,
                    Evaluator::new(&table)
                        .eval(&games_above(n % 50 + 1000 * (n / 50)))
                        .map(|d| Answer::from_denotation(&d))
                );
            }
            peak = peak.max(session.arena().len());
        }
        // The arena outgrew the cap by at most one call's nodes, then
        // started over.
        assert!(peak <= FORMULA_ARENA_CAP + 2, "peak {peak}");
        assert!(session.arena().len() < FORMULA_ARENA_CAP / 2);
        // Every call was a distinct formula: all misses. The first formula's
        // memo entry went with the arena, so asking again misses again.
        assert_eq!(session.cache_stats(), (0, calls as u64));
        session.answer(&games_above(0)).unwrap();
        assert_eq!(session.cache_stats(), (0, calls as u64 + 1));
        let last = calls - 1;
        session
            .answer(&games_above(last % 50 + 1000 * (last / 50)))
            .unwrap();
        assert_eq!(session.cache_stats(), (1, calls as u64 + 1));
    }

    #[test]
    fn interned_and_tree_evaluation_agree() {
        let table = samples::olympics();
        let session = Evaluator::new(&table);
        let formula = Formula::aggregate(
            AggregateOp::Max,
            Formula::column_values("Year", Formula::join_str("Country", "Greece")),
        );
        let id = session.intern(&formula);
        assert_eq!(session.answer_id(id), Ok(Answer::number(2004.0)));
        assert_eq!(session.arena().materialize(id), formula);
        assert_eq!(session.eval(&formula), eval(&formula, &table));
    }

    #[test]
    fn compare_records_matches_compare_semantics() {
        let table = samples::squad();
        let evaluator = Evaluator::new(&table);
        let games = table.column_index("Games").unwrap();
        for op in [
            CompareOp::Lt,
            CompareOp::Leq,
            CompareOp::Gt,
            CompareOp::Geq,
            CompareOp::Neq,
        ] {
            for threshold in [-1.0, 0.0, 4.0, 6.0, 17.0, f64::NAN] {
                let indexed = compare_records(evaluator.index(), games, op, threshold);
                let scanned: BTreeSet<RecordIdx> = table
                    .record_indices()
                    .filter(|&r| {
                        table
                            .value_at(r, games)
                            .and_then(|v| v.as_number())
                            .map(|n| op.compare(n, threshold))
                            .unwrap_or(false)
                    })
                    .collect();
                assert_eq!(indexed, scanned, "op {op:?} threshold {threshold}");
            }
        }
    }
}
