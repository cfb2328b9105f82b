//! A hash-consed formula arena.
//!
//! The semantic parser builds hundreds of candidate formulas per question,
//! most of them sharing sub-formulas (`Country.Greece` under a dozen
//! projections and aggregates). As [`Formula`] trees they are deep clones
//! with a `String` per column name, hashed whole for deduplication and for
//! the evaluator memo. In a [`FormulaArena`] a formula is a [`FormulaId`]:
//! each distinct node is stored once, as a flat, `Copy` [`Node`] whose
//! operands are ids, whose columns are interned [`ColumnId`]s and whose
//! constant is an interned [`ConstId`]. Structurally equal formulas intern
//! to the same id, so deduplication is id equality, and every node records
//! its size, depth and static type when it is added, so none of them needs
//! a walk.
//!
//! Constants are interned by exact spelling (strings byte for byte, numbers
//! by bits), not by [`Value`]'s tolerant equality, so a node renders back
//! exactly the formula that was interned.
//!
//! An arena only grows. Its owner bounds it: [`crate::Evaluator`] empties
//! its arena, and the memo keyed by the arena's ids, when a new unit of
//! work starts after the arena has passed [`FORMULA_ARENA_CAP`] nodes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use wtq_table::{Date, Value};

use crate::ast::{AggregateOp, CompareOp, Formula, SuperlativeOp};
use crate::error::DcsError;
use crate::typecheck::{FormulaType, Rule};

/// Number of nodes past which an evaluator session empties its arena (and
/// its memo) at the start of its next unit of work. A parse adds a few
/// thousand nodes at most; the cap only bounds memory for long-lived or
/// adversarial sessions.
pub const FORMULA_ARENA_CAP: usize = 16_384;

/// An interned formula: an index into its [`FormulaArena`]. Equal ids mean
/// equal formulas; an id is meaningful only in the arena that issued it,
/// until that arena is emptied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FormulaId(u32);

impl FormulaId {
    /// The id's dense index (ids are issued as 0, 1, 2, … in each arena).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned column name (exact spelling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColumnId(u32);

impl ColumnId {
    /// The id's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned constant (exact spelling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConstId(u32);

impl ConstId {
    /// The id's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One formula node, with its operands interned: the arena form of a
/// [`Formula`] variant (see there for each operator's meaning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// [`Formula::Const`].
    Const(ConstId),
    /// [`Formula::AllRecords`].
    AllRecords,
    /// [`Formula::Join`].
    Join {
        /// Column header acting as the binary relation.
        column: ColumnId,
        /// Value-denoting operand.
        values: FormulaId,
    },
    /// [`Formula::CompareJoin`].
    CompareJoin {
        /// Column whose values are compared.
        column: ColumnId,
        /// Comparison operator.
        op: CompareOp,
        /// Single-number operand.
        value: FormulaId,
    },
    /// [`Formula::ColumnValues`].
    ColumnValues {
        /// Column to project.
        column: ColumnId,
        /// Record-denoting operand.
        records: FormulaId,
    },
    /// [`Formula::Prev`].
    Prev(FormulaId),
    /// [`Formula::Next`].
    Next(FormulaId),
    /// [`Formula::Intersect`].
    Intersect(FormulaId, FormulaId),
    /// [`Formula::Union`].
    Union(FormulaId, FormulaId),
    /// [`Formula::Aggregate`].
    Aggregate {
        /// Which aggregate to apply.
        op: AggregateOp,
        /// Operand being aggregated.
        sub: FormulaId,
    },
    /// [`Formula::SuperlativeRecords`].
    SuperlativeRecords {
        /// Direction of the superlative.
        op: SuperlativeOp,
        /// Record-denoting operand.
        records: FormulaId,
        /// Column supplying the ranking key.
        column: ColumnId,
    },
    /// [`Formula::RecordIndexSuperlative`].
    RecordIndexSuperlative {
        /// Direction (`Argmax` = last row, `Argmin` = first row).
        op: SuperlativeOp,
        /// Record-denoting operand.
        records: FormulaId,
    },
    /// [`Formula::MostCommonValue`].
    MostCommonValue {
        /// Direction (most vs. fewest appearances).
        op: SuperlativeOp,
        /// Candidate values.
        values: FormulaId,
        /// Column in which appearances are counted.
        column: ColumnId,
    },
    /// [`Formula::CompareValues`].
    CompareValues {
        /// Direction of the comparison.
        op: SuperlativeOp,
        /// Candidate values.
        values: FormulaId,
        /// Column providing the ranking key.
        key_column: ColumnId,
        /// Column the candidate values belong to.
        value_column: ColumnId,
    },
    /// [`Formula::Sub`].
    Sub(FormulaId, FormulaId),
}

impl Node {
    /// The operands, left to right, in the first slots: none, one or two.
    pub fn operands(&self) -> [Option<FormulaId>; 2] {
        match *self {
            Node::Const(_) | Node::AllRecords => [None, None],
            Node::Join { values: sub, .. }
            | Node::CompareJoin { value: sub, .. }
            | Node::ColumnValues { records: sub, .. }
            | Node::Prev(sub)
            | Node::Next(sub)
            | Node::Aggregate { sub, .. }
            | Node::SuperlativeRecords { records: sub, .. }
            | Node::RecordIndexSuperlative { records: sub, .. }
            | Node::MostCommonValue { values: sub, .. }
            | Node::CompareValues { values: sub, .. } => [Some(sub), None],
            Node::Intersect(a, b) | Node::Union(a, b) | Node::Sub(a, b) => [Some(a), Some(b)],
        }
    }

    /// The columns the node itself names, in the order
    /// [`Formula::columns_mentioned`] lists them.
    pub fn columns(&self) -> [Option<ColumnId>; 2] {
        match *self {
            Node::Join { column, .. }
            | Node::CompareJoin { column, .. }
            | Node::ColumnValues { column, .. }
            | Node::SuperlativeRecords { column, .. }
            | Node::MostCommonValue { column, .. } => [Some(column), None],
            Node::CompareValues {
                key_column,
                value_column,
                ..
            } => [Some(key_column), Some(value_column)],
            _ => [None, None],
        }
    }

    /// The typing rule of the node's operator.
    fn rule(&self) -> Rule {
        match *self {
            Node::Const(_) => Rule::CONST,
            Node::AllRecords => Rule::ALL_RECORDS,
            Node::Join { .. } => Rule::JOIN,
            Node::CompareJoin { .. } => Rule::COMPARE_JOIN,
            Node::ColumnValues { .. } => Rule::COLUMN_VALUES,
            Node::Prev(_) => Rule::PREV,
            Node::Next(_) => Rule::NEXT,
            Node::Intersect(_, _) => Rule::INTERSECT,
            Node::Union(_, _) => Rule::UNION,
            Node::Aggregate { op, .. } => Rule::Aggregate(op),
            Node::SuperlativeRecords { .. } => Rule::SUPERLATIVE,
            Node::RecordIndexSuperlative { .. } => Rule::INDEX_SUPERLATIVE,
            Node::MostCommonValue { .. } => Rule::MOST_COMMON,
            Node::CompareValues { .. } => Rule::COMPARE_VALUES,
            Node::Sub(_, _) => Rule::Difference,
        }
    }
}

/// A node with what [`FormulaArena::add`] derived from its operands.
#[derive(Debug, Clone, Copy)]
struct Entry {
    node: Node,
    size: u32,
    depth: u32,
    /// `None` when the node is ill-typed.
    formula_type: Option<FormulaType>,
}

/// The multiply-rotate hash of `rustc`'s `FxHasher`, for keys the program
/// makes itself — nodes over ids it issued, and the column names of its
/// catalog's tables — where SipHash's flooding resistance buys nothing.
/// Constants, which come from questions and table cells, keep the default
/// hasher.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        for &byte in words.remainder() {
            self.add(u64::from(byte));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // Hash tables index by the low bits; the multiply leaves its
        // entropy in the high ones.
        self.0.rotate_left(26)
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The next dense index of a table holding `len` entries.
fn next_index(len: usize) -> u32 {
    u32::try_from(len).expect("an arena holds fewer than 2^32 entries")
}

/// A hash-consed store of formula nodes, column names and constants (see
/// the module docs).
#[derive(Debug, Default)]
pub struct FormulaArena {
    entries: Vec<Entry>,
    ids: FxMap<Node, FormulaId>,
    columns: Vec<Box<str>>,
    column_ids: FxMap<Box<str>, ColumnId>,
    constants: Vec<Value>,
    strings: HashMap<Box<str>, ConstId>,
    numbers: HashMap<u64, ConstId>,
    dates: HashMap<Date, ConstId>,
}

impl FormulaArena {
    /// An empty arena.
    pub fn new() -> FormulaArena {
        FormulaArena::default()
    }

    /// Number of distinct nodes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the arena holds no node.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forget every node, column name and constant; every id issued so far
    /// becomes meaningless. Keeps the allocated capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.ids.clear();
        self.columns.clear();
        self.column_ids.clear();
        self.constants.clear();
        self.strings.clear();
        self.numbers.clear();
        self.dates.clear();
    }

    /// Intern a column name (exact spelling).
    pub fn column(&mut self, name: &str) -> ColumnId {
        if let Some(&id) = self.column_ids.get(name) {
            return id;
        }
        let id = ColumnId(next_index(self.columns.len()));
        self.columns.push(name.into());
        self.column_ids.insert(name.into(), id);
        id
    }

    /// Intern a constant (exact spelling: strings byte for byte, numbers by
    /// bits, dates field by field).
    pub fn constant(&mut self, value: &Value) -> ConstId {
        let next = ConstId(next_index(self.constants.len()));
        let id = match value {
            Value::Str(text) => match self.strings.get(text.as_str()) {
                Some(&id) => id,
                None => *self.strings.entry(text.as_str().into()).or_insert(next),
            },
            Value::Num(n) => *self.numbers.entry(n.to_bits()).or_insert(next),
            Value::Date(date) => *self.dates.entry(*date).or_insert(next),
        };
        if id == next {
            self.constants.push(value.clone());
        }
        id
    }

    /// Add a node whose operands are already in this arena, returning the
    /// id of the equal node if there is one. Records the node's size, depth
    /// and static type from its operands'.
    pub fn add(&mut self, node: Node) -> FormulaId {
        if let Some(&id) = self.ids.get(&node) {
            return id;
        }
        let operands = node.operands();
        let (mut size, mut depth) = (1u32, 0u32);
        for operand in operands.into_iter().flatten() {
            let entry = self.entry(operand);
            size = size.saturating_add(entry.size);
            depth = depth.max(entry.depth);
        }
        let formula_type = node
            .rule()
            .apply(|i| {
                operands[i]
                    .and_then(|operand| self.entry(operand).formula_type)
                    .ok_or(DcsError::TypeMismatch {
                        operator: "operand",
                        expected: "a well-typed formula",
                        found: "an ill-typed one",
                    })
            })
            .ok();
        let id = FormulaId(next_index(self.entries.len()));
        self.entries.push(Entry {
            node,
            size,
            depth: depth + 1,
            formula_type,
        });
        self.ids.insert(node, id);
        id
    }

    /// Intern a whole formula, operands first.
    pub fn intern(&mut self, formula: &Formula) -> FormulaId {
        let node = match formula {
            Formula::Const(value) => Node::Const(self.constant(value)),
            Formula::AllRecords => Node::AllRecords,
            Formula::Join { column, values } => Node::Join {
                column: self.column(column),
                values: self.intern(values),
            },
            Formula::CompareJoin { column, op, value } => Node::CompareJoin {
                column: self.column(column),
                op: *op,
                value: self.intern(value),
            },
            Formula::ColumnValues { column, records } => Node::ColumnValues {
                column: self.column(column),
                records: self.intern(records),
            },
            Formula::Prev(sub) => Node::Prev(self.intern(sub)),
            Formula::Next(sub) => Node::Next(self.intern(sub)),
            Formula::Intersect(a, b) => Node::Intersect(self.intern(a), self.intern(b)),
            Formula::Union(a, b) => Node::Union(self.intern(a), self.intern(b)),
            Formula::Aggregate { op, sub } => Node::Aggregate {
                op: *op,
                sub: self.intern(sub),
            },
            Formula::SuperlativeRecords {
                op,
                records,
                column,
            } => Node::SuperlativeRecords {
                op: *op,
                records: self.intern(records),
                column: self.column(column),
            },
            Formula::RecordIndexSuperlative { op, records } => Node::RecordIndexSuperlative {
                op: *op,
                records: self.intern(records),
            },
            Formula::MostCommonValue { op, values, column } => Node::MostCommonValue {
                op: *op,
                values: self.intern(values),
                column: self.column(column),
            },
            Formula::CompareValues {
                op,
                values,
                key_column,
                value_column,
            } => Node::CompareValues {
                op: *op,
                values: self.intern(values),
                key_column: self.column(key_column),
                value_column: self.column(value_column),
            },
            Formula::Sub(a, b) => Node::Sub(self.intern(a), self.intern(b)),
        };
        self.add(node)
    }

    fn entry(&self, id: FormulaId) -> &Entry {
        &self.entries[id.index()]
    }

    /// The node `id` stands for.
    pub fn node(&self, id: FormulaId) -> Node {
        self.entry(id).node
    }

    /// [`Formula::size`] of the formula `id` stands for.
    pub fn size(&self, id: FormulaId) -> usize {
        self.entry(id).size as usize
    }

    /// [`Formula::depth`] of the formula `id` stands for.
    pub fn depth(&self, id: FormulaId) -> usize {
        self.entry(id).depth as usize
    }

    /// The static type of the formula `id` stands for, `None` when
    /// [`typecheck`](crate::typecheck()) rejects it.
    pub fn formula_type(&self, id: FormulaId) -> Option<FormulaType> {
        self.entry(id).formula_type
    }

    /// An interned column name.
    pub fn column_name(&self, column: ColumnId) -> &str {
        &self.columns[column.index()]
    }

    /// Every interned column name, in id order.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|name| &**name)
    }

    /// An interned constant.
    pub fn value(&self, constant: ConstId) -> &Value {
        &self.constants[constant.index()]
    }

    /// The formula `id` stands for, as a tree.
    pub fn materialize(&self, id: FormulaId) -> Formula {
        let column = |column: ColumnId| self.column_name(column).to_string();
        let sub = |id: FormulaId| Box::new(self.materialize(id));
        match self.node(id) {
            Node::Const(constant) => Formula::Const(self.value(constant).clone()),
            Node::AllRecords => Formula::AllRecords,
            Node::Join { column: c, values } => Formula::Join {
                column: column(c),
                values: sub(values),
            },
            Node::CompareJoin {
                column: c,
                op,
                value,
            } => Formula::CompareJoin {
                column: column(c),
                op,
                value: sub(value),
            },
            Node::ColumnValues { column: c, records } => Formula::ColumnValues {
                column: column(c),
                records: sub(records),
            },
            Node::Prev(records) => Formula::Prev(sub(records)),
            Node::Next(records) => Formula::Next(sub(records)),
            Node::Intersect(a, b) => Formula::Intersect(sub(a), sub(b)),
            Node::Union(a, b) => Formula::Union(sub(a), sub(b)),
            Node::Aggregate { op, sub: operand } => Formula::Aggregate {
                op,
                sub: sub(operand),
            },
            Node::SuperlativeRecords {
                op,
                records,
                column: c,
            } => Formula::SuperlativeRecords {
                op,
                records: sub(records),
                column: column(c),
            },
            Node::RecordIndexSuperlative { op, records } => Formula::RecordIndexSuperlative {
                op,
                records: sub(records),
            },
            Node::MostCommonValue {
                op,
                values,
                column: c,
            } => Formula::MostCommonValue {
                op,
                values: sub(values),
                column: column(c),
            },
            Node::CompareValues {
                op,
                values,
                key_column,
                value_column,
            } => Formula::CompareValues {
                op,
                values: sub(values),
                key_column: column(key_column),
                value_column: column(value_column),
            },
            Node::Sub(a, b) => Formula::Sub(sub(a), sub(b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_formula, typecheck};

    const FORMULAS: [&str; 9] = [
        "max(R[Year].Country.Greece)",
        "R[City].argmin(Rows, Year)",
        "sub(count(Lake.\"Lake Huron\"), count(Lake.\"Lake Erie\"))",
        "compare_max((London or Beijing), Year, City)",
        "most_common(R[City].Rows, City)",
        "R[Year].last(League.\"USL A-League\")",
        "count(Games.(> 4))",
        "(count(Rows) and Rows)",
        "R[\"Growth Rate\"].Prev.(City.London and Country.UK)",
    ];

    #[test]
    fn interning_round_trips_and_records_size_depth_and_type() {
        let mut arena = FormulaArena::new();
        for text in FORMULAS {
            let formula = parse_formula(text).unwrap();
            let id = arena.intern(&formula);
            assert_eq!(arena.materialize(id), formula);
            assert_eq!(arena.materialize(id).to_string(), formula.to_string());
            assert_eq!(arena.size(id), formula.size(), "{text}");
            assert_eq!(arena.depth(id), formula.depth(), "{text}");
            assert_eq!(arena.formula_type(id), typecheck(&formula).ok(), "{text}");
        }
    }

    #[test]
    fn equal_formulas_share_one_id_and_shared_operands_one_node() {
        let mut arena = FormulaArena::new();
        let a = arena.intern(&parse_formula("max(R[Year].Country.Greece)").unwrap());
        let nodes = arena.len();
        let b = arena.intern(&parse_formula("max(R[Year].Country.Greece)").unwrap());
        assert_eq!(a, b);
        assert_eq!(arena.len(), nodes);
        // A second aggregate over the same projection adds one node.
        arena.intern(&parse_formula("min(R[Year].Country.Greece)").unwrap());
        assert_eq!(arena.len(), nodes + 1);
    }

    #[test]
    fn constants_and_columns_intern_by_exact_spelling() {
        let mut arena = FormulaArena::new();
        let upper = arena.intern(&parse_formula("Country.Greece").unwrap());
        let lower = arena.intern(&parse_formula("Country.greece").unwrap());
        let column = arena.intern(&parse_formula("country.Greece").unwrap());
        assert_ne!(upper, lower);
        assert_ne!(upper, column);
        assert_eq!(arena.materialize(lower).to_string(), "Country.greece");
        assert_eq!(arena.column_names().count(), 2);
        let number = arena.constant(&Value::num(2004.0));
        assert_ne!(number, arena.constant(&Value::year(2004)));
        assert_eq!(number, arena.constant(&Value::num(2004.0)));
    }

    #[test]
    fn clear_forgets_everything() {
        let mut arena = FormulaArena::new();
        arena.intern(&parse_formula("max(R[Year].Country.Greece)").unwrap());
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.column_names().count(), 0);
        let id = arena.intern(&parse_formula("Rows").unwrap());
        assert_eq!(id.index(), 0);
    }
}
