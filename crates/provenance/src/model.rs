//! The multilevel cell-based provenance chain (Definitions 4.1 and 4.2),
//! held per column.
//!
//! Every output rule of Table 10 yields the cells of some records in one
//! column, or a union or intersection of such sets, and `P_C` is whole
//! columns by definition (Equation 3). So the chain keeps:
//!
//! * `P_O` and `P_E` as a [`CellSet`]: one ascending record list per
//!   column that holds any of their cells;
//! * `P_C` as a [`ColumnSet`]: the mentioned columns and the table's record
//!   count, never a cell each.
//!
//! Both forms are canonical (no empty lists, columns and records ascending,
//! no duplicates), so `==` means "the same cells". Class counts, the §5.3
//! sample and a cell's highlight read per-column sizes and lists.

use std::fmt;

use wtq_dcs::AggregateOp;
use wtq_table::{CellRef, RecordIdx};

/// A non-cell element of a provenance set: the aggregate function or
/// arithmetic operation applied by the query (the `OP` of Equation 1). The
/// paper's `P_O` may contain aggregate functions alongside cells; markers are
/// what the highlight procedure attaches to column headers
/// (`MarkColumnHeader` in Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpMarker {
    /// An aggregate function (`count`, `max`, `min`, `sum`, `avg`).
    Aggregate(AggregateOp),
    /// The arithmetic difference of two values (`sub`).
    Difference,
}

impl OpMarker {
    /// Header label, e.g. `MAX` or `COUNT`, as drawn in Figures 1 and 16.
    pub fn label(self) -> String {
        match self {
            OpMarker::Aggregate(op) => op.name().to_ascii_uppercase(),
            OpMarker::Difference => "DIFF".to_string(),
        }
    }
}

/// A set of cells of one table, held as one record list per column.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct CellSet {
    /// `(column, records)`, ascending by column; every record list is
    /// non-empty, ascending and distinct.
    columns: Vec<(usize, Vec<RecordIdx>)>,
}

impl CellSet {
    /// The empty set.
    pub fn new() -> CellSet {
        CellSet::default()
    }

    /// The cells of `records` (ascending, distinct) in `column`.
    pub fn column(column: usize, records: Vec<RecordIdx>) -> CellSet {
        debug_assert!(records.windows(2).all(|pair| pair[0] < pair[1]));
        let mut set = CellSet::new();
        if !records.is_empty() {
            set.columns.push((column, records));
        }
        set
    }

    /// The set of `cells`, in any order and with repeats.
    pub fn from_cells(cells: impl IntoIterator<Item = CellRef>) -> CellSet {
        let mut cells: Vec<CellRef> = cells.into_iter().collect();
        cells.sort_unstable_by_key(|cell| (cell.column, cell.record));
        cells.dedup();
        let mut set = CellSet::new();
        for cell in cells {
            match set.columns.last_mut() {
                Some((column, records)) if *column == cell.column => records.push(cell.record),
                _ => set.columns.push((cell.column, vec![cell.record])),
            }
        }
        set
    }

    /// The records of the set's cells in `column`, ascending.
    pub fn records(&self, column: usize) -> &[RecordIdx] {
        self.position(column)
            .map_or(&[], |at| self.columns[at].1.as_slice())
    }

    /// Whether `cell` belongs to the set.
    pub fn contains(&self, cell: &CellRef) -> bool {
        self.records(cell.column)
            .binary_search(&cell.record)
            .is_ok()
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.columns.iter().map(|(_, records)| records.len()).sum()
    }

    /// Whether the set holds no cell.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The cells, column by column, each column's in record order.
    pub fn iter(&self) -> impl Iterator<Item = CellRef> + '_ {
        self.columns.iter().flat_map(|(column, records)| {
            records
                .iter()
                .map(move |&record| CellRef::new(record, *column))
        })
    }

    /// Whether every cell of the set belongs to `other`.
    pub fn is_subset(&self, other: &CellSet) -> bool {
        self.columns.iter().all(|(column, records)| {
            let theirs = other.records(*column);
            records
                .iter()
                .all(|record| theirs.binary_search(record).is_ok())
        })
    }

    /// The records holding at least one cell of the set, ascending.
    pub fn record_ids(&self) -> Vec<RecordIdx> {
        let mut records: Vec<RecordIdx> = match self.columns.as_slice() {
            [(_, only)] => return only.clone(),
            columns => columns
                .iter()
                .flat_map(|(_, records)| records.iter().copied())
                .collect(),
        };
        records.sort_unstable();
        records.dedup();
        records
    }

    /// Add every cell of `other`.
    pub(crate) fn union_with(&mut self, other: &CellSet) {
        for (column, theirs) in &other.columns {
            match self.columns.binary_search_by_key(column, |(c, _)| *c) {
                Ok(at) => {
                    let ours = &mut self.columns[at].1;
                    if ours != theirs {
                        ours.extend_from_slice(theirs);
                        ours.sort_unstable();
                        ours.dedup();
                    }
                }
                Err(at) => self.columns.insert(at, (*column, theirs.clone())),
            }
        }
    }

    /// Keep only the cells that also belong to `other`, column by column.
    pub(crate) fn intersect_with(&mut self, other: &CellSet) {
        for (column, records) in &mut self.columns {
            let theirs = other.records(*column);
            records.retain(|record| theirs.binary_search(record).is_ok());
        }
        self.columns.retain(|(_, records)| !records.is_empty());
    }

    /// Keep only the cells of `records` (ascending), in every column.
    pub(crate) fn retain_records(&mut self, keep: &[RecordIdx]) {
        for (_, records) in &mut self.columns {
            records.retain(|record| keep.binary_search(record).is_ok());
        }
        self.columns.retain(|(_, records)| !records.is_empty());
    }

    fn position(&self, column: usize) -> Option<usize> {
        self.columns.binary_search_by_key(&column, |(c, _)| *c).ok()
    }
}

impl fmt::Debug for CellSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Every cell of some columns of a table: `P_C`, kept as the column list
/// and the table's record count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnSet {
    /// The columns, ascending and distinct.
    columns: Vec<usize>,
    num_records: usize,
}

impl ColumnSet {
    /// Every cell of `columns` (in any order, with repeats) in a table of
    /// `num_records` records.
    pub fn new(mut columns: Vec<usize>, num_records: usize) -> ColumnSet {
        columns.sort_unstable();
        columns.dedup();
        ColumnSet {
            columns,
            num_records,
        }
    }

    /// The columns, ascending.
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// Number of records of the table, in each column.
    pub fn num_records(&self) -> usize {
        self.num_records
    }

    /// Whether `cell` belongs to the set.
    pub fn contains(&self, cell: &CellRef) -> bool {
        cell.record < self.num_records && self.columns.binary_search(&cell.column).is_ok()
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.columns.len() * self.num_records
    }

    /// Whether the set holds no cell.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cells, column by column, each column's in record order.
    pub fn iter(&self) -> impl Iterator<Item = CellRef> + '_ {
        self.columns.iter().flat_map(move |&column| {
            (0..self.num_records).map(move |record| CellRef::new(record, column))
        })
    }
}

/// The three-level provenance chain `(P_O, P_E, P_C)` of Definition 4.2.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProvenanceChain {
    /// `P_O`: cells output by the query (or feeding its aggregate result).
    pub output: CellSet,
    /// `P_E`: cells examined during execution (union of `P_O` over all
    /// sub-formulas).
    pub execution: CellSet,
    /// `P_C`: every cell of every column the query projects or aggregates on.
    pub columns: ColumnSet,
    /// Aggregate / arithmetic markers contained in `P_O`, keyed by the column
    /// they apply to (`None` when the operation has no single column, e.g. a
    /// difference of counts over the same column is still attributed to it).
    pub markers: Vec<(Option<usize>, OpMarker)>,
}

impl ProvenanceChain {
    /// An empty chain.
    pub fn new() -> Self {
        ProvenanceChain::default()
    }

    /// Whether the chain satisfies the hierarchy `P_O ⊆ P_E ⊆ P_C` required
    /// by Definition 4.1. [`crate::rules::provenance`] always produces chains
    /// for which this holds; the check is exposed for tests and debugging.
    pub fn is_well_formed(&self) -> bool {
        self.output.is_subset(&self.execution)
            && self
                .execution
                .iter()
                .all(|cell| self.columns.contains(&cell))
    }

    /// Total number of cells across all three levels (size of `P_C`, since
    /// the levels are nested).
    pub fn touched_cells(&self) -> usize {
        self.columns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(record: usize, column: usize) -> CellRef {
        CellRef::new(record, column)
    }

    #[test]
    fn well_formedness_checks_the_chain() {
        let mut chain = ProvenanceChain::new();
        chain.output = CellSet::column(0, vec![0]);
        chain.execution = CellSet::column(0, vec![0, 1]);
        chain.columns = ColumnSet::new(vec![0, 0], 3);
        assert!(chain.is_well_formed());
        assert_eq!(chain.touched_cells(), 3);
        assert_eq!(
            chain.columns.iter().collect::<Vec<_>>(),
            vec![cell(0, 0), cell(1, 0), cell(2, 0)]
        );
        assert!(chain.execution.contains(&cell(1, 0)));
        assert!(!chain.execution.contains(&cell(2, 0)));
        assert!(!chain.columns.contains(&cell(3, 0)));

        chain.output.union_with(&CellSet::column(1, vec![2]));
        assert!(!chain.is_well_formed());
        chain.execution.union_with(&chain.output.clone());
        assert!(!chain.is_well_formed(), "column 1 is outside P_C");
    }

    #[test]
    fn cell_sets_are_canonical() {
        let mut a = CellSet::from_cells([cell(4, 2), cell(1, 0), cell(4, 2), cell(3, 0)]);
        let b = CellSet::from_cells([cell(1, 0), cell(3, 0), cell(4, 2)]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.record_ids(), vec![1, 3, 4]);
        a.intersect_with(&CellSet::column(0, vec![3, 4]));
        assert_eq!(a, CellSet::column(0, vec![3]));
        a.retain_records(&[1]);
        assert_eq!(a, CellSet::new());
        assert!(a.is_empty());
    }

    #[test]
    fn marker_labels() {
        assert_eq!(OpMarker::Aggregate(AggregateOp::Max).label(), "MAX");
        assert_eq!(OpMarker::Aggregate(AggregateOp::Count).label(), "COUNT");
        assert_eq!(OpMarker::Difference.label(), "DIFF");
    }
}
