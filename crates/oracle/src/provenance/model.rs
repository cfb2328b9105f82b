//! The multilevel cell-based provenance chain (Definitions 4.1 and 4.2).

use std::collections::BTreeSet;

use wtq_provenance::OpMarker;
use wtq_table::CellRef;

/// The three-level provenance chain `(P_O, P_E, P_C)` of Definition 4.2.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProvenanceChain {
    /// `P_O`: cells output by the query (or feeding its aggregate result).
    pub output: BTreeSet<CellRef>,
    /// `P_E`: cells examined during execution (union of `P_O` over all
    /// sub-formulas).
    pub execution: BTreeSet<CellRef>,
    /// `P_C`: every cell of every column the query projects or aggregates on.
    pub columns: BTreeSet<CellRef>,
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
    /// by Definition 4.1. [`super::rules::provenance`] always produces chains
    /// for which this holds; the check is exposed for tests and debugging.
    pub fn is_well_formed(&self) -> bool {
        self.output.is_subset(&self.execution) && self.execution.is_subset(&self.columns)
    }

    /// Cells that are examined but not part of the output (`P_E \ P_O`),
    /// i.e. the cells that will be framed but not colored.
    pub fn examined_only(&self) -> BTreeSet<CellRef> {
        self.execution.difference(&self.output).copied().collect()
    }

    /// Cells that belong to a projected column but were not examined
    /// (`P_C \ P_E`), i.e. the cells that will be lit only.
    pub fn column_only(&self) -> BTreeSet<CellRef> {
        self.columns.difference(&self.execution).copied().collect()
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
        chain.output.insert(cell(0, 0));
        chain.execution.insert(cell(0, 0));
        chain.execution.insert(cell(1, 0));
        chain.columns.extend([cell(0, 0), cell(1, 0), cell(2, 0)]);
        assert!(chain.is_well_formed());
        assert_eq!(chain.examined_only(), BTreeSet::from([cell(1, 0)]));
        assert_eq!(chain.column_only(), BTreeSet::from([cell(2, 0)]));
        assert_eq!(chain.touched_cells(), 3);

        chain.output.insert(cell(9, 9));
        assert!(!chain.is_well_formed());
    }
}
