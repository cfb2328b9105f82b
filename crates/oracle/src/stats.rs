//! Planner observability: counters of every `WHERE`-planning decision the
//! engine takes in [`PlanMode::Auto`][crate::PlanMode::Auto].
//!
//! The counters answer two operational questions:
//!
//! * **which path runs** — how often the planner fell back to a row scan,
//!   answered from the inverted index, or ran a columnar kernel sweep, and
//! * **how good the cost model is** — cumulative estimated vs actual
//!   matching rows for planned filters, so a drifting selectivity model
//!   shows up as a widening gap between the two sums.
//!
//! The counters live per engine in a [`PlannerCounters`] set: every
//! [`SqlEngine`][crate::SqlEngine] owns one (or shares one via
//! [`SqlEngine::with_counters`][crate::SqlEngine::with_counters]), so two
//! engines — or interleaved tests and benches — never bleed decision
//! counts into each other. They are `wtq_obs` handles (one relaxed
//! `fetch_add` per planned filter) that a metrics registry reads live
//! once [`PlannerCounters::register`] attaches them. A long-lived owner
//! that wants an aggregate view keeps one shared set and hands it to every
//! engine it constructs.

use std::sync::Arc;

use wtq_obs::{Counter, Registry};

/// One engine's planner decision counters. Shareable across threads behind
/// an `Arc` (a long-lived owner keeps one and hands it to every
/// [`SqlEngine`][crate::SqlEngine] it constructs).
#[derive(Debug, Default)]
pub struct PlannerCounters {
    /// Filters that fell back to the per-row interpreted scan (predicate
    /// shape not plannable, or the table was empty / unindexed in a mode
    /// without kernels).
    pub scan_chosen: Arc<Counter>,
    /// Filters answered from the inverted / sorted-numeric index.
    pub index_chosen: Arc<Counter>,
    /// Filters answered by columnar kernel sweeps over the typed vectors.
    pub kernel_chosen: Arc<Counter>,
    /// Sum of the planner's estimated matching-row counts over all planned
    /// filters (bucket-size selectivity; half the table when planning cold
    /// without an index histogram).
    pub estimated_rows: Arc<Counter>,
    /// Sum of the actual matching-row counts of the same filters.
    pub actual_rows: Arc<Counter>,
}

impl PlannerCounters {
    /// A fresh all-zero set.
    pub fn new() -> PlannerCounters {
        PlannerCounters::default()
    }

    /// Attach these counters to `registry` as the `wtq_planner_*` families.
    pub fn register(&self, registry: &Registry) {
        registry.attach_labeled(
            "wtq_planner_decisions_total",
            "backend",
            "SQL planner WHERE-clause decisions, by chosen backend",
            [
                ("scan", &self.scan_chosen),
                ("index", &self.index_chosen),
                ("kernel", &self.kernel_chosen),
            ],
        );
        registry.attach(
            "wtq_planner_estimated_rows_total",
            "Planner-estimated matching rows, cumulative",
            &self.estimated_rows,
        );
        registry.attach(
            "wtq_planner_actual_rows_total",
            "Actual matching rows of planned filters, cumulative",
            &self.actual_rows,
        );
    }
}
