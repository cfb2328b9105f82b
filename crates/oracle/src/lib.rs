//! # wtq-oracle
//!
//! The executable specifications the serving crates are tested against.
//! No serving crate depends on this one: the differential suites, the
//! benches, the regression gates and the experiments binary do. Each oracle
//! is a plain, slow implementation kept as it was before the serving code
//! was optimized, so a byte-identity test against it pins the optimized
//! code's behaviour:
//!
//! | module | oracle of | what it keeps |
//! |---|---|---|
//! | [`reference`](mod@reference) | [`wtq_dcs::Evaluator`] | the scan-based lambda DCS evaluator ([`eval_reference`]): no index, no memo |
//! | [`parser`] | [`wtq_parser::SemanticParser`] and [`wtq_parser::Trainer`] | string-keyed features, ranking and AdaGrad training |
//! | [`engine`] | [`wtq_sql::translate()`] and the evaluator | an in-memory executor for the SQL of Table 10, with a cost-based planner |
//! | [`stats`] | — | the SQL planner's decision counters |
//!
//! The SQL executor cross-validates the evaluator: for every lambda DCS
//! operator, the translated SQL must return the same answer as the direct
//! lambda DCS execution. An [`SqlEngine`] runs queries under a
//! [`PlanMode`]: `Auto` picks per predicate between the shared
//! [`wtq_table::TableIndex`] and the table's columnar kernels by estimated
//! selectivity (and never builds an index for a single cold query);
//! `ForceScan` keeps the pre-index scan path as the oracle of the
//! differential suites; `ForceIndex` pins the indexed path. `Auto`
//! decisions are counted per engine in [`PlannerCounters`].

pub mod engine;
pub mod parser;
pub mod reference;
pub mod stats;

pub use engine::{PlanMode, SqlEngine, SqlResult};
pub use parser::{
    dot_reference, extract_features_reference, parse_in_session_reference, rank_reference,
    ReferenceCandidate, ReferenceFeatures, ReferenceModel, ReferenceTrainer,
};
pub use reference::eval_reference;
pub use stats::PlannerCounters;
