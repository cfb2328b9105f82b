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
//! | [`provenance`] | [`wtq_provenance`]'s chain, highlights and sample | `P_O`, `P_E` and `P_C` as cell sets, classes counted through difference sets, the sample rendered from a rebuilt table |
//! | [`engine`] | [`wtq_sql::translate()`] and the evaluator | a row-by-row executor for the SQL of Table 10 ([`execute_sql`]), memoizing only subquery results |
//! | [`error`] | — | the executor's errors ([`ExecError`]); production `wtq-sql` raises only translation errors |
//!
//! The SQL executor cross-validates the translation and the evaluator: for
//! every lambda DCS operator, the translated SQL must return the same
//! answer as the direct lambda DCS execution.

pub mod engine;
pub mod error;
pub mod parser;
pub mod provenance;
pub mod reference;

pub use engine::{execute_sql, SqlResult};
pub use error::ExecError;
pub use parser::{
    dot_reference, extract_features_reference, parse_in_session_reference, rank_reference,
    ReferenceCandidate, ReferenceFeatures, ReferenceModel, ReferenceTrainer,
};
pub use reference::eval_reference;
