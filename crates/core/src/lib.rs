//! # wtq-core
//!
//! The end-to-end pipeline of *Explaining Queries over Web Tables to
//! Non-Experts*: parse a natural-language question over a web table into
//! candidate lambda DCS queries and explain each candidate to a non-expert
//! user through an NL utterance, provenance-based table highlights and an
//! equivalent SQL rendering (Figure 2's architecture).
//!
//! ```
//! use wtq_core::Engine;
//! use wtq_table::samples;
//!
//! let engine = Engine::new();
//! let table = samples::olympics();
//! let explained = engine.explain_question(
//!     "Greece held its last Olympics in what year?",
//!     &table,
//!     7,
//! );
//! assert!(!explained.is_empty());
//! // Every candidate comes with an utterance and highlights.
//! assert!(explained[0].utterance.contains("column"));
//! ```
//!
//! The serving path is split into two tiers: a shared, `Send + Sync`
//! [`Engine`] (the trained parser; each table owns its index) and cheap
//! per-request [`Session`]s; [`Engine::explain_batch`] fans a batch of
//! questions out over scoped worker threads with deterministic,
//! input-order results. [`CachedEngine`] puts the answer cache in front:
//! servers answer each question with [`CachedEngine::answer`] and assemble
//! batches with [`CachedEngine::finish_batch`].
//!
//! The sub-crates are re-exported under their short names so downstream users
//! need a single dependency:
//!
//! | module | contents |
//! |---|---|
//! | [`table`] | web-table data model (§3.1) |
//! | [`dcs`] | lambda DCS language and evaluator (§3.2) |
//! | [`sql`] | SQL translation (Table 10) |
//! | [`provenance`] | multilevel cell-based provenance and highlights (§4, §5.2) |
//! | [`explain`] | query-to-utterance explanations (§5.1) |
//! | [`parser`] | the log-linear semantic parser (§6.2) |
//!
//! The offline crates — the synthetic dataset generator (`wtq-dataset`,
//! §6.1) and the simulated user study (`wtq-study`, §7) — build on these;
//! serving links neither.

pub use wtq_dcs as dcs;
pub use wtq_explain as explain;
pub use wtq_parser as parser;
pub use wtq_provenance as provenance;
pub use wtq_sql as sql;
pub use wtq_table as table;

pub mod cached;
pub mod engine;
pub mod pipeline;
pub mod wire;

pub use cached::{BatchItem, BatchPlan, CachedAnswer, CachedEngine};
pub use engine::{Engine, EngineConfig, EngineMetrics, ExplainRequest, Explanation, Session};
pub use pipeline::ExplainedCandidate;
pub use wire::{candidates_json, WireCandidate};
