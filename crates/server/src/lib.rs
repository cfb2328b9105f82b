//! # wtq-server
//!
//! The serving layer of the explanation engine: a hand-rolled, zero-runtime
//! network front-end over a shared [`wtq_core::Engine`], built on `std`
//! plus the `wtq-net` epoll primitives (the build environment has no async
//! runtime). Connection I/O is a nonblocking readiness loop — a single
//! acceptor, a small reactor pool owning every socket and answering
//! everything that needs no engine work, incremental per-connection
//! protocol state machines, and a non-blocking admission scheduler whose
//! small worker pool (about one thread per core) runs cache misses — so
//! thread count is fixed, never scaling with connections or load.
//!
//! Two protocols share one request core:
//!
//! * **Framed JSON over TCP** ([`wire`]) — 4-byte big-endian length prefix,
//!   then a versioned JSON envelope. This is the primary protocol: cheap to
//!   parse, pipelineable, spoken by [`Client`].
//! * **HTTP/1.1** (the private `http` module) — a minimal adapter for `curl` and
//!   browsers: `GET /stats`, `GET /tables`, `GET /metrics`,
//!   `GET /trace/recent`, `POST /explain`, `POST /explain_batch`, one
//!   request per connection.
//!
//! The serving semantics (documented on [`server`]):
//!
//! * **Backpressure** — a bounded in-flight queue; a full queue rejects
//!   with a structured `Overloaded` error carrying `retry_after_ms`,
//!   never queueing unboundedly and never hanging the client.
//! * **Admission control** — per-table execution tokens keyed by the
//!   table's shape fingerprint, claimed all at once by the scheduler, so a
//!   giant table cannot starve the pool and no thread waits for a token.
//! * **Registry** — clients address preloaded tables by catalog name
//!   ([`wtq_table::Catalog`]) instead of shipping rows per request;
//!   `ListTables` returns [`wtq_table::TableSummary`] listings.
//! * **Observability** (the private `obs` module) — one registry per server
//!   attaches the live handles of the server, its engine (serving
//!   counters, parse stages, index cache, planner) and its answer cache.
//!   `GET /metrics` (or the framed `Metrics` request) renders it as
//!   Prometheus text; `GET /stats` (or `Stats`) returns the same samples
//!   as JSON ([`StatsBody`]). A configurable fraction of requests is
//!   traced stage-by-stage into the rings `GET /trace/recent` serves. All
//!   three are control-plane: reachable while the in-flight queue is
//!   saturated.
//!
//! ```no_run
//! use std::sync::Arc;
//! use wtq_core::Engine;
//! use wtq_server::{Client, Server, ServerConfig};
//! use wtq_table::{samples, Catalog};
//!
//! let engine = Arc::new(Engine::new());
//! let catalog: Arc<Catalog> = Arc::new([samples::olympics()].into_iter().collect());
//! let handle = Server::bind("127.0.0.1:0", engine, catalog, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! let explanation = client
//!     .explain("Greece held its last Olympics in what year?", "olympics", None)
//!     .unwrap();
//! assert!(!explanation.candidates.is_empty());
//! handle.shutdown();
//! ```

mod conn;
mod http;
mod obs;
mod reactor;

pub mod client;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, ConnectOptions, RetryPolicy};
pub use server::{Server, ServerConfig, ServerHandle};
pub use wire::{
    ErrorCode, ExplainBatchBody, ExplainBody, MetricsBody, RequestBody, RequestEnvelope,
    ResponseBody, ResponseEnvelope, StatsBody, TablesBody, TraceRecentBody, WireBatch,
    WireCandidate, WireError, WireExplanation, PROTOCOL_VERSION,
};
// Re-exported so downstream consumers of `TraceRecentBody` and
// `StatsBody` can name their element types without depending on
// `wtq-obs` directly.
pub use wtq_obs::{Sample, SpanSnapshot, TraceSnapshot};
