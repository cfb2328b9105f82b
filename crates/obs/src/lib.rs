//! # wtq-obs
//!
//! The observability substrate of the serving stack: a [`Registry`] of
//! named counters, gauges and log-linear latency [`Histogram`]s that one
//! scrape surface (`GET /metrics`) renders in Prometheus text format, plus
//! sampled per-request traces ([`Tracer`] / [`RequestTrace`]) kept in a
//! fixed-size ring of recent and slowest requests (`GET /trace/recent`).
//!
//! Zero dependencies beyond `serde`. Hot-path cost is designed around
//! relaxed atomics: a counter increment is one `fetch_add`, a histogram
//! observation is two `fetch_add`s plus a usually-quiet max update, and an
//! unsampled request never touches the trace ring.
//!
//! Every handle has exactly one owner — the instance that does the work
//! creates it and records into it — and a registry only *attaches* those
//! `Arc`s under family names. `/metrics` ([`Registry::render`]) and the
//! `Stats` body ([`Registry::samples`]) are two prints of one walk over
//! the live handles: no copies, no scrape-time sync, no process-wide
//! state, so two instances in one process never mix their numbers.

pub mod registry;
pub mod trace;

pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Metric, Registry, Sample};
pub use trace::{RequestTrace, SpanSnapshot, TraceSnapshot, Tracer};
