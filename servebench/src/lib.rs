//! # wtq-servebench
//!
//! The serving benchmark of the explanation server. One invocation runs
//! one workload for one seed: it generates web tables and questions with
//! `wtq-dataset`, boots `wtq-server` in-process with its default
//! configuration, drives it over framed TCP, checks every answer and
//! prints the metrics. See `README.md` beside this crate for the layer map,
//! the workloads and how to read the output.

pub mod check;
pub mod gen;
pub mod procfs;
pub mod prom;
pub mod replay;
pub mod workload;

/// The `p`-th percentile (0–100) of `sorted` by nearest rank; 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Load-generator threads and connections: the machine's parallelism,
/// at most two.
pub fn generator_width() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 2)
}
