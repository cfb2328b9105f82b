//! Planner performance regression gate: on the 2000-row bench table, the
//! cost-based cold path (`PlanMode::Auto` on a fresh engine — columnar
//! kernels, no index build) must never lose to the `ForceScan` reference on
//! any of the five operator workloads. This is the regression the planner
//! was built to close: the old `execute` built a full `TableIndex` per call
//! and ran 0.2–0.46× of scan on every workload at this size.
//!
//! Timing discipline: the two paths are measured interleaved (scan, cold,
//! scan, cold, …) and compared on medians across rounds, so one-off
//! scheduler hiccups cannot decide the verdict.

use std::time::{Duration, Instant};

use wtq_bench::exec::{bench_table, workloads};
use wtq_oracle::{PlanMode, SqlEngine};
use wtq_sql::translate;
use wtq_table::TableIndex;

const ROUNDS: usize = 7;

/// Mean µs per call over enough iterations to fill a small budget.
fn time_us<F: FnMut()>(mut f: F) -> f64 {
    let start = Instant::now();
    f();
    let once = start.elapsed().max(Duration::from_nanos(100));
    let budget = Duration::from_millis(10);
    let iters = (budget.as_nanos() / once.as_nanos()).clamp(1, 5_000) as u32;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

#[test]
fn cold_auto_never_loses_to_scan_on_any_operator() {
    let table = bench_table(2000);
    let index = TableIndex::new(&table);
    let mut covered = Vec::new();
    for (name, formula) in workloads(&table, &index) {
        let query = translate(&formula)
            .unwrap_or_else(|e| panic!("workload {name} must translate to SQL: {e}"));
        let engine = SqlEngine::new(&table);
        let mut scan_samples = Vec::with_capacity(ROUNDS);
        let mut cold_samples = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            scan_samples.push(time_us(|| {
                let _ = engine.execute(&query, PlanMode::ForceScan);
            }));
            // A fresh engine per call: nothing warm survives between runs.
            cold_samples.push(time_us(|| {
                let _ = SqlEngine::new(&table).execute(&query, PlanMode::Auto);
            }));
        }
        let scan_us = median(scan_samples);
        let cold_us = median(cold_samples);
        let speedup = scan_us / cold_us;
        assert!(
            speedup >= 1.0,
            "cold Auto regressed vs scan on {name}: scan {scan_us:.1} µs, \
             cold {cold_us:.1} µs ({speedup:.2}×)"
        );
        covered.push(name);
    }
    assert_eq!(
        covered,
        [
            "join",
            "compare",
            "superlative",
            "intersect",
            "project_aggregate"
        ],
        "the workload set changed; update the regression gate"
    );
}

#[test]
fn warm_auto_never_loses_to_scan_on_any_operator() {
    let table = bench_table(2000);
    let index = TableIndex::new(&table);
    let warm = SqlEngine::with_index(&table, &index);
    for (name, formula) in workloads(&table, &index) {
        let query = translate(&formula)
            .unwrap_or_else(|e| panic!("workload {name} must translate to SQL: {e}"));
        let mut scan_samples = Vec::with_capacity(ROUNDS);
        let mut warm_samples = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            scan_samples.push(time_us(|| {
                let _ = warm.execute(&query, PlanMode::ForceScan);
            }));
            warm_samples.push(time_us(|| {
                let _ = warm.execute(&query, PlanMode::Auto);
            }));
        }
        let scan_us = median(scan_samples);
        let warm_us = median(warm_samples);
        let speedup = scan_us / warm_us;
        assert!(
            speedup >= 1.0,
            "warm Auto regressed vs scan on {name}: scan {scan_us:.1} µs, \
             warm {warm_us:.1} µs ({speedup:.2}×)"
        );
    }
}
