//! Encode-path performance regression gate: on a cache hit, assembling
//! the framed response by splicing the cached candidate bytes must beat
//! re-rendering the explanation and re-serializing the envelope by at
//! least 2× — the margin the encode-once rework was built to hold. The
//! splice path only escapes the two echoed strings and copies bytes; if
//! it ever drops under 2× the rebuild path, the splicer has grown real
//! per-candidate work and the PR's premise is broken.
//!
//! Timing discipline mirrors `parse_regression.rs`: each question's two
//! paths are measured interleaved (rebuild, splice, rebuild, splice, …)
//! inside [`wtq_bench::encode::micro_case`], repeated over rounds, and
//! compared on the median per-question speedup, so one-off scheduler
//! hiccups cannot decide the verdict. Byte-identical output is asserted
//! on every round by `micro_case` itself.

use wtq_bench::encode::{median, micro_case};
use wtq_bench::exec::bench_table;
use wtq_bench::serve::question_workload;
use wtq_core::Engine;

const ROUNDS: usize = 7;
const QUESTIONS: usize = 4;
const REQUIRED_SPEEDUP: f64 = 2.0;

#[test]
fn hit_path_splice_is_at_least_twice_as_fast_as_rebuild() {
    let table = bench_table(256);
    let engine = Engine::new();
    table.index(); // build first: only encode work should be timed
    let workload = question_workload(&table, QUESTIONS);
    assert_eq!(workload.len(), QUESTIONS);

    for body in &workload {
        let speedups: Vec<f64> = (0..ROUNDS)
            .map(|_| micro_case(&engine, &table, &body.question, 3).speedup)
            .collect();
        let speedup = median(speedups);
        assert!(
            speedup >= REQUIRED_SPEEDUP,
            "hit-path splice regressed vs rebuild-and-serialize on \
             {:?}: median speedup {speedup:.2}× < {REQUIRED_SPEEDUP}×",
            body.question
        );
    }
}
