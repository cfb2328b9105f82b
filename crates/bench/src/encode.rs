//! Encode-path measurements: what the encode-once serving path buys on a
//! cache hit.
//!
//! Shared by the `experiments` binary's `--section encode` (folded into
//! `BENCH_exec.json` as the `encode` section) and the `encode_regression`
//! gate. Each case assembles the framed response for an already-cached
//! answer, interleaved: the splice path the server runs (envelope head
//! written by the hand-rolled escaper into a reused buffer, cached
//! candidate bytes and static tail appended) against an in-process
//! rebuild (re-render the [`WireExplanation`] from the cached candidates,
//! `serde_json` the envelope, frame it). Identical output bytes —
//! asserted — so the ratio isolates pure encode work.

use serde::Serialize;

use wtq_core::{candidates_json, Engine};
use wtq_server::wire::{self, encode_frame_into, spliced_frame_head};
use wtq_server::{ResponseBody, ResponseEnvelope, WireExplanation, PROTOCOL_VERSION};
use wtq_table::Table;

use crate::exec::{bench_table, interleaved_us};
use crate::serve::question_workload;

/// One question's hit-path encode timings, µs per assembled frame.
#[derive(Debug, Clone, Serialize)]
pub struct EncodeMicroCase {
    /// The question whose cached answer is being encoded.
    pub question: String,
    /// Cached candidates in the answer.
    pub candidates: usize,
    /// Assembled frame size, bytes.
    pub frame_bytes: usize,
    /// Rebuild path: re-render the explanation + `serde_json` + frame, µs.
    pub rebuild_us: f64,
    /// Splice path: escape the echoes, append cached bytes + tail, µs.
    pub splice_us: f64,
    /// `rebuild_us / splice_us`.
    pub speedup: f64,
}

/// The full encode report (the `encode` section of `BENCH_exec.json`).
#[derive(Debug, Clone, Serialize)]
pub struct EncodeReport {
    /// Rows of the benchmark table the questions run over.
    pub rows: usize,
    /// Per-question micro timings, hit-path encode only.
    pub micro: Vec<EncodeMicroCase>,
    /// Median of the micro speedups — the `encode_regression` gate's
    /// number.
    pub median_micro_speedup: f64,
}

/// Median of a non-empty sample set.
pub fn median(mut samples: Vec<f64>) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    samples[samples.len() / 2]
}

/// Time both hit-path encodings of one cached answer, interleaved, and
/// assert they produce the same bytes.
pub fn micro_case(engine: &Engine, table: &Table, question: &str, top_k: usize) -> EncodeMicroCase {
    let explained = engine.explain_question(question, table, top_k);
    assert!(!explained.is_empty(), "bench question parses");
    let body = candidates_json(&explained, table);
    let table_name = table.name().to_string();
    let id = 42u64;

    // Reused buffers on both sides: the splice path gets the same pooled
    // reuse it enjoys in the server, and the rebuild path is not penalized
    // for allocation it could also amortize.
    let mut rebuild_buf: Vec<u8> = Vec::new();
    let mut splice_buf: Vec<u8> = Vec::new();
    let timings = interleaved_us(&mut [
        &mut || {
            let envelope = ResponseEnvelope {
                v: PROTOCOL_VERSION,
                id,
                body: ResponseBody::Explanation(WireExplanation::from_candidates(
                    question,
                    &table_name,
                    &explained,
                    table,
                )),
            };
            let json = serde_json::to_string(&envelope).expect("envelope serializes");
            rebuild_buf.clear();
            encode_frame_into(json.as_bytes(), &mut rebuild_buf).expect("frame fits");
        },
        &mut || {
            assert!(spliced_frame_head(
                &mut splice_buf,
                id,
                question,
                &table_name,
                body.len()
            ));
            splice_buf.extend_from_slice(&body);
            splice_buf.extend_from_slice(wire::SPLICE_ENVELOPE_TAIL);
        },
    ]);
    assert_eq!(
        rebuild_buf, splice_buf,
        "spliced and rebuilt frames must be byte-identical for {question:?}"
    );

    let (rebuild_us, splice_us) = (timings[0], timings[1]);
    EncodeMicroCase {
        question: question.to_string(),
        candidates: explained.len(),
        frame_bytes: splice_buf.len(),
        rebuild_us,
        splice_us,
        speedup: rebuild_us / splice_us.max(1e-9),
    }
}

/// Run the encode comparison: hit-path timings over `questions` generated
/// questions on a `rows`-row table.
pub fn encode_report(rows: usize, questions: usize) -> EncodeReport {
    let table = bench_table(rows);
    let engine = Engine::new();
    engine.index_for(&table); // warm: the micro loop measures encode, not indexing

    let micro: Vec<EncodeMicroCase> = question_workload(&table, questions)
        .iter()
        .map(|body| micro_case(&engine, &table, &body.question, 3))
        .collect();
    let median_micro_speedup = median(micro.iter().map(|case| case.speedup).collect());
    EncodeReport {
        rows,
        micro,
        median_micro_speedup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_case_measures_identical_bytes() {
        let table = bench_table(48);
        let engine = Engine::new();
        engine.index_for(&table);
        let workload = question_workload(&table, 3);
        let case = micro_case(&engine, &table, &workload[0].question, 2);
        assert!(case.candidates > 0);
        assert!(case.frame_bytes > 0);
        assert!(case.rebuild_us > 0.0 && case.splice_us > 0.0);
    }

    #[test]
    fn encode_report_covers_every_micro_case() {
        // Tiny sizes: this runs in debug CI. The real numbers come from
        // `experiments --section encode` in release mode.
        let report = encode_report(48, 2);
        assert_eq!(report.micro.len(), 2);
        assert!(report.median_micro_speedup > 0.0);
        let json = serde_json::to_string(&report).expect("report serializes");
        assert!(json.contains("median_micro_speedup"));
    }
}
