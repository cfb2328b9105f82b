//! Hit-path response assembly: splicing cached candidate bytes into the
//! framed envelope vs re-rendering the explanation and re-serializing it.
//! The ratio between the two groups is what the encode-once serving path
//! buys per cache hit.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use wtq_bench::exec::bench_table;
use wtq_bench::serve::question_workload;
use wtq_core::{candidates_json, Engine};
use wtq_server::wire::{self, encode_frame_into, spliced_frame_head};
use wtq_server::{ResponseBody, ResponseEnvelope, WireExplanation, PROTOCOL_VERSION};

fn bench_encode_path(c: &mut Criterion) {
    let table = bench_table(512);
    let body = &question_workload(&table, 1)[0];
    let engine = Engine::new();
    table.index();
    let explained = engine.explain_question(&body.question, &table, 3);
    let bytes = candidates_json(&explained, &table);
    let table_name = table.name().to_string();

    let mut group = c.benchmark_group("encode_path");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));

    let mut rebuild_buf: Vec<u8> = Vec::new();
    group.bench_function("rebuild_and_serialize", |b| {
        b.iter(|| {
            let envelope = ResponseEnvelope {
                v: PROTOCOL_VERSION,
                id: 42,
                body: ResponseBody::Explanation(WireExplanation::from_candidates(
                    &body.question,
                    &table_name,
                    &explained,
                    &table,
                )),
            };
            let json = serde_json::to_string(&envelope).unwrap();
            rebuild_buf.clear();
            encode_frame_into(json.as_bytes(), &mut rebuild_buf).unwrap();
        })
    });

    let mut splice_buf: Vec<u8> = Vec::new();
    group.bench_function("splice_cached_bytes", |b| {
        b.iter(|| {
            assert!(spliced_frame_head(
                &mut splice_buf,
                42,
                &body.question,
                &table_name,
                bytes.len()
            ));
            splice_buf.extend_from_slice(&bytes);
            splice_buf.extend_from_slice(wire::SPLICE_ENVELOPE_TAIL);
        })
    });

    group.finish();
}

criterion_group!(benches, bench_encode_path);
criterion_main!(benches);
