//! Network-serving throughput: questions/second through the `wtq-server`
//! front-end, driving N concurrent client connections against a loopback
//! server. The delta against `batch_throughput` (same engine, no network)
//! is the cost of the serving layer itself: framing, JSON envelopes,
//! admission control and per-connection threads.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use wtq_bench::exec::bench_table;
use wtq_bench::serve::{loopback_server, question_workload, replay_workload};
use wtq_server::{Client, ServerConfig};

fn bench_server_throughput(c: &mut Criterion) {
    let table = bench_table(512);
    let workload = question_workload(&table, 16);
    let handle = loopback_server(table, ServerConfig::default());
    let addr = handle.local_addr();

    // Build the table's index once so every configuration measures
    // steady-state serving.
    {
        let mut client = Client::connect(addr).expect("warm-up connects");
        let first = &workload[0];
        let _ = client.explain(&first.question, &first.table, Some(1));
    }

    let mut group = c.benchmark_group("server_throughput");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    for connections in [1usize, 2, 4] {
        group.bench_function(
            format!(
                "explain_{}_questions_{}_connections",
                workload.len(),
                connections
            ),
            |b| b.iter(|| replay_workload(addr, &workload, connections)),
        );
    }
    // One persistent pipelined connection: the per-request framing cost
    // without reconnect overhead.
    group.bench_function(
        format!(
            "explain_{}_questions_1_persistent_connection",
            workload.len()
        ),
        |b| {
            let mut client = Client::connect(addr).expect("persistent client connects");
            b.iter(|| {
                for request in &workload {
                    client
                        .explain(&request.question, &request.table, request.top_k)
                        .expect("request succeeds");
                }
            })
        },
    );
    group.finish();
    handle.shutdown();
}

criterion_group!(benches, bench_server_throughput);
criterion_main!(benches);
