//! Many-idle-connections scaling: the epoll reactor holds thousands of
//! open, mostly-idle sockets while a handful of active clients keep full
//! throughput — the workload shape of interactive table exploration at
//! production scale (most connected users are reading an explanation, not
//! asking). Under the old thread-per-connection model this bench would
//! need one stack per idle socket; under the reactor it needs one slab
//! entry and one epoll registration.

use criterion::{criterion_group, criterion_main, Criterion};
use std::net::TcpStream;
use std::time::Duration;

use wtq_bench::exec::bench_table;
use wtq_bench::serve::{loopback_server, question_workload, replay_workload, stat};
use wtq_server::{Client, ServerConfig};

/// Idle sockets to hold open (clamped by the fd limit at runtime).
const IDLE_TARGET: usize = 5000;
/// Active clients issuing requests alongside the idle herd.
const ACTIVE: usize = 8;

fn bench_idle_connections(c: &mut Criterion) {
    // Each loopback connection costs two fds in this process; raise the
    // limit and clamp exactly like the experiments report does.
    let (idle_count, _soft_limit) = wtq_bench::serve::clamp_idle_target(IDLE_TARGET);

    let table = bench_table(512);
    let workload = question_workload(&table, 16);
    let handle = loopback_server(table, ServerConfig::default());
    let addr = handle.local_addr();

    // The herd connects once, before measurement, and stays connected
    // through every iteration.
    let idle_conns: Vec<TcpStream> = (0..idle_count)
        .map(|_| TcpStream::connect(addr).expect("idle connection"))
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let open = || stat(&handle.stats(), "wtq_server_open_connections");
    while open() < idle_conns.len() as u64 {
        assert!(
            std::time::Instant::now() < deadline,
            "reactors never registered the idle herd; {} open",
            open()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = handle.stats();
    println!(
        "holding {} idle connections on {} reactor + {} dispatch threads",
        stat(&stats, "wtq_server_open_connections"),
        stat(&stats, "wtq_server_reactor_threads"),
        stat(&stats, "wtq_server_dispatch_threads")
    );

    // Warm the engine's index cache so iterations measure serving.
    {
        let mut client = Client::connect(addr).expect("warm-up connects");
        let first = &workload[0];
        let _ = client.explain(&first.question, &first.table, Some(1));
    }

    let mut group = c.benchmark_group("idle_connections");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function(
        format!(
            "explain_{}_questions_{}_active_over_{}_idle",
            workload.len(),
            ACTIVE,
            idle_conns.len()
        ),
        |b| b.iter(|| replay_workload(addr, &workload, ACTIVE)),
    );
    group.finish();

    // The herd must have survived the whole run.
    assert!(
        open() >= idle_conns.len() as u64,
        "idle connections dropped during the bench: {} open",
        open()
    );
    drop(idle_conns);
    handle.shutdown();
}

criterion_group!(benches, bench_idle_connections);
criterion_main!(benches);
