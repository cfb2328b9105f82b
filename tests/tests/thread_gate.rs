//! Count gate: serving spawns no threads. A served `ExplainBatch` runs its
//! questions as jobs on the server's scheduler pool, so the process's
//! thread count never rises above what `Server::bind` started. The gate is
//! its own test binary, so no other test's threads are counted.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wtq_core::{Engine, EngineConfig};
use wtq_parser::SemanticParser;
use wtq_server::{Client, ExplainBody, Server, ServerConfig};
use wtq_table::{Catalog, Table};

/// Threads of this process: the entries of `/proc/self/task`.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

/// `count` generated questions over `table`, as batch items.
fn questions(table: &Table, count: usize, rng: &mut ChaCha8Rng) -> Vec<ExplainBody> {
    wtq_dataset::generate_questions(table, count, rng)
        .into_iter()
        .map(|question| ExplainBody {
            question: question.question,
            table: table.name().to_string(),
            top_k: Some(2),
        })
        .collect()
}

#[test]
fn served_batches_spawn_no_threads() {
    let domains = wtq_dataset::all_domains();
    let mut rng = ChaCha8Rng::seed_from_u64(20190418);
    let a = wtq_dataset::tablegen::generate_table_with_rows(&domains[0], 0, 300, &mut rng);
    let b = wtq_dataset::tablegen::generate_table_with_rows(&domains[1], 1, 300, &mut rng);
    let (a_questions, b_questions) = (questions(&a, 8, &mut rng), questions(&b, 8, &mut rng));
    // An engine whose own batch path fans out over two workers on any host.
    let config = EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    };
    let engine = Arc::new(Engine::with_config(SemanticParser::with_prior(), config));
    let catalog: Arc<Catalog> = Arc::new([a, b].into_iter().collect());
    let handle = Server::bind("127.0.0.1:0", engine, catalog, ServerConfig::default())
        .expect("bind loopback server");
    let mut client = Client::connect(handle.local_addr()).expect("client connects");

    let (stop, peak) = (AtomicBool::new(false), AtomicUsize::new(0));
    let baseline = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                peak.fetch_max(threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(500));
            }
        });
        // Every thread of the test is running: the sampler included.
        let baseline = threads();
        for (a, b) in a_questions.iter().zip(&b_questions) {
            let batch = vec![a.clone(), b.clone()];
            let explanations = client.explain_batch(batch).expect("the batch succeeds");
            assert_eq!(explanations.len(), 2);
        }
        stop.store(true, Ordering::Release);
        baseline
    });

    // Every batch missed the cache: sixteen questions ran.
    let insertions = r#"wtq_answer_cache_ops_total{op="insertion"}"#;
    assert_eq!(handle.stats().get(insertions), Some(16.0));
    let peak = peak.load(Ordering::Relaxed);
    assert!(
        peak <= baseline,
        "serving batches raised the thread count from {baseline} to {peak}"
    );
    handle.shutdown();
}
