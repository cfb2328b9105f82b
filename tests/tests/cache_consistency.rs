//! Cross-crate proofs for the deduplicating answer cache: cached answer
//! bodies are byte-identical to the encoding of fresh executions
//! (including provenance highlights), concurrent identical requests collapse onto one
//! execution, a re-registered table with new cells keys afresh and is
//! answered from its own index, and — at the serving layer — a cache hit
//! is answered even while the admission queue is saturated, so it never
//! draws a `retry_after_ms` rejection.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use wtq_cache::CacheConfig;
use wtq_core::{candidates_json, CachedEngine, Engine, WireCandidate};
use wtq_server::{Client, ClientError, ErrorCode, ExplainBody, Server, ServerConfig};
use wtq_table::{samples, Catalog, Table, TableBuilder};

/// A deterministically generated table from the dataset domains.
fn generated_table(domain: usize, rows: usize, seed: u64) -> Table {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let domains = wtq_dataset::all_domains();
    wtq_dataset::tablegen::generate_table_with_rows(
        &domains[domain % domains.len()],
        0,
        rows,
        &mut rng,
    )
}

/// The candidates a cached body encodes.
fn decode(body: &[u8]) -> Vec<WireCandidate> {
    let text = std::str::from_utf8(body).expect("bodies are UTF-8 JSON");
    serde_json::from_str(text).expect("bodies decode as wire candidates")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Byte-identity differential: on random generated tables and
    /// questions, the cached engine's answer body — both the leading
    /// (miss) execution and the subsequent pure hit — is exactly
    /// `candidates_json` of a fresh uncached execution: utterances, SQL,
    /// answers and provenance highlights, everything a client observes.
    #[test]
    fn cached_answers_are_byte_identical_to_fresh_executions(
        domain in 0usize..4,
        rows in 6usize..24,
        seed in 0u64..1_000,
        top_k in 1usize..5,
    ) {
        let table = generated_table(domain, rows, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let questions = wtq_dataset::generate_questions(&table, 3, &mut rng);

        let engine = Arc::new(Engine::new());
        let cached = CachedEngine::new(engine.clone(), CacheConfig::default());
        for question in &questions {
            let fresh = candidates_json(
                &engine.explain_question(&question.question, &table, top_k),
                &table,
            );
            let miss = cached.explain_question(&question.question, &table, top_k);
            prop_assert_eq!(&fresh, &*miss);
            let hit = cached.explain_question(&question.question, &table, top_k);
            prop_assert_eq!(&fresh, &*hit);
        }
        // Every question registered one miss and one hit.
        let metrics = cached.cache().metrics();
        prop_assert_eq!(metrics.misses.get(), questions.len() as u64);
        prop_assert!(metrics.hits.get() >= questions.len() as u64);
    }
}

#[test]
fn concurrent_identical_requests_execute_once() {
    let engine = Arc::new(Engine::new());
    let cached = Arc::new(CachedEngine::new(engine.clone(), CacheConfig::default()));

    const THREADS: usize = 8;
    let barrier = Arc::new(Barrier::new(THREADS));
    let identical = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..THREADS {
            let cached = cached.clone();
            let barrier = barrier.clone();
            workers.push(scope.spawn(move || {
                barrier.wait();
                cached.explain_question(
                    "Greece held its last Olympics in what year?",
                    &samples::olympics(),
                    3,
                )
            }));
        }
        let answers: Vec<_> = workers
            .into_iter()
            .map(|worker| worker.join().expect("worker clean"))
            .collect();
        let reference = &answers[0];
        identical.store(
            answers.iter().filter(|a| Arc::ptr_eq(a, reference)).count(),
            Ordering::Relaxed,
        );
    });

    // One thread led the flight; everyone shares the very same Arc, and
    // the engine's own served counter proves a single execution.
    assert_eq!(identical.load(Ordering::Relaxed), THREADS);
    assert_eq!(engine.metrics().questions_served.get(), 1);
    let metrics = cached.cache().metrics();
    assert_eq!(metrics.insertions.get(), 1);
    assert_eq!(
        metrics.hits.get() + metrics.collapsed_waiters.get(),
        (THREADS - 1) as u64,
        "{metrics:?}"
    );
}

/// A small two-column registry table whose 2008 host city is a parameter —
/// "re-registering" the table means serving a rebuilt one under the same
/// name with one cell changed.
fn host_table(city_2008: &str) -> Table {
    let mut builder =
        TableBuilder::new("hosts").columns(vec!["Year".to_string(), "City".to_string()]);
    for (year, city) in [
        ("2000", "Sydney"),
        ("2004", "Athens"),
        ("2008", city_2008),
        ("2012", "London"),
    ] {
        builder = builder
            .row_text(&[year.to_string(), city.to_string()])
            .expect("arity matches");
    }
    builder.build().expect("non-empty header")
}

/// One engine explaining a question on two same-named, same-shaped tables
/// must answer the second from its own index, exactly as a fresh engine
/// does — an index looked up by table name would answer it from the
/// first table's.
#[test]
fn same_named_same_shaped_tables_are_each_answered_from_their_own_index() {
    let body = |engine: &Engine, table: &Table| {
        let explained = engine.explain_question("In which year did Shanghai host?", table, 7);
        String::from_utf8(candidates_json(&explained, table)).expect("bodies are UTF-8 JSON")
    };
    let engine = Engine::new();
    let _ = body(&engine, &host_table("Beijing"));
    let second = body(&engine, &host_table("Shanghai"));
    let fresh = body(&Engine::new(), &host_table("Shanghai"));
    assert_eq!(second, fresh);
    assert_eq!(decode(fresh.as_bytes())[0].answer.to_string(), "{2008}");
}

#[test]
fn re_registration_invalidates_and_ttl_expires() {
    let question = "Which city hosted in 2008?";
    let cached = CachedEngine::new(Arc::new(Engine::new()), CacheConfig::default());

    // v1 of the table answers Beijing; the answer is cached.
    let v1 = host_table("Beijing");
    let first = cached.explain_question(question, &v1, 3);
    assert!(decode(&first)[0].answer.to_string().contains("Beijing"));
    let key_v1 = cached.key_for(question, &v1, Some(3));
    assert!(cached.lookup(&key_v1).is_some());

    // Re-register: same name, one cell changed. The content fingerprint
    // differs, so the old entry can never answer the new table: a reload
    // with new cells needs no invalidation.
    let v2 = host_table("Shanghai");
    assert_ne!(v1.content_fingerprint(), v2.content_fingerprint());
    let second = cached.explain_question(question, &v2, 3);
    assert!(decode(&second)[0].answer.to_string().contains("Shanghai"));
    assert_ne!(cached.key_for(question, &v2, Some(3)), key_v1);
}

/// Attempts of [`cache_hits_are_served_during_saturation_without_retry_after`],
/// each on a fresh server with a batch twice as large as the last.
const SATURATION_ATTEMPTS: usize = 4;

#[test]
fn cache_hits_are_served_during_saturation_without_retry_after() {
    // A single-slot queue, a slow batch filling it — the setup that makes
    // every fresh request bounce with retry_after_ms. A question that is
    // already cached must keep being answered anyway: the lookup runs
    // before the in-flight gate, control-plane style. How long the batch
    // holds the slot depends on how fast the engine explains, so an attempt
    // counts only if the fresh question found the slot still held: with
    // one slot, a fresh question that was admitted was admitted because the
    // batch had already released it. Otherwise the next attempt starts a
    // fresh server with a batch twice as large. The first batch has 48
    // questions, so it still holds the slot after the hits.
    for attempt in 0..SATURATION_ATTEMPTS {
        let config = ServerConfig {
            max_in_flight: 1,
            retry_after_ms: 77,
            ..ServerConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(20190416);
        let domain = &wtq_dataset::all_domains()[0];
        let big = wtq_dataset::tablegen::generate_table_with_rows(domain, 0, 400, &mut rng);
        let big_name = big.name().to_string();
        let big_questions = wtq_dataset::generate_questions(&big, 48 << attempt, &mut rng);

        let engine = Arc::new(Engine::new());
        let catalog: Arc<Catalog> = Arc::new([samples::olympics(), big].into_iter().collect());
        let handle = Server::bind("127.0.0.1:0", engine, catalog, config).expect("bind server");
        let addr = handle.local_addr();

        // Populate the cache while the server is idle.
        let mut client = Client::connect(addr).expect("client connects");
        let cached_question = "Which city hosted in 2008?";
        let warm = client
            .explain(cached_question, "olympics", None)
            .expect("warm-up populates the cache");
        assert!(!warm.candidates.is_empty());

        // Saturate the single in-flight slot with a slow batch.
        let batch: Vec<ExplainBody> = big_questions
            .iter()
            .map(|question| ExplainBody {
                question: question.question.clone(),
                table: big_name.clone(),
                top_k: Some(2),
            })
            .collect();
        let batch_thread = std::thread::spawn(move || {
            let mut batch_client = Client::connect(addr).expect("batch client connects");
            batch_client
                .explain_batch(batch)
                .expect("slow batch succeeds")
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        let in_flight = || handle.stats().get("wtq_server_in_flight").expect("gauge");
        while in_flight() == 0.0 && !batch_thread.is_finished() {
            assert!(Instant::now() < deadline, "batch never became in-flight");
            std::thread::yield_now();
        }

        // A fresh (uncached) question is rejected with the retry hint...
        match client.explain(
            "In what year did France hold the Olympics?",
            "olympics",
            None,
        ) {
            Ok(_) => {
                batch_thread.join().expect("batch thread clean");
                handle.shutdown();
                continue;
            }
            Err(ClientError::Server(err)) => {
                assert_eq!(err.code, ErrorCode::Overloaded);
                assert_eq!(err.retry_after_ms, Some(77));
            }
            other => panic!("expected an Overloaded rejection, got {other:?}"),
        }
        assert!(in_flight() > 0.0, "batch drained too early");

        // ... while the cached question (same table, same top_k, a variant
        // phrasing normalization maps onto the same key) is served in full.
        let served = client
            .explain(cached_question, "olympics", None)
            .expect("cache hit must never see retry_after_ms");
        assert_eq!(
            serde_json::to_string(&served).unwrap(),
            serde_json::to_string(&warm).unwrap(),
            "saturated-path hit must be byte-identical to the idle answer"
        );
        let variant = client
            .explain("which city  hosted in 2008??", "olympics", None)
            .expect("normalized variant shares the cached entry");
        assert_eq!(variant.candidates.len(), served.candidates.len());

        // A fully-cached batch also bypasses the saturated queue.
        let cached_batch = client
            .explain_batch(vec![ExplainBody {
                question: cached_question.to_string(),
                table: "olympics".to_string(),
                top_k: None,
            }])
            .expect("fully-cached batch bypasses the queue");
        assert_eq!(cached_batch.len(), 1);
        assert!(in_flight() > 0.0, "batch drained too early");

        batch_thread.join().expect("batch thread clean");
        handle.shutdown();
        return;
    }
    panic!("the batch released its slot before the fresh question arrived in {SATURATION_ATTEMPTS} attempts");
}
