//! Client ↔ server integration: loopback proofs that the serving layer is a
//! transparent, backpressured window onto the shared `Engine`.
//!
//! The three acceptance properties of the serving layer:
//!
//! 1. responses are **byte-identical** to direct `Engine::explain_question`
//!    calls (the wire adds framing, not meaning),
//! 2. a full in-flight queue yields an immediate backpressure rejection
//!    with a retry hint — never a hang,
//! 3. two tables of very different sizes both make progress under
//!    concurrent load (per-table admission control),
//! 4. the admission scheduler keeps its promises: answers in request order
//!    per connection, no deadlock or starvation between opposing
//!    multi-table batches, unevaluated timeouts, and a prompt shutdown
//!    with work still queued,
//! 5. batch items are scheduler jobs like single explains, so a batch item
//!    joins a running single explain's flight of the same question.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wtq_core::{Engine, ExplainRequest};
use wtq_server::{
    wire, Client, ClientError, ConnectOptions, ErrorCode, ExplainBody, RequestBody,
    RequestEnvelope, ResponseBody, ResponseEnvelope, RetryPolicy, Server, ServerConfig,
    ServerHandle, StatsBody, WireExplanation, PROTOCOL_VERSION,
};
use wtq_table::{samples, Catalog, Table};

/// A deterministically generated "giant" table next to the small samples.
fn big_table(rows: usize) -> Table {
    let mut rng = ChaCha8Rng::seed_from_u64(20190416);
    let domain = &wtq_dataset::all_domains()[0];
    wtq_dataset::tablegen::generate_table_with_rows(domain, 0, rows, &mut rng)
}

fn serving_stack(
    config: ServerConfig,
    extra: Vec<Table>,
) -> (Arc<Engine>, Arc<Catalog>, ServerHandle) {
    let engine = Arc::new(Engine::new());
    let mut tables = vec![samples::olympics(), samples::medals()];
    tables.extend(extra);
    let catalog: Arc<Catalog> = Arc::new(tables.into_iter().collect());
    let handle = Server::bind("127.0.0.1:0", engine.clone(), catalog.clone(), config)
        .expect("bind loopback server");
    (engine, catalog, handle)
}

/// The value of a registry series in a `Stats` body.
fn stat(stats: &StatsBody, series: &str) -> f64 {
    stats
        .get(series)
        .unwrap_or_else(|| panic!("{series} missing"))
}

#[test]
fn responses_are_byte_identical_to_direct_engine_calls() {
    let (engine, catalog, handle) = serving_stack(ServerConfig::default(), Vec::new());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let cases = [
        ("Greece held its last Olympics in what year?", "olympics", 7),
        ("Which city hosted in 2008?", "olympics", 3),
        (
            "What is the difference in Total between Fiji and Tonga?",
            "medals",
            5,
        ),
    ];
    for (question, table_name, top_k) in cases {
        let served = client
            .explain(question, table_name, Some(top_k))
            .expect("server explains");
        assert!(!served.candidates.is_empty(), "{question}");

        // The reference path: the same shared engine, called directly, then
        // flattened through the same wire conversion.
        let table = catalog.get(table_name).unwrap();
        let direct = WireExplanation::from_candidates(
            question,
            table_name,
            &engine.explain_question(question, table, top_k),
            table,
        );
        assert_eq!(
            serde_json::to_string(&served).unwrap(),
            serde_json::to_string(&direct).unwrap(),
            "served explanation must serialize byte-identically for {question}"
        );
    }
    handle.shutdown();
}

#[test]
fn batch_responses_match_the_direct_batch_path() {
    let (engine, catalog, handle) = serving_stack(ServerConfig::default(), Vec::new());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let requests = vec![
        ExplainBody {
            question: "Greece held its last Olympics in what year?".to_string(),
            table: "olympics".to_string(),
            top_k: None,
        },
        ExplainBody {
            question: "total Gold of Fiji?".to_string(),
            table: "medals".to_string(),
            top_k: Some(2),
        },
        ExplainBody {
            question: "anything".to_string(),
            table: "no-such-table".to_string(),
            top_k: None,
        },
    ];
    let served = client.explain_batch(requests.clone()).expect("batch runs");
    assert_eq!(served.len(), 3);

    let engine_requests: Vec<ExplainRequest> = requests
        .iter()
        .map(|request| ExplainRequest {
            question: request.question.clone(),
            table: request.table.clone(),
            top_k: request.top_k,
        })
        .collect();
    let direct = engine.explain_batch(&catalog, &engine_requests);
    for (served, direct) in served.iter().zip(&direct) {
        let direct_wire = WireExplanation::from_explanation(direct, catalog.get(&direct.table));
        assert_eq!(
            serde_json::to_string(served).unwrap(),
            serde_json::to_string(&direct_wire).unwrap()
        );
    }
    // The unknown table came back as a per-question error, not a failure.
    assert!(served[2]
        .error
        .as_deref()
        .unwrap()
        .contains("no-such-table"));
    assert!(served[2].candidates.is_empty());
    handle.shutdown();
}

#[test]
fn full_in_flight_queue_rejects_with_retry_after_instead_of_hanging() {
    let config = ServerConfig {
        max_in_flight: 1,
        retry_after_ms: 77,
        ..ServerConfig::default()
    };
    let (_engine, _catalog, handle) = serving_stack(config, vec![big_table(400)]);
    let addr = handle.local_addr();

    // Occupy the single in-flight slot with a slow batch over the big table.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let questions = wtq_dataset::generate_questions(&big_table(400), 6, &mut rng);
    let batch: Vec<ExplainBody> = questions
        .iter()
        .map(|question| ExplainBody {
            question: question.question.clone(),
            table: big_table(400).name().to_string(),
            top_k: Some(2),
        })
        .collect();
    let batch_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("batch client connects");
        client
            .explain_batch(batch)
            .expect("the slow batch succeeds")
    });

    // Wait (bounded) until the batch actually holds the slot.
    let deadline = Instant::now() + Duration::from_secs(60);
    while stat(&handle.stats(), "wtq_server_in_flight") == 0.0 {
        assert!(Instant::now() < deadline, "batch never became in-flight");
        std::thread::yield_now();
    }

    // The queue is full: a single explain must be rejected immediately with
    // the configured retry hint — not block until the batch finishes.
    let mut client = Client::connect(addr).unwrap();
    let start = Instant::now();
    let rejection = client.explain("Which city hosted in 2008?", "olympics", None);
    match rejection {
        Err(ClientError::Server(err)) => {
            assert_eq!(err.code, ErrorCode::Overloaded);
            assert_eq!(err.retry_after_ms, Some(77));
        }
        other => panic!("expected an Overloaded rejection, got {other:?}"),
    }
    // "Immediately": the rejection must not have waited out the batch.
    let in_flight_after = stat(&handle.stats(), "wtq_server_in_flight");
    assert!(
        in_flight_after > 0.0,
        "rejection raced the batch (took {:?}); grow the batch if this flakes",
        start.elapsed()
    );

    let explanations = batch_thread.join().expect("batch thread clean");
    assert_eq!(explanations.len(), 6);
    let overload = r#"wtq_server_rejected_total{reason="overload"}"#;
    assert!(stat(&handle.stats(), overload) >= 1.0);

    // Once the queue drains, the same request is admitted again.
    let explanation = client
        .explain("Which city hosted in 2008?", "olympics", None)
        .expect("after drain the queue admits again");
    assert!(!explanation.candidates.is_empty());
    handle.shutdown();
}

/// A stand-in server on loopback that answers every request it reads with
/// an `Overloaded` rejection carrying `retry_after_ms`, until its one client
/// hangs up. Joining the thread returns the number of requests it read.
fn always_overloaded(retry_after_ms: u64) -> (SocketAddr, JoinHandle<u64>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let addr = listener.local_addr().expect("listener address");
    let thread = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("the client connects");
        let mut attempts = 0;
        while let Ok(payload) = wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME_LEN) {
            attempts += 1;
            let request: RequestEnvelope = serde_json::from_str(
                std::str::from_utf8(&payload).expect("the client sends UTF-8"),
            )
            .expect("the client sends envelopes");
            let mut rejection = wire::WireError::new(ErrorCode::Overloaded, "queue full");
            rejection.retry_after_ms = Some(retry_after_ms);
            let response = ResponseEnvelope {
                v: PROTOCOL_VERSION,
                id: request.id,
                body: ResponseBody::Error(rejection),
            };
            let text = serde_json::to_string(&response).expect("envelopes serialize");
            wire::write_frame(&mut stream, text.as_bytes())
                .expect("the client reads its rejection");
        }
        attempts
    });
    (addr, thread)
}

#[test]
fn retry_helper_rides_out_backpressure_and_respects_its_budget() {
    // A tight budget gives up: the final rejection surfaces as-is, after
    // max_retries + 1 total attempts. The rejections come from a stand-in
    // that always refuses, so the budget runs out however fast the engine
    // is.
    let (overloaded, listener) = always_overloaded(10);
    let mut client = Client::connect(overloaded).unwrap();
    let stingy = RetryPolicy {
        max_retries: 2,
        default_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
    };
    match client.explain_with_retry("Which city hosted in 2008?", "olympics", None, &stingy) {
        Err(ClientError::Server(err)) => {
            assert_eq!(err.code, ErrorCode::Overloaded);
            assert_eq!(err.retry_after_ms, Some(10));
        }
        other => panic!("expected the budget to run out on a full queue, got {other:?}"),
    }
    drop(client);
    assert_eq!(
        listener.join().expect("listener thread clean"),
        u64::from(stingy.max_retries) + 1,
        "each attempt must have reached the server"
    );

    let config = ServerConfig {
        max_in_flight: 1,
        retry_after_ms: 10,
        ..ServerConfig::default()
    };
    let (_engine, _catalog, handle) = serving_stack(config, vec![big_table(400)]);
    let addr = handle.local_addr();

    // Occupy the single in-flight slot with a slow batch over the big table.
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    let questions = wtq_dataset::generate_questions(&big_table(400), 6, &mut rng);
    let batch: Vec<ExplainBody> = questions
        .iter()
        .map(|question| ExplainBody {
            question: question.question.clone(),
            table: big_table(400).name().to_string(),
            top_k: Some(2),
        })
        .collect();
    let batch_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("batch client connects");
        client
            .explain_batch(batch)
            .expect("the slow batch succeeds")
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    while stat(&handle.stats(), "wtq_server_in_flight") == 0.0 {
        assert!(Instant::now() < deadline, "batch never became in-flight");
        std::thread::yield_now();
    }

    // A generous budget rides the rejections out and succeeds once the
    // batch drains — without the caller ever seeing an Overloaded error.
    let mut client = Client::connect(addr).unwrap();
    let generous = RetryPolicy {
        max_retries: 10_000,
        default_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(50),
    };
    let explanation = client
        .explain_with_retry("Which city hosted in 2008?", "olympics", None, &generous)
        .expect("retries outlast the slow batch");
    assert!(!explanation.candidates.is_empty());

    batch_thread.join().expect("batch thread clean");
    handle.shutdown();
}

#[test]
fn hot_table_cannot_fill_the_whole_queue() {
    // One table at its queue share must be rejected while other tables'
    // requests are still admitted — the starvation the per-table occupancy
    // bound exists to prevent.
    let config = ServerConfig {
        max_in_flight: 16,
        per_table_tokens: 1,
        max_table_in_flight: 1,
        ..ServerConfig::default()
    };
    let big = big_table(400);
    let big_name = big.name().to_string();
    let (_engine, _catalog, handle) = serving_stack(config, vec![big]);
    let addr = handle.local_addr();

    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let questions = wtq_dataset::generate_questions(&big_table(400), 6, &mut rng);
    let batch: Vec<ExplainBody> = questions
        .iter()
        .map(|question| ExplainBody {
            question: question.question.clone(),
            table: big_name.clone(),
            top_k: Some(2),
        })
        .collect();
    let batch_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("batch client connects");
        client
            .explain_batch(batch)
            .expect("the slow batch succeeds")
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    while stat(&handle.stats(), "wtq_server_in_flight") == 0.0 {
        assert!(Instant::now() < deadline, "batch never became in-flight");
        std::thread::yield_now();
    }

    // The big table holds its whole (1-slot) queue share: another request
    // for it bounces with a retry hint...
    let mut client = Client::connect(addr).unwrap();
    match client.explain("anything", &big_name, Some(1)) {
        Err(ClientError::Server(err)) => {
            assert_eq!(err.code, ErrorCode::Overloaded);
            assert!(err.retry_after_ms.is_some());
            assert!(err.message.contains("share"), "{}", err.message);
        }
        other => panic!("expected a table-share rejection, got {other:?}"),
    }
    // ... while a request for a different table is admitted and completes,
    // even though 15 of the 16 queue slots are still free for it.
    let explanation = client
        .explain("Which city hosted in 2008?", "olympics", None)
        .expect("other tables stay admitted while one table is saturated");
    assert!(!explanation.candidates.is_empty());

    batch_thread.join().expect("batch thread clean");
    let stats = handle.stats();
    let rejected = |reason: &str| {
        stat(
            &stats,
            &format!("wtq_server_rejected_total{{reason=\"{reason}\"}}"),
        )
    };
    assert!(rejected("table_busy") >= 1.0);
    assert_eq!(rejected("overload"), 0.0);
    handle.shutdown();
}

#[test]
fn asymmetric_tables_both_make_progress_under_concurrent_load() {
    let config = ServerConfig {
        max_in_flight: 16,
        per_table_tokens: 1,
        ..ServerConfig::default()
    };
    let big = big_table(300);
    let big_name = big.name().to_string();
    let (_engine, _catalog, handle) = serving_stack(config, vec![big]);
    let addr = handle.local_addr();

    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let big_questions = wtq_dataset::generate_questions(&big_table(300), 4, &mut rng);

    std::thread::scope(|scope| {
        // Two workers hammer the big table (serialized by the single
        // admission token)...
        let mut workers = Vec::new();
        for worker in 0..2 {
            let big_name = big_name.clone();
            let big_questions = &big_questions;
            workers.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("big client connects");
                for question in big_questions.iter().skip(worker * 2).take(2) {
                    let explanation = client
                        .explain(&question.question, &big_name, Some(2))
                        .expect("big-table request succeeds");
                    assert_eq!(explanation.table, big_name);
                }
            }));
        }
        // ... while two workers keep asking about the small tables; with
        // per-table admission the big table cannot occupy their tokens, so
        // every small request completes too.
        for _ in 0..2 {
            workers.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("small client connects");
                for _ in 0..3 {
                    let explanation = client
                        .explain("Which city hosted in 2008?", "olympics", Some(2))
                        .expect("small-table request succeeds");
                    assert!(!explanation.candidates.is_empty());
                }
            }));
        }
        for worker in workers {
            worker.join().expect("worker clean");
        }
    });

    let stats = handle.stats();
    let overload = r#"wtq_server_rejected_total{reason="overload"}"#;
    assert_eq!(stat(&stats, overload), 0.0);
    assert_eq!(
        stat(&stats, "wtq_server_requests_total"),
        (2 * 2 + 2 * 3) as f64
    );
    assert_eq!(stat(&stats, "wtq_server_in_flight"), 0.0);
    handle.shutdown();
}

#[test]
fn registry_and_stats_surfaces_reflect_the_serving_state() {
    let (engine, catalog, handle) = serving_stack(ServerConfig::default(), Vec::new());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // The registry listing matches the catalog's own summaries.
    let tables = client.list_tables().unwrap();
    assert_eq!(tables, catalog.summaries());
    assert_eq!(tables.len(), 2);
    assert_eq!(tables[0].name, "medals");
    assert_eq!(tables[1].name, "olympics");

    let before = client.stats().unwrap();
    assert_eq!(stat(&before, "wtq_engine_questions_served_total"), 0.0);
    client
        .explain("Which city hosted in 2008?", "olympics", None)
        .unwrap();
    client
        .explain(
            "In what year did France hold the Olympics?",
            "olympics",
            None,
        )
        .unwrap();
    let after = client.stats().unwrap();
    // The body is the registry's samples: the lines `/metrics` prints
    // (compared where the two control-plane requests move nothing).
    let metrics = client.metrics().unwrap();
    let engine_side = ["wtq_engine_", "wtq_index_", "wtq_answer_", "wtq_parse_"];
    for sample in &after.samples {
        if engine_side
            .iter()
            .any(|prefix| sample.series.starts_with(prefix))
        {
            let line = format!("{} {}", sample.series, sample.value);
            assert!(metrics.lines().any(|l| l == line), "{line} not in /metrics");
        }
    }
    let value = |series: &str| stat(&after, series);
    assert_eq!(value("wtq_engine_questions_served_total"), 2.0);
    assert!(value(r#"wtq_index_cache_ops_total{op="hit"}"#) >= 1.0);
    assert_eq!(value(r#"wtq_index_cache_ops_total{op="miss"}"#), 1.0);
    assert_eq!(value("wtq_server_requests_total"), 2.0);
    assert_eq!(value("wtq_server_in_flight"), 0.0);
    assert_eq!(value("wtq_server_tables"), 2.0);
    assert!(value("wtq_server_connections_total") >= 1.0);
    // The I/O layer is observable too: this client's connection is open,
    // the reactor pool is a fixed handful of threads, and the scheduler
    // runs one worker per core — at least one more than a table's tokens.
    let config = ServerConfig::default();
    let cores = std::thread::available_parallelism().map_or(1, |cores| cores.get());
    let workers = cores.max(config.per_table_tokens + 1);
    assert!(value("wtq_server_open_connections") >= 1.0);
    assert!(value("wtq_server_reactor_threads") >= 1.0);
    assert_eq!(value("wtq_server_dispatch_threads"), workers as f64);
    // The engine's series are the engine's own handles, plus the serving
    // layer's answer-cache counters (both questions were cold, so each
    // registered one miss and one insertion).
    let served = engine.metrics().questions_served.get() as f64;
    assert_eq!(value("wtq_engine_questions_served_total"), served);
    assert_eq!(value(r#"wtq_answer_cache_ops_total{op="miss"}"#), 2.0);
    assert_eq!(value(r#"wtq_answer_cache_ops_total{op="insertion"}"#), 2.0);
    handle.shutdown();
}

/// Speak minimal HTTP/1.1 against the same port and parse the JSON body.
fn http_request(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn http_adapter_serves_the_same_dispatch_core() {
    let (engine, catalog, handle) = serving_stack(ServerConfig::default(), Vec::new());
    let addr = handle.local_addr();

    let (status, body) = http_request(addr, "GET /tables HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("\"olympics\""));
    assert!(body.contains("\"medals\""));

    let explain = r#"{"question": "Which city hosted in 2008?", "table": "olympics", "top_k": 2}"#;
    let request = format!(
        "POST /explain HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
        explain.len(),
        explain
    );
    let (status, body) = http_request(addr, &request);
    assert_eq!(status, 200);
    // The HTTP body is the same ResponseBody JSON framed clients get.
    let parsed: wtq_server::ResponseBody = serde_json::from_str(&body).unwrap();
    match parsed {
        wtq_server::ResponseBody::Explanation(explanation) => {
            let table = catalog.get("olympics").unwrap();
            let direct = WireExplanation::from_candidates(
                "Which city hosted in 2008?",
                "olympics",
                &engine.explain_question("Which city hosted in 2008?", table, 2),
                table,
            );
            assert_eq!(
                serde_json::to_string(&explanation).unwrap(),
                serde_json::to_string(&direct).unwrap()
            );
        }
        other => panic!("expected an explanation, got {other:?}"),
    }

    let (status, _) = http_request(addr, "GET /stats HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    let (status, _) = http_request(addr, "GET /no-such-route HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 404);
    let (status, _) = http_request(
        addr,
        "POST /explain HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\nnot json",
    );
    assert_eq!(status, 400);

    let unknown = r#"{"question": "q", "table": "nope", "top_k": null}"#;
    let request = format!(
        "POST /explain HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
        unknown.len(),
        unknown
    );
    let (status, _) = http_request(addr, &request);
    assert_eq!(status, 404);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_stops_accepting_and_drains() {
    let (_engine, _catalog, handle) = serving_stack(ServerConfig::default(), Vec::new());
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client
        .explain("Which city hosted in 2008?", "olympics", None)
        .unwrap();
    handle.shutdown();

    // The existing connection is closed...
    let after = client.explain("Which city hosted in 2008?", "olympics", None);
    assert!(after.is_err(), "connection must be closed after shutdown");
    // ... and the port no longer accepts (allow the OS a moment to tear it
    // down, then expect connect to fail or the socket to be dead).
    let reconnect = TcpStream::connect(addr);
    if let Ok(mut stream) = reconnect {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let _ = stream.write_all(&8u32.to_be_bytes());
        let mut buf = [0u8; 1];
        // No handler is alive to answer.
        assert!(matches!(stream.read(&mut buf), Ok(0) | Err(_)));
    }
}

/// One length-prefixed request frame.
fn frame(id: u64, body: RequestBody) -> Vec<u8> {
    let envelope = RequestEnvelope {
        v: PROTOCOL_VERSION,
        id,
        body,
    };
    let payload = serde_json::to_string(&envelope).unwrap().into_bytes();
    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(&payload);
    bytes
}

fn explain_body(question: &str, table: &str, top_k: Option<usize>) -> ExplainBody {
    ExplainBody {
        question: question.to_string(),
        table: table.to_string(),
        top_k,
    }
}

/// A batch of `count` generated questions over the big table of `rows`.
fn big_batch(rows: usize, seed: u64, count: usize) -> Vec<ExplainBody> {
    let big = big_table(rows);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    wtq_dataset::generate_questions(&big, count, &mut rng)
        .iter()
        .map(|question| explain_body(&question.question, big.name(), Some(2)))
        .collect()
}

/// Block (bounded) until `wtq_server_in_flight` reaches `slots`.
fn await_in_flight(handle: &ServerHandle, slots: f64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while stat(&handle.stats(), "wtq_server_in_flight") < slots {
        assert!(Instant::now() < deadline, "never reached {slots} in flight");
        std::thread::yield_now();
    }
}

#[test]
fn pipelined_requests_are_answered_in_request_order() {
    let big = big_table(400);
    let big_name = big.name().to_string();
    let (_engine, _catalog, handle) = serving_stack(ServerConfig::default(), vec![big]);
    let addr = handle.local_addr();
    let warm = "Which city hosted in 2008?";
    Client::connect(addr)
        .unwrap()
        .explain(warm, "olympics", None)
        .expect("pre-warm the cache");
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let miss = wtq_dataset::generate_questions(&big_table(400), 1, &mut rng).remove(0);

    // A miss, then a hit, a control-plane request and a rejection, written
    // back to back: the last three must wait for the first.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut bytes = frame(
        1,
        RequestBody::Explain(explain_body(&miss.question, &big_name, Some(2))),
    );
    bytes.extend(frame(
        2,
        RequestBody::Explain(explain_body(warm, "olympics", None)),
    ));
    bytes.extend(frame(3, RequestBody::Stats));
    bytes.extend(frame(
        4,
        RequestBody::Explain(explain_body("anything", "no-such-table", None)),
    ));
    stream.write_all(&bytes).unwrap();

    let mut answers = Vec::new();
    for _ in 0..4 {
        let payload = wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME_LEN).expect("a frame");
        let envelope: ResponseEnvelope =
            serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
        answers.push(envelope);
    }
    let ids: Vec<u64> = answers.iter().map(|envelope| envelope.id).collect();
    assert_eq!(ids, [1, 2, 3, 4]);
    assert!(matches!(&answers[0].body, ResponseBody::Explanation(e) if e.table == big_name));
    assert!(matches!(&answers[1].body, ResponseBody::Explanation(e) if e.table == "olympics"));
    assert!(matches!(answers[2].body, ResponseBody::Stats(_)));
    assert!(matches!(
        &answers[3].body,
        ResponseBody::Error(err) if err.code == ErrorCode::UnknownTable
    ));
    handle.shutdown();
}

#[test]
fn opposing_multi_table_batches_and_single_explains_all_complete() {
    // Batches naming two single-token tables in both orders, while single
    // explains keep both tables busy: every request must be admitted and
    // answered — no deadlock between the batches, no starvation of them.
    let config = ServerConfig {
        per_table_tokens: 1,
        ..ServerConfig::default()
    };
    let domains = wtq_dataset::all_domains();
    let mut rng = ChaCha8Rng::seed_from_u64(20190417);
    let a = wtq_dataset::tablegen::generate_table_with_rows(&domains[0], 0, 300, &mut rng);
    let b = wtq_dataset::tablegen::generate_table_with_rows(&domains[1], 1, 300, &mut rng);
    assert_ne!(a.fingerprint(), b.fingerprint(), "two admission keys");
    let questions = |table: &Table, rng: &mut ChaCha8Rng| -> Vec<ExplainBody> {
        wtq_dataset::generate_questions(table, 16, rng)
            .iter()
            .map(|question| explain_body(&question.question, table.name(), Some(2)))
            .collect()
    };
    let (a_questions, b_questions) = (questions(&a, &mut rng), questions(&b, &mut rng));
    let (_engine, _catalog, handle) = serving_stack(config, vec![a, b]);
    let addr = handle.local_addr();
    let deadline = Instant::now() + Duration::from_secs(180);
    let batches_done = std::sync::atomic::AtomicBool::new(false);

    std::thread::scope(|scope| {
        let (a_questions, b_questions, batches_done) = (&a_questions, &b_questions, &batches_done);
        let batchers: Vec<_> = (0..2)
            .map(|client| {
                scope.spawn(move || {
                    let mut connection = Client::connect(addr).expect("batch client connects");
                    for round in 0..3 {
                        let index = client * 3 + round;
                        let (a, b) = (a_questions[index].clone(), b_questions[index].clone());
                        let batch = if (client + round) % 2 == 0 {
                            vec![a, b]
                        } else {
                            vec![b, a]
                        };
                        let explanations = connection.explain_batch(batch).expect("batch succeeds");
                        assert_eq!(explanations.len(), 2);
                        assert!(Instant::now() < deadline, "batches missed the deadline");
                    }
                })
            })
            .collect();
        for questions in [a_questions, b_questions] {
            scope.spawn(move || {
                let mut connection = Client::connect(addr).expect("single client connects");
                let mut index = 6;
                while !batches_done.load(std::sync::atomic::Ordering::Acquire) {
                    let request = &questions[index % questions.len()];
                    connection
                        .explain(&request.question, &request.table, request.top_k)
                        .expect("single explain succeeds");
                    assert!(Instant::now() < deadline, "singles missed the deadline");
                    index += 1;
                }
            });
        }
        for batcher in batchers {
            batcher.join().expect("batch client clean");
        }
        batches_done.store(true, std::sync::atomic::Ordering::Release);
    });

    let stats = handle.stats();
    for reason in ["overload", "table_busy"] {
        let series = format!("wtq_server_rejected_total{{reason=\"{reason}\"}}");
        assert_eq!(stat(&stats, &series), 0.0, "{series}");
    }
    assert_eq!(stat(&stats, "wtq_server_in_flight"), 0.0);
    handle.shutdown();
}

#[test]
fn a_request_queued_past_the_admission_timeout_is_rejected_unevaluated() {
    // The timeout sits well below the batch's run time (~145 ms in release
    // on a 2-vCPU machine), so the second request expires while the batch
    // still holds the token.
    let config = ServerConfig {
        per_table_tokens: 1,
        admission_timeout_ms: 20,
        retry_after_ms: 33,
        ..ServerConfig::default()
    };
    let big = big_table(1000);
    let big_name = big.name().to_string();
    let (engine, _catalog, handle) = serving_stack(config, vec![big]);
    let addr = handle.local_addr();

    // A slow batch holds the big table's only token...
    let batch = big_batch(1000, 17, 64);
    let mut distinct: Vec<&str> = batch.iter().map(|item| item.question.as_str()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let distinct = distinct.len() as u64;
    let batch_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("batch client connects");
        client
            .explain_batch(batch)
            .expect("the slow batch succeeds")
    });
    await_in_flight(&handle, 1.0);

    // ... so a second big-table request waits past its admission timeout
    // and is rejected with the retry hint, while the batch still runs.
    let mut client = Client::connect(addr).unwrap();
    match client.explain("How many rows are there?", &big_name, Some(2)) {
        Err(ClientError::Server(err)) => {
            assert_eq!(err.code, ErrorCode::Overloaded);
            assert_eq!(err.retry_after_ms, Some(33));
            assert!(
                err.message.contains("admission_timeout_ms"),
                "{}",
                err.message
            );
        }
        other => panic!("expected an admission-timeout rejection, got {other:?}"),
    }
    assert!(
        stat(&handle.stats(), "wtq_server_in_flight") > 0.0,
        "the batch finished before the timeout fired; grow it if this flakes"
    );
    let table_busy = r#"wtq_server_rejected_total{reason="table_busy"}"#;
    assert_eq!(stat(&handle.stats(), table_busy), 1.0);

    assert_eq!(batch_thread.join().expect("batch thread clean").len(), 64);
    // The rejected request was never evaluated: the engine served exactly
    // the batch's questions.
    let metrics = engine.metrics();
    assert_eq!(metrics.batches_served.get(), 1);
    assert_eq!(metrics.questions_served.get(), distinct);
    handle.shutdown();
}

#[test]
fn shutdown_with_queued_work_returns_promptly() {
    let config = ServerConfig {
        per_table_tokens: 1,
        ..ServerConfig::default()
    };
    let big = big_table(1000);
    let big_name = big.name().to_string();
    let (_engine, _catalog, handle) = serving_stack(config, vec![big]);
    let addr = handle.local_addr();

    // A slow batch holds the big table's only token; a second request
    // queues behind it.
    let batch = big_batch(1000, 19, 64);
    let batch_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("batch client connects");
        let _ = client.explain_batch(batch);
    });
    await_in_flight(&handle, 1.0);
    let queued = std::thread::spawn(move || {
        let options = ConnectOptions {
            read_timeout: Some(Duration::from_secs(60)),
            ..ConnectOptions::default()
        };
        let mut client = Client::connect_with(addr, options).expect("queued client connects");
        let result = client.explain("How many rows are there?", &big_name, Some(2));
        (result, Instant::now())
    });
    await_in_flight(&handle, 2.0);

    let started = Instant::now();
    handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown took {:?}",
        started.elapsed()
    );
    let (result, answered) = queued.join().expect("queued client clean");
    assert!(
        result.is_err(),
        "the queued request must not succeed: {result:?}"
    );
    assert!(
        answered.saturating_duration_since(started) < Duration::from_secs(10),
        "the queued client hung until its read timeout"
    );
    batch_thread.join().expect("batch thread clean");
}

/// Attempts of [`batch_items_join_single_flights`], each on a fresh server
/// over a table twice as large as the last.
const SINGLE_FLIGHT_ATTEMPTS: usize = 4;

#[test]
fn batch_items_join_single_flights() {
    // A single explain on the big table leads its flight; a batch asking
    // the same question in another phrasing, while that flight runs,
    // collapses onto it instead of executing the question again. How long
    // the flight runs depends on how fast the engine parses, so an attempt
    // counts only if the batch item found the flight still running: an
    // item that arrives after the leader finished is answered from the
    // cache, and nothing else in the attempt counts a cache hit. Otherwise
    // the next attempt starts a fresh server over a table twice as large.
    let collapsed = r#"wtq_answer_cache_ops_total{op="collapsed"}"#;
    let hits = r#"wtq_answer_cache_ops_total{op="hit"}"#;
    for attempt in 0..SINGLE_FLIGHT_ATTEMPTS {
        let big = big_table(1000 << attempt);
        let big_name = big.name().to_string();
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let question = wtq_dataset::generate_questions(&big, 1, &mut rng)
            .remove(0)
            .question;
        let (engine, _catalog, handle) = serving_stack(ServerConfig::default(), vec![big]);
        let addr = handle.local_addr();
        let single = {
            let (question, big_name) = (question.clone(), big_name.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("single client connects");
                client
                    .explain(&question, &big_name, Some(2))
                    .expect("the single explain succeeds")
            })
        };
        // A flight shorter than this thread's time slice may come and go
        // unseen; its batch item then hits the cache like any late one.
        let deadline = Instant::now() + Duration::from_secs(60);
        while engine.metrics().in_flight.get() < 1 && !single.is_finished() {
            assert!(Instant::now() < deadline, "the single explain never ran");
            std::thread::yield_now();
        }

        let before = stat(&handle.stats(), collapsed);
        let hits_before = stat(&handle.stats(), hits);
        let variant = format!("  {}  ", question.to_ascii_uppercase());
        let batch = vec![
            explain_body(&variant, &big_name, Some(2)),
            explain_body("Which city hosted in 2008?", "olympics", None),
        ];
        let mut client = Client::connect(addr).unwrap();
        let explanations = client.explain_batch(batch).expect("the batch succeeds");
        let single = single.join().expect("single client clean");
        if stat(&handle.stats(), hits) > hits_before {
            handle.shutdown();
            continue;
        }
        assert_eq!(stat(&handle.stats(), collapsed) - before, 1.0);
        // The single explain's question and the batch's other one: the
        // collapsed item executed nothing and carries the leader's answer.
        assert_eq!(engine.metrics().questions_served.get(), 2);
        assert_eq!(
            serde_json::to_string(&explanations[0].candidates).unwrap(),
            serde_json::to_string(&single.candidates).unwrap()
        );
        handle.shutdown();
        return;
    }
    panic!("no batch item found the flight running in {SINGLE_FLIGHT_ATTEMPTS} attempts");
}
