//! Observability integration: the `/metrics` scrape and `/trace/recent`
//! ring are trustworthy and stay reachable under pressure.
//!
//! Three acceptance properties of the observability layer:
//!
//! 1. `/metrics` is **well-formed Prometheus text** — every sample line
//!    parses, every family is typed, and counters only ever move up
//!    between scrapes,
//! 2. `/trace/recent` returns **coherent traces under concurrent load** —
//!    monotonic sequence numbers, named stage spans, sane timings,
//! 3. both surfaces are **control-plane**: they answer immediately while
//!    the in-flight queue is saturated, exactly like `Stats`,
//! 4. every number belongs to **one instance**: two engines, two answer
//!    caches or two servers in one process never mix their counts.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wtq_cache::CacheConfig;
use wtq_core::{CachedEngine, Engine};
use wtq_server::{Client, ExplainBody, Server, ServerConfig, ServerHandle};
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

/// A default-configured server over `engine` and the sample tables.
fn serve(engine: &Arc<Engine>) -> ServerHandle {
    let catalog: Arc<Catalog> = Arc::new([samples::olympics()].into_iter().collect());
    Server::bind(
        "127.0.0.1:0",
        engine.clone(),
        catalog,
        ServerConfig::default(),
    )
    .expect("bind loopback server")
}

/// Explain `question` over `olympics` through `handle`, then scrape it.
fn explain_and_scrape(handle: &ServerHandle, question: &str) -> HashMap<String, f64> {
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.explain(question, "olympics", None).unwrap();
    parse_prometheus(&client.metrics().unwrap()).0
}

/// Parse Prometheus text into `(series name with labels) → value`, checking
/// shape along the way: every family carries `# HELP` and `# TYPE` before
/// its first sample, every sample line is `name[{labels}] value` with a
/// parseable value. Returns the samples plus each family's declared type.
fn parse_prometheus(text: &str) -> (HashMap<String, f64>, HashMap<String, String>) {
    let mut samples = HashMap::new();
    let mut types = HashMap::new();
    let mut helped: Vec<String> = Vec::new();
    for line in text.lines() {
        assert!(!line.trim().is_empty(), "no blank lines in the exposition");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let family = rest.split_whitespace().next().expect("family after HELP");
            helped.push(family.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let family = parts.next().expect("family after TYPE");
            let kind = parts.next().expect("type name");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown type {kind} for {family}"
            );
            types.insert(family.to_string(), kind.to_string());
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line}");
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            panic!("unparseable value in line: {line}");
        });
        assert!(value.is_finite(), "non-finite sample: {line}");
        let family = series
            .split('{')
            .next()
            .expect("series name")
            .trim_end_matches("_bucket")
            .trim_end_matches("_sum")
            .trim_end_matches("_count");
        // Histogram series strip back to their family; plain counters and
        // gauges are their own family.
        assert!(
            types.contains_key(family) || types.contains_key(series.split('{').next().unwrap()),
            "sample before its # TYPE: {line}"
        );
        samples.insert(series.to_string(), value);
    }
    for family in types.keys() {
        assert!(
            helped.contains(family),
            "family {family} is typed but has no HELP"
        );
    }
    (samples, types)
}

/// Every family `/metrics` prints under `ServerConfig::default()`, with its
/// label key and the values of its series (`""` when unlabeled): dropping
/// or renaming any of them is a breaking change for scrapers, and a family
/// missing here fails the scrape test.
const FAMILIES: [(&str, &str, &str); 25] = [
    ("wtq_answer_cache_bytes", "", ""),
    ("wtq_answer_cache_entries", "", ""),
    ("wtq_answer_cache_evictions_total", "reason", "lru"),
    (
        "wtq_answer_cache_ops_total",
        "op",
        "hit miss collapsed insertion",
    ),
    ("wtq_engine_batches_served_total", "", ""),
    ("wtq_engine_in_flight", "", ""),
    ("wtq_engine_questions_served_total", "", ""),
    ("wtq_parse_stage_duration_seconds", "stage", PARSE_STAGES),
    ("wtq_request_duration_seconds", "", ""),
    (
        "wtq_request_stage_duration_seconds",
        "stage",
        REQUEST_STAGES,
    ),
    ("wtq_server_connections_total", "", ""),
    ("wtq_server_dispatch_threads", "", ""),
    ("wtq_server_encode_failures_total", "", ""),
    ("wtq_server_endpoint_requests_total", "endpoint", ENDPOINTS),
    ("wtq_server_http_requests_total", "", ""),
    ("wtq_server_in_flight", "", ""),
    ("wtq_server_open_connections", "", ""),
    ("wtq_server_protocol_errors_total", "", ""),
    ("wtq_server_reactor_queue_depth", "", ""),
    ("wtq_server_reactor_threads", "", ""),
    ("wtq_server_rejected_total", "reason", "overload table_busy"),
    ("wtq_server_requests_total", "", ""),
    ("wtq_server_tables", "", ""),
    ("wtq_server_uptime_seconds", "", ""),
    ("wtq_traces_sampled_total", "", ""),
];
const PARSE_STAGES: &str = "tokenize lexicon candidates eval features score";
const REQUEST_STAGES: &str = "decode queue_wait cache_probe admission_wait eval encode";
const ENDPOINTS: &str = "explain explain_batch stats tables metrics trace";

#[test]
fn metrics_scrape_is_well_formed_and_counters_are_monotonic() {
    let (_engine, _catalog, handle) = serving_stack(ServerConfig::default(), Vec::new());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    client
        .explain("Which city hosted in 2008?", "olympics", None)
        .unwrap();
    let first = client.metrics().unwrap();
    let (before, types) = parse_prometheus(&first);
    // The request histogram holds the explain but not the scrape, which
    // renders before its own observation closes; the scrape's decode is
    // already observed (before dispatch), and the explain's eval is.
    let request_count = "wtq_request_duration_seconds_count";
    let decode = r#"wtq_request_stage_duration_seconds_count{stage="decode"}"#;
    let eval = r#"wtq_request_stage_duration_seconds_count{stage="eval"}"#;
    assert_eq!(before[request_count], 1.0);
    assert_eq!(before[decode], 2.0);
    assert_eq!(before[eval], 1.0);

    // One registry covers every layer: server, engine, parser stages,
    // caches — exactly the listed families, each with every one of its
    // series.
    let mut printed: Vec<&str> = types.keys().map(String::as_str).collect();
    printed.sort_unstable();
    let listed: Vec<&str> = FAMILIES.iter().map(|(family, _, _)| *family).collect();
    assert_eq!(printed, listed, "/metrics prints exactly FAMILIES");
    for (family, key, values) in FAMILIES {
        let kind = types
            .get(family)
            .unwrap_or_else(|| panic!("missing {family}"));
        let name = match kind.as_str() {
            "histogram" => format!("{family}_count"),
            _ => family.to_string(),
        };
        let series: Vec<String> = match key {
            "" => vec![name],
            _ => values
                .split(' ')
                .map(|value| format!("{name}{{{key}=\"{value}\"}}"))
                .collect(),
        };
        for series in series {
            assert!(before.contains_key(&series), "missing series {series}");
        }
    }

    // Drive more traffic, scrape again: counter-typed series never move
    // backwards, and the request counters moved forward by the exact count.
    for _ in 0..3 {
        client
            .explain(
                "In what year did France hold the Olympics?",
                "olympics",
                None,
            )
            .unwrap();
    }
    let second = client.metrics().unwrap();
    let (after, _) = parse_prometheus(&second);
    for (series, value) in &before {
        let family = series.split('{').next().unwrap();
        let base = family
            .trim_end_matches("_bucket")
            .trim_end_matches("_sum")
            .trim_end_matches("_count");
        let is_counter = types.get(family).map(String::as_str) == Some("counter")
            || types.get(base).map(String::as_str) == Some("histogram");
        if !is_counter {
            continue;
        }
        let now = after
            .get(series)
            .unwrap_or_else(|| panic!("series {series} vanished between scrapes"));
        assert!(
            now >= value,
            "counter {series} moved backwards: {value} -> {now}"
        );
    }
    assert_eq!(
        after["wtq_server_endpoint_requests_total{endpoint=\"explain\"}"]
            - before["wtq_server_endpoint_requests_total{endpoint=\"explain\"}"],
        3.0
    );
    assert_eq!(
        after["wtq_server_endpoint_requests_total{endpoint=\"metrics\"}"],
        2.0
    );
    // The three repeats were answer-cache hits: the engine executed two
    // distinct questions and the cache absorbed the rest.
    assert!(after["wtq_engine_questions_served_total"] >= 2.0);
    assert!(after["wtq_answer_cache_ops_total{op=\"hit\"}"] >= 2.0);
    // Five requests closed before the second scrape: the first explain,
    // the first scrape and the three new explains; decode also counts the
    // second scrape itself, and only the two executed questions reached
    // eval.
    assert_eq!(after[request_count], 5.0);
    assert_eq!(after[decode], 6.0);
    assert_eq!(after[eval], 2.0);
    // The request histogram's buckets are cumulative: non-decreasing in
    // `le`, ending at `+Inf` with every observation.
    let mut buckets: Vec<(f64, f64)> = after
        .iter()
        .filter_map(|(series, &count)| {
            let le = series
                .strip_prefix("wtq_request_duration_seconds_bucket{le=\"")?
                .strip_suffix("\"}")?;
            Some((le.parse::<f64>().expect("`le` is a number or +Inf"), count))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    assert!(
        buckets.windows(2).all(|pair| pair[0].1 <= pair[1].1),
        "{buckets:?}"
    );
    assert_eq!(buckets.last(), Some(&(f64::INFINITY, 5.0)));
    handle.shutdown();
}

#[test]
fn trace_recent_is_coherent_under_concurrent_load() {
    let config = ServerConfig {
        trace_sample_rate: 1.0,
        ..ServerConfig::default()
    };
    let (_engine, _catalog, handle) = serving_stack(config, Vec::new());
    let addr = handle.local_addr();

    // Four clients hammer explains while a poller reads the ring mid-load;
    // every poll must return a well-formed snapshot, not just the last one.
    std::thread::scope(|scope| {
        for worker in 0..4 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("load client connects");
                for round in 0..6 {
                    let question = if (worker + round) % 2 == 0 {
                        "Which city hosted in 2008?"
                    } else {
                        "In what year did France hold the Olympics?"
                    };
                    client
                        .explain(question, "olympics", Some(2))
                        .expect("load request succeeds");
                }
            });
        }
        scope.spawn(move || {
            let mut client = Client::connect(addr).expect("poll client connects");
            for _ in 0..5 {
                let body = client.trace_recent().expect("poll succeeds under load");
                for trace in body.recent.iter().chain(&body.slowest) {
                    assert!(!trace.endpoint.is_empty(), "{trace:?}");
                    assert!(trace.total_us > 0.0, "{trace:?}");
                }
            }
        });
    });

    let mut client = Client::connect(addr).unwrap();
    let body = client.trace_recent().unwrap();
    assert_eq!(body.sample_period, 1);
    assert!(body.sampled >= 24, "{}", body.sampled);
    // Both rings hold every finished load request (the 24 explains and the
    // polls): none was lost, and the rings (128 each) did not fill.
    assert!(body.recent.len() >= 24, "{}", body.recent.len());
    assert!(body.slowest.len() >= 24, "{}", body.slowest.len());

    // Recent ring: ordered by finish time (not seq — concurrent requests
    // finish out of start order), with each sample number appearing once.
    let mut seqs: Vec<u64> = body.recent.iter().map(|trace| trace.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), body.recent.len(), "duplicate seq in the ring");
    // Slowest ring: ascending by total duration.
    for pair in body.slowest.windows(2) {
        assert!(pair[0].total_us <= pair[1].total_us, "{pair:?}");
    }
    // Every explain trace carries the common stage spans; with only two
    // distinct questions most executions are answer-cache hits, whose
    // traces legitimately stop at cache_probe. Pick a cache-miss trace
    // (one that reached eval) for the full pipeline assertion.
    for trace in body.recent.iter().filter(|t| t.endpoint == "explain") {
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        for stage in ["decode", "queue_wait", "cache_probe", "encode"] {
            assert!(names.contains(&stage), "missing {stage}: {names:?}");
        }
    }
    let explain = body
        .recent
        .iter()
        .find(|trace| trace.endpoint == "explain" && trace.spans.iter().any(|s| s.name == "eval"))
        .expect("a cache-miss explain trace in the ring");
    assert_eq!(explain.status, "ok", "{explain:?}");
    assert!(explain.detail.contains("olympics"), "{explain:?}");
    let span_names: Vec<&str> = explain
        .spans
        .iter()
        .map(|span| span.name.as_str())
        .collect();
    for stage in [
        "decode",
        "queue_wait",
        "cache_probe",
        "admission_wait",
        "eval",
        "encode",
    ] {
        assert!(
            span_names.contains(&stage),
            "missing {stage}: {span_names:?}"
        );
    }
    for span in &explain.spans {
        assert!(span.start_us >= 0.0, "{span:?}");
        assert!(
            span.start_us + span.duration_us <= explain.total_us * 1.5 + 1.0,
            "span past the request end: {span:?} vs total {}",
            explain.total_us
        );
    }
    handle.shutdown();
}

#[test]
fn batch_traces_carry_spans_per_executed_question() {
    // Each missing question of a batch runs as its own scheduler job, so
    // the batch's trace carries each one's admission wait, eval and parse
    // stages, all inside the request.
    let config = ServerConfig {
        trace_sample_rate: 1.0,
        ..ServerConfig::default()
    };
    let (_engine, _catalog, handle) = serving_stack(config, Vec::new());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let item = |question: &str, table: &str| ExplainBody {
        question: question.to_string(),
        table: table.to_string(),
        top_k: Some(2),
    };
    let batch = vec![
        item("Which city hosted in 2008?", "olympics"),
        item("total Gold of Fiji?", "medals"),
    ];
    assert_eq!(
        client.explain_batch(batch).expect("the batch runs").len(),
        2
    );

    let body = client.trace_recent().unwrap();
    let trace = body
        .recent
        .iter()
        .find(|trace| trace.endpoint == "explain_batch")
        .expect("the batch's trace");
    assert_eq!(trace.status, "ok", "{trace:?}");
    // A stage's spans: `stage` itself, or its `stage:` sub-spans.
    let spans = |stage: &str| -> Vec<_> {
        let prefix = format!("{stage}:");
        (trace.spans.iter())
            .filter(|span| span.name == stage || span.name.starts_with(&prefix))
            .collect()
    };
    let (admission, eval, parse) = (spans("admission_wait"), spans("eval"), spans("parse"));
    assert_eq!(admission.len(), 2, "{trace:?}");
    assert_eq!(eval.len(), 2, "{trace:?}");
    assert_eq!(parse.len(), 12, "{trace:?}");
    for span in admission.into_iter().chain(eval).chain(parse) {
        assert!(span.start_us >= 0.0, "{span:?}");
        assert!(
            span.start_us + span.duration_us <= trace.total_us,
            "span past the request end: {span:?} vs total {}",
            trace.total_us
        );
    }
    handle.shutdown();
}

/// Speak minimal HTTP/1.1 against the same port; returns status, headers
/// and body.
fn http_request(addr: std::net::SocketAddr, request: &str) -> (u16, String, String) {
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
    let (head, body) = response
        .split_once("\r\n\r\n")
        .map(|(head, body)| (head.to_string(), body.to_string()))
        .unwrap_or_default();
    (status, head, body)
}

/// Attempts at holding the queue for the saturation test before it gives
/// up: each holds it with a fresh batch twice the size of the last, from 6
/// questions up to 192.
const SATURATION_ATTEMPTS: usize = 6;

#[test]
fn metrics_and_traces_stay_reachable_while_the_queue_is_saturated() {
    // A batch over a big table occupies the single in-flight slot while the
    // control plane is asked for metrics and traces. How long the batch
    // runs depends on how fast the engine parses, so an attempt counts only
    // if the batch still held the slot when the last control-plane round
    // trip had returned (the server's in-flight gauge, read then, is the
    // judge: the server frees the slot before the batch's client reads its
    // response). Otherwise the next attempt holds the queue with twice as
    // many fresh questions; the answer cache keeps nothing, so every batch
    // question needs the engine. A control plane that waited for the queue
    // would see every batch finish first, and the test would fail.
    let config = ServerConfig {
        max_in_flight: 1,
        trace_sample_rate: 1.0,
        cache_capacity: 0,
        ..ServerConfig::default()
    };
    let table = big_table(400);
    let (_engine, _catalog, handle) = serving_stack(config, vec![table.clone()]);
    let addr = handle.local_addr();
    let in_flight = || handle.stats().get("wtq_server_in_flight").expect("gauge");
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for attempt in 0..SATURATION_ATTEMPTS {
        // Occupy the single in-flight slot with a slow batch.
        let questions = wtq_dataset::generate_questions(&table, 6 << attempt, &mut rng);
        let batch: Vec<ExplainBody> = questions
            .iter()
            .map(|question| ExplainBody {
                question: question.question.clone(),
                table: table.name().to_string(),
                top_k: Some(2),
            })
            .collect();
        let answered = Arc::new(AtomicBool::new(false));
        let batch_thread = {
            let answered = answered.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("batch client connects");
                let explanations = client
                    .explain_batch(batch)
                    .expect("the slow batch succeeds");
                answered.store(true, Ordering::SeqCst);
                explanations
            })
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        while in_flight() == 0.0 && !answered.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "batch never became in-flight");
            std::thread::yield_now();
        }

        // Control-plane surfaces, asked while the queue is full — framed…
        let mut client = Client::connect(addr).unwrap();
        let text = client
            .metrics()
            .expect("metrics must bypass the in-flight queue");
        let traces = client
            .trace_recent()
            .expect("trace ring must bypass the in-flight queue");
        // …and over HTTP.
        let scrape = http_request(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        let ring = http_request(addr, "GET /trace/recent HTTP/1.1\r\nHost: x\r\n\r\n");
        // Both surfaces are served requests even under saturation, and the
        // queue itself never admitted them: the batch still holds the slot.
        let held = in_flight() >= 1.0;
        let explanations = batch_thread.join().expect("batch thread clean");
        assert_eq!(explanations.len(), questions.len());
        if !held {
            continue;
        }

        assert!(text.contains("wtq_server_in_flight 1"), "queue not full?");
        assert_eq!(traces.sample_period, 1);
        let (status, head, body) = scrape;
        assert_eq!(status, 200);
        assert!(
            head.contains("text/plain; version=0.0.4"),
            "scrape content type missing:\n{head}"
        );
        assert!(body.contains("# TYPE wtq_request_duration_seconds histogram"));
        let (status, head, body) = ring;
        assert_eq!(status, 200);
        assert!(head.contains("application/json"), "{head}");
        let parsed: wtq_server::ResponseBody =
            serde_json::from_str(&body).expect("JSON trace body");
        assert!(
            matches!(parsed, wtq_server::ResponseBody::TraceRecent(_)),
            "unexpected body"
        );
        handle.shutdown();
        return;
    }
    panic!("no batch outlasted the control-plane round trips in {SATURATION_ATTEMPTS} attempts");
}

#[test]
fn engines_caches_and_servers_in_one_process_keep_their_own_numbers() {
    const QUESTION: &str = "Which city hosted in 2008?";
    let table = samples::olympics();
    let (engine_a, engine_b) = (Arc::new(Engine::new()), Arc::new(Engine::new()));
    let (server_a, server_b) = (serve(&engine_a), serve(&engine_b));
    // Engine A parses twice — one served miss, one direct session parse.
    let _ = engine_a.session(&table).parse(QUESTION);
    let a = explain_and_scrape(&server_a, QUESTION);
    assert_eq!(
        a[r#"wtq_parse_stage_duration_seconds_count{stage="score"}"#],
        2.0
    );
    assert_eq!(a["wtq_engine_questions_served_total"], 1.0);
    // Engine B did nothing, and its series say so.
    let mut client = Client::connect(server_b.local_addr()).unwrap();
    let (b, _) = parse_prometheus(&client.metrics().unwrap());
    let engine_families = ["wtq_parse_", "wtq_engine_"];
    for (series, value) in &b {
        if engine_families
            .iter()
            .any(|prefix| series.starts_with(prefix))
        {
            assert_eq!(*value, 0.0, "{series} leaked from engine A into engine B");
        }
    }

    // Two answer caches over one engine (the traced-replay shape) count
    // their own lookups; the engine counts every execution.
    let caches = [CacheConfig::default(), CacheConfig::default()]
        .map(|config| CachedEngine::new(engine_b.clone(), config));
    for _ in 0..2 {
        caches[0].explain_question(QUESTION, &table, 3);
    }
    caches[1].explain_question(QUESTION, &table, 3);
    let (first, second) = (caches[0].cache().metrics(), caches[1].cache().metrics());
    assert_eq!((first.hits.get(), first.insertions.get()), (1, 1));
    assert_eq!((second.hits.get(), second.insertions.get()), (0, 1));
    assert_eq!(engine_b.metrics().questions_served.get(), 2);

    // Two servers over one engine: server facts are each server's own,
    // engine facts are the shared engine's.
    let server_a2 = serve(&engine_a);
    let a2 = explain_and_scrape(&server_a2, "In what year did France hold the Olympics?");
    let a = parse_prometheus(
        &Client::connect(server_a.local_addr())
            .unwrap()
            .metrics()
            .unwrap(),
    )
    .0;
    assert_eq!(a["wtq_server_requests_total"], 1.0);
    assert_eq!(a2["wtq_server_requests_total"], 1.0);
    assert_eq!(a2[r#"wtq_answer_cache_ops_total{op="insertion"}"#], 1.0);
    assert_eq!(a2["wtq_engine_questions_served_total"], 2.0);
    assert_eq!(a["wtq_engine_questions_served_total"], 2.0);
    for handle in [server_a, server_b, server_a2] {
        handle.shutdown();
    }
}
