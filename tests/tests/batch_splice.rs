//! Batch splicing proofs: `ExplainBatch` responses, whose items splice
//! each cached candidates body behind a directly written head, are
//! byte-identical on the wire to a reference rebuilt in process:
//! `serde_json` of `ResponseBody::Batch` around
//! [`WireExplanation::from_explanation`] of each item of
//! [`Engine::explain_batch`]. Checked over both protocols:
//!
//! * the framed TCP protocol: raw response frames, length prefix
//!   included, and
//! * the HTTP adapter: raw `POST /explain_batch` responses, status line
//!   and `Content-Length` included.
//!
//! One script of batches runs against a fresh server per protocol: all
//! misses, the same batch again as all hits (answered on the reactor,
//! never admitted to the scheduler), a mix of hits, misses, an unknown
//! table and one question in two phrasings, and unknown tables alone.
//! Question and table text covers the JSON escaper's interesting surface,
//! since the splice path writes the echoes and error messages through a
//! hand-rolled escaper.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use wtq_core::{Engine, ExplainRequest};
use wtq_server::wire::encode_frame;
use wtq_server::{
    ExplainBatchBody, ExplainBody, RequestBody, RequestEnvelope, ResponseBody, ResponseEnvelope,
    Server, ServerConfig, WireBatch, WireExplanation, PROTOCOL_VERSION,
};
use wtq_table::{samples, Catalog};

/// One batch item: question, table name and top-k.
type Item = (&'static str, &'static str, Option<usize>);

const GREECE: Item = (
    "Greece held its last Olympics in what year?",
    "olympics",
    Some(7),
);
const CITY: Item = ("Which city hosted in 2008?", "olympics", None);
/// [`CITY`] in another phrasing, which normalizes to the same cache key.
const CITY_VARIANT: Item = ("  which CITY hosted in 2008  ", "olympics", None);
const TOTAL: Item = (
    "What is the difference in Total between Fiji and Tonga?",
    "medals",
    Some(5),
);
const FIJI: Item = ("total Gold of Fiji?", "medals", Some(2));
/// Quotes, backslash, tab, newline, a control character and non-ASCII.
const ESCAPED: Item = (
    "what \"year\" did \\ Athens\thost\n— 表🙂\u{1}?",
    "olympics",
    Some(3),
);
/// A table the catalog lacks, its name echoed in the item's error.
const UNKNOWN: Item = ("anything", "no \"such\"\\ table\t表", None);

/// One step of the script: what it covers, its items, the cache hits its
/// plan counts and whether it reaches the scheduler.
struct Step {
    case: &'static str,
    items: &'static [Item],
    hits: u32,
    admitted: bool,
}

const SCRIPT: [Step; 4] = [
    Step {
        case: "all miss",
        items: &[GREECE, TOTAL, ESCAPED],
        hits: 0,
        admitted: true,
    },
    Step {
        case: "all hit",
        items: &[GREECE, TOTAL, ESCAPED],
        hits: 3,
        admitted: false,
    },
    Step {
        case: "mixed, with duplicate phrasings and an unknown table",
        items: &[CITY, GREECE, UNKNOWN, CITY_VARIANT, FIJI],
        hits: 1,
        admitted: true,
    },
    Step {
        case: "unknown tables only",
        items: &[UNKNOWN, UNKNOWN],
        hits: 0,
        admitted: false,
    },
];

const HITS: &str = r#"wtq_answer_cache_ops_total{op="hit"}"#;
const ADMITTED: &str = r#"wtq_request_stage_duration_seconds_count{stage="admission_wait"}"#;

fn catalog() -> Catalog {
    [samples::olympics(), samples::medals()]
        .into_iter()
        .collect()
}

fn batch(items: &[Item]) -> ExplainBatchBody {
    ExplainBatchBody {
        requests: items
            .iter()
            .map(|&(question, table, top_k)| ExplainBody {
                question: question.to_string(),
                table: table.to_string(),
                top_k,
            })
            .collect(),
    }
}

/// The reference response body, rebuilt in process from a direct engine
/// batch: what every spliced batch response must equal byte for byte.
fn rebuilt(engine: &Engine, items: &[Item]) -> ResponseBody {
    let catalog = catalog();
    let requests: Vec<ExplainRequest> = items
        .iter()
        .map(|&(question, table, top_k)| ExplainRequest {
            question: question.to_string(),
            table: table.to_string(),
            top_k,
        })
        .collect();
    let explanations = engine.explain_batch(&catalog, &requests);
    ResponseBody::Batch(WireBatch {
        explanations: explanations
            .iter()
            .map(|explanation| {
                WireExplanation::from_explanation(explanation, catalog.get(&explanation.table))
            })
            .collect(),
    })
}

/// One framed batch round-trip, checked against the reference frame.
fn framed_exchange(addr: SocketAddr, id: u64, items: &[Item], reference: ResponseBody) {
    let request = RequestEnvelope {
        v: PROTOCOL_VERSION,
        id,
        body: RequestBody::ExplainBatch(batch(items)),
    };
    let payload = serde_json::to_string(&request).unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(&encode_frame(payload.as_bytes()).unwrap())
        .unwrap();
    let mut frame = vec![0u8; 4];
    stream.read_exact(&mut frame).unwrap();
    let len = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    frame.resize(4 + len, 0);
    stream.read_exact(&mut frame[4..]).unwrap();

    let envelope = ResponseEnvelope {
        v: PROTOCOL_VERSION,
        id,
        body: reference,
    };
    let expected = encode_frame(serde_json::to_string(&envelope).unwrap().as_bytes()).unwrap();
    assert_eq!(frame[..4], expected[..4], "length prefix");
    assert_eq!(
        String::from_utf8(frame[4..].to_vec()).unwrap(),
        String::from_utf8(expected[4..].to_vec()).unwrap()
    );
}

/// One `POST /explain_batch` round-trip (the adapter closes per request,
/// so read-to-EOF captures exactly one response), checked whole against
/// the reference response.
fn http_exchange(addr: SocketAddr, _id: u64, items: &[Item], reference: ResponseBody) {
    let body = serde_json::to_string(&batch(items)).unwrap();
    let request = format!(
        "POST /explain_batch HTTP/1.1\r\nHost: wtq\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();

    let json = serde_json::to_string(&reference).unwrap();
    let expected = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{json}",
        json.len()
    );
    assert_eq!(String::from_utf8(response).unwrap(), expected);
}

/// Play [`SCRIPT`] against a fresh server through `exchange`, which sends
/// one batch and checks its raw response against the reference body.
/// Registry deltas confirm which items hit the cache and which batches
/// reached the scheduler.
fn play(exchange: fn(SocketAddr, u64, &[Item], ResponseBody)) {
    let handle = Server::bind(
        "127.0.0.1:0",
        Arc::new(Engine::new()),
        Arc::new(catalog()),
        ServerConfig::default(),
    )
    .expect("bind loopback server");
    let engine = Engine::new();
    for (id, step) in SCRIPT.iter().enumerate() {
        let before = handle.stats();
        exchange(
            handle.local_addr(),
            100 + id as u64,
            step.items,
            rebuilt(&engine, step.items),
        );
        let after = handle.stats();
        let delta = |series: &str| after.get(series).unwrap() - before.get(series).unwrap();
        assert_eq!(
            delta(HITS),
            f64::from(step.hits),
            "{}: cache hits",
            step.case
        );
        assert_eq!(
            delta(ADMITTED),
            f64::from(u8::from(step.admitted)),
            "{}: admitted to the scheduler",
            step.case
        );
    }
    handle.shutdown();
}

#[test]
fn framed_batches_are_byte_identical_to_the_rebuilt_reference() {
    play(framed_exchange);
}

#[test]
fn http_batches_are_byte_identical_to_the_rebuilt_reference() {
    play(http_exchange);
}
