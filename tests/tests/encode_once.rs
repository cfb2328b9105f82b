//! Encode-once serving proofs: responses assembled by splicing the
//! cached candidate bytes into the envelope are byte-identical — on the
//! wire, not just semantically — to a reference rebuilt in process:
//! `serde_json` of the envelope around
//! [`WireExplanation::from_candidates`] of a direct engine call. Checked
//! end-to-end over both protocols:
//!
//! * the framed TCP protocol: raw response frames (length prefix
//!   included) from a cache miss and a cache hit both equal the framed
//!   reference, and
//! * the HTTP adapter: `POST /explain` bodies from a miss and a hit both
//!   equal the reference body, with a `Content-Length` that matches.
//!
//! Questions cover the JSON escaper's interesting surface (quotes,
//! backslashes, non-ASCII) since the splice path writes the question and
//! table echoes through a hand-rolled escaper.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use wtq_core::Engine;
use wtq_server::wire::{self, encode_frame};
use wtq_server::{
    ExplainBody, RequestBody, RequestEnvelope, ResponseBody, ResponseEnvelope, Server,
    ServerConfig, ServerHandle, WireExplanation, PROTOCOL_VERSION,
};
use wtq_table::{samples, Catalog};

fn catalog() -> Arc<Catalog> {
    Arc::new(
        [samples::olympics(), samples::medals()]
            .into_iter()
            .collect(),
    )
}

fn serving_stack() -> ServerHandle {
    let engine = Arc::new(Engine::new());
    Server::bind("127.0.0.1:0", engine, catalog(), ServerConfig::default())
        .expect("bind loopback server")
}

/// The reference response body, rebuilt in process from a direct engine
/// call: what every spliced response must equal byte for byte.
fn rebuilt(engine: &Engine, question: &str, table: &str, top_k: Option<usize>) -> ResponseBody {
    let catalog = catalog();
    let table_data = catalog.get(table).expect("case table registered");
    let top_k = top_k.unwrap_or(engine.config().top_k);
    let candidates = engine.explain_question(question, table_data, top_k);
    ResponseBody::Explanation(WireExplanation::from_candidates(
        question,
        table,
        &candidates,
        table_data,
    ))
}

/// One framed explain round-trip; returns the raw response frame,
/// length prefix included.
fn framed_explain(
    addr: SocketAddr,
    id: u64,
    question: &str,
    table: &str,
    top_k: Option<usize>,
) -> Vec<u8> {
    let request = RequestEnvelope {
        v: PROTOCOL_VERSION,
        id,
        body: RequestBody::Explain(ExplainBody {
            question: question.to_string(),
            table: table.to_string(),
            top_k,
        }),
    };
    let payload = serde_json::to_string(&request).unwrap().into_bytes();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&encode_frame(&payload).unwrap()).unwrap();

    let mut frame = vec![0u8; 4];
    stream.read_exact(&mut frame).unwrap();
    let len = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    frame.resize(4 + len, 0);
    stream.read_exact(&mut frame[4..]).unwrap();
    frame
}

/// One `POST /explain` round-trip; returns the full raw HTTP response
/// (status line, headers and body — the adapter closes per request, so
/// read-to-EOF captures exactly one response).
fn http_explain(addr: SocketAddr, question: &str, table: &str, top_k: Option<usize>) -> Vec<u8> {
    let body = serde_json::to_string(&ExplainBody {
        question: question.to_string(),
        table: table.to_string(),
        top_k,
    })
    .unwrap();
    let request = format!(
        "POST /explain HTTP/1.1\r\nHost: wtq\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    response
}

/// Escaper-stressing request shapes next to the plain ones. Every case
/// must produce candidates or an unknown-table-free explanation — the
/// point is the bytes, not the answers.
const CASES: [(&str, &str, Option<usize>); 4] = [
    (
        "Greece held its last Olympics in what year?",
        "olympics",
        Some(7),
    ),
    ("Which city hosted in 2008?", "olympics", None),
    (
        "What is the difference in Total between Fiji and Tonga?",
        "medals",
        Some(5),
    ),
    // Quotes, backslash, tab and non-ASCII flow through the hand-rolled
    // escaper on the splice path and through serde on the rebuild path.
    (
        "what \"year\" did \\ Athens\thost — 表🙂?",
        "olympics",
        Some(3),
    ),
];

#[test]
fn framed_responses_are_byte_identical_across_miss_hit_and_rebuild() {
    let spliced = serving_stack();
    let engine = Engine::new();

    for (i, (question, table, top_k)) in CASES.into_iter().enumerate() {
        let id = 1000 + i as u64;
        let miss = framed_explain(spliced.local_addr(), id, question, table, top_k);
        let hit = framed_explain(spliced.local_addr(), id, question, table, top_k);
        let envelope = ResponseEnvelope {
            v: PROTOCOL_VERSION,
            id,
            body: rebuilt(&engine, question, table, top_k),
        };
        let reference = encode_frame(serde_json::to_string(&envelope).unwrap().as_bytes()).unwrap();
        assert_eq!(miss, hit, "miss vs hit frame for {question:?}");
        assert_eq!(miss, reference, "spliced vs rebuilt frame for {question:?}");

        // The frame is not just stable — it is a well-formed envelope with
        // a real explanation inside.
        let envelope: ResponseEnvelope =
            serde_json::from_str(std::str::from_utf8(&miss[4..]).unwrap()).unwrap();
        assert_eq!(envelope.id, id);
        match envelope.body {
            ResponseBody::Explanation(explanation) => {
                assert_eq!(explanation.question, question);
                assert_eq!(explanation.table, table);
                assert!(explanation.error.is_none());
            }
            other => panic!("expected an explanation, got {other:?}"),
        }
    }
    spliced.shutdown();
}

#[test]
fn http_responses_are_byte_identical_across_miss_hit_and_rebuild() {
    let spliced = serving_stack();
    let engine = Engine::new();

    for (question, table, top_k) in CASES {
        let miss = http_explain(spliced.local_addr(), question, table, top_k);
        let hit = http_explain(spliced.local_addr(), question, table, top_k);
        assert_eq!(miss, hit, "miss vs hit response for {question:?}");
        let reference = serde_json::to_string(&rebuilt(&engine, question, table, top_k)).unwrap();

        let text = String::from_utf8(miss).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        let body = text.split("\r\n\r\n").nth(1).expect("a body after headers");
        assert_eq!(body, reference, "spliced vs rebuilt body for {question:?}");
        let content_length: usize = text
            .lines()
            .find_map(|line| line.strip_prefix("Content-Length: "))
            .expect("a Content-Length header")
            .trim()
            .parse()
            .unwrap();
        assert_eq!(content_length, reference.len());
    }
    spliced.shutdown();
}

#[test]
fn spliced_frames_match_the_reference_serialization_shape() {
    // The spliced frame must equal `encode_frame(serde_json(envelope))` of
    // the envelope it decodes to — i.e. splicing introduced no alternate
    // JSON spelling (key order, number formatting, escaping).
    let spliced = serving_stack();
    for (i, (question, table, top_k)) in CASES.into_iter().enumerate() {
        let frame = framed_explain(spliced.local_addr(), 7 + i as u64, question, table, top_k);
        let envelope: ResponseEnvelope =
            serde_json::from_str(std::str::from_utf8(&frame[4..]).unwrap()).unwrap();
        let reencoded =
            wire::encode_frame(serde_json::to_string(&envelope).unwrap().as_bytes()).unwrap();
        assert_eq!(frame, reencoded, "round-trip for {question:?}");
    }
    spliced.shutdown();
}
