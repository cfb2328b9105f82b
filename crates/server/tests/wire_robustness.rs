//! Wire-format robustness: malformed JSON, oversized frames, truncated
//! prefixes, unknown protocol versions and outright random bytes must all
//! produce structured errors (or a clean connection drop) — and must never
//! kill the accept loop.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use wtq_core::Engine;
use wtq_server::{
    wire, Client, ErrorCode, RequestBody, ResponseBody, ResponseEnvelope, Server, ServerConfig,
    ServerHandle,
};
use wtq_table::{samples, Catalog};

/// Boot a loopback server over the sample tables.
fn boot(config: ServerConfig) -> ServerHandle {
    let engine = Arc::new(Engine::new());
    let catalog: Arc<Catalog> = Arc::new(
        [samples::olympics(), samples::medals()]
            .into_iter()
            .collect(),
    );
    Server::bind("127.0.0.1:0", engine, catalog, config).expect("bind loopback")
}

/// Send one raw frame and read one response envelope off the same stream.
fn roundtrip_raw(stream: &mut TcpStream, payload: &[u8]) -> ResponseEnvelope {
    wire::write_frame(stream, payload).expect("write frame");
    let response = wire::read_frame(stream, wire::DEFAULT_MAX_FRAME_LEN).expect("read frame");
    let text = std::str::from_utf8(&response).expect("UTF-8 response");
    serde_json::from_str(text).expect("response envelope parses")
}

fn error_code(envelope: &ResponseEnvelope) -> Option<ErrorCode> {
    match &envelope.body {
        ResponseBody::Error(err) => Some(err.code),
        _ => None,
    }
}

/// The server stays reachable: a fresh connection completes a request.
fn assert_server_alive(handle: &ServerHandle) {
    let mut client = Client::connect(handle.local_addr()).expect("server accepts connections");
    let tables = client.list_tables().expect("list_tables succeeds");
    assert_eq!(tables.len(), 2);
}

#[test]
fn malformed_json_yields_a_structured_error_and_keeps_the_connection() {
    let handle = boot(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let response = roundtrip_raw(&mut stream, b"{this is not json");
    assert_eq!(error_code(&response), Some(ErrorCode::Malformed));

    // The same connection still serves a valid request afterwards.
    let valid = serde_json::to_string(&wtq_server::RequestEnvelope {
        v: wtq_server::PROTOCOL_VERSION,
        id: 9,
        body: RequestBody::ListTables,
    })
    .unwrap();
    let response = roundtrip_raw(&mut stream, valid.as_bytes());
    assert_eq!(response.id, 9);
    assert!(matches!(response.body, ResponseBody::Tables(_)));
    let protocol_errors = handle.stats().get("wtq_server_protocol_errors_total");
    assert!(protocol_errors >= Some(1.0));
    handle.shutdown();
}

#[test]
fn unknown_protocol_version_is_rejected_with_the_request_id() {
    let handle = boot(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = serde_json::to_string(&wtq_server::RequestEnvelope {
        v: 99,
        id: 42,
        body: RequestBody::ListTables,
    })
    .unwrap();
    let response = roundtrip_raw(&mut stream, request.as_bytes());
    assert_eq!(response.id, 42);
    assert_eq!(error_code(&response), Some(ErrorCode::UnsupportedVersion));
    assert_server_alive(&handle);
    handle.shutdown();
}

#[test]
fn unknown_body_variant_is_malformed_not_fatal() {
    let handle = boot(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let response = roundtrip_raw(
        &mut stream,
        br#"{"v": 1, "id": 3, "body": {"SelfDestruct": {}}}"#,
    );
    assert_eq!(error_code(&response), Some(ErrorCode::Malformed));
    assert_server_alive(&handle);
    handle.shutdown();
}

#[test]
fn oversized_frame_is_rejected_then_the_connection_closes() {
    let config = ServerConfig {
        max_frame_len: 1024,
        ..ServerConfig::default()
    };
    let handle = boot(config);
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Declare a payload over the limit; send only the prefix.
    stream.write_all(&4096u32.to_be_bytes()).unwrap();
    stream.flush().unwrap();
    let response = wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME_LEN).expect("error frame");
    let envelope: ResponseEnvelope =
        serde_json::from_str(std::str::from_utf8(&response).unwrap()).unwrap();
    assert_eq!(error_code(&envelope), Some(ErrorCode::FrameTooLarge));
    // The stream position is untrustworthy, so the server closes.
    assert!(matches!(
        wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME_LEN),
        Err(wire::FrameError::Closed) | Err(wire::FrameError::Io(_))
    ));
    assert_server_alive(&handle);
    handle.shutdown();
}

#[test]
fn truncated_prefix_drops_the_connection_without_killing_the_server() {
    let handle = boot(ServerConfig::default());
    {
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        // Two bytes of a length prefix, then a hard disconnect.
        stream.write_all(&[0x00, 0x01]).unwrap();
        stream.flush().unwrap();
    }
    {
        // A complete prefix promising a payload that never arrives.
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream.write_all(&64u32.to_be_bytes()).unwrap();
        stream.write_all(&[0xAB; 10]).unwrap();
        stream.flush().unwrap();
    }
    assert_server_alive(&handle);
    handle.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary byte payloads framed correctly: every one draws a
    /// structured response (random bytes never parse as an envelope, so it
    /// is always an error), and the server survives to serve a real client.
    #[test]
    fn random_byte_frames_never_kill_the_accept_loop(payload in proptest::collection::vec(any::<u8>(), 0..200)) {
        let handle = boot(ServerConfig::default());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        wire::write_frame(&mut stream, &payload).unwrap();
        let response = wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME_LEN)
            .expect("a structured response comes back");
        let envelope: ResponseEnvelope =
            serde_json::from_str(std::str::from_utf8(&response).unwrap())
                .expect("response is a valid envelope");
        prop_assert!(error_code(&envelope).is_some());
        drop(stream);
        assert_server_alive(&handle);
        handle.shutdown();
    }

    /// Arbitrary *unframed* byte streams (including ones that sniff as
    /// HTTP-ish garbage) never take the server down.
    #[test]
    fn random_raw_streams_never_kill_the_accept_loop(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let handle = boot(ServerConfig::default());
        {
            let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
            let _ = stream.write_all(&bytes);
            let _ = stream.flush();
        }
        assert_server_alive(&handle);
        handle.shutdown();
    }
}
