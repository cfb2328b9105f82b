//! Slow-writer robustness: many connections dribbling a valid frame one
//! byte at a time must not block other clients — the property the
//! incremental decoders + readiness loop exist for, and one that is
//! *impossible* under blocking `read_exact` with a thread per connection
//! pool bound (each dribbler would pin a thread for the whole dribble).

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use wtq_core::Engine;
use wtq_server::{
    wire, Client, ConnectOptions, RequestBody, ResponseBody, ResponseEnvelope, Server,
    ServerConfig, ServerHandle,
};
use wtq_table::{samples, Catalog};

fn boot(config: ServerConfig) -> ServerHandle {
    let engine = Arc::new(Engine::new());
    let catalog: Arc<Catalog> = Arc::new(
        [samples::olympics(), samples::medals()]
            .into_iter()
            .collect(),
    );
    Server::bind("127.0.0.1:0", engine, catalog, config).expect("bind loopback")
}

/// A valid `ListTables` request as raw frame bytes.
fn list_tables_frame() -> Vec<u8> {
    let envelope = wtq_server::RequestEnvelope {
        v: wtq_server::PROTOCOL_VERSION,
        id: 1,
        body: RequestBody::ListTables,
    };
    let json = serde_json::to_string(&envelope).unwrap();
    wire::encode_frame(json.as_bytes()).unwrap()
}

#[test]
fn slow_loris_writers_do_not_starve_other_clients() {
    let handle = boot(ServerConfig::default());
    let addr = handle.local_addr();
    let frame = list_tables_frame();

    // Many connections, each fed every byte of a valid frame EXCEPT the
    // last — afterwards they all sit mid-frame, deterministically, the
    // exact state a blocking read_exact server would burn one stack each
    // on.
    const LORIS: usize = 32;
    let mut dribblers: Vec<TcpStream> = (0..LORIS)
        .map(|_| TcpStream::connect(addr).expect("loris connects"))
        .collect();
    let (head, last) = frame.split_at(frame.len() - 1);
    for byte in head {
        for stream in &mut dribblers {
            stream.write_all(std::slice::from_ref(byte)).unwrap();
            stream.flush().unwrap();
        }
    }

    // With every dribbler mid-frame, a normal client still completes real
    // work — repeatedly, across both protocols' shared dispatch core.
    let mut client = Client::connect_with(
        addr,
        ConnectOptions {
            connect_timeout: Some(Duration::from_secs(10)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        },
    )
    .expect("normal client connects while dribblers hold their frames");
    for _ in 0..3 {
        let tables = client.list_tables().expect("control plane answers");
        assert_eq!(tables.len(), 2);
    }
    let explanation = client
        .explain("Which city hosted in 2008?", "olympics", Some(2))
        .expect("data plane answers");
    assert!(!explanation.candidates.is_empty());

    // The server really is holding all of them concurrently.
    let open = handle.stats().get("wtq_server_open_connections");
    assert!(
        open >= Some(LORIS as f64),
        "expected ≥{LORIS} open connections, saw {open:?}"
    );

    // Release the last byte: every dribbled frame completes and gets a
    // correct, individually framed response — the decoders resumed exactly
    // where each connection left off.
    for stream in &mut dribblers {
        stream.write_all(last).unwrap();
        stream.flush().unwrap();
    }
    for stream in &mut dribblers {
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let payload =
            wire::read_frame(stream, wire::DEFAULT_MAX_FRAME_LEN).expect("dribbler gets an answer");
        let envelope: ResponseEnvelope =
            serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
        assert_eq!(envelope.id, 1);
        assert!(
            matches!(envelope.body, ResponseBody::Tables(_)),
            "dribbled request must decode to the real request"
        );
    }
    handle.shutdown();
}

#[test]
fn slow_loris_http_request_completes_too() {
    let handle = boot(ServerConfig::default());
    let addr = handle.local_addr();
    let raw = b"GET /tables HTTP/1.1\r\nHost: x\r\n\r\n";

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for byte in raw {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
    }
    use std::io::Read;
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(response.contains("\"olympics\""));
    handle.shutdown();
}

#[test]
fn read_timeout_bounds_a_stalled_connection() {
    // A listener that accepts and then never answers.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || listener.accept());

    let mut client = Client::connect_with(
        addr,
        ConnectOptions {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_millis(100)),
            write_timeout: Some(Duration::from_secs(5)),
        },
    )
    .expect("connect succeeds");
    let started = std::time::Instant::now();
    let outcome = client.list_tables();
    assert!(outcome.is_err(), "a silent server must not hang the client");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the read timeout must bound the wait, took {:?}",
        started.elapsed()
    );
    let _ = hold.join();
}
