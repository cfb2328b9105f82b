//! A minimal hand-rolled HTTP/1.1 adapter over the same request core as
//! the framed protocol — parsed *incrementally*, so a connection that
//! dribbles its request one byte at a time costs a little buffered state,
//! never a blocked thread.
//!
//! One request per connection (`Connection: close`), JSON in and out:
//!
//! | route | body | answers with |
//! |---|---|---|
//! | `GET /stats` | — | [`ResponseBody::Stats`] |
//! | `GET /tables` | — | [`ResponseBody::Tables`] |
//! | `GET /metrics` | — | Prometheus exposition text (`text/plain`) |
//! | `GET /trace/recent` | — | [`ResponseBody::TraceRecent`] |
//! | `POST /explain` | [`ExplainBody`](wire::ExplainBody) JSON | [`ResponseBody::Explanation`] |
//! | `POST /explain_batch` | [`ExplainBatchBody`](wire::ExplainBatchBody) JSON | [`ResponseBody::Batch`] |
//!
//! The response body is always the JSON serialization of a
//! [`ResponseBody`] — except `GET /metrics`, which unwraps the rendered
//! registry to raw `text/plain` so Prometheus can scrape it directly — so
//! HTTP clients see exactly the payloads framed clients see; status codes
//! mirror the error codes (429 + `Retry-After` for backpressure, 400 for
//! malformed input, 404 for unknown tables and routes, 413 for oversized
//! bodies, 500 for internal failures).
//!
//! [`HttpParser`] is the read half as a resumable state machine: feed it
//! socket bytes as they arrive and it yields one [`HttpRequest`] when the
//! head and `Content-Length` body are complete, or the [`HttpResponse`]
//! error to answer with (oversized head, bad `Content-Length`, body over
//! the frame limit). The write half is [`response_bytes`]; the lingering
//! close that used to block a thread is the reactor's `Draining` state.

use wtq_core::{BatchItem, ExplainRequest};

use crate::server::Shared;
use crate::wire::{self, ErrorCode, RequestBody, ResponseBody, WireError};

/// Bound on the request head (request line + headers).
const MAX_HEAD_LEN: usize = 16 * 1024;

/// An HTTP-level response: status line pieces plus the body.
#[derive(Debug)]
pub(crate) struct HttpResponse {
    status: u16,
    reason: &'static str,
    retry_after_ms: Option<u64>,
    content_type: &'static str,
    body: String,
}

impl HttpResponse {
    pub(crate) fn from_body(body: &ResponseBody) -> HttpResponse {
        let (status, reason, retry_after_ms) = match body {
            ResponseBody::Error(err) => status_for(err),
            _ => (200, "OK", None),
        };
        // `GET /metrics` unwraps the rendered registry to raw text so
        // a Prometheus scraper needs no JSON decoding.
        if let ResponseBody::Metrics(metrics) = body {
            return HttpResponse {
                status,
                reason,
                retry_after_ms,
                content_type: "text/plain; version=0.0.4",
                body: metrics.text.clone(),
            };
        }
        HttpResponse {
            status,
            reason,
            retry_after_ms,
            content_type: "application/json",
            body: serde_json::to_string(body).unwrap_or_else(|_| "{}".to_string()),
        }
    }

    pub(crate) fn error(code: ErrorCode, message: impl Into<String>) -> HttpResponse {
        HttpResponse::from_body(&ResponseBody::Error(WireError::new(code, message)))
    }

    /// The HTTP status code (the trace records it as the outcome).
    pub(crate) fn status(&self) -> u16 {
        self.status
    }
}

fn status_for(err: &WireError) -> (u16, &'static str, Option<u64>) {
    match err.code {
        ErrorCode::Malformed => (400, "Bad Request", None),
        ErrorCode::UnsupportedVersion => (400, "Bad Request", None),
        ErrorCode::FrameTooLarge => (413, "Payload Too Large", None),
        ErrorCode::BatchTooLarge => (413, "Payload Too Large", None),
        ErrorCode::Overloaded => (429, "Too Many Requests", err.retry_after_ms),
        ErrorCode::UnknownTable => (404, "Not Found", None),
        ErrorCode::Internal => (500, "Internal Server Error", None),
    }
}

/// One fully received request, ready for [`route`].
#[derive(Debug)]
pub(crate) struct HttpRequest {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
}

/// The incremental read half: head accumulation (with a split-terminator
/// scan window), then `Content-Length` body accumulation.
pub(crate) struct HttpParser {
    state: ParserState,
    /// The server's frame limit, bounding the request body.
    max_body: usize,
}

enum ParserState {
    /// Accumulating the head; `scanned` marks how far the `\r\n\r\n` scan
    /// has already looked (re-checking 3 bytes of overlap for a terminator
    /// split across feeds).
    Head { head: Vec<u8>, scanned: usize },
    /// Head parsed; accumulating `content_length` body bytes.
    Body {
        method: String,
        path: String,
        content_length: usize,
        body: Vec<u8>,
    },
    /// A request was produced (one per connection) or an error answered;
    /// further bytes are the peer's leftovers, ignored here and drained by
    /// the reactor's lingering close.
    Done,
}

impl HttpParser {
    /// A parser for one request; `max_body` is the server's frame limit.
    pub(crate) fn new(max_body: usize) -> HttpParser {
        HttpParser {
            state: ParserState::Head {
                head: Vec::with_capacity(256),
                scanned: 0,
            },
            max_body,
        }
    }

    /// Feed socket bytes. `Ok(Some(request))` once the request is
    /// complete, `Ok(None)` while more bytes are needed, `Err(response)`
    /// when the request is unanswerable as asked (oversized head or body,
    /// malformed `Content-Length`) — the connection answers it and closes.
    pub(crate) fn feed(&mut self, input: &[u8]) -> Result<Option<HttpRequest>, HttpResponse> {
        match &mut self.state {
            ParserState::Head { head, scanned } => {
                head.extend_from_slice(input);
                let from = scanned.saturating_sub(3);
                let Some(position) = head[from..]
                    .windows(4)
                    .position(|window| window == b"\r\n\r\n")
                else {
                    *scanned = head.len();
                    if head.len() >= MAX_HEAD_LEN {
                        self.state = ParserState::Done;
                        return Err(HttpResponse::error(
                            ErrorCode::FrameTooLarge,
                            "request head too large",
                        ));
                    }
                    return Ok(None);
                };
                let body_start = from + position + 4;
                let mut head = std::mem::take(head);
                let overread = head.split_off(body_start);
                let (method, path, content_length) = match parse_head(head, self.max_body) {
                    Ok(parsed) => parsed,
                    Err(response) => {
                        self.state = ParserState::Done;
                        return Err(response);
                    }
                };
                let mut body = overread;
                if body.len() > content_length {
                    // More than Content-Length arrived with the head; the
                    // excess is the peer's problem, drained at close.
                    body.truncate(content_length);
                }
                self.state = ParserState::Body {
                    method,
                    path,
                    content_length,
                    body,
                };
                // The body may already be complete (or empty).
                self.feed(&[])
            }
            ParserState::Body {
                method,
                path,
                content_length,
                body,
            } => {
                let want = *content_length - body.len();
                body.extend_from_slice(&input[..input.len().min(want)]);
                if body.len() < *content_length {
                    return Ok(None);
                }
                let request = HttpRequest {
                    method: std::mem::take(method),
                    path: std::mem::take(path),
                    body: std::mem::take(body),
                };
                self.state = ParserState::Done;
                Ok(Some(request))
            }
            ParserState::Done => Ok(None),
        }
    }

    /// The error to answer with when the peer hangs up mid-request —
    /// `None` once the request was already complete.
    pub(crate) fn eof_error(&self) -> Option<HttpResponse> {
        match &self.state {
            ParserState::Head { .. } => Some(HttpResponse::error(
                ErrorCode::Malformed,
                "connection closed mid-head",
            )),
            ParserState::Body { .. } => Some(HttpResponse::error(
                ErrorCode::Malformed,
                "connection closed mid-body",
            )),
            ParserState::Done => None,
        }
    }
}

/// Parse a complete head (request line + headers, including the trailing
/// `\r\n\r\n`) into `(method, path, content_length)`.
fn parse_head(head: Vec<u8>, max_body: usize) -> Result<(String, String, usize), HttpResponse> {
    let head = String::from_utf8(head)
        .map_err(|_| HttpResponse::error(ErrorCode::Malformed, "request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();

    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpResponse::error(ErrorCode::Malformed, "invalid Content-Length"))?;
        }
    }
    if content_length > max_body {
        return Err(HttpResponse::error(
            ErrorCode::FrameTooLarge,
            "request body exceeds the frame limit",
        ));
    }
    Ok((method, path, content_length))
}

/// Map `(method, path, body)` to the request it asks for, or the error to
/// answer with (unknown route, unreadable body).
pub(crate) fn route(
    shared: &Shared,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<RequestBody, HttpResponse> {
    match (method, path) {
        ("GET", "/stats") => Ok(RequestBody::Stats),
        ("GET", "/tables") => Ok(RequestBody::ListTables),
        ("GET", "/metrics") => Ok(RequestBody::Metrics),
        ("GET", "/trace/recent") => Ok(RequestBody::TraceRecent),
        ("POST", "/explain") => parse_json(shared, body).map(RequestBody::Explain),
        ("POST", "/explain_batch") => parse_json(shared, body).map(RequestBody::ExplainBatch),
        _ => {
            shared.metrics.protocol_errors.inc();
            let message = format!("no route for {method} {path}");
            Err(HttpResponse {
                status: 404,
                reason: "Not Found",
                ..HttpResponse::error(ErrorCode::Malformed, message)
            })
        }
    }
}

fn parse_json<T: serde::Deserialize>(shared: &Shared, body: &[u8]) -> Result<T, HttpResponse> {
    let text = std::str::from_utf8(body).map_err(|_| {
        shared.metrics.protocol_errors.inc();
        HttpResponse::error(ErrorCode::Malformed, "body is not UTF-8")
    })?;
    serde_json::from_str(text).map_err(|err| {
        shared.metrics.protocol_errors.inc();
        HttpResponse::error(ErrorCode::Malformed, format!("invalid body: {err}"))
    })
}

/// Serialize a response to the bytes the connection's outbox will flush.
pub(crate) fn response_bytes(response: &HttpResponse) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(128 + response.body.len());
    response_bytes_into(response, &mut bytes);
    bytes
}

/// [`response_bytes`] into a caller-provided (pooled) buffer.
pub(crate) fn response_bytes_into(response: &HttpResponse, out: &mut Vec<u8>) {
    write_response_head(
        out,
        response.status,
        response.reason,
        response.retry_after_ms,
        response.content_type,
        response.body.len(),
    );
    out.extend_from_slice(response.body.as_bytes());
}

/// The head of an encode-once `POST /explain` hit: status line and headers
/// (`Content-Length` covers the spliced JSON body: head + cached candidate
/// bytes + [`wire::SPLICE_BODY_TAIL`]), then the JSON body's head up to the
/// `candidates` field — the reactor sends the cached bytes and the tail as
/// separate `writev` segments.
pub(crate) fn spliced_response_head(
    out: &mut Vec<u8>,
    question: &str,
    table: &str,
    cached_body_len: usize,
) {
    let mut json_head = Vec::with_capacity(64 + question.len() + table.len());
    wire::splice_body_head(&mut json_head, question, table);
    let content_length = json_head.len() + cached_body_len + wire::SPLICE_BODY_TAIL.len();
    write_response_head(out, 200, "OK", None, "application/json", content_length);
    out.extend_from_slice(&json_head);
}

/// A `POST /explain_batch` answer: status line and headers, then the batch
/// body [`wire::write_batch_body`] writes.
pub(crate) fn batch_response_into(items: &[(ExplainRequest, BatchItem)], out: &mut Vec<u8>) {
    let mut body = Vec::new();
    wire::write_batch_body(&mut body, items);
    write_response_head(out, 200, "OK", None, "application/json", body.len());
    out.extend_from_slice(&body);
}

fn write_response_head(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    retry_after_ms: Option<u64>,
    content_type: &str,
    content_length: usize,
) {
    out.extend_from_slice(
        format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {content_length}\r\nConnection: close\r\n",
        )
        .as_bytes(),
    );
    if let Some(retry_after_ms) = retry_after_ms {
        // Retry-After is whole seconds; round sub-second hints up.
        out.extend_from_slice(
            format!("Retry-After: {}\r\n", retry_after_ms.div_ceil(1000).max(1)).as_bytes(),
        );
    }
    out.extend_from_slice(b"\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_all(
        parser: &mut HttpParser,
        bytes: &[u8],
    ) -> Result<Option<HttpRequest>, HttpResponse> {
        parser.feed(bytes)
    }

    #[test]
    fn parses_a_request_fed_byte_by_byte() {
        let raw = b"POST /explain HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let mut parser = HttpParser::new(1024);
        let mut request = None;
        for byte in raw {
            match parser.feed(std::slice::from_ref(byte)).expect("no error") {
                Some(complete) => request = Some(complete),
                None => continue,
            }
        }
        let request = request.expect("request completes on the last byte");
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/explain");
        assert_eq!(request.body, b"body");
    }

    #[test]
    fn parses_a_request_fed_in_one_chunk_with_overread() {
        let raw = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n";
        let mut parser = HttpParser::new(1024);
        let request = feed_all(&mut parser, raw).unwrap().expect("complete");
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/stats");
        assert!(request.body.is_empty());
    }

    #[test]
    fn body_beyond_content_length_is_truncated() {
        let raw = b"POST /explain HTTP/1.1\r\nContent-Length: 2\r\n\r\nabEXTRA";
        let mut parser = HttpParser::new(1024);
        let request = feed_all(&mut parser, raw).unwrap().expect("complete");
        assert_eq!(request.body, b"ab");
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut parser = HttpParser::new(1024);
        let filler = vec![b'a'; MAX_HEAD_LEN + 1];
        let err = parser.feed(&filler).expect_err("head over the limit");
        assert_eq!(err.status, 413);
    }

    #[test]
    fn oversized_body_is_rejected_at_the_head() {
        let raw = b"POST /explain HTTP/1.1\r\nContent-Length: 4096\r\n\r\n";
        let mut parser = HttpParser::new(1024);
        let err = feed_all(&mut parser, raw).expect_err("body over the frame limit");
        assert_eq!(err.status, 413);
    }

    #[test]
    fn invalid_content_length_is_malformed() {
        let raw = b"POST /explain HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
        let mut parser = HttpParser::new(1024);
        let err = feed_all(&mut parser, raw).expect_err("unparseable length");
        assert_eq!(err.status, 400);
    }

    #[test]
    fn eof_errors_name_the_phase() {
        let mut parser = HttpParser::new(1024);
        parser.feed(b"GET /st").unwrap();
        assert!(parser.eof_error().unwrap().body.contains("mid-head"));
        let mut parser = HttpParser::new(1024);
        parser
            .feed(b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\nab")
            .unwrap();
        assert!(parser.eof_error().unwrap().body.contains("mid-body"));
        let mut parser = HttpParser::new(1024);
        parser.feed(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(parser.eof_error().is_none());
    }

    #[test]
    fn terminator_split_across_feeds_is_found() {
        let mut parser = HttpParser::new(1024);
        assert!(parser.feed(b"GET / HTTP/1.1\r").unwrap().is_none());
        assert!(parser.feed(b"\n\r").unwrap().is_none());
        let request = parser.feed(b"\n").unwrap().expect("complete");
        assert_eq!(request.method, "GET");
    }

    #[test]
    fn response_bytes_carry_status_and_retry_after() {
        let response = HttpResponse {
            status: 429,
            reason: "Too Many Requests",
            retry_after_ms: Some(50),
            content_type: "application/json",
            body: "{}".to_string(),
        };
        let bytes = response_bytes(&response);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn metrics_bodies_render_as_plain_text() {
        let response = HttpResponse::from_body(&ResponseBody::Metrics(crate::wire::MetricsBody {
            text: "# TYPE wtq_server_requests_total counter\n".to_string(),
        }));
        assert_eq!(response.status(), 200);
        let text = String::from_utf8(response_bytes(&response)).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(text.ends_with("# TYPE wtq_server_requests_total counter\n"));
    }
}
