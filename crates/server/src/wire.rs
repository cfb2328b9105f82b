//! The wire format: length-prefixed JSON frames with versioned
//! request/response envelopes.
//!
//! A frame is a 4-byte big-endian payload length followed by that many bytes
//! of UTF-8 JSON. Both directions carry an *envelope* — `{v, id, body}` —
//! where `v` is the protocol version ([`PROTOCOL_VERSION`]), `id` is a
//! client-chosen correlation id echoed back in the response, and `body` is
//! one of the typed request/response bodies below. Frames are independent:
//! a client may pipeline several requests on one connection and match
//! responses by `id` (the server answers in request order).
//!
//! Every decode failure maps to a *structured* [`WireError`] response —
//! malformed JSON, an unknown body variant, an unsupported version or an
//! oversized frame never kill the connection's peer silently, and never the
//! server's accept loop. The only unrecoverable case is an oversized frame:
//! after rejecting it the server closes the connection, because the stream
//! position can no longer be trusted.

use std::io::{Read, Write};

use serde::{Deserialize, Serialize};
use wtq_core::{BatchItem, ExplainRequest, ExplainedCandidate, Explanation};
use wtq_obs::Sample;
use wtq_table::{Table, TableSummary};

/// The protocol version spoken by this build. Requests carrying any other
/// version are answered with [`ErrorCode::UnsupportedVersion`].
pub const PROTOCOL_VERSION: u64 = 1;

/// Default upper bound on a frame's payload length (8 MiB). Servers reject
/// larger declared lengths with [`ErrorCode::FrameTooLarge`] *before*
/// allocating, so a hostile prefix cannot balloon memory.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 8 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The stream ended mid-prefix or mid-payload.
    Truncated,
    /// The declared payload length exceeds the negotiated maximum.
    TooLarge {
        /// Length the prefix declared.
        declared: u32,
        /// The maximum this endpoint accepts.
        max: u32,
    },
    /// An operating-system I/O error.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte limit")
            }
            FrameError::Io(err) => write!(f, "i/o error: {err}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(err: std::io::Error) -> FrameError {
        FrameError::Io(err)
    }
}

/// Encode one frame into a buffer: 4-byte big-endian length prefix, then
/// the payload. The nonblocking serving path queues these bytes on a
/// connection's outbox instead of writing to a stream.
pub fn encode_frame(payload: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    encode_frame_into(payload, &mut buf)?;
    Ok(buf)
}

/// [`encode_frame`] into a caller-provided buffer — the reusable-buffer
/// variant the pooled serving path appends into (the buffer is *not*
/// cleared; callers clear recycled buffers themselves).
pub fn encode_frame_into(payload: &[u8], out: &mut Vec<u8>) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload over 4 GiB")
    })?;
    out.reserve(4 + payload.len());
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// A resumable frame decoder for nonblocking reads: feed it whatever bytes
/// the socket had — one at a time or many frames at once — and it hands
/// back complete payloads as they materialize, preserving the blocking
/// reader's robustness guarantees (an oversized declared length is
/// rejected *before* the payload is buffered, and the error is sticky:
/// the stream position is untrustworthy afterwards).
#[derive(Debug)]
pub struct FrameDecoder {
    max: u32,
    state: DecodeState,
}

#[derive(Debug)]
enum DecodeState {
    /// Collecting the 4-byte length prefix.
    Prefix { buf: [u8; 4], filled: usize },
    /// Collecting `declared` payload bytes.
    Payload { declared: usize, payload: Vec<u8> },
    /// A `TooLarge` frame was seen; every further feed re-errors.
    Poisoned { declared: u32 },
}

impl FrameDecoder {
    /// A decoder enforcing `max` on every declared payload length.
    pub fn new(max: u32) -> FrameDecoder {
        FrameDecoder {
            max,
            state: DecodeState::Prefix {
                buf: [0u8; 4],
                filled: 0,
            },
        }
    }

    /// Consume bytes from the front of `input` (the slice is advanced past
    /// what was eaten) until one frame completes or `input` runs dry.
    /// `Ok(Some(payload))` leaves any trailing bytes — the start of the
    /// next frame — in `input`, so callers loop until `Ok(None)`.
    pub fn feed(&mut self, input: &mut &[u8]) -> Result<Option<Vec<u8>>, FrameError> {
        loop {
            match &mut self.state {
                DecodeState::Prefix { buf, filled } => {
                    let take = input.len().min(4 - *filled);
                    buf[*filled..*filled + take].copy_from_slice(&input[..take]);
                    *filled += take;
                    *input = &input[take..];
                    if *filled < 4 {
                        return Ok(None);
                    }
                    let declared = u32::from_be_bytes(*buf);
                    if declared > self.max {
                        self.state = DecodeState::Poisoned { declared };
                        return Err(FrameError::TooLarge {
                            declared,
                            max: self.max,
                        });
                    }
                    self.state = DecodeState::Payload {
                        declared: declared as usize,
                        payload: Vec::with_capacity(declared as usize),
                    };
                }
                DecodeState::Payload { declared, payload } => {
                    let want = *declared - payload.len();
                    let take = input.len().min(want);
                    payload.extend_from_slice(&input[..take]);
                    *input = &input[take..];
                    if payload.len() < *declared {
                        return Ok(None);
                    }
                    let complete = std::mem::take(payload);
                    self.state = DecodeState::Prefix {
                        buf: [0u8; 4],
                        filled: 0,
                    };
                    return Ok(Some(complete));
                }
                DecodeState::Poisoned { declared } => {
                    return Err(FrameError::TooLarge {
                        declared: *declared,
                        max: self.max,
                    });
                }
            }
        }
    }
}

/// Write one frame: 4-byte big-endian length prefix, then the payload.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload over 4 GiB")
    })?;
    writer.write_all(&len.to_be_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Read one frame's payload, enforcing `max` on the declared length.
pub fn read_frame(reader: &mut impl Read, max: u32) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; 4];
    read_exact_or_eof(reader, &mut prefix, true)?;
    let declared = u32::from_be_bytes(prefix);
    if declared > max {
        return Err(FrameError::TooLarge { declared, max });
    }
    let mut payload = vec![0u8; declared as usize];
    read_exact_or_eof(reader, &mut payload, false)?;
    Ok(payload)
}

/// `read_exact` distinguishing a clean close (EOF before the first byte,
/// when `at_boundary`) from a truncated frame (EOF anywhere else).
fn read_exact_or_eof(
    reader: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(FrameError::Io(err)),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------------

/// A client request: protocol version, correlation id and a typed body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Protocol version; must equal [`PROTOCOL_VERSION`].
    pub v: u64,
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The request body.
    pub body: RequestBody,
}

/// The server's reply to one request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResponseEnvelope {
    /// Protocol version of the responding server.
    pub v: u64,
    /// The request's correlation id (0 when the request was too malformed
    /// to carry one).
    pub id: u64,
    /// The response body.
    pub body: ResponseBody,
}

/// Typed request bodies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum RequestBody {
    /// Explain one question over a registered table.
    Explain(ExplainRequest),
    /// Explain a batch of questions on the server's worker pool.
    ExplainBatch(ExplainBatchBody),
    /// List the tables registered in the server's catalog.
    ListTables,
    /// Every metric sample of the server's registry (control plane: never
    /// queued or rejected).
    Stats,
    /// Prometheus-style metrics text (control plane, like `Stats`).
    Metrics,
    /// Recent and slowest sampled request traces (control plane).
    TraceRecent,
}

/// One question addressed to a registered table by name (see
/// [`RequestBody::ListTables`]); an absent `top_k` uses the engine's
/// default. It is the engine's own request type; the alias stays because
/// servebench and the clients build `ExplainBody { question, table, top_k }`.
pub type ExplainBody = wtq_core::ExplainRequest;

/// A batch of questions, answered in order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplainBatchBody {
    /// The questions; at most [`MAX_BATCH`](crate::server::MAX_BATCH).
    pub requests: Vec<ExplainRequest>,
}

/// Typed response bodies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ResponseBody {
    /// The explained candidates of one question.
    Explanation(WireExplanation),
    /// Per-question results of a batch, in request order.
    Batch(WireBatch),
    /// The table registry listing.
    Tables(TablesBody),
    /// The registry's samples.
    Stats(StatsBody),
    /// The rendered metrics registry.
    Metrics(MetricsBody),
    /// Sampled request traces.
    TraceRecent(TraceRecentBody),
    /// A structured failure.
    Error(WireError),
}

/// Batch results, in request order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireBatch {
    /// One entry per batch request.
    pub explanations: Vec<WireExplanation>,
}

/// The table registry listing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TablesBody {
    /// Summaries of every registered table, in name order.
    pub tables: Vec<TableSummary>,
}

/// The registry's samples: the same series and values `GET /metrics`
/// prints, from the same walk of the registry — server, engine, parse
/// stages, answer cache and tracer alike.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsBody {
    /// One entry per exposition line, in `/metrics` order.
    pub samples: Vec<Sample>,
}

impl StatsBody {
    /// The value of `series` — a family name plus any labels exactly as
    /// `/metrics` prints them, e.g. `wtq_server_in_flight` or
    /// `wtq_answer_cache_ops_total{op="hit"}`.
    pub fn get(&self, series: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|sample| sample.series == series)
            .map(|sample| sample.value)
    }
}

/// The metrics registry rendered as Prometheus exposition text (the same
/// bytes `GET /metrics` serves).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsBody {
    /// Prometheus text: `# HELP`/`# TYPE` comment lines plus samples.
    pub text: String,
}

/// Sampled request traces: the most recent window plus the slowest seen.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceRecentBody {
    /// The sampling period: 1 of every `sample_period` requests is traced
    /// (0 when tracing is disabled).
    pub sample_period: u64,
    /// Requests sampled into the rings since startup.
    pub sampled: u64,
    /// The most recent sampled traces, oldest first.
    pub recent: Vec<wtq_obs::TraceSnapshot>,
    /// The slowest sampled traces, fastest first.
    pub slowest: Vec<wtq_obs::TraceSnapshot>,
}

/// A structured error response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireError {
    /// Machine-readable error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// For [`ErrorCode::Overloaded`]: how long the client should wait
    /// before retrying.
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// An error with no retry hint.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

/// Machine-readable error classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The frame's payload was not a valid request envelope.
    Malformed,
    /// The envelope's `v` differs from the server's [`PROTOCOL_VERSION`].
    UnsupportedVersion,
    /// The frame's declared length exceeds the server's limit; the server
    /// closes the connection after this error.
    FrameTooLarge,
    /// The bounded in-flight queue is full; retry after `retry_after_ms`.
    Overloaded,
    /// The request names a table absent from the registry.
    UnknownTable,
    /// The batch has more than [`MAX_BATCH`](crate::server::MAX_BATCH)
    /// questions.
    BatchTooLarge,
    /// The server is shutting down or a job failed internally.
    Internal,
}

// ---------------------------------------------------------------------------
// Explanations on the wire
// ---------------------------------------------------------------------------

// `WireCandidate` lives in `wtq-core` (see `wtq_core::wire`) so the
// caching layer can serialize a flight's candidates once, at completion
// time — the encode-once path. Re-exported here unchanged, so wire-format
// consumers keep their import path.
pub use wtq_core::wire::WireCandidate;

/// The explained candidates of one question, as returned to clients.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireExplanation {
    /// The question asked.
    pub question: String,
    /// The registry name it was asked against.
    pub table: String,
    /// The explained top-k candidates, in rank order.
    pub candidates: Vec<WireCandidate>,
    /// Why the question produced no candidates, when it failed outright.
    pub error: Option<String>,
}

impl WireExplanation {
    /// Flatten a core [`Explanation`]; `table` must be the catalog table the
    /// explanation ran against (absent exactly when the explanation carries
    /// an unknown-table error).
    pub fn from_explanation(explanation: &Explanation, table: Option<&Table>) -> WireExplanation {
        let candidates = match table {
            Some(table) => explanation
                .candidates
                .iter()
                .map(|candidate| WireCandidate::from_candidate(candidate, table))
                .collect(),
            None => Vec::new(),
        };
        WireExplanation {
            question: explanation.question.clone(),
            table: explanation.table.clone(),
            candidates,
            error: explanation.error.clone(),
        }
    }

    /// Flatten the result of a direct [`wtq_core::Engine::explain_question`]
    /// call — the reference path integration tests compare server responses
    /// against, byte for byte.
    pub fn from_candidates(
        question: &str,
        table_name: &str,
        candidates: &[ExplainedCandidate],
        table: &Table,
    ) -> WireExplanation {
        WireExplanation {
            question: question.to_string(),
            table: table_name.to_string(),
            candidates: candidates
                .iter()
                .map(|candidate| WireCandidate::from_candidate(candidate, table))
                .collect(),
            error: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Envelope splicing (the encode-once hit path)
// ---------------------------------------------------------------------------
//
// The vendored serde_json has no `RawValue`, so cached pre-serialized
// bytes cannot ride through a normal `to_string` call. Instead explain and
// batch responses are assembled by direct byte writing: per explanation a
// *head* (everything up to and including `"candidates":`), the cached
// candidates-array bytes, and a *tail*. The writers below replicate the
// vendored serializer's string/number rendering exactly, and the proptests
// here and the differential suites in `tests/` pin the spliced output
// byte-identical to a full `serde_json::to_string` of the equivalent
// envelope.

/// Tail of a spliced framed explanation envelope: everything after the
/// candidates array.
pub const SPLICE_ENVELOPE_TAIL: &[u8] = b",\"error\":null}}}";

/// Tail of a spliced bare [`ResponseBody::Explanation`] (the HTTP form).
pub const SPLICE_BODY_TAIL: &[u8] = b",\"error\":null}}";

/// Append `s` as a JSON string literal, byte-identical to the vendored
/// serde_json's string writer.
pub fn write_json_string(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    for c in s.chars() {
        match c {
            '"' => out.extend_from_slice(b"\\\""),
            '\\' => out.extend_from_slice(b"\\\\"),
            '\n' => out.extend_from_slice(b"\\n"),
            '\r' => out.extend_from_slice(b"\\r"),
            '\t' => out.extend_from_slice(b"\\t"),
            c if (c as u32) < 0x20 => {
                out.extend_from_slice(format!("\\u{:04x}", c as u32).as_bytes());
            }
            c => {
                let mut utf8 = [0u8; 4];
                out.extend_from_slice(c.encode_utf8(&mut utf8).as_bytes());
            }
        }
    }
    out.push(b'"');
}

/// Append a `u64` as the vendored serde_json renders it: integers pass
/// through the `f64` value model, so very large ids round and huge ones
/// fall out of the integral fast path — replicated here exactly so
/// spliced envelopes match full serialization bit for bit.
pub fn write_json_u64(out: &mut Vec<u8>, n: u64) {
    let n = n as f64;
    if !n.is_finite() {
        out.extend_from_slice(b"null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        out.extend_from_slice(format!("{}", n as i64).as_bytes());
    } else {
        out.extend_from_slice(format!("{n}").as_bytes());
    }
}

/// Append a [`WireExplanation`] up to its candidates:
/// `{"question":…,"table":…,"candidates":`.
fn write_explanation_head(out: &mut Vec<u8>, question: &str, table: &str) {
    out.extend_from_slice(b"{\"question\":");
    write_json_string(out, question);
    out.extend_from_slice(b",\"table\":");
    write_json_string(out, table);
    out.extend_from_slice(b",\"candidates\":");
}

/// Append an envelope up to its body: `{"v":1,"id":…,"body":`.
fn write_envelope_head(out: &mut Vec<u8>, id: u64) {
    out.extend_from_slice(b"{\"v\":");
    write_json_u64(out, PROTOCOL_VERSION);
    out.extend_from_slice(b",\"id\":");
    write_json_u64(out, id);
    out.extend_from_slice(b",\"body\":");
}

/// Append the head of a spliced bare explanation body:
/// `{"Explanation":{"question":…,"table":…,"candidates":` — follow with
/// the cached candidates-array bytes and [`SPLICE_BODY_TAIL`].
pub fn splice_body_head(out: &mut Vec<u8>, question: &str, table: &str) {
    out.extend_from_slice(b"{\"Explanation\":");
    write_explanation_head(out, question, table);
}

/// Append the head of a spliced framed explanation envelope:
/// `{"v":1,"id":…,"body":{"Explanation":{…,"candidates":` — follow with
/// the cached candidates-array bytes and [`SPLICE_ENVELOPE_TAIL`].
pub fn splice_envelope_head(out: &mut Vec<u8>, id: u64, question: &str, table: &str) {
    write_envelope_head(out, id);
    splice_body_head(out, question, table);
}

/// Append a bare batch body, `{"Batch":{"explanations":[…]}}`, one item
/// per request in order: its explanation head written directly, then its
/// cached candidates bytes spliced verbatim and `"error":null`, or — for an
/// item without a body — `[]` and its error.
pub(crate) fn write_batch_body(out: &mut Vec<u8>, items: &[(ExplainRequest, BatchItem)]) {
    out.extend_from_slice(b"{\"Batch\":{\"explanations\":[");
    for (index, (request, item)) in items.iter().enumerate() {
        if index > 0 {
            out.push(b',');
        }
        write_explanation_head(out, &request.question, &request.table);
        match item {
            Ok(body) => {
                out.extend_from_slice(body);
                out.extend_from_slice(b",\"error\":null}");
            }
            Err(error) => {
                out.extend_from_slice(b"[],\"error\":");
                write_json_string(out, error);
                out.push(b'}');
            }
        }
    }
    out.extend_from_slice(b"]}}");
}

/// Assemble a whole framed batch response into `out` (cleared first): the
/// length prefix, then the envelope around [`write_batch_body`]. Returns
/// `false` (leaving `out` empty) when the payload would overflow the `u32`
/// frame prefix — the caller falls back to a structured error.
pub(crate) fn batch_frame(
    out: &mut Vec<u8>,
    id: u64,
    items: &[(ExplainRequest, BatchItem)],
) -> bool {
    out.clear();
    out.extend_from_slice(&[0u8; 4]);
    write_envelope_head(out, id);
    write_batch_body(out, items);
    out.push(b'}');
    prefix_frame(out, 0)
}

/// Fill the 4-byte length prefix at the front of `out` for a payload of the
/// rest of `out` plus `trailing` bytes still to be sent. Returns `false`
/// (leaving `out` empty) when that length overflows the `u32` prefix.
fn prefix_frame(out: &mut Vec<u8>, trailing: usize) -> bool {
    match u32::try_from((out.len() - 4).saturating_add(trailing)) {
        Ok(len) => {
            out[..4].copy_from_slice(&len.to_be_bytes());
            true
        }
        Err(_) => {
            out.clear();
            false
        }
    }
}

/// Assemble the *frame head* of a spliced explanation response into
/// `out` (cleared first): the 4-byte length prefix covering head + the
/// `body_len` cached bytes + [`SPLICE_ENVELOPE_TAIL`], then the envelope
/// head. Returns `false` (leaving `out` empty) when the assembled
/// payload would overflow the `u32` frame prefix — the caller falls back
/// to a structured error.
pub fn spliced_frame_head(
    out: &mut Vec<u8>,
    id: u64,
    question: &str,
    table: &str,
    body_len: usize,
) -> bool {
    out.clear();
    out.extend_from_slice(&[0u8; 4]);
    splice_envelope_head(out, id, question, table);
    prefix_frame(out, body_len.saturating_add(SPLICE_ENVELOPE_TAIL.len()))
}

/// Build one complete error-envelope frame (length prefix + JSON) by
/// direct byte writing. Infallible by construction — this is what the
/// serving layer emits when response serialization itself fails, so a
/// client always hears something structured rather than an empty frame.
pub fn error_frame(id: u64, error: &WireError) -> Vec<u8> {
    let mut out = Vec::with_capacity(96 + error.message.len());
    out.extend_from_slice(&[0u8; 4]);
    write_envelope_head(&mut out, id);
    out.extend_from_slice(b"{\"Error\":{\"code\":");
    write_json_string(&mut out, error.code.wire_name());
    out.extend_from_slice(b",\"message\":");
    write_json_string(&mut out, &error.message);
    out.extend_from_slice(b",\"retry_after_ms\":");
    match error.retry_after_ms {
        Some(ms) => write_json_u64(&mut out, ms),
        None => out.extend_from_slice(b"null"),
    }
    out.extend_from_slice(b"}}}");
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_be_bytes());
    out
}

impl ErrorCode {
    /// The externally-tagged unit-variant name serde writes on the wire.
    fn wire_name(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "Malformed",
            ErrorCode::UnsupportedVersion => "UnsupportedVersion",
            ErrorCode::FrameTooLarge => "FrameTooLarge",
            ErrorCode::Overloaded => "Overloaded",
            ErrorCode::UnknownTable => "UnknownTable",
            ErrorCode::BatchTooLarge => "BatchTooLarge",
            ErrorCode::Internal => "Internal",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), b"");
        assert!(matches!(
            read_frame(&mut cursor, 64),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversized_and_truncated_frames_are_distinguished() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 32]).unwrap();
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor, 16),
            Err(FrameError::TooLarge {
                declared: 32,
                max: 16
            })
        ));
        // A prefix promising more bytes than the stream holds.
        let mut cursor = &buf[..20];
        assert!(matches!(
            read_frame(&mut cursor, 64),
            Err(FrameError::Truncated)
        ));
        // A torn prefix.
        let mut cursor = &buf[..2];
        assert!(matches!(
            read_frame(&mut cursor, 64),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn decoder_handles_byte_at_a_time_feeding() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"hello").unwrap();
        write_frame(&mut stream, b"").unwrap();
        write_frame(&mut stream, b"worlds").unwrap();

        let mut decoder = FrameDecoder::new(64);
        let mut frames = Vec::new();
        for byte in &stream {
            let mut input = std::slice::from_ref(byte);
            // Keep polling until the byte is consumed *and* no further
            // frame completes — a zero-length frame materializes on its
            // last prefix byte with nothing left to feed.
            while let Some(frame) = decoder.feed(&mut input).unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(
            frames,
            vec![b"hello".to_vec(), b"".to_vec(), b"worlds".to_vec()]
        );
    }

    #[test]
    fn decoder_yields_multiple_frames_from_one_buffer() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"one").unwrap();
        write_frame(&mut stream, b"two").unwrap();
        let mut decoder = FrameDecoder::new(64);
        let mut input = &stream[..];
        assert_eq!(decoder.feed(&mut input).unwrap().unwrap(), b"one");
        assert_eq!(decoder.feed(&mut input).unwrap().unwrap(), b"two");
        assert!(decoder.feed(&mut input).unwrap().is_none());
        assert!(input.is_empty());
    }

    #[test]
    fn decoder_rejects_oversized_frames_before_buffering_and_stays_poisoned() {
        let mut decoder = FrameDecoder::new(16);
        let mut input: &[u8] = &4096u32.to_be_bytes();
        assert!(matches!(
            decoder.feed(&mut input),
            Err(FrameError::TooLarge {
                declared: 4096,
                max: 16
            })
        ));
        // Sticky: the stream position is untrustworthy now.
        let mut more: &[u8] = b"abcd";
        assert!(matches!(
            decoder.feed(&mut more),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn encode_frame_matches_write_frame() {
        let mut written = Vec::new();
        write_frame(&mut written, b"payload").unwrap();
        assert_eq!(encode_frame(b"payload").unwrap(), written);
    }

    #[test]
    fn envelopes_round_trip_through_json() {
        let request = RequestEnvelope {
            v: PROTOCOL_VERSION,
            id: 7,
            body: RequestBody::Explain(ExplainBody {
                question: "Which city hosted in 2008?".to_string(),
                table: "olympics".to_string(),
                top_k: Some(3),
            }),
        };
        let json = serde_json::to_string(&request).unwrap();
        assert_eq!(
            json,
            r#"{"v":1,"id":7,"body":{"Explain":{"question":"Which city hosted in 2008?","table":"olympics","top_k":3}}}"#
        );
        let back: RequestEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back.v, PROTOCOL_VERSION);
        assert_eq!(back.id, 7);
        match back.body {
            RequestBody::Explain(body) => {
                assert_eq!(body.question, "Which city hosted in 2008?");
                assert_eq!(body.table, "olympics");
                assert_eq!(body.top_k, Some(3));
            }
            other => panic!("wrong body: {other:?}"),
        }

        let batch = RequestEnvelope {
            v: PROTOCOL_VERSION,
            id: 8,
            body: RequestBody::ExplainBatch(ExplainBatchBody {
                requests: vec![
                    ExplainBody {
                        question: "total Gold of Fiji?".to_string(),
                        table: "medals".to_string(),
                        top_k: None,
                    },
                    ExplainBody {
                        question: "Which city hosted in 2008?".to_string(),
                        table: "olympics".to_string(),
                        top_k: Some(1),
                    },
                ],
            }),
        };
        let json = serde_json::to_string(&batch).unwrap();
        assert_eq!(
            json,
            r#"{"v":1,"id":8,"body":{"ExplainBatch":{"requests":[{"question":"total Gold of Fiji?","table":"medals","top_k":null},{"question":"Which city hosted in 2008?","table":"olympics","top_k":1}]}}}"#
        );
        let back: RequestEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        // An absent `top_k` reads as `None`, as clients may omit it.
        let omitted = r#"{"v":1,"id":9,"body":{"Explain":{"question":"q","table":"t"}}}"#;
        match serde_json::from_str::<RequestEnvelope>(omitted)
            .unwrap()
            .body
        {
            RequestBody::Explain(body) => assert_eq!(body.top_k, None),
            other => panic!("wrong body: {other:?}"),
        }

        // Unit variants serialize as bare strings.
        let stats = RequestEnvelope {
            v: PROTOCOL_VERSION,
            id: 1,
            body: RequestBody::Stats,
        };
        let json = serde_json::to_string(&stats).unwrap();
        assert!(json.contains("\"Stats\""));
        let back: RequestEnvelope = serde_json::from_str(&json).unwrap();
        assert!(matches!(back.body, RequestBody::Stats));
    }

    #[test]
    fn error_codes_round_trip() {
        let err = WireError {
            code: ErrorCode::Overloaded,
            message: "queue full".to_string(),
            retry_after_ms: Some(50),
        };
        let json = serde_json::to_string(&ResponseBody::Error(err.clone())).unwrap();
        let back: ResponseBody = serde_json::from_str(&json).unwrap();
        match back {
            ResponseBody::Error(parsed) => assert_eq!(parsed, err),
            other => panic!("wrong body: {other:?}"),
        }
    }

    /// The full-serialization reference a spliced envelope must match.
    fn reference_envelope(
        id: u64,
        question: &str,
        table: &str,
        candidates: &[WireCandidate],
    ) -> (String, String) {
        let envelope = ResponseEnvelope {
            v: PROTOCOL_VERSION,
            id,
            body: ResponseBody::Explanation(WireExplanation {
                question: question.to_string(),
                table: table.to_string(),
                candidates: candidates.to_vec(),
                error: None,
            }),
        };
        let body = match &envelope.body {
            ResponseBody::Explanation(_) => serde_json::to_string(&envelope.body).unwrap(),
            _ => unreachable!(),
        };
        (serde_json::to_string(&envelope).unwrap(), body)
    }

    fn splice(
        id: u64,
        question: &str,
        table: &str,
        candidates: &[WireCandidate],
    ) -> (Vec<u8>, Vec<u8>) {
        let cached = serde_json::to_string(&candidates.to_vec())
            .unwrap()
            .into_bytes();
        let mut framed = Vec::new();
        splice_envelope_head(&mut framed, id, question, table);
        framed.extend_from_slice(&cached);
        framed.extend_from_slice(SPLICE_ENVELOPE_TAIL);
        let mut body = Vec::new();
        splice_body_head(&mut body, question, table);
        body.extend_from_slice(&cached);
        body.extend_from_slice(SPLICE_BODY_TAIL);
        (framed, body)
    }

    fn sample_candidate(seed: u64) -> WireCandidate {
        WireCandidate {
            formula: format!("count(rows {seed})"),
            score: seed as f64 * 0.25 - 1.5,
            answer: wtq_core::dcs::Answer::Number(seed as f64 + 0.5),
            utterance: format!("counts \"row\" #{seed}\nacross the table"),
            sql: seed
                .is_multiple_of(2)
                .then(|| format!("SELECT COUNT(*) FROM t{seed}")),
            highlights: format!("| r{seed} |\t…"),
            output_cells: seed as usize,
            execution_cells: seed as usize * 2,
            column_cells: 1,
        }
    }

    #[test]
    fn spliced_envelopes_match_full_serialization() {
        let candidates: Vec<WireCandidate> = (0..3).map(sample_candidate).collect();
        for (id, question, table) in [
            (0u64, "plain question", "olympics"),
            (7, "with \"quotes\" and \\ backslash", "t\tname"),
            (u64::MAX, "newline\nand control\u{1}char", "ünïcødé 表"),
        ] {
            let (full_env, full_body) = reference_envelope(id, question, table, &candidates);
            let (framed, body) = splice(id, question, table, &candidates);
            assert_eq!(String::from_utf8(framed).unwrap(), full_env);
            assert_eq!(String::from_utf8(body).unwrap(), full_body);
        }
        // Empty candidate lists splice too.
        let (full_env, _) = reference_envelope(3, "q", "t", &[]);
        let (framed, _) = splice(3, "q", "t", &[]);
        assert_eq!(String::from_utf8(framed).unwrap(), full_env);
    }

    #[test]
    fn spliced_frame_head_prefixes_the_assembled_length() {
        let candidates: Vec<WireCandidate> = (0..2).map(sample_candidate).collect();
        let cached = serde_json::to_string(&candidates).unwrap().into_bytes();
        let mut head = vec![1, 2, 3]; // recycled buffer with leftovers
        assert!(spliced_frame_head(
            &mut head,
            42,
            "q?",
            "medals",
            cached.len()
        ));
        let mut frame = head.clone();
        frame.extend_from_slice(&cached);
        frame.extend_from_slice(SPLICE_ENVELOPE_TAIL);
        let declared = u32::from_be_bytes(frame[..4].try_into().unwrap());
        assert_eq!(declared as usize, frame.len() - 4);
        let (reference, _) = reference_envelope(42, "q?", "medals", &candidates);
        assert_eq!(encode_frame(reference.as_bytes()).unwrap(), frame);
    }

    #[test]
    fn error_frames_match_full_serialization() {
        for (id, code, message, retry) in [
            (
                0u64,
                ErrorCode::Internal,
                "handler panicked".to_string(),
                None,
            ),
            (
                9,
                ErrorCode::Overloaded,
                "queue \"full\"\n".to_string(),
                Some(50u64),
            ),
            (
                u64::MAX,
                ErrorCode::FrameTooLarge,
                "×\u{2}".to_string(),
                None,
            ),
        ] {
            let error = WireError {
                code,
                message,
                retry_after_ms: retry,
            };
            let envelope = ResponseEnvelope {
                v: PROTOCOL_VERSION,
                id,
                body: ResponseBody::Error(error.clone()),
            };
            let reference =
                encode_frame(serde_json::to_string(&envelope).unwrap().as_bytes()).unwrap();
            assert_eq!(error_frame(id, &error), reference);
        }
    }
}

#[cfg(test)]
mod splice_proptests {
    use super::*;
    use proptest::prelude::*;
    use proptest::string::string_regex;

    /// Text exercising every branch of the JSON escaper: the full printable
    /// ASCII range (includes `"` and `\`), escaped whitespace, raw control
    /// characters, and multi-byte unicode.
    fn arb_text(max_len: usize) -> proptest::string::RegexGeneratorStrategy {
        let pattern = format!("[ -~\\n\\r\\t\u{1}\u{2}\u{1f}àé表🙂]{{0,{max_len}}}");
        string_regex(&pattern).expect("valid escaper-coverage pattern")
    }

    fn arb_candidate() -> BoxedStrategy<WireCandidate> {
        (
            (arb_text(24), any::<f64>(), any::<f64>(), arb_text(40)),
            (
                prop_oneof![Just(None), arb_text(24).prop_map(Some),],
                arb_text(48),
                0usize..1000,
            ),
        )
            .prop_map(
                |((formula, score, answer, utterance), (sql, highlights, cells))| WireCandidate {
                    formula,
                    score,
                    answer: wtq_core::dcs::Answer::Number(answer),
                    utterance,
                    sql,
                    highlights,
                    output_cells: cells,
                    execution_cells: cells / 2,
                    column_cells: cells % 7,
                },
            )
            .boxed()
    }

    proptest! {
        /// The tentpole pin: across random ids, questions, table names and
        /// candidate payloads (quotes, backslashes, control characters,
        /// non-ASCII — everything the escaper handles), a spliced envelope
        /// is byte-identical to `serde_json::to_string` of the equivalent
        /// [`ResponseEnvelope`], the spliced bare body to the equivalent
        /// [`ResponseBody`], and a spliced batch frame to the equivalent
        /// batch envelope.
        #[test]
        fn spliced_envelopes_are_byte_identical_to_serde(
            id in any::<u64>(),
            question in arb_text(60),
            table in arb_text(30),
            candidates in proptest::collection::vec(arb_candidate(), 0..4),
        ) {
            let cached = serde_json::to_string(&candidates).unwrap().into_bytes();

            let envelope = ResponseEnvelope {
                v: PROTOCOL_VERSION,
                id,
                body: ResponseBody::Explanation(WireExplanation {
                    question: question.clone(),
                    table: table.clone(),
                    candidates: candidates.clone(),
                    error: None,
                }),
            };
            let full = serde_json::to_string(&envelope).unwrap();
            let mut spliced = Vec::new();
            splice_envelope_head(&mut spliced, id, &question, &table);
            spliced.extend_from_slice(&cached);
            spliced.extend_from_slice(SPLICE_ENVELOPE_TAIL);
            prop_assert_eq!(&spliced, full.as_bytes());

            let full_body = serde_json::to_string(&envelope.body).unwrap();
            let mut spliced_body = Vec::new();
            splice_body_head(&mut spliced_body, &question, &table);
            spliced_body.extend_from_slice(&cached);
            spliced_body.extend_from_slice(SPLICE_BODY_TAIL);
            prop_assert_eq!(&spliced_body, full_body.as_bytes());

            let mut head = vec![0xFFu8; 7]; // dirty recycled buffer
            prop_assert!(spliced_frame_head(&mut head, id, &question, &table, cached.len()));
            head.extend_from_slice(&cached);
            head.extend_from_slice(SPLICE_ENVELOPE_TAIL);
            prop_assert_eq!(&head, &encode_frame(full.as_bytes()).unwrap());

            // The same item twice in a batch: with its body, and failed
            // with an error that echoes the table name.
            let request = ExplainRequest::new(question.clone(), table.clone());
            let error = format!("unknown table: {table}");
            let items = [
                (request.clone(), Ok(std::sync::Arc::new(cached))),
                (request, Err(error.clone())),
            ];
            let ResponseBody::Explanation(explained) = envelope.body else {
                unreachable!("built as an explanation above");
            };
            let failed = WireExplanation {
                candidates: Vec::new(),
                error: Some(error),
                ..explained.clone()
            };
            let batch = ResponseEnvelope {
                v: PROTOCOL_VERSION,
                id,
                body: ResponseBody::Batch(WireBatch {
                    explanations: vec![explained, failed],
                }),
            };
            let reference = serde_json::to_string(&batch).unwrap();
            let mut frame = vec![0xFFu8; 7]; // dirty recycled buffer
            prop_assert!(batch_frame(&mut frame, id, &items));
            prop_assert_eq!(&frame, &encode_frame(reference.as_bytes()).unwrap());
        }

        #[test]
        fn error_frames_are_byte_identical_to_serde(
            id in any::<u64>(),
            message in arb_text(60),
            retry in prop_oneof![Just(None), any::<u64>().prop_map(Some)],
            code_index in 0usize..7,
        ) {
            let code = [
                ErrorCode::Malformed,
                ErrorCode::UnsupportedVersion,
                ErrorCode::FrameTooLarge,
                ErrorCode::Overloaded,
                ErrorCode::UnknownTable,
                ErrorCode::BatchTooLarge,
                ErrorCode::Internal,
            ][code_index];
            let error = WireError { code, message, retry_after_ms: retry };
            let envelope = ResponseEnvelope {
                v: PROTOCOL_VERSION,
                id,
                body: ResponseBody::Error(error.clone()),
            };
            let reference =
                encode_frame(serde_json::to_string(&envelope).unwrap().as_bytes()).unwrap();
            prop_assert_eq!(error_frame(id, &error), reference);
        }
    }
}
