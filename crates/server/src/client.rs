//! A blocking client for the framed JSON protocol — what tests, benches and
//! the `serve` tooling use to talk to a [`crate::Server`].
//!
//! Production callers should prefer [`Client::connect_with`] (bounded
//! connect/read/write waits instead of indefinite blocking) and the
//! `*_with_retry` helpers, which honor the server's `retry_after_ms`
//! backpressure hint instead of forcing every caller to hand-roll the
//! backoff loop.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use wtq_table::TableSummary;

use crate::wire::{
    self, ExplainBatchBody, ExplainBody, FrameError, RequestBody, RequestEnvelope, ResponseBody,
    ResponseEnvelope, StatsBody, TraceRecentBody, WireError, WireExplanation,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// A socket-level failure.
    Io(std::io::Error),
    /// The connection broke mid-frame (or the server closed it).
    Frame(FrameError),
    /// The server answered something that is not the protocol (bad JSON,
    /// wrong version, mismatched correlation id, wrong body type).
    Protocol(String),
    /// The server answered with a structured error (backpressure,
    /// unknown table, …).
    Server(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "i/o error: {err}"),
            ClientError::Frame(err) => write!(f, "framing error: {err}"),
            ClientError::Protocol(message) => write!(f, "protocol error: {message}"),
            ClientError::Server(err) => write!(f, "server error: {err}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(err: std::io::Error) -> ClientError {
        ClientError::Io(err)
    }
}

impl From<FrameError> for ClientError {
    fn from(err: FrameError) -> ClientError {
        ClientError::Frame(err)
    }
}

/// Timeouts for [`Client::connect_with`]. `None` fields block
/// indefinitely, matching the plain [`Client::connect`] behavior.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnectOptions {
    /// Bound on establishing the TCP connection.
    pub connect_timeout: Option<Duration>,
    /// Bound on each socket read while awaiting a response.
    pub read_timeout: Option<Duration>,
    /// Bound on each socket write while sending a request.
    pub write_timeout: Option<Duration>,
}

/// How the `*_with_retry` helpers respond to `Overloaded` rejections.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (so `max_retries: 2` sends at
    /// most 3 requests).
    pub max_retries: u32,
    /// Backoff when the rejection carries no `retry_after_ms` hint.
    pub default_backoff: Duration,
    /// Upper bound on any single backoff sleep, whatever the server hints.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            default_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }
}

/// A blocking connection to a server. One request is in flight at a time;
/// the client correlates responses by envelope id and checks the protocol
/// version on every reply.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::connect_with(addr, ConnectOptions::default())
    }

    /// Connect to `addr` with explicit timeouts. A `connect_timeout`
    /// bounds each candidate address; read/write timeouts persist on the
    /// connection (a timed-out read surfaces as [`ClientError::Io`] with
    /// kind `WouldBlock`/`TimedOut`, and the connection should be dropped:
    /// a late response would desynchronize the stream).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        options: ConnectOptions,
    ) -> std::io::Result<Client> {
        let stream = match options.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(timeout) => {
                let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
                let mut last_err = None;
                let mut connected = None;
                for candidate in addrs {
                    match TcpStream::connect_timeout(&candidate, timeout) {
                        Ok(stream) => {
                            connected = Some(stream);
                            break;
                        }
                        Err(err) => last_err = Some(err),
                    }
                }
                connected.ok_or_else(|| {
                    last_err.unwrap_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            "address resolved to nothing",
                        )
                    })
                })?
            }
        };
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(options.read_timeout)?;
        stream.set_write_timeout(options.write_timeout)?;
        Ok(Client { stream, next_id: 1 })
    }

    /// Change the per-read timeout on the live connection.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Explain one question over the registered table `table`.
    pub fn explain(
        &mut self,
        question: &str,
        table: &str,
        top_k: Option<usize>,
    ) -> Result<WireExplanation, ClientError> {
        let body = RequestBody::Explain(ExplainBody {
            question: question.to_string(),
            table: table.to_string(),
            top_k,
        });
        match self.call(body)? {
            ResponseBody::Explanation(explanation) => Ok(explanation),
            other => Err(unexpected("Explanation", &other)),
        }
    }

    /// Explain a batch of questions; results come back in request order.
    pub fn explain_batch(
        &mut self,
        requests: Vec<ExplainBody>,
    ) -> Result<Vec<WireExplanation>, ClientError> {
        let body = RequestBody::ExplainBatch(ExplainBatchBody { requests });
        match self.call(body)? {
            ResponseBody::Batch(batch) => Ok(batch.explanations),
            other => Err(unexpected("Batch", &other)),
        }
    }

    /// List the tables registered on the server.
    pub fn list_tables(&mut self) -> Result<Vec<TableSummary>, ClientError> {
        match self.call(RequestBody::ListTables)? {
            ResponseBody::Tables(tables) => Ok(tables.tables),
            other => Err(unexpected("Tables", &other)),
        }
    }

    /// Every sample of the server's metrics registry (see [`StatsBody`]).
    pub fn stats(&mut self) -> Result<StatsBody, ClientError> {
        match self.call(RequestBody::Stats)? {
            ResponseBody::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// The server's metrics registry as Prometheus exposition text — the
    /// same bytes `GET /metrics` serves.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.call(RequestBody::Metrics)? {
            ResponseBody::Metrics(metrics) => Ok(metrics.text),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// The server's sampled request traces (recent + slowest rings).
    pub fn trace_recent(&mut self) -> Result<TraceRecentBody, ClientError> {
        match self.call(RequestBody::TraceRecent)? {
            ResponseBody::TraceRecent(traces) => Ok(traces),
            other => Err(unexpected("TraceRecent", &other)),
        }
    }

    /// [`Client::explain`] with backpressure retries: an `Overloaded`
    /// rejection sleeps out the server's `retry_after_ms` hint (bounded by
    /// the policy) and tries again. Rejections keep the connection alive,
    /// so retries reuse it.
    pub fn explain_with_retry(
        &mut self,
        question: &str,
        table: &str,
        top_k: Option<usize>,
        policy: &RetryPolicy,
    ) -> Result<WireExplanation, ClientError> {
        let body = RequestBody::Explain(ExplainBody {
            question: question.to_string(),
            table: table.to_string(),
            top_k,
        });
        match self.call_with_retry(body, policy)? {
            ResponseBody::Explanation(explanation) => Ok(explanation),
            other => Err(unexpected("Explanation", &other)),
        }
    }

    /// [`Client::call`], but an [`wire::ErrorCode::Overloaded`] rejection is
    /// retried up to `policy.max_retries` times, sleeping the server's
    /// `retry_after_ms` hint (or `policy.default_backoff` without one,
    /// always capped by `policy.max_backoff`) between attempts. Any other
    /// outcome — success, a different server error, an I/O failure —
    /// returns immediately; the final rejection is returned as-is when the
    /// budget runs out.
    pub fn call_with_retry(
        &mut self,
        body: RequestBody,
        policy: &RetryPolicy,
    ) -> Result<ResponseBody, ClientError> {
        let mut attempts_left = policy.max_retries;
        loop {
            match self.call(body.clone()) {
                Err(ClientError::Server(err))
                    if err.code == wire::ErrorCode::Overloaded && attempts_left > 0 =>
                {
                    attempts_left -= 1;
                    let backoff = err
                        .retry_after_ms
                        .map(Duration::from_millis)
                        .unwrap_or(policy.default_backoff)
                        .min(policy.max_backoff);
                    std::thread::sleep(backoff);
                }
                outcome => return outcome,
            }
        }
    }

    /// Send one request and read its response body. Structured server
    /// errors surface as [`ClientError::Server`].
    pub fn call(&mut self, body: RequestBody) -> Result<ResponseBody, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let envelope = RequestEnvelope {
            v: wire::PROTOCOL_VERSION,
            id,
            body,
        };
        let json = serde_json::to_string(&envelope)
            .map_err(|err| ClientError::Protocol(format!("request serialization: {err}")))?;
        wire::write_frame(&mut self.stream, json.as_bytes())?;

        let payload = wire::read_frame(&mut self.stream, wire::DEFAULT_MAX_FRAME_LEN)?;
        let text = std::str::from_utf8(&payload)
            .map_err(|_| ClientError::Protocol("response is not UTF-8".to_string()))?;
        let response: ResponseEnvelope = serde_json::from_str(text)
            .map_err(|err| ClientError::Protocol(format!("response parse: {err}")))?;
        if response.v != wire::PROTOCOL_VERSION {
            return Err(ClientError::Protocol(format!(
                "server speaks protocol version {}",
                response.v
            )));
        }
        if response.id != id {
            return Err(ClientError::Protocol(format!(
                "response id {} does not match request id {id}",
                response.id
            )));
        }
        match response.body {
            ResponseBody::Error(err) => Err(ClientError::Server(err)),
            body => Ok(body),
        }
    }
}

fn unexpected(wanted: &str, got: &ResponseBody) -> ClientError {
    let variant = match got {
        ResponseBody::Explanation(_) => "Explanation",
        ResponseBody::Batch(_) => "Batch",
        ResponseBody::Tables(_) => "Tables",
        ResponseBody::Stats(_) => "Stats",
        ResponseBody::Metrics(_) => "Metrics",
        ResponseBody::TraceRecent(_) => "TraceRecent",
        ResponseBody::Error(_) => "Error",
    };
    ClientError::Protocol(format!("expected a {wanted} response, got {variant}"))
}
