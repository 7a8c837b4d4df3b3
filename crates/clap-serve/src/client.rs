//! A blocking client for the reproduction service, used by the CLI
//! subcommands (`submit`/`status`/`fetch`), the `bench_serve` load
//! generator and the integration tests. One TCP connection per request
//! (the server speaks `Connection: close`).

use crate::http;
use crate::proto::{JobInfo, JobState, SubmitRequest};
use clap_obs::json::{self, Value};
use std::fmt;
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server answered with an error status.
    Http {
        /// HTTP status code.
        status: u16,
        /// The server's error message (decoded from the JSON body when
        /// possible, raw otherwise).
        message: String,
    },
    /// The response body did not decode.
    Proto(String),
    /// [`Client::wait`] ran out of time.
    Timeout,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Http { status, message } => write!(f, "http {status}: {message}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Timeout => write!(f, "timed out waiting for the job"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A handle on one reproduction service.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    trace: Option<String>,
}

impl Client {
    /// A client for the daemon at `addr` (e.g. `127.0.0.1:7117`).
    pub fn new(addr: impl Into<String>) -> Self {
        Client {
            addr: addr.into(),
            trace: None,
        }
    }

    /// Attaches a trace id (see `proto::mint_trace_id`): every request
    /// this client sends carries it in the `X-Clap-Trace` header, and the
    /// server threads it into the job's observability window.
    #[must_use]
    pub fn with_trace_id(mut self, id: impl Into<String>) -> Self {
        self.trace = Some(id.into());
        self
    }

    /// The trace id attached to this client, if any.
    pub fn trace_id(&self) -> Option<&str> {
        self.trace.as_deref()
    }

    fn request(&self, method: &str, path: &str, body: Option<&str>) -> Result<String, ClientError> {
        let mut stream = TcpStream::connect(&self.addr)?;
        let body = body.unwrap_or("");
        let trace_line = match &self.trace {
            Some(id) => format!("X-Clap-Trace: {id}\r\n"),
            None => String::new(),
        };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             {trace_line}Content-Length: {}\r\nConnection: close\r\n\r\n",
            self.addr,
            body.len()
        );
        use std::io::Write as _;
        stream.set_write_timeout(Some(http::IO_TIMEOUT))?;
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        let (status, body) = http::read_response(&mut stream)?;
        if status == 200 {
            Ok(body)
        } else {
            let message = json::parse(&body)
                .ok()
                .and_then(|v| v.get("error").and_then(Value::as_str).map(str::to_owned))
                .unwrap_or(body);
            Err(ClientError::Http { status, message })
        }
    }

    /// Submits a reproduction request, returning the job envelope.
    ///
    /// # Errors
    ///
    /// `503` (queue full / draining) and `400` (bad program) surface as
    /// [`ClientError::Http`].
    pub fn submit(&self, request: &SubmitRequest) -> Result<JobInfo, ClientError> {
        let body = self.request("POST", "/submit", Some(&request.to_json()))?;
        JobInfo::from_json(&body).map_err(ClientError::Proto)
    }

    /// Polls one job's status.
    ///
    /// # Errors
    ///
    /// `404` for unknown jobs.
    pub fn status(&self, job: u64) -> Result<JobInfo, ClientError> {
        let body = self.request("GET", &format!("/status/{job}"), None)?;
        JobInfo::from_json(&body).map_err(ClientError::Proto)
    }

    /// Fetches a finished job's report JSON (decode with
    /// `clap_core::ReproductionReport::from_json`).
    ///
    /// # Errors
    ///
    /// `409` while the job is still queued/running or when it failed.
    pub fn fetch(&self, job: u64) -> Result<String, ClientError> {
        self.request("GET", &format!("/report/{job}"), None)
    }

    /// Polls until the job is done or failed, up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] when the deadline passes first.
    pub fn wait(&self, job: u64, timeout: Duration) -> Result<JobInfo, ClientError> {
        let start = Instant::now();
        loop {
            let info = self.status(job)?;
            match info.state {
                JobState::Done | JobState::Failed => return Ok(info),
                _ if start.elapsed() >= timeout => return Err(ClientError::Timeout),
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// Scrapes `/metrics` (Prometheus text exposition: per-endpoint
    /// latency histograms with quantiles, queue depth, cache hit ratio,
    /// shed count).
    ///
    /// # Errors
    ///
    /// Socket-level failures only.
    pub fn metrics(&self) -> Result<String, ClientError> {
        self.request("GET", "/metrics", None)
    }

    /// Scrapes `/metrics.json` (the same data as a JSON document, for
    /// tooling that predates the Prometheus exposition).
    ///
    /// # Errors
    ///
    /// Socket-level failures only.
    pub fn metrics_json(&self) -> Result<String, ClientError> {
        self.request("GET", "/metrics.json", None)
    }

    /// Requests a graceful drain-and-stop.
    ///
    /// # Errors
    ///
    /// Socket-level failures only.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        self.request("POST", "/shutdown", Some(""))?;
        Ok(())
    }
}
