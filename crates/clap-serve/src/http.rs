//! A deliberately minimal HTTP/1.1 layer over [`std::net::TcpStream`]:
//! just enough of the grammar for the reproduction service's wire
//! protocol — request line, headers, `Content-Length` bodies, and
//! `Connection: close` responses. No chunked encoding, no keep-alive,
//! no TLS; every exchange is one request, one response, one connection.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD: usize = 64 * 1024;
/// Upper bound on a request body (programs are small; 4 MiB is generous).
pub const MAX_BODY: usize = 4 * 1024 * 1024;
/// Per-direction socket timeout so a stalled peer cannot wedge the
/// accept loop forever.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The wire-protocol header carrying the client-minted trace id.
pub const TRACE_HEADER: &str = "x-clap-trace";
/// Longest trace id accepted from the wire.
pub const MAX_TRACE_ID: usize = 64;

/// `Content-Type` for JSON bodies (every endpoint except `/metrics`).
pub const CT_JSON: &str = "application/json";
/// `Content-Type` for the Prometheus text exposition.
pub const CT_TEXT: &str = "text/plain; version=0.0.4";

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The request target (path only; the service ignores query strings).
    pub path: String,
    /// The decoded body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Sanitized [`TRACE_HEADER`] value, when the client sent one.
    pub trace: Option<String>,
}

/// Keeps only the characters a trace id may carry (alphanumerics and
/// dashes, capped at [`MAX_TRACE_ID`]), so a hostile header cannot smuggle
/// arbitrary bytes into sink files or response heads.
fn sanitize_trace_id(raw: &str) -> Option<String> {
    let id: String = raw
        .trim()
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '-')
        .take(MAX_TRACE_ID)
        .collect();
    (!id.is_empty()).then_some(id)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

/// Reads one request from `stream`. Callers reading a socket set its
/// timeouts first (see [`IO_TIMEOUT`]).
///
/// # Errors
///
/// Returns an error for malformed syntax, over-long heads/bodies, or
/// read failures.
pub fn read_request(stream: &mut impl Read) -> io::Result<Request> {
    // Read until the blank line terminating the head.
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD {
            return Err(bad("request head too large"));
        }
        match stream.read(&mut byte)? {
            0 => return Err(bad("connection closed mid-head")),
            _ => head.push(byte[0]),
        }
    }
    let head = std::str::from_utf8(&head).map_err(|_| bad("non-utf8 request head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| bad("empty request"))?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("missing method"))?
        .to_owned();
    let path = parts.next().ok_or_else(|| bad("missing path"))?.to_owned();

    let mut content_length = 0usize;
    let mut trace = None;
    for line in lines {
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            } else if name.eq_ignore_ascii_case(TRACE_HEADER) {
                trace = sanitize_trace_id(value);
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(bad("request body too large"));
    }

    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        body,
        trace,
    })
}

/// Writes one `Connection: close` response. The request's trace id, when
/// present, is echoed back in [`TRACE_HEADER`] so clients can confirm the
/// id the server attributed their work to.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    content_type: &str,
    trace: Option<&str>,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let trace_line = match trace {
        Some(id) => format!("X-Clap-Trace: {id}\r\n"),
        None => String::new(),
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         {trace_line}Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Reads one response, returning `(status, body)`.
///
/// # Errors
///
/// Returns an error for malformed responses or socket failures.
pub fn read_response(stream: &mut TcpStream) -> io::Result<(u16, String)> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw).map_err(|_| bad("non-utf8 response"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("truncated response"))?;
    let status_line = head.lines().next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    Ok((status, body.to_owned()))
}
