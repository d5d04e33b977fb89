//! Minimal blocking HTTP/1.1 client: one connection per exchange, as
//! every ChatLS caller uses the daemon.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use serde_json::Value;

/// Read timeout per exchange; far above any op, so it only bounds a
/// wedged server.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

fn send(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    Ok(stream)
}

fn split_response(raw: &[u8]) -> std::io::Result<(u16, String)> {
    let text = String::from_utf8_lossy(raw);
    let status = text.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
    })?;
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}

/// One request/response exchange: `(status, body)`.
pub fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = send(addr, method, path, body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    split_response(&raw)
}

/// One streamed session turn as the client saw it.
pub struct Turn {
    pub status: u16,
    /// Time from sending to the first `event:` line.
    pub ttfe: Option<Duration>,
    /// `(event, data)` frames in arrival order.
    pub events: Vec<(String, String)>,
}

/// `POST path` and read the Server-Sent Events stream to its end.
pub fn sse(addr: &str, path: &str, body: &str) -> std::io::Result<Turn> {
    let started = Instant::now();
    let mut stream = send(addr, "POST", path, body)?;
    let mut raw = Vec::new();
    let mut buf = [0u8; 8192];
    let mut ttfe = None;
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&buf[..n]);
        if ttfe.is_none() && raw.windows(7).any(|w| w == b"event: ") {
            ttfe = Some(started.elapsed());
        }
    }
    let (status, body) = split_response(&raw)?;
    Ok(Turn { status, ttfe, events: parse_frames(&body) })
}

/// Splits an SSE body into `(event, data)` frames (multi-line data
/// joined with `\n`).
pub fn parse_frames(body: &str) -> Vec<(String, String)> {
    body.split("\n\n")
        .filter_map(|frame| {
            let mut event = None;
            let mut data: Vec<&str> = Vec::new();
            for line in frame.lines() {
                if let Some(e) = line.strip_prefix("event: ") {
                    event = Some(e.to_string());
                } else if let Some(d) = line.strip_prefix("data: ") {
                    data.push(d);
                }
            }
            event.map(|e| (e, data.join("\n")))
        })
        .collect()
}

/// Parses a JSON body (`Value::Null` when it is not JSON).
pub fn json(body: &str) -> Value {
    serde_json::parse_value(body).unwrap_or(Value::Null)
}

/// `name value` lines of the `/metrics` exposition, by name.
pub fn metrics(addr: &str) -> std::collections::HashMap<String, f64> {
    let (status, body) = exchange(addr, "GET", "/metrics", "").expect("GET /metrics");
    assert_eq!(status, 200, "GET /metrics");
    body.lines()
        .filter_map(|l| {
            let (name, v) = l.rsplit_once(' ')?;
            Some((name.to_string(), v.parse().ok()?))
        })
        .collect()
}
