//! Minimal HTTP/1.1 framing over `std::net::TcpStream`: enough to parse a
//! request with a `Content-Length` body and write a `Connection: close`
//! response. No chunked transfer, no keep-alive, no TLS — every exchange
//! is one request, one response, one connection, which keeps the worker
//! loop trivially correct under concurrency and drain.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Largest accepted head (request line + headers) in bytes.
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted body in bytes (inline Verilog payloads are small).
const MAX_BODY: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Path component, query string stripped.
    pub path: String,
    /// Raw query string (no leading `?`; empty when absent).
    pub query: String,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, lossily.
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// First query parameter named `name`, percent-decoded.
    pub fn query_param(&self, name: &str) -> Option<String> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then(|| percent_decode(v))
        })
    }

    /// The request target as sent on the wire: path plus query string.
    pub fn target(&self) -> String {
        if self.query.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, self.query)
        }
    }

    /// Serializes this request onto `stream` (the client half of the
    /// protocol — used by the cluster router when proxying to a shard).
    /// `Content-Length` and `Connection` are recomputed; other headers
    /// pass through.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!("{} {} HTTP/1.1\r\n", self.method, self.target());
        for (name, value) in &self.headers {
            if name == "content-length" || name == "connection" {
                continue;
            }
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\nConnection: close\r\n\r\n", self.body.len()));
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Decodes `%XX` escapes (and `+` as space); malformed escapes pass
/// through verbatim rather than failing the whole parameter.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| (b as char).to_digit(16);
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(h), Some(l)) => {
                        out.push((h * 16 + l) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A response ready to serialize. Always closes the connection.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` value.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self { status, headers: Vec::new(), body: body.into(), content_type: "application/json" }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: body.into(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// The uniform JSON error envelope every non-2xx response carries:
    ///
    /// ```json
    /// {"error": {"code": "<machine-readable>", "message": "…", "details": null}}
    /// ```
    ///
    /// `code` is a stable snake_case identifier clients can branch on;
    /// `message` is human-readable and may change between releases.
    pub fn error(status: u16, code: &str, message: &str) -> Self {
        Self::json(
            status,
            format!(
                "{{\"error\": {{\"code\": {}, \"message\": {}, \"details\": null}}}}\n",
                json_escape(code),
                json_escape(message)
            ),
        )
    }

    /// [`Response::error`] with a structured `details` payload (`details`
    /// must already be serialized JSON — an object carrying whatever the
    /// code needs, e.g. lint diagnostics for `lint_rejected`).
    pub fn error_with_details(status: u16, code: &str, message: &str, details_json: &str) -> Self {
        Self::json(
            status,
            format!(
                "{{\"error\": {{\"code\": {}, \"message\": {}, \"details\": {details_json}}}}}\n",
                json_escape(code),
                json_escape(message)
            ),
        )
    }

    /// `429 Too Many Requests` with a `Retry-After` hint in seconds.
    pub fn too_many_requests(retry_after_secs: u64) -> Self {
        let mut r = Self::error(429, "rate_limited", "admission queue full, retry later");
        r.headers.push(("Retry-After".to_string(), retry_after_secs.to_string()));
        r
    }

    /// `504 Gateway Timeout` for a request whose deadline fired.
    pub fn gateway_timeout(message: &str) -> Self {
        Self::error(504, "deadline_exceeded", message)
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serializes onto `stream` (best effort; a peer that hung up is not
    /// an error worth propagating).
    pub fn write_to(&self, stream: &mut TcpStream) {
        let reason = reason_phrase(self.status);
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let _ = stream.write_all(head.as_bytes());
        let _ = stream.write_all(&self.body);
        let _ = stream.flush();
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        409 => "Conflict",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

/// Escapes `s` as a JSON string literal (with quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Reads and parses one request from `stream`. `Err` carries a response
/// the caller should send before closing (bad request, oversize, …).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, Response> {
    // Accumulate until the blank line; anything after it is body prefix.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(Response::error(400, "bad_request", "request head too large"));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(Response::error(400, "bad_request", "connection closed mid-request"))
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(Response::error(400, "bad_request", "request read timed out"))
            }
            Err(_) => return Err(Response::error(400, "bad_request", "error reading request")),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_ascii_uppercase();
    let target = parts.next().unwrap_or_default();
    if method.is_empty() || target.is_empty() {
        return Err(Response::error(400, "bad_request", "malformed request line"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(Response::error(400, "bad_request", "malformed header line"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse().map_err(|_| Response::error(400, "bad_request", "bad Content-Length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(Response::error(413, "payload_too_large", "request body too large"));
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(Response::error(400, "bad_request", "connection closed mid-body")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                return Err(Response::error(400, "bad_request", "error reading request body"))
            }
        }
    }
    body.truncate(content_length);
    Ok(Request { method, path, query, headers, body })
}

/// Reads and parses one response from `stream` (the client half of the
/// protocol — used by the cluster router when proxying to a shard). The
/// body is read to `Content-Length` when present, else to EOF.
pub fn read_response(stream: &mut TcpStream) -> std::io::Result<Response> {
    use std::io::{Error, ErrorKind};
    let bad = |msg: &str| Error::new(ErrorKind::InvalidData, msg.to_string());
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(bad("response head too large"));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(bad("connection closed mid-response")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split_whitespace();
    if !parts.next().unwrap_or_default().starts_with("HTTP/1.") {
        return Err(bad("malformed status line"));
    }
    let status: u16 =
        parts.next().unwrap_or_default().parse().map_err(|_| bad("malformed status code"))?;
    let mut content_type: &'static str = "application/octet-stream";
    let mut content_length: Option<usize> = None;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad("malformed header line"));
        };
        let (name, value) = (name.trim().to_ascii_lowercase(), value.trim().to_string());
        match name.as_str() {
            // Hop-by-hop / recomputed-on-write headers are absorbed here;
            // `Response::write_to` re-emits its own.
            "content-length" => {
                content_length = Some(value.parse().map_err(|_| bad("malformed Content-Length"))?);
            }
            "connection" => {}
            "content-type" => {
                // Map onto the static set `Response` can carry; unknown
                // types degrade to octet-stream (none are produced today).
                content_type = match value.as_str() {
                    "application/json" => "application/json",
                    "text/plain; charset=utf-8" => "text/plain; charset=utf-8",
                    "text/event-stream" => "text/event-stream",
                    _ => "application/octet-stream",
                };
            }
            _ => headers.push((name, value)),
        }
    }
    if content_length.unwrap_or(0) > MAX_BODY {
        return Err(bad("response body too large"));
    }
    let mut body = buf[head_end + 4..].to_vec();
    match content_length {
        Some(len) => {
            while body.len() < len {
                match stream.read(&mut chunk) {
                    Ok(0) => return Err(bad("connection closed mid-body")),
                    Ok(n) => body.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
            body.truncate(len);
        }
        None => loop {
            if body.len() > MAX_BODY {
                return Err(bad("response body too large"));
            }
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => body.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        },
    }
    Ok(Response { status, headers, body, content_type })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn roundtrip(raw: &[u8]) -> Result<Request, Response> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let parsed = read_request(&mut conn);
        writer.join().unwrap();
        parsed
    }

    #[test]
    fn parses_post_with_body() {
        let req = roundtrip(
            b"POST /v1/eval?x=1 HTTP/1.1\r\nHost: t\r\nContent-Length: 9\r\n\r\n{\"a\": 1}\n",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/eval", "query string must be stripped");
        assert_eq!(req.query, "x=1", "query string must be captured");
        assert_eq!(req.query_param("x").as_deref(), Some("1"));
        assert_eq!(req.query_param("y"), None);
        assert_eq!(req.target(), "/v1/eval?x=1");
        assert_eq!(req.header("host"), Some("t"));
        assert_eq!(req.header("HOST"), Some("t"), "header lookup is case-insensitive");
        assert_eq!(req.body_text(), "{\"a\": 1}\n");
    }

    #[test]
    fn parses_get_without_body() {
        let req = roundtrip(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_request_line() {
        let err = roundtrip(b"NONSENSE\r\n\r\n").unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        let err = roundtrip(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status, 413);
    }

    #[test]
    fn response_serialization_includes_headers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut text = String::new();
            s.read_to_string(&mut text).unwrap();
            text
        });
        let (mut conn, _) = listener.accept().unwrap();
        Response::too_many_requests(2).write_to(&mut conn);
        drop(conn);
        let text = reader.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{text}");
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(
            text.ends_with(
                "{\"error\": {\"code\": \"rate_limited\", \
                 \"message\": \"admission queue full, retry later\", \"details\": null}}\n"
            ),
            "{text}"
        );
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn percent_round_trips_arbitrary_text() {
        let original = "read_verilog a.v; map -k 6\nopt +x=100%~q";
        let encoded = "read_verilog%20a.v%3B%20map%20-k%206%0Aopt%20%2Bx%3D100%25~q";
        assert_eq!(percent_decode(encoded), original);
        assert_eq!(percent_decode("a+b%20c"), "a b c");
        assert_eq!(percent_decode("%zz%"), "%zz%", "malformed escapes pass through");
    }

    #[test]
    fn error_envelope_carries_code_and_details() {
        let r = Response::error(404, "not_found", "no such endpoint");
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"code\": \"not_found\""), "{body}");
        assert!(body.contains("\"details\": null"), "{body}");
        let r = Response::error_with_details(400, "lint_rejected", "m", "{\"script_index\": 2}");
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"details\": {\"script_index\": 2}"), "{body}");
    }

    #[test]
    fn read_response_round_trips_write_to() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            Response::json(200, "{\"ok\": true}\n")
                .with_header("x-chatls-shard", "3")
                .write_to(&mut s);
        });
        let (mut conn, _) = listener.accept().unwrap();
        let resp = read_response(&mut conn).unwrap();
        writer.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "application/json");
        assert_eq!(String::from_utf8_lossy(&resp.body), "{\"ok\": true}\n");
        let shard = resp.headers.iter().find(|(n, _)| n == "x-chatls-shard");
        assert_eq!(shard.map(|(_, v)| v.as_str()), Some("3"));
    }
}
