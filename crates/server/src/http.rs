//! A deliberately small HTTP/1.1 implementation over `std::net`.
//!
//! Enough of RFC 7230 for a loopback/LAN compilation service and its load
//! generator: request line + headers + `Content-Length` bodies, keep-alive
//! connections, pipelined requests, and fixed-length responses. Not
//! implemented (requests using them are rejected with a 4xx, never
//! mis-parsed): chunked transfer encoding, trailers, and multi-line
//! headers.
//!
//! Limits are explicit and enforced before allocation: 16 KiB of request
//! head, 4 MiB of body ([`MAX_HEAD_BYTES`], [`MAX_BODY_BYTES`]).

use std::collections::HashMap;
use std::io::Write;

/// Maximum bytes of request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Maximum request body bytes.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (path + optional query).
    pub path: String,
    /// Headers with lowercased names; later duplicates overwrite.
    pub headers: HashMap<String, String>,
    /// The body (empty when none).
    pub body: Vec<u8>,
}

impl Request {
    /// `true` when the client asked to keep the connection open
    /// (HTTP/1.1 default; `Connection: close` opts out).
    pub fn keep_alive(&self) -> bool {
        !matches!(
            self.headers.get("connection").map(|s| s.as_str()),
            Some(c) if c.eq_ignore_ascii_case("close")
        )
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ReadError {
    /// The bytes were not a well-formed request this server accepts. The
    /// payload is the status + message to answer with.
    Bad(u16, &'static str),
}

/// Parses `METHOD PATH HTTP/1.x` into `(method, path)`.
fn parse_request_line(line: &str) -> Result<(String, String), ReadError> {
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_string(), p.to_string(), v),
        _ => return Err(ReadError::Bad(400, "malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Bad(505, "only HTTP/1.x is supported"));
    }
    Ok((method, path))
}

/// Parses one `Name: value` header line into `headers` (name lowercased).
fn parse_header_line(line: &str, headers: &mut HashMap<String, String>) -> Result<(), ReadError> {
    let (name, value) = line
        .split_once(':')
        .ok_or(ReadError::Bad(400, "malformed header"))?;
    if name.is_empty() || name.contains(' ') {
        return Err(ReadError::Bad(400, "malformed header name"));
    }
    let name = name.to_ascii_lowercase();
    let value = value.trim().to_string();
    if let Some(prev) = headers.get(&name) {
        // RFC 7230 §3.3.2: repeated Content-Length with differing
        // values is a framing ambiguity (request-smuggling vector
        // behind a proxy) — reject, never pick one.
        if name == "content-length" && *prev != value {
            return Err(ReadError::Bad(400, "conflicting content-length headers"));
        }
    }
    headers.insert(name, value);
    Ok(())
}

/// Validates framing headers and returns the declared body length.
fn body_len_of(headers: &HashMap<String, String>) -> Result<usize, ReadError> {
    if headers.contains_key("transfer-encoding") {
        return Err(ReadError::Bad(501, "transfer-encoding is not supported"));
    }
    let len = match headers.get("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ReadError::Bad(400, "invalid content-length"))?,
    };
    if len > MAX_BODY_BYTES {
        return Err(ReadError::Bad(413, "body too large"));
    }
    Ok(len)
}

/// Incremental HTTP/1.1 request parser for the event-driven core.
///
/// The event core gets bytes whenever the socket is readable, in
/// whatever segmentation TCP delivered, so this parser accepts arbitrary
/// splits: feed bytes with [`RequestParser::feed`], then drain complete
/// requests with [`RequestParser::next_request`] (several per feed when
/// the client pipelines). Both limits ([`MAX_HEAD_BYTES`],
/// [`MAX_BODY_BYTES`]) apply; an `Err` means the connection is
/// unrecoverable (framing is lost) and must be answered and closed.
#[derive(Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// A parsed head waiting for `usize` bytes of body.
    pending: Option<(Request, usize)>,
}

impl RequestParser {
    /// A parser with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes as received from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as a request.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// `true` when a request has started arriving but is not complete —
    /// the event core's per-request read deadline keys off this.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty() || self.pending.is_some()
    }

    /// Returns the next complete request, `Ok(None)` when more bytes are
    /// needed, or the status + message to answer before closing.
    pub fn next_request(&mut self) -> Result<Option<Request>, ReadError> {
        if self.pending.is_none() {
            let Some(head_end) = find_head_end(&self.buf) else {
                if self.buf.len() > MAX_HEAD_BYTES {
                    return Err(ReadError::Bad(431, "request head too large"));
                }
                return Ok(None);
            };
            if head_end > MAX_HEAD_BYTES {
                return Err(ReadError::Bad(431, "request head too large"));
            }
            let head = std::str::from_utf8(&self.buf[..head_end])
                .map_err(|_| ReadError::Bad(400, "non-UTF-8 request head"))?;
            // Lines may end in CRLF or bare LF; the terminating empty
            // line is not iterated because `head_end` excludes the
            // blank-line terminator.
            let mut lines = head
                .split('\n')
                .map(|l| l.strip_suffix('\r').unwrap_or(l))
                .filter(|l| !l.is_empty());
            let (method, path) =
                parse_request_line(lines.next().unwrap_or_default())?;
            let mut headers = HashMap::new();
            for line in lines {
                parse_header_line(line, &mut headers)?;
            }
            let len = body_len_of(&headers)?;
            let terminator = terminator_len(&self.buf, head_end);
            self.buf.drain(..head_end + terminator);
            self.pending = Some((
                Request {
                    method,
                    path,
                    headers,
                    body: Vec::new(),
                },
                len,
            ));
        }
        let len = self.pending.as_ref().map_or(0, |(_, len)| *len);
        if self.buf.len() < len {
            return Ok(None);
        }
        let (mut req, len) = self.pending.take().expect("pending head");
        req.body = self.buf.drain(..len).collect();
        Ok(Some(req))
    }
}

/// Index of the byte *after* the last header line's newline — i.e. the
/// start of the blank-line terminator — or `None` while incomplete.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] != b'\n' {
            i += 1;
            continue;
        }
        // After a line's `\n`: an immediate `\n` or `\r\n` is the
        // blank-line head terminator.
        match buf.get(i + 1) {
            Some(b'\n') => return Some(i + 1),
            Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some(i + 1),
            _ => i += 1,
        }
    }
    None
}

/// Length of the blank-line terminator at `head_end` (`\n` or `\r\n`).
fn terminator_len(buf: &[u8], head_end: usize) -> usize {
    if buf.get(head_end) == Some(&b'\r') {
        2
    } else {
        1
    }
}

/// Human phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response.
pub fn write_response(
    w: &mut (impl Write + ?Sized),
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// [`write_response`] with a JSON error body `{"error": "..."}`.
pub fn write_error(
    w: &mut (impl Write + ?Sized),
    status: u16,
    message: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    write_error_with(w, status, message, None, keep_alive)
}

/// [`write_error`] carrying structured lint diagnostics: the body becomes
/// `{"error": "...", "diagnostics": [...]}` where `diagnostics` is a
/// pre-rendered JSON array (the `lint` crate's diagnostic shape), so
/// clients can act on stable codes instead of parsing the message.
pub fn write_error_with(
    w: &mut (impl Write + ?Sized),
    status: u16,
    message: &str,
    diagnostics_json: Option<&str>,
    keep_alive: bool,
) -> std::io::Result<()> {
    let body = match diagnostics_json {
        None => format!("{{\"error\": {}}}\n", crate::json::escape(message)),
        Some(d) => format!(
            "{{\"error\": {}, \"diagnostics\": {d}}}\n",
            crate::json::escape(message)
        ),
    };
    write_response(w, status, "application/json", body.as_bytes(), keep_alive)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `bytes` into a [`RequestParser`] one byte at a time and
    /// collects every complete request — the harshest possible TCP
    /// segmentation, so any framing assumption about read boundaries
    /// fails here.
    fn parse_byte_at_a_time(bytes: &[u8]) -> Result<Vec<Request>, ReadError> {
        let mut p = RequestParser::new();
        let mut out = Vec::new();
        for &b in bytes {
            p.feed(&[b]);
            while let Some(req) = p.next_request()? {
                out.push(req);
            }
        }
        assert!(!p.has_partial(), "parser left partial bytes: {}", p.buffered());
        Ok(out)
    }

    #[test]
    fn incremental_parser_handles_every_route_byte_at_a_time() {
        // One wire image per route, including bodies that straddle the
        // header/body split (inevitable when fed byte-at-a-time).
        let compile_body = r#"{"theta": 0.5, "epsilon": 1e-2}"#;
        let batch_body = r#"{"items": [{"theta": 0.1}]}"#;
        let cases: Vec<(String, &str, &str, &[u8])> = vec![
            ("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".into(), "GET", "/healthz", b""),
            ("GET /metrics HTTP/1.1\r\n\r\n".into(), "GET", "/metrics", b""),
            (
                "GET /debug/traces?limit=2 HTTP/1.1\r\nHost: t\r\n\r\n".into(),
                "GET",
                "/debug/traces?limit=2",
                b"",
            ),
            ("GET /debug/profile HTTP/1.1\r\n\r\n".into(), "GET", "/debug/profile", b""),
            (
                format!(
                    "POST /v1/compile HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{compile_body}",
                    compile_body.len()
                ),
                "POST",
                "/v1/compile",
                compile_body.as_bytes(),
            ),
            (
                format!(
                    "POST /v1/batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n{batch_body}",
                    batch_body.len()
                ),
                "POST",
                "/v1/batch",
                batch_body.as_bytes(),
            ),
        ];
        for (wire, method, path, body) in cases {
            let got = parse_byte_at_a_time(wire.as_bytes()).unwrap();
            assert_eq!(got.len(), 1, "{wire:?}");
            assert_eq!(got[0].method, method);
            assert_eq!(got[0].path, path);
            assert_eq!(got[0].body, body);
            assert!(got[0].keep_alive(), "HTTP/1.1 defaults to keep-alive");
        }
        let got =
            parse_byte_at_a_time(b"GET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap();
        assert!(!got[0].keep_alive(), "Connection: Close opts out");
    }

    #[test]
    fn incremental_parser_accepts_lf_only_line_endings() {
        let got = parse_byte_at_a_time(b"GET /healthz HTTP/1.1\nHost: t\n\n").unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].path, "/healthz");
    }

    #[test]
    fn incremental_parser_drains_pipelined_requests() {
        let wire = b"GET /healthz HTTP/1.1\r\n\r\nPOST /v1/compile HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let got = parse_byte_at_a_time(wire).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].path, "/healthz");
        assert_eq!(got[1].body, b"abcd");
        assert_eq!(got[2].path, "/metrics");
        assert!(!got[2].keep_alive());
        // One big feed produces the same three requests (the parser must
        // not depend on one-request-per-feed).
        let mut p = RequestParser::new();
        p.feed(wire);
        let mut bulk = Vec::new();
        while let Some(req) = p.next_request().unwrap() {
            bulk.push(req);
        }
        assert_eq!(bulk.len(), 3);
        assert_eq!(bulk[1].body, b"abcd");
    }

    #[test]
    fn incremental_parser_rejects_malformed_heads() {
        for (bytes, want) in [
            (&b"NONSENSE\r\n\r\n"[..], 400),
            (&b"GET / HTTP/2\r\n\r\n"[..], 505),
            (&b"GET / HTTP/1.1\r\nBad Header\r\n\r\n"[..], 400),
            (&b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..], 400),
            (&b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..], 501),
            (
                &b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n"[..],
                400,
            ),
        ] {
            match parse_byte_at_a_time(bytes) {
                Err(ReadError::Bad(status, _)) => assert_eq!(status, want, "{bytes:?}"),
                other => panic!("{bytes:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn incremental_parser_enforces_head_and_body_limits() {
        // Head never terminated: must reject once past MAX_HEAD_BYTES
        // rather than buffering forever.
        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/1.1\r\nX: ");
        p.feed(&vec![b'a'; MAX_HEAD_BYTES + 16]);
        match p.next_request() {
            Err(ReadError::Bad(431, _)) => {}
            other => panic!("expected 431, got {other:?}"),
        }

        let head = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let mut p = RequestParser::new();
        p.feed(head.as_bytes());
        match p.next_request() {
            Err(ReadError::Bad(413, _)) => {}
            other => panic!("expected 413, got {other:?}"),
        }
    }

    #[test]
    fn incremental_parser_reports_partial_state() {
        let mut p = RequestParser::new();
        assert!(!p.has_partial());
        p.feed(b"GET /heal");
        assert!(p.next_request().unwrap().is_none());
        assert!(p.has_partial(), "mid-head bytes are a partial request");
        p.feed(b"thz HTTP/1.1\r\n\r\n");
        assert!(p.next_request().unwrap().is_some());
        assert!(!p.has_partial());
        // A consumed head awaiting its body is also partial.
        p.feed(b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nab");
        assert!(p.next_request().unwrap().is_none());
        assert!(p.has_partial());
    }

    #[test]
    fn response_writer_shape() {
        let mut out: Vec<u8> = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}", true).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 2\r\n"));
        assert!(s.contains("Connection: keep-alive\r\n"));
        assert!(s.ends_with("\r\n\r\n{}"));

        let mut out: Vec<u8> = Vec::new();
        write_error(&mut out, 429, "queue full", false).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(s.contains("Connection: close\r\n"));
        assert!(s.contains("{\"error\": \"queue full\"}"));
    }
}
