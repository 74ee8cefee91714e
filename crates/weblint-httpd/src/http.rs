//! Hand-rolled HTTP/1.1 request parsing and response writing.
//!
//! The server speaks just enough HTTP/1.1 for its four routes: request
//! line, headers, `Content-Length` and `Transfer-Encoding: chunked`
//! bodies, persistent connections. There is no TLS, no multipart — a
//! malformed or unsupported request gets a `400`, an over-limit body a
//! `413`, exactly like the 1998 CGI stack would have refused oversized
//! POSTs. Chunked framing exists for the streaming lint path: a client
//! that does not know its document's length up front can still POST it,
//! and the event loop can lint each chunk as it lands.

use std::io::{self, BufRead, Read, Write};

/// Longest accepted request line or single header line, in bytes.
pub const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted on one request.
pub const MAX_HEADERS: usize = 100;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, `HEAD`, … uppercased as received.
    pub method: String,
    /// Decoded path portion of the request target (`/lint`).
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// `true` for `HTTP/1.0`, which defaults to one request per connection.
    pub http10: bool,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == &name.to_ascii_lowercase())
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with this name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to drop the connection after this request.
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) => v.eq_ignore_ascii_case("close"),
            // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
            None => self.http10,
        }
    }
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed input; the reason lands in the 400 body.
    BadRequest(&'static str),
    /// `Content-Length` exceeded the server's body limit → 413.
    BodyTooLarge {
        /// What the client declared.
        declared: usize,
        /// What the server accepts.
        limit: usize,
    },
    /// Clean end of stream before the first byte of a request — the
    /// client closed an idle keep-alive connection. Not an error.
    Eof,
    /// The socket timed out mid-read (idle keep-alive or stalled client).
    TimedOut,
    /// Any other transport failure.
    Io(io::ErrorKind),
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> ParseError {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ParseError::TimedOut,
            kind => ParseError::Io(kind),
        }
    }
}

/// Read one line up to CRLF (or bare LF), without the terminator.
/// Enforces [`MAX_LINE`]; returns the number of raw bytes consumed.
fn read_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> Result<usize, ParseError> {
    line.clear();
    let mut taken = reader.by_ref().take(MAX_LINE as u64 + 1);
    let n = taken.read_until(b'\n', line)?;
    if n == 0 {
        return Err(ParseError::Eof);
    }
    if n > MAX_LINE {
        return Err(ParseError::BadRequest("header line too long"));
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else {
        // EOF mid-line: the request was cut off.
        return Err(ParseError::BadRequest("truncated request"));
    }
    Ok(n)
}

/// How the request body is framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyFraming {
    /// Exactly this many bytes follow the head (`Content-Length`; zero
    /// when absent).
    Length(usize),
    /// `Transfer-Encoding: chunked` — hex-sized chunks until a zero
    /// chunk, then optional trailers up to an empty line.
    Chunked,
}

/// Parse one request off the wire. `max_body` bounds the decoded body.
/// On success also returns the total bytes consumed (the `bytes in`
/// counter's contribution).
pub fn parse_request(
    reader: &mut impl BufRead,
    max_body: usize,
) -> Result<(Request, u64), ParseError> {
    let (mut request, framing, mut consumed) = parse_head(reader, max_body)?;
    match framing {
        BodyFraming::Length(content_length) => {
            request.body = read_body(reader, content_length)?;
            consumed += content_length as u64;
        }
        BodyFraming::Chunked => {
            let (body, wire) = read_chunked_body(reader, max_body)?;
            request.body = body;
            consumed += wire;
        }
    }
    Ok((request, consumed))
}

/// Parse the request head — request line and headers — and validate
/// the body framing against `max_body`, without reading the body.
///
/// Split from [`read_body`] so the server can run the two phases under
/// different deadlines (the slowloris defense: a client may take a while
/// to upload a large body, but has no business dribbling headers), and so
/// over-limit bodies are refused before a byte of body is read.
///
/// Returns the body-less request, the body framing, and the bytes
/// consumed so far.
pub fn parse_head(
    reader: &mut impl BufRead,
    max_body: usize,
) -> Result<(Request, BodyFraming, u64), ParseError> {
    let mut line = Vec::with_capacity(256);
    let mut consumed = read_line(reader, &mut line)? as u64;
    let request_line = String::from_utf8(line.clone())
        .map_err(|_| ParseError::BadRequest("non-UTF-8 request line"))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ParseError::BadRequest("malformed request line")),
    };
    let http10 = match version {
        "HTTP/1.1" => false,
        "HTTP/1.0" => true,
        _ => return Err(ParseError::BadRequest("unsupported HTTP version")),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::BadRequest("malformed method"));
    }

    let (path, query) = parse_target(target)?;

    let mut headers = Vec::new();
    loop {
        consumed += read_line(reader, &mut line).map_err(|e| match e {
            // EOF inside the header block is malformed, not a clean close.
            ParseError::Eof => ParseError::BadRequest("truncated request"),
            other => other,
        })? as u64;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::BadRequest("too many headers"));
        }
        let text =
            std::str::from_utf8(&line).map_err(|_| ParseError::BadRequest("non-UTF-8 header"))?;
        let (name, value) = text
            .split_once(':')
            .ok_or(ParseError::BadRequest("header without colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::BadRequest("malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    // `Transfer-Encoding: chunked` is the one coding spoken; anything
    // else (gzip, a coding list, a second header) is refused rather than
    // guessed at — a misread coding desynchronizes keep-alive framing.
    let mut chunked = false;
    for (_, value) in headers.iter().filter(|(n, _)| n == "transfer-encoding") {
        if !value.eq_ignore_ascii_case("chunked") {
            return Err(ParseError::BadRequest("unsupported transfer-encoding"));
        }
        if chunked {
            return Err(ParseError::BadRequest("duplicate transfer-encoding"));
        }
        chunked = true;
    }
    if chunked && headers.iter().any(|(n, _)| n == "content-length") {
        // RFC 7230 §3.3.3: the pair is the classic request-smuggling
        // vector; refuse it outright instead of picking a winner.
        return Err(ParseError::BadRequest(
            "transfer-encoding with content-length",
        ));
    }

    // Strict Content-Length: digits only (`+10`, `0x0a`, and friends are
    // request-smuggling vectors, not numbers), and at most one value —
    // duplicate or conflicting lengths desynchronize keep-alive framing,
    // so they are refused outright rather than first-one-wins.
    let mut content_length = None;
    for (_, value) in headers.iter().filter(|(n, _)| n == "content-length") {
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseError::BadRequest("malformed content-length"));
        }
        let parsed = value
            .parse::<usize>()
            .map_err(|_| ParseError::BadRequest("malformed content-length"))?;
        if content_length.is_some_and(|seen| seen != parsed) {
            return Err(ParseError::BadRequest("conflicting content-length"));
        }
        content_length = Some(parsed);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(ParseError::BodyTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }
    let framing = if chunked {
        BodyFraming::Chunked
    } else {
        BodyFraming::Length(content_length)
    };

    Ok((
        Request {
            method: method.to_string(),
            path,
            query,
            http10,
            headers,
            body: Vec::new(),
        },
        framing,
        consumed,
    ))
}

/// Read exactly `content_length` body bytes (the second phase after
/// [`parse_head`]).
pub fn read_body(reader: &mut impl BufRead, content_length: usize) -> Result<Vec<u8>, ParseError> {
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ParseError::BadRequest("body shorter than content-length")
        } else {
            ParseError::from(e)
        }
    })?;
    Ok(body)
}

/// Decode a `Transfer-Encoding: chunked` body (the blocking counterpart
/// of [`ChunkDecoder`], for [`parse_request`]).
/// `max_body` bounds the *decoded* length. Returns the body and the raw
/// wire bytes consumed, framing included.
pub fn read_chunked_body(
    reader: &mut impl BufRead,
    max_body: usize,
) -> Result<(Vec<u8>, u64), ParseError> {
    let truncated = |e| match e {
        ParseError::Eof => ParseError::BadRequest("truncated chunked body"),
        other => other,
    };
    let mut body = Vec::new();
    let mut line = Vec::with_capacity(32);
    let mut wire = 0u64;
    loop {
        wire += read_line(reader, &mut line).map_err(truncated)? as u64;
        let size = parse_chunk_size(&line)?;
        if size == 0 {
            break;
        }
        if body.len() + size > max_body {
            return Err(ParseError::BodyTooLarge {
                declared: body.len() + size,
                limit: max_body,
            });
        }
        let at = body.len();
        body.resize(at + size, 0);
        reader.read_exact(&mut body[at..]).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                ParseError::BadRequest("truncated chunked body")
            } else {
                ParseError::from(e)
            }
        })?;
        wire += size as u64;
        wire += read_line(reader, &mut line).map_err(truncated)? as u64;
        if !line.is_empty() {
            return Err(ParseError::BadRequest("chunk data not followed by CRLF"));
        }
    }
    // Trailer section: headers after the last chunk, up to an empty line.
    // Accepted for framing but ignored — no route reads trailers.
    loop {
        wire += read_line(reader, &mut line).map_err(truncated)? as u64;
        if line.is_empty() {
            break;
        }
    }
    Ok((body, wire))
}

/// Parse one chunk-size line: hex digits, optionally followed by
/// `;extensions` (accepted and ignored, per RFC 7230 §4.1.1).
fn parse_chunk_size(line: &[u8]) -> Result<usize, ParseError> {
    let text =
        std::str::from_utf8(line).map_err(|_| ParseError::BadRequest("malformed chunk size"))?;
    let digits = text.split(';').next().unwrap_or("").trim();
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(ParseError::BadRequest("malformed chunk size"));
    }
    usize::from_str_radix(digits, 16).map_err(|_| ParseError::BadRequest("chunk size too large"))
}

/// Incremental chunked-body decoder for the event loop: bytes go in as
/// they arrive off the socket, decoded body bytes come out through a
/// callback, and the connection buffer never has to hold more than one
/// partial chunk-size line.
#[derive(Debug, Default)]
pub(crate) struct ChunkDecoder {
    state: ChunkState,
    /// Decoded body bytes emitted so far (the `max_body` accounting).
    decoded: usize,
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    /// Expecting a chunk-size line.
    #[default]
    Size,
    /// Inside a chunk's data, this many bytes still owed.
    Data(usize),
    /// Expecting the CRLF that closes a chunk's data.
    DataEnd,
    /// After the zero chunk: trailer lines until an empty one.
    Trailers,
    /// The terminator has been consumed; the body is complete.
    Done,
}

impl ChunkDecoder {
    /// Decode as much of `buf` as possible, passing decoded body bytes to
    /// `sink`. Returns `(consumed, done)`: the caller drains `consumed`
    /// bytes (pipelined data after the terminator stays put) and, once
    /// `done`, the body is complete. Errors map to the same refusals the
    /// blocking [`read_chunked_body`] produces.
    pub(crate) fn push(
        &mut self,
        buf: &[u8],
        max_body: usize,
        sink: &mut dyn FnMut(&[u8]),
    ) -> Result<(usize, bool), ParseError> {
        let mut at = 0;
        loop {
            match self.state {
                ChunkState::Size => {
                    let Some(line_end) = find_line_end(&buf[at..]) else {
                        if buf.len() - at > MAX_LINE {
                            return Err(ParseError::BadRequest("header line too long"));
                        }
                        return Ok((at, false));
                    };
                    let size = parse_chunk_size(trim_line(&buf[at..at + line_end]))?;
                    at += line_end;
                    if size == 0 {
                        self.state = ChunkState::Trailers;
                    } else if self.decoded + size > max_body {
                        return Err(ParseError::BodyTooLarge {
                            declared: self.decoded + size,
                            limit: max_body,
                        });
                    } else {
                        self.state = ChunkState::Data(size);
                    }
                }
                ChunkState::Data(remaining) => {
                    let take = remaining.min(buf.len() - at);
                    if take == 0 {
                        return Ok((at, false));
                    }
                    sink(&buf[at..at + take]);
                    self.decoded += take;
                    at += take;
                    self.state = if take == remaining {
                        ChunkState::DataEnd
                    } else {
                        ChunkState::Data(remaining - take)
                    };
                }
                ChunkState::DataEnd => {
                    let Some(line_end) = find_line_end(&buf[at..]) else {
                        if buf.len() - at > 2 {
                            return Err(ParseError::BadRequest("chunk data not followed by CRLF"));
                        }
                        return Ok((at, false));
                    };
                    if !trim_line(&buf[at..at + line_end]).is_empty() {
                        return Err(ParseError::BadRequest("chunk data not followed by CRLF"));
                    }
                    at += line_end;
                    self.state = ChunkState::Size;
                }
                ChunkState::Trailers => {
                    let Some(line_end) = find_line_end(&buf[at..]) else {
                        if buf.len() - at > MAX_LINE {
                            return Err(ParseError::BadRequest("header line too long"));
                        }
                        return Ok((at, false));
                    };
                    let empty = trim_line(&buf[at..at + line_end]).is_empty();
                    at += line_end;
                    if empty {
                        self.state = ChunkState::Done;
                    }
                }
                ChunkState::Done => return Ok((at, true)),
            }
        }
    }
}

/// Index just past the first LF in `buf`, or `None` if no line has fully
/// arrived yet.
fn find_line_end(buf: &[u8]) -> Option<usize> {
    buf.iter().position(|&b| b == b'\n').map(|i| i + 1)
}

/// Strip the trailing LF/CRLF [`find_line_end`] included.
fn trim_line(line: &[u8]) -> &[u8] {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    line.strip_suffix(b"\r").unwrap_or(line)
}

/// Where a buffered request head ends: the index just past the first
/// empty line (CRLF or bare-LF terminated, matching [`read_line`]'s
/// tolerance), or `None` if the head has not fully arrived yet.
///
/// The event loop's incremental framing: it only hands bytes to
/// [`parse_head`] once this (or [`head_overflow`]) says parsing can
/// reach a verdict, so partial arrivals are never misread as truncation.
pub(crate) fn find_head_end(buf: &[u8]) -> Option<usize> {
    for (i, &b) in buf.iter().enumerate() {
        if b != b'\n' {
            continue;
        }
        match (buf.get(i + 1), buf.get(i + 2)) {
            (Some(b'\n'), _) => return Some(i + 2),
            (Some(b'\r'), Some(b'\n')) => return Some(i + 3),
            _ => {}
        }
    }
    None
}

/// Whether a still-unterminated head already violates a hard limit —
/// a line beyond [`MAX_LINE`] or more lines than a request line plus
/// [`MAX_HEADERS`] headers could fill. Once true, [`parse_head`] reaches
/// the same refusal on the buffered bytes alone, so the server need not
/// (and must not) wait for the terminator a hostile client will never
/// send.
pub(crate) fn head_overflow(buf: &[u8]) -> bool {
    let mut lines = 0usize;
    let mut line_start = 0usize;
    for (i, &b) in buf.iter().enumerate() {
        if b == b'\n' {
            lines += 1;
            if lines > MAX_HEADERS + 1 {
                return true;
            }
            line_start = i + 1;
        } else if i - line_start >= MAX_LINE {
            return true;
        }
    }
    false
}

/// Split a request target into decoded path and query pairs.
fn parse_target(target: &str) -> Result<(String, Vec<(String, String)>), ParseError> {
    if !target.starts_with('/') {
        return Err(ParseError::BadRequest("request target must be absolute"));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path).ok_or(ParseError::BadRequest("malformed path escape"))?;
    let mut query = Vec::new();
    if let Some(raw_query) = raw_query {
        for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            let k = percent_decode(k).ok_or(ParseError::BadRequest("malformed query escape"))?;
            let v = percent_decode(v).ok_or(ParseError::BadRequest("malformed query escape"))?;
            query.push((k, v));
        }
    }
    Ok((path, query))
}

/// `%XX` and `+` decoding. Returns `None` on a truncated or non-hex escape
/// or non-UTF-8 result.
pub fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = hex_val(*bytes.get(i + 1)?)?;
                let lo = hex_val(*bytes.get(i + 2)?)?;
                out.push(hi * 16 + lo);
                i += 3;
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
    String::from_utf8(out).ok()
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// One response to write back.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// MIME type of the body.
    pub content_type: &'static str,
    /// Extra `(name, value)` headers.
    pub extra_headers: Vec<(&'static str, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with a plain-text body.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A response with an HTML body.
    pub fn html(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/html; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }
}

/// The standard reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        415 => "Unsupported Media Type",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize `response` to `out`. `head_only` omits the body (HEAD);
/// `keep_alive` selects the `Connection` header. Returns bytes written.
pub fn write_response(
    out: &mut impl Write,
    response: &Response,
    keep_alive: bool,
    head_only: bool,
) -> io::Result<u64> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nServer: weblint-httpd/{}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason(response.status),
        env!("CARGO_PKG_VERSION"),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    out.write_all(head.as_bytes())?;
    let mut written = head.len() as u64;
    if !head_only {
        out.write_all(&response.body)?;
        written += response.body.len() as u64;
    }
    out.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<(Request, u64), ParseError> {
        parse_request(&mut Cursor::new(raw.as_bytes().to_vec()), 1 << 20)
    }

    #[test]
    fn minimal_get() {
        let (req, consumed) = parse("GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/health");
        assert!(req.query.is_empty());
        assert!(!req.http10);
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(!req.wants_close());
        assert_eq!(consumed, 33);
    }

    #[test]
    fn post_with_body_and_query() {
        let (req, _) = parse(
            "POST /lint?format=json&name=my+page%2ehtml HTTP/1.1\r\nContent-Length: 9\r\n\r\n<H1>x</H2",
        )
        .unwrap();
        assert_eq!(req.query_param("format"), Some("json"));
        assert_eq!(req.query_param("name"), Some("my page.html"));
        assert_eq!(req.body, b"<H1>x</H2");
    }

    #[test]
    fn http10_defaults_to_close() {
        let (req, _) = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(req.http10);
        assert!(req.wants_close());
        let (req, _) = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(req.wants_close());
    }

    #[test]
    fn malformed_requests_are_400() {
        for raw in [
            "GET\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "GET /x HTTP/2.0\r\n\r\n",
            "get /x HTTP/1.1\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1\r\nbad header\r\n\r\n",
            "GET /x HTTP/1.1\r\nContent-Length: pony\r\n\r\n",
            "GET /%zz HTTP/1.1\r\n\r\n",
            // Only the chunked coding is spoken; anything else, stacked
            // codings, or chunked alongside a Content-Length (the
            // smuggling vector) is refused.
            "POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n\r\n",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n0\r\n\r\n",
            // Malformed chunk framing: bad size line, missing CRLF after
            // the data, truncated mid-chunk.
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\npony\r\nhello\r\n0\r\n\r\n",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhelloX\r\n0\r\n\r\n",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel",
            "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            // Signs, whitespace padding inside the digits, hex, empty, and
            // conflicting duplicates are all smuggling vectors, not lengths.
            "POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
            "POST /x HTTP/1.1\r\nContent-Length: -5\r\n\r\nhello",
            "POST /x HTTP/1.1\r\nContent-Length: 0x05\r\n\r\nhello",
            "POST /x HTTP/1.1\r\nContent-Length:\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\nhello",
        ] {
            assert!(
                matches!(parse(raw), Err(ParseError::BadRequest(_))),
                "{raw:?} should be a 400"
            );
        }
    }

    #[test]
    fn over_limit_body_is_413_without_reading_it() {
        let raw = "POST /lint HTTP/1.1\r\nContent-Length: 64\r\n\r\n";
        let err = parse_request(&mut Cursor::new(raw.as_bytes().to_vec()), 16).unwrap_err();
        assert_eq!(
            err,
            ParseError::BodyTooLarge {
                declared: 64,
                limit: 16
            }
        );
    }

    #[test]
    fn chunked_body_reassembles() {
        let raw = "POST /lint HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                   4\r\n<H1>\r\n6;note=ext\r\nx</H2>\r\n0\r\n\r\n";
        let (req, consumed) = parse(raw).unwrap();
        assert_eq!(req.body, b"<H1>x</H2>");
        assert_eq!(consumed, raw.len() as u64, "framing bytes all counted");
        // Case-insensitive coding name, hex sizes, and trailers.
        let raw = "POST /x HTTP/1.1\r\nTransfer-Encoding: Chunked\r\n\r\n\
                   A\r\n0123456789\r\n0\r\nX-Trailer: ignored\r\n\r\n";
        let (req, consumed) = parse(raw).unwrap();
        assert_eq!(req.body, b"0123456789");
        assert_eq!(consumed, raw.len() as u64);
    }

    #[test]
    fn chunked_head_reports_chunked_framing() {
        let raw = "POST /lint HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        let (_, framing, _) = parse_head(&mut Cursor::new(raw.as_bytes().to_vec()), 16).unwrap();
        assert_eq!(framing, BodyFraming::Chunked);
    }

    #[test]
    fn chunked_body_over_limit_is_413_at_the_offending_chunk() {
        let raw = "POST /lint HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                   10\r\n0123456789abcdef\r\n10\r\n0123456789abcdef\r\n0\r\n\r\n";
        let err = parse_request(&mut Cursor::new(raw.as_bytes().to_vec()), 24).unwrap_err();
        assert_eq!(
            err,
            ParseError::BodyTooLarge {
                declared: 32,
                limit: 24
            }
        );
    }

    #[test]
    fn chunk_decoder_matches_blocking_decoder_at_every_split() {
        let wire = b"4\r\n<H1>\r\n6;ext=1\r\nx</H2>\r\n0\r\nX-T: v\r\n\r\nGET /next";
        let (expected, consumed) = read_chunked_body(&mut Cursor::new(wire.to_vec()), 64).unwrap();
        assert_eq!(expected, b"<H1>x</H2>");
        for split in 0..=wire.len() {
            let mut decoder = ChunkDecoder::default();
            let mut decoded = Vec::new();
            let mut sink = |chunk: &[u8]| decoded.extend_from_slice(chunk);
            let (used, done) = decoder.push(&wire[..split], 64, &mut sink).unwrap();
            assert!(used <= split, "split {split}");
            let mut rest = wire[used..].to_vec();
            let (used2, done2) = decoder.push(&rest, 64, &mut sink).unwrap();
            rest.drain(..used2);
            assert!(done2 || done, "split {split} never completed");
            assert_eq!(decoded, expected, "split {split}");
            assert_eq!(rest, b"GET /next", "split {split}: pipelined data kept");
            let _ = consumed;
        }
    }

    #[test]
    fn chunk_decoder_refuses_bad_framing() {
        let mut sink = |_: &[u8]| {};
        let mut decoder = ChunkDecoder::default();
        assert!(matches!(
            decoder.push(b"pony\r\n", 64, &mut sink),
            Err(ParseError::BadRequest("malformed chunk size"))
        ));
        let mut decoder = ChunkDecoder::default();
        assert!(matches!(
            decoder.push(b"5\r\nhelloXX\r\n", 64, &mut sink),
            Err(ParseError::BadRequest("chunk data not followed by CRLF"))
        ));
        let mut decoder = ChunkDecoder::default();
        assert!(matches!(
            decoder.push(b"10\r\n", 8, &mut sink),
            Err(ParseError::BodyTooLarge {
                declared: 16,
                limit: 8
            })
        ));
    }

    #[test]
    fn duplicate_but_agreeing_content_lengths_are_accepted() {
        // RFC 7230 §3.3.2 allows folding identical repeated values.
        let (req, _) =
            parse("POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn head_and_body_phases_compose_like_parse_request() {
        let raw = "POST /lint HTTP/1.1\r\nContent-Length: 9\r\n\r\n<H1>x</H2";
        let mut cursor = Cursor::new(raw.as_bytes().to_vec());
        let (mut req, framing, consumed) = parse_head(&mut cursor, 1 << 20).unwrap();
        assert!(req.body.is_empty(), "head phase must not touch the body");
        assert_eq!(framing, BodyFraming::Length(9));
        req.body = read_body(&mut cursor, 9).unwrap();
        assert_eq!(req.body, b"<H1>x</H2");
        let (whole, total) = parse(raw).unwrap();
        assert_eq!(whole.body, req.body);
        assert_eq!(total, consumed + 9);
    }

    #[test]
    fn over_limit_body_is_rejected_in_the_head_phase() {
        // 413 must be decided before a single body byte is read.
        let raw = "POST /lint HTTP/1.1\r\nContent-Length: 64\r\n\r\n";
        let mut cursor = Cursor::new(raw.as_bytes().to_vec());
        let err = parse_head(&mut cursor, 16).unwrap_err();
        assert!(matches!(err, ParseError::BodyTooLarge { .. }));
        assert_eq!(cursor.position() as usize, raw.len());
    }

    #[test]
    fn eof_before_request_is_clean() {
        assert_eq!(parse("").unwrap_err(), ParseError::Eof);
        // …but EOF mid-request is not.
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\n"),
            Err(ParseError::BadRequest(_))
        ));
    }

    #[test]
    fn overlong_line_rejected() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE));
        assert!(matches!(parse(&raw), Err(ParseError::BadRequest(_))));
    }

    #[test]
    fn bare_lf_is_tolerated() {
        let (req, _) = parse("GET /health HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.path, "/health");
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\n"), Some(16));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\nrest"), Some(17));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\nHost: x\r\n"), None);
        assert_eq!(find_head_end(b"GET / HT"), None);
        assert_eq!(find_head_end(b""), None);
        // The head ends where the FIRST empty line is, pipelined data after.
        let two = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        assert_eq!(find_head_end(two), Some(19));
    }

    #[test]
    fn head_overflow_matches_parser_limits() {
        assert!(!head_overflow(b"GET / HTTP/1.1\r\nHost: x\r\n"));
        // A single line past MAX_LINE can never parse; the parser agrees.
        let long = vec![b'a'; MAX_LINE + 1];
        assert!(head_overflow(&long));
        assert!(matches!(
            parse_head(&mut Cursor::new(long), 1 << 20),
            Err(ParseError::BadRequest("header line too long"))
        ));
        // More lines than a request line + MAX_HEADERS headers can fill.
        let mut many = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            many.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        assert!(head_overflow(&many));
        assert!(matches!(
            parse_head(&mut Cursor::new(many), 1 << 20),
            Err(ParseError::BadRequest("too many headers"))
        ));
        // Right at the limits is not an overflow.
        let mut full = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADERS {
            full.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        assert!(!head_overflow(&full));
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c").as_deref(), Some("a b c"));
        assert_eq!(percent_decode("%48%65y").as_deref(), Some("Hey"));
        assert_eq!(percent_decode("%4"), None);
        assert_eq!(percent_decode("%zz"), None);
    }

    #[test]
    fn responses_serialize_with_length_and_connection() {
        let mut out = Vec::new();
        let written = write_response(&mut out, &Response::text(200, "hi"), true, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nhi"));
        assert_eq!(written, text.len() as u64);

        let mut out = Vec::new();
        write_response(&mut out, &Response::text(404, "gone"), false, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.ends_with("\r\n\r\n"), "HEAD omits the body");
    }
}
