//! Minimal HTTP/1.1 message handling over blocking streams.
//!
//! Implements exactly the subset the inference server needs — request
//! parsing with `Content-Length` and `chunked` bodies, response writing,
//! and keep-alive negotiation — on plain `std::io` traits, so the whole
//! layer stays dependency-free and unit-testable against in-memory
//! buffers.

use std::io::{BufRead, Read, Write};

use privim_obs::json::ToJson;

/// Upper bound on a single header line (request line included).
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Upper bound on the number of header fields per request, and on the
/// trailer fields of a chunked body.
const MAX_HEADERS: usize = 100;
/// Upper bound on the hex digits of a chunk size: 16 hold any `u64`;
/// a longer size is an overflow or padding, and is refused either way.
const MAX_CHUNK_SIZE_DIGITS: usize = 16;

/// The one `Retry-After` value every 503 in the tier advertises — queue
/// shed, loading gate, drain, and router no-backend alike — so clients
/// back off uniformly no matter which layer shed them.
pub const RETRY_AFTER_SECS: &str = "1";

/// Request methods the server distinguishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// Anything else, preserved for the 405 response.
    Other(String),
}

impl Method {
    fn parse(s: &str) -> Method {
        match s {
            "GET" => Method::Get,
            "POST" => Method::Post,
            other => Method::Other(other.to_string()),
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Method::Get => f.write_str("GET"),
            Method::Post => f.write_str("POST"),
            Method::Other(s) => f.write_str(s),
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target (path + optional query), exactly as sent.
    pub path: String,
    /// Header fields in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body: `Content-Length` bytes, or a decoded `chunked`
    /// body; empty without either.
    pub body: Vec<u8>,
    /// True for `HTTP/1.1`, false for `HTTP/1.0`.
    pub http11: bool,
    /// A transfer coding the parser does not implement, if the request
    /// named one. Its body is unread, so the connection has no next
    /// request boundary: answer 501 and close it.
    pub unsupported_coding: Option<String>,
}

impl Request {
    /// First header named `name` (lower-case), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after the response,
    /// following HTTP/1.1 defaults (`close` opts out) and HTTP/1.0
    /// defaults (`keep-alive` opts in).
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.http11,
        }
    }

    /// The path without its query string.
    pub fn route(&self) -> &str {
        self.path.split('?').next().unwrap_or(&self.path)
    }
}

/// Parse failures; each maps to a response status where one makes sense.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed before sending a full request.
    UnexpectedEof,
    /// Could not parse the request line or a header.
    Malformed(String),
    /// A line, header count, or body exceeded its limit.
    TooLarge(String),
    /// Underlying transport failure (including read timeouts).
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::UnexpectedEof => f.write_str("connection closed mid-request"),
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::TooLarge(msg) => write!(f, "request too large: {msg}"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl HttpError {
    /// The status code a server should answer this parse failure with
    /// (`None` when the connection is past saving).
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::UnexpectedEof | HttpError::Io(_) => None,
            HttpError::Malformed(_) => Some(400),
            HttpError::TooLarge(_) => Some(413),
        }
    }
}

/// Reads one line terminated by `\n`, rejecting lines over
/// [`MAX_LINE_BYTES`]; strips the trailing `\r\n` / `\n`.
fn read_line<R: BufRead>(r: &mut R) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    let mut take = (&mut *r).take(MAX_LINE_BYTES as u64 + 1);
    take.read_until(b'\n', &mut line).map_err(HttpError::Io)?;
    if line.is_empty() {
        return Ok(None); // clean EOF
    }
    if line.last() != Some(&b'\n') {
        if line.len() > MAX_LINE_BYTES {
            return Err(HttpError::TooLarge("header line".into()));
        }
        return Err(HttpError::UnexpectedEof);
    }
    line.pop();
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| HttpError::Malformed("non-UTF-8 header".into()))
}

/// The request's `Content-Length`, if it has one. RFC 9112 §6.3 makes
/// ambiguous framing an error, so two different lengths, a length next
/// to `Transfer-Encoding`, and a length that is not plain digits
/// (`usize`'s parser would take a leading `+`) are rejected, not
/// guessed at.
fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, HttpError> {
    let mut lengths = headers
        .iter()
        .filter(|(n, _)| n == "content-length")
        .map(|(_, v)| v);
    let Some(len) = lengths.next() else {
        return Ok(None);
    };
    if lengths.any(|other| other != len) {
        return Err(HttpError::Malformed(
            "conflicting content-length headers".into(),
        ));
    }
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(HttpError::Malformed(
            "content-length with transfer-encoding".into(),
        ));
    }
    let bad = || HttpError::Malformed(format!("bad content-length: {len:?}"));
    if len.is_empty() || !len.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad());
    }
    len.parse().map(Some).map_err(|_| bad())
}

/// How a request's body is framed (RFC 9112 §6.3).
enum Framing {
    None,
    Length(usize),
    Chunked,
    Unsupported(String),
}

/// The request's body framing. `chunked` must be the only coding
/// (applying it twice is an error); a coding this parser does not
/// implement is reported for a 501 (RFC 9112 §6.1) rather than
/// guessed at. HTTP/1.0 has no transfer codings, so one there is an
/// error.
fn framing(headers: &[(String, String)], http11: bool) -> Result<Framing, HttpError> {
    let length = content_length(headers)?;
    let codings: Vec<String> = headers
        .iter()
        .filter(|(n, _)| n == "transfer-encoding")
        .flat_map(|(_, v)| v.split(','))
        .map(|c| c.trim().to_ascii_lowercase())
        .collect();
    if codings.is_empty() {
        return Ok(length.map_or(Framing::None, Framing::Length));
    }
    if !http11 {
        return Err(HttpError::Malformed(
            "transfer-encoding in an HTTP/1.0 request".into(),
        ));
    }
    if codings.iter().any(String::is_empty) {
        return Err(HttpError::Malformed("empty transfer coding".into()));
    }
    if let Some(other) = codings.iter().find(|c| *c != "chunked") {
        return Ok(Framing::Unsupported(other.clone()));
    }
    if codings.len() > 1 {
        return Err(HttpError::Malformed(
            "chunked applied more than once".into(),
        ));
    }
    Ok(Framing::Chunked)
}

/// Fills `buf` from `r`; a short stream is [`HttpError::UnexpectedEof`].
fn read_bytes<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), HttpError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => HttpError::UnexpectedEof,
        _ => HttpError::Io(e),
    })
}

/// The size on a chunk-size line, `1*HEXDIG [ chunk-ext ]`; the
/// extension is ignored.
fn chunk_size(line: &str) -> Result<u64, HttpError> {
    let digits = line
        .split(';')
        .next()
        .unwrap_or_default()
        .trim_end_matches([' ', '\t']);
    let bad = || HttpError::Malformed(format!("bad chunk size: {line:?}"));
    if !(1..=MAX_CHUNK_SIZE_DIGITS).contains(&digits.len())
        || !digits.bytes().all(|b| b.is_ascii_hexdigit())
    {
        return Err(bad());
    }
    u64::from_str_radix(digits, 16).map_err(|_| bad())
}

/// Decodes a `chunked` body (RFC 9112 §7.1) of at most `max_body`
/// decoded bytes. Chunk extensions and trailer fields are read and
/// dropped.
fn read_chunked<R: BufRead>(r: &mut R, max_body: usize) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    loop {
        let line = read_line(r)?.ok_or(HttpError::UnexpectedEof)?;
        let size = chunk_size(&line)?;
        if size == 0 {
            break;
        }
        let start = body.len();
        let end = usize::try_from(size)
            .ok()
            .and_then(|n| start.checked_add(n))
            .filter(|&end| end <= max_body)
            .ok_or_else(|| HttpError::TooLarge(format!("chunked body over {max_body} bytes")))?;
        body.resize(end, 0);
        read_bytes(r, &mut body[start..])?;
        if !read_line(r)?.ok_or(HttpError::UnexpectedEof)?.is_empty() {
            return Err(HttpError::Malformed("chunk longer than its size".into()));
        }
    }
    for _ in 0..=MAX_HEADERS {
        if read_line(r)?.ok_or(HttpError::UnexpectedEof)?.is_empty() {
            return Ok(body);
        }
    }
    Err(HttpError::TooLarge("too many trailer fields".into()))
}

/// Reads one request from `r`.
///
/// Returns `Ok(None)` when the peer closed the connection cleanly before
/// sending anything (the normal end of a keep-alive session). A body is
/// read when one unambiguous `Content-Length` or the `chunked` coding
/// frames it, and only up to `max_body` (decoded) bytes. A request that
/// names another coding comes back with
/// [`Request::unsupported_coding`] set and its body unread.
pub fn read_request<R: BufRead>(r: &mut R, max_body: usize) -> Result<Option<Request>, HttpError> {
    let Some(request_line) = read_line(r)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (Method::parse(m), p.to_string(), v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line: {request_line:?}"
            )))
        }
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(HttpError::Malformed(format!("unsupported version {other}"))),
    };

    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?.ok_or(HttpError::UnexpectedEof)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge("too many headers".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut req = Request {
        method,
        path,
        headers,
        body: Vec::new(),
        http11,
        unsupported_coding: None,
    };
    match framing(&req.headers, http11)? {
        Framing::None => {}
        Framing::Length(len) => {
            if len > max_body {
                return Err(HttpError::TooLarge(format!(
                    "body of {len} bytes (limit {max_body})"
                )));
            }
            req.body = vec![0u8; len];
            read_bytes(r, &mut req.body)?;
        }
        Framing::Chunked => req.body = read_chunked(r, max_body)?,
        Framing::Unsupported(coding) => req.unsupported_coding = Some(coding),
    }
    Ok(Some(req))
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (`Content-Length` and `Connection` are added at
    /// write time).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with the given status and `Content-Type`.
    pub fn new(status: u16, content_type: &str, body: Vec<u8>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), content_type.into())],
            body,
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response::new(
            status,
            "text/plain; charset=utf-8",
            body.into().into_bytes(),
        )
    }

    /// An `application/json` response from pre-serialized bytes.
    pub fn json(status: u16, body: Vec<u8>) -> Response {
        Response::new(status, "application/json", body)
    }

    /// A JSON error body `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        let body = privim_obs::json::object([("error", message.to_json_value())]);
        Response::json(status, body.to_json().into_bytes())
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// The canonical 503: a JSON error body plus the tier-wide
    /// `Retry-After` ([`RETRY_AFTER_SECS`]). Every shed path must go
    /// through here so clients see one consistent back-off signal.
    pub fn unavailable(message: &str) -> Response {
        Response::error(503, message).with_header("Retry-After", RETRY_AFTER_SECS)
    }

    /// The canonical reason phrase for the status code.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes the response, appending `Content-Length` and a
    /// `Connection` header matching `keep_alive`.
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> std::io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason());
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n\r\n"
        } else {
            "Connection: close\r\n\r\n"
        });
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut raw.as_bytes(), 1024)
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.http11);
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let req = parse("POST /v1/seeds HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"k\":3}")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"{\"k\":3}");
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn connection_close_and_http10_defaults() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.wants_keep_alive());
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.wants_keep_alive());
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn rejects_malformed_request_line_and_version() {
        assert!(matches!(
            parse("NOT-HTTP\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/2\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1 extra\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_body_with_413() {
        let err = parse("POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::TooLarge(_)));
        assert_eq!(err.status(), Some(413));
    }

    #[test]
    fn rejects_conflicting_content_lengths() {
        let err = parse("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!")
            .unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
        assert_eq!(err.status(), Some(400));
        // Repeating the same length is not ambiguous.
        let req = parse("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn rejects_signed_content_length() {
        for len in ["+5", "-5", "0x5", "5 5", ""] {
            let err = parse(&format!(
                "POST / HTTP/1.1\r\nContent-Length: {len}\r\n\r\nhello"
            ))
            .unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{len:?}: {err}");
            assert_eq!(err.status(), Some(400));
        }
    }

    #[test]
    fn rejects_content_length_with_transfer_encoding() {
        let err = parse(
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
        assert_eq!(err.status(), Some(400));
    }

    fn chunked(body: &str) -> String {
        format!("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{body}")
    }

    #[test]
    fn decodes_chunked_bodies() {
        let req = parse(&chunked("5\r\nhello\r\n0\r\n\r\n")).unwrap().unwrap();
        assert_eq!(req.body, b"hello");
        assert_eq!(req.unsupported_coding, None);
        // Several chunks, upper-case hex, an extension, a trailer field,
        // then the next keep-alive request on the same stream.
        let raw = chunked("3;name=v\r\nabc\r\nA\r\n0123456789\r\n0\r\nX-Sum: 1\r\n\r\n")
            + "GET /next HTTP/1.1\r\n\r\n";
        let mut stream = raw.as_bytes();
        let req = read_request(&mut stream, 1024).unwrap().unwrap();
        assert_eq!(req.body, b"abc0123456789");
        let next = read_request(&mut stream, 1024).unwrap().unwrap();
        assert_eq!(next.path, "/next");
    }

    #[test]
    fn chunked_body_limit_applies_to_the_decoded_size() {
        // 600 + 600 decoded bytes against a 1024-byte limit.
        let part = "x".repeat(600);
        let err = parse(&chunked(&format!(
            "258\r\n{part}\r\n258\r\n{part}\r\n0\r\n\r\n"
        )))
        .unwrap_err();
        assert!(matches!(err, HttpError::TooLarge(_)), "{err}");
        assert_eq!(err.status(), Some(413));
        // A size that does not fit any buffer is refused before reading.
        let err = parse(&chunked("ffffffffffffffff\r\n")).unwrap_err();
        assert_eq!(err.status(), Some(413), "{err}");
    }

    #[test]
    fn rejects_bad_chunk_framing() {
        for body in [
            "1ffffffffffffffff\r\n",                   // 17 digits: over the bound
            "00000000000000005\r\nhello\r\n0\r\n\r\n", // padded past the bound
            "+5\r\nhello\r\n0\r\n\r\n",                // not 1*HEXDIG
            "\r\n",                                    // no size
            "5\r\nhello!\r\n0\r\n\r\n",                // data longer than its size
        ] {
            let err = parse(&chunked(body)).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{body:?}: {err}");
            assert_eq!(err.status(), Some(400));
        }
        let err = parse(&chunked("5\r\nhel")).unwrap_err();
        assert!(matches!(err, HttpError::UnexpectedEof), "{err}");
        for head in [
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked, chunked\r\n\r\n",
            "POST / HTTP/1.1\r\nTransfer-Encoding: ,chunked\r\n\r\n",
            "POST / HTTP/1.0\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            let err = parse(head).unwrap_err();
            assert_eq!(err.status(), Some(400), "{head:?}: {err}");
        }
    }

    #[test]
    fn unknown_transfer_codings_are_reported_for_501() {
        for (coding, expected) in [
            ("gzip", "gzip"),
            ("GZIP, chunked", "gzip"),
            ("chunked, br", "br"),
        ] {
            let req = parse(&format!(
                "POST / HTTP/1.1\r\nTransfer-Encoding: {coding}\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
            ))
            .unwrap()
            .unwrap();
            assert_eq!(
                req.unsupported_coding.as_deref(),
                Some(expected),
                "{coding}"
            );
            assert!(req.body.is_empty(), "the body stays unread");
        }
        assert_eq!(Response::text(501, "").reason(), "Not Implemented");
    }

    #[test]
    fn fuzzed_requests_never_panic_or_overread() {
        // Seeded sweep over mutated and truncated valid requests plus
        // random bytes, each read to the end of its stream as one
        // keep-alive session: every outcome is a request whose body fits
        // the limit or a typed error with its status mapping.
        use rand::{Rng, SeedableRng};
        const MAX_BODY: usize = 16;
        let fixtures: [&[u8]; 4] = [
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            b"POST /v1/seeds HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"k\":3}",
            b"POST / HTTP/1.0\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nab\
              GET / HTTP/1.1\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4854_5450);
        for _ in 0..3000 {
            let mut bytes = fixtures[rng.gen_range(0..fixtures.len())].to_vec();
            match rng.gen_range(0..5usize) {
                0 => {
                    // Flip bits in a few bytes.
                    for _ in 0..rng.gen_range(1..4usize) {
                        let pos = rng.gen_range(0..bytes.len());
                        bytes[pos] ^= rng.gen_range(1..256usize) as u8;
                    }
                }
                1 => bytes.truncate(rng.gen_range(0..bytes.len())),
                2 => {
                    // Splice a framing header in after the request line.
                    let hostile = [
                        "Content-Length: +1\r\n",
                        "Content-Length: 99999999999999999999999\r\n",
                        "Content-Length: 3\r\n",
                        "Content-Length: 1000\r\n",
                        "Transfer-Encoding: chunked\r\n",
                        "content-length:\r\n",
                        ": \r\n",
                    ];
                    let at = bytes.iter().position(|&b| b == b'\n').map_or(0, |i| i + 1);
                    let header = hostile[rng.gen_range(0..hostile.len())];
                    bytes.splice(at..at, header.bytes());
                }
                3 => {
                    // Insert junk mid-stream.
                    let pos = rng.gen_range(0..=bytes.len());
                    let junk = [b'\r', b'\n', b':', b' ', b'+', 0xff, 0];
                    bytes.insert(pos, junk[rng.gen_range(0..junk.len())]);
                }
                _ => {
                    bytes = (0..rng.gen_range(0..64usize))
                        .map(|_| rng.gen::<u64>() as u8)
                        .collect();
                }
            }
            let mut cursor = std::io::Cursor::new(bytes);
            for _ in 0..8 {
                match read_request(&mut cursor, MAX_BODY) {
                    Ok(Some(req)) => assert!(req.body.len() <= MAX_BODY),
                    Ok(None) => break,
                    Err(err) => {
                        let expected = match err {
                            HttpError::Malformed(_) => Some(400),
                            HttpError::TooLarge(_) => Some(413),
                            HttpError::UnexpectedEof => None,
                            HttpError::Io(ref e) => panic!("in-memory read failed: {e}"),
                        };
                        assert_eq!(err.status(), expected, "{err}");
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn truncated_body_is_unexpected_eof() {
        let err = parse("POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab").unwrap_err();
        assert!(matches!(err, HttpError::UnexpectedEof));
        assert_eq!(err.status(), None);
    }

    #[test]
    fn route_strips_query() {
        let req = parse("GET /metrics?raw=1 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.route(), "/metrics");
    }

    #[test]
    fn response_writes_status_line_headers_and_length() {
        let mut buf = Vec::new();
        Response::text(200, "ok")
            .with_header("Retry-After", "1")
            .write_to(&mut buf, false)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nok"), "{text}");
    }

    #[test]
    fn error_bodies_are_escaped_json() {
        let resp = Response::error(400, "bad \"seed\"\nvalue");
        assert_eq!(resp.body, br#"{"error":"bad \"seed\"\nvalue"}"#);
        let resp = Response::error(400, "ctl\u{1}char");
        assert_eq!(resp.body, br#"{"error":"ctl\u0001char"}"#);
    }

    #[test]
    fn unavailable_always_carries_the_shared_retry_after() {
        let resp = Response::unavailable("queue full, retry later");
        assert_eq!(resp.status, 503);
        let header = resp
            .headers
            .iter()
            .find(|(n, _)| n == "Retry-After")
            .map(|(_, v)| v.as_str());
        assert_eq!(header, Some(RETRY_AFTER_SECS));
        assert_eq!(resp.body, br#"{"error":"queue full, retry later"}"#);
    }

    #[test]
    fn lowercases_header_names() {
        let req = parse("GET / HTTP/1.1\r\nX-FOO: Bar\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.header("x-foo"), Some("Bar"));
    }
}
