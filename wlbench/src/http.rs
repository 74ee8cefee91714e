//! A minimal blocking HTTP/1.1 client for the `serve` workload: requests
//! are encoded before the window opens, and each exchange is split into
//! send, wait (last byte sent to first byte received) and receive.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Chunk size of chunked uploads.
const UPLOAD_CHUNK: usize = 16 * 1024;

/// Encode a request. `chunked` frames the body with
/// `Transfer-Encoding: chunked` instead of `Content-Length`.
pub fn encode(method: &str, target: &str, body: &[u8], chunked: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + body.len() / UPLOAD_CHUNK * 8 + 128);
    out.extend_from_slice(format!("{method} {target} HTTP/1.1\r\nHost: bench\r\n").as_bytes());
    if chunked {
        out.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
        for piece in body.chunks(UPLOAD_CHUNK) {
            out.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
            out.extend_from_slice(piece);
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"0\r\n\r\n");
    } else if method == "GET" {
        out.extend_from_slice(b"\r\n");
    } else {
        out.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
        out.extend_from_slice(body);
    }
    out
}

#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// The server announced it closes the connection after this reply.
    pub close: bool,
    pub fixed_count: Option<usize>,
}

/// Phase times of one exchange, and when it completed.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub start: Instant,
    pub sent: Instant,
    pub first_byte: Instant,
    pub done: Instant,
}

impl Timing {
    pub fn latency(&self) -> Duration {
        self.done - self.start
    }
}

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one encoded request and read the whole reply.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<(Reply, Timing)> {
        let start = Instant::now();
        self.writer.write_all(request)?;
        let sent = Instant::now();
        if self.reader.fill_buf()?.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a reply",
            ));
        }
        let first_byte = Instant::now();
        let reply = self.read_reply()?;
        let done = Instant::now();
        Ok((
            reply,
            Timing {
                start,
                sent,
                first_byte,
                done,
            },
        ))
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let (mut length, mut close, mut fixed_count) = (None, false, None);
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("eof in reply head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(bad("malformed header"));
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => length = value.parse::<usize>().ok(),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                "x-weblint-fixed-count" => fixed_count = value.parse().ok(),
                _ => {}
            }
        }
        let mut body = vec![0; length.ok_or_else(|| bad("reply without Content-Length"))?];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            body,
            close,
            fixed_count,
        })
    }
}

/// Stable 64-bit digest of a body, so replies can be checked after the
/// window without keeping them.
pub fn digest(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut hasher = std::hash::DefaultHasher::new();
    hasher.write(bytes);
    hasher.finish()
}
