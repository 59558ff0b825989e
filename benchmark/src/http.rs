//! A minimal blocking HTTP/1.1 client that timestamps the response as it
//! arrives: when the first body byte came and when the last byte did. The
//! server under test answers `Connection: close`, so a response ends at
//! EOF; chunked bodies are decoded after the fact.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// When the first byte after the response head arrived (the head
    /// itself when the body is empty).
    pub first_byte: Instant,
    /// When the connection reached EOF.
    pub last_byte: Instant,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut raw = Vec::with_capacity(64 * 1024);
    let mut buf = vec![0u8; 64 * 1024];
    let mut head_end = None;
    let mut first_byte = None;
    loop {
        let n = stream.read(&mut buf)?;
        let now = Instant::now();
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&buf[..n]);
        if head_end.is_none() {
            head_end = find(&raw, b"\r\n\r\n").map(|p| p + 4);
        }
        if first_byte.is_none() && head_end.is_some_and(|h| raw.len() > h) {
            first_byte = Some(now);
        }
    }
    let last_byte = Instant::now();
    let head_end = head_end.ok_or_else(|| bad("response has no head terminator"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("unparsable status line"))?;
    let chunked = lines.any(|l| {
        l.split_once(':').is_some_and(|(k, v)| {
            k.eq_ignore_ascii_case("transfer-encoding") && v.trim().eq_ignore_ascii_case("chunked")
        })
    });
    let body = if chunked {
        decode_chunked(&raw[head_end..]).map_err(|e| bad(&e))?
    } else {
        raw[head_end..].to_vec()
    };
    Ok(Response {
        status,
        body,
        first_byte: first_byte.unwrap_or(last_byte),
        last_byte,
    })
}

/// Decode a `Transfer-Encoding: chunked` body (chunk extensions ignored,
/// no trailers expected). A body cut off before the zero chunk is an
/// error, so a truncated response never passes as a short one.
pub fn decode_chunked(mut b: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::with_capacity(b.len());
    loop {
        let eol = find(b, b"\r\n").ok_or("chunk size line unterminated")?;
        let line = std::str::from_utf8(&b[..eol]).map_err(|_| "non-UTF-8 chunk size")?;
        let size_hex = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_hex, 16)
            .map_err(|_| format!("unparsable chunk size `{size_hex}`"))?;
        b = &b[eol + 2..];
        if size == 0 {
            return Ok(out);
        }
        let chunk = b.get(..size).ok_or("truncated chunk")?;
        if b.get(size..size + 2) != Some(b"\r\n".as_slice()) {
            return Err("chunk not followed by CRLF".into());
        }
        out.extend_from_slice(chunk);
        b = &b[size + 2..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_bodies_decode_and_truncation_is_an_error() {
        let framed = b"4\r\nwiki\r\n5;ext=1\r\npedia\r\nA\r\n 0123456789\r\n0\r\n\r\n";
        assert!(
            decode_chunked(framed).is_err(),
            "10-byte chunk holds 11 bytes"
        );
        let framed = b"4\r\nwiki\r\n5;ext=1\r\npedia\r\nA\r\n0123456789\r\n0\r\n\r\n";
        assert_eq!(decode_chunked(framed).unwrap(), b"wikipedia0123456789");
        assert!(decode_chunked(b"4\r\nwik").is_err());
        assert!(decode_chunked(b"4\r\nwiki\r\n").is_err(), "no zero chunk");
        assert!(decode_chunked(b"zz\r\n").is_err());
        assert_eq!(decode_chunked(b"0\r\n\r\n").unwrap(), b"");
    }
}
