//! A minimal blocking HTTP/1.1 client, enough to talk to [`crate::server`]
//! from the bench driver, the CI smoke test, and the integration suite.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response: status code, headers (lower-cased names), body.
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// `POST path body` (JSON) to `addr`; blocks until the full response.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> Result<Response, String> {
    request(addr, "POST", path, Some(body))
}

/// `GET path` from `addr`.
pub fn get(addr: SocketAddr, path: &str) -> Result<Response, String> {
    request(addr, "GET", path, None)
}

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, String> {
    let mut conn =
        TcpStream::connect_timeout(&addr, Duration::from_secs(5)).map_err(|e| e.to_string())?;
    let _ = conn.set_read_timeout(Some(Duration::from_secs(120)));
    let body = body.unwrap_or("");
    // Head and body leave in one segment.
    let msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: zagd\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(msg.as_bytes()).map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    parse_response(&raw)
}

/// Everything a server sent before it closed the connection, as one
/// response.
pub fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let text = std::str::from_utf8(raw).map_err(|e| e.to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("malformed response: no header terminator")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response")?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(Response {
        status,
        headers,
        body: body.to_string(),
    })
}
