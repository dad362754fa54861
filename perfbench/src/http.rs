//! A minimal HTTP/1.1 client that counts the TCP connections it opens,
//! so the benchmark can report connects per request.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Blocking client for one server address.
pub struct Client {
    addr: SocketAddr,
    connects: AtomicU64,
    requests: AtomicU64,
}

impl Client {
    /// A client for `addr`.
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            connects: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        }
    }

    /// TCP connections opened so far.
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::Relaxed)
    }

    /// Requests sent so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// `GET path`, returning the status code and the body. The server
    /// closes the connection after each response, so the body runs to
    /// EOF.
    pub fn get(&self, path: &str) -> std::io::Result<(u16, String)> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let mut stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(10))?;
        self.connects.fetch_add(1, Ordering::Relaxed);
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let request = format!(
            "GET {path} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
            self.addr
        );
        stream.write_all(request.as_bytes())?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        let text = String::from_utf8_lossy(&raw);
        let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
        let status = text
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(bad)?;
        let body = text.split_once("\r\n\r\n").ok_or_else(bad)?.1.to_string();
        Ok((status, body))
    }
}
