//! A minimal pipelining HTTP/1.1 client for the daemon's bodyless GETs.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    /// The server retires the connection after this response.
    pub close: bool,
    pub body: Vec<u8>,
}

impl Response {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }

    /// The `events_applied` field of a JSON body, if present.
    pub fn events_applied(&self) -> Option<u64> {
        json_u64(self.text(), "events_applied")
    }
}

/// The unsigned integer value of the first `"key":` in `body`.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let pattern = format!("\"{key}\":");
    let at = body.find(&pattern)? + pattern.len();
    let digits: String = body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Split one complete response off the front of `buf`.
pub fn parse_response(buf: &mut Vec<u8>) -> Result<Option<Response>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    let body = buf[head_end + 4..total].to_vec();
    buf.drain(..total);
    Ok(Some(Response {
        status,
        close,
        body,
    }))
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

/// Make the calling thread's timed waits wake on time: the default 50 µs
/// timer slack would otherwise sit in every open-loop request's latency.
pub fn precise_timers() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument (nanoseconds)
    // and affects only the calling thread.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Wait until `stream` is ready for `events` or `timeout` passes. ppoll(2)
/// keeps sub-millisecond waits precise; a socket receive timeout would
/// round them up to the kernel tick and make the open loop send late.
fn wait(stream: &TcpStream, events: i16, timeout: Duration) -> bool {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out locals for the whole
    // call; one descriptor is passed and the signal mask pointer is null.
    unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) > 0 }
}

/// Requests the daemon answers on one keep-alive connection before it
/// retires it (passed to it as `--http-max-requests`). Clients stop
/// sending on a connection at this count and open the next one once it
/// has drained, so no request is ever sent into a closing connection.
pub const MAX_REQUESTS: usize = 1000;

/// A keep-alive connection with requests in flight, answered in order.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Requests sent on this connection.
    pub sent: usize,
    /// Caller ids of the requests sent and not yet answered, oldest first.
    pub inflight: VecDeque<usize>,
    /// The server announced `Connection: close`: nothing more is answered.
    pub retired: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            sent: 0,
            inflight: VecDeque::new(),
            retired: false,
        })
    }

    /// Whether this connection may carry another request.
    pub fn open(&self) -> bool {
        !self.retired && self.sent < MAX_REQUESTS
    }

    /// Whether the connection is used up: nothing more to send or receive.
    pub fn spent(&self) -> bool {
        !self.open() && (self.retired || self.inflight.is_empty())
    }

    /// Send one request. A write the peer refused retires the connection;
    /// the request stays in `inflight` for the caller to send again.
    pub fn send(&mut self, id: usize, target: &str) {
        let request = format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
        self.inflight.push_back(id);
        self.sent += 1;
        if self.write_all(request.as_bytes()).is_err() {
            self.retired = true;
        }
    }

    fn write_all(&mut self, mut bytes: &[u8]) -> std::io::Result<()> {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    wait(&self.stream, POLLOUT, Duration::from_secs(1));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Wait up to `timeout` for data and hand every complete response to
    /// `on_response` with its request id. A connection the server retired
    /// (or closed) ends with `retired` set; requests still in `inflight`
    /// then were never answered and should be sent again elsewhere.
    pub fn poll(
        &mut self,
        timeout: Duration,
        mut on_response: impl FnMut(usize, Response),
    ) -> std::io::Result<()> {
        if !self.retired && wait(&self.stream, POLLIN, timeout) {
            let mut chunk = [0u8; 64 * 1024];
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        self.retired = true;
                        break;
                    }
                    Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == ErrorKind::ConnectionReset => {
                        self.retired = true;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        while !self.inflight.is_empty() {
            let response = parse_response(&mut self.buf).map_err(std::io::Error::other)?;
            let Some(response) = response else { break };
            let id = self.inflight.pop_front().expect("checked non-empty");
            let close = response.close;
            on_response(id, response);
            if close {
                self.retired = true;
                break;
            }
        }
        Ok(())
    }

    /// One request, waiting for its response.
    pub fn get(&mut self, target: &str) -> std::io::Result<Response> {
        self.send(usize::MAX, target);
        let mut out = None;
        for _ in 0..30 {
            if out.is_some() || self.retired {
                break;
            }
            self.poll(Duration::from_secs(1), |_, r| out = Some(r))?;
        }
        out.ok_or_else(|| std::io::Error::other("no response"))
    }
}

/// Sequential GETs on a keep-alive connection, reconnecting whenever the
/// server retires it.
pub struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    pub fn get(&mut self, target: &str) -> std::io::Result<Response> {
        if self.conn.as_ref().is_some_and(|c| !c.open()) {
            self.conn = None;
        }
        if self.conn.is_none() {
            self.conn = Some(Conn::connect(self.addr)?);
        }
        let result = self.conn.as_mut().expect("connected above").get(target);
        if result.is_err() {
            self.conn = None;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses_and_close() {
        let mut buf = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nokHTTP/1.1 404 Not Found\r\nContent-Length: 3\r\nConnection: close\r\n\r\nab".to_vec();
        let first = parse_response(&mut buf).unwrap().unwrap();
        assert_eq!(
            (first.status, first.close, first.text()),
            (200, false, "ok")
        );
        assert!(
            parse_response(&mut buf).unwrap().is_none(),
            "body incomplete"
        );
        buf.push(b'c');
        let second = parse_response(&mut buf).unwrap().unwrap();
        assert_eq!(
            (second.status, second.close, second.text()),
            (404, true, "abc")
        );
        assert!(buf.is_empty());
    }

    #[test]
    fn reads_events_applied() {
        let body = r#"{"node":3,"score":0.1,"tick":4,"events_applied":1234}"#;
        assert_eq!(json_u64(body, "events_applied"), Some(1234));
        assert_eq!(json_u64(body, "missing"), None);
    }
}
