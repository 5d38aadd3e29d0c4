//! One multiplexed connection: a nonblocking [`TcpStream`] plus its line-assembly
//! buffer.
//!
//! In the readiness-based server no thread ever blocks on a connection read.
//! Instead the reactor [`Conn::fill`]s whatever bytes are available right now,
//! [`Conn::next_line`] pops complete request lines out of the buffer, and partial
//! lines simply stay buffered until more bytes arrive — a connection that goes
//! idle mid-line costs a parked `Conn` in the reactor's registry, not a worker
//! thread.
//!
//! Flood protection: a single request line may not exceed [`MAX_LINE_BYTES`].
//! [`Conn::over_line_limit`] flags a violation (whether the newline eventually
//! arrived or not) and the server replies `err line too long` before dropping the
//! connection — the one protocol error that is fatal to the conversation.

use crate::protocol::Response;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Longest accepted request line (bytes, including the terminator). Anything
/// larger is answered with `err line too long` and the connection is closed.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// How long [`Conn::write_response`] retries `WouldBlock` before giving up.
/// Responses are small (a handful of short lines), so a full send buffer clears
/// in microseconds unless the client has genuinely stalled.
const WRITE_PATIENCE: Duration = Duration::from_secs(5);

/// What one [`Conn::fill`] call observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FillOutcome {
    /// At least one byte was read into the buffer.
    Progress,
    /// Nothing available right now (`WouldBlock`).
    Idle,
    /// EOF or a transport error — the connection is done.
    Closed,
}

/// A nonblocking connection with buffered line assembly (see the module docs).
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Wraps an accepted stream, switching it to nonblocking mode.
    pub fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// The underlying stream (its descriptor is what the reactor polls).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Reads everything currently available into the buffer without blocking.
    pub fn fill(&mut self) -> FillOutcome {
        let mut chunk = [0u8; 4096];
        let mut progressed = false;
        loop {
            match self.stream.read(&mut chunk) {
                // EOF after progress: report the progress first so already-received
                // complete lines get served; the close is re-observed next sweep.
                Ok(0) if progressed => break,
                Ok(0) => return FillOutcome::Closed,
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    progressed = true;
                    if self.over_line_limit() {
                        // Stop buffering a flood; the caller replies and drops us.
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return FillOutcome::Closed,
            }
        }
        if progressed {
            FillOutcome::Progress
        } else {
            FillOutcome::Idle
        }
    }

    /// True when the buffered (complete or still-partial) first line exceeds
    /// [`MAX_LINE_BYTES`]. Check this **before** [`Conn::next_line`].
    pub fn over_line_limit(&self) -> bool {
        match self.buf.iter().position(|&b| b == b'\n') {
            Some(pos) => pos > MAX_LINE_BYTES,
            None => self.buf.len() > MAX_LINE_BYTES,
        }
    }

    /// Pops the first complete line out of the buffer, if one is there. The
    /// terminator (and a preceding `\r`) is stripped; invalid UTF-8 is replaced
    /// lossily (the dispatcher then rejects the garbled verb).
    pub fn next_line(&mut self) -> Option<String> {
        let pos = self.buf.iter().position(|&b| b == b'\n')?;
        let raw: Vec<u8> = self.buf.drain(..=pos).collect();
        let mut line = String::from_utf8_lossy(&raw).into_owned();
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Some(line)
    }

    /// Writes one framed response, retrying `WouldBlock` (bounded by a 5-second
    /// patience deadline) since the stream is nonblocking.
    pub fn write_response(&mut self, response: &Response) -> io::Result<()> {
        let mut wire = Vec::new();
        response.write_to(&mut wire)?;
        self.write_all_nonblocking(&wire)
    }

    fn write_all_nonblocking(&mut self, mut data: &[u8]) -> io::Result<()> {
        let deadline = Instant::now() + WRITE_PATIENCE;
        while !data.is_empty() {
            match self.stream.write(data) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => data = &data[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                    // The kernel send buffer is full; tiny responses clear fast.
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, Conn::new(server).unwrap())
    }

    fn fill_until_progress(conn: &mut Conn) {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            match conn.fill() {
                FillOutcome::Progress => return,
                FillOutcome::Idle => {
                    assert!(Instant::now() < deadline, "no bytes ever arrived");
                    std::thread::yield_now();
                }
                FillOutcome::Closed => panic!("peer closed unexpectedly"),
            }
        }
    }

    #[test]
    fn assembles_lines_across_partial_reads() {
        let (mut client, mut conn) = pair();
        client.write_all(b"pi").unwrap();
        fill_until_progress(&mut conn);
        assert_eq!(conn.next_line(), None, "half a line is not a line");

        client.write_all(b"ng\r\nquit\n").unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        let line = loop {
            if let Some(line) = conn.next_line() {
                break line;
            }
            assert!(Instant::now() < deadline, "line never completed");
            conn.fill();
        };
        assert_eq!(line, "ping", "terminators (\\r\\n) must be stripped");
        assert_eq!(conn.next_line().as_deref(), Some("quit"));
    }

    #[test]
    fn reports_eof_as_closed() {
        let (client, mut conn) = pair();
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(2);
        while conn.fill() != FillOutcome::Closed {
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
    }

    #[test]
    fn flags_over_long_lines_with_and_without_newline() {
        let (mut client, mut conn) = pair();
        // A newline-free flood just over the limit.
        let flood = vec![b'x'; MAX_LINE_BYTES + 10];
        client.write_all(&flood).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !conn.over_line_limit() {
            assert!(Instant::now() < deadline, "flood never tripped the limit");
            conn.fill();
        }
        assert!(conn.next_line().is_none() || conn.over_line_limit());
    }

    #[test]
    fn short_lines_under_the_limit_are_fine() {
        let (mut client, mut conn) = pair();
        client.write_all(b"hello world\n").unwrap();
        fill_until_progress(&mut conn);
        assert!(!conn.over_line_limit());
        assert_eq!(conn.next_line().as_deref(), Some("hello world"));
    }

    #[test]
    fn writes_responses_the_blocking_client_can_read() {
        let (client, mut conn) = pair();
        conn.write_response(&Response::Ok(vec!["pong".into()]))
            .unwrap();
        let mut reader = std::io::BufReader::new(client);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "ok 1\n");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "pong\n");
    }
}
