//! The line-delimited wire protocol (see `docs/PROTOCOL.md` for the full spec).
//!
//! **Requests** are single lines of UTF-8 text, the REPL's command language:
//! every verb is parsed by [`qjoin_engine::Request::parse`].
//!
//! **Responses** are framed so a client can read them without guessing:
//!
//! ```text
//! ok <n>\n        n payload lines follow, each terminated by \n
//! <line 1>\n
//! ...
//! <line n>\n
//! ```
//!
//! or, for failures, a single line whose class is one of `usage`, `unknown`,
//! `refused`, `too-large`, `internal` and `busy` ([`qjoin_engine::ErrorClass`]):
//!
//! ```text
//! err <class>: <message>\n
//! ```
//!
//! Error messages are flattened to one line (embedded newlines become `"; "`).
//! Both sides of the protocol live here so the server, the client library, and the
//! tests cannot drift apart.

use crate::client::ClientError;
use qjoin_engine::RequestError;
use std::io::{self, BufRead, Write};

/// Most payload lines a client accepts in one `ok <n>` frame. Real responses are
/// tiny (answers, stats dumps, `help`); the largest legitimate frames are batch
/// replies, one line per φ, so a million lines is orders of magnitude of headroom
/// while still rejecting nonsense counts that would loop a client to EOF.
pub const MAX_PAYLOAD_LINES: usize = 1 << 20;

/// One framed reply: either a payload of zero or more lines, or an error message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Success, carrying the payload lines.
    Ok(Vec<String>),
    /// Failure, carrying one line: `<class>: <message>`.
    Err(String),
}

impl Response {
    /// Serializes the response onto a writer using the framing above.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        match self {
            Response::Ok(lines) => {
                writeln!(w, "ok {}", lines.len())?;
                for line in lines {
                    writeln!(w, "{}", flatten(line))?;
                }
            }
            Response::Err(message) => {
                writeln!(w, "err {}", flatten(message))?;
            }
        }
        w.flush()
    }

    /// Reads one framed response from a buffered reader. A connection closed
    /// mid-response, or bytes that are not framing, are [`ClientError::Protocol`].
    ///
    /// The payload count is capped at [`MAX_PAYLOAD_LINES`]: a malformed or
    /// hostile header like `ok 18446744073709551615` is rejected instead of
    /// looping the client until EOF.
    pub fn read_from(r: &mut impl BufRead) -> Result<Response, ClientError> {
        let header = read_line(r)?;
        if let Some(count) = header.strip_prefix("ok ") {
            let count: usize = (count.trim().parse())
                .map_err(|_| ClientError::Protocol(format!("bad payload count in {header:?}")))?;
            if count > MAX_PAYLOAD_LINES {
                return Err(ClientError::Protocol(format!(
                    "payload count {count} exceeds the {MAX_PAYLOAD_LINES}-line cap"
                )));
            }
            let mut lines = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                lines.push(read_line(r)?);
            }
            Ok(Response::Ok(lines))
        } else if let Some(message) = header.strip_prefix("err ") {
            Ok(Response::Err(message.to_string()))
        } else {
            Err(ClientError::Protocol(format!(
                "expected `ok <n>` or `err <message>`, got {header:?}"
            )))
        }
    }
}

/// A request's reply: its output as payload lines (no output, no lines), or
/// its error as one line, `<class>: <message>`.
impl From<Result<String, RequestError>> for Response {
    fn from(reply: Result<String, RequestError>) -> Response {
        match reply {
            Ok(text) => Response::Ok(text.lines().map(str::to_string).collect()),
            Err(e) => Response::Err(flatten(&e.to_string())),
        }
    }
}

/// Reads one `\n`-terminated line, stripping the terminator (and a `\r` if present).
fn read_line(r: &mut impl BufRead) -> Result<String, ClientError> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(ClientError::Protocol(
            "connection closed mid-response".into(),
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Replaces newlines so any text fits in one wire line.
fn flatten(text: &str) -> String {
    if text.contains('\n') {
        text.replace("\r\n", "; ").replace('\n', "; ")
    } else {
        text.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn roundtrip(response: &Response) -> Response {
        let mut wire = Vec::new();
        response.write_to(&mut wire).unwrap();
        Response::read_from(&mut BufReader::new(wire.as_slice())).unwrap()
    }

    #[test]
    fn ok_responses_roundtrip() {
        for response in [
            Response::Ok(vec![]),
            Response::Ok(vec!["one".into()]),
            Response::Ok(vec!["a".into(), "".into(), "c c c".into()]),
        ] {
            assert_eq!(roundtrip(&response), response);
        }
    }

    #[test]
    fn err_responses_roundtrip_flattened() {
        let response = Response::from(Err(RequestError::usage("first\nsecond")));
        assert_eq!(response, Response::Err("usage: first; second".into()));
        assert_eq!(roundtrip(&response), response);
    }

    #[test]
    fn replies_split_into_lines() {
        assert_eq!(Response::from(Ok(String::new())), Response::Ok(vec![]));
        assert_eq!(
            Response::from(Ok("a\nb".to_string())),
            Response::Ok(vec!["a".into(), "b".into()])
        );
    }

    #[test]
    fn payload_lines_are_flattened_on_write() {
        let sneaky = Response::Ok(vec!["evil\ninjection".into()]);
        let read_back = roundtrip(&sneaky);
        assert_eq!(read_back, Response::Ok(vec!["evil; injection".into()]));
    }

    /// The protocol error reading `wire` fails with.
    fn refusal(wire: &[u8]) -> String {
        match Response::read_from(&mut BufReader::new(wire)) {
            Err(ClientError::Protocol(what)) => what,
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_headers_and_eof_are_errors() {
        assert!(refusal(b"").contains("closed"));
        assert!(refusal(b"what 3\n").contains("expected `ok <n>`"));
        assert!(refusal(b"ok 2\nonly-one\n").contains("closed"));
        assert!(refusal(b"ok lots\n").contains("bad payload count"));
    }

    #[test]
    fn hostile_payload_counts_are_rejected_not_looped() {
        // A server claiming u64::MAX payload lines used to make the client read
        // until EOF; now the cap rejects it up front.
        assert!(refusal(b"ok 18446744073709551615\nx\n").contains("cap"));
        // Just over the cap: rejected.
        let wire = format!("ok {}\n", MAX_PAYLOAD_LINES + 1);
        assert!(refusal(wire.as_bytes()).contains("cap"));
        // At the cap the count is structurally fine (the truncated body then
        // surfaces as a closed connection, a transport-level truth, not a loop).
        let wire = format!("ok {}\n", MAX_PAYLOAD_LINES);
        assert!(refusal(wire.as_bytes()).contains("closed"));
    }
}
