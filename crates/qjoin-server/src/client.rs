//! A blocking client for the qjoin wire protocol.
//!
//! One [`Client`] wraps one TCP connection and speaks the line protocol from
//! [`crate::protocol`]: send a command line, read one framed response. Remote
//! errors (`err <class>: <message>` replies) surface as [`ClientError::Remote`]
//! with the class parsed, so transport failures and server-side rejections stay
//! distinguishable, and a caller acts on the class, never on message text.

use crate::protocol::Response;
use qjoin_engine::ErrorClass;
use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Errors raised by [`Client`] calls.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed (dial, read, or write).
    Io(io::Error),
    /// The server replied `err <class>: <message>`.
    Remote {
        /// What kind of failure.
        class: ErrorClass,
        /// What went wrong.
        message: String,
    },
    /// The server replied with bytes that are not valid protocol framing, or
    /// closed mid-response, or the request cannot be represented on the wire.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Remote { class, message } => {
                write!(f, "server error: {class}: {message}")
            }
            ClientError::Protocol(what) => write!(f, "protocol error: {what}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking connection to a qjoin server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a server (e.g. the address printed by `qjoin serve`).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sets (or clears) a deadline for each protocol read.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one command line and reads the framed reply. Returns the payload lines
    /// on success; a remote `err` reply becomes [`ClientError::Remote`], and one
    /// whose class is not a known [`ErrorClass`] a [`ClientError::Protocol`].
    pub fn send(&mut self, command: &str) -> Result<Vec<String>, ClientError> {
        if command.contains('\n') || command.contains('\r') {
            return Err(ClientError::Protocol(
                "a command must be a single line".to_string(),
            ));
        }
        writeln!(self.writer, "{command}")?;
        self.writer.flush()?;
        match Response::read_from(&mut self.reader)? {
            Response::Ok(lines) => Ok(lines),
            Response::Err(text) => {
                let (class, message) = text.split_once(": ").unwrap_or((&text, ""));
                let unclassified = || ClientError::Protocol(format!("unclassified reply {text:?}"));
                let class = class.parse().map_err(|_| unclassified())?;
                let message = message.to_string();
                Err(ClientError::Remote { class, message })
            }
        }
    }

    /// Round-trips a `ping`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let payload = self.send(qjoin_engine::request::PING)?;
        if payload == ["pong"] {
            Ok(())
        } else {
            Err(ClientError::Protocol(format!(
                "unexpected ping reply: {payload:?}"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_line_commands_are_rejected_client_side() {
        // Build a client over an unconnected pair is impossible with std only, so
        // validate the guard before any I/O happens: connect to a listener we
        // control and never accept from.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(listener.local_addr().unwrap()).unwrap();
        let err = client.send("two\nlines").unwrap_err();
        assert!(matches!(err, ClientError::Protocol(_)));
    }

    /// Mutation: hand the `err` text over unparsed and no caller sees `Busy`.
    #[test]
    fn err_replies_carry_their_parsed_class() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server
            .write_all(b"err busy: the queue: full\nerr nonsense\n")
            .unwrap();
        match client.send("x") {
            Err(ClientError::Remote { class, message }) => {
                assert_eq!(
                    (class, message.as_str()),
                    (ErrorClass::Busy, "the queue: full")
                );
            }
            other => panic!("expected an `err busy` reply, got {other:?}"),
        }
        assert!(matches!(client.send("y"), Err(ClientError::Protocol(_))));
    }

    #[test]
    fn error_types_display_their_cause() {
        let io: ClientError = io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
        let remote = ClientError::Remote {
            class: ErrorClass::Busy,
            message: "nope".into(),
        };
        assert_eq!(remote.to_string(), "server error: busy: nope");
    }
}
