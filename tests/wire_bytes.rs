//! Adversarial bytes on the wire: whatever a client sends, it reads back only
//! framed replies (`ok <n>` and `n` payload lines, or one `err …` line) and then
//! end of stream, and the server keeps answering other connections.
//!
//! Mutation caught: `Conn::next_line` decoding with `String::from_utf8(..).expect(..)`
//! instead of `String::from_utf8_lossy` — the reactor dies on the first invalid
//! UTF-8 line and the follow-up `ping` fails.

use proptest::prelude::*;
use qjoin_engine::cli::CliSession;
use qjoin_server::{Client, Server, ServerConfig, MAX_LINE_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A server with one worker, a small social database and plan `p`, and the
/// thread running it.
fn server() -> (SocketAddr, JoinHandle<()>) {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(CliSession::new()), config).unwrap();
    let addr = server.handle().unwrap().addr();
    let join = std::thread::spawn(move || {
        server.run().unwrap();
    });
    let mut client = Client::connect(addr).unwrap();
    client.send("open s social rows=40 seed=1").unwrap();
    client.send("register p s").unwrap();
    (addr, join)
}

/// A random byte string built from the inputs a line parser trips on: invalid
/// UTF-8, NUL, lone `\r`, empty lines, arbitrary bytes, and sometimes a
/// newline-free flood past [`MAX_LINE_BYTES`] at the end.
fn hostile_bytes(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..rng.random_range(1..12usize) {
        match rng.random_range(0..6u32) {
            0 => out.extend([0xff, 0xfe, 0xc3, 0x28, 0x80, b'\n']),
            1 => out.extend(b"ping\0 \0\n"),
            2 => out.extend(b"\r \r\rstats\r"),
            3 => out.extend(b"\n\n\r\n"),
            4 => (0..rng.random_range(1..40usize)).for_each(|_| out.push(rng.random())),
            _ => out.extend(b"quantile p \xf0\x9f\n"),
        }
    }
    if rng.random_bool(0.25) {
        out.extend(std::iter::repeat_n(
            b'x',
            MAX_LINE_BYTES + rng.random_range(1..4096usize),
        ));
    }
    out
}

/// Checks that what a connection read is a sequence of framed replies; `Err`
/// names the first part that is not one.
fn check_framing(wire: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(wire).map_err(|e| format!("reply is not UTF-8: {e}"))?;
    let Some(body) = text.strip_suffix('\n').or((text.is_empty()).then_some("")) else {
        return Err(format!("reply ends mid-line: {text:?}"));
    };
    let mut lines = body.split('\n').filter(|_| !body.is_empty());
    while let Some(header) = lines.next() {
        if header.starts_with("err ") {
            continue;
        }
        let count: usize = (header.strip_prefix("ok "))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("not a reply header: {header:?}"))?;
        for _ in 0..count {
            lines
                .next()
                .ok_or_else(|| format!("{header:?} is short of lines"))?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_bytes_get_framed_replies_or_a_clean_close(seed in any::<u64>()) {
        let (addr, join) = server();
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // The server may close first (a flood is refused): later writes may fail.
        let _ = raw.write_all(&hostile_bytes(seed));
        let _ = raw.shutdown(Shutdown::Write);
        let mut wire = Vec::new();
        match raw.read_to_end(&mut wire) {
            Ok(_) => {}
            // A close with our bytes still unread resets the connection.
            Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
            Err(e) => panic!("seed {seed}: reading the replies failed: {e}"),
        }
        if let Err(why) = check_framing(&wire) {
            panic!("seed {seed}: {why}");
        }

        let mut client = Client::connect(addr).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        client.ping().unwrap_or_else(|e| panic!("seed {seed}: ping after the case: {e:?}"));
        let answer = client.send("quantile p 0.5").unwrap().join("\n");
        prop_assert!(answer.contains("phi=0.5000"), "seed {}: {}", seed, answer);
        client.send("shutdown").unwrap();
        join.join().unwrap();
    }
}
