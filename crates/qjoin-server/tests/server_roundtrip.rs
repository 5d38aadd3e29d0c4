//! End-to-end tests over real TCP connections: scripted sessions, concurrent
//! clients sharing one engine, error replies, and graceful shutdown.
//!
//! Every server binds `127.0.0.1:0` (an OS-assigned ephemeral port), so parallel
//! test runs and CI jobs can never collide on a port.

use qjoin_engine::cli::CliSession;
use qjoin_engine::{Engine, EngineConfig, Request};
use qjoin_server::server::INLINE_PHIS;
use qjoin_server::{
    Client, ClientError, Response, Server, ServerConfig, ServerHandle, ServerSummary,
    MAX_LINE_BYTES,
};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `quantile <plan> <phi>`: the answer line.
fn quantile(client: &mut Client, plan: &str, phi: f64) -> String {
    client
        .send(&format!("quantile {plan} {phi}"))
        .unwrap()
        .remove(0)
}

fn start_server(workers: usize) -> (SocketAddr, ServerHandle, JoinHandle<ServerSummary>) {
    let config = ServerConfig {
        workers,
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(CliSession::new()), config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, join)
}

#[test]
fn scripted_session_register_quantile_batch_stats_shutdown() {
    let (addr, _handle, join) = start_server(2);
    let mut client = Client::connect(addr).unwrap();

    client.ping().unwrap();
    let opened = client.send("open s social rows=80 seed=3").unwrap();
    assert_eq!(opened.len(), 1);
    assert!(opened[0].contains("240 tuples"), "{opened:?}");

    let registered = client.send("register likes s").unwrap();
    assert!(registered[0].contains("strategy=sum-adjacent-pair"));

    let answer = quantile(&mut client, "likes", 0.5);
    assert!(answer.contains("phi=0.5000"), "{answer}");

    // The same φ again must come from the cache.
    let cached = quantile(&mut client, "likes", 0.5);
    assert!(cached.contains("(cached)"), "{cached}");

    let batch = client.send("batch likes 0.25 0.5 0.75").unwrap();
    assert_eq!(batch.len(), 4, "3 answers + summary: {batch:?}");
    assert!(batch[3].contains("1 from cache"), "{batch:?}");

    let stats = client.send("stats").unwrap();
    let stats_text = stats.join("\n");
    assert!(stats_text.contains("plans:              1"), "{stats_text}");
    assert!(stats_text.contains("db s: generation=1"), "{stats_text}");

    client.send("shutdown").unwrap();
    let summary = join.join().unwrap();
    assert!(summary.requests >= 7, "{summary:?}");
    // The server is gone: a fresh dial must fail (or be refused immediately).
    assert!(
        Client::connect(addr).is_err() || {
            let mut c = Client::connect(addr).unwrap();
            c.ping().is_err()
        }
    );
}

#[test]
fn remote_errors_are_reported_not_fatal() {
    let (addr, handle, join) = start_server(1);
    let mut client = Client::connect(addr).unwrap();

    // Every error reply leads with its class.
    let remote = |client: &mut Client, command: &str| match client.send(command) {
        Err(ClientError::Remote { class, message }) => format!("{class}: {message}"),
        other => panic!("{command:?}: expected an `err` reply, got {other:?}"),
    };
    let err = remote(&mut client, "frobnicate");
    assert!(err.starts_with("usage: unknown command"), "{err}");
    let err = remote(&mut client, "quantile nope 0.5");
    assert!(err.starts_with("unknown: no plan"), "{err}");
    let err = remote(&mut client, "quantile nope 1.5");
    assert!(err.starts_with("usage: φ must be in [0, 1]"), "{err}");
    let err = remote(&mut client, "ping ping");
    assert!(err.starts_with("usage: "), "{err}");
    // The connection survives all of that.
    client.ping().unwrap();
    let err = remote(&mut client, "open");
    assert!(err.starts_with("usage: open|replace <db>"), "{err}");

    client.send("quit").unwrap();
    handle.shutdown();
    join.join().unwrap();
}

/// The wire's error line is `err <class>: <message>`, read off the socket with no
/// client library in between, and `ping` answers the wire as it answers the REPL.
#[test]
fn error_lines_carry_their_class_and_ping_matches_the_repl() {
    let (addr, handle, join) = start_server(1);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"quantile nope 0.5\nping\n").unwrap();
    let mut lines = BufReader::new(stream).lines().map(Result::unwrap);
    let expected = "err unknown: no plan named \"nope\" is registered";
    assert_eq!(lines.next().as_deref(), Some(expected));
    let repl = CliSession::new().run(&Request::parse("ping").unwrap());
    let repl = repl.unwrap();
    assert_eq!(lines.next().as_deref(), Some("ok 1"));
    assert_eq!(lines.next(), Some(repl));
    handle.shutdown();
    join.join().unwrap();
}

/// Mutation: drop any one of the CLI's generator checks and that `open` panics its
/// job, closing the connection before the `err` reply (and the `ping`) can arrive.
#[test]
fn bad_generator_parameters_are_error_replies_not_panics() {
    let (addr, handle, join) = start_server(1);
    let mut client = Client::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let refused = [
        ("path atoms=0", "atoms"),
        ("path domain=0", "domain"),
        ("path skew=nan", "skew"),
        ("star arms=0", "arms"),
        ("star domain=0", "domain"),
        ("star skew=nan", "skew"),
        ("random atoms=0", "atoms"),
        ("random arity=0", "arity"),
        ("random domain=0", "domain"),
        ("social users=0", "users"),
        ("social events=0", "events"),
        ("social skew=nan", "skew"),
        ("starschema lineitems=0", "lineitems"),
        ("starschema orders=0", "orders"),
        ("starschema parts=0", "parts"),
        ("starschema skew=nan", "skew"),
    ];
    for (i, (params, key)) in refused.into_iter().enumerate() {
        let err = client.send(&format!("open d{i} {params}")).unwrap_err();
        assert!(
            matches!(&err, ClientError::Remote { message, .. } if message.contains(key)),
            "{params}: {err:?}"
        );
    }
    // The connection and the server's only worker both survive.
    client.ping().unwrap();
    Client::connect(addr).unwrap().ping().unwrap();
    client.send("quit").unwrap();
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn concurrent_clients_share_one_engine_and_agree() {
    let (addr, handle, join) = start_server(4);

    // Set up the catalog once.
    let mut setup = Client::connect(addr).unwrap();
    setup.send("open s social rows=100 seed=7").unwrap();
    setup.send("register likes s").unwrap();
    let expected: Vec<String> = [0.2, 0.5, 0.8]
        .iter()
        .map(|&phi| {
            let line = quantile(&mut setup, "likes", phi);
            line.replace(" (cached)", "")
        })
        .collect();
    setup.send("quit").unwrap();

    // Many clients hammer the same plan; every answer must match the serial one.
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..5 {
                    for (i, &phi) in [0.2, 0.5, 0.8].iter().enumerate() {
                        let line = quantile(&mut client, "likes", phi);
                        let line = line.replace(" (cached)", "");
                        assert_eq!(line, expected[i], "round {round}");
                    }
                }
                client.send("quit").unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // One engine served everybody: stats must show the accumulated requests.
    let mut check = Client::connect(addr).unwrap();
    let stats = check.send("stats").unwrap().join("\n");
    assert!(
        stats.contains("123 quantiles"),
        "3 setup + 8*5*3 hammered: {stats}"
    );
    check.send("quit").unwrap();

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn more_connections_than_workers_all_get_served() {
    // 2 workers, 6 sequential-ish clients: queued connections must be served, in
    // whatever order, without losses.
    let (addr, handle, join) = start_server(2);
    let mut setup = Client::connect(addr).unwrap();
    setup.send("open s social rows=60 seed=1").unwrap();
    setup.send("register likes s").unwrap();
    setup.send("quit").unwrap();

    let threads: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let answer = quantile(&mut client, "likes", 0.5);
                assert!(answer.contains("phi=0.5000"));
                client.send("quit").unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    handle.shutdown();
    let summary = join.join().unwrap();
    assert!(summary.connections >= 7, "{summary:?}");
}

#[test]
fn shutdown_verb_from_one_client_stops_the_whole_server() {
    let (addr, handle, join) = start_server(2);
    let mut stopper = Client::connect(addr).unwrap();
    stopper.send("shutdown").unwrap();
    let summary = join.join().unwrap();
    assert!(handle.is_shutdown());
    assert_eq!(summary.requests, 1);
}

#[test]
fn over_long_lines_get_an_error_reply_before_close() {
    // Regression: a newline-free flood beyond MAX_LINE_BYTES used to close the
    // connection silently; the client must now see `err usage: line too long` first.
    let (addr, handle, join) = start_server(2);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let flood = vec![b'x'; MAX_LINE_BYTES + 64];
    stream.write_all(&flood).unwrap();

    let mut reader = BufReader::new(stream.try_clone().unwrap());
    match Response::read_from(&mut reader) {
        Ok(Response::Err(message)) => assert_eq!(message, "usage: line too long"),
        other => panic!("expected `err usage: line too long`, got {other:?}"),
    }
    // After the reply the server closes: the next read is EOF.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "nothing may follow the error: {rest:?}");

    handle.shutdown();
    let summary = join.join().unwrap();
    // The rejected flood is not a served request.
    assert_eq!(summary.requests, 0, "{summary:?}");
}

#[test]
fn empty_keepalive_lines_are_answered_but_not_counted() {
    // Regression: ServerSummary.requests used to count empty keep-alive lines
    // (and requests whose reply failed to write). Empty lines still get their
    // `ok 0` reply, but only real commands count.
    let (addr, handle, join) = start_server(2);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |line: &str| -> Response {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        Response::read_from(&mut reader).unwrap()
    };
    assert_eq!(send(""), Response::Ok(vec![]));
    assert_eq!(send(""), Response::Ok(vec![]));
    assert_eq!(send("ping"), Response::Ok(vec!["pong".into()]));
    assert_eq!(send(""), Response::Ok(vec![]));
    assert_eq!(send("quit"), Response::Ok(vec!["bye".into()]));

    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(
        summary.requests, 2,
        "only ping and quit are real requests: {summary:?}"
    );
}

#[test]
fn idle_connections_do_not_pin_workers() {
    // 2 workers, 8 connected-but-idle clients: under the old thread-per-connection
    // model the first two connections pinned both workers forever and a 9th client
    // hung. With the reactor, idle connections are parked buffers and the 9th
    // client is served promptly.
    let (addr, handle, join) = start_server(2);
    let idles: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();

    let mut client = Client::connect(addr).unwrap();
    // A timeout turns a regression into a clean failure instead of a hang.
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client.ping().unwrap();
    client.send("open s social rows=60 seed=2").unwrap();
    client.send("register likes s").unwrap();
    let answer = quantile(&mut client, "likes", 0.5);
    assert!(answer.contains("phi=0.5000"), "{answer}");
    client.send("quit").unwrap();

    drop(idles);
    handle.shutdown();
    let summary = join.join().unwrap();
    assert!(summary.connections >= 9, "{summary:?}");
}

/// Extracts `(coalesced_batches, coalesced_waiters)` from a `stats` dump.
fn coalescing_counters(stats: &[String]) -> (u64, u64) {
    let line = stats
        .iter()
        .find(|l| l.contains("coalesced_batches="))
        .unwrap_or_else(|| panic!("no coalescing line in {stats:?}"));
    let grab = |key: &str| -> u64 {
        let rest = line.split(key).nth(1).unwrap();
        rest.split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap_or_else(|_| panic!("bad counter in {line:?}"))
    };
    (grab("coalesced_batches="), grab("coalesced_waiters="))
}

#[test]
fn concurrent_identical_cold_requests_coalesce_over_the_wire() {
    // k=8 clients fire the same cold φ at once: the engine's in-flight gate must
    // merge them into one shared batched solve, observable through the stats
    // verb's coalesced_batches / coalesced_waiters counters. Scheduling can let
    // some request finish before another arrives (a plain cache hit), so retry
    // with a fresh φ until an attempt demonstrably coalesced all eight; answer
    // agreement is asserted on every attempt.
    let k = 8;
    let (addr, handle, join) = start_server(k);
    let mut setup = Client::connect(addr).unwrap();
    // A big-enough database that one cold solve dominates client startup skew.
    setup.send("open s social rows=400 seed=11").unwrap();
    setup.send("register likes s").unwrap();

    let mut coalesced = false;
    for attempt in 0..10 {
        let phi = 0.31 + attempt as f64 * 0.029;
        let (batches_before, waiters_before) = coalescing_counters(&setup.send("stats").unwrap());

        let barrier = Arc::new(std::sync::Barrier::new(k));
        let threads: Vec<_> = (0..k)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client
                        .set_read_timeout(Some(Duration::from_secs(60)))
                        .unwrap();
                    barrier.wait();
                    let line = quantile(&mut client, "likes", phi);
                    client.send("quit").unwrap();
                    line.replace(" (cached)", "")
                })
            })
            .collect();
        let answers: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();

        // Every concurrent answer is identical to the (now cached) serial answer.
        let reference = quantile(&mut setup, "likes", phi).replace(" (cached)", "");
        for answer in &answers {
            assert_eq!(answer, &reference, "attempt {attempt} phi {phi}");
        }

        let (batches_after, waiters_after) = coalescing_counters(&setup.send("stats").unwrap());
        if batches_after > batches_before && waiters_after - waiters_before >= (k as u64) - 1 {
            coalesced = true;
            break;
        }
    }
    assert!(
        coalesced,
        "10 attempts of 8 concurrent identical cold requests never fully coalesced"
    );

    setup.send("shutdown").unwrap();
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn concurrent_batch_requests_fold_into_shared_rounds_over_the_wire() {
    // k clients fire overlapping cold `batch` requests at once: every batch's
    // miss set registers with the in-flight gate together, so the batches fold
    // into shared solve rounds instead of each running its own recursion —
    // observable as coalesced_waiters bumps on the stats verb. As above, retry
    // with fresh φ sets because scheduling can serialize the requests; answer
    // agreement is asserted on every attempt.
    let k = 6;
    let (addr, handle, join) = start_server(k);
    let mut setup = Client::connect(addr).unwrap();
    setup.send("open s social rows=400 seed=23").unwrap();
    setup.send("register likes s").unwrap();

    let mut coalesced = false;
    for attempt in 0..10 {
        let base = 0.11 + attempt as f64 * 0.031;
        // Overlapping but non-identical φ sets per client.
        let phi_sets: Vec<Vec<f64>> = (0..k)
            .map(|i| vec![base, base + 0.2, base + 0.001 * i as f64])
            .collect();
        let (batches_before, waiters_before) = coalescing_counters(&setup.send("stats").unwrap());

        let barrier = Arc::new(std::sync::Barrier::new(k));
        let threads: Vec<_> = phi_sets
            .iter()
            .map(|phis| {
                let barrier = Arc::clone(&barrier);
                let phis = phis.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client
                        .set_read_timeout(Some(Duration::from_secs(60)))
                        .unwrap();
                    barrier.wait();
                    let phis: Vec<String> = phis.iter().map(f64::to_string).collect();
                    let lines = client.send(&format!("batch likes {}", phis.join(" ")));
                    let lines = lines.unwrap();
                    client.send("quit").unwrap();
                    lines
                })
            })
            .collect();
        let replies: Vec<Vec<String>> = threads.into_iter().map(|t| t.join().unwrap()).collect();

        // Every client's per-φ answers agree with the (now cached) serial ones.
        for (phis, lines) in phi_sets.iter().zip(&replies) {
            assert_eq!(lines.len(), phis.len() + 1, "answers + summary: {lines:?}");
            for (&phi, line) in phis.iter().zip(lines) {
                let reference = quantile(&mut setup, "likes", phi).replace(" (cached)", "");
                assert_eq!(line.replace(" (cached)", ""), reference, "phi {phi}");
            }
        }

        let (batches_after, waiters_after) = coalescing_counters(&setup.send("stats").unwrap());
        if batches_after > batches_before && waiters_after > waiters_before {
            coalesced = true;
            break;
        }
    }
    assert!(
        coalesced,
        "10 attempts of concurrent overlapping batch requests never coalesced"
    );

    setup.send("shutdown").unwrap();
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn metrics_and_stats_json_over_the_wire() {
    let (addr, handle, join) = start_server(4);
    let mut client = Client::connect(addr).unwrap();
    client.send("open s social rows=80 seed=3").unwrap();
    client.send("register likes s").unwrap();
    quantile(&mut client, "likes", 0.5); // cold: row of solve spans
    quantile(&mut client, "likes", 0.5); // warm: cache hit

    // Prometheus exposition: one `series value` per non-comment line.
    let metrics = client.send("metrics").unwrap();
    assert!(metrics.len() > 10, "{metrics:?}");
    for line in metrics.iter().filter(|l| !l.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("{line}"));
        assert!(!series.is_empty(), "{line}");
        assert!(value == "+Inf" || value.parse::<f64>().is_ok(), "{line}");
    }
    let text = metrics.join("\n");
    // Server lifecycle series: every request so far went through the pipeline.
    assert!(text.contains("qjoin_requests_total 4"), "{text}");
    for name in [
        "qjoin_queue_wait_seconds",
        "qjoin_execute_seconds",
        "qjoin_write_seconds",
    ] {
        let count_line = metrics
            .iter()
            .find(|l| l.starts_with(&format!("{name}_count")))
            .unwrap_or_else(|| panic!("no {name}_count in {text}"));
        let count: u64 = count_line.rsplit_once(' ').unwrap().1.parse().unwrap();
        assert!(count >= 4, "{count_line}");
    }
    // Engine solve spans: exactly one cold solve, per-phase histograms populated.
    assert!(
        text.contains("qjoin_solve_seconds_count{plan=\"likes\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("qjoin_solve_phase_seconds_count{phase=\"prepare\",plan=\"likes\"} 1"),
        "{text}"
    );
    assert!(text.contains("qjoin_cache_hits_total 1"), "{text}");

    // The scrape itself is monotone: a second scrape sees strictly more requests.
    let text2 = client.send("metrics").unwrap().join("\n");
    assert!(text2.contains("qjoin_requests_total 5"), "{text2}");

    // `stats json`: exactly one payload line holding one JSON object.
    let json = client.send("stats json").unwrap();
    assert_eq!(json.len(), 1, "{json:?}");
    let json = &json[0];
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert!(json.contains("\"qjoin_requests_total\":6"), "{json}");
    assert!(
        json.contains("\"qjoin_queue_wait_seconds\":{\"count\":"),
        "{json}"
    );

    // An `err` reply is counted by its class; nothing was shed.
    client.send("frobnicate").unwrap_err();
    let text3 = client.send("metrics").unwrap().join("\n");
    let usage = "\nqjoin_errors_total{class=\"usage\"} 1\n";
    assert!(text3.contains(usage), "{text3}");
    assert!(text3.contains("\nqjoin_shed_total 0\n"), "{text3}");

    client.send("shutdown").unwrap();
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn slowlog_captures_requests_over_the_threshold() {
    // Threshold zero: every request is a slow request.
    let config = ServerConfig {
        workers: 2,
        slow_threshold: Duration::ZERO,
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(CliSession::new()), config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    client.send("open s social rows=60 seed=3").unwrap();
    let dump = client.send("slowlog").unwrap();
    assert!(dump[0].contains("entries shown"), "{dump:?}");
    let text = dump.join("\n");
    assert!(
        text.contains("cmd=\"open s social rows=60 seed=3\""),
        "{text}"
    );
    assert!(text.contains("queue="), "{text}");
    assert!(text.contains("execute="), "{text}");

    // Default config (100ms threshold): cheap requests never land in the log.
    client.send("quit").unwrap();
    handle.shutdown();
    join.join().unwrap();
    let (addr, handle, join) = start_server(2);
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    let dump = client.send("slowlog").unwrap();
    assert!(dump[0].starts_with("slowlog: 0 entries shown"), "{dump:?}");
    client.send("quit").unwrap();
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn trace_verbs_and_slowlog_links_over_the_wire() {
    // Threshold zero so every request lands in the slow log with its trace id.
    let config = ServerConfig {
        workers: 2,
        slow_threshold: Duration::ZERO,
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(CliSession::new()), config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    client.send("open s social rows=80 seed=3").unwrap();
    client.send("register likes s").unwrap();
    quantile(&mut client, "likes", 0.5); // cold: full solve trace

    // The cold request's trace shows the whole lifecycle: server-side
    // queue-wait/execute plus the engine's solve and all four phases.
    let tree = client.send("trace last 1").unwrap().join("\n");
    for name in [
        "request",
        "queue-wait",
        "execute",
        "cache-lookup",
        "solve",
        "prepare",
        "pivot-scan",
        "trim-round",
        "materialize",
    ] {
        assert!(tree.contains(name), "no {name} span in:\n{tree}");
    }
    assert!(tree.contains("cmd=\"quantile likes 0.5\""), "{tree}");

    // The slow-log entry for the quantile links to a retained trace.
    let slowlog = client.send("slowlog").unwrap().join("\n");
    let quantile_line = slowlog
        .lines()
        .find(|l| l.contains("cmd=\"quantile likes 0.5\""))
        .unwrap_or_else(|| panic!("no quantile entry in:\n{slowlog}"));
    let trace_id = quantile_line
        .split("trace=")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no trace= field in {quantile_line:?}"));
    assert_ne!(trace_id, "-", "slow quantile must carry a trace id");
    let by_id = client
        .send(&format!("trace id {trace_id}"))
        .unwrap()
        .join("\n");
    assert!(by_id.contains(&format!("trace {trace_id} (")), "{by_id}");
    assert!(by_id.contains("solve"), "{by_id}");

    // Chrome export of the linked trace is a one-line JSON array of complete
    // ("ph":"X") events.
    let chrome = client
        .send(&format!("trace chrome {trace_id}"))
        .unwrap()
        .join("\n");
    assert!(chrome.starts_with('[') && chrome.ends_with(']'), "{chrome}");
    assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
    assert!(chrome.contains("\"name\":\"trim-round\""), "{chrome}");

    // explain works over the wire and names the §5 dichotomy class.
    let explain = client.send("explain likes 0.5").unwrap().join("\n");
    assert!(
        explain.contains("dichotomy class: sum-adjacent-pair"),
        "{explain}"
    );

    client.send("shutdown").unwrap();
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn replace_over_the_wire_invalidates_caches() {
    let (addr, handle, join) = start_server(2);
    let mut client = Client::connect(addr).unwrap();
    client.send("open s social rows=60 seed=5").unwrap();
    client.send("register likes s").unwrap();
    let before = quantile(&mut client, "likes", 0.5);
    assert!(quantile(&mut client, "likes", 0.5).contains("(cached)"));

    client.send("replace s social rows=60 seed=99").unwrap();
    let after = quantile(&mut client, "likes", 0.5);
    assert!(!after.contains("(cached)"), "{after}");
    assert_ne!(before, after);

    client.send("shutdown").unwrap();
    handle.shutdown();
    join.join().unwrap();
}

// ---- hits on the reactor ------------------------------------------------------

/// A batch with one cached φ and one uncached φ, then a pure hit: the cache's
/// counters move by exactly one per φ, however the reactor decided where each
/// request runs. Mutation: the reactor decides with counting lookups, and both
/// counters read more.
#[test]
fn each_phi_is_counted_once_wherever_it_is_served() {
    let (engine, handle, join) = start_observed_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.send("open s social rows=60 seed=3").unwrap();
    client.send("register likes s").unwrap();
    quantile(&mut client, "likes", 0.5);
    let before = engine.cache_stats();
    let batch = client.send("batch likes 0.5 0.75").unwrap();
    assert!(batch[2].ends_with("1 solved in one shared pass, 1 from cache"));
    assert!(quantile(&mut client, "likes", 0.75).ends_with(" (cached)"));
    let after = engine.cache_stats();
    let moved = (after.hits - before.hits, after.misses - before.misses);
    assert_eq!(moved, (2, 1), "hits and misses: {before:?} → {after:?}");
    handle.shutdown();
    join.join().unwrap();
}

/// A client that sends cached requests and never reads fills the server's send
/// buffer; another client's pings are still answered at once. Mutation: the
/// reactor writes with the 5 s-patience loop, and a ping waits it out.
#[test]
fn a_stalled_reader_stalls_no_one() {
    // No span traces: they would hold every one of the many lookups.
    let config = EngineConfig {
        flight_recorder_capacity: 0,
        ..EngineConfig::default()
    };
    let engine = Arc::new(Engine::with_config(config));
    let session = Arc::new(CliSession::with_engine(Arc::clone(&engine)));
    let server = Server::bind("127.0.0.1:0", session, ServerConfig::default()).unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.send("open s social rows=60 seed=3").unwrap();
    client.send("register likes s").unwrap();
    quantile(&mut client, "likes", 0.5);
    // Each line asks for the most cached answers the reactor serves itself:
    // ~1 KiB of reply for 76 bytes sent.
    let line = format!("batch likes{}\n", " 0.5".repeat(INLINE_PHIS));
    let stalled = TcpStream::connect(handle.addr()).unwrap();
    let writer = {
        let mut stream = stalled.try_clone().unwrap();
        std::thread::spawn(move || {
            for _ in 0..50_000 {
                if stream.write_all(line.as_bytes()).is_err() {
                    break;
                }
            }
        })
    };
    // The replies back up until the server stops serving the connection: its
    // cache hits stand still for a second. All the while another client pings
    // every 100 ms, and every ping is answered at once. A reactor that waited
    // on the stalled socket would hold a ping until the socket took the reply
    // or its patience ran out; and its hits could stand still only after that.
    let deadline = Instant::now() + Duration::from_secs(60);
    let (mut hits, mut still, mut slowest) = (engine.cache_stats().hits, 0, Duration::ZERO);
    while still < 10 {
        std::thread::sleep(Duration::from_millis(100));
        let asked = Instant::now();
        client.ping().unwrap();
        slowest = slowest.max(asked.elapsed());
        let now = engine.cache_stats().hits;
        still = if now == hits && now > 20_000 {
            still + 1
        } else {
            0
        };
        assert!(Instant::now() < deadline, "{now} hits, still serving");
        hits = now;
    }
    assert!(slowest < Duration::from_secs(1), "a ping took {slowest:?}");
    stalled.shutdown(std::net::Shutdown::Both).unwrap();
    writer.join().unwrap();
    drop(stalled);
    handle.shutdown();
    join.join().unwrap();
}

// ---- the reactor's three states: servicing, spinning, blocked in poll(2) --------

/// A server whose engine (and so its metric registry) the test keeps a handle on.
fn start_observed_server() -> (Arc<Engine>, ServerHandle, JoinHandle<ServerSummary>) {
    let engine = Arc::new(Engine::new());
    let session = Arc::new(CliSession::with_engine(Arc::clone(&engine)));
    let config = ServerConfig {
        workers: 2,
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", session, config).unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());
    (engine, handle, join)
}

/// `(qjoin_reactor_blocking_polls_total, qjoin_connections_parked)`, read from the
/// registry directly: no request is sent.
fn reactor_counters(engine: &Engine) -> (u64, f64) {
    let snapshot = engine.registry().snapshot();
    let polls = snapshot.counter("qjoin_reactor_blocking_polls_total", &[]);
    let parked = snapshot.gauge("qjoin_connections_parked", &[]);
    (polls.unwrap_or(0), parked.unwrap_or(-1.0))
}

/// Waits until the reactor is blocked with `parked` connections: it has gone to
/// sleep at least once and stayed there for 50 ms (a spin lasts microseconds).
fn wait_until_blocked(engine: &Engine, parked: usize) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let before = reactor_counters(engine);
        std::thread::sleep(Duration::from_millis(50));
        if before.0 > 0 && before == reactor_counters(engine) && before.1 == parked as f64 {
            return before.0;
        }
        assert!(Instant::now() < deadline, "never blocked: {before:?}");
    }
}

fn connect_and_ping(addr: SocketAddr, connections: usize) -> Vec<Client> {
    (0..connections)
        .map(|_| {
            let mut client = Client::connect(addr).unwrap();
            client
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            client.ping().unwrap();
            client
        })
        .collect()
}

#[test]
fn an_idle_server_sleeps_and_a_parked_hangup_wakes_it() {
    let (engine, handle, join) = start_observed_server();
    let mut clients = connect_and_ping(handle.addr(), 4);
    // A connection whose request is executing is not parked — not even in the
    // scrape that request itself makes of an otherwise sleeping server.
    wait_until_blocked(&engine, 4);
    let scrape = clients[0].send("metrics").unwrap().join("\n");
    assert!(scrape.contains("\nqjoin_connections_parked 3"), "{scrape}");
    let asleep = wait_until_blocked(&engine, 4);
    // Idle for 300 ms with four parked connections: the reactor sleeps in the
    // kernel, it does not tick. (The parent's 1 ms tick would sweep ~300 times.)
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(reactor_counters(&engine), (asleep, 4.0));

    // A client that disconnects while parked is an event, not something the next
    // request or tick discovers: the gauge drops with no request sent.
    drop(clients.pop());
    assert!(wait_until_blocked(&engine, 3) > asleep);

    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!((summary.connections, summary.requests), (4, 5));
}

#[test]
fn shutdown_ends_a_blocked_reactor_by_handle_and_by_verb() {
    for parked in [0usize, 8] {
        for by_verb in [false, true] {
            let (engine, handle, join) = start_observed_server();
            let mut clients = connect_and_ping(handle.addr(), parked);
            wait_until_blocked(&engine, parked);
            if by_verb {
                Client::connect(handle.addr())
                    .unwrap()
                    .send("shutdown")
                    .unwrap();
            } else {
                handle.shutdown();
            }
            // A reactor that missed the wake would sleep forever: join through a
            // channel so that is a failure, not a hang.
            let (done, joined) = std::sync::mpsc::channel();
            std::thread::spawn(move || done.send(join.join().unwrap()));
            let summary = joined
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("parked={parked} by_verb={by_verb}: still running"));
            // Exactly the connections that were made: no dial woke the listener.
            let extra = u64::from(by_verb);
            let expected = (parked as u64 + extra, parked as u64 + extra);
            assert_eq!((summary.connections, summary.requests), expected);
            // Parked connections were dropped: their clients see the end.
            for client in &mut clients {
                assert!(client.ping().is_err());
            }
        }
    }
}

#[test]
fn a_line_split_by_silence_gets_exactly_one_reply() {
    let (engine, handle, join) = start_observed_server();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.write_all(b"pi").unwrap();
    // Long enough for the reactor to read the half, find no line, and block.
    wait_until_blocked(&engine, 1);
    std::thread::sleep(Duration::from_millis(50));
    stream.write_all(b"ng\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let pong = Response::Ok(vec!["pong".into()]);
    assert_eq!(Response::read_from(&mut reader).unwrap(), pong);
    // Nothing else arrives on its own …
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut byte = [0u8; 1];
    let silence = reader.read(&mut byte).unwrap_err();
    assert!(
        matches!(silence.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        "{silence}"
    );
    // … and the next reply answers the next request.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(b"quit\n").unwrap();
    let bye = Response::Ok(vec!["bye".into()]);
    assert_eq!(Response::read_from(&mut reader).unwrap(), bye);
    handle.shutdown();
    assert_eq!(join.join().unwrap().requests, 2);
}

/// Deterministic xorshift64*: the think times reproduce.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

#[test]
fn no_wake_is_lost_between_spinning_and_blocking() {
    // 20 000 request cycles. Think times (0–300 µs, seeded) straddle the
    // reactor's spin, so requests arrive at every point of the spin → announce →
    // second look → block sequence; and the requests take from microseconds
    // (`ping`) to a few hundred (`replace` of 1–48 rows), so workers hand
    // connections back at every point of it too. A lost wake parks the reactor
    // on a message it never reads, and the next request on that connection dies
    // on the 5 s read timeout.
    let (_engine, handle, join) = start_observed_server();
    let addr = handle.addr();
    let hammer = move |cycles: usize, seed: u64| {
        let mut rng = Rng(seed);
        let mut client = connect_and_ping(addr, 1).remove(0);
        let db = format!("d{seed}");
        client.send(&format!("open {db} social rows=4")).unwrap();
        for cycle in 0..cycles {
            let sent = match rng.next() % 4 {
                0 => client.send(&format!("replace {db} social rows={}", 1 + rng.next() % 48)),
                1 => client.send("stats"),
                _ => client.send("ping"),
            };
            if let Err(e) = sent {
                panic!("seed {seed}, cycle {cycle} of {cycles}: {e}");
            }
            match rng.next() % 301 {
                0 => {}
                think => std::thread::sleep(Duration::from_micros(think)),
            }
        }
    };
    hammer(10_000, 0x9e37_79b9_7f4a_7c15);
    let four: Vec<_> = (1..=4u64)
        .map(|seed| std::thread::spawn(move || hammer(2_500, seed)))
        .collect();
    for thread in four {
        thread.join().unwrap();
    }
    handle.shutdown();
    let summary = join.join().unwrap();
    // Each connection's ping and `open`, then its cycles.
    assert_eq!((summary.connections, summary.requests), (5, 20_010));
}
