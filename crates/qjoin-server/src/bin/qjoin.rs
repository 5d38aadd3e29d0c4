//! The `qjoin` binary: the engine CLI (REPL + one-shot subcommands) plus the
//! network subcommands `serve` and `client` provided by this crate.

use qjoin_engine::request::{param, parse_params};
use qjoin_engine::{EngineConfig, Request, RequestError};
use qjoin_server::{Client, ClientError, ServerConfig};
use std::io::BufRead;
use std::time::Duration;

/// Usage text for the network subcommands (the engine's `HELP` covers the rest).
const SERVE_HELP: &str = "\
qjoin serve — run the TCP serving layer

USAGE:
  qjoin serve [addr=<host:port>] [workers=<n>] [queue=<n>] [cache=<n>]
              [slowms=<ms>] [threads=<n>] [tracecap=<n>]

  addr     bind address; port 0 (the default) picks a free ephemeral port.
           The bound address is printed as `qjoin-server listening on <addr> ...`.
  workers  worker threads executing requests (connections are multiplexed
           over a reactor, so idle connections hold no worker)  (default 4)
  queue    dispatched-request queue depth before shedding       (default 64)
  cache    engine result-cache capacity, 0 disables   (default 1024)
  slowms   slow-query log threshold in milliseconds: requests whose
           queue-wait + execute time reaches it are kept for the
           `slowlog` verb   (default 100)
  threads  intra-solve parallelism: the engine's work-stealing chunk
           executor runs each solve over this many threads. 1 is purely
           sequential; answers are bit-identical at any setting
           (default: QJOIN_THREADS, else the host's parallelism)
  tracecap retained per-request span traces in the flight recorder, read
           back by the `trace` verbs; 0 disables span tracing entirely
           (default 64)

qjoin client — talk to a running server

USAGE:
  qjoin client <addr> [command ...]

  Each trailing argument is one full protocol command (quote it); with no
  commands, lines are read from stdin. Payload lines are printed to stdout,
  `err` replies to stderr. The exit code is 1 when the connection fails or
  any command got an `err` reply (stdin mode keeps going after remote
  errors, but still reports them in the exit code).
  See docs/PROTOCOL.md for the verbs.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("help") | Some("-h") | Some("--help") => {
            println!("{}\n\n{SERVE_HELP}", qjoin_engine::cli::HELP);
            0
        }
        // Everything else (repl, register, quantile, batch, stats, …) is the
        // engine CLI's business.
        _ => qjoin_engine::cli::main_with_args(args),
    }
}

/// `qjoin serve`'s arguments: the bind address, the engine's configuration and
/// the server's.
fn serve_config(args: &[String]) -> Result<(String, EngineConfig, ServerConfig), RequestError> {
    let tokens: Vec<&str> = args.iter().map(String::as_str).collect();
    let keys = [
        "addr", "workers", "queue", "cache", "slowms", "threads", "tracecap",
    ];
    let params = parse_params(&tokens, &keys)?;
    // Absent, `threads` defers to the process-wide pool (QJOIN_THREADS or the
    // host's available parallelism); `threads=1` is purely sequential.
    let threads = (params.contains_key("threads"))
        .then(|| param(&params, "threads", 0))
        .transpose()?;
    if threads == Some(0) {
        return Err(RequestError::usage("threads must be at least 1"));
    }
    let engine = EngineConfig {
        cache_capacity: param(&params, "cache", 1024)?,
        threads,
        flight_recorder_capacity: param(&params, "tracecap", 64)?,
        ..Default::default()
    };
    let server = ServerConfig {
        workers: param(&params, "workers", 4)?,
        queue_depth: param(&params, "queue", 64)?,
        slow_threshold: Duration::from_millis(param(&params, "slowms", 100)?),
    };
    // Ephemeral by default: parallel invocations never collide on a port.
    let addr = param(&params, "addr", "127.0.0.1:0".to_string())?;
    Ok((addr, engine, server))
}

fn cmd_serve(args: &[String]) -> i32 {
    let (addr, engine, config) = match serve_config(args) {
        Ok(configs) => configs,
        Err(e) => {
            eprintln!("error: {e}\n\n{SERVE_HELP}");
            return 1;
        }
    };
    let workers = config.workers;
    let engine = std::sync::Arc::new(qjoin_engine::Engine::with_config(engine));
    let session = std::sync::Arc::new(qjoin_engine::cli::CliSession::with_engine(engine));
    let server = match qjoin_server::Server::bind(addr.as_str(), session, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            return 1;
        }
    };
    match server.local_addr() {
        Ok(bound) => {
            // CI and scripts parse this exact line to learn the ephemeral port.
            println!("qjoin-server listening on {bound} ({workers} workers)");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("error: cannot resolve bound address: {e}");
            return 1;
        }
    }
    match server.run() {
        Ok(summary) => {
            println!(
                "qjoin-server drained: {} connections, {} requests",
                summary.connections, summary.requests
            );
            0
        }
        Err(e) => {
            eprintln!("error: server failed: {e}");
            1
        }
    }
}

/// Sends each command in turn, printing payloads to stdout and errors to
/// stderr, until one ends the conversation (`quit`/`exit`/`shutdown`). A remote
/// `err` reply stops the run unless `keep_going` (stdin mode); a transport
/// error always does. Any error makes the exit code 1, so shell pipelines can
/// tell a clean run from a degraded one.
fn run_script(
    client: &mut Client,
    commands: impl Iterator<Item = String>,
    keep_going: bool,
) -> i32 {
    let mut failed = false;
    for command in commands.filter(|command| !command.trim().is_empty()) {
        match client.send(&command) {
            Ok(payload) => payload.iter().for_each(|line| println!("{line}")),
            Err(ClientError::Remote { class, message }) if keep_going => {
                eprintln!("error: {class}: {message}");
                failed = true;
                continue;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
        if matches!(
            Request::parse(&command),
            Ok(Request::Quit | Request::Shutdown)
        ) {
            break;
        }
    }
    i32::from(failed)
}

fn cmd_client(args: &[String]) -> i32 {
    let [addr, commands @ ..] = args else {
        eprintln!("error: client needs a server address\n\n{SERVE_HELP}");
        return 1;
    };
    let mut client = match Client::connect(addr.as_str()) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            return 1;
        }
    };
    // Solves can take a while on big workloads, but a hung server should not hang
    // the client forever.
    let _ = client.set_read_timeout(Some(Duration::from_secs(300)));
    if commands.is_empty() {
        // Interactive / piped mode: one command per stdin line.
        let lines = std::io::stdin().lock().lines().map_while(Result::ok);
        return run_script(&mut client, lines, true);
    }
    // One-shot mode: each argument is a full command; stop at the first error.
    // Dropping the client closes the connection; it never held a worker.
    run_script(&mut client, commands.iter().cloned(), false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(client: &mut Client, text: &str) -> i32 {
        run_script(client, text.lines().map(String::from), true)
    }

    fn with_client(test: impl FnOnce(&mut Client)) {
        let server = qjoin_server::Server::bind(
            "127.0.0.1:0",
            std::sync::Arc::new(qjoin_engine::cli::CliSession::new()),
            ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle().unwrap();
        let join = std::thread::spawn(move || server.run().unwrap());
        let mut client = Client::connect(addr).unwrap();
        test(&mut client);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn clean_script_exits_zero() {
        with_client(|client| {
            let text = "ping\n\nopen s social rows=60 seed=3\nquit\n";
            assert_eq!(script(client, text), 0);
        });
    }

    #[test]
    fn script_with_a_remote_error_keeps_going_but_exits_nonzero() {
        // Regression: a failing command in stdin mode used to be reported on
        // stderr but swallowed by a 0 exit code.
        with_client(|client| {
            assert_eq!(script(client, "ping\nfrobnicate\nping\n"), 1);
        });
    }

    #[test]
    fn quit_after_a_remote_error_still_exits_nonzero() {
        with_client(|client| {
            assert_eq!(script(client, "frobnicate\nquit\n"), 1);
        });
    }
}
