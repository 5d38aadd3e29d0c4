//! The coalescing sizing harness: what cross-request coalescing buys a herd of
//! concurrent cold requests. Ignored by default (a few seconds in release):
//!
//! ```sh
//! cargo test --release -p qjoin-server --test coalesce_sizing -- --ignored --nocapture
//! ```
//!
//! Eight barrier-started wire clients each send one cold exact request at once:
//! the same φ (`identical`), eight different φ (`distinct`), or three-φ batches
//! sharing two targets (`batches`). A herd's time runs from the barrier to its last
//! reply; every row is the median (and quartiles) of 15 herds, each on fresh φ.
//! Rows cover `workers` 2 and 8 on perfbench's `social_sum` and `path3_lex`
//! databases. docs/ARCHITECTURE.md records what it printed.

use qjoin_engine::cli::CliSession;
use qjoin_server::{Client, Server, ServerConfig};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const HERDS: usize = 15;

/// `(label, open, register)` per database.
const WORKLOADS: [(&str, &str, &str); 2] = [
    (
        "social SUM",
        "open s social rows=600 seed=7",
        "register p s",
    ),
    (
        "path3 LEX",
        "open s path atoms=3 rows=3000 domain=300 seed=7",
        "register p s ranking=lex:x1,x4",
    ),
];

const HERD_KINDS: [&str; 3] = ["identical", "distinct", "batches"];

/// The eight request lines of one herd, on φ never asked before on this server.
fn herd(kind: &str, fresh: &mut impl FnMut() -> String) -> Vec<String> {
    match kind {
        "identical" => vec![format!("quantile p {}", fresh()); CLIENTS],
        "distinct" => (0..CLIENTS)
            .map(|_| format!("quantile p {}", fresh()))
            .collect(),
        _ => {
            let shared = format!("{} {}", fresh(), fresh());
            let lines = (0..CLIENTS).map(|_| format!("batch p {shared} {}", fresh()));
            lines.collect()
        }
    }
}

/// Sends the herd's lines from one connected client each, all released by one
/// barrier; returns the slowest client's time from the barrier to its reply.
fn run_herd(addr: std::net::SocketAddr, lines: Vec<String>) -> Duration {
    let barrier = Arc::new(Barrier::new(lines.len()));
    let clients: Vec<_> = lines
        .into_iter()
        .map(|line| {
            let barrier = Arc::clone(&barrier);
            let mut client = Client::connect(addr).unwrap();
            client
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            std::thread::spawn(move || {
                barrier.wait();
                let started = Instant::now();
                client.send(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
                let elapsed = started.elapsed();
                client.quit().unwrap();
                elapsed
            })
        })
        .collect();
    let times = clients.into_iter().map(|c| c.join().unwrap());
    times.max().unwrap_or_default()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[test]
#[ignore = "sizing harness: run by hand with --ignored --nocapture"]
fn coalescing_sizing_harness() {
    println!("workers  database    herd       median_ms  p25–p75_ms");
    for workers in [2, 8] {
        for (label, open, register) in WORKLOADS {
            let config = ServerConfig {
                workers,
                ..Default::default()
            };
            let server = Server::bind("127.0.0.1:0", Arc::new(CliSession::new()), config).unwrap();
            let addr = server.local_addr().unwrap();
            let handle = server.handle().unwrap();
            let join = std::thread::spawn(move || server.run().unwrap());
            let mut setup = Client::connect(addr).unwrap();
            setup.send(open).unwrap();
            setup.send(register).unwrap();
            let mut next = 0u32;
            let mut fresh = || {
                next += 1;
                format!("{:.6}", f64::from(next) / 1024.0)
            };
            for kind in HERD_KINDS {
                let mut times: Vec<Duration> = (0..HERDS)
                    .map(|_| run_herd(addr, herd(kind, &mut fresh)))
                    .collect();
                times.sort();
                let (p25, p50, p75) = (times[HERDS / 4], times[HERDS / 2], times[3 * HERDS / 4]);
                println!(
                    "{workers:>7}  {label:<10}  {kind:<9}  {:>9.2}  {:.2}–{:.2}",
                    ms(p50),
                    ms(p25),
                    ms(p75)
                );
            }
            setup.quit().unwrap();
            handle.shutdown();
            join.join().unwrap();
        }
    }
}
