//! # qjoin-server
//!
//! A **concurrent network serving layer** over the thread-safe quantile engine:
//! where `qjoin-engine` answers quantile requests in-process, this crate puts a TCP
//! front end on one shared [`qjoin_engine::Engine`] so many clients can probe
//! quantiles at once — the serving workload the paper's near-linear per-query
//! bounds make attractive.
//!
//! Everything is **std plus one libc call**: `std::net` sockets, `std::thread`
//! workers, a line-delimited text protocol, and `poll(2)` — declared as the
//! crate's single `extern "C"` item and called from its single `unsafe` block
//! (std already links libc; no dependency is added). The crate is **unix-only**.
//! Connections are **multiplexed**: a reactor parks nonblocking connections,
//! sleeps in the kernel while they are quiet, and dispatches complete request
//! lines to the worker pool, so idle connections cost zero worker threads and an
//! idle server costs no CPU; concurrent cold exact requests against one plan
//! coalesce into shared batched solves inside the engine. The pieces:
//!
//! | Component | Module |
//! |---|---|
//! | wire format (framing, verbs, errors) | [`protocol`] |
//! | `poll(2)` blocking and the wake descriptor | [`poll`] |
//! | nonblocking connection + line assembly | [`conn`] |
//! | bounded worker thread pool | [`pool`] |
//! | reactor (accept, park, dispatch) + graceful drain | [`server`] |
//! | request lifecycle timing + slow-query log | [`metrics`] |
//! | blocking client library | [`client`] |
//!
//! The crate also ships the `qjoin` binary: all of the engine CLI's subcommands
//! (REPL, one-shot `register`/`quantile`/`batch`/`stats`) plus `qjoin serve` and
//! `qjoin client` for the network path.
//!
//! ## Quick example
//!
//! ```
//! use qjoin_engine::cli::CliSession;
//! use qjoin_server::{Client, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! // Bind an ephemeral port (never collides across parallel test runs).
//! let server = Server::bind("127.0.0.1:0", Arc::new(CliSession::new()), ServerConfig::default())
//!     .unwrap();
//! let addr = server.local_addr().unwrap();
//! let join = std::thread::spawn(move || server.run().unwrap());
//!
//! let mut client = Client::connect(addr).unwrap();
//! client.send("open s social rows=60 seed=3").unwrap();
//! client.send("register likes s").unwrap();
//! let answer = client.quantile("likes", 0.5).unwrap();
//! assert!(answer.contains("phi=0.5000"));
//! client.shutdown().unwrap();   // drains workers and stops the reactor
//! join.join().unwrap();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod conn;
pub mod metrics;
pub mod poll;
pub mod pool;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use conn::{Conn, MAX_LINE_BYTES};
pub use metrics::ServerMetrics;
pub use poll::{Poller, Waker};
pub use pool::WorkerPool;
pub use protocol::{ProtocolError, Response, MAX_PAYLOAD_LINES};
pub use server::{Server, ServerConfig, ServerHandle, ServerSummary};
