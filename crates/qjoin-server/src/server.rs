//! The TCP server: a **reactor** that accepts connections and multiplexes them
//! over a bounded worker pool, with cooperative shutdown and graceful drain.
//!
//! ```text
//!            ┌───────────────────────── Server ──────────────────────────┐
//!  connect ─▶│ reactor (the thread that called `run`; owns the listener  │
//!            │ and every parked nonblocking connection; accepts,         │
//!            │ assembles request lines)                                  │
//!            │                │ one complete line = one job              │
//!            │                ▼                                          │
//!            │             worker pool (N threads): Request::parse,      │
//!            │             then Arc<CliSession> ─▶ Arc<Engine>           │
//!            │                │ write response, hand the                 │
//!            │                ▼ connection back                          │
//!            │             reactor (parks it again)                      │
//!            └───────────────────────────────────────────────────────────┘
//! ```
//!
//! **Connections are multiplexed, not pinned**: workers execute *requests*, never
//! own connections. An idle connection is a parked [`Conn`] in the reactor's
//! registry — a buffer and a socket, zero threads — so any number of idle clients
//! coexist with `workers` concurrent request executions.
//!
//! **The reactor never waits on a timer.** It is *servicing* (the last sweep did
//! something: sweep again), *spinning* (up to `SPIN_SWEEPS` quiet sweeps with
//! `yield_now`, for the client that sends its next request as soon as it has read
//! the reply), or *blocked* in `poll(2)`, with no timeout, on the listener, every
//! parked connection and the wake descriptor (see [`crate::poll`]). A worker
//! handing a connection back rings the wake descriptor if the reactor is asleep;
//! a request arriving at an idle server wakes it through its own socket.
//!
//! **Shutdown**: the `shutdown` verb (or [`ServerHandle::shutdown`]) sets a flag
//! and wakes the reactor, which drops the parked (idle) connections; workers
//! finish what they are executing (in-flight solves are never aborted), and
//! [`Server::run`] joins them before returning.

use crate::conn::{Conn, FillOutcome};
use crate::metrics::{ServerMetrics, SLOW_LOG_CAPACITY};
use crate::poll::{Poller, Waker};
use crate::pool::WorkerPool;
use crate::protocol::Response;
use qjoin_engine::cli::CliSession;
use qjoin_engine::{ErrorClass, Request, RequestError};
use qjoin_telemetry::{
    with_trace_context, ArgValue, FlightRecorder, SpanId, TraceBuilder, TraceContext,
};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing requests. Workers are a concurrency limit on
    /// in-flight request execution, **not** on connections: idle connections park
    /// in the reactor and hold no worker.
    pub workers: usize,
    /// Dispatched-but-unstarted requests the worker queue holds before the
    /// reactor's dispatch blocks (backpressure instead of unbounded pile-up).
    pub queue_depth: usize,
    /// Requests whose queue-wait plus execute time reaches this threshold are
    /// captured in the slow-query log (dumped by the `slowlog` verb).
    pub slow_threshold: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            slow_threshold: Duration::from_millis(100),
        }
    }
}

/// What a finished server run observed (returned by [`Server::run`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerSummary {
    /// Connections accepted and registered with the reactor.
    pub connections: u64,
    /// Requests answered: non-empty command lines whose response was successfully
    /// written back. Empty keep-alive lines and requests whose client vanished
    /// mid-reply are not counted.
    pub requests: u64,
}

/// A handle that can stop a running server from any thread.
#[derive(Clone, Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
}

impl ServerHandle {
    /// The server's bound address (the real port, even when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown: sets the flag, then wakes the reactor. Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
    }
}

/// A bound-but-not-yet-running server (see the module docs).
pub struct Server {
    listener: TcpListener,
    session: Arc<CliSession>,
    config: ServerConfig,
    handle: ServerHandle,
    poller: Poller,
    /// What a worker runs on a request line: [`dispatch`].
    dispatch: fn(&str, &CliSession, &ServerMetrics) -> (Response, Action),
}

/// One unit of worker work: a connection plus the complete request line the
/// reactor assembled for it. The worker owns the connection exclusively while
/// executing (it was removed from the reactor's registry), which is what makes
/// response writes race-free without per-connection locks.
struct Job {
    conn: Conn,
    line: String,
    /// When the reactor handed the line to the pool — the start of queue-wait.
    enqueued: Instant,
    /// The request's span trace, started by the reactor at dispatch with its
    /// epoch at `enqueued` (so the queue-wait span starts at offset 0). `None`
    /// when the flight recorder is disabled or the line is empty.
    trace: Option<(TraceBuilder, SpanId)>,
}

/// Starts a request span trace whose offsets are measured from `epoch` (the
/// enqueue instant), returning the builder plus the pre-allocated root span id
/// that the lifecycle spans parent to. `None` when tracing is disabled.
fn start_request_trace(
    recorder: &FlightRecorder,
    epoch: Instant,
) -> Option<(TraceBuilder, SpanId)> {
    if !recorder.is_enabled() {
        return None;
    }
    let builder = TraceBuilder::with_epoch(recorder.next_trace_id(), epoch);
    let root = builder.next_span_id();
    Some((builder, root))
}

impl Server {
    /// Binds a listener (use port 0 for an OS-assigned ephemeral port) serving the
    /// given shared session.
    pub fn bind(
        addr: impl ToSocketAddrs,
        session: Arc<CliSession>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let handle = ServerHandle {
            addr: listener.local_addr()?,
            shutdown: Arc::default(),
            waker: poller.waker(),
        };
        Ok(Server {
            listener,
            session,
            config,
            handle,
            poller,
            dispatch,
        })
    }

    /// The actually-bound address (resolves port 0 to the assigned port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        Ok(self.handle.addr)
    }

    /// A handle for stopping the server from another thread (or from a connection's
    /// `shutdown` verb).
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(self.handle.clone())
    }

    /// Runs the reactor on the calling thread until shutdown (or until the
    /// listener or `poll` fails, which is returned and also sets the shutdown
    /// flag), then drains: parked idle connections are dropped, requests already
    /// dispatched to workers finish.
    pub fn run(self) -> io::Result<ServerSummary> {
        let requests = Arc::new(AtomicU64::new(0));
        let (pool, connections, outcome) = {
            let mut reactor = self.into_reactor(Arc::clone(&requests));
            let outcome = reactor.run();
            if outcome.is_err() {
                reactor.handle.shutdown();
            }
            (reactor.pool, reactor.connections, outcome)
            // The rest of the reactor drops here: parked connections see EOF first.
        };
        pool.join();
        outcome.map(|()| ServerSummary {
            connections,
            requests: requests.load(Ordering::SeqCst),
        })
    }

    /// Starts the worker pool and assembles the reactor that feeds it.
    fn into_reactor(self, requests: Arc<AtomicU64>) -> Reactor {
        let handle = self.handle;
        let (done_tx, inbox) = mpsc::channel::<Conn>();
        // Request-lifecycle series live in the engine's registry so the
        // `metrics` / `stats json` verbs expose both layers in one scrape.
        let metrics = Arc::new(ServerMetrics::new(
            self.session.engine().registry(),
            self.config.slow_threshold,
            SLOW_LOG_CAPACITY,
        ));
        let pool = {
            let session = Arc::clone(&self.session);
            let handle = handle.clone();
            let metrics = Arc::clone(&metrics);
            let dispatch = self.dispatch;
            WorkerPool::new(
                "qjoin-worker",
                self.config.workers,
                self.config.queue_depth,
                move |job: Job| {
                    execute_job(
                        job, dispatch, &session, &handle, &requests, &metrics, &done_tx,
                    )
                },
            )
        };
        Reactor {
            listener: self.listener,
            conns: Vec::new(),
            connections: 0,
            inbox,
            poller: self.poller,
            pool,
            handle,
            recorder: Arc::clone(self.session.engine().recorder()),
            metrics,
        }
    }
}

/// Executes one dispatched request on a worker: write the reply, then either hand
/// the connection back to the reactor or drop it. Already-buffered pipelined
/// lines are served inline (no reactor round-trip) — bounded by what the reactor
/// buffered, since workers never read from the socket. A request whose dispatch
/// panics is answered `err internal: <message>` on its still-open connection.
fn execute_job(
    job: Job,
    dispatch: fn(&str, &CliSession, &ServerMetrics) -> (Response, Action),
    session: &CliSession,
    handle: &ServerHandle,
    requests: &AtomicU64,
    metrics: &ServerMetrics,
    done_tx: &Sender<Conn>,
) {
    // This job just left the pool queue (pipelined follow-up lines below are
    // served inline and never enter it).
    metrics.queue_exit();
    let recorder = Arc::clone(session.engine().recorder());
    let Job {
        mut conn,
        mut line,
        mut enqueued,
        mut trace,
    } = job;
    loop {
        let picked_up = Instant::now();
        let queue_wait = picked_up.saturating_duration_since(enqueued);
        let trimmed = line.trim();
        // The reactor started the first line's trace at dispatch (epoch =
        // enqueue); pipelined lines start theirs here with (near-)zero wait.
        let trace_now = trace.take().or_else(|| {
            if trimmed.is_empty() {
                None
            } else {
                start_request_trace(&recorder, enqueued)
            }
        });
        // Execute under the request's trace context, so the engine's
        // cache-lookup / coalesce-wait / solve spans attach to this request.
        let run = || catch_unwind(AssertUnwindSafe(|| dispatch(trimmed, session, metrics)));
        let outcome = match &trace_now {
            Some((builder, root)) => {
                builder.record_new(Some(*root), "queue-wait", enqueued, queue_wait, Vec::new());
                let parent = *root;
                let builder = builder.clone();
                with_trace_context(TraceContext { builder, parent }, run)
            }
            None => run(),
        };
        let panicked = outcome.is_err();
        let (response, action) = outcome.unwrap_or_else(|payload| {
            metrics.panicked();
            let message = (payload.downcast_ref::<&str>().copied())
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("the request panicked");
            let error = RequestError::new(ErrorClass::Internal, message);
            (Response::from(Err(error)), Action::Continue)
        });
        let executed = Instant::now();
        let wrote = conn.write_response(&response).is_ok();
        let write_time = executed.elapsed();
        let trace_id = trace_now.as_ref().map(|(builder, _)| builder.id());
        if let Some((builder, root)) = trace_now {
            builder.record_new(
                Some(root),
                "execute",
                picked_up,
                executed.saturating_duration_since(picked_up),
                Vec::new(),
            );
            builder.record_new(
                Some(root),
                "write",
                executed,
                write_time,
                vec![("ok", ArgValue::Bool(wrote))],
            );
            let mut cmd = trimmed.to_string();
            if cmd.len() > 64 {
                let mut cut = 64;
                while !cmd.is_char_boundary(cut) {
                    cut -= 1;
                }
                cmd.truncate(cut);
            }
            let mut args = vec![("cmd", ArgValue::Str(cmd))];
            args.extend(panicked.then_some(("panic", ArgValue::Bool(true))));
            builder.record(root, None, "request", enqueued, enqueued.elapsed(), args);
            recorder.push(builder.finish());
        }
        // Count only real served requests: non-empty commands whose reply made it
        // back to the client.
        if wrote && !trimmed.is_empty() {
            requests.fetch_add(1, Ordering::SeqCst);
            metrics.record(
                trimmed,
                queue_wait,
                executed.saturating_duration_since(picked_up),
                write_time,
                trace_id,
            );
        }
        if !wrote {
            return; // client vanished mid-reply; drop the connection
        }
        match action {
            Action::Continue => {}
            Action::Close => return,
            Action::Shutdown => {
                handle.shutdown();
                return;
            }
        }
        match conn.next_line() {
            Some(next) => {
                // Pipelined request served inline: it never sat in the pool
                // queue, so its queue-wait is (near-)zero by construction.
                line = next;
                enqueued = Instant::now();
            }
            None => break,
        }
    }
    // Message first, wake second (see `poll`). A failed send means the reactor
    // already exited (shutdown): the connection was dropped with the message.
    if done_tx.send(conn).is_ok() {
        handle.waker.wake();
    }
}

/// How many consecutive quiet sweeps the reactor spins (with `yield_now`) before
/// it blocks: enough to catch a client that reads our response and sends its next
/// request at once, without a `poll(2)` and a wake per request (blocking at once
/// read +33 % on back-to-back cache hits, 75.9 → 101.2 µs).
const SPIN_SWEEPS: u32 = 64;

/// The reactor: sole owner of the listener, of every parked connection and of
/// the worker pool.
struct Reactor {
    listener: TcpListener,
    conns: Vec<Conn>,
    /// Connections accepted so far.
    connections: u64,
    /// Connections coming back from workers that finished their request.
    inbox: Receiver<Conn>,
    poller: Poller,
    pool: WorkerPool<Job>,
    handle: ServerHandle,
    /// The engine's flight recorder: request traces are started here at
    /// dispatch so queue-wait is measured from the true enqueue instant.
    recorder: Arc<FlightRecorder>,
    /// Queue-depth, parked-connection and blocking-poll accounting.
    metrics: Arc<ServerMetrics>,
}

impl Reactor {
    /// Serves until shutdown is requested or the listener or `poll` fails.
    fn run(&mut self) -> io::Result<()> {
        let mut quiet_sweeps = 0u32;
        loop {
            // Servicing: re-park, adopt, then sweep every parked connection once.
            let mut any_activity = self.drain_inbox();
            if self.handle.is_shutdown() {
                // Parked (idle) connections drop with the reactor; the pool join drains the rest.
                return Ok(());
            }
            any_activity |= self.accept()?;
            let mut i = 0;
            while i < self.conns.len() {
                match self.service(i) {
                    true => any_activity = true, // swap_remove'd at i
                    false => i += 1,
                }
            }
            self.metrics.set_parked(self.conns.len());
            if any_activity {
                quiet_sweeps = 0;
                continue;
            }
            quiet_sweeps += 1;
            if quiet_sweeps < SPIN_SWEEPS {
                std::thread::yield_now();
                continue;
            }
            // Long quiet, and the sweep left no complete line buffered: sleep.
            self.block()?;
            quiet_sweeps = 0;
        }
    }

    /// Re-parks every connection the workers handed back. True if there was one.
    fn drain_inbox(&mut self) -> bool {
        let parked = self.conns.len();
        self.conns.extend(self.inbox.try_iter());
        self.conns.len() > parked
    }

    /// Adopts every connection waiting on the (nonblocking) listener. True if
    /// there was one; any error but a transient one is fatal to the server.
    fn accept(&mut self) -> io::Result<bool> {
        use io::ErrorKind::{ConnectionAborted, Interrupted, WouldBlock};
        let parked = self.conns.len();
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.connections += 1;
                    self.conns.extend(Conn::new(stream));
                }
                Err(e) if e.kind() == WouldBlock => return Ok(self.conns.len() > parked),
                // A signal, or a peer that vanished between accept and handshake.
                Err(e) if matches!(e.kind(), Interrupted | ConnectionAborted) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Blocked: sleeps in `poll(2)` until the listener or a connection has
    /// something or a waker rings, then services the connections `poll` flagged
    /// (the listener and the inbox are the next sweep's).
    fn block(&mut self) -> io::Result<()> {
        self.poller.announce();
        // The second look (see `poll`): a waker that did not find us sleeping
        // published its message before we announced, so it is visible now.
        if self.drain_inbox() || self.handle.is_shutdown() {
            self.poller.retract();
            return Ok(());
        }
        self.metrics.blocking_poll();
        let conns = self.conns.iter().map(|conn| conn.stream().as_raw_fd());
        let sources = std::iter::once(self.listener.as_raw_fd()).chain(conns);
        self.poller.block(sources)?;
        // Backwards, so a `swap_remove` moves an already-visited connection.
        for i in (0..self.conns.len()).rev() {
            if self.poller.flagged(i + 1) {
                self.service(i);
            }
        }
        Ok(())
    }

    /// One pass over parked connection `i`: serve its buffer; failing that, read
    /// whatever its socket holds (a nonblocking read is its own probe) and serve
    /// the buffer again. True if the connection left the registry — dispatched to
    /// a worker, rejected, or closed — so that another one now sits at `i`.
    fn service(&mut self, i: usize) -> bool {
        self.serve_buffered(i)
            || match self.conns[i].fill() {
                FillOutcome::Idle => false,
                FillOutcome::Closed => {
                    self.conns.swap_remove(i);
                    true
                }
                // A partial line stays buffered.
                FillOutcome::Progress => self.serve_buffered(i),
            }
    }

    /// Rejects connection `i` if its buffer breaks the line-length bound, else
    /// dispatches its first complete line, if it holds one. True if it did either.
    fn serve_buffered(&mut self, i: usize) -> bool {
        if self.conns[i].over_line_limit() {
            self.reject_flood(i);
            return true;
        }
        let line = self.conns[i].next_line();
        line.map(|line| self.dispatch(i, line)).is_some()
    }

    /// Hands a complete request line to the pool. The connection moves out of the
    /// registry — the worker owns it exclusively until it comes back via the inbox.
    /// Blocks when the queue is full: natural backpressure, bounded by
    /// `queue_depth` dispatched-but-unstarted requests.
    fn dispatch(&mut self, i: usize, line: String) {
        let conn = self.conns.swap_remove(i);
        let enqueued = Instant::now();
        // Start the request's trace now so its queue-wait span measures the
        // full dispatch-to-pickup latency (empty keep-alive lines are never
        // traced; they are not requests).
        let trace = if line.trim().is_empty() {
            None
        } else {
            start_request_trace(&self.recorder, enqueued)
        };
        // Before the worker can scrape: its connection is not parked any more.
        self.metrics.set_parked(self.conns.len());
        self.metrics.queue_enter();
        // Submit can only fail after the pool shut down, which cannot happen
        // while the reactor owns it; the conn would just be dropped.
        let _ = self.pool.submit(Job {
            conn,
            line,
            enqueued,
            trace,
        });
    }

    /// An over-long request line: say why, then close. (The old server closed
    /// silently, leaving clients to guess.)
    fn reject_flood(&mut self, i: usize) {
        let mut conn = self.conns.swap_remove(i);
        let _ = conn.write_response(&Response::from(Err(RequestError::usage("line too long"))));
    }
}

/// What the worker does after writing a response.
enum Action {
    Continue,
    Close,
    Shutdown,
}

/// Maps one request line to a response plus the follow-up action. The line is
/// parsed once: the session answers every request but `slowlog` (the server's
/// own log), and `quit`/`exit` and `shutdown` pick the action. The shutdown flag
/// itself is set by the caller *after* the reply is written, so the client always
/// sees the confirmation.
fn dispatch(line: &str, session: &CliSession, metrics: &ServerMetrics) -> (Response, Action) {
    let request = Request::parse(line);
    let action = match request {
        Ok(Request::Quit) => Action::Close,
        Ok(Request::Shutdown) => Action::Shutdown,
        _ => Action::Continue,
    };
    let reply = request.and_then(|request| match request {
        Request::SlowLog => Ok(metrics.slowlog_dump()),
        request => session.run(&request),
    });
    (Response::from(reply), action)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn spawn_server(
        config: ServerConfig,
    ) -> (ServerHandle, std::thread::JoinHandle<ServerSummary>) {
        let server = Server::bind("127.0.0.1:0", Arc::new(CliSession::new()), config).unwrap();
        let handle = server.handle().unwrap();
        let join = std::thread::spawn(move || server.run().unwrap());
        (handle, join)
    }

    /// A dispatch that panics on `boom` and serves every other line as usual.
    fn panicking(line: &str, session: &CliSession, metrics: &ServerMetrics) -> (Response, Action) {
        if line == "boom" {
            panic!("boom went the request");
        }
        dispatch(line, session, metrics)
    }

    /// A request whose dispatch panics is answered `err internal: …` on its
    /// connection, which stays open; the one worker lives on, the panic is counted
    /// and its request span marked. Without the `catch_unwind` the client reads a
    /// closed connection.
    #[test]
    fn a_panicking_request_gets_a_reply() {
        let session = Arc::new(CliSession::new());
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let mut server = Server::bind("127.0.0.1:0", Arc::clone(&session), config).unwrap();
        server.dispatch = panicking;
        let handle = server.handle().unwrap();
        let join = std::thread::spawn(move || server.run().unwrap());
        let mut client = crate::Client::connect(handle.addr()).unwrap();
        match client.send("boom") {
            Err(crate::ClientError::Remote(message)) => {
                assert_eq!(message, "internal: boom went the request");
            }
            other => panic!("expected an `err internal` reply, got {other:?}"),
        }
        client.ping().unwrap();
        // The pool's one worker still serves: a second connection is answered.
        let mut second = crate::Client::connect(handle.addr()).unwrap();
        second.ping().unwrap();
        let metrics = client.send("metrics").unwrap().join("\n");
        assert!(metrics.contains("qjoin_panics_total 1"), "{metrics}");
        let traces = session.engine().recorder().last(16);
        let spans = traces.iter().flat_map(|trace| trace.spans_named("request"));
        let marked: Vec<_> = spans.filter(|span| span.arg("panic").is_some()).collect();
        assert_eq!(marked.len(), 1, "one request span is marked");
        assert_eq!(marked[0].arg("panic"), Some(&ArgValue::Bool(true)));
        assert_eq!(marked[0].arg("cmd"), Some(&ArgValue::Str("boom".into())));
        client.send("shutdown").unwrap();
        join.join().unwrap();
    }

    #[test]
    fn binds_an_ephemeral_port_and_exposes_it() {
        let (a, ja) = spawn_server(ServerConfig::default());
        let (b, jb) = spawn_server(ServerConfig::default());
        assert_ne!(a.addr().port(), 0);
        assert_ne!(b.addr().port(), 0);
        assert_ne!(a.addr(), b.addr(), "two ephemeral servers must not collide");
        a.shutdown();
        b.shutdown();
        ja.join().unwrap();
        jb.join().unwrap();
    }

    #[test]
    fn handle_shutdown_stops_a_server_with_no_traffic() {
        let (handle, join) = spawn_server(ServerConfig::default());
        assert!(!handle.is_shutdown());
        handle.shutdown();
        let summary = join.join().unwrap();
        assert!(handle.is_shutdown());
        // Shutdown is a flag and a wake: nothing dials the listener.
        assert_eq!(summary, ServerSummary::default());
    }

    #[test]
    fn a_fatal_listener_error_leaves_the_handle_shut_down() {
        // `accept` on a connected, not listening, socket fails with `EINVAL`,
        // which is fatal to the reactor.
        let session = Arc::new(CliSession::new());
        let mut server = Server::bind("127.0.0.1:0", session, ServerConfig::default()).unwrap();
        let connected = TcpStream::connect(server.local_addr().unwrap()).unwrap();
        server.listener = TcpListener::from(std::os::fd::OwnedFd::from(connected));
        let handle = server.handle().unwrap();
        let err = server.run().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(handle.is_shutdown(), "a dead reactor's handle says running");
    }

    /// A reactor that is not running yet, and a client connection — with `sent`
    /// written to it — that the reactor has adopted and parked.
    fn parked_reactor(sent: &[u8]) -> (Reactor, TcpStream) {
        let session = Arc::new(CliSession::new());
        let server = Server::bind("127.0.0.1:0", session, ServerConfig::default()).unwrap();
        let mut client = TcpStream::connect(server.local_addr().unwrap()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        client.write_all(sent).unwrap();
        let mut reactor = server.into_reactor(Arc::default());
        while !reactor.accept().unwrap() {
            std::thread::yield_now();
        }
        (reactor, client)
    }

    #[test]
    fn a_buffered_complete_line_is_served_before_the_reactor_blocks() {
        // The whole request is already in the connection's buffer, so its
        // descriptor has nothing to flag: a reactor that went by `poll` alone
        // would sleep on a request it holds.
        let (mut reactor, client) = parked_reactor(b"ping\n");
        while reactor.conns[0].fill() != FillOutcome::Progress {
            std::thread::yield_now();
        }
        assert_eq!(reactor.conns[0].fill(), FillOutcome::Idle);
        let handle = reactor.handle.clone();
        let serving = std::thread::spawn(move || reactor.run());
        let mut replies = BufReader::new(client).lines();
        assert_eq!(replies.next().unwrap().unwrap(), "ok 1");
        assert_eq!(replies.next().unwrap().unwrap(), "pong");
        handle.shutdown();
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn a_parked_connection_whose_peer_is_gone_is_removed() {
        // `poll` flags a hangup like it flags data (see `poll::tests`); the read
        // that follows meets the end of the stream.
        let (mut reactor, client) = parked_reactor(b"");
        drop(client);
        while !reactor.service(0) {
            std::thread::yield_now();
        }
        assert!(reactor.conns.is_empty());
    }
}
