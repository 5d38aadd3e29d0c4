//! The TCP server: a **reactor** that accepts connections, answers what cannot
//! block itself, and multiplexes the rest over a bounded worker pool, with
//! cooperative shutdown and graceful drain.
//!
//! ```text
//!            ┌───────────────────────── Server ──────────────────────────┐
//!  connect ─▶│ reactor (the thread that called `run`; owns the listener  │
//!            │ and every parked nonblocking connection; accepts,         │
//!            │ assembles request lines, Request::parse)                  │
//!            │   │ `ping`, or a hit (≤ INLINE_PHIS φ, all cached): here  │
//!            │   │ anything else: one parsed Request = one job           │
//!            │   │ (queue full: `err busy`, the connection stays parked) │
//!            │   ▼                                                       │
//!            │ worker pool (N threads): Arc<CliSession> ─▶ Arc<Engine>   │
//!            │   │ write response, hand the                              │
//!            │   ▼ connection back                                       │
//!            │ reactor (parks it again; finishes a pending reply)        │
//!            └───────────────────────────────────────────────────────────┘
//! ```
//!
//! **Connections are multiplexed, not pinned**: workers execute *requests*, never
//! own connections. An idle connection is a parked [`Conn`] in the reactor's
//! registry — a buffer and a socket, zero threads — so any number of idle clients
//! coexist with `workers` concurrent request executions.
//!
//! **No thread waits on a request or a socket.** The reactor parses each line
//! once and serves hits itself, through the `Shared::serve` a worker runs and
//! [`qjoin_engine::Engine::serve_cached`] (which never solves). Other requests
//! go to the pool by [`WorkerPool::try_submit`], or are shed (`err busy`) on a
//! full queue. A reply one nonblocking write leaves pending waits on the parked
//! connection (watched for writing), and nothing behind it is served until it
//! is written. A connection belongs to one thread at a time, so replies stay in
//! request order; the reactor serves one line per connection per sweep, so no
//! client that pipelines hits starves the others. Hits share the reactor's one
//! core, so a long cached batch (over [`INLINE_PHIS`] φ) goes to a worker.
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
//! and wakes the reactor, which drops the parked connections (idle, or with a
//! reply pending on a client that does not read); workers
//! finish what they are executing (in-flight solves are never aborted), and
//! [`Server::run`] joins them before returning.

use crate::conn::{Conn, FillOutcome};
use crate::metrics::{ServerMetrics, SLOW_LOG_CAPACITY};
use crate::poll::{Poller, Waker};
use crate::pool::WorkerPool;
use qjoin_engine::cli::{CliSession, Reply};
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
    /// Dispatched-but-unstarted requests the worker queue holds; past that the
    /// reactor sheds requests (`err busy`) instead of piling them up.
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
    /// What the reactor and the workers run on a request: [`dispatch`].
    dispatch: Dispatch,
}

/// Runs one parsed request; with `cached_only` (the reactor), `None`: a worker must.
type Dispatch = fn(&Request, bool, &CliSession, &ServerMetrics) -> Option<(Reply, Action)>;

/// One request line, parsed once by the thread that took it off the buffer.
struct Line {
    raw: String,
    request: Result<Request, RequestError>,
    /// When it was parsed: the start of a pooled line's queue-wait.
    read: Instant,
    /// The request's span trace, its epoch at `read`; `None` when the flight
    /// recorder is disabled or the line is empty.
    trace: Option<(TraceBuilder, SpanId)>,
}

impl Line {
    fn parse(raw: String, recorder: &FlightRecorder) -> Line {
        let read = Instant::now();
        // Empty keep-alive lines are never traced; they are not requests. The
        // root span id is allocated first: the lifecycle spans parent to it.
        let trace = (recorder.is_enabled() && !raw.trim().is_empty()).then(|| {
            let builder = TraceBuilder::with_epoch(recorder.next_trace_id(), read);
            let root = builder.next_span_id();
            (builder, root)
        });
        Line {
            request: Request::parse(&raw),
            raw,
            read,
            trace,
        }
    }
}

/// One unit of worker work: a connection and the line to serve on it. The
/// worker owns the connection exclusively, so writes need no per-connection lock.
struct Job {
    conn: Conn,
    line: Line,
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
        let (pool, connections, shared, outcome) = {
            let mut reactor = self.into_reactor();
            let outcome = reactor.run();
            if outcome.is_err() {
                reactor.shared.handle.shutdown();
            }
            let shared = Arc::clone(&reactor.shared);
            (reactor.pool, reactor.connections, shared, outcome)
            // The rest of the reactor drops here: parked connections see EOF first.
        };
        pool.join();
        outcome.map(|()| ServerSummary {
            connections,
            requests: shared.requests.load(Ordering::SeqCst),
        })
    }

    /// Starts the worker pool and assembles the reactor that feeds it.
    fn into_reactor(self) -> Reactor {
        let (done_tx, inbox) = mpsc::channel::<Conn>();
        let shared = Arc::new(Shared {
            // Request-lifecycle series live in the engine's registry so the
            // `metrics` / `stats json` verbs expose both layers in one scrape.
            metrics: ServerMetrics::new(
                self.session.engine().registry(),
                self.config.slow_threshold,
                SLOW_LOG_CAPACITY,
            ),
            session: self.session,
            handle: self.handle,
            requests: AtomicU64::new(0),
            dispatch: self.dispatch,
        });
        let pool = {
            let shared = Arc::clone(&shared);
            WorkerPool::new(
                "qjoin-worker",
                self.config.workers,
                self.config.queue_depth,
                move |job: Job| execute_job(&shared, job, &done_tx),
            )
        };
        Reactor {
            listener: self.listener,
            conns: Vec::new(),
            connections: 0,
            inbox,
            poller: self.poller,
            pool,
            shared,
            queue_depth: self.config.queue_depth.max(1),
        }
    }
}

/// What serving a line takes; the reactor and every worker share one.
struct Shared {
    session: Arc<CliSession>,
    /// Request-lifecycle, queue, reactor and error accounting.
    metrics: ServerMetrics,
    handle: ServerHandle,
    /// Requests answered so far ([`ServerSummary::requests`]).
    requests: AtomicU64,
    dispatch: Dispatch,
}

impl Shared {
    /// Serves one line on `conn`, on either thread: dispatch under the request's
    /// trace, a panic answered `err internal`, the reply framed and written by
    /// one nonblocking write (which may leave it pending), the trace and metrics
    /// recorded. `None`: the `reactor` cannot serve the line without a solve. A
    /// client gone mid-reply reads as [`Action::Close`].
    fn serve(&self, conn: &mut Conn, line: &Line, reactor: bool) -> Option<Action> {
        let session = self.session.as_ref();
        let picked_up = Instant::now();
        // Under the request's trace context, so the engine's cache-lookup /
        // coalesce-wait / solve spans attach to this request.
        let run = || {
            catch_unwind(AssertUnwindSafe(|| match &line.request {
                Ok(request) => (self.dispatch)(request, reactor, session, &self.metrics),
                Err(error) => (!reactor).then(|| (Err(error.clone()), Action::Continue)),
            }))
        };
        let outcome = match &line.trace {
            Some((builder, root)) => {
                let (builder, parent) = (builder.clone(), *root);
                with_trace_context(TraceContext { builder, parent }, run)
            }
            None => run(),
        };
        let panicked = outcome.is_err();
        let (reply, action) = match outcome {
            Ok(Some(served)) => served,
            Ok(None) => return None,
            Err(payload) => {
                self.metrics.panicked();
                let message = (payload.downcast_ref::<&str>().copied())
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("the request panicked");
                let error = RequestError::new(ErrorClass::Internal, message);
                (Err(error), Action::Continue)
            }
        };
        let executed = Instant::now();
        conn.queue(&self.metrics.frame(reply));
        let wrote = conn.write_once().is_ok();
        let write_time = executed.elapsed();
        let queue_wait = picked_up.saturating_duration_since(line.read);
        let execute = executed.saturating_duration_since(picked_up);
        let trimmed = line.raw.trim();
        let trace_id = line.trace.as_ref().map(|(builder, _)| builder.id());
        if let Some((builder, root)) = &line.trace {
            let root = *root;
            builder.record_new(Some(root), "queue-wait", line.read, queue_wait, Vec::new());
            builder.record_new(Some(root), "execute", picked_up, execute, Vec::new());
            let ok = vec![("ok", ArgValue::Bool(wrote))];
            builder.record_new(Some(root), "write", executed, write_time, ok);
            let cut = trimmed.floor_char_boundary(64);
            let mut args = vec![("cmd", ArgValue::Str(trimmed[..cut].to_string()))];
            args.extend(panicked.then_some(("panic", ArgValue::Bool(true))));
            let took = line.read.elapsed();
            builder.record(root, None, "request", line.read, took, args);
            session.engine().recorder().push(builder.finish());
        }
        // Count only real served requests: non-empty commands whose reply made it
        // back to the client.
        if wrote && !trimmed.is_empty() {
            self.requests.fetch_add(1, Ordering::SeqCst);
            (self.metrics).record(trimmed, queue_wait, execute, write_time, trace_id);
        }
        Some(if wrote { action } else { Action::Close })
    }
}

/// A worker's job: serve the line and those already buffered behind it (workers
/// never read the socket) until a reply stays pending, then hand the connection
/// back — or drop it.
fn execute_job(shared: &Shared, job: Job, done_tx: &Sender<Conn>) {
    // This job just left the pool queue (pipelined follow-up lines below are
    // served here and never enter it).
    shared.metrics.queue_exit();
    let Job { mut conn, line } = job;
    let recorder = shared.session.engine().recorder();
    let mut next = Some(line);
    while let Some(line) = next.take() {
        match shared.serve(&mut conn, &line, false) {
            Some(Action::Continue) => {}
            Some(Action::Shutdown) => {
                // After the reply: the client always sees the confirmation.
                shared.handle.shutdown();
                return;
            }
            // `quit`, or a client gone mid-reply (a worker never declines).
            _ => return,
        }
        if !conn.pending() {
            next = conn.next_line().map(|raw| Line::parse(raw, recorder));
        }
    }
    // Message first, wake second (see `poll`). A failed send means the reactor
    // already exited (shutdown): the connection was dropped with the message.
    if done_tx.send(conn).is_ok() {
        shared.handle.waker.wake();
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
    shared: Arc<Shared>,
    /// How many jobs wait when the pool's queue is full.
    queue_depth: usize,
}

impl Reactor {
    /// Serves until shutdown is requested or the listener or `poll` fails.
    fn run(&mut self) -> io::Result<()> {
        let mut quiet_sweeps = 0u32;
        loop {
            // Servicing: re-park, adopt, then sweep every parked connection once.
            let mut any_activity = self.drain_inbox();
            if self.shared.handle.is_shutdown() {
                // Parked (idle) connections drop with the reactor; the pool join drains the rest.
                return Ok(());
            }
            any_activity |= self.accept()?;
            // Backwards, so a `swap_remove` moves an already-visited connection.
            for i in (0..self.conns.len()).rev() {
                any_activity |= self.service(i);
            }
            self.shared.metrics.set_parked(self.conns.len());
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
        if self.drain_inbox() || self.shared.handle.is_shutdown() {
            self.poller.retract();
            return Ok(());
        }
        self.shared.metrics.blocking_poll();
        // A pending reply waits on the client's reads: watch its socket for room.
        let conns = (self.conns.iter()).map(|conn| (conn.stream().as_raw_fd(), conn.pending()));
        let sources = std::iter::once((self.listener.as_raw_fd(), false)).chain(conns);
        self.poller.block(sources)?;
        for i in (0..self.conns.len()).rev() {
            if self.poller.flagged(i + 1) {
                self.service(i);
            }
        }
        Ok(())
    }

    /// One pass over parked connection `i`: write its pending reply, and serve
    /// nothing behind it; else serve its buffer; failing that, read whatever its
    /// socket holds (a nonblocking read is its own probe) and serve the buffer
    /// again. True if it did something; if the connection left the registry, the
    /// last one took its place.
    fn service(&mut self, i: usize) -> bool {
        if self.conns[i].pending() {
            let Ok(written) = self.conns[i].write_once() else {
                self.conns.swap_remove(i); // the client is gone
                return true;
            };
            return written > 0;
        }
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
    /// serves its first complete line, if it holds one: here if that takes no
    /// solve, else through the pool. True if it did any of that.
    fn serve_buffered(&mut self, i: usize) -> bool {
        if self.conns[i].over_line_limit() {
            self.reject_flood(i);
            return true;
        }
        let Some(raw) = self.conns[i].next_line() else {
            return false;
        };
        let line = Line::parse(raw, self.shared.session.engine().recorder());
        match self.shared.serve(&mut self.conns[i], &line, true) {
            None => self.dispatch(i, line),
            Some(Action::Close) => drop(self.conns.swap_remove(i)),
            // `ping`, `quantile` and `batch` end neither the connection nor the server.
            Some(_) => {}
        }
        true
    }

    /// Hands connection `i` to the pool with `line` to serve. It leaves the
    /// registry: the worker owns it until it comes back via the inbox. Never
    /// waits: when the queue is full the line is shed, answered `err busy`, and
    /// the connection stays parked.
    fn dispatch(&mut self, i: usize, line: Line) {
        let conn = self.conns.swap_remove(i);
        let metrics = &self.shared.metrics;
        // Before the worker can scrape: its connection is not parked any more.
        metrics.set_parked(self.conns.len());
        metrics.queue_enter();
        let Err(Job { mut conn, .. }) = self.pool.try_submit(Job { conn, line }) else {
            return;
        };
        metrics.queue_exit();
        let waiting = format!("the worker queue is full ({} waiting)", self.queue_depth);
        conn.queue(&metrics.frame(Err(RequestError::new(ErrorClass::Busy, waiting))));
        if conn.write_once().is_ok() {
            self.conns.push(conn); // among those this sweep has been to
        }
    }

    /// An over-long request line: say why, then close.
    fn reject_flood(&mut self, i: usize) {
        let mut conn = self.conns.swap_remove(i);
        let reply = Err(RequestError::usage("line too long"));
        conn.queue(&self.shared.metrics.frame(reply));
        let _ = conn.write_once();
    }
}

/// What the worker does after writing a response.
enum Action {
    Continue,
    Close,
    Shutdown,
}

/// The most φ of a `batch` the reactor serves itself; a longer one goes to a
/// worker, so no reply's lookups hold up the reactor's other connections long.
pub const INLINE_PHIS: usize = 16;

/// Maps one request to a reply plus the follow-up action: the session answers
/// every request but `slowlog` (the server's own log), and `quit`/`exit` and
/// `shutdown` pick the action. The shutdown flag itself is set by the caller
/// *after* the reply is written, so the client always sees the confirmation.
/// With `cached_only`, all but a `ping` or a hit of at most [`INLINE_PHIS`] φ
/// gets `None`.
fn dispatch(
    request: &Request,
    cached_only: bool,
    session: &CliSession,
    metrics: &ServerMetrics,
) -> Option<(Reply, Action)> {
    let action = match request {
        Request::Quit => Action::Close,
        Request::Shutdown => Action::Shutdown,
        _ => Action::Continue,
    };
    let reply = match request {
        Request::Batch(_, phis, _) if cached_only && phis.len() > INLINE_PHIS => return None,
        Request::Ping => session.run(request),
        request if cached_only => session.run_cached(request)?,
        Request::SlowLog => Ok(metrics.slowlog_dump()),
        request => session.run(request),
    };
    Some((reply, action))
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

    /// A server over `session` whose reactor and workers run `dispatch`, with
    /// `workers` workers and a queue of `queue_depth`.
    fn spawn_with(
        session: &Arc<CliSession>,
        dispatch: Dispatch,
        workers: usize,
        queue_depth: usize,
    ) -> (ServerHandle, std::thread::JoinHandle<ServerSummary>) {
        let config = ServerConfig {
            workers,
            queue_depth,
            ..ServerConfig::default()
        };
        let mut server = Server::bind("127.0.0.1:0", Arc::clone(session), config).unwrap();
        server.dispatch = dispatch;
        let handle = server.handle().unwrap();
        (handle, std::thread::spawn(move || server.run().unwrap()))
    }

    /// A client of `handle`'s server whose reads give up after 10 s.
    fn client(handle: &ServerHandle) -> crate::Client {
        let client = crate::Client::connect(handle.addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        client
    }

    /// `open s` + `register likes s`, then one cold `quantile likes 0.5`.
    fn cache_one_answer(client: &mut crate::Client) -> String {
        client.send("open s social rows=60 seed=3").unwrap();
        client.send("register likes s").unwrap();
        client.send("quantile likes 0.5").unwrap().remove(0)
    }

    /// The `err` reply `command` gets: its class and message.
    fn remote(client: &mut crate::Client, command: &str) -> (ErrorClass, String) {
        match client.send(command) {
            Err(crate::ClientError::Remote { class, message }) => (class, message),
            other => panic!("{command:?}: expected an `err` reply, got {other:?}"),
        }
    }

    /// A dispatch that panics on `explain boom …` on a worker and on a
    /// `quantile` the reactor serves from the cache, and serves every other
    /// request as usual.
    fn panicking(
        request: &Request,
        cached_only: bool,
        session: &CliSession,
        metrics: &ServerMetrics,
    ) -> Option<(Reply, Action)> {
        match request {
            Request::Explain(plan, _) if plan == "boom" && !cached_only => {
                panic!("boom went the request")
            }
            Request::Quantile(..) if cached_only => {
                let served = dispatch(request, cached_only, session, metrics);
                assert!(served.is_none(), "boom went the cached request");
                served
            }
            _ => dispatch(request, cached_only, session, metrics),
        }
    }

    /// A request whose dispatch panics is answered `err internal: …` on its
    /// connection, which stays open, whichever thread ran it; the one worker and
    /// the reactor live on, the panics are counted and their request spans
    /// marked. Without the worker's `catch_unwind` the client reads a closed
    /// connection; without the reactor's, the server dies.
    #[test]
    fn a_panicking_request_gets_a_reply() {
        let session = Arc::new(CliSession::new());
        let (handle, join) = spawn_with(&session, panicking, 1, 64);
        let mut client = client(&handle);
        let internal = ErrorClass::Internal;
        let boom = (internal, "boom went the request".to_string());
        assert_eq!(remote(&mut client, "explain boom 0.5"), boom);
        // The pool's one worker still serves: it answers the cold quantile.
        cache_one_answer(&mut client);
        let cached = (internal, "boom went the cached request".to_string());
        assert_eq!(remote(&mut client, "quantile likes 0.5"), cached);
        client.ping().unwrap();
        let mut second = crate::Client::connect(handle.addr()).unwrap();
        second.ping().unwrap();
        let metrics = client.send("metrics").unwrap().join("\n");
        assert!(metrics.contains("qjoin_panics_total 2"), "{metrics}");
        let traces = session.engine().recorder().last(16);
        let spans = traces.iter().flat_map(|trace| trace.spans_named("request"));
        let marked: Vec<_> = spans.filter(|span| span.arg("panic").is_some()).collect();
        assert_eq!(marked.len(), 2, "both request spans are marked");
        for (span, cmd) in marked
            .iter()
            .rev()
            .zip(["explain boom 0.5", "quantile likes 0.5"])
        {
            assert_eq!(span.arg("panic"), Some(&ArgValue::Bool(true)));
            assert_eq!(span.arg("cmd"), Some(&ArgValue::Str(cmd.into())));
        }
        client.send("shutdown").unwrap();
        join.join().unwrap();
    }

    /// Whether [`holding`] holds `explain gate …` requests, and how many it holds.
    static GATE: (std::sync::Mutex<bool>, std::sync::Condvar) =
        (std::sync::Mutex::new(true), std::sync::Condvar::new());
    static HELD: AtomicU64 = AtomicU64::new(0);

    /// A dispatch that holds `explain gate …` on a worker until [`GATE`] opens.
    fn holding(
        request: &Request,
        cached_only: bool,
        session: &CliSession,
        metrics: &ServerMetrics,
    ) -> Option<(Reply, Action)> {
        if !cached_only && matches!(request, Request::Explain(plan, _) if plan == "gate") {
            HELD.fetch_add(1, Ordering::SeqCst);
            let closed = GATE.0.lock().unwrap();
            drop(GATE.1.wait_while(closed, |closed| *closed).unwrap());
        }
        dispatch(request, cached_only, session, metrics)
    }

    /// One worker held on a gate and a queue of one: a miss is shed with
    /// `err busy`, a cached φ is still answered, replies the kernel cannot take
    /// at once arrive whole, and once the queue drains the next miss is served.
    /// Mutations: with a blocking submit the reactor waits on the closed gate,
    /// and the shed request's read times out; with a connection dropped once
    /// its reply is left pending, the pipelined client reads a cut-off reply;
    /// without the `INLINE_PHIS` bound the long batch is answered.
    #[test]
    fn a_full_queue_sheds_misses_and_still_serves_hits() {
        let session = Arc::new(CliSession::new());
        let (handle, join) = spawn_with(&session, holding, 1, 1);
        let mut client = client(&handle);
        cache_one_answer(&mut client);
        let registry = Arc::clone(session.engine().registry());
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() {
                assert!(Instant::now() < deadline, "never {what}");
                std::thread::yield_now();
            }
        };
        let gated: Vec<TcpStream> = (0..2)
            .map(|_| TcpStream::connect(handle.addr()).unwrap())
            .collect();
        (&gated[0]).write_all(b"explain gate 0.5\n").unwrap();
        wait_for("held the worker", &|| HELD.load(Ordering::SeqCst) == 1);
        (&gated[1]).write_all(b"explain gate 0.5\n").unwrap();
        let depth = || registry.snapshot().gauge("qjoin_queue_depth", &[]);
        wait_for("filled the queue", &|| depth() == Some(1.0));

        let busy = (
            ErrorClass::Busy,
            "the worker queue is full (1 waiting)".into(),
        );
        assert_eq!(remote(&mut client, "quantile likes 0.25"), busy);
        let hit = client.send("quantile likes 0.5").unwrap().remove(0);
        assert!(hit.ends_with(" (cached)"), "{hit}");
        // A cached batch longer than the reactor serves itself is a worker's.
        let long = format!("batch likes{}", " 0.5".repeat(INLINE_PHIS + 1));
        assert_eq!(remote(&mut client, &long).0, ErrorClass::Busy);

        // Cached batches sent by a client that reads nothing until the server
        // stops serving it: the kernel's buffers fill, the last reply waits on
        // the parked connection, and every reply still arrives whole, in order.
        let batches = 20_000;
        let piped = TcpStream::connect(handle.addr()).unwrap();
        let writer = {
            let (mut stream, phis) = (piped.try_clone().unwrap(), " 0.5".repeat(INLINE_PHIS));
            std::thread::spawn(move || {
                for _ in 0..batches {
                    stream.write_all(format!("batch likes{phis}\n").as_bytes())?;
                }
                io::Result::Ok(())
            })
        };
        let hits = || session.engine().cache_stats().hits;
        let mut seen = 0;
        while std::mem::replace(&mut seen, hits()) != seen || seen < 1_000 {
            std::thread::sleep(Duration::from_millis(100));
        }
        assert!(
            seen < (batches * INLINE_PHIS) as u64,
            "every reply fit the buffers"
        );
        let mut lines = BufReader::new(piped).lines().map(Result::unwrap);
        for _ in 0..batches {
            assert_eq!(lines.next().unwrap(), format!("ok {}", INLINE_PHIS + 1));
            let mut reply = lines.by_ref().take(INLINE_PHIS + 1);
            assert!(reply
                .by_ref()
                .take(INLINE_PHIS)
                .all(|l| l.ends_with(" (cached)")));
            let summary = reply.next().unwrap();
            assert!(summary.ends_with(" from cache"), "{summary}");
        }
        writer.join().unwrap().unwrap();

        *GATE.0.lock().unwrap() = false;
        GATE.1.notify_all();
        for stream in gated {
            let reply = BufReader::new(stream).lines().next().unwrap().unwrap();
            assert!(reply.starts_with("err unknown: "), "{reply}");
        }
        let served = client.send("quantile likes 0.25").unwrap().remove(0);
        assert!(served.starts_with("phi=0.2500: ") && !served.ends_with("(cached)"));
        let metrics = client.send("metrics").unwrap().join("\n");
        assert!(metrics.contains("\nqjoin_shed_total 2\n"), "{metrics}");
        assert!(
            metrics.contains("\nqjoin_errors_total{class=\"busy\"} 2\n"),
            "{metrics}"
        );
        client.send("shutdown").unwrap();
        join.join().unwrap();
    }

    /// Whether [`declining`] sends every cached request on to a worker.
    static DECLINE: AtomicBool = AtomicBool::new(false);

    /// A dispatch that, while [`DECLINE`] is set, answers nothing on the
    /// reactor, as when an invalidation races the reactor's peek.
    fn declining(
        request: &Request,
        cached_only: bool,
        session: &CliSession,
        metrics: &ServerMetrics,
    ) -> Option<(Reply, Action)> {
        if cached_only && DECLINE.load(Ordering::SeqCst) {
            return None;
        }
        dispatch(request, cached_only, session, metrics)
    }

    /// A cached φ served on the reactor gets the very bytes a worker sends
    /// when the reactor passes it on; both are counted hits. Mutation: format
    /// the inline reply on its own (say, without ` (cached)`).
    #[test]
    fn a_hit_gets_the_same_bytes_on_the_reactor_and_on_a_worker() {
        let session = Arc::new(CliSession::new());
        let (handle, join) = spawn_with(&session, declining, 1, 64);
        cache_one_answer(&mut client(&handle));
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut ask = |decline: bool| {
            DECLINE.store(decline, Ordering::SeqCst);
            stream.write_all(b"quantile likes 0.5\n").unwrap();
            let mut bytes = String::new();
            for _ in 0..2 {
                reader.read_line(&mut bytes).unwrap();
            }
            bytes
        };
        let (inline, pooled) = (ask(false), ask(true));
        assert!(inline.starts_with("ok 1\nphi=0.5000: ") && inline.ends_with(" (cached)\n"));
        assert_eq!(inline, pooled);
        assert_eq!(session.engine().cache_stats().hits, 2);
        handle.shutdown();
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
        let mut reactor = server.into_reactor();
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
        let handle = reactor.shared.handle.clone();
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
