//! Server-side request telemetry: the lifecycle of every wire request split
//! into **queue-wait → execute → write**, plus a slow-query ring buffer.
//!
//! The thread that parses a request line stamps it; the thread that serves it
//! (the reactor for a cache hit, else a worker) measures how long it waited, how
//! long the engine took to execute it, and how long the response write took, and
//! records all three into histograms registered in the **engine's** shared
//! [`Registry`]. That makes the server series come out of the same `metrics` /
//! `stats json` scrape as the engine's solve spans — one registry, one surface:
//!
//! * `qjoin_requests_total` — non-empty commands whose reply reached the client
//!   (the live counterpart of [`crate::server::ServerSummary::requests`]);
//! * `qjoin_queue_wait_seconds` — parse-to-execution latency: the pool queue's
//!   wait, (near-)zero for the reactor's own answers and for pipelined lines;
//! * `qjoin_execute_seconds` — command dispatch through the engine session;
//! * `qjoin_write_seconds` — serializing the response back onto the socket.
//!
//! * `qjoin_queue_depth` — dispatched-but-unstarted jobs currently sitting in
//!   the worker pool queue (the live backlog; a full queue sheds), updated on
//!   every enqueue/pickup.
//! * `qjoin_connections_parked` — connections idle in the reactor's registry
//!   (a connection whose request a worker is executing is not parked);
//! * `qjoin_reactor_blocking_polls_total` — how often the reactor went to sleep
//!   in `poll(2)`. It sleeps without a timeout, so an idle server does not move it.
//! * `qjoin_panics_total` — requests whose dispatch panicked (each answered
//!   `err internal: …` on its still-open connection).
//! * `qjoin_shed_total` — requests answered `err busy` on a full worker queue
//!   (they ran nothing, and are not in `qjoin_requests_total`);
//! * `qjoin_errors_total{class}` — `err` replies by [`ErrorClass`].
//!
//! Requests whose queue-wait + execute time reaches the configured threshold
//! additionally land in a bounded ring buffer, dumped on demand by the
//! `slowlog` protocol verb — newest first, oldest evicted. When the request
//! recorded a span trace, the slow-log line carries `trace=<id>` so the trace
//! explaining the slow request is one `trace id <id>` away (`trace=-` when
//! tracing was off).

use crate::protocol::Response;
use qjoin_engine::{ErrorClass, RequestError};
use qjoin_telemetry::{Counter, Gauge, Histogram, Registry, TraceId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// How many slow requests the `slowlog` ring keeps; the newest win.
pub(crate) const SLOW_LOG_CAPACITY: usize = 128;

/// Per-request telemetry sinks shared by every worker (see the module docs).
pub struct ServerMetrics {
    requests: Arc<Counter>,
    queue_wait: Arc<Histogram>,
    execute: Arc<Histogram>,
    write: Arc<Histogram>,
    /// Dispatched-but-unstarted jobs in the worker pool queue, mirrored into
    /// the `qjoin_queue_depth` gauge on every change so a scrape sees the live
    /// backlog (a full queue sheds).
    queue_depth: AtomicU64,
    queue_depth_gauge: Arc<Gauge>,
    parked: Arc<Gauge>,
    blocking_polls: Arc<Counter>,
    panics: Arc<Counter>,
    shed: Arc<Counter>,
    errors: [Arc<Counter>; 6],
    slow: SlowLog,
}

impl ServerMetrics {
    /// Registers the server's request-lifecycle series in `registry` (the
    /// engine's, so one scrape covers both layers); the slow log keeps the
    /// newest `slow_capacity` (at least 1) slow requests.
    pub fn new(registry: &Registry, slow_threshold: Duration, slow_capacity: usize) -> Self {
        ServerMetrics {
            requests: registry.counter("qjoin_requests_total", &[]),
            queue_wait: registry.histogram("qjoin_queue_wait_seconds", &[]),
            execute: registry.histogram("qjoin_execute_seconds", &[]),
            write: registry.histogram("qjoin_write_seconds", &[]),
            queue_depth: AtomicU64::new(0),
            queue_depth_gauge: registry.gauge("qjoin_queue_depth", &[]),
            parked: registry.gauge("qjoin_connections_parked", &[]),
            blocking_polls: registry.counter("qjoin_reactor_blocking_polls_total", &[]),
            panics: registry.counter("qjoin_panics_total", &[]),
            shed: registry.counter("qjoin_shed_total", &[]),
            errors: ErrorClass::ALL
                .map(|(_, label)| registry.counter("qjoin_errors_total", &[("class", label)])),
            slow: SlowLog::new(slow_threshold, slow_capacity),
        }
    }

    /// A job entered the worker pool queue (the reactor dispatched it).
    pub fn queue_enter(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_gauge.set(depth as f64);
    }

    /// A worker picked the job up, ending its time in the queue.
    pub fn queue_exit(&self) {
        let depth = self
            .queue_depth
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        self.queue_depth_gauge.set(depth as f64);
    }

    /// The reactor's registry holds this many idle connections.
    pub fn set_parked(&self, connections: usize) {
        self.parked.set(connections as f64);
    }

    /// The reactor is about to block in `poll(2)`.
    pub fn blocking_poll(&self) {
        self.blocking_polls.inc();
    }

    /// A request's dispatch panicked.
    pub fn panicked(&self) {
        self.panics.inc();
    }

    /// Frames any reply the server sends, counting an `err` one by its class
    /// (a `busy` one is a shed request).
    pub fn frame(&self, reply: Result<String, RequestError>) -> Response {
        if let Err(error) = &reply {
            self.errors[error.class as usize].inc();
            if error.class == ErrorClass::Busy {
                self.shed.inc();
            }
        }
        Response::from(reply)
    }

    /// Records one served request: bumps the live counter, feeds the three
    /// lifecycle histograms, and captures a slow-log entry when queue-wait plus
    /// execute time reaches the threshold. `trace` is the request's span-trace
    /// id when one was recorded, so a slow-log line links straight to the trace
    /// that explains it.
    pub fn record(
        &self,
        command: &str,
        queue_wait: Duration,
        execute: Duration,
        write: Duration,
        trace: Option<TraceId>,
    ) {
        self.requests.inc();
        self.queue_wait.record_duration(queue_wait);
        self.execute.record_duration(execute);
        self.write.record_duration(write);
        self.slow
            .observe(command, queue_wait, execute, write, trace);
    }

    /// Renders the slow-query ring for the `slowlog` verb.
    pub fn slowlog_dump(&self) -> String {
        self.slow.dump()
    }
}

/// One captured slow request.
struct SlowEntry {
    seq: u64,
    command: String,
    queue_wait: Duration,
    execute: Duration,
    write: Duration,
    trace: Option<TraceId>,
}

/// A bounded, newest-first ring of requests that crossed the slow threshold.
struct SlowLog {
    threshold: Duration,
    capacity: usize,
    seq: AtomicU64,
    entries: Mutex<VecDeque<SlowEntry>>,
}

/// Longer commands are truncated in slow-log entries so one pathological line
/// cannot bloat the ring.
const MAX_SLOW_COMMAND_BYTES: usize = 128;

impl SlowLog {
    fn new(threshold: Duration, capacity: usize) -> Self {
        SlowLog {
            threshold,
            capacity,
            seq: AtomicU64::new(0),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    fn observe(
        &self,
        command: &str,
        queue_wait: Duration,
        execute: Duration,
        write: Duration,
        trace: Option<TraceId>,
    ) {
        if queue_wait + execute < self.threshold {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let cut = command.floor_char_boundary(MAX_SLOW_COMMAND_BYTES);
        let command = match cut < command.len() {
            true => format!("{}…", &command[..cut]),
            false => command.to_string(),
        };
        let entry = SlowEntry {
            seq,
            command,
            queue_wait,
            execute,
            write,
            trace,
        };
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if entries.len() == self.capacity {
            entries.pop_back(); // evict the oldest; newest stays at the front
        }
        entries.push_front(entry);
    }

    fn dump(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let total = self.seq.load(Ordering::Relaxed);
        let mut out = format!(
            "slowlog: {} entries shown, {total} recorded (threshold {:.3}s, capacity {})",
            entries.len(),
            self.threshold.as_secs_f64(),
            self.capacity
        );
        for entry in entries.iter() {
            out.push_str(&format!(
                "\n#{} queue={:.6}s execute={:.6}s write={:.6}s trace={} cmd={:?}",
                entry.seq,
                entry.queue_wait.as_secs_f64(),
                entry.execute.as_secs_f64(),
                entry.write.as_secs_f64(),
                entry
                    .trace
                    .map_or_else(|| "-".to_string(), |id| id.to_string()),
                entry.command
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_feeds_counter_histograms_and_slow_ring() {
        let registry = Registry::new();
        let metrics = ServerMetrics::new(&registry, Duration::from_millis(5), 2);
        let ms = Duration::from_millis;
        metrics.record("quantile likes 0.5", ms(0), ms(1), ms(0), None); // fast: not logged
        metrics.record("slow one", ms(3), ms(4), ms(1), None); // queue+execute = 7ms ≥ 5ms
        metrics.record("slow two", ms(0), ms(9), ms(0), Some(TraceId(0x2a)));
        metrics.record("slow three", ms(6), ms(0), ms(0), None); // evicts "slow one"

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("qjoin_requests_total", &[]), Some(4));
        let hist = |name: &str| snapshot.histogram(name, &[]).unwrap().count();
        assert_eq!(hist("qjoin_queue_wait_seconds"), 4);
        assert_eq!(hist("qjoin_execute_seconds"), 4);
        assert_eq!(hist("qjoin_write_seconds"), 4);

        let dump = metrics.slowlog_dump();
        assert!(
            dump.starts_with("slowlog: 2 entries shown, 3 recorded"),
            "{dump}"
        );
        // Newest first; the fast request and the evicted oldest are absent.
        let lines: Vec<&str> = dump.lines().collect();
        assert!(lines[1].contains("cmd=\"slow three\""), "{dump}");
        assert!(lines[1].contains("trace=- "), "{dump}");
        assert!(lines[2].contains("cmd=\"slow two\""), "{dump}");
        assert!(lines[2].contains("trace=2a "), "{dump}");
        assert!(!dump.contains("slow one"), "{dump}");
        assert!(!dump.contains("quantile"), "{dump}");
    }

    #[test]
    fn queue_depth_gauge_tracks_enqueue_and_pickup() {
        let registry = Registry::new();
        let metrics = ServerMetrics::new(&registry, Duration::from_secs(1), 4);
        metrics.queue_enter();
        metrics.queue_enter();
        assert_eq!(
            registry.snapshot().gauge("qjoin_queue_depth", &[]),
            Some(2.0)
        );
        metrics.queue_exit();
        assert_eq!(
            registry.snapshot().gauge("qjoin_queue_depth", &[]),
            Some(1.0)
        );
        metrics.queue_exit();
        assert_eq!(
            registry.snapshot().gauge("qjoin_queue_depth", &[]),
            Some(0.0)
        );
    }

    #[test]
    fn long_commands_truncate() {
        let registry = Registry::new();
        let logging = ServerMetrics::new(&registry, Duration::ZERO, 4);
        let long = "x".repeat(300);
        logging.record(&long, Duration::ZERO, Duration::ZERO, Duration::ZERO, None);
        let dump = logging.slowlog_dump();
        assert!(dump.contains('…'), "{dump}");
        assert!(!dump.contains(&long), "{dump}");
    }
}
