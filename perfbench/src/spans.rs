//! Benchmark-side spans: one in-memory trace per traced run, recorded around
//! the calls into each layer, written at exit as Chrome trace-event JSON.
//!
//! Spans are recorded from the benchmark's own code only (nothing inside the
//! program is instrumented here), on one thread, so the exporter's single
//! pid/tid lane nests them correctly by time containment.

use qjoin_core::{PhaseContext, SolvePhase, SolveTracer};
use qjoin_telemetry::{chrome_trace_json, ArgValue, SpanId, Trace, TraceBuilder, TraceId};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Accumulates the spans of one traced run.
pub struct Recorder {
    builder: TraceBuilder,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            builder: TraceBuilder::new(TraceId(1)),
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent children to.
    /// `request` groups the spans of one replayed request.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, Duration) {
        let id = self.builder.next_span_id();
        let started = Instant::now();
        let result = f(id);
        let elapsed = started.elapsed();
        self.builder.record(
            id,
            parent,
            name,
            started,
            elapsed,
            vec![("request", ArgValue::U64(request))],
        );
        (result, elapsed)
    }

    /// Records a span that already ended (a solve phase reports its duration
    /// only when it finishes).
    pub fn record_ended(
        &self,
        name: &'static str,
        parent: SpanId,
        elapsed: Duration,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let started = Instant::now()
            .checked_sub(elapsed)
            .unwrap_or_else(Instant::now);
        self.builder
            .record_new(Some(parent), name, started, elapsed, args);
    }

    /// Ends recording.
    pub fn finish(self) -> Trace {
        self.builder.finish()
    }
}

/// One phase event of a traced solve.
#[derive(Clone, Copy, Debug)]
pub struct PhaseEvent {
    pub phase: SolvePhase,
    pub elapsed: Duration,
    pub ctx: PhaseContext,
}

/// A `SolveTracer` that keeps every phase event and, when given a recorder,
/// turns each into a child span of the solve carrying the phase's counts.
pub struct PhaseLog<'a> {
    spans: Option<(&'a Recorder, SpanId, u64)>,
    events: Mutex<Vec<PhaseEvent>>,
    parallel: Mutex<Duration>,
}

impl<'a> PhaseLog<'a> {
    pub fn new(spans: Option<(&'a Recorder, SpanId, u64)>) -> Self {
        PhaseLog {
            spans,
            events: Mutex::new(Vec::new()),
            parallel: Mutex::new(Duration::ZERO),
        }
    }

    pub fn events(&self) -> Vec<PhaseEvent> {
        self.events.lock().expect("phase log lock").clone()
    }

    /// Executor time the solve's phases reported.
    pub fn parallel(&self) -> Duration {
        *self.parallel.lock().expect("phase log lock")
    }
}

impl SolveTracer for PhaseLog<'_> {
    fn phase_event(&self, phase: SolvePhase, elapsed: Duration, ctx: &PhaseContext) {
        self.events
            .lock()
            .expect("phase log lock")
            .push(PhaseEvent {
                phase,
                elapsed,
                ctx: *ctx,
            });
        if let Some((recorder, parent, request)) = self.spans {
            let mut args = vec![("request", ArgValue::U64(request))];
            let counts = [
                ("round", ctx.round),
                ("candidates", ctx.candidates),
                ("n_lt", ctx.n_lt),
                ("n_eq", ctx.n_eq),
                ("n_gt", ctx.n_gt),
                ("pivot_slots", ctx.pivot_slots),
                ("targets", ctx.targets),
                ("materialized", ctx.materialized),
            ];
            args.extend(
                counts
                    .into_iter()
                    .filter_map(|(key, value)| Some((key, ArgValue::U64(value?)))),
            );
            recorder.record_ended(phase.label(), parent, elapsed, args);
        }
    }

    fn parallel(&self, _phase: SolvePhase, elapsed: Duration) {
        *self.parallel.lock().expect("phase log lock") += elapsed;
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover (overlapping children are counted once, and a child is
/// clipped to its parent).
pub fn self_times(trace: &Trace) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for span in &trace.spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns()));
        }
    }
    trace
        .spans
        .iter()
        .map(|span| {
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            let mut intervals = children.remove(&span.id).unwrap_or_default();
            intervals.sort_unstable();
            for (start, end) in intervals {
                let start = start.max(cursor);
                let end = end.min(span.end_ns());
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.id, span.dur_ns - covered)
        })
        .collect()
}

/// Per span name: `(count, total ns, self ns)`.
pub fn totals_by_name(trace: &Trace) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let self_ns = self_times(trace);
    let mut totals: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for span in &trace.spans {
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.dur_ns;
        entry.2 += self_ns[&span.id];
    }
    totals
}

/// Writes the trace as Chrome trace-event JSON (loadable in Perfetto) to
/// `perfbench/target/perf/<workload>.trace.json` in the checkout the benchmark
/// was built from.
pub fn write_chrome_trace(trace: &Trace, workload: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/perf");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, chrome_trace_json(trace))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_telemetry::SpanRecord;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id: SpanId(id),
            parent: parent.map(SpanId),
            name: if parent.is_some() { "child" } else { "root" },
            start_ns,
            dur_ns,
            args: vec![("request", ArgValue::U64(7))],
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
        let trace = Trace {
            id: TraceId(1),
            spans: vec![
                span(1, None, 0, 100),
                span(2, Some(1), 10, 20), // covers 10..30
                span(3, Some(1), 20, 30), // covers 20..50, overlapping 20..30
                span(4, Some(1), 90, 40), // covers 90..130, clipped to 90..100
                span(5, Some(3), 25, 5),  // a grandchild only reduces span 3
            ],
        };
        let self_ns = self_times(&trace);
        assert_eq!(self_ns[&SpanId(1)], 100 - (20 + 20 + 10));
        assert_eq!(self_ns[&SpanId(2)], 20);
        assert_eq!(self_ns[&SpanId(3)], 25);
        assert_eq!(self_ns[&SpanId(5)], 5);
        let totals = totals_by_name(&trace);
        assert_eq!(totals["root"], (1, 100, 50));
        assert_eq!(totals["child"], (4, 95, 20 + 25 + 40 + 5));
    }

    #[test]
    fn recorded_spans_nest_and_carry_the_request_id() {
        let recorder = Recorder::new();
        let ((), outer) = recorder.span("outer", None, 3, |id| {
            recorder.span("inner", Some(id), 3, |_| ());
            recorder.record_ended("late", id, Duration::from_nanos(10), Vec::new());
        });
        let trace = recorder.finish();
        assert_eq!(trace.spans.len(), 3);
        let root = trace.root().expect("one root");
        assert_eq!((root.name, root.dur_ns), ("outer", outer.as_nanos() as u64));
        assert_eq!(root.arg("request"), Some(&ArgValue::U64(3)));
        assert!(trace
            .spans
            .iter()
            .filter(|s| s.name != "outer")
            .all(|s| s.parent == Some(root.id)));
    }

    /// A minimal JSON reader: enough to prove the exported trace parses and to
    /// walk its events.
    mod json {
        #[derive(Debug, PartialEq)]
        pub enum Value {
            Null,
            Bool(bool),
            Number(f64),
            Str(String),
            Array(Vec<Value>),
            Object(Vec<(String, Value)>),
        }

        pub fn parse(text: &str) -> Result<Value, String> {
            let bytes = text.as_bytes();
            let mut at = 0;
            let value = value(bytes, &mut at)?;
            skip(bytes, &mut at);
            if at == bytes.len() {
                Ok(value)
            } else {
                Err(format!("trailing bytes at {at}"))
            }
        }

        fn skip(b: &[u8], at: &mut usize) {
            while *at < b.len() && b[*at].is_ascii_whitespace() {
                *at += 1;
            }
        }

        fn expect(b: &[u8], at: &mut usize, token: &str) -> Result<(), String> {
            if b[*at..].starts_with(token.as_bytes()) {
                *at += token.len();
                Ok(())
            } else {
                Err(format!("expected {token:?} at {at}"))
            }
        }

        fn value(b: &[u8], at: &mut usize) -> Result<Value, String> {
            skip(b, at);
            match b.get(*at) {
                Some(b'n') => expect(b, at, "null").map(|()| Value::Null),
                Some(b't') => expect(b, at, "true").map(|()| Value::Bool(true)),
                Some(b'f') => expect(b, at, "false").map(|()| Value::Bool(false)),
                Some(b'"') => string(b, at).map(Value::Str),
                Some(b'[') => {
                    *at += 1;
                    let mut items = Vec::new();
                    loop {
                        skip(b, at);
                        if b.get(*at) == Some(&b']') {
                            *at += 1;
                            return Ok(Value::Array(items));
                        }
                        if !items.is_empty() {
                            expect(b, at, ",")?;
                        }
                        items.push(value(b, at)?);
                    }
                }
                Some(b'{') => {
                    *at += 1;
                    let mut fields = Vec::new();
                    loop {
                        skip(b, at);
                        if b.get(*at) == Some(&b'}') {
                            *at += 1;
                            return Ok(Value::Object(fields));
                        }
                        if !fields.is_empty() {
                            expect(b, at, ",")?;
                            skip(b, at);
                        }
                        let key = string(b, at)?;
                        skip(b, at);
                        expect(b, at, ":")?;
                        fields.push((key, value(b, at)?));
                    }
                }
                Some(_) => {
                    let start = *at;
                    while *at < b.len()
                        && matches!(b[*at], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                    {
                        *at += 1;
                    }
                    std::str::from_utf8(&b[start..*at])
                        .ok()
                        .and_then(|s| s.parse().ok())
                        .map(Value::Number)
                        .ok_or_else(|| format!("bad number at {start}"))
                }
                None => Err("unexpected end".to_string()),
            }
        }

        fn string(b: &[u8], at: &mut usize) -> Result<String, String> {
            expect(b, at, "\"")?;
            let start = *at;
            while *at < b.len() && b[*at] != b'"' {
                *at += if b[*at] == b'\\' { 2 } else { 1 };
            }
            let raw = std::str::from_utf8(&b[start..*at]).map_err(|e| e.to_string())?;
            expect(b, at, "\"")?;
            Ok(raw.to_string())
        }
    }

    #[test]
    fn the_exported_trace_is_well_formed_chrome_json() {
        let recorder = Recorder::new();
        recorder.span("engine.register", None, 0, |id| {
            let log = PhaseLog::new(Some((&recorder, id, 0)));
            log.phase_event(
                SolvePhase::TrimRound,
                Duration::from_micros(3),
                &PhaseContext {
                    round: Some(2),
                    candidates: Some(40),
                    ..PhaseContext::default()
                },
            );
            assert_eq!(log.events().len(), 1);
        });
        let text = chrome_trace_json(&recorder.finish());
        let json::Value::Array(events) = json::parse(&text).expect("valid JSON") else {
            panic!("a trace is an array of events");
        };
        assert_eq!(events.len(), 2);
        for event in &events {
            let json::Value::Object(fields) = event else {
                panic!("an event is an object");
            };
            let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            assert_eq!(field("ph"), Some(&json::Value::Str("X".to_string())));
            assert!(matches!(field("name"), Some(json::Value::Str(_))));
            assert!(matches!(field("ts"), Some(json::Value::Number(ts)) if *ts >= 0.0));
            assert!(matches!(field("dur"), Some(json::Value::Number(d)) if *d >= 0.0));
            assert!(matches!(field("pid"), Some(json::Value::Number(_))));
            assert!(matches!(field("tid"), Some(json::Value::Number(_))));
            assert!(matches!(field("args"), Some(json::Value::Object(_))));
        }
        assert!(text.contains("\"name\":\"trim-round\""));
        assert!(text.contains("\"candidates\":40"));
    }
}
