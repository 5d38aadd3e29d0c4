//! The traced run: per-layer metrics of one workload.
//!
//! A fixed slice of the workload's requests is replayed as direct calls into
//! each layer, with a span (name, start, end, parent, request id) recorded
//! around every call from the benchmark's own code; solve phases arrive through
//! the public `SolveTracer` hook and carry their `PhaseContext` counts. Request
//! counts are fixed (scaled only by `--seconds`), so the counts a run reports
//! repeat exactly at one seed. Spans stay in memory and are written at exit to
//! `perfbench/target/perf/<workload>.trace.json`.
//!
//! Answers are cross-checked between the layers: a wire reply must equal the
//! direct engine call, which must equal the direct solve on the plan's own
//! encoded instance.

use crate::check::{self, ask, Tally};
use crate::e2e::{Inputs, Observed};
use crate::host;
use crate::serve::{self, Served};
use crate::spans::{self, PhaseEvent, PhaseLog, Recorder};
use crate::stats::{median, summarize};
use crate::workloads::{phi, Spec, BATCH, SAMPLE_SEED};
use qjoin_core::encoded::{
    approximate_sum_quantile_batch_encoded_traced, exact_quantile_batch_encoded_traced,
};
use qjoin_core::{NoopTracer, PivotingOptions, QuantileResult, SolvePhase, SolveTracer};
use qjoin_data::EncodedDatabase;
use qjoin_engine::{Accuracy, Engine};
use qjoin_exec::encoded::{count_answers_ctx, map_answer_code_chunks};
use qjoin_exec::{EncodedContext, EncodedDirectAccess};
use qjoin_par::Pool;
use qjoin_query::EncodedInstance;
use qjoin_ranking::Ranking;
use qjoin_server::Client;
use qjoin_telemetry::SampleValue;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `--seconds` at which the slice sizes below apply; other values scale them.
const NOMINAL_SECONDS: f64 = 10.0;
/// Single-fraction solves replayed through every layer.
const SOLVES: usize = 6;
/// Cache-hit requests per warm slice (direct engine calls, and per wire slice).
const WARM_REQUESTS: usize = 10_000;
/// Replacement cycles of the read-stall probe.
const REPLACE_CYCLES: usize = 5;
/// Pause before each replacement of the read-stall probe.
const REPLACE_PAUSE: Duration = Duration::from_millis(40);
/// Cache-hit sends recorded as spans per traced wire slice (the rest are only timed).
const TRACED_HITS: usize = 50;
/// Uniform draws from the direct-access structure.
const SAMPLE_DRAWS: usize = 2_000;
/// Leaf enumeration runs on the full instance up to this many answers, and on
/// the oracle-sized instance beyond.
const ENUMERATE_MAX_ANSWERS: u128 = 2_000_000;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A solve on the plan's encoded instance, at the workload's cold accuracy.
fn solve(
    instance: &EncodedInstance,
    ranking: &Ranking,
    phis: &[f64],
    accuracy: Accuracy,
    tracer: &dyn SolveTracer,
) -> Vec<QuantileResult> {
    let options = PivotingOptions::default();
    match accuracy {
        Accuracy::Approximate { epsilon } => approximate_sum_quantile_batch_encoded_traced(
            instance, ranking, phis, epsilon, &options, tracer,
        ),
        _ => exact_quantile_batch_encoded_traced(instance, ranking, phis, &options, tracer),
    }
    .expect("the encoded path solves every workload")
}

fn same_answer(a: &QuantileResult, b: &QuantileResult) -> bool {
    a.weight == b.weight && a.target_index == b.target_index && a.total_answers == b.total_answers
}

/// Sum of one phase's durations, in milliseconds.
fn phase_ms(events: &[PhaseEvent], phase: SolvePhase) -> f64 {
    events
        .iter()
        .filter(|e| e.phase == phase)
        .map(|e| ms(e.elapsed))
        .sum::<f64>()
        + 0.0 // an empty sum is -0.0
}

/// Candidates leaving a round over candidates entering it, for each round of a
/// single-fraction solve: the next round's input, or the leaf's size.
fn round_shrinks(events: &[PhaseEvent]) -> Vec<f64> {
    let entering: Vec<f64> = events
        .iter()
        .filter(|e| e.phase == SolvePhase::TrimRound)
        .filter_map(|e| e.ctx.candidates)
        .map(|c| c as f64)
        .collect();
    let leaf = events
        .iter()
        .filter(|e| e.phase == SolvePhase::Materialize)
        .filter_map(|e| e.ctx.materialized)
        .map(|c| c as f64)
        .next();
    let leaving = entering.iter().skip(1).copied().chain(leaf);
    entering
        .iter()
        .zip(leaving)
        .filter(|(&before, after)| before > 0.0 && *after > 0.0)
        .map(|(&before, after)| after / before)
        .collect()
}

fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Mean per-request nanoseconds a public `qjoin_*_seconds` histogram gained
/// between two snapshots (bucket arrays cannot be subtracted through the public
/// API, sums and counts can), in microseconds.
struct HistogramMark {
    sum: u64,
    count: u64,
}

impl HistogramMark {
    fn take(engine: &Engine, name: &str) -> HistogramMark {
        let snapshot = engine.registry().histogram(name, &[]).snapshot();
        HistogramMark {
            sum: snapshot.sum(),
            count: snapshot.count(),
        }
    }

    fn mean_us_since(&self, earlier: &HistogramMark) -> f64 {
        let count = self.count - earlier.count;
        (self.sum - earlier.sum) as f64 / count.max(1) as f64 / 1e3
    }
}

const LIFECYCLE: [&str; 3] = [
    "qjoin_queue_wait_seconds",
    "qjoin_execute_seconds",
    "qjoin_write_seconds",
];

/// One slice of cache-hit requests over the wire; returns the latencies in
/// seconds. With a recorder, the first `TRACED_HITS` sends become spans.
fn warm_slice(
    client: &mut Client,
    lines: &[String],
    requests: usize,
    recorder: Option<&Recorder>,
    tally: &mut Tally,
) -> Vec<f64> {
    (0..requests)
        .map(|i| {
            let line = &lines[i % lines.len()];
            match recorder {
                Some(recorder) if i < TRACED_HITS => {
                    let request = (1_000_000 + i) as u64;
                    recorder
                        .span("client.send", None, request, |_| {
                            check::hit(client, line, None, tally)
                        })
                        .0
                }
                _ => check::hit(client, line, None, tally),
            }
        })
        .collect()
}

/// Runs the traced replay of one workload.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Observed {
    let calibration_before = host::calibration_ms();
    let scale = seconds / NOMINAL_SECONDS;
    let scaled = |n: usize, floor: usize| ((n as f64 * scale).round() as usize).max(floor);
    let solves = scaled(SOLVES, 2);
    let warm_requests = scaled(WARM_REQUESTS, 200);
    let cycles = scaled(REPLACE_CYCLES, 3);

    let recorder = Recorder::new();
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut notes = Vec::new();
    let mut tally = check::oracle_check(spec, seed);
    let mut next_phi = 0usize;
    let mut take_phis = |n: usize| -> Vec<f64> {
        let phis = (next_phi..next_phi + n).map(phi).collect();
        next_phi += n;
        phis
    };

    let (inputs, _) = recorder.span("workload.generate", None, 0, |_| {
        // The traced run always carries the side database of the read-stall probe.
        let mut with_side = spec.clone();
        with_side.churn = true;
        Inputs::generate(&with_side, seed)
    });
    let main = &inputs.variants[0];
    let (plan_name, ranking) = main.plans[0].clone();
    let tuples = main.database.total_tuples();
    metrics.push(("workload.generate_s", inputs.generate.as_secs_f64()));
    metrics.push(("workload.db_tuples", tuples as f64));

    // ---- data, query, exec: direct calls, one solve thread -------------------
    let solo = Pool::new(1);
    qjoin_par::with_pool(&solo, || {
        let (encoded, encode) = recorder.span("data.encode", None, 0, |_| {
            EncodedDatabase::encode(&main.database).expect("generated values encode")
        });
        let (instance, instantiate) = recorder.span("query.instance", None, 0, |_| {
            EncodedInstance::from_encoded_database(main.query.clone(), &encoded)
                .expect("the query matches its database")
        });
        let (context, build) = recorder.span("exec.context_build", None, 0, |_| {
            EncodedContext::build(&instance).expect("acyclic query")
        });
        let (answers, count) =
            recorder.span("exec.count", None, 0, |_| count_answers_ctx(&context));
        // The leaf's enumeration, on an instance small enough to walk.
        let small;
        let walked = if answers <= ENUMERATE_MAX_ANSWERS {
            &context
        } else {
            let reduced = check::oracle_instance(spec, seed);
            small = EncodedContext::build(
                &EncodedInstance::from_instance(&reduced).expect("generated values encode"),
            )
            .expect("acyclic query");
            &small
        };
        let walked_answers = count_answers_ctx(walked);
        let (checksum, enumerate) = recorder.span("exec.enumerate", None, 0, |_| {
            map_answer_code_chunks(
                walked,
                qjoin_par::DEFAULT_CHUNK,
                || 0u64,
                |sum, codes| *sum = sum.wrapping_add(codes[0]),
            )
        });
        black_box(checksum);
        let (access, access_build) = recorder.span("exec.direct_access_build", None, 0, |_| {
            EncodedDirectAccess::new(&instance).expect("acyclic query")
        });
        let mut rng = StdRng::seed_from_u64(SAMPLE_SEED);
        let ((), sampling) = recorder.span("exec.sample", None, 0, |_| {
            for _ in 0..SAMPLE_DRAWS {
                black_box(access.sample(&mut rng).expect("non-empty join"));
            }
        });
        metrics.push(("workload.answers", answers as f64));
        metrics.push(("data.encode_ms", ms(encode)));
        metrics.push((
            "data.encode_ns_per_tuple",
            encode.as_nanos() as f64 / tuples as f64,
        ));
        metrics.push(("data.dictionary_len", encoded.dictionary().len() as f64));
        metrics.push(("query.instance_ms", ms(instantiate)));
        metrics.push(("exec.context_build_ms", ms(build)));
        metrics.push(("exec.count_ms", ms(count)));
        metrics.push(("exec.enumerate_ms", ms(enumerate)));
        metrics.push((
            "exec.enumerate_ns_per_answer",
            enumerate.as_nanos() as f64 / walked_answers.max(1) as f64,
        ));
        metrics.push(("exec.direct_access_build_ms", ms(access_build)));
        metrics.push((
            "exec.sample_us",
            sampling.as_secs_f64() * 1e6 / SAMPLE_DRAWS as f64,
        ));
        notes.push(format!("exec.enumerate walked {walked_answers} answers"));
    });

    // ---- engine: set-up calls ---------------------------------------------------
    let engine = Arc::new(Engine::with_config(serve::engine_config(
        serve::default_recorder_capacity(),
    )));
    let ((), create) = recorder.span("engine.create_database", None, 0, |_| {
        engine
            .create_database("main", Arc::clone(&main.database))
            .expect("fresh database name")
    });
    let ((), register) = recorder.span("engine.register", None, 0, |_| {
        for (plan, ranking) in &main.plans {
            engine
                .register(plan, "main", main.query.clone(), ranking.clone())
                .expect("generated plans compile");
        }
    });
    let side = inputs
        .side
        .as_ref()
        .expect("generated with the side database");
    engine
        .create_database("side", Arc::clone(&side.database))
        .and_then(|()| {
            let (plan, ranking) = side.plans[0].clone();
            engine.register(plan, "side", side.query.clone(), ranking)
        })
        .expect("the side plan compiles");
    metrics.push(("engine.create_database_ms", ms(create)));
    metrics.push(("engine.register_ms", ms(register)));

    let mut first_solves = Vec::new();
    let mut first_solve = |phi: f64, request: u64| {
        let (answer, elapsed) = recorder.span("engine.first_solve", None, request, |_| {
            engine
                .quantile_with(plan_name, phi, spec.cold)
                .expect("cold request")
        });
        first_solves.push(ms(elapsed));
        answer
    };
    first_solve(take_phis(1)[0], 1);

    // ---- core: the same fractions through the solve, the engine, the wire --------
    let plan = engine.plan(plan_name).expect("registered plan");
    let encoded = plan
        .encoded_instance
        .clone()
        .expect("every workload runs on the encoded layer");
    let singles = take_phis(solves);
    let wide = Pool::new(host::nproc());
    let mut events_by_solve: Vec<Vec<PhaseEvent>> = Vec::new();
    // Per fraction, the same solve three ways, back to back on one thread:
    // traced, untraced, and as a cold request to the engine. The thread-scaling
    // solves follow on their own, so a second busy core disturbs none of these.
    let (mut traced_ms, mut untraced_ms, mut engine_cold_ms) = (Vec::new(), Vec::new(), Vec::new());
    let timed = |pool: &Pool, phi: f64, tracer: &dyn SolveTracer| {
        qjoin_par::with_pool(pool, || {
            let started = Instant::now();
            black_box(solve(&encoded, &ranking, &[phi], spec.cold, tracer));
            ms(started.elapsed())
        })
    };
    for (i, &phi) in singles.iter().enumerate() {
        let request = 101 + i as u64;
        let (result, elapsed) = qjoin_par::with_pool(&solo, || {
            recorder.span("core.solve", None, request, |id| {
                let log = PhaseLog::new(Some((&recorder, id, request)));
                let result = solve(&encoded, &ranking, &[phi], spec.cold, &log).remove(0);
                events_by_solve.push(log.events());
                result
            })
        });
        traced_ms.push(ms(elapsed));
        untraced_ms.push(timed(&solo, phi, &NoopTracer));
        let (answer, elapsed) = recorder.span("engine.quantile_with", None, request, |_| {
            engine
                .quantile_with(plan_name, phi, spec.cold)
                .expect("cold request")
        });
        engine_cold_ms.push(ms(elapsed));
        tally.note(!answer.from_cache && same_answer(&answer.result, &result));
    }
    let (mut wide_ms, mut parallel_ms) = (Vec::new(), 0.0);
    for &phi in &singles {
        let log = PhaseLog::new(None);
        wide_ms.push(timed(&wide, phi, &log));
        parallel_ms += ms(log.parallel());
    }
    let mean = |values: &[f64]| values.iter().sum::<f64>() / values.len() as f64;
    let all_events: Vec<PhaseEvent> = events_by_solve.concat();
    let per_solve = |total: f64| total / solves as f64;
    let core_solve_ms = mean(&traced_ms);
    let phases_ms: f64 = SolvePhase::ALL
        .iter()
        .map(|&p| phase_ms(&all_events, p))
        .sum();
    let count_of = |f: &dyn Fn(&PhaseEvent) -> Option<u64>| -> f64 {
        per_solve(all_events.iter().filter_map(f).sum::<u64>() as f64)
    };
    metrics.push(("core.solve_ms", core_solve_ms));
    metrics.push((
        "core.prepare_ms",
        per_solve(phase_ms(&all_events, SolvePhase::Prepare)),
    ));
    metrics.push((
        "core.pivot_scan_ms",
        per_solve(phase_ms(&all_events, SolvePhase::PivotScan)),
    ));
    metrics.push((
        "core.trim_round_ms",
        per_solve(phase_ms(&all_events, SolvePhase::TrimRound)),
    ));
    metrics.push((
        "core.materialize_ms",
        per_solve(phase_ms(&all_events, SolvePhase::Materialize)),
    ));
    metrics.push((
        "core.rounds",
        count_of(&|e| (e.phase == SolvePhase::TrimRound).then_some(1)),
    ));
    metrics.push((
        "core.candidates_scanned",
        count_of(&|e| (e.phase == SolvePhase::PivotScan).then_some(e.ctx.candidates?)),
    ));
    metrics.push(("core.materialized", count_of(&|e| e.ctx.materialized)));
    let shrinks: Vec<f64> = events_by_solve
        .iter()
        .flat_map(|e| round_shrinks(e))
        .collect();
    metrics.push(("core.round_shrink", geometric_mean(&shrinks)));
    metrics.push((
        "core.unattributed_share",
        (core_solve_ms * solves as f64 - phases_ms) / (core_solve_ms * solves as f64),
    ));
    metrics.push((
        "bench.tracer_overhead_pct",
        (core_solve_ms / mean(&untraced_ms) - 1.0) * 100.0,
    ));
    // Thread scaling is host-dependent: it has no end-to-end metric here.
    let pool_stats = wide.stats();
    metrics.push(("par.speedup", mean(&untraced_ms) / mean(&wide_ms)));
    metrics.push(("par.tasks", pool_stats.tasks as f64));
    metrics.push(("par.steals", pool_stats.steals as f64));
    metrics.push((
        "par.parallel_share",
        parallel_ms / wide_ms.iter().sum::<f64>(),
    ));
    metrics.push(("engine.cold_ms", mean(&engine_cold_ms)));
    metrics.push((
        "engine.overhead_ms",
        mean(&engine_cold_ms) - mean(&untraced_ms),
    ));

    // One 8-fraction batch against eight single solves, then through the engine.
    let batch_phis = take_phis(BATCH);
    let request = 100;
    let (batch_results, batch_elapsed) = qjoin_par::with_pool(&solo, || {
        recorder.span("core.batch", None, request, |id| {
            let log = PhaseLog::new(Some((&recorder, id, request)));
            solve(&encoded, &ranking, &batch_phis, spec.cold, &log)
        })
    });
    metrics.push((
        "core.batch_cost_ratio",
        ms(batch_elapsed) / (BATCH as f64 * core_solve_ms),
    ));
    let (batch_answers, _) = recorder.span("engine.quantile_batch_with", None, request, |_| {
        engine
            .quantile_batch_with(plan_name, &batch_phis, spec.cold)
            .expect("cold batch")
    });
    for (answer, expected) in batch_answers.iter().zip(&batch_results) {
        tally.note(same_answer(&answer.result, expected));
    }
    let (engine_warm, _) = recorder.span("engine.warm_loop", None, 0, |_| {
        (0..warm_requests)
            .map(|i| {
                let started = Instant::now();
                let answer = engine.quantile_with(plan_name, singles[i % solves], spec.cold);
                let elapsed = started.elapsed().as_secs_f64();
                assert!(
                    answer.is_ok_and(|a| a.from_cache),
                    "a repeated fraction is a hit"
                );
                elapsed
            })
            .collect::<Vec<f64>>()
    });
    let engine_warm_us = median(&engine_warm) * 1e6;
    metrics.push(("engine.warm_us", engine_warm_us));

    // ---- server: the wire, with and without the flight recorder ------------------
    let served = Served::start(Arc::clone(&engine));
    let mut client = served.connect();
    let warm_lines: Vec<String> = singles
        .iter()
        .map(|&phi| check::command(plan_name, &[phi], spec.cold, false))
        .collect();
    // A second engine with span tracing off, for the recorder's cost.
    let untraced_served = Served::start(serve::build_engine(std::slice::from_ref(main), 0));
    let mut untraced_client = untraced_served.connect();
    for line in &warm_lines {
        untraced_client
            .send(line)
            .expect("prime the untraced engine");
    }
    let wire_cold = take_phis(solves);
    let mut wire_cold_ms = Vec::new();
    let mut wire_replies = Vec::new();
    for (i, &phi) in wire_cold.iter().enumerate() {
        let ((elapsed, logged), _) = recorder.span("client.send", None, 201 + i as u64, |_| {
            ask(&mut client, plan_name, 0, &[phi], spec.cold, false)
        });
        wire_cold_ms.push(ms(elapsed));
        wire_replies.push(logged.replies[0].clone());
    }
    let expected = qjoin_par::with_pool(&solo, || {
        solve(&encoded, &ranking, &wire_cold, spec.cold, &NoopTracer)
    });
    for (reply, expected) in wire_replies.iter().zip(&expected) {
        tally.note(reply.as_ref().is_some_and(|reply| reply.matches(expected)));
    }
    let mut traced_wire = Vec::new();
    let mut untraced_wire = Vec::new();
    let mut lifecycle_us = [0.0f64; 3];
    for _ in 0..2 {
        let before = LIFECYCLE.map(|name| HistogramMark::take(&engine, name));
        traced_wire.extend(warm_slice(
            &mut client,
            &warm_lines,
            warm_requests / 2,
            Some(&recorder),
            &mut tally,
        ));
        let after = LIFECYCLE.map(|name| HistogramMark::take(&engine, name));
        for (slot, (a, b)) in lifecycle_us.iter_mut().zip(after.iter().zip(&before)) {
            *slot += a.mean_us_since(b) / 2.0;
        }
        untraced_wire.extend(warm_slice(
            &mut untraced_client,
            &warm_lines,
            warm_requests / 2,
            None,
            &mut tally,
        ));
    }
    drop(untraced_client);
    untraced_served.stop();
    let wire = summarize(&traced_wire);
    let wire_p50_us = wire.p50 * 1e6;
    metrics.push(("server.wire_overhead_us", wire_p50_us - engine_warm_us));
    metrics.push(("server.queue_wait_mean_us", lifecycle_us[0]));
    metrics.push(("server.execute_mean_us", lifecycle_us[1]));
    metrics.push(("server.write_mean_us", lifecycle_us[2]));
    let (tail_p, tail) = wire.tail.unwrap_or((1.0, wire.max));
    metrics.push(("server.warm_tail_us", tail * 1e6));
    metrics.push((
        "telemetry.trace_overhead_pct",
        (wire.p50 / median(&untraced_wire) - 1.0) * 100.0,
    ));
    notes.push(format!(
        "wire: cold mean {:.3} ms over {} requests; cache hit p50 {:.1} us, p{} {:.1} us over {} requests",
        mean(&wire_cold_ms),
        wire_cold_ms.len(),
        wire_p50_us,
        tail_p * 100.0,
        tail * 1e6,
        wire.samples
    ));

    // ---- refresh beside reads: replacements while an unrelated plan is read ------
    let mut reader = served.connect();
    let side_lines: Vec<String> = take_phis(16)
        .iter()
        .map(|&phi| check::command("hot", &[phi], Accuracy::Exact, false))
        .collect();
    for line in &side_lines {
        reader.send(line).expect("prime the reader's fractions");
    }
    let writing = AtomicBool::new(true);
    let epoch = Instant::now();
    let mut replace_ms = Vec::new();
    let mut windows = Vec::new();
    let mut reader_tally = Tally::default();
    let reads: Vec<(f64, f64)> = std::thread::scope(|scope| {
        let reading = scope.spawn(|| {
            let mut reads = Vec::new();
            while writing.load(Ordering::SeqCst) {
                let started = epoch.elapsed().as_secs_f64();
                let line = &side_lines[reads.len() % side_lines.len()];
                let latency = check::hit(&mut reader, line, None, &mut reader_tally);
                reads.push((started, latency));
            }
            reads
        });
        for cycle in 0..cycles {
            std::thread::sleep(REPLACE_PAUSE);
            let variant = (cycle + 1) % 2;
            let request = 301 + cycle as u64;
            let opened = epoch.elapsed().as_secs_f64();
            let ((), elapsed) = recorder.span("engine.replace_database", None, request, |_| {
                engine
                    .replace_database("main", Arc::clone(&inputs.variants[variant].database))
                    .expect("the replacement has the same schema")
            });
            replace_ms.push(ms(elapsed));
            let phi = take_phis(1)[0];
            let answer = first_solve(phi, request);
            windows.push((opened, epoch.elapsed().as_secs_f64()));
            // The new generation's own encoded instance is the reference.
            let current = engine.plan(plan_name).expect("registered plan");
            let reference = current
                .encoded_instance
                .clone()
                .expect("encoded generation");
            let expected = qjoin_par::with_pool(&solo, || {
                solve(&reference, &ranking, &[phi], spec.cold, &NoopTracer).remove(0)
            });
            tally.note(same_answer(&answer.result, &expected));
        }
        writing.store(false, Ordering::SeqCst);
        reading.join().expect("reader thread")
    });
    tally.add(reader_tally);
    // Per replacement, the slowest reply among the reads that overlapped it.
    let stalls: Vec<f64> = windows
        .iter()
        .map(|&(opened, closed)| {
            reads
                .iter()
                .filter(|&&(started, latency)| started < closed && started + latency > opened)
                .map(|&(_, latency)| latency)
                .fold(0.0, f64::max)
        })
        .collect();
    metrics.push(("engine.replace_ms", median(&replace_ms)));
    metrics.push(("engine.first_solve_ms", median(&first_solves)));
    metrics.push(("engine.read_stall_p50_ms", median(&stalls) * 1e3));
    metrics.push((
        "server.reader_max_ms",
        reads.iter().map(|r| r.1).fold(0.0, f64::max) * 1e3,
    ));
    notes.push(format!(
        "read-stall probe: {} replacements, {} reads beside them",
        cycles,
        reads.len()
    ));

    // ---- counters the engine keeps ------------------------------------------------
    let stats = engine.stats();
    let snapshot = engine.metrics_snapshot();
    let counter_sum = |name: &str| -> f64 {
        snapshot
            .samples
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match s.value {
                SampleValue::Counter(n) => Some(n as f64),
                _ => None,
            })
            .sum()
    };
    let (on_encoded, on_rows) = (
        counter_sum("qjoin_solve_encoded_total"),
        counter_sum("qjoin_solve_row_total"),
    );
    let lookups = (stats.cache.hits + stats.cache.misses).max(1);
    metrics.push((
        "engine.cache_hit_share",
        stats.cache.hits as f64 / lookups as f64,
    ));
    metrics.push((
        "engine.encoded_share",
        on_encoded / (on_encoded + on_rows).max(1.0),
    ));
    metrics.push((
        "engine.coalesced_batches",
        stats.counters.coalesced_batches as f64,
    ));
    drop(client);
    served.stop();

    let calibration_after = host::calibration_ms();
    metrics.push((
        "bench.calibration_ms",
        (calibration_before + calibration_after) / 2.0,
    ));

    // ---- the trace itself -----------------------------------------------------------
    let trace = recorder.finish();
    for (name, (count, total_ns, self_ns)) in spans::totals_by_name(&trace) {
        notes.push(format!(
            "span {name}: n={count} total={:.3} ms self={:.3} ms",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        ));
    }
    match spans::write_chrome_trace(&trace, spec.name) {
        Ok(path) => notes.push(format!(
            "{} spans written to {}",
            trace.spans.len(),
            path.display()
        )),
        Err(error) => notes.push(format!("trace not written: {error}")),
    }
    notes.push(host::describe(calibration_before, calibration_after));
    // Report in the declared order.
    let ordered = crate::metrics::PER_LAYER
        .iter()
        .map(|&(name, ..)| {
            let value = metrics
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("{name} was not measured"))
                .1;
            (name, value)
        })
        .collect();
    Observed {
        metrics: ordered,
        tally,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_core::PhaseContext;

    fn event(phase: SolvePhase, ctx: PhaseContext) -> PhaseEvent {
        PhaseEvent {
            phase,
            elapsed: Duration::from_millis(2),
            ctx,
        }
    }

    #[test]
    fn round_shrink_follows_candidates_from_round_to_round_to_the_leaf() {
        let round = |candidates| {
            event(
                SolvePhase::TrimRound,
                PhaseContext {
                    candidates: Some(candidates),
                    ..PhaseContext::default()
                },
            )
        };
        let leaf = event(
            SolvePhase::Materialize,
            PhaseContext {
                materialized: Some(10),
                ..PhaseContext::default()
            },
        );
        let events = [round(1_000), round(400), leaf];
        assert_eq!(round_shrinks(&events), [0.4, 0.025]);
        assert!((geometric_mean(&[0.4, 0.025]) - 0.1).abs() < 1e-12);
        assert_eq!(round_shrinks(&[leaf]), Vec::<f64>::new());
        assert_eq!(geometric_mean(&[]), 1.0);
        assert_eq!(phase_ms(&events, SolvePhase::TrimRound), 4.0);
    }
}
