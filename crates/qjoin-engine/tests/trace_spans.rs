//! Property-style well-formedness tests for recorded solve traces.
//!
//! Over a randomized grid of workloads (rows × seed × φ, driven by a
//! deterministic xorshift so failures reproduce), every trace the flight
//! recorder captures must be a well-formed tree:
//!
//! * exactly one root span (the `request`), every other span's parent exists;
//! * children are nested inside their parent's `[start, end]` interval, so a
//!   child's duration never exceeds its parent's;
//! * the number of `trim-round` spans equals the solve's reported pivoting
//!   iteration count, and the `rounds` arg on the `solve` span agrees;
//! * round indices on `trim-round` spans are exactly `0..rounds`, each carrying
//!   its candidate count, three-way split sizes and the view rows it handed on.

use qjoin_engine::{Accuracy, Engine, EngineAnswer, EngineConfig};
use qjoin_query::query::social_network_query;
use qjoin_query::variable::vars;
use qjoin_ranking::Ranking;
use qjoin_telemetry::{ArgValue, Trace};
use qjoin_workload::social::SocialConfig;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Deterministic xorshift64* so the "random" workloads reproduce exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A φ strictly inside (0, 1) on a 1/1000 grid.
    fn phi(&mut self) -> f64 {
        (self.next() % 999 + 1) as f64 / 1000.0
    }
}

fn engine_with_plan(rows: usize, seed: u64) -> Engine {
    // No result cache: every request is a cold solve and records a full trace.
    let engine = Engine::with_config(EngineConfig {
        cache_capacity: 0,
        flight_recorder_capacity: 8,
        ..Default::default()
    });
    let config = SocialConfig {
        rows_per_relation: rows,
        seed,
        ..Default::default()
    };
    engine
        .create_database("social", config.generate().into_parts().1)
        .unwrap();
    engine
        .register(
            "likes",
            "social",
            social_network_query(),
            Ranking::sum(vars(&["l2", "l3"])),
        )
        .unwrap();
    engine
}

/// Asserts the structural invariants every recorded trace must satisfy and
/// returns the number of `trim-round` spans.
fn assert_well_formed(trace: &Trace) -> usize {
    assert!(!trace.spans.is_empty(), "trace {:?} has no spans", trace.id);

    // Exactly one root, and it is the request span.
    let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "one root expected in {:?}", trace.spans);
    let root = roots[0];
    assert_eq!(root.name, "request", "{root:?}");

    for span in &trace.spans {
        let Some(parent_id) = span.parent else {
            continue;
        };
        let parent = trace
            .span(parent_id)
            .unwrap_or_else(|| panic!("span {:?} has dangling parent {parent_id:?}", span.id));
        assert!(
            span.start_ns >= parent.start_ns,
            "child {:?} ({}) starts at {} before parent {:?} ({}) at {}",
            span.id,
            span.name,
            span.start_ns,
            parent.id,
            parent.name,
            parent.start_ns
        );
        assert!(
            span.end_ns() <= parent.end_ns(),
            "child {:?} ({}) ends at {} after parent {:?} ({}) at {}",
            span.id,
            span.name,
            span.end_ns(),
            parent.id,
            parent.name,
            parent.end_ns()
        );
        assert!(
            span.dur_ns <= parent.dur_ns,
            "child {:?} outlasts its parent: {} > {}",
            span.id,
            span.dur_ns,
            parent.dur_ns
        );
    }

    // Spans come out of `finish()` sorted by start time.
    for pair in trace.spans.windows(2) {
        assert!(pair[0].start_ns <= pair[1].start_ns, "{:?}", trace.spans);
    }

    trace.spans_named("trim-round").count()
}

/// Pulls the most recent trace and checks it against the answer that made it.
fn check_cold_trace(engine: &Engine, answer: &EngineAnswer) -> usize {
    assert!(!answer.from_cache, "cold request expected");
    let trace = engine.recorder().last(1).pop().expect("trace recorded");
    let trims = assert_well_formed(&trace);

    // The cache was consulted (and missed) before the solve ran.
    let lookup = trace
        .spans_named("cache-lookup")
        .next()
        .expect("cache-lookup span");
    assert!(
        matches!(lookup.arg("hit"), Some(ArgValue::Bool(false))),
        "{lookup:?}"
    );

    // One solve span whose `rounds` arg matches both the trim-round span count
    // and the iteration count the answer itself reports.
    let solve = trace.spans_named("solve").next().expect("solve span");
    let rounds = solve
        .arg("rounds")
        .and_then(|v| v.as_u64())
        .expect("rounds arg") as usize;
    assert_eq!(rounds, trims, "rounds arg vs trim-round spans");
    assert_eq!(
        rounds, answer.result.iterations,
        "rounds arg vs reported iterations"
    );

    // Phase spans parent to the solve span and carry their round indices.
    let mut seen_rounds = BTreeSet::new();
    for span in trace.spans_named("trim-round") {
        assert_eq!(span.parent, Some(solve.id), "{span:?}");
        let round = span.arg("round").and_then(|v| v.as_u64()).expect("round");
        assert!(span.arg("candidates").is_some(), "{span:?}");
        assert!(span.arg("n_lt").is_some(), "{span:?}");
        assert!(span.arg("n_eq").is_some(), "{span:?}");
        assert!(span.arg("n_gt").is_some(), "{span:?}");
        assert!(span.arg("view_rows").is_some(), "{span:?}");
        seen_rounds.insert(round);
    }
    let expected: BTreeSet<u64> = (0..rounds as u64).collect();
    assert_eq!(seen_rounds, expected, "round indices must be 0..rounds");

    // Every solve prepares its backend and materializes its answer.
    assert!(trace.spans_named("prepare").count() >= 1);
    assert!(trace.spans_named("materialize").count() >= 1);
    // A leaf reports how many answers it walked and how many of them it keyed:
    // the tie band holds the selected answer and never more than the leaf.
    for span in trace.spans_named("materialize") {
        let walked = span.arg("materialized").and_then(|v| v.as_u64());
        let keyed = span.arg("keyed").and_then(|v| v.as_u64());
        let (walked, keyed) = walked.zip(keyed).expect("leaf size args");
        assert!(1 <= keyed && keyed <= walked, "{span:?}");
    }
    trims
}

#[test]
fn cold_quantile_traces_are_well_formed_trees() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut total_trims = 0usize;
    for case in 0..6 {
        let rows = 40 + (rng.next() % 80) as usize;
        let seed = rng.next() % 1000;
        let engine = engine_with_plan(rows, seed);
        for _ in 0..4 {
            let phi = rng.phi();
            let answer = engine
                .quantile("likes", phi)
                .unwrap_or_else(|e| panic!("case {case} rows {rows} seed {seed}: {e}"));
            total_trims += check_cold_trace(&engine, &answer);
        }
    }
    // The grid is big enough that at least some solves genuinely pivoted;
    // otherwise the trim-round assertions above were all vacuous.
    assert!(total_trims > 0, "no workload ever pivoted — grid too small");
}

/// The ε path's trim rounds are windows of one construction; their spans are as
/// well formed as the exact path's and carry the view rows they hand on too.
#[test]
fn approximate_trim_rounds_are_traced_like_exact_ones() {
    let engine = engine_with_plan(100, 77);
    let mut total_trims = 0;
    for phi in [0.1, 0.5, 0.9] {
        let approximate = Accuracy::Approximate { epsilon: 0.1 };
        let answer = engine.quantile_with("likes", phi, approximate).unwrap();
        total_trims += check_cold_trace(&engine, &answer);
    }
    assert!(total_trims > 0, "no approximate solve pivoted");
}

#[test]
fn cold_batch_traces_count_shared_rounds_once() {
    let engine = engine_with_plan(100, 77);
    let answers = engine
        .quantile_batch("likes", &[0.2, 0.45, 0.7, 0.95])
        .unwrap();
    assert_eq!(answers.len(), 4);

    let trace = engine.recorder().last(1).pop().expect("batch trace");
    let trims = assert_well_formed(&trace);
    let solve = trace.spans_named("solve").next().expect("solve span");
    let rounds = solve.arg("rounds").and_then(|v| v.as_u64()).unwrap() as usize;
    // The batch recursion shares rounds across φ targets: the trace shows the
    // rounds actually run, which one batched solve performs exactly once each.
    assert_eq!(rounds, trims);
    // Shared rounds can't exceed (and usually undercut) the per-φ sum.
    let per_phi_sum: usize = answers.iter().map(|a| a.result.iterations).sum();
    assert!(rounds <= per_phi_sum, "{rounds} > {per_phi_sum}");
}

#[test]
fn warm_requests_trace_the_cache_hit_and_skip_the_solve() {
    let engine = Engine::with_config(EngineConfig {
        flight_recorder_capacity: 8,
        ..Default::default()
    });
    let config = SocialConfig {
        rows_per_relation: 60,
        seed: 5,
        ..Default::default()
    };
    engine
        .create_database("social", config.generate().into_parts().1)
        .unwrap();
    engine
        .register(
            "likes",
            "social",
            social_network_query(),
            Ranking::sum(vars(&["l2", "l3"])),
        )
        .unwrap();

    engine.quantile("likes", 0.5).unwrap();
    let warm = engine.quantile("likes", 0.5).unwrap();
    assert!(warm.from_cache);

    let trace = engine.recorder().last(1).pop().expect("warm trace");
    assert_well_formed(&trace);
    let lookup = trace
        .spans_named("cache-lookup")
        .next()
        .expect("cache-lookup span");
    assert!(
        matches!(lookup.arg("hit"), Some(ArgValue::Bool(true))),
        "{lookup:?}"
    );
    assert_eq!(trace.spans_named("solve").count(), 0, "{:?}", trace.spans);
    assert_eq!(trace.spans_named("trim-round").count(), 0);
}

#[test]
fn disabled_recorder_records_nothing_and_costs_no_spans() {
    let engine = Engine::with_config(EngineConfig {
        flight_recorder_capacity: 0,
        ..Default::default()
    });
    let config = SocialConfig {
        rows_per_relation: 60,
        seed: 9,
        ..Default::default()
    };
    engine
        .create_database("social", config.generate().into_parts().1)
        .unwrap();
    engine
        .register(
            "likes",
            "social",
            social_network_query(),
            Ranking::sum(vars(&["l2", "l3"])),
        )
        .unwrap();
    let answer = engine.quantile("likes", 0.5).unwrap();
    assert!(!answer.from_cache);
    assert!(!engine.recorder().is_enabled());
    assert!(engine.recorder().last(1).is_empty());

    // Concurrent hammering with tracing on: one shared engine, every thread's
    // traces land in the ring and the ring never overflows its capacity.
    let engine = Arc::new(engine_with_plan(80, 13));
    std::thread::scope(|scope| {
        for t in 0..8 {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                for i in 0..5 {
                    let phi = (t * 5 + i + 1) as f64 / 48.0;
                    engine.quantile("likes", phi).unwrap();
                    assert!(engine.recorder().len() <= engine.recorder().capacity());
                }
            });
        }
    });
    for trace in engine.recorder().last(8) {
        assert_well_formed(&trace);
    }
}
