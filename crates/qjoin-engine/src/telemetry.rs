//! Engine-side telemetry plumbing: the bridge between qjoin-core's
//! [`SolveTracer`] hooks and the shared [`qjoin_telemetry::Registry`].
//!
//! One [`RegistryTracer`] is built per uncached solve. It resolves the per-plan
//! histogram handles up front (a few registry lookups on the cold path only),
//! then records each phase event with a couple of relaxed atomic adds:
//!
//! * `qjoin_solve_phase_seconds{plan, phase}` — one histogram per
//!   [`SolvePhase`], so trim-round blowups and materialize-heavy shapes are
//!   visible per plan;
//! * `qjoin_solve_seconds{plan}` — the whole solve, recorded by
//!   [`RegistryTracer::finish`];
//! * `qjoin_solve_rounds_total{plan}` — pivoting rounds, counted from
//!   [`SolvePhase::TrimRound`] events;
//! * `qjoin_solve_encoded_total{plan}` — solves served, every one on the encoded
//!   execution layer;
//! * `qjoin_solve_parallel_seconds{plan, phase}` — wall time each phase spent
//!   inside chunk-executor regions, so `parallel / phase` approximates how much
//!   of a phase the work-stealing pool actually covers.

use qjoin_core::{PhaseContext, SolvePhase, SolveTracer};
use qjoin_telemetry::{ArgValue, Counter, Histogram, Registry, SpanId, TraceBuilder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A [`SolveTracer`] that records phase timings into per-plan histograms of a
/// shared registry (see the module docs).
pub(crate) struct RegistryTracer {
    solve: Arc<Histogram>,
    phases: [Arc<Histogram>; 4],
    parallel: [Arc<Histogram>; 4],
    rounds: AtomicU64,
    rounds_total: Arc<Counter>,
    encoded_total: Arc<Counter>,
}

impl RegistryTracer {
    /// Resolves (or creates) this plan's metric handles in the registry.
    pub(crate) fn for_plan(registry: &Registry, plan: &str) -> Self {
        let labels = [("plan", plan)];
        RegistryTracer {
            solve: registry.histogram("qjoin_solve_seconds", &labels),
            phases: SolvePhase::ALL.map(|phase| {
                registry.histogram(
                    "qjoin_solve_phase_seconds",
                    &[("plan", plan), ("phase", phase.label())],
                )
            }),
            parallel: SolvePhase::ALL.map(|phase| {
                registry.histogram(
                    "qjoin_solve_parallel_seconds",
                    &[("plan", plan), ("phase", phase.label())],
                )
            }),
            rounds: AtomicU64::new(0),
            rounds_total: registry.counter("qjoin_solve_rounds_total", &labels),
            encoded_total: registry.counter("qjoin_solve_encoded_total", &labels),
        }
    }

    /// Records the whole-solve duration, flushes the round count, and counts the
    /// solve. Call once, after the solve returns.
    pub(crate) fn finish(&self, elapsed: Duration) {
        self.solve.record_duration(elapsed);
        self.rounds_total.add(self.rounds.load(Ordering::Relaxed));
        self.encoded_total.inc();
    }

    /// Pivoting rounds observed so far (one per [`SolvePhase::TrimRound`] event).
    pub(crate) fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }
}

/// A [`SolveTracer`] that feeds the per-plan histograms *and* (when a trace is
/// being recorded) turns every structured phase event into a child span of the
/// solve span: round index, pre-trim candidate count, `n_lt`/`n_eq`/`n_gt`
/// split, pivot slot count, routed-target count, and the leaf's size and keyed tie
/// band all land as span arguments, so one recorded trace explains where a solve's time
/// went and why.
pub(crate) struct RecordingTracer {
    registry: RegistryTracer,
    /// `(builder, solve span id)` when spans are being recorded; phases parent
    /// to the solve span, which the engine records when the solve finishes.
    recording: Option<(TraceBuilder, SpanId)>,
}

impl RecordingTracer {
    pub(crate) fn new(registry: RegistryTracer, recording: Option<(TraceBuilder, SpanId)>) -> Self {
        RecordingTracer {
            registry,
            recording,
        }
    }

    pub(crate) fn registry(&self) -> &RegistryTracer {
        &self.registry
    }

    /// Places a span of length `elapsed` ending *now* (phase events are
    /// reported at phase end, so the start is reconstructed by subtraction).
    fn record_span(
        &self,
        name: &'static str,
        elapsed: Duration,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some((builder, solve_span)) = &self.recording {
            let start = Instant::now()
                .checked_sub(elapsed)
                .unwrap_or_else(|| builder.epoch());
            builder.record_new(Some(*solve_span), name, start, elapsed, args);
        }
    }
}

impl SolveTracer for RecordingTracer {
    fn phase(&self, phase: SolvePhase, elapsed: Duration) {
        self.registry.phase(phase, elapsed);
        self.record_span(phase.label(), elapsed, Vec::new());
    }

    fn phase_event(&self, phase: SolvePhase, elapsed: Duration, ctx: &PhaseContext) {
        self.registry.phase(phase, elapsed);
        if self.recording.is_none() {
            return;
        }
        let mut args = Vec::with_capacity(8);
        let mut push = |key, value: Option<u64>| {
            if let Some(v) = value {
                args.push((key, ArgValue::U64(v)));
            }
        };
        push("round", ctx.round);
        push("candidates", ctx.candidates);
        push("n_lt", ctx.n_lt);
        push("n_eq", ctx.n_eq);
        push("n_gt", ctx.n_gt);
        push("pivot_slots", ctx.pivot_slots);
        push("targets", ctx.targets);
        push("materialized", ctx.materialized);
        push("keyed", ctx.keyed);
        self.record_span(phase.label(), elapsed, args);
    }

    fn parallel(&self, phase: SolvePhase, elapsed: Duration) {
        self.registry.parallel(phase, elapsed);
    }
}

impl SolveTracer for RegistryTracer {
    fn phase(&self, phase: SolvePhase, elapsed: Duration) {
        let index = SolvePhase::ALL
            .iter()
            .position(|p| *p == phase)
            .expect("SolvePhase::ALL covers every phase");
        self.phases[index].record_duration(elapsed);
        if phase == SolvePhase::TrimRound {
            self.rounds.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn parallel(&self, phase: SolvePhase, elapsed: Duration) {
        let index = SolvePhase::ALL
            .iter()
            .position(|p| *p == phase)
            .expect("SolvePhase::ALL covers every phase");
        self.parallel[index].record_duration(elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_records_per_phase_and_counts_rounds() {
        let registry = Registry::new();
        let tracer = RegistryTracer::for_plan(&registry, "likes");
        tracer.phase(SolvePhase::Prepare, Duration::from_micros(5));
        tracer.phase(SolvePhase::PivotScan, Duration::from_micros(2));
        tracer.phase(SolvePhase::TrimRound, Duration::from_micros(9));
        tracer.phase(SolvePhase::TrimRound, Duration::from_micros(7));
        tracer.finish(Duration::from_micros(30));

        let snapshot = registry.snapshot();
        let plan = [("plan", "likes")];
        assert_eq!(
            snapshot
                .histogram("qjoin_solve_seconds", &plan)
                .unwrap()
                .count(),
            1
        );
        assert_eq!(
            snapshot
                .histogram(
                    "qjoin_solve_phase_seconds",
                    &[("plan", "likes"), ("phase", "trim-round")]
                )
                .unwrap()
                .count(),
            2
        );
        assert_eq!(snapshot.counter("qjoin_solve_rounds_total", &plan), Some(2));
        assert_eq!(
            snapshot.counter("qjoin_solve_encoded_total", &plan),
            Some(1)
        );
    }
}
