//! Engine-side telemetry plumbing: the bridge between qjoin-core's
//! [`SolveTracer`] hooks and the shared [`qjoin_telemetry::Registry`] and request
//! span traces.
//!
//! One [`SolveRecorder`] is built per uncached solve. It resolves the per-plan
//! histogram handles up front (a few registry lookups on the cold path only),
//! then records each phase event with a couple of relaxed atomic adds:
//!
//! * `qjoin_solve_phase_seconds{plan, phase}` — one histogram per
//!   [`SolvePhase`], so trim-round blowups and materialize-heavy shapes are
//!   visible per plan;
//! * `qjoin_solve_seconds{plan}` — the whole solve, recorded by
//!   [`SolveRecorder::finish`];
//! * `qjoin_solve_rounds_total{plan}` — pivoting rounds, counted from
//!   [`SolvePhase::TrimRound`] events;
//! * `qjoin_solve_encoded_total{plan}` — solves served, every one on the encoded
//!   execution layer;
//! * `qjoin_solve_parallel_seconds{plan, phase}` — wall time each phase spent
//!   inside chunk-executor regions, so `parallel / phase` approximates how much
//!   of a phase the work-stealing pool actually covers.
//!
//! When a trace is being recorded, the same event also becomes a child span of the
//! solve span: round index, pre-trim candidate count, `n_lt`/`n_eq`/`n_gt` split,
//! pivot slot count, routed-target count, and the leaf's size and keyed tie band
//! all land as span arguments, so one recorded trace explains where a solve's time
//! went and why.

use qjoin_core::{PhaseContext, SolvePhase, SolveTracer};
use qjoin_telemetry::{ArgValue, Counter, Histogram, Registry, SpanId, TraceBuilder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The one [`SolveTracer`] of an engine solve (see the module docs). Histograms
/// are indexed by `phase as usize`, the order of [`SolvePhase::ALL`].
pub(crate) struct SolveRecorder {
    solve: Arc<Histogram>,
    phases: [Arc<Histogram>; 4],
    parallel: [Arc<Histogram>; 4],
    rounds: AtomicU64,
    rounds_total: Arc<Counter>,
    encoded_total: Arc<Counter>,
    /// `(builder, solve span id)` when spans are being recorded; phases parent
    /// to the solve span, which the engine records when the solve finishes.
    recording: Option<(TraceBuilder, SpanId)>,
}

impl SolveRecorder {
    /// Resolves (or creates) this plan's metric handles in the registry.
    pub(crate) fn for_plan(
        registry: &Registry,
        plan: &str,
        recording: Option<(TraceBuilder, SpanId)>,
    ) -> Self {
        let labels = [("plan", plan)];
        let per_phase = |name| {
            SolvePhase::ALL
                .map(|phase| registry.histogram(name, &[("plan", plan), ("phase", phase.label())]))
        };
        SolveRecorder {
            solve: registry.histogram("qjoin_solve_seconds", &labels),
            phases: per_phase("qjoin_solve_phase_seconds"),
            parallel: per_phase("qjoin_solve_parallel_seconds"),
            rounds: AtomicU64::new(0),
            rounds_total: registry.counter("qjoin_solve_rounds_total", &labels),
            encoded_total: registry.counter("qjoin_solve_encoded_total", &labels),
            recording,
        }
    }

    /// Records the whole-solve duration, flushes the round count, and counts the
    /// solve. Call once, after the solve returns.
    pub(crate) fn finish(&self, elapsed: Duration) {
        self.solve.record_duration(elapsed);
        self.rounds_total.add(self.rounds());
        self.encoded_total.inc();
    }

    /// Pivoting rounds observed so far (one per [`SolvePhase::TrimRound`] event).
    pub(crate) fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }
}

impl SolveTracer for SolveRecorder {
    fn phase_event(&self, phase: SolvePhase, elapsed: Duration, ctx: &PhaseContext) {
        self.phases[phase as usize].record_duration(elapsed);
        if phase == SolvePhase::TrimRound {
            self.rounds.fetch_add(1, Ordering::Relaxed);
        }
        let Some((builder, solve_span)) = &self.recording else {
            return;
        };
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
        push("view_rows", ctx.view_rows);
        push("pivot_slots", ctx.pivot_slots);
        push("targets", ctx.targets);
        push("materialized", ctx.materialized);
        push("keyed", ctx.keyed);
        // Phase events arrive at phase end, so the start is reconstructed.
        let start = Instant::now()
            .checked_sub(elapsed)
            .unwrap_or_else(|| builder.epoch());
        builder.record_new(Some(*solve_span), phase.label(), start, elapsed, args);
    }

    fn parallel(&self, phase: SolvePhase, elapsed: Duration) {
        self.parallel[phase as usize].record_duration(elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_records_per_phase_and_counts_rounds() {
        let registry = Registry::new();
        let tracer = SolveRecorder::for_plan(&registry, "likes", None);
        let event = |phase, micros| {
            tracer.phase_event(
                phase,
                Duration::from_micros(micros),
                &PhaseContext::default(),
            )
        };
        event(SolvePhase::Prepare, 5);
        event(SolvePhase::PivotScan, 2);
        event(SolvePhase::TrimRound, 9);
        event(SolvePhase::TrimRound, 7);
        tracer.parallel(SolvePhase::Materialize, Duration::from_micros(3));
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
        let per_phase = |name, phase| {
            let labels = [("plan", "likes"), ("phase", phase)];
            snapshot.histogram(name, &labels).unwrap().count()
        };
        assert_eq!(per_phase("qjoin_solve_phase_seconds", "prepare"), 1);
        assert_eq!(per_phase("qjoin_solve_phase_seconds", "pivot-scan"), 1);
        assert_eq!(per_phase("qjoin_solve_phase_seconds", "trim-round"), 2);
        assert_eq!(per_phase("qjoin_solve_phase_seconds", "materialize"), 0);
        assert_eq!(per_phase("qjoin_solve_parallel_seconds", "materialize"), 1);
        assert_eq!(snapshot.counter("qjoin_solve_rounds_total", &plan), Some(2));
        assert_eq!(
            snapshot.counter("qjoin_solve_encoded_total", &plan),
            Some(1)
        );
    }
}
