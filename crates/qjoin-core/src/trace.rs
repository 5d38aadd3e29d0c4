//! Per-phase tracing hooks for the divide-and-conquer solve driver.
//!
//! The driver's traced entry points
//! ([`crate::encoded::exact_quantile_batch_encoded_traced`] and
//! [`crate::encoded::approximate_sum_quantile_batch_encoded_traced`]) accept a
//! [`SolveTracer`] and report how long each algorithmic phase took:
//!
//! * [`SolvePhase::Prepare`] — the up-front `|Q(D)|` counting pass (one event per
//!   solve);
//! * [`SolvePhase::PivotScan`] — one `c`-pivot selection (Algorithm 2; one event per
//!   pivoting round);
//! * [`SolvePhase::TrimRound`] — one round's trim-and-count work: building the
//!   less-than / greater-than partitions from the original instance and counting
//!   both (one event per pivoting round, so **round counts** fall out of counting
//!   these events);
//! * [`SolvePhase::Materialize`] — the leaf: walking its candidates'
//!   weights, selecting the target ranks and keying their tie band.
//!
//! The trait is object-safe and both methods default to no-ops, so the hooks cost
//! one virtual call per phase event when a tracer is installed and the untraced
//! entry points pay a [`NoopTracer`] whose calls the optimizer deletes. qjoin-core
//! deliberately does **not** depend on any metrics crate: the engine layer supplies
//! a tracer that records these durations into its own histograms.

use std::time::Duration;

/// One algorithmic phase of a pivoting solve (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolvePhase {
    /// The up-front `|Q(D)|` counting pass.
    Prepare,
    /// One `c`-pivot selection (Algorithm 2).
    PivotScan,
    /// One round of partition trimming and counting.
    TrimRound,
    /// Leaf materialization and direct selection.
    Materialize,
}

impl SolvePhase {
    /// All phases, in solve order.
    pub const ALL: [SolvePhase; 4] = [
        SolvePhase::Prepare,
        SolvePhase::PivotScan,
        SolvePhase::TrimRound,
        SolvePhase::Materialize,
    ];

    /// A stable kebab-case label, suitable as a metric label value.
    pub fn label(self) -> &'static str {
        match self {
            SolvePhase::Prepare => "prepare",
            SolvePhase::PivotScan => "pivot-scan",
            SolvePhase::TrimRound => "trim-round",
            SolvePhase::Materialize => "materialize",
        }
    }
}

/// Structured context attached to a phase event — what the solve knew when the
/// phase finished, so a span-recording tracer can attribute *why* a round was
/// expensive, not just how long it took. Every field is optional: a phase
/// reports what it has (a prepare has no round index, a leaf has no trim
/// sizes). Counts larger than `u64::MAX` saturate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseContext {
    /// Zero-based pivoting-round index (the recursion depth). `None` for the
    /// one-shot prepare phase.
    pub round: Option<u64>,
    /// Candidate answers entering the phase (pre-trim size).
    pub candidates: Option<u64>,
    /// Candidates strictly below the pivot after a trim round.
    pub n_lt: Option<u64>,
    /// Candidates tied with the pivot after a trim round.
    pub n_eq: Option<u64>,
    /// Candidates strictly above the pivot after a trim round.
    pub n_gt: Option<u64>,
    /// Rows the two trimmed sides of a trim round hand the next round: a lossy
    /// window's kept root rows plus its construction's others; a pair SUM's A rows.
    pub view_rows: Option<u64>,
    /// Variable slots in the pivot assignment (a pivot-scan phase).
    pub pivot_slots: Option<u64>,
    /// Number of φ targets routed through this node.
    pub targets: Option<u64>,
    /// Answers walked at a leaf (a materialize phase): the leaf holds one
    /// `(weight, locator)` record for each.
    pub materialized: Option<u64>,
    /// Of those, the answers whose key was built — the tie band around the target
    /// weights (a materialize phase).
    pub keyed: Option<u64>,
}

/// Saturates a `u128` count into the `u64` a [`PhaseContext`] field carries.
pub(crate) fn sat64(value: u128) -> u64 {
    value.min(u64::MAX as u128) as u64
}

/// Receives per-phase timing events from the solve driver. Both methods default to
/// no-ops; implementations record into whatever sink they like. Methods take `&self`
/// so a tracer can be shared across the recursion — use interior mutability
/// (atomics, `Cell`) to accumulate.
pub trait SolveTracer {
    /// One phase of the solve took `elapsed`, with structured context (round
    /// index, pre/post-trim sizes, pivot slot counts, routed-target counts).
    /// [`SolvePhase::PivotScan`] and [`SolvePhase::TrimRound`] fire once per
    /// pivoting round.
    fn phase_event(&self, phase: SolvePhase, elapsed: Duration, ctx: &PhaseContext) {
        let _ = (phase, elapsed, ctx);
    }

    /// Executor time the phase accrued on the driver thread — wall time of
    /// pool-executed parallel regions only, so `parallel / phase` approximates
    /// the fraction of the phase spent inside the chunk executor.
    fn parallel(&self, phase: SolvePhase, elapsed: Duration) {
        let _ = (phase, elapsed);
    }
}

/// The do-nothing tracer used by the untraced public entry points.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopTracer;

impl SolveTracer for NoopTracer {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn labels_are_stable_and_distinct() {
        let labels: Vec<&str> = SolvePhase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            ["prepare", "pivot-scan", "trim-round", "materialize"]
        );
        // Tracers index per-phase arrays with `phase as usize`.
        for (i, phase) in SolvePhase::ALL.into_iter().enumerate() {
            assert_eq!(phase as usize, i);
        }
    }

    #[test]
    fn default_methods_are_no_ops_and_custom_tracers_accumulate() {
        let ctx = PhaseContext {
            round: Some(3),
            n_lt: Some(10),
            ..PhaseContext::default()
        };
        NoopTracer.phase_event(SolvePhase::Prepare, Duration::from_nanos(1), &ctx);

        struct Recording(RefCell<Vec<(SolvePhase, Option<u64>)>>);
        impl SolveTracer for Recording {
            fn phase_event(&self, phase: SolvePhase, _elapsed: Duration, ctx: &PhaseContext) {
                self.0.borrow_mut().push((phase, ctx.round));
            }
        }
        let tracer = Recording(RefCell::new(Vec::new()));
        let dynamic: &dyn SolveTracer = &tracer;
        dynamic.phase_event(SolvePhase::TrimRound, Duration::ZERO, &ctx);
        dynamic.phase_event(
            SolvePhase::TrimRound,
            Duration::ZERO,
            &PhaseContext::default(),
        );
        assert_eq!(
            *tracer.0.borrow(),
            [
                (SolvePhase::TrimRound, Some(3)),
                (SolvePhase::TrimRound, None)
            ]
        );
    }
}
