//! The one quantile driver: Algorithm 1 for any number of fractions, in one shared
//! divide-and-conquer pass.
//!
//! The §3 recursion (Algorithm 1) narrows the candidate answer set around a single
//! target rank, but nothing in the recursion is specific to *one* rank: the pivot,
//! the trimmed partitions, and the partition counts are all functions of the current
//! candidate region only. Given sorted targets `φ₁ ≤ … ≤ φₖ`, this module therefore
//! runs a single recursion tree and *routes* every target through it:
//!
//! * at each internal node, one pivot is selected and the less-than / greater-than
//!   partitions are built and counted **once**; each target descends into the
//!   partition containing its rank (targets that land on the pivot's equal-to band
//!   resolve immediately);
//! * at each leaf (candidate count below the materialization threshold), the
//!   candidates' weights are walked **once**, every target rank in the leaf is
//!   selected on them together, and only the answers tied with a target weight are
//!   keyed (`leaf::select_ranks`).
//!
//! A single-φ solve is this driver with one target. Pivot selection (Algorithm 2)
//! and the exact trimmings are deterministic, so a target's path depends on its
//! rank alone, never on the targets routed beside it: a batch is pointwise
//! identical to one-fraction solves. Its cost, however, is one traversal plus
//! `O(k)` leaf resolutions instead of `k` full solves: the expensive near-root trims
//! (which operate on the largest instances) are shared by all targets on their side
//! of the pivot.

use crate::leaf::select_ranks;
use crate::quantile::{
    partition_round, report_parallel, target_rank, PivotingOptions, QuantileResult, SolveBackend,
};
use crate::trace::{sat64, PhaseContext, SolvePhase, SolveTracer};
use crate::{CoreError, Result};
use qjoin_query::Variable;
use qjoin_ranking::WeightBound;
use std::time::Instant;

/// One pending quantile target: the position in the caller's φ slice plus the global
/// rank it resolves to.
#[derive(Clone, Copy, Debug)]
struct Target {
    /// Index into the caller's `phis` slice (results are returned in input order).
    pos: usize,
    /// The global zero-based rank `⌊φ·|Q(D)|⌋` (clamped), fixed for the whole solve.
    rank: u128,
}

/// Read-only state shared by every node of the batched recursion.
struct BatchState<'a, B: SolveBackend> {
    /// The backend the recursion counts, pivots, and trims through.
    backend: &'a B,
    /// The *original* instance; trims are always rebuilt from it (Algorithm 1).
    instance: &'a B::Inst,
    options: &'a PivotingOptions,
    /// Materialization threshold (defaults to the database size `n`).
    threshold: u128,
    original_vars: &'a [Variable],
    /// `|Q(D)|`, counted once up front.
    total: u128,
    /// Receives per-phase timing events (a no-op tracer when untraced).
    tracer: &'a dyn SolveTracer,
}

/// The driver: one shared recursion over any [`SolveBackend`], for **all**
/// fractions in `phis` (see the module docs).
///
/// `phis` may be in any order and may contain duplicates; results are returned in the
/// same order as the input. An empty `phis` returns an empty vector (after validating
/// that the instance has answers at all).
pub(crate) fn quantile_batch_backend<B: SolveBackend>(
    backend: &B,
    instance: &B::Inst,
    phis: &[f64],
    options: &PivotingOptions,
    original_vars: &[Variable],
    tracer: &dyn SolveTracer,
) -> Result<Vec<QuantileResult>> {
    for &phi in phis {
        if !(0.0..=1.0).contains(&phi) || phi.is_nan() {
            return Err(CoreError::InvalidPhi(phi));
        }
    }
    let prepare_started = Instant::now();
    let prepare_par = qjoin_par::thread_parallel_nanos();
    let total = backend.count(instance)?;
    tracer.phase_event(
        SolvePhase::Prepare,
        prepare_started.elapsed(),
        &PhaseContext {
            candidates: Some(sat64(total)),
            targets: Some(phis.len() as u64),
            ..PhaseContext::default()
        },
    );
    report_parallel(tracer, SolvePhase::Prepare, prepare_par);
    if total == 0 {
        return Err(CoreError::NoAnswers);
    }
    if phis.is_empty() {
        return Ok(Vec::new());
    }
    let mut targets: Vec<Target> = phis
        .iter()
        .enumerate()
        .map(|(pos, &phi)| Target {
            pos,
            rank: target_rank(phi, total),
        })
        .collect();
    // Route targets in rank order; the sort is stable so duplicate φ values keep
    // their input order (they resolve to identical results regardless).
    targets.sort_by_key(|t| t.rank);

    let threshold = options
        .materialize_threshold
        .unwrap_or(backend.database_size(instance) as u128)
        .max(1);
    let state = BatchState {
        backend,
        instance,
        options,
        threshold,
        original_vars,
        total,
        tracer,
    };
    let mut results: Vec<Option<QuantileResult>> = vec![None; phis.len()];
    solve_group(
        &state,
        instance.clone(),
        total,
        0,
        WeightBound::NegInf,
        WeightBound::PosInf,
        &targets,
        0,
        &mut results,
    )?;
    Ok(results
        .into_iter()
        .map(|r| r.expect("every routed target is resolved"))
        .collect())
}

/// Resolves every target in `targets` against the candidate instance `current`, which
/// holds the answers of global ranks `[offset, offset + current_count)` within the
/// accumulated weight bounds `(low, high)`. `depth` counts the pivoting iterations
/// performed on the path from the root: a result's `iterations`.
#[allow(clippy::too_many_arguments)]
fn solve_group<B: SolveBackend>(
    state: &BatchState<'_, B>,
    current: B::Inst,
    current_count: u128,
    offset: u128,
    low: WeightBound,
    high: WeightBound,
    targets: &[Target],
    depth: usize,
    results: &mut [Option<QuantileResult>],
) -> Result<()> {
    if targets.is_empty() {
        return Ok(());
    }
    if current_count <= state.threshold || depth >= state.options.max_iterations {
        return resolve_leaf(state, &current, offset, targets, depth, results);
    }

    let pivot_started = Instant::now();
    let pivot_par = qjoin_par::thread_parallel_nanos();
    let pivot = state.backend.select_pivot(&current)?;
    state.tracer.phase_event(
        SolvePhase::PivotScan,
        pivot_started.elapsed(),
        &PhaseContext {
            round: Some(depth as u64),
            candidates: Some(sat64(current_count)),
            pivot_slots: Some(pivot.assignment.len() as u64),
            targets: Some(targets.len() as u64),
            ..PhaseContext::default()
        },
    );
    report_parallel(state.tracer, SolvePhase::PivotScan, pivot_par);
    let pivot_weight = pivot.weight.clone();

    let trim_started = Instant::now();
    let trim_par = qjoin_par::thread_parallel_nanos();
    let [(lt, n_lt), (gt, n_gt)] =
        partition_round(state.backend, state.instance, &low, &high, &pivot_weight)?;
    let n_eq = current_count.saturating_sub(n_lt).saturating_sub(n_gt);
    let view_rows = state.backend.database_size(&lt) + state.backend.database_size(&gt);
    state.tracer.phase_event(
        SolvePhase::TrimRound,
        trim_started.elapsed(),
        &PhaseContext {
            round: Some(depth as u64),
            candidates: Some(sat64(current_count)),
            n_lt: Some(sat64(n_lt)),
            n_eq: Some(sat64(n_eq)),
            n_gt: Some(sat64(n_gt)),
            view_rows: Some(view_rows as u64),
            targets: Some(targets.len() as u64),
            ..PhaseContext::default()
        },
    );
    report_parallel(state.tracer, SolvePhase::TrimRound, trim_par);

    // Route each target into its partition; the equal-to band resolves to the pivot.
    let mut lt_targets = Vec::new();
    let mut gt_targets = Vec::new();
    for t in targets {
        let k = t.rank - offset;
        if k < n_lt {
            lt_targets.push(*t);
        } else if k < n_lt + n_eq {
            results[t.pos] = Some(QuantileResult {
                answer: pivot.assignment.project(state.original_vars),
                weight: pivot_weight.clone(),
                total_answers: state.total,
                target_index: t.rank,
                iterations: depth + 1,
            });
        } else {
            gt_targets.push(*t);
        }
    }

    // Lossy trimmings may drop a targeted partition entirely; answer with the pivot,
    // which is within the accumulated error budget of those targets (Lemma 3.6).
    let resolve_with_pivot = |group: &[Target], results: &mut [Option<QuantileResult>]| {
        for t in group {
            results[t.pos] = Some(QuantileResult {
                answer: pivot.assignment.project(state.original_vars),
                weight: pivot_weight.clone(),
                total_answers: state.total,
                target_index: t.rank,
                iterations: depth + 1,
            });
        }
    };
    if n_lt == 0 {
        resolve_with_pivot(&lt_targets, results);
        lt_targets.clear();
    }
    if n_gt == 0 {
        resolve_with_pivot(&gt_targets, results);
        gt_targets.clear();
    }

    solve_group(
        state,
        lt,
        n_lt,
        offset,
        low,
        WeightBound::Finite(pivot_weight.clone()),
        &lt_targets,
        depth + 1,
        results,
    )?;
    solve_group(
        state,
        gt,
        n_gt,
        offset + n_lt + n_eq,
        WeightBound::Finite(pivot_weight),
        high,
        &gt_targets,
        depth + 1,
        results,
    )
}

/// Resolves every target routed into a leaf with one [`select_ranks`] call.
fn resolve_leaf<B: SolveBackend>(
    state: &BatchState<'_, B>,
    current: &B::Inst,
    offset: u128,
    targets: &[Target],
    depth: usize,
    results: &mut [Option<QuantileResult>],
) -> Result<()> {
    let materialize_started = Instant::now();
    let materialize_par = qjoin_par::thread_parallel_nanos();
    let ranks: Vec<u128> = targets.iter().map(|t| t.rank - offset).collect();
    let leaf = select_ranks(state.backend, current, state.original_vars, &ranks)?;
    state.tracer.phase_event(
        SolvePhase::Materialize,
        materialize_started.elapsed(),
        &PhaseContext {
            round: Some(depth as u64),
            materialized: Some(leaf.walked as u64),
            keyed: Some(leaf.keyed as u64),
            targets: Some(targets.len() as u64),
            ..PhaseContext::default()
        },
    );
    report_parallel(state.tracer, SolvePhase::Materialize, materialize_par);
    for (t, (weight, key)) in targets.iter().zip(leaf.selected) {
        results[t.pos] = Some(QuantileResult {
            answer: state.backend.answer_from_key(state.original_vars, &key),
            weight,
            total_answers: state.total,
            target_index: t.rank,
            iterations: depth,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{quantile_by_materialization, BaselineStrategy};
    use crate::encoded::exact_quantile_batch_encoded_traced;
    use crate::quantile::rank_of_weight;
    use crate::trace::NoopTracer;
    use qjoin_data::{Database, Relation, Value};
    use qjoin_query::query::path_query;
    use qjoin_query::variable::vars;
    use qjoin_query::{EncodedInstance, Instance};
    use qjoin_ranking::Ranking;

    fn two_path_instance(n: i64) -> Instance {
        let mut r1 = Relation::new("R1", 2);
        let mut r2 = Relation::new("R2", 2);
        for i in 0..n {
            r1.push(vec![Value::from((17 * i) % 101), Value::from(i % 4)])
                .unwrap();
            r2.push(vec![Value::from(i % 4), Value::from((13 * i) % 89)])
                .unwrap();
        }
        Instance::new(path_query(2), Database::from_relations([r1, r2]).unwrap()).unwrap()
    }

    fn three_path_instance(n: i64) -> Instance {
        let mut r1 = Relation::new("R1", 2);
        let mut r2 = Relation::new("R2", 2);
        let mut r3 = Relation::new("R3", 2);
        for i in 0..n {
            r1.push(vec![Value::from((7 * i) % 43), Value::from(i % 3)])
                .unwrap();
            r2.push(vec![Value::from(i % 3), Value::from((5 * i) % 37)])
                .unwrap();
            r3.push(vec![Value::from((5 * i) % 37), Value::from((3 * i) % 31)])
                .unwrap();
        }
        Instance::new(
            path_query(3),
            Database::from_relations([r1, r2, r3]).unwrap(),
        )
        .unwrap()
    }

    const PHIS: [f64; 7] = [0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0];

    /// The exact route's batch over a fresh encoding of `inst`.
    fn batch(
        inst: &Instance,
        ranking: &Ranking,
        phis: &[f64],
        options: &PivotingOptions,
    ) -> Result<Vec<QuantileResult>> {
        let encoded = EncodedInstance::from_instance(inst)?;
        exact_quantile_batch_encoded_traced(&encoded, ranking, phis, options, &NoopTracer)
    }

    /// Every batched result against the materialize-and-sort oracle: the same total,
    /// target rank and weight, and an answer that carries that weight.
    fn assert_matches_the_oracle(
        inst: &Instance,
        ranking: &Ranking,
        phis: &[f64],
        batched: &[QuantileResult],
    ) {
        assert_eq!(batched.len(), phis.len());
        for (phi, b) in phis.iter().zip(batched) {
            let oracle =
                quantile_by_materialization(inst, ranking, *phi, BaselineStrategy::FullSort)
                    .unwrap();
            let context = format!("ranking {ranking}, phi {phi}");
            assert_eq!(b.total_answers, oracle.total_answers, "{context}");
            assert_eq!(b.target_index, oracle.target_index, "{context}");
            assert_eq!(b.weight, oracle.weight, "{context}");
            assert_eq!(ranking.weight_of(&b.answer), b.weight, "{context}");
        }
    }

    #[test]
    fn batched_matches_the_oracle_for_sum() {
        let inst = two_path_instance(50);
        let ranking = Ranking::sum(inst.query().variables());
        let batched = batch(&inst, &ranking, &PHIS, &PivotingOptions::default()).unwrap();
        assert_matches_the_oracle(&inst, &ranking, &PHIS, &batched);
    }

    #[test]
    fn batched_matches_the_oracle_for_minmax_and_lex() {
        let inst = three_path_instance(20);
        let options = PivotingOptions::default();
        for ranking in [
            Ranking::min(inst.query().variables()),
            Ranking::max(vars(&["x1", "x4"])),
            Ranking::lex(vars(&["x2", "x4"])),
        ] {
            let batched = batch(&inst, &ranking, &PHIS, &options).unwrap();
            assert_matches_the_oracle(&inst, &ranking, &PHIS, &batched);
        }
    }

    #[test]
    fn batched_results_are_valid_quantiles_and_monotone() {
        let inst = two_path_instance(40);
        let ranking = Ranking::sum(inst.query().variables());
        let batched = batch(&inst, &ranking, &PHIS, &PivotingOptions::default()).unwrap();
        for (prev, next) in batched.iter().zip(batched.iter().skip(1)) {
            assert!(prev.weight <= next.weight, "weights must be monotone in φ");
        }
        for result in &batched {
            let (below, equal) = rank_of_weight(&inst, &ranking, &result.weight).unwrap();
            assert!(
                result.target_index >= below && result.target_index < below + equal,
                "target {} outside window [{}, {})",
                result.target_index,
                below,
                below + equal
            );
        }
    }

    #[test]
    fn unsorted_and_duplicate_phis_return_in_input_order() {
        let inst = two_path_instance(30);
        let ranking = Ranking::sum(inst.query().variables());
        let phis = [0.9, 0.1, 0.5, 0.1];
        let batched = batch(&inst, &ranking, &phis, &PivotingOptions::default()).unwrap();
        assert_eq!(batched.len(), 4);
        assert_eq!(batched[1].weight, batched[3].weight);
        assert!(batched[1].weight <= batched[2].weight);
        assert!(batched[2].weight <= batched[0].weight);
        assert_matches_the_oracle(&inst, &ranking, &phis, &batched);
    }

    /// With a threshold of one every target recurses until a pivot's equal band or
    /// a one-answer leaf holds it, and still lands on the oracle's weight.
    #[test]
    fn tiny_threshold_still_matches_the_oracle() {
        let inst = two_path_instance(30);
        let ranking = Ranking::sum(inst.query().variables());
        let options = PivotingOptions {
            materialize_threshold: Some(1),
            max_iterations: 256,
        };
        let batched = batch(&inst, &ranking, &PHIS, &options).unwrap();
        assert_matches_the_oracle(&inst, &ranking, &PHIS, &batched);
        assert!(batched.iter().all(|b| b.iterations >= 1));
    }

    #[test]
    fn empty_phis_and_invalid_phis_are_handled() {
        let inst = two_path_instance(10);
        let ranking = Ranking::sum(inst.query().variables());
        let options = PivotingOptions::default();
        assert!(batch(&inst, &ranking, &[], &options).unwrap().is_empty());
        assert!(matches!(
            batch(&inst, &ranking, &[0.5, 1.5], &options).unwrap_err(),
            CoreError::InvalidPhi(_)
        ));
        let empty = Instance::new(
            path_query(2),
            Database::from_relations([
                Relation::from_rows("R1", &[&[1, 1]]).unwrap(),
                Relation::from_rows("R2", &[&[2, 2]]).unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(matches!(
            batch(&empty, &ranking, &[0.5], &options).unwrap_err(),
            CoreError::NoAnswers
        ));
    }
}
