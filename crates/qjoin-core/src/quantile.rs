//! The divide-and-conquer quantile algorithm (Section 3, Algorithm 1): its options,
//! results and target rank, the `SolveBackend` interface its one driver
//! ([`crate::batch`]) recurses through, and the partition step.
//!
//! Given an acyclic instance, a subset-monotone ranking function, a fraction `φ`, and a
//! trimming subroutine for the ranking's inequality predicates, the driver repeatedly:
//!
//! 1. selects a `c`-pivot of the current candidate instance (Section 4),
//! 2. trims the *original* instance down to the less-than and greater-than partitions
//!    around the pivot weight, intersected with the accumulated `low` / `high` bounds,
//! 3. counts both partitions in linear time and decides which one holds the target
//!    index (the equal-to partition means the pivot itself is the answer),
//!
//! until the candidate set fits within the materialization threshold, at which point
//! the leaf takes over: it walks what is left once for weights, selects the target rank
//! on those alone and keys only the answers tied with it (`leaf::select_ranks`). With
//! exact trimmings the result is an exact `φ`-quantile (Lemma 3.3); with ε′-lossy
//! trimmings it is an approximate quantile whose rank error is bounded by the
//! accumulated loss (Lemma 3.6).
//!
//! Production solves run on the encoded backend ([`crate::encoded`]). The row
//! backend here — materialized [`Instance`]s trimmed by a [`Trimmer`] — is the
//! reference oracle the encoded layer is tested against, reached through
//! [`quantile_by_pivoting`] and [`quantile_batch_by_pivoting`].

use crate::batch::quantile_batch_by_pivoting;
use crate::leaf::locator;
use crate::pivot::{select_pivot, PivotResult};
use crate::trace::{SolvePhase, SolveTracer};
use crate::trim::Trimmer;
use crate::{CoreError, Result};
use qjoin_data::Value;
use qjoin_exec::count::count_answers;
use qjoin_exec::yannakakis::materialize;
use qjoin_query::{Assignment, Instance, Variable};
#[cfg(test)]
use qjoin_ranking::RankPredicate;
use qjoin_ranking::{CmpOp, Ranking, Weight, WeightBound};

/// Tuning knobs for the pivoting driver.
#[derive(Clone, Debug)]
pub struct PivotingOptions {
    /// Materialize and select directly once the candidate count drops to this many
    /// answers. Defaults to the original database size `n` (the paper's threshold).
    pub materialize_threshold: Option<u128>,
    /// Hard cap on the number of pivoting iterations (a safety net; the expected
    /// number is `O(log |Q(D)|)`).
    pub max_iterations: usize,
}

impl Default for PivotingOptions {
    fn default() -> Self {
        PivotingOptions {
            materialize_threshold: None,
            max_iterations: 256,
        }
    }
}

/// The result of a quantile computation.
#[derive(Clone, Debug)]
pub struct QuantileResult {
    /// The returned query answer, projected onto the original query's variables.
    pub answer: Assignment,
    /// The answer's weight under the ranking function.
    pub weight: Weight,
    /// The total number of query answers `|Q(D)|`.
    pub total_answers: u128,
    /// The zero-based rank the algorithm targeted (`⌊φ·|Q(D)|⌋`, clamped).
    pub target_index: u128,
    /// Number of pivoting iterations performed (0 when the instance was small enough
    /// to materialize immediately).
    pub iterations: usize,
}

/// Maps a fraction `φ ∈ [0, 1]` to the zero-based target rank `⌊φ·total⌋`, clamped to
/// the last rank.
///
/// The product is computed in `f64`, which needs care at rank boundaries: a fraction
/// obtained as `r / total` in floating point can land a few ULPs *below* the real
/// quotient, so a naive floor would target rank `r − 1` instead of `r`. Products
/// within a few ULPs of an integer are therefore snapped to that integer before
/// flooring; fractions genuinely between boundaries (off by ≥ one part in ~10¹⁵) are
/// unaffected.
pub fn target_rank(phi: f64, total: u128) -> u128 {
    debug_assert!(total > 0, "target_rank needs a non-empty answer set");
    let scaled = phi * total as f64;
    let rounded = scaled.round();
    let snapped = if (scaled - rounded).abs() <= scaled.abs() * 4.0 * f64::EPSILON {
        rounded
    } else {
        scaled.floor()
    };
    (snapped as u128).min(total - 1)
}

/// The operations the divide-and-conquer driver needs from an execution
/// representation. Implemented by the **encoded** backend (dictionary-coded views,
/// [`crate::encoded`]) and by the **row** reference backend (materialized
/// [`Instance`]s + a [`Trimmer`]). The driver logic is written once and shared, so
/// both representations take branch-for-branch identical recursions — what lets
/// the row backend serve as the encoded layer's differential oracle.
/// (`Sync` on the backend and `Send + Sync` on the instances lets the driver
/// rebuild the less-than and greater-than partitions as the two arms of a
/// [`qjoin_par::par_join`]; both backends are plain shared data.)
pub(crate) trait SolveBackend: Sync {
    /// The instance representation the backend recurses over.
    type Inst: Clone + Send + Sync;

    /// `|Q(D)|` of an instance (a linear-time Yannakakis counting pass).
    fn count(&self, instance: &Self::Inst) -> Result<u128>;

    /// The rows an instance hands a round: the database size `n` of the original
    /// (the default materialization threshold), a trimmed side's view rows.
    fn database_size(&self, instance: &Self::Inst) -> usize;

    /// A `c`-pivot of the instance's answers (Algorithm 2).
    fn select_pivot(&self, instance: &Self::Inst) -> Result<PivotResult>;

    /// Trims the instance by a single ranking predicate (Section 5). The driver only
    /// trims to windows; this is the oracle the window constructions are tested against.
    #[cfg(test)]
    fn trim(&self, instance: &Self::Inst, predicate: &RankPredicate) -> Result<Self::Inst>;

    /// Trims the instance to the answers whose weight lies strictly inside the open
    /// window `(low, high)` — the partition primitive of the driver (see
    /// [`partition_round`]). `first` names the comparison a backend that stacks two
    /// single-bound passes applies first; one whose construction serves both
    /// bounds at once (exact SUM, the ε-lossy construction), or that narrows a
    /// weight window (MIN/MAX/LEX), has no use for it.
    fn trim_between(
        &self,
        instance: &Self::Inst,
        low: &WeightBound,
        high: &WeightBound,
        first: CmpOp,
    ) -> Result<Self::Inst>;

    /// The leaf key an answer is projected onto: the tie-break of the final direct
    /// selection. Must order **identically** to the projected `original_vars`
    /// values — the row backend uses the values themselves, the encoded backends
    /// use the projected dictionary codes (order-preserving by construction, so
    /// the two orders coincide and the selected answer is the same on every path).
    type Key: Ord + Clone + Send;

    /// Pass 1 of the leaf: the weight of every answer of the instance, each with a
    /// locator that [`leaf_band`](Self::leaf_band) can walk again (the encoded
    /// backends' root row, which many answers share; the row backend's answer index).
    fn leaf_weights(&self, instance: &Self::Inst) -> Result<Vec<(Weight, u32)>>;

    /// Pass 2 of the leaf: `(weight, key projected onto original_vars)` of every
    /// answer under `locators` (ascending, distinct) whose weight — recomputed, bit
    /// for bit as in pass 1 — `wanted` admits.
    fn leaf_band(
        &self,
        instance: &Self::Inst,
        original_vars: &[Variable],
        locators: &[u32],
        wanted: &(dyn Fn(&Weight) -> bool + Sync),
    ) -> Result<Vec<(Weight, Self::Key)>>;

    /// Reassembles one selected key into an [`Assignment`] over the original
    /// variables — the only point a backend has to produce row values, so the
    /// encoded backends decode exactly one answer per leaf target instead of
    /// every candidate.
    fn answer_from_key(&self, original_vars: &[Variable], key: &Self::Key) -> Assignment;
}

/// The row reference backend: materialized instances trimmed by a [`Trimmer`].
pub(crate) struct RowBackend<'a> {
    pub ranking: &'a Ranking,
    pub trimmer: &'a dyn Trimmer,
}

impl SolveBackend for RowBackend<'_> {
    type Inst = Instance;

    fn count(&self, instance: &Instance) -> Result<u128> {
        Ok(count_answers(instance)?)
    }

    fn database_size(&self, instance: &Instance) -> usize {
        instance.database_size()
    }

    fn select_pivot(&self, instance: &Instance) -> Result<PivotResult> {
        select_pivot(instance, self.ranking)
    }

    #[cfg(test)]
    fn trim(&self, instance: &Instance, predicate: &RankPredicate) -> Result<Instance> {
        self.trimmer.trim(instance, self.ranking, predicate)
    }

    fn trim_between(
        &self,
        instance: &Instance,
        low: &WeightBound,
        high: &WeightBound,
        first: CmpOp,
    ) -> Result<Instance> {
        self.trimmer
            .trim_between(instance, self.ranking, low, high, first)
    }

    type Key = Vec<Value>;

    fn leaf_weights(&self, instance: &Instance) -> Result<Vec<(Weight, u32)>> {
        let all = materialized_keyed_answers(instance, self.ranking, &[])?;
        let indexed = all.into_iter().enumerate();
        indexed.map(|(i, (w, _))| Ok((w, locator(i)?))).collect()
    }

    fn leaf_band(
        &self,
        instance: &Instance,
        original_vars: &[Variable],
        locators: &[u32],
        wanted: &(dyn Fn(&Weight) -> bool + Sync),
    ) -> Result<Vec<(Weight, Vec<Value>)>> {
        let all = materialized_keyed_answers(instance, self.ranking, original_vars)?;
        let located = locators.iter().filter_map(|&i| all.get(i as usize));
        Ok(located.filter(|(w, _)| wanted(w)).cloned().collect())
    }

    fn answer_from_key(&self, original_vars: &[Variable], key: &Vec<Value>) -> Assignment {
        Assignment::from_pairs(original_vars.iter().cloned().zip(key.iter().cloned()))
    }
}

/// One side of a partition step: the trimmed candidate instance and its answer count.
pub(crate) type Side<I> = (I, u128);

/// One partition step of Algorithm 1: rebuilds, from the *original*
/// instance, the candidates below the pivot — the window `(low, pivot)` — and
/// above it — `(pivot, high)` — and returns each with its answer count, less-than
/// side first. The pivot bound is the one a two-pass backend applies first. The two
/// sides are independent, so their trim+count pairs run as the two arms of a join
/// (sequentially, less-than first, when the pool has one thread).
pub(crate) fn partition_round<B: SolveBackend>(
    backend: &B,
    instance: &B::Inst,
    low: &WeightBound,
    high: &WeightBound,
    pivot_weight: &Weight,
) -> Result<[Side<B::Inst>; 2]> {
    let pivot = WeightBound::Finite(pivot_weight.clone());
    let side = |low: &WeightBound, high: &WeightBound, first: CmpOp| -> Result<Side<B::Inst>> {
        let trimmed = backend.trim_between(instance, low, high, first)?;
        let count = backend.count(&trimmed)?;
        Ok((trimmed, count))
    };
    let (lt, gt) = qjoin_par::par_join(
        || side(low, &pivot, CmpOp::Lt),
        || side(&pivot, high, CmpOp::Gt),
    );
    Ok([lt?, gt?])
}

/// Computes the `φ`-quantile of the instance's answers under the ranking function,
/// using the supplied trimming subroutine (Algorithm 1) on the row representation:
/// the batch driver with one fraction. The reference the encoded layer is tested
/// against; production solves go through [`Plan::solve`](crate::plan::Plan::solve).
pub fn quantile_by_pivoting(
    instance: &Instance,
    ranking: &Ranking,
    phi: f64,
    trimmer: &dyn Trimmer,
    options: &PivotingOptions,
) -> Result<QuantileResult> {
    let results = quantile_batch_by_pivoting(instance, ranking, &[phi], trimmer, options)?;
    Ok(only(results))
}

/// The result of a one-fraction batch: every single-φ entry point is the batch
/// driver asked for one fraction.
pub(crate) fn only(mut results: Vec<QuantileResult>) -> QuantileResult {
    results.pop().expect("one φ in, one result out")
}

/// Reports the executor time a phase accrued on this thread since `before` (a
/// [`qjoin_par::thread_parallel_nanos`] sample taken when the phase started).
/// Only pool-executed regions count, so a 1-thread solve reports nothing.
pub(crate) fn report_parallel(tracer: &dyn SolveTracer, phase: SolvePhase, before: u64) {
    let delta = qjoin_par::thread_parallel_nanos().saturating_sub(before);
    if delta > 0 {
        tracer.parallel(phase, std::time::Duration::from_nanos(delta));
    }
}

/// Materializes the instance's answers, projecting each row onto `original_vars` and
/// keying it by its ranking weight: both leaf passes of the row backend, and the
/// differential oracle the encoded leaf is tested against.
pub(crate) fn materialized_keyed_answers(
    instance: &Instance,
    ranking: &Ranking,
    original_vars: &[Variable],
) -> Result<Vec<(Weight, Vec<qjoin_data::Value>)>> {
    let answers = materialize(instance)?;
    let schema = answers.variables().to_vec();
    let positions = positions_in(&schema, original_vars)?;
    Ok(answers
        .rows()
        .iter()
        .map(|row| {
            let weight = ranking.weight_of_row(&schema, row);
            let projected: Vec<qjoin_data::Value> =
                positions.iter().map(|&p| row[p].clone()).collect();
            (weight, projected)
        })
        .collect())
}

/// Where each of `original_vars` sits in a (possibly trimmed) query's schema.
pub(crate) fn positions_in(schema: &[Variable], original_vars: &[Variable]) -> Result<Vec<usize>> {
    let lost = |v: &Variable| CoreError::Internal(format!("a trimmed query lost variable {v}"));
    let position = |v: &Variable| (schema.iter().position(|s| s == v)).ok_or_else(|| lost(v));
    original_vars.iter().map(position).collect()
}

/// The total order used when selecting from materialized answers: by weight, ties
/// broken by the backend's projected key (values on the row path, dictionary
/// codes on the encoded paths — identical orders by the dictionary's
/// order-preservation invariant).
pub(crate) fn keyed_answer_cmp<K: Ord>(a: &(Weight, K), b: &(Weight, K)) -> std::cmp::Ordering {
    a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1))
}

/// Computes the exact rank window of a weight within the instance's answers:
/// `(strictly_below, equal)` counts. Used by tests and experiments to validate that a
/// returned answer really is a `φ`-quantile (or within ε of one).
pub fn rank_of_weight(
    instance: &Instance,
    ranking: &Ranking,
    weight: &Weight,
) -> Result<(u128, u128)> {
    let answers = materialize(instance)?;
    let schema = answers.variables().to_vec();
    let mut below = 0u128;
    let mut equal = 0u128;
    for row in answers.rows() {
        match ranking.weight_of_row(&schema, row).cmp(weight) {
            std::cmp::Ordering::Less => below += 1,
            std::cmp::Ordering::Equal => equal += 1,
            std::cmp::Ordering::Greater => {}
        }
    }
    Ok((below, equal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trim::{AdjacentSumTrimmer, LexTrimmer, MinMaxTrimmer};
    use qjoin_data::{Database, Relation, Value};
    use qjoin_query::query::path_query;
    use qjoin_query::variable::vars;

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

    /// Checks that the returned answer is a valid φ-quantile: there is an ordering of
    /// the answers in which it sits at the target index, i.e. the target index falls
    /// within the answer's weight window `[below, below + equal)`.
    fn assert_valid_quantile(instance: &Instance, ranking: &Ranking, result: &QuantileResult) {
        let (below, equal) = rank_of_weight(instance, ranking, &result.weight).unwrap();
        assert!(equal >= 1, "returned weight does not belong to any answer");
        assert!(
            result.target_index >= below && result.target_index < below + equal,
            "target {} outside window [{}, {})",
            result.target_index,
            below,
            below + equal
        );
        // The returned assignment is itself an answer of the original query.
        let weight = ranking.weight_of(&result.answer);
        assert_eq!(weight, result.weight);
    }

    #[test]
    fn sum_median_on_binary_join_is_exact() {
        let inst = two_path_instance(60);
        let ranking = Ranking::sum(inst.query().variables());
        let result = quantile_by_pivoting(
            &inst,
            &ranking,
            0.5,
            &AdjacentSumTrimmer,
            &PivotingOptions::default(),
        )
        .unwrap();
        assert!(result.iterations >= 1, "should pivot at least once");
        assert_valid_quantile(&inst, &ranking, &result);
    }

    #[test]
    fn extreme_quantiles_are_the_minimum_and_maximum() {
        let inst = two_path_instance(40);
        let ranking = Ranking::sum(inst.query().variables());
        let min = quantile_by_pivoting(
            &inst,
            &ranking,
            0.0,
            &AdjacentSumTrimmer,
            &PivotingOptions::default(),
        )
        .unwrap();
        let max = quantile_by_pivoting(
            &inst,
            &ranking,
            1.0,
            &AdjacentSumTrimmer,
            &PivotingOptions::default(),
        )
        .unwrap();
        assert_eq!(min.target_index, 0);
        assert_eq!(max.target_index, max.total_answers - 1);
        assert_valid_quantile(&inst, &ranking, &min);
        assert_valid_quantile(&inst, &ranking, &max);
        assert!(min.weight <= max.weight);
    }

    #[test]
    fn many_phis_agree_with_the_brute_force_baseline() {
        let inst = two_path_instance(30);
        let ranking = Ranking::sum(inst.query().variables());
        for phi in [0.05, 0.2, 0.37, 0.5, 0.63, 0.8, 0.99] {
            let result = quantile_by_pivoting(
                &inst,
                &ranking,
                phi,
                &AdjacentSumTrimmer,
                &PivotingOptions::default(),
            )
            .unwrap();
            assert_valid_quantile(&inst, &ranking, &result);
        }
    }

    #[test]
    fn minmax_quantiles_on_three_path() {
        let inst = three_path_instance(25);
        for ranking in [
            Ranking::min(inst.query().variables()),
            Ranking::max(inst.query().variables()),
            Ranking::max(vars(&["x1", "x4"])),
        ] {
            for phi in [0.1, 0.5, 0.9] {
                let result = quantile_by_pivoting(
                    &inst,
                    &ranking,
                    phi,
                    &MinMaxTrimmer,
                    &PivotingOptions::default(),
                )
                .unwrap();
                assert_valid_quantile(&inst, &ranking, &result);
            }
        }
    }

    #[test]
    fn lex_quantiles_on_three_path() {
        let inst = three_path_instance(20);
        let ranking = Ranking::lex(vars(&["x2", "x4", "x1"]));
        for phi in [0.25, 0.5, 0.75] {
            let result = quantile_by_pivoting(
                &inst,
                &ranking,
                phi,
                &LexTrimmer,
                &PivotingOptions::default(),
            )
            .unwrap();
            assert_valid_quantile(&inst, &ranking, &result);
        }
    }

    #[test]
    fn partial_sum_on_three_path_is_exact() {
        let inst = three_path_instance(18);
        let ranking = Ranking::sum(vars(&["x1", "x2", "x3"]));
        for phi in [0.1, 0.5, 0.9] {
            let result = quantile_by_pivoting(
                &inst,
                &ranking,
                phi,
                &AdjacentSumTrimmer,
                &PivotingOptions::default(),
            )
            .unwrap();
            assert_valid_quantile(&inst, &ranking, &result);
        }
    }

    #[test]
    fn small_instances_are_materialized_directly() {
        let inst = two_path_instance(4);
        let ranking = Ranking::sum(inst.query().variables());
        let result = quantile_by_pivoting(
            &inst,
            &ranking,
            0.5,
            &AdjacentSumTrimmer,
            &PivotingOptions::default(),
        )
        .unwrap();
        assert_eq!(result.iterations, 0);
        assert_valid_quantile(&inst, &ranking, &result);
    }

    #[test]
    fn forcing_tiny_threshold_exercises_many_iterations() {
        let inst = two_path_instance(40);
        let ranking = Ranking::sum(inst.query().variables());
        let options = PivotingOptions {
            materialize_threshold: Some(1),
            max_iterations: 256,
        };
        let result =
            quantile_by_pivoting(&inst, &ranking, 0.5, &AdjacentSumTrimmer, &options).unwrap();
        assert_valid_quantile(&inst, &ranking, &result);
        // Convergence must be logarithmic-ish: with c ≥ 1/8 and |Q(D)| ≤ 400, far
        // fewer than 100 iterations are needed.
        assert!(result.iterations < 100);
    }

    #[test]
    fn invalid_phi_and_empty_instances_error() {
        let inst = two_path_instance(5);
        let ranking = Ranking::sum(inst.query().variables());
        assert!(matches!(
            quantile_by_pivoting(
                &inst,
                &ranking,
                1.5,
                &AdjacentSumTrimmer,
                &PivotingOptions::default()
            )
            .unwrap_err(),
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
            quantile_by_pivoting(
                &empty,
                &ranking,
                0.5,
                &AdjacentSumTrimmer,
                &PivotingOptions::default()
            )
            .unwrap_err(),
            CoreError::NoAnswers
        ));
    }
}
