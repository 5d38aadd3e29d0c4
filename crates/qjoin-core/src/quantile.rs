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
//! Every solve runs on the encoded backends ([`crate::encoded`]); an independent
//! brute force (the workspace's `tests/common`) checks each of their routes.

use crate::encoded::CodeKey;
use crate::pivot::PivotResult;
use crate::trace::{SolvePhase, SolveTracer};
use crate::{CoreError, Result};
use qjoin_exec::yannakakis::materialize;
use qjoin_query::{Assignment, Instance, Variable};
use qjoin_ranking::{Ranking, Weight, WeightBound};

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
/// representation: the encoded search, pair and ε-lossy backends
/// ([`crate::encoded`]). (`Sync` on the backend and `Send + Sync` on the
/// instances lets the driver rebuild the less-than and greater-than partitions
/// as the two arms of a [`qjoin_par::par_join`]; every backend is plain shared
/// data.)
pub(crate) trait SolveBackend: Sync {
    /// The instance representation the backend recurses over.
    type Inst: Clone + Send + Sync;

    /// `|Q(D)|` of an instance (a linear-time Yannakakis counting pass).
    fn count(&self, instance: &Self::Inst) -> Result<u128>;

    /// The rows an instance hands a round: the database size `n` of the original
    /// (the default materialization threshold), a trimmed side's view rows.
    fn database_size(&self, instance: &Self::Inst) -> usize;

    /// A pivot of the instance's answers: Algorithm 2's `c`-pivot on the ε route,
    /// a candidate weight inside the window on the exact ones.
    fn select_pivot(&self, instance: &Self::Inst) -> Result<PivotResult>;

    /// Trims the instance to the answers whose weight lies strictly inside the open
    /// window `(low, high)` — the partition primitive of the driver (see
    /// [`partition_round`]).
    fn trim_between(
        &self,
        instance: &Self::Inst,
        low: &WeightBound,
        high: &WeightBound,
    ) -> Result<Self::Inst>;

    /// Pass 1 of the leaf: the weight of every answer of the instance, each with a
    /// locator that [`leaf_band`](Self::leaf_band) can walk again (the root row,
    /// which many answers share).
    fn leaf_weights(&self, instance: &Self::Inst) -> Result<Vec<(Weight, u32)>>;

    /// Pass 2 of the leaf: `(weight, key projected onto original_vars)` of every
    /// answer under `locators` (ascending, distinct) whose weight — recomputed, bit
    /// for bit as in pass 1 — `wanted` admits. The key is the tie-break of the final
    /// selection: the projected dictionary codes, which order exactly as the
    /// projected values do.
    fn leaf_band(
        &self,
        instance: &Self::Inst,
        original_vars: &[Variable],
        locators: &[u32],
        wanted: &(dyn Fn(&Weight) -> bool + Sync),
    ) -> Result<Vec<(Weight, CodeKey)>>;

    /// Reassembles one selected key into an [`Assignment`] over the original
    /// variables — the only point a backend has to produce row values, so it
    /// decodes exactly one answer per leaf target instead of every candidate.
    fn answer_from_key(&self, original_vars: &[Variable], key: &CodeKey) -> Assignment;
}

/// One side of a partition step: the trimmed candidate instance and its answer count.
pub(crate) type Side<I> = (I, u128);

/// One partition step of Algorithm 1: rebuilds, from the *original*
/// instance, the candidates below the pivot — the window `(low, pivot)` — and
/// above it — `(pivot, high)` — and returns each with its answer count, less-than
/// side first. The two sides are independent, so their trim+count pairs run as the two arms of a join
/// (sequentially, less-than first, when the pool has one thread).
pub(crate) fn partition_round<B: SolveBackend>(
    backend: &B,
    instance: &B::Inst,
    low: &WeightBound,
    high: &WeightBound,
    pivot_weight: &Weight,
) -> Result<[Side<B::Inst>; 2]> {
    let pivot = WeightBound::Finite(pivot_weight.clone());
    let side = |low: &WeightBound, high: &WeightBound| -> Result<Side<B::Inst>> {
        let trimmed = backend.trim_between(instance, low, high)?;
        let count = backend.count(&trimmed)?;
        Ok((trimmed, count))
    };
    let (lt, gt) = qjoin_par::par_join(|| side(low, &pivot), || side(&pivot, high));
    Ok([lt?, gt?])
}

/// The result of a one-fraction batch.
#[cfg(test)]
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
/// keying it by its ranking weight: the materialize-and-sort reference the
/// backends' unit tests hold their windows and leaves to.
#[cfg(test)]
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
/// broken by the projected key (dictionary codes, which order as the values do
/// by the dictionary's order-preservation invariant).
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
