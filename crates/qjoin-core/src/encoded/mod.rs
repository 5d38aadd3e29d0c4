//! The encoded execution layer: the §3 recursion over dictionary codes and
//! selection-vector views — the one representation production solves run on.
//!
//! This module wires the encoded substrate into the quantile driver:
//!
//! * `weights` precomputes per-code weight tables for the ranking;
//! * `search` serves MIN, MAX and LEX without trimming: every candidate set is a
//!   weight window of the plan instance, counted by masked passes over its one
//!   context and pivoted at the window's middle candidate weight (its own backend);
//! * `trim` rebuilds the SUM trimmings of Section 5 as view rewrites (selection
//!   vectors, packed dyadic-interval columns), each the whole `(low, high)` window
//!   of a partition step in one rewrite;
//! * `pivot` runs Algorithm 2 over flat code rows, and keeps its arenas for the
//!   pivot of any set of root rows;
//! * `lossy` builds Algorithm 4's construction once per ε-lossy solve and serves
//!   every trim of it as a selection of its root rows (its own backend);
//! * this file provides the SUM solve backend — including the two passes of the
//!   leaf (`crate::leaf`) every backend walks with: a walk that copies only the
//!   weighted codes and keeps `(weight, root row)`, then a walk of the few root rows
//!   holding a tie that builds `CodeKey`s — plus the entry points
//!   [`exact_quantile_batch_encoded_traced`] and
//!   [`approximate_sum_quantile_batch_encoded_traced`].
//!
//! Exact SUM answers are pointwise identical to the row reference backend's
//! ([`crate::quantile`]) — same pivots, same partition counts, same final answer —
//! and MIN/MAX/LEX ones equal in weight, rank and (with no round) answer, which the
//! cross-crate equivalence suite asserts over random instances, all ranking
//! families, and boundary φ values. An instance or construction past the
//! representation's fixed-width limits (more rows than `u32` indexes, more dyadic
//! join groups than the packed interval code holds) is refused with
//! [`CoreError::TooLarge`](crate::CoreError::TooLarge).

pub(crate) mod lossy;
pub(crate) mod pivot;
pub(crate) mod search;
pub(crate) mod trim;
pub(crate) mod weights;

use crate::batch::quantile_batch_backend;
use crate::leaf::locator;
use crate::pivot::PivotResult;
use crate::quantile::{positions_in, PivotingOptions, QuantileResult, SolveBackend};
use crate::Result;
use lossy::{Candidates, LossyBackend};
use qjoin_exec::encoded::{self as exec_encoded, EncodedCounts};
use qjoin_exec::EncodedContext;
use qjoin_query::{Assignment, EncodedInstance, Variable};
use qjoin_ranking::{AggregateKind, CmpOp, Ranking, Weight, WeightBound};
use search::SearchBackend;
use weights::{CodeWeights, WeightFold};

/// How many projected codes a [`CodeKey`] stores without a heap allocation.
/// Sized for the workloads' widest projections (the star schema projects five
/// variables); wider queries spill to a `Vec`.
const CODE_KEY_INLINE: usize = 6;

/// A leaf answer key: the answer's projected dictionary codes, built only for the
/// answers tied with a target weight. Keys up to [`CODE_KEY_INLINE`] codes wide
/// live inline, so sorting a wide tie band (every weight equal, say) compares
/// contiguous buffers instead of chasing a pointer per candidate.
///
/// Ordering (and equality) is the lexicographic order of the code slice,
/// regardless of representation; codes are order-preserving, so this equals the
/// row path's projected-value order.
#[derive(Clone, Debug)]
pub(crate) enum CodeKey {
    Inline {
        len: u8,
        buf: [u64; CODE_KEY_INLINE],
    },
    Heap(Vec<u64>),
}

impl CodeKey {
    fn from_iter_of_len(len: usize, codes: impl Iterator<Item = u64>) -> CodeKey {
        if len <= CODE_KEY_INLINE {
            let mut buf = [0u64; CODE_KEY_INLINE];
            for (slot, code) in buf.iter_mut().zip(codes) {
                *slot = code;
            }
            CodeKey::Inline {
                len: len as u8,
                buf,
            }
        } else {
            CodeKey::Heap(codes.collect())
        }
    }

    pub(crate) fn as_slice(&self) -> &[u64] {
        match self {
            CodeKey::Inline { len, buf } => &buf[..*len as usize],
            CodeKey::Heap(v) => v,
        }
    }
}

impl PartialEq for CodeKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for CodeKey {}

impl PartialOrd for CodeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CodeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

/// The exact SUM solve backend: counts, pivots, trims, and walks leaves over an
/// [`EncodedInstance`], decoding only at the answer boundary. The ε-lossy and the
/// MIN/MAX/LEX backends ([`lossy::LossyBackend`], [`SearchBackend`]) wrap it for
/// their leaf walks (and the ε one for the instance it starts from).
pub(crate) struct EncodedBackend<'a> {
    ranking: &'a Ranking,
    weights: CodeWeights,
    dictionary: std::sync::Arc<qjoin_data::Dictionary>,
}

impl<'a> EncodedBackend<'a> {
    /// Builds the backend for one solve: precomputes the per-code weight tables.
    pub(crate) fn new(instance: &EncodedInstance, ranking: &'a Ranking) -> EncodedBackend<'a> {
        EncodedBackend {
            ranking,
            weights: CodeWeights::build(instance.dictionary(), ranking),
            dictionary: std::sync::Arc::clone(instance.dictionary()),
        }
    }

    /// One leaf walk of `ctx`: `per_answer(out, root row, weight, codes)` for every
    /// answer under the root rows `only` lists (under all of them when `None`), in
    /// root-row chunks over the executor pool, and only the answers of a mask when
    /// handed its `counts`. The chunks concatenate in canonical order, so the result
    /// is the sequence a sequential walk produces at any thread count.
    /// `weights_only` walks with just the weighted slots of `codes` filled.
    fn leaf_walk<T: Send>(
        &self,
        ctx: &EncodedContext,
        weights_only: bool,
        only: Option<&[u32]>,
        counts: Option<&EncodedCounts>,
        per_answer: impl Fn(&mut Vec<T>, u32, Weight, &[u64]) + Sync,
    ) -> Result<Vec<T>> {
        let schema = ctx.query().variables();
        let position_of = |v: &Variable| schema.iter().position(|s| s == v);
        let fold = WeightFold::new(self.ranking, &self.weights, position_of);
        // Every root row has a 32-bit locator, or the walk does not start.
        locator(ctx.node(ctx.root()).rows.len())?;
        let needed = weights_only.then(|| fold.needed_slots(schema.len()));
        let per_answer = |out: &mut Vec<T>, root: usize, codes: &[u64]| {
            let root = locator(root).expect("every root row was checked to have one");
            per_answer(out, root, fold.weight_of(codes), codes)
        };
        let chunk = qjoin_par::DEFAULT_CHUNK;
        let chunks = exec_encoded::walk_answer_chunks(
            ctx,
            needed.as_deref(),
            only,
            counts,
            chunk,
            Vec::new,
            per_answer,
        );
        let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        chunks.into_iter().for_each(|chunk| out.extend(chunk));
        Ok(out)
    }

    /// Pass 1 of the leaf over the answers under `only` (every root row when
    /// `None`) that `counts` leaves: the walk copies only the codes the ranking
    /// weighs, and nothing is decoded or keyed. Each answer's locator is its root
    /// row of `ctx`.
    fn leaf_weights_in(
        &self,
        ctx: &EncodedContext,
        only: Option<&[u32]>,
        counts: Option<&EncodedCounts>,
    ) -> Result<Vec<(Weight, u32)>> {
        self.leaf_walk(ctx, true, only, counts, |out, root, weight, _| {
            out.push((weight, root))
        })
    }

    /// Pass 2 of the leaf over the root rows `roots` of `ctx`. Nothing is decoded
    /// here either: the dictionary's codes are order-preserving, so the projected
    /// code vectors sort exactly like the projected value vectors would, and only a
    /// selected answer is decoded.
    fn leaf_band_in(
        &self,
        ctx: &EncodedContext,
        original_vars: &[Variable],
        roots: &[u32],
        counts: Option<&EncodedCounts>,
        wanted: &(dyn Fn(&Weight) -> bool + Sync),
    ) -> Result<Vec<(Weight, CodeKey)>> {
        let projected = positions_in(&ctx.query().variables(), original_vars)?;
        self.leaf_walk(ctx, false, Some(roots), counts, |out, _, weight, codes| {
            if wanted(&weight) {
                let key = projected.iter().map(|&p| codes[p]);
                out.push((weight, CodeKey::from_iter_of_len(projected.len(), key)));
            }
        })
    }
}

impl SolveBackend for EncodedBackend<'_> {
    type Inst = EncodedInstance;

    fn count(&self, instance: &EncodedInstance) -> Result<u128> {
        Ok(exec_encoded::count_answers(instance)?)
    }

    fn database_size(&self, instance: &EncodedInstance) -> usize {
        instance.total_rows()
    }

    fn select_pivot(&self, instance: &EncodedInstance) -> Result<PivotResult> {
        pivot::select_pivot_encoded(instance, self.ranking, &self.weights)
    }

    #[cfg(test)]
    fn trim(
        &self,
        instance: &EncodedInstance,
        predicate: &qjoin_ranking::RankPredicate,
    ) -> Result<EncodedInstance> {
        let (low, high) = crate::trim::sum::window_of(predicate);
        trim::sum_trim_encoded(instance, self.ranking, &low, &high, &self.weights)
    }

    fn trim_between(
        &self,
        instance: &EncodedInstance,
        low: &WeightBound,
        high: &WeightBound,
        _: CmpOp,
    ) -> Result<EncodedInstance> {
        trim::sum_trim_encoded(instance, self.ranking, low, high, &self.weights)
    }

    type Key = CodeKey;

    fn leaf_weights(&self, instance: &EncodedInstance) -> Result<Vec<(Weight, u32)>> {
        let ctx = exec_encoded::shared_context(instance)?;
        self.leaf_weights_in(&ctx, None, None)
    }

    fn leaf_band(
        &self,
        instance: &EncodedInstance,
        original_vars: &[Variable],
        roots: &[u32],
        wanted: &(dyn Fn(&Weight) -> bool + Sync),
    ) -> Result<Vec<(Weight, CodeKey)>> {
        let ctx = exec_encoded::shared_context(instance)?;
        self.leaf_band_in(&ctx, original_vars, roots, None, wanted)
    }

    fn answer_from_key(&self, original_vars: &[Variable], key: &CodeKey) -> Assignment {
        decode_answer_key(&self.dictionary, original_vars, key.as_slice())
    }
}

/// Decodes one selected leaf key back to an [`Assignment`] over the original
/// variables — the encoded paths' single decode point per leaf target.
fn decode_answer_key(
    dictionary: &qjoin_data::Dictionary,
    original_vars: &[Variable],
    key: &[u64],
) -> Assignment {
    Assignment::from_pairs(
        original_vars
            .iter()
            .cloned()
            .zip(key.iter().map(|&code| dictionary.decode(code).clone())),
    )
}

/// Computes exact `φ`-quantiles for every fraction in `phis` over an already-encoded
/// instance, reporting per-phase timing to `tracer` (see [`crate::trace`]): the
/// [`Accuracy::Exact`](crate::plan::Accuracy::Exact) route of
/// [`Plan::solve`](crate::plan::Plan::solve), public only for `perfbench/`.
///
/// SUM results are pointwise identical to
/// [`quantile_batch_by_pivoting`](crate::batch::quantile_batch_by_pivoting) with the
/// adjacent-pair trimmer. MIN/MAX/LEX ones search the weight domain instead
/// (the `search` module): the same weight and rank as the trimmers', and a tied answer that may
/// differ once a round has run. A construction past the representation's fixed-width
/// limits is refused with [`CoreError::TooLarge`](crate::CoreError::TooLarge), a SUM
/// that trims over a non-finite weight with
/// [`CoreError::UnsupportedRanking`](crate::CoreError::UnsupportedRanking).
pub fn exact_quantile_batch_encoded_traced(
    instance: &EncodedInstance,
    ranking: &Ranking,
    phis: &[f64],
    options: &PivotingOptions,
    tracer: &dyn crate::trace::SolveTracer,
) -> Result<Vec<QuantileResult>> {
    let vars = instance.query().variables();
    if ranking.kind() != AggregateKind::Sum {
        let backend = SearchBackend::new(instance, ranking)?;
        let everything = backend.everything();
        return quantile_batch_backend(&backend, &everything, phis, options, &vars, tracer);
    }
    let backend = EncodedBackend::new(instance, ranking);
    quantile_batch_backend(&backend, instance, phis, options, &vars, tracer)
}

/// Computes ε-approximate SUM `φ`-quantiles over an encoded instance: the same
/// driver as [`exact_quantile_batch_encoded_traced`], but every trim is a window of
/// one ε-lossy construction of `instance` (Algorithm 4, kept in its exec memo).
///
/// `per_trim_epsilon` is the *per-invocation* loss budget. The row reference's
/// two-pass `LossySumTrimmer` solve returns the same answers while no sketch
/// compresses, and answers within ε of these beyond. The
/// [`Accuracy::Approximate`](crate::plan::Accuracy::Approximate) route of
/// [`Plan::solve`](crate::plan::Plan::solve), public only for `perfbench/`.
pub fn approximate_sum_quantile_batch_encoded_traced(
    instance: &EncodedInstance,
    ranking: &Ranking,
    phis: &[f64],
    per_trim_epsilon: f64,
    options: &PivotingOptions,
    tracer: &dyn crate::trace::SolveTracer,
) -> Result<Vec<QuantileResult>> {
    let backend = LossyBackend::new(instance, ranking, per_trim_epsilon);
    let source = Candidates::Source(instance.clone());
    let original_vars = instance.query().variables();
    quantile_batch_backend(&backend, &source, phis, options, &original_vars, tracer)
}
