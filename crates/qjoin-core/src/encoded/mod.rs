//! The encoded execution layer: the §3 recursion over dictionary codes and
//! selection-vector views — the one representation production solves run on.
//!
//! This module wires the encoded substrate into the quantile driver:
//!
//! * `weights` precomputes per-code weight tables for the ranking, and SUM's
//!   per-row partial sums;
//! * `search` serves MIN, MAX, LEX and a SUM one atom covers without trimming:
//!   every candidate set is a weight window of the plan instance, counted by masked
//!   passes over its one context and pivoted at the window's middle candidate
//!   weight (its own backend);
//! * `pair` serves a SUM an adjacent pair of atoms covers (Lemma 5.5's cover)
//!   without its construction: a window is a slice of each A row's B group, sorted
//!   by partial sum, counted over one context per generation and pivoted by an
//!   X+Y weighted median (its own backend);
//! * `pivot` runs Algorithm 2 over flat code rows, and keeps its arenas for the
//!   pivot of any set of root rows;
//! * `lossy` builds Algorithm 4's construction once per ε-lossy solve and serves
//!   every trim of it as a selection of its root rows (its own backend);
//! * this file provides the leaf every backend walks with (`crate::leaf`): a walk
//!   that copies only the weighted codes and keeps `(weight, root row)`, then a
//!   walk of the few root rows holding a tie that builds `CodeKey`s — plus the
//!   entry points [`exact_quantile_batch_encoded_traced`] and
//!   [`approximate_sum_quantile_batch_encoded_traced`].
//!
//! Exact answers are the brute force's (`tests/common`) in weight and rank and,
//! with no round, answer; ε ones are within ε of it, and exact while no sketch
//! compresses. The oracle and equivalence suites assert both over random
//! instances, all ranking families, and boundary φ values. An instance past the
//! representation's fixed-width limits (more rows than `u32` indexes) is refused
//! with [`CoreError::TooLarge`](crate::CoreError::TooLarge).

pub(crate) mod lossy;
pub(crate) mod pair;
pub(crate) mod pivot;
pub(crate) mod search;
pub(crate) mod weights;

use crate::batch::quantile_batch_backend;
use crate::leaf::locator;
use crate::quantile::{positions_in, PivotingOptions, QuantileResult};
use crate::Result;
use lossy::{Candidates, LossyBackend};
use pair::PairBackend;
use qjoin_exec::encoded::{self as exec_encoded, WalkFilter};
use qjoin_exec::EncodedContext;
use qjoin_query::{Assignment, EncodedInstance, Variable};
use qjoin_ranking::{AggregateKind, Ranking, Weight};
use search::SearchBackend;
use std::sync::{Arc, OnceLock};
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
/// projected values' order.
#[derive(Clone, Debug)]
pub(crate) enum CodeKey {
    Inline {
        len: u8,
        buf: [u64; CODE_KEY_INLINE],
    },
    Heap(Vec<u64>),
}

impl CodeKey {
    pub(crate) fn from_iter_of_len(len: usize, codes: impl Iterator<Item = u64>) -> CodeKey {
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

/// The leaf of every encoded backend: per-code weights, and the two leaf passes
/// over a context, decoding only at the answer boundary. The pair, search and
/// ε-lossy backends ([`PairBackend`], [`SearchBackend`], [`lossy::LossyBackend`])
/// walk their leaves with it.
pub(crate) struct EncodedBackend<'a> {
    ranking: &'a Ranking,
    weights: Arc<CodeWeights>,
    dictionary: Arc<qjoin_data::Dictionary>,
}

impl<'a> EncodedBackend<'a> {
    /// Builds the backend for one solve, over the instance's per-code weight tables
    /// ([`CodeWeights::shared`]).
    pub(crate) fn new(instance: &EncodedInstance, ranking: &'a Ranking) -> EncodedBackend<'a> {
        EncodedBackend {
            ranking,
            weights: CodeWeights::shared(instance, ranking),
            dictionary: Arc::clone(instance.dictionary()),
        }
    }

    /// One leaf walk of `ctx`: `per_answer(out, root row, weight, codes)` for every
    /// answer under the root rows `only` lists (under all of them when `None`) that
    /// `filter` leaves, in root-row chunks over the executor pool. The chunks
    /// concatenate in canonical order, so the result is the sequence a sequential
    /// walk produces at any thread count. `weights_only` walks with just the
    /// weighted slots of `codes` filled.
    fn leaf_walk<T: Send>(
        &self,
        ctx: &EncodedContext,
        weights_only: bool,
        only: Option<&[u32]>,
        filter: Option<WalkFilter>,
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
            filter,
            chunk,
            Vec::new,
            per_answer,
        );
        let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        chunks.into_iter().for_each(|chunk| out.extend(chunk));
        Ok(out)
    }

    /// Pass 1 of the leaf over the answers under `only` (every root row when
    /// `None`) that `filter` leaves: the walk copies only the codes the ranking
    /// weighs, and nothing is decoded or keyed. Each answer's locator is its root
    /// row of `ctx`.
    fn leaf_weights_in(
        &self,
        ctx: &EncodedContext,
        only: Option<&[u32]>,
        filter: Option<WalkFilter>,
    ) -> Result<Vec<(Weight, u32)>> {
        self.leaf_walk(ctx, true, only, filter, |out, root, weight, _| {
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
        filter: Option<WalkFilter>,
        wanted: &(dyn Fn(&Weight) -> bool + Sync),
    ) -> Result<Vec<(Weight, CodeKey)>> {
        let projected = positions_in(&ctx.query().variables(), original_vars)?;
        self.leaf_walk(ctx, false, Some(roots), filter, |out, _, weight, codes| {
            if wanted(&weight) {
                let key = projected.iter().map(|&p| codes[p]);
                out.push((weight, CodeKey::from_iter_of_len(projected.len(), key)));
            }
        })
    }

    fn answer_from_key(&self, original_vars: &[Variable], key: &CodeKey) -> Assignment {
        decode_answer_key(&self.dictionary, original_vars, key.as_slice())
    }

    /// The first answer the walk of `ctx` under root row `root` and `filter` meets,
    /// decoded over the context's variables; `None` when there is none.
    fn first_answer(
        &self,
        ctx: &EncodedContext,
        root: u32,
        filter: Option<WalkFilter>,
    ) -> Option<Assignment> {
        let keep_first = |out: &mut Option<Vec<u64>>, _: usize, codes: &[u64]| {
            out.get_or_insert_with(|| codes.to_vec());
        };
        let chunk = qjoin_par::DEFAULT_CHUNK;
        let walked = exec_encoded::walk_answer_chunks(
            ctx,
            None,
            Some(&[root]),
            filter,
            chunk,
            || None,
            keep_first,
        );
        let codes = walked.into_iter().flatten().next()?;
        let decode = |(v, c): (Variable, u64)| (v, self.dictionary.decode(c).clone());
        let vars = ctx.query().variables().into_iter();
        Some(Assignment::from_pairs(vars.zip(codes).map(decode)))
    }
}

/// A solve's per-generation value: pinned in `cell` for the solve, and taken from
/// the instance's exec memo if `is_for` it, or else built and left there (in the
/// slot of its type). Built outside every lock and not inside `get_or_init`: a build
/// runs pool regions, and a thread waiting on one may be handed work that asks for
/// the same value, which would re-enter here. Racing threads build identical values.
fn memoised<'c, T: std::any::Any + Send + Sync>(
    cell: &'c OnceLock<Arc<T>>,
    instance: &EncodedInstance,
    is_for: impl Fn(&T) -> bool,
    build: impl FnOnce() -> Result<T>,
) -> Result<&'c Arc<T>> {
    if let Some(value) = cell.get() {
        return Ok(value);
    }
    let memo = instance.exec_memo();
    let value = match memo.get::<T>().filter(|value| is_for(value)) {
        Some(value) => value,
        None => {
            let value = Arc::new(build()?);
            memo.set(Arc::clone(&value));
            value
        }
    };
    Ok(cell.get_or_init(|| value))
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
/// No route trims: MIN, MAX, LEX and a SUM one atom covers search the weight
/// domain (the `search` module), a SUM an adjacent pair covers counts windows of
/// one context per generation (the `pair` module). Each returns the weight and rank
/// a full sort of the answers holds at the target, and the very answer there when
/// no round ran (after one, a tied answer may differ). A SUM over a non-finite weight is refused with
/// [`CoreError::UnsupportedRanking`](crate::CoreError::UnsupportedRanking) at its
/// first round, and one past the representation's limits with
/// [`CoreError::TooLarge`](crate::CoreError::TooLarge).
pub fn exact_quantile_batch_encoded_traced(
    instance: &EncodedInstance,
    ranking: &Ranking,
    phis: &[f64],
    options: &PivotingOptions,
    tracer: &dyn crate::trace::SolveTracer,
) -> Result<Vec<QuantileResult>> {
    let vars = instance.query().variables();
    if ranking.kind() == AggregateKind::Sum && !one_atom_covers(instance, ranking) {
        let backend = PairBackend::new(instance, ranking)?;
        let everything = backend.everything();
        return quantile_batch_backend(&backend, &everything, phis, options, &vars, tracer);
    }
    let backend = SearchBackend::new(instance, ranking)?;
    let everything = backend.everything();
    quantile_batch_backend(&backend, &everything, phis, options, &vars, tracer)
}

/// Whether one atom binds every weighted variable the query binds.
fn one_atom_covers(instance: &EncodedInstance, ranking: &Ranking) -> bool {
    let query = instance.query();
    let weighted = || {
        ranking
            .weighted_vars()
            .iter()
            .filter(|v| query.contains_variable(v))
    };
    query
        .atoms()
        .iter()
        .any(|atom| weighted().all(|v| atom.contains(v)))
}

/// Computes ε-approximate SUM `φ`-quantiles over an encoded instance: the same
/// driver as [`exact_quantile_batch_encoded_traced`], but every trim is a window of
/// one ε-lossy construction of `instance` (Algorithm 4, kept in its exec memo).
///
/// `per_trim_epsilon` is the *per-invocation* loss budget. The answers are exact
/// while no sketch compresses (see the `lossy` module). The
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pivot::PivotResult;
    use crate::quantile::SolveBackend;
    use crate::CoreError;
    use qjoin_data::Value;
    use qjoin_ranking::WeightBound;

    /// The leaf and pivot of a whole encoded instance, with no trim: the untrimmed
    /// twin the leaf, pivot and lossy suites hold the lossy windows to.
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

        fn trim_between(
            &self,
            _: &EncodedInstance,
            _: &WeightBound,
            _: &WeightBound,
        ) -> Result<EncodedInstance> {
            Err(CoreError::Internal(
                "the whole-instance twin does not trim".into(),
            ))
        }

        fn leaf_weights(&self, instance: &EncodedInstance) -> Result<Vec<(Weight, u32)>> {
            self.leaf_weights_in(&*exec_encoded::shared_context(instance)?, None, None)
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
            EncodedBackend::answer_from_key(self, original_vars, key)
        }
    }

    /// The answers of a backend instance as sorted `(weight, original values)`
    /// pairs — a multiset, so a window that duplicated or dropped an answer shows up.
    pub(crate) fn answers_of<B: SolveBackend>(
        backend: &B,
        instance: &B::Inst,
        original: &[Variable],
    ) -> Vec<(Weight, Vec<Value>)> {
        // Both leaf passes, asked for everything: every locator, any weight.
        let mut locators: Vec<u32> = (backend.leaf_weights(instance).unwrap())
            .into_iter()
            .map(|(_, locator)| locator)
            .collect();
        locators.sort_unstable();
        locators.dedup();
        let mut out: Vec<(Weight, Vec<Value>)> = backend
            .leaf_band(instance, original, &locators, &|_| true)
            .unwrap()
            .into_iter()
            .map(|(weight, key)| {
                let answer = backend.answer_from_key(original, &key);
                let values = original
                    .iter()
                    .map(|v| answer.get(v).expect("original variable").clone())
                    .collect();
                (weight, values)
            })
            .collect();
        out.sort();
        out
    }
}
