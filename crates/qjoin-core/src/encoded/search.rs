//! MIN, MAX and LEX by searching the weight domain on the root context.
//!
//! Every answer weight is a **candidate**: MIN/MAX weigh what one weighted variable
//! weighs (or the identity `±∞`), and LEX component `i` is a function of one
//! variable's code. On either side of a bound the answers are a disjoint union of
//! **conjunctions**, one range of candidates per [`Term`]: MIN `w ≥ λ` is every
//! variable `≥ λ`, and `w < λ` splits by the first variable `< λ` (those before it
//! `≥ λ`); MAX mirrors it; LEX `w < λ` splits by the first component below `λ`'s,
//! those before it equal. One masked pass over the plan instance's own context
//! counts a conjunction ([`subtree_counts`](exec_encoded::subtree_counts)): no
//! trimmed instance, no new context, no pivot scan. A [`Window`] carries the counts
//! at its two bounds, sums of conjunction counts memoised per solve.
//!
//! The pivot is the middle candidate strictly inside the window, one component at
//! a time: the middle of the first differing component's candidates between the
//! bounds, later components at their least, so each component's candidates halve
//! per round and a solve takes at most Σᵢ (⌈log₂ Kᵢ⌉ + 1) rounds. Its assignment is
//! the first answer of exactly its weight, under the **tie band**: `w ≥ λ` meets
//! `w ≤ λ` (for MIN, conjunction `i` puts variable `i` at `λ`, those before it
//! above, those after at or above). The leaf walks exactly a window's answers, one
//! masked walk per conjunction, and selects by `(weight, key)` like every route.
//! Ranks order values by [`f64::total_cmp`], [`Weight`]'s order. No Theorem 5.3
//! or §5.2 Algorithm-3 trim is built: a window is the trim's answers.

use super::weights::CodeWeights;
use super::{memoised, CodeKey, EncodedBackend};
use crate::pivot::PivotResult;
use crate::quantile::SolveBackend;
use crate::{CoreError, Result};
use qjoin_exec::encoded::{self as exec_encoded, EncodedCounts, MaskTerm, WalkFilter};
use qjoin_exec::{EncodedContext, EncodedNode};
use qjoin_query::{Assignment, EncodedInstance, Variable};
use qjoin_ranking::{AggregateKind, Ranking, Weight, WeightBound};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A half-open range `[a, b)` of a term's candidate indices.
type Range = (u32, u32);

/// One range per [`Term`]: the answers each of whose terms lies in its range.
type Conj = Vec<Range>;

/// One term of a weight: a weighted variable's weight (MIN/MAX), or a LEX component
/// (its variable weighed once per listing, or `0.0` when unbound or listed before).
struct Term {
    /// Per node id, the candidate index of each surviving row's value, if the node
    /// binds the variable.
    rows: Vec<Option<Vec<u32>>>,
    /// The values the surviving rows take, ascending under `total_cmp`, distinct.
    values: Vec<f64>,
}

impl Term {
    /// The term whose value on row `i` of node `n` is `per_node[n][i]`, a node
    /// holding `None` unbound by it. The candidates are the first bound node's
    /// values (the full reducer leaves every node binding a variable the same
    /// ones), or `0.0` when no node is bound.
    fn new(per_node: Vec<Option<Vec<f64>>>) -> Term {
        let first = per_node.iter().flatten().next().cloned();
        let mut values: Vec<f64> = first.unwrap_or_else(|| vec![0.0]);
        values.sort_unstable_by(f64::total_cmp);
        values.dedup_by(|a, b| a.to_bits() == b.to_bits());
        let rank = |w: f64| values.partition_point(|v| v.total_cmp(&w).is_lt()) as u32;
        let rows = (per_node.into_iter())
            .map(|node| Some(node?.into_iter().map(rank).collect()))
            .collect();
        Term { rows, values }
    }

    /// `var` weighed by `table` (a value per code), or `0.0` when `var` is `None`.
    fn of(ctx: &EncodedContext, var: Option<&Variable>, table: &[f64]) -> Term {
        let atom = |node: &EncodedNode| ctx.query().atom(node.atom_index);
        let weigh = |node: &EncodedNode| {
            let col = *atom(node).positions_of(var?).first()?;
            let code = |i: usize| ctx.code(node.node_id, i, col) as usize;
            Some((0..node.rows.len()).map(|i| table[code(i)]).collect())
        };
        Term::new(ctx.nodes().iter().map(weigh).collect())
    }

    /// A SUM one node covers, as one term: its rows' sums of the weighted variables
    /// the query binds, folded from `0.0` in the ranking's order (a variable listed
    /// twice added twice), bit for bit the weight of every answer through the row.
    fn row_sums(ctx: &EncodedContext, vars: &[Variable], weights: &CodeWeights) -> Option<Term> {
        let bound: Vec<&Variable> = (vars.iter())
            .filter(|v| ctx.query().contains_variable(v))
            .collect();
        let atom = |node: &EncodedNode| ctx.query().atom(node.atom_index);
        let covers = |node: &&EncodedNode| bound.iter().all(|v| atom(node).contains(v));
        let node = ctx.nodes().iter().find(covers)?;
        let cols: Vec<(&[f64], usize)> = (bound.iter())
            .map(|v| (weights.table(v), atom(node).positions_of(v)[0]))
            .collect();
        let code = |i: usize, col: usize| ctx.code(node.node_id, i, col) as usize;
        let sum = |i| cols.iter().fold(0.0, |s, (w, c)| s + w[code(i, *c)]);
        let mut per_node = vec![None; ctx.nodes().len()];
        per_node[node.node_id] = Some((0..node.rows.len()).map(sum).collect());
        Some(Term::new(per_node))
    }

    fn all(&self) -> Range {
        (0, self.values.len() as u32)
    }

    /// `λ` and beyond it, upward or downward (`strict`: strictly beyond).
    fn from(&self, lambda: f64, strict: bool, upward: bool) -> Range {
        let before = |at: bool| {
            self.values.partition_point(|v| {
                v.total_cmp(&lambda).is_lt() || at && v.total_cmp(&lambda).is_eq()
            }) as u32
        };
        match upward {
            true => (before(strict), self.all().1),
            false => (0, before(!strict)),
        }
    }

    /// Exactly `λ`.
    fn at(&self, lambda: f64) -> Range {
        (
            self.from(lambda, false, true).0,
            self.from(lambda, false, false).1,
        )
    }
}

/// What a MIN/MAX/LEX solve recurses over: the answers of weight strictly inside
/// `(low, high)`, with the number at or below `low` and the number below `high`.
#[derive(Clone, Debug)]
pub(crate) struct Window {
    low: WeightBound,
    high: WeightBound,
    counts: [u128; 2],
    /// Its conjunctions' masked counts, from a leaf's first pass for its second.
    leaf: Arc<OnceLock<Vec<Option<EncodedCounts>>>>,
}

/// A ranking's terms and candidates over an instance's context, kept in the
/// instance's exec memo (one slot: the latest ranking's).
struct Domain {
    ranking: Ranking,
    terms: Vec<Term>,
    /// Per component, the candidates ascending: every term's values for MIN/MAX
    /// (and the identity when it can be a weight), each term's for LEX.
    levels: Vec<Vec<f64>>,
}

impl Domain {
    fn build(instance: &EncodedInstance, ranking: &Ranking, weights: &CodeWeights) -> Result<Self> {
        let ctx = exec_encoded::shared_context(instance)?;
        let (kind, vars) = (ranking.kind(), ranking.weighted_vars());
        let bound = |var: &&Variable| ctx.query().contains_variable(var);
        if kind == AggregateKind::Sum {
            super::weights::refuse_non_finite(instance, ranking, weights)?;
            let uncovered = || CoreError::IntractableSum("no atom covers the SUM".into());
            let term = Term::row_sums(&ctx, vars, weights).ok_or_else(uncovered)?;
            let levels = vec![term.values.clone()];
            let ranking = ranking.clone();
            return Ok(Domain {
                ranking,
                terms: vec![term],
                levels,
            });
        }
        if kind == AggregateKind::Lex {
            let terms: Vec<Term> = (vars.iter().enumerate())
                .map(|(i, var)| {
                    let first = vars.iter().position(|v| v == var) == Some(i);
                    // The weight fold adds a variable listed twice twice, at its first.
                    let times = vars.iter().filter(|v| *v == var).count();
                    let table = weights.table(var).iter();
                    let table: Vec<f64> = table
                        .map(|&w| (0..times).fold(0.0, |acc, _| acc + w))
                        .collect();
                    Term::of(&ctx, Some(var).filter(|v| first && bound(v)), &table)
                })
                .collect();
            let levels = terms.iter().map(|term| term.values.clone()).collect();
            return Ok(Domain {
                ranking: ranking.clone(),
                terms,
                levels,
            });
        }
        let mut distinct: Vec<&Variable> = vars.iter().filter(bound).collect();
        distinct.sort();
        distinct.dedup();
        let terms: Vec<Term> = (distinct.into_iter())
            .map(|var| Term::of(&ctx, Some(var), weights.table(var)))
            .collect();
        let mut candidates: Vec<f64> = terms.iter().flat_map(|t| t.values.clone()).collect();
        // The identity is a weight when no term binds, or a term can lie beyond it.
        let id = identity(kind);
        if terms.is_empty()
            || candidates
                .iter()
                .any(|w| w.total_cmp(&id) == id.total_cmp(&0.0))
        {
            candidates.push(id);
        }
        candidates.sort_unstable_by(f64::total_cmp);
        candidates.dedup_by(|a, b| a.to_bits() == b.to_bits());
        Ok(Domain {
            ranking: ranking.clone(),
            terms,
            levels: vec![candidates],
        })
    }
}

/// The MIN/MAX/LEX and single-atom SUM solve's backend (see the module docs):
/// every instance is a [`Window`] of the plan instance, counted, pivoted and
/// walked on its context.
pub(crate) struct SearchBackend<'a> {
    encoded: EncodedBackend<'a>,
    instance: EncodedInstance,
    ctx: Arc<EncodedContext>,
    kind: AggregateKind,
    /// The instance memo's, or built by the first round: a leaf-only solve
    /// sorts no candidates.
    domain: OnceLock<Arc<Domain>>,
    total: u128,
    /// Answers per conjunction counted so far.
    memo: Mutex<HashMap<Conj, u128>>,
}

impl<'a> SearchBackend<'a> {
    pub(crate) fn new(instance: &EncodedInstance, ranking: &'a Ranking) -> Result<Self> {
        let ctx = exec_encoded::shared_context(instance)?;
        Ok(SearchBackend {
            encoded: EncodedBackend::new(instance, ranking),
            instance: instance.clone(),
            total: exec_encoded::count_answers_ctx(&ctx),
            ctx,
            kind: ranking.kind(),
            domain: OnceLock::new(),
            memo: Mutex::default(),
        })
    }

    /// The ranking's terms and candidates, kept per generation.
    fn domain(&self) -> Result<&Domain> {
        let (ranking, weights) = (self.encoded.ranking, &self.encoded.weights);
        let is_for = |domain: &Domain| domain.ranking == *ranking;
        let build = || Domain::build(&self.instance, ranking, weights);
        Ok(memoised(&self.domain, &self.instance, is_for, build)?)
    }

    /// The window of every answer: the instance a solve starts from.
    pub(crate) fn everything(&self) -> Window {
        let (low, high) = (WeightBound::NegInf, WeightBound::PosInf);
        let leaf = Arc::default();
        Window {
            low,
            high,
            counts: [0, self.total],
            leaf,
        }
    }

    /// `weight` as one value per component (one for MIN/MAX/SUM).
    fn components<'w>(&self, weight: &'w Weight) -> Result<&'w [f64]> {
        let lex = self.kind == AggregateKind::Lex;
        match weight {
            Weight::Num(x) if !lex => Ok(std::slice::from_ref(x)),
            Weight::Vec(v) if lex && v.len() == self.domain()?.terms.len() => Ok(v),
            _ => Err(CoreError::UnsupportedPredicate(format!(
                "{:?} bound {weight}",
                self.kind
            ))),
        }
    }

    /// The conjunction of `ranges`, `None` when one holds no candidate.
    fn conj(ranges: impl IntoIterator<Item = Range>) -> Option<Conj> {
        ranges
            .into_iter()
            .map(|(a, b)| (a < b).then_some((a, b)))
            .collect()
    }

    /// For each term `i`: `before` on the terms before it, `at[i]` on it, and every
    /// candidate on the terms after it — disjoint conjunctions.
    fn split(terms: &[Term], before: &[Range], at: &[Range]) -> Vec<Conj> {
        let ranges = |i: usize| {
            (terms.iter().enumerate()).map(move |(j, term)| match j.cmp(&i) {
                std::cmp::Ordering::Less => before[j],
                std::cmp::Ordering::Equal => at[i],
                std::cmp::Ordering::Greater => term.all(),
            })
        };
        (0..at.len())
            .filter_map(|i| Self::conj(ranges(i)))
            .collect()
    }

    /// The answers of weight above `bound` (`upward`) or below it, strictly or not,
    /// as disjoint conjunctions.
    fn side(&self, bound: &WeightBound, upward: bool, strict: bool) -> Result<Vec<Conj>> {
        let terms = &self.domain()?.terms;
        let lambda = match bound {
            WeightBound::Finite(weight) => self.components(weight)?,
            infinite => {
                let everything = (*infinite == WeightBound::NegInf) == upward;
                return Ok(Vec::from_iter(
                    everything.then(|| terms.iter().map(Term::all).collect()),
                ));
            }
        };
        if self.kind == AggregateKind::Lex {
            let at: Vec<Range> = terms.iter().zip(lambda).map(|(t, &x)| t.at(x)).collect();
            let past: Vec<Range> = terms
                .iter()
                .zip(lambda)
                .map(|(t, &x)| t.from(x, true, upward))
                .collect();
            let mut conjs = Self::split(terms, &at, &past);
            conjs.extend((!strict).then(|| Self::conj(at)).flatten());
            return Ok(conjs);
        }
        if self.kind == AggregateKind::Sum {
            let ranges = terms.iter().map(|t| t.from(lambda[0], strict, upward));
            return Ok(Vec::from_iter(Self::conj(ranges)));
        }
        // The aggregate lies beyond `λ` toward its identity iff every term does and
        // the identity does; on the other side iff some term does, or the identity.
        let (lambda, id) = (lambda[0], identity(self.kind));
        let order = id.total_cmp(&lambda);
        let id_in =
            (if upward { order.is_gt() } else { order.is_lt() }) || !strict && order.is_eq();
        let ranges: Vec<Range> = terms
            .iter()
            .map(|t| t.from(lambda, strict, upward))
            .collect();
        if upward == (self.kind == AggregateKind::Min) {
            return Ok(Vec::from_iter(id_in.then(|| Self::conj(ranges)).flatten()));
        }
        if id_in {
            return Ok(vec![terms.iter().map(Term::all).collect()]);
        }
        let outside: Vec<Range> = (terms.iter().zip(&ranges))
            .map(|(t, &(a, b))| if upward { (0, a) } else { (b, t.all().1) })
            .collect();
        Ok(Self::split(terms, &outside, &ranges))
    }

    /// Every pairwise intersection of two disjoint unions, the empty ones dropped.
    fn intersect(a: &[Conj], b: &[Conj]) -> Vec<Conj> {
        let meet = |(x, y): (&Conj, &Conj)| {
            Self::conj(x.iter().zip(y).map(|(r, s)| (r.0.max(s.0), r.1.min(s.1))))
        };
        a.iter()
            .flat_map(|x| b.iter().map(move |y| (x, y)))
            .filter_map(meet)
            .collect()
    }

    /// The window's answers as disjoint conjunctions.
    fn window_conjs(&self, window: &Window) -> Result<Vec<Conj>> {
        let above = self.side(&window.low, true, true)?;
        Ok(Self::intersect(
            &above,
            &self.side(&window.high, false, true)?,
        ))
    }

    /// A conjunction's masked subtree counts, its total memoised; `None` for one
    /// that bounds no term.
    fn masked(&self, conj: &Conj) -> Result<Option<EncodedCounts>> {
        let terms = &self.domain()?.terms;
        let bounded = || terms.iter().zip(conj).filter(|(t, r)| **r != t.all());
        if bounded().next().is_none() {
            return Ok(None);
        }
        let mut mask = vec![Vec::new(); self.ctx.nodes().len()];
        for (term, &range) in bounded() {
            for (node, ranks) in term.rows.iter().enumerate() {
                mask[node].extend(ranks.as_deref().map(|ranks| MaskTerm { ranks, range }));
            }
        }
        let counts = exec_encoded::subtree_counts(&self.ctx, Some(&mask));
        let total = counts.per_tuple[self.ctx.root()].iter().sum();
        self.memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(conj.clone(), total);
        Ok(Some(counts))
    }

    /// The answers of disjoint conjunctions: a masked pass for each not counted yet.
    fn answers(&self, conjs: &[Conj]) -> Result<u128> {
        let count = |conj: &Conj| {
            let memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
            let known = memo.get(conj).copied();
            drop(memo);
            let root = self.ctx.root();
            let counted = || {
                Ok(self
                    .masked(conj)?
                    .map_or(self.total, |c| c.per_tuple[root].iter().sum()))
            };
            known.map_or_else(counted, Ok)
        };
        conjs.iter().map(count).sum()
    }

    /// The answers of weight below `bound` (`strict`) or at or below it. MIN counts
    /// its one-conjunction side, above, and subtracts.
    fn rank(&self, bound: &WeightBound, strict: bool) -> Result<u128> {
        Ok(match self.kind {
            AggregateKind::Min => self
                .total
                .saturating_sub(self.answers(&self.side(bound, true, !strict)?)?),
            _ => self.answers(&self.side(bound, false, strict)?)?,
        })
    }

    /// A window bound's candidate index per component; `None` for `−∞`.
    fn digits(&self, bound: &WeightBound) -> Result<Option<Vec<usize>>> {
        let WeightBound::Finite(weight) = bound else {
            return Ok(None);
        };
        let index = |(level, x): (&Vec<f64>, &f64)| level.binary_search_by(|c| c.total_cmp(x)).ok();
        let digits: Option<Vec<usize>> =
            (self.domain()?.levels.iter().zip(self.components(weight)?))
                .map(index)
                .collect();
        digits
            .map(Some)
            .ok_or_else(|| CoreError::Internal(format!("window bound {weight} is no candidate")))
    }

    /// The first answer of weight exactly `lambda`, walked under the first tie-band
    /// conjunction that holds one.
    fn first_answer(&self, lambda: &WeightBound) -> Result<Option<Assignment>> {
        let band = Self::intersect(
            &self.side(lambda, true, false)?,
            &self.side(lambda, false, false)?,
        );
        let root = self.ctx.root();
        for conj in &band {
            let counts = self.masked(conj)?;
            let live = |r: &usize| counts.as_ref().is_none_or(|c| c.per_tuple[root][*r] > 0);
            let Some(first) = (0..self.ctx.node(root).rows.len()).find(live) else {
                continue;
            };
            let filter = counts.as_ref().map(WalkFilter::Masked);
            let first = self.encoded.first_answer(&self.ctx, first as u32, filter);
            let lost = || CoreError::Internal(format!("a live root row holds no {lambda} answer"));
            return first.map(Some).ok_or_else(lost);
        }
        Ok(None)
    }

    /// The masked counts of the window's conjunctions, taken once per window
    /// (outside the cell: the passes run pool regions).
    /// Every answer's window is one unmasked walk, with no domain built.
    fn leaf_counts<'w>(&self, window: &'w Window) -> Result<&'w [Option<EncodedCounts>]> {
        if let Some(counts) = window.leaf.get() {
            return Ok(counts);
        }
        let everything = window.low == WeightBound::NegInf && window.high == WeightBound::PosInf;
        let counts = match everything {
            true => vec![None],
            false => (self.window_conjs(window)?.iter())
                .map(|conj| self.masked(conj))
                .collect::<Result<_>>()?,
        };
        Ok(window.leaf.get_or_init(|| counts))
    }
}

/// The walks of a window's conjunctions, in order, in the first one's buffer (a
/// window of one conjunction copies nothing).
fn concat<T>(mut walks: impl Iterator<Item = Result<Vec<T>>>) -> Result<Vec<T>> {
    let mut out = walks.next().transpose()?.unwrap_or_default();
    for walk in walks {
        out.extend(walk?);
    }
    Ok(out)
}

/// The MIN (`+∞`) or MAX (`−∞`) identity.
fn identity(kind: AggregateKind) -> f64 {
    if kind == AggregateKind::Min {
        f64::INFINITY
    } else {
        f64::NEG_INFINITY
    }
}

/// The pivot's candidate indices strictly between the window's bounds `lo` (`None`:
/// below every candidate) and `hi` (`None`: above every one), over `sizes`
/// candidates per component, one component at a time (see the module docs).
fn inside(lo: Option<&[usize]>, hi: Option<&[usize]>, sizes: &[usize]) -> Option<Vec<usize>> {
    let d = match (lo, hi) {
        (Some(lo), Some(hi)) => (0..sizes.len())
            .find(|&i| lo[i] != hi[i])
            .filter(|&d| lo[d] < hi[d])?,
        _ => 0,
    };
    let pick = |prefix: &[usize], first: usize, last: usize| {
        let mut digits = prefix.to_vec();
        digits.push(first + (last - first) / 2);
        digits.resize(sizes.len(), 0);
        digits
    };
    let first = lo.map_or(0, |lo| lo[d] + 1);
    // Component `d`'s candidates up to `hi`'s, `hi`'s own when `hi` lies past its
    // least completion.
    let end = hi.map_or(sizes[d], |hi| {
        hi[d] + usize::from(hi[d + 1..].iter().any(|&x| x > 0))
    });
    if first < end {
        return Some(pick(
            lo.or(hi).map_or(&[][..], |bound| &bound[..d]),
            first,
            end - 1,
        ));
    }
    let lo = lo?;
    (d + 1..sizes.len())
        .find(|&j| lo[j] + 1 < sizes[j])
        .map(|j| pick(&lo[..j], lo[j] + 1, sizes[j] - 1))
}

impl SolveBackend for SearchBackend<'_> {
    type Inst = Window;

    fn count(&self, window: &Window) -> Result<u128> {
        Ok(window.counts[1].saturating_sub(window.counts[0]))
    }

    /// Every window is counted over the plan instance's database.
    fn database_size(&self, _: &Window) -> usize {
        self.instance.total_rows()
    }

    fn select_pivot(&self, window: &Window) -> Result<PivotResult> {
        let (lo, hi) = (self.digits(&window.low)?, self.digits(&window.high)?);
        let levels = &self.domain()?.levels;
        let sizes: Vec<usize> = levels.iter().map(Vec::len).collect();
        let open = window.low != WeightBound::PosInf && window.high != WeightBound::NegInf;
        let digits = open
            .then(|| inside(lo.as_deref(), hi.as_deref(), &sizes))
            .flatten();
        let digits = digits.ok_or_else(|| {
            CoreError::Internal(format!(
                "window ({}, {}) holds no candidate",
                window.low, window.high
            ))
        })?;
        let mut values = levels.iter().zip(&digits).map(|(level, &d)| level[d]);
        let weight = match (self.kind, values.next()) {
            (AggregateKind::Lex, first) => Weight::Vec(first.into_iter().chain(values).collect()),
            (_, Some(value)) => Weight::Num(value),
            (_, None) => return Err(CoreError::Internal("a weight of no component".to_string())),
        };
        // The counts the partition round reads, memoised for it. A LEX tie band is
        // one of the conjunctions `≤ λ` counts, so its pass serves both; a MIN/MAX
        // one is walked only when some answer weighs `λ`.
        let lambda = WeightBound::Finite(weight.clone());
        let below = self.rank(&lambda, true)?;
        let band = self.kind == AggregateKind::Lex || self.rank(&lambda, false)? > below;
        let first = if band {
            self.first_answer(&lambda)?
        } else {
            None
        };
        Ok(PivotResult {
            assignment: first.unwrap_or_else(|| Assignment::from_pairs([])),
            weight,
            // No fraction of the window is promised on either side.
            c: 0.0,
            total_answers: self.count(window)?,
        })
    }

    fn trim_between(
        &self,
        window: &Window,
        low: &WeightBound,
        high: &WeightBound,
    ) -> Result<Window> {
        let (low, high) = (low.max(&window.low).clone(), high.min(&window.high).clone());
        let counts = [self.rank(&low, false)?, self.rank(&high, true)?];
        Ok(Window {
            low,
            high,
            counts,
            leaf: Arc::default(),
        })
    }

    fn leaf_weights(&self, window: &Window) -> Result<Vec<(Weight, u32)>> {
        let walk = |counts: &Option<EncodedCounts>| {
            let filter = counts.as_ref().map(WalkFilter::Masked);
            self.encoded.leaf_weights_in(&self.ctx, None, filter)
        };
        concat(self.leaf_counts(window)?.iter().map(walk))
    }

    fn leaf_band(
        &self,
        window: &Window,
        original_vars: &[Variable],
        roots: &[u32],
        wanted: &(dyn Fn(&Weight) -> bool + Sync),
    ) -> Result<Vec<(Weight, CodeKey)>> {
        let walk = |counts: &Option<EncodedCounts>| {
            let filter = counts.as_ref().map(WalkFilter::Masked);
            (self.encoded).leaf_band_in(&self.ctx, original_vars, roots, filter, wanted)
        };
        concat(self.leaf_counts(window)?.iter().map(walk))
    }

    fn answer_from_key(&self, original_vars: &[Variable], key: &CodeKey) -> Assignment {
        self.encoded.answer_from_key(original_vars, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dichotomy::{classify_partial_sum, SumClassification};
    use crate::encoded::tests::answers_of;
    use crate::quantile::materialized_keyed_answers;
    use qjoin_data::Value;
    use qjoin_query::Instance;
    use qjoin_workload::random_acyclic::{
        random_acyclic_instance, shaped_instance, tie_heavy_ranking,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Answers = Vec<(Weight, Vec<Value>)>;

    /// The answers of the window `(low, high)` by brute force, sorted.
    fn answers_inside(all: &Answers, low: &WeightBound, high: &WeightBound) -> Answers {
        let within = |w: &Weight| {
            let w = WeightBound::Finite(w.clone());
            *low < w && w < *high
        };
        all.iter().filter(|(w, _)| within(w)).cloned().collect()
    }

    /// A window bound: a sentinel, or a candidate weight of the backend.
    fn bound(backend: &SearchBackend, rng: &mut StdRng) -> WeightBound {
        match rng.random_range(0..6) {
            0 => WeightBound::NegInf,
            1 => WeightBound::PosInf,
            _ => {
                let digit = |level: &Vec<f64>| level[rng.random_range(0..level.len())];
                let values: Vec<f64> = backend.domain().unwrap().levels.iter().map(digit).collect();
                WeightBound::Finite(match backend.kind {
                    AggregateKind::Lex => Weight::Vec(values),
                    _ => Weight::Num(values[0]),
                })
            }
        }
    }

    /// One instance under one ranking: random windows walk and count exactly the
    /// brute force's answers inside them, and at every pivot weight the tie band's
    /// conjunctions walk exactly the answers of that weight, each once, the first
    /// of which is the pivot's assignment.
    fn assert_search_agrees(instance: &Instance, ranking: &Ranking, rng: &mut StdRng, what: &str) {
        let original = instance.query().variables();
        let mut all = materialized_keyed_answers(instance, ranking, &original).unwrap();
        all.sort();
        if all.is_empty() {
            return;
        }
        let encoded = EncodedInstance::from_instance(instance).unwrap();
        let backend = SearchBackend::new(&encoded, ranking).unwrap();
        let everything = backend.everything();
        for _ in 0..6 {
            let (low, high) = (bound(&backend, rng), bound(&backend, rng));
            let window = backend.trim_between(&everything, &low, &high).unwrap();
            let expected = answers_inside(&all, &low, &high);
            let what = format!("{what} ({low}, {high})");
            assert_eq!(
                backend.count(&window).unwrap(),
                expected.len() as u128,
                "{what}: count"
            );
            if !expected.is_empty() {
                assert_eq!(
                    answers_of(&backend, &window, &original),
                    expected,
                    "{what}: walk"
                );
            }
            if expected.len() < 2 {
                continue;
            }
            let pivot = backend.select_pivot(&window).unwrap();
            let lambda = WeightBound::Finite(pivot.weight.clone());
            assert!(
                low < lambda && lambda < high,
                "{what}: pivot {lambda} outside"
            );
            let tied: Answers = all
                .iter()
                .filter(|(w, _)| *w == pivot.weight)
                .cloned()
                .collect();
            let band = SearchBackend::intersect(
                &backend.side(&lambda, true, false).unwrap(),
                &backend.side(&lambda, false, false).unwrap(),
            );
            let mut walked: Vec<Vec<u64>> = Vec::new();
            for conj in &band {
                let counts = backend.masked(conj).unwrap();
                let walk = exec_encoded::walk_answer_chunks(
                    &backend.ctx,
                    None,
                    None,
                    counts.as_ref().map(WalkFilter::Masked),
                    3,
                    Vec::new,
                    |out: &mut Vec<Vec<u64>>, _, codes| out.push(codes.to_vec()),
                );
                walked.extend(walk.into_iter().flatten());
            }
            assert_eq!(walked.len(), tied.len(), "{what}: band at {lambda}");
            let fold =
                super::super::weights::WeightFold::new(ranking, &backend.encoded.weights, |v| {
                    original.iter().position(|o| o == v)
                });
            for codes in &walked {
                assert_eq!(
                    fold.weight_of(codes),
                    pivot.weight,
                    "{what}: band at {lambda}"
                );
            }
            match tied.first() {
                None => assert!(pivot.assignment.is_empty(), "{what}: pivot {lambda}"),
                Some(_) => assert_eq!(ranking.weight_of(&pivot.assignment), pivot.weight, "{what}"),
            }
        }
    }

    /// Windows and tie bands against the brute force over `shaped_instance` shapes
    /// 0–6 and 300 random acyclic instances (self-joins, repeated variables, empty
    /// joins), under `tie_heavy_ranking` MIN, MAX, LEX and — where one atom covers
    /// it — SUM over the weight domains {0, 1, 2, 3, 9}, at one and four threads.
    /// Fails if a strict bound is taken as `≥` (`from` ignoring `strict`: domains
    /// {0, 1, 2} tie at every bound), if the tie band's conjunctions overlap (a
    /// variable before the one at `λ` left unbounded walks some answers twice), or
    /// if a window's leaf ignores its upper bound.
    #[test]
    fn windows_and_tie_bands_walk_exactly_their_answers() {
        let mut rng = StdRng::seed_from_u64(0x5ea7);
        let shaped = (0..=6).flat_map(|shape| (0..4).map(move |seed| shaped_instance(shape, seed)));
        let random: Vec<Instance> = (0..300)
            .map(|_| random_acyclic_instance(&mut rng))
            .collect();
        let pools = [qjoin_par::Pool::new(1), qjoin_par::Pool::new(4)];
        let kinds = [
            AggregateKind::Min,
            AggregateKind::Max,
            AggregateKind::Lex,
            AggregateKind::Sum,
        ];
        let mut summed = 0;
        for (case, instance) in shaped.chain(random).enumerate() {
            for kind in kinds {
                for domain in [0, 1, 2, 3, 9] {
                    let ranking = tie_heavy_ranking(&instance, kind, domain);
                    let query = instance.query();
                    let class = classify_partial_sum(query, ranking.weighted_vars());
                    if kind == AggregateKind::Sum {
                        match class {
                            SumClassification::TractableSingleAtom { .. } => summed += 1,
                            _ => continue,
                        }
                    }
                    let pool = &pools[case % 2];
                    let what =
                        format!("case {case} {ranking} domain {domain} T={}", pool.threads());
                    qjoin_par::with_pool(pool, || {
                        assert_search_agrees(&instance, &ranking, &mut rng, &what)
                    });
                }
            }
        }
        assert!(summed > 300, "{summed} single-atom SUM rankings");
    }

    /// The pivot rule, one component at a time, over three components of 9, 1 and
    /// 9 candidates: from the whole domain, then from every window it cuts, each
    /// pivot lies strictly inside, and no path takes more than Σᵢ (⌈log₂ Kᵢ⌉ + 1)
    /// = 5 + 1 + 5 rounds before its window holds no candidate. Fails for a pivot
    /// at a window's lowest candidate (18 rounds).
    #[test]
    fn pivots_halve_every_component() {
        let sizes = [9, 1, 9];
        let index = |digits: &[usize]| digits[0] * 9 + digits[1] * 9 + digits[2];
        let mut deepest = 0;
        type Digits = Option<Vec<usize>>;
        let mut windows: Vec<(Digits, Digits, usize)> = vec![(None, None, 0)];
        while let Some((lo, hi, depth)) = windows.pop() {
            let Some(pivot) = inside(lo.as_deref(), hi.as_deref(), &sizes) else {
                deepest = deepest.max(depth);
                continue;
            };
            let at = index(&pivot);
            assert!(
                lo.as_deref().is_none_or(|lo| index(lo) < at),
                "{lo:?} {pivot:?}"
            );
            assert!(
                hi.as_deref().is_none_or(|hi| at < index(hi)),
                "{hi:?} {pivot:?}"
            );
            windows.push((lo, Some(pivot.clone()), depth + 1));
            windows.push((Some(pivot), hi, depth + 1));
        }
        assert!(deepest <= 11, "{deepest} rounds");
    }
}
