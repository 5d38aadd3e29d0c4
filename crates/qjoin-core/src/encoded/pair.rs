//! Exact SUM over an adjacent pair by counting on one context: Lemma 5.5's cover
//! without its construction.
//!
//! When two adjacent atoms A and B, but no one atom, bind every weighted variable
//! (Theorem 5.6), an answer weighs `a + b`, its A row's partial sum plus its B
//! row's (μ sends each variable to one of the two, A first). Rooted at A, the
//! cover's tree has B as a child of the root: the answers through an A row `r` are
//! a member of the B group `r` joins, times `out(r)` answers outside B's subtree.
//! With each group sorted by partial sum, those inside a window `(low, high)` are
//! one slice of it, so a window is two `u32` per A row, counted as
//! `Σ_r out(r) · (P(hi_r) − P(lo_r))` with `P` the prefix sums of the members'
//! subtree counts. No trimmed instance is built and no key is hashed.
//!
//! [`Pair`] holds what no window changes, over one
//! [`EncodedContext::build_with_tree`]: a generation's first round builds it and
//! leaves it in the plan instance's exec memo, keyed by ranking. A **cut** is a
//! bound's position in each A row's group, `partition_point(|b| a_r + b < λ)` (IEEE
//! addition is monotone, so this is the predicate `a_r + b < λ` itself, never
//! `b < λ − a_r`), kept per solve for every window the bound closes. A trim scans
//! A's rows once, searching for the cut the round's pivot adds; the round reports
//! the rows both trims scanned as its `view_rows`.
//!
//! **Pivot.** The weighted median (by answers in the window) of the A rows' own
//! weighted medians. The rows whose median is at most the pivot hold half the
//! window and half of each such row weighs at most its median, so a quarter of the
//! window weighs at most the pivot, and a quarter at least: a c-pivot with c = ¼
//! whatever the tree (the X+Y selection argument: Johnson and Mizoguchi, 1978;
//! Frederickson and Johnson, 1982), where Algorithm 2 promises 1/2^height. Its
//! assignment is the first answer through its A row and B row. Lemma 5.5 instead
//! builds an O(n log n) dyadic instance per trim; no such construction is built.
//!
//! **Weights.** `a_r` and the members' sums fold like `SumTupleWeights::tuple_sum`,
//! which is the ranking's own fold wherever the sums are exact in `f64`, as the
//! brute-force suites check. A non-finite weight is refused before any count.

use super::weights::{refuse_non_finite, row_sum, weighted_pairs, CodeWeights};
use super::{memoised, CodeKey, EncodedBackend};
use crate::dichotomy::{classify_partial_sum, find_adjacent_cover, SumClassification};
use crate::pivot::PivotResult;
use crate::quantile::SolveBackend;
use crate::selection::weighted_median_by;
use crate::{CoreError, Result};
use qjoin_exec::encoded::{self as exec_encoded, WalkFilter};
use qjoin_exec::EncodedContext;
use qjoin_query::{Assignment, EncodedInstance, JoinQuery, Variable};
use qjoin_ranking::{Ranking, SumTupleWeights, Weight, WeightBound};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The window-independent half of the pair route for one ranking (see the module
/// docs).
struct Pair {
    ranking: Ranking,
    /// The plan instance's context over the cover's tree rooted at A, and B's node.
    ctx: EncodedContext,
    b: usize,
    /// B's rows group by group in the context's group layout, each group ascending
    /// by `(partial sum, row)`; their partial sums; and the prefix sums of their
    /// subtree counts, one more than there are members.
    members: Vec<u32>,
    sums: Vec<f64>,
    prefix: Vec<u128>,
    /// Per A row: its partial sum, and the answers through it outside B's subtree.
    a_sums: Vec<f64>,
    out: Vec<u128>,
}

impl Pair {
    fn build(instance: &EncodedInstance, ranking: &Ranking, weights: &CodeWeights) -> Result<Pair> {
        refuse_non_finite(instance, ranking, weights)?;
        let (query, weighted) = (instance.query(), ranking.weighted_vars());
        let cover = find_adjacent_cover(query, weighted)
            .ok_or_else(|| intractable_sum_error(query, weighted))?;
        let tree = &cover.tree;
        let node_of = |atom| (0..tree.num_nodes()).find(|&n| tree.node(n).atom_index == atom);
        let (Some(a), Some(b)) = (node_of(cover.atoms.0), node_of(cover.atoms.1)) else {
            return Err(CoreError::Internal("a cover's tree lacks its atoms".into()));
        };
        if a == b {
            return Err(CoreError::Internal("a pair route over one atom".into()));
        }
        let ctx = EncodedContext::build_with_tree(instance, tree.rerooted(a))?;
        let atoms = [cover.atoms.0, cover.atoms.1];
        let tuple_weights = SumTupleWeights::with_preferred_atoms(query, ranking, &atoms);
        let sums = |node: usize| -> Result<Vec<f64>> {
            let pairs = weighted_pairs(query, &tuple_weights, weights, ctx.node(node).atom_index);
            let rows = indexable(ctx.node(node).rows.len())?;
            let sum = |i: usize| row_sum(&pairs, |col| ctx.code(node, i, col));
            Ok((0..rows).map(sum).collect())
        };
        let (a_sums, b_sums) = (sums(a)?, sums(b)?);
        let counts = exec_encoded::subtree_counts(&ctx, None);
        let mut members: Vec<u32> = Vec::with_capacity(b_sums.len());
        for gid in 0..ctx.num_groups(b) as u32 {
            let start = members.len();
            members.extend_from_slice(ctx.group(b, gid));
            let sum = |m: &u32| b_sums[*m as usize];
            members[start..].sort_unstable_by(|x, y| sum(x).total_cmp(&sum(y)).then(x.cmp(y)));
        }
        let mut prefix = vec![0u128];
        for &m in &members {
            prefix.push(prefix[prefix.len() - 1] + counts.per_tuple[b][m as usize]);
        }
        let others = || (ctx.tree().node(a).children.iter()).filter(|&&c| c != b);
        let out_of = |r: usize| {
            let group = |&c: &usize| counts.per_group[c][ctx.link(c, r) as usize];
            others().map(group).product()
        };
        Ok(Pair {
            ranking: ranking.clone(),
            out: (0..a_sums.len()).map(out_of).collect(),
            sums: members.iter().map(|&m| b_sums[m as usize]).collect(),
            members,
            prefix,
            a_sums,
            b,
            ctx,
        })
    }

    /// A row `r`'s B group, as a range of `members`.
    fn group(&self, r: usize) -> Range<usize> {
        self.ctx.group_range(self.b, self.ctx.link(self.b, r))
    }

    /// Row `r`'s positions between `cuts` in its group (`[lo, hi)`, `lo ≤ hi`), as
    /// a slice of `members`.
    fn slice(&self, cuts: &[Cut; 2], r: usize) -> (usize, usize) {
        let group = self.group(r);
        let sums = &self.sums[group.clone()];
        let [lo, hi] = cuts
            .each_ref()
            .map(|cut| cut.at(r, self.a_sums[r], sums) as usize);
        (group.start + lo, group.start + hi.max(lo))
    }

    /// The answers in the slice `(lo, hi)` of A row `r`.
    fn answers(&self, r: usize, (lo, hi): (usize, usize)) -> u128 {
        self.out[r] * (self.prefix[hi] - self.prefix[lo])
    }
}

/// Refuses a view whose rows a window's `u32` positions cannot index.
fn indexable(rows: usize) -> Result<usize> {
    let limit = u32::MAX;
    let refuse = |_| {
        CoreError::TooLarge(format!(
            "a SUM pair over a view of {rows} rows; a window indexes at most {limit}"
        ))
    };
    u32::try_from(rows).map(|_| rows).map_err(refuse)
}

/// Why no adjacent pair covers the weighted variables: the dichotomy's witness,
/// or the enumeration limit a query past it hits.
fn intractable_sum_error(query: &JoinQuery, weighted: &[Variable]) -> CoreError {
    match classify_partial_sum(query, weighted) {
        SumClassification::UnknownTooLarge => CoreError::QueryTooLarge {
            atoms: query.num_atoms(),
            limit: qjoin_query::join_tree::MAX_ENUMERATION_ATOMS,
        },
        other => CoreError::IntractableSum(format!("{other:?}")),
    }
}

/// Where a window bound cuts each A row's B group.
#[derive(Clone, Debug)]
enum Cut {
    /// Before every member: `−∞`.
    Start,
    /// After every member: `+∞`.
    End,
    /// Per A row, the members below a finite bound: strictly for a window's high
    /// bound, at or below it for its low one.
    At(Arc<[u32]>),
    /// A finite bound not cut yet, searched for row by row.
    Search { lambda: f64, strict: bool },
}

impl Cut {
    /// The position in A row `r`'s group (of partial sum `a`, members' sums `sums`).
    fn at(&self, r: usize, a: f64, sums: &[f64]) -> u32 {
        match self {
            Cut::Start => 0,
            Cut::End => sums.len() as u32,
            Cut::At(at) => at[r],
            Cut::Search { lambda, strict } => {
                let below = |b: &f64| {
                    let order = (a + b).total_cmp(lambda);
                    order.is_lt() || !strict && order.is_eq()
                };
                sums.partition_point(below) as u32
            }
        }
    }
}

/// What a pair SUM solve recurses over: the answers of weight strictly inside
/// `(low, high)`, a slice of each A row's B group between its two cuts.
#[derive(Clone, Debug)]
pub(crate) struct Slices {
    low: WeightBound,
    high: WeightBound,
    cuts: [Cut; 2],
    count: u128,
    /// The A rows the trim that cut it scanned; the plan database's rows for every
    /// answer's window.
    scanned: usize,
}

/// Per finite bound's bits and strictness, its cut.
type Cuts = HashMap<(u64, bool), Arc<[u32]>>;

/// The adjacent-pair SUM solve's backend (see the module docs).
pub(crate) struct PairBackend<'a> {
    encoded: EncodedBackend<'a>,
    instance: EncodedInstance,
    total: u128,
    /// The instance memo's, or built by the first round: a leaf-only solve builds
    /// no second context.
    pair: OnceLock<Arc<Pair>>,
    cuts: Mutex<Cuts>,
}

impl<'a> PairBackend<'a> {
    pub(crate) fn new(instance: &EncodedInstance, ranking: &'a Ranking) -> Result<Self> {
        Ok(PairBackend {
            encoded: EncodedBackend::new(instance, ranking),
            instance: instance.clone(),
            total: exec_encoded::count_answers(instance)?,
            pair: OnceLock::new(),
            cuts: Mutex::default(),
        })
    }

    /// The window of every answer: the instance a solve starts from.
    pub(crate) fn everything(&self) -> Slices {
        Slices {
            low: WeightBound::NegInf,
            high: WeightBound::PosInf,
            cuts: [Cut::Start, Cut::End],
            count: self.total,
            scanned: self.instance.total_rows(),
        }
    }

    fn pair(&self) -> Result<&Pair> {
        let (ranking, weights) = (self.encoded.ranking, &self.encoded.weights);
        let is_for = |pair: &Pair| pair.ranking == *ranking;
        let build = || Pair::build(&self.instance, ranking, weights);
        Ok(memoised(&self.pair, &self.instance, is_for, build)?)
    }

    /// `bound`'s cut as a window's low (`strict` false) or high bound.
    fn cut(&self, bound: &WeightBound, strict: bool) -> Result<Cut> {
        let lambda = match bound {
            WeightBound::NegInf => return Ok(Cut::Start),
            WeightBound::PosInf => return Ok(Cut::End),
            WeightBound::Finite(weight) => weight.as_num().ok_or_else(|| {
                CoreError::UnsupportedPredicate(format!("SUM bound {weight} is no scalar"))
            })?,
        };
        let cuts = self.cuts.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(match cuts.get(&(lambda.to_bits(), strict)) {
            Some(at) => Cut::At(Arc::clone(at)),
            None => Cut::Search { lambda, strict },
        })
    }

    /// The window `(low, high)`: one scan of A's rows counts it and searches for
    /// each bound not cut yet, whose cut it then keeps.
    fn window(&self, low: &WeightBound, high: &WeightBound) -> Result<Slices> {
        let pair = self.pair()?;
        let mut cuts = [self.cut(low, false)?, self.cut(high, true)?];
        let rows = pair.a_sums.len();
        let (mut found, mut count) = ([(); 2].map(|_| Vec::with_capacity(rows)), 0);
        for r in 0..rows {
            let group = pair.group(r);
            let sums = &pair.sums[group.clone()];
            let [lo, hi] = cuts.each_ref().map(|cut| cut.at(r, pair.a_sums[r], sums));
            found[0].push(lo);
            found[1].push(hi);
            let (lo, hi) = (group.start + lo as usize, group.start + hi.max(lo) as usize);
            count += pair.answers(r, (lo, hi));
        }
        for ((cut, found), strict) in cuts.iter_mut().zip(found).zip([false, true]) {
            if let Cut::Search { lambda, .. } = *cut {
                let at: Arc<[u32]> = found.into();
                let mut memo = self.cuts.lock().unwrap_or_else(PoisonError::into_inner);
                memo.insert((lambda.to_bits(), strict), Arc::clone(&at));
                *cut = Cut::At(at);
            }
        }
        Ok(Slices {
            low: low.clone(),
            high: high.clone(),
            cuts,
            count,
            scanned: rows,
        })
    }

    /// A window's leaf: the context it walks and the walk's filter.
    fn leaf_walk<T>(
        &self,
        window: &Slices,
        walk: impl FnOnce(&EncodedContext, Option<WalkFilter>) -> Result<T>,
    ) -> Result<T> {
        if window.low == WeightBound::NegInf && window.high == WeightBound::PosInf {
            return walk(&*exec_encoded::shared_context(&self.instance)?, None);
        }
        let pair = self.pair()?;
        let slice = |r| {
            let (lo, hi) = pair.slice(&window.cuts, r);
            (lo as u32, hi as u32)
        };
        let slices: Vec<(u32, u32)> = (0..pair.a_sums.len()).map(slice).collect();
        let filter = WalkFilter::Sliced(pair.b, &pair.members, &slices);
        walk(&pair.ctx, Some(filter))
    }
}

impl SolveBackend for PairBackend<'_> {
    type Inst = Slices;

    fn count(&self, window: &Slices) -> Result<u128> {
        Ok(window.count)
    }

    fn database_size(&self, window: &Slices) -> usize {
        window.scanned
    }

    /// The weighted median of the A rows' weighted medians (see the module docs).
    fn select_pivot(&self, window: &Slices) -> Result<PivotResult> {
        let pair = self.pair()?;
        // `(weight, A row, member position, answers of the row's slice)`
        let mut medians: Vec<(f64, usize, usize, u128)> = Vec::new();
        for r in 0..pair.a_sums.len() {
            let (lo, hi) = pair.slice(&window.cuts, r);
            if lo == hi {
                continue;
            }
            let half = (pair.prefix[hi] - pair.prefix[lo]).div_ceil(2);
            let short = |through: &u128| through - pair.prefix[lo] < half;
            let median = lo + pair.prefix[lo + 1..=hi].partition_point(short);
            let weight = pair.a_sums[r] + pair.sums[median];
            medians.push((weight, r, median, pair.answers(r, (lo, hi))));
        }
        if medians.iter().all(|m| m.3 == 0) {
            return Err(CoreError::Internal("a pivot of an empty window".into()));
        }
        let by_weight_then_row = |x: &(f64, usize, _, _), y: &(f64, usize, _, _)| {
            x.0.total_cmp(&y.0).then(x.1.cmp(&y.1))
        };
        let (at, _) = weighted_median_by(&mut medians, |m| m.3, by_weight_then_row);
        let (weight, r, median, _) = medians[at];
        let mut slices = vec![(0, 0); pair.a_sums.len()];
        slices[r] = (median as u32, median as u32 + 1);
        let filter = WalkFilter::Sliced(pair.b, &pair.members, &slices);
        let first = self.encoded.first_answer(&pair.ctx, r as u32, Some(filter));
        let lost = || CoreError::Internal(format!("no answer through A row {r}'s median"));
        Ok(PivotResult {
            assignment: first.ok_or_else(lost)?,
            weight: Weight::Num(weight),
            c: 0.25,
            total_answers: window.count,
        })
    }

    fn trim_between(
        &self,
        window: &Slices,
        low: &WeightBound,
        high: &WeightBound,
    ) -> Result<Slices> {
        self.window(low.max(&window.low), high.min(&window.high))
    }

    fn leaf_weights(&self, window: &Slices) -> Result<Vec<(Weight, u32)>> {
        self.leaf_walk(window, |ctx, filter| {
            self.encoded.leaf_weights_in(ctx, None, filter)
        })
    }

    fn leaf_band(
        &self,
        window: &Slices,
        original_vars: &[Variable],
        roots: &[u32],
        wanted: &(dyn Fn(&Weight) -> bool + Sync),
    ) -> Result<Vec<(Weight, CodeKey)>> {
        self.leaf_walk(window, |ctx, filter| {
            (self.encoded).leaf_band_in(ctx, original_vars, roots, filter, wanted)
        })
    }

    fn answer_from_key(&self, original_vars: &[Variable], key: &CodeKey) -> Assignment {
        self.encoded.answer_from_key(original_vars, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoded::tests::answers_of;
    use crate::quantile::materialized_keyed_answers;
    use qjoin_data::Value;
    use qjoin_query::acyclicity::gyo_join_tree;
    use qjoin_query::Instance;
    use qjoin_ranking::WeightFn;
    use qjoin_workload::random_acyclic::{random_acyclic_instance, shaped_instance};
    use qjoin_workload::social::SocialConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Answers = Vec<(Weight, Vec<Value>)>;

    /// SUM rankings an adjacent pair of `instance`'s GYO tree covers: per edge, a
    /// variable only the child binds, then one only the parent binds, then one they
    /// share (if any), each weighed by `weight_fn`.
    fn pair_rankings(instance: &Instance, weight_fn: &WeightFn) -> Vec<Ranking> {
        let query = instance.query();
        let tree = gyo_join_tree(query).unwrap();
        let mut rankings = Vec::new();
        for child in 0..tree.num_nodes() {
            let Some(parent) = tree.node(child).parent else {
                continue;
            };
            let [up, down] =
                [parent, child].map(|n| query.atom(tree.node(n).atom_index).variable_set());
            let alone =
                |x: &std::collections::BTreeSet<Variable>, y| x.difference(y).next().cloned();
            let (Some(below), Some(above)) = (alone(&down, &up), alone(&up, &down)) else {
                continue;
            };
            let mut vars = vec![below, above];
            vars.extend(up.intersection(&down).next().cloned());
            let ranking = (vars.iter()).fold(Ranking::sum(vars.clone()), |ranking, var| {
                ranking.with_weight_fn(var.clone(), weight_fn.clone())
            });
            rankings.push(ranking);
        }
        rankings
    }

    /// A window bound: a sentinel, an answer weight, or one between two.
    fn bound(weights: &[f64], rng: &mut StdRng) -> WeightBound {
        let w = weights[rng.random_range(0..weights.len())];
        match rng.random_range(0..6) {
            0 => WeightBound::NegInf,
            1 => WeightBound::PosInf,
            2 => WeightBound::Finite(Weight::num(w + 0.5)),
            _ => WeightBound::Finite(Weight::num(w)),
        }
    }

    /// Random windows of one pair-covered SUM, over bounds drawn from few values so
    /// that later windows reuse earlier cuts: each counts and walks exactly the
    /// brute force's answers inside it, and the pivot of one holding two answers
    /// or more lies inside it with a quarter of them on either side, its assignment
    /// weighing it. Returns whether some window was pivoted.
    fn assert_pair_agrees(
        instance: &Instance,
        ranking: &Ranking,
        rng: &mut StdRng,
        what: &str,
    ) -> bool {
        let original = instance.query().variables();
        let mut all = materialized_keyed_answers(instance, ranking, &original).unwrap();
        all.sort();
        if all.is_empty() {
            return false;
        }
        let weights: Vec<f64> = all.iter().map(|(w, _)| w.as_num().unwrap()).collect();
        let encoded = EncodedInstance::from_instance(instance).unwrap();
        let backend = PairBackend::new(&encoded, ranking).unwrap();
        let everything = backend.everything();
        let mut pivoted = false;
        for _ in 0..8 {
            let (low, high) = (bound(&weights, rng), bound(&weights, rng));
            let window = backend.trim_between(&everything, &low, &high).unwrap();
            let inside = |w: &Weight| {
                let w = WeightBound::Finite(w.clone());
                low < w && w < high
            };
            let expected: Answers = all.iter().filter(|(w, _)| inside(w)).cloned().collect();
            let what = format!("{what} ({low}, {high})");
            assert_eq!(window.count, expected.len() as u128, "{what}: count");
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
            let (n, lambda) = (expected.len(), &pivot.weight);
            let at_most = expected.iter().filter(|(w, _)| w <= lambda).count();
            let at_least = expected.iter().filter(|(w, _)| w >= lambda).count();
            assert!(
                4 * at_most >= n && 4 * at_least >= n,
                "{what}: pivot {lambda}: {at_most} ≤, {at_least} ≥ of {n}"
            );
            assert_eq!(
                ranking.weight_of(&pivot.assignment),
                *lambda,
                "{what}: pivot answer"
            );
            assert!(inside(lambda), "{what}: pivot {lambda} outside");
            pivoted = true;
        }
        pivoted
    }

    /// Pair windows against the brute force over `shaped_instance` shapes 0–6, 300
    /// random acyclic instances (self-joins, repeated variables, empty joins) and a
    /// social instance, under weights that tie everywhere (2.5, mod 3) or nowhere
    /// (the values), at one and four threads. Fails if a count reads a group's
    /// prefix one position too far, a cut searches with `≤` where `<` is due (the
    /// weights tie at every bound), a walk takes a row's whole group or the group
    /// of another edge, or the pivot is a row's first member instead of its median.
    #[test]
    fn pair_windows_count_walk_and_pivot_exactly_their_answers() {
        let mut rng = StdRng::seed_from_u64(0x9a12);
        let shaped = (0..=6).flat_map(|shape| (0..4).map(move |seed| shaped_instance(shape, seed)));
        let random: Vec<Instance> = (0..300)
            .map(|_| random_acyclic_instance(&mut rng))
            .collect();
        let social = SocialConfig {
            users: 12,
            events: 4,
            rows_per_relation: 30,
            max_likes: 9,
            seed: 3,
            ..Default::default()
        };
        let weight_fns = [
            WeightFn::Constant(2.5),
            WeightFn::custom(|v| v.as_f64().map_or(0.0, |v| (v as i64 % 3) as f64)),
            WeightFn::Identity,
        ];
        let pools = [qjoin_par::Pool::new(1), qjoin_par::Pool::new(4)];
        let (mut pivoted, mut self_joins) = (0, 0);
        for (case, instance) in shaped.chain(random).chain([social.generate()]).enumerate() {
            for (f, weight_fn) in weight_fns.iter().enumerate() {
                for ranking in pair_rankings(&instance, weight_fn) {
                    let pool = &pools[case % 2];
                    let what = format!("case {case} {ranking} weights {f} T={}", pool.threads());
                    let ran = qjoin_par::with_pool(pool, || {
                        assert_pair_agrees(&instance, &ranking, &mut rng, &what)
                    });
                    pivoted += usize::from(ran);
                    self_joins += usize::from(ran && instance.query().has_self_joins());
                }
            }
        }
        assert!(pivoted > 100 && self_joins > 10, "{pivoted} {self_joins}");
    }

    /// The per-generation half lives in the instance's exec memo, keyed by ranking:
    /// a second solve of one ranking finds the first's, another ranking replaces
    /// it, and it drops with the instance (it holds no handle on the memo holding it).
    #[test]
    fn a_pair_is_kept_per_generation_keyed_by_ranking() {
        let config = SocialConfig {
            rows_per_relation: 40,
            seed: 5,
            ..Default::default()
        };
        let instance = EncodedInstance::from_instance(&config.generate()).unwrap();
        let likes = config.likes_ranking();
        let first = |ranking: &Ranking| {
            let backend = PairBackend::new(&instance, ranking).unwrap();
            backend.select_pivot(&backend.everything()).unwrap();
            instance.exec_memo().get::<Pair>().unwrap()
        };
        let kept = first(&likes);
        assert!(Arc::ptr_eq(&kept, &first(&likes)));
        let other = likes
            .clone()
            .with_weight_fn(likes.weighted_vars()[0].clone(), WeightFn::Constant(1.0));
        let replaced = first(&other);
        assert!(!Arc::ptr_eq(&kept, &replaced) && replaced.ranking == other);
        let weak = Arc::downgrade(&replaced);
        drop((kept, replaced, instance));
        assert!(weak.upgrade().is_none(), "the pair outlived its instance");
    }

    #[test]
    fn views_past_u32_rows_are_refused_naming_the_limit() {
        let limit = u32::MAX as usize;
        assert_eq!(indexable(limit).unwrap(), limit);
        match indexable(limit + 1) {
            Err(CoreError::TooLarge(message)) => {
                assert!(message.contains(&limit.to_string()), "{message}")
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }
}
