//! Exact trimmings for (partial) SUM (Section 5.3).
//!
//! Two constructions cover the tractable side of Theorem 5.6. Both trim to an open
//! weight *window* `(low, high)` — the shape of one partition step of Algorithm 1,
//! which rebuilds each side of a pivot under the pivot bound and the accumulated
//! bound — and a single inequality is the window with one side unbounded:
//!
//! * **Single atom** — when one atom contains all weighted variables, an additive
//!   inequality is a property of that atom's tuple alone, so trimming is a linear-time
//!   filter of one relation ([`SingleAtomSumTrimmer`]).
//! * **Adjacent pair** — when the weighted variables are covered by two atoms that are
//!   adjacent in some join tree, `low < w_A(t_A) + w_B(t_B) < high` is trimmed with
//!   the factorized construction of Lemma 5.5 (from Tziavelis et al., "Beyond
//!   Equi-joins"): per join group, sort the `B` tuples by their partial sums; every
//!   `A` tuple then qualifies with one *contiguous run* of them, and is connected to
//!   it through the `O(log n)` dyadic-interval identifiers that decompose the run,
//!   carried by a fresh shared variable `v`. Each qualifying `(t_A, t_B)` pair matches
//!   through exactly one identifier, so the rewriting is a bijection; the database
//!   grows by a logarithmic factor and the query stays acyclic (and inside the
//!   tractable class). Serving both bounds with one construction keeps a partition
//!   round at `O(n log n)`; composing two single-bound constructions — the second over
//!   the first one's log-expanded output — is where the paper's `O(n log² n)` comes
//!   from.
//!
//! [`AdjacentSumTrimmer`] dispatches between the two cases per call and reports the
//! dichotomy witness when neither applies.

use super::{empty_copy, Trimmer};
use crate::dichotomy::{classify_partial_sum, find_adjacent_cover, SumClassification};
use crate::{CoreError, Result};
use qjoin_data::{Database, Relation, Tuple, Value};
use qjoin_query::{self_join, Instance, JoinQuery, Variable};
use qjoin_ranking::{AggregateKind, CmpOp, RankPredicate, Ranking, SumTupleWeights, WeightBound};
use std::collections::HashMap;

/// Exact trimmer for additive inequalities whose weighted variables all live in a
/// single atom: [`AdjacentSumTrimmer`] restricted to its filter case.
#[derive(Clone, Copy, Debug, Default)]
pub struct SingleAtomSumTrimmer;

impl Trimmer for SingleAtomSumTrimmer {
    fn trim(
        &self,
        instance: &Instance,
        ranking: &Ranking,
        predicate: &RankPredicate,
    ) -> Result<Instance> {
        let (low, high) = window_of(predicate);
        sum_trim(instance, ranking, &low, &high, false)
    }

    fn name(&self) -> &'static str {
        "sum-single-atom"
    }
}

/// Exact trimmer for additive inequalities on the tractable side of Theorem 5.6:
/// single-atom covers are filtered, adjacent-pair covers use the dyadic construction.
/// Both take the whole window `(low, high)` at once, so one partition step of
/// Algorithm 1 is one rewriting of the original instance.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdjacentSumTrimmer;

impl Trimmer for AdjacentSumTrimmer {
    fn trim(
        &self,
        instance: &Instance,
        ranking: &Ranking,
        predicate: &RankPredicate,
    ) -> Result<Instance> {
        let (low, high) = window_of(predicate);
        sum_trim(instance, ranking, &low, &high, true)
    }

    fn trim_between(
        &self,
        instance: &Instance,
        ranking: &Ranking,
        low: &WeightBound,
        high: &WeightBound,
        _first: CmpOp,
    ) -> Result<Instance> {
        sum_trim(instance, ranking, low, high, true)
    }

    fn name(&self) -> &'static str {
        "sum-adjacent"
    }
}

/// The open window a single inequality selects: `≺ λ` is `(⊥, λ)`, `≻ λ` is `(λ, ⊤)`.
pub(crate) fn window_of(predicate: &RankPredicate) -> (WeightBound, WeightBound) {
    match predicate.op {
        CmpOp::Lt => (WeightBound::NegInf, predicate.bound.clone()),
        CmpOp::Gt => (predicate.bound.clone(), WeightBound::PosInf),
    }
}

/// The body of both SUM trimmers: reads the window, finds the cover, and runs the
/// construction for it. `pair_covers` is false for [`SingleAtomSumTrimmer`], which
/// refuses every query whose weighted variables no single atom contains.
fn sum_trim(
    instance: &Instance,
    ranking: &Ranking,
    low: &WeightBound,
    high: &WeightBound,
    pair_covers: bool,
) -> Result<Instance> {
    let range = match SumWindow::new(ranking, low, high)? {
        SumWindow::All => return Ok(instance.clone()),
        SumWindow::Empty => return empty_copy(instance),
        SumWindow::Range(range) => range,
    };
    let instance = self_join::eliminate_self_joins(instance)?;
    match find_adjacent_cover(instance.query(), ranking.weighted_vars()) {
        Some(cover) if cover.is_single_atom() => {
            trim_single_atom(&instance, ranking, range, cover.atoms.0)
        }
        _ if !pair_covers => Err(CoreError::IntractableSum(
            "no single atom contains all weighted variables".to_string(),
        )),
        Some(cover) => trim_adjacent_pair(&instance, ranking, range, cover.atoms),
        None => Err(intractable_sum_error(
            instance.query(),
            ranking.weighted_vars(),
        )),
    }
}

/// The error for a `(query, U_w)` pair without an adjacent cover: the dichotomy
/// witness, or the size limit of the exhaustive cover search.
pub(crate) fn intractable_sum_error(query: &JoinQuery, weighted: &[Variable]) -> CoreError {
    match classify_partial_sum(query, weighted) {
        SumClassification::UnknownTooLarge => CoreError::QueryTooLarge {
            atoms: query.num_atoms(),
            limit: qjoin_query::join_tree::MAX_ENUMERATION_ATOMS,
        },
        other => CoreError::IntractableSum(format!("{other:?}")),
    }
}

/// What an open weight window `(low, high)` asks of a SUM trimmer. Shared by the row
/// trimmers and the encoded trim layer, so both paths read a window identically.
pub(crate) enum SumWindow {
    /// `(⊥, ⊤)`: every answer qualifies and the instance is returned unchanged.
    All,
    /// `low = ⊤` or `high = ⊥`: no answer qualifies.
    Empty,
    /// At least one finite bound: the constructions have work to do.
    Range(SumRange),
}

impl SumWindow {
    /// Reads a window. Sentinel-only windows are resolved before the ranking is
    /// looked at (trimming them is ranking-independent); finite bounds must be
    /// scalars of a SUM ranking.
    pub(crate) fn new(
        ranking: &Ranking,
        low: &WeightBound,
        high: &WeightBound,
    ) -> Result<SumWindow> {
        if *low == WeightBound::PosInf || *high == WeightBound::NegInf {
            return Ok(SumWindow::Empty);
        }
        if low.is_infinite() && high.is_infinite() {
            return Ok(SumWindow::All);
        }
        if ranking.kind() != AggregateKind::Sum {
            return Err(CoreError::UnsupportedRanking(format!(
                "SUM trimmers cannot trim {:?} predicates",
                ranking.kind()
            )));
        }
        let scalar = |bound: &WeightBound| match bound.as_finite() {
            None => Ok(None),
            Some(weight) => weight.as_num().map(Some).ok_or_else(|| {
                CoreError::UnsupportedPredicate("SUM trimming requires a scalar bound".to_string())
            }),
        };
        Ok(SumWindow::Range(SumRange {
            low: scalar(low)?,
            high: scalar(high)?,
        }))
    }
}

/// The scalar bounds of a non-degenerate SUM window; `None` is the unbounded side.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SumRange {
    low: Option<f64>,
    high: Option<f64>,
}

impl SumRange {
    /// `low < s < high`: the single-atom test on a tuple's partial sum.
    pub(crate) fn admits(&self, s: f64) -> bool {
        self.low.is_none_or(|low| s > low) && self.high.is_none_or(|high| s < high)
    }

    /// The positions `[lo, hi)` of a join group's B-side members — sorted ascending
    /// by partial sum — that qualify for an A-side tuple of partial sum `wa`:
    /// `low < w_A + w_B < high ⇔ low − w_A < w_B < high − w_A`, one contiguous run.
    /// (`hi` is clamped up to `lo`: a window with `low ≥ high` selects nothing.)
    pub(crate) fn positions<M>(
        &self,
        members: &[M],
        sum_of: impl Fn(&M) -> f64,
        wa: f64,
    ) -> (usize, usize) {
        let lo = self
            .low
            .map_or(0, |low| members.partition_point(|m| sum_of(m) <= low - wa));
        let hi = self.high.map_or(members.len(), |high| {
            members.partition_point(|m| sum_of(m) < high - wa)
        });
        (lo, hi.max(lo))
    }
}

/// Filters the relation of the covering atom by the tuple's partial sum.
fn trim_single_atom(
    instance: &Instance,
    ranking: &Ranking,
    range: SumRange,
    atom_idx: usize,
) -> Result<Instance> {
    let tw = SumTupleWeights::with_preferred_atoms(instance.query(), ranking, &[atom_idx]);
    let relation = instance.relation_of_atom(atom_idx);
    let filtered = relation.filtered(|t| range.admits(tw.tuple_sum(ranking, atom_idx, t)));
    let mut db = instance.database().clone();
    db.insert_relation(filtered);
    Ok(Instance::new(instance.query().clone(), db)?)
}

/// The dyadic range construction for an adjacent pair of atoms (Lemma 5.5, applied
/// to the contiguous run [`SumRange::positions`] selects instead of a prefix or a
/// suffix — `dyadic_cover` takes any range, so one construction serves both bounds).
fn trim_adjacent_pair(
    instance: &Instance,
    ranking: &Ranking,
    range: SumRange,
    (atom_a, atom_b): (usize, usize),
) -> Result<Instance> {
    let query = instance.query();
    let tw = SumTupleWeights::with_preferred_atoms(query, ranking, &[atom_a, atom_b]);

    // Join-key positions: the variables shared between the two atoms.
    let a_vars = query.atom(atom_a).variable_set();
    let b_vars = query.atom(atom_b).variable_set();
    let shared: Vec<Variable> = a_vars.intersection(&b_vars).cloned().collect();
    let key_pos_a: Vec<usize> = shared
        .iter()
        .map(|v| query.atom(atom_a).positions_of(v)[0])
        .collect();
    let key_pos_b: Vec<usize> = shared
        .iter()
        .map(|v| query.atom(atom_b).positions_of(v)[0])
        .collect();

    // Group B's tuples by the join key and sort each group by its partial sums.
    let rel_b = instance.relation_of_atom(atom_b);
    let mut groups: HashMap<Vec<Value>, Vec<(f64, usize)>> = HashMap::new();
    for (idx, t) in rel_b.iter().enumerate() {
        let key: Vec<Value> = key_pos_b.iter().map(|&p| t[p].clone()).collect();
        let sum = tw.tuple_sum(ranking, atom_b, t);
        groups.entry(key).or_default().push((sum, idx));
    }
    for members in groups.values_mut() {
        members.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }
    // Stable per-group identifiers so that interval ids are unique across groups.
    let mut group_ids: HashMap<Vec<Value>, i64> = HashMap::new();
    let mut ordered_keys: Vec<&Vec<Value>> = groups.keys().collect();
    ordered_keys.sort();
    for (gid, key) in ordered_keys.into_iter().enumerate() {
        group_ids.insert(key.clone(), gid as i64);
    }

    // New variable v shared by the two atoms; its values are dyadic-interval ids.
    let query_vars = query.variable_set();
    let v = Variable::fresh("v_sum", query_vars.iter());
    let new_atom_a = query.atom(atom_a).with_extra_variable(v.clone());
    let new_atom_b = query.atom(atom_b).with_extra_variable(v.clone());
    let new_query = query
        .with_replaced_atom(atom_a, new_atom_a)
        .with_replaced_atom(atom_b, new_atom_b);

    // A-side: connect every A tuple to the dyadic cover of its qualifying range.
    let rel_a = instance.relation_of_atom(atom_a);
    let mut new_a = Relation::new(rel_a.name(), rel_a.arity() + 1);
    let mut cover: Vec<(u32, usize)> = Vec::new();
    for t in rel_a.iter() {
        let key: Vec<Value> = key_pos_a.iter().map(|&p| t[p].clone()).collect();
        let Some(members) = groups.get(&key) else {
            continue;
        };
        let gid = group_ids[&key];
        let wa = tw.tuple_sum(ranking, atom_a, t);
        let (lo, hi) = range.positions(members, |(sum, _)| *sum, wa);
        cover.clear();
        dyadic_cover(lo, hi, |level, index| cover.push((level, index)));
        for &(level, index) in &cover {
            new_a.push_tuple(t.extended(interval_id(gid, level, index)))?;
        }
    }

    // B-side: every B tuple joins the dyadic interval containing its position, one
    // copy per level. Groups are walked in gid (sorted-key) order, not hash-map
    // order: the output row order feeds the next round's pivot scan, so it must be
    // deterministic — and identical to the encoded path's — for the recursion to
    // take the same branches on every run and on both paths.
    let mut sorted_groups: Vec<_> = groups.iter().collect();
    sorted_groups.sort_by_key(|(key, _)| group_ids[*key]);
    let mut new_b = Relation::new(rel_b.name(), rel_b.arity() + 1);
    for (key, members) in sorted_groups {
        let gid = group_ids[key];
        let levels = levels_for(members.len());
        for (pos, (_, idx)) in members.iter().enumerate() {
            let tuple: &Tuple = &rel_b.tuples()[*idx];
            for level in 0..=levels {
                new_b.push_tuple(tuple.extended(interval_id(gid, level, pos >> level)))?;
            }
        }
    }

    let mut db: Database = instance.database().clone();
    db.insert_relation(new_a);
    db.insert_relation(new_b);
    Ok(Instance::new(new_query, db)?)
}

/// The dyadic-interval identifier value carried by the fresh variable `v`.
fn interval_id(group: i64, level: u32, index: usize) -> Value {
    Value::pair(
        Value::Int(group),
        Value::pair(Value::Int(level as i64), Value::Int(index as i64)),
    )
}

/// The number of levels needed to cover positions `0..len`.
pub(crate) fn levels_for(len: usize) -> u32 {
    if len <= 1 {
        0
    } else {
        usize::BITS - (len - 1).leading_zeros()
    }
}

/// The canonical decomposition of the half-open range `[lo, hi)` into aligned dyadic
/// intervals `[index · 2^level, (index + 1) · 2^level)`, handed to `emit` as
/// `(level, index)` in position order. Every position of the range is covered by
/// exactly one interval of the decomposition.
pub(crate) fn dyadic_cover(mut lo: usize, hi: usize, mut emit: impl FnMut(u32, usize)) {
    while lo < hi {
        let align = if lo == 0 {
            u32::MAX
        } else {
            lo.trailing_zeros()
        };
        let mut level = align.min(63);
        while level > 0 && (1usize << level) > hi - lo {
            level -= 1;
        }
        emit(level, lo >> level);
        lo += 1usize << level;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_data::{Database, Relation};
    use qjoin_exec::count::count_answers;
    use qjoin_exec::yannakakis::materialize;
    use qjoin_query::query::{path_query, social_network_query};
    use qjoin_query::variable::vars;
    use qjoin_ranking::Weight;
    use std::collections::HashSet;

    fn brute_force_count(instance: &Instance, ranking: &Ranking, pred: &RankPredicate) -> u128 {
        let answers = materialize(instance).unwrap();
        let schema = answers.variables().to_vec();
        answers
            .rows()
            .iter()
            .filter(|row| pred.satisfied_by(ranking, &ranking.weight_of_row(&schema, row)))
            .count() as u128
    }

    fn two_path_instance(n: i64) -> Instance {
        // R1(x1, x2), R2(x2, x3): x2 ∈ {0, 1}, values spread out so sums vary.
        let mut r1 = Relation::new("R1", 2);
        let mut r2 = Relation::new("R2", 2);
        for i in 0..n {
            r1.push(vec![Value::from(3 * i + (i % 7)), Value::from(i % 2)])
                .unwrap();
            r2.push(vec![Value::from(i % 2), Value::from(5 * i - 2 * (i % 3))])
                .unwrap();
        }
        Instance::new(path_query(2), Database::from_relations([r1, r2]).unwrap()).unwrap()
    }

    #[test]
    fn dyadic_cover_is_a_partition_of_the_range() {
        for (lo, hi) in [
            (0, 0),
            (0, 1),
            (0, 13),
            (3, 17),
            (5, 6),
            (0, 64),
            (7, 64),
            (31, 33),
        ] {
            let mut cover = Vec::new();
            dyadic_cover(lo, hi, |level, index| cover.push((level, index)));
            let mut covered: Vec<usize> = Vec::new();
            for (level, index) in &cover {
                let start = index << level;
                let end = start + (1usize << level);
                assert!(
                    start >= lo && end <= hi,
                    "interval [{start},{end}) escapes [{lo},{hi})"
                );
                covered.extend(start..end);
            }
            covered.sort_unstable();
            let expected: Vec<usize> = (lo..hi).collect();
            assert_eq!(covered, expected, "range [{lo}, {hi})");
            assert!(cover.len() <= 2 * (usize::BITS as usize), "cover too large");
        }
    }

    #[test]
    fn single_atom_trimmer_filters_the_covering_relation() {
        let inst = two_path_instance(20);
        let ranking = Ranking::sum(vars(&["x1", "x2"]));
        for bound in [5.0, 20.0, 43.0] {
            for pred in [
                RankPredicate::less_than(Weight::num(bound)),
                RankPredicate::greater_than(Weight::num(bound)),
            ] {
                let trimmed = SingleAtomSumTrimmer.trim(&inst, &ranking, &pred).unwrap();
                assert_eq!(
                    count_answers(&trimmed).unwrap(),
                    brute_force_count(&inst, &ranking, &pred),
                    "bound {bound}, {pred}"
                );
                assert_eq!(trimmed.query(), inst.query());
            }
        }
    }

    #[test]
    fn single_atom_trimmer_rejects_spread_out_sums() {
        let inst = two_path_instance(5);
        let ranking = Ranking::sum(inst.query().variables());
        let pred = RankPredicate::less_than(Weight::num(10.0));
        assert!(matches!(
            SingleAtomSumTrimmer
                .trim(&inst, &ranking, &pred)
                .unwrap_err(),
            CoreError::IntractableSum(_)
        ));
    }

    #[test]
    fn adjacent_trimmer_matches_brute_force_on_full_sum_binary_join() {
        let inst = two_path_instance(30);
        let ranking = Ranking::sum(inst.query().variables());
        let answers = materialize(&inst).unwrap();
        let schema = answers.variables().to_vec();
        // Use actual answer weights as bounds so both sides are non-trivial.
        let mut bounds: Vec<f64> = answers
            .rows()
            .iter()
            .map(|r| ranking.weight_of_row(&schema, r).as_num().unwrap())
            .collect();
        bounds.sort_by(f64::total_cmp);
        for &bound in [
            bounds[0],
            bounds[bounds.len() / 3],
            bounds[bounds.len() / 2],
            *bounds.last().unwrap(),
        ]
        .iter()
        {
            for pred in [
                RankPredicate::less_than(Weight::num(bound)),
                RankPredicate::greater_than(Weight::num(bound)),
            ] {
                let trimmed = AdjacentSumTrimmer.trim(&inst, &ranking, &pred).unwrap();
                assert_eq!(
                    count_answers(&trimmed).unwrap(),
                    brute_force_count(&inst, &ranking, &pred),
                    "bound {bound}, {pred}"
                );
                assert!(qjoin_query::acyclicity::is_acyclic(trimmed.query()));
            }
        }
    }

    #[test]
    fn trimmed_answers_are_exactly_the_qualifying_answers() {
        let inst = two_path_instance(15);
        let ranking = Ranking::sum(inst.query().variables());
        let pred = RankPredicate::less_than(Weight::num(40.0));
        let trimmed = AdjacentSumTrimmer.trim(&inst, &ranking, &pred).unwrap();
        let original_vars = inst.query().variables();

        let expected: HashSet<Vec<Value>> = {
            let answers = materialize(&inst).unwrap();
            let schema = answers.variables().to_vec();
            answers
                .rows()
                .iter()
                .filter(|row| pred.satisfied_by(&ranking, &ranking.weight_of_row(&schema, row)))
                .cloned()
                .collect()
        };
        let got: Vec<Vec<Value>> = materialize(&trimmed)
            .unwrap()
            .iter_assignments()
            .map(|asg| {
                original_vars
                    .iter()
                    .map(|v| asg.get(v).unwrap().clone())
                    .collect()
            })
            .collect();
        // The projection is a bijection: same multiset, no duplicates.
        let got_set: HashSet<Vec<Value>> = got.iter().cloned().collect();
        assert_eq!(got.len(), got_set.len(), "projection must be injective");
        assert_eq!(got_set, expected);
    }

    #[test]
    fn partial_sum_on_three_path_is_supported() {
        // The Section 5.3 example: 3-path with U_w = {x1, x2, x3}.
        let r1 = Relation::from_rows("R1", &[&[1, 1], &[7, 1], &[3, 2], &[10, 2]]).unwrap();
        let r2 = Relation::from_rows("R2", &[&[1, 4], &[1, 9], &[2, 4], &[2, 11]]).unwrap();
        let r3 = Relation::from_rows("R3", &[&[4, 0], &[4, 5], &[9, 1], &[11, 2]]).unwrap();
        let inst = Instance::new(
            path_query(3),
            Database::from_relations([r1, r2, r3]).unwrap(),
        )
        .unwrap();
        let ranking = Ranking::sum(vars(&["x1", "x2", "x3"]));
        for bound in [3.0, 10.0, 15.0, 21.0] {
            for pred in [
                RankPredicate::less_than(Weight::num(bound)),
                RankPredicate::greater_than(Weight::num(bound)),
            ] {
                let trimmed = AdjacentSumTrimmer.trim(&inst, &ranking, &pred).unwrap();
                assert_eq!(
                    count_answers(&trimmed).unwrap(),
                    brute_force_count(&inst, &ranking, &pred),
                    "bound {bound}, {pred}"
                );
            }
        }
    }

    #[test]
    fn social_network_like_sum_is_supported() {
        let admin = Relation::from_rows("Admin", &[&[1, 10], &[2, 10], &[3, 20]]).unwrap();
        let share = Relation::from_rows("Share", &[&[4, 10, 5], &[5, 10, 8], &[6, 20, 2]]).unwrap();
        let attend =
            Relation::from_rows("Attend", &[&[7, 10, 1], &[8, 10, 9], &[9, 20, 4]]).unwrap();
        let inst = Instance::new(
            social_network_query(),
            Database::from_relations([admin, share, attend]).unwrap(),
        )
        .unwrap();
        let ranking = Ranking::sum(vars(&["l2", "l3"]));
        for bound in [4.0, 8.0, 13.0] {
            for pred in [
                RankPredicate::less_than(Weight::num(bound)),
                RankPredicate::greater_than(Weight::num(bound)),
            ] {
                let trimmed = AdjacentSumTrimmer.trim(&inst, &ranking, &pred).unwrap();
                assert_eq!(
                    count_answers(&trimmed).unwrap(),
                    brute_force_count(&inst, &ranking, &pred),
                    "bound {bound}, {pred}"
                );
            }
        }
    }

    #[test]
    fn repeated_trimming_stays_in_the_tractable_class() {
        // Two stacked single-bound trims: what `trim_between`'s default composes, and
        // what callers chaining `trim` still get.
        let inst = two_path_instance(25);
        let ranking = Ranking::sum(inst.query().variables());
        let first = AdjacentSumTrimmer
            .trim(
                &inst,
                &ranking,
                &RankPredicate::less_than(Weight::num(80.0)),
            )
            .unwrap();
        let second = AdjacentSumTrimmer
            .trim(
                &first,
                &ranking,
                &RankPredicate::greater_than(Weight::num(20.0)),
            )
            .unwrap();
        let expected = {
            let answers = materialize(&inst).unwrap();
            let schema = answers.variables().to_vec();
            answers
                .rows()
                .iter()
                .filter(|row| {
                    let w = ranking.weight_of_row(&schema, row).as_num().unwrap();
                    w < 80.0 && w > 20.0
                })
                .count() as u128
        };
        assert_eq!(count_answers(&second).unwrap(), expected);
        assert!(qjoin_query::acyclicity::is_acyclic(second.query()));
    }

    #[test]
    fn intractable_queries_report_a_witness() {
        let r1 = Relation::from_rows("R1", &[&[1, 1]]).unwrap();
        let r2 = Relation::from_rows("R2", &[&[1, 1]]).unwrap();
        let r3 = Relation::from_rows("R3", &[&[1, 1]]).unwrap();
        let inst = Instance::new(
            path_query(3),
            Database::from_relations([r1, r2, r3]).unwrap(),
        )
        .unwrap();
        let ranking = Ranking::sum(inst.query().variables());
        let pred = RankPredicate::less_than(Weight::num(10.0));
        assert!(matches!(
            AdjacentSumTrimmer.trim(&inst, &ranking, &pred).unwrap_err(),
            CoreError::IntractableSum(_)
        ));
    }

    #[test]
    fn levels_for_covers_group_sizes() {
        assert_eq!(levels_for(0), 0);
        assert_eq!(levels_for(1), 0);
        assert_eq!(levels_for(2), 1);
        assert_eq!(levels_for(3), 2);
        assert_eq!(levels_for(8), 3);
        assert_eq!(levels_for(9), 4);
    }
}

#[cfg(test)]
mod quantile_preservation_tests {
    use super::*;
    use crate::dichotomy::classify_partial_sum;
    use crate::trim::test_support::{assert_exact_partition_at_phi, small_random_instance};
    use qjoin_query::Variable;

    /// Partial-SUM trimming at the φ-quantile weight of small random acyclic
    /// instances must be exact and must preserve the quantile answer, whenever
    /// the dichotomy puts the (query, U_w) pair on the tractable side.
    #[test]
    fn adjacent_sum_trim_preserves_phi_quantile_on_random_instances() {
        let mut checked = 0usize;
        for seed in 0..16u64 {
            for atoms in 1..=3usize {
                let instance = small_random_instance(seed, atoms);
                let weighted: Vec<Variable> =
                    instance.query().variables().into_iter().take(3).collect();
                if !classify_partial_sum(instance.query(), &weighted).is_tractable() {
                    continue;
                }
                let ranking = Ranking::sum(weighted);
                for phi in [0.1, 0.5, 0.9] {
                    if assert_exact_partition_at_phi(&AdjacentSumTrimmer, &instance, &ranking, phi)
                    {
                        checked += 1;
                    }
                }
            }
        }
        assert!(
            checked >= 20,
            "too few tractable non-empty cases exercised: {checked}"
        );
    }
}
