//! Encoded SUM trimming: the Section 5 constructions producing selection-vector views.
//!
//! Each trimmer here is the encoded twin of the row [`AdjacentSumTrimmer`]: it finds
//! the *same* adjacent cover, then rewrites the encoded instance by building views
//! instead of materialized relations:
//!
//! * a single-atom filter becomes a **selection vector** over the shared base columns;
//! * the dyadic SUM construction becomes a selection vector **with repeats** plus a
//!   per-row synthesized column of packed `(group, level, index)` interval codes,
//!   bit-packed so that code order equals the row path's composite-value order. It
//!   takes the whole open window `(low, high)` of a partition step, so a round is
//!   one construction over the original relations — never a second one stacked on
//!   the first one's log-expanded output.
//!
//! An instance keeps what no window changes in its exec memo, per ranking, built by
//! its first trim: a [`DyadicTemplate`] of the cover, trimmed query and tree, partial
//! sums, B's sorted groups and whole expansion (B′ is the same in every window), each
//! A row's group, and every edge's join groups over the views' rows (the only keys
//! hashed). A window scans A's rows (or the filtered sums), and its context is
//! [derived](EncodedContext::derive): a row reads its groups through the base row it
//! copies, an A′–B′ link is its interval's `(group, level, index)` as a dense id.
//!
//! Because both paths share the cover search, they partition the answer set
//! identically; the equivalence suite asserts the resulting quantile answers are
//! pointwise equal. (MIN, MAX and LEX trim nothing on the encoded path: see
//! [`super::search`].)
//!
//! [`AdjacentSumTrimmer`]: crate::trim::AdjacentSumTrimmer

use super::weights::CodeWeights;
use crate::dichotomy::find_adjacent_cover;
use crate::trim::sum::{dyadic_cover, intractable_sum_error, levels_for, SumRange, SumWindow};
use crate::{CoreError, Result};
use qjoin_data::EncodedRelation;
use qjoin_exec::encoded::{FixedEdge, KeyMap};
use qjoin_exec::{EncodedContext, ExecError, Key};
use qjoin_query::{acyclicity, EncodedInstance, JoinQuery, JoinTree, Variable};
use qjoin_ranking::{Ranking, SumTupleWeights, WeightBound};
use std::sync::Arc;

/// Encoded partial-SUM trimming to the open window `(low, high)`: single-atom filter
/// or the dyadic adjacent-pair construction, selected by the same cover search as
/// the row trimmer, a window of the instance's [`DyadicTemplate`] for `ranking`.
pub(crate) fn sum_trim_encoded(
    instance: &EncodedInstance,
    ranking: &Ranking,
    low: &WeightBound,
    high: &WeightBound,
    weights: &CodeWeights,
) -> Result<EncodedInstance> {
    let range = match SumWindow::new(ranking, low, high)? {
        SumWindow::All => return Ok(instance.clone()),
        SumWindow::Empty => return Ok(instance.empty_copy()),
        SumWindow::Range(range) => range,
    };
    let memo = instance.exec_memo();
    if let Some(template) = memo
        .get::<DyadicTemplate>()
        .filter(|t| t.ranking == *ranking)
    {
        return template.window(range);
    }
    // Built outside every lock: racing trims build identical templates.
    let template = Arc::new(DyadicTemplate::build(instance, ranking, weights)?);
    memo.set(Arc::clone(&template));
    template.window(range)
}

/// The weighted variables assigned to `atom_idx` by the tuple-weight mapping `μ`, as
/// `(per-code weight table, first position)` pairs — the same variables, in the same
/// order, as the row path's [`SumTupleWeights::tuple_sum`] folds.
pub(super) fn weighted_pairs<'w>(
    query: &qjoin_query::JoinQuery,
    tuple_weights: &SumTupleWeights,
    weights: &'w CodeWeights,
    atom_idx: usize,
) -> Vec<(&'w [f64], usize)> {
    tuple_weights
        .vars_of_atom(atom_idx)
        .map(|v| (weights.table(v), query.atom(atom_idx).positions_of(v)[0]))
        .collect()
}

/// The partial sum carried by one view row (mirrors `SumTupleWeights::tuple_sum`,
/// including the fold order).
#[inline]
pub(super) fn row_sum(rel: &EncodedRelation, pairs: &[(&[f64], usize)], row: usize) -> f64 {
    pairs
        .iter()
        .map(|(table, pos)| table[rel.code(row, *pos) as usize])
        .sum()
}

/// The partial sum of every row of a view (see [`row_sum`]), in row order.
pub(super) fn row_sums(rel: &EncodedRelation, pairs: &[(&[f64], usize)]) -> Vec<f64> {
    (0..rel.len()).map(|row| row_sum(rel, pairs, row)).collect()
}

/// Bit widths of the packed dyadic-interval code: `gid(26) | level(6) | index(32)`.
/// The field order makes packed-code order equal the row path's lexicographic
/// `(group, (level, index))` composite order; the gid cap keeps the maximum packed
/// value strictly below `u64::MAX` (the pivot layer's unbound sentinel).
const INTERVAL_GID_SHIFT: u64 = 38;
const INTERVAL_LEVEL_SHIFT: u64 = 32;
const INTERVAL_MAX_GID: u64 = (1 << 26) - 2;

/// Refuses a B-side view whose rows overflow the construction's 32-bit fields: the
/// template stores B's rows as `u32`s, and a group's member positions fill the
/// packed code's 32-bit index (a group of at most `2³²` members has levels `≤ 32`,
/// inside the 6 level bits).
fn check_b_view_fits(rows: usize) -> Result<()> {
    let limit = u32::MAX as usize;
    if rows > limit {
        return Err(CoreError::TooLarge(format!(
            "dyadic SUM construction over a view of {rows} rows; the packed interval \
             code addresses at most {limit}"
        )));
    }
    Ok(())
}

/// Refuses more join groups than the packed code's gid field holds.
fn check_group_count_fits(groups: usize) -> Result<()> {
    if groups as u64 > INTERVAL_MAX_GID + 1 {
        return Err(CoreError::TooLarge(format!(
            "dyadic SUM construction needs {groups} join groups; the packed interval \
             code supports at most {}",
            INTERVAL_MAX_GID + 1
        )));
    }
    Ok(())
}

/// Packs one interval identifier. The field ranges are established once per
/// construction by [`check_b_view_fits`] and [`check_group_count_fits`].
#[inline]
fn pack_interval(gid: u64, level: u32, index: usize) -> u64 {
    (gid << INTERVAL_GID_SHIFT) | (u64::from(level) << INTERVAL_LEVEL_SHIFT) | index as u64
}

/// The window-independent half of the SUM trims of one instance for one ranking
/// (see the module docs).
struct DyadicTemplate {
    ranking: Ranking,
    /// The self-join-free instance every window rewrites, with a memo of its own.
    base: EncodedInstance,
    /// The trimmed query and its GYO tree.
    query: JoinQuery,
    tree: JoinTree,
    /// Per child node, its edge's `(child, parent)` groups over the base views'
    /// rows (`None` on the `v` edge, whose ids a window computes).
    edges: Vec<Option<(Vec<u32>, Vec<u32>)>>,
    /// The covering atom (A, for the pair) and its rows' partial sums.
    atom: usize,
    sums: Vec<f64>,
    pair: Option<Pair>,
}

/// B's half of the dyadic construction.
struct Pair {
    atom: usize,
    /// Each A row's B group (`u32::MAX`: none).
    a_groups: Vec<u32>,
    /// Group `g`'s member sums, ascending by `(sum, row)`: `sums[starts[g]..starts[g + 1]]`.
    sums: Vec<f64>,
    starts: Vec<u32>,
    /// Group `g`'s first B′ row. The `v` id of an interval is the B′ row of its first
    /// member's copy at its level, [`v_id`].
    firsts: Vec<usize>,
    /// The B′ view every window shares, and each B′ row's B row and `v` id.
    view: EncodedRelation,
    origin: Vec<u32>,
    v: Vec<u32>,
}

/// The `v` id of interval `(level, index)` of a group of `levels` levels whose B′
/// rows start at `first` (each member's copies, one per level, in member order).
fn v_id(first: usize, levels: u32, level: u32, index: usize) -> u32 {
    (first + (index << level) * (levels as usize + 1) + level as usize) as u32
}

/// The join key at `positions` of every row of `rel`, in row order.
pub(super) fn keys(rel: &EncodedRelation, positions: &[usize]) -> Vec<Key> {
    let mut codes = Vec::with_capacity(positions.len());
    (0..rel.len())
        .map(|row| {
            codes.clear();
            codes.extend(positions.iter().map(|&p| rel.code(row, p)));
            Key::from_codes(&codes)
        })
        .collect()
}

impl DyadicTemplate {
    fn build(instance: &EncodedInstance, ranking: &Ranking, weights: &CodeWeights) -> Result<Self> {
        super::weights::refuse_non_finite(instance, ranking, weights)?;
        let base = instance.eliminate_self_joins()?;
        let base = base.with_rewritten(base.query().clone(), [])?;
        let (query, weighted) = (base.query(), ranking.weighted_vars());
        let cover = find_adjacent_cover(query, weighted)
            .ok_or_else(|| intractable_sum_error(query, weighted))?;
        let (a, b) = cover.atoms;
        let tuple_weights = SumTupleWeights::with_preferred_atoms(query, ranking, &[a, b]);
        let pairs = |atom| weighted_pairs(query, &tuple_weights, weights, atom);
        let sums = |atom| row_sums(base.relation_of_atom(atom), &pairs(atom));
        let pair = (a != b)
            .then(|| Pair::build(&base, (a, b), &sums(b)))
            .transpose()?;
        // A new variable v the pair shares; its codes are packed interval ids.
        let mut trimmed = query.clone();
        let v = Variable::fresh("v_sum", query.variable_set().iter());
        for atom in [a, b].into_iter().filter(|_| pair.is_some()) {
            let extended = query.atom(atom).with_extra_variable(v.clone());
            trimmed = trimmed.with_replaced_atom(atom, extended);
        }
        let tree = acyclicity::gyo_join_tree(&trimmed)
            .ok_or_else(|| ExecError::CyclicQuery(trimmed.to_string()))?;
        let edges = (0..tree.num_nodes())
            .map(|child| {
                let parent = tree.node(child).parent?;
                let ends = [child, parent].map(|node| tree.node(node).atom_index);
                (a == b || ends != [a, b] && ends != [b, a]).then(|| {
                    let shared = tree.shared_with_parent(&trimmed, child);
                    let [child, parent] = ends.map(|atom| {
                        let atom_of = trimmed.atom(atom);
                        let positions = shared.iter().map(|v| atom_of.positions_of(v)[0]);
                        keys(base.relation_of_atom(atom), &positions.collect::<Vec<_>>())
                    });
                    let mut ids: KeyMap<u32> = KeyMap::default();
                    let child = (child.into_iter())
                        .map(|key| {
                            let next = ids.len() as u32;
                            *ids.entry(key).or_insert(next)
                        })
                        .collect();
                    let parent = parent.iter().map(|key| ids.get(key).copied());
                    (child, parent.map(|id| id.unwrap_or(u32::MAX)).collect())
                })
            })
            .collect();
        Ok(DyadicTemplate {
            ranking: ranking.clone(),
            sums: sums(a),
            base,
            query: trimmed,
            tree,
            edges,
            atom: a,
            pair,
        })
    }

    /// The trim to `range`: views byte-identical to a fresh construction's, and
    /// the trimmed instance's context derived and left in its memo.
    fn window(&self, range: SumRange) -> Result<EncodedInstance> {
        let rel = self.base.relation_of_atom(self.atom);
        let (view, origin, v) = match &self.pair {
            None => {
                let view = rel.filtered(|row| range.admits(self.sums[row]));
                let kept =
                    (0..rel.len() as u32).filter(|&row| range.admits(self.sums[row as usize]));
                (view, kept.collect(), Vec::new())
            }
            // Rows are independent, so the A scan is chunked; the chunks append in
            // canonical order, reproducing the sequential output exactly.
            Some(pair) => {
                let parts =
                    qjoin_par::par_map_chunks(rel.len(), qjoin_par::DEFAULT_CHUNK, |_, chunk| {
                        let mut part = (Vec::new(), Vec::new(), Vec::new());
                        for row in chunk {
                            let g = pair.a_groups[row] as usize;
                            let Some(&start) = pair.starts.get(g) else {
                                continue;
                            };
                            let members = &pair.sums[start as usize..pair.starts[g + 1] as usize];
                            let (lo, hi) = range.positions(members, |&sum| sum, self.sums[row]);
                            let levels = levels_for(members.len());
                            dyadic_cover(lo, hi, |level, index| {
                                part.0.push(row as u32);
                                part.1.push(pack_interval(g as u64, level, index));
                                part.2.push(v_id(pair.firsts[g], levels, level, index));
                            });
                        }
                        part
                    });
                let (mut origin, mut codes, mut v) = (Vec::new(), Vec::new(), Vec::new());
                for part in parts {
                    origin.extend(part.0);
                    codes.extend(part.1);
                    v.extend(part.2);
                }
                (rel.select(origin.clone()).with_synth(codes), origin, v)
            }
        };
        let mut views = vec![view];
        views.extend(self.pair.as_ref().map(|pair| pair.view.clone()));
        let trimmed = self.base.with_rewritten(self.query.clone(), views)?;
        // A row reads a non-`v` edge's groups through the base row it copies, and the
        // `v` edge's (among B′'s rows) through its own id.
        let (tree, pair) = (&self.tree, self.pair.as_ref());
        let side = |node: usize| match (tree.node(node).atom_index, pair) {
            (atom, _) if atom == self.atom => (Some(&origin[..]), &v[..]),
            (atom, Some(b)) if atom == b.atom => (Some(&b.origin[..]), &b.v[..]),
            _ => (None, &[][..]),
        };
        let edges: Vec<Option<FixedEdge>> = (0..tree.num_nodes())
            .map(|child| {
                let [(child_origin, child_v), (parent_origin, parent_v)] =
                    [child, tree.node(child).parent?].map(side);
                Some(match &self.edges[child] {
                    Some((child_groups, parent_groups)) => FixedEdge {
                        child: (child_groups, child_origin),
                        parent: (parent_groups, parent_origin),
                    },
                    None => FixedEdge {
                        child: (child_v, None),
                        parent: (parent_v, None),
                    },
                })
            })
            .collect();
        let ctx = EncodedContext::derive(&trimmed, tree.clone(), Some(&edges));
        trimmed.exec_memo().set(Arc::new(ctx));
        Ok(trimmed)
    }
}

impl Pair {
    /// B's groups as the row path has them (gids in sorted key order, members by
    /// `(sum, row)`), B expanded in gid order, and each A row's group.
    fn build(base: &EncodedInstance, (a, b): (usize, usize), b_sums: &[f64]) -> Result<Pair> {
        let query = base.query();
        let shared = (query.atom(a).variable_set())
            .intersection(&query.atom(b).variable_set())
            .cloned()
            .collect::<Vec<Variable>>();
        let keys_of = |atom: usize| {
            let positions = shared.iter().map(|v| query.atom(atom).positions_of(v)[0]);
            keys(base.relation_of_atom(atom), &positions.collect::<Vec<_>>())
        };
        let rel = base.relation_of_atom(b);
        check_b_view_fits(rel.len())?;
        let mut groups: KeyMap<Vec<u32>> = KeyMap::default();
        for (row, key) in keys_of(b).into_iter().enumerate() {
            groups.entry(key).or_default().push(row as u32);
        }
        check_group_count_fits(groups.len())?;
        let mut groups: Vec<(Key, Vec<u32>)> = groups.into_iter().collect();
        groups.sort_unstable_by(|x, y| x.0.cmp(&y.0));
        let gids: KeyMap<u32> = (groups.iter().enumerate())
            .map(|(gid, (key, _))| (key.clone(), gid as u32))
            .collect();
        let a_keys = keys_of(a);
        let (mut origin, mut codes, mut v, mut sums) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut starts, mut firsts) = (vec![0], Vec::new());
        for (gid, (_, members)) in groups.iter_mut().enumerate() {
            let sum = |row: u32| b_sums[row as usize];
            members.sort_unstable_by(|&x, &y| sum(x).total_cmp(&sum(y)).then(x.cmp(&y)));
            let (levels, first) = (levels_for(members.len()), origin.len());
            for (pos, &row) in members.iter().enumerate() {
                for level in 0..=levels {
                    origin.push(row);
                    codes.push(pack_interval(gid as u64, level, pos >> level));
                    v.push(v_id(first, levels, level, pos >> level));
                }
                sums.push(sum(row));
            }
            starts.push(sums.len() as u32);
            firsts.push(first);
        }
        Ok(Pair {
            atom: b,
            a_groups: (a_keys.iter())
                .map(|key| gids.get(key).copied().unwrap_or(u32::MAX))
                .collect(),
            sums,
            starts,
            firsts,
            view: rel.select(origin.clone()).with_synth(codes),
            origin,
            v,
        })
    }
}

#[cfg(test)]
#[path = "trim_tests.rs"]
mod derived;

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::encoded::EncodedBackend;
    use crate::quantile::{materialized_keyed_answers, RowBackend, SolveBackend};
    use crate::trim::{two_pass_trim, AdjacentSumTrimmer, Trimmer};
    use qjoin_data::{Database, Relation, Value};
    use qjoin_query::variable::vars;
    use qjoin_query::{Atom, Instance, JoinQuery};
    use qjoin_ranking::{CmpOp, Weight};
    use qjoin_workload::path::PathConfig;
    use qjoin_workload::social::SocialConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Answers = Vec<(Weight, Vec<Value>)>;

    /// The answers of a (trimmed) backend instance as sorted `(weight, original
    /// values)` pairs — a multiset, so a construction that duplicated or dropped an
    /// answer shows up.
    pub(in crate::encoded) fn answers_of<B: SolveBackend>(
        backend: &B,
        instance: &B::Inst,
        original: &[Variable],
    ) -> Answers {
        // Both leaf passes, asked for everything: every locator, any weight.
        let mut locators: Vec<u32> = (backend.leaf_weights(instance).unwrap())
            .into_iter()
            .map(|(_, locator)| locator)
            .collect();
        locators.sort_unstable();
        locators.dedup();
        let mut out: Answers = backend
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

    /// Windows that exercise every branch of the range construction: the sentinels
    /// on either or both sides, bounds equal to existing answer weights
    /// (strictness), bounds between weights, and `low ≥ high` (empty).
    pub(super) fn windows(weights: &[f64], seed: u64) -> Vec<(WeightBound, WeightBound)> {
        let finite = |w: f64| WeightBound::Finite(Weight::num(w));
        let (min, max) = (weights[0], weights[weights.len() - 1]);
        let median = weights[weights.len() / 2];
        let mut out = vec![
            (WeightBound::NegInf, WeightBound::PosInf),
            (WeightBound::NegInf, finite(median)),
            (finite(median), WeightBound::PosInf),
            (WeightBound::PosInf, WeightBound::PosInf),
            (WeightBound::NegInf, WeightBound::NegInf),
            (finite(median), WeightBound::NegInf),
            (finite(min), finite(max)),
            (finite(median), finite(median)),
            (finite(max), finite(min)),
            (finite(min - 1.0), finite(max + 1.0)),
            (finite(median - 0.5), finite(median + 0.5)),
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..6 {
            let a = weights[rng.random_range(0..weights.len())];
            let b = weights[rng.random_range(0..weights.len())];
            out.push((finite(a), finite(b)));
            out.push((finite(a.min(b) - 0.5), finite(a.max(b) + 0.5)));
        }
        out
    }

    /// `trim_between`, the two-pass composition and a brute-force filter over the
    /// materialized answers must agree, answer for answer, on one backend.
    fn assert_window_trims_agree<B: SolveBackend>(
        backend: &B,
        instance: &B::Inst,
        original: &[Variable],
        all: &Answers,
        seed: u64,
        context: &str,
    ) {
        let mut weights: Vec<f64> = all.iter().map(|(w, _)| w.as_num().unwrap()).collect();
        weights.sort_by(f64::total_cmp);
        for (low, high) in windows(&weights, seed) {
            let mut expected: Answers = all
                .iter()
                .filter(|(w, _)| {
                    let w = WeightBound::Finite(w.clone());
                    low < w && w < high
                })
                .cloned()
                .collect();
            expected.sort();
            let fused = backend
                .trim_between(instance, &low, &high, CmpOp::Lt)
                .unwrap();
            assert_eq!(
                backend.count(&fused).unwrap(),
                expected.len() as u128,
                "{context}: count of ({low}, {high})"
            );
            assert_eq!(
                answers_of(backend, &fused, original),
                expected,
                "{context}: fused ({low}, {high}) against the brute-force filter"
            );
            for first in [CmpOp::Lt, CmpOp::Gt] {
                let stacked = two_pass_trim(instance, &low, &high, first, |instance, predicate| {
                    backend.trim(instance, predicate)
                })
                .unwrap();
                assert_eq!(
                    answers_of(backend, &stacked, original),
                    expected,
                    "{context}: two-pass {first:?}-first ({low}, {high}) against the brute-force filter"
                );
            }
        }
    }

    fn assert_both_backends_agree(instance: &Instance, ranking: &Ranking, seed: u64, name: &str) {
        let original = instance.query().variables();
        let all = materialized_keyed_answers(instance, ranking, &original).unwrap();
        assert!(!all.is_empty(), "{name}: instance has no answers");
        let row = RowBackend {
            ranking,
            trimmer: &AdjacentSumTrimmer,
        };
        assert_window_trims_agree(
            &row,
            instance,
            &original,
            &all,
            seed,
            &format!("{name} row"),
        );
        let encoded_instance = EncodedInstance::from_instance(instance).unwrap();
        let encoded = EncodedBackend::new(&encoded_instance, ranking);
        assert_window_trims_agree(
            &encoded,
            &encoded_instance,
            &original,
            &all,
            seed,
            &format!("{name} encoded"),
        );
    }

    pub(super) fn path_instance(atoms: usize, seed: u64) -> Instance {
        PathConfig {
            atoms,
            tuples_per_relation: 14,
            join_domain: 3,
            weight_range: 25,
            skew: 0.3,
            seed,
        }
        .generate()
    }

    /// `E(x1, x2) ⋈ E(x2, x3)`: both atoms read the same relation, so the trim must
    /// first split it (the dyadic rewrite gives the two atoms different rows).
    pub(super) fn self_join_instance(seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Relation::new("E", 2);
        for _ in 0..16 {
            edges
                .push(vec![
                    Value::from(rng.random_range(0..5i64)),
                    Value::from(rng.random_range(0..5i64)),
                ])
                .unwrap();
        }
        let query = JoinQuery::new(vec![
            Atom::from_names("E", &["x1", "x2"]),
            Atom::from_names("E", &["x2", "x3"]),
        ]);
        Instance::new(query, Database::from_relations([edges]).unwrap()).unwrap()
    }

    #[test]
    fn window_trims_match_the_two_pass_composition_and_brute_force() {
        for seed in 0..6u64 {
            let two_path = path_instance(2, seed);
            let full = Ranking::sum(two_path.query().variables());
            assert_both_backends_agree(&two_path, &full, seed, "2-path");
            // A single-atom cover goes through the filter, not the dyadic rewrite.
            let single = Ranking::sum(vars(&["x1", "x2"]));
            assert_both_backends_agree(&two_path, &single, seed, "2-path single atom");

            let three_path = path_instance(3, seed);
            let partial = Ranking::sum(vars(&["x1", "x2", "x3"]));
            assert_both_backends_agree(&three_path, &partial, seed, "3-path");

            let config = SocialConfig {
                users: 12,
                events: 4,
                rows_per_relation: 14,
                max_likes: 20,
                seed,
                ..Default::default()
            };
            assert_both_backends_agree(&config.generate(), &config.likes_ranking(), seed, "social");

            let self_join = self_join_instance(seed);
            let ends = Ranking::sum(vars(&["x1", "x3"]));
            assert_both_backends_agree(&self_join, &ends, seed, "self-join");
        }
    }

    /// The fused construction adds exactly one synthesized column to each of the two
    /// covered relations — a two-pass composition would add two — and expands B by
    /// at most one copy per dyadic level of its largest group.
    #[test]
    fn fused_adjacent_pair_adds_one_column_and_a_logarithmic_b_side() {
        let instance = path_instance(2, 7);
        let ranking = Ranking::sum(instance.query().variables());
        let encoded = EncodedInstance::from_instance(&instance).unwrap();
        let backend = EncodedBackend::new(&encoded, &ranking);
        let (low, high) = (
            WeightBound::Finite(Weight::num(10.0)),
            WeightBound::Finite(Weight::num(30.0)),
        );
        let trimmed = backend
            .trim_between(&encoded, &low, &high, CmpOp::Lt)
            .unwrap();
        assert!(
            backend.count(&trimmed).unwrap() > 0,
            "window must be non-trivial"
        );
        assert_eq!(
            trimmed.query().variables().len(),
            encoded.query().variables().len() + 1
        );
        let b_rows = encoded.relation_of_atom(1).len();
        for atom in 0..2 {
            assert_eq!(
                trimmed.relation_of_atom(atom).synth_arity(),
                1,
                "atom {atom}"
            );
            assert_eq!(trimmed.query().atom(atom).arity(), 3, "atom {atom}");
        }
        assert!(
            trimmed.relation_of_atom(1).len() <= b_rows * (levels_for(b_rows) as usize + 1),
            "B side grew past |B|·(levels+1): {} from {b_rows}",
            trimmed.relation_of_atom(1).len()
        );

        // The row twin: one extra column on each relation, same B-side bound.
        let row = AdjacentSumTrimmer
            .trim_between(&instance, &ranking, &low, &high, CmpOp::Lt)
            .unwrap();
        for atom in 0..2 {
            assert_eq!(row.relation_of_atom(atom).arity(), 3, "row atom {atom}");
        }
        assert_eq!(
            row.relation_of_atom(1).len(),
            trimmed.relation_of_atom(1).len()
        );
        assert_eq!(
            row.relation_of_atom(0).len(),
            trimmed.relation_of_atom(0).len()
        );
    }

    /// Shapes the packed `gid(26) | level(6) | index(32)` code cannot hold are
    /// refused with a typed error (they used to be `debug_assert!`s and unchecked
    /// `as u32` casts, i.e. silent corruption in release builds).
    #[test]
    fn oversized_constructions_are_refused_not_truncated() {
        let limit = u32::MAX as usize;
        assert!(check_b_view_fits(limit).is_ok());
        assert!(check_group_count_fits((INTERVAL_MAX_GID + 1) as usize).is_ok());
        let at_most = |n: u64| format!("at most {n}");
        for (refused, limit) in [
            (check_b_view_fits(limit + 1), at_most(u32::MAX.into())),
            (
                check_group_count_fits((INTERVAL_MAX_GID + 2) as usize),
                at_most(INTERVAL_MAX_GID + 1),
            ),
        ] {
            match refused {
                Err(CoreError::TooLarge(message)) => assert!(message.contains(&limit), "{message}"),
                other => panic!("expected TooLarge naming {limit}, got {other:?}"),
            }
        }
        // The largest admitted fields stay inside their bit ranges and below the
        // pivot layer's `u64::MAX` sentinel.
        let top = pack_interval(INTERVAL_MAX_GID, levels_for(limit), limit - 1);
        assert!(top < u64::MAX);
        assert_eq!(top >> INTERVAL_GID_SHIFT, INTERVAL_MAX_GID);
        assert_eq!(top & 0xffff_ffff, (limit - 1) as u64);
    }
}
