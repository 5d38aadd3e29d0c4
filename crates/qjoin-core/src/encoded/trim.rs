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
use qjoin_data::{EncodedRelation, Segment, SynthCol};
use qjoin_exec::encoded::KeyMap;
use qjoin_exec::Key;
use qjoin_query::{EncodedInstance, Variable};
use qjoin_ranking::{Ranking, SumTupleWeights, WeightBound};
use std::sync::Arc;

/// Encoded partial-SUM trimming to the open window `(low, high)`: single-atom filter
/// or the dyadic adjacent-pair construction, selected per call by the same cover
/// search as the row trimmer.
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
    let instance = instance.eliminate_self_joins()?;
    match find_adjacent_cover(instance.query(), ranking.weighted_vars()) {
        Some(cover) if cover.is_single_atom() => {
            trim_single_atom_encoded(&instance, ranking, weights, range, cover.atoms.0)
        }
        Some(cover) => trim_adjacent_pair_encoded(&instance, ranking, weights, range, cover.atoms),
        None => Err(intractable_sum_error(
            instance.query(),
            ranking.weighted_vars(),
        )),
    }
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

/// Prefix row offsets of a view's segments (`offsets[s]` is the global index of
/// segment `s`'s first row; the last entry is the total row count). Turns a
/// global row index into `(segment, row)` coordinates for chunked scans.
pub(super) fn segment_offsets(rel: &EncodedRelation) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(rel.segments().len() + 1);
    let mut total = 0usize;
    offsets.push(0);
    for seg in rel.segments() {
        total += seg.len();
        offsets.push(total);
    }
    offsets
}

/// The rows `range` of a view with the given [`segment_offsets`], as `(global index,
/// segment, row in segment)` — the coordinates of a chunked scan.
pub(super) fn rows_in(
    offsets: &[usize],
    range: std::ops::Range<usize>,
) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    let mut seg = offsets.partition_point(|&o| o <= range.start) - 1;
    range.map(move |global| {
        while global >= offsets[seg + 1] {
            seg += 1;
        }
        (global, seg, global - offsets[seg])
    })
}

/// The partial sum carried by one view row (mirrors `SumTupleWeights::tuple_sum`,
/// including the fold order).
#[inline]
pub(super) fn row_sum(
    rel: &EncodedRelation,
    pairs: &[(&[f64], usize)],
    seg: usize,
    row: usize,
) -> f64 {
    pairs
        .iter()
        .map(|(table, pos)| table[rel.code(seg, row, *pos) as usize])
        .sum()
}

/// Filters the covering atom's view by its rows' partial sums.
fn trim_single_atom_encoded(
    instance: &EncodedInstance,
    ranking: &Ranking,
    weights: &CodeWeights,
    range: SumRange,
    atom_idx: usize,
) -> Result<EncodedInstance> {
    let query = instance.query().clone();
    let tuple_weights = SumTupleWeights::with_preferred_atoms(&query, ranking, &[atom_idx]);
    let pairs = weighted_pairs(&query, &tuple_weights, weights, atom_idx);
    let rel = instance.relation_of_atom(atom_idx);
    let filtered = rel.filtered(|seg, row| range.admits(row_sum(rel, &pairs, seg, row)));
    Ok(instance.with_rewritten(query, [filtered])?)
}

/// Bit widths of the packed dyadic-interval code: `gid(26) | level(6) | index(32)`.
/// The field order makes packed-code order equal the row path's lexicographic
/// `(group, (level, index))` composite order; the gid cap keeps the maximum packed
/// value strictly below `u64::MAX` (the pivot layer's unbound sentinel).
const INTERVAL_GID_SHIFT: u64 = 38;
const INTERVAL_LEVEL_SHIFT: u64 = 32;
const INTERVAL_MAX_GID: u64 = (1 << 26) - 2;

/// Refuses a B-side view whose coordinates overflow the construction's 32-bit
/// fields: [`BMember`] stores global, segment and row positions as `u32`, and a
/// group's member positions fill the packed code's 32-bit index (a group of at
/// most `2³²` members has levels `≤ 32`, inside the 6 level bits).
fn check_b_view_fits(rows: usize, segments: usize) -> Result<()> {
    let limit = u32::MAX as usize;
    if rows > limit || segments > limit {
        return Err(CoreError::TooLarge(format!(
            "dyadic SUM construction over a view of {rows} rows in {segments} segments; \
             the packed interval code addresses at most {limit} of each"
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

/// One B-side row of the dyadic construction: its partial sum, its global position
/// in the view (the row path's tuple index, used for the stable in-group sort), and
/// its `(segment, row)` coordinates for gathering.
struct BMember {
    sum: f64,
    global: u32,
    seg: u32,
    row: u32,
}

/// One join group of the B side: its members sorted by `(sum, global)`, and its
/// identifier — the group's rank among the sorted keys — stored beside them so
/// an A row finds both with one probe.
#[derive(Default)]
struct BGroup {
    gid: u64,
    members: Vec<BMember>,
}

/// Accumulates the output rows of one rewritten view: base-row selections, gathered
/// pre-existing synthesized columns, and the fresh packed-interval column.
pub(super) struct ViewBuilder {
    sel: Vec<u32>,
    old_synth: Vec<Vec<u64>>,
    interval: Vec<u64>,
}

impl ViewBuilder {
    pub(super) fn new(synth_arity: usize) -> ViewBuilder {
        ViewBuilder {
            sel: Vec::new(),
            old_synth: vec![Vec::new(); synth_arity],
            interval: Vec::new(),
        }
    }

    pub(super) fn push(
        &mut self,
        rel: &EncodedRelation,
        seg: usize,
        row: usize,
        interval_code: u64,
    ) {
        let segment = &rel.segments()[seg];
        self.sel.push(segment.sel.get(row));
        for (k, col) in segment.synth.iter().enumerate() {
            self.old_synth[k].push(col.get(row));
        }
        self.interval.push(interval_code);
    }

    /// Appends another builder's rows (used to concatenate chunk-local partials
    /// in canonical chunk order).
    pub(super) fn append(&mut self, mut other: ViewBuilder) {
        self.sel.append(&mut other.sel);
        for (dst, mut src) in self.old_synth.iter_mut().zip(other.old_synth) {
            dst.append(&mut src);
        }
        self.interval.append(&mut other.interval);
    }

    pub(super) fn build(self, rel: &EncodedRelation) -> Result<EncodedRelation> {
        let mut synth: Vec<SynthCol> = self
            .old_synth
            .into_iter()
            .map(|codes| SynthCol::PerRow(Arc::new(codes)))
            .collect();
        synth.push(SynthCol::PerRow(Arc::new(self.interval)));
        let segment = Segment {
            sel: qjoin_data::SelVec::Rows(Arc::new(self.sel)),
            synth,
        };
        Ok(EncodedRelation::from_segments(
            rel.name(),
            Arc::clone(rel.base()),
            rel.synth_arity() + 1,
            vec![segment],
        )?)
    }
}

/// The dyadic range construction for an adjacent pair of atoms — the encoded twin
/// of the row path's `trim_adjacent_pair` (Lemma 5.5 applied to the contiguous run
/// of B-side positions the window selects for each A row).
fn trim_adjacent_pair_encoded(
    instance: &EncodedInstance,
    ranking: &Ranking,
    weights: &CodeWeights,
    range: SumRange,
    (atom_a, atom_b): (usize, usize),
) -> Result<EncodedInstance> {
    let query = instance.query().clone();
    let tuple_weights = SumTupleWeights::with_preferred_atoms(&query, ranking, &[atom_a, atom_b]);
    let pairs_a = weighted_pairs(&query, &tuple_weights, weights, atom_a);
    let pairs_b = weighted_pairs(&query, &tuple_weights, weights, atom_b);

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

    // Group B's rows by the join key and sort each group by partial sum (ties by
    // global row position, matching the row path's tuple-index tie-break). The
    // grouping pass is chunked over the executor pool; chunk-local maps merge in
    // canonical chunk order, keeping each group's members in global-row order
    // before the (total-ordered, hence order-insensitive) sort. The maps are only
    // probed and merged per key, never read in hash order, so the unkeyed
    // `KeyMap` hasher changes nothing observable.
    let rel_b = instance.relation_of_atom(atom_b);
    let offsets_b = segment_offsets(rel_b);
    let total_b = *offsets_b.last().expect("offsets include the empty prefix");
    check_b_view_fits(total_b, rel_b.segments().len())?;
    let chunk_maps: Vec<KeyMap<BGroup>> =
        qjoin_par::par_map_chunks(total_b, qjoin_par::DEFAULT_CHUNK, |_, chunk| {
            let mut local: KeyMap<BGroup> = KeyMap::default();
            let mut key_buf: Vec<u64> = Vec::with_capacity(key_pos_b.len());
            for (global, seg, row) in rows_in(&offsets_b, chunk) {
                key_buf.clear();
                key_buf.extend(key_pos_b.iter().map(|&p| rel_b.code(seg, row, p)));
                local
                    .entry(Key::from_codes(&key_buf))
                    .or_default()
                    .members
                    .push(BMember {
                        sum: row_sum(rel_b, &pairs_b, seg, row),
                        global: global as u32,
                        seg: seg as u32,
                        row: row as u32,
                    });
            }
            local
        });
    // The first chunk's map is the base the later ones merge into, so a B side
    // that fits one chunk is grouped without a second pass over its members.
    let mut chunk_maps = chunk_maps.into_iter();
    let mut groups = chunk_maps.next().unwrap_or_default();
    for local in chunk_maps {
        for (key, group) in local {
            groups.entry(key).or_default().members.extend(group.members);
        }
    }
    check_group_count_fits(groups.len())?;
    // Group identifiers in sorted key order: the dictionary assigns codes in value
    // order, so this matches the row path's sorted `Vec<Value>` keys.
    let mut by_key: Vec<(&Key, &mut BGroup)> = groups.iter_mut().collect();
    by_key.sort_unstable_by(|a, b| a.0.cmp(b.0));
    for (gid, (_, group)) in by_key.into_iter().enumerate() {
        group.gid = gid as u64;
        group
            .members
            .sort_unstable_by(|a, b| a.sum.total_cmp(&b.sum).then(a.global.cmp(&b.global)));
    }

    // New variable v shared by the two atoms; its codes are packed interval ids.
    let query_vars = query.variable_set();
    let v = Variable::fresh("v_sum", query_vars.iter());
    let new_atom_a = query.atom(atom_a).with_extra_variable(v.clone());
    let new_atom_b = query.atom(atom_b).with_extra_variable(v.clone());
    let new_query = query
        .with_replaced_atom(atom_a, new_atom_a)
        .with_replaced_atom(atom_b, new_atom_b);

    // A-side: connect every A row to the dyadic cover of its qualifying range.
    // Rows are independent, so the scan is chunked; chunk-local builders are
    // appended in canonical chunk order, reproducing the sequential output exactly.
    let rel_a = instance.relation_of_atom(atom_a);
    let offsets_a = segment_offsets(rel_a);
    let total_a = *offsets_a.last().expect("offsets include the empty prefix");
    let a_parts: Vec<ViewBuilder> =
        qjoin_par::par_map_chunks(total_a, qjoin_par::DEFAULT_CHUNK, |_, chunk| {
            let mut part = ViewBuilder::new(rel_a.synth_arity());
            let mut key_buf: Vec<u64> = Vec::with_capacity(key_pos_a.len());
            for (_, seg, row) in rows_in(&offsets_a, chunk) {
                key_buf.clear();
                key_buf.extend(key_pos_a.iter().map(|&p| rel_a.code(seg, row, p)));
                let Some(group) = groups.get(&Key::from_codes(&key_buf)) else {
                    continue;
                };
                let wa = row_sum(rel_a, &pairs_a, seg, row);
                let (lo, hi) = range.positions(&group.members, |m| m.sum, wa);
                dyadic_cover(lo, hi, |level, index| {
                    part.push(rel_a, seg, row, pack_interval(group.gid, level, index));
                });
            }
            part
        });
    let mut new_a = ViewBuilder::new(rel_a.synth_arity());
    for part in a_parts {
        new_a.append(part);
    }

    // B-side: every B row joins the interval containing its position, one copy per
    // level. Groups are walked in gid order (the row path does the same), so the
    // output row order — which feeds the next round's pivot scan — is identical on
    // both paths; the per-group expansions are independent and chunked, appended
    // in gid order.
    let mut ordered: Vec<&BGroup> = groups.values().collect();
    ordered.sort_unstable_by_key(|group| group.gid);
    let b_parts: Vec<ViewBuilder> =
        qjoin_par::par_map_chunks(ordered.len(), qjoin_par::DEFAULT_CHUNK, |_, chunk| {
            let mut part = ViewBuilder::new(rel_b.synth_arity());
            for group in &ordered[chunk] {
                let levels = levels_for(group.members.len());
                for (pos, member) in group.members.iter().enumerate() {
                    for level in 0..=levels {
                        let code = pack_interval(group.gid, level, pos >> level);
                        part.push(rel_b, member.seg as usize, member.row as usize, code);
                    }
                }
            }
            part
        });
    let mut new_b = ViewBuilder::new(rel_b.synth_arity());
    for part in b_parts {
        new_b.append(part);
    }

    let new_a = new_a.build(rel_a)?;
    let new_b = new_b.build(rel_b)?;
    Ok(instance.with_rewritten(new_query, [new_a, new_b])?)
}

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
    fn windows(weights: &[f64], seed: u64) -> Vec<(WeightBound, WeightBound)> {
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

    fn path_instance(atoms: usize, seed: u64) -> Instance {
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
    fn self_join_instance(seed: u64) -> Instance {
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
        assert!(check_b_view_fits(limit, limit).is_ok());
        assert!(check_group_count_fits((INTERVAL_MAX_GID + 1) as usize).is_ok());
        let at_most = |n: u64| format!("at most {n}");
        for (refused, limit) in [
            (check_b_view_fits(limit + 1, 1), at_most(u32::MAX.into())),
            (check_b_view_fits(1, limit + 1), at_most(u32::MAX.into())),
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
