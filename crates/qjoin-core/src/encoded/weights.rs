//! Per-code weight tables: `w_x(decode(code))` precomputed per weighted variable.
//!
//! Every weighted variable's weight function is applied **once per dictionary
//! code** at solve start, instead of `ranking.var_weight(var, value)` per tuple per
//! round; the hot loops then index a flat `Vec<f64>`. The tables produce the
//! bit-identical `f64`s `var_weight` does (the same weight function applied to the
//! same decoded value), which is what keeps every route's weights the ranking's.
//! A plan builds its tables once per generation ([`CodeWeights::shared`]).

use qjoin_data::{Dictionary, EncodedRelation};
use qjoin_query::{EncodedInstance, JoinQuery, Variable};
use qjoin_ranking::{AggregateKind, Ranking, SumTupleWeights, Weight};
use std::cmp::Ordering::{self, Greater, Less};
use std::collections::HashMap;
use std::sync::Arc;

/// Precomputed `code → weight` tables for every weighted variable of a ranking.
#[derive(Clone, Debug)]
pub(crate) struct CodeWeights {
    ranking: Ranking,
    tables: HashMap<Variable, Vec<f64>>,
}

impl CodeWeights {
    /// The tables of `ranking` over the instance's dictionary: its exec memo's, if
    /// they are for `ranking`, or else new ones, which replace them there. Built
    /// outside the memo's lock (the build runs pool regions; see
    /// `super::memoised`); racing threads build identical tables.
    pub(crate) fn shared(instance: &EncodedInstance, ranking: &Ranking) -> Arc<CodeWeights> {
        let memo = instance.exec_memo();
        if let Some(weights) = memo.get::<Self>().filter(|w| w.ranking == *ranking) {
            return weights;
        }
        let weights = Arc::new(Self::build(instance.dictionary(), ranking));
        memo.set(Arc::clone(&weights));
        weights
    }

    /// Applies each weighted variable's weight function to every dictionary value.
    /// The per-code fold is chunked over the executor pool; each code's weight is
    /// computed independently and the chunks concatenate in canonical order, so
    /// the tables are bit-identical at any thread count.
    pub(crate) fn build(dictionary: &Dictionary, ranking: &Ranking) -> CodeWeights {
        let values = dictionary.values();
        let mut tables = HashMap::with_capacity(ranking.weighted_vars().len());
        for var in ranking.weighted_vars() {
            if tables.contains_key(var) {
                continue;
            }
            let chunks: Vec<Vec<f64>> =
                qjoin_par::par_map_chunks(values.len(), qjoin_par::DEFAULT_CHUNK, |_, range| {
                    range
                        .map(|code| ranking.var_weight(var, &values[code]))
                        .collect()
                });
            let mut table: Vec<f64> = Vec::with_capacity(values.len());
            for chunk in chunks {
                table.extend(chunk);
            }
            tables.insert(var.clone(), table);
        }
        CodeWeights {
            ranking: ranking.clone(),
            tables,
        }
    }

    /// One variable's whole per-code table: `table[code]` is `w_var(decode(code))`,
    /// valid for dictionary codes of weighted variables (synthesized variables are
    /// never weighted). Hot loops resolve the table once per scan and index it
    /// directly instead of hashing the variable per row.
    pub(crate) fn table(&self, var: &Variable) -> &[f64] {
        &self.tables[var]
    }
}

/// The unbound-slot sentinel of a code row. Dictionary codes and the lossy
/// construction's bucket ids are dense, far below it.
pub(crate) const UNBOUND: u64 = u64::MAX;

/// A ranking's canonical weight fold resolved once against a code-row layout: per
/// weighted variable the layout holds, in weighted-variable order, the variable's
/// position in the row, its component of a LEX weight vector, and its table.
pub(crate) struct WeightFold<'a> {
    kind: AggregateKind,
    lex_width: usize,
    terms: Vec<(usize, usize, &'a [f64])>,
}

impl<'a> WeightFold<'a> {
    pub(crate) fn new(
        ranking: &Ranking,
        weights: &'a CodeWeights,
        position_of: impl Fn(&Variable) -> Option<usize>,
    ) -> WeightFold<'a> {
        let vars = ranking.weighted_vars();
        let terms = vars
            .iter()
            .filter_map(|var| {
                let component = vars.iter().position(|v| v == var)?;
                Some((position_of(var)?, component, weights.table(var)))
            })
            .collect();
        WeightFold {
            kind: ranking.kind(),
            lex_width: vars.len(),
            terms,
        }
    }

    /// Which slots of a `width`-wide code row the fold reads: the mask a walk that
    /// only feeds [`weight_of`](Self::weight_of) needs to fill.
    pub(crate) fn needed_slots(&self, width: usize) -> Vec<bool> {
        let mut needed = vec![false; width];
        for &(pos, _, _) in &self.terms {
            needed[pos] = true;
        }
        needed
    }

    /// How many `f64`s a weight takes in a flat arena: one for SUM/MIN/MAX, one
    /// per weighted variable for LEX (and one unused `0.0` for a LEX over no
    /// variables, so that an arena's row stride is never zero).
    pub(crate) fn width(&self) -> usize {
        match self.kind {
            AggregateKind::Lex => self.lex_width.max(1),
            _ => 1,
        }
    }

    /// Writes the weight of a code row into `out` (`width()` long):
    /// `identity ⊕ contribution(v₁) ⊕ …` over its bound weighted variables, bit
    /// for bit what [`Ranking::identity`], [`Ranking::combine`] and
    /// [`Ranking::contribution`] compute — the same additions (or min/max) in the
    /// same order, without their intermediate vectors. (A LEX one-hot contribution
    /// adds `+0.0` to every other component; that changes only a `-0.0`, which an
    /// accumulator started at `+0.0` never is: a sum is `-0.0` only when both
    /// terms are.) Flat weights order by [`cmp_flat`].
    #[inline]
    pub(crate) fn write_weight(&self, codes: &[u64], out: &mut [f64]) {
        let bound = self
            .terms
            .iter()
            .filter(|&&(pos, _, _)| codes[pos] != UNBOUND)
            .map(|&(pos, component, table)| (component, table[codes[pos] as usize]));
        match self.kind {
            AggregateKind::Sum => out[0] = bound.fold(0.0, |acc, (_, w)| acc + w),
            AggregateKind::Min => {
                out[0] = bound.fold(f64::INFINITY, |acc, (_, w)| past(acc, w, Less))
            }
            AggregateKind::Max => {
                out[0] = bound.fold(f64::NEG_INFINITY, |acc, (_, w)| past(acc, w, Greater))
            }
            AggregateKind::Lex => {
                out.fill(0.0);
                for (component, w) in bound {
                    out[component] += w;
                }
            }
        }
    }

    /// The weight of a code row, as a [`Weight`].
    #[inline]
    pub(crate) fn weight_of(&self, codes: &[u64]) -> Weight {
        if self.kind != AggregateKind::Lex {
            let mut flat = [0.0];
            self.write_weight(codes, &mut flat);
            return Weight::Num(flat[0]);
        }
        let mut flat = vec![0.0; self.lex_width];
        self.write_weight(codes, &mut flat);
        Weight::Vec(flat)
    }
}

/// `w` if it orders `past` `acc` under [`f64::total_cmp`], else `acc`: the MIN
/// (`Less`) or MAX (`Greater`) of two weights as [`Ranking::combine`] takes it, so a
/// NaN weight has its `total_cmp` place instead of being skipped.
#[inline]
fn past(acc: f64, w: f64, past: Ordering) -> f64 {
    if w.total_cmp(&acc) == past {
        w
    } else {
        acc
    }
}

/// Refuses a SUM ranking whose weight of some value a weighted variable takes on a
/// surviving row is NaN or infinite, before anything trims by it: the SUM trims
/// add weights and compare sums, and `∞ − ∞` has no place in the order. Other
/// kinds pass.
pub(crate) fn refuse_non_finite(
    instance: &EncodedInstance,
    ranking: &Ranking,
    weights: &CodeWeights,
) -> crate::Result<()> {
    let ctx = qjoin_exec::encoded::shared_context(instance)?;
    let sum = ranking.kind() == AggregateKind::Sum;
    for node in ctx.nodes().iter().filter(|_| sum) {
        let atom = ctx.query().atom(node.atom_index);
        for var in ranking.weighted_vars().iter().filter(|v| atom.contains(v)) {
            let (table, col) = (weights.table(var), atom.positions_of(var)[0]);
            let weight = |i: usize| table[ctx.code(node.node_id, i, col) as usize];
            if let Some(w) = (0..node.rows.len()).map(weight).find(|w| !w.is_finite()) {
                let what = format!("SUM over the non-finite weight {w} of {var}");
                return Err(crate::CoreError::UnsupportedRanking(what));
            }
        }
    }
    Ok(())
}

/// The weighted variables assigned to `atom_idx` by the tuple-weight mapping `μ`, as
/// `(per-code weight table, first position)` pairs — the same variables, in the same
/// order, as [`SumTupleWeights::tuple_sum`] folds.
pub(super) fn weighted_pairs<'w>(
    query: &JoinQuery,
    tuple_weights: &SumTupleWeights,
    weights: &'w CodeWeights,
    atom_idx: usize,
) -> Vec<(&'w [f64], usize)> {
    tuple_weights
        .vars_of_atom(atom_idx)
        .map(|v| (weights.table(v), query.atom(atom_idx).positions_of(v)[0]))
        .collect()
}

/// The partial sum `pairs` give one row whose code at a position is `code(position)`
/// (mirrors `SumTupleWeights::tuple_sum`, including the fold order).
#[inline]
pub(super) fn row_sum(pairs: &[(&[f64], usize)], code: impl Fn(usize) -> u64) -> f64 {
    pairs
        .iter()
        .map(|(table, pos)| table[code(*pos) as usize])
        .sum()
}

/// The partial sum of every row of a view (see [`row_sum`]), in row order.
pub(super) fn row_sums(rel: &EncodedRelation, pairs: &[(&[f64], usize)]) -> Vec<f64> {
    (0..rel.len())
        .map(|row| row_sum(pairs, |pos| rel.code(row, pos)))
        .collect()
}

/// The order of two flat weights of one fold: component-wise [`f64::total_cmp`],
/// which is [`Weight`]'s order on the weights they stand for (so `-0.0 < +0.0`).
#[inline]
pub(crate) fn cmp_flat(a: &[f64], b: &[f64]) -> std::cmp::Ordering {
    let mut components = a.iter().zip(b).map(|(x, y)| x.total_cmp(y));
    components
        .find(|ord| ord.is_ne())
        .unwrap_or(std::cmp::Ordering::Equal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_data::{Database, EncodedDatabase, Relation, Value};
    use qjoin_query::variable::vars;
    use qjoin_ranking::WeightFn;

    #[test]
    fn tables_match_direct_weighting() {
        let r = Relation::from_rows("R", &[&[3, 10], &[5, 20]]).unwrap();
        let db = Database::from_relations([r]).unwrap();
        let encoded = EncodedDatabase::encode(&db).unwrap();
        let dict = encoded.dictionary();
        let ranking = Ranking::sum(vars(&["x", "y"])).with_weight_fn(
            Variable::new("y"),
            WeightFn::Affine {
                scale: 2.0,
                offset: 1.0,
            },
        );
        let weights = CodeWeights::build(dict, &ranking);
        for value in dict.values() {
            let code = dict.encode(value).unwrap();
            for var in ranking.weighted_vars() {
                assert_eq!(
                    weights.table(var)[code as usize].to_bits(),
                    ranking.var_weight(var, value).to_bits()
                );
            }
        }
    }

    fn bits(w: &Weight) -> Vec<u64> {
        match w {
            Weight::Num(x) => vec![x.to_bits()],
            Weight::Vec(v) => v.iter().map(|x| x.to_bits()).collect(),
        }
    }

    /// The in-place fold and the flat writer against the allocation-heavy
    /// reference they replaced (`identity`, then one `combine` with a
    /// `contribution` per bound weighted variable), bit for bit: every aggregate,
    /// weights of both signs, a weight function returning both zeros, an unbound
    /// slot, and a weighted variable listed twice. The flat order is [`Weight`]'s
    /// on the same rows, and no folded weight is `-0.0`: the ranking reads a weight
    /// function's `-0.0` as `+0.0` (fails if `Ranking::var_weight` drops `+ 0.0`).
    #[test]
    fn weight_fold_matches_identity_combine_contribution_bit_for_bit() {
        let values = [-7, -1, 0, 2, 9];
        let rows: Vec<Vec<i64>> = values.iter().map(|&v| vec![v, v]).collect();
        let row_refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let db = Database::from_relations([Relation::from_rows("R", &row_refs).unwrap()]).unwrap();
        let encoded = EncodedDatabase::encode(&db).unwrap();
        let dict = encoded.dictionary();
        // Scale -0.0 maps non-negative values to -0.0 and negative ones to +0.0.
        let negative_zero = WeightFn::Affine {
            scale: -0.0,
            offset: -0.0,
        };
        let layout = vars(&["a", "b", "c"]);
        let weighted = vars(&["c", "a", "c", "z"]); // `c` twice; `z` not in the layout
        for kind in [
            AggregateKind::Sum,
            AggregateKind::Min,
            AggregateKind::Max,
            AggregateKind::Lex,
        ] {
            let ranking = Ranking::new(kind, weighted.clone())
                .with_weight_fn(Variable::new("a"), negative_zero.clone());
            let weights = CodeWeights::build(dict, &ranking);
            let fold = WeightFold::new(&ranking, &weights, |v| layout.iter().position(|l| l == v));
            assert_eq!(fold.width(), if kind == AggregateKind::Lex { 4 } else { 1 });
            let n = dict.len() as u64;
            let mut seen: Vec<(Vec<f64>, Weight)> = Vec::new();
            for a in (0..n).chain([UNBOUND]) {
                for c in (0..n).chain([UNBOUND]) {
                    let codes = [a, UNBOUND, c];
                    let mut expected = ranking.identity();
                    for var in ranking.weighted_vars() {
                        let Some(pos) = layout.iter().position(|l| l == var) else {
                            continue;
                        };
                        if codes[pos] != UNBOUND {
                            let value: &Value = dict.decode(codes[pos]);
                            expected =
                                ranking.combine(&expected, &ranking.contribution(var, value));
                        }
                    }
                    assert_eq!(
                        bits(&fold.weight_of(&codes)),
                        bits(&expected),
                        "{kind:?} codes {codes:?}"
                    );
                    // A dirty arena row: the writer overwrites, never accumulates.
                    let mut flat = vec![f64::NAN; fold.width()];
                    fold.write_weight(&codes, &mut flat);
                    let flat_bits: Vec<u64> = flat.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(flat_bits, bits(&expected), "{kind:?} codes {codes:?}: flat");
                    let negative_zero = (-0.0f64).to_bits();
                    assert!(!flat_bits.contains(&negative_zero), "{kind:?} {codes:?}");
                    seen.push((flat, expected));
                }
            }
            for (flat_a, weight_a) in &seen {
                for (flat_b, weight_b) in &seen {
                    assert_eq!(cmp_flat(flat_a, flat_b), weight_a.cmp(weight_b), "{kind:?}");
                }
            }
        }

        // A LEX over no variables: one unused arena cell, an empty weight vector.
        let ranking = Ranking::lex(Vec::new());
        let weights = CodeWeights::build(dict, &ranking);
        let fold = WeightFold::new(&ranking, &weights, |_| None);
        let mut flat = vec![f64::NAN; fold.width()];
        fold.write_weight(&[UNBOUND], &mut flat);
        assert_eq!(flat.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), [0]);
        assert_eq!(fold.weight_of(&[UNBOUND]), ranking.identity());
    }
}
