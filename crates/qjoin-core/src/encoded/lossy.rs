//! Encoded ε-lossy trimming: Algorithm 4 built once per solve, every trim a window.
//!
//! [`LossyConstruction::build`] is Algorithm 4's bottom-up rewrite — binarize the join
//! tree, push ε′-sketches of partial-sum multisets through every edge, rewire each child
//! row to its sketch bucket through a fresh `v_RS` variable — over selection-vector
//! views, and with **no bound in it**: Algorithm 4 reads λ only in its final root
//! filter. [`LossyConstruction::window`] is that filter, so a partition round is two
//! filters and two counts over one construction of the original instance, where it
//! used to be four complete rewrites (two stacked single-bound trims per side).
//!
//! **One rewrite, both roundings.** `< λ` needs partial sums rounded up (ascending
//! sketch, bucket maximum) and `> λ` rounded down (descending, minimum), and the two
//! sketches of Lemma 6.3 bucket differently. So each row carries both sums, `(sum_up,
//! sum_dn)`, and each join group is sketched twice with [`sketch`] and bucketed by the
//! *common refinement*: a source's bucket is the pair (its Up bucket, its Down bucket),
//! carrying that Up bucket's maximum and that Down bucket's minimum. Sources are only
//! split, never merged across Up buckets, so the multiset of up-values a parent
//! absorbs is exactly an Up-sketch of the child's, and likewise down: both one-sided
//! guarantees of Lemma 6.3 hold on the one rewrite, edge by edge, by the paper's own
//! induction. The two sketches cut (nearly) the same order into intervals, so the
//! refinement has about |Up| + |Down| buckets, at worst |Up|·|Down| — polylogarithmic.
//!
//! **What a window keeps and loses.** Every answer a root row represents has its true
//! sum in `[sum_dn, sum_up]`, so the rows with `sum_up < high ∧ sum_dn > low` hold only
//! answers strictly inside the window, each once. A window loses at most
//! ε·|{w < high}| + ε·|{w > low}| answers, the bound the two stacked trims had, and
//! it is cut from the construction of the *original* instance, so nothing compounds
//! across rounds: Lemma 3.6's accumulation and `ErrorBudget::Guaranteed`'s
//! ε/(2·iterations) split stand as they were.
//!
//! **Against the row path.** [`LossySumTrimmer`](crate::lossy_trim::LossySumTrimmer)
//! stays the paper-literal two-pass oracle. A sketch with parameter δ = ε/(4ℓ) (ℓ
//! atoms) leaves its first 2/δ elements in singleton buckets, so a refined bucket
//! holds two sources only in a join group of more than 4/δ = 16ℓ/ε elements. Below
//! that — the equivalence suite, the `path3_approx` benchmark — both constructions
//! are exact and answers, rounds and counts are identical; above it the recursions
//! differ, each within ε, and the compressing-regime suite (`lossy_tests.rs`), not
//! pointwise equality, is what holds this one there.
//!
//! Traced `path3_approx` (600 tuples, seed 2023, medians of 3 runs per side):
//!
//! | | four rewrites a round | one construction |
//! |---|---|---|
//! | `core.solve_ms` | 61.3 | 12.2 |
//! | `core.trim_round_ms` (round 0; each later round) | 54.6 (4.4; 8–10) | 6.9 (2.7; 0.5–1.0) |
//! | `core.pivot_scan_ms` | 6.5 | 5.1 |
//! | `par.tasks` | 6165 | 3318 |
//! | `core.rounds`, `.candidates_scanned`, `.materialized` | 6, 44279.17, 351.33 | the same |

use super::trim::{row_sum, rows_in, segment_offsets, weighted_pairs, ViewBuilder};
use super::weights::CodeWeights;
use crate::sketch::{sketch, RoundDirection, SketchEntry};
use crate::{CoreError, Result};
use qjoin_data::EncodedRelation;
use qjoin_exec::Key;
use qjoin_query::{binary, Atom, EncodedInstance, JoinQuery, Variable};
use qjoin_ranking::{AggregateKind, Ranking, SumTupleWeights, WeightBound};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Per-node state during the bottom-up pass: the (growing) atom, its view, and
/// the per-row annotations in view scan order — `σ_s` rounded up and rounded down,
/// and `σ_m`.
struct NodeState {
    atom: Atom,
    view: EncodedRelation,
    up: Vec<f64>,
    dn: Vec<f64>,
    mults: Vec<u128>,
}

/// Algorithm 4's bottom-up rewrite of one instance, built once per solve with no
/// bound in it; every trim of that solve is a [`window`](Self::window) over its root.
pub(crate) struct LossyConstruction {
    /// A handle on the instance this was built from. It pins that instance's
    /// `ExecMemo`, which clones share: the identity [`Self::is_of`] compares.
    source: EncodedInstance,
    /// The rewritten instance, its root unfiltered.
    rewritten: EncodedInstance,
    root_atom: usize,
    /// Per root row, by global row index: every answer the row represents has its
    /// true sum in `[sum_dn, sum_up]`.
    root_offsets: Vec<usize>,
    sum_up: Vec<f64>,
    sum_dn: Vec<f64>,
}

impl LossyConstruction {
    /// Runs the rewrite: self-join elimination, binarization, leaf sums, and one
    /// sketch-and-rewire pass per join-tree edge. Refuses non-SUM rankings and
    /// `ε ∉ (0, 1)` before anything is built.
    pub(crate) fn build(
        source: &EncodedInstance,
        ranking: &Ranking,
        epsilon: f64,
        weights: &CodeWeights,
    ) -> Result<LossyConstruction> {
        if ranking.kind() != AggregateKind::Sum {
            return Err(CoreError::UnsupportedRanking(format!(
                "LossySumTrimmer cannot trim {:?} predicates",
                ranking.kind()
            )));
        }
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(CoreError::InvalidEpsilon(epsilon));
        }
        let instance = source.eliminate_self_joins()?;
        let binarized = binary::binarize_encoded(&instance)?;
        let query = binarized.instance.query().clone();
        let tree = binarized.tree;
        let ell = query.num_atoms().max(1);
        let eps_prime = (epsilon / (4.0 * ell as f64)).clamp(1e-9, 0.999_999);

        let tuple_weights = SumTupleWeights::new(&query, ranking);

        // Leaf annotations: per-row partial sums (chunked over the pool, gathered in
        // canonical chunk order) and unit multiplicities.
        let mut states: Vec<NodeState> = (0..tree.num_nodes())
            .map(|node| {
                let atom_idx = tree.node(node).atom_index;
                let atom = query.atom(atom_idx).clone();
                let view = binarized.instance.relation_of_atom(atom_idx).clone();
                let pairs = weighted_pairs(&query, &tuple_weights, weights, atom_idx);
                let offsets = segment_offsets(&view);
                let total = *offsets.last().expect("offsets include the empty prefix");
                let chunks: Vec<Vec<f64>> =
                    qjoin_par::par_map_chunks(total, qjoin_par::DEFAULT_CHUNK, |_, range| {
                        let sum = |(_, seg, row)| row_sum(&view, &pairs, seg, row);
                        rows_in(&offsets, range).map(sum).collect()
                    });
                let up: Vec<f64> = chunks.into_iter().flatten().collect();
                let (dn, mults) = (up.clone(), vec![1u128; total]);
                NodeState {
                    atom,
                    view,
                    up,
                    dn,
                    mults,
                }
            })
            .collect();

        let mut all_vars: Vec<Variable> = query.variables();
        // Ids are assigned in (sorted-group, bucket) order, like the row path's.
        let mut bucket_counter: u64 = 0;

        for &node in &tree.bottom_up_order() {
            let children = tree.node(node).children.clone();
            for child in children {
                // Join columns between parent and child (original shared variables
                // only; previously added v-columns are never shared across edges).
                let parent_vars = states[node].atom.variable_set();
                let child_vars = states[child].atom.variable_set();
                let shared: Vec<Variable> =
                    parent_vars.intersection(&child_vars).cloned().collect();
                let parent_pos: Vec<usize> = shared
                    .iter()
                    .map(|v| states[node].atom.positions_of(v)[0])
                    .collect();
                let child_pos: Vec<usize> = shared
                    .iter()
                    .map(|v| states[child].atom.positions_of(v)[0])
                    .collect();

                // Group the child's rows by join key. Chunk-local maps merge in
                // canonical chunk order, so each group's members stay in ascending
                // row order — the order the row path enumerates tuples in.
                let child_offsets = segment_offsets(&states[child].view);
                let child_total = *child_offsets
                    .last()
                    .expect("offsets include the empty prefix");
                let chunk_maps: Vec<HashMap<Key, Vec<u32>>> = {
                    let view = &states[child].view;
                    qjoin_par::par_map_chunks(child_total, qjoin_par::DEFAULT_CHUNK, |_, range| {
                        let mut local: HashMap<Key, Vec<u32>> = HashMap::new();
                        let mut key_buf: Vec<u64> = Vec::with_capacity(child_pos.len());
                        for (global, seg, row) in rows_in(&child_offsets, range) {
                            key_buf.clear();
                            key_buf.extend(child_pos.iter().map(|&p| view.code(seg, row, p)));
                            local
                                .entry(Key::from_codes(&key_buf))
                                .or_default()
                                .push(global as u32);
                        }
                        local
                    })
                };
                let mut group_members: HashMap<Key, Vec<u32>> = HashMap::new();
                for local in chunk_maps {
                    for (key, mut members) in local {
                        group_members.entry(key).or_default().append(&mut members);
                    }
                }

                // Sketch each group's sum multiset twice, in sorted key order, and
                // bucket its sources by the common refinement of the two results: a
                // bucket is one (Up bucket, Down bucket) pair, carrying that Up
                // bucket's maximum and that Down bucket's minimum.
                let mut group_buckets: HashMap<Key, Vec<(u64, f64, f64, u128)>> = HashMap::new();
                let mut child_bucket: Vec<u64> = vec![0; child_total];
                let mut down_of: Vec<usize> = vec![0; child_total];
                let mut sorted_keys: Vec<&Key> = group_members.keys().collect();
                sorted_keys.sort();
                for key in sorted_keys {
                    let NodeState { up, dn, mults, .. } = &states[child];
                    let entries = |values: &[f64]| -> Vec<SketchEntry<usize>> {
                        let entry = |&g: &u32| SketchEntry {
                            value: values[g as usize],
                            multiplicity: mults[g as usize],
                            source: g as usize,
                        };
                        group_members[key].iter().map(entry).collect()
                    };
                    let downs = sketch(entries(dn), eps_prime, RoundDirection::Down);
                    for (index, bucket) in downs.iter().enumerate() {
                        bucket.sources.iter().for_each(|&src| down_of[src] = index);
                    }
                    let mut summaries = Vec::new();
                    for mut bucket in sketch(entries(up), eps_prime, RoundDirection::Up) {
                        bucket.sources.sort_by_key(|&src| down_of[src]);
                        for run in bucket.sources.chunk_by(|&a, &b| down_of[a] == down_of[b]) {
                            let id = bucket_counter;
                            bucket_counter += 1;
                            run.iter().for_each(|&src| child_bucket[src] = id);
                            let multiplicity = run.iter().map(|&src| mults[src]).sum();
                            let rounded_dn = downs[down_of[run[0]]].rounded_value;
                            summaries.push((id, bucket.rounded_value, rounded_dn, multiplicity));
                        }
                    }
                    group_buckets.insert(key.clone(), summaries);
                }

                // Extend the child: the same rows in the same order, plus one
                // synthesized per-row column carrying the bucket id.
                let v = Variable::fresh("v_rs", all_vars.iter());
                all_vars.push(v.clone());
                let rebuilt_child = {
                    let view = &states[child].view;
                    let parts: Vec<ViewBuilder> = qjoin_par::par_map_chunks(
                        child_total,
                        qjoin_par::DEFAULT_CHUNK,
                        |_, range| {
                            let mut part = ViewBuilder::new(view.synth_arity());
                            for (global, seg, row) in rows_in(&child_offsets, range) {
                                part.push(view, seg, row, child_bucket[global]);
                            }
                            part
                        },
                    );
                    let mut builder = ViewBuilder::new(view.synth_arity());
                    for part in parts {
                        builder.append(part);
                    }
                    builder.build(view)?
                };
                states[child].atom = states[child].atom.with_extra_variable(v.clone());
                states[child].view = rebuilt_child;
                // The annotations are untouched: the rebuild is row-for-row.

                // Extend the parent: one copy per bucket of the matching group,
                // absorbing the bucket's two rounded sums and its multiplicity. Old
                // rows are walked in order (chunked), exactly like the row path's loop.
                states[node].atom = states[node].atom.with_extra_variable(v);
                let (new_view, new_up, new_dn, new_mults) = {
                    let parent = &states[node];
                    let (view, up, dn, mults) =
                        (&parent.view, &parent.up, &parent.dn, &parent.mults);
                    let offsets = segment_offsets(view);
                    let total = *offsets.last().expect("offsets include the empty prefix");
                    type Part = (ViewBuilder, Vec<f64>, Vec<f64>, Vec<u128>);
                    let parts: Vec<Part> =
                        qjoin_par::par_map_chunks(total, qjoin_par::DEFAULT_CHUNK, |_, range| {
                            let mut part = ViewBuilder::new(view.synth_arity());
                            let (mut ups, mut dns, mut ms) = (Vec::new(), Vec::new(), Vec::new());
                            let mut key_buf: Vec<u64> = Vec::with_capacity(parent_pos.len());
                            for (global, seg, row) in rows_in(&offsets, range) {
                                key_buf.clear();
                                key_buf.extend(parent_pos.iter().map(|&p| view.code(seg, row, p)));
                                let Some(buckets) = group_buckets.get(&Key::from_codes(&key_buf))
                                else {
                                    continue;
                                };
                                for &(id, rounded_up, rounded_dn, multiplicity) in buckets {
                                    part.push(view, seg, row, id);
                                    ups.push(up[global] + rounded_up);
                                    dns.push(dn[global] + rounded_dn);
                                    ms.push(mults[global].saturating_mul(multiplicity));
                                }
                            }
                            (part, ups, dns, ms)
                        });
                    let mut builder = ViewBuilder::new(view.synth_arity());
                    let (mut ups, mut dns, mut ms) = (Vec::new(), Vec::new(), Vec::new());
                    for (part, u, d, m) in parts {
                        builder.append(part);
                        ups.extend(u);
                        dns.extend(d);
                        ms.extend(m);
                    }
                    (builder.build(view)?, ups, dns, ms)
                };
                states[node].view = new_view;
                states[node].up = new_up;
                states[node].dn = new_dn;
                states[node].mults = new_mults;
            }
        }

        // Assemble the rewritten instance: only the tree's node relations survive,
        // mirroring the row path's fresh database. The root keeps every row; its two
        // sums are what `window` filters by.
        let root = tree.root();
        let root_atom = tree.node(root).atom_index;
        let root_offsets = segment_offsets(&states[root].view);
        let (sum_up, sum_dn) = (
            std::mem::take(&mut states[root].up),
            std::mem::take(&mut states[root].dn),
        );
        let mut atoms: Vec<Atom> = vec![Atom::new("", vec![]); tree.num_nodes()];
        let mut relations: BTreeMap<String, EncodedRelation> = BTreeMap::new();
        for (node, state) in states.into_iter().enumerate() {
            let atom_idx = tree.node(node).atom_index;
            relations.insert(state.atom.relation().to_string(), state.view);
            atoms[atom_idx] = state.atom;
        }
        let rewritten = EncodedInstance::new(
            JoinQuery::new(atoms),
            Arc::clone(binarized.instance.dictionary()),
            relations,
        )?;
        Ok(LossyConstruction {
            source: source.clone(),
            rewritten,
            root_atom,
            root_offsets,
            sum_up,
            sum_dn,
        })
    }

    /// True if `instance` is the one this construction was built from (or a clone).
    pub(crate) fn is_of(&self, instance: &EncodedInstance) -> bool {
        std::ptr::eq(self.source.exec_memo(), instance.exec_memo())
    }

    /// The rewritten instance restricted to the root rows with `sum_up < high` and
    /// `sum_dn > low`; every other relation is shared by handle. `low = ⊤` or
    /// `high = ⊥` clears the root, two infinite bounds keep all of it.
    pub(crate) fn window(&self, low: &WeightBound, high: &WeightBound) -> Result<EncodedInstance> {
        let root = self.rewritten.relation_of_atom(self.root_atom);
        let kept = if *low == WeightBound::PosInf || *high == WeightBound::NegInf {
            root.cleared()
        } else if low.is_infinite() && high.is_infinite() {
            return Ok(self.rewritten.clone());
        } else {
            let scalar = |bound: &WeightBound, infinite: f64| match bound.as_finite() {
                None => Ok(infinite),
                Some(weight) => weight.as_num().ok_or_else(|| {
                    CoreError::UnsupportedPredicate("SUM trimming requires a scalar bound".into())
                }),
            };
            let (low, high) = (
                scalar(low, f64::NEG_INFINITY)?,
                scalar(high, f64::INFINITY)?,
            );
            root.filtered(|seg, row| {
                let global = self.root_offsets[seg] + row;
                self.sum_up[global] < high && self.sum_dn[global] > low
            })
        };
        let query = self.rewritten.query().clone();
        Ok(self.rewritten.with_rewritten(query, [kept])?)
    }
}

#[cfg(test)]
#[path = "lossy_tests.rs"]
mod tests;
