//! Encoded ε-lossy trimming: Algorithm 4 over selection-vector views.
//!
//! This is the encoded twin of [`crate::lossy_trim::LossySumTrimmer`]. The
//! construction is step-for-step the same — binarize the join tree, push
//! ε′-sketches of partial-sum multisets through every edge, rewire children to
//! their sketch bucket via a fresh `v_RS` variable, drop root rows violating the
//! inequality — but every rewritten relation is a selection-vector view over the
//! shared code columns (the bucket id rides in a synthesized per-row column)
//! instead of a materialized copy.
//!
//! **Pointwise identity with the row path.** Both paths produce literally the
//! same rewritten query and the same answer multiset, because every source of
//! ordering is deterministic and shared:
//!
//! * join groups are processed in sorted key order on both sides, and the
//!   dictionary's codes are order-preserving, so sorted code keys enumerate the
//!   same groups in the same order as sorted value keys (synthesized `v_RS`
//!   codes are nonnegative counters on both sides, so mixed keys agree too);
//! * within a group, members are fed to the sketch in ascending row order, and
//!   the sketch's stable sort makes tie-breaks identical;
//! * bucket ids come from one shared counter walked in that same order.
//!
//! The equivalence suite asserts the resulting quantile answers are pointwise
//! equal across paths, thread counts, and boundary φ values.

use super::trim::{row_sum, segment_offsets, weighted_pairs, ViewBuilder};
use super::weights::CodeWeights;
use crate::sketch::{sketch, RoundDirection, SketchEntry};
use crate::{CoreError, Result};
use qjoin_data::EncodedRelation;
use qjoin_exec::Key;
use qjoin_query::{binary, Atom, EncodedInstance, JoinQuery, Variable};
use qjoin_ranking::{AggregateKind, CmpOp, RankPredicate, Ranking, SumTupleWeights};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Per-node state during the bottom-up pass: the (growing) atom, its view, and
/// the per-row annotations `σ_s` / `σ_m` in view scan order.
struct NodeState {
    atom: Atom,
    view: EncodedRelation,
    sums: Vec<f64>,
    mults: Vec<u128>,
}

/// Trims an encoded instance with the ε-lossy SUM construction (Algorithm 4),
/// producing a new encoded instance. Mirrors
/// [`LossySumTrimmer::trim`](crate::lossy_trim::LossySumTrimmer) exactly; see the
/// module docs for why the outputs are pointwise identical.
pub(crate) fn lossy_sum_trim_encoded(
    instance: &EncodedInstance,
    ranking: &Ranking,
    predicate: &RankPredicate,
    epsilon: f64,
    weights: &CodeWeights,
) -> Result<EncodedInstance> {
    if predicate.is_trivial() {
        return Ok(instance.clone());
    }
    if predicate.is_unsatisfiable() {
        return Ok(instance.empty_copy());
    }
    if ranking.kind() != AggregateKind::Sum {
        return Err(CoreError::UnsupportedRanking(format!(
            "LossySumTrimmer cannot trim {:?} predicates",
            ranking.kind()
        )));
    }
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(CoreError::InvalidEpsilon(epsilon));
    }
    let bound = predicate
        .finite_bound()
        .and_then(|w| w.as_num())
        .ok_or_else(|| {
            CoreError::UnsupportedPredicate("SUM trimming requires a scalar bound".to_string())
        })?;

    let instance = instance.eliminate_self_joins()?;
    let binarized = binary::binarize_encoded(&instance)?;
    let query = binarized.instance.query().clone();
    let tree = binarized.tree;
    let ell = query.num_atoms().max(1);
    let eps_prime = (epsilon / (4.0 * ell as f64)).clamp(1e-9, 0.999_999);
    let direction = match predicate.op {
        CmpOp::Lt => RoundDirection::Up,
        CmpOp::Gt => RoundDirection::Down,
    };

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
                    let mut local = Vec::with_capacity(range.len());
                    let mut seg = offsets.partition_point(|&o| o <= range.start) - 1;
                    for global in range {
                        while global >= offsets[seg + 1] {
                            seg += 1;
                        }
                        let row = global - offsets[seg];
                        local.push(row_sum(&view, &pairs, seg, row));
                    }
                    local
                });
            let sums: Vec<f64> = chunks.into_iter().flatten().collect();
            let mults = vec![1u128; total];
            NodeState {
                atom,
                view,
                sums,
                mults,
            }
        })
        .collect();

    let mut all_vars: Vec<Variable> = query.variables();
    // Shared with the row path: ids are assigned in the same (sorted-group,
    // bucket) order, so `v_RS` code order equals the row path's `Value::Int` order.
    let mut bucket_counter: u64 = 0;

    for &node in &tree.bottom_up_order() {
        let children = tree.node(node).children.clone();
        for child in children {
            // Join columns between parent and child (original shared variables
            // only; previously added v-columns are never shared across edges).
            let parent_vars = states[node].atom.variable_set();
            let child_vars = states[child].atom.variable_set();
            let shared: Vec<Variable> = parent_vars.intersection(&child_vars).cloned().collect();
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
                    let mut seg = child_offsets.partition_point(|&o| o <= range.start) - 1;
                    for global in range {
                        while global >= child_offsets[seg + 1] {
                            seg += 1;
                        }
                        let row = global - child_offsets[seg];
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

            // Sketch each group's sum multiset, in sorted key order (identical
            // to the row path's sorted value keys — order-preserving codes).
            let mut group_buckets: HashMap<Key, Vec<(u64, f64, u128)>> = HashMap::new();
            let mut child_bucket: Vec<u64> = vec![0; child_total];
            let mut sorted_keys: Vec<&Key> = group_members.keys().collect();
            sorted_keys.sort();
            for key in sorted_keys {
                let members = &group_members[key];
                let entries: Vec<SketchEntry<usize>> = members
                    .iter()
                    .map(|&g| SketchEntry {
                        value: states[child].sums[g as usize],
                        multiplicity: states[child].mults[g as usize],
                        source: g as usize,
                    })
                    .collect();
                let buckets = sketch(entries, eps_prime, direction);
                let mut summaries = Vec::with_capacity(buckets.len());
                for bucket in buckets {
                    let id = bucket_counter;
                    bucket_counter += 1;
                    for &src in &bucket.sources {
                        child_bucket[src] = id;
                    }
                    summaries.push((id, bucket.rounded_value, bucket.multiplicity));
                }
                group_buckets.insert(key.clone(), summaries);
            }

            // Extend the child: the same rows in the same order, plus one
            // synthesized per-row column carrying the bucket id.
            let v = Variable::fresh("v_rs", all_vars.iter());
            all_vars.push(v.clone());
            let rebuilt_child = {
                let view = &states[child].view;
                let parts: Vec<ViewBuilder> =
                    qjoin_par::par_map_chunks(child_total, qjoin_par::DEFAULT_CHUNK, |_, range| {
                        let mut part = ViewBuilder::new(view.synth_arity());
                        let mut seg = child_offsets.partition_point(|&o| o <= range.start) - 1;
                        for global in range {
                            while global >= child_offsets[seg + 1] {
                                seg += 1;
                            }
                            let row = global - child_offsets[seg];
                            part.push(view, seg, row, child_bucket[global]);
                        }
                        part
                    });
                let mut builder = ViewBuilder::new(view.synth_arity());
                for part in parts {
                    builder.append(part);
                }
                builder.build(view)?
            };
            states[child].atom = states[child].atom.with_extra_variable(v.clone());
            states[child].view = rebuilt_child;
            // sums/mults are untouched: the rebuild is row-for-row.

            // Extend the parent: one copy per bucket of the matching group,
            // absorbing the bucket's rounded sum and multiplicity. Old rows are
            // walked in order (chunked), exactly like the row path's loop.
            states[node].atom = states[node].atom.with_extra_variable(v);
            let (new_view, new_sums, new_mults) = {
                let view = &states[node].view;
                let old_sums = &states[node].sums;
                let old_mults = &states[node].mults;
                let offsets = segment_offsets(view);
                let total = *offsets.last().expect("offsets include the empty prefix");
                type Part = (ViewBuilder, Vec<f64>, Vec<u128>);
                let parts: Vec<Part> =
                    qjoin_par::par_map_chunks(total, qjoin_par::DEFAULT_CHUNK, |_, range| {
                        let mut part = ViewBuilder::new(view.synth_arity());
                        let mut sums = Vec::new();
                        let mut mults = Vec::new();
                        let mut key_buf: Vec<u64> = Vec::with_capacity(parent_pos.len());
                        let mut seg = offsets.partition_point(|&o| o <= range.start) - 1;
                        for global in range {
                            while global >= offsets[seg + 1] {
                                seg += 1;
                            }
                            let row = global - offsets[seg];
                            key_buf.clear();
                            key_buf.extend(parent_pos.iter().map(|&p| view.code(seg, row, p)));
                            let Some(buckets) = group_buckets.get(&Key::from_codes(&key_buf))
                            else {
                                continue;
                            };
                            for &(id, rounded, multiplicity) in buckets {
                                part.push(view, seg, row, id);
                                sums.push(old_sums[global] + rounded);
                                mults.push(old_mults[global].saturating_mul(multiplicity));
                            }
                        }
                        (part, sums, mults)
                    });
                let mut builder = ViewBuilder::new(view.synth_arity());
                let mut sums = Vec::new();
                let mut mults = Vec::new();
                for (part, s, m) in parts {
                    builder.append(part);
                    sums.extend(s);
                    mults.extend(m);
                }
                (builder.build(view)?, sums, mults)
            };
            states[node].view = new_view;
            states[node].sums = new_sums;
            states[node].mults = new_mults;
        }
    }

    // Remove root rows violating the inequality.
    let root = tree.root();
    let filtered_root = {
        let view = &states[root].view;
        let offsets = segment_offsets(view);
        let sums = &states[root].sums;
        view.filtered(|seg, row| {
            let s = sums[offsets[seg] + row];
            match predicate.op {
                CmpOp::Lt => s < bound,
                CmpOp::Gt => s > bound,
            }
        })
    };
    states[root].view = filtered_root;

    // Assemble the rewritten instance: only the tree's node relations survive,
    // mirroring the row path's fresh database (this keeps fresh-name choices in
    // later re-trims identical across paths).
    let mut atoms: Vec<Atom> = vec![Atom::new("", vec![]); tree.num_nodes()];
    let mut relations: BTreeMap<String, EncodedRelation> = BTreeMap::new();
    for (node, state) in states.into_iter().enumerate() {
        let atom_idx = tree.node(node).atom_index;
        relations.insert(state.atom.relation().to_string(), state.view);
        atoms[atom_idx] = state.atom;
    }
    Ok(EncodedInstance::new(
        JoinQuery::new(atoms),
        Arc::clone(binarized.instance.dictionary()),
        relations,
    )?)
}
