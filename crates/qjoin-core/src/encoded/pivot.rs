//! Encoded pivot selection: Algorithm 2 over code rows instead of assignments.
//!
//! A node's messages are flat arenas ([`NodeMsgs`]), sized once and filled in
//! place: one row of `u64` codes per tuple (one slot per query variable, in sorted
//! variable order, `u64::MAX` for unbound) and its canonically-folded weight as
//! `f64`s ([`WeightFold::write_weight`]) — no per-row allocation, and no ranking
//! weight re-derived inside a comparison. Subtree counts are not the scan's
//! business: it takes the counting pass's arrays
//! ([`subtree_counts`](qjoin_exec::encoded::subtree_counts)) as the medians'
//! multiplicities, so scan and count cannot disagree. A join group's
//! message is the *row index* of its weighted median, stored by the context's
//! dense group id — so a parent row finds its children's messages by indexing
//! through [`EncodedContext::links`](qjoin_exec::EncodedContext::links), with no
//! key built or hashed, and copies exactly the slots the child's subtree binds.
//! Medians are taken by [`weighted_median_by`] over a permutation of row indices:
//! a weight comparison ([`cmp_flat`]) followed by a comparison of the two code
//! rows — and because dictionary codes are assigned in value order (and
//! synthesized code spaces are order-compatible), that is the order of the
//! answers' values, so the pivot does not depend on how values were coded. A
//! [`Weight`](qjoin_ranking::Weight) is built once, for the pivot returned.

use super::weights::{cmp_flat, CodeWeights, WeightFold, UNBOUND};
use crate::pivot::{pivot_quality, PivotResult};
use crate::selection::weighted_median_by;
use crate::{CoreError, Result};
use qjoin_data::Value;
use qjoin_exec::EncodedContext;
use qjoin_query::{Assignment, EncodedInstance, Variable};
use qjoin_ranking::Ranking;
use std::ops::Range;
use std::sync::Arc;

/// The pivot messages of one join-tree node.
#[derive(Default)]
struct NodeMsgs {
    n_slots: usize,
    /// `f64`s per weight ([`WeightFold::width`]).
    width: usize,
    /// `n_rows × n_slots` candidate codes, row-major.
    codes: Vec<u64>,
    /// `n_rows × width` canonical candidate weights, row-major.
    weights: Vec<f64>,
    /// Per join group (by gid): the row holding the group's weighted median.
    medians: Vec<u32>,
}

impl NodeMsgs {
    fn codes_of(&self, row: u32) -> &[u64] {
        &self.codes[row as usize * self.n_slots..][..self.n_slots]
    }

    fn weight_of(&self, row: u32) -> &[f64] {
        &self.weights[row as usize * self.width..][..self.width]
    }

    /// The weighted median of `rows` (multiplicity `counts[row]`; reordered in
    /// place) and their summed count. Weight order first, then code order — the
    /// order of the partial answers' values, because code order equals value order
    /// and compared messages always bind the same variable set.
    fn median(&self, rows: &mut [u32], counts: &[u128]) -> (u32, u128) {
        let (at, total) = weighted_median_by(
            rows,
            |&row| counts[row as usize],
            |&a, &b| {
                cmp_flat(self.weight_of(a), self.weight_of(b))
                    .then_with(|| self.codes_of(a).cmp(self.codes_of(b)))
            },
        );
        (rows[at], total)
    }
}

/// The Algorithm-2 scan: every node's messages, bottom-up, indexed by node id.
/// Rows are scanned and group medians taken `chunk` at a time over the executor
/// pool; every row's message (code gather, child merge, weight fold) and every
/// group's median is independent of every other's and lands in its own place, so
/// the arenas are bit-identical at any chunk size and thread count.
fn pivot_messages(
    ctx: &EncodedContext,
    fold: &WeightFold,
    sorted_vars: &[Variable],
    counts: &[Vec<u128>],
    chunk: usize,
) -> Vec<NodeMsgs> {
    let (n_slots, width) = (sorted_vars.len(), fold.width());
    let slot_of = |v: &Variable| sorted_vars.binary_search(v).expect("a query variable");
    let mut msgs: Vec<NodeMsgs> = ctx.nodes().iter().map(|_| NodeMsgs::default()).collect();
    // Per node: the slots its subtree's messages bind.
    let mut bound: Vec<Vec<usize>> = vec![Vec::new(); msgs.len()];
    for &node_id in &ctx.tree().bottom_up_order() {
        let n_rows = ctx.node(node_id).rows.len();
        let atom = ctx.query().atom(ctx.node(node_id).atom_index);
        let own: Vec<(usize, usize)> = (atom.distinct_variable_positions().into_iter())
            .map(|(v, pos)| (pos, slot_of(&v)))
            .collect();
        // Per child: parent row → gid, its messages, and the slots to take from its
        // group's median (those this node's own atom binds hold the join key).
        let children: Vec<(&[u32], &NodeMsgs, Vec<usize>)> = (ctx.tree().node(node_id).children)
            .iter()
            .map(|&child| {
                let theirs = bound[child].iter().copied();
                let fresh = theirs.filter(|slot| own.iter().all(|(_, mine)| mine != slot));
                (ctx.links(child), &msgs[child], fresh.collect())
            })
            .collect();
        bound[node_id] = own.iter().map(|&(_, slot)| slot).collect();
        for (_, _, fresh) in &children {
            bound[node_id].extend(fresh);
        }

        // Each row's arenas are filled in place, by the task that owns its half.
        let mut node = NodeMsgs {
            n_slots,
            width,
            codes: vec![UNBOUND; n_rows * n_slots],
            weights: vec![0.0; n_rows * width],
            ..NodeMsgs::default()
        };
        let fill = |i: usize, codes: &mut [u64], weight: &mut [f64]| {
            for &(pos, slot) in &own {
                codes[slot] = ctx.code(node_id, i, pos);
            }
            for (links, child, fresh) in &children {
                let median = child.codes_of(child.medians[links[i] as usize]);
                for &slot in fresh {
                    codes[slot] = median[slot];
                }
            }
            fold.write_weight(codes, weight);
        };
        fill_rows(0..n_rows, &mut node.codes, &mut node.weights, chunk, &fill);

        if node_id != ctx.root() {
            // Each median folds its group's members in ascending row order.
            let n_groups = ctx.num_groups(node_id);
            node.medians = qjoin_par::par_map_chunks(n_groups, chunk, |_, range| {
                let mut members: Vec<u32> = Vec::new();
                range
                    .map(|g| {
                        members.clear();
                        members.extend_from_slice(ctx.group(node_id, g as u32));
                        node.median(&mut members, &counts[node_id]).0
                    })
                    .collect::<Vec<u32>>()
            })
            .concat();
        }
        drop(children);
        msgs[node_id] = node;
    }
    msgs
}

/// Runs `fill(row, its codes, its weight)` for every row of `rows`, whose arenas
/// `codes` and `weights` are, halving the range over the executor pool until a half
/// is at most `chunk` rows.
fn fill_rows<F>(rows: Range<usize>, codes: &mut [u64], weights: &mut [f64], chunk: usize, fill: &F)
where
    F: Fn(usize, &mut [u64], &mut [f64]) + Sync,
{
    let len = rows.len();
    if len > chunk.max(1) {
        let (half, mid) = (len / 2, rows.start + len / 2);
        let (codes_lo, codes_hi) = codes.split_at_mut(codes.len() / len * half);
        let (weights_lo, weights_hi) = weights.split_at_mut(weights.len() / len * half);
        qjoin_par::par_join(
            || fill_rows(rows.start..mid, codes_lo, weights_lo, chunk, fill),
            || fill_rows(mid..rows.end, codes_hi, weights_hi, chunk, fill),
        );
    } else if let Some(n_slots) = codes.len().checked_div(len) {
        let width = weights.len() / len;
        let arenas = codes
            .chunks_exact_mut(n_slots)
            .zip(weights.chunks_exact_mut(width));
        for (i, (codes, weight)) in rows.zip(arenas) {
            fill(i, codes, weight);
        }
    }
}

/// The Algorithm-2 scan of one instance, kept: its context, the counting pass's
/// per-row counts and every node's message arenas. The pivot of the answers under
/// any set of its root rows is then one weighted median over their messages.
pub(crate) struct PivotScan {
    pub(super) ctx: Arc<EncodedContext>,
    sorted_vars: Vec<Variable>,
    /// `subtree_counts(..).per_tuple`: the medians' multiplicities.
    counts: Vec<Vec<u128>>,
    msgs: Vec<NodeMsgs>,
}

impl PivotScan {
    pub(crate) fn new(
        instance: &EncodedInstance,
        ranking: &Ranking,
        weights: &CodeWeights,
    ) -> Result<PivotScan> {
        let ctx = qjoin_exec::encoded::shared_context(instance)?;
        let sorted_vars: Vec<Variable> = ctx.query().variable_set().into_iter().collect();
        let fold = WeightFold::new(ranking, weights, |v| sorted_vars.binary_search(v).ok());
        let counts = qjoin_exec::encoded::subtree_counts(&ctx, None).per_tuple;
        let msgs = pivot_messages(&ctx, &fold, &sorted_vars, &counts, qjoin_par::DEFAULT_CHUNK);
        Ok(PivotScan {
            ctx,
            sorted_vars,
            counts,
            msgs,
        })
    }

    /// The number of answers under the root rows `roots`.
    pub(crate) fn count(&self, roots: &[u32]) -> u128 {
        let per_row = &self.counts[self.ctx.root()];
        roots.iter().map(|&row| per_row[row as usize]).sum()
    }

    /// A `c`-pivot of the answers under the root rows `roots` (ascending; reordered
    /// in place) of `instance`, the one scanned, equal to the pivot of an instance
    /// holding only those root rows.
    pub(crate) fn pivot(
        &self,
        instance: &EncodedInstance,
        ranking: &Ranking,
        weights: &CodeWeights,
        roots: &mut [u32],
    ) -> Result<PivotResult> {
        if roots.is_empty() {
            return Err(CoreError::NoAnswers);
        }
        // The artificial root V_0 = ∅: the final pivot is the weighted median of the
        // root rows' pivots.
        let root = &self.msgs[self.ctx.root()];
        let (median, total) = root.median(roots, &self.counts[self.ctx.root()]);
        let median_codes = root.codes_of(median);
        let fold = WeightFold::new(ranking, weights, |v| self.sorted_vars.binary_search(v).ok());

        // Decode the pivot at the boundary. Synthesized variables decode to their raw
        // code (they are dropped by the projection onto the original variables
        // anyway); base variables decode through the dictionary.
        let dict_space = dictionary_space_mask(instance, &self.sorted_vars);
        let assignment = Assignment::from_pairs(
            (self.sorted_vars.iter().enumerate())
                .filter(|&(slot, _)| median_codes[slot] != UNBOUND)
                .map(|(slot, var)| {
                    let code = median_codes[slot];
                    let value = if dict_space[slot] {
                        instance.dictionary().decode(code).clone()
                    } else {
                        Value::Int(code as i64)
                    };
                    (var.clone(), value)
                }),
        );
        Ok(PivotResult {
            assignment,
            weight: fold.weight_of(median_codes),
            c: pivot_quality(self.ctx.tree()),
            total_answers: total,
        })
    }
}

/// Selects a `c`-pivot of an encoded instance's answers (Lemma 4.1).
pub(crate) fn select_pivot_encoded(
    instance: &EncodedInstance,
    ranking: &Ranking,
    weights: &CodeWeights,
) -> Result<PivotResult> {
    if qjoin_exec::encoded::shared_context(instance)?.has_no_answers() {
        return Err(CoreError::NoAnswers);
    }
    let scan = PivotScan::new(instance, ranking, weights)?;
    let mut roots: Vec<u32> = (0..scan.ctx.node(scan.ctx.root()).rows.len() as u32).collect();
    scan.pivot(instance, ranking, weights, &mut roots)
}

/// For each variable (in `sorted_vars` order): true when its codes live in the
/// dictionary space, i.e. it occurs at a *base* column position of some atom.
/// Synthesized variables only ever occur at synthesized (appended) positions.
fn dictionary_space_mask(instance: &EncodedInstance, sorted_vars: &[Variable]) -> Vec<bool> {
    sorted_vars
        .iter()
        .map(|var| {
            instance
                .query()
                .atoms()
                .iter()
                .enumerate()
                .find_map(|(atom_idx, atom)| {
                    atom.positions_of(var)
                        .first()
                        .map(|&pos| pos < instance.relation_of_atom(atom_idx).base_arity())
                })
                .unwrap_or(true)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoded::EncodedBackend;
    use crate::quantile::{materialized_keyed_answers, SolveBackend};
    use qjoin_data::{Database, Relation};
    use qjoin_exec::encoded::{
        count_answers_ctx, for_each_answer_codes, map_answer_code_chunks, shared_context,
    };
    use qjoin_exec::{yannakakis, JoinTreeContext};
    use qjoin_query::variable::vars;
    use qjoin_query::{Atom, Instance, JoinQuery};
    use qjoin_workload::path::PathConfig;
    use qjoin_workload::social::SocialConfig;
    use qjoin_workload::star::StarConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The same instance on both representations: reduction, adjacency, count and
    /// enumeration must agree with the row context's, the Algorithm-2 arenas must
    /// not depend on the executor, and the pivot must be an answer whose weight
    /// class leaves at least `c · |Q(D)|` answers on each side, counted in the
    /// materialized answers. Base columns decode to the row values; synthesized
    /// columns live in their own order-compatible code spaces, so they are
    /// compared through the answers projected onto `original`.
    fn assert_twins_agree(
        row: &Instance,
        enc: &EncodedInstance,
        ranking: &Ranking,
        original: &[Variable],
        context: &str,
    ) {
        assert_eq!(row.query(), enc.query(), "{context}: rewritten queries");
        let row_ctx = JoinTreeContext::build(row).unwrap();
        let ctx = shared_context(enc).unwrap();
        let dict = enc.dictionary();

        for (node, row_node) in ctx.nodes().iter().zip(row_ctx.nodes()) {
            let id = node.node_id;
            let base_arity = enc.relation_of_atom(node.atom_index).base_arity();
            let decoded: Vec<Vec<Value>> = (0..node.rows.len())
                .map(|i| {
                    (0..base_arity)
                        .map(|col| dict.decode(ctx.code(id, i, col)).clone())
                        .collect()
                })
                .collect();
            let expected: Vec<Vec<Value>> = row_node
                .tuples
                .iter()
                .map(|t| t.values()[..base_arity].to_vec())
                .collect();
            assert_eq!(decoded, expected, "{context}: survivors of node {id}");

            let Some(parent) = ctx.tree().node(id).parent else {
                continue;
            };
            for i in 0..ctx.node(parent).rows.len() {
                let key: Vec<u64> = node
                    .parent_key_positions
                    .iter()
                    .map(|&p| ctx.code(parent, i, p))
                    .collect();
                let brute: Vec<u32> = (0..node.rows.len() as u32)
                    .filter(|&j| {
                        let own = node.own_key_positions.iter();
                        own.map(|&p| ctx.code(id, j as usize, p))
                            .eq(key.iter().copied())
                    })
                    .collect();
                assert_eq!(
                    ctx.group(id, ctx.link(id, i)),
                    brute,
                    "{context}: node {id} row {i}"
                );
            }
        }

        let total = qjoin_exec::count::count_answers_ctx(&row_ctx);
        assert_eq!(count_answers_ctx(&ctx), total, "{context}: count");

        let schema = ctx.query().variables();
        let projected: Vec<usize> = original
            .iter()
            .map(|v| {
                schema
                    .iter()
                    .position(|s| s == v)
                    .expect("original variable")
            })
            .collect();
        let mut walked: Vec<Vec<u64>> = Vec::new();
        for_each_answer_codes(&ctx, |codes| walked.push(codes.to_vec()));
        let chunked: Vec<Vec<u64>> =
            map_answer_code_chunks(&ctx, 5, Vec::new, |out, codes| out.push(codes.to_vec()))
                .concat();
        assert_eq!(walked, chunked, "{context}: chunked enumeration");
        let decoded: Vec<Vec<Value>> = walked
            .iter()
            .map(|codes| {
                projected
                    .iter()
                    .map(|&p| dict.decode(codes[p]).clone())
                    .collect()
            })
            .collect();
        let mut row_answers: Vec<Vec<Value>> = Vec::new();
        yannakakis::for_each_answer(&row_ctx, |values| {
            row_answers.push(projected.iter().map(|&p| values[p].clone()).collect())
        });
        assert_eq!(decoded, row_answers, "{context}: enumeration");

        if total == 0 {
            return;
        }
        // The Algorithm-2 arenas, byte for byte: one thread and whole-node chunks
        // against four threads and three-row chunks.
        let arenas = |threads: usize, chunk: usize| {
            let pool = qjoin_par::Pool::new(threads);
            qjoin_par::with_pool(&pool, || arena_bytes(enc, ranking, chunk))
        };
        assert_eq!(
            arenas(1, qjoin_par::DEFAULT_CHUNK),
            arenas(4, 3),
            "{context}: node arenas"
        );
        let pivot = EncodedBackend::new(enc, ranking).select_pivot(enc).unwrap();
        assert_eq!(pivot.total_answers, total, "{context}: pivot total");
        assert_eq!(
            pivot.c,
            crate::pivot::pivot_quality(ctx.tree()),
            "{context}"
        );
        assert_eq!(
            ranking.weight_of(&pivot.assignment),
            pivot.weight,
            "{context}"
        );
        let answers = materialized_keyed_answers(row, ranking, original).unwrap();
        let values: Vec<Value> = (original.iter())
            .map(|v| {
                pivot
                    .assignment
                    .get(v)
                    .expect("the pivot binds var(Q)")
                    .clone()
            })
            .collect();
        let member = (pivot.weight.clone(), values);
        assert!(
            answers.contains(&member),
            "{context}: the pivot is no answer"
        );
        let side = |keep: fn(std::cmp::Ordering) -> bool| {
            let on_side = answers.iter().filter(|(w, _)| keep(w.cmp(&pivot.weight)));
            on_side.count() as f64 / total as f64
        };
        let (at_most, at_least) = (side(|o| o.is_le()), side(|o| o.is_ge()));
        assert!(
            at_most >= pivot.c,
            "{context}: {at_most} ⪯ the pivot, c {}",
            pivot.c
        );
        assert!(
            at_least >= pivot.c,
            "{context}: {at_least} ⪰ the pivot, c {}",
            pivot.c
        );
    }

    /// Every node's message arenas — codes, weight bits, group medians.
    fn arena_bytes(
        enc: &EncodedInstance,
        ranking: &Ranking,
        chunk: usize,
    ) -> Vec<(Vec<u64>, Vec<u64>, Vec<u32>)> {
        let ctx = shared_context(enc).unwrap();
        let sorted_vars: Vec<Variable> = ctx.query().variable_set().into_iter().collect();
        let weights = CodeWeights::build(enc.dictionary(), ranking);
        let fold = WeightFold::new(ranking, &weights, |v| sorted_vars.binary_search(v).ok());
        let counts = qjoin_exec::encoded::subtree_counts(&ctx, None).per_tuple;
        pivot_messages(&ctx, &fold, &sorted_vars, &counts, chunk)
            .into_iter()
            .map(|node| {
                let weight_bits = node.weights.iter().map(|w| w.to_bits()).collect();
                (node.codes, weight_bits, node.medians)
            })
            .collect()
    }

    /// A 6-atom cartesian product of one 8 192-row relation has 2^78 answers and
    /// 2^65 per root row: the scan reports the counting pass's total, which
    /// neither a `u64` sum nor a `u64` / wrapping per-row product can hold.
    #[test]
    fn the_pivot_scan_shares_the_counting_pass_beyond_u64() {
        let rows: Vec<[i64; 1]> = (0..8192).map(|i| [i]).collect();
        let rows: Vec<&[i64]> = rows.iter().map(|row| row.as_slice()).collect();
        let atoms = (0..6).map(|i| Atom::from_names("W", &[format!("v{i}").as_str()]));
        let instance = Instance::new(
            JoinQuery::new(atoms.collect()),
            Database::from_relations([Relation::from_rows("W", &rows).unwrap()]).unwrap(),
        )
        .unwrap();
        let ranking = Ranking::max(instance.query().variables());
        for threads in [1, 4] {
            qjoin_par::with_pool(&qjoin_par::Pool::new(threads), || {
                let enc = EncodedInstance::from_instance(&instance).unwrap();
                let pivot = EncodedBackend::new(&enc, &ranking).select_pivot(&enc);
                let total = qjoin_exec::encoded::count_answers(&enc).unwrap();
                assert_eq!(total, 1u128 << 78);
                assert_eq!(pivot.unwrap().total_answers, total, "T={threads}");
            });
        }
    }

    fn random_relation(name: &str, arity: usize, rows: usize, rng: &mut StdRng) -> Relation {
        let mut rel = Relation::new(name, arity);
        for _ in 0..rows {
            let row = (0..arity).map(|_| Value::from(rng.random_range(0..4i64)));
            rel.push(row.collect()).unwrap();
        }
        rel
    }

    /// The pivot scan is the same for every ranking kind: LEX and SUM pivots of
    /// the untrimmed instances are held to their c-pivot guarantee in the
    /// materialized answers; the ε route's construction holds them on a rewrite.
    #[test]
    fn contexts_and_pivots_match_the_row_path() {
        let pools = [qjoin_par::Pool::new(1), qjoin_par::Pool::new(4)];
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let path = PathConfig {
                atoms: 3,
                tuples_per_relation: 16,
                join_domain: 3,
                weight_range: 25,
                skew: 0.3,
                seed,
            }
            .generate();
            let star = StarConfig {
                arms: 3,
                tuples_per_relation: 10,
                center_domain: 3,
                weight_range: 20,
                skew: 0.2,
                seed,
            }
            .generate();
            let social_config = SocialConfig {
                users: 10,
                events: 4,
                rows_per_relation: 14,
                max_likes: 20,
                seed,
                ..Default::default()
            };
            // `E(x1, x2) ⋈ E(x2, x3)`: the trims split the self-join first.
            let self_join = Instance::new(
                JoinQuery::new(vec![
                    Atom::from_names("E", &["x1", "x2"]),
                    Atom::from_names("E", &["x2", "x3"]),
                ]),
                Database::from_relations([random_relation("E", 2, 16, &mut rng)]).unwrap(),
            )
            .unwrap();
            // A repeated variable and a two-variable join key.
            let repeated = Instance::new(
                JoinQuery::new(vec![
                    Atom::from_names("R", &["x", "x", "y", "z"]),
                    Atom::from_names("S", &["y", "z", "w"]),
                ]),
                Database::from_relations([
                    random_relation("R", 4, 40, &mut rng),
                    random_relation("S", 3, 20, &mut rng),
                ])
                .unwrap(),
            )
            .unwrap();
            // Nothing joins: every pass must cope with empty nodes.
            let empty = Instance::new(
                qjoin_query::query::path_query(2),
                Database::from_relations([
                    Relation::from_rows("R1", &[&[1, 1], &[2, 1]]).unwrap(),
                    Relation::from_rows("R2", &[&[2, 5]]).unwrap(),
                ])
                .unwrap(),
            )
            .unwrap();
            // (instance, LEX variables, SUM variables spanning an adjacent pair)
            let cases: Vec<(&str, Instance, Vec<Variable>, Vec<Variable>)> = vec![
                ("path", path, vars(&["x1", "x4"]), vars(&["x1", "x2", "x3"])),
                ("star", star, vars(&["x1", "x3"]), vars(&["x1", "x2"])),
                (
                    "social",
                    social_config.generate(),
                    vars(&["l3", "u1"]),
                    vars(&["l2", "l3"]),
                ),
                (
                    "self-join",
                    self_join,
                    vars(&["x3", "x1"]),
                    vars(&["x1", "x3"]),
                ),
                ("repeated", repeated, vars(&["w", "x"]), vars(&["x", "w"])),
                ("empty", empty, vars(&["x1", "x3"]), vars(&["x1", "x3"])),
            ];
            for (name, instance, lex_vars, sum_vars) in &cases {
                for pool in &pools {
                    let context = format!("{name} seed {seed} T={}", pool.threads());
                    qjoin_par::with_pool(pool, || {
                        let original = instance.query().variables();
                        let encoded = EncodedInstance::from_instance(instance).unwrap();
                        assert_twins_agree(
                            instance,
                            &encoded,
                            &Ranking::lex(lex_vars.clone()),
                            &original,
                            &format!("{context} LEX"),
                        );
                        assert_twins_agree(
                            instance,
                            &encoded,
                            &Ranking::sum(sum_vars.clone()),
                            &original,
                            &format!("{context} SUM"),
                        );
                    });
                }
            }
        }
    }
}
