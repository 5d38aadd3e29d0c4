//! Encoded ε-lossy trimming: Algorithm 4 built once per solve, every trim a window.
//!
//! [`LossyConstruction::build`] is Algorithm 4's bottom-up rewrite — binarize the join
//! tree, push ε′-sketches of partial-sum multisets through every edge, rewire each child
//! row to its sketch bucket through a fresh `v_RS` variable — over selection-vector
//! views, and with **no bound in it**: Algorithm 4 reads λ only in its final root
//! filter. The build then takes, once, what every window needs of the rewritten
//! instance: its context, the counting pass's per-row counts and every node's
//! Algorithm-2 message arenas ([`PivotScan`]). A window
//! ([`LossyConstruction::window`]) is that root filter and nothing more: the ascending
//! context root rows it keeps. [`LossyBackend`] counts a window as the sum of its rows'
//! counts, pivots it with one weighted median over its rows' root messages, and walks
//! its leaf under its rows alone. No view is filtered and no context built after the
//! construction.
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
//! **Why a selection of root rows is exact.** The full reducer of a fresh context
//! over a window's filtered instance drops a non-root row only when no surviving
//! parent row joins its group, so it drops whole join groups only. A group some kept
//! root row reaches keeps every member, and, by induction down the tree, every
//! subtree below them, exactly as in the construction's own context. Each live
//! group's median (the same members, in the same ascending order, with the same
//! subtree counts) and each row's count are therefore the ones a fresh build
//! computes, and the kept root rows keep view order. So a window's count, pivot
//! (assignment, weight, `c`, total), leaf enumeration order and answers are
//! bit-identical to a fresh context's over the filtered instance; `lossy_tests.rs`
//! checks every window a solve cuts against exactly that (`materialized_window`).
//!
//! Traced `path3_approx` (600 tuples, seed 2023, 10 s runs, medians of 3 alternating
//! runs per side on a 2-core host):
//!
//! | | a context per window | one context per solve |
//! |---|---|---|
//! | `core.solve_ms` | 11.4 | 6.6 |
//! | `core.trim_round_ms` (round 0; each later round) | 8.8 (3.8; 0.5–1.4) | 5.6 (5.2; 0.05–0.1) |
//! | `core.pivot_scan_ms` (round 1) | 2.4 (1.05) | 0.67 (0.35) |
//! | `par.tasks` | 3526 | 1416 |
//! | `core.rounds`, `.candidates_scanned`, `.materialized` | 6, 44279.17, 351.33 | the same |
//!
//! Round 0 builds the construction and, with it, the context, counts and arenas
//! (about 2.6 ms of its 5.2); each later round is two root-row scans and two sums.

use super::pivot::PivotScan;
use super::trim::{row_sum, rows_in, segment_offsets, weighted_pairs, ViewBuilder};
use super::weights::CodeWeights;
use super::{CodeKey, EncodedBackend};
use crate::pivot::PivotResult;
use crate::quantile::SolveBackend;
use crate::sketch::{sketch, RoundDirection, SketchEntry};
use crate::{CoreError, Result};
use qjoin_data::EncodedRelation;
use qjoin_exec::encoded as exec_encoded;
use qjoin_exec::{EncodedContext, Key};
use qjoin_query::{binary, Assignment, Atom, EncodedInstance, JoinQuery, Variable};
#[cfg(test)]
use qjoin_ranking::RankPredicate;
use qjoin_ranking::{AggregateKind, CmpOp, Ranking, SumTupleWeights, Weight, WeightBound};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

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
/// bound in it, and everything a window of it needs, computed over it once: its
/// context, the counting pass and the Algorithm-2 arenas. Every trim of the solve is
/// a [`window`](Self::window) — a selection of its root rows.
pub(crate) struct LossyConstruction {
    /// A handle on the instance this was built from. It pins that instance's
    /// `ExecMemo`, which clones share: the identity [`Self::is_of`] compares.
    source: EncodedInstance,
    /// The rewritten instance, its root unfiltered.
    rewritten: EncodedInstance,
    /// Per root row of the context: `(sum_up, sum_dn)`. Every answer the row
    /// represents has its true sum in `[sum_dn, sum_up]`.
    root_sums: Vec<(f64, f64)>,
    /// The rewritten instance's context, per-row counts and message arenas.
    scan: PivotScan,
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
        let scan = PivotScan::new(&rewritten, ranking, weights)?;
        let ctx = &scan.ctx;
        let root_sums = (ctx.node(ctx.root()).rows.iter())
            .map(|&(seg, row)| {
                let global = root_offsets[seg as usize] + row as usize;
                (sum_up[global], sum_dn[global])
            })
            .collect();
        Ok(LossyConstruction {
            source: source.clone(),
            rewritten,
            root_sums,
            scan,
        })
    }

    /// True if `instance` is the one this construction was built from (or a clone).
    pub(crate) fn is_of(&self, instance: &EncodedInstance) -> bool {
        std::ptr::eq(self.source.exec_memo(), instance.exec_memo())
    }

    /// The window `(low, high)`: the context's root rows, ascending, with
    /// `sum_up < high` and `sum_dn > low`. `low = ⊤` or `high = ⊥` keeps none, two
    /// infinite bounds keep all.
    pub(crate) fn window(&self, low: &WeightBound, high: &WeightBound) -> Result<Vec<u32>> {
        let n_rows = self.root_sums.len() as u32;
        let Some((low, high)) = window_bounds(low, high)? else {
            return Ok((0..n_rows).collect());
        };
        // Branch-free: whether a row is kept only decides whether the next row
        // overwrites its slot.
        let mut kept = vec![0u32; n_rows as usize];
        let mut len = 0;
        for (row, &(up, dn)) in (0..n_rows).zip(&self.root_sums) {
            kept[len] = row;
            len += usize::from((up < high) & (dn > low));
        }
        kept.truncate(len);
        Ok(kept)
    }

    /// The window `(low, high)` as an instance of its own, the oracle a window is
    /// tested against: the rewritten instance with its root view filtered (a fresh
    /// instance, so nothing of this construction's context is reused), every other
    /// relation shared by handle. Root rows the context dropped are dropped here
    /// too: they join nothing.
    #[cfg(test)]
    pub(crate) fn materialized_window(
        &self,
        low: &WeightBound,
        high: &WeightBound,
    ) -> Result<EncodedInstance> {
        let bounds = window_bounds(low, high)?;
        let inside =
            |&(up, dn): &(f64, f64)| bounds.is_none_or(|(low, high)| up < high && dn > low);
        let root = self.scan.ctx.node(self.scan.ctx.root());
        let kept: std::collections::HashSet<(u32, u32)> = (root.rows.iter().zip(&self.root_sums))
            .filter(|(_, sums)| inside(sums))
            .map(|(&coords, _)| coords)
            .collect();
        let view = self.rewritten.relation_of_atom(root.atom_index);
        let view = view.filtered(|seg, row| kept.contains(&(seg as u32, row as u32)));
        let query = self.rewritten.query().clone();
        Ok(self.rewritten.with_rewritten(query, [view])?)
    }
}

/// The scalar bounds a window's root filter compares the two sums with, or `None`
/// when it keeps every row.
fn window_bounds(low: &WeightBound, high: &WeightBound) -> Result<Option<(f64, f64)>> {
    if *low == WeightBound::PosInf || *high == WeightBound::NegInf {
        // No sum is above +∞: the filter admits nothing.
        return Ok(Some((f64::INFINITY, f64::NEG_INFINITY)));
    }
    if low.is_infinite() && high.is_infinite() {
        return Ok(None);
    }
    let scalar = |bound: &WeightBound, infinite: f64| match bound.as_finite() {
        None => Ok(infinite),
        Some(weight) => weight.as_num().ok_or_else(|| {
            CoreError::UnsupportedPredicate("SUM trimming requires a scalar bound".into())
        }),
    };
    Ok(Some((
        scalar(low, f64::NEG_INFINITY)?,
        scalar(high, f64::INFINITY)?,
    )))
}

/// What a lossy solve recurses over: the instance it was asked about, until its
/// first trim, and windows of that instance's construction after it.
#[derive(Clone)]
pub(crate) enum Candidates {
    Source(EncodedInstance),
    /// The context root rows of the construction a window keeps, ascending.
    Window(Arc<LossyConstruction>, Vec<u32>),
}

/// The ε-lossy SUM solve's backend: the encoded backend on the source instance,
/// and every trim a window of the one [`LossyConstruction`] its first trim builds.
/// A window is counted, pivoted and walked through the construction's memo alone:
/// no view is filtered and no context built after the construction.
pub(crate) struct LossyBackend<'a> {
    encoded: EncodedBackend<'a>,
    /// The per-trim loss budget ε′.
    epsilon: f64,
    construction: OnceLock<Arc<LossyConstruction>>,
}

impl<'a> LossyBackend<'a> {
    pub(crate) fn new(
        instance: &EncodedInstance,
        ranking: &'a Ranking,
        per_trim_epsilon: f64,
    ) -> LossyBackend<'a> {
        LossyBackend {
            encoded: EncodedBackend::new(instance, ranking),
            epsilon: per_trim_epsilon,
            construction: OnceLock::new(),
        }
    }

    /// The window `(low, high)` of the solve's one construction, building it on
    /// first use. `candidates` must be the source it was built from.
    fn window(
        &self,
        candidates: &Candidates,
        low: &WeightBound,
        high: &WeightBound,
    ) -> Result<Candidates> {
        let built = match (candidates, self.construction.get()) {
            (Candidates::Source(instance), Some(built)) if built.is_of(instance) => built,
            // Not inside `get_or_init`: the build runs pool regions, and a thread
            // waiting on one may be handed the round's other arm, which would
            // re-enter the cell. Two arms racing here build identical values.
            (Candidates::Source(instance), None) => {
                let (ranking, weights) = (self.encoded.ranking, &self.encoded.weights);
                let built = LossyConstruction::build(instance, ranking, self.epsilon, weights)?;
                self.construction.get_or_init(|| Arc::new(built))
            }
            _ => {
                let what = "a lossy trim of an instance other than the one its construction \
                            was built from";
                return Err(CoreError::Internal(what.to_string()));
            }
        };
        let kept = built.window(low, high)?;
        Ok(Candidates::Window(Arc::clone(built), kept))
    }

    /// The context `candidates` live in, and the root rows of it they keep (every
    /// one when `None`).
    fn context_of(candidates: &Candidates) -> Result<(Arc<EncodedContext>, Option<&[u32]>)> {
        Ok(match candidates {
            Candidates::Source(instance) => (exec_encoded::shared_context(instance)?, None),
            Candidates::Window(built, kept) => (Arc::clone(&built.scan.ctx), Some(kept)),
        })
    }
}

impl SolveBackend for LossyBackend<'_> {
    type Inst = Candidates;

    fn count(&self, candidates: &Candidates) -> Result<u128> {
        match candidates {
            Candidates::Source(instance) => self.encoded.count(instance),
            Candidates::Window(built, kept) => Ok(built.scan.count(kept)),
        }
    }

    fn database_size(&self, candidates: &Candidates) -> usize {
        match candidates {
            Candidates::Source(instance) => self.encoded.database_size(instance),
            // The construction's other rows stay with every window.
            Candidates::Window(built, kept) => {
                let ctx = &built.scan.ctx;
                ctx.total_rows() - ctx.node(ctx.root()).rows.len() + kept.len()
            }
        }
    }

    fn select_pivot(&self, candidates: &Candidates) -> Result<PivotResult> {
        match candidates {
            Candidates::Source(instance) => self.encoded.select_pivot(instance),
            Candidates::Window(built, kept) => {
                let (ranking, weights) = (self.encoded.ranking, &self.encoded.weights);
                built
                    .scan
                    .pivot(&built.rewritten, ranking, weights, &mut kept.clone())
            }
        }
    }

    #[cfg(test)]
    fn trim(&self, candidates: &Candidates, predicate: &RankPredicate) -> Result<Candidates> {
        let (low, high) = crate::trim::sum::window_of(predicate);
        self.window(candidates, &low, &high)
    }

    fn trim_between(
        &self,
        candidates: &Candidates,
        low: &WeightBound,
        high: &WeightBound,
        _: CmpOp,
    ) -> Result<Candidates> {
        self.window(candidates, low, high)
    }

    type Key = CodeKey;

    fn leaf_weights(&self, candidates: &Candidates) -> Result<Vec<(Weight, u32)>> {
        let (ctx, only) = Self::context_of(candidates)?;
        self.encoded.leaf_weights_in(&ctx, only)
    }

    fn leaf_band(
        &self,
        candidates: &Candidates,
        original_vars: &[Variable],
        roots: &[u32],
        wanted: &(dyn Fn(&Weight) -> bool + Sync),
    ) -> Result<Vec<(Weight, CodeKey)>> {
        let (ctx, _) = Self::context_of(candidates)?;
        self.encoded
            .leaf_band_in(&ctx, original_vars, roots, wanted)
    }

    fn answer_from_key(&self, original_vars: &[Variable], key: &CodeKey) -> Assignment {
        self.encoded.answer_from_key(original_vars, key)
    }
}

#[cfg(test)]
#[path = "lossy_tests.rs"]
mod tests;
