//! Encoded ε-lossy trimming: Algorithm 4 built once per generation, every trim a window.
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
//! **Per generation, per solve.** The construction is a function of (instance,
//! ranking, ε′) alone, so the source instance's exec memo keeps it beside its context,
//! in one slot holding the latest (ranking, ε′)'s, and it drops with a plan's encoded
//! instance, i.e. with its catalog generation (it holds no handle on its source). Per
//! solve are only the per-code weights, the windows (root-row lists) and their pivots.
//! Another ranking or ε′ builds its own, outside every lock, and replaces the slot's.
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
//! across rounds: Lemma 3.6's accumulation and
//! [`Plan::guaranteed_per_trim_epsilon`](crate::plan::Plan::guaranteed_per_trim_epsilon)'s
//! ε/(2·iterations) split stand as they were.
//!
//! **When it is exact.** A sketch with parameter δ = ε/(4ℓ) (ℓ atoms) leaves its
//! first 2/δ elements in singleton buckets, so a refined bucket holds two sources
//! only in a join group of more than 4/δ = 16ℓ/ε elements. Below that — the
//! brute-force suites' random instances, the `path3_approx` benchmark — the
//! construction is exact and every round's counts are the brute force's; above it
//! the compressing-regime suite (`lossy_tests.rs`) holds each answer within ε.
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
//! runs per side on a 2-core host; the last column beside the middle one re-run):
//!
//! | | a context per window | one context per solve | one per generation |
//! |---|---|---|---|
//! | `core.solve_ms` | 11.4 | 6.6 (re-run: 5.6) | 1.4 |
//! | `core.trim_round_ms` (round 0; each later round) | 8.8 (3.8; 0.5–1.4) | 5.6 (5.2; 0.05–0.1) | 0.50 (0.10; 0.05–0.09) |
//! | `core.pivot_scan_ms` (round 1) | 2.4 (1.05) | 0.67 (0.35) | 0.76 (0.38) |
//! | `par.tasks` | 3526 | 1416 | 72 |
//! | `core.rounds`, `.candidates_scanned`, `.materialized` | 6, 44279.17, 351.33 | the same | the same |
//!
//! Round 0 of a generation's first `eps=` solve builds the construction (re-run: 4.4
//! ms); every other solve's round 0 is a memo lookup and two root-row scans. The host
//! ran at two speeds in the last column's runs; its fast runs read 0.8–0.9 ms per
//! solve and a 0.44–0.47 ms pivot scan, the middle column's re-run 0.44–0.48.

use super::pivot::PivotScan;
use super::weights::{row_sums, weighted_pairs, CodeWeights};
use super::{memoised, CodeKey, EncodedBackend};
use crate::pivot::PivotResult;
use crate::quantile::SolveBackend;
use crate::sketch::{sketch, RoundDirection, SketchEntry};
use crate::{CoreError, Result};
use qjoin_data::EncodedRelation;
use qjoin_exec::encoded as exec_encoded;
use qjoin_exec::{EncodedContext, Key};
use qjoin_query::{binary, Assignment, Atom, EncodedInstance, JoinQuery, Variable};
use qjoin_ranking::{AggregateKind, Ranking, SumTupleWeights, Weight, WeightBound};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

/// The join key at `positions` of every row of `rel`, in row order.
fn keys(rel: &EncodedRelation, positions: &[usize]) -> Vec<Key> {
    let mut codes = Vec::with_capacity(positions.len());
    (0..rel.len())
        .map(|row| {
            codes.clear();
            codes.extend(positions.iter().map(|&p| rel.code(row, p)));
            Key::from_codes(&codes)
        })
        .collect()
}

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

/// Algorithm 4's bottom-up rewrite of one instance, built with no bound in it, and
/// everything a window of it needs, computed over it once: its context, the counting
/// pass and the Algorithm-2 arenas. Every trim is a [`window`](Self::window) — a
/// selection of its root rows. The source's exec memo owns it (see the module docs).
pub(crate) struct LossyConstruction {
    /// The ranking and `ε.to_bits()` it was built for: its memo key.
    ranking: Ranking,
    epsilon: u64,
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
                "the ε-lossy construction cannot trim {:?} predicates",
                ranking.kind()
            )));
        }
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(CoreError::InvalidEpsilon(epsilon));
        }
        super::weights::refuse_non_finite(source, ranking, weights)?;
        let instance = source.eliminate_self_joins()?;
        let binarized = binary::binarize_encoded(&instance)?;
        let query = binarized.instance.query().clone();
        let tree = binarized.tree;
        let ell = query.num_atoms().max(1);
        let eps_prime = (epsilon / (4.0 * ell as f64)).clamp(1e-9, 0.999_999);

        let tuple_weights = SumTupleWeights::new(&query, ranking);

        // Leaf annotations: per-row partial sums and unit multiplicities.
        let mut states: Vec<NodeState> = (0..tree.num_nodes())
            .map(|node| {
                let atom_idx = tree.node(node).atom_index;
                let atom = query.atom(atom_idx).clone();
                let view = binarized.instance.relation_of_atom(atom_idx).clone();
                let pairs = weighted_pairs(&query, &tuple_weights, weights, atom_idx);
                let up = row_sums(&view, &pairs);
                let (dn, mults) = (up.clone(), vec![1u128; up.len()]);
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
        // Ids are assigned in (sorted-group, bucket) order.
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

                // Group the child's rows by join key, each group's members in
                // ascending row order.
                let child_total = states[child].view.len();
                let mut group_members: HashMap<Key, Vec<u32>> = HashMap::new();
                for (row, key) in keys(&states[child].view, &child_pos)
                    .into_iter()
                    .enumerate()
                {
                    group_members.entry(key).or_default().push(row as u32);
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
                // synthesized column carrying the bucket id, so its annotations stand.
                let v = Variable::fresh("v_rs", all_vars.iter());
                all_vars.push(v.clone());
                let child_state = &mut states[child];
                child_state.atom = child_state.atom.with_extra_variable(v.clone());
                child_state.view = child_state.view.clone().with_synth(child_bucket);

                // Extend the parent: one copy per bucket of the matching group,
                // absorbing the bucket's two rounded sums and its multiplicity. Old
                // rows are walked in order (chunked).
                states[node].atom = states[node].atom.with_extra_variable(v);
                let (new_view, new_up, new_dn, new_mults) = {
                    let parent = &states[node];
                    let (view, up, dn, mults) =
                        (&parent.view, &parent.up, &parent.dn, &parent.mults);
                    type Part = (Vec<u32>, Vec<u64>, Vec<f64>, Vec<f64>, Vec<u128>);
                    let parts: Vec<Part> = qjoin_par::par_map_chunks(
                        view.len(),
                        qjoin_par::DEFAULT_CHUNK,
                        |_, range| {
                            let mut part = Part::default();
                            let mut key_buf: Vec<u64> = Vec::with_capacity(parent_pos.len());
                            for row in range {
                                key_buf.clear();
                                key_buf.extend(parent_pos.iter().map(|&p| view.code(row, p)));
                                let Some(buckets) = group_buckets.get(&Key::from_codes(&key_buf))
                                else {
                                    continue;
                                };
                                for &(id, rounded_up, rounded_dn, multiplicity) in buckets {
                                    part.0.push(row as u32);
                                    part.1.push(id);
                                    part.2.push(up[row] + rounded_up);
                                    part.3.push(dn[row] + rounded_dn);
                                    part.4.push(mults[row].saturating_mul(multiplicity));
                                }
                            }
                            part
                        },
                    );
                    let mut out = Part::default();
                    for part in parts {
                        out.0.extend(part.0);
                        out.1.extend(part.1);
                        out.2.extend(part.2);
                        out.3.extend(part.3);
                        out.4.extend(part.4);
                    }
                    (view.select(out.0).with_synth(out.1), out.2, out.3, out.4)
                };
                states[node].view = new_view;
                states[node].up = new_up;
                states[node].dn = new_dn;
                states[node].mults = new_mults;
            }
        }

        // Assemble the rewritten instance: only the tree's node relations survive.
        // The root keeps every row; its two
        // sums are what `window` filters by.
        let root = tree.root();
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
            .map(|&row| (sum_up[row as usize], sum_dn[row as usize]))
            .collect();
        Ok(LossyConstruction {
            ranking: ranking.clone(),
            epsilon: epsilon.to_bits(),
            rewritten,
            root_sums,
            scan,
        })
    }

    /// True if this is the construction `build` makes for `ranking` and `epsilon`.
    fn is_for(&self, ranking: &Ranking, epsilon: f64) -> bool {
        self.epsilon == epsilon.to_bits() && self.ranking == *ranking
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
        let view = self.rewritten.relation_of_atom(root.atom_index);
        let kept = root
            .rows
            .iter()
            .zip(&self.root_sums)
            .filter(|(_, sums)| inside(sums));
        let view = view.select(kept.map(|(&row, _)| row).collect());
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
/// and every trim a window of the one [`LossyConstruction`] its first trim takes
/// from the source's exec memo (or builds and leaves there). A window is counted,
/// pivoted and walked through the construction alone.
pub(crate) struct LossyBackend<'a> {
    encoded: EncodedBackend<'a>,
    /// The instance the solve is asked about: every trim is of it.
    source: EncodedInstance,
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
            source: instance.clone(),
            epsilon: per_trim_epsilon,
            construction: OnceLock::new(),
        }
    }

    /// The window `(low, high)` of the solve's construction. `candidates` must be
    /// the source.
    fn window(
        &self,
        candidates: &Candidates,
        low: &WeightBound,
        high: &WeightBound,
    ) -> Result<Candidates> {
        let built = match candidates {
            Candidates::Source(instance)
                if std::ptr::eq(instance.exec_memo(), self.source.exec_memo()) =>
            {
                self.construction()?
            }
            _ => {
                let what = "a lossy trim of an instance other than the one its solve started from";
                return Err(CoreError::Internal(what.to_string()));
            }
        };
        let kept = built.window(low, high)?;
        Ok(Candidates::Window(Arc::clone(built), kept))
    }

    /// The solve's construction: the source memo's, if it is for this ranking and
    /// ε′, or else a new one, which replaces it there. Pinned for the solve, so a
    /// request for another ε′ that replaces the slot meanwhile costs no second build.
    fn construction(&self) -> Result<&Arc<LossyConstruction>> {
        let (ranking, weights) = (self.encoded.ranking, &self.encoded.weights);
        let is_for = |built: &LossyConstruction| built.is_for(ranking, self.epsilon);
        let build = || LossyConstruction::build(&self.source, ranking, self.epsilon, weights);
        memoised(&self.construction, &self.source, is_for, build)
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
            Candidates::Source(instance) => Ok(exec_encoded::count_answers(instance)?),
            Candidates::Window(built, kept) => Ok(built.scan.count(kept)),
        }
    }

    fn database_size(&self, candidates: &Candidates) -> usize {
        match candidates {
            Candidates::Source(instance) => instance.total_rows(),
            // The construction's other rows stay with every window.
            Candidates::Window(built, kept) => {
                let ctx = &built.scan.ctx;
                ctx.total_rows() - ctx.node(ctx.root()).rows.len() + kept.len()
            }
        }
    }

    fn select_pivot(&self, candidates: &Candidates) -> Result<PivotResult> {
        match candidates {
            Candidates::Source(instance) => {
                let (ranking, weights) = (self.encoded.ranking, &self.encoded.weights);
                super::pivot::select_pivot_encoded(instance, ranking, weights)
            }
            Candidates::Window(built, kept) => {
                let (ranking, weights) = (self.encoded.ranking, &self.encoded.weights);
                built
                    .scan
                    .pivot(&built.rewritten, ranking, weights, &mut kept.clone())
            }
        }
    }

    fn trim_between(
        &self,
        candidates: &Candidates,
        low: &WeightBound,
        high: &WeightBound,
    ) -> Result<Candidates> {
        self.window(candidates, low, high)
    }

    fn leaf_weights(&self, candidates: &Candidates) -> Result<Vec<(Weight, u32)>> {
        let (ctx, only) = Self::context_of(candidates)?;
        self.encoded.leaf_weights_in(&ctx, only, None)
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
            .leaf_band_in(&ctx, original_vars, roots, None, wanted)
    }

    fn answer_from_key(&self, original_vars: &[Variable], key: &CodeKey) -> Assignment {
        self.encoded.answer_from_key(original_vars, key)
    }
}

#[cfg(test)]
#[path = "lossy_tests.rs"]
mod tests;
