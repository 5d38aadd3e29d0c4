//! Direct access to (unordered) join answers by index, and uniform sampling.
//!
//! Section 3.1 of the paper observes that a randomized ε-approximate quantile follows
//! from the ability to sample answers uniformly, which in turn follows from a
//! direct-access structure for the answers of an acyclic JQ built in linear time with
//! logarithmic access time. This module implements such a structure using per-tuple
//! subtree counts and prefix sums over join groups: the answers are indexed in a fixed
//! (but otherwise arbitrary) order, and `answer_at(i)` reconstructs the i-th answer by
//! a top-down walk that peels off mixed-radix digits.

use crate::count::subtree_counts;
use crate::encoded::{self, EncodedContext};
use crate::{ExecError, JoinTreeContext, Result};
use qjoin_data::{Dictionary, Value};
use qjoin_query::{Assignment, EncodedInstance, Instance};
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// A direct-access index over the answers of an acyclic instance.
///
/// Preprocessing is linear in the database; each access costs `O(log n)` per query atom
/// (binary searches over group prefix sums).
pub struct DirectAccess {
    ctx: JoinTreeContext,
    /// Prefix sums over the root's tuples.
    root_prefix: Vec<u128>,
    /// For every non-root node: join key → (tuple indices of the group, prefix sums of
    /// their counts). The group total is the last prefix entry.
    group_index: Vec<HashMap<Vec<Value>, GroupPrefix>>,
    total: u128,
}

#[derive(Clone, Debug)]
struct GroupPrefix {
    members: Vec<usize>,
    prefix: Vec<u128>,
}

impl GroupPrefix {
    fn total(&self) -> u128 {
        *self.prefix.last().unwrap_or(&0)
    }

    /// Locates the member whose block contains `offset`, returning the member's tuple
    /// index and the offset within its block.
    fn locate(&self, offset: u128) -> (usize, u128) {
        let (pos, within) = locate(&self.prefix, offset);
        (self.members[pos], within)
    }
}

/// Locates the block of a running-total array that contains `offset`
/// (`prefix[i]` is the total of blocks `0..=i`): the block's position and the
/// offset within it.
fn locate(prefix: &[u128], offset: u128) -> (usize, u128) {
    let pos = prefix.partition_point(|&total| total <= offset);
    let before = if pos == 0 { 0 } else { prefix[pos - 1] };
    (pos, offset - before)
}

impl DirectAccess {
    /// Builds the index for an acyclic instance.
    pub fn new(instance: &Instance) -> Result<Self> {
        let ctx = JoinTreeContext::build(instance)?;
        Ok(Self::from_context(ctx))
    }

    /// Builds the index from an already-constructed context.
    pub fn from_context(ctx: JoinTreeContext) -> Self {
        if ctx.has_no_answers() {
            let n_nodes = ctx.nodes().len();
            return DirectAccess {
                ctx,
                root_prefix: Vec::new(),
                group_index: vec![HashMap::new(); n_nodes],
                total: 0,
            };
        }
        let counts = subtree_counts(&ctx).per_tuple;
        let root = ctx.root();
        let mut root_prefix = Vec::with_capacity(counts[root].len());
        let mut acc = 0u128;
        for &c in &counts[root] {
            acc += c;
            root_prefix.push(acc);
        }
        let total = acc;

        let mut group_index: Vec<HashMap<Vec<Value>, GroupPrefix>> =
            vec![HashMap::new(); ctx.nodes().len()];
        for node in ctx.nodes() {
            if node.node_id == root {
                continue;
            }
            let mut map = HashMap::with_capacity(node.groups.len());
            for (key, members) in &node.groups {
                let mut prefix = Vec::with_capacity(members.len());
                let mut acc = 0u128;
                for &m in members {
                    acc += counts[node.node_id][m];
                    prefix.push(acc);
                }
                map.insert(
                    key.clone(),
                    GroupPrefix {
                        members: members.clone(),
                        prefix,
                    },
                );
            }
            group_index[node.node_id] = map;
        }

        DirectAccess {
            ctx,
            root_prefix,
            group_index,
            total,
        }
    }

    /// The total number of answers `|Q(D)|`.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// The underlying context.
    pub fn context(&self) -> &JoinTreeContext {
        &self.ctx
    }

    /// Returns the answer at position `index` (0-based) in the structure's fixed
    /// enumeration order.
    pub fn answer_at(&self, index: u128) -> Result<Assignment> {
        if index >= self.total {
            return Err(ExecError::IndexOutOfRange {
                requested: index,
                total: self.total,
            });
        }
        let (root_tuple, offset) = locate(&self.root_prefix, index);
        let mut assignment = Assignment::empty();
        self.descend(self.ctx.root(), root_tuple, offset, &mut assignment);
        Ok(assignment)
    }

    /// Samples an answer uniformly at random.
    pub fn sample(&self, rng: &mut impl Rng) -> Result<Assignment> {
        if self.total == 0 {
            return Err(ExecError::NoAnswers);
        }
        let idx = rng.random_range(0..self.total);
        self.answer_at(idx)
    }

    /// Recursively reconstructs the `offset`-th answer of the subtree rooted at the
    /// given tuple of `node`.
    fn descend(&self, node: usize, tuple_idx: usize, offset: u128, out: &mut Assignment) {
        let partial = self.ctx.partial_assignment(node, tuple_idx);
        *out = out.union(&partial).expect("join keys force consistency");

        let children = &self.ctx.tree().node(node).children;
        if children.is_empty() {
            debug_assert_eq!(offset, 0);
            return;
        }
        let tuple = &self.ctx.node(node).tuples[tuple_idx];
        // The subtree count factorizes over the children's group totals; peel off one
        // mixed-radix digit per child.
        let totals: Vec<u128> = children
            .iter()
            .map(|&c| {
                let key = self.ctx.node(c).key_from_parent(tuple);
                self.group_index[c][&key].total()
            })
            .collect();
        let mut remainder = offset;
        for (i, &child) in children.iter().enumerate() {
            let radix_rest: u128 = totals[i + 1..].iter().product();
            let digit = remainder / radix_rest;
            remainder %= radix_rest;
            let key = self.ctx.node(child).key_from_parent(tuple);
            let group = &self.group_index[child][&key];
            let (child_tuple, child_offset) = group.locate(digit);
            self.descend(child, child_tuple, child_offset, out);
        }
    }
}

/// The encoded twin of [`DirectAccess`]: a direct-access index over the answers of
/// an acyclic [`EncodedInstance`], decoding codes back to values only at the answer
/// boundary.
///
/// The enumeration order is **pointwise identical** to [`DirectAccess`] over the
/// corresponding row instance: both contexts keep surviving tuples in relation
/// order and group members ascending, so `answer_at(i)` returns the same
/// assignment on both paths — which is what makes seeded sampling reproducible
/// across backends.
///
/// Precondition: every column of the instance is a dictionary code (no synthesized
/// columns), i.e. the instance is an un-trimmed encoding of a row database.
pub struct EncodedDirectAccess {
    ctx: Arc<EncodedContext>,
    dictionary: Arc<Dictionary>,
    /// Prefix sums over the root's surviving rows.
    root_prefix: Vec<u128>,
    /// For every non-root node: the running totals of its rows' subtree counts
    /// within each join group, aligned with the context's group member array
    /// (group `gid` occupies [`EncodedContext::group_range`]).
    group_prefix: Vec<Vec<u128>>,
    total: u128,
}

impl EncodedDirectAccess {
    /// Builds the index for an acyclic encoded instance over the instance's
    /// [shared context](encoded::shared_context): a request that samples an
    /// instance some solve already reduced reuses that reduction.
    pub fn new(instance: &EncodedInstance) -> Result<Self> {
        let ctx = encoded::shared_context(instance)?;
        Ok(Self::from_context(ctx, Arc::clone(instance.dictionary())))
    }

    /// Builds the index from an already-constructed encoded context (owned or
    /// shared), e.g. one over a custom join tree.
    pub fn from_context(ctx: impl Into<Arc<EncodedContext>>, dictionary: Arc<Dictionary>) -> Self {
        let ctx = ctx.into();
        let counts = encoded::subtree_counts(&ctx, None).per_tuple;
        let running = |acc: &mut u128, count: u128| {
            *acc += count;
            Some(*acc)
        };
        let root = ctx.root();
        let root_prefix: Vec<u128> = counts[root].iter().copied().scan(0, running).collect();
        let total = root_prefix.last().copied().unwrap_or(0);
        let group_prefix: Vec<Vec<u128>> = (0..ctx.nodes().len())
            .map(|node| {
                (0..ctx.num_groups(node))
                    .flat_map(|gid| {
                        let members = ctx.group(node, gid as u32).iter();
                        members.map(|&m| counts[node][m as usize]).scan(0, running)
                    })
                    .collect()
            })
            .collect();
        EncodedDirectAccess {
            ctx,
            dictionary,
            root_prefix,
            group_prefix,
            total,
        }
    }

    /// The total number of answers `|Q(D)|`.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// The underlying context.
    pub fn context(&self) -> &EncodedContext {
        &self.ctx
    }

    /// Returns the answer at position `index` (0-based) in the structure's fixed
    /// enumeration order, decoded to an assignment over the query's variables.
    pub fn answer_at(&self, index: u128) -> Result<Assignment> {
        if index >= self.total {
            return Err(ExecError::IndexOutOfRange {
                requested: index,
                total: self.total,
            });
        }
        let (root_row, offset) = locate(&self.root_prefix, index);
        let mut assignment = Assignment::empty();
        self.descend(self.ctx.root(), root_row, offset, &mut assignment);
        Ok(assignment)
    }

    /// Samples an answer uniformly at random. The RNG consumption is identical to
    /// [`DirectAccess::sample`], so seeded draws agree across backends.
    pub fn sample(&self, rng: &mut impl Rng) -> Result<Assignment> {
        if self.total == 0 {
            return Err(ExecError::NoAnswers);
        }
        let idx = rng.random_range(0..self.total);
        self.answer_at(idx)
    }

    fn descend(&self, node: usize, row_idx: usize, offset: u128, out: &mut Assignment) {
        let atom = self.ctx.query().atom(self.ctx.node(node).atom_index);
        for (v, pos) in atom.distinct_variable_positions() {
            let value = self
                .dictionary
                .decode(self.ctx.code(node, row_idx, pos))
                .clone();
            out.bind(v, value);
        }

        let children = &self.ctx.tree().node(node).children;
        if children.is_empty() {
            debug_assert_eq!(offset, 0);
            return;
        }
        // Each child's joining group: its member rows and their running totals.
        let groups: Vec<(&[u32], &[u128])> = children
            .iter()
            .map(|&c| {
                let gid = self.ctx.link(c, row_idx);
                let range = self.ctx.group_range(c, gid);
                (self.ctx.group(c, gid), &self.group_prefix[c][range])
            })
            .collect();
        let mut remainder = offset;
        for (i, &child) in children.iter().enumerate() {
            let radix_rest: u128 = groups[i + 1..]
                .iter()
                .map(|(_, prefix)| prefix.last().expect("join groups are never empty"))
                .product();
            let digit = remainder / radix_rest;
            remainder %= radix_rest;
            let (members, prefix) = groups[i];
            let (pos, child_offset) = locate(prefix, digit);
            self.descend(child, members[pos] as usize, child_offset, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::yannakakis::materialize;
    use qjoin_data::{Database, Relation};
    use qjoin_query::query::{figure1_query, path_query};
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn figure1_instance() -> Instance {
        let r = Relation::from_rows("R", &[&[1, 1], &[2, 2]]).unwrap();
        let s = Relation::from_rows("S", &[&[1, 3], &[1, 4], &[1, 5], &[2, 3], &[2, 4]]).unwrap();
        let t = Relation::from_rows("T", &[&[1, 6], &[1, 7], &[2, 6]]).unwrap();
        let u = Relation::from_rows("U", &[&[6, 8], &[6, 9], &[7, 9]]).unwrap();
        Instance::new(
            figure1_query(),
            Database::from_relations([r, s, t, u]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn total_matches_count_and_indices_are_distinct_answers() {
        let inst = figure1_instance();
        let da = DirectAccess::new(&inst).unwrap();
        assert_eq!(da.total(), 13);
        let mut seen = HashSet::new();
        for i in 0..13u128 {
            let a = da.answer_at(i).unwrap();
            assert_eq!(a.len(), inst.query().variables().len());
            seen.insert(format!("{a:?}"));
        }
        assert_eq!(seen.len(), 13);
    }

    #[test]
    fn all_indexed_answers_are_real_answers() {
        let inst = figure1_instance();
        let da = DirectAccess::new(&inst).unwrap();
        let materialized = materialize(&inst).unwrap();
        let all: HashSet<String> = materialized
            .iter_assignments()
            .map(|a| format!("{a:?}"))
            .collect();
        for i in 0..da.total() {
            let a = da.answer_at(i).unwrap();
            assert!(all.contains(&format!("{a:?}")));
        }
    }

    #[test]
    fn out_of_range_access_errors() {
        let da = DirectAccess::new(&figure1_instance()).unwrap();
        assert!(matches!(
            da.answer_at(13).unwrap_err(),
            ExecError::IndexOutOfRange { .. }
        ));
    }

    #[test]
    fn empty_instances_have_zero_total_and_sampling_fails() {
        let r1 = Relation::from_rows("R1", &[&[1, 1]]).unwrap();
        let r2 = Relation::from_rows("R2", &[&[2, 5]]).unwrap();
        let inst =
            Instance::new(path_query(2), Database::from_relations([r1, r2]).unwrap()).unwrap();
        let da = DirectAccess::new(&inst).unwrap();
        assert_eq!(da.total(), 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert!(matches!(
            da.sample(&mut rng).unwrap_err(),
            ExecError::NoAnswers
        ));
    }

    #[test]
    fn sampling_hits_every_answer_eventually() {
        let inst = figure1_instance();
        let da = DirectAccess::new(&inst).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            let a = da.sample(&mut rng).unwrap();
            seen.insert(format!("{a:?}"));
        }
        assert_eq!(seen.len(), 13, "uniform sampling should reach all answers");
    }

    #[test]
    fn encoded_access_is_pointwise_identical_to_row_access() {
        let inst = figure1_instance();
        let row = DirectAccess::new(&inst).unwrap();
        let enc_inst = qjoin_query::EncodedInstance::from_instance(&inst).unwrap();
        let enc = EncodedDirectAccess::new(&enc_inst).unwrap();
        assert_eq!(row.total(), enc.total());
        for i in 0..row.total() {
            assert_eq!(
                row.answer_at(i).unwrap(),
                enc.answer_at(i).unwrap(),
                "index {i}"
            );
        }
    }

    #[test]
    fn encoded_sampling_is_seed_identical_to_row_sampling() {
        let inst = figure1_instance();
        let row = DirectAccess::new(&inst).unwrap();
        let enc_inst = qjoin_query::EncodedInstance::from_instance(&inst).unwrap();
        let enc = EncodedDirectAccess::new(&enc_inst).unwrap();
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(99);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(
                row.sample(&mut rng_a).unwrap(),
                enc.sample(&mut rng_b).unwrap()
            );
        }
    }

    #[test]
    fn encoded_access_on_empty_instance_has_zero_total() {
        let r1 = Relation::from_rows("R1", &[&[1, 1]]).unwrap();
        let r2 = Relation::from_rows("R2", &[&[2, 5]]).unwrap();
        let inst =
            Instance::new(path_query(2), Database::from_relations([r1, r2]).unwrap()).unwrap();
        let enc_inst = qjoin_query::EncodedInstance::from_instance(&inst).unwrap();
        let enc = EncodedDirectAccess::new(&enc_inst).unwrap();
        assert_eq!(enc.total(), 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert!(matches!(
            enc.sample(&mut rng).unwrap_err(),
            ExecError::NoAnswers
        ));
    }

    #[test]
    fn sampling_is_close_to_uniform() {
        let inst = figure1_instance();
        let da = DirectAccess::new(&inst).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut histogram: std::collections::HashMap<String, usize> = Default::default();
        let draws = 13_000usize;
        for _ in 0..draws {
            let a = da.sample(&mut rng).unwrap();
            *histogram.entry(format!("{a:?}")).or_default() += 1;
        }
        let expected = draws as f64 / 13.0;
        for (_, &count) in histogram.iter() {
            assert!(
                (count as f64) > expected * 0.6 && (count as f64) < expected * 1.4,
                "sample frequency {count} too far from expected {expected}"
            );
        }
    }
}
