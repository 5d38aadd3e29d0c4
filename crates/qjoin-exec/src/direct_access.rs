//! Direct access to (unordered) join answers by index, and uniform sampling.
//!
//! Section 3.1 of the paper observes that a randomized ε-approximate quantile follows
//! from the ability to sample answers uniformly, which in turn follows from a
//! direct-access structure for the answers of an acyclic JQ built in linear time with
//! logarithmic access time. [`EncodedDirectAccess`] is such a structure over the
//! encoded context, built from per-row subtree counts and prefix sums over join
//! groups: the answers are indexed in a fixed (but otherwise arbitrary) order, and
//! `answer_at(i)` reconstructs the i-th answer by a top-down walk that peels off
//! mixed-radix digits.

use crate::encoded::{self, EncodedContext};
use crate::{ExecError, Result};
use qjoin_data::Dictionary;
use qjoin_query::{Assignment, EncodedInstance};
use rand::Rng;
use std::sync::Arc;

/// Locates the block of a running-total array that contains `offset`
/// (`prefix[i]` is the total of blocks `0..=i`): the block's position and the
/// offset within it.
fn locate(prefix: &[u128], offset: u128) -> (usize, u128) {
    let pos = prefix.partition_point(|&total| total <= offset);
    let before = if pos == 0 { 0 } else { prefix[pos - 1] };
    (pos, offset - before)
}

/// A direct-access index over the answers of an acyclic [`EncodedInstance`],
/// decoding codes back to values only at the answer boundary.
///
/// The enumeration order is fixed by the context: surviving rows in relation
/// order and group members ascending, so `answer_at(i)` returns the same
/// assignment at every executor degree — which is what makes seeded sampling
/// reproducible. Preprocessing is linear in the database; each access costs
/// `O(log n)` per query atom (binary searches over group prefix sums).
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

    /// Samples an answer uniformly at random: one `random_range(0..total)` draw, so
    /// equal seeds draw equal answers.
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
    use qjoin_query::Instance;
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

    fn access(instance: &Instance) -> EncodedDirectAccess {
        EncodedDirectAccess::new(&EncodedInstance::from_instance(instance).unwrap()).unwrap()
    }

    #[test]
    fn total_matches_count_and_indices_are_distinct_answers() {
        let inst = figure1_instance();
        let da = access(&inst);
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
        let da = access(&inst);
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
        let da = access(&figure1_instance());
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
        let da = access(&inst);
        assert_eq!(da.total(), 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert!(matches!(
            da.sample(&mut rng).unwrap_err(),
            ExecError::NoAnswers
        ));
    }

    #[test]
    fn sampling_hits_every_answer_eventually() {
        let da = access(&figure1_instance());
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            let a = da.sample(&mut rng).unwrap();
            seen.insert(format!("{a:?}"));
        }
        assert_eq!(seen.len(), 13, "uniform sampling should reach all answers");
    }

    #[test]
    fn sampling_is_close_to_uniform() {
        let da = access(&figure1_instance());
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
