//! Direct access to (unordered) join answers by index, and uniform sampling.
//!
//! Section 3.1 of the paper observes that a randomized ε-approximate quantile follows
//! from the ability to sample answers uniformly, which in turn follows from a
//! direct-access structure for the answers of an acyclic JQ built in linear time with
//! logarithmic access time. [`EncodedDirectAccess`] is such a structure over the
//! encoded context, built from per-row subtree counts and prefix sums over join
//! groups: the answers are indexed in a fixed (but otherwise arbitrary) order, and
//! [`codes_at(i)`](EncodedDirectAccess::codes_at) writes the i-th answer's codes into
//! a caller's row by a top-down walk that peels off mixed-radix digits, allocating
//! nothing. An instance keeps one index ([`EncodedDirectAccess::shared`]), so a plan
//! builds it once per generation; only [`answer_at`](EncodedDirectAccess::answer_at)
//! decodes.

use crate::encoded::{self, EncodedContext};
use crate::{ExecError, Result};
use qjoin_data::Dictionary;
use qjoin_query::{Assignment, EncodedInstance, Variable};
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
    /// The layout of a code row: the context query's variables.
    variables: Vec<Variable>,
    /// Per node: the `(slot of the code row, column of its atom)` of each variable
    /// the atom binds (its first column for a repeated one).
    slots: Vec<Vec<(usize, usize)>>,
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

    /// The instance's index: the first caller builds it and parks it in the
    /// instance's [exec memo](EncodedInstance::exec_memo), beside the shared
    /// context, and later callers reuse it (racing first callers build identical
    /// indexes; either stays). A plan's instance lives as long as its generation.
    pub fn shared(instance: &EncodedInstance) -> Result<Arc<Self>> {
        if let Some(index) = instance.exec_memo().get::<Self>() {
            return Ok(index);
        }
        let index = Arc::new(Self::new(instance)?);
        instance.exec_memo().set(Arc::clone(&index));
        Ok(index)
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
        let variables = ctx.query().variables();
        let slot_of = |v: &Variable| variables.iter().position(|s| s == v);
        let slots = (ctx.nodes().iter())
            .map(|node| {
                let atom = ctx.query().atom(node.atom_index);
                (atom.distinct_variable_positions().iter())
                    .map(|(v, col)| (slot_of(v).expect("a query variable"), *col))
                    .collect()
            })
            .collect();
        EncodedDirectAccess {
            ctx,
            dictionary,
            variables,
            slots,
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

    /// The layout of [`codes_at`](Self::codes_at)'s row: the query's variables.
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// Writes the codes of the answer at position `index` (0-based) in the
    /// structure's fixed enumeration order into `row[..variables().len()]`.
    pub fn codes_at(&self, index: u128, row: &mut [u64]) -> Result<()> {
        if index >= self.total {
            return Err(ExecError::IndexOutOfRange {
                requested: index,
                total: self.total,
            });
        }
        let (root_row, offset) = locate(&self.root_prefix, index);
        self.walk(self.ctx.root(), root_row, offset, row);
        Ok(())
    }

    /// Decodes a code row laid out as [`variables`](Self::variables).
    pub fn decode(&self, row: &[u64]) -> Assignment {
        let value = |&code: &u64| self.dictionary.decode(code).clone();
        Assignment::from_pairs(self.variables.iter().cloned().zip(row.iter().map(value)))
    }

    /// Returns the answer at position `index` (0-based) in the structure's fixed
    /// enumeration order, decoded to an assignment over the query's variables.
    pub fn answer_at(&self, index: u128) -> Result<Assignment> {
        let mut row = vec![0; self.variables.len()];
        self.codes_at(index, &mut row)?;
        Ok(self.decode(&row))
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

    /// Writes row `row_idx` of `node` and, for the answer at `offset` within its
    /// subtree, one member of each child's joining group. `offset` is a mixed-radix
    /// number whose digits are the children's offsets within their groups, the last
    /// child's least significant.
    fn walk(&self, node: usize, row_idx: usize, mut offset: u128, row: &mut [u64]) {
        for &(slot, col) in &self.slots[node] {
            row[slot] = self.ctx.code(node, row_idx, col);
        }
        for &child in self.ctx.tree().node(node).children.iter().rev() {
            let gid = self.ctx.link(child, row_idx);
            let prefix = &self.group_prefix[child][self.ctx.group_range(child, gid)];
            let radix = *prefix.last().expect("join groups are never empty");
            let (pos, child_offset) = locate(prefix, offset % radix);
            offset /= radix;
            let member = self.ctx.group(child, gid)[pos] as usize;
            self.walk(child, member, child_offset, row);
        }
        debug_assert_eq!(offset, 0);
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
