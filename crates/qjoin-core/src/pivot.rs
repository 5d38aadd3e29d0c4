//! Generic pivot selection (Section 4, Algorithm 2).
//!
//! Given an acyclic join query, a database, and a subset-monotone ranking function,
//! [`select_pivot`] returns a query answer that is a *c-pivot* of the answer set: at
//! least a `c` fraction of the answers is ⪯ the pivot, and at least a `c` fraction is
//! ⪰ it, where `c` depends only on the join-tree shape (never on the data).
//!
//! The algorithm is an iterated "median of medians" expressed in the message-passing
//! framework: every tuple computes a pivot of the partial answers of its subtree; a
//! join group combines its members' pivots with a *weighted median* (weights = subtree
//! answer counts); a tuple absorbs the group pivots of its children by unioning the
//! variable assignments (Lemma 4.4 guarantees consistency) and multiplying counts.

use crate::selection::weighted_median_by;
use crate::{CoreError, Result};
use qjoin_exec::message_passing::{self, MessageAlgebra};
use qjoin_exec::JoinTreeContext;
use qjoin_query::{Assignment, Instance, JoinTree};
use qjoin_ranking::{Ranking, Weight};

/// The outcome of pivot selection.
#[derive(Clone, Debug)]
pub struct PivotResult {
    /// The pivot query answer (a full answer of the instance's query).
    pub assignment: Assignment,
    /// The pivot's weight under the ranking function.
    pub weight: Weight,
    /// The guaranteed pivot quality `c`: at least `c · |Q(D)|` answers lie on each
    /// side of the pivot. Depends only on the join-tree shape.
    pub c: f64,
    /// The total number of query answers `|Q(D)|` (a by-product of the counting pass).
    pub total_answers: u128,
}

/// One message of the pivot algebra: the pivot of the partial answers of a subtree
/// together with the number of those partial answers.
#[derive(Clone, Debug)]
struct PivotMsg {
    pivot: Assignment,
    count: u128,
}

struct PivotAlgebra<'a> {
    ranking: &'a Ranking,
}

impl MessageAlgebra for PivotAlgebra<'_> {
    type Msg = PivotMsg;

    fn tuple_init(&self, ctx: &JoinTreeContext, node: usize, tuple_idx: usize) -> PivotMsg {
        PivotMsg {
            pivot: ctx.partial_assignment(node, tuple_idx),
            count: 1,
        }
    }

    fn combine_group(
        &self,
        _ctx: &JoinTreeContext,
        _node: usize,
        group: &[(usize, PivotMsg)],
    ) -> PivotMsg {
        let members: Vec<&PivotMsg> = group.iter().map(|(_, msg)| msg).collect();
        weighted_median_msg(members, self.ranking)
    }

    fn absorb(
        &self,
        _ctx: &JoinTreeContext,
        _node: usize,
        _tuple_idx: usize,
        own: PivotMsg,
        child_group_msg: &PivotMsg,
    ) -> PivotMsg {
        let pivot = own
            .pivot
            .union(&child_group_msg.pivot)
            .expect("join-tree pivots agree on shared variables (Lemma 4.4)");
        PivotMsg {
            pivot,
            count: own.count * child_group_msg.count,
        }
    }
}

/// Selects a `c`-pivot of `Q(D)` for an acyclic instance under a subset-monotone
/// ranking function, in time linear in the database (Lemma 4.1).
pub fn select_pivot(instance: &Instance, ranking: &Ranking) -> Result<PivotResult> {
    let ctx = JoinTreeContext::build(instance)?;
    select_pivot_ctx(&ctx, ranking)
}

/// [`select_pivot`] over a pre-built execution context.
pub fn select_pivot_ctx(ctx: &JoinTreeContext, ranking: &Ranking) -> Result<PivotResult> {
    if ctx.has_no_answers() {
        return Err(CoreError::NoAnswers);
    }
    let algebra = PivotAlgebra { ranking };
    let result = message_passing::run(ctx, &algebra);

    // The artificial root V_0 = ∅ joins with every root tuple: its single join group is
    // the whole root relation, so the final pivot is the weighted median of the root
    // tuples' pivots.
    let PivotMsg { pivot, count } =
        weighted_median_msg(result.per_tuple[ctx.root()].iter().collect(), ranking);
    let weight = ranking.weight_of(&pivot);
    let c = pivot_quality(ctx.tree());
    Ok(PivotResult {
        assignment: pivot,
        weight,
        c,
        total_answers: count,
    })
}

/// The weighted median of a join group's messages (multiplicity = subtree count)
/// under weight order, then assignment order, with the group's summed count.
fn weighted_median_msg(mut members: Vec<&PivotMsg>, ranking: &Ranking) -> PivotMsg {
    let (at, count) = weighted_median_by(
        &mut members,
        |msg| msg.count,
        |a, b| {
            ranking
                .compare(&ranking.weight_of(&a.pivot), &ranking.weight_of(&b.pivot))
                .then_with(|| a.pivot.cmp(&b.pivot))
        },
    );
    PivotMsg {
        pivot: members[at].pivot.clone(),
        count,
    }
}

/// The pivot quality guaranteed by the join-tree shape (Algorithm 2, lines 7–11 and
/// the artificial-root step): leaves are 1-pivots of their singleton subtrees, an
/// internal node with children `S_1..S_r` achieves `∏ c(S_i)/2`, and the final
/// weighted median over the root relation halves the root's value once more.
pub fn pivot_quality(tree: &JoinTree) -> f64 {
    fn node_quality(tree: &JoinTree, node: usize) -> f64 {
        let children = &tree.node(node).children;
        if children.is_empty() {
            return 1.0;
        }
        children
            .iter()
            .map(|&c| node_quality(tree, c) / 2.0)
            .product()
    }
    node_quality(tree, tree.root()) / 2.0
}

/// Exhaustively verifies that `pivot` is a `c`-pivot of the instance's answers by
/// materializing them: the fractions of answers ⪯ and ⪰ the pivot.
#[cfg(test)]
fn verify_pivot(instance: &Instance, ranking: &Ranking, pivot: &PivotResult) -> Result<(f64, f64)> {
    let answers = qjoin_exec::yannakakis::materialize(instance)?;
    let total = answers.len() as f64;
    if answers.is_empty() {
        return Err(CoreError::NoAnswers);
    }
    let schema = answers.variables().to_vec();
    let mut below_or_equal = 0usize;
    let mut above_or_equal = 0usize;
    for row in answers.rows() {
        let w = ranking.weight_of_row(&schema, row);
        match ranking.compare(&w, &pivot.weight) {
            std::cmp::Ordering::Less => below_or_equal += 1,
            std::cmp::Ordering::Greater => above_or_equal += 1,
            std::cmp::Ordering::Equal => {
                below_or_equal += 1;
                above_or_equal += 1;
            }
        }
    }
    Ok((below_or_equal as f64 / total, above_or_equal as f64 / total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_data::{Database, Relation, Value};
    use qjoin_query::query::{figure1_query, path_query};
    use qjoin_query::variable::vars;
    use qjoin_query::Variable;

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
    fn figure2_pivot_message_for_r11() {
        // Figure 2 of the paper: with the tree rooted at R and full SUM with identity
        // weights, the pivot computed at tuple R(1,1) is
        // {x1: 1, x2: 1, x3: 4, x4: 6, x5: 8}.
        let inst = figure1_instance();
        let tree = qjoin_query::JoinTree::from_edges(4, &[(0, 1), (0, 2), (2, 3)], 0);
        let ctx = qjoin_exec::JoinTreeContext::build_with_tree(&inst, tree).unwrap();
        let ranking = Ranking::sum(inst.query().variables());
        let algebra = PivotAlgebra { ranking: &ranking };
        let result = message_passing::run(&ctx, &algebra);
        let r_node = ctx
            .nodes()
            .iter()
            .find(|n| ctx.query().atom(n.atom_index).relation() == "R")
            .unwrap();
        let r11_idx = ctx
            .node(r_node.node_id)
            .tuples
            .iter()
            .position(|t| t.values() == [Value::from(1), Value::from(1)])
            .unwrap();
        let msg = &result.per_tuple[r_node.node_id][r11_idx];
        assert_eq!(msg.count, 9);
        let expected = [("x1", 1), ("x2", 1), ("x3", 4), ("x4", 6), ("x5", 8)];
        for (name, val) in expected {
            assert_eq!(
                msg.pivot.get(&Variable::new(name)),
                Some(&Value::from(val)),
                "variable {name}"
            );
        }
    }

    #[test]
    fn pivot_is_a_real_answer_and_a_c_pivot() {
        let inst = figure1_instance();
        let ranking = Ranking::sum(inst.query().variables());
        let pivot = select_pivot(&inst, &ranking).unwrap();
        assert_eq!(pivot.total_answers, 13);
        assert!(pivot.c > 0.0 && pivot.c <= 0.5);
        let (frac_le, frac_ge) = verify_pivot(&inst, &ranking, &pivot).unwrap();
        assert!(frac_le >= pivot.c, "{frac_le} < {}", pivot.c);
        assert!(frac_ge >= pivot.c, "{frac_ge} < {}", pivot.c);
    }

    #[test]
    fn pivot_quality_depends_only_on_tree_shape() {
        // Chain of 3 nodes: leaf 1, middle 1/2, root 1/4, final /2 → 1/8.
        let chain = JoinTree::from_edges(3, &[(0, 1), (1, 2)], 0);
        assert_eq!(pivot_quality(&chain), 0.125);
        // Root with two leaf children: (1/2)·(1/2) = 1/4, final /2 → 1/8.
        let star = JoinTree::from_edges(3, &[(0, 1), (0, 2)], 0);
        assert_eq!(pivot_quality(&star), 0.125);
        // Single node: 1/2.
        assert_eq!(pivot_quality(&JoinTree::single_node()), 0.5);
    }

    #[test]
    fn pivot_works_for_all_ranking_kinds() {
        let inst = figure1_instance();
        let all_vars = inst.query().variables();
        for ranking in [
            Ranking::sum(all_vars.clone()),
            Ranking::min(all_vars.clone()),
            Ranking::max(all_vars.clone()),
            Ranking::lex(vars(&["x3", "x5"])),
            Ranking::sum(vars(&["x2", "x4"])),
        ] {
            let pivot = select_pivot(&inst, &ranking).unwrap();
            let (frac_le, frac_ge) = verify_pivot(&inst, &ranking, &pivot).unwrap();
            assert!(
                frac_le >= pivot.c && frac_ge >= pivot.c,
                "ranking {ranking}: ({frac_le}, {frac_ge}) vs c = {}",
                pivot.c
            );
        }
    }

    #[test]
    fn empty_instances_are_rejected() {
        let r1 = Relation::from_rows("R1", &[&[1, 1]]).unwrap();
        let r2 = Relation::from_rows("R2", &[&[2, 5]]).unwrap();
        let inst =
            Instance::new(path_query(2), Database::from_relations([r1, r2]).unwrap()).unwrap();
        let ranking = Ranking::sum(inst.query().variables());
        assert!(matches!(
            select_pivot(&inst, &ranking).unwrap_err(),
            CoreError::NoAnswers
        ));
    }

    #[test]
    fn binary_join_pivot_is_near_the_median() {
        // A skewed binary join: R1(x1, x2) with x2 ∈ {0, 1}, R2(x2, x3) with many
        // tuples per group. The pivot must still leave ≥ c on each side.
        let mut r1 = Relation::new("R1", 2);
        let mut r2 = Relation::new("R2", 2);
        for i in 0..40i64 {
            r1.push(vec![Value::from(i), Value::from(i % 2)]).unwrap();
            r2.push(vec![Value::from(i % 2), Value::from(1000 - 7 * i)])
                .unwrap();
        }
        let inst =
            Instance::new(path_query(2), Database::from_relations([r1, r2]).unwrap()).unwrap();
        let ranking = Ranking::sum(inst.query().variables());
        let pivot = select_pivot(&inst, &ranking).unwrap();
        let (le, ge) = verify_pivot(&inst, &ranking, &pivot).unwrap();
        assert!(le >= pivot.c && ge >= pivot.c);
        assert_eq!(pivot.total_answers, 800);
    }
}
