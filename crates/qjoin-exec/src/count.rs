//! Linear-time counting of the answers to an acyclic join query (Example 2.1).
//!
//! Counting is the message-passing pattern of Section 2.4: traverse a join tree
//! bottom-up, give every tuple the count 1, sum the counts *within a join group*
//! (`⊕`), and multiply a tuple's count by each child group's sum (`⊗`). `val(t)`
//! is then the number of partial answers of the subtree rooted at `t`
//! (Figure 1 of the paper).
//!
//! Counts are `u128`: the number of answers is bounded by `n^ℓ`, which comfortably fits
//! for the database sizes and query sizes this library targets (`n ≤ 10^7`, `ℓ ≤ 5`
//! gives at most `10^35 < 2^128`).

use crate::{JoinTreeContext, Result};
use qjoin_data::Value;
use qjoin_query::Instance;
use std::collections::HashMap;

/// The subtree answer counts of one bottom-up counting pass.
#[derive(Clone, Debug)]
pub struct SubtreeCounts {
    /// `per_tuple[node][i]` is the number of partial answers of the subtree rooted
    /// at tuple `i` of `node`.
    pub per_tuple: Vec<Vec<u128>>,
    /// `per_group[node]` maps a join key of `node` to the summed count of the
    /// corresponding join group. Present for every non-root node.
    pub per_group: Vec<HashMap<Vec<Value>, u128>>,
}

/// Per-tuple subtree answer counts for every node of the context.
pub fn subtree_counts(ctx: &JoinTreeContext) -> SubtreeCounts {
    let n_nodes = ctx.nodes().len();
    let mut per_tuple: Vec<Vec<u128>> = vec![Vec::new(); n_nodes];
    let mut per_group: Vec<HashMap<Vec<Value>, u128>> = vec![HashMap::new(); n_nodes];
    for &node_id in &ctx.tree().bottom_up_order() {
        let node = ctx.node(node_id);
        let children = &ctx.tree().node(node_id).children;
        let count = |tuple| {
            children.iter().fold(1u128, |own, &child| {
                let key = ctx.node(child).key_from_parent(tuple);
                let group = per_group[child].get(&key).expect(
                    "full reducer guarantees every parent tuple has a matching child group",
                );
                own.checked_mul(*group)
                    .expect("answer count overflowed u128")
            })
        };
        per_tuple[node_id] = node.tuples.iter().map(count).collect();
        if node_id != ctx.root() {
            let counts = &per_tuple[node_id];
            let sum = |members: &Vec<usize>| members.iter().map(|&i| counts[i]).sum();
            let groups = node
                .groups
                .iter()
                .map(|(key, members)| (key.clone(), sum(members)));
            per_group[node_id] = groups.collect();
        }
    }
    SubtreeCounts {
        per_tuple,
        per_group,
    }
}

/// The number of answers `|Q(D)|` of the context's instance.
pub fn count_answers_ctx(ctx: &JoinTreeContext) -> u128 {
    if ctx.has_no_answers() {
        return 0;
    }
    let counts = subtree_counts(ctx);
    counts.per_tuple[ctx.root()].iter().sum()
}

/// The number of answers `|Q(D)|` of an acyclic instance, in time linear in the
/// database (up to hashing).
pub fn count_answers(instance: &Instance) -> Result<u128> {
    let ctx = JoinTreeContext::build(instance)?;
    Ok(count_answers_ctx(&ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_data::{Database, Relation, Value};
    use qjoin_query::query::{figure1_query, path_query, star_query};
    use qjoin_query::{Atom, Instance, JoinQuery};

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
    fn figure1_count_is_thirteen() {
        // The paper's Example 2.1: the two root counts 9 and 4 sum to 13.
        assert_eq!(count_answers(&figure1_instance()).unwrap(), 13);
    }

    #[test]
    fn empty_join_counts_zero() {
        let r1 = Relation::from_rows("R1", &[&[1, 1]]).unwrap();
        let r2 = Relation::from_rows("R2", &[&[2, 5]]).unwrap();
        let inst =
            Instance::new(path_query(2), Database::from_relations([r1, r2]).unwrap()).unwrap();
        assert_eq!(count_answers(&inst).unwrap(), 0);
    }

    #[test]
    fn cartesian_product_counts_multiply() {
        let a = Relation::from_rows("A", &[&[1], &[2], &[3]]).unwrap();
        let b = Relation::from_rows("B", &[&[1], &[2], &[3], &[4]]).unwrap();
        let q = JoinQuery::new(vec![
            Atom::from_names("A", &["x"]),
            Atom::from_names("B", &["y"]),
        ]);
        let inst = Instance::new(q, Database::from_relations([a, b]).unwrap()).unwrap();
        assert_eq!(count_answers(&inst).unwrap(), 12);
    }

    #[test]
    fn star_query_count_matches_product_of_group_sizes() {
        // All relations share x0 = 0, so the count is the product of relation sizes.
        let mut db = Database::new();
        for i in 1..=3 {
            let mut rel = Relation::new(format!("R{i}"), 2);
            for j in 0..(i + 1) as i64 {
                rel.push(vec![Value::from(0), Value::from(j)]).unwrap();
            }
            db.add_relation(rel).unwrap();
        }
        let inst = Instance::new(star_query(3), db).unwrap();
        assert_eq!(count_answers(&inst).unwrap(), 2 * 3 * 4);
    }

    #[test]
    fn path_query_count_matches_brute_force() {
        // 3-path over small relations; compare against a nested-loop count.
        let r1: Vec<[i64; 2]> = vec![[1, 1], [1, 2], [2, 2], [3, 1]];
        let r2: Vec<[i64; 2]> = vec![[1, 4], [2, 4], [2, 5]];
        let r3: Vec<[i64; 2]> = vec![[4, 0], [4, 1], [5, 9]];
        let mut expected = 0u128;
        for a in &r1 {
            for b in &r2 {
                for c in &r3 {
                    if a[1] == b[0] && b[1] == c[0] {
                        expected += 1;
                    }
                }
            }
        }
        let to_rel = |name: &str, rows: &Vec<[i64; 2]>| {
            let rows: Vec<Vec<i64>> = rows.iter().map(|r| r.to_vec()).collect();
            let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
            Relation::from_rows(name, &refs).unwrap()
        };
        let inst = Instance::new(
            path_query(3),
            Database::from_relations([to_rel("R1", &r1), to_rel("R2", &r2), to_rel("R3", &r3)])
                .unwrap(),
        )
        .unwrap();
        assert_eq!(count_answers(&inst).unwrap(), expected);
        assert!(expected > 0);
    }

    #[test]
    fn counts_are_invariant_under_rerooting() {
        let inst = figure1_instance();
        let base_tree = qjoin_query::acyclicity::gyo_join_tree(inst.query()).unwrap();
        for root in 0..base_tree.num_nodes() {
            let tree = base_tree.rerooted(root);
            let ctx = JoinTreeContext::build_with_tree(&inst, tree).unwrap();
            assert_eq!(count_answers_ctx(&ctx), 13, "root {root}");
        }
    }

    /// The context rooted exactly as in Figure 1: R is the root, S and T are its
    /// children, and U is a child of T.
    fn figure1_context() -> JoinTreeContext {
        let tree = qjoin_query::JoinTree::from_edges(4, &[(0, 1), (0, 2), (2, 3)], 0);
        JoinTreeContext::build_with_tree(&figure1_instance(), tree).unwrap()
    }

    fn node_of(ctx: &JoinTreeContext, relation: &str) -> usize {
        let named = |n: &&crate::NodeData| ctx.query().atom(n.atom_index).relation() == relation;
        ctx.nodes().iter().find(named).unwrap().node_id
    }

    #[test]
    fn subtree_counts_reproduce_figure1_per_tuple_counts() {
        let ctx = figure1_context();
        let result = subtree_counts(&ctx);
        // Figure 1a annotates R(1,1) with count 9 and R(2,2) with count 4.
        let mut counts = result.per_tuple[node_of(&ctx, "R")].clone();
        counts.sort_unstable();
        assert_eq!(counts, vec![4, 9]);
        // T(1,6) and T(2,6) have count 2; T(1,7) has count 1.
        let mut t_counts = result.per_tuple[node_of(&ctx, "T")].clone();
        t_counts.sort_unstable();
        assert_eq!(t_counts, vec![1, 2, 2]);
    }

    #[test]
    fn group_counts_aggregate_with_sum() {
        let ctx = figure1_context();
        let result = subtree_counts(&ctx);
        // The S node is grouped by x1; the group x1=1 holds 3 tuples each with
        // count 1 → 3, matching "1+1+1=3" in Figure 1b.
        let s = node_of(&ctx, "S");
        assert_eq!(result.per_group[s].get(&vec![Value::from(1)]), Some(&3));
        // T(2,6) receives 2 from U's group x4=6.
        let (u, t) = (node_of(&ctx, "U"), node_of(&ctx, "T"));
        let t26 = (ctx.node(t).tuples.iter())
            .find(|t| t.values() == [Value::from(2), Value::from(6)])
            .unwrap();
        let key = ctx.node(u).key_from_parent(t26);
        assert_eq!(result.per_group[u].get(&key), Some(&2));
    }
}
