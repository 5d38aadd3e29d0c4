//! What a pivot selection returns (Section 4), and the quality Algorithm 2
//! guarantees for a join-tree shape.
//!
//! Algorithm 2 itself is an iterated "median of medians" in the message-passing
//! pattern: every tuple computes a pivot of the partial answers of its subtree; a
//! join group combines its members' pivots with a *weighted median* (weights = subtree
//! answer counts); a tuple absorbs the group pivots of its children by unioning the
//! variable assignments (Lemma 4.4 guarantees consistency) and multiplying counts.
//! It runs over flat code rows in [`crate::encoded`]'s pivot scan.

use qjoin_query::{Assignment, JoinTree};
use qjoin_ranking::Weight;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
